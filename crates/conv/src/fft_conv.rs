//! FFT-based convolution engine (cuDNN `ALGO_FFT` analogue).
//!
//! All three operations are computed in the frequency domain via the
//! convolution/correlation theorems. Like cuDNN's FFT algorithms, this engine
//! supports only unit stride and padding smaller than the filter, and its
//! workspace must hold transformed copies of the activations and filters
//! — which is exactly the "fast but workspace-hungry" profile that motivates
//! micro-batching (the activation spectra scale with the batch size, the
//! filter spectra do not).
//!
//! Derivations (1-D notation, stride 1, `pad < R`; 2-D is the tensor product):
//!
//! * Forward:   `y[p] = Σ_r x[p + r - pad] w[r]` is cross-correlation, so
//!   `y[p] = IFFT(X ⊙ conj(W))[(p - pad) mod F]` with `F ≥ H + R - 1`.
//! * BwdData:   `dx[t] = Σ_r dy[t - r + pad] w[r]` is convolution, so
//!   `dx[t] = IFFT(DY ⊙ W)[t + pad]` with `F ≥ Ho + R - 1 = H + 2·pad`.
//! * BwdFilter: `dw[r] = Σ_p x[r - pad + p] dy[p]` is cross-correlation of
//!   the input with the output gradient, so
//!   `dw[r] = IFFT(X ⊙ conj(DY))[(r - pad) mod F]` with `F ≥ H + Ho - 1`.
//!
//! **Layout.** Every operand image is real, so its spectrum is Hermitian and
//! the engine keeps only half of it: [`RealFft2d`] stores the height
//! frequencies `0 ..= fh/2` for every width frequency, as separate real and
//! imaginary planes of `fw × (fh/2 + 1)` floats. The element-wise products
//! then run over two contiguous planes per operand, and the transforms
//! vectorize across whole grid rows (see [`crate::fft`]). The forward
//! transforms never touch the zero-padding rows; the inverse transforms
//! finish only the output columns a caller keeps.
//!
//! **Workspace** ([`workspace_floats`]) is exactly what one call stages: a
//! half spectrum per image of each operand, one product accumulator, and the
//! transform scratch (`fh × fw` floats; none for grids 1 or 2 rows high).
//! The plan ([`FftPlan`]) owns those buffers, so the filter spectra survive
//! across calls.

use crate::fft::{next_pow2, OutWindow, RealFft2d};
use crate::plan::{fingerprint_f32, FftPlan};
use crate::{ConvError, EngineKind};
use ucudnn_tensor::ConvGeometry;

/// Why the FFT engine refuses a geometry.
fn unsupported_reason(g: &ConvGeometry) -> Option<&'static str> {
    if g.stride_h != 1 || g.stride_w != 1 {
        Some("FFT convolution requires unit stride")
    } else if g.pad_h >= g.filter.r || g.pad_w >= g.filter.s {
        Some("FFT convolution requires padding smaller than the filter")
    } else {
        None
    }
}

/// True when this engine can run the given geometry.
pub fn supports(g: &ConvGeometry) -> bool {
    unsupported_reason(g).is_none()
}

fn assert_supported(g: &ConvGeometry) {
    if let Some(r) = unsupported_reason(g) {
        panic!("{r} (geometry {g})");
    }
}

/// Transform grid sizes per operation.
fn grid(g: &ConvGeometry, op: FftOp) -> (usize, usize) {
    let (ho, wo) = (g.out_h(), g.out_w());
    match op {
        FftOp::Forward => (
            next_pow2(g.input.h + g.filter.r - 1),
            next_pow2(g.input.w + g.filter.s - 1),
        ),
        FftOp::BackwardData => (
            next_pow2(ho + g.filter.r - 1),
            next_pow2(wo + g.filter.s - 1),
        ),
        FftOp::BackwardFilter => (next_pow2(g.input.h + ho - 1), next_pow2(g.input.w + wo - 1)),
    }
}

/// Which convolution operation a workspace query refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FftOp {
    /// Forward cross-correlation.
    Forward,
    /// Data gradient.
    BackwardData,
    /// Filter gradient.
    BackwardFilter,
}

/// One operand: `count` real images of `h × w`.
#[derive(Debug, Clone, Copy)]
struct Images {
    count: usize,
    h: usize,
    w: usize,
}

/// How one operation maps onto transforms and products. Output image
/// `i·J + j` (for `i < I`, `j < J`) is the inverse transform, read through
/// `window`, of `Σ_{t < T} A[a·(i, j, t)] ⊙ B[b·(i, j, t)]`, with `B`
/// conjugated for the two correlations. `a` and `b` are index strides on
/// `(i, j, t)`. When `B` is the filter, its spectra stay in the plan and
/// are re-derived only when its fingerprint or the grid changes.
#[derive(Debug, Clone, Copy)]
struct Recipe {
    a: Images,
    b: Images,
    ijt: (usize, usize, usize),
    a_stride: [usize; 3],
    b_stride: [usize; 3],
    conj: bool,
    b_is_filter: bool,
    window: OutWindow,
}

fn recipe(g: &ConvGeometry, op: FftOp) -> Recipe {
    let (fh, fw) = grid(g, op);
    let (n, c, h, w) = (g.input.n, g.input.c, g.input.h, g.input.w);
    let (k, r, s) = (g.filter.k, g.filter.r, g.filter.s);
    let (ho, wo) = (g.out_h(), g.out_w());
    let img = |count, h, w| Images { count, h, w };
    // Correlations read grid position (p - pad) mod F.
    let corr = |h, w| OutWindow {
        h,
        w,
        off_h: fh - g.pad_h,
        off_w: fw - g.pad_w,
    };
    match op {
        FftOp::Forward => Recipe {
            a: img(n * c, h, w),
            b: img(k * c, r, s),
            ijt: (n, k, c),
            a_stride: [c, 0, 1],
            b_stride: [0, c, 1],
            conj: true,
            b_is_filter: true,
            window: corr(ho, wo),
        },
        FftOp::BackwardData => Recipe {
            a: img(n * k, ho, wo),
            b: img(k * c, r, s),
            ijt: (n, c, k),
            a_stride: [k, 0, 1],
            b_stride: [0, 1, c],
            conj: false,
            b_is_filter: true,
            window: OutWindow {
                h,
                w,
                off_h: g.pad_h,
                off_w: g.pad_w,
            },
        },
        FftOp::BackwardFilter => Recipe {
            a: img(n * c, h, w),
            b: img(n * k, ho, wo),
            ijt: (k, c, n),
            a_stride: [0, 1, c],
            b_stride: [1, 0, k],
            conj: true,
            b_is_filter: false,
            window: corr(r, s),
        },
    }
}

/// Workspace in `f32` elements: everything one call stages — a half
/// spectrum per image of both operands, one accumulator spectrum, and the
/// transform scratch.
pub fn workspace_floats(g: &ConvGeometry, op: FftOp) -> usize {
    let (fh, fw) = grid(g, op);
    let rc = recipe(g, op);
    (rc.a.count + rc.b.count + 1) * RealFft2d::spectrum_floats_for(fh, fw)
        + RealFft2d::scratch_floats_for(fh, fw)
}

/// Borrow the transform out of a plan, verifying it exists and was built for
/// this grid. A plan checked out in the wrong state (no transform, or one for
/// another geometry's grid) degrades to a typed [`ConvError::PlanState`] —
/// the §9 degradation ladder turns that into a failed-execution status
/// instead of aborting the worker.
fn checked_fft(fft: &Option<RealFft2d>, fh: usize, fw: usize) -> Result<&RealFft2d, ConvError> {
    match fft {
        Some(f) if f.grid() == (fh, fw) => Ok(f),
        Some(_) => Err(ConvError::PlanState {
            engine: EngineKind::Fft,
            reason: "FFT plan tables were built for a different grid",
        }),
        None => Err(ConvError::PlanState {
            engine: EngineKind::Fft,
            reason: "FFT plan has no precomputed tables",
        }),
    }
}

/// Half spectra of every image of one operand, back to back in `spec`.
fn transform_all(
    fft: &RealFft2d,
    data: &[f32],
    im: Images,
    spec: &mut Vec<f32>,
    scratch: &mut [f32],
) {
    let (sl, px) = (fft.spectrum_floats(), im.h * im.w);
    spec.resize(im.count * sl, 0.0);
    for (img, out) in data.chunks_exact(px).zip(spec.chunks_exact_mut(sl)) {
        fft.forward(img, im.h, im.w, out, scratch);
    }
}

/// `acc += x ⊙ y` (or `x ⊙ conj(y)`) over planar half spectra.
fn mac(acc: &mut [f32], x: &[f32], y: &[f32], conj: bool) {
    let n = acc.len() / 2;
    let (cr, ci) = acc.split_at_mut(n);
    let (xr, xi) = x.split_at(n);
    let (yr, yi) = y.split_at(n);
    let (ci, xr, xi, yr, yi) = (&mut ci[..n], &xr[..n], &xi[..n], &yr[..n], &yi[..n]);
    if conj {
        for l in 0..n {
            cr[l] += xr[l] * yr[l] + xi[l] * yi[l];
            ci[l] += xi[l] * yr[l] - xr[l] * yi[l];
        }
    } else {
        for l in 0..n {
            cr[l] += xr[l] * yr[l] - xi[l] * yi[l];
            ci[l] += xr[l] * yi[l] + xi[l] * yr[l];
        }
    }
}

/// The shared engine body of all three operations.
#[allow(clippy::too_many_arguments)] // mirrors the cuDNN convolution ABI
fn run(
    g: &ConvGeometry,
    op: FftOp,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    alpha: f32,
    beta: f32,
    plan: &mut FftPlan,
) -> Result<(), ConvError> {
    let (fh, fw) = grid(g, op);
    let rc = recipe(g, op);
    plan.ensure_tables(fh, fw);
    let fp = rc.b_is_filter.then(|| fingerprint_f32(b));
    let FftPlan {
        fft,
        a_spec,
        b_spec,
        acc,
        scratch,
        b_fp,
    } = plan;
    let fft = checked_fft(fft, fh, fw)?;
    let sl = fft.spectrum_floats();
    scratch.resize(fft.scratch_floats(), 0.0);

    // Spectra of the per-call operand ...
    transform_all(fft, a, rc.a, a_spec, scratch);
    // ... and of the other one, reused while the filter bits hold.
    if fp.is_none() || *b_fp != fp || b_spec.len() != rc.b.count * sl {
        transform_all(fft, b, rc.b, b_spec, scratch);
        *b_fp = fp;
    }

    acc.resize(sl, 0.0);
    let (ni, nj, nt) = rc.ijt;
    let px = rc.window.h * rc.window.w;
    let at = |s: [usize; 3], i, j, t| (i * s[0] + j * s[1] + t * s[2]) * sl;
    // Each output reads the spectra tied to its `i` and to its `j`. The
    // longer loop goes outside: the larger operand then streams through
    // once, and the smaller one, re-read on every outer step, stays cached.
    let j_outer = ni <= nj;
    let (outer, inner) = if j_outer { (nj, ni) } else { (ni, nj) };
    for x in 0..outer {
        for y in 0..inner {
            let (i, j) = if j_outer { (y, x) } else { (x, y) };
            acc.fill(0.0);
            for t in 0..nt {
                let (ai, bi) = (at(rc.a_stride, i, j, t), at(rc.b_stride, i, j, t));
                mac(acc, &a_spec[ai..ai + sl], &b_spec[bi..bi + sl], rc.conj);
            }
            let o = (i * nj + j) * px;
            fft.inverse(acc, rc.window, &mut out[o..o + px], alpha, beta, scratch);
        }
    }
    Ok(())
}

/// `y = alpha * conv(x, w) + beta * y` via the correlation theorem.
///
/// The `ws` slice is checked against [`workspace_floats`] to mirror the
/// cuDNN contract even though the spectra are staged in plan-owned buffers
/// of exactly that size.
pub fn forward(
    g: &ConvGeometry,
    x: &[f32],
    w: &[f32],
    y: &mut [f32],
    alpha: f32,
    beta: f32,
    ws: &mut [f32],
) -> Result<(), ConvError> {
    forward_with_plan(g, x, w, y, alpha, beta, ws, &mut FftPlan::default())
}

/// [`forward`] with a reusable plan: the transform tables, staging buffers,
/// and the filter spectra (revalidated by fingerprint) persist across calls,
/// so every micro-batch after the first skips the `K*C` filter transforms.
/// Bit-identical to the plan-free path.
#[allow(clippy::too_many_arguments)] // mirrors the cuDNN convolution ABI
pub fn forward_with_plan(
    g: &ConvGeometry,
    x: &[f32],
    w: &[f32],
    y: &mut [f32],
    alpha: f32,
    beta: f32,
    ws: &mut [f32],
    plan: &mut FftPlan,
) -> Result<(), ConvError> {
    assert_supported(g);
    assert!(
        ws.len() >= workspace_floats(g, FftOp::Forward),
        "workspace too small"
    );
    assert_eq!(x.len(), g.input.len(), "x buffer mismatch");
    assert_eq!(w.len(), g.filter.len(), "w buffer mismatch");
    assert_eq!(y.len(), g.output().len(), "y buffer mismatch");
    run(g, FftOp::Forward, x, w, y, alpha, beta, plan)
}

/// `dx = alpha * grad_x + beta * dx` via the convolution theorem.
pub fn backward_data(
    g: &ConvGeometry,
    dy: &[f32],
    w: &[f32],
    dx: &mut [f32],
    alpha: f32,
    beta: f32,
    ws: &mut [f32],
) -> Result<(), ConvError> {
    backward_data_with_plan(g, dy, w, dx, alpha, beta, ws, &mut FftPlan::default())
}

/// [`backward_data`] with a reusable plan (tables, buffers, filter spectra).
/// Bit-identical to the plan-free path.
#[allow(clippy::too_many_arguments)] // mirrors the cuDNN convolution ABI
pub fn backward_data_with_plan(
    g: &ConvGeometry,
    dy: &[f32],
    w: &[f32],
    dx: &mut [f32],
    alpha: f32,
    beta: f32,
    ws: &mut [f32],
    plan: &mut FftPlan,
) -> Result<(), ConvError> {
    assert_supported(g);
    assert!(
        ws.len() >= workspace_floats(g, FftOp::BackwardData),
        "workspace too small"
    );
    assert_eq!(dy.len(), g.output().len(), "dy buffer mismatch");
    assert_eq!(w.len(), g.filter.len(), "w buffer mismatch");
    assert_eq!(dx.len(), g.input.len(), "dx buffer mismatch");
    run(g, FftOp::BackwardData, dy, w, dx, alpha, beta, plan)
}

/// `dw = alpha * grad_w + beta * dw` via the correlation theorem, reducing
/// over the batch in the frequency domain.
pub fn backward_filter(
    g: &ConvGeometry,
    x: &[f32],
    dy: &[f32],
    dw: &mut [f32],
    alpha: f32,
    beta: f32,
    ws: &mut [f32],
) -> Result<(), ConvError> {
    backward_filter_with_plan(g, x, dy, dw, alpha, beta, ws, &mut FftPlan::default())
}

/// [`backward_filter`] with a reusable plan. Both operands vary per call, so
/// only the tables and buffers are reused (no spectra caching).
/// Bit-identical to the plan-free path.
#[allow(clippy::too_many_arguments)] // mirrors the cuDNN convolution ABI
pub fn backward_filter_with_plan(
    g: &ConvGeometry,
    x: &[f32],
    dy: &[f32],
    dw: &mut [f32],
    alpha: f32,
    beta: f32,
    ws: &mut [f32],
    plan: &mut FftPlan,
) -> Result<(), ConvError> {
    assert_supported(g);
    assert!(
        ws.len() >= workspace_floats(g, FftOp::BackwardFilter),
        "workspace too small"
    );
    assert!(
        g.pad_h < g.out_h() && g.pad_w < g.out_w(),
        "FFT backward-filter requires pad < output size"
    );
    assert_eq!(x.len(), g.input.len(), "x buffer mismatch");
    assert_eq!(dy.len(), g.output().len(), "dy buffer mismatch");
    assert_eq!(dw.len(), g.filter.len(), "dw buffer mismatch");
    // Both spectra sets are per-call here; `run` also clears the filter
    // fingerprint, so a mistakenly shared plan never serves stale spectra.
    run(g, FftOp::BackwardFilter, x, dy, dw, alpha, beta, plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct;
    use ucudnn_tensor::{assert_all_close, FilterShape, Shape4, Tensor};

    fn geoms() -> Vec<ConvGeometry> {
        vec![
            ConvGeometry::with_square(Shape4::new(2, 3, 8, 8), FilterShape::new(4, 3, 3, 3), 1, 1),
            ConvGeometry::with_square(Shape4::new(2, 2, 9, 9), FilterShape::new(3, 2, 5, 5), 2, 1),
            ConvGeometry::with_square(Shape4::new(1, 1, 6, 10), FilterShape::new(2, 1, 3, 3), 0, 1),
            // AlexNet conv2 shape (scaled down in batch) — the paper's pet layer.
            ConvGeometry::with_square(
                Shape4::new(2, 8, 27, 27),
                FilterShape::new(4, 8, 5, 5),
                2,
                1,
            ),
        ]
    }

    /// The oracle sweep: 3×3, 5×5, 1×1 and rectangular filters; pad 0, 1
    /// and 2; non-square inputs; `h + r − 1` landing exactly on a power of
    /// two; n = 1 and odd n; odd K and C; grids only 1 or 2 rows high.
    fn sweep() -> Vec<ConvGeometry> {
        let sq = |n, c, h, w, k, r, pad| {
            ConvGeometry::with_square(
                Shape4::new(n, c, h, w),
                FilterShape::new(k, c, r, r),
                pad,
                1,
            )
        };
        vec![
            sq(1, 3, 8, 8, 5, 3, 1),
            sq(3, 2, 6, 10, 4, 5, 2),
            sq(2, 5, 7, 5, 3, 1, 0),
            sq(2, 3, 14, 6, 2, 3, 0), // 14 + 3 − 1 = 16, 6 + 3 − 1 = 8
            sq(1, 3, 14, 6, 3, 3, 1),
            sq(3, 1, 9, 12, 3, 5, 0),
            sq(1, 2, 5, 7, 1, 3, 2),
            sq(3, 3, 1, 4, 5, 1, 0), // 1-row grid
            sq(2, 1, 2, 3, 3, 1, 0), // 2-row grid
            sq(1, 1, 1, 1, 1, 1, 0), // 1×1 grid
            ConvGeometry::new(
                Shape4::new(2, 3, 11, 6),
                FilterShape::new(5, 3, 3, 5),
                1,
                2,
                1,
                1,
            ),
        ]
    }

    /// Run `op` through the FFT engine (optionally through `plan`) and the
    /// direct oracle on deterministic data; return (fft, direct).
    fn both(g: &ConvGeometry, op: FftOp, plan: Option<&mut FftPlan>) -> (Tensor, Tensor) {
        let x = Tensor::random(g.input, 1);
        let w = Tensor::random(g.filter.as_shape4(), 2);
        let dy = Tensor::random(g.output(), 3);
        let mut ws = vec![0.0; workspace_floats(g, op)];
        let fresh = &mut FftPlan::default();
        let plan = plan.unwrap_or(fresh);
        let (x, w, dy) = (x.as_slice(), w.as_slice(), dy.as_slice());
        match op {
            FftOp::Forward => {
                let (mut got, mut want) = (Tensor::zeros(g.output()), Tensor::zeros(g.output()));
                forward_with_plan(g, x, w, got.as_mut_slice(), 1.0, 0.0, &mut ws, plan).unwrap();
                direct::forward(g, x, w, want.as_mut_slice(), 1.0, 0.0);
                (got, want)
            }
            FftOp::BackwardData => {
                let (mut got, mut want) = (Tensor::zeros(g.input), Tensor::zeros(g.input));
                backward_data_with_plan(g, dy, w, got.as_mut_slice(), 1.0, 0.0, &mut ws, plan)
                    .unwrap();
                direct::backward_data(g, dy, w, want.as_mut_slice(), 1.0, 0.0);
                (got, want)
            }
            FftOp::BackwardFilter => {
                let shape = g.filter.as_shape4();
                let (mut got, mut want) = (Tensor::zeros(shape), Tensor::zeros(shape));
                backward_filter_with_plan(g, x, dy, got.as_mut_slice(), 1.0, 0.0, &mut ws, plan)
                    .unwrap();
                direct::backward_filter(g, x, dy, want.as_mut_slice(), 1.0, 0.0);
                (got, want)
            }
        }
    }

    const OPS: [FftOp; 3] = [FftOp::Forward, FftOp::BackwardData, FftOp::BackwardFilter];

    fn runnable(g: &ConvGeometry, op: FftOp) -> bool {
        supports(g) && (op != FftOp::BackwardFilter || (g.pad_h < g.out_h() && g.pad_w < g.out_w()))
    }

    #[test]
    fn forward_matches_direct() {
        for g in geoms() {
            let (got, want) = both(&g, FftOp::Forward, None);
            assert_all_close(&want, &got, 2e-3);
        }
    }

    #[test]
    fn backward_data_matches_direct() {
        for g in geoms() {
            let (got, want) = both(&g, FftOp::BackwardData, None);
            assert_all_close(&want, &got, 2e-3);
        }
    }

    #[test]
    fn backward_filter_matches_direct() {
        for g in geoms() {
            let (got, want) = both(&g, FftOp::BackwardFilter, None);
            assert_all_close(&want, &got, 5e-3);
        }
    }

    #[test]
    fn oracle_sweep_matches_direct_on_every_op() {
        for g in sweep() {
            for op in OPS {
                if !runnable(&g, op) {
                    continue;
                }
                let (got, want) = both(&g, op, None);
                let tol = if op == FftOp::BackwardFilter {
                    5e-3
                } else {
                    2e-3
                };
                assert!(
                    ucudnn_tensor::max_rel_diff(&want, &got) <= tol,
                    "{op:?} on {g}: max rel diff {}",
                    ucudnn_tensor::max_rel_diff(&want, &got)
                );
            }
        }
    }

    #[test]
    fn alpha_beta_semantics() {
        let g = geoms()[0];
        let x = Tensor::random(g.input, 7);
        let w = Tensor::random(g.filter.as_shape4(), 8);
        let init = Tensor::random(g.output(), 9);
        let mut y_ref = init.clone();
        direct::forward(
            &g,
            x.as_slice(),
            w.as_slice(),
            y_ref.as_mut_slice(),
            0.5,
            2.0,
        );
        let mut y = init.clone();
        let mut ws = vec![0.0; workspace_floats(&g, FftOp::Forward)];
        forward(
            &g,
            x.as_slice(),
            w.as_slice(),
            y.as_mut_slice(),
            0.5,
            2.0,
            &mut ws,
        )
        .unwrap();
        assert_all_close(&y_ref, &y, 2e-3);
    }

    /// Cold (fresh plan) and warm (reused plan) runs of every op agree bit
    /// for bit, on every geometry of the sweep.
    #[test]
    fn warm_plan_is_bit_identical_for_every_op() {
        for g in geoms().into_iter().chain(sweep()) {
            for op in OPS {
                if !runnable(&g, op) {
                    continue;
                }
                let (cold, _) = both(&g, op, None);
                let mut plan = FftPlan::default();
                for round in 0..3 {
                    let (warm, _) = both(&g, op, Some(&mut plan));
                    for (a, b) in cold.as_slice().iter().zip(warm.as_slice()) {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "{op:?} round {round} diverged ({g})"
                        );
                    }
                }
                assert!(plan.bytes() > 0, "warm plan should hold cached state");
                // The plan stages exactly the advertised workspace.
                let staged =
                    plan.a_spec.len() + plan.b_spec.len() + plan.acc.len() + plan.scratch.len();
                assert_eq!(staged, workspace_floats(&g, op), "{op:?} on {g}");
            }
        }
    }

    #[test]
    fn plan_revalidates_on_filter_update() {
        let g = geoms()[0];
        let x = Tensor::random(g.input, 41);
        let w1 = Tensor::random(g.filter.as_shape4(), 42);
        let w2 = Tensor::random(g.filter.as_shape4(), 43);
        let mut ws = vec![0.0; workspace_floats(&g, FftOp::Forward)];
        let mut plan = FftPlan::default();
        // Warm the plan on w1, then run with w2: the fingerprint must force a
        // re-transform, matching a cold w2 run exactly.
        let mut scratch = Tensor::zeros(g.output());
        forward_with_plan(
            &g,
            x.as_slice(),
            w1.as_slice(),
            scratch.as_mut_slice(),
            1.0,
            0.0,
            &mut ws,
            &mut plan,
        )
        .unwrap();
        let mut cold = Tensor::zeros(g.output());
        forward(
            &g,
            x.as_slice(),
            w2.as_slice(),
            cold.as_mut_slice(),
            1.0,
            0.0,
            &mut ws,
        )
        .unwrap();
        let mut warm = Tensor::zeros(g.output());
        forward_with_plan(
            &g,
            x.as_slice(),
            w2.as_slice(),
            warm.as_mut_slice(),
            1.0,
            0.0,
            &mut ws,
            &mut plan,
        )
        .unwrap();
        for (a, b) in cold.as_slice().iter().zip(warm.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits(), "stale filter spectra reused");
        }
    }

    #[test]
    fn missing_or_mismatched_tables_degrade_not_panic() {
        // A plan checked out in the wrong state must surface a typed
        // PlanState error (the degradation ladder's input), never panic.
        let err = checked_fft(&None, 8, 8).unwrap_err();
        assert!(matches!(
            err,
            ConvError::PlanState {
                engine: EngineKind::Fft,
                ..
            }
        ));
        assert!(err.to_string().contains("no precomputed tables"));

        let mut plan = FftPlan::default();
        plan.ensure_tables(8, 8);
        assert!(checked_fft(&plan.fft, 8, 8).is_ok());
        let err = checked_fft(&plan.fft, 16, 16).unwrap_err();
        assert!(err.to_string().contains("different grid"));
    }

    #[test]
    fn rejects_strided_geometry() {
        let g =
            ConvGeometry::with_square(Shape4::new(1, 1, 8, 8), FilterShape::new(1, 1, 3, 3), 1, 2);
        assert!(!supports(&g));
    }

    #[test]
    fn rejects_oversized_padding() {
        let g =
            ConvGeometry::with_square(Shape4::new(1, 1, 8, 8), FilterShape::new(1, 1, 3, 3), 3, 1);
        assert!(!supports(&g));
    }

    #[test]
    fn workspace_grows_with_batch_but_has_fixed_filter_term() {
        // The shape behind Fig. 9: activation spectra scale with N, the
        // filter spectra do not — so per-sample workspace shrinks as the
        // batch grows, and micro-batching shrinks the absolute requirement.
        let base = ConvGeometry::with_square(
            Shape4::new(256, 64, 27, 27),
            FilterShape::new(192, 64, 5, 5),
            2,
            1,
        );
        let w256 = workspace_floats(&base, FftOp::Forward);
        let w32 = workspace_floats(&base.with_batch(32), FftOp::Forward);
        assert!(w32 < w256);
        // The fixed K*C term means w32 > w256/8.
        assert!(w32 > w256 / 8, "w32={w32} w256={w256}");
    }

    /// Half spectra never need more workspace than full complex grids did:
    /// `2·fh·fw` floats per staged image plus one scratch grid.
    #[test]
    fn workspace_never_exceeds_the_full_spectrum_layout() {
        let mut geoms = geoms();
        geoms.extend(sweep());
        for (n, c, hw, k, r, pad) in [
            (32, 3, 32, 32, 3, 1),
            (32, 64, 8, 128, 3, 1),
            (7, 2, 2, 1, 1, 0),
        ] {
            geoms.push(ConvGeometry::with_square(
                Shape4::new(n, c, hw, hw),
                FilterShape::new(k, c, r, r),
                pad,
                1,
            ));
        }
        for g in geoms {
            for op in OPS {
                let (fh, fw) = grid(&g, op);
                let rc = recipe(&g, op);
                let full = 2 * fh * fw * (rc.a.count + rc.b.count + 1);
                assert!(workspace_floats(&g, op) <= full, "{op:?} on {g}");
            }
        }
    }
}
