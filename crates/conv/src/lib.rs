//! CPU convolution engines for the μ-cuDNN reproduction.
//!
//! Five interchangeable engines compute the same mathematical operation with
//! different algorithm/workspace trade-offs, mirroring cuDNN's algorithm
//! families:
//!
//! | Engine       | cuDNN analogue           | workspace               | constraints |
//! |--------------|--------------------------|-------------------------|-------------|
//! | [`direct`]   | `IMPLICIT_GEMM`          | zero                    | none        |
//! | [`im2col_gemm`] | `GEMM`                | per-sample column matrix| none        |
//! | [`fft_conv`] | `FFT` / `FFT_TILING`     | half (Hermitian) re/im spectra of activations (∝ batch) and filters | stride 1, pad < filter |
//! | [`winograd`] | `WINOGRAD`               | transformed tiles (∝ batch) | 3×3, stride 1, pad ≤ 2; fwd & bwd-data only |
//! | [`winograd_f4`] | `WINOGRAD_NONFUSED`   | transformed 6×6 tiles (∝ batch) | 3×3, stride 1, pad ≤ 2; fwd & bwd-data only |
//!
//! The [`exec`] dispatcher gives the cuDNN-simulation layer one entry point
//! with uniform (alpha, beta, workspace) semantics and explicit
//! `NotSupported` errors, exactly like `cudnnConvolution*` status codes.

pub mod direct;
pub mod fft;
pub mod fft_conv;
pub mod gemm;
pub mod im2col;
pub mod im2col_gemm;
pub mod parallel;
pub mod plan;
pub mod winograd;
pub mod winograd_f4;

pub use plan::EnginePlan;
use ucudnn_tensor::ConvGeometry;

/// Which of the three convolution operations to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConvOp {
    /// `y = conv(x, w)`.
    Forward,
    /// `dx = grad_x(dy, w)`.
    BackwardData,
    /// `dw = grad_w(x, dy)`.
    BackwardFilter,
}

impl ConvOp {
    /// All three operations, in the paper's order.
    pub const ALL: [ConvOp; 3] = [
        ConvOp::Forward,
        ConvOp::BackwardData,
        ConvOp::BackwardFilter,
    ];
}

impl core::fmt::Display for ConvOp {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            ConvOp::Forward => "Forward",
            ConvOp::BackwardData => "BackwardData",
            ConvOp::BackwardFilter => "BackwardFilter",
        };
        f.write_str(s)
    }
}

/// The CPU compute engine behind a cuDNN-level algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Seven-loop reference convolution, zero workspace.
    Direct,
    /// im2col + GEMM.
    Gemm,
    /// Frequency-domain convolution.
    Fft,
    /// Winograd F(2×2, 3×3) (fused).
    Winograd,
    /// Winograd F(4×4, 3×3) (non-fused, larger tiles).
    WinogradF4,
}

impl EngineKind {
    /// All engines.
    pub const ALL: [EngineKind; 5] = [
        EngineKind::Direct,
        EngineKind::Gemm,
        EngineKind::Fft,
        EngineKind::Winograd,
        EngineKind::WinogradF4,
    ];
}

/// Errors surfaced by [`exec`], mirroring cuDNN status codes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConvError {
    /// The engine cannot run this (op, geometry) combination.
    NotSupported {
        /// Engine that refused.
        engine: EngineKind,
        /// Operation requested.
        op: ConvOp,
        /// Human-readable constraint that failed.
        reason: &'static str,
    },
    /// The provided workspace is smaller than required.
    WorkspaceTooSmall {
        /// Elements required.
        need: usize,
        /// Elements provided.
        got: usize,
    },
    /// A caller-held plan arrived in a state the engine cannot execute
    /// (e.g. an FFT plan without tables for this grid). Callers should
    /// degrade to planless execution rather than abort.
    PlanState {
        /// Engine that refused the plan.
        engine: EngineKind,
        /// Human-readable description of the bad state.
        reason: &'static str,
    },
}

impl core::fmt::Display for ConvError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ConvError::NotSupported { engine, op, reason } => {
                write!(f, "{engine:?} does not support {op}: {reason}")
            }
            ConvError::WorkspaceTooSmall { need, got } => {
                write!(f, "workspace too small: need {need} floats, got {got}")
            }
            ConvError::PlanState { engine, reason } => {
                write!(f, "{engine:?} plan unusable: {reason}")
            }
        }
    }
}

impl std::error::Error for ConvError {}

fn support_reason(engine: EngineKind, op: ConvOp, g: &ConvGeometry) -> Option<&'static str> {
    match engine {
        EngineKind::Direct | EngineKind::Gemm => None,
        EngineKind::Fft => {
            if !fft_conv::supports(g) {
                Some("requires unit stride and pad < filter size")
            } else if op == ConvOp::BackwardFilter && (g.pad_h >= g.out_h() || g.pad_w >= g.out_w())
            {
                Some("backward-filter requires pad < output size")
            } else {
                None
            }
        }
        EngineKind::Winograd | EngineKind::WinogradF4 => {
            if !winograd::supports(g) {
                Some("requires 3x3 filter, unit stride, pad <= 2")
            } else if op == ConvOp::BackwardFilter {
                Some("Winograd backward-filter is not implemented on the CPU engines")
            } else {
                None
            }
        }
    }
}

/// True when `engine` can execute `op` on geometry `g`.
pub fn supports(engine: EngineKind, op: ConvOp, g: &ConvGeometry) -> bool {
    support_reason(engine, op, g).is_none()
}

/// Required workspace in `f32` elements for `engine` running `op` on `g`.
/// Returns 0 for unsupported combinations (query-then-check like cuDNN).
pub fn workspace_floats(engine: EngineKind, op: ConvOp, g: &ConvGeometry) -> usize {
    if !supports(engine, op, g) {
        return 0;
    }
    match engine {
        EngineKind::Direct => 0,
        EngineKind::Gemm => im2col_gemm::workspace_floats(g),
        EngineKind::Fft => {
            let fop = match op {
                ConvOp::Forward => fft_conv::FftOp::Forward,
                ConvOp::BackwardData => fft_conv::FftOp::BackwardData,
                ConvOp::BackwardFilter => fft_conv::FftOp::BackwardFilter,
            };
            fft_conv::workspace_floats(g, fop)
        }
        EngineKind::Winograd => match op {
            ConvOp::Forward => winograd::workspace_floats(g),
            ConvOp::BackwardData => winograd::workspace_floats_backward_data(g),
            ConvOp::BackwardFilter => 0,
        },
        EngineKind::WinogradF4 => match op {
            ConvOp::Forward => winograd_f4::workspace_floats(g),
            ConvOp::BackwardData => winograd_f4::workspace_floats_backward_data(g),
            ConvOp::BackwardFilter => 0,
        },
    }
}

/// Execute one convolution operation.
///
/// Buffer roles by op (all dense NCHW/KCRS):
/// * `Forward`:        `a = x`, `b = w`,  `out = y`
/// * `BackwardData`:   `a = dy`, `b = w`, `out = dx`
/// * `BackwardFilter`: `a = x`, `b = dy`, `out = dw`
///
/// `out = alpha * op(a, b) + beta * out` in every case.
#[allow(clippy::too_many_arguments)] // BLAS/cuDNN-style signature
pub fn exec(
    engine: EngineKind,
    op: ConvOp,
    g: &ConvGeometry,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    alpha: f32,
    beta: f32,
    ws: &mut [f32],
) -> Result<(), ConvError> {
    // Delegating through a fresh plan guarantees the cached and uncached
    // paths are the same code — plans can never change results.
    let mut plan = EnginePlan::for_engine(engine);
    exec_with_plan(engine, op, g, a, b, out, alpha, beta, ws, &mut plan)
}

/// [`exec`] with a caller-held [`EnginePlan`] that caches call-invariant
/// state (packed filter panels, FFT tables, buffers and filter spectra, transformed
/// Winograd filters) across invocations. Reusing one plan for a layer's
/// micro-batches — and across training iterations — skips the per-call
/// re-derivation; results are bit-identical to [`exec`].
///
/// The plan variant must match `engine` (pass
/// [`EnginePlan::for_engine`]`(engine)`); a mismatch returns `NotSupported`.
#[allow(clippy::too_many_arguments)] // BLAS/cuDNN-style signature
pub fn exec_with_plan(
    engine: EngineKind,
    op: ConvOp,
    g: &ConvGeometry,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    alpha: f32,
    beta: f32,
    ws: &mut [f32],
    plan: &mut EnginePlan,
) -> Result<(), ConvError> {
    if let Some(reason) = support_reason(engine, op, g) {
        return Err(ConvError::NotSupported { engine, op, reason });
    }
    let need = workspace_floats(engine, op, g);
    if ws.len() < need {
        return Err(ConvError::WorkspaceTooSmall {
            need,
            got: ws.len(),
        });
    }
    match (engine, op, plan) {
        (EngineKind::Direct, ConvOp::Forward, EnginePlan::Direct) => {
            direct::forward(g, a, b, out, alpha, beta)
        }
        (EngineKind::Direct, ConvOp::BackwardData, EnginePlan::Direct) => {
            direct::backward_data(g, a, b, out, alpha, beta)
        }
        (EngineKind::Direct, ConvOp::BackwardFilter, EnginePlan::Direct) => {
            direct::backward_filter(g, a, b, out, alpha, beta)
        }
        (EngineKind::Gemm, ConvOp::Forward, EnginePlan::Gemm(p)) => {
            im2col_gemm::forward_with_plan(g, a, b, out, alpha, beta, ws, p)
        }
        (EngineKind::Gemm, ConvOp::BackwardData, EnginePlan::Gemm(p)) => {
            im2col_gemm::backward_data_with_plan(g, a, b, out, alpha, beta, ws, p)
        }
        (EngineKind::Gemm, ConvOp::BackwardFilter, EnginePlan::Gemm(_)) => {
            // Both GEMM operands vary per call here; nothing to cache.
            im2col_gemm::backward_filter(g, a, b, out, alpha, beta, ws)
        }
        (EngineKind::Fft, ConvOp::Forward, EnginePlan::Fft(p)) => {
            return fft_conv::forward_with_plan(g, a, b, out, alpha, beta, ws, p)
        }
        (EngineKind::Fft, ConvOp::BackwardData, EnginePlan::Fft(p)) => {
            return fft_conv::backward_data_with_plan(g, a, b, out, alpha, beta, ws, p)
        }
        (EngineKind::Fft, ConvOp::BackwardFilter, EnginePlan::Fft(p)) => {
            return fft_conv::backward_filter_with_plan(g, a, b, out, alpha, beta, ws, p)
        }
        (EngineKind::Winograd, ConvOp::Forward, EnginePlan::Winograd(p)) => {
            winograd::forward_with_plan(g, a, b, out, alpha, beta, ws, p)
        }
        (EngineKind::Winograd, ConvOp::BackwardData, EnginePlan::Winograd(p)) => {
            winograd::backward_data_with_plan(g, a, b, out, alpha, beta, ws, p)
        }
        (EngineKind::WinogradF4, ConvOp::Forward, EnginePlan::WinogradF4(p)) => {
            winograd_f4::forward_with_plan(g, a, b, out, alpha, beta, ws, p)
        }
        (EngineKind::WinogradF4, ConvOp::BackwardData, EnginePlan::WinogradF4(p)) => {
            winograd_f4::backward_data_with_plan(g, a, b, out, alpha, beta, ws, p)
        }
        (EngineKind::Winograd | EngineKind::WinogradF4, ConvOp::BackwardFilter, _) => {
            unreachable!("rejected above")
        }
        _ => {
            return Err(ConvError::NotSupported {
                engine,
                op,
                reason: "plan variant does not match the engine",
            })
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucudnn_tensor::{assert_all_close, FilterShape, Shape4, Tensor};

    fn g33() -> ConvGeometry {
        ConvGeometry::with_square(Shape4::new(2, 3, 8, 8), FilterShape::new(4, 3, 3, 3), 1, 1)
    }

    /// Every supported (engine, op) pair agrees with the direct reference.
    #[test]
    fn all_engines_agree_on_all_ops() {
        let g = g33();
        let x = Tensor::random(g.input, 1);
        let w = Tensor::random(g.filter.as_shape4(), 2);
        let dy = Tensor::random(g.output(), 3);
        for op in ConvOp::ALL {
            let (a, b, out_shape) = match op {
                ConvOp::Forward => (x.as_slice(), w.as_slice(), g.output()),
                ConvOp::BackwardData => (dy.as_slice(), w.as_slice(), g.input),
                ConvOp::BackwardFilter => (x.as_slice(), dy.as_slice(), g.filter.as_shape4()),
            };
            let mut reference = Tensor::zeros(out_shape);
            exec(
                EngineKind::Direct,
                op,
                &g,
                a,
                b,
                reference.as_mut_slice(),
                1.0,
                0.0,
                &mut [],
            )
            .unwrap();
            for engine in EngineKind::ALL {
                if !supports(engine, op, &g) {
                    continue;
                }
                let mut out = Tensor::zeros(out_shape);
                let mut ws = vec![0.0; workspace_floats(engine, op, &g)];
                exec(engine, op, &g, a, b, out.as_mut_slice(), 1.0, 0.0, &mut ws).unwrap();
                assert_all_close(&reference, &out, 5e-3);
            }
        }
    }

    #[test]
    fn unsupported_combinations_error_cleanly() {
        let g =
            ConvGeometry::with_square(Shape4::new(1, 1, 8, 8), FilterShape::new(1, 1, 3, 3), 1, 2);
        let x = Tensor::zeros(g.input);
        let w = Tensor::zeros(g.filter.as_shape4());
        let mut y = Tensor::zeros(g.output());
        let err = exec(
            EngineKind::Fft,
            ConvOp::Forward,
            &g,
            x.as_slice(),
            w.as_slice(),
            y.as_mut_slice(),
            1.0,
            0.0,
            &mut [],
        )
        .unwrap_err();
        assert!(matches!(
            err,
            ConvError::NotSupported {
                engine: EngineKind::Fft,
                ..
            }
        ));
        assert!(err.to_string().contains("stride"));
    }

    #[test]
    fn workspace_too_small_is_reported_not_panicked() {
        let g = g33();
        let x = Tensor::zeros(g.input);
        let w = Tensor::zeros(g.filter.as_shape4());
        let mut y = Tensor::zeros(g.output());
        let err = exec(
            EngineKind::Gemm,
            ConvOp::Forward,
            &g,
            x.as_slice(),
            w.as_slice(),
            y.as_mut_slice(),
            1.0,
            0.0,
            &mut [],
        )
        .unwrap_err();
        match err {
            ConvError::WorkspaceTooSmall { need, got } => {
                assert_eq!(need, im2col_gemm::workspace_floats(&g));
                assert_eq!(got, 0);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    /// A warm plan yields byte-identical output to the plan-free entry point
    /// for every supported (engine, op) pair — the determinism contract the
    /// cuDNN-sim plan cache relies on.
    #[test]
    fn warm_plans_are_bit_identical_across_engines() {
        let g = g33();
        let x = Tensor::random(g.input, 71);
        let w = Tensor::random(g.filter.as_shape4(), 72);
        let dy = Tensor::random(g.output(), 73);
        for engine in EngineKind::ALL {
            let mut plan = EnginePlan::for_engine(engine);
            for op in ConvOp::ALL {
                if !supports(engine, op, &g) {
                    continue;
                }
                let (a, b, out_shape) = match op {
                    ConvOp::Forward => (x.as_slice(), w.as_slice(), g.output()),
                    ConvOp::BackwardData => (dy.as_slice(), w.as_slice(), g.input),
                    ConvOp::BackwardFilter => (x.as_slice(), dy.as_slice(), g.filter.as_shape4()),
                };
                let mut ws = vec![0.0; workspace_floats(engine, op, &g)];
                let mut cold = Tensor::zeros(out_shape);
                exec(engine, op, &g, a, b, cold.as_mut_slice(), 1.0, 0.0, &mut ws).unwrap();
                for round in 0..3 {
                    let mut warm = Tensor::zeros(out_shape);
                    exec_with_plan(
                        engine,
                        op,
                        &g,
                        a,
                        b,
                        warm.as_mut_slice(),
                        1.0,
                        0.0,
                        &mut ws,
                        &mut plan,
                    )
                    .unwrap();
                    for (c, h) in cold.as_slice().iter().zip(warm.as_slice()) {
                        assert_eq!(
                            c.to_bits(),
                            h.to_bits(),
                            "{engine:?}/{op} diverged on round {round}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn mismatched_plan_variant_is_rejected() {
        let g = g33();
        let x = Tensor::zeros(g.input);
        let w = Tensor::zeros(g.filter.as_shape4());
        let mut y = Tensor::zeros(g.output());
        let mut ws = vec![0.0; workspace_floats(EngineKind::Gemm, ConvOp::Forward, &g)];
        let mut plan = EnginePlan::for_engine(EngineKind::Fft);
        let err = exec_with_plan(
            EngineKind::Gemm,
            ConvOp::Forward,
            &g,
            x.as_slice(),
            w.as_slice(),
            y.as_mut_slice(),
            1.0,
            0.0,
            &mut ws,
            &mut plan,
        )
        .unwrap_err();
        assert!(err.to_string().contains("plan variant"));
    }

    #[test]
    fn winograd_rejects_backward_filter() {
        let g = g33();
        assert!(!supports(EngineKind::Winograd, ConvOp::BackwardFilter, &g));
        assert!(supports(EngineKind::Winograd, ConvOp::BackwardData, &g));
    }

    #[test]
    fn direct_needs_no_workspace() {
        let g = g33();
        for op in ConvOp::ALL {
            assert_eq!(workspace_floats(EngineKind::Direct, op, &g), 0);
        }
    }
}
