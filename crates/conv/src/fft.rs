//! Radix-2 FFTs over planar vector rows, and the real-input 2-D transform
//! behind the FFT convolution engine.
//!
//! Every transform here works on *planar* data: a grid is a real plane and
//! an imaginary plane, each `rows × lanes` row-major. A 1-D transform runs
//! along the row index, and each butterfly combines two whole rows, so the
//! inner loop is a plain element-wise pass over `lanes` contiguous floats
//! that the autovectorizer turns into SIMD code.
//!
//! The forward transform is decimation-in-frequency (natural order in,
//! bit-reversed order out) and the inverse is decimation-in-time
//! (bit-reversed in, natural out), so neither ever permutes rows: spectra
//! only meet in element-wise products, which do not care about order.

/// Smallest power of two ≥ `n` (and ≥ 1).
pub fn next_pow2(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

/// Forward twiddle factors `W_n^j = e^{-2πij/n}` for `j = 0 ..= n/2` of one
/// power-of-two length `n`. A table for `n` also serves every length that
/// divides `n`, by striding.
#[derive(Debug, Clone)]
pub struct FftTables {
    n: usize,
    /// `cos(2πj/n)`.
    re: Vec<f32>,
    /// `-sin(2πj/n)`.
    im: Vec<f32>,
}

impl FftTables {
    /// Build the table for length `n` (a power of two). Each factor is
    /// evaluated directly in `f64`, so accuracy does not decay with `j`.
    ///
    /// # Panics
    /// Panics when the length is not a power of two.
    pub fn new(n: usize) -> Self {
        assert!(n.is_power_of_two(), "FFT length {n} is not a power of two");
        let ang = |j: usize| 2.0 * std::f64::consts::PI * j as f64 / n as f64;
        Self {
            n,
            re: (0..=n / 2).map(|j| ang(j).cos() as f32).collect(),
            im: (0..=n / 2).map(|j| -ang(j).sin() as f32).collect(),
        }
    }

    /// Heap bytes held (plan-cache accounting).
    pub fn bytes(&self) -> usize {
        (self.re.capacity() + self.im.capacity()) * core::mem::size_of::<f32>()
    }

    /// Stride that maps `W_{len}^i` onto this table (`len` divides `n`).
    fn stride(&self, len: usize) -> usize {
        assert!(
            len.is_power_of_two() && self.n.is_multiple_of(len),
            "length {len} does not divide the table length {}",
            self.n
        );
        self.n / len
    }
}

/// `b = a · w` row-wise (the butterfly of a stage whose upper half is zero).
#[inline(always)]
fn twiddle_copy(ar: &[f32], ai: &[f32], br: &mut [f32], bi: &mut [f32], wr: f32, wi: f32) {
    let n = ar.len();
    let (ai, br, bi) = (&ai[..n], &mut br[..n], &mut bi[..n]);
    for l in 0..n {
        br[l] = ar[l] * wr - ai[l] * wi;
        bi[l] = ar[l] * wi + ai[l] * wr;
    }
}

/// Decimation-in-frequency butterfly: `(a, b) ← (a + b, (a − b) · w)`.
#[inline(always)]
fn dif_butterfly(ar: &mut [f32], ai: &mut [f32], br: &mut [f32], bi: &mut [f32], wr: f32, wi: f32) {
    let n = ar.len();
    let (ai, br, bi) = (&mut ai[..n], &mut br[..n], &mut bi[..n]);
    for l in 0..n {
        let (xr, xi, yr, yi) = (ar[l], ai[l], br[l], bi[l]);
        ar[l] = xr + yr;
        ai[l] = xi + yi;
        let (dr, di) = (xr - yr, xi - yi);
        br[l] = dr * wr - di * wi;
        bi[l] = dr * wi + di * wr;
    }
}

/// Decimation-in-time butterfly with a conjugated twiddle:
/// `(a, b) ← (a + b · w̄, a − b · w̄)`.
#[inline(always)]
fn dit_butterfly(ar: &mut [f32], ai: &mut [f32], br: &mut [f32], bi: &mut [f32], wr: f32, wi: f32) {
    let n = ar.len();
    let (ai, br, bi) = (&mut ai[..n], &mut br[..n], &mut bi[..n]);
    for l in 0..n {
        let (yr, yi) = (br[l] * wr + bi[l] * wi, bi[l] * wr - br[l] * wi);
        let (xr, xi) = (ar[l], ai[l]);
        ar[l] = xr + yr;
        ai[l] = xi + yi;
        br[l] = xr - yr;
        bi[l] = xi - yi;
    }
}

/// The rows of one grid plane pair: `i`-th row of `lanes` floats.
fn row(i: usize, lanes: usize) -> core::ops::Range<usize> {
    i * lanes..(i + 1) * lanes
}

/// Forward unnormalized FFT along the row index of the planar grid
/// `(re, im)` of `lanes`-wide rows: natural-order input, bit-reversed
/// output. The length is the row count, a power of two dividing the table
/// length.
///
/// Rows `support..` must be zero on entry. While a stage's half-length is at
/// least the live support, the lower half of each block is all that is
/// nonzero, and the stage only twiddles it into the upper half.
///
/// # Panics
/// Panics when the planes disagree in size or the row count is not a power
/// of two dividing the table length.
pub fn dif_rows(re: &mut [f32], im: &mut [f32], lanes: usize, support: usize, t: &FftTables) {
    assert!(lanes > 0 && re.len() == im.len() && re.len().is_multiple_of(lanes));
    let n = re.len() / lanes;
    let mut live = support.clamp(1, n);
    let mut half = n / 2;
    while half >= 1 {
        let step = t.stride(2 * half);
        let block = 2 * half * lanes;
        for (bre, bim) in re.chunks_exact_mut(block).zip(im.chunks_exact_mut(block)) {
            let (lo_re, hi_re) = bre.split_at_mut(half * lanes);
            let (lo_im, hi_im) = bim.split_at_mut(half * lanes);
            for i in 0..half.min(live) {
                let (wr, wi) = (t.re[i * step], t.im[i * step]);
                let r = row(i, lanes);
                let (ar, ai) = (&mut lo_re[r.clone()], &mut lo_im[r.clone()]);
                let (br, bi) = (&mut hi_re[r.clone()], &mut hi_im[r]);
                if live <= half {
                    twiddle_copy(ar, ai, br, bi, wr, wi);
                } else {
                    dif_butterfly(ar, ai, br, bi, wr, wi);
                }
            }
        }
        live = live.min(half);
        half /= 2;
    }
}

/// Inverse unnormalized FFT along the row index: bit-reversed input (what
/// [`dif_rows`] produces), natural-order output. Scaling by `1/n` is left
/// to the caller.
///
/// # Panics
/// As [`dif_rows`].
pub fn dit_rows_inverse(re: &mut [f32], im: &mut [f32], lanes: usize, t: &FftTables) {
    assert!(lanes > 0 && re.len() == im.len() && re.len().is_multiple_of(lanes));
    let n = re.len() / lanes;
    let mut half = 1;
    while half < n {
        let step = t.stride(2 * half);
        let block = 2 * half * lanes;
        for (bre, bim) in re.chunks_exact_mut(block).zip(im.chunks_exact_mut(block)) {
            let (lo_re, hi_re) = bre.split_at_mut(half * lanes);
            let (lo_im, hi_im) = bim.split_at_mut(half * lanes);
            for i in 0..half {
                let (wr, wi) = (t.re[i * step], t.im[i * step]);
                let r = row(i, lanes);
                dit_butterfly(
                    &mut lo_re[r.clone()],
                    &mut lo_im[r.clone()],
                    &mut hi_re[r.clone()],
                    &mut hi_im[r],
                    wr,
                    wi,
                );
            }
        }
        half *= 2;
    }
}

/// The part of a real inverse transform a caller keeps: `h × w` values, the
/// value at `(p, q)` read from grid position
/// `((p + off_h) mod fh, (q + off_w) mod fw)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutWindow {
    /// Rows kept.
    pub h: usize,
    /// Columns kept.
    pub w: usize,
    /// Grid row of output row 0.
    pub off_h: usize,
    /// Grid column of output column 0.
    pub off_w: usize,
}

/// Real-input 2-D FFT on an `fh × fw` grid (both powers of two) that keeps
/// the Hermitian half of each spectrum.
///
/// **Spectrum layout.** A real grid's spectrum satisfies
/// `X[u, v] = conj(X[−u, −v])`, so the height frequencies `u = 0 ..= fh/2`
/// carry all of it. A spectrum is a real plane followed by an imaginary
/// plane, each `fw × (fh/2 + 1)`: one row per width frequency `v` (rows in
/// bit-reversed order) and one lane per height frequency `u` (natural
/// order) — [`Self::spectrum_floats`] floats in all.
///
/// **Forward.** The height pass packs the image's even rows as real and its
/// odd rows as imaginary parts of an `fh/2`-point complex signal, transforms
/// it with the image columns as lanes, and splits the result into the half
/// spectrum. That split writes transposed, straight into the spectrum, so
/// the width pass again runs with whole rows as lanes. Rows beyond the
/// image (the zero padding) are never transformed, in either pass.
///
/// **Inverse.** The width pass runs over all rows; then only the output
/// columns a caller keeps are gathered (transposed) into the height pass,
/// which undoes the real split and yields real rows.
#[derive(Debug, Clone)]
pub struct RealFft2d {
    fh: usize,
    fw: usize,
    /// Height-axis twiddles (length `fh`; the packed `fh/2`-point transform
    /// strides through it).
    th: FftTables,
    /// Width-axis twiddles (length `fw`).
    tw: FftTables,
    /// Bit-reversal of the `fh/2` packed rows.
    rev: Vec<u32>,
}

impl RealFft2d {
    /// Transform for an `fh × fw` grid.
    ///
    /// # Panics
    /// Panics when either side is not a power of two.
    pub fn new(fh: usize, fw: usize) -> Self {
        let m = fh / 2;
        let bits = m.trailing_zeros();
        let rev = (0..m)
            .map(|i| {
                if m <= 1 {
                    0
                } else {
                    (i.reverse_bits() >> (usize::BITS - bits)) as u32
                }
            })
            .collect();
        Self {
            fh,
            fw,
            th: FftTables::new(fh),
            tw: FftTables::new(fw),
            rev,
        }
    }

    /// The `(fh, fw)` grid.
    pub fn grid(&self) -> (usize, usize) {
        (self.fh, self.fw)
    }

    /// Lanes of a spectrum row: the height frequencies `0 ..= fh/2`.
    fn half(&self) -> usize {
        self.fh / 2 + 1
    }

    /// Floats in one half spectrum (both planes) on an `fh × fw` grid.
    pub fn spectrum_floats_for(fh: usize, fw: usize) -> usize {
        2 * fw * (fh / 2 + 1)
    }

    /// Floats of scratch that [`Self::forward`] and [`Self::inverse`] need
    /// on an `fh × fw` grid: the packed height pass, `fh/2` rows of at most
    /// `fw` lanes per plane. Grids of height 1 or 2 need none.
    pub fn scratch_floats_for(fh: usize, fw: usize) -> usize {
        if fh <= 2 {
            0
        } else {
            fh * fw
        }
    }

    /// [`Self::spectrum_floats_for`] this grid.
    pub fn spectrum_floats(&self) -> usize {
        Self::spectrum_floats_for(self.fh, self.fw)
    }

    /// [`Self::scratch_floats_for`] this grid.
    pub fn scratch_floats(&self) -> usize {
        Self::scratch_floats_for(self.fh, self.fw)
    }

    /// Heap bytes held (plan-cache accounting).
    pub fn bytes(&self) -> usize {
        self.th.bytes() + self.tw.bytes() + self.rev.capacity() * core::mem::size_of::<u32>()
    }

    /// Write the half spectrum of the real `h × w` image `img`, zero-padded
    /// to the grid, into `spec` ([`Self::spectrum_floats`] floats).
    ///
    /// # Panics
    /// Panics when the image does not fit the grid or a buffer is short.
    pub fn forward(&self, img: &[f32], h: usize, w: usize, spec: &mut [f32], scratch: &mut [f32]) {
        let (fh, fw, hl) = (self.fh, self.fw, self.half());
        assert!(
            h <= fh && w <= fw && img.len() == h * w,
            "image exceeds grid"
        );
        let (sre, sim) = spec[..2 * fw * hl].split_at_mut(fw * hl);
        let m = fh / 2;
        if m <= 1 {
            // fh ∈ {1, 2}: the height DFT is a sum and a difference.
            for j in 0..w {
                let (x0, x1) = (img[j], if h > 1 { img[w + j] } else { 0.0 });
                sre[j * hl] = x0 + x1;
                if hl > 1 {
                    sre[j * hl + 1] = x0 - x1;
                }
                sim[j * hl..(j + 1) * hl].fill(0.0);
            }
        } else {
            // Pack rows 2i / 2i+1 as re / im of packed row i; rows past the
            // image stay zero and the transform skips them.
            let (tr, ti) = scratch[..2 * m * w].split_at_mut(m * w);
            let live = h.div_ceil(2);
            for i in 0..live {
                tr[row(i, w)].copy_from_slice(&img[row(2 * i, w)]);
                if 2 * i + 1 < h {
                    ti[row(i, w)].copy_from_slice(&img[row(2 * i + 1, w)]);
                } else {
                    ti[row(i, w)].fill(0.0);
                }
            }
            tr[live * w..].fill(0.0);
            ti[live * w..].fill(0.0);
            dif_rows(tr, ti, w, live, &self.th);
            // Split Z into X[u] = E[u] + W^u·O[u] (E/O: the even/odd-row
            // spectra) and store it transposed: lane u of spectrum row j.
            for u in 0..=m {
                let a = self.rev[u % m] as usize * w;
                let b = self.rev[(m - u) % m] as usize * w;
                let (wr, wi) = (self.th.re[u], self.th.im[u]);
                for j in 0..w {
                    let (ar, ai, br, bi) = (tr[a + j], ti[a + j], tr[b + j], ti[b + j]);
                    let (er, ei) = (0.5 * (ar + br), 0.5 * (ai - bi));
                    let (or, oi) = (0.5 * (ai + bi), 0.5 * (br - ar));
                    sre[j * hl + u] = er + wr * or - wi * oi;
                    sim[j * hl + u] = ei + wr * oi + wi * or;
                }
            }
        }
        sre[w * hl..].fill(0.0);
        sim[w * hl..].fill(0.0);
        dif_rows(sre, sim, hl, w, &self.tw);
    }

    /// Inverse-transform the half spectrum `spec` (overwritten) and blend
    /// the kept window into `out` (`win.h × win.w`, row-major) as
    /// `out = alpha · x + beta · out`, where `x` is the normalized real
    /// inverse.
    ///
    /// # Panics
    /// Panics when the window exceeds the grid or a buffer is short.
    pub fn inverse(
        &self,
        spec: &mut [f32],
        win: OutWindow,
        out: &mut [f32],
        alpha: f32,
        beta: f32,
        scratch: &mut [f32],
    ) {
        let (fh, fw, hl) = (self.fh, self.fw, self.half());
        assert!(win.h <= fh && win.w <= fw && out.len() == win.h * win.w);
        let (sre, sim) = spec[..2 * fw * hl].split_at_mut(fw * hl);
        dit_rows_inverse(sre, sim, hl, &self.tw);
        let scale = alpha / (fh * fw) as f32;
        // Both sides are powers of two: wrap with a mask, not a division.
        let col = |q: usize| (q + win.off_w) & (fw - 1);
        let m = fh / 2;
        if m <= 1 {
            for p in 0..win.h {
                let odd = (p + win.off_h) & (fh - 1) == 1;
                for q in 0..win.w {
                    let x = &sre[col(q) * hl..(col(q) + 1) * hl];
                    let v = match x {
                        [x0, x1] if odd => x0 - x1,
                        [x0, x1] => x0 + x1,
                        _ => x[0],
                    };
                    let o = &mut out[p * win.w + q];
                    *o = scale * v + beta * *o;
                }
            }
            return;
        }
        // Gather the kept columns transposed and undo the real split:
        // Z[u] = E[u] + i·O[u], stored at packed row rev(u) for the DIT.
        let ow = win.w;
        let (tr, ti) = scratch[..2 * m * ow].split_at_mut(m * ow);
        for u in 0..m {
            let dst = self.rev[u] as usize * ow;
            let (wr, wi) = (self.th.re[u], self.th.im[u]);
            for q in 0..ow {
                let c = col(q) * hl;
                let (ar, ai, br, bi) = (sre[c + u], sim[c + u], sre[c + m - u], sim[c + m - u]);
                let (er, ei) = (ar + br, ai - bi);
                let (dr, di) = (ar - br, ai + bi);
                let (or, oi) = (dr * wr + di * wi, di * wr - dr * wi);
                tr[dst + q] = er - oi;
                ti[dst + q] = ei + or;
            }
        }
        dit_rows_inverse(tr, ti, ow, &self.th);
        // Packed row i holds image rows 2i (re) and 2i+1 (im).
        for p in 0..win.h {
            let g = (p + win.off_h) & (fh - 1);
            let src = if g.is_multiple_of(2) { &*tr } else { &*ti };
            let src = &src[row(g / 2, ow)];
            for (o, &v) in out[row(p, ow)].iter_mut().zip(src) {
                *o = scale * v + beta * *o;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(re, im)` of the naive DFT along the row index of planar rows.
    fn naive_dft_rows(re: &[f32], im: &[f32], lanes: usize) -> (Vec<f64>, Vec<f64>) {
        let n = re.len() / lanes;
        let (mut or, mut oi) = (vec![0.0f64; n * lanes], vec![0.0f64; n * lanes]);
        for k in 0..n {
            for t in 0..n {
                let ang = -2.0 * std::f64::consts::PI * (k * t) as f64 / n as f64;
                let (c, s) = (ang.cos(), ang.sin());
                for l in 0..lanes {
                    let (xr, xi) = (re[t * lanes + l] as f64, im[t * lanes + l] as f64);
                    or[k * lanes + l] += xr * c - xi * s;
                    oi[k * lanes + l] += xr * s + xi * c;
                }
            }
        }
        (or, oi)
    }

    /// Naive 2-D DFT of a real `h × w` image zero-padded to `fh × fw`.
    fn naive_dft2d(
        img: &[f32],
        h: usize,
        w: usize,
        fh: usize,
        fw: usize,
        u: usize,
        v: usize,
    ) -> (f64, f64) {
        let (mut re, mut im) = (0.0f64, 0.0f64);
        for i in 0..h {
            for j in 0..w {
                let ang = -2.0
                    * std::f64::consts::PI
                    * ((u * i) as f64 / fh as f64 + (v * j) as f64 / fw as f64);
                re += img[i * w + j] as f64 * ang.cos();
                im += img[i * w + j] as f64 * ang.sin();
            }
        }
        (re, im)
    }

    fn bit_rev(i: usize, n: usize) -> usize {
        if n <= 1 {
            0
        } else {
            i.reverse_bits() >> (usize::BITS - n.trailing_zeros())
        }
    }

    fn rand_vec(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = ucudnn_tensor::DeterministicRng::new(seed);
        (0..n).map(|_| rng.next_uniform() * 2.0 - 1.0).collect()
    }

    #[test]
    fn dif_rows_matches_naive_dft_in_bit_reversed_order() {
        for (n, lanes, support) in [
            (1, 3, 1),
            (2, 1, 2),
            (8, 5, 8),
            (32, 3, 32),
            (64, 2, 3),
            (16, 9, 5),
        ] {
            let mut re = rand_vec(n * lanes, n as u64);
            let mut im = rand_vec(n * lanes, 100 + n as u64);
            re[support * lanes..].fill(0.0);
            im[support * lanes..].fill(0.0);
            let (want_re, want_im) = naive_dft_rows(&re, &im, lanes);
            dif_rows(&mut re, &mut im, lanes, support, &FftTables::new(n));
            for k in 0..n {
                let r = bit_rev(k, n);
                for l in 0..lanes {
                    let (g, w) = (
                        (re[r * lanes + l], im[r * lanes + l]),
                        (want_re[k * lanes + l], want_im[k * lanes + l]),
                    );
                    assert!(
                        (g.0 as f64 - w.0).abs() < 1e-4 && (g.1 as f64 - w.1).abs() < 1e-4,
                        "n={n} support={support} k={k} lane={l}: {g:?} vs {w:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn dif_rows_strides_through_a_longer_table() {
        let (n, lanes) = (8, 4);
        let re0 = rand_vec(n * lanes, 5);
        let im0 = rand_vec(n * lanes, 6);
        let (mut a_re, mut a_im) = (re0.clone(), im0.clone());
        dif_rows(&mut a_re, &mut a_im, lanes, n, &FftTables::new(n));
        let (mut b_re, mut b_im) = (re0, im0);
        dif_rows(&mut b_re, &mut b_im, lanes, n, &FftTables::new(4 * n));
        for (a, b) in a_re.iter().chain(&a_im).zip(b_re.iter().chain(&b_im)) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn forward_then_inverse_is_n_times_identity() {
        for (n, lanes) in [(1, 2), (2, 3), (64, 4), (128, 1)] {
            let re0 = rand_vec(n * lanes, 9);
            let im0 = rand_vec(n * lanes, 10);
            let (mut re, mut im) = (re0.clone(), im0.clone());
            let t = FftTables::new(n);
            dif_rows(&mut re, &mut im, lanes, n, &t);
            dit_rows_inverse(&mut re, &mut im, lanes, &t);
            for (a, b) in re0.iter().chain(&im0).zip(re.iter().chain(&im)) {
                assert!(
                    (a * n as f32 - b).abs() < 1e-4 * n as f32,
                    "n={n}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn parseval_energy_conserved() {
        let (n, lanes) = (256, 1);
        let (mut re, mut im) = (rand_vec(n, 12), rand_vec(n, 13));
        let energy = |re: &[f32], im: &[f32]| -> f64 {
            re.iter().chain(im).map(|v| (*v as f64).powi(2)).sum()
        };
        let time_e = energy(&re, &im);
        dif_rows(&mut re, &mut im, lanes, n, &FftTables::new(n));
        let freq_e = energy(&re, &im) / n as f64;
        assert!((time_e - freq_e).abs() < 1e-3 * time_e);
    }

    #[test]
    fn delta_transforms_to_ones() {
        let (mut re, mut im) = (vec![0.0f32; 16], vec![0.0f32; 16]);
        re[0] = 1.0;
        dif_rows(&mut re, &mut im, 1, 1, &FftTables::new(16));
        assert!(re.iter().all(|v| (v - 1.0).abs() < 1e-6));
        assert!(im.iter().all(|v| v.abs() < 1e-6));
    }

    /// The half spectrum against a naive 2-D DFT, on square and non-square
    /// grids, with images that fill the grid and images that leave padding
    /// rows and columns — including grids only 1 or 2 rows high.
    #[test]
    fn real_forward_matches_naive_half_spectrum() {
        let cases = [
            (4, 8, 4, 8),
            (8, 4, 5, 3),
            (16, 16, 9, 16),
            (32, 8, 3, 3),
            (2, 8, 2, 5),
            (1, 4, 1, 4),
            (8, 1, 7, 1),
        ];
        for (fh, fw, h, w) in cases {
            let fft = RealFft2d::new(fh, fw);
            let img = rand_vec(h * w, (fh * 31 + fw * 7 + h) as u64);
            let mut spec = vec![f32::NAN; fft.spectrum_floats()];
            let mut scratch = vec![f32::NAN; fft.scratch_floats()];
            fft.forward(&img, h, w, &mut spec, &mut scratch);
            let hl = fh / 2 + 1;
            let (sre, sim) = spec.split_at(fw * hl);
            for v in 0..fw {
                for u in 0..hl {
                    let i = bit_rev(v, fw) * hl + u;
                    let want = naive_dft2d(&img, h, w, fh, fw, u, v);
                    assert!(
                        (sre[i] as f64 - want.0).abs() < 1e-3
                            && (sim[i] as f64 - want.1).abs() < 1e-3,
                        "{fh}x{fw} image {h}x{w} bin ({u},{v}): ({}, {}) vs {want:?}",
                        sre[i],
                        sim[i]
                    );
                }
            }
        }
    }

    /// The inverse of a forward transform returns the image; a window with
    /// offsets reads it back with wraparound, and alpha/beta blend.
    #[test]
    fn real_inverse_recovers_windows_of_the_image() {
        for (fh, fw, h, w) in [
            (8, 16, 8, 16),
            (16, 8, 5, 7),
            (2, 4, 2, 3),
            (1, 2, 1, 2),
            (32, 32, 17, 30),
        ] {
            let fft = RealFft2d::new(fh, fw);
            let img = rand_vec(h * w, (fh + 3 * fw + h) as u64);
            let pixel = |i: usize, j: usize| if i < h && j < w { img[i * w + j] } else { 0.0 };
            let mut scratch = vec![0.0; fft.scratch_floats()];
            for (oh, ow, off_h, off_w) in [(fh, fw, 0, 0), (fh.min(3), fw.min(2), fh - 1, fw / 2)] {
                let mut spec = vec![0.0; fft.spectrum_floats()];
                fft.forward(&img, h, w, &mut spec, &mut scratch);
                let prior = rand_vec(oh * ow, 77);
                let mut out = prior.clone();
                let win = OutWindow {
                    h: oh,
                    w: ow,
                    off_h,
                    off_w,
                };
                fft.inverse(&mut spec, win, &mut out, 2.0, 0.5, &mut scratch);
                for p in 0..oh {
                    for q in 0..ow {
                        let want = 2.0 * pixel((p + off_h) % fh, (q + off_w) % fw)
                            + 0.5 * prior[p * ow + q];
                        let got = out[p * ow + q];
                        assert!(
                            (got - want).abs() < 1e-4,
                            "{fh}x{fw} ({p},{q}): {got} vs {want}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn transforms_are_deterministic() {
        let fft = RealFft2d::new(16, 32);
        let img = rand_vec(9 * 20, 3);
        let mut scratch = vec![0.0; fft.scratch_floats()];
        let mut a = vec![0.0; fft.spectrum_floats()];
        let mut b = vec![1.0; fft.spectrum_floats()];
        fft.forward(&img, 9, 20, &mut a, &mut scratch);
        scratch.fill(f32::NAN);
        fft.forward(&img, 9, 20, &mut b, &mut scratch);
        assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()));
        assert!(fft.bytes() > 0);
        assert_eq!(fft.grid(), (16, 32));
    }

    #[test]
    fn next_pow2_values() {
        assert_eq!(next_pow2(0), 1);
        assert_eq!(next_pow2(1), 1);
        assert_eq!(next_pow2(2), 2);
        assert_eq!(next_pow2(31), 32);
        assert_eq!(next_pow2(32), 32);
        assert_eq!(next_pow2(33), 64);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn tables_reject_non_pow2() {
        let _ = FftTables::new(6);
    }

    #[test]
    #[should_panic(expected = "does not divide")]
    fn rows_must_divide_the_table() {
        let (mut re, mut im) = (vec![0.0f32; 8], vec![0.0f32; 8]);
        dif_rows(&mut re, &mut im, 1, 8, &FftTables::new(4));
    }
}
