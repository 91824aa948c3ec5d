//! Per-(engine, op, geometry) execution plans.
//!
//! Every engine re-derives call-invariant state on each invocation: the GEMM
//! engine packs the filter panels, the FFT engine rebuilds its twiddle
//! tables and re-transforms the filter spectra, the Winograd
//! engines re-transform (and re-pack) the filters. A [`EnginePlan`] owns that
//! state so it can be derived once and reused — across the micro-batches of
//! one layer execution (the filter operand is identical for all of them, the
//! packed-weight analogue of WR's workspace reuse) and across training
//! iterations (the cuDNN-simulation layer keys plans by geometry and keeps
//! them in an LRU cache).
//!
//! Filter-dependent state is revalidated by a cheap 64-bit FNV fingerprint
//! of the filter bits: within an iteration every micro-batch hits; after an
//! SGD step the fingerprint changes and the state is re-derived once.
//! Plans never change numerical results — the cached state is bit-identical
//! to what the uncached path would recompute, so execution with and without
//! plans (or with a cold vs. warm plan) produces byte-identical outputs.

use crate::fft::RealFft2d;
use crate::gemm::{pack_a, PackedA, Trans};
use crate::EngineKind;

/// 64-bit FNV-1a-style fingerprint over the raw bits of an `f32` slice.
/// Used to revalidate filter-derived plan state; collisions only cost
/// correctness if two distinct filters collide *and* share a geometry key,
/// which FNV makes vanishingly unlikely for non-adversarial training data.
pub fn fingerprint_f32(data: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in data {
        h = (h ^ u64::from(v.to_bits())).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Cached state for the im2col+GEMM engine: the filter packed as the `A`
/// operand of the forward (`W`, `K x CRS`) and backward-data (`Wᵀ`,
/// `CRS x K`) GEMMs.
#[derive(Debug, Default)]
pub struct GemmPlan {
    fp: Option<u64>,
    fwd: Option<PackedA>,
    bwd: Option<PackedA>,
}

impl GemmPlan {
    /// Drop filter-derived state when the filter bits changed.
    fn revalidate(&mut self, w: &[f32]) {
        let fp = fingerprint_f32(w);
        if self.fp != Some(fp) {
            self.fp = Some(fp);
            self.fwd = None;
            self.bwd = None;
        }
    }

    /// Packed `W` (`K x CRS`) for the forward GEMM, repacking only when the
    /// filter bits changed since the last call. A plan checked out with the
    /// wrong shape (or for the wrong direction) is repacked in place rather
    /// than trusted — there is no panicking checkout path.
    pub(crate) fn packed_forward(&mut self, k: usize, crs: usize, w: &[f32]) -> &PackedA {
        self.revalidate(w);
        if self.fwd.as_ref().is_none_or(|p| p.m() != k || p.k() != crs) {
            self.fwd = None;
        }
        self.fwd.get_or_insert_with(|| pack_a(Trans::No, k, crs, w))
    }

    /// Packed `Wᵀ` (`CRS x K`) for the backward-data GEMM.
    pub(crate) fn packed_backward_data(&mut self, crs: usize, k: usize, w: &[f32]) -> &PackedA {
        self.revalidate(w);
        if self.bwd.as_ref().is_none_or(|p| p.m() != crs || p.k() != k) {
            self.bwd = None;
        }
        self.bwd
            .get_or_insert_with(|| pack_a(Trans::Yes, crs, k, w))
    }

    /// Heap bytes held.
    pub fn bytes(&self) -> usize {
        self.fwd.as_ref().map_or(0, PackedA::bytes) + self.bwd.as_ref().map_or(0, PackedA::bytes)
    }
}

/// Cached state for the FFT engine: the transform tables for the grid, the
/// staging buffers (half spectra of both operands, the product
/// accumulator, transform scratch) and — for forward and backward-data,
/// whose `b` operand is the filter — the filter spectra they hold.
#[derive(Debug, Default)]
pub struct FftPlan {
    /// The real 2-D transform, tagged with the grid it was built for.
    pub(crate) fft: Option<RealFft2d>,
    /// Spectra of the per-call operand (activations / gradients).
    pub(crate) a_spec: Vec<f32>,
    /// Spectra of the reusable operand (filter), cached under `b_fp`.
    pub(crate) b_spec: Vec<f32>,
    /// Product accumulator spectrum.
    pub(crate) acc: Vec<f32>,
    /// Transform scratch.
    pub(crate) scratch: Vec<f32>,
    /// Fingerprint of the filter bits `b_spec` was derived from, when valid.
    pub(crate) b_fp: Option<u64>,
}

impl FftPlan {
    /// Make sure the transform exists for an `fh x fw` grid, rebuilding only
    /// when the grid changed (callers then borrow `self.fft` directly so the
    /// buffers stay independently borrowable).
    pub(crate) fn ensure_tables(&mut self, fh: usize, fw: usize) {
        if self.fft.as_ref().is_none_or(|f| f.grid() != (fh, fw)) {
            self.fft = Some(RealFft2d::new(fh, fw));
            self.b_fp = None; // spectra were for the old grid
        }
    }

    /// Heap bytes held (vector capacities, not lengths — the buffers grow
    /// to the largest micro-batch and stay).
    pub fn bytes(&self) -> usize {
        self.fft.as_ref().map_or(0, RealFft2d::bytes)
            + (self.a_spec.capacity()
                + self.b_spec.capacity()
                + self.acc.capacity()
                + self.scratch.capacity())
                * core::mem::size_of::<f32>()
    }
}

/// Which use of a Winograd plan a checkout is for. Forward transforms the
/// filter as stored; backward-data transforms the rotated, channel-transposed
/// filter — different bits, different fingerprint, so the two directions get
/// separate slots instead of thrashing (or worse, serving) each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WinogradDir {
    /// Forward convolution on the filter as stored.
    Fwd,
    /// Backward-data on the flipped filter.
    Bwd,
}

/// One direction's cached state: the transformed filter `U`, packed per ξ as
/// the `A` operand of the batched per-ξ GEMM. `tiles` is 16 for F(2×2, 3×3)
/// and 36 for F(4×4, 3×3).
#[derive(Debug, Default)]
struct WinogradSlot {
    fp: Option<u64>,
    tiles: usize,
    u_packed: Vec<PackedA>,
}

impl WinogradSlot {
    fn packed_u(
        &mut self,
        tiles: usize,
        k: usize,
        c: usize,
        w: &[f32],
        transform: impl FnOnce(&mut [f32]),
    ) -> &[PackedA] {
        let fp = fingerprint_f32(w);
        let stale = self.fp != Some(fp)
            || self.tiles != tiles
            || self.u_packed.len() != tiles
            || self
                .u_packed
                .first()
                .is_some_and(|p| p.m() != k || p.k() != c);
        if stale {
            let mut u = vec![0.0f32; tiles * k * c];
            transform(&mut u);
            self.u_packed = (0..tiles)
                .map(|xi| pack_a(Trans::No, k, c, &u[xi * k * c..(xi + 1) * k * c]))
                .collect();
            self.fp = Some(fp);
            self.tiles = tiles;
        }
        &self.u_packed
    }

    fn bytes(&self) -> usize {
        self.u_packed.iter().map(PackedA::bytes).sum()
    }
}

/// Cached state for the Winograd engines, one [`WinogradSlot`] per direction.
/// A plan checked out for the "wrong" direction simply fills the other slot —
/// every checkout path degrades to re-deriving state, never to a panic.
#[derive(Debug, Default)]
pub struct WinogradPlan {
    fwd: WinogradSlot,
    bwd: WinogradSlot,
}

impl WinogradPlan {
    /// Packed `U[ξ]` panels for a filter in direction `dir`, re-deriving them
    /// via `transform` (which must fill a `tiles*k*c` buffer in ξ-major
    /// `[ξ][k][c]` layout) only when the filter bits changed.
    pub(crate) fn packed_u(
        &mut self,
        dir: WinogradDir,
        tiles: usize,
        k: usize,
        c: usize,
        w: &[f32],
        transform: impl FnOnce(&mut [f32]),
    ) -> &[PackedA] {
        let slot = match dir {
            WinogradDir::Fwd => &mut self.fwd,
            WinogradDir::Bwd => &mut self.bwd,
        };
        slot.packed_u(tiles, k, c, w, transform)
    }

    /// Heap bytes held across both direction slots (LRU byte accounting).
    pub fn bytes(&self) -> usize {
        self.fwd.bytes() + self.bwd.bytes()
    }
}

/// The cached execution state of one (engine, op, geometry) key. Constructed
/// empty; engines lazily populate it on first use and revalidate
/// filter-derived entries by fingerprint.
#[derive(Debug)]
pub enum EnginePlan {
    /// The direct engine has no reusable state.
    Direct,
    /// im2col+GEMM packed filter panels.
    Gemm(GemmPlan),
    /// FFT tables, scratch grids, and filter spectra.
    Fft(FftPlan),
    /// F(2×2, 3×3) packed transformed filters.
    Winograd(WinogradPlan),
    /// F(4×4, 3×3) packed transformed filters.
    WinogradF4(WinogradPlan),
}

impl EnginePlan {
    /// An empty plan for `engine`.
    pub fn for_engine(engine: EngineKind) -> Self {
        match engine {
            EngineKind::Direct => EnginePlan::Direct,
            EngineKind::Gemm => EnginePlan::Gemm(GemmPlan::default()),
            EngineKind::Fft => EnginePlan::Fft(FftPlan::default()),
            EngineKind::Winograd => EnginePlan::Winograd(WinogradPlan::default()),
            EngineKind::WinogradF4 => EnginePlan::WinogradF4(WinogradPlan::default()),
        }
    }

    /// Heap bytes held by the cached state (for LRU byte accounting).
    pub fn bytes(&self) -> usize {
        match self {
            EnginePlan::Direct => 0,
            EnginePlan::Gemm(p) => p.bytes(),
            EnginePlan::Fft(p) => p.bytes(),
            EnginePlan::Winograd(p) | EnginePlan::WinogradF4(p) => p.bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_distinguishes_values_and_orders() {
        let a = [1.0f32, 2.0, 3.0];
        let b = [1.0f32, 2.0, 4.0];
        let c = [3.0f32, 2.0, 1.0];
        assert_eq!(fingerprint_f32(&a), fingerprint_f32(&a));
        assert_ne!(fingerprint_f32(&a), fingerprint_f32(&b));
        assert_ne!(fingerprint_f32(&a), fingerprint_f32(&c));
        // 0.0 and -0.0 have different bits — fingerprint sees raw bits.
        assert_ne!(fingerprint_f32(&[0.0]), fingerprint_f32(&[-0.0]));
    }

    #[test]
    fn gemm_plan_repacks_only_on_filter_change() {
        let w1 = vec![1.0f32; 12];
        let w2 = vec![2.0f32; 12];
        let mut plan = GemmPlan::default();
        let p1 = plan.packed_forward(3, 4, &w1) as *const PackedA;
        let p1b = plan.packed_forward(3, 4, &w1) as *const PackedA;
        assert_eq!(p1, p1b, "unchanged filter must not repack");
        plan.packed_forward(3, 4, &w2);
        assert!(plan.bytes() > 0);
        // Changing the filter invalidates both directions.
        plan.packed_backward_data(4, 3, &w2);
        let before = plan.bytes();
        plan.packed_forward(3, 4, &w1);
        assert!(plan.bytes() < before, "stale backward pack must be dropped");
    }

    #[test]
    fn gemm_plan_survives_wrong_shape_checkout() {
        // A plan checked out with a mismatched shape (e.g. reused across
        // geometries or directions) must repack, not panic.
        let w = vec![1.0f32; 24];
        let mut plan = GemmPlan::default();
        plan.packed_forward(4, 6, &w);
        let p = plan.packed_forward(2, 12, &w);
        assert_eq!((p.m(), p.k()), (2, 12));
        let p = plan.packed_backward_data(12, 2, &w);
        assert_eq!((p.m(), p.k()), (12, 2));
    }

    #[test]
    fn winograd_plan_keeps_both_directions_warm() {
        // Forward and backward-data transform different filter bits; with
        // per-direction slots, alternating directions must not thrash.
        let wf = vec![1.0f32; 2 * 3 * 9];
        let wb = vec![2.0f32; 3 * 2 * 9];
        let mut plan = WinogradPlan::default();
        let mut derived = 0u32;
        for _ in 0..3 {
            plan.packed_u(WinogradDir::Fwd, 16, 2, 3, &wf, |u| {
                derived += 1;
                u.fill(1.0);
            });
            plan.packed_u(WinogradDir::Bwd, 16, 3, 2, &wb, |u| {
                derived += 1;
                u.fill(2.0);
            });
        }
        assert_eq!(derived, 2, "each direction derives once, then stays warm");
        assert!(plan.bytes() > 0);
    }

    #[test]
    fn engine_plan_variants_report_bytes() {
        for e in EngineKind::ALL {
            let plan = EnginePlan::for_engine(e);
            assert_eq!(plan.bytes(), 0, "fresh plans hold no heap state");
        }
    }
}
