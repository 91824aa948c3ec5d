//! Algorithm selection: `cudnnGetConvolution*Algorithm`,
//! `cudnnFindConvolution*Algorithm` and workspace-size queries.

use crate::descriptor::{ConvolutionDescriptor, FilterDescriptor, TensorDescriptor};
use crate::error::{CudnnError, Result};
use crate::handle::{CudnnHandle, Engine};
use crate::map::{cpu_engine_for, supported_on, workspace_bytes_on};
use ucudnn_conv::{ConvOp, EngineKind};
use ucudnn_gpu_model::{enumerate, ConvAlgo};
use ucudnn_tensor::{ConvGeometry, Tensor};

/// Per-algorithm outcome of a `Find` benchmark, mirroring the `status`
/// field of `cudnnConvolution*AlgoPerf_t`: real auto-tuners report the
/// kernels that crashed or could not get memory alongside the ones they
/// measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgoStatus {
    /// The algorithm ran and `time_us` is a valid measurement.
    Success,
    /// The kernel failed while benchmarking; `time_us` is meaningless.
    ExecutionFailed,
    /// The benchmark could not obtain the algorithm's workspace.
    AllocFailed,
}

/// One row of a `Find` benchmark result (`cudnnConvolution*AlgoPerf_t`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlgoPerf {
    /// The algorithm.
    pub algo: ConvAlgo,
    /// Benchmarked (or modeled) execution time in microseconds. Only
    /// meaningful when `status` is [`AlgoStatus::Success`].
    pub time_us: f64,
    /// Workspace requirement in bytes.
    pub memory_bytes: usize,
    /// Whether the benchmark succeeded for this algorithm.
    pub status: AlgoStatus,
}

/// Algorithm-selection preference (`cudnnConvolutionFwdPreference_t`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgoPreference {
    /// `PREFER_FASTEST`: ignore workspace size.
    PreferFastest,
    /// `SPECIFY_WORKSPACE_LIMIT`: fastest algorithm fitting the limit.
    SpecifyWorkspaceLimit(usize),
    /// `NO_WORKSPACE`: only zero-workspace algorithms.
    NoWorkspace,
}

impl CudnnHandle {
    /// Benchmark every supported algorithm for `op` on the described
    /// geometry and return them sorted fastest-first
    /// (`cudnnFindConvolution*Algorithm`).
    ///
    /// On the simulated engine this queries the performance model; on the
    /// CPU engine it actually executes each algorithm on deterministic
    /// synthetic data and measures wall time — the honest equivalent of
    /// cuDNN's exhaustive auto-tuner. Algorithms that run on the same CPU
    /// engine (FFT_TILING ≡ FFT, IMPLICIT_PRECOMP_GEMM ≡ GEMM) are timed
    /// once per find and their rows carry that one measurement.
    pub fn find_algorithms(
        &self,
        op: ConvOp,
        x: &TensorDescriptor,
        w: &FilterDescriptor,
        conv: &ConvolutionDescriptor,
    ) -> Result<Vec<AlgoPerf>> {
        let g = conv.geometry(x, w)?;
        let mut perfs: Vec<AlgoPerf> = match self.engine() {
            Engine::Simulated(d) => {
                // Benchmarks observe the device as it is *now*: a perturbed
                // latency curve re-measures slower, which is exactly what a
                // re-benchmark after drift must see.
                let factor = self.perturb_factor_now();
                enumerate(d, op, &g)
                    .into_iter()
                    .map(|p| AlgoPerf {
                        algo: p.algo,
                        time_us: p.time_us * factor,
                        memory_bytes: p.workspace_bytes,
                        status: self.bench_status(op, p.algo, g.input.n, p.workspace_bytes),
                    })
                    .collect()
            }
            Engine::RealCpu => {
                // Aliases that map to one CPU engine (FFT_TILING ≡ FFT,
                // IMPLICIT_PRECOMP_GEMM ≡ GEMM) share one measurement per
                // find; fault verdicts stay per row.
                let operands = bench_operands(&g);
                let mut measured: Vec<(EngineKind, Result<f64>)> = Vec::new();
                ConvAlgo::ALL
                    .iter()
                    .filter(|&&a| supported_on(self.engine(), a, op, &g))
                    .map(|&a| {
                        let mem = workspace_bytes_on(self.engine(), a, op, &g).unwrap_or(0);
                        let mut perf = AlgoPerf {
                            algo: a,
                            time_us: 0.0,
                            memory_bytes: mem,
                            status: self.bench_status(op, a, g.input.n, mem),
                        };
                        if perf.status != AlgoStatus::Success {
                            return perf;
                        }
                        let time = cpu_engine_for(a).map(|kind| {
                            match measured.iter().find(|(k, _)| *k == kind) {
                                Some((_, t)) => t.clone(),
                                None => {
                                    let t = bench_cpu(kind, op, &g, mem, &operands);
                                    measured.push((kind, t.clone()));
                                    t
                                }
                            }
                        });
                        match time {
                            Some(Ok(t)) => perf.time_us = t,
                            // A kernel that dies mid-benchmark is a failed
                            // row, not a process abort — exactly how the
                            // real auto-tuner reports it.
                            _ => perf.status = AlgoStatus::ExecutionFailed,
                        }
                        perf
                    })
                    .collect()
            }
        };
        // Successful rows first, fastest-first; failed rows trail.
        perfs.sort_by(|a, b| {
            (a.status != AlgoStatus::Success)
                .cmp(&(b.status != AlgoStatus::Success))
                .then(a.time_us.total_cmp(&b.time_us))
        });
        crate::observe::emit_with(|| crate::observe::CallEvent {
            site: crate::observe::CallSite::Find,
            op,
            algo: None,
            micro_batch: g.input.n,
            geometry: format!("{g}"),
            rows: perfs.len(),
            modeled_us: 0.0,
        });
        Ok(perfs)
    }

    /// Fault-plan verdict for benchmarking one algorithm: injected
    /// allocation failures (workspace above the plan's threshold) win over
    /// injected execution failures; no plan means success.
    fn bench_status(&self, op: ConvOp, algo: ConvAlgo, n: usize, mem: usize) -> AlgoStatus {
        if self.fault_check_alloc(mem).is_err() {
            AlgoStatus::AllocFailed
        } else if self.fault_bench(op, algo, n) {
            AlgoStatus::ExecutionFailed
        } else {
            AlgoStatus::Success
        }
    }

    /// `cudnnGetConvolution*Algorithm`: pick one algorithm under a
    /// workspace preference.
    pub fn get_algorithm(
        &self,
        op: ConvOp,
        x: &TensorDescriptor,
        w: &FilterDescriptor,
        conv: &ConvolutionDescriptor,
        pref: AlgoPreference,
    ) -> Result<ConvAlgo> {
        let perfs = self.find_algorithms(op, x, w, conv)?;
        let limit = match pref {
            AlgoPreference::PreferFastest => usize::MAX,
            AlgoPreference::SpecifyWorkspaceLimit(b) => b,
            AlgoPreference::NoWorkspace => 0,
        };
        perfs
            .into_iter()
            .find(|p| p.status == AlgoStatus::Success && p.memory_bytes <= limit)
            .map(|p| p.algo)
            .ok_or_else(|| CudnnError::NotSupported("no algorithm fits the workspace limit".into()))
    }

    /// `cudnnGetConvolution*WorkspaceSize`: bytes required by `algo`.
    pub fn get_workspace_size(
        &self,
        op: ConvOp,
        x: &TensorDescriptor,
        w: &FilterDescriptor,
        conv: &ConvolutionDescriptor,
        algo: ConvAlgo,
    ) -> Result<usize> {
        let g = conv.geometry(x, w)?;
        let bytes = workspace_bytes_on(self.engine(), algo, op, &g)
            .ok_or_else(|| CudnnError::NotSupported(format!("{algo} cannot run {op} on {g}")))?;
        // The fault plan can fail workspace *queries* above its threshold,
        // modeling cudnnGetConvolution*WorkspaceSize returning ALLOC_FAILED.
        self.fault_check_alloc(bytes)?;
        Ok(bytes)
    }
}

/// Deterministic synthetic operands `[x, w, dy]` for benchmarking `g`.
fn bench_operands(g: &ConvGeometry) -> [Tensor; 3] {
    [
        Tensor::random(g.input, 0x5eed),
        Tensor::random(g.filter.as_shape4(), 0x5eed + 1),
        Tensor::random(g.output(), 0x5eed + 2),
    ]
}

/// Execute one CPU kernel once on the synthetic operands and return wall
/// microseconds, or the kernel's own failure — benchmarking must never abort
/// the process. Timing starts after the output and workspace exist.
fn bench_cpu(
    kind: EngineKind,
    op: ConvOp,
    g: &ConvGeometry,
    ws_bytes: usize,
    [x, w, dy]: &[Tensor; 3],
) -> Result<f64> {
    let (a, b, mut out) = match op {
        ConvOp::Forward => (x.as_slice(), w.as_slice(), Tensor::zeros(g.output())),
        ConvOp::BackwardData => (dy.as_slice(), w.as_slice(), Tensor::zeros(g.input)),
        ConvOp::BackwardFilter => (
            x.as_slice(),
            dy.as_slice(),
            Tensor::zeros(g.filter.as_shape4()),
        ),
    };
    let mut ws = vec![0.0f32; ws_bytes.div_ceil(4)];
    let start = std::time::Instant::now();
    ucudnn_conv::exec(kind, op, g, a, b, out.as_mut_slice(), 1.0, 0.0, &mut ws)
        .map_err(|e| CudnnError::ExecutionFailed(e.to_string()))?;
    Ok(start.elapsed().as_secs_f64() * 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucudnn_gpu_model::p100_sxm2;

    fn descs(n: usize) -> (TensorDescriptor, FilterDescriptor, ConvolutionDescriptor) {
        (
            TensorDescriptor::new_4d(n, 8, 16, 16).unwrap(),
            FilterDescriptor::new_4d(8, 8, 3, 3).unwrap(),
            ConvolutionDescriptor::new_2d(1, 1, 1, 1).unwrap(),
        )
    }

    #[test]
    fn simulated_find_is_sorted_and_deterministic() {
        let h = CudnnHandle::simulated(p100_sxm2());
        let (x, w, c) = descs(32);
        let a = h.find_algorithms(ConvOp::Forward, &x, &w, &c).unwrap();
        let b = h.find_algorithms(ConvOp::Forward, &x, &w, &c).unwrap();
        assert_eq!(a, b);
        assert!(a.windows(2).all(|p| p[0].time_us <= p[1].time_us));
        assert!(!a.is_empty());
    }

    #[test]
    fn real_cpu_find_runs_every_supported_algorithm() {
        let h = CudnnHandle::real_cpu();
        let (x, w, c) = descs(2);
        let perfs = h.find_algorithms(ConvOp::Forward, &x, &w, &c).unwrap();
        // Direct, Gemm-family, FFT-family and Winograd-family all apply.
        assert!(perfs.len() >= 4);
        assert!(perfs.iter().all(|p| p.time_us > 0.0));
    }

    fn row(perfs: &[AlgoPerf], algo: ConvAlgo) -> AlgoPerf {
        *perfs.iter().find(|p| p.algo == algo).unwrap()
    }

    #[test]
    fn real_cpu_aliases_share_one_measurement() {
        let h = CudnnHandle::real_cpu();
        let (x, w, c) = descs(2);
        for op in ConvOp::ALL {
            let perfs = h.find_algorithms(op, &x, &w, &c).unwrap();
            for (a, b) in [
                (ConvAlgo::Fft, ConvAlgo::FftTiling),
                (ConvAlgo::Gemm, ConvAlgo::ImplicitPrecompGemm),
            ] {
                let (a, b) = (row(&perfs, a), row(&perfs, b));
                assert_eq!(a.status, AlgoStatus::Success);
                assert_eq!(
                    a.time_us.to_bits(),
                    b.time_us.to_bits(),
                    "{op}: {a:?} vs {b:?}"
                );
                assert_eq!(a.memory_bytes, b.memory_bytes, "{op}");
                assert_eq!(a.status, b.status, "{op}");
            }
        }
    }

    #[test]
    fn a_fault_on_one_alias_leaves_the_other_measured() {
        use crate::fault::{FaultPlan, FaultTarget};
        let h = CudnnHandle::real_cpu().with_faults(FaultPlan {
            targets: vec![FaultTarget::algo(ConvAlgo::Fft)],
            ..FaultPlan::default()
        });
        let (x, w, c) = descs(2);
        let perfs = h.find_algorithms(ConvOp::Forward, &x, &w, &c).unwrap();
        let failed: Vec<ConvAlgo> = perfs
            .iter()
            .filter(|p| p.status != AlgoStatus::Success)
            .map(|p| p.algo)
            .collect();
        assert_eq!(failed, [ConvAlgo::Fft], "only the targeted row fails");
        let tiling = row(&perfs, ConvAlgo::FftTiling);
        assert_eq!(tiling.status, AlgoStatus::Success);
        assert!(tiling.time_us > 0.0, "FFT_TILING is really measured");
        assert_eq!(tiling.memory_bytes, row(&perfs, ConvAlgo::Fft).memory_bytes);
    }

    #[test]
    fn get_algorithm_respects_workspace_limits() {
        let h = CudnnHandle::simulated(p100_sxm2());
        let (x, w, c) = descs(32);
        let free = h
            .get_algorithm(ConvOp::Forward, &x, &w, &c, AlgoPreference::NoWorkspace)
            .unwrap();
        assert_eq!(
            h.get_workspace_size(ConvOp::Forward, &x, &w, &c, free)
                .unwrap(),
            0,
            "NO_WORKSPACE must return a zero-workspace algorithm"
        );
        let fastest = h
            .get_algorithm(ConvOp::Forward, &x, &w, &c, AlgoPreference::PreferFastest)
            .unwrap();
        let perfs = h.find_algorithms(ConvOp::Forward, &x, &w, &c).unwrap();
        assert_eq!(fastest, perfs[0].algo);
    }

    #[test]
    fn specify_limit_falls_back_to_slower_algorithm() {
        let h = CudnnHandle::simulated(p100_sxm2());
        let (x, w, c) = descs(64);
        let perfs = h.find_algorithms(ConvOp::Forward, &x, &w, &c).unwrap();
        let best = perfs[0];
        if best.memory_bytes > 0 {
            let algo = h
                .get_algorithm(
                    ConvOp::Forward,
                    &x,
                    &w,
                    &c,
                    AlgoPreference::SpecifyWorkspaceLimit(best.memory_bytes - 1),
                )
                .unwrap();
            assert_ne!(algo, best.algo);
        }
    }

    #[test]
    fn faulted_benchmarks_report_failed_rows_instead_of_dying() {
        use crate::fault::{FaultPlan, FaultTarget};
        let plan = FaultPlan {
            targets: vec![
                FaultTarget::algo(ConvAlgo::Fft),
                FaultTarget::algo(ConvAlgo::FftTiling),
            ],
            ..FaultPlan::default()
        };
        let (x, w, c) = descs(32);
        for h in [
            CudnnHandle::simulated(p100_sxm2()).with_faults(plan.clone()),
            CudnnHandle::real_cpu().with_faults(plan),
        ] {
            let perfs = h.find_algorithms(ConvOp::Forward, &x, &w, &c).unwrap();
            let (ok, failed): (Vec<&AlgoPerf>, Vec<&AlgoPerf>) =
                perfs.iter().partition(|p| p.status == AlgoStatus::Success);
            assert!(!ok.is_empty(), "non-targeted algorithms still succeed");
            assert_eq!(failed.len(), 2, "both FFT variants must be failed rows");
            assert!(failed
                .iter()
                .all(|p| matches!(p.algo, ConvAlgo::Fft | ConvAlgo::FftTiling)));
            // Failed rows sort after every successful row.
            let first_failed = perfs
                .iter()
                .position(|p| p.status != AlgoStatus::Success)
                .unwrap();
            assert_eq!(first_failed, ok.len());
            // get_algorithm never selects a failed row.
            let fastest = h
                .get_algorithm(ConvOp::Forward, &x, &w, &c, AlgoPreference::PreferFastest)
                .unwrap();
            assert!(!matches!(fastest, ConvAlgo::Fft | ConvAlgo::FftTiling));
            assert!(h.faults_injected() > 0);
            assert!(!h.fault_log().is_empty());
        }
    }

    #[test]
    fn alloc_threshold_faults_workspace_queries() {
        use crate::fault::FaultPlan;
        let h = CudnnHandle::simulated(p100_sxm2()).with_faults(FaultPlan {
            alloc_fail_above: Some(0),
            ..FaultPlan::default()
        });
        let (x, w, c) = descs(32);
        // Zero-workspace queries still succeed; any positive request fails.
        assert_eq!(
            h.get_workspace_size(ConvOp::Forward, &x, &w, &c, ConvAlgo::ImplicitGemm)
                .unwrap(),
            0
        );
        assert!(matches!(
            h.get_workspace_size(ConvOp::Forward, &x, &w, &c, ConvAlgo::WinogradNonfused),
            Err(CudnnError::AllocFailed { .. })
        ));
        // find_algorithms keeps only what fits: everything above the
        // threshold is an AllocFailed row.
        let perfs = h.find_algorithms(ConvOp::Forward, &x, &w, &c).unwrap();
        assert!(perfs
            .iter()
            .all(|p| (p.status == AlgoStatus::Success) == (p.memory_bytes == 0)));
    }

    #[test]
    fn workspace_size_query_rejects_unsupported() {
        let h = CudnnHandle::simulated(p100_sxm2());
        let (x, w, c) = descs(4);
        assert!(matches!(
            h.get_workspace_size(ConvOp::Forward, &x, &w, &c, ConvAlgo::Direct),
            Err(CudnnError::NotSupported(_))
        ));
    }
}
