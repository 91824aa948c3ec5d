//! `UcudnnHandle` — the transparent wrapper (§III-D, §III-E).
//!
//! Replacing `cudnnHandle_t` with `UcudnnHandle_t` is the only change a
//! framework needs (about three lines in Caffe). The wrapper:
//!
//! * intercepts `get_algorithm` / `get_workspace_size`, optimizes the
//!   kernel's micro-batch division, and returns a **virtual algorithm id**
//!   with **zero** required workspace — so the framework neither allocates a
//!   workspace nor interferes with the plan;
//! * intercepts the three `convolution_*` calls and replays them as the
//!   planned sequence of micro-batch kernels against the wrapped handle,
//!   with `beta = 1` accumulation for BackwardFilter;
//! * delegates everything else to the wrapped handle (`Deref`, the analogue
//!   of the C++ cast operator).
//!
//! Workspaces are owned by the wrapper: one buffer per kernel under WR, one
//! globally divided buffer under WD.

use crate::bench_cache::{BenchCache, CacheStats};
use crate::config::Configuration;
use crate::error::UcudnnError;
use crate::kernel::KernelKey;
use crate::metrics::OptimizerMetrics;
use crate::policy::BatchSizePolicy;
use crate::trace::{self, PlanProvenance};
use crate::wd::{optimize_wd_weighted_parallel, WdPlan};
use crate::wr::{optimize_wr_metered, WrResult};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use ucudnn_cudnn_sim::{
    ConvAlgo, ConvOp, ConvolutionDescriptor, CudnnError, CudnnHandle, FilterDescriptor,
    TensorDescriptor,
};
use ucudnn_tensor::Shape4;

/// The algorithm id returned to frameworks for every optimized kernel. The
/// value itself is meaningless (the wrapper ignores the algorithm argument
/// at execution time and uses its plan); it only has to be a valid id the
/// framework can pass back, exactly like the paper's "virtual algorithm ID".
pub const VIRTUAL_ALGO: ConvAlgo = ConvAlgo::ImplicitGemm;

/// Which optimization scheme the handle runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptimizerMode {
    /// Workspace Reuse: per-kernel workspace of at most the limit, each
    /// kernel optimized independently by dynamic programming.
    Wr,
    /// Workspace Division: one global workspace of at most the limit,
    /// divided among kernels by the ILP.
    Wd,
}

/// Wrapper configuration (the C++ library reads these from environment
/// variables; here they are explicit).
#[derive(Debug, Clone)]
pub struct UcudnnOptions {
    /// Micro-batch sizes to benchmark.
    pub policy: BatchSizePolicy,
    /// Workspace limit in bytes: per kernel under WR, total under WD.
    pub workspace_limit_bytes: usize,
    /// WR or WD.
    pub mode: OptimizerMode,
    /// Optional file-backed benchmark database (§III-D).
    pub cache_file: Option<PathBuf>,
    /// Evaluate micro-benchmarks on parallel threads (the multi-GPU
    /// parallel-evaluation analogue). Keep off for wall-clock benchmarking.
    pub parallel_benchmark: bool,
    /// Worker threads for whole-network optimization
    /// ([`UcudnnHandle::optimize_network`] and the WD desirable-set fan-out).
    /// Plans are byte-identical for every value; only wall clock changes.
    pub opt_threads: usize,
}

impl Default for UcudnnOptions {
    fn default() -> Self {
        Self {
            policy: BatchSizePolicy::PowerOfTwo,
            workspace_limit_bytes: 64 * 1024 * 1024,
            mode: OptimizerMode::Wr,
            cache_file: None,
            parallel_benchmark: false,
            opt_threads: 1,
        }
    }
}

/// A kernel's installed execution plan.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The micro-batch division to execute.
    pub config: Configuration,
    /// Workspace segment offset in `f32` elements (WD; zero under WR).
    pub offset_floats: usize,
    /// How many times this kernel was registered (replicated layers).
    pub multiplicity: usize,
    /// The decision record explaining this plan (DESIGN.md §10).
    pub provenance: PlanProvenance,
}

#[derive(Debug, Default)]
struct State {
    plans: HashMap<KernelKey, Plan>,
    /// WD: kernels registered during network construction, with counts.
    pending: Vec<KernelKey>,
    wd_plan: Option<WdPlan>,
    /// WR: one workspace per kernel.
    arenas: HashMap<KernelKey, Vec<f32>>,
    /// WD: the single divided workspace.
    wd_arena: Vec<f32>,
    /// Wall time spent optimizing (benchmarks + DP + ILP), microseconds.
    opt_wall_us: f64,
}

/// The transparent μ-cuDNN handle.
///
/// The benchmark cache and metrics collector live outside the state mutex:
/// both are internally synchronized, so optimizer worker threads share them
/// directly while the mutex only guards plan installation.
#[derive(Debug)]
pub struct UcudnnHandle {
    inner: CudnnHandle,
    opts: UcudnnOptions,
    cache: BenchCache,
    metrics: OptimizerMetrics,
    state: Mutex<State>,
}

impl std::ops::Deref for UcudnnHandle {
    type Target = CudnnHandle;

    /// Delegation of every non-convolution call to the wrapped handle —
    /// the Rust spelling of the C++ cast operator.
    fn deref(&self) -> &CudnnHandle {
        &self.inner
    }
}

impl UcudnnHandle {
    /// Wrap a substrate handle.
    pub fn new(inner: CudnnHandle, opts: UcudnnOptions) -> Self {
        let cache = match &opts.cache_file {
            Some(p) => BenchCache::with_file(p),
            None => BenchCache::new(),
        };
        Self {
            inner,
            opts,
            cache,
            metrics: OptimizerMetrics::new(),
            state: Mutex::new(State::default()),
        }
    }

    /// The wrapped handle.
    pub fn inner(&self) -> &CudnnHandle {
        &self.inner
    }

    /// The wrapper options.
    pub fn options(&self) -> &UcudnnOptions {
        &self.opts
    }

    /// `cudnnGetConvolution*Algorithm` override: register (and under WR,
    /// immediately optimize) the kernel, then return the virtual algorithm.
    ///
    /// # Errors
    /// Propagates optimization failures.
    pub fn get_algorithm(
        &self,
        op: ConvOp,
        x: &TensorDescriptor,
        w: &FilterDescriptor,
        conv: &ConvolutionDescriptor,
    ) -> Result<ConvAlgo, UcudnnError> {
        let g = conv.geometry(x, w)?;
        let key = KernelKey::new(op, &g);
        let mut st = self.state.lock();
        match self.opts.mode {
            OptimizerMode::Wr => {
                self.ensure_wr_plan(&mut st, &key)?;
                if let Some(p) = st.plans.get_mut(&key) {
                    p.multiplicity += 1;
                }
            }
            OptimizerMode::Wd => {
                if st.wd_plan.is_none() {
                    st.pending.push(key);
                } else if !st.plans.contains_key(&key) {
                    // A kernel registered after WD ran: fall back to WR for
                    // it with the whole limit (rare; keeps the API total).
                    self.ensure_wr_plan(&mut st, &key)?;
                }
            }
        }
        Ok(VIRTUAL_ALGO)
    }

    /// `cudnnGetConvolution*WorkspaceSize` override: always zero — the
    /// wrapper owns all workspaces.
    ///
    /// # Errors
    /// Rejects invalid descriptor combinations like the substrate would.
    pub fn get_workspace_size(
        &self,
        _op: ConvOp,
        x: &TensorDescriptor,
        w: &FilterDescriptor,
        conv: &ConvolutionDescriptor,
        _algo: ConvAlgo,
    ) -> Result<usize, UcudnnError> {
        conv.geometry(x, w)?;
        Ok(0)
    }

    /// Run the WD optimization over all kernels registered so far. Called
    /// automatically on the first convolution; frameworks whose
    /// initialization order needs it can call it explicitly (the paper adds
    /// exactly such a post-initialization hook to Caffe).
    ///
    /// # Errors
    /// Propagates WD infeasibility.
    pub fn finalize_network(&self) -> Result<(), UcudnnError> {
        let mut st = self.state.lock();
        self.run_wd(&mut st)
    }

    fn run_wd(&self, st: &mut State) -> Result<(), UcudnnError> {
        if st.wd_plan.is_some() || st.pending.is_empty() {
            return Ok(());
        }
        let start = std::time::Instant::now();
        // Fold duplicate-shape kernels into one group with a multiplicity
        // weight: the wrapper cannot tell instances apart at execution time,
        // so they share a configuration and a segment.
        let mut counts: Vec<(KernelKey, usize)> = Vec::new();
        for k in &st.pending {
            match counts.iter_mut().find(|(kk, _)| kk == k) {
                Some((_, c)) => *c += 1,
                None => counts.push((*k, 1)),
            }
        }
        let threads = self.opts.opt_threads.max(1);
        self.metrics.set_threads(threads);
        self.metrics.add_kernels(counts.len());
        // Shrink-and-retry on allocation faults: every failed arena
        // allocation re-solves the ILP with a budget strictly below the
        // failed size, descending monotonically to zero (which never
        // faults — the threshold is strict).
        let mut limit = self.opts.workspace_limit_bytes;
        // Degradation rungs taken before the final solve, prepended to every
        // assignment's provenance so the record reads in ladder order.
        let mut shrink_rungs: Vec<String> = Vec::new();
        let plan = loop {
            let plan = optimize_wd_weighted_parallel(
                &self.inner,
                &self.cache,
                &counts,
                limit,
                self.opts.policy,
                threads,
                Some(&self.metrics),
            )?;
            if self
                .inner
                .fault_check_alloc(plan.total_workspace_bytes)
                .is_ok()
            {
                break plan;
            }
            self.metrics.degradation();
            limit = plan.total_workspace_bytes - 1;
            shrink_rungs.push(format!("wd_shrink:{limit}"));
        };
        st.wd_arena = vec![0.0f32; plan.total_workspace_bytes.div_ceil(4)];
        for (a, (_, mult)) in plan.assignments.iter().zip(&counts) {
            let mut provenance = a.provenance.clone();
            if !shrink_rungs.is_empty() {
                let mut rungs = shrink_rungs.clone();
                rungs.append(&mut provenance.degradations);
                provenance.degradations = rungs;
            }
            trace::plan_event(&a.kernel, &a.config, &provenance);
            st.plans.insert(
                a.kernel,
                Plan {
                    config: a.config.clone(),
                    offset_floats: a.offset_bytes / 4,
                    multiplicity: *mult,
                    provenance,
                },
            );
        }
        st.pending.clear();
        st.wd_plan = Some(plan);
        st.opt_wall_us += start.elapsed().as_secs_f64() * 1e6;
        Ok(())
    }

    fn ensure_wr_plan(&self, st: &mut State, key: &KernelKey) -> Result<(), UcudnnError> {
        if st.plans.contains_key(key) {
            return Ok(());
        }
        let start = std::time::Instant::now();
        let r = optimize_wr_metered(
            &self.inner,
            &self.cache,
            key,
            self.opts.workspace_limit_bytes,
            self.opts.policy,
            self.opts.parallel_benchmark,
            Some(&self.metrics),
        )?;
        let (config, arena, provenance) = self.wr_arena_with_shrink(key, r)?;
        st.opt_wall_us += start.elapsed().as_secs_f64() * 1e6;
        self.metrics.add_kernels(1);
        st.arenas.insert(*key, arena);
        st.plans.insert(
            *key,
            Plan {
                config,
                offset_floats: 0,
                multiplicity: 0,
                provenance,
            },
        );
        Ok(())
    }

    /// Allocate a WR arena for an optimized configuration, degrading on
    /// allocation faults: every failed allocation re-runs the DP with the
    /// workspace limit strictly below the failed size, so the loop descends
    /// monotonically and bottoms out at the zero-workspace configuration
    /// (a zero-byte allocation never faults — the threshold is strict).
    fn wr_arena_with_shrink(
        &self,
        key: &KernelKey,
        mut r: WrResult,
    ) -> Result<(Configuration, Vec<f32>, PlanProvenance), UcudnnError> {
        // Rungs taken by this loop, prepended so the provenance record
        // reads in ladder order: shrink rungs first, then whatever the
        // final re-optimization itself degraded through.
        let mut shrink_rungs: Vec<String> = Vec::new();
        loop {
            if !r.config.covers(key.batch()) {
                return Err(UcudnnError::Degraded {
                    kernel: key.to_string(),
                    lost: format!(
                        "optimizer produced a configuration that does not tile the batch: {}",
                        r.config
                    ),
                });
            }
            let bytes = r.config.workspace_bytes();
            if self.inner.fault_check_alloc(bytes).is_ok() {
                let mut provenance = r.provenance;
                if !shrink_rungs.is_empty() {
                    shrink_rungs.append(&mut provenance.degradations);
                    provenance.degradations = shrink_rungs;
                }
                trace::plan_event(key, &r.config, &provenance);
                return Ok((r.config, vec![0.0f32; bytes.div_ceil(4)], provenance));
            }
            self.metrics.degradation();
            shrink_rungs.push(format!("shrink_reoptimize:{}", bytes - 1));
            r = optimize_wr_metered(
                &self.inner,
                &self.cache,
                key,
                bytes - 1,
                self.opts.policy,
                self.opts.parallel_benchmark,
                Some(&self.metrics),
            )?;
        }
    }

    /// Run a substrate call, retrying transient injected execution faults
    /// up to the handle's retry budget. Non-execution errors (and faults
    /// that persist past the budget) propagate.
    fn with_exec_retries(
        &self,
        mut call: impl FnMut() -> ucudnn_cudnn_sim::Result<()>,
    ) -> Result<(), UcudnnError> {
        let budget = self.inner.fault_retry_budget();
        let mut attempt = 0u32;
        loop {
            match call() {
                Ok(()) => return Ok(()),
                Err(CudnnError::ExecutionFailed(_)) if attempt < budget => {
                    attempt += 1;
                    self.metrics.add_exec_retries(1);
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Optimize a whole network's kernels in one call, fanning the
    /// per-kernel WR dynamic programs (or the WD desirable-set
    /// construction) over [`UcudnnOptions::opt_threads`] workers that share
    /// the concurrent benchmark cache.
    ///
    /// Duplicate keys are folded into one plan with their occurrence count
    /// as multiplicity. The produced plans are byte-identical to calling
    /// [`Self::get_algorithm`] kernel-by-kernel with one thread: worker
    /// results are installed in registration order, and the underlying
    /// benchmarks are pure functions of (device, kernel).
    ///
    /// # Errors
    /// Propagates the first optimization failure in registration order.
    pub fn optimize_network(&self, kernels: &[KernelKey]) -> Result<(), UcudnnError> {
        let threads = self.opts.opt_threads.max(1);
        self.metrics.set_threads(threads);
        match self.opts.mode {
            OptimizerMode::Wr => {
                let start = std::time::Instant::now();
                self.optimize_network_wr(kernels, threads)?;
                self.state.lock().opt_wall_us += start.elapsed().as_secs_f64() * 1e6;
            }
            OptimizerMode::Wd => {
                // `run_wd` counts its own wall time.
                let mut st = self.state.lock();
                for k in kernels {
                    if !st.plans.contains_key(k) {
                        st.pending.push(*k);
                    }
                }
                self.run_wd(&mut st)?;
            }
        }
        // Args are thread-count-independent on purpose: logical-clock traces
        // of the same network must not differ by `opt_threads`.
        trace::event("opt", "network_done", || {
            (
                match self.opts.mode {
                    OptimizerMode::Wr => "wr".to_string(),
                    OptimizerMode::Wd => "wd".to_string(),
                },
                crate::json::obj([("kernels", crate::json::num(kernels.len() as f64))]),
            )
        });
        Ok(())
    }

    fn optimize_network_wr(
        &self,
        kernels: &[KernelKey],
        threads: usize,
    ) -> Result<(), UcudnnError> {
        // Fold duplicates and skip kernels that already have plans.
        let mut counts: Vec<(KernelKey, usize)> = Vec::new();
        {
            let st = self.state.lock();
            for k in kernels {
                match counts.iter_mut().find(|(kk, _)| kk == k) {
                    Some((_, c)) => *c += 1,
                    None if !st.plans.contains_key(k) => counts.push((*k, 1)),
                    None => {}
                }
            }
        }
        if counts.is_empty() {
            return Ok(());
        }
        self.metrics.add_kernels(counts.len());
        type WrOutcome = Result<crate::wr::WrResult, UcudnnError>;
        let results: Vec<WrOutcome> = if threads > 1 && counts.len() > 1 {
            // Work-queue fan-out: workers pull kernel indices off a shared
            // counter; results land in an index-addressed slot vector so the
            // installation order below is the registration order. A panic in
            // one kernel's optimization loses that slot, not the process —
            // lost slots are recomputed sequentially below.
            let next = AtomicUsize::new(0);
            let outcomes: Vec<Vec<(usize, Option<WrOutcome>)>> = std::thread::scope(|scope| {
                let workers: Vec<_> = (0..threads.min(counts.len()))
                    .map(|_| {
                        let (next, counts) = (&next, &counts);
                        scope.spawn(move || {
                            let mut done = Vec::new();
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                let Some((k, _)) = counts.get(i) else { break };
                                let r = catch_unwind(AssertUnwindSafe(|| self.optimize_one_wr(k)));
                                done.push((i, r.ok()));
                            }
                            done
                        })
                    })
                    .collect();
                workers
                    .into_iter()
                    .map(|w| w.join().unwrap_or_default())
                    .collect()
            });
            let mut slots: Vec<Option<WrOutcome>> = (0..counts.len()).map(|_| None).collect();
            for (i, r) in outcomes.into_iter().flatten() {
                if let Some(r) = r {
                    slots[i] = Some(r);
                }
            }
            // Refill slots lost to worker panics; a second panic on the
            // calling thread is reported as an error instead of crashing.
            slots
                .into_iter()
                .enumerate()
                .map(|(i, r)| match r {
                    Some(r) => r,
                    None => {
                        let (k, _) = &counts[i];
                        catch_unwind(AssertUnwindSafe(|| self.optimize_one_wr(k))).unwrap_or_else(
                            |_| {
                                Err(UcudnnError::WorkerPanicked(format!(
                                    "WR optimization for {k}"
                                )))
                            },
                        )
                    }
                })
                .collect()
        } else {
            counts
                .iter()
                .map(|(k, _)| self.optimize_one_wr(k))
                .collect()
        };
        let mut installed = Vec::with_capacity(counts.len());
        for ((key, _), result) in counts.iter().zip(results) {
            let r = result?;
            installed.push(self.wr_arena_with_shrink(key, r)?);
        }
        let mut st = self.state.lock();
        for ((key, mult), (config, arena, provenance)) in counts.iter().zip(installed) {
            st.arenas.insert(*key, arena);
            st.plans.insert(
                *key,
                Plan {
                    config,
                    offset_floats: 0,
                    multiplicity: *mult,
                    provenance,
                },
            );
        }
        Ok(())
    }

    fn optimize_one_wr(&self, key: &KernelKey) -> Result<crate::wr::WrResult, UcudnnError> {
        optimize_wr_metered(
            &self.inner,
            &self.cache,
            key,
            self.opts.workspace_limit_bytes,
            self.opts.policy,
            self.opts.parallel_benchmark,
            Some(&self.metrics),
        )
    }

    /// Fetch (or lazily build) the plan for a kernel about to execute.
    fn plan_for(&self, st: &mut State, key: &KernelKey) -> Result<Plan, UcudnnError> {
        if self.opts.mode == OptimizerMode::Wd {
            self.run_wd(st)?;
        }
        if !st.plans.contains_key(key) {
            // Unregistered kernel (framework skipped get_algorithm):
            // optimize it on the fly under WR semantics.
            self.ensure_wr_plan(st, key)?;
        }
        Ok(st.plans[key].clone())
    }

    /// `cudnnConvolutionForward` override: execute the planned micro-batch
    /// sequence. The `algo` argument is accepted for signature compatibility
    /// and ignored; workspace is supplied internally.
    ///
    /// # Errors
    /// Propagates substrate and optimization errors.
    #[allow(clippy::too_many_arguments)]
    pub fn convolution_forward(
        &self,
        alpha: f32,
        x_desc: &TensorDescriptor,
        x: &[f32],
        w_desc: &FilterDescriptor,
        w: &[f32],
        conv: &ConvolutionDescriptor,
        _algo: ConvAlgo,
        beta: f32,
        y_desc: &TensorDescriptor,
        y: &mut [f32],
    ) -> Result<(), UcudnnError> {
        let g = conv.geometry(x_desc, w_desc)?;
        if y_desc.shape() != g.output() {
            return Err(ucudnn_cudnn_sim::CudnnError::BadParam(format!(
                "output descriptor {} does not match computed {}",
                y_desc.shape(),
                g.output()
            ))
            .into());
        }
        let key = KernelKey::new(ConvOp::Forward, &g);
        let mut st = self.state.lock();
        let plan = self.plan_for(&mut st, &key)?;
        let (in_s, out_s) = (g.input.sample_len(), g.output().sample_len());
        let out_shape = g.output();
        let st = &mut *st;
        let ws = arena(st, &key, &plan);
        let mut lo = 0usize;
        for (i, m) in plan.config.micros.iter().enumerate() {
            let hi = lo + m.micro_batch;
            let mxd = desc(g.input.with_batch(m.micro_batch));
            let myd = desc(out_shape.with_batch(m.micro_batch));
            let _micro = micro_span(&key, i, m);
            self.with_exec_retries(|| {
                self.inner.convolution_forward(
                    alpha,
                    &mxd,
                    sub(x, lo, hi, in_s),
                    w_desc,
                    w,
                    conv,
                    m.algo,
                    ws,
                    beta,
                    &myd,
                    sub_mut(y, lo, hi, out_s),
                )
            })?;
            lo = hi;
        }
        debug_assert_eq!(lo, g.input.n, "configuration must tile the mini-batch");
        Ok(())
    }

    /// `cudnnConvolutionBackwardData` override.
    ///
    /// # Errors
    /// Propagates substrate and optimization errors.
    #[allow(clippy::too_many_arguments)]
    pub fn convolution_backward_data(
        &self,
        alpha: f32,
        w_desc: &FilterDescriptor,
        w: &[f32],
        dy_desc: &TensorDescriptor,
        dy: &[f32],
        conv: &ConvolutionDescriptor,
        _algo: ConvAlgo,
        beta: f32,
        dx_desc: &TensorDescriptor,
        dx: &mut [f32],
    ) -> Result<(), UcudnnError> {
        let g = conv.geometry(dx_desc, w_desc)?;
        if dy_desc.shape() != g.output() {
            return Err(ucudnn_cudnn_sim::CudnnError::BadParam(format!(
                "gradient descriptor {} does not match computed {}",
                dy_desc.shape(),
                g.output()
            ))
            .into());
        }
        let key = KernelKey::new(ConvOp::BackwardData, &g);
        let mut st = self.state.lock();
        let plan = self.plan_for(&mut st, &key)?;
        let (in_s, out_s) = (g.input.sample_len(), g.output().sample_len());
        let out_shape = g.output();
        let st = &mut *st;
        let ws = arena(st, &key, &plan);
        let mut lo = 0usize;
        for (i, m) in plan.config.micros.iter().enumerate() {
            let hi = lo + m.micro_batch;
            let mdyd = desc(out_shape.with_batch(m.micro_batch));
            let mdxd = desc(g.input.with_batch(m.micro_batch));
            let _micro = micro_span(&key, i, m);
            self.with_exec_retries(|| {
                self.inner.convolution_backward_data(
                    alpha,
                    w_desc,
                    w,
                    &mdyd,
                    sub(dy, lo, hi, out_s),
                    conv,
                    m.algo,
                    ws,
                    beta,
                    &mdxd,
                    sub_mut(dx, lo, hi, in_s),
                )
            })?;
            lo = hi;
        }
        debug_assert_eq!(lo, g.input.n);
        Ok(())
    }

    /// `cudnnConvolutionBackwardFilter` override. Micro-batches after the
    /// first accumulate with `beta = 1` (output scaling), which preserves
    /// the undivided gradient exactly up to floating-point reassociation —
    /// the paper's §II argument.
    ///
    /// # Errors
    /// Propagates substrate and optimization errors.
    #[allow(clippy::too_many_arguments)]
    pub fn convolution_backward_filter(
        &self,
        alpha: f32,
        x_desc: &TensorDescriptor,
        x: &[f32],
        dy_desc: &TensorDescriptor,
        dy: &[f32],
        conv: &ConvolutionDescriptor,
        _algo: ConvAlgo,
        beta: f32,
        dw_desc: &FilterDescriptor,
        dw: &mut [f32],
    ) -> Result<(), UcudnnError> {
        let g = conv.geometry(x_desc, dw_desc)?;
        if dy_desc.shape() != g.output() {
            return Err(ucudnn_cudnn_sim::CudnnError::BadParam(format!(
                "gradient descriptor {} does not match computed {}",
                dy_desc.shape(),
                g.output()
            ))
            .into());
        }
        let key = KernelKey::new(ConvOp::BackwardFilter, &g);
        let mut st = self.state.lock();
        let plan = self.plan_for(&mut st, &key)?;
        let (in_s, out_s) = (g.input.sample_len(), g.output().sample_len());
        let out_shape = g.output();
        let st = &mut *st;
        let ws = arena(st, &key, &plan);
        let mut lo = 0usize;
        for (i, m) in plan.config.micros.iter().enumerate() {
            let hi = lo + m.micro_batch;
            let mxd = desc(g.input.with_batch(m.micro_batch));
            let mdyd = desc(out_shape.with_batch(m.micro_batch));
            let micro_beta = if i == 0 { beta } else { 1.0 };
            let _micro = micro_span(&key, i, m);
            self.with_exec_retries(|| {
                self.inner.convolution_backward_filter(
                    alpha,
                    &mxd,
                    sub(x, lo, hi, in_s),
                    &mdyd,
                    sub(dy, lo, hi, out_s),
                    conv,
                    m.algo,
                    ws,
                    micro_beta,
                    dw_desc,
                    dw,
                )
            })?;
            lo = hi;
        }
        debug_assert_eq!(lo, g.input.n);
        Ok(())
    }

    /// The installed plan for a kernel, if any.
    pub fn plan(&self, op: ConvOp, g: &ucudnn_tensor::ConvGeometry) -> Option<Plan> {
        self.state.lock().plans.get(&KernelKey::new(op, g)).cloned()
    }

    /// Per-kernel workspace assignment: `(kernel, configuration, bytes)` —
    /// the data behind the paper's Fig. 12 and Fig. 14.
    pub fn memory_report(&self) -> Vec<(KernelKey, Configuration, usize)> {
        let st = self.state.lock();
        let mut v: Vec<_> = st
            .plans
            .iter()
            .map(|(k, p)| (*k, p.config.clone(), p.config.workspace_bytes()))
            .collect();
        v.sort_by_key(|(k, _, _)| format!("{k}"));
        v
    }

    /// Total workspace bytes the wrapper has allocated (Σ per-kernel arenas
    /// under WR; the single divided arena under WD).
    pub fn total_workspace_bytes(&self) -> usize {
        let st = self.state.lock();
        4 * (st.wd_arena.len() + st.arenas.values().map(Vec::len).sum::<usize>())
    }

    /// Wall time spent in optimization (benchmarks + DP + ILP).
    pub fn optimization_wall_us(&self) -> f64 {
        self.state.lock().opt_wall_us
    }

    /// The WD plan, once computed.
    pub fn wd_plan(&self) -> Option<WdPlan> {
        self.state.lock().wd_plan.clone()
    }

    /// Benchmark-cache statistics.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The shared optimization metrics collector.
    pub fn metrics(&self) -> &OptimizerMetrics {
        &self.metrics
    }

    /// The telemetry registry behind [`Self::metrics`], with the cache and
    /// fault-injection tallies freshly mirrored in. Scrape it standalone
    /// ([`crate::telemetry::Registry::expose`]) or compose it into a larger
    /// exposition (the serving stack embeds it under its `STATS` verb).
    pub fn telemetry(&self) -> crate::telemetry::Registry {
        self.metrics
            .set_total_us(self.state.lock().opt_wall_us as u64);
        self.metrics.sync_cache(
            &self.cache.stats(),
            &self.inner.exec_cache_stats(),
            self.inner.faults_injected(),
        );
        self.metrics.registry()
    }

    /// Full metrics report as JSON: per-phase timings, thread and kernel
    /// counts, cache traffic, per-kernel benchmark counts (aggregated over
    /// micro-batch sizes), execution-plan cache counters, and the
    /// robustness ledger (degradations, injected faults, retries, DB
    /// quarantine counts).
    pub fn metrics_json(&self) -> String {
        self.metrics
            .set_total_us(self.state.lock().opt_wall_us as u64);
        self.metrics.to_json(
            self.cache.stats(),
            &self.cache.benchmark_counts_by_kernel(),
            self.inner.faults_injected(),
            self.inner.exec_cache_stats(),
        )
    }

    /// Persist the benchmark cache to its file DB, if configured.
    ///
    /// # Errors
    /// Propagates I/O failures.
    pub fn save_cache(&self) -> std::io::Result<()> {
        self.cache.save()
    }
}

/// Span around one micro-batch kernel replay (cat `exec`, name `micro`).
fn micro_span(key: &KernelKey, i: usize, m: &crate::config::MicroConfig) -> trace::SpanGuard {
    trace::span("exec", "micro", || {
        (
            format!("{key}#{i}"),
            crate::json::obj([
                ("algo", crate::json::Value::Str(m.algo.to_string())),
                ("micro_batch", crate::json::num(m.micro_batch as f64)),
                ("modeled_us", crate::json::num(m.time_us)),
            ]),
        )
    })
}

/// Workspace slice for a kernel: its private arena under WR, its segment of
/// the global arena under WD.
fn arena<'a>(st: &'a mut State, key: &KernelKey, plan: &Plan) -> &'a mut [f32] {
    if let Some(buf) = st.arenas.get_mut(key) {
        return buf.as_mut_slice();
    }
    let len = plan.config.workspace_bytes().div_ceil(4);
    &mut st.wd_arena[plan.offset_floats..plan.offset_floats + len]
}

fn desc(shape: Shape4) -> TensorDescriptor {
    TensorDescriptor::from_shape(shape).expect("micro shape is valid by construction")
}

/// Batch sub-slice that passes empty (simulated-engine) buffers through.
fn sub(data: &[f32], lo: usize, hi: usize, sample_len: usize) -> &[f32] {
    if data.is_empty() {
        data
    } else {
        &data[lo * sample_len..hi * sample_len]
    }
}

fn sub_mut(data: &mut [f32], lo: usize, hi: usize, sample_len: usize) -> &mut [f32] {
    if data.is_empty() {
        data
    } else {
        &mut data[lo * sample_len..hi * sample_len]
    }
}
