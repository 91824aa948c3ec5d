//! `train_wr` / `train_wd`: a closed loop of SGD training steps on a
//! CIFAR-shaped CNN, with every convolution going through μ-cuDNN on the
//! real CPU engines.
//!
//! The loop runs in episodes of [`EPISODE`] steps; each episode restarts
//! from the seeded initial parameters and data stream, so every measured
//! step has a reference loss. The reference trajectory comes from the same
//! seed with each convolution run undivided on the GEMM engine, outside
//! μ-cuDNN.

use crate::kernel::{self, Call};
use crate::report::{verdict, Report, RECON_TOLERANCE};
use crate::stats::{median, windowed_tail};
use crate::{trace, Args};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use ucudnn::{BatchSizePolicy, OptimizerMode, UcudnnHandle, UcudnnOptions};
use ucudnn_conv::EngineKind;
use ucudnn_cudnn_sim::{
    cpu_engine_for, set_call_observer, supported_on, CallEvent, CallSite, ConvAlgo, ConvOp,
    CudnnHandle, Engine,
};
use ucudnn_framework::{
    setup_network, sgd_step, softmax_cross_entropy, ConvProvider, LayerSpec, NetworkDef,
    ProviderError, RealExecutor, SyntheticDataset,
};
use ucudnn_tensor::{ConvGeometry, Shape4};

const BATCH: usize = 32;
const CLASSES: usize = 10;
/// Steps per episode.
const EPISODE: usize = 16;
const LR: f32 = 0.01;
const MIB: usize = 1 << 20;
/// WR per-kernel workspace limit: undivided Winograd does not fit, divided
/// Winograd does.
const WR_LIMIT: usize = 8 * MIB;
/// WD network-wide budget, well below the ~35 MiB WR's arenas sum to.
const WD_BUDGET: usize = 16 * MIB;
/// Untimed steps before measuring, so engine plans are built.
const WARMUP_STEPS: usize = 2;
/// A step's loss may differ from the reference by this share of
/// `max(1, |reference|)`.
const LOSS_TOLERANCE: f64 = 1e-4;
/// Timed replays per planned kernel call.
const REPLAY_REPS: usize = 7;
/// The committed benchmark table the measured steps plan from, relative to
/// the repository root (see README.md).
const BENCH_DB: &str = "perfbench/data/bench_db.json";

/// The 4-conv CIFAR-shaped CNN: 3×32×32 input, 32/64/128/128 3×3 filters,
/// two max-pools, global average pooling and a 10-way classifier.
fn network(batch: usize) -> NetworkDef {
    let mut net = NetworkDef::new("cifar4", Shape4::new(batch, 3, 32, 32));
    let pool = LayerSpec::Pool {
        max: true,
        kernel: 2,
        stride: 2,
        pad: 0,
    };
    let c1 = net.conv_relu("conv1", net.input(), 32, 3, 1, 1);
    let p1 = net.add("pool1", pool.clone(), &[c1]);
    let c2 = net.conv_relu("conv2", p1, 64, 3, 1, 1);
    let p2 = net.add("pool2", pool, &[c2]);
    let c3 = net.conv_relu("conv3", p2, 128, 3, 1, 1);
    let c4 = net.conv_relu("conv4", c3, 128, 3, 1, 1);
    let gap = net.add("gap", LayerSpec::GlobalAvgPool, &[c4]);
    net.add("fc", LayerSpec::FullyConnected { out: CLASSES }, &[gap]);
    net
}

/// The network's kernels in registration order, as `setup_network` builds
/// them.
fn kernels(net: &NetworkDef) -> Vec<(ConvOp, ConvGeometry)> {
    let mut v = Vec::new();
    for id in net.conv_layers() {
        let g = net.conv_geometry(id);
        v.push((ConvOp::Forward, g));
        if net.needs_backward_data(id) {
            v.push((ConvOp::BackwardData, g));
        }
        v.push((ConvOp::BackwardFilter, g));
    }
    v
}

fn op_index(op: ConvOp) -> usize {
    match op {
        ConvOp::Forward => 0,
        ConvOp::BackwardData => 1,
        ConvOp::BackwardFilter => 2,
    }
}

const OP_SUFFIX: [&str; 3] = ["fwd", "bwd_data", "bwd_filter"];

/// Per-op execute totals gathered by [`Timed`] while tracing.
#[derive(Debug, Default, Clone)]
struct ExecTotals {
    exec_ms: [f64; 3],
    calls: u64,
    /// Kernel time the substrate's own clock advanced by inside execute.
    insitu_ms: f64,
}

/// Benchmark-side `ConvProvider` decorator over `UcudnnHandle`: while
/// tracing it opens a `core.exec` span around each execute call and sums
/// call time per op; otherwise it only delegates.
struct Timed<'a> {
    inner: &'a UcudnnHandle,
    step: std::cell::Cell<u64>,
    totals: RefCell<ExecTotals>,
}

impl ConvProvider for Timed<'_> {
    fn setup(&self, op: ConvOp, g: &ConvGeometry) -> Result<(), ProviderError> {
        self.inner.setup(op, g)
    }
    fn prepare(&self, kernels: &[(ConvOp, ConvGeometry)]) -> Result<(), ProviderError> {
        self.inner.prepare(kernels)
    }
    fn finalize(&self) -> Result<(), ProviderError> {
        ConvProvider::finalize(self.inner)
    }
    fn execute(
        &self,
        op: ConvOp,
        g: &ConvGeometry,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        alpha: f32,
        beta: f32,
    ) -> Result<(), ProviderError> {
        if !trace::enabled() {
            return self.inner.execute(op, g, a, b, out, alpha, beta);
        }
        let clock0 = self.inner.inner().elapsed_us();
        let t0 = Instant::now();
        let r = {
            let _span = trace::span("core.exec", self.step.get());
            self.inner.execute(op, g, a, b, out, alpha, beta)
        };
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let mut t = self.totals.borrow_mut();
        t.exec_ms[op_index(op)] += ms;
        t.calls += 1;
        t.insitu_ms += (self.inner.inner().elapsed_us() - clock0) / 1e3;
        r
    }
    fn handle(&self) -> &CudnnHandle {
        self.inner.inner()
    }
    fn workspace_bytes(&self) -> usize {
        ConvProvider::workspace_bytes(self.inner)
    }
    fn kernel_workspace_bytes(&self, op: ConvOp, g: &ConvGeometry) -> usize {
        self.inner.kernel_workspace_bytes(op, g)
    }
}

/// The reference path: each convolution undivided on the GEMM engine.
struct Reference {
    handle: CudnnHandle,
    ws: RefCell<Vec<f32>>,
}

impl ConvProvider for Reference {
    fn setup(&self, _: ConvOp, _: &ConvGeometry) -> Result<(), ProviderError> {
        Ok(())
    }
    fn execute(
        &self,
        op: ConvOp,
        g: &ConvGeometry,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        alpha: f32,
        beta: f32,
    ) -> Result<(), ProviderError> {
        let mut ws = self.ws.borrow_mut();
        ws.resize(ucudnn_conv::workspace_floats(EngineKind::Gemm, op, g), 0.0);
        ucudnn_conv::exec(EngineKind::Gemm, op, g, a, b, out, alpha, beta, &mut ws)
            .map_err(|e| ProviderError::MalformedGraph(format!("reference GEMM: {e}")))
    }
    fn handle(&self) -> &CudnnHandle {
        &self.handle
    }
    fn workspace_bytes(&self) -> usize {
        4 * self.ws.borrow().len()
    }
    fn kernel_workspace_bytes(&self, _: ConvOp, _: &ConvGeometry) -> usize {
        0
    }
}

/// What the call observer saw.
#[derive(Debug, Default)]
struct Observed {
    /// `Find` sweeps: `(op, geometry, rows)`.
    finds: Vec<(ConvOp, String, usize)>,
    /// `Exec` calls per `(op, algo, geometry)`.
    execs: HashMap<(ConvOp, ConvAlgo, String), u64>,
}

fn install_observer(seen: &Arc<Mutex<Observed>>) {
    let seen = Arc::clone(seen);
    set_call_observer(Some(Arc::new(move |e: &CallEvent| {
        let mut s = seen.lock().expect("observer state poisoned");
        match e.site {
            CallSite::Find => s.finds.push((e.op, e.geometry.clone(), e.rows)),
            CallSite::Exec => {
                if let Some(algo) = e.algo {
                    *s.execs.entry((e.op, algo, e.geometry.clone())).or_default() += 1;
                }
            }
        }
    })));
}

/// The spans that make up a step, in order.
const STAGES: [&str; 5] = [
    "framework.data",
    "framework.forward",
    "framework.loss",
    "framework.backward",
    "framework.sgd",
];

/// The training loop state: the seeded start of an episode and the live
/// parameters and data stream.
struct Trainer {
    net: NetworkDef,
    initial: RealExecutor,
    seed: u64,
    exec: RealExecutor,
    data: SyntheticDataset,
    pos: usize,
}

impl Trainer {
    fn new(seed: u64) -> Self {
        let net = network(BATCH);
        let initial = RealExecutor::new(net.clone(), seed);
        Self {
            exec: initial.clone(),
            data: Self::dataset(&net, seed),
            net,
            initial,
            seed,
            pos: 0,
        }
    }

    fn dataset(net: &NetworkDef, seed: u64) -> SyntheticDataset {
        SyntheticDataset::new(net.input_shape().with_batch(1), CLASSES, seed ^ 0xda7a)
    }

    /// Run one step; returns its position in the episode, its loss and its
    /// wall time in milliseconds.
    fn step(
        &mut self,
        provider: &impl ConvProvider,
        id: u64,
    ) -> Result<(usize, f64, f64), ProviderError> {
        if self.pos == EPISODE {
            self.exec = self.initial.clone();
            self.data = Self::dataset(&self.net, self.seed);
            self.pos = 0;
        }
        let t0 = Instant::now();
        let loss = {
            let _step = trace::span("step", id);
            let (x, labels) = {
                let _s = trace::span("framework.data", id);
                self.data.batch(BATCH)
            };
            let acts = {
                let _s = trace::span("framework.forward", id);
                self.exec.forward(provider, &x)?
            };
            let (loss, dlogits) = {
                let _s = trace::span("framework.loss", id);
                softmax_cross_entropy(&acts[acts.len() - 1], &labels)
            };
            let (grads, _) = {
                let _s = trace::span("framework.backward", id);
                self.exec.backward(provider, &acts, &dlogits)?
            };
            let _s = trace::span("framework.sgd", id);
            sgd_step(&mut self.exec, &grads, LR);
            loss
        };
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let pos = self.pos;
        self.pos += 1;
        Ok((pos, loss, ms))
    }
}

/// Measured steps of one phase.
struct Phase {
    /// Wall time of each completed step, milliseconds.
    steps: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Largest |loss − reference loss| seen.
    max_loss_dev: f64,
}

/// Run steps for `seconds`, checking each loss against `reference`.
fn measure(
    trainer: &mut Trainer,
    provider: &Timed<'_>,
    reference: &[f64],
    seconds: f64,
    first_id: u64,
) -> Phase {
    let mut phase = Phase {
        steps: Vec::new(),
        attempted: 0,
        failed: 0,
        max_loss_dev: 0.0,
    };
    let start = Instant::now();
    let mut id = first_id;
    while start.elapsed().as_secs_f64() < seconds {
        provider.step.set(id);
        phase.attempted += 1;
        match trainer.step(provider, id) {
            Ok((pos, loss, ms)) => {
                let want = reference[pos];
                if !loss.is_finite() || (loss - want).abs() > LOSS_TOLERANCE * want.abs().max(1.0) {
                    eprintln!("step {id}: loss {loss} off reference {want}");
                    phase.failed += 1;
                }
                phase.max_loss_dev = phase.max_loss_dev.max((loss - want).abs());
                phase.steps.push(ms);
            }
            Err(e) => {
                eprintln!("step {id}: {e}");
                phase.failed += 1;
            }
        }
        id += 1;
    }
    phase
}

fn fingerprint(handle: &UcudnnHandle, net: &NetworkDef) -> (String, Vec<String>) {
    let mut lines = Vec::new();
    for (op, g) in kernels(net) {
        let plan = handle
            .plan(op, &g)
            .map_or("(no plan)".to_string(), |p| p.config.describe());
        lines.push(format!("{op:?} {} {plan}", g.input));
    }
    // FNV-1a over the plan lines.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in lines.join("\n").bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
    }
    (format!("{h:016x}"), lines)
}

fn options(mode: OptimizerMode, db: Option<&str>) -> UcudnnOptions {
    UcudnnOptions {
        policy: BatchSizePolicy::PowerOfTwo,
        workspace_limit_bytes: if mode == OptimizerMode::Wd {
            WD_BUDGET
        } else {
            WR_LIMIT
        },
        mode,
        cache_file: db.map(Into::into),
        ..Default::default()
    }
}

/// Run one cold WR set-up and write its benchmark table to `path`, which
/// must not exist yet (an existing table would be loaded, not measured).
pub fn write_db(path: &str) -> Result<(), String> {
    if std::path::Path::new(path).exists() {
        return Err(format!("{path} exists; remove it to measure a new table"));
    }
    let handle = UcudnnHandle::new(
        CudnnHandle::real_cpu(),
        options(OptimizerMode::Wr, Some(path)),
    );
    setup_network(&handle, &network(BATCH)).map_err(|e| format!("setup_network: {e}"))?;
    handle
        .save_cache()
        .map_err(|e| format!("writing {path}: {e}"))?;
    println!(
        "wrote {} benchmark rows to {path}",
        handle.cache_stats().misses
    );
    Ok(())
}

fn new_timed(handle: &UcudnnHandle) -> Timed<'_> {
    Timed {
        inner: handle,
        step: std::cell::Cell::new(0),
        totals: RefCell::new(ExecTotals::default()),
    }
}

/// Untimed steps so engine plans are built, then a restart of the episode.
fn warm_up(trainer: &mut Trainer, provider: &Timed<'_>) -> Result<(), String> {
    for i in 0..WARMUP_STEPS {
        trainer
            .step(provider, i as u64)
            .map_err(|e| format!("warm-up step {i}: {e}"))?;
    }
    trainer.pos = EPISODE;
    Ok(())
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let mode = if args.workload == "train_wd" {
        OptimizerMode::Wd
    } else {
        OptimizerMode::Wr
    };
    let net = network(BATCH);
    let seen = Arc::new(Mutex::new(Observed::default()));
    if report.traced() {
        install_observer(&seen);
    }

    // Set-up: a cold handle until the network is planned and ready.
    let t0 = Instant::now();
    let cold = UcudnnHandle::new(CudnnHandle::real_cpu(), options(mode, None));
    setup_network(&cold, &net).map_err(|e| format!("setup_network: {e}"))?;
    let mut trainer = Trainer::new(args.seed);
    let setup_s = t0.elapsed().as_secs_f64();
    set_call_observer(None);
    let opt_wall_ratio = cold.optimization_wall_us() / 1e6 / setup_s;
    println!(
        "setup_s = {setup_s} s (benchmark clock); core.opt_wall_ratio = {opt_wall_ratio} \
         (optimization_wall_us / setup_s)"
    );
    print_plan("cold", &cold, &net);

    // The plan the steps run on: the same optimizer over the committed
    // benchmark table, so it does not change from run to run.
    let pinned = UcudnnHandle::new(CudnnHandle::real_cpu(), options(mode, Some(BENCH_DB)));
    let provider = new_timed(&pinned);
    setup_network(&provider, &net).map_err(|e| format!("pinned setup_network: {e}"))?;
    let misses = pinned.cache_stats().misses;
    if misses > 0 {
        return Err(format!(
            "{BENCH_DB} lacks {misses} of the network's benchmark rows; regenerate it with --write-db"
        ));
    }
    let ws_mib = ConvProvider::workspace_bytes(&pinned) as f64 / MIB as f64;
    println!("workspace_mib = {ws_mib} MiB (ConvProvider::workspace_bytes, pinned plan)");
    report.layer("core.workspace_mib", ws_mib);
    print_plan("pinned", &pinned, &net);

    // The reference trajectory of one episode.
    let reference_provider = Reference {
        handle: CudnnHandle::real_cpu(),
        ws: RefCell::new(Vec::new()),
    };
    let mut ref_trainer = Trainer::new(args.seed);
    let mut reference = Vec::with_capacity(EPISODE);
    for i in 0..EPISODE {
        let (_, loss, _) = ref_trainer
            .step(&reference_provider, i as u64)
            .map_err(|e| format!("reference step {i}: {e}"))?;
        if !loss.is_finite() {
            return Err(format!("reference loss {loss} at step {i}"));
        }
        reference.push(loss);
    }
    println!(
        "reference losses (episode of {EPISODE} steps): first {} last {}",
        reference[0],
        reference[EPISODE - 1]
    );

    let mut attempted = 0;
    let mut failed = 0;
    if report.traced() {
        // Steps on this run's own cold plan: what the autotuner's choice
        // costs, apart from the pinned plan the other figures use.
        let cold_provider = new_timed(&cold);
        warm_up(&mut trainer, &cold_provider)?;
        let on_cold = measure(
            &mut trainer,
            &cold_provider,
            &reference,
            args.seconds / 4.0,
            0,
        );
        attempted += on_cold.attempted;
        failed += on_cold.failed;
        println!(
            "cold-plan step_ms_p50 = {} ms ({} steps)",
            median(&on_cold.steps),
            on_cold.steps.len()
        );
        report.layer("core.cold_plan_step_ms", median(&on_cold.steps));
    }

    warm_up(&mut trainer, &provider)?;
    let measured_s = if report.traced() {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let plain = measure(&mut trainer, &provider, &reference, measured_s, 1_000_000);
    let step_ms = plain.steps;
    attempted += plain.attempted;
    failed += plain.failed;
    println!(
        "loss check: largest |loss - reference| = {:e} (tolerance {LOSS_TOLERANCE} x max(1, |reference|))",
        plain.max_loss_dev
    );

    if !report.traced() {
        let (p, tail_ms, windows) = windowed_tail(&step_ms);
        let p50 = median(&step_ms);
        let samples_per_s = (BATCH * step_ms.len()) as f64 / (step_ms.iter().sum::<f64>() / 1e3);
        println!("step_ms_p50 = {p50} ms ({} steps)", step_ms.len());
        println!(
            "step_ms_tail = {tail_ms} ms (p{p}, {} steps, {windows} window(s))",
            step_ms.len()
        );
        println!("samples_per_s = {samples_per_s} 1/s (batch {BATCH})");
        report.e2e("setup_s", "s", setup_s);
        report.e2e("peak_rss_mib", "MiB", crate::report::peak_rss_mib());
    } else {
        // Traced phase.
        let cache0 = pinned.inner().exec_cache_stats();
        seen.lock().expect("observer state poisoned").execs.clear();
        install_observer(&seen);
        trace::set_enabled(true);
        let traced = measure(&mut trainer, &provider, &reference, measured_s, 2_000_000);
        trace::set_enabled(false);
        set_call_observer(None);
        let cache1 = pinned.inner().exec_cache_stats();
        attempted += traced.attempted;
        failed += traced.failed;
        let traced_ms = traced.steps;
        report.layer(
            "trace.overhead_frac",
            median(&traced_ms) / median(&step_ms) - 1.0,
        );
        layer_metrics(
            report,
            (&cold, &pinned),
            &net,
            &provider.totals.borrow(),
            &seen.lock().expect("observer state poisoned"),
            traced_ms.len(),
            (cache0, cache1),
            setup_s,
        )?;
        let path = trace::write_out(&format!("{}-seed{}", args.workload, args.seed))
            .map_err(|e| format!("writing spans: {e}"))?;
        println!("spans written to {path}");
    }
    report.attempted = attempted;
    report.failed = failed;
    report.wrong = failed;
    Ok(())
}

fn print_plan(label: &str, handle: &UcudnnHandle, net: &NetworkDef) {
    let (fp, lines) = fingerprint(handle, net);
    println!("{label} plan fingerprint {fp}");
    for l in &lines {
        println!("  {label} plan {l}");
    }
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    report: &mut Report,
    (cold, handle): (&UcudnnHandle, &UcudnnHandle),
    net: &NetworkDef,
    totals: &ExecTotals,
    seen: &Observed,
    steps: usize,
    (cache0, cache1): (
        ucudnn_cudnn_sim::ExecCacheStats,
        ucudnn_cudnn_sim::ExecCacheStats,
    ),
    setup_s: f64,
) -> Result<(), String> {
    let steps_f = steps.max(1) as f64;
    // Framework stages and reconciliations from the spans.
    let spans = trace::snapshot();
    let self_ms = trace::self_ms(&spans);
    let mut stage_ms = [0.0f64; 5];
    let (mut step_total, mut step_self, mut fb_total, mut exec_total, mut fb_self) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    for (s, own) in spans.iter().zip(&self_ms) {
        match s.name {
            "step" => {
                step_total += s.dur_ms();
                step_self += own;
            }
            "core.exec" => exec_total += s.dur_ms(),
            name => {
                if let Some(i) = STAGES.iter().position(|&st| st == name) {
                    stage_ms[i] += s.dur_ms();
                    if i == 1 || i == 3 {
                        fb_total += s.dur_ms();
                        fb_self += own;
                    }
                }
            }
        }
    }
    for (st, ms) in STAGES.iter().zip(stage_ms) {
        report.layer(&format!("{st}_ms"), ms / steps_f);
    }
    let nonconv = fb_self / steps_f;
    report.layer("framework.nonconv_ms", nonconv);
    let recon_step = step_self.abs() / step_total;
    let recon_fb = (fb_total - (exec_total + fb_self)).abs() / fb_total;
    println!(
        "reconcile step = data+forward+loss+backward+sgd: residual {recon_step:.4} of step \
         (tolerance {RECON_TOLERANCE}): {}",
        verdict(recon_step)
    );
    println!(
        "reconcile forward+backward = core.exec + framework.nonconv: residual {recon_fb:.2e} \
         (nonconv is the self time of the forward/backward spans, {nonconv:.3} ms/step): {}",
        verdict(recon_fb)
    );

    // Core: execute totals, micro-batch calls, predictions.
    let mut predicted_us = [0.0f64; 3];
    for (op, g) in kernels(net) {
        if let Some(p) = handle.plan(op, &g) {
            predicted_us[op_index(op)] += p.config.time_us();
        }
    }
    for (i, sfx) in OP_SUFFIX.iter().enumerate() {
        let ms = totals.exec_ms[i] / steps_f;
        report.layer(&format!("core.exec_ms.{sfx}"), ms);
        report.layer(
            &format!("core.pred_ratio.{sfx}"),
            ms * 1e3 / predicted_us[i],
        );
    }
    report.layer("core.exec_calls", totals.calls as f64 / steps_f);
    let micro_calls: u64 = seen.execs.values().sum();
    report.layer("core.micro_calls", micro_calls as f64 / steps_f);
    let t = cold.metrics().timings();
    report.layer("core.opt.benchmark_s", t.benchmark_us as f64 / 1e6);
    report.layer("core.opt.dp_s", t.dp_us as f64 / 1e6);
    report.layer("core.opt.pareto_s", t.pareto_us as f64 / 1e6);
    report.layer("core.opt.ilp_s", t.ilp_us as f64 / 1e6);
    report.layer(
        "core.opt_wall_ratio",
        cold.optimization_wall_us() / 1e6 / setup_s,
    );
    let cs = cold.cache_stats();
    report.layer("core.bench_cache.hits", cs.hits as f64);
    report.layer("core.bench_cache.misses", cs.misses as f64);

    // Substrate: Find sweeps and the execution-plan cache.
    let mut geoms: HashMap<String, ConvGeometry> = HashMap::new();
    for (_, g) in kernels(net) {
        for m in BatchSizePolicy::PowerOfTwo.candidate_sizes(g.input.n) {
            let mg = g.with_batch(m);
            geoms.insert(format!("{mg}"), mg);
        }
    }
    let (mut rows, mut unique) = (0usize, 0usize);
    for (op, geom, r) in &seen.finds {
        let g = geoms
            .get(geom)
            .ok_or_else(|| format!("Find on an unplanned geometry {geom}"))?;
        let mut engines: Vec<EngineKind> = ConvAlgo::ALL
            .iter()
            .filter(|&&a| supported_on(&Engine::RealCpu, a, *op, g))
            .filter_map(|&a| cpu_engine_for(a))
            .collect();
        engines.sort_by_key(|e| format!("{e:?}"));
        engines.dedup();
        rows += r;
        unique += engines.len();
    }
    report.layer("cudnn-sim.find_calls", seen.finds.len() as f64);
    report.layer(
        "cudnn-sim.find_unique_frac",
        unique as f64 / rows.max(1) as f64,
    );
    let (hits, misses) = (cache1.hits - cache0.hits, cache1.misses - cache0.misses);
    report.layer(
        "cudnn-sim.exec_cache.hit_frac",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    report.layer(
        "cudnn-sim.exec_cache.evictions",
        (cache1.evictions - cache0.evictions) as f64,
    );

    // Conv: replay every planned call shape seen during the traced steps.
    let mut kernel_ms = [0.0f64; 3];
    let mut flops = [0.0f64; 3];
    for ((op, algo, geom), count) in &seen.execs {
        let g = *geoms
            .get(geom)
            .ok_or_else(|| format!("Exec on an unplanned geometry {geom}"))?;
        let engine = cpu_engine_for(*algo).ok_or_else(|| format!("{algo} has no engine"))?;
        let call = Call { engine, op: *op, g };
        let us = kernel::replay_us(&call, REPLAY_REPS)?;
        let i = op_index(*op);
        kernel_ms[i] += us / 1e3 * *count as f64;
        flops[i] += g.flops() as f64 * *count as f64;
    }
    let peak = kernel::fma_peak_gflops(ucudnn_conv::parallel::max_workers());
    for (i, sfx) in OP_SUFFIX.iter().enumerate() {
        report.layer(&format!("conv.kernel_ms.{sfx}"), kernel_ms[i] / steps_f);
        report.layer(
            &format!("conv.gflops.{sfx}"),
            flops[i] / (kernel_ms[i] / 1e3) / 1e9,
        );
    }
    let kernel_total: f64 = kernel_ms.iter().sum();
    let all_gflops = flops.iter().sum::<f64>() / (kernel_total / 1e3) / 1e9;
    report.layer("conv.peak_gflops", peak);
    report.layer("conv.peak_frac", all_gflops / peak);
    let exec_ms: f64 = totals.exec_ms.iter().sum();
    report.layer("conv.insitu_ms", totals.insitu_ms / steps_f);
    report.layer("core.dispatch_ms", (exec_ms - kernel_total) / steps_f);
    // core.exec = conv.kernel (replayed) + dispatch (measured in situ as
    // execute time the substrate clock did not count as kernel time).
    let recon_exec = (exec_ms - (kernel_total + (exec_ms - totals.insitu_ms))).abs() / exec_ms;
    println!(
        "reconcile core.exec = conv.kernel (replay) + core.dispatch (in situ): residual {recon_exec:.4} \
         of core.exec (tolerance {RECON_TOLERANCE}); in-situ kernel {:.3} ms/step, replay {:.3} ms/step: {}",
        totals.insitu_ms / steps_f,
        kernel_total / steps_f,
        verdict(recon_exec)
    );
    report.layer("trace.recon.step", recon_step);
    report.layer("trace.recon.fwd_bwd", recon_fb);
    report.layer("trace.recon.core_exec", recon_exec);
    Ok(())
}
