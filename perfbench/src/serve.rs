//! `serve_low` / `serve_high`: open-loop inference load over one loopback
//! TCP connection against `Server` + `TcpFrontend` + `RealModelRunner`.
//!
//! Requests are drawn from a seeded pool of inputs whose reference argmax
//! (computed on the same runner before the load, keeping only inputs with a
//! clear top-2 margin) every response is checked against. Each request is
//! timed at the client from when it was due, so a stalled generator charges
//! its delay to the requests behind it.

use crate::report::{verdict, Report, RECON_TOLERANCE};
use crate::stats::{mean, median, quantile, windowed_tail};
use crate::{trace, Args};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};
use ucudnn::json::Value;
use ucudnn::telemetry::Registry;
use ucudnn::{IngressOptions, ServeOptions};
use ucudnn_cudnn_sim::CudnnHandle;
use ucudnn_framework::ConvProvider;
use ucudnn_serve::{BatchRunner, RealModelRunner, Server, TcpFrontend};
use ucudnn_tensor::DeterministicRng;

const SLO_US: f64 = 20_000.0;
/// Offered rates of `serve_low` and `serve_high`, requests per second.
const LOW_RPS: f64 = 500.0;
const HIGH_RPS: f64 = 4_000.0;
const MAX_BATCH: usize = 32;
/// Distinct request inputs; request `i` sends pool entry `i % POOL`, so
/// inputs in flight at once are distinct.
const POOL: usize = 1024;
/// Smallest top-1 minus top-2 logit gap of a pool input, and how many
/// seeded inputs are tried to fill the pool.
const MARGIN: f32 = 0.05;
const CANDIDATES: usize = 4 * POOL;
/// First request id of the traced phase and of the ladder.
const TRACED_FIRST_ID: u64 = 1 << 32;
const LADDER_FIRST_ID: u64 = 1 << 40;
/// Cold set-ups per run; `setup_s` is their median.
const SETUPS: usize = 25;
/// How long to wait for the responses still outstanding after the last
/// request was sent.
const DRAIN: Duration = Duration::from_secs(3);
/// Offered rates of the `serve_high` ladder, requests per second, and the
/// length of each rung.
const LADDER: [f64; 7] = [
    4_000.0, 6_000.0, 8_000.0, 10_000.0, 12_000.0, 14_000.0, 16_000.0,
];
const LADDER_SECONDS: f64 = 1.0;

/// One executed micro-batch, seen by [`Tagged`].
#[derive(Debug, Clone)]
struct Run {
    start_ns: u64,
    end_ns: u64,
    tags: Vec<u32>,
}

/// Benchmark-side `BatchRunner` decorator over `RealModelRunner`: while
/// recording, it times each `run` and notes which pool inputs rode in it
/// (identified by the bits of their first element).
struct Tagged {
    inner: RealModelRunner,
    /// Pool index per first-element bits, set once the pool is selected.
    tags: OnceLock<HashMap<u32, u32>>,
    recording: AtomicBool,
    runs: Mutex<Vec<Run>>,
}

impl BatchRunner for Tagged {
    fn sample_len(&self) -> usize {
        self.inner.sample_len()
    }
    fn output_len(&self) -> usize {
        self.inner.output_len()
    }
    fn batch_sizes(&self) -> Vec<usize> {
        self.inner.batch_sizes()
    }
    fn run(&self, n: usize, inputs: &[f32]) -> Result<Vec<f32>, String> {
        if !self.recording.load(Ordering::Relaxed) {
            return self.inner.run(n, inputs);
        }
        let start = Instant::now();
        let r = self.inner.run(n, inputs);
        let end = Instant::now();
        let tags = match self.tags.get() {
            Some(map) => inputs
                .chunks(self.inner.sample_len())
                .filter_map(|s| map.get(&s[0].to_bits()).copied())
                .collect(),
            None => Vec::new(),
        };
        self.runs.lock().expect("run log poisoned").push(Run {
            start_ns: trace::ns(start),
            end_ns: trace::ns(end),
            tags,
        });
        r
    }
    fn latency_table(&self) -> Vec<(usize, f64)> {
        self.inner.latency_table()
    }
    fn telemetry(&self) -> Option<Registry> {
        self.inner.telemetry()
    }
}

/// The seeded request pool: each input rendered as a JSON array, the map
/// from an input's first-element bits to its pool index, and the reference
/// argmax of every input.
struct Pool {
    json: Vec<String>,
    tags: HashMap<u32, u32>,
    reference: Vec<usize>,
}

impl Pool {
    /// Draw seeded inputs and keep the first [`POOL`] whose top-1 logit
    /// under `runner` beats the top-2 by at least [`MARGIN`] and whose first
    /// element differs from every kept one.
    fn build(seed: u64, runner: &RealModelRunner) -> Result<Self, String> {
        let mut rng = DeterministicRng::new(seed ^ 0x5e77e);
        let mut pool = Self {
            json: Vec::with_capacity(POOL),
            tags: HashMap::new(),
            reference: Vec::with_capacity(POOL),
        };
        for k in 0..CANDIDATES {
            let x: Vec<f32> = (0..runner.sample_len())
                .map(|_| rng.next_uniform() * 2.0 - 1.0)
                .collect();
            if pool.tags.contains_key(&x[0].to_bits()) {
                continue;
            }
            let out = runner.run(1, &x)?;
            let mut order: Vec<usize> = (0..out.len()).collect();
            order.sort_by(|&a, &b| out[b].total_cmp(&out[a]));
            if out[order[0]] - out[order[1]] < MARGIN {
                continue;
            }
            pool.tags.insert(x[0].to_bits(), pool.json.len() as u32);
            pool.reference.push(order[0]);
            let parts: Vec<String> = x.iter().map(|v| format!("{v}")).collect();
            pool.json.push(format!("[{}]", parts.join(",")));
            if pool.json.len() == POOL {
                println!(
                    "request pool: {POOL} inputs with a top-2 margin of {MARGIN} among the \
                     first {tried} of {CANDIDATES} candidates",
                    tried = k + 1
                );
                return Ok(pool);
            }
        }
        Err(format!(
            "only {} of {CANDIDATES} inputs have a top-2 margin of {MARGIN}",
            pool.json.len()
        ))
    }
}

/// A running server stack and the client connection to it.
struct Stack {
    runner: Arc<Tagged>,
    server: Arc<Server>,
    frontend: TcpFrontend,
    stream: TcpStream,
}

impl Stack {
    /// Cold set-up: a new CPU handle, runner and server, until the front
    /// end accepts the connection.
    fn start(seed: u64) -> Result<Self, String> {
        let runner = RealModelRunner::try_new(CudnnHandle::real_cpu(), seed, MAX_BATCH)
            .map_err(|e| format!("runner: {e}"))?;
        let runner = Arc::new(Tagged {
            inner: runner,
            tags: OnceLock::new(),
            recording: AtomicBool::new(false),
            runs: Mutex::new(Vec::new()),
        });
        let opts = ServeOptions {
            slo_us: SLO_US,
            max_batch: MAX_BATCH,
            ..ServeOptions::default()
        };
        let server = Arc::new(Server::start(runner.clone(), &opts));
        let frontend = TcpFrontend::start_with(
            Arc::clone(&server),
            "127.0.0.1:0",
            &IngressOptions::default(),
        )
        .map_err(|e| format!("front end: {e}"))?;
        let stream =
            TcpStream::connect(frontend.local_addr()).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(Self {
            runner,
            server,
            frontend,
            stream,
        })
    }

    fn stop(self) {
        drop(self.stream);
        self.frontend.stop();
        self.server.drain();
    }
}

/// One request's outcome at the client.
#[derive(Debug, Clone, Default)]
struct Outcome {
    due_ns: u64,
    lag_us: f64,
    recv_ns: Option<u64>,
    ok: bool,
    correct: bool,
    server_us: f64,
    batch: f64,
}

impl Outcome {
    fn client_us(&self) -> Option<f64> {
        self.recv_ns
            .map(|r| r.saturating_sub(self.due_ns) as f64 / 1e3)
    }
    fn good(&self) -> bool {
        self.ok && self.correct && self.client_us().is_some_and(|us| us <= SLO_US)
    }
}

/// Seeded Poisson arrival offsets (µs) at `rate` per second over `seconds`.
fn arrivals(seed: u64, rate: f64, seconds: f64) -> Vec<f64> {
    let mut rng = DeterministicRng::new(seed);
    let mut t = 0.0;
    let mut v = Vec::new();
    loop {
        let u = (1.0 - rng.next_uniform() as f64).max(1e-12);
        t += -u.ln() / rate * 1e6;
        if t >= seconds * 1e6 {
            return v;
        }
        v.push(t);
    }
}

/// The writer side of [`drive`]: send each request when it is due,
/// sleeping, then yielding the processor, until then.
fn send_all(
    writer: &mut TcpStream,
    pool: &Pool,
    schedule: &[f64],
    first_id: u64,
    start: Instant,
    outcomes: &Mutex<Vec<Outcome>>,
) -> Result<(), String> {
    let mut line = String::with_capacity(4096);
    for (i, &off) in schedule.iter().enumerate() {
        let due = start + Duration::from_nanos((off * 1e3) as u64);
        loop {
            let now = Instant::now();
            if now >= due {
                break;
            }
            let left = due - now;
            if left > Duration::from_micros(100) {
                std::thread::sleep(left - Duration::from_micros(80));
            } else {
                std::thread::yield_now();
            }
        }
        line.clear();
        line.push_str(&format!(
            "{{\"id\": {}, \"input\": {}}}\n",
            first_id + i as u64,
            pool.json[i % POOL]
        ));
        let lag = due.elapsed().as_secs_f64() * 1e6;
        writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut o = outcomes.lock().expect("outcomes poisoned");
        o[i].due_ns = trace::ns(due);
        o[i].lag_us = lag;
    }
    Ok(())
}

/// Drive one open-loop phase over `stream`: a writer thread sends request
/// `first_id + i` when due, a reader thread collects responses.
fn drive(
    stream: &TcpStream,
    pool: &Pool,
    schedule: &[f64],
    first_id: u64,
) -> Result<Vec<Outcome>, String> {
    let n = schedule.len();
    let outcomes = Mutex::new(vec![Outcome::default(); n]);
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let reader = stream.try_clone().map_err(|e| e.to_string())?;
    reader
        .set_read_timeout(Some(Duration::from_millis(100)))
        .map_err(|e| e.to_string())?;
    let sent_all = AtomicBool::new(false);
    let late = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(5);
    std::thread::scope(|s| {
        let w = s.spawn(|| -> Result<(), String> {
            let sent = send_all(&mut writer, pool, schedule, first_id, start, &outcomes);
            sent_all.store(true, Ordering::SeqCst);
            sent
        });
        let r = s.spawn(|| -> Result<(), String> {
            let mut rd = BufReader::new(reader);
            let mut buf = Vec::new();
            let mut received = 0usize;
            let mut idle_since: Option<Instant> = None;
            while received < n {
                match next_line(&mut rd, &mut buf) {
                    Ok(None) => return Err("server closed the connection".into()),
                    Ok(Some(line)) => {
                        let now = trace::ns(Instant::now());
                        idle_since = None;
                        let v =
                            Value::parse(&line).ok_or_else(|| format!("bad response {line}"))?;
                        let id = v
                            .get("id")
                            .and_then(Value::as_u64)
                            .ok_or("response without id")?;
                        if id < first_id {
                            // Answers a request of an earlier phase that
                            // gave up waiting for it; there it counts as
                            // missing.
                            late.fetch_add(1, Ordering::Relaxed);
                            continue;
                        }
                        let Some(i) = usize::try_from(id - first_id).ok().filter(|&i| i < n) else {
                            return Err(format!("response id {id} out of range"));
                        };
                        let mut o = outcomes.lock().expect("outcomes poisoned");
                        o[i].recv_ns = Some(now);
                        o[i].ok = v.get("ok") == Some(&Value::Bool(true));
                        o[i].correct = v.get("argmax").and_then(Value::as_usize)
                            == Some(pool.reference[i % POOL]);
                        o[i].server_us = v.get("latency_us").and_then(Value::as_f64).unwrap_or(0.0);
                        o[i].batch = v.get("batch").and_then(Value::as_f64).unwrap_or(0.0);
                        received += 1;
                    }
                    Err(e)
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ) =>
                    {
                        if sent_all.load(Ordering::SeqCst) {
                            let since = *idle_since.get_or_insert_with(Instant::now);
                            if since.elapsed() > DRAIN {
                                return Ok(()); // the rest count as missing
                            }
                        }
                    }
                    Err(e) => return Err(format!("receive: {e}")),
                }
            }
            Ok(())
        });
        let wr = w.join().map_err(|_| "writer thread panicked".to_string())?;
        let rr = r.join().map_err(|_| "reader thread panicked".to_string())?;
        wr.and(rr)
    })?;
    let late = late.into_inner();
    if late > 0 {
        println!("{late} late response(s) to an earlier phase ignored");
    }
    Ok(outcomes.into_inner().expect("outcomes poisoned"))
}

/// The next whole line from `rd`, `None` at end of stream. A read that
/// times out mid-line returns the error and keeps the bytes it got in
/// `buf`, so a later call completes the line instead of losing its head.
fn next_line(rd: &mut impl BufRead, buf: &mut Vec<u8>) -> std::io::Result<Option<String>> {
    rd.read_until(b'\n', buf)?;
    if buf.is_empty() {
        return Ok(None);
    }
    if buf.last() != Some(&b'\n') {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "stream ended mid-line",
        ));
    }
    let line = String::from_utf8_lossy(buf).into_owned();
    buf.clear();
    Ok(Some(line))
}

/// Client latencies (µs) of the requests that got a response.
fn client_latencies(outcomes: &[Outcome]) -> Vec<f64> {
    outcomes.iter().filter_map(Outcome::client_us).collect()
}

fn failures(outcomes: &[Outcome]) -> (u64, u64) {
    let failed = outcomes
        .iter()
        .filter(|o| !(o.ok && o.correct && o.recv_ns.is_some()))
        .count() as u64;
    let wrong = outcomes
        .iter()
        .filter(|o| o.recv_ns.is_none() || (o.ok && !o.correct))
        .count() as u64;
    (failed, wrong)
}

/// The highest ladder rate served with no failure, its windowed tail
/// latency within
/// the SLO, and no growing backlog (last-quarter median latency at most
/// twice the first quarter's plus 1 ms). 0 when none is.
fn max_rps_in_slo(stack: &Stack, pool: &Pool, seed: u64) -> Result<f64, String> {
    let mut best = 0.0;
    let mut id = LADDER_FIRST_ID;
    for (k, &rate) in LADDER.iter().enumerate() {
        let schedule = arrivals(seed ^ (0x1add_e400 + k as u64), rate, LADDER_SECONDS);
        let out = drive(&stack.stream, pool, &schedule, id)?;
        id += schedule.len() as u64;
        let (failed, _) = failures(&out);
        let lat = client_latencies(&out);
        let (p, tail_us, _) = windowed_tail(&lat);
        let q = lat.len() / 4;
        let backlog_ok =
            q > 0 && median(&lat[lat.len() - q..]) <= 2.0 * median(&lat[..q]) + 1_000.0;
        let pass = failed == 0 && tail_us <= SLO_US && backlog_ok;
        println!(
            "ladder {rate} rps: {} requests, failed {failed}, p{p} {tail_us:.0} us, backlog ok {backlog_ok} -> {}",
            out.len(),
            if pass { "in SLO" } else { "out of SLO" }
        );
        if !pass {
            break;
        }
        best = rate;
        std::thread::sleep(Duration::from_millis(100));
    }
    Ok(best)
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let rate = if args.workload == "serve_high" {
        HIGH_RPS
    } else {
        LOW_RPS
    };
    // Cold set-ups; the last one serves the load.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut stack = None;
    for _ in 0..SETUPS {
        if let Some(old) = stack.take() {
            Stack::stop(old);
        }
        let t0 = Instant::now();
        let s = Stack::start(args.seed)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        stack = Some(s);
    }
    let stack = stack.expect("at least one set-up");
    let pool = Pool::build(args.seed, &stack.runner.inner)?;
    stack
        .runner
        .tags
        .set(pool.tags.clone())
        .map_err(|_| "pool tags set twice".to_string())?;
    let setup_med = median(&setup_s);
    let ws_mib =
        ConvProvider::workspace_bytes(stack.runner.inner.provider()) as f64 / (1 << 20) as f64;
    println!("workspace_mib = {ws_mib} MiB (the runner's ConvProvider::workspace_bytes)");
    report.layer("core.workspace_mib", ws_mib);
    println!("setup_s = {setup_med} s (median of {SETUPS} cold set-ups: {setup_s:?})");

    let schedule = arrivals(
        args.seed,
        rate,
        if report.traced() {
            args.seconds / 2.0
        } else {
            args.seconds
        },
    );
    let plain = drive(&stack.stream, &pool, &schedule, 0)?;
    let (mut failed, mut wrong) = failures(&plain);
    let mut attempted = plain.len() as u64;
    let lat = client_latencies(&plain);
    let p50 = median(&lat);
    if !report.traced() {
        let (p, tail_us, windows) = windowed_tail(&lat);
        let good = plain.iter().filter(|o| o.good()).count();
        let goodput = good as f64 / args.seconds;
        println!("offered rate = {rate} rps (Poisson, open loop, one connection)");
        println!(
            "latency_us_p50 = {p50} us ({} responses of {})",
            lat.len(),
            plain.len()
        );
        println!(
            "latency_us_tail = {tail_us} us (p{p}, {} responses, {windows} window(s))",
            lat.len()
        );
        println!("goodput_rps = {goodput} 1/s (ok, correct and within {SLO_US} us)");
        report.e2e("setup_s", "s", setup_med);
        // Before the ladder, whose overload would otherwise set the peak.
        report.e2e("peak_rss_mib", "MiB", crate::report::peak_rss_mib());
    } else {
        let metrics = stack.server.metrics();
        let shed0 = metrics.shed_total();
        stack.runner.recording.store(true, Ordering::SeqCst);
        let schedule2 = arrivals(args.seed ^ 0x7ace, rate, args.seconds / 2.0);
        let traced = drive(&stack.stream, &pool, &schedule2, TRACED_FIRST_ID)?;
        stack.runner.recording.store(false, Ordering::SeqCst);
        let (f, w) = failures(&traced);
        failed += f;
        wrong += w;
        attempted += traced.len() as u64;
        let runs = std::mem::take(&mut *stack.runner.runs.lock().expect("run log poisoned"));
        let traced_lat = client_latencies(&traced);
        report.layer("trace.overhead_frac", median(&traced_lat) / p50 - 1.0);
        report.layer("serve.shed", (metrics.shed_total() - shed0) as f64);
        report.layer("serve.queue_depth_max", metrics.queue_depth_max.get());
        request_layers(report, &traced, &runs, TRACED_FIRST_ID);
        let path = trace::write_out(&format!("{}-seed{}", args.workload, args.seed))
            .map_err(|e| format!("writing spans: {e}"))?;
        println!("spans written to {path}");
    }
    if args.workload == "serve_high" {
        let best = max_rps_in_slo(&stack, &pool, args.seed)?;
        println!("max_rps_in_slo = {best} 1/s (ladder {LADDER:?}, {LADDER_SECONDS} s per rung)");
        report.layer("serve.max_rps_in_slo", best);
    }
    report.attempted = attempted;
    report.failed = failed;
    report.wrong = wrong;
    stack.stop();
    Ok(())
}

/// Split each traced request into ingress, wait and execute, record its
/// spans, and report the serve and load-generator layers.
fn request_layers(report: &mut Report, outcomes: &[Outcome], runs: &[Run], first_id: u64) {
    // Runs per pool index, in start order.
    let mut by_tag: HashMap<u32, Vec<usize>> = HashMap::new();
    for (r, run) in runs.iter().enumerate() {
        for &t in &run.tags {
            by_tag.entry(t).or_default().push(r);
        }
    }
    let (mut wait, mut ingress, mut batch) = (Vec::new(), Vec::new(), Vec::new());
    let (mut whole, mut residual) = (0.0f64, 0.0f64);
    let mut unmatched = 0usize;
    for (i, o) in outcomes.iter().enumerate() {
        let (Some(recv), Some(client_us)) = (o.recv_ns, o.client_us()) else {
            continue;
        };
        batch.push(o.batch);
        ingress.push(client_us - o.server_us);
        let tag = (i % POOL) as u32;
        let run = by_tag.get(&tag).and_then(|rs| {
            rs.iter()
                .map(|&r| &runs[r])
                .find(|r| r.start_ns >= o.due_ns && r.end_ns <= recv)
        });
        let Some(run) = run else {
            unmatched += 1;
            continue;
        };
        let exec_us = run.end_ns.saturating_sub(run.start_ns) as f64 / 1e3;
        let server_start = run.end_ns.saturating_sub((o.server_us * 1e3) as u64);
        wait.push(o.server_us - exec_us);
        let id = first_id + i as u64;
        let root = trace::record("request", id, None, o.due_ns, recv);
        let parts = [
            ("serve.ingress_in", o.due_ns, server_start),
            ("serve.wait", server_start, run.start_ns),
            ("serve.exec", run.start_ns, run.end_ns),
            ("serve.ingress_out", run.end_ns, recv),
        ];
        let mut sum_us = 0.0;
        for (name, a, b) in parts {
            // A part with end before start means the timestamps disagree;
            // it counts as zero and shows in the residual.
            let b = b.max(a);
            trace::record(name, id, Some(root), a, b);
            sum_us += (b - a) as f64 / 1e3;
        }
        whole += client_us;
        residual += (client_us - sum_us).abs();
    }
    let exec: Vec<f64> = runs
        .iter()
        .map(|r| r.end_ns.saturating_sub(r.start_ns) as f64 / 1e3)
        .collect();
    report.layer("serve.wait_us_p50", median(&wait));
    report.layer("serve.ingress_us_p50", median(&ingress));
    report.layer("serve.exec_us_p50", median(&exec));
    report.layer("serve.batch_mean", mean(&batch));
    report.layer("serve.exec_concurrency", concurrency(runs));
    let lags: Vec<f64> = outcomes.iter().map(|o| o.lag_us).collect();
    report.layer("loadgen.lag_us_p99", quantile(&lags, 0.99));
    report.layer(
        "loadgen.lag_us_max",
        lags.iter().copied().fold(0.0, f64::max),
    );
    let recon = residual / whole.max(1e-9);
    report.layer("trace.recon.request", recon);
    println!(
        "reconcile client latency = ingress + wait + exec: residual {recon:.4} of client latency \
         (tolerance {RECON_TOLERANCE}): {}; {unmatched} of {} responses not matched to a run",
        verdict(recon),
        outcomes.len()
    );
}

/// Σ run time / time with any run in flight.
fn concurrency(runs: &[Run]) -> f64 {
    let mut iv: Vec<(u64, u64)> = runs.iter().map(|r| (r.start_ns, r.end_ns)).collect();
    iv.sort_unstable();
    let busy: u64 = iv.iter().map(|(a, b)| b - a).sum();
    let mut union = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                union += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        union += cb - ca;
    }
    busy as f64 / union.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn next_line_survives_a_timeout_mid_line() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            conn.write_all(b"{\"id\": 7, ").unwrap();
            conn.flush().unwrap();
            std::thread::sleep(Duration::from_millis(250));
            conn.write_all(b"\"ok\": true}\n").unwrap();
        });
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let mut rd = BufReader::new(stream);
        let mut buf = Vec::new();
        let mut timeouts = 0;
        let line = loop {
            match next_line(&mut rd, &mut buf) {
                Ok(Some(line)) => break line,
                Ok(None) => panic!("stream ended early"),
                Err(_) => timeouts += 1,
            }
        };
        assert!(timeouts > 0, "the read never timed out mid-line");
        assert_eq!(line, "{\"id\": 7, \"ok\": true}\n");
        server.join().unwrap();
        assert!(matches!(next_line(&mut rd, &mut buf), Ok(None)));
    }
}
