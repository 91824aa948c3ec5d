//! Metric collection and the result line.
//!
//! Every run prints a readable block (each metric with its unit, checks and
//! reconciliations) and, as the last line, the JSON result. The JSON
//! carries exactly the metric names of [`END_TO_END`] (untraced run) or
//! [`PER_LAYER`] (traced run). A per-layer metric of a layer the workload
//! does not drive reads 0: no such work was done in the run.

use crate::Args;
use std::collections::BTreeMap;

/// End-to-end metrics of the JSON result, present on every workload:
/// `(name, unit)`. Of the end-to-end metrics only these stay within a bound
/// from run to run on a shared 2-core host; latency, throughput and the
/// rest are printed with them (see README.md).
pub const END_TO_END: [(&str, &str); 2] = [("setup_s", "s"), ("peak_rss_mib", "MiB")];

/// Per-layer metrics: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 53] = [
    ("framework.data_ms", "ms"),
    ("framework.forward_ms", "ms"),
    ("framework.backward_ms", "ms"),
    ("framework.loss_ms", "ms"),
    ("framework.sgd_ms", "ms"),
    ("framework.nonconv_ms", "ms"),
    ("core.exec_ms.fwd", "ms"),
    ("core.exec_ms.bwd_data", "ms"),
    ("core.exec_ms.bwd_filter", "ms"),
    ("core.exec_calls", "count"),
    ("core.micro_calls", "count"),
    ("core.dispatch_ms", "ms"),
    ("core.pred_ratio.fwd", "ratio"),
    ("core.pred_ratio.bwd_data", "ratio"),
    ("core.pred_ratio.bwd_filter", "ratio"),
    ("core.opt.benchmark_s", "s"),
    ("core.opt.dp_s", "s"),
    ("core.opt.pareto_s", "s"),
    ("core.opt.ilp_s", "s"),
    ("core.opt_wall_ratio", "ratio"),
    ("core.bench_cache.hits", "count"),
    ("core.bench_cache.misses", "count"),
    ("core.workspace_mib", "MiB"),
    ("core.cold_plan_step_ms", "ms"),
    ("cudnn-sim.find_calls", "count"),
    ("cudnn-sim.find_unique_frac", "ratio"),
    ("cudnn-sim.exec_cache.hit_frac", "ratio"),
    ("cudnn-sim.exec_cache.evictions", "count"),
    ("conv.kernel_ms.fwd", "ms"),
    ("conv.kernel_ms.bwd_data", "ms"),
    ("conv.kernel_ms.bwd_filter", "ms"),
    ("conv.insitu_ms", "ms"),
    ("conv.gflops.fwd", "GF/s"),
    ("conv.gflops.bwd_data", "GF/s"),
    ("conv.gflops.bwd_filter", "GF/s"),
    ("conv.peak_gflops", "GF/s"),
    ("conv.peak_frac", "ratio"),
    ("serve.wait_us_p50", "us"),
    ("serve.ingress_us_p50", "us"),
    ("serve.exec_us_p50", "us"),
    ("serve.batch_mean", "count"),
    ("serve.exec_concurrency", "ratio"),
    ("serve.shed", "count"),
    ("serve.queue_depth_max", "count"),
    ("serve.max_rps_in_slo", "1/s"),
    ("loadgen.lag_us_p99", "us"),
    ("loadgen.lag_us_max", "us"),
    ("trace.overhead_frac", "ratio"),
    ("host.steal_frac", "ratio"),
    ("trace.recon.step", "ratio"),
    ("trace.recon.fwd_bwd", "ratio"),
    ("trace.recon.core_exec", "ratio"),
    ("trace.recon.request", "ratio"),
];

/// Largest tolerated reconciliation residual, as a share of the whole.
pub const RECON_TOLERANCE: f64 = 0.10;

/// Verdict on a reconciliation residual.
pub fn verdict(residual: f64) -> &'static str {
    if residual <= RECON_TOLERANCE {
        "holds"
    } else {
        "DOES NOT HOLD"
    }
}

/// Collected metrics and outcome counters of one run.
pub struct Report {
    traced: bool,
    e2e: BTreeMap<&'static str, f64>,
    layer: BTreeMap<&'static str, f64>,
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations that failed (error, shed, missing or wrong output).
    pub failed: u64,
    /// Operations whose output was wrong or missing.
    pub wrong: u64,
}

fn unit_of(
    list: &[(&'static str, &'static str)],
    name: &str,
) -> Option<(&'static str, &'static str)> {
    list.iter().copied().find(|(n, _)| *n == name)
}

impl Report {
    pub fn new(traced: bool) -> Self {
        Self {
            traced,
            e2e: BTreeMap::new(),
            layer: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            wrong: 0,
        }
    }

    /// Whether this is the traced run.
    pub fn traced(&self) -> bool {
        self.traced
    }

    /// Record an end-to-end metric.
    ///
    /// # Panics
    /// On a name missing from [`END_TO_END`]: a bug in this benchmark.
    pub fn e2e(&mut self, name: &str, unit: &str, value: f64) {
        let (name, u) = unit_of(&END_TO_END, name).expect("end-to-end metric is declared");
        assert_eq!(u, unit, "unit of {name}");
        self.e2e.insert(name, value);
    }

    /// Record a per-layer metric.
    ///
    /// # Panics
    /// On a name missing from [`PER_LAYER`]: a bug in this benchmark.
    pub fn layer(&mut self, name: &str, value: f64) {
        let (name, _) = unit_of(&PER_LAYER, name).expect("per-layer metric is declared");
        self.layer.insert(name, value);
    }

    /// Print the readable block and the JSON result line.
    ///
    /// # Errors
    /// When a metric the mode must report is missing or not finite.
    pub fn finish(&self, args: &Args) -> Result<(), String> {
        let error_rate = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "error_rate = {error_rate} (failed {} / attempted {}; wrong or missing outputs {})",
            self.failed, self.attempted, self.wrong
        );
        for (name, unit) in END_TO_END {
            if let Some(v) = self.e2e.get(name) {
                println!("e2e {name} = {v} {unit}");
            }
        }
        for (name, unit) in PER_LAYER {
            if let Some(v) = self.layer.get(name) {
                println!("layer {name} = {v} {unit}");
            }
        }
        if self.attempted == 0 {
            return Err(format!("{}: no operation was attempted", args.workload));
        }
        let mut fields = Vec::new();
        if self.traced {
            for (name, unit) in PER_LAYER {
                let v = self.layer.get(name).copied().unwrap_or(0.0);
                if !v.is_finite() {
                    return Err(format!("per-layer metric {name} is not finite"));
                }
                fields.push(format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(v)
                ));
            }
        } else {
            for (name, unit) in END_TO_END {
                let v = *self
                    .e2e
                    .get(name)
                    .ok_or_else(|| format!("end-to-end metric {name} was not measured"))?;
                if !v.is_finite() {
                    return Err(format!("end-to-end metric {name} is not finite"));
                }
                fields.push(format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(v)
                ));
            }
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.wrong == 0,
            self.attempted,
            self.failed,
            fields.join(", ")
        );
        Ok(())
    }
}

/// A finite `f64` as a JSON number with all its digits.
fn json_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// Host CPU time so far as `(steal, total)` jiffies, from `/proc/stat`:
/// time the hypervisor gave this machine's CPUs to someone else.
pub fn cpu_steal() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}
