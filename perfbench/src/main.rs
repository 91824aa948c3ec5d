//! Wall-clock benchmark of the real CPU engines, end to end and per layer.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload train_wr --seed 1 --seconds 8 --trace 0
//! ```
//!
//! Workloads, metrics and the layer → end-to-end predictions are listed in
//! `perfbench/README.md`. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! it carries the end-to-end metrics, with `--trace 1` the per-layer ones.

mod kernel;
mod report;
mod serve;
mod stats;
mod trace;
mod train;

use report::Report;
use std::process::ExitCode;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const WORKLOADS: [&str; 4] = ["train_wr", "train_wd", "serve_low", "serve_high"];

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    if argv.len() == 3 && argv[1] == "--write-db" {
        return match train::write_db(&argv[2]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(1)
            }
        };
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "# host: available_parallelism={} conv exec workers={} (UCUDNN_EXEC_THREADS={:?}) \
         opt_threads=default serve workers=default",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        ucudnn_conv::parallel::max_workers(),
        std::env::var("UCUDNN_EXEC_THREADS").ok(),
    );
    let mut report = Report::new(args.trace);
    let steal0 = report::cpu_steal();
    let outcome = match args.workload.as_str() {
        "train_wr" | "train_wd" => train::run(&args, &mut report),
        _ => serve::run(&args, &mut report),
    };
    if let Err(e) = outcome {
        eprintln!("perfbench: {} failed: {e}", args.workload);
        return ExitCode::from(1);
    }
    let steal1 = report::cpu_steal();
    let steal_frac = (steal1.0 - steal0.0) as f64 / (steal1.1 - steal0.1).max(1) as f64;
    println!("host.steal_frac = {steal_frac} (CPU time taken by the hypervisor during the run)");
    report.layer("host.steal_frac", steal_frac);
    match report.finish(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
