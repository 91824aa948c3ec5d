//! The `conv` layer measured from outside: replay of planned kernels on
//! warm engine plans, and the host's FMA peak they are reported against.

use std::hint::black_box;
use std::time::Instant;
use ucudnn_conv::plan::EnginePlan;
use ucudnn_conv::{ConvOp, EngineKind};
use ucudnn_tensor::{ConvGeometry, Tensor};

/// Independent accumulators per probe thread: enough vector registers of
/// FMA chains to cover the FMA latency on AVX2 and AVX-512 hosts.
const PROBE_LANES: usize = 128;

fn fma_chain(iters: u64) -> f32 {
    let mut acc = [1.0f32; PROBE_LANES];
    let (m, a) = black_box((0.999_999_9f32, 1e-7f32));
    for _ in 0..iters {
        for x in acc.iter_mut() {
            *x = x.mul_add(m, a);
        }
    }
    acc.iter().sum()
}

/// Measured peak single-precision FMA throughput over `threads` threads
/// running at once, GFLOP/s (best of five rounds).
pub fn fma_peak_gflops(threads: usize) -> f64 {
    const ITERS: u64 = 200_000;
    let threads = threads.max(1);
    let mut best = 0.0f64;
    for _ in 0..5 {
        let t0 = Instant::now();
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads)
                .map(|_| s.spawn(|| black_box(fma_chain(black_box(ITERS)))))
                .collect();
            for w in workers {
                w.join().expect("FMA probe thread panicked");
            }
        });
        let flops = 2.0 * PROBE_LANES as f64 * ITERS as f64 * threads as f64;
        best = best.max(flops / t0.elapsed().as_secs_f64() / 1e9);
    }
    best
}

/// One planned kernel call shape: the engine, op and micro-batch geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Call {
    pub engine: EngineKind,
    pub op: ConvOp,
    pub g: ConvGeometry,
}

/// Median wall time of `reps` warm calls of `call` through a caller-held
/// engine plan (`ucudnn_conv::exec_with_plan`), microseconds. The first,
/// plan-building call is not timed.
pub fn replay_us(call: &Call, reps: usize) -> Result<f64, String> {
    let g = call.g;
    let filter = g.filter.as_shape4();
    let (a_shape, b_shape, out_shape) = match call.op {
        ConvOp::Forward => (g.input, filter, g.output()),
        ConvOp::BackwardData => (g.output(), filter, g.input),
        ConvOp::BackwardFilter => (g.input, g.output(), filter),
    };
    let a = Tensor::random(a_shape, 0xa11ce);
    let b = Tensor::random(b_shape, 0xb0b);
    let mut out = Tensor::zeros(out_shape);
    let mut ws = vec![0.0f32; ucudnn_conv::workspace_floats(call.engine, call.op, &g)];
    let mut plan = EnginePlan::for_engine(call.engine);
    let mut once = |plan: &mut EnginePlan| {
        ucudnn_conv::exec_with_plan(
            call.engine,
            call.op,
            &g,
            a.as_slice(),
            b.as_slice(),
            out.as_mut_slice(),
            1.0,
            0.0,
            &mut ws,
            plan,
        )
        .map_err(|e| e.to_string())
    };
    once(&mut plan)?;
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        once(&mut plan)?;
        times.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    black_box(&out);
    Ok(crate::stats::median(&times))
}
