//! Contract tests for the transparent wrapper (`UcudnnHandle`): the
//! integration surface a deep learning framework sees (§III-D/E).

use ucudnn::{BatchSizePolicy, OptimizerMode, UcudnnHandle, UcudnnOptions, VIRTUAL_ALGO};
use ucudnn_cudnn_sim::{
    ConvOp, ConvolutionDescriptor, CudnnHandle, FilterDescriptor, TensorDescriptor,
};
use ucudnn_gpu_model::p100_sxm2;

const MIB: usize = 1024 * 1024;

fn descs(
    n: usize,
    c: usize,
    hw: usize,
    k: usize,
    r: usize,
    pad: usize,
) -> (
    TensorDescriptor,
    FilterDescriptor,
    ConvolutionDescriptor,
    TensorDescriptor,
) {
    let x = TensorDescriptor::new_4d(n, c, hw, hw).unwrap();
    let w = FilterDescriptor::new_4d(k, c, r, r).unwrap();
    let conv = ConvolutionDescriptor::new_2d(pad, pad, 1, 1).unwrap();
    let y = TensorDescriptor::from_shape(conv.forward_output_dim(&x, &w).unwrap()).unwrap();
    (x, w, conv, y)
}

fn wr_handle(limit: usize, policy: BatchSizePolicy) -> UcudnnHandle {
    UcudnnHandle::new(
        CudnnHandle::simulated(p100_sxm2()),
        UcudnnOptions {
            policy,
            workspace_limit_bytes: limit,
            mode: OptimizerMode::Wr,
            ..Default::default()
        },
    )
}

#[test]
fn get_algorithm_returns_virtual_id_and_zero_workspace() {
    let h = wr_handle(64 * MIB, BatchSizePolicy::PowerOfTwo);
    let (x, w, conv, _) = descs(256, 64, 27, 192, 5, 2);
    let algo = h.get_algorithm(ConvOp::Forward, &x, &w, &conv).unwrap();
    assert_eq!(algo, VIRTUAL_ALGO);
    assert_eq!(
        h.get_workspace_size(ConvOp::Forward, &x, &w, &conv, algo)
            .unwrap(),
        0
    );
}

#[test]
fn deref_delegates_non_convolution_calls() {
    // "All other functions" go straight to the wrapped handle: the Deref
    // impl is the cast-operator analogue.
    let h = wr_handle(64 * MIB, BatchSizePolicy::PowerOfTwo);
    let (x, w, conv, _) = descs(32, 8, 16, 8, 3, 1);
    // find_algorithms is not intercepted — resolves on the inner handle.
    let perfs = h.find_algorithms(ConvOp::Forward, &x, &w, &conv).unwrap();
    assert!(!perfs.is_empty());
    assert_eq!(h.device().unwrap().name, "P100-SXM2");
}

#[test]
fn execution_replays_the_planned_micro_batches() {
    let h = wr_handle(64 * MIB, BatchSizePolicy::PowerOfTwo);
    let (x, w, conv, y) = descs(256, 64, 27, 192, 5, 2);
    let algo = h.get_algorithm(ConvOp::Forward, &x, &w, &conv).unwrap();
    let g = conv.geometry(&x, &w).unwrap();
    let plan = h.plan(ConvOp::Forward, &g).unwrap();
    assert!(plan.config.micros.len() > 1, "64 MiB conv2 must split");
    h.convolution_forward(1.0, &x, &[], &w, &[], &conv, algo, 0.0, &y, &mut [])
        .unwrap();
    assert_eq!(
        h.inner().kernels_launched() as usize,
        plan.config.micros.len()
    );
    // The virtual clock advanced by exactly the plan's predicted time.
    assert!((h.inner().elapsed_us() - plan.config.time_us()).abs() < 1e-6);
}

#[test]
fn unregistered_kernels_are_optimized_lazily() {
    // A framework that skips get_algorithm still works: the first
    // convolution call optimizes on the fly.
    let h = wr_handle(16 * MIB, BatchSizePolicy::PowerOfTwo);
    let (x, w, conv, y) = descs(64, 32, 27, 64, 5, 2);
    h.convolution_forward(1.0, &x, &[], &w, &[], &conv, VIRTUAL_ALGO, 0.0, &y, &mut [])
        .unwrap();
    let g = conv.geometry(&x, &w).unwrap();
    assert!(h.plan(ConvOp::Forward, &g).is_some());
}

#[test]
fn replicated_layers_hit_the_benchmark_cache() {
    // ResNet-style: registering the same shape twice must not re-benchmark.
    let h = wr_handle(64 * MIB, BatchSizePolicy::PowerOfTwo);
    let (x, w, conv, _) = descs(128, 64, 28, 64, 3, 1);
    h.get_algorithm(ConvOp::Forward, &x, &w, &conv).unwrap();
    let misses_after_first = h.cache_stats().misses;
    h.get_algorithm(ConvOp::Forward, &x, &w, &conv).unwrap();
    assert_eq!(
        h.cache_stats().misses,
        misses_after_first,
        "second registration re-benchmarked"
    );
}

#[test]
fn wd_mode_defers_optimization_until_first_execution() {
    let h = UcudnnHandle::new(
        CudnnHandle::simulated(p100_sxm2()),
        UcudnnOptions {
            policy: BatchSizePolicy::PowerOfTwo,
            workspace_limit_bytes: 120 * MIB,
            mode: OptimizerMode::Wd,
            ..Default::default()
        },
    );
    let (x1, w1, c1, y1) = descs(64, 64, 27, 192, 5, 2);
    let (x2, w2, c2, _) = descs(64, 192, 13, 384, 3, 1);
    h.get_algorithm(ConvOp::Forward, &x1, &w1, &c1).unwrap();
    h.get_algorithm(ConvOp::Forward, &x2, &w2, &c2).unwrap();
    assert!(h.wd_plan().is_none(), "WD must not run during registration");
    h.convolution_forward(
        1.0,
        &x1,
        &[],
        &w1,
        &[],
        &c1,
        VIRTUAL_ALGO,
        0.0,
        &y1,
        &mut [],
    )
    .unwrap();
    let plan = h.wd_plan().expect("first convolution triggers WD");
    assert_eq!(plan.assignments.len(), 2);
    assert!(plan.total_workspace_bytes <= 120 * MIB);
}

#[test]
fn finalize_network_is_the_explicit_caffe_hook() {
    let h = UcudnnHandle::new(
        CudnnHandle::simulated(p100_sxm2()),
        UcudnnOptions {
            policy: BatchSizePolicy::PowerOfTwo,
            workspace_limit_bytes: 64 * MIB,
            mode: OptimizerMode::Wd,
            ..Default::default()
        },
    );
    let (x, w, conv, _) = descs(64, 64, 27, 192, 5, 2);
    h.get_algorithm(ConvOp::Forward, &x, &w, &conv).unwrap();
    h.finalize_network().unwrap();
    assert!(h.wd_plan().is_some());
    // Registrations after finalization fall back to per-kernel WR plans.
    let (x2, w2, c2, _) = descs(64, 192, 13, 384, 3, 1);
    h.get_algorithm(ConvOp::Forward, &x2, &w2, &c2).unwrap();
    let g2 = c2.geometry(&x2, &w2).unwrap();
    assert!(h.plan(ConvOp::Forward, &g2).is_some());
}

#[test]
fn undivided_policy_reproduces_baseline_cudnn_timing() {
    // μ-cuDNN with `undivided` must behave exactly like plain cuDNN under
    // the same limit (the paper uses this as its overhead control).
    let limit = 64 * MIB;
    let (x, w, conv, y) = descs(256, 64, 27, 192, 5, 2);

    let baseline = CudnnHandle::simulated(p100_sxm2());
    let algo = baseline
        .get_algorithm(
            ConvOp::Forward,
            &x,
            &w,
            &conv,
            ucudnn_cudnn_sim::AlgoPreference::SpecifyWorkspaceLimit(limit),
        )
        .unwrap();
    let ws_bytes = baseline
        .get_workspace_size(ConvOp::Forward, &x, &w, &conv, algo)
        .unwrap();
    let mut ws = vec![0.0f32; ws_bytes.div_ceil(4)];
    baseline
        .convolution_forward(
            1.0,
            &x,
            &[],
            &w,
            &[],
            &conv,
            algo,
            &mut ws,
            0.0,
            &y,
            &mut [],
        )
        .unwrap();

    let h = wr_handle(limit, BatchSizePolicy::Undivided);
    let va = h.get_algorithm(ConvOp::Forward, &x, &w, &conv).unwrap();
    h.convolution_forward(1.0, &x, &[], &w, &[], &conv, va, 0.0, &y, &mut [])
        .unwrap();

    assert!((h.inner().elapsed_us() - baseline.elapsed_us()).abs() < 1e-9);
}

#[test]
fn memory_report_reflects_workspace_limits() {
    let h = wr_handle(32 * MIB, BatchSizePolicy::PowerOfTwo);
    let (x, w, conv, _) = descs(128, 64, 27, 192, 5, 2);
    h.get_algorithm(ConvOp::Forward, &x, &w, &conv).unwrap();
    for (_, config, bytes) in h.memory_report() {
        assert!(bytes <= 32 * MIB);
        assert_eq!(config.workspace_bytes(), bytes);
    }
    assert!(h.total_workspace_bytes() <= 32 * MIB);
}

#[test]
fn optimization_wall_time_is_counted_once() {
    // `optimization_wall_us` must never exceed the wall time around the one
    // `optimize_network` call that did all the optimization — under WD the
    // nested finalize used to add its time a second time.
    use ucudnn::KernelKey;
    use ucudnn_tensor::{ConvGeometry, FilterShape, Shape4};
    let kernels: Vec<KernelKey> = [(64, 27, 192, 5, 2), (192, 13, 384, 3, 1)]
        .into_iter()
        .flat_map(|(c, hw, k, r, pad)| {
            let g = ConvGeometry::with_square(
                Shape4::new(64, c, hw, hw),
                FilterShape::new(k, c, r, r),
                pad,
                1,
            );
            [
                ConvOp::Forward,
                ConvOp::BackwardData,
                ConvOp::BackwardFilter,
            ]
            .map(|op| KernelKey::new(op, &g))
        })
        .collect();
    for mode in [OptimizerMode::Wr, OptimizerMode::Wd] {
        let h = UcudnnHandle::new(
            CudnnHandle::simulated(p100_sxm2()),
            UcudnnOptions {
                workspace_limit_bytes: 64 * MIB,
                mode,
                ..Default::default()
            },
        );
        let start = std::time::Instant::now();
        h.optimize_network(&kernels).unwrap();
        let wall_us = start.elapsed().as_secs_f64() * 1e6;
        let counted = h.optimization_wall_us();
        assert!(counted > 0.0, "{mode:?}: optimization time is recorded");
        assert!(
            counted <= wall_us,
            "{mode:?}: counted {counted:.0} us, but the call took {wall_us:.0} us"
        );
    }
}
