//! Shared measurement helpers for the serving benchmarks
//! (`benches/serve.rs` and the `serve_throughput` binary).

use deepcsi_core::{Authenticator, ModelConfig};
use deepcsi_data::{generate_d1, Dataset, GenConfig, InputSpec};
use deepcsi_nn::{Dense, Network, Selu, Tensor};
use deepcsi_serve::{Backpressure, Engine, EngineConfig, ReplaySource};
use std::time::Instant;

/// A named inference workload: network + one representative input.
pub struct Workload {
    /// Display name (used in RESULT keys).
    pub name: &'static str,
    /// The network under test.
    pub net: Network,
    /// Per-sample input shape.
    pub input_shape: Vec<usize>,
}

/// The paper-architecture CNN at full input width.
pub fn paper_cnn() -> Workload {
    Workload {
        name: "paper_cnn",
        net: ModelConfig::paper(10, 1).build((5, 1, 234)),
        input_shape: vec![5, 1, 234],
    }
}

/// The fast sweep-profile CNN.
pub fn fast_cnn() -> Workload {
    Workload {
        name: "fast_cnn",
        net: ModelConfig::fast(10, 1).build((5, 1, 117)),
        input_shape: vec![5, 1, 117],
    }
}

/// A dense-stack classifier head at serving scale — the workload where
/// micro-batching converts memory-bound mat-vec into a register-blocked
/// mat-mul (the headline forward_batch speedup).
pub fn dense_stack() -> Workload {
    let mut net = Network::new();
    net.push(Dense::new(1170, 2048, 1));
    net.push(Selu::new());
    net.push(Dense::new(2048, 2048, 2));
    net.push(Selu::new());
    net.push(Dense::new(2048, 1024, 3));
    net.push(Selu::new());
    net.push(Dense::new(1024, 10, 4));
    Workload {
        name: "dense_stack",
        net,
        input_shape: vec![1170],
    }
}

/// Deterministic pseudo-random inputs for a workload.
pub fn inputs(w: &Workload, batch: usize) -> Vec<Tensor> {
    let len: usize = w.input_shape.iter().product();
    (0..batch)
        .map(|s| {
            Tensor::from_vec(
                (0..len)
                    .map(|e| ((e * 31 + s * 7) % 13) as f32 * 0.1 - 0.6)
                    .collect(),
                w.input_shape.clone(),
            )
        })
        .collect()
}

/// Measured per-sample vs micro-batched inference for one workload.
#[derive(Debug, Clone, Copy)]
pub struct SpeedupMeasurement {
    /// Wall time of `batch` sequential `forward` calls, seconds.
    pub sequential_s: f64,
    /// Wall time of one `forward_batch` over the same inputs, seconds.
    pub batched_s: f64,
}

impl SpeedupMeasurement {
    /// Throughput ratio (sequential time / batched time).
    pub fn speedup(&self) -> f64 {
        self.sequential_s / self.batched_s
    }
}

/// Prints one workload's speedup measurement: the human-readable line
/// plus the machine-readable `RESULT serve …` line `run_all` collects
/// into `BENCH_serve.json` (single source of the key format for the
/// bench and the `serve_throughput` binary).
pub fn report_speedup(w: &Workload, batch: usize, m: SpeedupMeasurement) {
    println!(
        "{:<12} sequential {:>9.3} ms  batched {:>9.3} ms  speedup {:>5.1}x",
        w.name,
        m.sequential_s * 1e3,
        m.batched_s * 1e3,
        m.speedup()
    );
    crate::result_line(
        "serve",
        &format!("forward_batch_speedup_{}_b{batch}", w.name),
        m.speedup(),
    );
}

/// Times the frozen batched path (`FrozenModel::infer_batch` with a warm
/// [`deepcsi_nn::InferCtx`] — the serving engine's steady state) against
/// `batch` sequential `forward` calls.
pub fn measure_speedup(w: &mut Workload, batch: usize, min_reps: usize) -> SpeedupMeasurement {
    let xs = inputs(w, batch);
    let frozen = w.net.freeze();
    let mut ctx = frozen.ctx();
    // Warm-up both paths (and the ctx's buffer high-water mark).
    let _ = frozen.infer_batch(&xs, &mut ctx);
    for x in &xs {
        let _ = w.net.forward(x, false);
    }
    let reps = min_reps.max(1);
    let t = Instant::now();
    for _ in 0..reps {
        for x in &xs {
            std::hint::black_box(w.net.forward(x, false));
        }
    }
    let sequential_s = t.elapsed().as_secs_f64() / reps as f64;
    let t = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(frozen.infer_batch(&xs, &mut ctx));
    }
    let batched_s = t.elapsed().as_secs_f64() / reps as f64;
    SpeedupMeasurement {
        sequential_s,
        batched_s,
    }
}

/// Times one batch through a persistent [`deepcsi_nn::InferPool`] at a
/// given lane count, seconds per batch. `lanes = 1` is the serial
/// baseline the scaling sweep normalises against. The pool is built
/// once outside the timed loop — exactly how the serving engine holds
/// it — so the measurement sees the steady-state hot path (channel
/// handoff) rather than pool construction.
pub fn measure_pool_batch_s(w: &Workload, batch: usize, lanes: usize, min_reps: usize) -> f64 {
    let xs = inputs(w, batch);
    let frozen = w.net.freeze();
    let mut pool = deepcsi_nn::InferPool::new(lanes);
    let _ = pool.infer_batch(&frozen, &xs); // warm-up (grows lane buffers)
    let reps = min_reps.max(1);
    // Best of 5 windows, as in the SELU pass: the minimum is robust
    // against preemption on shared hosts.
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(pool.infer_batch(&frozen, &xs));
        }
        best = best.min(t.elapsed().as_secs_f64() / reps as f64);
    }
    best
}

/// A small synthetic capture for end-to-end engine throughput runs.
pub fn serve_dataset(modules: u32, snapshots: usize) -> Dataset {
    generate_d1(&GenConfig {
        num_modules: modules,
        snapshots_per_trace: snapshots,
        ..GenConfig::default()
    })
}

/// An untrained fast classifier over the dataset's input shape
/// (throughput does not depend on trained weights).
pub fn serve_authenticator(ds: &Dataset, classes: usize) -> Authenticator {
    let spec = InputSpec {
        stride: 4,
        ..InputSpec::default()
    };
    let probe = spec.tensor(&ds.traces[0].snapshots[0]);
    Authenticator::new(ModelConfig::fast(classes, 0).build_for(&probe), spec)
}

/// End-to-end engine throughput for one replay pass, reports/second.
pub fn engine_reports_per_sec(ds: &Dataset, workers: usize, repeat: usize) -> f64 {
    engine_reports_per_sec_threads(ds, workers, 1, repeat)
}

/// [`engine_reports_per_sec`] with an explicit per-worker
/// `infer_threads` count (the `parallel_bench` scaling sweep).
pub fn engine_reports_per_sec_threads(
    ds: &Dataset,
    workers: usize,
    infer_threads: usize,
    repeat: usize,
) -> f64 {
    engine_reports_per_sec_cfg(
        ds,
        EngineConfig {
            workers,
            infer_threads,
            // One full SIMD lane block per inference thread, so every
            // `t` row of the sweep measures a genuine `t`-way split.
            max_batch: (deepcsi_nn::PAR_MIN_CHUNK * infer_threads).max(32),
            backpressure: Backpressure::Block,
            ..EngineConfig::default()
        },
        repeat,
    )
}

/// End-to-end engine throughput under an arbitrary [`EngineConfig`] —
/// the `obs_bench` overhead sweep varies only the observability fields
/// (`stage_timing`, `trace`, `profile`) against a fixed serving setup.
pub fn engine_reports_per_sec_cfg(ds: &Dataset, cfg: EngineConfig, repeat: usize) -> f64 {
    engine_reports_per_sec_observed(ds, cfg, repeat, |_| (), |()| ())
}

/// [`engine_reports_per_sec_cfg`] with observer hooks: `attach` runs
/// once the engine is up (bind a scrape plane, launch scraper threads)
/// and `detach` runs after the replay has drained and the clock has
/// stopped (tear the observers down before engine shutdown) — the
/// `obs_bench` live-plane overhead rows.
pub fn engine_reports_per_sec_observed<T>(
    ds: &Dataset,
    cfg: EngineConfig,
    repeat: usize,
    attach: impl FnOnce(&Engine) -> T,
    detach: impl FnOnce(T),
) -> f64 {
    let replay = ReplaySource::from_dataset(ds);
    let engine = Engine::start_frozen(
        cfg,
        serve_authenticator(ds, ds.modules().len().max(2)).freeze(),
        ReplaySource::registry(ds),
    );
    let observers = attach(&engine);
    let t = Instant::now();
    for _ in 0..repeat {
        for frame in replay.frames() {
            engine.ingest_frame(frame);
        }
    }
    engine.drain();
    let elapsed = t.elapsed().as_secs_f64();
    detach(observers);
    let report = engine.shutdown();
    report.stats.classified as f64 / elapsed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_measurement_is_positive() {
        let mut w = fast_cnn();
        let m = measure_speedup(&mut w, 4, 1);
        assert!(m.sequential_s > 0.0 && m.batched_s > 0.0);
        assert!(m.speedup() > 0.0);
    }

    #[test]
    fn engine_throughput_is_positive() {
        let ds = serve_dataset(1, 3);
        assert!(engine_reports_per_sec(&ds, 1, 1) > 0.0);
    }
}
