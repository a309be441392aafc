//! Wall-clock soak: sustained report volume through the engine, with
//! SLOs tracked *over time* instead of only at shutdown.
//!
//! One harness, parameterised by total reports and checkpoint count.
//! The report volume is split into checkpointed intervals; after each
//! interval the engine is drained and a stats snapshot taken, so the
//! assertions see a time series rather than one end-of-run aggregate:
//!
//! * **lossless ingest** — zero drops under `Block` backpressure in
//!   every interval, and at shutdown every sent report is ingested and
//!   classified (`classified == sent`, nothing rejected);
//! * **p99 latency drift** — the micro-batch p99 must hold the SLO at
//!   *every* checkpoint, not just amortised over the whole run;
//! * **device-count stability** — the soak leaves
//!   `EngineConfig::max_device_states` unset, so no per-device policy
//!   state is evicted; after a warm-up pass has seen every MAC the
//!   `device_states` gauge must not grow;
//! * **verdict-rate stability** — verdicts only accumulate (monotone,
//!   bounded by the registry), and by shutdown every registered stream
//!   has accumulated evidence and decided;
//! * **RSS growth** — resident memory may not climb materially across
//!   the run (Linux only; skipped where `/proc` is unavailable).
//!
//! `wallclock_soak_smoke_10k` is always on (and a named CI step); the
//! sustained 500k and 1M runs are `#[ignore]`d — minutes of wall clock —
//! and run with
//! `cargo test -p deepcsi-serve --test soak_wallclock --release -- --ignored`.

use deepcsi_core::{Authenticator, ModelConfig};
use deepcsi_data::{generate_d1, GenConfig, InputSpec};
use deepcsi_serve::{
    Backpressure, BatchFormer, Engine, EngineConfig, EngineStats, ReplaySource, Verdict,
};
use std::sync::Arc;
use std::time::Duration;

/// p99 micro-batch latency SLO. A batch on this untrained demo-size
/// model takes well under a millisecond of inference; 250 ms only
/// trips on a genuine stall (lock contention, a wedged worker, an
/// allocation storm), not on scheduler noise.
const P99_SLO: Duration = Duration::from_millis(250);

/// Allowed resident-set growth between the first and last checkpoint.
/// The engine allocates nothing per report once its windows are full;
/// 64 MiB absorbs allocator slack and lazily-faulted pages without
/// masking a real per-report leak at these volumes.
const RSS_GROWTH_BOUND_BYTES: u64 = 64 * 1024 * 1024;

/// Resident set size via `/proc/self/statm`, if the platform has it.
fn rss_bytes() -> Option<u64> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let pages: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(pages * 4096)
}

/// Drives `total` reports through a 2-worker engine in `intervals`
/// checkpointed chunks (after a full warm-up replay pass that visits
/// every MAC), asserts the soak SLOs and returns the per-checkpoint
/// snapshots followed by the final stats.
fn run_soak(total: u64, intervals: usize) -> (Vec<EngineStats>, EngineStats) {
    assert!(intervals >= 3, "a time series needs at least 3 intervals");
    let ds = generate_d1(&GenConfig {
        num_modules: 2,
        snapshots_per_trace: 10,
        ..GenConfig::default()
    });
    let spec = InputSpec {
        stride: 4,
        ..InputSpec::default()
    };
    let probe = spec.tensor(&ds.traces[0].snapshots[0]);
    // Untrained weights: soak measures the serving machinery, not the
    // classifier (throughput does not depend on what the verdicts are).
    let auth = Authenticator::new(ModelConfig::demo(2).build_for(&probe), spec);

    let replay = ReplaySource::from_dataset(&ds);
    let registry = ReplaySource::registry(&ds);
    let engine = Engine::start_frozen(
        EngineConfig {
            workers: 2,
            // Lossless mode: every report must be classified, so the
            // drop-rate SLO is exact (zero), not statistical.
            backpressure: Backpressure::Block,
            ..EngineConfig::default()
        },
        auth.freeze(),
        registry.clone(),
    );

    let frames: Vec<&[u8]> = replay.frames().collect();
    assert!(!frames.is_empty());

    // Warm-up: one full pass over the capture, so every MAC has a
    // device state before the first checkpoint. Growth after this point
    // is a leak (or an unexpected new stream), not warm-up.
    for frame in &frames {
        engine.ingest_frame(frame);
    }
    let mut sent = frames.len() as u64;
    engine.drain();
    let warmup = engine.stats();
    assert_eq!(
        warmup.device_states,
        registry.len() as u64,
        "warm-up pass must instantiate exactly one state per registered stream"
    );

    let mut checkpoints = Vec::with_capacity(intervals);
    let mut rss = Vec::with_capacity(intervals);
    let per_interval = (total / intervals as u64).max(1);
    let mut cursor = 0usize;
    for _ in 0..intervals {
        for _ in 0..per_interval {
            engine.ingest_frame(frames[cursor]);
            cursor = (cursor + 1) % frames.len();
        }
        sent += per_interval;
        engine.drain();
        checkpoints.push(engine.stats());
        rss.push(rss_bytes());
    }

    // --- SLOs, per checkpoint ---------------------------------------
    let mut prev = warmup.clone();
    for (i, cp) in checkpoints.iter().enumerate() {
        let p99 = cp.batch_latency_p99.expect("batches ran");
        assert!(
            p99 <= P99_SLO,
            "checkpoint {i}: p99 batch latency {p99:?} exceeds {P99_SLO:?}"
        );
        assert_eq!(
            cp.device_states, warmup.device_states,
            "checkpoint {i}: device states grew after warm-up"
        );
        let delta = cp.delta(&prev);
        assert_eq!(
            delta.classified, per_interval,
            "checkpoint {i}: interval lost reports"
        );
        assert_eq!(delta.dropped, 0, "checkpoint {i}: lossless soak dropped");
        assert!(
            cp.verdicts_decided >= prev.verdicts_decided
                && cp.verdicts_decided <= registry.len() as u64,
            "checkpoint {i}: verdict count unstable ({} → {})",
            prev.verdicts_decided,
            cp.verdicts_decided
        );
        prev = cp.clone();
    }
    if let (Some(Some(first)), Some(Some(last))) = (rss.first(), rss.last()) {
        assert!(
            last.saturating_sub(*first) < RSS_GROWTH_BOUND_BYTES,
            "RSS grew {} → {} bytes across the soak",
            first,
            last
        );
    }

    // --- SLOs, end of run -------------------------------------------
    let report = engine.shutdown();
    let stats = report.stats;
    assert_eq!(stats.ingested, sent, "ingest accounting drifted");
    assert_eq!(stats.dropped, 0, "lossless soak must not drop");
    assert_eq!(stats.decode_errors, 0);
    assert_eq!(stats.rejected, 0);
    assert_eq!(
        stats.classified, sent,
        "every enqueued report must be classified by shutdown"
    );
    // The model is untrained, so the *verdicts* are not the SLO — the
    // per-stream machinery reaching a windowed decision is.
    assert_eq!(report.decisions.len(), registry.len());
    for d in &report.decisions {
        let w = d
            .decision
            .unwrap_or_else(|| panic!("{} accumulated no evidence", d.source));
        assert!(w.observations > 0);
        assert_ne!(d.verdict, Verdict::Unknown, "{} never decided", d.source);
    }
    (checkpoints, stats)
}

/// Smoke-scale soak (10k reports, 3 checkpoints): always on, keeping
/// the harness and its SLO assertions exercised by every test run.
#[test]
fn wallclock_soak_smoke_10k() {
    let (checkpoints, stats) = run_soak(10_000, 3);
    assert_eq!(checkpoints.len(), 3);
    // The series is genuinely cumulative.
    assert!(checkpoints[2].classified > checkpoints[0].classified);
    assert!(stats.batches > 0);
    assert!(stats.mean_batch >= 1.0);
}

/// Sustained soak (500k reports, 5 checkpoints). `#[ignore]`d: minutes
/// of runtime; run with `-- --ignored` (release strongly recommended).
#[test]
#[ignore = "sustained wall-clock soak: minutes of runtime; run with -- --ignored"]
fn wallclock_soak_sustained_500k() {
    let (checkpoints, _) = run_soak(500_000, 5);
    assert_eq!(checkpoints.len(), 5);
}

/// Full-scale soak (1M reports, 10 checkpoints). `#[ignore]`d: minutes
/// of wall clock on a laptop-class core; run with `-- --ignored`
/// (release strongly recommended).
#[test]
#[ignore = "dataset-scale soak: minutes of runtime; run with -- --ignored"]
fn wallclock_soak_1m() {
    let (checkpoints, stats) = run_soak(1_000_000, 10);
    assert_eq!(checkpoints.len(), 10);
    assert!(stats.classified >= 1_000_000);
}

/// Burst/idle wall-clock phases through the adaptive batch former: a
/// sustained backlog grows the per-worker target all the way to
/// `max_batch` (prompt, allowance-filling batches double it; the
/// backlog tail holds it), idle gaps longer than the linger collapse it
/// back to the floor, the p99 batch-latency SLO holds throughout — and
/// the decision vector is bit-identical to the fixed former's over the
/// same frames.
#[test]
fn adaptive_former_tracks_burst_and_idle_phases() {
    let ds = generate_d1(&GenConfig {
        num_modules: 2,
        snapshots_per_trace: 10,
        ..GenConfig::default()
    });
    let spec = InputSpec {
        stride: 4,
        ..InputSpec::default()
    };
    let probe = spec.tensor(&ds.traces[0].snapshots[0]);
    let auth = Authenticator::new(ModelConfig::demo(2).build_for(&probe), spec);
    let frozen = Arc::new(auth.freeze());
    let registry = ReplaySource::registry(&ds);
    let frames: Vec<Vec<u8>> = ReplaySource::from_dataset(&ds)
        .frames()
        .map(<[u8]>::to_vec)
        .collect();

    // Scheduler jitter must read as "prompt", so the linger (which
    // doubles as the former's idle threshold) sits well above a
    // scheduling quantum — and the idle gaps sit well above the linger.
    let linger = Duration::from_millis(25);
    let config = |former| EngineConfig {
        workers: 1,
        batch_linger: linger,
        former,
        backpressure: Backpressure::Block,
        ..EngineConfig::default()
    };
    let max_batch = EngineConfig::default().max_batch as u64;

    let engine = Engine::start_frozen(
        config(BatchFormer::adaptive()),
        Arc::clone(&frozen),
        registry.clone(),
    );

    // Burst phase: a sustained backlog (ingest far outruns inference,
    // so the queue holds pressure until the tail).
    for _ in 0..40 {
        for frame in &frames {
            engine.ingest_frame(frame);
        }
    }
    engine.drain();
    let burst = engine.stats();
    assert_eq!(
        burst.batch_target, max_batch,
        "burst backlog did not grow the target to max_batch"
    );

    // Idle phase: lone reports separated by gaps far longer than the
    // linger. Every dry wait halves the target; five halvings from 32
    // reach the floor and later ones pin it there.
    for _ in 0..7 {
        std::thread::sleep(3 * linger);
        engine.ingest_frame(&frames[0]);
        engine.drain();
    }
    let idle = engine.stats();
    assert_eq!(
        idle.batch_target, 1,
        "idle gaps did not collapse the target to min_batch"
    );
    let p99 = idle.batch_latency_p99.expect("batches ran");
    assert!(p99 <= P99_SLO, "adaptive p99 {p99:?} exceeds {P99_SLO:?}");
    let adaptive = engine.shutdown();

    // Determinism: the identical frame sequence through the fixed
    // former decides identically — batch formation shapes departure
    // timing, never a verdict.
    let engine = Engine::start_frozen(config(BatchFormer::Fixed), frozen, registry);
    for _ in 0..40 {
        for frame in &frames {
            engine.ingest_frame(frame);
        }
    }
    for _ in 0..7 {
        engine.ingest_frame(&frames[0]);
    }
    let fixed = engine.shutdown();
    assert_eq!(
        fixed.stats.classified, adaptive.stats.classified,
        "former modes classified different report counts"
    );
    assert_eq!(
        fixed.decisions, adaptive.decisions,
        "decisions diverged between former modes"
    );
}
