//! Decision-policy comparison: reports-to-verdict and verdict accuracy
//! for every [`deepcsi_serve::DecisionPolicy`] implementation, on a
//! clean synthetic capture and on the same capture re-run through a
//! degraded channel (low SNR + heavy phase noise from `crates/impair`).
//!
//! Emits machine-readable `RESULT policy <key> <value>` lines that
//! `run_all` collects into `bench_results/BENCH_policy.json` — the
//! headline comparison being `confidence_clean_reports_to_verdict_p50`
//! against `fixed_clean_reports_to_verdict_p50` at equal
//! `*_clean_accept_rate`.

use deepcsi_bench::result_line;
use deepcsi_core::{run_experiment, Authenticator, ExperimentConfig, ModelConfig};
use deepcsi_data::{d1_split, generate_d1, D1Set, Dataset, GenConfig, InputSpec};
use deepcsi_impair::ImpairmentProfile;
use deepcsi_nn::TrainConfig;
use deepcsi_serve::{
    Backpressure, DecisionPolicyConfig, Engine, EngineConfig, PolicyKind, ReplaySource, Verdict,
};
use std::time::Instant;

fn spec() -> InputSpec {
    InputSpec {
        stride: 4,
        ..InputSpec::default()
    }
}

/// The same capture campaign under a much worse channel: identical
/// device fingerprints (same modules, same stream MACs), but low SNR
/// and heavy per-packet phase noise.
fn impaired(gen: &GenConfig) -> GenConfig {
    GenConfig {
        profile: ImpairmentProfile {
            snr_db: 8.0,
            snr_jitter_db: 3.0,
            phase_noise_std_rad: 0.15,
            ..ImpairmentProfile::default()
        },
        ..gen.clone()
    }
}

fn train(ds: &Dataset, modules: usize, epochs: usize) -> Authenticator {
    let spec = spec();
    let split = d1_split(ds, D1Set::S1, &[1, 2], &spec);
    let cfg = ExperimentConfig {
        model: ModelConfig::demo(modules),
        train: TrainConfig {
            epochs,
            batch_size: 64,
            learning_rate: 2e-3,
            seed: 5,
            ..TrainConfig::default()
        },
    };
    let t = Instant::now();
    let result = run_experiment(&cfg, &split);
    println!(
        "trained demo classifier: {:.1}% per-sample accuracy ({:.1?})",
        result.accuracy * 100.0,
        t.elapsed()
    );
    result_line("policy", "per_sample_accuracy", result.accuracy);
    Authenticator::new(result.network, spec)
}

fn main() {
    let mut quick = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--tiny" | "--quick" => quick = true,
            // Tolerate the figure-suite flags run_all forwards.
            "--paper" => {}
            other => eprintln!("ignoring unknown argument {other:?}"),
        }
    }
    let (snapshots, epochs) = if quick { (20, 4) } else { (40, 6) };

    let gen = GenConfig {
        num_modules: 3,
        snapshots_per_trace: snapshots,
        ..GenConfig::default()
    };
    let clean = generate_d1(&gen);
    let degraded = generate_d1(&impaired(&gen));
    let auth = train(&clean, 3, epochs);

    println!(
        "\n{:<12} {:<9} {:>11} {:>8} {:>8} {:>8} {:>8}",
        "policy", "capture", "accept_rate", "rejects", "unknown", "rtv_p50", "rtv_p99"
    );
    for kind in [
        PolicyKind::FixedMajority,
        PolicyKind::ConfidenceWeighted,
        PolicyKind::AdaptiveThreshold,
    ] {
        for (ds, tag) in [(&clean, "clean"), (&degraded, "impaired")] {
            let replay = ReplaySource::from_dataset(ds);
            let registry = ReplaySource::registry(ds);
            let engine = Engine::start_frozen(
                EngineConfig {
                    workers: 2,
                    backpressure: Backpressure::Block,
                    decision: DecisionPolicyConfig {
                        kind,
                        ..DecisionPolicyConfig::default()
                    },
                    ..EngineConfig::default()
                },
                auth.freeze(),
                registry.clone(),
            );
            for frame in replay.frames() {
                engine.ingest_frame(frame);
            }
            let report = engine.shutdown();

            // Every stream here is a genuine registered device, so the
            // correct verdict is Accept: the accept rate *is* the
            // verdict accuracy (an impaired-capture Reject/Unknown is a
            // false alarm — the cost of a stricter policy under a bad
            // channel).
            let count =
                |v: Verdict| report.decisions.iter().filter(|d| d.verdict == v).count() as f64;
            let accept_rate = count(Verdict::Accept) / report.decisions.len() as f64;
            let p50 = report.stats.reports_to_verdict_p50;
            let p99 = report.stats.reports_to_verdict_p99;
            println!(
                "{:<12} {:<9} {:>10.0}% {:>8} {:>8} {:>8} {:>8}",
                kind.to_string(),
                tag,
                accept_rate * 100.0,
                count(Verdict::Reject),
                count(Verdict::Unknown),
                p50.map_or("n/a".into(), |v| v.to_string()),
                p99.map_or("n/a".into(), |v| v.to_string()),
            );
            result_line("policy", &format!("{kind}_{tag}_accept_rate"), accept_rate);
            if let Some(p50) = p50 {
                result_line(
                    "policy",
                    &format!("{kind}_{tag}_reports_to_verdict_p50"),
                    p50 as f64,
                );
            }
            if let Some(p99) = p99 {
                result_line(
                    "policy",
                    &format!("{kind}_{tag}_reports_to_verdict_p99"),
                    p99 as f64,
                );
            }
        }
    }
}
