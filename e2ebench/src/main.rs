//! `e2ebench`: the capture-to-verdict benchmark of the DeepCSI serving
//! path. See README.md for the workloads and metrics.
//!
//! ```text
//! e2ebench --workload replay_demo|replay_paper|sounding_demo
//!          --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports
//! the end-to-end metrics, `--trace 1` the per-layer ones. The line
//! before it (prefixed `record `) carries the provenance stamp and every
//! measured value; the same record, plus the span trace of a traced run,
//! is written under `out/` next to this package's manifest.

mod checks;
mod host;
mod metrics;
mod replay;
mod serial;
mod setup;
mod sounding;
mod spans;
mod stats;

use host::Provenance;
use metrics::{quote, Metrics};
use serial::{Mirror, SerialPass};
use setup::{Prepared, SetupTimes, Workload};
use spans::Trace;
use stats::{median, quartile, tail, windows, End};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// The end-to-end metrics every `--trace 0` run reports.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("reports_per_s", "1/s"),
    ("round_p50_ms", "ms"),
    ("round_tail_ms", "ms"),
    ("rounds_per_s", "1/s"),
    ("verdict_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics every `--trace 1` run reports.
const PER_LAYER: &[(&str, &str)] = &[
    ("setup.generate_s", "s"),
    ("setup.train_s", "s"),
    ("setup.freeze_s", "s"),
    ("capture.ns_per_frame", "ns"),
    ("frame.parse_ns_per_frame", "ns"),
    ("bfi.reconstruct_ns_per_report", "ns"),
    ("bfi.kept_subcarrier_ratio", "ratio"),
    ("data.tensorize_ns_per_report", "ns"),
    ("nn.infer_us_per_batch", "us"),
    ("nn.infer_ns_per_report", "ns"),
    ("nn.mean_batch", "count"),
    ("nn.ragged_share", "ratio"),
    ("nn.op0_conv2d_ns_per_sample", "ns"),
    ("nn.op1_selu_ns_per_sample", "ns"),
    ("nn.op2_maxpool2d_ns_per_sample", "ns"),
    ("nn.op3_conv2d_ns_per_sample", "ns"),
    ("nn.op4_selu_ns_per_sample", "ns"),
    ("nn.op5_maxpool2d_ns_per_sample", "ns"),
    ("nn.conv2d_ns_per_sample", "ns"),
    ("nn.selu_ns_per_sample", "ns"),
    ("nn.maxpool2d_ns_per_sample", "ns"),
    ("nn.spatial_attention_ns_per_sample", "ns"),
    ("nn.dense_ns_per_sample", "ns"),
    ("serve.queue_wait_p50_us", "us"),
    ("serve.queue_wait_p99_us", "us"),
    ("serve.batch_latency_p50_us", "us"),
    ("serve.batch_latency_p99_us", "us"),
    ("serve.mean_batch", "count"),
    ("serve.batches", "count"),
    ("serve.pool_occupancy", "ratio"),
    ("serve.dropped", "count"),
    ("serve.rejected", "count"),
    ("serve.decode_errors", "count"),
    ("serve.policy_ns_per_report", "ns"),
    ("residual.wait_share", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: e2ebench --workload replay_demo|replay_paper|sounding_demo \
                     --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} expects a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What a workload run measured.
#[derive(Default)]
struct Outcome {
    /// Every measured value, end-to-end and per-layer alike.
    metrics: Metrics,
    /// Stated conditions of the measurement (percentiles, counts).
    statements: Vec<(&'static str, String)>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// Spans around the calls that fed the engine in a traced run.
    feed: Option<Trace>,
}

fn main() {
    let process_start = Instant::now();
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("e2ebench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let manifest_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let repo_root = manifest_dir
        .parent()
        .expect("the package sits inside the repository");

    let mut setup_problems = Vec::new();
    let (prep, setups) = set_up(args.workload, args.seed, process_start, &mut setup_problems);
    let provenance = Provenance::collect(repo_root);

    let cfg = match args.workload {
        Workload::SoundingDemo => sounding::config(),
        Workload::ReplayDemo | Workload::ReplayPaper => replay::config(),
    };
    let mirror = Mirror {
        frozen: &prep.frozen,
        policy: cfg.decision.build(cfg.window, cfg.policy),
        registry: &prep.registry,
        workers: cfg.workers,
        max_batch: cfg.max_batch,
    };
    let epoch = Instant::now();
    let streams = sounding::streams(&prep.registry, &prep.sources);
    let units = match args.workload {
        Workload::SoundingDemo => {
            let longest = streams.iter().map(|s| s.frames.len()).max().unwrap_or(0);
            sounding::round_units(&streams, 0..longest)
        }
        Workload::ReplayDemo | Workload::ReplayPaper => vec![(0..prep.sources.len()).collect()],
    };
    let serial = serial::run(&mirror, &prep.pcap, &units, Trace::new(epoch, 0));

    let mut outcome = match args.workload {
        Workload::SoundingDemo => {
            let rig = sounding::Rig {
                prep: &prep,
                mpdus: &serial.mpdus,
                streams,
                outputs: &serial.outputs,
                policy: mirror.policy.clone(),
                cfg: cfg.clone(),
            };
            run_sounding(&args, &rig, &serial, epoch)
        }
        Workload::ReplayDemo | Workload::ReplayPaper => {
            run_replay(&args, &prep, &cfg, &mirror, &serial, epoch)
        }
    };
    outcome.problems.extend(setup_problems);
    if serial
        .outputs
        .iter()
        .map(|o| o.source)
        .ne(prep.sources.iter().copied())
    {
        outcome
            .problems
            .push("capture frames do not carry the sources the dataset assigned".to_string());
    }
    let setup_median = |f: fn(&SetupTimes) -> f64| {
        median(&setups.iter().map(f).collect::<Vec<_>>()).expect("at least one set-up")
    };
    let m = &mut outcome.metrics;
    m.put("setup_s", setup_median(|s| s.total_s), "s");
    m.put("setup.generate_s", setup_median(|s| s.generate_s), "s");
    m.put("setup.train_s", setup_median(|s| s.train_s), "s");
    m.put("setup.freeze_s", setup_median(|s| s.freeze_s), "s");
    layer_metrics(&serial, m);
    match host::peak_rss_mb() {
        Some(mb) => m.put("peak_rss_mb", mb, "MiB"),
        None => outcome
            .problems
            .push("cannot read VmHWM from /proc/self/status".to_string()),
    }

    finish(&args, &provenance, outcome, &serial, manifest_dir);
}

/// Runs the set-up `SETUP_REPS` times; the first is timed from process
/// start. Every repetition must produce the same capture.
fn set_up(
    workload: Workload,
    seed: u64,
    process_start: Instant,
    problems: &mut Vec<String>,
) -> (Prepared, Vec<SetupTimes>) {
    let (prep, mut first) = setup::prepare(workload, seed);
    first.total_s = process_start.elapsed().as_secs_f64();
    let mut times = vec![first];
    for _ in 1..SETUP_REPS {
        let (again, t) = setup::prepare(workload, seed);
        if again.pcap != prep.pcap {
            problems.push(format!("seed {seed} set up two different captures"));
        }
        times.push(t);
    }
    (prep, times)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The tail of `values_ms`, stated in `statements` under `what`.
fn put_tail(out: &mut Outcome, name: &str, values_ms: &[f64], what: &'static str) {
    match tail(values_ms) {
        Some(t) => {
            out.metrics.put(name, t.value, "ms");
            out.statements.push((
                what,
                format!(
                    "p{:.2} over {} samples ({} beyond)",
                    t.percentile,
                    t.samples,
                    stats::TAIL_BEYOND
                ),
            ));
        }
        None => out.problems.push(format!(
            "{name}: {} samples leave no tail with {} beyond",
            values_ms.len(),
            stats::TAIL_BEYOND
        )),
    }
}

/// Puts the quartile at `end` of the per-window figures `per_window`
/// under `name`, stated as taken over `windows`.
fn put_windowed(
    out: &mut Outcome,
    name: &'static str,
    unit: &'static str,
    per_window: &[f64],
    end: End,
    windows: &str,
) {
    let side = match end {
        End::Low => "lower",
        End::High => "upper",
    };
    match quartile(per_window, end) {
        Some(v) => {
            out.metrics.put(name, v, unit);
            out.statements
                .push((name, format!("{side} quartile of {windows}")));
        }
        None => out.problems.push(format!("{name}: no window was measured")),
    }
}

/// Per-layer cost of the serial pass.
fn layer_metrics(serial: &SerialPass, m: &mut Metrics) {
    let own = serial.self_ns();
    let ns = |name: &str| own.get(name).copied().unwrap_or(0) as f64;
    let c = &serial.counts;
    let reports = c.reports.max(1) as f64;
    let batches = c.batch_sizes.len().max(1) as f64;
    m.put(
        "capture.ns_per_frame",
        ns("capture.poll_frame") / c.frames.max(1) as f64,
        "ns",
    );
    m.put(
        "frame.parse_ns_per_frame",
        ns("frame.parse") / reports,
        "ns",
    );
    m.put(
        "bfi.reconstruct_ns_per_report",
        ns("bfi.reconstruct") / reports,
        "ns",
    );
    m.put(
        "bfi.kept_subcarrier_ratio",
        c.kept as f64 / c.reconstructed.max(1) as f64,
        "ratio",
    );
    m.put(
        "data.tensorize_ns_per_report",
        ns("data.tensorize") / reports,
        "ns",
    );
    m.put(
        "nn.infer_us_per_batch",
        ns("nn.infer_batch") / batches / 1e3,
        "us",
    );
    m.put(
        "nn.infer_ns_per_report",
        ns("nn.infer_batch") / reports,
        "ns",
    );
    m.put("nn.mean_batch", reports / batches, "count");
    m.put(
        "nn.ragged_share",
        c.ragged_reports as f64 / reports,
        "ratio",
    );
    m.put(
        "serve.policy_ns_per_report",
        ns("serve.policy") / reports,
        "ns",
    );
    let mut by_kind: Vec<(&str, u64, u64)> = Vec::new();
    for (i, op) in serial.ops.iter().enumerate() {
        m.put(
            format!("nn.op{i}_{}_ns_per_sample", op.name),
            op.ns_per_sample(),
            "ns",
        );
        match by_kind.iter_mut().find(|(k, _, _)| *k == op.name) {
            Some(entry) => entry.1 += op.ns,
            None => by_kind.push((op.name, op.ns, op.samples)),
        }
    }
    for (kind, total_ns, samples) in by_kind {
        m.put(
            format!("nn.{kind}_ns_per_sample"),
            total_ns as f64 / samples.max(1) as f64,
            "ns",
        );
    }
}

/// Sum of the serial pass's layer self-times on the request path, ns.
fn layer_sum_ns(serial: &SerialPass, with_capture: bool) -> f64 {
    let own = serial.self_ns();
    let mut names = vec![
        "frame.parse",
        "bfi.reconstruct",
        "data.tensorize",
        "nn.infer_batch",
        "serve.policy",
    ];
    if with_capture {
        names.push("capture.poll_frame");
    }
    names
        .iter()
        .map(|n| own.get(n).copied().unwrap_or(0) as f64)
        .sum()
}

/// Engine-side per-layer metrics: the median over engine lifetimes.
fn serve_metrics(all: &[&deepcsi_serve::EngineStats], m: &mut Metrics) {
    let med = |f: &dyn Fn(&deepcsi_serve::EngineStats) -> f64| {
        median(&all.iter().map(|s| f(s)).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let us = |d: Option<Duration>| d.map_or(0.0, |d| d.as_secs_f64() * 1e6);
    let stage = |s: &deepcsi_serve::EngineStats, name: &str| {
        s.stages.iter().find(|st| st.stage == name).cloned()
    };
    m.put(
        "serve.queue_wait_p50_us",
        med(&|s| us(stage(s, "queue_wait").and_then(|q| q.p50))),
        "us",
    );
    m.put(
        "serve.queue_wait_p99_us",
        med(&|s| us(stage(s, "queue_wait").and_then(|q| q.p99))),
        "us",
    );
    m.put(
        "serve.batch_latency_p50_us",
        med(&|s| us(s.batch_latency_p50)),
        "us",
    );
    m.put(
        "serve.batch_latency_p99_us",
        med(&|s| us(s.batch_latency_p99)),
        "us",
    );
    m.put("serve.mean_batch", med(&|s| s.mean_batch), "count");
    m.put("serve.batches", med(&|s| s.batches as f64), "count");
    m.put("serve.pool_occupancy", med(&|s| s.pool_occupancy), "ratio");
    m.put(
        "serve.dropped",
        all.iter().map(|s| s.dropped).sum::<u64>() as f64,
        "count",
    );
    m.put(
        "serve.rejected",
        all.iter().map(|s| s.rejected).sum::<u64>() as f64,
        "count",
    );
    m.put(
        "serve.decode_errors",
        all.iter().map(|s| s.decode_errors).sum::<u64>() as f64,
        "count",
    );
}

/// `100 · (traced − untraced) / untraced` over the medians.
fn overhead_pct(traced: &[f64], untraced: &[f64]) -> Option<f64> {
    let (t, u) = (median(traced)?, median(untraced)?);
    Some(100.0 * (t - u) / u)
}

/// The traced run's engine-side metrics, tracing overhead and residual.
/// `untraced_ms` and `traced_ms` are unit times (passes or rounds) with
/// and without feed spans; the serial pass holds the same units.
/// The residual compares the serial layer self-time per unit with the
/// core time the engine had per unit: untraced wall time × the lanes
/// that can run at once (ingest thread plus workers, capped by nproc).
fn traced_metrics(
    out: &mut Outcome,
    stats: &[&deepcsi_serve::EngineStats],
    untraced_ms: &[f64],
    traced_ms: &[f64],
    serial: &SerialPass,
    with_capture: bool,
    workers: usize,
) {
    serve_metrics(stats, &mut out.metrics);
    out.metrics.put(
        "trace.overhead_pct",
        overhead_pct(traced_ms, untraced_ms).unwrap_or(0.0),
        "%",
    );
    let lanes = host::nproc().min(workers + 1) as f64;
    let wall_ns = median(untraced_ms).expect("units ran") * 1e6;
    let layer_ns = layer_sum_ns(serial, with_capture) / serial.counts.units.max(1) as f64;
    out.metrics.put(
        "residual.wait_share",
        1.0 - layer_ns / (wall_ns * lanes),
        "ratio",
    );
    out.statements.push((
        "residual.wait_share",
        format!("per unit, against {lanes} lanes of untraced wall time"),
    ));
}

fn run_replay(
    args: &Args,
    prep: &Prepared,
    cfg: &deepcsi_serve::EngineConfig,
    mirror: &Mirror<'_>,
    serial: &SerialPass,
    epoch: Instant,
) -> Outcome {
    let mut out = Outcome::default();
    let frames = prep.sources.len();
    let expected = serial::reference(
        &serial.outputs,
        0..frames,
        mirror.policy.as_ref(),
        &prep.registry,
    );
    let mut feed = args.trace.then(|| Trace::new(epoch, 1));
    // Warm-up: first-touch allocation in the engine and the pool.
    replay::pass(prep, cfg, &expected, None, 0, &mut out.problems);
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut passes = Vec::new();
    // A traced run needs no tail, only enough passes of either kind.
    let min_passes = if args.trace { 4 } else { replay::MIN_PASSES };
    while passes.len() < min_passes || started.elapsed() < budget {
        let n = passes.len() as u64 + 1;
        // A traced run alternates traced and untraced passes.
        let trace = feed.as_mut().filter(|_| n.is_multiple_of(2));
        passes.push(replay::pass(
            prep,
            cfg,
            &expected,
            trace,
            n,
            &mut out.problems,
        ));
    }
    out.attempted = passes.iter().map(|p| p.sent).sum();
    out.failed = passes
        .iter()
        .map(|p| p.sent - p.stats.classified.min(p.sent))
        .sum();
    let untraced: Vec<&replay::Pass> = passes.iter().filter(|p| !p.traced).collect();
    let wall_ms: Vec<f64> = untraced.iter().map(|p| ms(p.wall)).collect();
    out.statements
        .push(("input", format!("{frames} frames per pass, 8 streams")));
    out.statements.push((
        "passes",
        format!("{} untraced of {}", untraced.len(), passes.len()),
    ));
    if args.trace {
        let stats: Vec<&deepcsi_serve::EngineStats> = passes.iter().map(|p| &p.stats).collect();
        let traced_ms: Vec<f64> = passes
            .iter()
            .filter(|p| p.traced)
            .map(|p| ms(p.wall))
            .collect();
        traced_metrics(
            &mut out,
            &stats,
            &wall_ms,
            &traced_ms,
            serial,
            true,
            cfg.workers,
        );
        out.feed = feed;
        return out;
    }
    // Replay is moved most by the host's fast phases, which make the
    // windows they cover faster: the slower quartile stays put.
    let windows = windows(&untraced, replay::WINDOW_PASSES);
    let what = format!("{} windows of passes", windows.len());
    let secs = |w: &[&replay::Pass]| w.iter().map(|p| p.wall.as_secs_f64()).sum::<f64>();
    let classified = |w: &[&replay::Pass]| w.iter().map(|p| p.stats.classified).sum::<u64>();
    let pass_ms = |w: &[&replay::Pass]| w.iter().map(|p| ms(p.wall)).collect::<Vec<_>>();
    let verdicts = |w: &[&replay::Pass]| {
        w.iter()
            .flat_map(|p| std::iter::repeat_n(ms(p.wall), p.decided))
            .collect::<Vec<_>>()
    };
    let reports: Vec<f64> = windows
        .iter()
        .map(|w| classified(w) as f64 / secs(w))
        .collect();
    let rounds: Vec<f64> = windows.iter().map(|w| w.len() as f64 / secs(w)).collect();
    let p50s: Vec<f64> = windows.iter().filter_map(|w| median(&pass_ms(w))).collect();
    // A window in which no stream reached a verdict has no figure.
    let verdict_ms: Vec<f64> = windows
        .iter()
        .filter_map(|w| median(&verdicts(w)))
        .collect();
    put_windowed(&mut out, "reports_per_s", "1/s", &reports, End::Low, &what);
    put_windowed(&mut out, "rounds_per_s", "1/s", &rounds, End::Low, &what);
    put_windowed(&mut out, "round_p50_ms", "ms", &p50s, End::High, &what);
    put_windowed(&mut out, "verdict_ms", "ms", &verdict_ms, End::High, &what);
    put_tail(
        &mut out,
        "round_tail_ms",
        &wall_ms,
        "round_tail_ms (a round is one capture pass)",
    );
    out.statements.push((
        "verdicts",
        format!(
            "{} stream verdicts over the passes",
            verdicts(&untraced).len()
        ),
    ));
    out
}

fn run_sounding(
    args: &Args,
    rig: &sounding::Rig<'_>,
    serial: &SerialPass,
    epoch: Instant,
) -> Outcome {
    let mut out = Outcome::default();
    let mut feed = args.trace.then(|| Trace::new(epoch, 1));
    let seconds = args.seconds as f64;
    let epoch_s = sounding::ROUNDS_PER_EPOCH as f64 * sounding::PERIOD.as_secs_f64();
    let epochs = ((0.65 * seconds / epoch_s).round() as usize).max(1);
    // Each paced epoch is followed by a burst of back-to-back rounds,
    // so both phases sample the host over the whole run.
    let burst = Duration::from_secs_f64(0.3 * seconds / epochs as f64);
    // Warm-up: a few rounds on a throwaway engine.
    rig.epoch(0, 5, None, &mut out.problems);
    let mut runs = Vec::new();
    let mut bursts = Vec::new();
    for e in 0..epochs {
        let offset = e * sounding::ROUNDS_PER_EPOCH;
        runs.push(rig.epoch(
            offset,
            sounding::ROUNDS_PER_EPOCH,
            feed.as_mut(),
            &mut out.problems,
        ));
        if !args.trace {
            bursts.push(rig.back_to_back(offset, burst, &mut out.problems));
        }
    }

    let rounds: Vec<(&sounding::RoundTiming, bool)> = runs
        .iter()
        .flat_map(|e| e.rounds.iter().zip(e.traced.iter().copied()))
        .collect();
    let latency_ms: Vec<f64> = rounds
        .iter()
        .filter(|(_, t)| !t)
        .map(|(r, _)| ms(r.latency()))
        .collect();
    let lateness_ms: Vec<f64> = rounds.iter().map(|(r, _)| ms(r.lateness())).collect();
    out.attempted = rounds.len() as u64 + bursts.iter().map(|b| b.rounds as u64).sum::<u64>();
    out.failed = runs.iter().map(|e| e.failed() as u64).sum::<u64>()
        + bursts.iter().map(|b| b.failed as u64).sum::<u64>();
    out.statements.push((
        "late_rounds",
        format!(
            "{} of {} paced rounds finished after the next was due",
            runs.iter().map(sounding::Epoch::late).sum::<usize>(),
            rounds.len()
        ),
    ));
    out.statements.push((
        "schedule",
        format!(
            "{} streams per round, period {} ms, {epochs} epochs of {} paced rounds",
            rig.streams.len(),
            sounding::PERIOD.as_millis(),
            sounding::ROUNDS_PER_EPOCH
        ),
    ));
    out.statements.push((
        "generator_lateness",
        format!(
            "p50 {:.3} ms, max {:.3} ms",
            median(&lateness_ms).unwrap_or(0.0),
            lateness_ms.iter().copied().fold(0.0, f64::max)
        ),
    ));
    out.metrics.put(
        "round_p50_ms",
        median(&latency_ms).expect("rounds ran"),
        "ms",
    );
    // Sounding is moved most by episodes that deschedule the guest,
    // which make the windows they cover slower: the faster quartile
    // stays put.
    let paced = windows(&latency_ms, sounding::WINDOW_ROUNDS);
    match paced.iter().map(|w| tail(w)).collect::<Option<Vec<_>>>() {
        Some(tails) => {
            let values: Vec<f64> = tails.iter().map(|t| t.value).collect();
            let p = tails.iter().map(|t| t.percentile);
            let (low, high) = (p.clone().fold(f64::MAX, f64::min), p.fold(0.0, f64::max));
            let what = format!(
                "{} windows over {} paced rounds, each at its highest percentile \
                 with {} rounds beyond (p{low:.2}-p{high:.2})",
                tails.len(),
                latency_ms.len(),
                stats::TAIL_BEYOND
            );
            put_windowed(&mut out, "round_tail_ms", "ms", &values, End::Low, &what);
        }
        None => out.problems.push(format!(
            "round_tail_ms: a window of paced rounds leaves no tail with {} beyond",
            stats::TAIL_BEYOND
        )),
    }
    let verdicts: Vec<f64> = runs
        .iter()
        .flat_map(|e| e.verdict.iter().flatten().map(|d| ms(*d)))
        .collect();
    let undecided = runs.iter().map(|e| e.verdict.len()).sum::<usize>() - verdicts.len();
    out.statements.push((
        "verdicts",
        format!("{} decided, {undecided} undecided", verdicts.len()),
    ));
    match median(&verdicts) {
        Some(v) => out.metrics.put("verdict_ms", v, "ms"),
        None => out.problems.push("no stream reached a verdict".to_string()),
    }
    if !bursts.is_empty() {
        let secs = |b: &sounding::BackToBack| b.wall.as_secs_f64();
        let rounds: Vec<f64> = bursts.iter().map(|b| b.rounds as f64 / secs(b)).collect();
        let reports: Vec<f64> = bursts
            .iter()
            .map(|b| b.classified as f64 / secs(b))
            .collect();
        let total: usize = bursts.iter().map(|b| b.rounds).sum();
        let what = format!("{} back-to-back bursts", bursts.len());
        put_windowed(&mut out, "rounds_per_s", "1/s", &rounds, End::High, &what);
        put_windowed(&mut out, "reports_per_s", "1/s", &reports, End::High, &what);
        out.statements.push((
            "back_to_back",
            format!(
                "{total} rounds in {:.3} s, {:.3} s per burst",
                bursts.iter().map(secs).sum::<f64>(),
                burst.as_secs_f64()
            ),
        ));
    }

    if args.trace {
        let stats: Vec<&deepcsi_serve::EngineStats> = runs.iter().map(|e| &e.stats).collect();
        let traced_ms: Vec<f64> = rounds
            .iter()
            .filter(|(_, t)| *t)
            .map(|(r, _)| ms(r.latency()))
            .collect();
        let workers = rig.cfg.workers;
        traced_metrics(
            &mut out,
            &stats,
            &latency_ms,
            &traced_ms,
            serial,
            false,
            workers,
        );
    }
    out.feed = feed;
    out
}

/// Prints the record and the result line, writes the run's files, and
/// exits non-zero when a check failed.
fn finish(
    args: &Args,
    provenance: &Provenance,
    mut outcome: Outcome,
    serial: &SerialPass,
    manifest_dir: &Path,
) {
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let mut result = Metrics::default();
    for &(name, unit) in wanted {
        match outcome.metrics.get(name) {
            Some(v) => result.put(name, v, unit),
            None => outcome
                .problems
                .push(format!("metric {name} was not measured")),
        }
    }
    for (name, value, unit) in result.iter() {
        println!("{name:<38} {value:>16.4} {unit}");
    }
    for (what, text) in &outcome.statements {
        println!("{what}: {text}");
    }
    let correct = outcome.problems.is_empty();
    for p in outcome.problems.iter().take(20) {
        eprintln!("CHECK FAILED: {p}");
    }

    let mut record = String::new();
    record.push_str(&format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, ",
        quote(args.workload.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    ));
    record.push_str(&format!(
        "\"host\": {{\"nproc\": {}, \"cpu\": {}, \"simd\": [{}], \"rustc\": {}, \"commit\": {}}}, ",
        provenance.nproc,
        quote(&provenance.cpu_model),
        provenance
            .simd_flags
            .iter()
            .map(|f| quote(f))
            .collect::<Vec<_>>()
            .join(", "),
        quote(&provenance.rustc),
        quote(&provenance.commit),
    ));
    record.push_str("\"statements\": {");
    record.push_str(
        &outcome
            .statements
            .iter()
            .map(|(k, v)| format!("{}: {}", quote(k), quote(v)))
            .collect::<Vec<_>>()
            .join(", "),
    );
    record.push_str(&format!(
        "}}, \"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted,
        outcome.failed,
        outcome.metrics.to_json()
    ));
    println!("record {record}");

    let out_dir = manifest_dir.join("out");
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    if let Err(e) = write_files(
        &out_dir,
        &stem,
        &record,
        args.trace.then_some((serial, &outcome.feed)),
    ) {
        eprintln!("e2ebench: writing {}: {e}", out_dir.display());
    }

    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted.max(1),
        outcome.failed,
        result.to_json()
    );
    if !correct {
        std::process::exit(1);
    }
}

/// Writes the record and, for a traced run, the spans (JSON lines with
/// parent and request ids) and a Chrome trace of them.
fn write_files(
    dir: &Path,
    stem: &str,
    record: &str,
    traced: Option<(&SerialPass, &Option<Trace>)>,
) -> std::io::Result<()> {
    use std::io::Write;
    std::fs::create_dir_all(dir)?;
    let path = |ext: &str| -> PathBuf { dir.join(format!("{stem}.{ext}")) };
    std::fs::write(path("record.json"), format!("{record}\n"))?;
    if let Some((serial, feed)) = traced {
        let mut spans = serial.trace.spans().to_vec();
        let offset = spans.len();
        if let Some(feed) = feed {
            spans.extend(feed.spans().iter().map(|s| spans::Span {
                parent: s.parent.map(|p| p + offset),
                ..*s
            }));
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path("spans.jsonl"))?);
        spans::write_jsonl(&mut w, &spans)?;
        w.flush()?;
        let mut w = std::io::BufWriter::new(std::fs::File::create(path("chrome.json"))?);
        deepcsi_obs::write_chrome_trace(&mut w, &spans::chrome_events(&spans))?;
        w.flush()?;
    }
    Ok(())
}
