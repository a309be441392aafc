//! The replay workloads: a closed loop that feeds the whole capture to a
//! fresh engine through `PcapFileSource` and waits for `drain`, pass
//! after pass.

use crate::checks::conservation;
use crate::serial::{compare, Expected};
use crate::setup::Prepared;
use crate::spans::{in_span, Trace};
use deepcsi_capture::PcapFileSource;
use deepcsi_frame::MacAddr;
use deepcsi_serve::{Backpressure, Engine, EngineConfig, EngineStats, SourceStatus};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fewest measured passes per run, so a tail over passes exists.
pub const MIN_PASSES: usize = 11;

/// Passes per window of the pass figures (about 3 s).
pub const WINDOW_PASSES: usize = 8;

/// The replay engine: default shards, batching and linger, one
/// inference lane per worker, and lossless backpressure.
pub fn config() -> EngineConfig {
    EngineConfig {
        infer_threads: 1,
        backpressure: Backpressure::Block,
        ..EngineConfig::default()
    }
}

/// One capture pass through a fresh engine.
#[derive(Debug)]
pub struct Pass {
    /// First ingest until `drain` returned.
    pub wall: Duration,
    /// Frames the capture delivered.
    pub sent: u64,
    /// The engine's final counters.
    pub stats: EngineStats,
    /// Streams whose verdict left `Unknown` during the pass.
    pub decided: usize,
    /// Whether the pass ran with feed spans.
    pub traced: bool,
}

/// Feeds the capture once through a fresh engine. Correctness
/// problems are appended to `problems`; spans go to `trace` when given.
pub fn pass(
    prep: &Prepared,
    cfg: &EngineConfig,
    expected: &BTreeMap<MacAddr, Expected>,
    mut trace: Option<&mut Trace>,
    request: u64,
    problems: &mut Vec<String>,
) -> Pass {
    let engine = Engine::start_frozen(cfg.clone(), Arc::clone(&prep.frozen), prep.registry.clone());
    let mut source = PcapFileSource::from_bytes(prep.pcap.clone());
    let traced = trace.is_some();
    let t0 = Instant::now();
    let status = in_span(
        trace.as_deref_mut(),
        "engine.ingest_available",
        request,
        || engine.ingest_available(&mut source),
    );
    in_span(trace, "engine.drain", request, || engine.drain());
    let wall = t0.elapsed();
    let report = engine.shutdown();
    match status {
        Ok(SourceStatus::End) => {}
        other => problems.push(format!("pass {request}: capture ended with {other:?}")),
    }
    let stats = report.stats;
    let sent = stats.capture_packets;
    for law in conservation(&stats, true) {
        problems.push(format!("pass {request}: {law}"));
    }
    for diff in compare(&report.decisions, expected) {
        problems.push(format!("pass {request}: {diff}"));
    }
    Pass {
        wall,
        sent,
        decided: report
            .decisions
            .iter()
            .filter(|d| d.decided_at.is_some())
            .count(),
        stats,
        traced,
    }
}
