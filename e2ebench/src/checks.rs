//! The engine's conservation laws, checked on its public counters.

use deepcsi_serve::EngineStats;

/// Every broken law in `stats`, one line each. `capture_fed` adds the
/// capture-layer reconciliation, which holds only when a frame source
/// fed the engine.
pub fn conservation(stats: &EngineStats, capture_fed: bool) -> Vec<String> {
    let mut broken = Vec::new();
    if stats.ingested != stats.enqueued + stats.dropped + stats.decode_errors {
        broken.push(format!(
            "ingested {} != enqueued {} + dropped {} + decode_errors {}",
            stats.ingested, stats.enqueued, stats.dropped, stats.decode_errors
        ));
    }
    if stats.enqueued != stats.classified + stats.rejected {
        broken.push(format!(
            "enqueued {} != classified {} + rejected {}",
            stats.enqueued, stats.classified, stats.rejected
        ));
    }
    if capture_fed && !stats.capture_reconciles() {
        broken.push(format!(
            "capture does not reconcile: packets {} vs skipped {} + errors {} + decode_errors {} + dropped {} + enqueued {}",
            stats.capture_packets,
            stats.capture_skipped,
            stats.capture_errors,
            stats.decode_errors,
            stats.dropped,
            stats.enqueued
        ));
    }
    broken
}
