//! The sounding workload: rounds of one report per registered stream,
//! sent on an open-loop schedule, with bursts sent back to back between
//! paced epochs.

use crate::checks::conservation;
use crate::serial::{compare, reference, Output};
use crate::setup::Prepared;
use crate::spans::{in_span, Trace};
use deepcsi_frame::MacAddr;
use deepcsi_serve::{
    DecisionPolicy, DeviceRegistry, Engine, EngineConfig, EngineStats, IngestOutcome, Verdict,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Round period of the paced phase. Rounds of 8 reports took about
/// 4.5 ms at the median when this workload was defined, so 20 ms
/// leaves clear headroom: the phase measures latency, not backlog.
pub const PERIOD: Duration = Duration::from_millis(20);

/// Paced rounds served by one engine before it is replaced by a fresh
/// one; long enough for every stream to reach its verdict (10 reports
/// under the default policy).
pub const ROUNDS_PER_EPOCH: usize = 50;

/// Paced rounds per window of `round_tail_ms` (three epochs, 3 s). A
/// window's tail stands near p93.3 (10 rounds beyond 150).
pub const WINDOW_ROUNDS: usize = 150;

/// The sounding engine: the default configuration.
pub fn config() -> EngineConfig {
    EngineConfig::default()
}

/// A monotonic clock the paced loop waits on.
pub trait Clock {
    /// Time since the clock's origin.
    fn now(&self) -> Duration;
    /// Blocks until `now() >= t` (returns at once when already past).
    fn sleep_until(&mut self, t: Duration);
}

/// The wall clock.
pub struct WallClock(Instant);

impl WallClock {
    /// A clock whose origin is now.
    pub fn start() -> WallClock {
        WallClock(Instant::now())
    }
}

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }

    fn sleep_until(&mut self, t: Duration) {
        let now = self.now();
        if t > now {
            std::thread::sleep(t - now);
        }
    }
}

/// When one paced round was due, sent and finished.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundTiming {
    /// When the schedule said to send it.
    pub due: Duration,
    /// When the generator started sending it.
    pub sent: Duration,
    /// When `drain` returned.
    pub finished: Duration,
}

impl RoundTiming {
    /// Latency counted from the due time, so generator lateness counts.
    pub fn latency(&self) -> Duration {
        self.finished.saturating_sub(self.due)
    }

    /// How late the generator started the round.
    pub fn lateness(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }
}

/// Runs `rounds` rounds due every `period`, the first one period from
/// now. `send` performs round `r` (its time is the round's service);
/// `after` observes the finished round outside the timed interval.
pub fn paced<C: Clock>(
    clock: &mut C,
    rounds: usize,
    period: Duration,
    mut send: impl FnMut(usize, &mut C),
    mut after: impl FnMut(usize, &RoundTiming),
) -> Vec<RoundTiming> {
    let first_due = clock.now() + period;
    let mut timings = Vec::with_capacity(rounds);
    for r in 0..rounds {
        let due = first_due + period * r as u32;
        clock.sleep_until(due);
        let sent = clock.now();
        send(r, clock);
        let timing = RoundTiming {
            due,
            sent,
            finished: clock.now(),
        };
        after(r, &timing);
        timings.push(timing);
    }
    timings
}

/// A registered stream and the capture frames it sends, in capture
/// order.
#[derive(Debug, Clone)]
pub struct Stream {
    /// The stream's source address.
    pub mac: MacAddr,
    /// Indices of its frames in the capture.
    pub frames: Vec<usize>,
}

impl Stream {
    /// The frame the stream sends in round `r`, cycling through its
    /// frames.
    pub fn frame(&self, r: usize) -> usize {
        self.frames[r % self.frames.len()]
    }
}

/// Groups the capture's frames (`sources[i]` sent frame `i`) by
/// registered stream, in registry order.
pub fn streams(registry: &DeviceRegistry, sources: &[MacAddr]) -> Vec<Stream> {
    registry
        .iter()
        .map(|(mac, _)| Stream {
            mac,
            frames: (0..sources.len()).filter(|&i| sources[i] == mac).collect(),
        })
        .collect()
}

/// The frame indices of rounds `range`, stream by stream — the serial
/// pass's units.
pub fn round_units(streams: &[Stream], range: std::ops::Range<usize>) -> Vec<Vec<usize>> {
    range
        .map(|r| streams.iter().map(|s| s.frame(r)).collect())
        .collect()
}

/// Shared inputs of every sounding engine run.
pub struct Rig<'a> {
    /// Capture, model and registry.
    pub prep: &'a Prepared,
    /// The capture's MPDUs, by frame index.
    pub mpdus: &'a [Vec<u8>],
    /// Every registered stream.
    pub streams: Vec<Stream>,
    /// The serial pass's per-frame outputs.
    pub outputs: &'a [Output],
    /// The engine's decision policy, for the reference.
    pub policy: Arc<dyn DecisionPolicy>,
    /// Engine configuration.
    pub cfg: EngineConfig,
}

/// One paced epoch on a fresh engine.
#[derive(Debug)]
pub struct Epoch {
    /// Every round's timing.
    pub rounds: Vec<RoundTiming>,
    /// Rounds that lost a report (drop, decode error or rejection).
    pub lost: Vec<bool>,
    /// Per stream: from its first report's due time until `drain`
    /// returned on the round that decided it; `None` if undecided.
    pub verdict: Vec<Option<Duration>>,
    /// Whether each round ran with feed spans.
    pub traced: Vec<bool>,
    /// The engine's final counters.
    pub stats: EngineStats,
}

impl Epoch {
    /// Rounds that lost a report: the failed operations.
    pub fn failed(&self) -> usize {
        self.lost.iter().filter(|&&lost| lost).count()
    }

    /// Rounds that finished after the next one was due. They are
    /// stated, not failed: on a shared host a stall of the whole guest
    /// makes one now and then, so their count differs between runs of
    /// the same code, and their latency already sits in the tail.
    pub fn late(&self) -> usize {
        self.rounds.iter().filter(|t| t.latency() > PERIOD).count()
    }
}

impl Rig<'_> {
    /// Paced rounds `offset .. offset + rounds` through a fresh engine.
    /// Every other round records feed spans when `trace` is given.
    pub fn epoch(
        &self,
        offset: usize,
        rounds: usize,
        mut trace: Option<&mut Trace>,
        problems: &mut Vec<String>,
    ) -> Epoch {
        let engine = self.start();
        let mut sent = Vec::new();
        let mut dropped = vec![false; rounds];
        let mut rejected_in = vec![false; rounds];
        let mut traced = vec![false; rounds];
        let mut verdict: Vec<Option<Duration>> = vec![None; self.streams.len()];
        let mut rejected = 0;
        let mut first_due = None;
        let mut clock = WallClock::start();
        let timings = paced(
            &mut clock,
            rounds,
            PERIOD,
            |r, _| {
                let request = (offset + r) as u64;
                let mut t = if r % 2 == 0 {
                    trace.as_deref_mut()
                } else {
                    None
                };
                traced[r] = t.is_some();
                for stream in &self.streams {
                    let i = stream.frame(offset + r);
                    let outcome = in_span(t.as_deref_mut(), "engine.ingest_frame", request, || {
                        engine.ingest_frame(&self.mpdus[i])
                    });
                    match outcome {
                        IngestOutcome::Enqueued => sent.push(i),
                        IngestOutcome::Dropped | IngestOutcome::DecodeError => dropped[r] = true,
                    }
                }
                in_span(t, "engine.drain", request, || engine.drain());
            },
            |r, timing| {
                let first = *first_due.get_or_insert(timing.due);
                let stats = engine.stats();
                if stats.rejected > rejected {
                    rejected = stats.rejected;
                    rejected_in[r] = true;
                }
                if verdict.iter().any(Option::is_none) {
                    for d in engine.decisions() {
                        let Some(s) = self.streams.iter().position(|s| s.mac == d.source) else {
                            continue;
                        };
                        if verdict[s].is_none() && d.verdict != Verdict::Unknown {
                            verdict[s] = Some(timing.finished.saturating_sub(first));
                        }
                    }
                }
            },
        );
        let stats = self.finish(engine, &sent, "paced epoch", problems);
        Epoch {
            rounds: timings,
            lost: dropped
                .iter()
                .zip(&rejected_in)
                .map(|(&d, &j)| d || j)
                .collect(),
            verdict,
            traced,
            stats,
        }
    }

    /// Back-to-back rounds from `offset` until `budget` has passed.
    pub fn back_to_back(
        &self,
        offset: usize,
        budget: Duration,
        problems: &mut Vec<String>,
    ) -> BackToBack {
        let engine = self.start();
        let mut sent = Vec::new();
        let mut rounds = 0;
        let mut lost = 0;
        let started = Instant::now();
        while rounds == 0 || started.elapsed() < budget {
            let mut dropped = false;
            for stream in &self.streams {
                let i = stream.frame(offset + rounds);
                match engine.ingest_frame(&self.mpdus[i]) {
                    IngestOutcome::Enqueued => sent.push(i),
                    IngestOutcome::Dropped | IngestOutcome::DecodeError => dropped = true,
                }
            }
            engine.drain();
            rounds += 1;
            lost += usize::from(dropped);
        }
        let wall = started.elapsed();
        let stats = self.finish(engine, &sent, "back-to-back burst", problems);
        BackToBack {
            wall,
            rounds,
            classified: stats.classified,
            // A rejected report cannot be traced to its round from the
            // counters; each one is charged as a failed round.
            failed: (lost + stats.rejected as usize).min(rounds),
        }
    }

    fn start(&self) -> Engine {
        Engine::start_frozen(
            self.cfg.clone(),
            Arc::clone(&self.prep.frozen),
            self.prep.registry.clone(),
        )
    }

    /// Shuts `engine` down and checks its laws and final decisions
    /// against the reference over the frames it accepted.
    fn finish(
        &self,
        engine: Engine,
        sent: &[usize],
        what: &str,
        problems: &mut Vec<String>,
    ) -> EngineStats {
        let report = engine.shutdown();
        for law in conservation(&report.stats, false) {
            problems.push(format!("{what}: {law}"));
        }
        let expected = reference(
            self.outputs,
            sent.iter().copied(),
            self.policy.as_ref(),
            &self.prep.registry,
        );
        for diff in compare(&report.decisions, &expected) {
            problems.push(format!("{what}: {diff}"));
        }
        report.stats
    }
}

/// What a back-to-back burst measured.
#[derive(Debug)]
pub struct BackToBack {
    /// Wall time from the first ingest until the last `drain` returned.
    pub wall: Duration,
    /// Rounds sent.
    pub rounds: usize,
    /// Reports classified.
    pub classified: u64,
    /// Rounds that lost a report.
    pub failed: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A clock that only moves when told to.
    struct FakeClock {
        now: Duration,
    }

    impl Clock for FakeClock {
        fn now(&self) -> Duration {
            self.now
        }

        fn sleep_until(&mut self, t: Duration) {
            self.now = self.now.max(t);
        }
    }

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn on_time_rounds_measure_their_service_time() {
        let mut clock = FakeClock { now: ms(0) };
        let timings = paced(&mut clock, 3, ms(10), |_, c| c.now += ms(2), |_, _| {});
        let dues: Vec<_> = timings.iter().map(|t| t.due).collect();
        assert_eq!(dues, vec![ms(10), ms(20), ms(30)]);
        assert!(timings.iter().all(|t| t.latency() == ms(2)));
        assert!(timings.iter().all(|t| t.lateness() == Duration::ZERO));
    }

    #[test]
    fn a_stalled_round_charges_its_lateness_to_later_rounds() {
        // Service takes 2 ms, except round 1, which stalls for 35 ms.
        let mut clock = FakeClock { now: ms(0) };
        let mut observed = Vec::new();
        let timings = paced(
            &mut clock,
            7,
            ms(10),
            |r, c| c.now += if r == 1 { ms(35) } else { ms(2) },
            |r, t| observed.push((r, t.latency())),
        );
        // Round 1 is due at 20 and finishes at 55.
        assert_eq!(timings[1].latency(), ms(35));
        // Round 2 was due at 30 but could only start at 55: it is
        // charged 25 ms of waiting plus its 2 ms of service.
        assert_eq!(timings[2].lateness(), ms(25));
        assert_eq!(timings[2].latency(), ms(27));
        // Round 3 (due 40) starts at 57, round 4 (due 50) at 59 and
        // round 5 (due 60) at 61.
        assert_eq!(timings[3].latency(), ms(19));
        assert_eq!(timings[4].latency(), ms(11));
        assert_eq!(timings[5].latency(), ms(3));
        // Round 6 (due 70) is back on schedule.
        assert_eq!(timings[6].lateness(), Duration::ZERO);
        assert_eq!(timings[6].latency(), ms(2));
        // `after` saw every round, with the same latencies.
        let latencies: Vec<_> = timings
            .iter()
            .map(RoundTiming::latency)
            .enumerate()
            .collect();
        assert_eq!(observed, latencies);
    }
}
