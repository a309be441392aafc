//! The paper's train/test set definitions (Tables I and II).

use crate::input::{InputSpec, LabeledSamples};
use crate::trace::{Dataset, Trace, TraceKind};
use serde::{Deserialize, Serialize};

/// Fraction of each shared-position trace used for training (the paper:
/// "the first 80% of the collected data is used for training and
/// validating the model, while the remaining 20% serves as test data").
const TRAIN_FRACTION: f64 = 0.8;
/// Fraction of the training data held out for validation ("the last 20%
/// of training data is used for model validation").
const VAL_FRACTION: f64 = 0.2;

/// The D1 training/testing position sets of Table I.
///
/// The table encodes positions graphically; the reconstruction below
/// matches the text: S1 trains on all nine positions, S2 trains on a
/// *balanced* (interleaved) subset of five so the classifier can
/// interpolate between adjacent trained positions, S3 trains on a
/// contiguous block of five — "the set with the largest difference
/// between training and testing positions".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum D1Set {
    /// Train and test on all positions (time-split 80/20).
    S1,
    /// Train on interleaved positions {1,3,5,7,9}, test on {2,4,6,8}.
    S2,
    /// Train on block {1..5}, test on {6..9}.
    S3,
}

impl D1Set {
    /// Beamformee positions used at training time.
    pub fn train_positions(self) -> Vec<usize> {
        match self {
            D1Set::S1 => (1..=9).collect(),
            D1Set::S2 => vec![1, 3, 5, 7, 9],
            D1Set::S3 => vec![1, 2, 3, 4, 5],
        }
    }

    /// Beamformee positions used at testing time.
    pub fn test_positions(self) -> Vec<usize> {
        match self {
            D1Set::S1 => (1..=9).collect(),
            D1Set::S2 => vec![2, 4, 6, 8],
            D1Set::S3 => vec![6, 7, 8, 9],
        }
    }
}

/// The D2 set definitions of Table II (plus the Fig. 17b sub-path
/// variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum D2Set {
    /// Train on mob1 (four mobility traces), test on mob2 (three).
    S4,
    /// Fig. 17b: train on the A-B-C-B half of mob1, test on the B-D-B
    /// segment of mob2.
    S4SubPath,
    /// Train on the static traces (fix1 + fix2), test on all mobility
    /// traces.
    S5,
    /// Train on all mobility traces, test on the static traces.
    S6,
}

/// A materialised train/validation/test split.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Split {
    /// Training samples.
    pub train: LabeledSamples,
    /// Validation samples (the tail of the training data).
    pub val: LabeledSamples,
    /// Test samples.
    pub test: LabeledSamples,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dest {
    TrainVal,
    Test,
}

/// One tensor-conversion job: a snapshot range of a trace going to one
/// destination.
struct Job<'a> {
    trace: &'a Trace,
    start: usize,
    end: usize,
    dest: Dest,
}

/// Runs the jobs in parallel (tensor reconstruction is the expensive
/// step) and assembles the split, carving validation data from the tail
/// of each training range.
fn assemble(jobs: Vec<Job<'_>>, spec: &InputSpec) -> Split {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(1, 16);
    assemble_on(&jobs, spec, threads)
}

/// [`assemble`] on `threads` workers. Each worker converts one contiguous
/// shard of the jobs and the shards are merged in job order, so the split
/// is the same at every thread count.
fn assemble_on(jobs: &[Job<'_>], spec: &InputSpec, threads: usize) -> Split {
    let chunk = jobs.len().div_ceil(threads).max(1);
    let parts: Vec<Vec<(Dest, LabeledSamples)>> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .chunks(chunk)
            .map(|shard| {
                scope.spawn(move |_| {
                    shard
                        .iter()
                        .map(|job| {
                            let mut samples = LabeledSamples::default();
                            for i in job.start..job.end {
                                samples.push(
                                    spec.tensor(&job.trace.snapshots[i]),
                                    job.trace.module.0 as usize,
                                );
                            }
                            (job.dest, samples)
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("tensorize worker panicked"))
            .collect()
    })
    .expect("crossbeam scope failed");

    let mut split = Split::default();
    for (dest, samples) in parts.into_iter().flatten() {
        match dest {
            Dest::Test => split.test.extend(samples),
            Dest::TrainVal => {
                // Last VAL_FRACTION of each training range → validation.
                let n = samples.len();
                let n_train = ((n as f64) * (1.0 - VAL_FRACTION)).round() as usize;
                for (i, (x, y)) in samples.x.into_iter().zip(samples.y).enumerate() {
                    if i < n_train {
                        split.train.push(x, y);
                    } else {
                        split.val.push(x, y);
                    }
                }
            }
        }
    }
    split
}

/// Builds a D1 split with explicit position sets (used by the Fig. 10
/// training-position sweep).
pub fn d1_split_positions(
    ds: &Dataset,
    train_positions: &[usize],
    test_positions: &[usize],
    beamformees: &[u8],
    spec: &InputSpec,
) -> Split {
    let mut jobs = Vec::new();
    for trace in &ds.traces {
        let position = match trace.kind {
            TraceKind::D1Static { position } => position,
            _ => continue,
        };
        if !beamformees.contains(&trace.beamformee) {
            continue;
        }
        let n = trace.len();
        let in_train = train_positions.contains(&position);
        let in_test = test_positions.contains(&position);
        let cut = ((n as f64) * TRAIN_FRACTION).round() as usize;
        match (in_train, in_test) {
            (true, true) => {
                jobs.push(Job {
                    trace,
                    start: 0,
                    end: cut,
                    dest: Dest::TrainVal,
                });
                jobs.push(Job {
                    trace,
                    start: cut,
                    end: n,
                    dest: Dest::Test,
                });
            }
            (true, false) => jobs.push(Job {
                trace,
                start: 0,
                end: n,
                dest: Dest::TrainVal,
            }),
            (false, true) => jobs.push(Job {
                trace,
                start: 0,
                end: n,
                dest: Dest::Test,
            }),
            (false, false) => {}
        }
    }
    assemble(jobs, spec)
}

/// Builds the Table I split `set` for the given beamformee selection
/// (`&[1]`, `&[2]`, or `&[1, 2]` for the Fig. 9 "mixed" training).
pub fn d1_split(ds: &Dataset, set: D1Set, beamformees: &[u8], spec: &InputSpec) -> Split {
    d1_split_positions(
        ds,
        &set.train_positions(),
        &set.test_positions(),
        beamformees,
        spec,
    )
}

/// The Fig. 11 cross-beamformee experiment: train on one beamformee's
/// feedback (all positions, first 80%), test on the *other* beamformee's
/// feedback (last 20%).
pub fn d1_cross_beamformee(ds: &Dataset, train_bf: u8, test_bf: u8, spec: &InputSpec) -> Split {
    let mut jobs = Vec::new();
    for trace in &ds.traces {
        if !matches!(trace.kind, TraceKind::D1Static { .. }) {
            continue;
        }
        let n = trace.len();
        let cut = ((n as f64) * TRAIN_FRACTION).round() as usize;
        if trace.beamformee == train_bf {
            jobs.push(Job {
                trace,
                start: 0,
                end: cut,
                dest: Dest::TrainVal,
            });
        }
        if trace.beamformee == test_bf {
            jobs.push(Job {
                trace,
                start: cut,
                end: n,
                dest: Dest::Test,
            });
        }
    }
    assemble(jobs, spec)
}

/// Fraction of the A-B-C-D-B-A path length covered by the A-B-C-B
/// sub-path (0.8 + 0.8 + 0.8 of 4.8 m).
const SUBPATH_TRAIN_END: f64 = 0.5;
/// End fraction of the B-D-B segment (up to 4.0 of 4.8 m).
const SUBPATH_TEST_END: f64 = 4.0 / 4.8;

/// Builds the Table II split `set` for the given beamformee selection.
pub fn d2_split(ds: &Dataset, set: D2Set, beamformees: &[u8], spec: &InputSpec) -> Split {
    let mut jobs = Vec::new();
    for trace in &ds.traces {
        if !beamformees.contains(&trace.beamformee) {
            continue;
        }
        let n = trace.len();
        if n == 0 {
            continue;
        }
        let (is_fixed, mob_group) = match trace.kind {
            TraceKind::D2Fixed { .. } => (true, 0),
            TraceKind::D2Mobility { group, .. } => (false, group),
            TraceKind::D1Static { .. } => continue,
        };
        match set {
            D2Set::S4 => {
                if mob_group == 1 {
                    jobs.push(Job {
                        trace,
                        start: 0,
                        end: n,
                        dest: Dest::TrainVal,
                    });
                } else if mob_group == 2 {
                    jobs.push(Job {
                        trace,
                        start: 0,
                        end: n,
                        dest: Dest::Test,
                    });
                }
            }
            D2Set::S4SubPath => {
                // Snapshots are uniform over the traversal, so path
                // progress ≈ snapshot index fraction.
                if mob_group == 1 {
                    let end = ((n as f64) * SUBPATH_TRAIN_END).round() as usize;
                    jobs.push(Job {
                        trace,
                        start: 0,
                        end,
                        dest: Dest::TrainVal,
                    });
                } else if mob_group == 2 {
                    let start = ((n as f64) * SUBPATH_TRAIN_END).round() as usize;
                    let end = ((n as f64) * SUBPATH_TEST_END).round() as usize;
                    jobs.push(Job {
                        trace,
                        start,
                        end,
                        dest: Dest::Test,
                    });
                }
            }
            D2Set::S5 => {
                if is_fixed {
                    jobs.push(Job {
                        trace,
                        start: 0,
                        end: n,
                        dest: Dest::TrainVal,
                    });
                } else {
                    jobs.push(Job {
                        trace,
                        start: 0,
                        end: n,
                        dest: Dest::Test,
                    });
                }
            }
            D2Set::S6 => {
                if is_fixed {
                    jobs.push(Job {
                        trace,
                        start: 0,
                        end: n,
                        dest: Dest::Test,
                    });
                } else {
                    jobs.push(Job {
                        trace,
                        start: 0,
                        end: n,
                        dest: Dest::TrainVal,
                    });
                }
            }
        }
    }
    assemble(jobs, spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::GenConfig;
    use crate::{generate_d1, generate_d2};

    fn tiny_d1() -> Dataset {
        generate_d1(&GenConfig {
            num_modules: 2,
            snapshots_per_trace: 10,
            ..GenConfig::default()
        })
    }

    fn tiny_d2() -> Dataset {
        generate_d2(&GenConfig {
            num_modules: 2,
            snapshots_per_trace: 12,
            ..GenConfig::default()
        })
    }

    #[test]
    fn table_i_position_sets() {
        assert_eq!(D1Set::S1.train_positions().len(), 9);
        assert_eq!(D1Set::S2.train_positions().len(), 5);
        assert_eq!(D1Set::S3.train_positions().len(), 5);
        // S2/S3 train and test sets are disjoint.
        for set in [D1Set::S2, D1Set::S3] {
            for p in set.test_positions() {
                assert!(!set.train_positions().contains(&p), "{set:?} overlaps");
            }
        }
        // S3 is the extrapolation set: max train position < min test.
        assert!(D1Set::S3.train_positions().iter().max() < D1Set::S3.test_positions().iter().min());
    }

    #[test]
    fn s1_is_a_time_split() {
        let ds = tiny_d1();
        let split = d1_split(&ds, D1Set::S1, &[1], &InputSpec::fast());
        // 2 modules × 9 positions × 10 snapshots = 180 per beamformee:
        // 80% train+val (of which 20% val), 20% test.
        assert_eq!(split.train.len() + split.val.len(), 144);
        assert_eq!(split.test.len(), 36);
        // Both modules appear in every part.
        for part in [&split.train, &split.val, &split.test] {
            let mut labels = part.y.clone();
            labels.sort_unstable();
            labels.dedup();
            assert_eq!(labels, vec![0, 1]);
        }
    }

    #[test]
    fn s3_test_positions_are_unseen() {
        let ds = tiny_d1();
        let split = d1_split(&ds, D1Set::S3, &[1], &InputSpec::fast());
        // 5 training positions × 2 modules × 10 snapshots.
        assert_eq!(split.train.len() + split.val.len(), 100);
        // 4 testing positions, full traces.
        assert_eq!(split.test.len(), 80);
    }

    #[test]
    fn mixed_beamformees_doubles_data() {
        let ds = tiny_d1();
        let single = d1_split(&ds, D1Set::S1, &[1], &InputSpec::fast());
        let mixed = d1_split(&ds, D1Set::S1, &[1, 2], &InputSpec::fast());
        assert_eq!(
            mixed.train.len() + mixed.val.len(),
            2 * (single.train.len() + single.val.len())
        );
    }

    #[test]
    fn cross_beamformee_split_separates_sources() {
        let ds = tiny_d1();
        let split = d1_cross_beamformee(&ds, 1, 2, &InputSpec::fast());
        // Train = bf1 80%, test = bf2 20%.
        assert_eq!(split.train.len() + split.val.len(), 144);
        assert_eq!(split.test.len(), 36);
    }

    #[test]
    fn d2_s4_uses_mobility_groups() {
        let ds = tiny_d2();
        let split = d2_split(&ds, D2Set::S4, &[2], &InputSpec::fast());
        // mob1: 4 traces × 12 snapshots × 2 modules = 96 train+val.
        assert_eq!(split.train.len() + split.val.len(), 96);
        // mob2: 3 traces × 12 × 2 = 72 test.
        assert_eq!(split.test.len(), 72);
    }

    #[test]
    fn d2_s5_s6_swap_train_and_test() {
        let ds = tiny_d2();
        let s5 = d2_split(&ds, D2Set::S5, &[2], &InputSpec::fast());
        let s6 = d2_split(&ds, D2Set::S6, &[2], &InputSpec::fast());
        assert_eq!(s5.train.len() + s5.val.len(), s6.test.len());
        assert_eq!(s6.train.len() + s6.val.len(), s5.test.len());
    }

    #[test]
    fn d2_subpath_takes_trace_fractions() {
        let ds = tiny_d2();
        let split = d2_split(&ds, D2Set::S4SubPath, &[2], &InputSpec::fast());
        // Train: first half of mob1 traces (6 of 12 snapshots each).
        assert_eq!(split.train.len() + split.val.len(), 2 * 4 * 6);
        // Test: (0.5, 0.8333] of mob2 traces (4 of 12 snapshots each).
        assert_eq!(split.test.len(), 2 * 3 * 4);
    }

    #[test]
    fn assembly_is_independent_of_the_thread_count() {
        // The S1 jobs of beamformee 1: 18 traces, each cut 80/20 into a
        // train+val range and a test range (36 jobs, so every thread
        // count below shards them differently).
        let ds = tiny_d1();
        let spec = InputSpec {
            stride: 4,
            ..InputSpec::default()
        };
        let mut jobs = Vec::new();
        for trace in ds.traces.iter().filter(|t| t.beamformee == 1) {
            let n = trace.len();
            let cut = ((n as f64) * TRAIN_FRACTION).round() as usize;
            jobs.push(Job {
                trace,
                start: 0,
                end: cut,
                dest: Dest::TrainVal,
            });
            jobs.push(Job {
                trace,
                start: cut,
                end: n,
                dest: Dest::Test,
            });
        }
        assert_eq!(jobs.len(), 36);

        // In-order serial reference: one `spec.tensor` per snapshot, job
        // by job, the tail VAL_FRACTION of each train range validating.
        let mut want = Split::default();
        for job in &jobs {
            let n = job.end - job.start;
            let n_train = ((n as f64) * (1.0 - VAL_FRACTION)).round() as usize;
            for (k, i) in (job.start..job.end).enumerate() {
                let x = spec.tensor(&job.trace.snapshots[i]);
                let y = job.trace.module.0 as usize;
                match job.dest {
                    Dest::Test => want.test.push(x, y),
                    Dest::TrainVal if k < n_train => want.train.push(x, y),
                    Dest::TrainVal => want.val.push(x, y),
                }
            }
        }
        assert_eq!(want.train.len() + want.val.len(), 144);
        assert_eq!(want.test.len(), 36);

        for threads in [1usize, 2, 3, 8] {
            assert_eq!(
                assemble_on(&jobs, &spec, threads),
                want,
                "threads={threads}"
            );
        }
        assert_eq!(d1_split(&ds, D1Set::S1, &[1], &spec), want);
    }

    #[test]
    fn beamformee1_in_d2_has_single_stream_inputs() {
        let ds = tiny_d2();
        let split = d2_split(&ds, D2Set::S4, &[1], &InputSpec::fast());
        // Stream-0-only input still has 5 channels and works for NSS=1.
        assert_eq!(split.train.x[0].shape()[0], 5);
    }
}
