//! Workload set-up: synthetic capture, model and frozen snapshot, built
//! from the workload seed alone.

use deepcsi_core::{
    run_experiment, Authenticator, ExperimentConfig, FrozenAuthenticator, ModelConfig,
};
use deepcsi_data::{d1_split, generate_d1, D1Set, Dataset, GenConfig, InputSpec};
use deepcsi_frame::MacAddr;
use deepcsi_nn::TrainConfig;
use deepcsi_serve::{DeviceRegistry, ReplaySource};
use std::sync::Arc;
use std::time::Instant;

/// AP modules in every workload's capture: 4 modules × 2 beamformees
/// give 8 registered streams.
pub const MODULES: u32 = 4;

/// Demo-model training epochs (the `deepcsi-served` recipe's count).
const DEMO_EPOCHS: usize = 6;

/// The benchmark's named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Saturating capture replay through the demo recipe.
    ReplayDemo,
    /// Saturating capture replay through the paper architecture.
    ReplayPaper,
    /// Open-loop sounding rounds through the demo recipe.
    SoundingDemo,
}

impl Workload {
    /// Every workload the command accepts. `replay_paper` is left out of
    /// `BENCHMARK.json` because its figures swing too far between runs
    /// on a noisy host (see README.md).
    pub const ALL: [Workload; 3] = [
        Workload::ReplayDemo,
        Workload::ReplayPaper,
        Workload::SoundingDemo,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReplayDemo => "replay_demo",
            Workload::ReplayPaper => "replay_paper",
            Workload::SoundingDemo => "sounding_demo",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Soundings per D1 trace; the capture holds `72 ×` this many
    /// frames. The paper model's capture is smaller so that a replay
    /// pass stays short next to the run length.
    fn snapshots_per_trace(self) -> usize {
        match self {
            Workload::ReplayPaper => 5,
            Workload::ReplayDemo | Workload::SoundingDemo => 20,
        }
    }
}

/// Everything a workload serves from.
pub struct Prepared {
    /// The shared frozen model.
    pub frozen: Arc<FrozenAuthenticator>,
    /// The expected module of every stream.
    pub registry: DeviceRegistry,
    /// The capture as an in-memory radiotap pcap.
    pub pcap: Vec<u8>,
    /// The source address of every capture frame, in capture order.
    pub sources: Vec<MacAddr>,
}

/// Wall time of each set-up step, seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Synthetic D1 generation (`generate_d1`).
    pub generate_s: f64,
    /// Model preparation: `run_experiment` for the demo recipe, the
    /// seeded `ModelConfig::build` for the paper model.
    pub train_s: f64,
    /// Freezing plus capture export to pcap.
    pub freeze_s: f64,
    /// All of the above.
    pub total_s: f64,
}

/// Builds the workload's capture, model and registry from `seed`.
pub fn prepare(workload: Workload, seed: u64) -> (Prepared, SetupTimes) {
    let t0 = Instant::now();
    let ds = generate_d1(&GenConfig {
        env_id: seed,
        num_modules: MODULES,
        snapshots_per_trace: workload.snapshots_per_trace(),
        ..GenConfig::default()
    });
    let t1 = Instant::now();
    let auth = match workload {
        Workload::ReplayDemo | Workload::SoundingDemo => train_demo(&ds),
        Workload::ReplayPaper => paper_at_init(&ds, seed),
    };
    let t2 = Instant::now();
    let frozen = Arc::new(auth.freeze());
    let mut pcap = Vec::new();
    ReplaySource::from_dataset(&ds)
        .write_pcap(&mut pcap)
        .expect("writing a pcap into memory cannot fail");
    let registry = ReplaySource::registry(&ds);
    let sources = capture_order_sources(&ds);
    let t3 = Instant::now();
    let secs = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64();
    (
        Prepared {
            frozen,
            registry,
            pcap,
            sources,
        },
        SetupTimes {
            generate_s: secs(t0, t1),
            train_s: secs(t1, t2),
            freeze_s: secs(t2, t3),
            total_s: secs(t0, t3),
        },
    )
}

/// The `deepcsi-served` demo recipe: stride-4 inputs, the two-conv demo
/// model, trained on the S1 split of both beamformees.
fn train_demo(ds: &Dataset) -> Authenticator {
    let spec = InputSpec {
        stride: 4,
        ..InputSpec::default()
    };
    let split = d1_split(ds, D1Set::S1, &[1, 2], &spec);
    let model = ModelConfig::demo(ds.modules().len());
    let cfg = ExperimentConfig {
        model: model.clone(),
        train: TrainConfig {
            epochs: DEMO_EPOCHS,
            batch_size: 64,
            learning_rate: 2e-3,
            seed: 5,
            ..TrainConfig::default()
        },
    };
    let result = run_experiment(&cfg, &split);
    let shape = input_shape(&spec, ds);
    Authenticator::with_config(result.network, spec, model, shape)
}

/// The paper architecture over full-resolution inputs, at its seeded
/// initial weights (inference cost does not depend on weight values).
fn paper_at_init(ds: &Dataset, seed: u64) -> Authenticator {
    let spec = InputSpec::paper_default();
    let model = ModelConfig::paper(ds.modules().len(), seed);
    let shape = input_shape(&spec, ds);
    Authenticator::with_config(model.build(shape), spec, model, shape)
}

/// The stream of every frame `ReplaySource::from_dataset` encodes:
/// snapshot 0 of every trace, then snapshot 1, and so on.
fn capture_order_sources(ds: &Dataset) -> Vec<MacAddr> {
    let longest = ds.traces.iter().map(|t| t.len()).max().unwrap_or(0);
    (0..longest)
        .flat_map(|k| {
            ds.traces
                .iter()
                .filter(move |t| k < t.len())
                .map(ReplaySource::source_mac)
        })
        .collect()
}

fn input_shape(spec: &InputSpec, ds: &Dataset) -> (usize, usize, usize) {
    let probe = spec.tensor(&ds.traces[0].snapshots[0]);
    match probe.shape() {
        &[c, h, w] => (c, h, w),
        other => panic!("classifier input must be rank 3, got {other:?}"),
    }
}
