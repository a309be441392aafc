//! The serial pass: the workload's frames run one call at a time
//! through each layer's public functions, sharded and batched the way
//! the engine shards and batches them. Every call gets a span, and the
//! per-frame outputs are the correctness reference for the engine runs.

use crate::spans::{self_time_by_name, Trace};
use deepcsi_capture::{FrameSource, PcapFileSource, SourcePoll};
use deepcsi_core::FrozenAuthenticator;
use deepcsi_data::clean_phase_offsets;
use deepcsi_frame::{BeamformingReportFrame, MacAddr};
use deepcsi_nn::{InferPool, Tensor, PAR_MIN_CHUNK};
use deepcsi_obs::{OpStat, Profiler};
use deepcsi_serve::{
    shard_of, DecisionPolicy, DeviceDecision, DeviceRegistry, PolicyState, Verdict,
};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// The classifier's verdict input for one captured frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Output {
    /// The reporting stream.
    pub source: MacAddr,
    /// Predicted module.
    pub module: usize,
    /// Softmax probability of the predicted module.
    pub confidence: f64,
}

/// Work counts of one serial pass, next to its spans.
#[derive(Debug, Default)]
pub struct Counts {
    /// Frames delivered by the capture layer.
    pub frames: u64,
    /// Reports pushed through parse → infer → policy.
    pub reports: u64,
    /// Units (replay passes or sounding rounds) processed.
    pub units: u64,
    /// Size of every inference batch.
    pub batch_sizes: Vec<usize>,
    /// Reports inferred outside a full lane block.
    pub ragged_reports: u64,
    /// Subcarriers rebuilt by `reconstruct`.
    pub reconstructed: u64,
    /// Subcarriers kept in the input tensors.
    pub kept: u64,
}

/// The result of a serial pass.
pub struct SerialPass {
    /// The capture's MPDUs, by frame index.
    pub mpdus: Vec<Vec<u8>>,
    /// Output of every capture frame, by frame index.
    pub outputs: Vec<Output>,
    /// Every call's span.
    pub trace: Trace,
    /// Work counts.
    pub counts: Counts,
    /// Per-op inference profile.
    pub ops: Vec<OpStat>,
}

impl SerialPass {
    /// Self time per span name, nanoseconds.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        self_time_by_name(self.trace.spans())
    }
}

/// The engine settings the serial pass mirrors.
pub struct Mirror<'a> {
    /// The served snapshot.
    pub frozen: &'a FrozenAuthenticator,
    /// The engine's decision policy.
    pub policy: Arc<dyn DecisionPolicy>,
    /// The engine's registry.
    pub registry: &'a DeviceRegistry,
    /// Engine worker (shard) count.
    pub workers: usize,
    /// Engine micro-batch cap.
    pub max_batch: usize,
}

/// Runs the capture in `pcap` through every layer. `units` lists the
/// frame indices the generator sends before each `drain` — one unit
/// per replay pass or sounding round. Within a unit, reports queue per
/// shard and a shard's batch departs when it reaches `max_batch`; the
/// unit's end flushes every shard, as `drain` does.
///
/// # Panics
///
/// Panics when a capture frame fails to decode: the benchmark's own
/// captures are valid by construction.
pub fn run(mirror: &Mirror<'_>, pcap: &[u8], units: &[Vec<usize>], trace: Trace) -> SerialPass {
    let mut pass = SerialPass {
        mpdus: Vec::new(),
        outputs: Vec::new(),
        trace,
        counts: Counts::default(),
        ops: Vec::new(),
    };
    let mpdus = pass.trace.span("serial.capture", 0, |t| poll_all(pcap, t));
    pass.counts.frames = mpdus.len() as u64;
    let mut outputs: Vec<Option<Output>> = vec![None; mpdus.len()];
    let mut pool = InferPool::new(1);
    pool.set_profilers(vec![Profiler::new()]);
    let mut states: HashMap<MacAddr, (Box<dyn PolicyState>, bool)> = HashMap::new();
    for (u, unit) in units.iter().enumerate() {
        pass.counts.units += 1;
        let mut run_unit = |t: &mut Trace| {
            let mut shards: Vec<Vec<Pending>> = (0..mirror.workers).map(|_| Vec::new()).collect();
            for &i in unit {
                let pending = prepare_report(mirror, &mpdus[i], i, t, &mut pass.counts);
                let shard = shard_of(pending.source, mirror.workers);
                shards[shard].push(pending);
                if shards[shard].len() == mirror.max_batch {
                    let batch = std::mem::take(&mut shards[shard]);
                    infer_and_decide(
                        mirror,
                        batch,
                        &mut pool,
                        &mut states,
                        &mut outputs,
                        t,
                        &mut pass.counts,
                    );
                }
            }
            for shard in &mut shards {
                if !shard.is_empty() {
                    let batch = std::mem::take(shard);
                    infer_and_decide(
                        mirror,
                        batch,
                        &mut pool,
                        &mut states,
                        &mut outputs,
                        t,
                        &mut pass.counts,
                    );
                }
            }
        };
        pass.trace.span("serial.unit", u as u64, &mut run_unit);
    }
    pass.ops = pool.profile_table();
    pass.outputs = outputs
        .into_iter()
        .enumerate()
        .map(|(i, o)| o.unwrap_or_else(|| panic!("frame {i} is in no unit")))
        .collect();
    pass.mpdus = mpdus;
    pass
}

/// A parsed report waiting in its shard's batch.
struct Pending {
    frame: usize,
    source: MacAddr,
    tensor: Tensor,
}

/// Every candidate frame of the capture, one `poll_frame` span each.
fn poll_all(pcap: &[u8], t: &mut Trace) -> Vec<Vec<u8>> {
    let mut source = PcapFileSource::from_bytes(pcap.to_vec());
    let mut mpdus = Vec::new();
    loop {
        let request = mpdus.len() as u64;
        match t.span("capture.poll_frame", request, |_| source.poll_frame()) {
            Ok(SourcePoll::Frame(frame)) => mpdus.push(frame.mpdu),
            Ok(SourcePoll::End) => break,
            Ok(SourcePoll::Pending) => unreachable!("in-memory captures never pend"),
            Err(e) => panic!("the benchmark's capture must decode: {e}"),
        }
    }
    mpdus
}

/// Frame → feedback → Ṽ → input tensor for frame `i`, one span per
/// layer call.
fn prepare_report(
    mirror: &Mirror<'_>,
    mpdu: &[u8],
    i: usize,
    t: &mut Trace,
    counts: &mut Counts,
) -> Pending {
    let request = i as u64;
    let (source, feedback) = t.span("frame.parse", request, |_| {
        let frame = BeamformingReportFrame::parse(mpdu).expect("benchmark frames decode");
        (frame.source(), frame.into_feedback())
    });
    let spec = mirror.frozen.spec();
    let compatible = t.span("data.tensorize", request, |_| spec.compatible(&feedback));
    assert!(
        compatible,
        "benchmark frame {i} does not fit the model's input spec"
    );
    let mut series = t.span("bfi.reconstruct", request, |_| feedback.reconstruct());
    let tensor = t.span("data.tensorize", request, |_| {
        if spec.offset_cleaning {
            clean_phase_offsets(&mut series);
        }
        spec.tensor_from_series(&series, feedback.mimo.m_tx(), feedback.mimo.n_ss())
    });
    counts.reports += 1;
    counts.reconstructed += series.len() as u64;
    counts.kept += tensor.shape().last().copied().unwrap_or(0) as u64;
    Pending {
        frame: i,
        source,
        tensor,
    }
}

/// One shard batch through the model and the decision policy.
fn infer_and_decide(
    mirror: &Mirror<'_>,
    batch: Vec<Pending>,
    pool: &mut InferPool,
    states: &mut HashMap<MacAddr, (Box<dyn PolicyState>, bool)>,
    outputs: &mut [Option<Output>],
    t: &mut Trace,
    counts: &mut Counts,
) {
    let request = batch[0].frame as u64;
    let (reports, tensors): (Vec<(usize, MacAddr)>, Vec<Tensor>) = batch
        .into_iter()
        .map(|p| ((p.frame, p.source), p.tensor))
        .unzip();
    let logits = t.span("nn.infer_batch", request, |_| {
        pool.infer_batch(mirror.frozen.model(), &tensors)
    });
    counts.batch_sizes.push(reports.len());
    counts.ragged_reports += (reports.len() % PAR_MIN_CHUNK) as u64;
    t.span("serve.policy", request, |_| {
        for (&(frame, source), y) in reports.iter().zip(&logits) {
            let output = Output {
                source,
                module: y.argmax(),
                confidence: softmax_peak(y.as_slice()),
            };
            outputs[frame] = Some(output);
            let (state, decided) = states
                .entry(source)
                .or_insert_with(|| (mirror.policy.new_state(), false));
            state.push(output.module, output.confidence);
            if !*decided {
                let expected = mirror.registry.expected(source).map(|d| d.0 as usize);
                *decided = state.verdict(expected) != Verdict::Unknown;
            }
        }
    });
}

/// The softmax probability of the winning logit, computed as the
/// engine computes the confidence it feeds its policy.
pub fn softmax_peak(logits: &[f32]) -> f64 {
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let sum: f64 = logits.iter().map(|&v| f64::from(v - max).exp()).sum();
    1.0 / sum
}

/// One device's expected final decision.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    /// Majority module, once any report landed.
    pub module: Option<usize>,
    /// Reports observed.
    pub observations: u64,
    /// Final verdict.
    pub verdict: Verdict,
    /// Observations at the first decisive verdict.
    pub decided_at: Option<u64>,
}

/// The final decision of every registered device after the frames
/// `sent` (in send order) reach a fresh policy state each, given the
/// serial pass's per-frame `outputs`.
pub fn reference(
    outputs: &[Output],
    sent: impl IntoIterator<Item = usize>,
    policy: &dyn DecisionPolicy,
    registry: &DeviceRegistry,
) -> BTreeMap<MacAddr, Expected> {
    let expected_of = |mac: MacAddr| registry.expected(mac).map(|d| d.0 as usize);
    let mut states: BTreeMap<MacAddr, (Box<dyn PolicyState>, Option<u64>)> = BTreeMap::new();
    for i in sent {
        let o = outputs[i];
        let (state, decided_at) = states
            .entry(o.source)
            .or_insert_with(|| (policy.new_state(), None));
        state.push(o.module, o.confidence);
        if decided_at.is_none() && state.verdict(expected_of(o.source)) != Verdict::Unknown {
            *decided_at = state.decision().map(|d| d.observations);
        }
    }
    let mut out: BTreeMap<MacAddr, Expected> = states
        .into_iter()
        .map(|(mac, (state, decided_at))| {
            let decision = state.decision();
            let exp = Expected {
                module: decision.as_ref().map(|d| d.module),
                observations: decision.as_ref().map_or(0, |d| d.observations),
                verdict: state.verdict(expected_of(mac)),
                decided_at,
            };
            (mac, exp)
        })
        .collect();
    for (mac, _) in registry.iter() {
        out.entry(mac).or_insert(Expected {
            module: None,
            observations: 0,
            verdict: Verdict::Unknown,
            decided_at: None,
        });
    }
    out
}

/// Compares the engine's final decisions with the reference; returns
/// one line per disagreement.
pub fn compare(engine: &[DeviceDecision], expected: &BTreeMap<MacAddr, Expected>) -> Vec<String> {
    let mut problems = Vec::new();
    if engine.len() != expected.len() {
        problems.push(format!(
            "engine reports {} devices, reference {}",
            engine.len(),
            expected.len()
        ));
    }
    for d in engine {
        let got = Expected {
            module: d.decision.as_ref().map(|w| w.module),
            observations: d.decision.as_ref().map_or(0, |w| w.observations),
            verdict: d.verdict,
            decided_at: d.decided_at,
        };
        match expected.get(&d.source) {
            Some(want) if *want == got => {}
            Some(want) => {
                problems.push(format!("{}: engine {got:?}, reference {want:?}", d.source))
            }
            None => problems.push(format!("{}: not in the reference", d.source)),
        }
    }
    problems
}
