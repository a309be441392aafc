//! `deepcsi-clusterd` — the distributed serving tier's process.
//!
//! Three subcommands, one wire protocol:
//!
//! ```text
//! deepcsi-clusterd node --listen ADDR
//!                  [--modules N] [--snapshots N] [--epochs N]
//!                  [--workers N] [--infer-threads N] [--queue N]
//!                  [--policy fixed|confidence|adaptive] [--drop]
//!                  [--max-devices N] [--snapshot-file PATH]
//!                  [--obs-listen ADDR]
//!
//! deepcsi-clusterd listen --listen ADDR --node ADDR [--node ADDR]...
//!                  [--queue N] [--drop]
//!
//! deepcsi-clusterd send --connect ADDR
//!                  [--modules N] [--snapshots N] [--epochs N]
//!                  [--repeat N] [--compare-local] [--shutdown]
//! ```
//!
//! * `node` trains the deterministic demo model (same recipe and seed
//!   as `deepcsi-served` — every node in a cluster independently
//!   arrives at identical weights), starts one engine behind a TCP
//!   listener, and serves until a client sends `SHUTDOWN`. With
//!   `--snapshot-file` the per-device policy state is restored at
//!   start (if the file exists) and written at shutdown, so a killed
//!   and restarted node resumes its learned `AdaptiveThreshold`
//!   floors instead of re-learning them. `--obs-listen` attaches the
//!   live observability plane with the tier's per-connection and
//!   per-shard counters on `/metrics` (scrape it with
//!   `obs-check --scrape`).
//! * `listen` runs the shard router: clients connect here, and each
//!   report fans out to `shard_of(source MAC, nodes)` — the engine's
//!   own shard function lifted across processes.
//! * `send` streams the demo replay at the given address (node or
//!   router — same protocol), drains, and prints the merged stats.
//!   `--compare-local` additionally runs the identical replay through
//!   an in-process engine and exits non-zero unless the cluster's
//!   merged per-device decisions are **byte-identical** to the
//!   single-process ones.
//!
//! Every listener prints `LISTENING <addr>` once ready (port `0`
//! picks a free port), so scripts can bind ephemerally and read the
//! address back.

use deepcsi_cluster::demo::{demo_dataset, demo_frames, demo_model, DemoConfig};
use deepcsi_cluster::{
    encode_drain_reply, ClusterClient, ClusterStats, DrainReply, EngineNode, RouterConfig,
    ShardRouter, WireDecision,
};
use deepcsi_serve::{
    Backpressure, DecisionPolicyConfig, Engine, EngineConfig, EngineSnapshot, ObsPlane,
    ObsPlaneConfig, PolicyKind, ReplaySource,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Poll interval while waiting for a shutdown request.
const POLL: Duration = Duration::from_millis(100);

fn usage() -> ! {
    eprintln!("usage: deepcsi-clusterd <node|listen|send> [flags] (see src/bin/clusterd.rs)");
    std::process::exit(2);
}

struct Flags {
    args: Vec<String>,
}

impl Flags {
    fn parse() -> (String, Flags) {
        let mut args: Vec<String> = std::env::args().skip(1).collect();
        if args.is_empty() {
            usage();
        }
        let cmd = args.remove(0);
        (cmd, Flags { args })
    }

    /// Every value of a repeatable `--flag VALUE`.
    fn all(&self, flag: &str) -> Vec<String> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < self.args.len() {
            if self.args[i] == flag {
                match self.args.get(i + 1) {
                    Some(v) => out.push(v.clone()),
                    None => {
                        eprintln!("{flag} expects a value");
                        usage();
                    }
                }
                i += 2;
            } else {
                i += 1;
            }
        }
        out
    }

    fn get(&self, flag: &str) -> Option<String> {
        self.all(flag).pop()
    }

    fn num<T: std::str::FromStr>(&self, flag: &str, default: T) -> T {
        match self.get(flag) {
            Some(v) => v.parse().unwrap_or_else(|_| {
                eprintln!("{flag}: invalid value {v:?}");
                usage();
            }),
            None => default,
        }
    }

    fn has(&self, flag: &str) -> bool {
        self.args.iter().any(|a| a == flag)
    }

    fn demo(&self) -> DemoConfig {
        DemoConfig {
            modules: self.num("--modules", 2),
            snapshots: self.num("--snapshots", 16),
            epochs: self.num("--epochs", 2),
        }
    }

    fn engine_config(&self) -> EngineConfig {
        let policy: PolicyKind = match self.get("--policy") {
            Some(v) => v.parse().unwrap_or_else(|e: String| {
                eprintln!("--policy: {e}");
                usage();
            }),
            None => PolicyKind::default(),
        };
        EngineConfig {
            workers: self.num("--workers", 2),
            infer_threads: self.num("--infer-threads", 1),
            queue_capacity: self.num("--queue", 1024),
            backpressure: if self.has("--drop") {
                Backpressure::DropNewest
            } else {
                Backpressure::Block
            },
            max_device_states: self.get("--max-devices").map(|v| {
                v.parse().unwrap_or_else(|_| {
                    eprintln!("--max-devices: invalid value {v:?}");
                    usage();
                })
            }),
            decision: DecisionPolicyConfig {
                kind: policy,
                ..DecisionPolicyConfig::default()
            },
            // The audit ring feeds `/audit/tail` on the plane; cheap
            // enough to keep on unconditionally.
            audit: Some(deepcsi_serve::AuditConfig::default()),
            ..EngineConfig::default()
        }
    }
}

fn main() {
    let (cmd, flags) = Flags::parse();
    match cmd.as_str() {
        "node" => run_node(&flags),
        "listen" => run_listen(&flags),
        "send" => run_send(&flags),
        "--help" | "-h" | "help" => usage(),
        other => {
            eprintln!("unknown subcommand {other:?}");
            usage();
        }
    }
}

fn run_node(flags: &Flags) {
    let listen = flags.get("--listen").unwrap_or_else(|| {
        eprintln!("node: --listen is required");
        usage();
    });
    let demo = flags.demo();
    let t = Instant::now();
    let ds = demo_dataset(&demo);
    let auth = demo_model(&demo, &ds);
    eprintln!(
        "node: trained demo model ({} modules, {:.1?})",
        demo.modules,
        t.elapsed()
    );
    let cfg = flags.engine_config();
    let engine = Arc::new(Engine::start_frozen(
        cfg,
        auth.freeze(),
        ReplaySource::registry(&ds),
    ));

    // Restore per-device policy state from a previous life, if any.
    let snapshot_file = flags.get("--snapshot-file");
    if let Some(path) = &snapshot_file {
        if std::path::Path::new(path).exists() {
            match EngineSnapshot::read_from(std::path::Path::new(path)) {
                Ok(snap) => {
                    let n = engine.restore(&snap);
                    eprintln!("node: restored {n} device states from {path}");
                }
                Err(e) => {
                    eprintln!("node: snapshot {path} unreadable ({e}); starting cold");
                }
            }
        }
    }

    let stats = Arc::new(ClusterStats::new(engine.config().workers));
    let plane = flags.get("--obs-listen").map(|addr| {
        let plane = ObsPlane::start(
            ObsPlaneConfig {
                listen: addr.clone(),
                extra: Some(stats.extra_metrics("node")),
                ..ObsPlaneConfig::default()
            },
            &engine,
        )
        .unwrap_or_else(|e| {
            eprintln!("node: binding observability listener {addr}: {e}");
            std::process::exit(1);
        });
        eprintln!("node: observability plane on http://{}", plane.local_addr());
        plane.set_ready(true);
        plane
    });

    let node =
        EngineNode::start(&listen, Arc::clone(&engine), Arc::clone(&stats)).unwrap_or_else(|e| {
            eprintln!("node: binding {listen}: {e}");
            std::process::exit(1);
        });
    println!("LISTENING {}", node.local_addr());

    while !node.shutdown_requested() {
        std::thread::sleep(POLL);
    }
    node.stop();
    if let Some(path) = &snapshot_file {
        match engine.snapshot().write_to(std::path::Path::new(path)) {
            Ok(()) => eprintln!("node: snapshot written to {path}"),
            Err(e) => eprintln!("node: writing snapshot {path}: {e}"),
        }
    }
    if let Some(plane) = plane {
        plane.set_ready(false);
        plane.shutdown();
    }
    let engine = Arc::try_unwrap(engine).unwrap_or_else(|_| {
        eprintln!("node: engine still shared at shutdown");
        std::process::exit(1);
    });
    let report = engine.shutdown();
    eprintln!("node: final stats: {}", report.stats);
}

fn run_listen(flags: &Flags) {
    let listen = flags.get("--listen").unwrap_or_else(|| {
        eprintln!("listen: --listen is required");
        usage();
    });
    let nodes = flags.all("--node");
    if nodes.is_empty() {
        eprintln!("listen: at least one --node is required");
        usage();
    }
    let stats = Arc::new(ClusterStats::new(nodes.len()));
    let router = ShardRouter::start(
        RouterConfig {
            listen,
            nodes,
            queue_capacity: flags.num("--queue", 1024),
            backpressure: if flags.has("--drop") {
                Backpressure::DropNewest
            } else {
                Backpressure::Block
            },
        },
        Arc::clone(&stats),
    )
    .unwrap_or_else(|e| {
        eprintln!("listen: {e}");
        std::process::exit(1);
    });
    println!("LISTENING {}", router.local_addr());
    while !router.shutdown_requested() {
        std::thread::sleep(POLL);
    }
    router.stop();
    eprintln!(
        "router: done ({} reports in, {} busy)",
        stats.reports_in.load(std::sync::atomic::Ordering::Relaxed),
        stats.busy.load(std::sync::atomic::Ordering::Relaxed),
    );
}

fn run_send(flags: &Flags) {
    let connect = flags.get("--connect").unwrap_or_else(|| {
        eprintln!("send: --connect is required");
        usage();
    });
    let demo = flags.demo();
    let repeat: usize = flags.num("--repeat", 1);
    let ds = demo_dataset(&demo);
    let frames = demo_frames(&ds);
    let mut client = ClusterClient::connect(&connect).unwrap_or_else(|e| {
        eprintln!("send: connecting {connect}: {e}");
        std::process::exit(1);
    });
    let t = Instant::now();
    for _ in 0..repeat {
        for (mac, mpdu) in &frames {
            if let Err(e) = client.send_report(*mac, mpdu) {
                eprintln!("send: write failed: {e}");
                std::process::exit(1);
            }
        }
    }
    let timeout = Duration::from_secs(flags.num("--drain-timeout", 120));
    let reply = if flags.has("--shutdown") {
        client.shutdown(timeout)
    } else {
        client.drain(timeout)
    }
    .unwrap_or_else(|e| {
        eprintln!("send: drain failed: {e}");
        std::process::exit(1);
    });
    let elapsed = t.elapsed();
    let counters = client.counters();
    println!(
        "sent {} reports ×{repeat} in {:.2?} ({:.0} reports/s)",
        counters.sent,
        elapsed,
        counters.sent as f64 / elapsed.as_secs_f64().max(1e-9),
    );
    println!(
        "cluster: ingested {} enqueued {} classified {} dropped {} busy {} devices {} (evicted {}, re-warmed {})",
        reply.stats.ingested,
        reply.stats.enqueued,
        reply.stats.classified,
        reply.stats.dropped,
        reply.stats.busy,
        reply.stats.device_states,
        reply.stats.devices_evicted,
        reply.stats.devices_rewarmed,
    );
    for d in &reply.decisions {
        println!(
            "  {}  {}  decided_at={:?}",
            d.mac,
            d.verdict.as_str(),
            d.decided_at
        );
    }

    if flags.has("--compare-local") {
        if compare_local(&demo, &ds, repeat, &reply) {
            println!("compare-local: OK — cluster verdicts byte-identical to single-process");
        } else {
            eprintln!("compare-local: MISMATCH — cluster verdicts differ from single-process");
            std::process::exit(1);
        }
    }
}

/// Runs the identical replay through an in-process engine and compares
/// the decision bytes.
fn compare_local(
    demo: &DemoConfig,
    ds: &deepcsi_data::Dataset,
    repeat: usize,
    reply: &DrainReply,
) -> bool {
    let auth = demo_model(demo, ds);
    let replay = ReplaySource::from_dataset(ds);
    let engine = Engine::start_frozen(
        EngineConfig {
            backpressure: Backpressure::Block,
            ..EngineConfig::default()
        },
        auth.freeze(),
        ReplaySource::registry(ds),
    );
    for _ in 0..repeat {
        for frame in replay.frames() {
            engine.ingest_frame(frame);
        }
    }
    engine.drain();
    let mut local: Vec<WireDecision> = engine
        .decisions()
        .iter()
        .map(WireDecision::from_engine)
        .collect();
    local.sort_by_key(|d| d.mac.octets());
    engine.shutdown();
    // Byte-level comparison through the wire encoding: the claim is
    // that what a cluster reports is indistinguishable from one
    // process.
    let wire = |decisions: &[WireDecision]| {
        encode_drain_reply(&DrainReply {
            stats: Default::default(),
            decisions: decisions.to_vec(),
        })
    };
    wire(&local) == wire(&reply.decisions)
}
