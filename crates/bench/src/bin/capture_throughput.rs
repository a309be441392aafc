//! Capture-layer parse throughput: frames/s and bytes/s through the
//! pcap and pcapng readers (container + radiotap + pre-filter) on a
//! generated multi-device capture, plus the end-to-end file → engine
//! path. Machine-readable `RESULT capture …` lines are collected by
//! `run_all` into `BENCH_capture.json`.

use deepcsi_bench::result_line;
use deepcsi_bench::serve_bench::{serve_authenticator, serve_dataset};
use deepcsi_capture::{
    dot11_payload, is_beamforming_candidate, FrameSource, PcapFileSource, PcapReader, PcapngReader,
    SourcePoll,
};
use deepcsi_serve::{Backpressure, Engine, EngineConfig, ReplaySource, SourceStatus};
use std::time::Instant;

fn main() {
    let mut quick = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--tiny" | "--quick" => quick = true,
            other => eprintln!("ignoring unknown argument {other:?}"),
        }
    }
    let (modules, snapshots, reps) = if quick { (2, 10, 3) } else { (4, 50, 10) };

    let ds = serve_dataset(modules, snapshots);
    let replay = ReplaySource::from_dataset(&ds);
    let mut pcap = Vec::new();
    replay.write_pcap(&mut pcap).expect("in-memory export");
    let mut pcapng = Vec::new();
    replay.write_pcapng(&mut pcapng).expect("in-memory export");
    println!(
        "capture: {} frames from {} modules — pcap {:.2} MiB, pcapng {:.2} MiB",
        replay.len(),
        modules,
        mib(pcap.len()),
        mib(pcapng.len()),
    );

    println!("\n== container parse (read + radiotap + pre-filter) ==");
    measure_parse("pcap", &pcap, replay.len(), reps, |image| {
        PcapReader::new(image)
            .expect("valid header")
            .map(|r| r.expect("valid record"))
            .filter(|rec| {
                let (mpdu, _) = dot11_payload(rec.link_type, rec.data).expect("radiotap");
                is_beamforming_candidate(mpdu)
            })
            .count()
    });
    measure_parse("pcapng", &pcapng, replay.len(), reps, |image| {
        PcapngReader::new(image)
            .expect("valid SHB")
            .map(|r| r.expect("valid block"))
            .filter(|rec| {
                let (mpdu, _) = dot11_payload(rec.link_type, rec.data).expect("radiotap");
                is_beamforming_candidate(mpdu)
            })
            .count()
    });

    println!("\n== frame source (decode + copy out) ==");
    measure_parse("file_source", &pcap, replay.len(), reps, |image| {
        let mut src = PcapFileSource::from_bytes(image.to_vec());
        let mut n = 0usize;
        while let SourcePoll::Frame(_) = src.poll_frame().expect("valid capture") {
            n += 1;
        }
        n
    });

    println!("\n== end-to-end: pcap file → engine verdicts ==");
    let engine = Engine::start_frozen(
        EngineConfig {
            backpressure: Backpressure::Block,
            ..EngineConfig::default()
        },
        serve_authenticator(&ds, ds.modules().len().max(2)).freeze(),
        ReplaySource::registry(&ds),
    );
    let t = Instant::now();
    let mut src = PcapFileSource::from_bytes(pcap.clone());
    assert_eq!(
        engine.ingest_available(&mut src).expect("capture serves"),
        SourceStatus::End
    );
    engine.drain();
    let elapsed = t.elapsed().as_secs_f64();
    let report = engine.shutdown();
    let rps = report.stats.classified as f64 / elapsed;
    println!(
        "engine: {:>9.0} reports/s ({:>6.1} MiB/s) over {:.2?}",
        rps,
        mib(pcap.len()) / elapsed,
        t.elapsed()
    );
    result_line("capture", "engine_reports_per_sec", rps);
    result_line("capture", "engine_mib_per_sec", mib(pcap.len()) / elapsed);
}

fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// Times `parse(image)` over `reps` repetitions, checks it found every
/// frame, and reports frames/s + MiB/s.
fn measure_parse(
    name: &str,
    image: &[u8],
    frames: usize,
    reps: usize,
    parse: impl Fn(&[u8]) -> usize,
) {
    let found = parse(image); // warm-up + correctness
    assert_eq!(found, frames, "{name} parse missed frames");
    let t = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(parse(std::hint::black_box(image)));
    }
    let per_pass = t.elapsed().as_secs_f64() / reps as f64;
    let fps = frames as f64 / per_pass;
    let mibps = mib(image.len()) / per_pass;
    println!("{name:<12} {fps:>10.0} frames/s  {mibps:>7.1} MiB/s");
    result_line("capture", &format!("{name}_frames_per_sec"), fps);
    result_line("capture", &format!("{name}_mib_per_sec"), mibps);
}
