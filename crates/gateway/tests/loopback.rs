//! End-to-end loopback determinism: synthesized collided traffic
//! streamed through the daemon must uplink **byte-identical** JSON
//! lines to a direct in-process `StreamingReceiver` decode of the same
//! wire-quantized samples — for 1 worker and 4 workers, across
//! multiplexed streams, including payload bytes, outcomes, and
//! sample-clock timestamps.

use std::time::Duration;

use tnb_gateway::uplink::{Line, LineKind};
use tnb_gateway::{Gateway, GatewayClient, GatewayConfig};
use tnb_phy::{CodingRate, LoRaParams, SpreadingFactor};
use tnb_sim::gateway::{run, HarnessConfig, Scene};

fn params() -> LoRaParams {
    LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR4)
}

fn kind(line: &str) -> Option<LineKind> {
    Line::parse(line).map(|l| l.kind)
}

fn check(workers: usize) {
    let streams = 2;
    let cfg = HarnessConfig {
        scene: Scene::Collided {
            streams,
            packets: 3,
        },
        workers,
        chunk: 32_768,
        seed: 7,
        ..HarnessConfig::new(params())
    };
    let outcome = run(&cfg).expect("loopback run");
    assert!(
        outcome.stats.packets_uplinked >= 2 * u64::from(streams),
        "expected ≥2 decodes per 3-packet collision per stream: {outcome:?}"
    );
    for s in 0..streams as usize {
        assert_eq!(
            outcome.daemon_lines[s], outcome.reference_lines[s],
            "stream {s} transcript diverged at {} workers",
            workers
        );
        // Spot-check the schema: uplinks carry sample-clock timestamps
        // and per-packet outcomes; the stream terminates with a report.
        let uplink = outcome.daemon_lines[s]
            .iter()
            .find(|l| kind(l) == Some(LineKind::Uplink))
            .expect("at least one uplink line");
        for key in [
            "\"tmst\":",
            "\"datr\":\"SF8CR4\"",
            "\"data\":\"",
            "\"outcome\":{",
        ] {
            assert!(uplink.contains(key), "missing {key} in {uplink}");
        }
        let end = outcome.daemon_lines[s].last().expect("end line");
        assert_eq!(kind(end), Some(LineKind::End), "{end}");
        assert!(end.contains("\"outcomes\":["), "{end}");
    }
    assert_eq!(outcome.stats.protocol_errors, 0, "{outcome:?}");
    assert_eq!(outcome.stats.worker_panics, 0, "{outcome:?}");
}

#[test]
fn loopback_byte_identical_one_worker() {
    check(1);
}

#[test]
fn loopback_byte_identical_four_workers() {
    check(4);
}

#[test]
fn stats_and_shutdown_verbs() {
    let gw = Gateway::spawn(("127.0.0.1", 0), GatewayConfig::new(params())).expect("bind");
    let addr = gw.local_addr();
    let mut c = GatewayClient::connect(addr, Duration::from_secs(5)).expect("connect");
    let samples = tnb_sim::gateway::collided_samples(params(), 7, 3);
    c.send_samples(0, &samples, 65_536).expect("stream");
    c.end_stream(0).expect("end");
    c.request_stats().expect("stats");
    c.request_shutdown().expect("shutdown");
    let lines = c.finish();

    let stats_line = lines
        .iter()
        .find(|l| kind(l) == Some(LineKind::Stats))
        .unwrap_or_else(|| panic!("no stats line in {lines:?}"));
    for key in [
        "\"gateway\":{",
        "\"report\":{",
        "\"metrics\":{",
        "\"packets_uplinked\":",
    ] {
        assert!(stats_line.contains(key), "missing {key} in {stats_line}");
    }

    // SHUTDOWN verb stops the whole daemon: join() returns promptly and
    // final counters are coherent.
    let final_stats = gw.join();
    assert_eq!(final_stats.connections_accepted, 1, "{final_stats:?}");
    assert_eq!(final_stats.connections_closed, 1, "{final_stats:?}");
    assert!(final_stats.packets_uplinked >= 2, "{final_stats:?}");
}
