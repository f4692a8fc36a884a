//! Chaos soak: the full `NetFaultPlan::matrix` against a live daemon,
//! driven through the `ChaosProxy` by the `ResilientClient`. Under
//! every injector the daemon must never panic, the counters must
//! account for the faults, and — since every matrix scenario is
//! recoverable by construction (destructive faults are one-shot) — the
//! uplink transcript must be byte-identical to a fault-free run.

use tnb_gateway::NetFaultPlan;
use tnb_phy::{CodingRate, LoRaParams, SpreadingFactor};
use tnb_sim::gateway::{run, HarnessConfig, HarnessOutcome, Scene, FAULT_CHUNK};

/// One scenario's outcome, with the plan fields the checks read.
struct Row {
    scenario: &'static str,
    recoverable: bool,
    parity: bool,
    reconnects: u64,
    resent: u64,
    proxy_faults: u64,
    stats: tnb_gateway::GatewayStatsSnapshot,
}

impl Row {
    fn new(cfg: &HarnessConfig, run: &HarnessOutcome) -> Row {
        let plan = cfg.faults.as_ref().expect("fault matrix runs carry a plan");
        Row {
            scenario: plan.name,
            recoverable: plan.recoverable,
            parity: run.byte_identical(),
            reconnects: run.client.reconnects,
            resent: run.client.retransmitted_frames,
            proxy_faults: run.proxy_faults,
            stats: run.stats,
        }
    }
}

#[test]
fn chaos_matrix_never_panics_and_recovers_byte_identically() {
    let base = HarnessConfig {
        scene: Scene::Collided {
            streams: 1,
            packets: 2,
        },
        chunk: FAULT_CHUNK,
        ..HarnessConfig::new(LoRaParams::new(SpreadingFactor::SF7, CodingRate::CR4))
    };
    let rows: Vec<Row> = NetFaultPlan::matrix(1)
        .into_iter()
        .map(|plan| {
            let cfg = HarnessConfig {
                faults: Some(plan),
                ..base.clone()
            };
            Row::new(&cfg, &run(&cfg).expect("chaos scenario runs"))
        })
        .collect();
    assert_eq!(rows.len(), 8, "every matrix scenario ran");
    for row in &rows {
        assert_eq!(
            row.stats.worker_panics, 0,
            "{}: no contained panics either",
            row.scenario
        );
        assert!(
            row.recoverable,
            "{}: matrix plans are recoverable",
            row.scenario
        );
        assert!(
            row.parity,
            "{}: transcript must be byte-identical to a clean run \
             (reconnects={} resent={} stats={:?})",
            row.scenario, row.reconnects, row.resent, row.stats
        );
    }
    // The clean scenario needs no recovery machinery at all…
    let clean = &rows[0];
    assert_eq!(clean.reconnects, 0, "clean run never reconnects");
    assert_eq!(clean.stats.sessions_parked, 0);
    assert_eq!(clean.proxy_faults, 0);
    // …while every destructive scenario exercised park/resume and the
    // counters account for the recovery: a fault fired, the session
    // parked and resumed, and the resent frames show up on both sides.
    for row in rows.iter().filter(|r| {
        matches!(
            r.scenario,
            "disconnect-mid-frame" | "bitflip" | "split+disconnect" | "coalesce+bitflip"
        )
    }) {
        assert!(row.proxy_faults >= 1, "{}: fault must fire", row.scenario);
        assert!(
            row.reconnects >= 1,
            "{}: destructive faults force a reconnect",
            row.scenario
        );
        assert!(
            row.stats.sessions_parked >= 1 && row.stats.sessions_resumed >= 1,
            "{}: park/resume must run: {:?}",
            row.scenario,
            row.stats
        );
        assert!(
            row.resent >= 1,
            "{}: the unacked tail must be retransmitted",
            row.scenario
        );
        // Stale retransmissions the daemon dropped are visible in its
        // counters, never decoded twice (parity above proves that).
        assert!(
            row.stats.retransmitted_frames + row.stats.seq_dups + row.resent
                >= row.stats.retransmitted_frames,
            "{}: accounting holds",
            row.scenario
        );
    }
    // Content-transparent scenarios must not trip the recovery path.
    for row in rows
        .iter()
        .filter(|r| matches!(r.scenario, "split-writes" | "coalesced-reads" | "stall"))
    {
        assert_eq!(
            row.stats.protocol_errors, 0,
            "{}: segmentation/timing chaos is invisible to the wire layer",
            row.scenario
        );
    }
}
