//! Regression tests for the [`DecodeReport`] accounting invariant:
//! `detected == decoded + degraded()` with exactly one outcome per
//! detected packet, across clean decodes, degraded decodes, and merges.

use tnb_channel::trace::{PacketConfig, TraceBuilder};
use tnb_core::{DecodeReport, PipelineMetrics, TnbReceiver};
use tnb_phy::{CodingRate, LoRaParams, SpreadingFactor};

fn params() -> LoRaParams {
    LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR4)
}

#[test]
fn accounting_balances_for_mixed_outcomes() {
    let p = params();
    let l = p.samples_per_symbol();
    let mut b = TraceBuilder::new(p, 33).without_noise();
    b.add_packet(
        &[0x11; 16],
        PacketConfig {
            start_sample: 2_000,
            snr_db: 10.0,
            ..Default::default()
        },
    );
    b.add_packet(
        &[0x22; 16],
        PacketConfig {
            start_sample: 2_000 + 9 * l + 300,
            snr_db: 8.0,
            cfo_hz: 1200.0,
            ..Default::default()
        },
    );
    // A third packet that runs off the end of the trace degrades as
    // truncated, so the report mixes decoded and degraded outcomes.
    b.add_packet(
        &[0x33; 16],
        PacketConfig {
            start_sample: 2_000 + 30 * l,
            snr_db: 10.0,
            ..Default::default()
        },
    );
    let t = b.build();
    let cut = &t.samples()[..2_000 + 30 * l + p.preamble_samples() + 10 * l];
    let rx = TnbReceiver::new(p);
    let (decoded, report) = rx.decode_observed(&[cut], &PipelineMetrics::disabled());
    assert!(report.detected >= 2, "{report:?}");
    assert!(report.accounting_ok(), "{report:?}");
    assert_eq!(report.outcomes.len(), report.detected);
    assert_eq!(report.decoded, decoded.len());
    assert_eq!(report.decoded + report.degraded(), report.detected);
}

#[test]
fn accounting_balances_on_empty_and_clean_traces() {
    let p = params();
    let rx = TnbReceiver::new(p);

    let quiet = vec![tnb_dsp::Complex32::ZERO; 40_000];
    let (_, report) = rx.decode_observed(&[&quiet], &PipelineMetrics::disabled());
    assert_eq!(report.detected, 0);
    assert!(report.accounting_ok(), "{report:?}");

    let mut b = TraceBuilder::new(p, 7).without_noise();
    b.add_packet(
        &[0xA5; 12],
        PacketConfig {
            start_sample: 5_000,
            snr_db: 0.0,
            ..Default::default()
        },
    );
    let t = b.build();
    let (decoded, report) = rx.decode_observed(&[t.samples()], &PipelineMetrics::disabled());
    assert_eq!(decoded.len(), 1);
    assert!(report.accounting_ok(), "{report:?}");
}

#[test]
fn outcome_json_carries_per_packet_reasons() {
    use tnb_core::{DecodeOutcome, DegradeReason};
    let decoded = DecodeOutcome::Decoded {
        start: 4000.0,
        pass: 1,
    };
    assert_eq!(
        decoded.to_json(),
        "{\"status\":\"decoded\",\"start\":4000,\"pass\":1}"
    );
    assert_eq!(decoded.start(), 4000.0);
    let degraded = DecodeOutcome::Degraded {
        start: 123.5,
        reason: DegradeReason::Header,
    };
    assert_eq!(
        degraded.to_json(),
        "{\"status\":\"degraded\",\"start\":123.5,\"reason\":\"header\"}"
    );

    let report = DecodeReport {
        detected: 2,
        decoded: 1,
        header_failures: 1,
        outcomes: vec![decoded, degraded],
        ..DecodeReport::default()
    };
    assert!(report.accounting_ok());
    let json = report.to_json();
    assert!(
        json.contains("\"outcomes\":[{\"status\":\"decoded\""),
        "{json}"
    );
    assert!(json.contains("\"reason\":\"header\""), "{json}");
    assert!(json.contains("\"detected\":2"), "{json}");
    assert_eq!(report.outcomes_json().matches("status").count(), 2);
}

#[test]
fn absorb_preserves_accounting() {
    let p = params();
    let rx = TnbReceiver::new(p);
    let mut total = DecodeReport::default();
    assert!(total.accounting_ok());
    for (payload, start) in [(0x0Fu8, 3_000usize), (0xF0, 9_000)] {
        let mut b = TraceBuilder::new(p, 11).without_noise();
        b.add_packet(
            &[payload; 16],
            PacketConfig {
                start_sample: start,
                snr_db: 0.0,
                ..Default::default()
            },
        );
        let t = b.build();
        let (_, report) = rx.decode_observed(&[t.samples()], &PipelineMetrics::disabled());
        assert!(report.accounting_ok(), "{report:?}");
        total.absorb(&report);
    }
    assert_eq!(total.detected, 2);
    assert_eq!(total.outcomes.len(), 2);
    assert!(total.accounting_ok(), "{total:?}");
}
