//! SIC determinism and rescue-regression tests: the near-far collision
//! trace must decode byte-identically in the unclustered reference, the
//! receiver at any worker count and the streaming receiver (any
//! chunking) with SIC on, and SIC must rescue the weak packet where
//! plain TnB provably fails.

mod common;

use tnb_channel::trace::{PacketConfig, TraceBuilder};
use tnb_core::streaming::{StreamingConfig, StreamingReceiver};
use tnb_core::{DecodeReport, SicConfig, TnbConfig};
use tnb_dsp::Complex32;
use tnb_phy::{CodingRate, LoRaParams, SpreadingFactor};

fn params() -> LoRaParams {
    LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR4)
}

fn sic_on() -> TnbConfig {
    TnbConfig {
        sic: SicConfig {
            enabled: true,
            ..SicConfig::default()
        },
        ..TnbConfig::default()
    }
}

/// Near-far scene: a weak packet whose preamble lands in the middle of a
/// strong collider `delta_db` louder, so the weak preamble is buried at
/// detection time and only subtraction of the strong packet reveals it.
fn near_far_trace(
    p: LoRaParams,
    seed: u64,
    weak_snr_db: f32,
    delta_db: f32,
) -> (Vec<Complex32>, Vec<u8>, Vec<u8>) {
    let l = p.samples_per_symbol();
    let weak_payload = vec![0x57u8; 16];
    let strong_payload = vec![0xA5u8; 16];
    let mut b = TraceBuilder::new(p, seed);
    b.add_packet(
        &strong_payload,
        PacketConfig {
            start_sample: 4_000,
            snr_db: weak_snr_db + delta_db,
            cfo_hz: -1_800.0,
            frac_delay: 0.41,
            node_id: 1,
            ..Default::default()
        },
    );
    b.add_packet(
        &weak_payload,
        PacketConfig {
            start_sample: 4_000 + 3 * l + l / 3,
            snr_db: weak_snr_db,
            cfo_hz: 2_400.0,
            frac_delay: 0.73,
            node_id: 2,
            ..Default::default()
        },
    );
    (b.build().samples().to_vec(), weak_payload, strong_payload)
}

/// Serializes everything a report carries (counts, per-packet outcomes,
/// deterministic stage counters) so byte-equality means full equality.
fn report_json(r: &DecodeReport) -> String {
    format!("{} {:?}", r.to_json(), r.stages)
}

fn decode_streaming(
    p: LoRaParams,
    trace: &[Complex32],
    chunk: usize,
    workers: usize,
) -> (Vec<Vec<u8>>, DecodeReport) {
    let mut rx = StreamingReceiver::with_config(
        p,
        StreamingConfig {
            receiver: sic_on(),
            workers,
            ..StreamingConfig::default()
        },
    );
    let mut payloads = Vec::new();
    for c in trace.chunks(chunk) {
        payloads.extend(rx.push(c).into_iter().map(|d| d.payload));
    }
    payloads.extend(rx.finish().into_iter().map(|d| d.payload));
    (payloads, rx.report())
}

#[test]
fn near_far_reports_byte_identical_across_receivers() {
    let p = params();
    let (trace, weak, strong) = near_far_trace(p, 42, 3.0, 15.0);

    let (ref_decoded, ref_report) = common::reference(p, sic_on(), &trace);
    let reference = report_json(&ref_report);
    let payloads: Vec<Vec<u8>> = ref_decoded.iter().map(|d| d.payload.clone()).collect();
    assert!(payloads.contains(&weak) && payloads.contains(&strong));

    for workers in [1usize, 2, 8] {
        let (decoded, report) = common::decode(p, sic_on(), workers, &trace);
        assert_eq!(report_json(&report), reference, "workers={workers}");
        let got: Vec<Vec<u8>> = decoded.iter().map(|d| d.payload.clone()).collect();
        assert_eq!(got, payloads, "workers={workers}");
    }

    // Streaming: an odd chunk size and a power of two. The trace is
    // shorter than the streaming window, so the whole decode happens in
    // `finish` over the identical buffer — chunking must not matter.
    for chunk in [7_777usize, 65_536] {
        let (payloads_s, report_s) = decode_streaming(p, &trace, chunk, 2);
        assert_eq!(report_json(&report_s), reference, "chunk={chunk}");
        assert_eq!(payloads_s, payloads, "chunk={chunk}");
    }
}

#[test]
fn sic_rescues_where_plain_tnb_fails() {
    let p = params();
    // ΔSNR = 15 dB and up: the weak preamble is buried below the
    // detector's threshold under the strong collider.
    for delta in [15.0f32, 18.0] {
        let (trace, weak, strong) = near_far_trace(p, 42, 3.0, delta);

        let (plain_decoded, plain_report) = common::decode(p, TnbConfig::default(), 1, &trace);
        assert!(
            !plain_decoded.iter().any(|d| d.payload == weak),
            "plain TnB unexpectedly decodes the weak packet at delta={delta}"
        );
        assert!(plain_decoded.iter().any(|d| d.payload == strong));
        assert_eq!(plain_report.second_pass_rescues, 0);

        let (sic_decoded, sic_report) = common::decode(p, sic_on(), 1, &trace);
        let rescued = sic_decoded
            .iter()
            .find(|d| d.payload == weak)
            .unwrap_or_else(|| panic!("SIC failed to rescue the weak packet at delta={delta}"));
        assert_eq!(rescued.pass, 3, "rescue must be recorded as pass 3");
        assert!(sic_report.second_pass_rescues > 0, "delta={delta}");
        assert!(sic_report.stages.sic_rescues > 0);
        assert!(sic_report.stages.sic_subtracted > 0);
        assert_eq!(
            sic_report.detected,
            sic_report.decoded + sic_report.degraded()
        );
    }
}

#[test]
fn sic_off_is_unchanged_and_clean_traces_match() {
    // On a trace where nothing needs rescuing, SIC-on must be
    // bit-identical to SIC-off (failed re-detections are dropped, decoded
    // packets keep their pass-1 labels).
    let p = params();
    let mut b = TraceBuilder::new(p, 9);
    b.add_packet(
        &[0x11u8; 16],
        PacketConfig {
            start_sample: 5_000,
            snr_db: 12.0,
            cfo_hz: 900.0,
            ..Default::default()
        },
    );
    let trace = b.build().samples().to_vec();
    let (d_off, r_off) = common::decode(p, TnbConfig::default(), 1, &trace);
    let (d_on, r_on) = common::decode(p, sic_on(), 1, &trace);
    assert_eq!(d_off.len(), d_on.len());
    for (a, b) in d_off.iter().zip(&d_on) {
        assert_eq!(a.payload, b.payload);
        assert_eq!(a.pass, b.pass);
        assert_eq!(a.start, b.start);
    }
    assert_eq!(r_off.outcomes_json(), r_on.outcomes_json());
    assert_eq!(r_on.second_pass_rescues, 0);
}
