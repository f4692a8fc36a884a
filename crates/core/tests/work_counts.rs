//! Deterministic work counts of the hot DSP paths, read from the
//! [`DspScratch`] counters: FFTs run through the scratch spectrum paths
//! and CFO-rotator tables built. Unlike wall time these do not vary by
//! machine, so they gate the cost of synchronization and signal-vector
//! calculation exactly.

use tnb_channel::trace::{PacketConfig, TraceBuilder};
use tnb_core::sync::{fractional_sync_scratch, SyncConfig};
use tnb_core::{Detector, TnbConfig, TnbReceiver};
use tnb_dsp::DspScratch;
use tnb_phy::{CodingRate, LoRaParams, SpreadingFactor};

fn params() -> LoRaParams {
    LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR4)
}

#[test]
fn sync_runs_two_ffts_per_evaluation() {
    let p = params();
    let mut b = TraceBuilder::new(p, 21);
    b.add_packet(
        &[0x6B; 16],
        PacketConfig {
            start_sample: 8_192,
            snr_db: 10.0,
            cfo_hz: 2_750.0,
            frac_delay: 0.35,
            ..Default::default()
        },
    );
    let trace = b.build();
    let det = Detector::new(p);
    let cfo_int = (2_750.0 / p.bin_hz()).round();
    let mut scratch = DspScratch::new();
    let cfg = SyncConfig::default();
    let out = fractional_sync_scratch(
        trace.samples(),
        det.demodulator(),
        8_190,
        cfo_int,
        &cfg,
        &mut scratch,
    );
    assert!(out.is_some(), "clean packet must lock");
    // 36 evaluations × (one upchirp + one downchirp FFT).
    assert_eq!(scratch.ffts, 72);
    // One table per distinct CFO: 17 grid points plus δf* + 1.
    let builds = scratch.rotators.builds();
    assert!(builds <= 20, "{builds} rotator tables built");
    // The same search on a warm scratch rebuilds nothing.
    fractional_sync_scratch(
        trace.samples(),
        det.demodulator(),
        8_190,
        cfo_int,
        &cfg,
        &mut scratch,
    );
    assert_eq!(scratch.ffts, 144);
    assert_eq!(scratch.rotators.builds(), builds);
}

#[test]
fn sigcalc_builds_one_rotator_per_packet_cfo() {
    let p = params();
    let mut b = TraceBuilder::new(p, 22);
    // Six packets, each overlapping its neighbours, at distinct CFOs.
    for k in 0..6u8 {
        b.add_packet(
            &[0x20 + k; 16],
            PacketConfig {
                start_sample: 4_000 + usize::from(k) * 17_000,
                snr_db: 8.0 + f32::from(k),
                cfo_hz: -4_000.0 + f64::from(k) * 1_530.0,
                frac_delay: 0.15 * f32::from(k),
                ..Default::default()
            },
        );
    }
    let trace = b.build();
    let antennas = [trace.samples()];
    let det = Detector::new(p);
    let detected = det.detect(trace.samples());
    assert!(detected.len() >= 5, "{} detected", detected.len());

    let rx = TnbReceiver::with_config(p, TnbConfig::default());
    let mut scratch = DspScratch::new();
    let (_, report) =
        rx.decode_detected_report(&detected, det.demodulator(), &antennas, &mut scratch);
    // With SIC off, signal-vector calculation is the only rotator user
    // of the decode: one table per distinct nonzero packet CFO, however
    // many symbols each packet has.
    assert!(!TnbConfig::default().sic.enabled);
    let mut cfos: Vec<u64> = detected
        .iter()
        .filter(|d| d.cfo_cycles != 0.0)
        .map(|d| d.cfo_cycles.to_bits())
        .collect();
    cfos.sort_unstable();
    cfos.dedup();
    assert_eq!(scratch.rotators.builds(), cfos.len() as u64);
    assert!(report.stages.sigcalc_vectors > 10 * cfos.len() as u64);
    assert_eq!(scratch.ffts, report.stages.sigcalc_vectors);
}
