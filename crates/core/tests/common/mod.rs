//! Shared by the identity tests: the unclustered single-unit reference
//! every clustered, pooled decode must reproduce.

// Each test crate that includes this module uses only some helpers.
#![allow(dead_code)]

use tnb_core::{DecodeReport, DecodedPacket, Detector, PipelineMetrics, StageCounters};
use tnb_core::{TnbConfig, TnbReceiver};
use tnb_dsp::{Complex32, DspScratch};
use tnb_phy::LoRaParams;

/// Detection, then one `decode_detected_report` over the whole
/// detection list, both on a single scratch; detection counters are
/// folded into the report as the receiver does.
pub fn reference(
    params: LoRaParams,
    cfg: TnbConfig,
    samples: &[Complex32],
) -> (Vec<DecodedPacket>, DecodeReport) {
    let detector = Detector::with_config(params, cfg.detector);
    let mut scratch = DspScratch::new();
    let mut counters = StageCounters::default();
    let off = PipelineMetrics::disabled();
    let detected = detector.detect_observed(samples, &mut scratch, &off, &mut counters);
    let (decoded, mut report) = TnbReceiver::with_config(params, cfg).decode_detected_report(
        &detected,
        detector.demodulator(),
        &[samples],
        &mut scratch,
    );
    report.stages.absorb(&counters);
    (decoded, report)
}

/// The receiver's full decode of a single-antenna trace at `workers`.
pub fn decode(
    params: LoRaParams,
    cfg: TnbConfig,
    workers: usize,
    samples: &[Complex32],
) -> (Vec<DecodedPacket>, DecodeReport) {
    TnbReceiver::with_config(params, cfg)
        .with_workers(workers)
        .decode_observed(&[samples], &PipelineMetrics::disabled())
}
