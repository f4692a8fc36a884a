//! Overlap clusters: the independent work items [`TnbReceiver`] fans
//! over its worker pool.
//!
//! # Why clusters are safe work items
//!
//! After detection, packets interact only through *time overlap*:
//!
//! - Thrive assigns peaks jointly to the symbols intersecting a checking
//!   point (sibling costs couple co-located symbols);
//! - known-peak masks reach less than one symbol length beyond another
//!   packet's own emission windows;
//! - the second pass masks decoded packets' peaks in the windows of
//!   overlapping failures.
//!
//! So two packets whose sample spans cannot overlap decode identically
//! whether processed together or apart. The receiver groups detected
//! packets into connected components under a conservative overlap
//! horizon (the longest possible packet plus one symbol of masking
//! margin) and decodes each component independently. Every worker owns a
//! [`tnb_dsp::DspScratch`], and results are merged back in cluster order
//! — i.e. by packet start sample — so the output is byte-identical to a
//! single decode of the whole detection list
//! ([`TnbReceiver::decode_detected_report`]) regardless of worker count
//! or scheduling.

use crate::packet::{DecodedPacket, DetectedPacket};
use crate::receiver::{DecodeOutcome, DecodeReport, DegradeReason, TnbConfig, TnbReceiver};
use std::ops::Range;
use tnb_phy::block;
use tnb_phy::params::{CodingRate, LoRaParams};

/// Largest payload a LoRa header can announce (`payload_len` is a byte).
pub(crate) const MAX_PAYLOAD_LEN: usize = 255;

/// Constructors for a multi-worker [`TnbReceiver`], kept for callers
/// that name the worker count up front. There is no separate parallel
/// decoder: every [`TnbReceiver`] decodes per overlap cluster.
#[derive(Debug)]
pub enum ParallelReceiver {}

impl ParallelReceiver {
    /// A default (full TnB) receiver decoding with `workers` threads.
    // A constructor namespace: `new` returns the one decoder type.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(params: LoRaParams, workers: usize) -> TnbReceiver {
        TnbReceiver::new(params).with_workers(workers)
    }

    /// A receiver with a custom configuration and `workers` threads.
    pub fn with_config(params: LoRaParams, cfg: TnbConfig, workers: usize) -> TnbReceiver {
        TnbReceiver::with_config(params, cfg).with_workers(workers)
    }
}

/// Groups start-sorted detections into connected components under the
/// overlap `horizon` (samples): a new cluster starts whenever a packet
/// begins after every earlier packet's span has ended.
pub(crate) fn clusters(detected: &[DetectedPacket], horizon: f64) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    let mut begin = 0usize;
    let mut max_end = f64::NEG_INFINITY;
    for (i, p) in detected.iter().enumerate() {
        if i > begin && p.start >= max_end {
            out.push(begin..i);
            begin = i;
            max_end = f64::NEG_INFINITY;
        }
        max_end = max_end.max(p.start + horizon);
    }
    if begin < detected.len() {
        out.push(begin..detected.len());
    }
    out
}

/// Conservative packet span in samples: preamble plus the longest
/// possible payload (`max_payload_len` bytes) at the most redundant
/// coding rate, plus one symbol of masking margin (known-peak masks
/// reach `< l` beyond a packet's own windows).
pub(crate) fn horizon_samples(params: LoRaParams, max_payload_len: usize) -> f64 {
    let mut p = params;
    p.cr = CodingRate::CR4;
    let syms = p.preamble_symbols() + block::data_symbol_count(max_payload_len, &p) as f64 + 1.0;
    syms * p.samples_per_symbol() as f64
}

/// The report for a cluster whose decode panicked (a defect, not
/// expected in normal operation): nothing decoded, every detection
/// degraded with [`DegradeReason::WorkerPanic`], the rest of the batch
/// unaffected.
pub(crate) fn degraded_cluster(cluster: &[DetectedPacket]) -> (Vec<DecodedPacket>, DecodeReport) {
    let report = DecodeReport {
        detected: cluster.len(),
        outcomes: cluster
            .iter()
            .map(|det| DecodeOutcome::Degraded {
                start: det.start,
                reason: DegradeReason::WorkerPanic,
            })
            .collect(),
        ..DecodeReport::default()
    };
    (Vec::new(), report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnb_phy::params::SpreadingFactor;

    fn pkt(start: f64) -> DetectedPacket {
        DetectedPacket {
            start,
            cfo_cycles: 0.0,
            preamble_peak: 1.0,
        }
    }

    fn params() -> LoRaParams {
        LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR1)
    }

    #[test]
    fn clusters_split_on_gaps() {
        let h = horizon_samples(params(), 16);
        let dets = [pkt(0.0), pkt(h / 2.0), pkt(h * 3.0), pkt(h * 10.0)];
        assert_eq!(clusters(&dets, h), vec![0..2, 2..3, 3..4]);
    }

    #[test]
    fn chained_overlaps_stay_together() {
        let h = horizon_samples(params(), 16);
        // Each packet overlaps only its neighbour; the chain is one
        // component.
        let dets = [pkt(0.0), pkt(h * 0.9), pkt(h * 1.8), pkt(h * 2.7)];
        assert_eq!(clusters(&dets, h), vec![0..4]);
    }

    #[test]
    fn empty_and_single_detections() {
        let h = horizon_samples(params(), 16);
        assert!(clusters(&[], h).is_empty());
        assert_eq!(clusters(&[pkt(5000.0)], h), vec![0..1]);
    }

    #[test]
    fn degraded_cluster_reports_worker_panic_per_packet() {
        let dets = [pkt(100.0), pkt(5000.0)];
        let (decoded, report) = degraded_cluster(&dets);
        assert!(decoded.is_empty());
        assert_eq!(report.detected, 2);
        assert_eq!(report.decoded, 0);
        assert_eq!(report.degraded(), 2);
        assert_eq!(report.degraded_with(DegradeReason::WorkerPanic), 2);
    }

    #[test]
    fn tighter_payload_bound_shrinks_horizon() {
        assert!(horizon_samples(params(), 16) < horizon_samples(params(), MAX_PAYLOAD_LEN));
    }

    #[test]
    fn constructors_set_the_worker_count() {
        assert_eq!(TnbReceiver::new(params()).workers(), 1);
        assert_eq!(ParallelReceiver::new(params(), 0).workers(), 1);
        let rx = ParallelReceiver::with_config(params(), TnbConfig::default(), 3);
        assert_eq!(rx.workers(), 3);
    }
}
