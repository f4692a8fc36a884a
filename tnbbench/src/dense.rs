//! `dense_sic`: batch SIC decode of the paper's densest single-antenna
//! indoor scene (SF8/CR4/OSF8, 25 packets/s offered), one thread.

use std::collections::HashMap;
use std::time::Instant;

use tnb_core::sync::{fractional_sync_scratch, SyncConfig};
use tnb_core::{DecodedPacket, Detector, PipelineMetrics, SicConfig, StageCounters};
use tnb_core::{TnbConfig, TnbReceiver};
use tnb_dsp::{Complex32, DspScratch};
use tnb_phy::{CodingRate, LoRaParams, SpreadingFactor};
use tnb_sim::traffic::{make_payload, ScheduledPacket};
use tnb_sim::{build_experiment, BuiltExperiment, Deployment, ExperimentConfig};

use crate::measure::{keep_going, median, median_time_s, percentile, ratio, sub_seed};
use crate::measure::{Metrics, Outcome, Section};
use crate::tracer::Tracer;

/// The paper's top offered load.
pub const LOAD_PPS: f64 = 25.0;

/// How much input one run decodes.
#[derive(Debug, Clone, Copy)]
pub struct DenseSize {
    /// Distinct seeded traces; each is decoded at least once.
    pub traces: usize,
    /// Seconds of 1 Msps air time per trace.
    pub trace_s: f64,
}

/// The benchmark's size: forty 0.5 s traces (520 scheduled packets).
/// PRR and decode time vary from trace to trace far more than packet
/// counts explain, and the same call on a shared host varies by a tenth
/// or more from one call to the next, so a run takes its latency
/// percentiles over many short calls rather than a few long ones: forty
/// calls keep the median steady from seed to seed and put four calls
/// beyond the nearest-rank p90.
pub const FULL: DenseSize = DenseSize {
    traces: 40,
    trace_s: 0.5,
};

/// The size of `dense_sic`'s own traced run: one 2 s trace, long enough
/// that every decoder layer does measurable work.
pub const TRACED: DenseSize = DenseSize {
    traces: 1,
    trace_s: 2.0,
};

/// The size other workloads' traced runs use for these layers.
pub const MINI: DenseSize = DenseSize {
    traces: 1,
    trace_s: 1.0,
};

pub fn params() -> LoRaParams {
    LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR4)
}

pub fn receiver_config(sic: bool) -> TnbConfig {
    TnbConfig {
        sic: SicConfig {
            enabled: sic,
            ..SicConfig::default()
        },
        ..TnbConfig::default()
    }
}

/// Seeded indoor trace at `load_pps` (`tnb_sim::build_experiment`).
pub fn build_trace(seed: u64, load_pps: f64, duration_s: f64) -> BuiltExperiment {
    let mut cfg = ExperimentConfig::new(params(), Deployment::Indoor);
    cfg.load_pps = load_pps;
    cfg.duration_s = duration_s;
    cfg.seed = seed;
    build_experiment(&cfg)
}

/// Ground truth of one trace: every scheduled payload, each creditable
/// once.
pub struct Truth {
    index: HashMap<Vec<u8>, usize>,
    pub schedule: Vec<ScheduledPacket>,
}

/// How a set of decodes compares with the schedule.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Score {
    /// Decodes of a scheduled transmission, first copy each.
    pub delivered: u64,
    /// Decodes matching no scheduled transmission (wrong payloads,
    /// phantom node/seq values) or repeating one already delivered.
    pub wrong: u64,
}

impl Truth {
    pub fn new(schedule: &[ScheduledPacket]) -> Truth {
        let index = schedule
            .iter()
            .enumerate()
            .map(|(i, p)| (make_payload(p.node, p.seq), i))
            .collect();
        Truth {
            index,
            schedule: schedule.to_vec(),
        }
    }

    /// Schedule index of a payload, if it is a scheduled transmission.
    pub fn lookup(&self, payload: &[u8]) -> Option<usize> {
        self.index.get(payload).copied()
    }

    pub fn score<'a>(&self, payloads: impl IntoIterator<Item = &'a [u8]>) -> Score {
        let mut seen = vec![false; self.schedule.len()];
        let mut s = Score::default();
        for p in payloads {
            match self.lookup(p) {
                Some(i) if !seen[i] => {
                    seen[i] = true;
                    s.delivered += 1;
                }
                _ => s.wrong += 1,
            }
        }
        s
    }
}

/// Seconds of decoder set-up: building the SIC receiver and a warm-up
/// decode of one silent symbol (demodulator tables, FFT plans), median
/// of many builds.
pub fn setup_s() -> f64 {
    let p = params();
    let silence = vec![Complex32::ZERO; p.samples_per_symbol()];
    median_time_s(200, || {
        let rx = TnbReceiver::with_config(p, receiver_config(true));
        rx.decode(&silence)
    })
}

fn build_inputs(seed: u64, size: DenseSize) -> Vec<BuiltExperiment> {
    (0..size.traces.max(1))
        .map(|k| build_trace(sub_seed(seed, k as u64), LOAD_PPS, size.trace_s))
        .collect()
}

/// The end-to-end run.
pub fn run(seed: u64, seconds: f64, size: DenseSize) -> Outcome {
    let inputs = build_inputs(seed, size);
    let truths: Vec<Truth> = inputs.iter().map(|b| Truth::new(&b.schedule)).collect();
    let setup = setup_s();
    let rx = TnbReceiver::with_config(params(), receiver_config(true));

    let mut first: Vec<Option<Vec<DecodedPacket>>> = vec![None; inputs.len()];
    let mut call_ms = Vec::new();
    let mut samples = 0usize;
    let mut out = Outcome::default();
    let section = Section::start();
    let mut done = 0;
    while keep_going(done, inputs.len(), section.elapsed_s(), seconds) {
        let k = done % inputs.len();
        let trace = inputs[k].trace.samples();
        let t = Instant::now();
        let decoded = rx.decode(trace);
        call_ms.push(t.elapsed().as_secs_f64() * 1e3);
        samples += trace.len();
        match &first[k] {
            None => first[k] = Some(decoded),
            Some(prev) if *prev != decoded => {
                out.failed += 1;
                out.problems
                    .push(format!("trace {k}: a repeat decode differs from the first"));
            }
            Some(_) => {}
        }
        done += 1;
    }
    let stats = section.finish();

    let mut scheduled = 0u64;
    let mut delivered = 0u64;
    let mut decodes = 0u64;
    for (k, (truth, decoded)) in truths.iter().zip(&first).enumerate() {
        let decoded = decoded.as_deref().unwrap_or_default();
        let s = truth.score(decoded.iter().map(|d| d.payload.as_slice()));
        scheduled += truth.schedule.len() as u64;
        delivered += s.delivered;
        decodes += decoded.len() as u64;
        if s.wrong > 0 {
            out.failed += s.wrong;
            out.problems.push(format!(
                "trace {k}: {} decodes match no scheduled transmission",
                s.wrong
            ));
        }
    }
    out.attempted = scheduled;
    let fs = params().sample_rate();
    let m = &mut out.metrics;
    m.put("setup_s", setup, "s");
    m.put("peak_rss_mib", stats.peak_rss_mib, "MiB");
    m.put("decode_msps", samples as f64 / stats.wall_s / 1e6, "Msps");
    m.put("prr", ratio(delivered as f64, scheduled as f64), "ratio");
    m.put("latency_p50_ms", median(&call_ms), "ms");
    m.put("latency_p90_ms", percentile(&call_ms, 90.0), "ms");
    m.put(
        "uplink_match",
        ratio(delivered as f64, decodes as f64),
        "ratio",
    );
    m.put("cpu_s_per_stream_s", stats.cpu_s / stats.wall_s, "s/s");
    m.put("sim_rate", samples as f64 / fs / stats.wall_s, "s/s");
    eprintln!(
        "dense_sic: {done} decodes of {} traces, {} per-call latency samples",
        inputs.len(),
        call_ms.len()
    );
    out
}

/// Traced run of the decoder layers on the first trace of `size`: the
/// receiver's pipeline replayed stage by stage through its public entry
/// points, each inside a span. Returns (attempted, failed).
pub fn traced(t: &Tracer, seed: u64, size: DenseSize, m: &mut Metrics) -> (u64, u64) {
    let built = build_trace(sub_seed(seed, 0), LOAD_PPS, size.trace_s);
    let samples = built.trace.samples();
    let p = params();
    let rx_on = TnbReceiver::with_config(p, receiver_config(true));
    let rx_off = TnbReceiver::with_config(p, receiver_config(false));

    // The detector's own counters ride along; its wall-time sink stays
    // off, so the span times the same work `detect_with_scratch` does.
    let detector = Detector::with_config(p, TnbConfig::default().detector);
    let mut scratch = DspScratch::new();
    let mut counters = StageCounters::default();
    let detected = t.span("core.detect", || {
        detector.detect_observed(
            samples,
            &mut scratch,
            &PipelineMetrics::disabled(),
            &mut counters,
        )
    });
    let sync_cfg = SyncConfig::default();
    let mut accepted = 0u64;
    for d in &detected {
        let r = t.span("core.sync", || {
            fractional_sync_scratch(
                samples,
                detector.demodulator(),
                d.start.round() as i64,
                d.cfo_cycles.round(),
                &sync_cfg,
                &mut scratch,
            )
        });
        accepted += u64::from(r.is_some());
    }
    let antennas = [samples];
    let (_, off) = t.span("core.receiver", || {
        rx_off.decode_detected_report(&detected, detector.demodulator(), &antennas, &mut scratch)
    });
    let (on_pkts, on) = t.span("core.sic", || {
        rx_on.decode_detected_report(&detected, detector.demodulator(), &antennas, &mut scratch)
    });

    let truth = Truth::new(&built.schedule);
    let failed = truth
        .score(on_pkts.iter().map(|d| d.payload.as_slice()))
        .wrong;

    let detect_ms = t.total_ms("core.detect");
    let decode_ms = t.total_ms("core.receiver");
    m.put("detect.ms", detect_ms, "ms");
    m.put("detect.windows", counters.detect_windows as f64, "count");
    m.put("detect.runs", counters.detect_runs as f64, "count");
    let sync_calls = detected.len() as f64;
    m.put(
        "sync.us_per_call",
        ratio(t.total_ms("core.sync") * 1e3, sync_calls),
        "us",
    );
    m.put("sync.attempts", counters.sync_attempts as f64, "count");
    m.put(
        "sync.accept_ratio",
        ratio(counters.sync_accepted as f64, counters.sync_attempts as f64),
        "ratio",
    );
    m.put("sync.replay_accepted", accepted as f64, "count");
    m.put("decode.ms", decode_ms, "ms");
    m.put(
        "sigcalc.vectors",
        off.stages.sigcalc_vectors as f64,
        "count",
    );
    m.put(
        "thrive.peaks_considered",
        off.stages.thrive_peaks_considered as f64,
        "count",
    );
    m.put(
        "thrive.fallbacks",
        off.stages.thrive_fallbacks as f64,
        "count",
    );
    m.put("bec.candidates", off.stages.bec_candidates as f64, "count");
    m.put(
        "bec.crc_pass_ratio",
        ratio(off.stages.crc_pass as f64, off.stages.crc_checks as f64),
        "ratio",
    );
    m.put("sic.ms", t.total_ms("core.sic") - decode_ms, "ms");
    m.put("sic.subtracted", on.stages.sic_subtracted as f64, "count");
    m.put("sic.rescues", on.stages.sic_rescues as f64, "count");
    m.put(
        "sic.rescue_ratio",
        ratio(
            on.stages.sic_rescues as f64,
            on.stages.sic_subtracted as f64,
        ),
        "ratio",
    );
    (built.schedule.len() as u64, failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truth_counts_phantoms_and_repeats_as_wrong() {
        let sched = [
            ScheduledPacket {
                node: 1,
                seq: 0,
                time: 0.0,
            },
            ScheduledPacket {
                node: 2,
                seq: 4,
                time: 0.1,
            },
        ];
        let truth = Truth::new(&sched);
        let a = make_payload(1, 0);
        let b = make_payload(2, 4);
        // Node 2, seq 0xFF04: a payload that parses but was never sent.
        let phantom = make_payload(2, 0xFF04);
        let s = truth.score([&a[..], &b[..], &a[..], &phantom[..]]);
        assert_eq!(
            s,
            Score {
                delivered: 2,
                wrong: 2
            }
        );
    }

    #[test]
    fn smoke() {
        let out = run(
            7,
            0.0,
            DenseSize {
                traces: 1,
                trace_s: 0.4,
            },
        );
        assert!(out.attempted > 0);
        assert!(out.correct(), "{:?}", out.problems);
        assert_eq!(out.metrics.names(), crate::E2E_NAMES);
    }
}
