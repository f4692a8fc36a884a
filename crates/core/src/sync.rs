//! Fractional timing and CFO estimation — detection step 4 (paper §7).
//!
//! A three-phase search evaluates `Q(δt, δf)`, the phase-coherent peak
//! energy of the preamble: the complex signal vectors of the 8 upchirps
//! are summed and the energy taken at the peak of the summed vector. Any
//! residual fractional CFO rotates consecutive symbols against each other
//! and collapses the sum, which is what makes `Q` sharp in `δf`.
//!
//! - **Phase 1**: 17 points along `δt = 0`, `δf ∈ [−1, 0]` in steps of
//!   1/16 bin → `δf*` (possibly off by exactly 1 because `Q` only looks
//!   at peak energy, which is invariant to integer-bin shifts).
//! - **Phase 2**: 10 points, `δt ∈ {−1, −½, 0, ½, 1}` chips ×
//!   `δf ∈ {δf*, δf*+1}`, scored by `Q*` — `Q` gated on both the upchirp
//!   and downchirp peaks landing at bin 0, which disambiguates the ±1.
//! - **Phase 3**: `U + 1` points refining `δt` in steps of `1/U` chip
//!   (= 1 receiver sample) around the phase-2 winner.
//!
//! Total: 36 evaluations for `U = 8`, matching the paper.
//!
//! ## Cost: two FFTs per evaluation
//!
//! `Q` needs the coherent sum `Σⱼ cⱼ·FFT(xⱼ·d·r)` over the upchirp
//! windows `xⱼ`, where `d` is the de-chirp reference, `r` the CFO
//! rotator (both the same for every window) and `cⱼ` the per-symbol
//! phase carry. The FFT is linear, so this equals `FFT((Σⱼ cⱼ·xⱼ)·d·r)`:
//! `evaluate_q` sums the raw windows in the time domain and runs one
//! de-chirp, one rotator multiply and one FFT per side — 2 FFTs per
//! evaluation instead of 10, 72 per 36-point search instead of 360. The
//! rotator comes from the scratch's [`tnb_dsp::RotatorCache`], so a
//! search builds one table per distinct CFO it visits (at most 18)
//! instead of one per window. `Q` moves only by float rounding, and the
//! search decisions are unchanged.

use crate::packet::DetectedPacket;
use tnb_dsp::{Complex32, DspScratch};
use tnb_metrics::{PipelineMetrics, Stage, StageCounters};
use tnb_phy::demodulate::Demodulator;
use tnb_phy::params::LoRaParams;

/// Tunables for the fractional search.
#[derive(Debug, Clone, Copy)]
pub struct SyncConfig {
    /// Phase-1 grid points along the CFO axis (paper: 17 → 1/16-bin steps).
    pub cfo_grid: usize,
    /// Reject a preamble whose best `Q*` is zero (no consistent peak).
    pub require_qstar: bool,
}

impl Default for SyncConfig {
    fn default() -> Self {
        SyncConfig {
            cfo_grid: 17,
            require_qstar: true,
        }
    }
}

/// Evaluation of `Q`/`Q*` at one `(δt, δf)` point.
struct QValue {
    /// Peak energy of the summed upchirp spectra.
    q: f32,
    /// True if the upchirp peak *and* the downchirp peak are at bin 0.
    peaks_at_zero: bool,
}

/// Runs the fractional search and returns the synchronized packet, or
/// `None` if the preamble does not produce consistent peaks.
///
/// `start` is the coarse start estimate in samples, `cfo_int` the coarse
/// CFO in (integer) bins.
pub fn fractional_sync(
    samples: &[Complex32],
    demod: &Demodulator,
    start: i64,
    cfo_int: f64,
    cfg: &SyncConfig,
) -> Option<DetectedPacket> {
    let mut scratch = DspScratch::new();
    fractional_sync_scratch(samples, demod, start, cfo_int, cfg, &mut scratch)
}

/// [`fractional_sync_scratch`] with observability: counts the attempt and
/// its acceptance in `counters` and times the whole 36-point search under
/// [`Stage::Sync`].
// Observed variant threads scratch + two observability sinks on top of the five search inputs.
#[allow(clippy::too_many_arguments)]
pub fn fractional_sync_observed(
    samples: &[Complex32],
    demod: &Demodulator,
    start: i64,
    cfo_int: f64,
    cfg: &SyncConfig,
    scratch: &mut DspScratch,
    metrics: &PipelineMetrics,
    counters: &mut StageCounters,
) -> Option<DetectedPacket> {
    counters.sync_attempts += 1;
    let t0 = metrics.now();
    let out = fractional_sync_scratch(samples, demod, start, cfo_int, cfg, scratch);
    metrics.record_span(Stage::Sync, t0);
    if out.is_some() {
        counters.sync_accepted += 1;
    }
    out
}

/// [`fractional_sync`] with a caller-owned [`DspScratch`], so the 36-point
/// search performs no per-evaluation allocations. Results are bit-identical
/// to the allocating path.
// tnb-lint: no_alloc_root -- the 36-point (δt, δf) search runs per detected packet; every buffer lives in the scratch
pub fn fractional_sync_scratch(
    samples: &[Complex32],
    demod: &Demodulator,
    start: i64,
    cfo_int: f64,
    cfg: &SyncConfig,
    scratch: &mut DspScratch,
) -> Option<DetectedPacket> {
    search(demod.params(), start, cfo_int, cfg, |dt_chips, cfo| {
        evaluate_q(samples, demod, start, dt_chips, cfo, scratch)
    })
}

/// The three-phase search over an evaluator `eval(δt in chips, CFO in
/// bins)` of `Q`/`Q*`.
fn search(
    params: &LoRaParams,
    start: i64,
    cfo_int: f64,
    cfg: &SyncConfig,
    mut eval: impl FnMut(f64, f64) -> Option<QValue>,
) -> Option<DetectedPacket> {
    let u = params.osf as i64;
    let mut eval = |dt_chips: f64, df: f64| eval(dt_chips, cfo_int + df);

    // Phase 1: δt = 0, δf from −1 to 0.
    let steps = cfg.cfo_grid.max(2) - 1;
    let mut best_df = 0.0;
    let mut best_q = f32::NEG_INFINITY;
    for i in 0..=steps {
        let df = -1.0 + i as f64 / steps as f64;
        if let Some(v) = eval(0.0, df) {
            if v.q > best_q {
                best_q = v.q;
                best_df = df;
            }
        }
    }
    if best_q <= 0.0 {
        return None;
    }

    // Phase 2: δt ∈ {−1, −½, 0, ½, 1} chips × δf ∈ {δf*, δf*+1}, by Q*.
    let mut p2: Option<(f32, f64, f64)> = None;
    for &df in &[best_df, best_df + 1.0] {
        for i in -2i64..=2 {
            let dt = i as f64 / 2.0;
            if let Some(v) = eval(dt, df) {
                if v.peaks_at_zero && p2.map(|(q, _, _)| v.q > q).unwrap_or(true) {
                    p2 = Some((v.q, dt, df));
                }
            }
        }
    }
    let (_, dt2, df2) = match p2 {
        Some(v) => v,
        None if cfg.require_qstar => return None,
        None => (0.0, 0.0, best_df),
    };

    // Phase 3: refine δt at 1/U-chip (1-sample) resolution.
    let mut p3: Option<(f32, f64)> = None;
    for i in 0..=params.osf {
        let dt = dt2 - 0.5 + i as f64 / u as f64;
        if let Some(v) = eval(dt, df2) {
            if v.peaks_at_zero && p3.map(|(q, _)| v.q > q).unwrap_or(true) {
                p3 = Some((v.q, dt));
            }
        }
    }
    let (q3, dt3) = p3.unwrap_or((best_q, dt2));

    let final_start = start as f64 + dt3 * u as f64;
    if final_start < 0.0 {
        return None;
    }
    // Per-symbol preamble peak height for Thrive's history bootstrap: the
    // coherent sum over 8 symbols scales as 8², so one symbol's peak is
    // Q/64.
    let preamble_peak = q3 / (LoRaParams::PREAMBLE_UPCHIRPS * LoRaParams::PREAMBLE_UPCHIRPS) as f32;
    Some(DetectedPacket {
        start: final_start,
        cfo_cycles: cfo_int + df2,
        preamble_peak,
    })
}

/// Computes `Q` and the peaks-at-zero predicate for one candidate
/// `(δt, δf)`: the 8 upchirp windows and the 2 full downchirp windows,
/// shifted by `dt_chips` chips, are each summed coherently in the time
/// domain, then de-chirped, CFO-corrected by `cfo` bins and transformed
/// once per side (see the module doc).
fn evaluate_q(
    samples: &[Complex32],
    demod: &Demodulator,
    start: i64,
    dt_chips: f64,
    cfo: f64,
    scratch: &mut DspScratch,
) -> Option<QValue> {
    let params = demod.params();
    let l = params.samples_per_symbol();
    let shift = (dt_chips * params.osf as f64).round() as i64;
    let base = usize::try_from(start + shift).ok()?;
    // Upchirps, sync word and downchirps: 12 whole symbols. `get`
    // degrades to None when they run off the trace.
    let preamble = samples.get(base..base + 12 * l)?;

    // Upchirp side, summed in `scratch.cacc_a`, de-chirped with the
    // downchirp.
    coherent_sum(
        &mut scratch.cacc_a,
        preamble,
        l,
        0..LoRaParams::PREAMBLE_UPCHIRPS,
        cfo,
    );
    let acc = std::mem::take(&mut scratch.cacc_a);
    demod.complex_spectrum_scratch(&acc, cfo, scratch);
    scratch.cacc_a = acc;
    let (q, up_pos) = folded_peak(demod, scratch)?;

    // Downchirp side: the two full downchirp windows start 10 and 11
    // symbols in; summed in `scratch.cacc_b`, de-chirped with the upchirp.
    coherent_sum(&mut scratch.cacc_b, preamble, l, 10..12, cfo);
    let acc = std::mem::take(&mut scratch.cacc_b);
    demod.complex_spectrum_down_scratch(&acc, cfo, scratch);
    scratch.cacc_b = acc;
    let (_, down_pos) = folded_peak(demod, scratch)?;

    // "At location 1" (paper, 1-indexed) = within half a bin of bin 0
    // here; 0.6 leaves margin for interpolation error while still
    // rejecting the ±1-bin CFO/timing ambiguities.
    let peaks_at_zero = up_pos.abs() <= 0.6 && down_pos.abs() <= 0.6;
    Some(QValue { q, peaks_at_zero })
}

/// Overwrites `acc` with `Σⱼ cⱼ·xⱼ` over the length-`l` symbol windows
/// `xⱼ = preamble[j·l..(j+1)·l]`, `j ∈ symbols`. The de-chirp rotator
/// uses a time index local to one window, so window `j` must also be
/// de-rotated by the correction phase accumulated since the packet start,
/// `cⱼ = e^{-j2π·cfo·j}` — otherwise the sum's coherence would depend on
/// the *true* fractional CFO instead of the corrected residual, and `Q`
/// would not discriminate `δf` at all.
fn coherent_sum(
    acc: &mut Vec<Complex32>,
    preamble: &[Complex32],
    l: usize,
    symbols: std::ops::Range<usize>,
    cfo: f64,
) {
    acc.clear();
    acc.resize(l, Complex32::ZERO);
    let windows = preamble.chunks_exact(l).enumerate();
    for (j, window) in windows.take(symbols.end).skip(symbols.start) {
        let carry = Complex32::from_phase(-2.0 * std::f64::consts::PI * cfo * j as f64);
        for (a, &x) in acc.iter_mut().zip(window) {
            *a += x * carry;
        }
    }
}

/// Folds the spectrum in `scratch.cbuf` into `scratch.fbuf` and returns
/// its peak `(height, centred sub-bin position)`.
fn folded_peak(demod: &Demodulator, scratch: &mut DspScratch) -> Option<(f32, f32)> {
    let DspScratch { cbuf, fbuf, .. } = scratch;
    demod.fold_into(cbuf, fbuf);
    let (bin, &height) = fbuf.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1))?;
    Some((height, centred_peak_position(fbuf, bin)))
}

/// Sub-bin peak position of a circular spectrum peak, centred so bin
/// `n−1` reads as `−1`.
fn centred_peak_position(folded: &[f32], bin: usize) -> f32 {
    let n = folded.len() as i64;
    let (delta, _) = tnb_dsp::peakfinder::refine_peak(folded, bin);
    crate::detect::center(bin as i64, n) as f32 + delta
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnb_channel::trace::{PacketConfig, TraceBuilder};
    use tnb_phy::params::{CodingRate, SpreadingFactor};

    /// `Q` computed per window: one allocating spectrum per symbol
    /// window, summed with the phase carry — the sum [`evaluate_q`]
    /// takes before its FFT.
    fn reference_q(
        samples: &[Complex32],
        demod: &Demodulator,
        start: i64,
        dt_chips: f64,
        cfo: f64,
    ) -> Option<QValue> {
        let p = demod.params();
        let l = p.samples_per_symbol();
        let base = start + (dt_chips * p.osf as f64).round() as i64;
        let window = |j: usize| {
            let s = usize::try_from(base).ok()? + j * l;
            samples.get(s..s + l)
        };
        let carry = |j: usize| Complex32::from_phase(-2.0 * std::f64::consts::PI * cfo * j as f64);
        let mut up = vec![Complex32::ZERO; l];
        for j in 0..LoRaParams::PREAMBLE_UPCHIRPS {
            let spec = demod.complex_spectrum(window(j)?, cfo);
            for (a, b) in up.iter_mut().zip(spec) {
                *a += b * carry(j);
            }
        }
        let mut down = vec![Complex32::ZERO; l];
        for j in [10, 11] {
            let spec = demod.complex_spectrum_down(window(j)?, cfo);
            for (a, b) in down.iter_mut().zip(spec) {
                *a += b * carry(j);
            }
        }
        let peak = |spec: &[Complex32]| {
            let y = demod.fold(spec);
            let (bin, &h) = y.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1))?;
            Some((h, centred_peak_position(&y, bin)))
        };
        let (q, up_pos) = peak(&up)?;
        let (_, down_pos) = peak(&down)?;
        Some(QValue {
            q,
            peaks_at_zero: up_pos.abs() <= 0.6 && down_pos.abs() <= 0.6,
        })
    }

    /// A trace and the `(coarse start, integer CFO)` of its packets.
    type Scene = (Vec<Complex32>, Vec<(i64, f64)>);

    /// Seeded scenes: single packets at two SNRs, and a three-packet
    /// collision with distinct CFOs and sub-sample delays.
    fn scenes() -> Vec<Scene> {
        let p = LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR4);
        let single = |seed: u64, snr_db: f32, cfo_hz: f64, frac: f32| {
            let mut b = TraceBuilder::new(p, seed);
            b.add_packet(
                &[0x3C; 16],
                PacketConfig {
                    start_sample: 8_192,
                    snr_db,
                    cfo_hz,
                    frac_delay: frac,
                    ..Default::default()
                },
            );
            let coarse = (8_192 + 3, (cfo_hz / p.bin_hz()).round());
            (b.build().antennas.swap_remove(0), vec![coarse])
        };
        let mut out = vec![
            single(1, 10.0, 1_830.0, 0.4),
            single(2, -5.0, -3_310.0, 0.8),
        ];
        let mut b = TraceBuilder::new(p, 3);
        let mut coarse = Vec::new();
        for (k, (start, snr_db, cfo_hz, frac)) in [
            (6_000usize, 12.0f32, -2_400.0f64, 0.1f32),
            (13_500, 6.0, 950.0, 0.6),
            (21_700, 9.0, 4_100.0, 0.3),
        ]
        .into_iter()
        .enumerate()
        {
            b.add_packet(
                &[0x11 * k as u8 + 1; 16],
                PacketConfig {
                    start_sample: start,
                    snr_db,
                    cfo_hz,
                    frac_delay: frac,
                    ..Default::default()
                },
            );
            coarse.push((start as i64 - 2, (cfo_hz / p.bin_hz()).round()));
        }
        out.push((b.build().antennas.swap_remove(0), coarse));
        out
    }

    #[test]
    fn time_domain_q_matches_per_window_sum() {
        let p = LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR4);
        let demod = Demodulator::new(p);
        let mut scratch = DspScratch::new();
        let cfg = SyncConfig::default();
        for (samples, packets) in scenes() {
            for (start, cfo_int) in packets {
                let mut evals = 0;
                let locked = search(&p, start, cfo_int, &cfg, |dt, cfo| {
                    evals += 1;
                    let new = evaluate_q(&samples, &demod, start, dt, cfo, &mut scratch);
                    let old = reference_q(&samples, &demod, start, dt, cfo);
                    let (n, o) = (new.as_ref()?, old.as_ref()?);
                    let rel = (n.q - o.q).abs() / o.q.abs().max(f32::MIN_POSITIVE);
                    assert!(
                        rel <= 1e-4,
                        "start {start} dt {dt} cfo {cfo}: Q {} vs per-window {}",
                        n.q,
                        o.q
                    );
                    assert_eq!(n.peaks_at_zero, o.peaks_at_zero, "dt {dt} cfo {cfo}");
                    new
                })
                .is_some();
                // A lock runs all three phases: 36 grid points compared.
                assert!(!locked || evals == 36, "start {start}: {evals} evaluations");
            }
        }
    }

    #[test]
    fn search_decisions_match_per_window_reference() {
        let p = LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR4);
        let demod = Demodulator::new(p);
        let mut scratch = DspScratch::new();
        let cfg = SyncConfig::default();
        let mut locks = 0;
        for (samples, packets) in scenes() {
            for (start, cfo_int) in packets {
                let got =
                    fractional_sync_scratch(&samples, &demod, start, cfo_int, &cfg, &mut scratch);
                let want = search(&p, start, cfo_int, &cfg, |dt, cfo| {
                    reference_q(&samples, &demod, start, dt, cfo)
                });
                assert_eq!(
                    got.map(|d| (d.start, d.cfo_cycles)),
                    want.map(|d| (d.start, d.cfo_cycles)),
                    "start {start}"
                );
                if let (Some(got), Some(want)) = (got, want) {
                    locks += 1;
                    let rel = (got.preamble_peak - want.preamble_peak).abs() / want.preamble_peak;
                    assert!(
                        rel <= 1e-4,
                        "peak {} vs {}",
                        got.preamble_peak,
                        want.preamble_peak
                    );
                }
            }
        }
        // The buried collision packet may fail Q* on both paths; the
        // rest must lock.
        assert!(locks >= 4, "{locks} of 5 scene packets locked");
    }
}
