//! Pipeline observability for the TnB receiver: counters, gauges and
//! latency histograms, with no external dependencies (consistent with the
//! offline `compat/` approach of the rest of the workspace).
//!
//! Two kinds of data flow through this crate, split on determinism:
//!
//! - [`StageCounters`] holds *deterministic* per-stage event counts
//!   (windows scanned, sync attempts, signal vectors computed, peaks
//!   considered, CRC checks, …). These are tied to per-slot/per-packet
//!   events, so the receiver produces the *same* totals at every worker
//!   count on the same input — they ride inside `DecodeReport`
//!   and participate in its `Eq`.
//! - [`PipelineMetrics`] holds *nondeterministic* measurements — wall-time
//!   histograms per stage, matching-cost and BEC-candidate distributions,
//!   gauges — recorded through interior mutability (`Cell`) so the hot
//!   path takes `&self`. Snapshots ([`MetricsSnapshot`]) are plain data
//!   and never compared for equality across runs.
//!
//! A disabled `PipelineMetrics` never reads the clock and records
//! nothing, so the instrumented pipeline is zero-cost when observability
//! is off; recording itself never allocates (fixed-size bucket arrays),
//! keeping the receiver's zero-alloc steady state intact.
//!
//! The crate also owns the workspace's JSON codec ([`json`]): the one
//! writer every report and gateway line is rendered through, and the
//! one reader that parses lines back.

pub mod json;

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The pipeline stages of the TnB receiver (paper Fig. 3, with detection
/// split from the fractional synchronization it ends in, plus the SIC
/// rescue pass that reconstructs and subtracts decoded packets).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Preamble scan and whole-symbol validation (detection steps 1–3).
    Detect,
    /// Fractional timing/CFO search (detection step 4).
    Sync,
    /// Aligned, CFO-corrected signal-vector computation.
    SigCalc,
    /// Thrive peak assignment at checking points.
    Thrive,
    /// Block error correction and packet CRC gating.
    Bec,
    /// SIC rescue: replica reconstruction, subtraction and residual
    /// re-decode. The recorded span is inclusive of the nested
    /// detect/SigCalc/Thrive/BEC work of the residual decode.
    Sic,
}

impl Stage {
    /// All stages, in pipeline order.
    pub const ALL: [Stage; 6] = [
        Stage::Detect,
        Stage::Sync,
        Stage::SigCalc,
        Stage::Thrive,
        Stage::Bec,
        Stage::Sic,
    ];

    /// Stable lowercase name (used as the JSON key).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Detect => "detect",
            Stage::Sync => "sync",
            Stage::SigCalc => "sigcalc",
            Stage::Thrive => "thrive",
            Stage::Bec => "bec",
            Stage::Sic => "sic",
        }
    }

    fn index(self) -> usize {
        match self {
            Stage::Detect => 0,
            Stage::Sync => 1,
            Stage::SigCalc => 2,
            Stage::Thrive => 3,
            Stage::Bec => 4,
            Stage::Sic => 5,
        }
    }
}

/// A monotonically increasing event count (interior-mutable).
#[derive(Debug, Default)]
pub struct Counter(Cell<u64>);

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.set(self.0.get() + n);
    }

    /// Increments the counter by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.get()
    }

    /// Adds another counter's value (worker-merge; addition commutes, so
    /// the merged total is independent of worker scheduling).
    pub fn absorb(&self, other: &Counter) {
        self.add(other.get());
    }
}

/// A thread-safe, monotonically increasing event count for control-plane
/// services (the gateway daemon's ingest/backpressure/protocol counters).
///
/// Unlike [`Counter`], which is `Cell`-based and owned by exactly one
/// worker along the determinism boundary, a `SharedCounter` is `Sync` and
/// meant to be bumped concurrently from service threads whose ordering is
/// inherently nondeterministic (socket readers, per-connection decoders).
/// It must therefore never feed anything compared for byte-identity.
#[derive(Debug, Default)]
pub struct SharedCounter(AtomicU64);

impl SharedCounter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments the counter by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins measurement (interior-mutable).
#[derive(Debug, Default)]
pub struct Gauge(Cell<f64>);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.0.set(v);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        self.0.get()
    }

    /// Keeps the maximum of the two gauges (worker-merge).
    pub fn absorb(&self, other: &Gauge) {
        if other.get() > self.get() {
            self.set(other.get());
        }
    }
}

/// Bucket count of [`Histogram`]: log₂ buckets up to 2⁴³ − 1 (≈ 2.4 hours
/// in nanoseconds), far beyond any single-trace decode.
pub const HISTOGRAM_BUCKETS: usize = 44;

/// A log₂-bucketed histogram of `u64` samples with exact count, sum, min
/// and max. Fixed-size storage: recording never allocates.
#[derive(Debug)]
pub struct Histogram {
    buckets: [Cell<u64>; HISTOGRAM_BUCKETS],
    count: Cell<u64>,
    sum: Cell<u64>,
    min: Cell<u64>,
    max: Cell<u64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| Cell::new(0)),
            count: Cell::new(0),
            sum: Cell::new(0),
            min: Cell::new(u64::MAX),
            max: Cell::new(0),
        }
    }
}

/// Bucket index of a value: 0 for 0, otherwise its bit length (clamped).
fn bucket_of(v: u64) -> usize {
    ((64 - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
}

impl Histogram {
    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].set(self.buckets[bucket_of(v)].get() + 1);
        self.count.set(self.count.get() + 1);
        self.sum.set(self.sum.get().saturating_add(v));
        if v < self.min.get() {
            self.min.set(v);
        }
        if v > self.max.get() {
            self.max.set(v);
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.get()
    }

    /// Merges another histogram in (bucket-wise addition; commutative).
    pub fn absorb(&self, other: &Histogram) {
        for (a, b) in self.buckets.iter().zip(other.buckets.iter()) {
            a.set(a.get() + b.get());
        }
        self.count.set(self.count.get() + other.count.get());
        self.sum.set(self.sum.get().saturating_add(other.sum.get()));
        if other.min.get() < self.min.get() {
            self.min.set(other.min.get());
        }
        if other.max.get() > self.max.get() {
            self.max.set(other.max.get());
        }
    }

    /// Approximate `p`-quantile (0..=1): the upper bound of the bucket
    /// holding the target rank, clamped to the exact min/max.
    fn quantile(&self, p: f64) -> u64 {
        let count = self.count.get();
        if count == 0 {
            return 0;
        }
        let target = ((count as f64) * p).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cum += b.get();
            if cum >= target {
                let upper = if i == 0 { 0 } else { (1u64 << i) - 1 };
                return upper.clamp(self.min.get(), self.max.get());
            }
        }
        self.max.get()
    }

    /// Plain-data summary of the histogram.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.get();
        HistogramSnapshot {
            count,
            sum: self.sum.get(),
            min: if count == 0 { 0 } else { self.min.get() },
            max: self.max.get(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
        }
    }
}

/// Plain-data summary of a [`Histogram`]. Percentiles are log₂-bucket
/// approximations (upper bucket bound); count/sum/min/max are exact.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples (saturating).
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Approximate median.
    pub p50: u64,
    /// Approximate 90th percentile.
    pub p90: u64,
    /// Approximate 99th percentile.
    pub p99: u64,
}

impl HistogramSnapshot {
    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Compact JSON object, e.g.
    /// `{"count":3,"sum":42,"min":2,"max":30,"p50":15,"p90":31,"p99":31}`.
    pub fn to_json(&self) -> String {
        json::object()
            .val("count", self.count)
            .val("sum", self.sum)
            .val("min", self.min)
            .val("max", self.max)
            .val("p50", self.p50)
            .val("p90", self.p90)
            .val("p99", self.p99)
            .finish()
    }
}

/// Deterministic per-stage event counts for one decode. Every field is
/// tied to a per-window, per-packet or per-slot event, so the totals are
/// identical for every worker count of the receiver on the same
/// input — they are carried inside `DecodeReport` and compared with
/// `Eq` by the determinism tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageCounters {
    /// Symbol-length windows scanned for preambles (per antenna).
    pub detect_windows: u64,
    /// Preamble runs found by the scan (validation candidates).
    pub detect_runs: u64,
    /// Duplicate detections dropped or replaced by deduplication.
    pub detect_duplicates: u64,
    /// Fractional synchronization searches launched.
    pub sync_attempts: u64,
    /// Searches that produced a synchronized packet.
    pub sync_accepted: u64,
    /// Aligned signal vectors computed (SigCalc cache misses).
    pub sigcalc_vectors: u64,
    /// Checking points with at least one participating symbol.
    pub thrive_checkpoints: u64,
    /// Peak candidates considered across all checkpoint slots.
    pub thrive_peaks_considered: u64,
    /// Peak assignments made (one per assignable slot).
    pub thrive_assignments: u64,
    /// Assignments that fell back to the strongest unmasked bin.
    pub thrive_fallbacks: u64,
    /// Checking points whose candidate lists were trimmed by the
    /// sibling-cost evaluation budget.
    pub thrive_budget_exhausted: u64,
    /// Header/payload block-decode invocations (BEC or default decoder).
    pub bec_calls: u64,
    /// Repair candidates generated by BEC across those calls.
    pub bec_candidates: u64,
    /// Packet-CRC evaluations performed.
    pub crc_checks: u64,
    /// Payload decodes whose CRC passed.
    pub crc_pass: u64,
    /// Payload decodes whose CRC never passed.
    pub crc_fail: u64,
    /// Payload decodes that hit the per-packet BEC candidate budget.
    pub bec_budget_exhausted: u64,
    /// SIC rescue rounds executed (per overlap component).
    pub sic_rounds: u64,
    /// Decoded-packet replicas subtracted from the IQ buffer.
    pub sic_subtracted: u64,
    /// Replica subtractions skipped by the residual-SNR gate.
    pub sic_skipped: u64,
    /// Packets newly detected on a post-subtraction residual.
    pub sic_redetections: u64,
    /// Packets decoded only by the SIC rescue pass.
    pub sic_rescues: u64,
}

impl StageCounters {
    /// Accumulates another set of counters field-wise.
    pub fn absorb(&mut self, other: &StageCounters) {
        self.detect_windows += other.detect_windows;
        self.detect_runs += other.detect_runs;
        self.detect_duplicates += other.detect_duplicates;
        self.sync_attempts += other.sync_attempts;
        self.sync_accepted += other.sync_accepted;
        self.sigcalc_vectors += other.sigcalc_vectors;
        self.thrive_checkpoints += other.thrive_checkpoints;
        self.thrive_peaks_considered += other.thrive_peaks_considered;
        self.thrive_assignments += other.thrive_assignments;
        self.thrive_fallbacks += other.thrive_fallbacks;
        self.thrive_budget_exhausted += other.thrive_budget_exhausted;
        self.bec_calls += other.bec_calls;
        self.bec_candidates += other.bec_candidates;
        self.crc_checks += other.crc_checks;
        self.crc_pass += other.crc_pass;
        self.crc_fail += other.crc_fail;
        self.bec_budget_exhausted += other.bec_budget_exhausted;
        self.sic_rounds += other.sic_rounds;
        self.sic_subtracted += other.sic_subtracted;
        self.sic_skipped += other.sic_skipped;
        self.sic_redetections += other.sic_redetections;
        self.sic_rescues += other.sic_rescues;
    }

    /// The counters belonging to `stage`, as (name, value) pairs — the
    /// grouping used by the human-readable table and the JSON report.
    pub fn stage_fields(&self, stage: Stage) -> Vec<(&'static str, u64)> {
        match stage {
            Stage::Detect => vec![
                ("windows", self.detect_windows),
                ("runs", self.detect_runs),
                ("duplicates", self.detect_duplicates),
            ],
            Stage::Sync => vec![
                ("attempts", self.sync_attempts),
                ("accepted", self.sync_accepted),
            ],
            Stage::SigCalc => vec![("vectors", self.sigcalc_vectors)],
            Stage::Thrive => vec![
                ("checkpoints", self.thrive_checkpoints),
                ("peaks_considered", self.thrive_peaks_considered),
                ("assignments", self.thrive_assignments),
                ("fallbacks", self.thrive_fallbacks),
                ("budget_exhausted", self.thrive_budget_exhausted),
            ],
            Stage::Bec => vec![
                ("calls", self.bec_calls),
                ("candidates", self.bec_candidates),
                ("crc_checks", self.crc_checks),
                ("crc_pass", self.crc_pass),
                ("crc_fail", self.crc_fail),
                ("budget_exhausted", self.bec_budget_exhausted),
            ],
            Stage::Sic => vec![
                ("rounds", self.sic_rounds),
                ("subtracted", self.sic_subtracted),
                ("skipped", self.sic_skipped),
                ("redetections", self.sic_redetections),
                ("rescues", self.sic_rescues),
            ],
        }
    }
}

/// Nondeterministic measurements of one decode: per-stage wall-time
/// histograms, matching-cost and BEC-candidate distributions, and a few
/// gauges. Interior-mutable so recording takes `&self`; deliberately not
/// `Sync` — each worker thread owns one and they are merged after join.
#[derive(Debug)]
pub struct PipelineMetrics {
    enabled: bool,
    /// Per-stage wall time in nanoseconds, one histogram per [`Stage`].
    wall: [Histogram; 6],
    /// Thrive matching costs in milli-units (cost × 1000).
    pub matching_cost_milli: Histogram,
    /// BEC candidate-set sizes per block-decode call.
    pub bec_candidates: Histogram,
    /// Scratch-pool reuse hits during the decode.
    pub pool_hits: Counter,
    /// Scratch-pool allocations (pool empty) during the decode.
    pub pool_misses: Counter,
    /// Overlap clusters the decode split into, at any worker count.
    pub clusters: Gauge,
    /// Worker threads used.
    pub workers: Gauge,
}

impl PipelineMetrics {
    fn with_enabled(enabled: bool) -> Self {
        PipelineMetrics {
            enabled,
            wall: std::array::from_fn(|_| Histogram::default()),
            matching_cost_milli: Histogram::default(),
            bec_candidates: Histogram::default(),
            pool_hits: Counter::default(),
            pool_misses: Counter::default(),
            clusters: Gauge::default(),
            workers: Gauge::default(),
        }
    }

    /// A recording instance.
    pub fn enabled() -> Self {
        Self::with_enabled(true)
    }

    /// A no-op instance: never reads the clock, records nothing.
    pub fn disabled() -> Self {
        Self::with_enabled(false)
    }

    /// Whether this instance records anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Starts a span: `Some(now)` when enabled, `None` (no clock read)
    /// when disabled. Pair with [`Self::record_span`].
    pub fn now(&self) -> Option<Instant> {
        self.enabled.then(Instant::now)
    }

    /// Ends a span started by [`Self::now`], recording the elapsed
    /// nanoseconds into `stage`'s wall-time histogram. No-op on `None`.
    pub fn record_span(&self, stage: Stage, t0: Option<Instant>) {
        if let Some(t0) = t0 {
            let ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            self.wall[stage.index()].record(ns);
        }
    }

    /// Records a Thrive matching cost (milli-units) when enabled.
    pub fn record_cost(&self, cost_milli: u64) {
        if self.enabled {
            self.matching_cost_milli.record(cost_milli);
        }
    }

    /// Records a BEC candidate-set size when enabled.
    pub fn record_bec_candidates(&self, n: u64) {
        if self.enabled {
            self.bec_candidates.record(n);
        }
    }

    /// Wall-time histogram of one stage.
    pub fn wall(&self, stage: Stage) -> &Histogram {
        &self.wall[stage.index()]
    }

    /// Merges a worker's metrics in. Histogram and counter merges are
    /// commutative sums, so the aggregate is independent of worker
    /// scheduling; gauges keep their maximum.
    pub fn absorb(&self, other: &PipelineMetrics) {
        for (a, b) in self.wall.iter().zip(other.wall.iter()) {
            a.absorb(b);
        }
        self.matching_cost_milli.absorb(&other.matching_cost_milli);
        self.bec_candidates.absorb(&other.bec_candidates);
        self.pool_hits.absorb(&other.pool_hits);
        self.pool_misses.absorb(&other.pool_misses);
        self.clusters.absorb(&other.clusters);
        self.workers.absorb(&other.workers);
    }

    /// Plain-data snapshot of everything recorded so far.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            stage_wall_ns: std::array::from_fn(|i| self.wall[i].snapshot()),
            matching_cost_milli: self.matching_cost_milli.snapshot(),
            bec_candidates: self.bec_candidates.snapshot(),
            pool_hits: self.pool_hits.get(),
            pool_misses: self.pool_misses.get(),
            clusters: self.clusters.get(),
            workers: self.workers.get(),
        }
    }
}

/// Plain-data snapshot of a [`PipelineMetrics`] — safe to move across
/// threads, store in results, or serialize.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Wall-time summaries indexed like [`Stage::ALL`].
    pub stage_wall_ns: [HistogramSnapshot; 6],
    /// Thrive matching-cost distribution (milli-units).
    pub matching_cost_milli: HistogramSnapshot,
    /// BEC candidate-set-size distribution.
    pub bec_candidates: HistogramSnapshot,
    /// Scratch-pool reuse hits.
    pub pool_hits: u64,
    /// Scratch-pool allocations.
    pub pool_misses: u64,
    /// Overlap clusters the decode split into, at any worker count (a
    /// one-worker decode reports its cluster count too; 0 only when no
    /// observed decode ran).
    pub clusters: f64,
    /// Worker threads used (1 for an inline decode; 0 only when no
    /// observed decode ran).
    pub workers: f64,
}

impl MetricsSnapshot {
    /// Wall-time summary of one stage.
    pub fn wall(&self, stage: Stage) -> &HistogramSnapshot {
        &self.stage_wall_ns[stage.index()]
    }

    /// Total recorded wall time across all stages, in nanoseconds.
    pub fn total_wall_ns(&self) -> u64 {
        self.stage_wall_ns.iter().map(|h| h.sum).sum()
    }

    /// Compact JSON object with per-stage timings, distributions and
    /// gauges (stage counters live in `DecodeReport`, not here).
    pub fn to_json(&self) -> String {
        let timings = Stage::ALL
            .iter()
            .fold(json::object(), |o, &stage| {
                o.raw(stage.name(), &self.wall(stage).to_json())
            })
            .finish();
        let pool = json::object()
            .val("hits", self.pool_hits)
            .val("misses", self.pool_misses)
            .finish();
        json::object()
            .raw("timings_ns", &timings)
            .raw("matching_cost_milli", &self.matching_cost_milli.to_json())
            .raw("bec_candidates", &self.bec_candidates.to_json())
            .raw("pool", &pool)
            .val("clusters", self.clusters)
            .val("workers", self.workers)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_adds_and_absorbs() {
        let a = Counter::default();
        let b = Counter::default();
        a.inc();
        a.add(4);
        b.add(10);
        a.absorb(&b);
        assert_eq!(a.get(), 15);
        assert_eq!(b.get(), 10);
    }

    #[test]
    fn shared_counter_is_sync_and_sums() {
        let c = std::sync::Arc::new(SharedCounter::default());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = c.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    c.inc();
                }
                c.add(5);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), 4 * 1005);
    }

    #[test]
    fn gauge_absorb_keeps_max() {
        let a = Gauge::default();
        let b = Gauge::default();
        a.set(3.0);
        b.set(7.0);
        a.absorb(&b);
        assert_eq!(a.get(), 7.0);
        b.absorb(&a);
        assert_eq!(b.get(), 7.0);
    }

    #[test]
    fn histogram_counts_and_bounds() {
        let h = Histogram::default();
        for v in [0u64, 1, 2, 3, 100, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1106);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1000);
        assert!(s.p50 >= 2 && s.p50 <= 100, "p50 {}", s.p50);
        assert!(s.p99 >= 100, "p99 {}", s.p99);
        assert!((s.mean() - 1106.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_absorb_merges() {
        let a = Histogram::default();
        let b = Histogram::default();
        a.record(5);
        b.record(500);
        a.absorb(&b);
        let s = a.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.min, 5);
        assert_eq!(s.max, 500);
    }

    #[test]
    fn empty_histogram_snapshot_is_zero() {
        let s = Histogram::default().snapshot();
        assert_eq!(s, HistogramSnapshot::default());
    }

    #[test]
    fn huge_values_clamp_to_last_bucket() {
        let h = Histogram::default();
        h.record(u64::MAX);
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.max, u64::MAX);
        assert_eq!(s.p50, u64::MAX); // clamped to the exact max
    }

    #[test]
    fn disabled_metrics_never_read_clock() {
        let m = PipelineMetrics::disabled();
        assert!(m.now().is_none());
        m.record_span(Stage::Detect, None);
        m.record_cost(5);
        m.record_bec_candidates(3);
        let s = m.snapshot();
        assert_eq!(s.total_wall_ns(), 0);
        assert_eq!(s.matching_cost_milli.count, 0);
        assert_eq!(s.bec_candidates.count, 0);
    }

    #[test]
    fn enabled_metrics_record_spans() {
        let m = PipelineMetrics::enabled();
        let t0 = m.now();
        assert!(t0.is_some());
        m.record_span(Stage::Thrive, t0);
        assert_eq!(m.wall(Stage::Thrive).count(), 1);
        assert_eq!(m.wall(Stage::Detect).count(), 0);
        let s = m.snapshot();
        assert_eq!(s.wall(Stage::Thrive).count, 1);
    }

    #[test]
    fn absorb_sums_worker_metrics() {
        let main = PipelineMetrics::enabled();
        let worker = PipelineMetrics::enabled();
        worker.record_cost(250);
        worker.pool_hits.add(3);
        worker.record_span(Stage::Bec, worker.now());
        main.record_cost(800);
        main.absorb(&worker);
        let s = main.snapshot();
        assert_eq!(s.matching_cost_milli.count, 2);
        assert_eq!(s.pool_hits, 3);
        assert_eq!(s.wall(Stage::Bec).count, 1);
    }

    #[test]
    fn stage_counters_absorb_and_group() {
        let mut a = StageCounters {
            detect_windows: 10,
            crc_pass: 1,
            ..StageCounters::default()
        };
        let b = StageCounters {
            detect_windows: 5,
            crc_fail: 2,
            ..StageCounters::default()
        };
        a.absorb(&b);
        assert_eq!(a.detect_windows, 15);
        assert_eq!(a.crc_fail, 2);
        // Every stage exposes at least one named counter, and every field
        // belongs to exactly one stage (3+2+1+5+6+5 = 22 fields).
        let total: usize = Stage::ALL.iter().map(|s| a.stage_fields(*s).len()).sum();
        assert_eq!(total, 22);
    }

    #[test]
    fn snapshot_json_is_wellformed_enough() {
        let m = PipelineMetrics::enabled();
        m.record_span(Stage::Detect, m.now());
        let json = m.snapshot().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        for s in Stage::ALL {
            assert!(json.contains(&format!("\"{}\":", s.name())), "{json}");
        }
        assert!(json.contains("\"timings_ns\""));
        assert!(json.contains("\"pool\""));
        // Balanced braces (no nested strings in this format).
        let open = json.matches('{').count();
        let close = json.matches('}').count();
        assert_eq!(open, close);
    }
}
