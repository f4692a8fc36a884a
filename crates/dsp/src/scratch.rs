//! Reusable DSP workspace for the steady-state decode loop.
//!
//! The hot path of the receiver — de-chirp, FFT, fold, signal-vector
//! accumulation — runs once or more per symbol per packet. Allocating
//! fresh buffers for every call dominates small-symbol workloads and
//! fragments the heap under sustained load, so every per-symbol buffer
//! lives in a [`DspScratch`] that the caller owns and reuses.
//!
//! A `DspScratch` is deliberately *not* `Sync`: each worker thread of the
//! receiver's work pool owns its own scratch, so the hot loop never takes
//! a lock. Construction is cheap (empty vectors, no plans); plans and
//! buffers grow lazily to the largest size seen and are then reused
//! indefinitely.

use crate::complex::Complex32;
use crate::fft::FftPlan;

/// Upper bound on vectors kept in the recycling pool, so a burst of
/// concurrent packets cannot pin an unbounded amount of memory.
const POOL_CAP: usize = 256;

/// Rotator tables kept by a [`RotatorCache`]. One fractional-sync search
/// touches at most 18 distinct CFOs (17 grid points plus `δf* + 1`), and
/// signal-vector calculation one per overlapping packet, so 24 entries
/// hold a whole search or a dense collision without rebuilding.
const ROTATOR_CACHE_CAP: usize = 24;

/// Fills `rot` with the CFO-removal rotator `e^{-j2π·δ·n/L}` for
/// `n in 0..len`, `δ = cfo_cycles` (phase accumulated in `f64`). The
/// de-chirp paths' one rotator formula: the [`RotatorCache`] and the
/// allocating spectrum paths both call it, so their tables are
/// bit-identical.
pub fn fill_rotator(len: usize, cfo_cycles: f64, rot: &mut Vec<Complex32>) {
    let step = -2.0 * std::f64::consts::PI * cfo_cycles / len as f64;
    rot.clear();
    rot.extend((0..len).map(|n| Complex32::from_phase(step * n as f64)));
}

/// Cache of [`FftPlan`]s keyed by transform size.
///
/// LoRa processing only ever uses a handful of sizes (`2^SF · OSF` for
/// the spreading factors in play), so a linear scan over a small vector
/// beats a hash map here.
#[derive(Debug, Default)]
pub struct FftPlanCache {
    plans: Vec<FftPlan>,
}

impl FftPlanCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        FftPlanCache::default()
    }

    /// Returns the plan for `size`, building it on first use.
    ///
    /// # Panics
    /// Panics if `size` is zero or not a power of two (see
    /// [`FftPlan::new`]).
    pub fn get(&mut self, size: usize) -> &FftPlan {
        if let Some(i) = self.plans.iter().position(|p| p.size() == size) {
            return &self.plans[i];
        }
        self.plans.push(FftPlan::new(size));
        let last = self.plans.len() - 1;
        &self.plans[last]
    }

    /// Number of distinct sizes planned so far.
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// True when no plans have been built yet.
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }
}

/// One cached rotator table and its key.
#[derive(Debug)]
struct RotatorEntry {
    len: usize,
    cfo_bits: u64,
    /// [`RotatorCache::get`] tick of the last use, for LRU eviction.
    last_use: u64,
    table: Vec<Complex32>,
}

/// Cache of CFO-removal rotator tables keyed by `(len, cfo.to_bits())`.
///
/// A table costs `len` `f64` sin/cos evaluations, while the callers
/// reuse a handful of CFOs many times over: the fractional-sync search
/// evaluates 36 points on at most 18 distinct CFOs, and every symbol of
/// a packet is de-rotated by the packet's one CFO. Like
/// [`FftPlanCache`], a linear scan over a small vector; past
/// `ROTATOR_CACHE_CAP` entries the least recently used table is
/// overwritten in place, so a warm cache never allocates.
#[derive(Debug, Default)]
pub struct RotatorCache {
    entries: Vec<RotatorEntry>,
    tick: u64,
    builds: u64,
}

impl RotatorCache {
    /// Returns the [`fill_rotator`] table for `(len, cfo_cycles)`,
    /// building it on first use (or after its eviction).
    pub fn get(&mut self, len: usize, cfo_cycles: f64) -> &[Complex32] {
        self.tick += 1;
        let cfo_bits = cfo_cycles.to_bits();
        let hit = self
            .entries
            .iter()
            .position(|e| e.len == len && e.cfo_bits == cfo_bits);
        let i = match hit {
            Some(i) => i,
            None => {
                self.builds += 1;
                if self.entries.len() < ROTATOR_CACHE_CAP {
                    // Never used, so the eviction scan below picks it.
                    self.entries.push(RotatorEntry {
                        len,
                        cfo_bits,
                        last_use: 0,
                        table: Vec::new(),
                    });
                }
                let lru = self
                    .entries
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.last_use)
                    .map_or(0, |(i, _)| i);
                let e = &mut self.entries[lru];
                (e.len, e.cfo_bits) = (len, cfo_bits);
                fill_rotator(len, cfo_cycles, &mut e.table);
                lru
            }
        };
        let e = &mut self.entries[i];
        e.last_use = self.tick;
        &e.table
    }

    /// Tables built so far (first uses plus rebuilds after eviction):
    /// a deterministic work count, `len` sin/cos evaluations each.
    pub fn builds(&self) -> u64 {
        self.builds
    }

    /// Number of tables currently cached.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no table has been built yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Reusable buffers and cached FFT plans for one decoding thread.
///
/// The public buffer fields are working storage with no invariants: any
/// routine may clear and refill them. The only contract is temporal —
/// a routine that takes `&mut DspScratch` may clobber every buffer, so
/// callers must not hold data in the scratch across such a call. Within
/// the workspace:
///
/// - `cbuf` holds the current de-chirped window / in-place FFT,
/// - `cacc_a` / `cacc_b` hold time-domain coherent sums of symbol
///   windows (the fractional-sync search sums the phase-aligned
///   up- and down-chirp windows of a preamble before one FFT each),
/// - `fbuf` holds a folded length-`N` signal vector,
/// - `facc` holds a signal-vector accumulation across antennas.
///
/// Two deterministic work counts ride along: `ffts` (transforms run
/// by the scratch spectrum paths) and [`RotatorCache::builds`] on
/// `rotators`.
#[derive(Debug, Default)]
pub struct DspScratch {
    /// FFT plans keyed by size, built on first use.
    pub plans: FftPlanCache,
    /// CFO-removal rotator tables keyed by `(len, cfo)`.
    pub rotators: RotatorCache,
    /// FFTs run through the scratch spectrum paths so far.
    pub ffts: u64,
    /// Complex working buffer (de-chirped window, in-place FFT).
    pub cbuf: Vec<Complex32>,
    /// Complex accumulator A (e.g. summed up-chirp windows).
    pub cacc_a: Vec<Complex32>,
    /// Complex accumulator B (e.g. summed down-chirp windows).
    pub cacc_b: Vec<Complex32>,
    /// Real working buffer (folded signal vector).
    pub fbuf: Vec<f32>,
    /// Real accumulator (signal vector summed across antennas).
    pub facc: Vec<f32>,
    pool: Vec<Vec<f32>>,
    pool_hits: u64,
    pool_misses: u64,
}

impl DspScratch {
    /// Creates an empty scratch; buffers and plans grow on first use.
    pub fn new() -> Self {
        DspScratch::default()
    }

    /// Takes a zeroed `f32` vector of length `len` from the recycling
    /// pool, allocating only when the pool is empty.
    pub fn take_f32(&mut self, len: usize) -> Vec<f32> {
        match self.pool.pop() {
            Some(mut v) => {
                self.pool_hits += 1;
                v.clear();
                v.resize(len, 0.0);
                v
            }
            None => {
                self.pool_misses += 1;
                vec![0.0; len]
            }
        }
    }

    /// Returns a vector to the recycling pool for a later
    /// [`take_f32`](Self::take_f32). Vectors beyond the pool cap are
    /// dropped.
    pub fn recycle_f32(&mut self, v: Vec<f32>) {
        if v.capacity() > 0 && self.pool.len() < POOL_CAP {
            self.pool.push(v);
        }
    }

    /// Number of vectors currently available in the recycling pool.
    pub fn pooled(&self) -> usize {
        self.pool.len()
    }

    /// Cumulative `(hits, misses)` of [`take_f32`](Self::take_f32) over
    /// this scratch's lifetime: a hit reused a pooled allocation, a miss
    /// allocated. Observability reads the delta around a decode to report
    /// pool effectiveness.
    pub fn pool_stats(&self) -> (u64, u64) {
        (self.pool_hits, self.pool_misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_cache_reuses_plans() {
        let mut c = FftPlanCache::new();
        assert!(c.is_empty());
        let p1 = c.get(256) as *const FftPlan;
        let p2 = c.get(256) as *const FftPlan;
        assert_eq!(p1, p2);
        assert_eq!(c.get(256).size(), 256);
        c.get(1024);
        assert_eq!(c.len(), 2);
        // The original plan is still served for its size.
        assert_eq!(c.get(256).size(), 256);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn plan_cache_rejects_bad_size() {
        FftPlanCache::new().get(48);
    }

    #[test]
    fn rotator_cache_matches_formula_bit_for_bit() {
        let mut c = RotatorCache::default();
        for cfo in [0.0, 1.25, -0.5, 3.0625] {
            let mut want = Vec::new();
            fill_rotator(2048, cfo, &mut want);
            assert_eq!(c.get(2048, cfo), &want[..], "cfo={cfo}");
            // A hit returns the same table without a rebuild.
            let builds = c.builds();
            assert_eq!(c.get(2048, cfo), &want[..], "cfo={cfo} (hit)");
            assert_eq!(c.builds(), builds);
        }
        assert_eq!(c.builds(), 4);
    }

    #[test]
    fn rotator_cache_keys_on_length() {
        let mut c = RotatorCache::default();
        let a = c.get(256, 0.5).to_vec();
        let b = c.get(512, 0.5).to_vec();
        assert_eq!((a.len(), b.len()), (256, 512));
        assert_eq!((c.len(), c.builds()), (2, 2));
        // Same CFO, different step per sample.
        assert_ne!(a[1], b[1]);
        let mut want = Vec::new();
        fill_rotator(256, 0.5, &mut want);
        assert_eq!(c.get(256, 0.5), &want[..]);
        assert_eq!(c.builds(), 2);
    }

    #[test]
    fn rotator_cache_eviction_stays_correct() {
        let mut c = RotatorCache::default();
        let cfo = |k: usize| k as f64 / 16.0 - 1.0;
        let total = ROTATOR_CACHE_CAP + 10;
        for k in 0..total {
            c.get(128, cfo(k));
        }
        assert_eq!(c.len(), ROTATOR_CACHE_CAP);
        assert_eq!(c.builds(), total as u64);
        // The oldest keys were evicted (LRU) and rebuild correctly; the
        // newest are still cached.
        let mut want = Vec::new();
        for k in [0, 5, total - 1] {
            fill_rotator(128, cfo(k), &mut want);
            assert_eq!(c.get(128, cfo(k)), &want[..], "k={k}");
        }
        assert_eq!(c.builds(), total as u64 + 2);
        // Recently touched entries survive the next eviction.
        c.get(128, 100.0);
        let builds = c.builds();
        c.get(128, cfo(0));
        c.get(128, cfo(5));
        assert_eq!(c.builds(), builds);
    }

    #[test]
    fn pool_recycles_allocations() {
        let mut s = DspScratch::new();
        let v = s.take_f32(64);
        assert_eq!(v.len(), 64);
        let ptr = v.as_ptr();
        s.recycle_f32(v);
        assert_eq!(s.pooled(), 1);
        // Same (or smaller) length reuses the same allocation.
        let v2 = s.take_f32(32);
        assert_eq!(v2.as_ptr(), ptr);
        assert_eq!(v2.len(), 32);
        assert!(v2.iter().all(|&x| x == 0.0));
        assert_eq!(s.pooled(), 0);
    }

    #[test]
    fn pool_is_bounded() {
        let mut s = DspScratch::new();
        for _ in 0..(POOL_CAP + 10) {
            s.recycle_f32(vec![0.0; 8]);
        }
        assert_eq!(s.pooled(), POOL_CAP);
        // Zero-capacity vectors are not worth pooling.
        let before = s.pooled();
        s.recycle_f32(Vec::new());
        assert_eq!(s.pooled(), before);
    }
}
