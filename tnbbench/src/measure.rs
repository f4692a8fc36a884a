//! Measurement helpers shared by every workload: percentiles, process
//! CPU time and resident memory, the metric set and its JSON rendering.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Ordered metric list of one run.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn names(&self) -> Vec<&str> {
        self.0.iter().map(|m| m.name.as_str()).collect()
    }
}

/// The run's verdict plus its metrics, printed as the last stdout line.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable reasons the run is not valid (failed output checks,
    /// a generator too late to trust its latencies, …).
    pub problems: Vec<String>,
    pub metrics: Metrics,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }

    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .metrics
            .0
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting keeps; non-finite values (never expected) render as 0.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Metric names are `[A-Za-z0-9_.-]+` and start with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// `a / b`, or 0 when there is nothing to divide by.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Nearest-rank percentile `p` (0..=100) of `values`; 0 for no values.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Percentiles a tail latency may be reported at, highest first.
pub const TAIL_PERCENTILES: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// The highest of [`TAIL_PERCENTILES`] that still has at least ten
/// samples beyond it among `n` samples, or `None` when `n` is too small
/// for even the median.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .iter()
        .copied()
        .find(|p| (n as f64) * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// Open-loop latency: from the instant a packet's last sample was due to
/// be sent (`t0 + due_s`, the schedule — not when the generator actually
/// sent it) to the arrival of its uplink.
pub fn latency_from_due(t0: Instant, due_s: f64, arrived: Instant) -> f64 {
    let due = t0 + Duration::from_secs_f64(due_s.max(0.0));
    match arrived.checked_duration_since(due) {
        Some(d) => d.as_secs_f64(),
        None => -(due.duration_since(arrived).as_secs_f64()),
    }
}

/// Process CPU time (user + system, all threads) in seconds, from
/// `/proc/self/stat` (clock ticks of 1/100 s).
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let mut f = rest.split_whitespace().skip(11);
    let utime: f64 = f.next().and_then(|s| s.parse().ok()).unwrap_or(0.0);
    let stime: f64 = f.next().and_then(|s| s.parse().ok()).unwrap_or(0.0);
    (utime + stime) / 100.0
}

/// Resident set size in bytes (`/proc/self/statm`, 4 KiB pages).
pub fn rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse::<u64>().ok())
        .map_or(0, |pages| pages * 4096)
}

/// Lifetime peak resident set (`VmHWM`) in bytes.
pub fn hwm_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<u64>().ok()
        })
        .map_or(0, |kb| kb * 1024)
}

/// Samples the resident set every few milliseconds while a timed section
/// runs. The peak is the larger of the sampled maximum and the lifetime
/// high-water mark when the section raised it.
pub struct RssSampler {
    stop: Arc<AtomicBool>,
    hwm_before: u64,
    handle: JoinHandle<u64>,
}

impl RssSampler {
    pub fn start() -> RssSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let hwm_before = hwm_bytes();
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut peak = rss_bytes();
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(5));
                peak = peak.max(rss_bytes());
            }
            peak.max(rss_bytes())
        });
        RssSampler {
            stop,
            hwm_before,
            handle,
        }
    }

    /// Stops sampling; returns the section's peak resident set in MiB.
    pub fn finish(self) -> f64 {
        self.stop.store(true, Ordering::Relaxed);
        let sampled = self.handle.join().expect("memory sampler thread panicked");
        let hwm = hwm_bytes();
        let peak = if hwm > self.hwm_before {
            sampled.max(hwm)
        } else {
            sampled
        };
        peak as f64 / (1024.0 * 1024.0)
    }
}

/// Wall and CPU clocks of a timed section, with its memory peak.
pub struct Section {
    wall: Instant,
    cpu: f64,
    rss: RssSampler,
}

/// What a [`Section`] measured.
pub struct SectionStats {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub peak_rss_mib: f64,
}

impl Section {
    pub fn start() -> Section {
        let rss = RssSampler::start();
        Section {
            wall: Instant::now(),
            cpu: process_cpu_s(),
            rss,
        }
    }

    pub fn elapsed_s(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }

    pub fn finish(self) -> SectionStats {
        let wall_s = self.wall.elapsed().as_secs_f64();
        let cpu_s = process_cpu_s() - self.cpu;
        SectionStats {
            wall_s,
            cpu_s,
            peak_rss_mib: self.rss.finish(),
        }
    }
}

/// Loop control for the batch workloads: every input is processed at
/// least `min_rounds` times, then rounds continue while another one is
/// expected to finish within the `seconds` budget.
pub fn keep_going(done: usize, required: usize, elapsed_s: f64, seconds: f64) -> bool {
    if done < required {
        return true;
    }
    let mean = elapsed_s / done.max(1) as f64;
    elapsed_s + mean <= seconds
}

/// Median wall time in seconds of `reps` runs of `f`.
pub fn median_time_s<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        std::hint::black_box(f());
        times.push(t.elapsed().as_secs_f64());
    }
    median(&times)
}

/// Seed of the `k`-th independent input derived from the run seed.
pub fn sub_seed(seed: u64, k: u64) -> u64 {
    tnb_deploy::space::hash_words(seed, &[k])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(169), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        // Exactly ten samples lie beyond the p90 of 100 samples.
        let p90 = percentile(&v, 90.0);
        assert_eq!(v.iter().filter(|&&x| x > p90).count(), 10);
    }

    #[test]
    fn latency_counts_from_the_due_instant() {
        let t0 = Instant::now();
        // The generator sent late (due at 1.0 s, sent at 1.3 s) and the
        // uplink arrived at 1.5 s: latency is 0.5 s, not 0.2 s.
        let arrived = t0 + Duration::from_millis(1500);
        let l = latency_from_due(t0, 1.0, arrived);
        assert!((l - 0.5).abs() < 1e-9, "{l}");
        // An arrival before the due instant reads negative, never clamped.
        let early = latency_from_due(t0, 2.0, arrived);
        assert!((early + 0.5).abs() < 1e-9, "{early}");
    }

    #[test]
    fn metric_name_rules() {
        for ok in [
            "latency_p90_ms",
            "fft.us_2048",
            "self_ms.core.detect",
            "gen.late_ms_max",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", "core::detect", "a b", "_x", "x/y", "é"] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn loop_control_finishes_required_rounds_then_fits_the_budget() {
        assert!(keep_going(0, 2, 0.0, 0.0));
        assert!(keep_going(1, 2, 50.0, 1.0));
        assert!(!keep_going(2, 2, 20.8, 20.0));
        assert!(keep_going(2, 2, 6.0, 20.0));
        assert!(!keep_going(3, 2, 16.0, 20.0));
    }

    #[test]
    fn outcome_json_shape() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.metrics.put("setup_s", 0.25, "s");
        assert_eq!(
            o.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        o.failed = 1;
        assert!(!o.correct());
    }
}
