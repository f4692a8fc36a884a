//! The repository benchmark.
//!
//! ```text
//! tnb-perfbench --workload <dense_sic|gateway_stream|city_wideband>
//!               --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Inputs are generated from `--seed` with `tnb-sim` / `tnb-deploy`; only
//! calls into the public APIs of `tnb-core`, `tnb-dsp`, `tnb-gateway` and
//! `tnb-deploy` are timed. `--trace 0` measures the end-to-end metrics
//! with tracing off; `--trace 1` is the separate traced run that reports
//! the per-layer metrics, each layer's self time and the tracing
//! overhead, and writes its spans as JSON lines under the build
//! directory. The last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the exit code is
//! non-zero when any output check fails.

mod city;
mod dense;
mod measure;
mod stream;
mod tracer;

use std::io::Write;
use std::time::Instant;

use measure::{median, Metrics, Outcome};
use tnb_dsp::{Complex32, FftPlan};
use tracer::{self_time_ns, span_cost_ns, Tracer};

/// The workloads `BENCHMARK.json` declares.
pub const WORKLOADS: [&str; 2] = ["dense_sic", "gateway_stream"];
/// Runnable by hand but left out of `BENCHMARK.json`: it keeps both
/// cores busy, so load from other tenants of a 2-core machine moves it
/// by more than a regression bound allows (see `tnbbench/LEDGER.md`).
/// Its layers are measured in every traced run.
pub const MANUAL_WORKLOADS: [&str; 1] = ["city_wideband"];

/// End-to-end metrics, in print order; every workload reports all.
pub const E2E_NAMES: [&str; 9] = [
    "setup_s",
    "peak_rss_mib",
    "decode_msps",
    "prr",
    "latency_p50_ms",
    "latency_p90_ms",
    "uplink_match",
    "cpu_s_per_stream_s",
    "sim_rate",
];

/// Spans recorded by the traced run; each gets a `self_ms.<name>` metric.
pub const SPANS: [&str; 17] = [
    "core.detect",
    "core.sync",
    "core.receiver",
    "core.sic",
    "core.streaming",
    "core.parallel",
    "dsp.fft",
    "dsp.channelizer",
    "gateway.server",
    "gateway.wire.encode",
    "gateway.wire.decode",
    "gateway.uplink",
    "deploy.traffic",
    "deploy.synth",
    "deploy.wideband",
    "deploy.run",
    "deploy.network",
];

/// Per-layer metrics of the traced run, in print order (the `self_ms.*`
/// entries follow, one per [`SPANS`] name, then the tracing totals).
pub const LAYER_NAMES: [&str; 44] = [
    "detect.ms",
    "detect.windows",
    "detect.runs",
    "sync.us_per_call",
    "sync.attempts",
    "sync.accept_ratio",
    "sync.replay_accepted",
    "decode.ms",
    "sigcalc.vectors",
    "thrive.peaks_considered",
    "thrive.fallbacks",
    "bec.candidates",
    "bec.crc_pass_ratio",
    "sic.ms",
    "sic.subtracted",
    "sic.rescues",
    "sic.rescue_ratio",
    "streaming.push_ms_p50",
    "streaming.push_ms_max",
    "streaming.redecode_ratio",
    "parallel.window_ms_w1",
    "parallel.window_ms_w2",
    "wire.encode_us",
    "wire.decode_us",
    "uplink.format_us",
    "server.overhead_ms",
    "server.direct_latency_p50_ms",
    "server.chunks_dropped",
    "server.shed_frames",
    "gen.late_ms_max",
    "traffic.scene_ms",
    "synth.ns_per_sample",
    "channelizer.ns_per_sample",
    "wideband.ms_per_sim_s",
    "wideband.packets_heard",
    "network.collect_ms",
    "network.duplicates",
    "network.ghosts",
    "fft.us_2048",
    "fft.us_8192",
    "trace.spans",
    "trace.span_cost_ns",
    "trace.overhead_pct",
    "trace.wall_s",
];

/// Every per-layer metric name, including the `self_ms.*` entries.
pub fn layer_names() -> Vec<String> {
    let mut names: Vec<String> = LAYER_NAMES.iter().map(|s| s.to_string()).collect();
    names.extend(SPANS.iter().map(|s| format!("self_ms.{s}")));
    names
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
            "--trace" => trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) && !MANUAL_WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {WORKLOADS:?} or {MANUAL_WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(20.0),
        trace,
    })
}

/// Median µs of one in-place forward FFT of each size the decoders use.
fn fft_probe(t: &Tracer, seed: u64, m: &mut Metrics) {
    for (size, reps, name) in [(2048usize, 2000, "fft.us_2048"), (8192, 500, "fft.us_8192")] {
        let plan = FftPlan::new(size);
        let mut h = seed;
        let input: Vec<Complex32> = (0..size)
            .map(|_| {
                h = tnb_deploy::space::mix64(h);
                Complex32::new(
                    (h & 0xffff) as f32 / 65536.0 - 0.5,
                    (h >> 48) as f32 / 65536.0 - 0.5,
                )
            })
            .collect();
        let mut buf = input.clone();
        let mut us = Vec::with_capacity(reps);
        for _ in 0..reps {
            buf.copy_from_slice(&input);
            let start = Instant::now();
            t.span("dsp.fft", || plan.forward(&mut buf));
            us.push(start.elapsed().as_secs_f64() * 1e6);
        }
        m.put(name, median(&us), "us");
    }
}

/// The traced run: the workload's own layers at a large size, every
/// other layer at a small size, so each per-layer metric is measured.
fn traced(args: &Args) -> std::io::Result<Outcome> {
    let t = Tracer::new(true);
    let own = args.workload.as_str();
    let dense_size = if own == "dense_sic" {
        dense::TRACED
    } else {
        dense::MINI
    };
    let stream_size = if own == "gateway_stream" {
        stream::FULL
    } else {
        stream::MINI
    };
    let city_size = if own == "city_wideband" {
        city::FULL
    } else {
        city::MINI
    };

    let mut m = Metrics::default();
    let mut out = Outcome::default();
    let start = Instant::now();
    let tally = |(attempted, failed): (u64, u64), group: &str, out: &mut Outcome| {
        out.attempted += attempted;
        out.failed += failed;
        if failed > 0 {
            out.problems
                .push(format!("{group}: {failed} failed checks"));
        }
    };
    let r = dense::traced(&t, args.seed, dense_size, &mut m);
    tally(r, "dense_sic layers", &mut out);
    let r = stream::traced(&t, args.seed, stream_size, &mut m)?;
    tally(r, "gateway_stream layers", &mut out);
    let r = city::traced(&t, args.seed, city_size, &mut m);
    tally(r, "city_wideband layers", &mut out);
    fft_probe(&t, args.seed, &mut m);
    let wall_s = start.elapsed().as_secs_f64();
    eprintln!(
        "traced {own}: dense trace {} s, streams {} s, city scene {} s",
        dense_size.trace_s, stream_size.stream_s, city_size.scene_s
    );

    let spans = t.spans();
    let cost = span_cost_ns();
    m.put("trace.spans", spans.len() as f64, "count");
    m.put("trace.span_cost_ns", cost, "ns");
    m.put(
        "trace.overhead_pct",
        100.0 * spans.len() as f64 * cost / (wall_s * 1e9),
        "%",
    );
    m.put("trace.wall_s", wall_s, "s");
    let self_ns = self_time_ns(&spans);
    for name in SPANS {
        let ns = self_ns.get(name).copied().unwrap_or(0);
        m.put(&format!("self_ms.{name}"), ns as f64 / 1e6, "ms");
    }
    out.metrics = m;
    write_spans(&t, args);
    Ok(out)
}

/// Writes the traced run's spans under the build directory.
fn write_spans(t: &Tracer, args: &Args) {
    let dir = std::path::PathBuf::from(
        std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".to_string()),
    )
    .join("tnbbench-spans");
    let path = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|_| std::fs::File::create(&path))
        .and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            t.write_jsonl(&mut w)?;
            w.flush()
        });
    match written {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tnb-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let result = if args.trace {
        traced(&args)
    } else {
        match args.workload.as_str() {
            "dense_sic" => Ok(dense::run(args.seed, args.seconds, dense::FULL)),
            "gateway_stream" => stream::run(args.seed, stream::sized(args.seconds)),
            _ => Ok(city::run(args.seed, args.seconds, city::FULL)),
        }
    };
    let mut out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("tnb-perfbench: {e}");
            std::process::exit(1);
        }
    };
    let expected: Vec<String> = if args.trace {
        layer_names()
    } else {
        E2E_NAMES.iter().map(|s| s.to_string()).collect()
    };
    if out.metrics.names() != expected
        || !out
            .metrics
            .names()
            .iter()
            .all(|n| measure::valid_metric_name(n))
    {
        out.problems
            .push("the metric set differs from the declared one".to_string());
    }
    for p in &out.problems {
        eprintln!("check failed: {p}");
    }
    println!("{}", out.to_json());
    if !out.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_valid_and_unique() {
        let mut all: Vec<String> = E2E_NAMES.iter().map(|s| s.to_string()).collect();
        all.extend(layer_names());
        for n in &all {
            assert!(measure::valid_metric_name(n), "{n}");
        }
        let mut sorted = all.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric names");
    }

    #[test]
    fn benchmark_json_declares_every_metric_and_workload() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let declared = |name: &str| json.contains(&format!("\"name\": \"{name}\""));
        for n in E2E_NAMES
            .iter()
            .map(|s| s.to_string())
            .chain(layer_names())
            .chain(WORKLOADS.iter().map(|s| s.to_string()))
        {
            assert!(declared(&n), "{n} missing from BENCHMARK.json");
        }
    }
}
