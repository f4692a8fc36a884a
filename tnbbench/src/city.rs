//! `city_wideband`: `tnb_deploy::run_deploy` on a seeded 8-channel
//! wideband city scene (SF 8 and 10, Poisson traffic, 2 gateways, SIC
//! off) with 2 decode workers.

use std::time::Instant;

use tnb_core::{SicConfig, StreamingConfig, TnbConfig, WidebandConfig, WidebandReceiver};
use tnb_deploy::space::hash_words;
use tnb_deploy::{run_deploy, traffic, DeployConfig, DeployReport, NetworkReport, Scene, Tx};
use tnb_dsp::{Channelizer, ChannelizerConfig, Complex32};
use tnb_sim::traffic::PAYLOAD_LEN;

use crate::measure::{keep_going, median, median_time_s, percentile, ratio};
use crate::measure::{Metrics, Outcome, Section};
use crate::tracer::Tracer;

/// City-wide offered load, packets per second.
pub const LOAD_PPS: f64 = 30.0;
pub const WORKERS: usize = 2;
pub const CHANNELS: usize = 8;
/// Share of the transmissions sent at SF10. Nodes pick their SF by link
/// quality, and in this city about 3 % of them need SF10, so a plain
/// Poisson draw of 30 packets holds 0 to 2 SF10 packets, and each one
/// costs about a tenth of a run. Fixing the mix at its expected share
/// keeps runs with different seeds comparable.
pub const SF10_SHARE: f64 = 1.0 / 30.0;

#[derive(Debug, Clone, Copy)]
pub struct CitySize {
    /// Simulated seconds of the scene.
    pub scene_s: f64,
}

/// One simulated second (about 30 transmissions), run at least twice.
pub const FULL: CitySize = CitySize { scene_s: 1.0 };
/// Packets start within the scene minus one SF10 airtime (0.37 s), so
/// the small scene keeps 0.13 s of start times.
pub const MINI: CitySize = CitySize { scene_s: 0.5 };

pub fn config(seed: u64, size: CitySize) -> DeployConfig {
    DeployConfig {
        gateways: 2,
        load_pps: LOAD_PPS,
        duration_s: size.scene_s,
        seed,
        sic: false,
        wideband: true,
        channels: CHANNELS,
        traffic: tnb_deploy::TrafficModel::Poisson,
        ..DeployConfig::default()
    }
}

/// The scene's transmissions: Poisson arrivals drawn by
/// `tnb_deploy::traffic` over a 40x denser pool, from which a seeded
/// uniform subset with exactly the configured SF mix is kept.
pub fn schedule(cfg: &DeployConfig) -> Vec<Tx> {
    let total = (cfg.load_pps * cfg.duration_s).round() as usize;
    let sf10 = ((total as f64 * SF10_SHARE).round() as usize).max(1);
    let quota = [total.saturating_sub(sf10), sf10];
    let pool_cfg = DeployConfig {
        load_pps: cfg.load_pps * 40.0,
        ..cfg.clone()
    };
    let mut pool = traffic::generate(&pool_cfg);
    pool.sort_by_key(|tx| hash_words(cfg.seed, &[u64::from(tx.node), u64::from(tx.seq)]));
    let mut taken = [0usize; 2];
    pool.retain(|tx| {
        let sf = usize::from(tx.sf_idx).min(1);
        taken[sf] += 1;
        taken[sf] <= quota[sf]
    });
    pool
}

/// Builds the scene (traffic generation plus `Scene::with_schedule`).
pub fn build_scene(cfg: &DeployConfig) -> Scene {
    Scene::with_schedule(cfg.clone(), schedule(cfg))
}

/// FNV-1a digest of everything a deployment run reports.
pub fn digest(report: &DeployReport) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(report.to_json().as_bytes());
    for line in report.uplinks.iter().flatten() {
        eat(line.as_bytes());
        eat(b"\n");
    }
    h
}

pub fn run(seed: u64, seconds: f64, size: CitySize) -> Outcome {
    let cfg = config(seed, size);
    let setup = median_time_s(50, || build_scene(&cfg));
    let scene = build_scene(&cfg);
    let fs = scene.cfg.sample_rate();
    let sim_s = scene.total_samples() as f64 / fs;

    let mut reports: Vec<DeployReport> = Vec::new();
    let mut pass_ms = Vec::new();
    let section = Section::start();
    while keep_going(reports.len(), 2, section.elapsed_s(), seconds) {
        let t = Instant::now();
        reports.push(run_deploy(&scene, WORKERS));
        pass_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let stats = section.finish();

    let mut out = Outcome::default();
    let first = &reports[0];
    let first_digest = digest(first);
    let first_lines: Vec<&String> = first.uplinks.iter().flatten().collect();
    let mut reproduced = 0usize;
    for (i, r) in reports.iter().enumerate().skip(1) {
        let lines: Vec<&String> = r.uplinks.iter().flatten().collect();
        reproduced += first_lines.iter().filter(|l| lines.contains(l)).count();
        if digest(r) != first_digest {
            out.failed += 1;
            out.problems
                .push(format!("pass {i}: report digest differs from pass 0"));
        }
    }
    let ghosts = first.network.ghosts;
    if ghosts > 0 {
        out.failed += ghosts;
        out.problems.push(format!(
            "{ghosts} ghost deliveries (payloads never scheduled)"
        ));
    }
    out.attempted = first.offered as u64;
    let passes = reports.len() as f64;
    let wideband_samples =
        scene.total_samples() as f64 * CHANNELS as f64 * f64::from(scene.cfg.gateways);
    let m = &mut out.metrics;
    m.put("setup_s", setup, "s");
    m.put("peak_rss_mib", stats.peak_rss_mib, "MiB");
    m.put(
        "decode_msps",
        passes * wideband_samples / stats.wall_s / 1e6,
        "Msps",
    );
    m.put("prr", first.network.prr(first.offered), "ratio");
    m.put("latency_p50_ms", median(&pass_ms), "ms");
    m.put("latency_p90_ms", percentile(&pass_ms, 90.0), "ms");
    m.put(
        "uplink_match",
        ratio(
            reproduced as f64,
            (first_lines.len() * (reports.len() - 1)) as f64,
        ),
        "ratio",
    );
    m.put("cpu_s_per_stream_s", stats.cpu_s / stats.wall_s, "s/s");
    m.put("sim_rate", passes * sim_s / stats.wall_s, "s/s");
    eprintln!(
        "city_wideband: {} passes of {sim_s:.3} simulated s, {} offered, {} delivered",
        reports.len(),
        first.offered,
        first.network.deliveries.len()
    );
    out
}

/// Streaming configuration of the deployment's per-channel receivers.
fn streaming(sic: bool) -> StreamingConfig {
    StreamingConfig {
        receiver: TnbConfig {
            noise_power: Some(1.0),
            sic: SicConfig {
                enabled: sic,
                ..SicConfig::default()
            },
            ..TnbConfig::default()
        },
        max_payload: PAYLOAD_LEN,
        ..StreamingConfig::default()
    }
}

/// Traced run of the deployment layers and the channelizer on gateway
/// 0's stream. Returns (attempted, failed).
pub fn traced(t: &Tracer, seed: u64, size: CitySize, m: &mut Metrics) -> (u64, u64) {
    let cfg = config(seed, size);
    let mut scene_ms = Vec::new();
    for _ in 0..20 {
        let start = Instant::now();
        std::hint::black_box(t.span("deploy.traffic", || build_scene(&cfg)));
        scene_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    let scene = build_scene(&cfg);
    let fs = scene.cfg.sample_rate();
    let total = scene.total_samples();
    let sim_s = total as f64 / fs;

    let chan_cfg = ChannelizerConfig {
        channels: CHANNELS,
        ..ChannelizerConfig::default()
    };
    let mut chan = Channelizer::new(chan_cfg);
    let mut chan_out: Vec<Vec<Complex32>> = vec![Vec::new(); CHANNELS];
    let mut wide: Vec<WidebandReceiver> = (0..scene.cfg.sfs.len())
        .map(|sf| {
            WidebandReceiver::with_config(
                scene.params(sf),
                WidebandConfig {
                    channelizer: chan_cfg,
                    streaming: streaming(scene.cfg.sic),
                },
            )
        })
        .collect();
    let step = 65_536u64;
    let mut wideband_samples = 0u64;
    let mut heard = 0usize;
    let mut pos = 0;
    while pos < total {
        let end = (pos + step).min(total);
        let w = t.span("deploy.synth", || scene.synth_window_wideband(0, pos, end));
        wideband_samples += w.len() as u64;
        t.span("dsp.channelizer", || {
            for c in chan_out.iter_mut() {
                c.clear();
            }
            chan.push(&w, &mut chan_out)
        });
        for rx in wide.iter_mut() {
            heard += t.span("deploy.wideband", || rx.push(&w)).len();
        }
        pos = end;
    }
    for rx in wide.iter_mut() {
        heard += t.span("deploy.wideband", || rx.finish()).len();
    }

    let report = t.span("deploy.run", || run_deploy(&scene, WORKERS));
    let network = t.span("deploy.network", || {
        NetworkReport::collect(&scene, &report.uplinks)
    });
    let n = wideband_samples.max(1) as f64;
    m.put("traffic.scene_ms", median(&scene_ms), "ms");
    m.put(
        "synth.ns_per_sample",
        t.total_ms("deploy.synth") * 1e6 / n,
        "ns",
    );
    m.put(
        "channelizer.ns_per_sample",
        t.total_ms("dsp.channelizer") * 1e6 / n,
        "ns",
    );
    m.put(
        "wideband.ms_per_sim_s",
        ratio(t.total_ms("deploy.wideband"), sim_s),
        "ms",
    );
    m.put("wideband.packets_heard", heard as f64, "count");
    m.put("network.collect_ms", t.total_ms("deploy.network"), "ms");
    m.put("network.duplicates", network.duplicates as f64, "count");
    m.put("network.ghosts", network.ghosts as f64, "count");
    (report.offered as u64, network.ghosts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_has_the_fixed_sf_mix() {
        for seed in 1..6 {
            let cfg = config(seed, FULL);
            let s = schedule(&cfg);
            assert_eq!(s.len(), 30);
            assert_eq!(s.iter().filter(|t| t.sf_idx == 1).count(), 1);
            let mut ids: Vec<(u32, u32)> = s.iter().map(|t| (t.node, t.seq)).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), 30);
        }
    }

    #[test]
    fn smoke() {
        let out = run(7, 0.0, CitySize { scene_s: 0.4 });
        assert!(out.attempted > 0);
        assert!(out.correct(), "{:?}", out.problems);
        assert_eq!(out.metrics.names(), crate::E2E_NAMES);
    }
}
