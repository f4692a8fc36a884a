//! The sharded decode loop: deterministic fan-out over
//! `(gateway, SF, time-shard)` tasks.
//!
//! The timeline splits into fixed-length shards (a pure function of the
//! config — never of the worker count). Each task synthesizes its shard
//! window with pre/post padding, streams it through a fresh
//! [`StreamingReceiver`] (or [`WidebandReceiver`]), and keeps only the
//! decodes whose start falls inside the shard it owns. The decoder's
//! ordered work pool ([`tnb_core::Pool`]) executes tasks in any order
//! and returns results in task order, so the output — down to the
//! uplink-line bytes — is identical for 1, 2 or 8 workers.

use crate::network::NetworkReport;
use crate::synth::Scene;
use crate::TrafficModel;
use tnb_core::metrics::json;
use tnb_core::{
    same_transmission, DecodedPacket, Pool, SicConfig, StreamingConfig, StreamingReceiver,
    TnbConfig, WidebandConfig, WidebandReceiver,
};
use tnb_dsp::ChannelizerConfig;
use tnb_gateway::uplink::Uplink;
use tnb_phy::Transmitter;
use tnb_sim::traffic::PAYLOAD_LEN;

/// One decode task: a gateway's shard of the timeline at one SF.
#[derive(Debug, Clone, Copy)]
struct Task {
    gw: u32,
    sf_idx: usize,
    shard: u64,
}

/// One decoded packet attributed to where it was heard. `packet.start`
/// is absolute on the gateway's channel-rate sample clock.
#[derive(Debug, Clone)]
struct Heard {
    sf_idx: usize,
    channel: usize,
    packet: DecodedPacket,
}

/// Everything one deployment run produced.
#[derive(Debug, Clone)]
pub struct DeployReport {
    /// The scene's config echo (see [`DeployReport::to_json`]).
    pub nodes: u32,
    /// Gateways simulated.
    pub gateways: u32,
    /// Offered load, packets/s.
    pub load_pps: f64,
    /// Simulated seconds.
    pub duration_s: f64,
    /// Master seed.
    pub seed: u64,
    /// SIC rescue pass on?
    pub sic: bool,
    /// Wideband front-end?
    pub wideband: bool,
    /// Traffic model echo.
    pub traffic: TrafficModel,
    /// SF values in use.
    pub sfs: Vec<u8>,
    /// Scheduled transmissions.
    pub offered: usize,
    /// Offered count per SF slot.
    pub offered_per_sf: Vec<usize>,
    /// Uplink lines emitted per gateway (pre-dedup).
    pub uplinks: Vec<Vec<String>>,
    /// The deduped network view.
    pub network: NetworkReport,
}

/// Runs the deployment end to end with `workers` decode threads.
/// Byte-identical output for any `workers ≥ 1`.
pub fn run_deploy(scene: &Scene, workers: usize) -> DeployReport {
    let cfg = &scene.cfg;
    let total = scene.total_samples();
    let shard_len = cfg.shard_samples.max(1);
    let n_shards = total.div_ceil(shard_len).max(1);
    let n_sfs = cfg.sfs.len().max(1);

    let mut tasks = Vec::new();
    for gw in 0..cfg.gateways.max(1) {
        for sf_idx in 0..n_sfs {
            for shard in 0..n_shards {
                tasks.push(Task { gw, sf_idx, shard });
            }
        }
    }

    // A task whose decode panicked contributes nothing.
    let slots = Pool::new(workers, || ()).map(&tasks, |_, task| {
        decode_task(scene, *task, total, shard_len, n_shards)
    });

    // Merge in task order: per (gateway, SF), shards concatenate in
    // time order and boundary duplicates collapse under the same
    // `same_transmission` predicate the receivers use internally.
    let mut per_gateway: Vec<Vec<Heard>> = vec![Vec::new(); cfg.gateways.max(1) as usize];
    let mut it = slots.into_iter();
    for gw in 0..cfg.gateways.max(1) {
        for sf_idx in 0..n_sfs {
            let sps = scene.params(sf_idx).samples_per_symbol() as f64;
            let mut kept: Vec<(usize, f64, f64)> = Vec::new(); // (channel, start, cfo)
            for _shard in 0..n_shards {
                let heard = it.next().flatten().unwrap_or_default();
                for h in heard {
                    let dup = kept.iter().any(|&(c, st, cf)| {
                        c == h.channel
                            && same_transmission(st, cf, h.packet.start, h.packet.cfo_cycles, sps)
                    });
                    if dup {
                        continue;
                    }
                    kept.push((h.channel, h.packet.start, h.packet.cfo_cycles));
                    if let Some(bucket) = per_gateway.get_mut(gw as usize) {
                        bucket.push(h);
                    }
                }
            }
        }
    }

    // Gateway uplink feeds: every gateway orders its packets by start
    // time (then SF, then channel) and emits PR 5 Semtech-style lines.
    let mut uplinks: Vec<Vec<String>> = Vec::new();
    for (gw, heard) in per_gateway.iter_mut().enumerate() {
        heard.sort_by(|a, b| {
            a.packet
                .start
                .total_cmp(&b.packet.start)
                .then(a.sf_idx.cmp(&b.sf_idx))
                .then(a.channel.cmp(&b.channel))
        });
        let mut lines = Vec::with_capacity(heard.len());
        for (n, h) in heard.iter().enumerate() {
            let params = scene.params(h.sf_idx);
            let channel = cfg.wideband.then_some(h.channel);
            lines.push(Uplink::new(&params, gw as u32, n as u64, channel, &h.packet).to_line());
        }
        uplinks.push(lines);
    }

    let network = NetworkReport::collect(scene, &uplinks);
    let mut offered_per_sf = vec![0usize; n_sfs];
    for tx in &scene.schedule {
        if let Some(slot) = offered_per_sf.get_mut(tx.sf_idx as usize) {
            *slot += 1;
        }
    }
    DeployReport {
        nodes: cfg.nodes,
        gateways: cfg.gateways,
        load_pps: cfg.load_pps,
        duration_s: cfg.duration_s,
        seed: cfg.seed,
        sic: cfg.sic,
        wideband: cfg.wideband,
        traffic: cfg.traffic,
        sfs: cfg.sfs.iter().map(|s| s.value() as u8).collect(),
        offered: scene.schedule.len(),
        offered_per_sf,
        uplinks,
        network,
    }
}

/// Decodes one `(gateway, SF, shard)` task and returns the decodes the
/// shard owns, with absolute channel-clock starts.
fn decode_task(scene: &Scene, t: Task, total: u64, shard_len: u64, n_shards: u64) -> Vec<Heard> {
    let cfg = &scene.cfg;
    let params = scene.params(t.sf_idx);
    let max_pkt = (Transmitter::new(params).packet_samples(PAYLOAD_LEN) + 1) as u64;
    let sps = params.samples_per_symbol() as u64;
    // Pre-padding gives the decoder one full batch window of context
    // before the first owned sample (Thrive's peak matching sees the
    // same colliders a continuous receiver would); post-padding lets a
    // packet starting at the shard's last sample finish (plus one
    // extra airtime for the SIC rescue window).
    let pre = 4 * max_pkt + sps;
    let post = (2 + u64::from(cfg.sic)) * max_pkt + sps;
    let shard_lo = t.shard * shard_len;
    let shard_hi = (shard_lo + shard_len).min(total);
    let a = shard_lo.saturating_sub(pre);
    let b = (shard_hi + post).min(total);
    let upper = if t.shard + 1 >= n_shards {
        f64::INFINITY
    } else {
        shard_hi as f64
    };

    let streaming = StreamingConfig {
        receiver: TnbConfig {
            noise_power: Some(1.0),
            sic: SicConfig {
                enabled: cfg.sic,
                ..SicConfig::default()
            },
            ..TnbConfig::default()
        },
        max_payload: PAYLOAD_LEN,
        window_factor: 4,
        observe: false,
        workers: 1,
    };
    let chunk = (cfg.chunk_samples.max(1024)) as u64;
    let mut out = Vec::new();
    let keep = |channel: usize, mut p: DecodedPacket, out: &mut Vec<Heard>| {
        p.start += a as f64;
        if p.start >= shard_lo as f64 && p.start < upper {
            out.push(Heard {
                sf_idx: t.sf_idx,
                channel,
                packet: p,
            });
        }
    };
    if cfg.wideband {
        let mut rx = WidebandReceiver::with_config(
            params,
            WidebandConfig {
                channelizer: ChannelizerConfig {
                    channels: cfg.channels.max(1),
                    ..ChannelizerConfig::default()
                },
                streaming,
            },
        );
        let mut pos = a;
        while pos < b {
            let e = (pos + chunk).min(b);
            let w = scene.synth_window_wideband(t.gw, pos, e);
            for cp in rx.push(&w) {
                keep(cp.channel, cp.packet, &mut out);
            }
            pos = e;
        }
        for cp in rx.finish() {
            keep(cp.channel, cp.packet, &mut out);
        }
    } else {
        let mut rx = StreamingReceiver::with_config(params, streaming);
        let mut pos = a;
        while pos < b {
            let e = (pos + chunk).min(b);
            let w = scene.synth_window(t.gw, pos, e);
            for p in rx.push(&w) {
                keep(0, p, &mut out);
            }
            pos = e;
        }
        for p in rx.finish() {
            keep(0, p, &mut out);
        }
    }
    out
}

impl DeployReport {
    /// Deterministic JSON rendering of the run: config echo, offered
    /// load, per-gateway uplink counts and the deduped network metrics.
    /// Worker count is deliberately absent — the bytes of this string
    /// are part of the determinism contract across worker counts.
    pub fn to_json(&self) -> String {
        let net = &self.network;
        let per_sf = self.offered_per_sf.iter().enumerate().map(|(i, &n)| {
            let sf = self.sfs.get(i).copied().unwrap_or(0);
            json::object()
                .val("sf", sf)
                .val("offered", n)
                .val("delivered", net.delivered_for_sf(sf))
                .finish()
        });
        let per_gw = self.uplinks.iter().enumerate().map(|(g, lines)| {
            json::object()
                .val("gateway", g)
                .val("uplinks", lines.len())
                .val("wins", net.wins_per_gateway.get(g).copied().unwrap_or(0))
                .finish()
        });
        let traffic = match self.traffic {
            TrafficModel::Poisson => json::string("poisson"),
            TrafficModel::Bursty { max_burst } => {
                let bursty = json::object().val("max_burst", max_burst).finish();
                json::object().raw("bursty", &bursty).finish()
            }
        };
        let sfs = json::array(self.sfs.iter().map(u8::to_string));
        let deploy = json::object()
            .val("nodes", self.nodes)
            .val("gateways", self.gateways)
            .fixed("load_pps", self.load_pps, 4)
            .fixed("duration_s", self.duration_s, 4)
            .val("seed", self.seed)
            .raw("traffic", &traffic)
            .val("sic", self.sic)
            .val("wideband", self.wideband)
            .raw("sfs", &sfs)
            .val("offered", self.offered)
            .finish();
        let network = json::object()
            .val("delivered", net.deliveries.len())
            .val("duplicates", net.duplicates)
            .val("ghosts", net.ghosts)
            .fixed("goodput_pps", net.goodput_pps(self.duration_s), 4)
            .fixed("prr", net.prr(self.offered), 4)
            .raw("per_gateway", &json::array(per_gw))
            .raw("per_sf", &json::array(per_sf))
            .finish();
        json::object()
            .raw("deploy", &deploy)
            .raw("network", &network)
            .finish()
    }

    /// One-screen human summary.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "deploy: {} nodes, {} gateways, {:.1} pps offered over {:.1} s (seed {})\n\
             offered {} | delivered {} | goodput {:.2} pps | PRR {:.3}\n\
             cross-gateway duplicates {} | ghosts {}\n",
            self.nodes,
            self.gateways,
            self.load_pps,
            self.duration_s,
            self.seed,
            self.offered,
            self.network.deliveries.len(),
            self.network.goodput_pps(self.duration_s),
            self.network.prr(self.offered),
            self.network.duplicates,
            self.network.ghosts,
        );
        for (g, lines) in self.uplinks.iter().enumerate() {
            s.push_str(&format!(
                "  gateway {g}: {} uplinks, {} capture wins\n",
                lines.len(),
                self.network.wins_per_gateway.get(g).copied().unwrap_or(0)
            ));
        }
        s
    }
}
