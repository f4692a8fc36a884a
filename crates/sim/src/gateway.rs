//! The gateway daemon's loopback harness.
//!
//! [`run`] spawns a [`Gateway`] on a loopback port, streams a seeded
//! [`Scene`] at it through the wire client, and checks the uplinked
//! lines are **byte-identical** to a direct in-process decode of the same
//! wire-quantized samples: a socket, framing and a daemon between the
//! samples and the decoder must not change one uplinked byte. The
//! [`ResilientClient`] (HELLO/RESUME, reconnect, resend) drives every
//! run; with a [`NetFaultPlan`] a [`ChaosProxy`] sits between it and the
//! daemon, and the same check is the recovery contract. Timing is
//! harness-side only; the daemon never reads the wall clock.

use std::io;
use std::time::{Duration, Instant};

use tnb_channel::trace::{PacketConfig, TraceBuilder};
use tnb_core::metrics::json;
use tnb_core::{DecodeReport, DecodedPacket, StreamingConfig, StreamingReceiver};
use tnb_core::{WidebandConfig, WidebandReceiver};
use tnb_dsp::channelizer::upconvert;
use tnb_dsp::{ChannelizerConfig, Complex32};
use tnb_gateway::client::DEFAULT_CHUNK;
use tnb_gateway::netfaults::{ChaosProxy, NetFaultPlan};
use tnb_gateway::uplink::{self, Line, LineKind, Uplink};
use tnb_gateway::wire::quantize;
use tnb_gateway::{Gateway, GatewayConfig, GatewayStatsSnapshot};
use tnb_gateway::{ResilientClient, ResilientConfig, ResilientStats};
use tnb_phy::LoRaParams;

/// DATA-frame chunk for fault runs: ~16 KiB frames, so the fault
/// matrix's sub-64 KiB byte offsets land mid-stream and mid-frame.
pub const FAULT_CHUNK: usize = 4096;

/// What the harness streams.
#[derive(Debug, Clone)]
pub enum Scene {
    /// `packets` pairwise-overlapping transmissions per stream
    /// ([`collided_samples`]) on `streams` streams multiplexed over one
    /// connection; stream `s` is synthesized from seed `seed + s`.
    Collided {
        /// Concurrent streams.
        streams: u32,
        /// Colliding packets per stream.
        packets: usize,
    },
    /// One wideband stream with one packet on each occupied channel of
    /// the default 8-channel filterbank ([`wideband_scene`]).
    Wideband {
        /// Occupied channels (`0..8`, ascending frequency).
        occupied: Vec<usize>,
    },
}

/// One harness run's shape.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// PHY parameters for synthesis and decode (per channel, for the
    /// wideband scene).
    pub params: LoRaParams,
    /// The traffic.
    pub scene: Scene,
    /// Worker threads inside each streaming receiver, in the daemon and
    /// in the reference decode alike.
    pub workers: usize,
    /// DATA-frame chunk length in samples.
    pub chunk: usize,
    /// Synthesis seed.
    pub seed: u64,
    /// Network faults between client and daemon. `None` connects the
    /// client directly.
    pub faults: Option<NetFaultPlan>,
}

impl HarnessConfig {
    /// A 3-packet collision on one stream, one worker, 64 k-sample
    /// chunks, seed 7, no faults.
    pub fn new(params: LoRaParams) -> Self {
        HarnessConfig {
            params,
            scene: Scene::Collided {
                streams: 1,
                packets: 3,
            },
            workers: 1,
            chunk: DEFAULT_CHUNK,
            seed: 7,
            faults: None,
        }
    }

    fn streaming(&self) -> StreamingConfig {
        StreamingConfig {
            workers: self.workers,
            ..StreamingConfig::default()
        }
    }
}

/// What one harness run produced.
#[derive(Debug)]
pub struct HarnessOutcome {
    /// Per-stream uplink and end lines received from the daemon, in
    /// arrival order (index = stream id); control lines are dropped.
    pub daemon_lines: Vec<Vec<String>>,
    /// Per-stream lines of the direct in-process decode.
    pub reference_lines: Vec<Vec<String>>,
    /// Reference uplinks per channel (wideband scene; empty otherwise).
    pub per_channel: Vec<u64>,
    /// Samples streamed across all streams.
    pub samples: u64,
    /// Wall time of the whole run (synthesis, daemon, reference), s.
    pub wall_s: f64,
    /// Final daemon counters.
    pub stats: GatewayStatsSnapshot,
    /// Client reconnects and resends (zero without a fault plan).
    pub client: ResilientStats,
    /// Destructive proxy faults that fired (zero without a fault plan).
    pub proxy_faults: u64,
}

impl HarnessOutcome {
    /// True when every stream's daemon transcript equals its reference
    /// byte for byte.
    pub fn byte_identical(&self) -> bool {
        self.daemon_lines == self.reference_lines
    }

    /// `count` per wall-clock second of the run.
    pub fn per_sec(&self, count: u64) -> f64 {
        count as f64 / self.wall_s.max(1e-9)
    }

    /// The run as one bench-artifact row. A fault run reports the
    /// scenario, parity and the recovery counters; a clean run reports
    /// throughput, keyed by worker count (collided) or per-channel
    /// packet counts (wideband).
    pub fn to_json(&self, cfg: &HarnessConfig) -> String {
        let o = json::object();
        if let Some(plan) = &cfg.faults {
            let s = &self.stats;
            return o
                .str("scenario", plan.name)
                .val("recoverable", plan.recoverable)
                .val("parity", self.byte_identical())
                .val("reconnects", self.client.reconnects)
                .val("resent", self.client.retransmitted_frames)
                .val("proxy_faults", self.proxy_faults)
                .val("worker_panics", s.worker_panics)
                .val("protocol_errors", s.protocol_errors)
                .val("sessions_parked", s.sessions_parked)
                .val("sessions_resumed", s.sessions_resumed)
                .val("retransmitted_frames", s.retransmitted_frames)
                .val("seq_dups", s.seq_dups)
                .val("chunks_dropped", s.chunks_dropped)
                .val("shed_frames", s.shed_frames)
                .val("uplinked", s.packets_uplinked)
                .finish();
        }
        let o = match cfg.scene {
            Scene::Collided { .. } => o.val("workers", cfg.workers),
            Scene::Wideband { .. } => o.val("channels", self.per_channel.len()).raw(
                "per_channel_packets",
                &json::array(self.per_channel.iter().map(u64::to_string)),
            ),
        };
        o.fixed(
            "packets_per_sec",
            self.per_sec(self.stats.packets_uplinked),
            2,
        )
        .fixed("samples_per_sec", self.per_sec(self.samples), 0)
        .val("uplinked", self.stats.packets_uplinked)
        .val("samples", self.samples)
        .val("byte_identical", self.byte_identical())
        .finish()
    }
}

/// Synthesizes one stream's collided trace: `packets` transmissions
/// whose airtimes overlap pairwise (starts staggered by a third of a
/// packet), distinct payloads, per-packet SNR/CFO spread.
pub fn collided_samples(params: LoRaParams, seed: u64, packets: usize) -> Vec<Complex32> {
    let mut b = TraceBuilder::new(params, seed).without_noise();
    let extent = b.packet_samples(16);
    let stagger = extent / 3;
    for i in 0..packets.max(1) {
        let payload: Vec<u8> = (0..16)
            .map(|j| (seed as u8) ^ (i as u8 * 31) ^ (j as u8 * 7))
            .collect();
        b.add_packet(
            &payload,
            PacketConfig {
                start_sample: 4_000 + i * stagger,
                snr_db: 10.0 - i as f32 * 2.0,
                cfo_hz: (i as f64 - 1.0) * 900.0,
                ..Default::default()
            },
        );
    }
    b.build().samples().to_vec()
}

/// Synthesizes the wideband scene: one packet per occupied channel of
/// the default filterbank (payload derived from the channel index and
/// `seed`), each layer generated at the wideband rate and upconverted
/// to its slot. Unit noise rides on the first layer only, so the
/// wideband floor stays near a single channel's. Trailing silence
/// covers the filterbank's group delay so the last packet's tail cannot
/// be clipped.
pub fn wideband_scene(params: LoRaParams, seed: u64, occupied: &[usize]) -> Vec<Complex32> {
    let m = ChannelizerConfig::default().channels.max(2);
    let mut wide = params;
    wide.osf *= m;
    let expected: Vec<(usize, Vec<u8>)> = occupied
        .iter()
        .map(|&c| {
            let payload: Vec<u8> = (0..12)
                .map(|j| (seed as u8) ^ (c as u8 * 37) ^ (j as u8 * 11) ^ 0xA5)
                .collect();
            (c % m, payload)
        })
        .collect();
    let mut scene: Vec<Complex32> = Vec::new();
    for (i, (c, payload)) in expected.iter().enumerate() {
        let mut b = TraceBuilder::new(wide, seed + i as u64);
        if i > 0 {
            b = b.without_noise();
        }
        b.add_packet(
            payload,
            PacketConfig {
                start_sample: (6_000 + 11_000 * i) * m,
                snr_db: 25.0,
                ..Default::default()
            },
        );
        let mut layer = b.build().samples().to_vec();
        upconvert(&mut layer, *c, m);
        if scene.len() < layer.len() {
            scene.resize(layer.len(), Complex32::ZERO);
        }
        for (dst, src) in scene.iter_mut().zip(&layer) {
            *dst += *src;
        }
    }
    let tail = 4 * params.samples_per_symbol() * m;
    scene.resize(scene.len() + tail, Complex32::ZERO);
    scene
}

/// The reference transcript: decodes the **wire-quantized** samples
/// with a local [`StreamingReceiver`] pushed in exactly the gateway's
/// chunking, rendering lines through the same serializers the daemon
/// uses. Returns `(lines, uplinked)`.
pub fn reference_transcript(
    params: LoRaParams,
    streaming: StreamingConfig,
    stream_id: u32,
    quantized: &[Complex32],
    chunk: usize,
) -> (Vec<String>, u64) {
    let mut rx = StreamingReceiver::with_config(params, streaming);
    let mut decoded: Vec<_> = quantized
        .chunks(chunk.max(1))
        .flat_map(|c| rx.push(c))
        .collect();
    decoded.extend(rx.finish());
    let decoded: Vec<_> = decoded.into_iter().map(|p| (None, p)).collect();
    let lines = transcript(params, stream_id, &decoded, rx.position(), &rx.report());
    (lines, decoded.len() as u64)
}

/// The reference transcript of one of `cfg`'s streams: the collided
/// scene's [`reference_transcript`], or for the wideband scene the same
/// through a local [`WidebandReceiver`].
fn reference(cfg: &HarnessConfig, stream_id: u32, quantized: &[Complex32]) -> Vec<String> {
    if let Scene::Collided { .. } = cfg.scene {
        return reference_transcript(cfg.params, cfg.streaming(), stream_id, quantized, cfg.chunk)
            .0;
    }
    let wb = WidebandConfig {
        channelizer: ChannelizerConfig::default(),
        streaming: cfg.streaming(),
    };
    let mut rx = WidebandReceiver::with_config(cfg.params, wb);
    let mut decoded: Vec<_> = quantized
        .chunks(cfg.chunk.max(1))
        .flat_map(|c| rx.push(c))
        .collect();
    decoded.extend(rx.finish());
    let decoded: Vec<_> = decoded
        .into_iter()
        .map(|cp| (Some(cp.channel), cp.packet))
        .collect();
    transcript(
        cfg.params,
        stream_id,
        &decoded,
        rx.input_position(),
        &rx.report(),
    )
}

/// One stream's uplink lines (numbered in decode order) and its end line.
fn transcript(
    params: LoRaParams,
    stream_id: u32,
    decoded: &[(Option<usize>, DecodedPacket)],
    position: u64,
    report: &DecodeReport,
) -> Vec<String> {
    let mut lines: Vec<String> = (0u64..)
        .zip(decoded)
        .map(|(n, (channel, p))| Uplink::new(&params, stream_id, n, *channel, p).to_line())
        .collect();
    lines.push(uplink::end_line(
        stream_id,
        position,
        decoded.len() as u64,
        report,
    ));
    lines
}

/// Runs one harness pass: daemon up, stream every scene stream over one
/// resilient session (through the chaos proxy when `cfg.faults` is
/// set), end the streams, collect the transcript, shut down, and decode
/// the reference.
pub fn run(cfg: &HarnessConfig) -> io::Result<HarnessOutcome> {
    let t0 = Instant::now();
    let wideband = matches!(cfg.scene, Scene::Wideband { .. });
    let streams: Vec<Vec<Complex32>> = match &cfg.scene {
        Scene::Collided { streams, packets } => (0..*streams)
            .map(|s| collided_samples(cfg.params, cfg.seed + u64::from(s), *packets))
            .collect(),
        Scene::Wideband { occupied } => vec![wideband_scene(cfg.params, cfg.seed, occupied)],
    };
    let gw = Gateway::spawn(
        ("127.0.0.1", 0),
        GatewayConfig {
            streaming: cfg.streaming(),
            queue_chunks: 1024,
            ack_every: 4,
            ..GatewayConfig::new(cfg.params)
        },
    )?;
    let proxy = match &cfg.faults {
        Some(plan) => Some(ChaosProxy::spawn(gw.local_addr(), plan.clone())?),
        None => None,
    };
    let mut client = ResilientClient::connect(
        proxy
            .as_ref()
            .map_or(gw.local_addr(), ChaosProxy::local_addr),
        ResilientConfig {
            seed: cfg.faults.as_ref().map_or(0, |plan| plan.seed),
            max_reconnects: 10,
            reply_timeout: Duration::from_secs(10),
            ..ResilientConfig::default()
        },
    )?;
    for (s, samples) in (0u32..).zip(&streams) {
        client.send_samples(s, samples, cfg.chunk, wideband)?;
        client.end_stream(s)?;
    }
    client.drain()?;
    let client_stats = client.stats();
    let transcript = client.finish();
    let proxy_faults = proxy.map_or(0, |p| p.stats().3);
    let stats = gw.join();

    // Split the daemon transcript back out per stream (a single decoder
    // thread drains the queue FIFO, so per-stream order is preserved),
    // keeping only the lines that define the decode: uplink and end.
    let mut daemon_lines: Vec<Vec<String>> = vec![Vec::new(); streams.len()];
    for text in transcript {
        let line =
            Line::parse(&text).filter(|l| matches!(l.kind, LineKind::Uplink | LineKind::End));
        if let Some(out) = line.and_then(|l| daemon_lines.get_mut(l.stream? as usize)) {
            out.push(text);
        }
    }
    let reference_lines: Vec<Vec<String>> = (0u32..)
        .zip(&streams)
        .map(|(s, samples)| reference(cfg, s, &quantize(samples)))
        .collect();
    let channels = if wideband {
        ChannelizerConfig::default().channels
    } else {
        0
    };
    let mut per_channel = vec![0u64; channels];
    for up in reference_lines
        .iter()
        .flatten()
        .filter_map(|l| Uplink::parse(l))
    {
        if let Some(n) = up.channel.and_then(|c| per_channel.get_mut(c)) {
            *n += 1;
        }
    }
    Ok(HarnessOutcome {
        daemon_lines,
        reference_lines,
        per_channel,
        samples: streams.iter().map(|s| s.len() as u64).sum(),
        wall_s: t0.elapsed().as_secs_f64(),
        stats,
        client: client_stats,
        proxy_faults,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnb_gateway::NetFault;
    use tnb_phy::{CodingRate, SpreadingFactor};

    #[test]
    fn wideband_scene_recovers_from_a_disconnect_byte_identically() {
        let cfg = HarnessConfig {
            scene: Scene::Wideband {
                occupied: vec![1, 4, 6],
            },
            chunk: FAULT_CHUNK,
            faults: Some(NetFaultPlan {
                name: "disconnect-mid-frame",
                seed: 5,
                faults: vec![NetFault::DisconnectAt { byte: 40_000 }],
                recoverable: true,
            }),
            ..HarnessConfig::new(LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR4))
        };
        let outcome = run(&cfg).expect("wideband fault run");
        assert_eq!(outcome.proxy_faults, 1, "the disconnect fired");
        assert!(outcome.client.reconnects >= 1, "{:?}", outcome.client);
        assert_eq!(outcome.per_channel, [0, 1, 0, 0, 1, 0, 1, 0]);
        assert!(
            outcome.byte_identical(),
            "daemon {:?}\nreference {:?}",
            outcome.daemon_lines,
            outcome.reference_lines
        );
    }

    #[test]
    fn bench_rows_keep_their_schemas() {
        let outcome = HarnessOutcome {
            daemon_lines: vec![vec!["x".into()]],
            reference_lines: vec![vec!["x".into()]],
            per_channel: vec![0, 2, 1],
            samples: 1_000,
            wall_s: 0.5,
            stats: GatewayStatsSnapshot {
                packets_uplinked: 3,
                ..GatewayStatsSnapshot::default()
            },
            client: ResilientStats {
                reconnects: 1,
                retransmitted_frames: 4,
                resend_evicted: 0,
            },
            proxy_faults: 1,
        };
        let cfg = HarnessConfig {
            workers: 4,
            ..HarnessConfig::new(LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR4))
        };
        assert_eq!(
            outcome.to_json(&cfg),
            "{\"workers\":4,\"packets_per_sec\":6.00,\"samples_per_sec\":2000,\
             \"uplinked\":3,\"samples\":1000,\"byte_identical\":true}"
        );
        let wideband = HarnessConfig {
            scene: Scene::Wideband { occupied: vec![1] },
            ..cfg.clone()
        };
        assert_eq!(
            outcome.to_json(&wideband),
            "{\"channels\":3,\"per_channel_packets\":[0,2,1],\"packets_per_sec\":6.00,\
             \"samples_per_sec\":2000,\"uplinked\":3,\"samples\":1000,\"byte_identical\":true}"
        );
        let faults = HarnessConfig {
            faults: Some(NetFaultPlan::clean()),
            ..cfg
        };
        assert_eq!(
            outcome.to_json(&faults),
            "{\"scenario\":\"clean\",\"recoverable\":true,\"parity\":true,\"reconnects\":1,\
             \"resent\":4,\"proxy_faults\":1,\"worker_panics\":0,\"protocol_errors\":0,\
             \"sessions_parked\":0,\"sessions_resumed\":0,\"retransmitted_frames\":0,\
             \"seq_dups\":0,\"chunks_dropped\":0,\"shed_frames\":0,\"uplinked\":3}"
        );
    }
}
