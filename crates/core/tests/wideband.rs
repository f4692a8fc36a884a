//! Wideband front-end acceptance: the channelizer + per-channel
//! streaming pipeline must be byte-identical to channelizing a trace
//! offline and decoding each channel with a standalone receiver.

use tnb_channel::trace::{PacketConfig, TraceBuilder};
use tnb_core::{DecodeReport, StreamingReceiver, WidebandReceiver};
use tnb_dsp::channelizer::upconvert;
use tnb_dsp::{Channelizer, ChannelizerConfig, Complex32};
use tnb_phy::params::{CodingRate, LoRaParams, SpreadingFactor};

const M: usize = 8;
/// Wideband chunk size; a multiple of `M` so every push emits exactly
/// `CHUNK / M` samples per channel.
const CHUNK: usize = 40_000;

fn params() -> LoRaParams {
    LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR4)
}

/// Synthesizes an 8-channel scene at the wideband (`M×`) rate: one
/// packet on each of channels 1, 4 and 6, each generated at `M×`
/// oversampling (so it occupies one channel's bandwidth) and upconverted
/// to its channel slot. Unit-power noise rides on the first layer only,
/// so the wideband floor stays near 1.
fn wideband_scene() -> (Vec<Complex32>, Vec<(usize, Vec<u8>)>) {
    let mut wide = params();
    wide.osf *= M;
    let expected = vec![
        (1usize, vec![0xA1u8; 12]),
        (4, vec![0x5B; 12]),
        (6, vec![0x3C; 12]),
    ];
    let mut scene: Vec<Complex32> = Vec::new();
    for (i, (c, payload)) in expected.iter().enumerate() {
        let mut b = TraceBuilder::new(wide, 40 + i as u64);
        if i > 0 {
            b = b.without_noise();
        }
        b.add_packet(
            payload,
            PacketConfig {
                start_sample: (6_000 + 11_000 * i) * M,
                snr_db: 25.0,
                ..Default::default()
            },
        );
        let mut layer = b.build().samples().to_vec();
        upconvert(&mut layer, *c, M);
        if scene.len() < layer.len() {
            scene.resize(layer.len(), Complex32::ZERO);
        }
        for (dst, src) in scene.iter_mut().zip(&layer) {
            *dst += *src;
        }
    }
    // Trailing silence so the filterbank's group delay cannot clip the
    // last packet's tail at end of trace.
    scene.resize(scene.len() + 4 * 2048 * M, Complex32::ZERO);
    (scene, expected)
}

#[test]
fn wideband_pipeline_matches_standalone_receivers_bitwise() {
    let (scene, _) = wideband_scene();

    // Wideband pipeline: chunked pushes through the integrated receiver.
    let mut wb = WidebandReceiver::new(params());
    let mut piped = Vec::new();
    for chunk in scene.chunks(CHUNK) {
        piped.extend(wb.push(chunk));
    }
    piped.extend(wb.finish());
    let piped_reports = wb.reports();

    // Reference: channelize the whole scene offline, then decode each
    // extracted narrowband trace with a standalone StreamingReceiver fed
    // at the same per-channel chunk boundaries.
    let mut chan = Channelizer::new(ChannelizerConfig::default());
    let mut traces: Vec<Vec<Complex32>> = vec![Vec::new(); M];
    chan.push(&scene, &mut traces);
    let mut standalone = Vec::new();
    let mut standalone_reports = Vec::new();
    for (c, trace) in traces.iter().enumerate() {
        let mut rx = StreamingReceiver::new(params());
        for chunk in trace.chunks(CHUNK / M) {
            for p in rx.push(chunk) {
                standalone.push((c, p));
            }
        }
        for p in rx.finish() {
            standalone.push((c, p));
        }
        standalone_reports.push(rx.report());
    }

    assert!(!standalone.is_empty(), "reference decoded no packets");
    assert_eq!(piped.len(), standalone.len());
    for (got, (c, want)) in piped.iter().zip(&standalone) {
        assert_eq!(got.channel, *c);
        assert_eq!(got.packet, *want);
    }
    assert_eq!(piped_reports, standalone_reports);
    let mut merged = DecodeReport::default();
    standalone_reports.iter().for_each(|r| merged.absorb(r));
    assert_eq!(wb.report(), merged);
}

#[test]
fn multichannel_scene_decodes_on_the_right_channels() {
    let (scene, expected) = wideband_scene();
    let mut wb = WidebandReceiver::new(params());
    let mut decoded = Vec::new();
    for chunk in scene.chunks(CHUNK) {
        decoded.extend(wb.push(chunk));
    }
    decoded.extend(wb.finish());

    for (c, payload) in &expected {
        assert!(
            decoded
                .iter()
                .any(|d| d.channel == *c && d.packet.payload == *payload),
            "channel {c} did not decode its packet; got {:?}",
            decoded
                .iter()
                .map(|d| (d.channel, d.packet.payload.first().copied()))
                .collect::<Vec<_>>()
        );
    }
    // Nothing decodes on channels that carried no packet.
    let allowed: Vec<usize> = expected.iter().map(|(c, _)| *c).collect();
    for d in &decoded {
        assert!(allowed.contains(&d.channel), "ghost packet: {d:?}");
    }
}
