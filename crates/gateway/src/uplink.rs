//! The daemon's JSON-lines output format, in both directions.
//!
//! Modeled on the Semtech UDP packet-forwarder `PUSH_DATA` shape: each
//! decoded packet becomes one `rxpk`-style JSON object on its own line,
//! with base64 payload bytes, the data-rate string, SNR, and a `tmst`
//! microsecond timestamp. Unlike Semtech's, the timestamp derives from
//! the **sample clock** (the packet's absolute sample index in the
//! stream; at 1 Msps one sample is one microsecond) — never the wall
//! clock — so the uplink of a replayed stream is byte-identical on
//! every run and on every worker count (TNB-DET01).
//!
//! This module is the single owner of the line format: it writes every
//! line kind, reads lines back ([`Line::parse`], [`Uplink::parse`]), and
//! holds the one rule ([`LineKind::session_scoped`]) that splits
//! *session* lines, which the server logs per session and replays on
//! RESUME and the resilient client counts as delivered, from
//! connection-scoped *link* lines.

use crate::stats::GatewayStatsSnapshot;
use tnb_core::metrics::json::{self, Value};
use tnb_core::{DecodeOutcome, DecodeReport, DecodedPacket, MetricsSnapshot};
use tnb_phy::params::LoRaParams;

/// Center frequency reported in uplink lines, in MHz. The synthetic
/// traces are baseband captures with no RF frontend, so this is a
/// documentation-only constant (the EU868 default the paper's testbed
/// uses).
pub const UPLINK_FREQ_MHZ: f64 = 868.1;

const B64_ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Standard (RFC 4648, padded) base64 of `bytes` — implemented locally
/// so the crate stays dependency-free.
pub fn base64(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len().div_ceil(3) * 4);
    for chunk in bytes.chunks(3) {
        let b0 = chunk[0] as u32;
        let b1 = chunk.get(1).copied().unwrap_or(0) as u32;
        let b2 = chunk.get(2).copied().unwrap_or(0) as u32;
        let v = (b0 << 16) | (b1 << 8) | b2;
        out.push(B64_ALPHABET[(v >> 18) as usize & 0x3F] as char);
        out.push(B64_ALPHABET[(v >> 12) as usize & 0x3F] as char);
        out.push(if chunk.len() > 1 {
            B64_ALPHABET[(v >> 6) as usize & 0x3F] as char
        } else {
            '='
        });
        out.push(if chunk.len() > 2 {
            B64_ALPHABET[v as usize & 0x3F] as char
        } else {
            '='
        });
    }
    out
}

/// Decodes RFC 4648 padded base64 (the inverse of [`base64`]); `None`
/// for a length that is not a multiple of 4, a character outside the
/// alphabet, or padding anywhere but the last two places.
pub fn base64_decode(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(4) {
        return None;
    }
    let body = s.strip_suffix("==").or(s.strip_suffix('=')).unwrap_or(s);
    let mut out = Vec::with_capacity(s.len() / 4 * 3);
    let (mut bits, mut n) = (0u32, 0u32);
    for c in body.bytes() {
        bits = (bits << 6) | B64_ALPHABET.iter().position(|&a| a == c)? as u32;
        n += 6;
        if n >= 8 {
            n -= 8;
            out.push((bits >> n) as u8);
        }
    }
    Some(out)
}

/// Data-rate string for the uplink (`SF8CR4` style: spreading factor
/// plus coding rate, the two knobs this PHY exposes).
pub fn datr(sf: u8, cr: u8) -> String {
    format!("SF{sf}CR{cr}")
}

/// Splits a [`datr`] string back into `(sf, cr)`.
pub fn parse_datr(datr: &str) -> Option<(u8, u8)> {
    let (sf, cr) = datr.strip_prefix("SF")?.split_once("CR")?;
    // Digits only: `u8::from_str` would also take a leading `+`.
    let num = |t: &str| {
        t.bytes()
            .all(|b| b.is_ascii_digit())
            .then(|| t.parse().ok())?
    };
    Some((num(sf)?, num(cr)?))
}

/// Sample-clock timestamp of a packet start, in microseconds: the
/// absolute sample index at 1 Msps. Clamped at zero (a packet start can
/// sit fractionally before the first sample after synchronization).
pub fn sample_clock_us(start: f64, params: &LoRaParams) -> u64 {
    let us = start * 1e6 / params.sample_rate();
    if us <= 0.0 {
        0
    } else {
        us as u64
    }
}

/// The kind of a daemon output line, named by its `type` member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineKind {
    Uplink,
    End,
    Ack,
    Stats,
    Error,
    Hello,
    Resumed,
    Pong,
    Busy,
    Goaway,
}

impl LineKind {
    /// Every line kind.
    pub const ALL: [LineKind; 10] = [
        LineKind::Uplink,
        LineKind::End,
        LineKind::Ack,
        LineKind::Stats,
        LineKind::Error,
        LineKind::Hello,
        LineKind::Resumed,
        LineKind::Pong,
        LineKind::Busy,
        LineKind::Goaway,
    ];

    /// The `type` string on the wire.
    pub fn name(self) -> &'static str {
        match self {
            LineKind::Uplink => "uplink",
            LineKind::End => "end",
            LineKind::Ack => "ack",
            LineKind::Stats => "stats",
            LineKind::Error => "error",
            LineKind::Hello => "hello",
            LineKind::Resumed => "resumed",
            LineKind::Pong => "pong",
            LineKind::Busy => "busy",
            LineKind::Goaway => "goaway",
        }
    }

    /// Whether a line of this kind belongs to the session rather than
    /// the connection. Session lines (uplink / end / ack / stats /
    /// error) carry the transcript: the server logs them per session
    /// and replays the undelivered tail on RESUME, and the resilient
    /// client counts them as the delivery cursor it resumes with. Link
    /// lines (hello / resumed / pong / busy / goaway) answer one
    /// connection and are never logged or replayed.
    pub fn session_scoped(self) -> bool {
        matches!(
            self,
            LineKind::Uplink | LineKind::End | LineKind::Ack | LineKind::Stats | LineKind::Error
        )
    }
}

/// One daemon output line, read back: its kind, its `stream` member
/// when it has one, and the whole parsed object.
#[derive(Debug, Clone, PartialEq)]
pub struct Line {
    /// The line's `type`.
    pub kind: LineKind,
    /// The `stream` member (uplink / end / ack lines).
    pub stream: Option<u32>,
    /// The parsed line.
    pub value: Value,
}

impl Line {
    /// Parses one line; `None` unless it is a JSON object whose `type`
    /// names a [`LineKind`] and whose `stream`, if present, is a `u32`.
    pub fn parse(line: &str) -> Option<Line> {
        let value = json::parse(line)?;
        let name = value.get("type")?.as_str()?;
        let kind = LineKind::ALL.into_iter().find(|k| k.name() == name)?;
        let stream = match value.get("stream") {
            None => None,
            Some(s) => Some(u32::try_from(s.as_u64()?).ok()?),
        };
        Some(Line {
            kind,
            stream,
            value,
        })
    }

    /// An unsigned member of the line, narrowed to `u32`.
    pub fn u32(&self, key: &str) -> Option<u32> {
        u32::try_from(self.value.get(key)?.as_u64()?).ok()
    }
}

/// Starts a line object of the given kind.
fn line(kind: LineKind) -> json::Object {
    json::object().str("type", kind.name())
}

/// One decoded packet as an uplink line carries it. [`Uplink::to_line`]
/// writes it and [`Uplink::parse`] reads it back; floats come back at
/// their printed precision (SNR to 0.1 dB, CFO to 1 Hz).
#[derive(Debug, Clone, PartialEq)]
pub struct Uplink {
    /// Stream the packet was decoded on.
    pub stream: u32,
    /// Per-stream uplink ordinal (0-based).
    pub n: u64,
    /// Logical uplink channel (`0..M`, ascending frequency) of a
    /// wideband stream; narrowband lines carry no `channel` key.
    pub channel: Option<usize>,
    /// Sample-clock timestamp of the packet start, µs
    /// ([`sample_clock_us`]).
    pub tmst: u64,
    /// Spreading factor (from `datr`).
    pub sf: u8,
    /// Coding rate (from `datr`).
    pub cr: u8,
    /// Reported SNR, dB (`lsnr`).
    pub snr_db: f32,
    /// Carrier frequency offset, Hz (`foff`).
    pub cfo_hz: f64,
    /// Payload bytes (`data`, base64; `size` is their count).
    pub data: Vec<u8>,
    /// Detected packet start, fractional sample index (`outcome.start`).
    pub start: f64,
    /// Decoding pass that succeeded (`outcome.pass`).
    pub pass: u8,
    /// Codewords BEC corrected (`rescued`).
    pub rescued: usize,
}

impl Uplink {
    /// The uplink of `pkt`, the `n`-th (0-based) packet of `stream`;
    /// `channel` tags a wideband stream's packet with the channel it was
    /// heard on.
    pub fn new(
        params: &LoRaParams,
        stream: u32,
        n: u64,
        channel: Option<usize>,
        pkt: &DecodedPacket,
    ) -> Uplink {
        Uplink {
            stream,
            n,
            channel,
            tmst: sample_clock_us(pkt.start, params),
            sf: params.sf.value() as u8,
            cr: params.cr.value() as u8,
            snr_db: pkt.snr_db,
            cfo_hz: pkt.cfo_cycles * params.bin_hz(),
            data: pkt.payload.clone(),
            start: pkt.start,
            pass: pkt.pass,
            rescued: pkt.rescued_codewords,
        }
    }

    /// The uplink JSON line (no trailing newline). The `outcome` object
    /// reuses the per-packet schema of `DecodeReport.outcomes` (`tnb-cli
    /// report --json`), so consumers parse both feeds the same way.
    pub fn to_line(&self) -> String {
        let mut o = line(LineKind::Uplink)
            .val("stream", self.stream)
            .val("n", self.n);
        if let Some(c) = self.channel {
            o = o.val("channel", c);
        }
        let rxpk = json::object()
            .val("tmst", self.tmst)
            .val("freq", UPLINK_FREQ_MHZ)
            .str("datr", &datr(self.sf, self.cr))
            .fixed("lsnr", f64::from(self.snr_db), 1)
            .fixed("foff", self.cfo_hz, 0)
            .val("size", self.data.len())
            .str("data", &base64(&self.data))
            .finish();
        let outcome = DecodeOutcome::Decoded {
            start: self.start,
            pass: self.pass,
        };
        o.raw("rxpk", &rxpk)
            .raw("outcome", &outcome.to_json())
            .val("rescued", self.rescued)
            .finish()
    }

    /// Reads an uplink line back; `None` for any other line kind, a
    /// missing or mistyped field, bad base64, a `size` that disagrees
    /// with the decoded `data`, a malformed `datr`, or an outcome that
    /// is not `decoded`.
    pub fn parse(text: &str) -> Option<Uplink> {
        let line = Line::parse(text)?;
        if line.kind != LineKind::Uplink {
            return None;
        }
        let v = &line.value;
        let rxpk = v.get("rxpk")?;
        let outcome = v.get("outcome")?;
        let data = base64_decode(rxpk.get("data")?.as_str()?)?;
        if rxpk.get("size")?.as_u64()? != data.len() as u64
            || outcome.get("status")?.as_str()? != "decoded"
        {
            return None;
        }
        let (sf, cr) = parse_datr(rxpk.get("datr")?.as_str()?)?;
        let channel = match v.get("channel") {
            None => None,
            Some(c) => Some(usize::try_from(c.as_u64()?).ok()?),
        };
        Some(Uplink {
            stream: line.stream?,
            n: v.get("n")?.as_u64()?,
            channel,
            tmst: rxpk.get("tmst")?.as_u64()?,
            sf,
            cr,
            snr_db: rxpk.get("lsnr")?.as_f64()? as f32,
            cfo_hz: rxpk.get("foff")?.as_f64()?,
            data,
            start: outcome.get("start")?.as_f64()?,
            pass: u8::try_from(outcome.get("pass")?.as_u64()?).ok()?,
            rescued: usize::try_from(v.get("rescued")?.as_u64()?).ok()?,
        })
    }
}

/// One uplink JSON line for a narrowband stream's decoded packet:
/// `Uplink::new(params, stream_id, n, None, pkt).to_line()`. Kept as a
/// function because the out-of-workspace benchmark harness (`tnbbench`)
/// renders its reference lines through it.
pub fn uplink_line(params: &LoRaParams, stream_id: u32, n: u64, pkt: &DecodedPacket) -> String {
    Uplink::new(params, stream_id, n, None, pkt).to_line()
}

/// The end-of-stream line: totals plus the cumulative decode report
/// (aggregate counts and per-packet outcomes with degradation reasons).
pub fn end_line(stream_id: u32, samples: u64, uplinked: u64, report: &DecodeReport) -> String {
    line(LineKind::End)
        .val("stream", stream_id)
        .val("samples", samples)
        .val("uplinked", uplinked)
        .raw("report", &report.to_json())
        .finish()
}

/// The STATS control-verb response: gateway counters, the cumulative
/// decode report across this connection's streams, and the
/// [`MetricsSnapshot`] (all-zero unless the daemon observes).
pub fn stats_line(
    gateway: &GatewayStatsSnapshot,
    report: &DecodeReport,
    metrics: &MetricsSnapshot,
) -> String {
    line(LineKind::Stats)
        .raw("gateway", &gateway.to_json())
        .raw("report", &report.to_json())
        .raw("metrics", &metrics.to_json())
        .finish()
}

/// The HELLO reply: the session token this connection can later RESUME
/// with, and the grace window (in milliseconds) a parked session
/// survives a disconnect.
pub fn hello_line(session: u32, grace_ms: u64) -> String {
    line(LineKind::Hello)
        .val("session", session)
        .val("grace_ms", grace_ms)
        .finish()
}

/// The RESUME reply: the re-attached session plus each parked stream's
/// state — its `next_seq` cursor (first sequence number the decoder has
/// not consumed; resend from here) and how many packets it already
/// uplinked.
pub fn resumed_line(session: u32, streams: &[(u32, u32, u64)]) -> String {
    let streams = json::array(streams.iter().map(|&(stream, next_seq, uplinked)| {
        json::object()
            .val("stream", stream)
            .val("next_seq", next_seq)
            .val("uplinked", uplinked)
            .finish()
    }));
    line(LineKind::Resumed)
        .val("session", session)
        .raw("streams", &streams)
        .finish()
}

/// A delivery acknowledgment: every DATA frame of `stream` with
/// `seq <= ack` has been consumed by the decoder, so the client can
/// drop those frames from its resend buffer.
pub fn ack_line(stream: u32, ack: u32) -> String {
    line(LineKind::Ack)
        .val("stream", stream)
        .val("seq", ack)
        .finish()
}

/// The PING reply, echoing the probe's nonce.
pub fn pong_line(nonce: u32) -> String {
    line(LineKind::Pong).val("nonce", nonce).finish()
}

/// The admission-control reject: the daemon is at its connection cap;
/// the client should back off and retry.
pub fn busy_line(active: usize, max_conns: usize) -> String {
    line(LineKind::Busy)
        .val("active", active)
        .val("max_conns", max_conns)
        .finish()
}

/// A graceful-close notice with a stable reason
/// (`idle-timeout` / `write-timeout` / `unknown-session` / `shutdown`).
pub fn goaway_line(reason: &str) -> String {
    line(LineKind::Goaway).str("reason", reason).finish()
}

/// A protocol-error line (`error` is a stable [`crate::wire::WireError`]
/// name; `detail` is the human-readable rendering, with quotes turned
/// into apostrophes and line breaks into spaces so it reads on one
/// line).
pub fn error_line(error: &str, detail: &str) -> String {
    let clean: String = detail
        .chars()
        .map(|c| match c {
            '"' => '\'',
            '\n' | '\r' => ' ',
            c => c,
        })
        .collect();
    line(LineKind::Error)
        .str("error", error)
        .str("detail", &clean)
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnb_phy::{CodingRate, SpreadingFactor};

    #[test]
    fn base64_rfc4648_vectors() {
        assert_eq!(base64(b""), "");
        assert_eq!(base64(b"f"), "Zg==");
        assert_eq!(base64(b"fo"), "Zm8=");
        assert_eq!(base64(b"foo"), "Zm9v");
        assert_eq!(base64(b"foob"), "Zm9vYg==");
        assert_eq!(base64(b"fooba"), "Zm9vYmE=");
        assert_eq!(base64(b"foobar"), "Zm9vYmFy");
    }

    #[test]
    fn base64_decode_inverts_the_encoder() {
        for n in 0..40usize {
            let bytes: Vec<u8> = (0..n).map(|i| (i * 37 + n) as u8).collect();
            let enc = base64(&bytes);
            assert_eq!(base64_decode(&enc).as_deref(), Some(bytes.as_slice()));
        }
        for bad in ["!!!!", "AB", "Zg=", "Zg==Zg==", "Z===", "====", "Zm9v\n"] {
            assert_eq!(base64_decode(bad), None, "{bad}");
        }
    }

    #[test]
    fn datr_parses_both_knobs() {
        assert_eq!(parse_datr(&datr(8, 4)), Some((8, 4)));
        assert_eq!(parse_datr("SF12CR1"), Some((12, 1)));
        for bad in [
            "SFXCR1", "8CR1", "SF8CR", "SFCR4", "SF8CR4x", "SF+8CR4", "SF8",
        ] {
            assert_eq!(parse_datr(bad), None, "{bad}");
        }
    }

    #[test]
    fn uplink_line_shape_and_sample_clock() {
        let params = LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR4);
        let pkt = DecodedPacket {
            payload: b"foobar".to_vec(),
            header: tnb_phy::header::Header {
                payload_len: 6,
                cr: CodingRate::CR4,
                has_crc: true,
            },
            start: 4000.5,
            cfo_cycles: 3.0,
            snr_db: 12.25,
            rescued_codewords: 1,
            pass: 2,
        };
        let line = uplink_line(&params, 9, 0, &pkt);
        assert!(line.starts_with("{\"type\":\"uplink\",\"stream\":9,\"n\":0,"));
        assert!(line.contains("\"tmst\":4000,"), "{line}");
        assert!(line.contains("\"datr\":\"SF8CR4\""), "{line}");
        assert!(line.contains("\"data\":\"Zm9vYmFy\""), "{line}");
        assert!(
            line.contains("\"lsnr\":12.2") || line.contains("\"lsnr\":12.3"),
            "{line}"
        );
        assert!(
            line.contains("\"outcome\":{\"status\":\"decoded\",\"start\":4000.5,\"pass\":2}"),
            "{line}"
        );
        assert!(line.contains("\"rescued\":1"), "{line}");
        // Sample clock: 1 sample = 1 µs at 1 Msps; never negative.
        assert_eq!(sample_clock_us(-3.0, &params), 0);
        assert_eq!(sample_clock_us(1_000_000.0, &params), 1_000_000);
    }

    #[test]
    fn wideband_uplink_line_carries_channel() {
        let params = LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR4);
        let pkt = DecodedPacket {
            payload: b"x".to_vec(),
            header: tnb_phy::header::Header {
                payload_len: 1,
                cr: CodingRate::CR4,
                has_crc: true,
            },
            start: 100.0,
            cfo_cycles: 0.0,
            snr_db: 10.0,
            rescued_codewords: 0,
            pass: 1,
        };
        let line = Uplink::new(&params, 2, 1, Some(6), &pkt).to_line();
        assert!(
            line.starts_with("{\"type\":\"uplink\",\"stream\":2,\"n\":1,\"channel\":6,"),
            "{line}"
        );
        // Narrowband lines carry no channel key.
        assert!(!uplink_line(&params, 2, 1, &pkt).contains("\"channel\""));
    }

    #[test]
    fn control_lines_have_stable_shapes() {
        assert_eq!(
            hello_line(7, 30_000),
            "{\"type\":\"hello\",\"session\":7,\"grace_ms\":30000}"
        );
        assert_eq!(
            resumed_line(7, &[(0, 12, 3), (4, 1, 0)]),
            "{\"type\":\"resumed\",\"session\":7,\"streams\":[\
             {\"stream\":0,\"next_seq\":12,\"uplinked\":3},\
             {\"stream\":4,\"next_seq\":1,\"uplinked\":0}]}"
        );
        assert_eq!(
            resumed_line(9, &[]),
            "{\"type\":\"resumed\",\"session\":9,\"streams\":[]}"
        );
        assert_eq!(
            ack_line(3, 41),
            "{\"type\":\"ack\",\"stream\":3,\"seq\":41}"
        );
        assert_eq!(pong_line(0xFFFF), "{\"type\":\"pong\",\"nonce\":65535}");
        assert_eq!(
            busy_line(8, 8),
            "{\"type\":\"busy\",\"active\":8,\"max_conns\":8}"
        );
        assert_eq!(
            goaway_line("idle-timeout"),
            "{\"type\":\"goaway\",\"reason\":\"idle-timeout\"}"
        );
    }

    #[test]
    fn error_line_escapes_quotes_and_newlines() {
        let line = error_line("crc-mismatch", "bad \"frame\"\nnext");
        assert_eq!(
            line,
            "{\"type\":\"error\",\"error\":\"crc-mismatch\",\"detail\":\"bad 'frame' next\"}"
        );
    }
}
