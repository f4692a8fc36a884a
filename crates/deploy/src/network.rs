//! The network-server view: cross-gateway dedup and capture over the
//! PR 5 Semtech-style uplink interchange.
//!
//! Gateways do not share receiver state — like a real LoRaWAN network,
//! each forwards its own uplink JSON lines and the network server
//! reconstructs the deployment's truth from that interchange alone.
//! This module parses the lines (base64 payload, `lsnr`, `tmst`,
//! `datr`, optional `channel`), identifies each underlying transmission
//! from the application payload, collapses multi-gateway copies to one
//! delivery, and applies capture: the copy with the strongest reported
//! SNR wins, ties broken toward the lower gateway id, so the outcome is
//! deterministic regardless of which gateway's feed arrives first.

use crate::synth::Scene;
use std::collections::{BTreeMap, BTreeSet};
use tnb_sim::traffic::parse_payload;

/// One deduped network-level delivery.
#[derive(Debug, Clone, PartialEq)]
pub struct Delivery {
    /// Originating node (from the payload).
    pub node: u32,
    /// Per-node sequence number (from the payload).
    pub seq: u32,
    /// Gateway whose copy won capture.
    pub gateway: u32,
    /// Winning copy's reported SNR, dB.
    pub snr_db: f32,
    /// Spreading factor from the line's `datr`.
    pub sf: u8,
    /// Uplink channel (wideband feeds only).
    pub channel: Option<usize>,
    /// Gateways that reported a copy of this transmission.
    pub copies: u32,
}

/// The deduped network view of one run.
#[derive(Debug, Clone, Default)]
pub struct NetworkReport {
    /// One entry per delivered transmission, ordered by `(node, seq)`.
    pub deliveries: Vec<Delivery>,
    /// Cross-gateway duplicate copies suppressed by dedup.
    pub duplicates: u64,
    /// Uplink lines that matched no scheduled transmission (malformed
    /// or CRC-passing ghosts).
    pub ghosts: u64,
    /// Capture wins per gateway.
    pub wins_per_gateway: Vec<u64>,
}

/// Fields the network server reads off one uplink line.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedUplink {
    /// Decoded application payload bytes.
    pub data: Vec<u8>,
    /// Reported SNR, dB.
    pub snr_db: f32,
    /// Sample-clock timestamp of the packet start, µs.
    pub tmst: u64,
    /// Spreading factor from `datr`.
    pub sf: u8,
    /// Coding rate from `datr`.
    pub cr: u8,
    /// Payload size the gateway reported.
    pub size: usize,
    /// Channel tag (wideband lines only).
    pub channel: Option<usize>,
}

/// Decodes RFC 4648 padded base64 (the uplink `data` encoding).
pub fn base64_decode(s: &str) -> Option<Vec<u8>> {
    fn val(c: u8) -> Option<u32> {
        match c {
            b'A'..=b'Z' => Some((c - b'A') as u32),
            b'a'..=b'z' => Some((c - b'a' + 26) as u32),
            b'0'..=b'9' => Some((c - b'0' + 52) as u32),
            b'+' => Some(62),
            b'/' => Some(63),
            _ => None,
        }
    }
    let bytes = s.as_bytes();
    if !bytes.len().is_multiple_of(4) {
        return None;
    }
    let mut out = Vec::with_capacity(bytes.len() / 4 * 3);
    for q in bytes.chunks(4) {
        let pad = q.iter().filter(|&&c| c == b'=').count();
        if pad > 2 || q[..4 - pad].iter().any(|&c| val(c).is_none()) {
            return None;
        }
        let mut v = 0u32;
        for &c in &q[..4 - pad] {
            v = (v << 6) | val(c).unwrap_or(0);
        }
        v <<= 6 * pad as u32;
        out.push((v >> 16) as u8);
        if pad < 2 {
            out.push((v >> 8) as u8);
        }
        if pad < 1 {
            out.push(v as u8);
        }
    }
    Some(out)
}

/// Returns the raw text following `"key":` in `line`, if present.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat)?;
    line.get(at + pat.len()..)
}

/// Parses a number field terminated by `,`/`}` (JSON object member).
fn num_field(line: &str, key: &str) -> Option<f64> {
    let rest = field(line, key)?;
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest.get(..end)?.trim().parse::<f64>().ok()
}

/// Parses a string field (`"key":"…"`).
fn str_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = field(line, key)?;
    let rest = rest.strip_prefix('"')?;
    let end = rest.find('"')?;
    rest.get(..end)
}

/// Parses one uplink JSON line into the fields the server uses; `None`
/// for control lines (`end`, `stats`) or malformed input.
pub fn parse_uplink_line(line: &str) -> Option<ParsedUplink> {
    if str_field(line, "type") != Some("uplink") {
        return None;
    }
    let datr = str_field(line, "datr")?;
    let (sf, cr) = parse_datr(datr)?;
    Some(ParsedUplink {
        data: base64_decode(str_field(line, "data")?)?,
        snr_db: num_field(line, "lsnr")? as f32,
        tmst: num_field(line, "tmst")? as u64,
        sf,
        cr,
        size: num_field(line, "size")? as usize,
        channel: num_field(line, "channel").map(|c| c as usize),
    })
}

/// Splits a `SF8CR4`-style data-rate string.
fn parse_datr(datr: &str) -> Option<(u8, u8)> {
    let rest = datr.strip_prefix("SF")?;
    let cr_at = rest.find("CR")?;
    let sf = rest.get(..cr_at)?.parse::<u8>().ok()?;
    let cr = rest.get(cr_at + 2..)?.parse::<u8>().ok()?;
    Some((sf, cr))
}

impl NetworkReport {
    /// Builds the network view from each gateway's uplink feed (index =
    /// gateway id). The scene supplies the schedule for ghost detection;
    /// dedup itself uses only the lines.
    pub fn collect(scene: &Scene, uplinks: &[Vec<String>]) -> NetworkReport {
        let scheduled: BTreeSet<(u32, u32)> =
            scene.schedule.iter().map(|t| (t.node, t.seq)).collect();
        let mut best: BTreeMap<(u32, u32), Delivery> = BTreeMap::new();
        let mut ghosts = 0u64;
        for (gw, lines) in uplinks.iter().enumerate() {
            for line in lines {
                let Some(p) = parse_uplink_line(line) else {
                    ghosts += 1;
                    continue;
                };
                let Some((node, seq)) = parse_payload(&p.data) else {
                    ghosts += 1;
                    continue;
                };
                if !scheduled.contains(&(node, seq)) {
                    ghosts += 1;
                    continue;
                }
                let d = Delivery {
                    node,
                    seq,
                    gateway: gw as u32,
                    snr_db: p.snr_db,
                    sf: p.sf,
                    channel: p.channel,
                    copies: 1,
                };
                match best.get_mut(&(node, seq)) {
                    None => {
                        best.insert((node, seq), d);
                    }
                    Some(cur) => {
                        let copies = cur.copies + 1;
                        // Capture: strictly stronger SNR wins; equal SNR
                        // keeps the earlier (lower-id) gateway.
                        if d.snr_db > cur.snr_db {
                            *cur = d;
                        }
                        cur.copies = copies;
                    }
                }
            }
        }
        let mut wins = vec![0u64; uplinks.len()];
        let mut duplicates = 0u64;
        let deliveries: Vec<Delivery> = best.into_values().collect();
        for d in &deliveries {
            duplicates += (d.copies - 1) as u64;
            if let Some(w) = wins.get_mut(d.gateway as usize) {
                *w += 1;
            }
        }
        NetworkReport {
            deliveries,
            duplicates,
            ghosts,
            wins_per_gateway: wins,
        }
    }

    /// Unique delivered transmissions per second of simulated time.
    pub fn goodput_pps(&self, duration_s: f64) -> f64 {
        if duration_s <= 0.0 {
            0.0
        } else {
            self.deliveries.len() as f64 / duration_s
        }
    }

    /// Delivered fraction of the offered load.
    pub fn prr(&self, offered: usize) -> f64 {
        if offered == 0 {
            0.0
        } else {
            self.deliveries.len() as f64 / offered as f64
        }
    }

    /// Deliveries at a given SF.
    pub fn delivered_for_sf(&self, sf: u8) -> usize {
        self.deliveries.iter().filter(|d| d.sf == sf).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base64_roundtrips_the_gateway_encoder() {
        for n in 0..40usize {
            let bytes: Vec<u8> = (0..n).map(|i| (i * 37 + n) as u8).collect();
            let enc = tnb_gateway::uplink::base64(&bytes);
            assert_eq!(base64_decode(&enc).as_deref(), Some(bytes.as_slice()));
        }
        assert_eq!(base64_decode("!!!!"), None);
        assert_eq!(base64_decode("AB"), None);
    }

    #[test]
    fn datr_parses_both_knobs() {
        assert_eq!(parse_datr("SF8CR4"), Some((8, 4)));
        assert_eq!(parse_datr("SF12CR1"), Some((12, 1)));
        assert_eq!(parse_datr("SFXCR1"), None);
        assert_eq!(parse_datr("8CR1"), None);
    }

    #[test]
    fn uplink_line_roundtrips_through_parser() {
        use tnb_core::DecodedPacket;
        use tnb_phy::header::Header;
        use tnb_phy::params::{CodingRate, LoRaParams, SpreadingFactor};
        let params = LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR4);
        let payload = tnb_sim::traffic::make_payload(70_000, 3);
        let pkt = DecodedPacket {
            payload: payload.clone(),
            header: Header {
                payload_len: 16,
                cr: CodingRate::CR4,
                has_crc: true,
            },
            start: 12_345.5,
            cfo_cycles: 0.01,
            snr_db: 7.5,
            rescued_codewords: 1,
            pass: 1,
        };
        let line = tnb_gateway::uplink::uplink_line(&params, 0, 0, &pkt);
        let p = parse_uplink_line(&line).expect("parse");
        assert_eq!(p.data, payload);
        assert_eq!(p.sf, 8);
        assert_eq!(p.cr, 4);
        assert_eq!(p.size, 16);
        assert_eq!(p.channel, None);
        assert!((p.snr_db - 7.5).abs() < 0.05);
        assert_eq!(p.tmst, 12_345);
        assert_eq!(parse_payload(&p.data), Some((70_000, 3)));
    }
}
