//! The network-server view: cross-gateway dedup and capture over the
//! PR 5 Semtech-style uplink interchange.
//!
//! Gateways do not share receiver state — like a real LoRaWAN network,
//! each forwards its own uplink JSON lines and the network server
//! reconstructs the deployment's truth from that interchange alone.
//! This module reads the lines through the gateway's own codec
//! ([`Uplink::parse`]), identifies each underlying transmission
//! from the application payload, collapses multi-gateway copies to one
//! delivery, and applies capture: the copy with the strongest reported
//! SNR wins, ties broken toward the lower gateway id, so the outcome is
//! deterministic regardless of which gateway's feed arrives first.

use crate::synth::Scene;
use std::collections::{BTreeMap, BTreeSet};
use tnb_gateway::uplink::Uplink;
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

/// Reads one uplink line: `Uplink::parse`, kept under this name because
/// the out-of-workspace benchmark harness (`tnbbench`) counts delivered
/// packets through it.
pub fn parse_uplink_line(line: &str) -> Option<Uplink> {
    Uplink::parse(line)
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
