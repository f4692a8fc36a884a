//! Traffic generation and the application payload format (paper §8.1).
//!
//! Each node transmits packets at randomly selected times during the
//! experiment. A 16-byte payload carries 4 bytes of header, 4 bytes of
//! node ID, 4 bytes of sequence number, 4 bytes of data, and the PHY
//! appends the 2-byte CRC (artifact appendix B.3.4 — the paper counts the
//! CRC inside the "16 bytes", so the application payload here is 16 bytes
//! and the CRC travels separately, exactly as our PHY frames it). Node
//! and sequence fields are 32-bit so city-scale deployments (10⁵–10⁶
//! nodes, `tnb-deploy`) do not overflow the encoding.

use rand::Rng;

/// Fixed application payload length (bytes) used throughout the paper.
pub const PAYLOAD_LEN: usize = 16;

/// One scheduled transmission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledPacket {
    /// Transmitting node.
    pub node: u32,
    /// Per-node sequence number.
    pub seq: u32,
    /// Transmit time in seconds from the trace start.
    pub time: f64,
}

/// Builds the paper's payload layout: `[0xA5; 4]` app header, node ID,
/// sequence number (both big-endian), then deterministic data bytes.
///
/// The data bytes check every id byte: each enters the fill scaled by an
/// odd factor, so a flip of any single id bit changes every fill byte
/// and [`parse_payload`] rejects it. The bytes above the low one add
/// nothing while they are zero, which keeps the payloads of ids below
/// 256 as they were before those bytes were checked.
pub fn make_payload(node: u32, seq: u32) -> Vec<u8> {
    let (node_b, seq_b) = (node.to_be_bytes(), seq.to_be_bytes());
    let high = node_b[..3]
        .iter()
        .chain(&seq_b[..3])
        .zip([37u8, 41, 43, 47, 53, 59])
        .fold(0u8, |h, (&b, m)| h.wrapping_add(b.wrapping_mul(m)));
    let mut p = Vec::with_capacity(PAYLOAD_LEN);
    p.extend_from_slice(&[0xA5, 0x5A, 0xA5, 0x5A]);
    p.extend_from_slice(&node_b);
    p.extend_from_slice(&seq_b);
    for i in 0..(PAYLOAD_LEN - 12) {
        p.push(
            (node as u8)
                .wrapping_mul(31)
                .wrapping_add(seq as u8)
                .wrapping_add(high)
                .wrapping_add(i as u8),
        );
    }
    p
}

/// Parses a payload back into `(node, seq)`; `None` if it does not match
/// the layout of [`make_payload`].
pub fn parse_payload(payload: &[u8]) -> Option<(u32, u32)> {
    if payload.len() != PAYLOAD_LEN || payload[..4] != [0xA5, 0x5A, 0xA5, 0x5A] {
        return None;
    }
    let node = u32::from_be_bytes([payload[4], payload[5], payload[6], payload[7]]);
    let seq = u32::from_be_bytes([payload[8], payload[9], payload[10], payload[11]]);
    if payload == make_payload(node, seq).as_slice() {
        Some((node, seq))
    } else {
        None
    }
}

/// Generates a random schedule: an aggregate offered load of `load_pps`
/// packets per second over `duration_s` seconds, split evenly across
/// `n_nodes` nodes, each packet at a uniformly random time (paper §8.1:
/// "a node transmits packets at randomly selected times").
///
/// Returns the schedule sorted by time.
pub fn generate_schedule<R: Rng + ?Sized>(
    rng: &mut R,
    n_nodes: usize,
    load_pps: f64,
    duration_s: f64,
    airtime_s: f64,
) -> Vec<ScheduledPacket> {
    let total = (load_pps * duration_s).round() as usize;
    let mut out = Vec::with_capacity(total);
    let latest = (duration_s - airtime_s).max(0.0);
    for k in 0..total {
        let node = (k % n_nodes) as u32;
        let seq = (k / n_nodes) as u32;
        out.push(ScheduledPacket {
            node,
            seq,
            time: rng.gen::<f64>() * latest,
        });
    }
    out.sort_by(|a, b| a.time.total_cmp(&b.time));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn payload_roundtrip() {
        for (node, seq) in [(0u32, 0u32), (7, 1), (24, 999), (65535, 65535)] {
            let p = make_payload(node, seq);
            assert_eq!(p.len(), PAYLOAD_LEN);
            assert_eq!(parse_payload(&p), Some((node, seq)));
        }
    }

    #[test]
    fn corrupted_payload_rejected() {
        let mut p = make_payload(3, 4);
        p[10] ^= 0xFF;
        assert_eq!(parse_payload(&p), None);
        assert_eq!(parse_payload(&p[..10]), None);
        assert_eq!(parse_payload(&[0u8; 16]), None);
    }

    #[test]
    fn one_byte_ids_keep_their_payload() {
        // The layout before the high id bytes were checked.
        for (node, seq) in [(0u32, 0u32), (3, 4), (24, 255), (255, 17)] {
            let mut want = vec![
                0xA5, 0x5A, 0xA5, 0x5A, 0, 0, 0, node as u8, 0, 0, 0, seq as u8,
            ];
            for i in 0..4u8 {
                want.push(
                    (node as u8)
                        .wrapping_mul(31)
                        .wrapping_add(seq as u8)
                        .wrapping_add(i),
                );
            }
            assert_eq!(make_payload(node, seq), want, "({node}, {seq})");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn header_bit_flips_never_alias(node in 0u32..u32::MAX, seq in 0u32..u32::MAX, small in 0u32..2) {
            // Half the cases use one-byte ids, the common case in the
            // experiment scenes.
            let (node, seq) = if small == 1 { (node % 256, seq % 256) } else { (node, seq) };
            let p = make_payload(node, seq);
            for bit in 0..12 * 8 {
                let mut q = p.clone();
                q[bit / 8] ^= 1 << (bit % 8);
                let got = parse_payload(&q);
                proptest::prop_assert!(
                    got.is_none() || got == Some((node, seq)),
                    "flip of bit {bit} of ({node}, {seq}) parsed as {got:?}"
                );
            }
        }
    }

    #[test]
    fn schedule_counts_and_bounds() {
        let mut rng = StdRng::seed_from_u64(5);
        let s = generate_schedule(&mut rng, 19, 10.0, 30.0, 0.15);
        assert_eq!(s.len(), 300);
        for p in &s {
            assert!(p.time >= 0.0 && p.time <= 30.0 - 0.15);
        }
        // Sorted by time.
        for w in s.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
        // Packets spread across all nodes.
        let nodes: std::collections::HashSet<u32> = s.iter().map(|p| p.node).collect();
        assert_eq!(nodes.len(), 19);
    }

    #[test]
    fn city_scale_node_ids_roundtrip() {
        // Regression: node ids past u16::MAX must survive the payload
        // encoding (city-scale deployments address 10^5..10^6 nodes).
        for (node, seq) in [(65_536u32, 0u32), (250_000, 123), (u32::MAX, u32::MAX)] {
            let p = make_payload(node, seq);
            assert_eq!(p.len(), PAYLOAD_LEN);
            assert_eq!(parse_payload(&p), Some((node, seq)));
        }
        // Two nodes that collide mod 2^16 must produce distinct payloads.
        assert_ne!(make_payload(1, 0), make_payload(65_537, 0));
    }

    #[test]
    fn node_seq_pairs_unique() {
        let mut rng = StdRng::seed_from_u64(6);
        let s = generate_schedule(&mut rng, 5, 20.0, 3.0, 0.1);
        let mut seen = std::collections::HashSet::new();
        for p in &s {
            assert!(
                seen.insert((p.node, p.seq)),
                "duplicate {:?}",
                (p.node, p.seq)
            );
        }
    }
}
