//! The uplink line codec: `Uplink::to_line` and `Uplink::parse` are
//! inverses up to the printed precision of the float fields, and the
//! reader rejects every malformation it claims to.

use proptest::prelude::*;
use tnb_core::DecodedPacket;
use tnb_gateway::uplink::{self, Line, LineKind, Uplink};
use tnb_phy::header::Header;
use tnb_phy::params::{CodingRate, LoRaParams, SpreadingFactor};
use tnb_sim::traffic::{make_payload, parse_payload};

/// An uplink carrying the network server's payload for node 70 000,
/// sequence 3 (a node id past 16 bits).
fn fixture() -> (LoRaParams, DecodedPacket) {
    let params = LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR4);
    let pkt = DecodedPacket {
        payload: make_payload(70_000, 3),
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
    (params, pkt)
}

#[test]
fn uplink_line_roundtrips_through_parser() {
    let (params, pkt) = fixture();
    let line = uplink::uplink_line(&params, 0, 0, &pkt);
    assert_eq!(line, Uplink::new(&params, 0, 0, None, &pkt).to_line());
    let p = Uplink::parse(&line).expect("parse");
    assert_eq!(p.data, pkt.payload);
    assert_eq!((p.sf, p.cr), (8, 4));
    assert_eq!(p.channel, None);
    assert!((p.snr_db - 7.5).abs() < 0.05);
    assert_eq!(p.tmst, 12_345);
    assert_eq!(p.start, 12_345.5);
    assert_eq!(parse_payload(&p.data), Some((70_000, 3)));
    assert_eq!(p.to_line(), line, "re-rendering a parsed line is exact");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn uplink_parse_inverts_to_line(
        data in proptest::collection::vec(any::<u8>(), 0..256),
        ids in (any::<u32>(), any::<u64>(), 0usize..3, any::<u64>()),
        rate in (7u8..13, 1u8..5, 1u8..4, 0usize..64),
        floats in (-30.0f32..40.0, -100_000.0f64..100_000.0, -10.0f64..1.0e9),
    ) {
        let (stream, n, chan, tmst) = ids;
        let (sf, cr, pass, rescued) = rate;
        let (snr_db, cfo_hz, start) = floats;
        let u = Uplink {
            stream,
            n,
            // 0 = narrowband (no channel key); otherwise a channel tag.
            channel: (chan > 0).then_some(chan * 3),
            tmst,
            sf,
            cr,
            snr_db,
            cfo_hz,
            data,
            start,
            pass,
            rescued,
        };
        let line = u.to_line();
        let back = Uplink::parse(&line).expect("own line parses");
        prop_assert_eq!(format!("{:.1}", back.snr_db), format!("{:.1}", u.snr_db));
        prop_assert_eq!(format!("{:.0}", back.cfo_hz), format!("{:.0}", u.cfo_hz));
        prop_assert_eq!(
            Uplink { snr_db: u.snr_db, cfo_hz: u.cfo_hz, ..back.clone() },
            u
        );
        prop_assert_eq!(back.to_line(), line);
        let kind = Line::parse(&back.to_line()).map(|l| (l.kind, l.stream));
        prop_assert_eq!(kind, Some((LineKind::Uplink, Some(stream))));
    }
}

#[test]
fn reader_rejects_malformed_lines() {
    let (params, pkt) = fixture();
    let good = Uplink::new(&params, 4, 2, Some(6), &pkt).to_line();
    assert!(Uplink::parse(&good).is_some());
    let swap = |from: &str, to: &str| {
        assert!(good.contains(from), "fixture lacks {from}");
        good.replacen(from, to, 1)
    };
    let deep = format!(
        "{{\"type\":\"uplink\",\"x\":{}{}}}",
        "[".repeat(40),
        "]".repeat(40)
    );
    let cases: Vec<(&str, String)> = vec![
        ("truncated", good[..good.len() - 1].to_owned()),
        ("truncated mid-way", good[..good.len() / 2].to_owned()),
        ("trailing garbage", format!("{good}x")),
        ("two values", format!("{good}{{}}")),
        (
            "bad escape",
            swap("\"datr\":\"SF8CR4\"", "\"datr\":\"SF8\\qCR4\""),
        ),
        ("over-deep nesting", deep),
        (
            "wrong type",
            swap("\"type\":\"uplink\"", "\"type\":\"end\""),
        ),
        (
            "unknown type",
            swap("\"type\":\"uplink\"", "\"type\":\"upl1nk\""),
        ),
        ("no type", swap("\"type\":\"uplink\",", "")),
        ("bad base64", swap("\"data\":\"", "\"data\":\"!")),
        ("size mismatch", swap("\"size\":16", "\"size\":15")),
        ("bad datr", swap("SF8CR4", "SF8")),
        ("non-numeric datr", swap("SF8CR4", "SFxCR4")),
        (
            "stream out of u32 range",
            swap("\"stream\":4", "\"stream\":4294967296"),
        ),
        ("negative n", swap("\"n\":2", "\"n\":-2")),
        ("string n", swap("\"n\":2", "\"n\":\"2\"")),
        ("missing rxpk field", swap("\"tmst\":12345,", "")),
        (
            "degraded outcome",
            swap("\"status\":\"decoded\"", "\"status\":\"degraded\""),
        ),
    ];
    for (what, bad) in &cases {
        assert_eq!(Uplink::parse(bad), None, "{what}: accepted {bad}");
    }
    // Control lines are valid lines but not uplinks.
    let ack = uplink::ack_line(7, 4123);
    let line = Line::parse(&ack).expect("ack line");
    assert_eq!((line.kind, line.stream), (LineKind::Ack, Some(7)));
    assert_eq!(line.u32("seq"), Some(4123));
    assert_eq!(line.u32("nonce"), None);
    assert_eq!(Uplink::parse(&ack), None);
}
