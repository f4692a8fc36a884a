//! Quickstart: encode a LoRa packet, put it on a noisy channel, and
//! decode it with the TnB receiver.
//!
//! Run with: `cargo run --release --example quickstart`

use tnb::channel::trace::TraceBuilder;
use tnb::core::TnbReceiver;
use tnb::phy::{CodingRate, LoRaParams, SpreadingFactor, Transmitter};

fn main() {
    // The paper's default configuration: 125 kHz bandwidth, OSF 8.
    let params = LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR4);
    let payload = b"hello, LoRa PHY!";

    // 1. Transmit: payload → CRC → whitening → Hamming + interleaving →
    //    Gray-mapped chirps, preceded by the 12.25-symbol preamble.
    let tx = Transmitter::new(params);
    let wave = tx.transmit(payload);
    println!(
        "packet: {} payload bytes -> {} data symbols, {:.1} ms airtime",
        payload.len(),
        tx.data_symbols(payload).len(),
        tx.packet_airtime(payload.len()) * 1e3,
    );

    // 2. Channel: place the modulated samples in a trace at 6 dB SNR
    //    with a CFO typical of a commodity node.
    let mut builder = TraceBuilder::new(params, 7);
    builder.add_packet_samples(&wave, 10_000, 2400.0, 6.0);
    let trace = builder.build();
    println!("trace: {} complex samples at 1 Msps", trace.len());

    // 3. Receive with TnB (one worker; `with_workers(n)` decodes over n
    //    threads with byte-identical output).
    let rx = TnbReceiver::new(params);
    let decoded = rx.decode(trace.samples());
    assert_eq!(decoded.len(), 1, "expected one decoded packet");
    let pkt = &decoded[0];
    println!(
        "decoded: {:?} at sample {:.0}, CFO {:.0} Hz, SNR {:.1} dB",
        String::from_utf8_lossy(&pkt.payload),
        pkt.start,
        pkt.cfo_cycles * params.bin_hz(),
        pkt.snr_db,
    );
    assert_eq!(pkt.payload, payload);
    println!("payload matches — success");
}
