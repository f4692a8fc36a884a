//! Resilience-layer integration tests against a **live daemon**:
//! heartbeats, idle deadlines, admission control, load-shedding, and
//! the reconnect+RESUME path continuing a stream mid-packet with a
//! byte-identical transcript.

use std::io::{BufRead, BufReader, Read};
use std::net::TcpStream;
use std::time::Duration;

use tnb_core::StreamingConfig;
use tnb_gateway::netfaults::{ChaosProxy, NetFault, NetFaultPlan};
use tnb_gateway::uplink::{Line, LineKind};
use tnb_gateway::wire::{encode_frame, quantize, Frame};
use tnb_gateway::{Gateway, GatewayClient, GatewayConfig, ResilientClient, ResilientConfig};
use tnb_phy::{CodingRate, LoRaParams, SpreadingFactor, Transmitter};
use tnb_sim::gateway::{collided_samples, reference_transcript};

fn params() -> LoRaParams {
    LoRaParams::new(SpreadingFactor::SF7, CodingRate::CR4)
}

fn spawn_daemon(cfg: GatewayConfig) -> Gateway {
    Gateway::spawn(("127.0.0.1", 0), cfg).expect("bind loopback")
}

/// The decode transcript within a client's lines: uplink and end lines,
/// without the control chatter (hello / ack / goaway / ...).
fn decode_lines(lines: &[String]) -> Vec<String> {
    lines
        .iter()
        .filter(|l| {
            Line::parse(l).is_some_and(|l| matches!(l.kind, LineKind::Uplink | LineKind::End))
        })
        .cloned()
        .collect()
}

fn resilient(addr: std::net::SocketAddr) -> ResilientClient {
    ResilientClient::connect(
        addr,
        ResilientConfig {
            max_reconnects: 10,
            base_delay: Duration::from_millis(20),
            reply_timeout: Duration::from_secs(10),
            ..ResilientConfig::default()
        },
    )
    .expect("resilient connect")
}

#[test]
fn hello_assigns_tokens_and_ping_answers_with_the_nonce() {
    let gw = spawn_daemon(GatewayConfig::new(params()));
    let mut a = resilient(gw.local_addr());
    let mut b = resilient(gw.local_addr());
    assert_ne!(a.session_token(), b.session_token(), "tokens are unique");
    assert!(a.session_token() > 0 && b.session_token() > 0);
    assert!(a.ping(0xC0FF_EE00).expect("ping"), "pong echoes the nonce");
    assert!(b.ping(7).expect("ping"));
    drop(a);
    drop(b);
    let stats = gw.join();
    assert!(stats.pings_answered >= 2, "{stats:?}");
}

#[test]
fn idle_deadline_disconnects_a_silent_peer() {
    let gw = spawn_daemon(GatewayConfig {
        idle_timeout: Some(Duration::from_millis(150)),
        ..GatewayConfig::new(params())
    });
    // A plain client that sends one frame, then goes silent.
    let mut c = GatewayClient::connect(gw.local_addr(), Duration::from_secs(5)).expect("connect");
    c.send_raw(&encode_frame(&Frame::stats())).expect("stats");
    // Well past the idle deadline the daemon must have hung up on us:
    // the reader thread sees EOF and finish() returns on its own (if
    // the daemon did NOT disconnect, finish() would also return — the
    // counters below are the discriminator).
    std::thread::sleep(Duration::from_millis(600));
    let lines = c.finish();
    assert!(
        lines
            .iter()
            .any(|l| l.contains("\"type\":\"goaway\"") && l.contains("idle-timeout")),
        "{lines:?}"
    );
    let stats = gw.join();
    assert_eq!(stats.idle_disconnects, 1, "{stats:?}");
    assert_eq!(stats.connections_closed, 1, "{stats:?}");
}

#[test]
fn admission_control_answers_busy_past_the_connection_cap() {
    let gw = spawn_daemon(GatewayConfig {
        max_conns: 1,
        ..GatewayConfig::new(params())
    });
    let first = GatewayClient::connect(gw.local_addr(), Duration::from_secs(5)).expect("first");
    // The daemon accepts, counts the active connection, then answers
    // BUSY to the next peer without spawning a decode pipeline for it.
    // The accept loop may need a beat to register the first connection.
    std::thread::sleep(Duration::from_millis(100));
    let second = TcpStream::connect(gw.local_addr()).expect("tcp connect");
    let mut line = String::new();
    BufReader::new(&second)
        .read_line(&mut line)
        .expect("busy line");
    assert_eq!(
        Line::parse(&line).map(|l| l.kind),
        Some(LineKind::Busy),
        "expected busy reject, got {line:?}"
    );
    // The rejected socket is closed server-side.
    let mut rest = Vec::new();
    let _ = (&second).read_to_end(&mut rest);
    assert!(rest.is_empty());
    drop(second);
    drop(first);
    let stats = gw.join();
    assert_eq!(stats.busy_rejects, 1, "{stats:?}");
    assert_eq!(
        stats.connections_accepted, 1,
        "only the first got a pipeline"
    );
}

#[test]
fn backpressure_sheds_load_while_the_decoder_is_busy() {
    // Tiny ingest queue + per-stream quota. The first frame fills a
    // whole streaming window, so pushing it runs a full decode of a
    // dozen overlapping packets (tens of ms), and the 40-frame blast
    // behind it goes out in the same write, so its bytes already sit in
    // the daemon's socket buffer when that decode starts. The reader
    // then only has to queue three small frames during the decode —
    // microseconds of work against milliseconds — so the quota sheds
    // unless the reader thread is starved for the whole decode.
    let gw = spawn_daemon(GatewayConfig {
        queue_chunks: 4,
        quota_chunks: 2,
        ..GatewayConfig::new(params())
    });
    let mut c = GatewayClient::connect(gw.local_addr(), Duration::from_secs(5)).expect("connect");
    let streaming = StreamingConfig::default();
    let window =
        streaming.window_factor * Transmitter::new(params()).packet_samples(streaming.max_payload);
    let mut heavy = collided_samples(params(), 3, 12);
    heavy.resize(heavy.len().max(window), tnb_dsp::Complex32::ZERO);
    let mut burst = encode_frame(&Frame::data(0, 0, heavy));
    for _ in 0..40 {
        let frame = Frame::data(0, u32::MAX, vec![tnb_dsp::Complex32::ZERO; 64]);
        burst.extend(encode_frame(&frame));
    }
    c.send_raw(&burst).expect("heavy chunk and blast");
    c.send_raw(&encode_frame(&Frame::end_stream(0, 1)))
        .expect("end");
    let _ = c.finish();
    let stats = gw.join();
    assert!(
        stats.shed_frames > 0,
        "quota must shed the over-quota blast: {stats:?}"
    );
    assert_eq!(stats.worker_panics, 0);
    // Accounting: every DATA frame in is consumed, shed, evicted, or a
    // seq drop — the shed+dropped total can never exceed what came in.
    assert!(stats.shed_frames + stats.chunks_dropped + stats.seq_dups <= stats.chunks_in);
}

#[test]
fn reconnect_resume_continues_a_stream_mid_packet_byte_identically() {
    // The core resilience contract: cut the connection mid-frame while
    // packets are still being decoded; the client reconnects, RESUMEs,
    // resends from the last ack, the daemon replays undelivered uplink
    // lines — and the final transcript equals a clean run's, byte for
    // byte.
    let p = params();
    let gw = spawn_daemon(GatewayConfig {
        ack_every: 4,
        ..GatewayConfig::new(p)
    });
    let plan = NetFaultPlan {
        name: "cut-mid-frame",
        seed: 0,
        faults: vec![NetFault::DisconnectAt { byte: 40_000 }],
        recoverable: true,
    };
    let proxy = ChaosProxy::spawn(gw.local_addr(), plan).expect("proxy");
    let mut client = resilient(proxy.local_addr());

    let chunk = 4096;
    let samples = collided_samples(p, 11, 2);
    client.send_samples(0, &samples, chunk).expect("send");
    client.end_stream(0).expect("end");
    client.drain().expect("all frames acked after recovery");
    let client_stats = client.stats();
    let transcript = client.finish();
    let stats = gw.join();

    assert!(client_stats.reconnects >= 1, "{client_stats:?}");
    assert!(client_stats.retransmitted_frames >= 1, "{client_stats:?}");
    assert!(stats.sessions_parked >= 1, "{stats:?}");
    assert!(stats.sessions_resumed >= 1, "{stats:?}");
    assert_eq!(stats.worker_panics, 0);

    let quantized = quantize(&samples);
    let (reference, _) = reference_transcript(p, StreamingConfig::default(), 0, &quantized, chunk);
    assert_eq!(
        decode_lines(&transcript),
        reference,
        "recovered transcript must be byte-identical"
    );
}

#[test]
fn shutdown_with_streams_in_flight_drains_and_exits_clean() {
    // Satellite: SHUTDOWN arrives on one connection while another
    // connection's stream is open mid-stream (no END sent). The daemon
    // must drain what it consumed, flush the open stream's tail, keep
    // every uplink already emitted, and exit cleanly.
    let p = params();
    let gw = spawn_daemon(GatewayConfig {
        // Ack every consumed chunk so drain() proves consumption
        // without an END frame.
        ack_every: 1,
        ..GatewayConfig::new(p)
    });
    let chunk = 4096;
    let samples = collided_samples(p, 5, 2);
    let mut inflight = resilient(gw.local_addr());
    inflight.send_samples(0, &samples, chunk).expect("send");
    // No end_stream: the stream stays open. Wait until the daemon has
    // consumed (acked) every chunk, so the shutdown below races only
    // the flush, not the ingest.
    inflight.drain().expect("all chunks consumed");

    let mut killer =
        GatewayClient::connect(gw.local_addr(), Duration::from_secs(5)).expect("connect");
    killer.request_shutdown().expect("shutdown verb");
    let _ = killer.finish();
    let stats = gw.join();

    let got = decode_lines(&inflight.finish());
    // The shutdown flush equals a clean END-driven decode: push all
    // chunks, finish, end line.
    let quantized = quantize(&samples);
    let (reference, _) = reference_transcript(p, StreamingConfig::default(), 0, &quantized, chunk);
    assert_eq!(got, reference, "drained transcript must be complete");
    assert_eq!(stats.worker_panics, 0);
    assert_eq!(stats.protocol_errors, 0);
    assert_eq!(
        stats.connections_accepted, stats.connections_closed,
        "every connection torn down: {stats:?}"
    );
}
