//! `gateway_stream`: an open-loop load generator streams two seeded
//! 1 Msps SF8 traces in real time over one loopback TCP connection to an
//! in-process `Gateway` (2 decode workers, SIC off).

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tnb_core::{DecodedPacket, ParallelReceiver, StreamingConfig, StreamingReceiver};
use tnb_gateway::wire::{decode_frame, encode_frame, quantize};
use tnb_gateway::{uplink, Frame, Gateway, GatewayConfig, GatewayStatsSnapshot};
use tnb_phy::{LoRaParams, Transmitter};
use tnb_sim::gateway::reference_transcript;
use tnb_sim::traffic::PAYLOAD_LEN;

use crate::dense::{build_trace, params, Truth};
use crate::measure::{latency_from_due, median, median_time_s, percentile, ratio, sub_seed};
use crate::measure::{tail_percentile, Metrics, Outcome, Section};
use crate::tracer::Tracer;

/// Streams multiplexed on the connection.
pub const STREAMS: u32 = 2;
/// Offered load per stream, packets per second.
pub const LOAD_PPS: f64 = 5.0;
/// Samples per DATA frame (16.4 ms of air time at 1 Msps).
pub const CHUNK: usize = 16_384;
/// Decode workers of each stream's receiver.
pub const WORKERS: usize = 2;
/// A frame sent this much after its due instant counts as late.
pub const LATE_MS: f64 = 50.0;
/// Latencies are not trusted when more than this share of the frame
/// slots went out late: the offered load then no longer follows the
/// schedule. A single stall is counted in the latencies it delays, since
/// those are measured from the due instant.
pub const LATE_SHARE_LIMIT: f64 = 0.01;

#[derive(Debug, Clone, Copy)]
pub struct StreamSize {
    /// Seconds of air time per stream, streamed in real time.
    pub stream_s: f64,
}

/// The traced run's size: 16 s per stream, about 160 scheduled packets.
pub const FULL: StreamSize = StreamSize { stream_s: 16.0 };
pub const MINI: StreamSize = StreamSize { stream_s: 3.0 };

/// The end-to-end size: streams fill the measured `seconds` but for one
/// second of draining.
pub fn sized(seconds: f64) -> StreamSize {
    StreamSize {
        stream_s: (seconds - 1.0).max(1.0),
    }
}

pub fn streaming_config() -> StreamingConfig {
    StreamingConfig {
        workers: WORKERS,
        ..StreamingConfig::default()
    }
}

fn gateway_config(p: LoRaParams) -> GatewayConfig {
    GatewayConfig {
        params: p,
        streaming: streaming_config(),
        ..GatewayConfig::new(p)
    }
}

/// One stream's input: wire-quantized samples plus ground truth.
pub struct StreamInput {
    pub samples: Vec<tnb_dsp::Complex32>,
    pub truth: Truth,
}

impl StreamInput {
    /// Seconds after the stream start at which the frame carrying the
    /// last sample of scheduled packet `i` was due to be sent.
    fn due_s(&self, i: usize, fs: f64, packet_samples: usize) -> f64 {
        let start = (self.truth.schedule[i].time * fs).round() as usize;
        frame_due_s(start + packet_samples, self.samples.len(), fs)
    }
}

/// Due time (seconds after the stream start) of the frame carrying the
/// sample just before `end`.
fn frame_due_s(end: usize, len: usize, fs: f64) -> f64 {
    let k = end.saturating_sub(1) / CHUNK;
    ((k + 1) * CHUNK).min(len) as f64 / fs
}

fn build_inputs(seed: u64, size: StreamSize) -> Vec<StreamInput> {
    (0..STREAMS)
        .map(|s| {
            let b = build_trace(sub_seed(seed, 100 + s as u64), LOAD_PPS, size.stream_s);
            StreamInput {
                samples: quantize(b.trace.samples()),
                truth: Truth::new(&b.schedule),
            }
        })
        .collect()
}

/// Median seconds to spawn the daemon and connect to it.
fn setup(p: LoRaParams) -> std::io::Result<(f64, Gateway, TcpStream)> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..20 {
        let t = Instant::now();
        let gw = Gateway::spawn(("127.0.0.1", 0), gateway_config(p))?;
        let sock = TcpStream::connect(gw.local_addr())?;
        times.push(t.elapsed().as_secs_f64());
        last = Some((gw, sock));
    }
    let (gw, sock) = last.ok_or_else(|| std::io::Error::other("no gateway"))?;
    Ok((median(&times), gw, sock))
}

/// What one paced pass through the daemon produced.
struct DaemonPass {
    /// Per-stream transcript lines (uplinks then the end line).
    lines: Vec<Vec<String>>,
    /// Due-time latency (s) of each uplink that carried a scheduled
    /// payload.
    latencies: Vec<f64>,
    /// Scheduled transmissions delivered, and uplinks that were wrong.
    delivered: u64,
    wrong: u64,
    late_max_s: f64,
    /// Frame slots sent more than [`LATE_MS`] late, out of `slots`.
    late_slots: usize,
    slots: usize,
    stats: GatewayStatsSnapshot,
    wall_s: f64,
    cpu_s: f64,
    peak_rss_mib: f64,
}

fn stream_of(line: &str) -> Option<u32> {
    let rest = &line[line.find("\"stream\":")? + 9..];
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

/// Streams every input in real time over `sock`: frame `k` of each
/// stream is due once its last sample would have been received on air.
fn daemon_pass(
    t: &Tracer,
    gw: Gateway,
    sock: TcpStream,
    inputs: &[StreamInput],
) -> std::io::Result<DaemonPass> {
    let p = params();
    let fs = p.sample_rate();
    let packet_samples = Transmitter::new(p).packet_samples(PAYLOAD_LEN);
    sock.set_nodelay(true)?;
    let read_half = sock.try_clone()?;
    let mut sock = sock;
    let reader: JoinHandle<Vec<(Instant, String)>> = std::thread::spawn(move || {
        let mut lines = Vec::new();
        for line in BufReader::new(read_half).lines() {
            match line {
                Ok(l) => lines.push((Instant::now(), l)),
                Err(_) => break,
            }
        }
        lines
    });

    let len = inputs.iter().map(|s| s.samples.len()).max().unwrap_or(0);
    let frames = len.div_ceil(CHUNK);
    let section = Section::start();
    let t0 = Instant::now();
    let mut late_max_s: f64 = 0.0;
    let mut late_slots = 0;
    let send = t.span("gateway.server", || -> std::io::Result<()> {
        for k in 0..frames {
            let due = t0 + Duration::from_secs_f64(((k + 1) * CHUNK).min(len) as f64 / fs);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let late_s = Instant::now().duration_since(due).as_secs_f64();
            late_max_s = late_max_s.max(late_s);
            late_slots += usize::from(late_s * 1e3 > LATE_MS);
            for (s, input) in inputs.iter().enumerate() {
                let lo = (k * CHUNK).min(input.samples.len());
                let hi = ((k + 1) * CHUNK).min(input.samples.len());
                if lo == hi {
                    continue;
                }
                let frame = Frame::data(s as u32, k as u32, input.samples[lo..hi].to_vec());
                let bytes = t.span("gateway.wire.encode", || encode_frame(&frame));
                sock.write_all(&bytes)?;
            }
        }
        for s in 0..inputs.len() {
            sock.write_all(&encode_frame(&Frame::end_stream(s as u32, frames as u32)))?;
        }
        sock.flush()?;
        sock.shutdown(Shutdown::Write)
    });
    if send.is_err() {
        // The daemon never saw END_STREAM; close so the reader ends.
        let _ = sock.shutdown(Shutdown::Both);
    }
    let arrived = reader.join().expect("uplink reader thread panicked");
    let mut stats = section.finish();
    if let Some((last, _)) = arrived.last() {
        stats.wall_s = last.duration_since(t0).as_secs_f64();
    }
    send?;
    let gw_stats = gw.join();

    let mut out = DaemonPass {
        lines: vec![Vec::new(); inputs.len()],
        latencies: Vec::new(),
        delivered: 0,
        wrong: 0,
        late_max_s,
        late_slots,
        slots: frames,
        stats: gw_stats,
        wall_s: stats.wall_s,
        cpu_s: stats.cpu_s,
        peak_rss_mib: stats.peak_rss_mib,
    };
    let mut seen: Vec<Vec<bool>> = inputs
        .iter()
        .map(|s| vec![false; s.truth.schedule.len()])
        .collect();
    for (at, line) in arrived {
        let Some(s) = stream_of(&line)
            .map(|s| s as usize)
            .filter(|&s| s < inputs.len())
        else {
            continue;
        };
        if let Some(up) = tnb_deploy::network::parse_uplink_line(&line) {
            match inputs[s].truth.lookup(&up.data) {
                Some(i) if !seen[s][i] => {
                    seen[s][i] = true;
                    out.delivered += 1;
                    let due = inputs[s].due_s(i, fs, packet_samples);
                    out.latencies.push(latency_from_due(t0, due, at));
                }
                _ => out.wrong += 1,
            }
        }
        out.lines[s].push(line);
    }
    Ok(out)
}

/// The direct reference transcripts, one thread per stream.
fn reference(inputs: &[StreamInput]) -> Vec<Vec<String>> {
    let p = params();
    std::thread::scope(|sc| {
        let handles: Vec<_> = inputs
            .iter()
            .enumerate()
            .map(|(s, input)| {
                sc.spawn(move || {
                    reference_transcript(p, streaming_config(), s as u32, &input.samples, CHUNK).0
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference decode thread panicked"))
            .collect()
    })
}

fn is_uplink(line: &str) -> bool {
    line.contains("\"type\":\"uplink\"")
}

/// Compares the daemon transcript with the reference. Returns (reference
/// uplinks, reference uplinks the daemon delivered, failures).
fn compare(daemon: &DaemonPass, reference: &[Vec<String>]) -> (u64, u64, u64) {
    let mut expected = 0;
    let mut found = 0;
    for (d, r) in daemon.lines.iter().zip(reference) {
        for line in r.iter().filter(|l| is_uplink(l)) {
            expected += 1;
            found += u64::from(d.contains(line));
        }
    }
    let lossless = daemon.stats.chunks_dropped == 0 && daemon.stats.shed_frames == 0;
    let identical = daemon.lines.as_slice() == reference;
    let failures = daemon.wrong + u64::from(lossless && !identical);
    (expected, found, failures)
}

pub fn run(seed: u64, size: StreamSize) -> std::io::Result<Outcome> {
    let inputs = build_inputs(seed, size);
    let reference = reference(&inputs);
    let (setup_s, gw, sock) = setup(params())?;
    let pass = daemon_pass(&Tracer::new(false), gw, sock, &inputs)?;
    let (expected, found, failures) = compare(&pass, &reference);

    let mut out = Outcome {
        attempted: expected,
        failed: failures,
        ..Outcome::default()
    };
    if failures > 0 {
        out.problems.push(format!(
            "{failures} daemon transcript mismatches ({} wrong uplinks)",
            pass.wrong
        ));
    }
    let late_ms = pass.late_max_s * 1e3;
    if pass.late_slots as f64 > LATE_SHARE_LIMIT * pass.slots as f64 {
        out.problems.push(format!(
            "generator sent {} of {} frame slots more than {LATE_MS} ms late",
            pass.late_slots, pass.slots
        ));
    }
    let scheduled: usize = inputs.iter().map(|s| s.truth.schedule.len()).sum();
    let samples: usize = inputs.iter().map(|s| s.samples.len()).sum();
    let lat_ms: Vec<f64> = pass.latencies.iter().map(|l| l * 1e3).collect();
    eprintln!(
        "gateway_stream: {} uplink latencies (tail percentile with >=10 beyond: {:?}), \
         gen.late_ms_max {late_ms:.3} ({} of {} frame slots over {LATE_MS} ms), \
         dropped {} shed {}",
        lat_ms.len(),
        tail_percentile(lat_ms.len()),
        pass.late_slots,
        pass.slots,
        pass.stats.chunks_dropped,
        pass.stats.shed_frames
    );
    let m = &mut out.metrics;
    m.put("setup_s", setup_s, "s");
    m.put("peak_rss_mib", pass.peak_rss_mib, "MiB");
    m.put("decode_msps", samples as f64 / pass.wall_s / 1e6, "Msps");
    m.put(
        "prr",
        ratio(pass.delivered as f64, scheduled as f64),
        "ratio",
    );
    m.put("latency_p50_ms", median(&lat_ms), "ms");
    m.put("latency_p90_ms", percentile(&lat_ms, 90.0), "ms");
    m.put(
        "uplink_match",
        ratio(found as f64, expected as f64),
        "ratio",
    );
    m.put("cpu_s_per_stream_s", pass.cpu_s / pass.wall_s, "s/s");
    m.put("sim_rate", size.stream_s / pass.wall_s, "s/s");
    Ok(out)
}

/// Traced run of the streaming, parallel and gateway layers. Returns
/// (attempted, failed).
pub fn traced(
    t: &Tracer,
    seed: u64,
    size: StreamSize,
    m: &mut Metrics,
) -> std::io::Result<(u64, u64)> {
    let p = params();
    let fs = p.sample_rate();
    let packet_samples = Transmitter::new(p).packet_samples(PAYLOAD_LEN);
    let inputs = build_inputs(seed, size);

    // Direct decode in the daemon's order (frame k of every stream, then
    // frame k + 1), timing every push.
    let mut rxs: Vec<StreamingReceiver> = inputs
        .iter()
        .map(|_| StreamingReceiver::with_config(p, streaming_config()))
        .collect();
    let len = inputs.iter().map(|s| s.samples.len()).max().unwrap_or(0);
    let frames = len.div_ceil(CHUNK);
    // (due of the pushed frame, push duration, stream, packets emitted).
    let mut pushes: Vec<(f64, f64, usize, Vec<DecodedPacket>)> = Vec::new();
    for k in 0..=frames {
        for (s, input) in inputs.iter().enumerate() {
            let lo = (k * CHUNK).min(input.samples.len());
            let hi = ((k + 1) * CHUNK).min(input.samples.len());
            let start = Instant::now();
            let pkts = if k == frames {
                t.span("core.streaming", || rxs[s].finish())
            } else if lo < hi {
                t.span("core.streaming", || rxs[s].push(&input.samples[lo..hi]))
            } else {
                continue;
            };
            let dur = start.elapsed().as_secs_f64();
            pushes.push((hi as f64 / fs, dur, s, pkts));
        }
    }
    // Replay the pushes on the real-time schedule: one decoder thread
    // starts each push when both its frame is due and the previous push
    // is done.
    let mut busy = 0.0f64;
    let mut direct_ms = Vec::new();
    let mut packets = Vec::new();
    let mut push_ms = Vec::new();
    for (due, dur, s, pkts) in &pushes {
        let done = busy.max(*due) + dur;
        busy = done;
        push_ms.push(dur * 1e3);
        for pk in pkts {
            if let Some(i) = inputs[*s].truth.lookup(&pk.payload) {
                direct_ms.push((done - inputs[*s].due_s(i, fs, packet_samples)) * 1e3);
            }
            packets.push(pk.clone());
        }
    }
    let sps = p.samples_per_symbol() as f64;
    let windows: f64 = rxs
        .iter()
        .map(|r| r.report().stages.detect_windows as f64)
        .sum();
    let stream_windows: f64 = inputs.iter().map(|s| s.samples.len() as f64 / sps).sum();

    // One streaming window through the parallel receiver.
    let cfg = streaming_config();
    let window = (cfg.window_factor * Transmitter::new(p).packet_samples(cfg.max_payload))
        .min(inputs[0].samples.len());
    let window_samples = &inputs[0].samples[..window];
    let mut window_ms = [0.0; 2];
    for (i, workers) in [1usize, 2].into_iter().enumerate() {
        let prx = ParallelReceiver::with_config(p, cfg.receiver, workers)
            .with_max_payload_len(cfg.max_payload);
        window_ms[i] =
            1e3 * median_time_s(3, || t.span("core.parallel", || prx.decode(window_samples)));
    }

    // Uplink formatting and wire decoding, per call.
    let mut line_us = Vec::new();
    for n in 0..2000 {
        if packets.is_empty() {
            break;
        }
        let pk = &packets[n % packets.len()];
        let start = Instant::now();
        std::hint::black_box(t.span("gateway.uplink", || {
            uplink::uplink_line(&p, 0, n as u64, pk)
        }));
        line_us.push(start.elapsed().as_secs_f64() * 1e6);
    }
    let mut decode_us = Vec::new();
    let mut wire_failed = 0;
    for k in 0..frames.min(200) {
        let hi = ((k + 1) * CHUNK).min(inputs[0].samples.len());
        let frame = Frame::data(0, k as u32, inputs[0].samples[k * CHUNK..hi].to_vec());
        let bytes = encode_frame(&frame);
        let start = Instant::now();
        let back = t.span("gateway.wire.decode", || decode_frame(&bytes));
        decode_us.push(start.elapsed().as_secs_f64() * 1e6);
        if !matches!(back, Ok(Some((f, n))) if n == bytes.len() && f == frame) {
            wire_failed += 1;
        }
    }

    // The daemon on the same inputs.
    let reference_lines = reference(&inputs);
    let gw = Gateway::spawn(("127.0.0.1", 0), gateway_config(p))?;
    let sock = TcpStream::connect(gw.local_addr())?;
    let pass = daemon_pass(t, gw, sock, &inputs)?;
    let (expected, _, failures) = compare(&pass, &reference_lines);
    let daemon_ms: Vec<f64> = pass.latencies.iter().map(|l| l * 1e3).collect();
    let encode_us: Vec<f64> = t
        .durations_ns("gateway.wire.encode")
        .iter()
        .map(|&ns| ns as f64 / 1e3)
        .collect();

    m.put("streaming.push_ms_p50", median(&push_ms), "ms");
    m.put("streaming.push_ms_max", percentile(&push_ms, 100.0), "ms");
    m.put(
        "streaming.redecode_ratio",
        ratio(windows, stream_windows),
        "ratio",
    );
    m.put("parallel.window_ms_w1", window_ms[0], "ms");
    m.put("parallel.window_ms_w2", window_ms[1], "ms");
    m.put("wire.encode_us", median(&encode_us), "us");
    m.put("wire.decode_us", median(&decode_us), "us");
    m.put("uplink.format_us", median(&line_us), "us");
    m.put(
        "server.overhead_ms",
        median(&daemon_ms) - median(&direct_ms),
        "ms",
    );
    m.put("server.direct_latency_p50_ms", median(&direct_ms), "ms");
    m.put(
        "server.chunks_dropped",
        pass.stats.chunks_dropped as f64,
        "count",
    );
    m.put("server.shed_frames", pass.stats.shed_frames as f64, "count");
    m.put("gen.late_ms_max", pass.late_max_s * 1e3, "ms");
    Ok((expected, failures + wire_failed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_due_is_the_frame_carrying_the_last_sample() {
        let fs = 1e6;
        // A packet ending exactly on a frame boundary is due with that frame.
        assert_eq!(frame_due_s(CHUNK, 10 * CHUNK, fs), CHUNK as f64 / fs);
        // One sample more spills into the next frame.
        assert_eq!(
            frame_due_s(CHUNK + 1, 10 * CHUNK, fs),
            2.0 * CHUNK as f64 / fs
        );
        // The last, partial frame is due when the stream ends.
        assert_eq!(
            frame_due_s(10 * CHUNK + 5, 10 * CHUNK + 7, fs),
            (10 * CHUNK + 7) as f64 / fs
        );
    }

    #[test]
    fn stream_id_parse() {
        assert_eq!(
            stream_of("{\"type\":\"uplink\",\"stream\":1,\"n\":0}"),
            Some(1)
        );
        assert_eq!(
            stream_of("{\"type\":\"end\",\"stream\":12,\"x\":1}"),
            Some(12)
        );
        assert_eq!(stream_of("{\"type\":\"stats\"}"), None);
    }

    #[test]
    fn smoke() {
        let out = run(7, StreamSize { stream_s: 1.5 }).expect("loopback run");
        assert!(out.attempted > 0, "no uplinks in the reference");
        assert!(out.correct(), "{:?}", out.problems);
        assert_eq!(out.metrics.names(), crate::E2E_NAMES);
    }
}
