//! Loopback / load-generator clients for the gateway wire protocol.
//!
//! Two layers share the framed IQ protocol of [`crate::wire`] over a
//! plain [`TcpStream`]:
//!
//! - [`GatewayClient`] — one connection: dial with backoff, a
//!   background reader collecting the daemon's JSON lines, per-stream
//!   seq numbering, chunked DATA frames (narrowband or WIDEBAND), and
//!   the END_STREAM / STATS / SHUTDOWN verbs. Used alone it speaks the
//!   daemon's plain (no HELLO) mode.
//! - [`ResilientClient`] — a session over a [`GatewayClient`], and the
//!   sender behind `gateway send` and the loopback harness: HELLO/RESUME
//!   handshake, seeded-jitter exponential-backoff reconnect (each
//!   attempt dials a fresh connection on the same transcript), and a
//!   bounded resend-from-last-acked frame buffer, so an uplink survives
//!   a daemon bounce (or a chaos-proxy disconnect) with a byte-identical
//!   transcript whenever the buffer still holds the unacked tail.
//!
//! The traffic synthesis that drives these clients lives in `tnb-sim`
//! (the layer above); this module is only the socket plumbing, so
//! integration tests and the CLI can reuse it.

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crate::uplink::{Line, LineKind};
use crate::wire::{encode_frame, Frame, MAX_FRAME_SAMPLES};
use tnb_core::metrics::json::Value;
use tnb_dsp::Complex32;

/// Default DATA-frame chunk length in samples (64 ms at 1 Msps — large
/// enough to amortize framing, small enough to exercise chunk-boundary
/// packet reassembly).
pub const DEFAULT_CHUNK: usize = 65_536;

/// A connected gateway client. Writes frames on the caller's thread;
/// a background thread accumulates every line the daemon sends.
pub struct GatewayClient {
    sock: TcpStream,
    reader: Option<JoinHandle<()>>,
    link: Arc<Link>,
    next_seq: BTreeMap<u32, u32>,
}

impl GatewayClient {
    /// Connects, retrying with backoff until `timeout` (the daemon
    /// binds and starts accepting asynchronously). The deadline is
    /// control-plane only — nothing on the decode path ever reads the
    /// wall clock.
    pub fn connect<A: ToSocketAddrs + Clone>(addr: A, timeout: Duration) -> io::Result<Self> {
        Self::dial(addr, timeout, Arc::default(), BTreeMap::new())
    }

    /// Dials `addr`, retrying with exponential backoff (10 ms doubling
    /// to a 320 ms ceiling, clipped to the remaining deadline) until
    /// `timeout`, then starts the reader appending to `link`. The
    /// backoff keeps a daemon that is still binding from being hammered
    /// by a hot connect loop.
    fn dial<A: ToSocketAddrs + Clone>(
        addr: A,
        timeout: Duration,
        link: Arc<Link>,
        next_seq: BTreeMap<u32, u32>,
    ) -> io::Result<Self> {
        // tnb-lint: allow(TNB-DET01) -- control-plane connect deadline, never on the decode path
        let deadline = Instant::now() + timeout;
        let mut delay = Duration::from_millis(10);
        let sock = loop {
            match TcpStream::connect(addr.clone()) {
                Ok(s) => break s,
                Err(e) => {
                    // tnb-lint: allow(TNB-DET01) -- control-plane connect deadline, never on the decode path
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(e);
                    }
                    thread::sleep(delay.min(deadline - now));
                    delay = (delay * 2).min(Duration::from_millis(320));
                }
            }
        };
        sock.set_nodelay(true).ok();
        let reader = spawn_link_reader(sock.try_clone()?, Arc::clone(&link));
        Ok(GatewayClient {
            sock,
            reader: Some(reader),
            link,
            next_seq,
        })
    }

    /// Streams `samples` as DATA frames of `chunk_len` samples on
    /// `stream_id`, quantizing through the shared wire quantizer (so a
    /// local reference decode over [`crate::wire::quantize`]d samples
    /// sees exactly the bytes the daemon sees). Returns the number of
    /// frames sent.
    pub fn send_samples(
        &mut self,
        stream_id: u32,
        samples: &[Complex32],
        chunk_len: usize,
    ) -> io::Result<u32> {
        for_each_chunk(samples, chunk_len, |chunk| {
            let (_, bytes) = self.data_frame(stream_id, chunk, false);
            self.send_raw(&bytes)
        })
    }

    /// Sends one raw, already-built frame (fault-injection tests use
    /// this to ship deliberately corrupted byte strings).
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.sock.write_all(bytes)
    }

    /// END_STREAM: the daemon flushes the stream's receiver and writes
    /// its end-of-stream report line.
    pub fn end_stream(&mut self, stream_id: u32) -> io::Result<()> {
        let (_, bytes) = self.end_frame(stream_id);
        self.send_raw(&bytes)
    }

    /// STATS: the daemon replies with one stats JSON line.
    pub fn request_stats(&mut self) -> io::Result<()> {
        self.send_raw(&encode_frame(&Frame::stats()))
    }

    /// SHUTDOWN: asks the whole daemon to shut down gracefully.
    pub fn request_shutdown(&mut self) -> io::Result<()> {
        self.send_raw(&encode_frame(&Frame::shutdown()))
    }

    /// Closes the write half and returns every JSON line the daemon
    /// sent (the daemon flushes end-of-stream lines on EOF, so this
    /// collects a complete transcript).
    pub fn finish(mut self) -> Vec<String> {
        let _ = self.sock.shutdown(Shutdown::Write);
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
        std::mem::take(&mut self.link.lock_state().lines)
    }

    /// The next DATA frame of `stream_id` (WIDEBAND-flagged when
    /// `wideband`): its seq and wire bytes.
    fn data_frame(
        &mut self,
        stream_id: u32,
        chunk: &[Complex32],
        wideband: bool,
    ) -> (u32, Vec<u8>) {
        let seq = self.bump_seq(stream_id);
        let frame = if wideband {
            Frame::data_wideband(stream_id, seq, chunk.to_vec())
        } else {
            Frame::data(stream_id, seq, chunk.to_vec())
        };
        (seq, encode_frame(&frame))
    }

    /// The END_STREAM frame of `stream_id`: its seq and wire bytes.
    fn end_frame(&mut self, stream_id: u32) -> (u32, Vec<u8>) {
        let seq = self.bump_seq(stream_id);
        (seq, encode_frame(&Frame::end_stream(stream_id, seq)))
    }

    fn bump_seq(&mut self, stream_id: u32) -> u32 {
        let seq = self.next_seq.entry(stream_id).or_insert(0);
        let cur = *seq;
        *seq = seq.wrapping_add(1);
        cur
    }

    /// Closes both halves and joins the reader, so every line the
    /// connection delivered is in the transcript.
    fn hang_up(&mut self) {
        let _ = self.sock.shutdown(Shutdown::Both);
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}

impl Drop for GatewayClient {
    fn drop(&mut self) {
        self.hang_up();
    }
}

/// Calls `ship` on each chunk of at most `chunk_len` samples (clamped
/// to the wire's frame limit); returns the number of chunks shipped.
fn for_each_chunk(
    samples: &[Complex32],
    chunk_len: usize,
    mut ship: impl FnMut(&[Complex32]) -> io::Result<()>,
) -> io::Result<u32> {
    let mut sent = 0;
    for chunk in samples.chunks(chunk_len.clamp(1, MAX_FRAME_SAMPLES)) {
        ship(chunk)?;
        sent += 1;
    }
    Ok(sent)
}

// ---------------------------------------------------------------------
// Resilient client
// ---------------------------------------------------------------------

/// Knobs of the [`ResilientClient`] reconnect machinery. Everything is
/// deterministic given `seed`: the backoff jitter comes from a seeded
/// LCG, never the clock or the OS RNG.
#[derive(Debug, Clone, Copy)]
pub struct ResilientConfig {
    /// Per-dial connect deadline (also used for the first connect).
    pub connect_timeout: Duration,
    /// Reconnect attempts per failed send before giving up.
    pub max_reconnects: u32,
    /// Backoff base: attempt `n` sleeps `base * 2^n` (plus jitter).
    pub base_delay: Duration,
    /// Backoff ceiling.
    pub max_delay: Duration,
    /// Jitter seed (LCG); same seed → same delay schedule.
    pub seed: u64,
    /// Resend-buffer bound, in frames. Older unacked frames beyond it
    /// are evicted (counted in [`ResilientStats::resend_evicted`]) —
    /// past that point a resume can no longer guarantee a gap-free
    /// stream.
    pub resend_frames: usize,
    /// How long to wait for the daemon's `hello` / `resumed` / `pong`
    /// reply lines.
    pub reply_timeout: Duration,
}

impl Default for ResilientConfig {
    fn default() -> Self {
        ResilientConfig {
            connect_timeout: Duration::from_secs(2),
            max_reconnects: 5,
            base_delay: Duration::from_millis(20),
            max_delay: Duration::from_millis(500),
            seed: 0,
            resend_frames: 1024,
            reply_timeout: Duration::from_secs(5),
        }
    }
}

/// Client-side resilience counters (the daemon-side mirror lives in
/// [`crate::stats::GatewayStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilientStats {
    /// Successful reconnect+RESUME cycles.
    pub reconnects: u64,
    /// Buffered frames re-sent after a resume.
    pub retransmitted_frames: u64,
    /// Unacked frames evicted from the full resend buffer.
    pub resend_evicted: u64,
}

/// One buffered (sent but not yet acked) frame.
struct BufferedFrame {
    stream_id: u32,
    seq: u32,
    bytes: Vec<u8>,
}

/// What the background reader learned from the daemon's control lines.
#[derive(Default)]
struct LinkState {
    /// Full transcript, in arrival order (uplink + control lines).
    lines: Vec<String>,
    /// Session token from the last `hello` line.
    session: Option<u32>,
    /// Per-stream `next_seq` cursors from the last `resumed` line
    /// (`None` until one arrives after a RESUME).
    resume_cursors: Option<BTreeMap<u32, u32>>,
    /// Latest acked seq per stream (daemon `ack` lines).
    acks: BTreeMap<u32, u32>,
    /// Session lines received ([`LineKind::session_scoped`], the rule
    /// the daemon's session log records by) — the delivery cursor a
    /// RESUME reports so the daemon replays exactly the lines lost with
    /// a dead connection.
    session_lines: u64,
    /// Nonce of the most recent `pong` line.
    last_pong: Option<u32>,
    /// `goaway` lines seen (a RESUME of an expired session is answered
    /// with `goaway "unknown-session"` instead of `resumed`).
    goaways: u64,
}

/// The daemon's side of a connection as the client's reader thread
/// sees it. A [`ResilientClient`]'s successive connections share one.
#[derive(Default)]
struct Link {
    state: Mutex<LinkState>,
    cv: Condvar,
}

impl Link {
    fn lock_state(&self) -> MutexGuard<'_, LinkState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Blocks until `f` yields `Some` on the link state, or `timeout`.
    fn wait_state<T, F: Fn(&LinkState) -> Option<T>>(&self, timeout: Duration, f: F) -> Option<T> {
        // tnb-lint: allow(TNB-DET01) -- control-plane reply deadline, never on the decode path
        let deadline = Instant::now() + timeout;
        let mut st = self.lock_state();
        loop {
            if let Some(v) = f(&st) {
                return Some(v);
            }
            // tnb-lint: allow(TNB-DET01) -- control-plane reply deadline, never on the decode path
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (g, _) = self
                .cv
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            st = g;
        }
    }

    fn wait_until<F: Fn(&LinkState) -> bool>(&self, timeout: Duration, pred: F) -> bool {
        self.wait_state(timeout, |st| pred(st).then_some(()))
            .is_some()
    }
}

/// The stream → `next_seq` cursors of a `resumed` line (empty when the
/// array is missing or malformed: every buffered frame is then resent).
fn resume_cursors(line: &Line) -> BTreeMap<u32, u32> {
    let streams = line.value.get("streams").and_then(Value::as_array);
    streams
        .unwrap_or_default()
        .iter()
        .filter_map(|s| {
            let num = |key| u32::try_from(s.get(key)?.as_u64()?).ok();
            Some((num("stream")?, num("next_seq")?))
        })
        .collect()
}

fn spawn_link_reader(read_half: TcpStream, link: Arc<Link>) -> JoinHandle<()> {
    thread::spawn(move || {
        for line in BufReader::new(read_half).lines() {
            let Ok(l) = line else { break };
            let mut st = link.lock_state();
            if let Some(line) = Line::parse(&l) {
                match line.kind {
                    LineKind::Hello => st.session = line.u32("session"),
                    LineKind::Resumed => st.resume_cursors = Some(resume_cursors(&line)),
                    LineKind::Ack => {
                        if let (Some(s), Some(q)) = (line.stream, line.u32("seq")) {
                            st.acks.insert(s, q);
                        }
                    }
                    LineKind::Pong => st.last_pong = line.u32("nonce"),
                    LineKind::Goaway => st.goaways += 1,
                    _ => {}
                }
                if line.kind.session_scoped() {
                    st.session_lines += 1;
                }
            }
            st.lines.push(l);
            drop(st);
            link.cv.notify_all();
        }
        link.cv.notify_all();
    })
}

/// Seeded-jitter exponential backoff for reconnect `attempt`: advances
/// the LCG state `rng` and returns `base * 2^attempt` capped at
/// `max_delay`, plus an LCG-jittered fraction of `base`.
fn backoff_delay(cfg: &ResilientConfig, rng: &mut u64, attempt: u32) -> Duration {
    *rng = rng
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let base = cfg.base_delay.max(Duration::from_millis(1));
    let exp = base
        .saturating_mul(1u32 << attempt.min(16))
        .min(cfg.max_delay);
    let jitter_ms = (*rng >> 33) % (base.as_millis().max(1) as u64);
    exp + Duration::from_millis(jitter_ms)
}

/// The fault-tolerant gateway client: a session over one
/// [`GatewayClient`] connection at a time. HELLO on connect,
/// seeded-jitter exponential-backoff reconnect with RESUME, and a
/// bounded resend-from-last-acked frame buffer. Any send that hits a
/// dead socket transparently reconnects, resumes the session, and
/// resends the unacked tail — the daemon's seq cursors make the resend
/// idempotent, so the uplink transcript matches a clean run.
pub struct ResilientClient {
    conn: GatewayClient,
    addr: SocketAddr,
    cfg: ResilientConfig,
    token: u32,
    buffer: VecDeque<BufferedFrame>,
    rng: u64,
    stats: ResilientStats,
}

impl ResilientClient {
    /// Connects, performs the HELLO handshake, and waits for the
    /// daemon's session token.
    pub fn connect<A: ToSocketAddrs>(addr: A, cfg: ResilientConfig) -> io::Result<Self> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address"))?;
        let mut conn = GatewayClient::connect(addr, cfg.connect_timeout)?;
        conn.send_raw(&encode_frame(&Frame::hello()))?;
        let token = conn
            .link
            .wait_state(cfg.reply_timeout, |st| st.session)
            .ok_or_else(|| io::Error::new(io::ErrorKind::TimedOut, "no hello reply from daemon"))?;
        Ok(ResilientClient {
            conn,
            addr,
            cfg,
            token,
            buffer: VecDeque::new(),
            rng: cfg.seed ^ 0x9e37_79b9_7f4a_7c15,
            stats: ResilientStats::default(),
        })
    }

    /// The daemon-assigned session token.
    pub fn session_token(&self) -> u32 {
        self.token
    }

    /// Client-side resilience counters.
    pub fn stats(&self) -> ResilientStats {
        self.stats
    }

    /// Streams `samples` as DATA frames (see
    /// [`GatewayClient::send_samples`]; `wideband` sets the WIDEBAND
    /// flag, so the daemon channelizes the stream into the 8 LoRa uplink
    /// channels before decoding), surviving daemon bounces via
    /// reconnect+RESUME+resend. Returns the number of frames sent
    /// (retransmissions not counted).
    pub fn send_samples(
        &mut self,
        stream_id: u32,
        samples: &[Complex32],
        chunk_len: usize,
        wideband: bool,
    ) -> io::Result<u32> {
        for_each_chunk(samples, chunk_len, |chunk| {
            let (seq, bytes) = self.conn.data_frame(stream_id, chunk, wideband);
            self.ship(stream_id, seq, bytes)
        })
    }

    /// END_STREAM with resend protection: if the END frame (or any
    /// unacked DATA before it) dies with the connection, the resume
    /// path replays it.
    pub fn end_stream(&mut self, stream_id: u32) -> io::Result<()> {
        let (seq, bytes) = self.conn.end_frame(stream_id);
        self.ship(stream_id, seq, bytes)
    }

    /// PING keepalive: sends the nonce and waits for the matching pong
    /// line. Returns whether it arrived within the reply timeout.
    pub fn ping(&mut self, nonce: u32) -> io::Result<bool> {
        self.conn.link.lock_state().last_pong = None;
        self.conn.send_raw(&encode_frame(&Frame::ping(nonce)))?;
        let link = &self.conn.link;
        Ok(link.wait_until(self.cfg.reply_timeout, |st| st.last_pong == Some(nonce)))
    }

    /// STATS: the daemon replies with one stats JSON line (collected in
    /// the transcript).
    pub fn request_stats(&mut self) -> io::Result<()> {
        self.conn.request_stats()
    }

    /// SHUTDOWN: asks the whole daemon to shut down gracefully.
    pub fn request_shutdown(&mut self) -> io::Result<()> {
        self.conn.request_shutdown()
    }

    /// Blocks until every buffered frame has been acked by the daemon,
    /// reconnecting and resending whenever ack progress stalls for a
    /// full reply timeout. This is what turns "the write syscall
    /// succeeded" into "the daemon consumed it": a send swallowed by a
    /// dying socket's kernel buffer is detected here and replayed.
    pub fn drain(&mut self) -> io::Result<()> {
        let mut attempts_left = self.cfg.max_reconnects.max(1);
        loop {
            // Wait for progress past the very cursors the prune used: an
            // ack landing between a prune and a second read of the
            // cursors would go unnoticed and stall the drain for a full
            // reply timeout, then force a needless reconnect.
            let before = self.prune_acked();
            if self.buffer.is_empty() {
                return Ok(());
            }
            let link = &self.conn.link;
            if link.wait_until(self.cfg.reply_timeout, |st| st.acks != before) {
                continue;
            }
            if attempts_left == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "unacked frames after reconnect attempts",
                ));
            }
            attempts_left -= 1;
            self.reconnect()?;
        }
    }

    /// Clean close: waits for every buffered frame to be acked
    /// (reconnecting if needed), sends GOAWAY (so the daemon flushes
    /// instead of parking the session), then returns the full
    /// transcript.
    pub fn finish(mut self) -> Vec<String> {
        let _ = self.drain();
        let _ = self.conn.send_raw(&encode_frame(&Frame::goaway()));
        self.conn.finish()
    }

    /// Writes the frame, buffers it, trims acked/overflowed entries,
    /// and falls back to the reconnect path when the socket is dead.
    fn ship(&mut self, stream_id: u32, seq: u32, bytes: Vec<u8>) -> io::Result<()> {
        self.prune_acked();
        let written = self.conn.send_raw(&bytes);
        self.buffer.push_back(BufferedFrame {
            stream_id,
            seq,
            bytes,
        });
        while self.buffer.len() > self.cfg.resend_frames.max(1) {
            self.buffer.pop_front();
            self.stats.resend_evicted += 1;
        }
        // Dead socket: the reconnect path resends the whole unacked
        // buffer (this frame included) after RESUME.
        written.or_else(|_| self.reconnect())
    }

    /// Drops buffered frames the daemon has acked (per-stream cursor,
    /// u32-wraparound aware); returns the ack cursors it pruned by.
    fn prune_acked(&mut self) -> BTreeMap<u32, u32> {
        let acks = self.conn.link.lock_state().acks.clone();
        self.buffer.retain(|f| match acks.get(&f.stream_id) {
            // Keep the frame only while it is ahead of the acked seq.
            Some(&acked) => f.seq.wrapping_sub(acked) < 1 << 31 && f.seq != acked,
            None => true,
        });
        acks
    }

    /// Reconnect loop: backoff, dial a new connection on the same link
    /// and seq cursors, RESUME the session, resend every buffered frame
    /// at/ahead of the daemon's per-stream cursors.
    fn reconnect(&mut self) -> io::Result<()> {
        'attempts: for attempt in 0..self.cfg.max_reconnects.max(1) {
            // Hang up first: the old reader's lines all land in the
            // transcript before the new connection starts appending,
            // and the daemon sees the EOF that parks the session.
            self.conn.hang_up();
            thread::sleep(backoff_delay(&self.cfg, &mut self.rng, attempt));
            let link = Arc::clone(&self.conn.link);
            let next_seq = self.conn.next_seq.clone();
            let Ok(conn) = GatewayClient::dial(self.addr, self.cfg.connect_timeout, link, next_seq)
            else {
                continue;
            };
            self.conn = conn;
            let (goaways_before, delivered) = {
                let mut st = self.conn.link.lock_state();
                st.resume_cursors = None;
                (st.goaways, st.session_lines)
            };
            let resume = Frame::resume(self.token, delivered as u32);
            if self.conn.send_raw(&encode_frame(&resume)).is_err() {
                continue;
            }
            let link = &self.conn.link;
            let answered = link.wait_until(self.cfg.reply_timeout, |st| {
                st.resume_cursors.is_some() || st.goaways > goaways_before
            });
            if !answered {
                continue;
            }
            let Some(cursors) = link.lock_state().resume_cursors.take() else {
                // goaway "unknown-session". Either the grace window
                // expired (the daemon dropped our state for good) or —
                // right after a disconnect — the old connection's
                // decoder is still draining its queue and has not
                // parked the session yet. The latter heals on its own,
                // so retry with backoff and only give up when the
                // attempts run out.
                continue;
            };
            // Resend the unacked tail: everything the daemon's cursors
            // say it has not consumed yet. Streams the daemon never saw
            // are resent in full.
            let mut resent = 0u64;
            for f in &self.buffer {
                let needed = match cursors.get(&f.stream_id) {
                    Some(&next) => f.seq.wrapping_sub(next) < 1 << 31,
                    None => true,
                };
                if !needed {
                    continue;
                }
                if self.conn.send_raw(&f.bytes).is_err() {
                    continue 'attempts;
                }
                resent += 1;
            }
            self.stats.reconnects += 1;
            self.stats.retransmitted_frames += resent;
            return Ok(());
        }
        Err(io::Error::new(
            io::ErrorKind::ConnectionAborted,
            "gateway unreachable after reconnect attempts",
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_schedule_is_deterministic_per_seed() {
        let cfg = ResilientConfig::default();
        // Ten attempts: the envelope crosses `max_delay` from the sixth.
        let schedule = |mut rng: u64| -> Vec<Duration> {
            (0..10)
                .map(|attempt| backoff_delay(&cfg, &mut rng, attempt))
                .collect()
        };
        assert_eq!(schedule(42), schedule(42), "same seed, same schedule");
        assert_ne!(
            schedule(42),
            schedule(43),
            "different seed, different jitter"
        );
        // The exponential envelope grows, then holds at the cap (plus
        // at most one `base` of jitter).
        let d = schedule(7);
        let base = cfg.base_delay;
        assert!(d[4] >= base * 16, "{d:?}");
        assert!(d[9] >= cfg.max_delay, "{d:?}");
        assert!(d.iter().all(|&x| x < cfg.max_delay + base), "{d:?}");
    }
}
