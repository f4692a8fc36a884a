//! Gateway service counters.
//!
//! These live on the *control plane*: they are bumped concurrently by
//! socket readers and per-connection decoders whose interleaving is
//! inherently nondeterministic, so they use the `Sync`
//! [`tnb_metrics::SharedCounter`] rather than the per-worker `Cell`
//! counters of the decode path — and they never feed anything compared
//! for byte-identity.

use tnb_metrics::{json, SharedCounter};

/// Live counters of one daemon instance (shared across every
/// connection's threads via `Arc`).
#[derive(Debug, Default)]
pub struct GatewayStats {
    /// Connections accepted by the listener.
    pub connections_accepted: SharedCounter,
    /// Connections fully torn down (reader and decoder joined).
    pub connections_closed: SharedCounter,
    /// Frames parsed successfully (data + control).
    pub frames_in: SharedCounter,
    /// DATA frames parsed.
    pub chunks_in: SharedCounter,
    /// Complex samples received in DATA frames.
    pub samples_in: SharedCounter,
    /// DATA chunks evicted by the drop-oldest backpressure policy
    /// (ingest queue full: the decoder is slower than the socket).
    pub chunks_dropped: SharedCounter,
    /// DATA frames whose `seq` skipped ahead of the previous chunk of
    /// the same stream (sender-side loss or reordering).
    pub seq_gaps: SharedCounter,
    /// DATA frames whose `seq` was at or behind the stream's cursor
    /// (duplicate or stale retransmission); dropped without decoding so
    /// a replayed chunk cannot be decoded twice.
    pub seq_dups: SharedCounter,
    /// Malformed frames (any [`crate::wire::WireError`]); each closes
    /// its connection, the daemon keeps serving the others.
    pub protocol_errors: SharedCounter,
    /// Decoded packets uplinked as JSON lines.
    pub packets_uplinked: SharedCounter,
    /// Stream decodes that panicked and were contained (receiver
    /// replaced, connection kept alive).
    pub worker_panics: SharedCounter,
    /// Connections disconnected because no frame arrived within the
    /// configured idle deadline (dead peer; session parked if resumable).
    pub idle_disconnects: SharedCounter,
    /// Connections disconnected because an uplink write blocked past the
    /// configured write deadline (slow consumer; session parked if
    /// resumable).
    pub write_timeouts: SharedCounter,
    /// Connections rejected with BUSY by admission control (`max_conns`
    /// reached).
    pub busy_rejects: SharedCounter,
    /// DATA frames shed at ingest: the incoming frame itself was dropped
    /// because its stream was over its per-stream queue quota, or a
    /// buffered chunk was evicted by the fair-share policy.
    pub shed_frames: SharedCounter,
    /// DATA frames re-sent by a resumed client that the per-stream seq
    /// cursor had already delivered to the decoder; dropped without
    /// decoding, so a resend is never uplinked twice.
    pub retransmitted_frames: SharedCounter,
    /// Sessions parked in the resume table after an unexpected
    /// disconnect (EOF/error/idle/write-timeout with a HELLO'd session).
    pub sessions_parked: SharedCounter,
    /// Parked sessions successfully re-attached by a RESUME verb.
    pub sessions_resumed: SharedCounter,
    /// Parked sessions dropped because no RESUME arrived within the
    /// grace window.
    pub sessions_expired: SharedCounter,
    /// PING frames answered with a pong line.
    pub pings_answered: SharedCounter,
    /// Socket-option configuration calls (read/write deadlines) that
    /// failed; the connection proceeds without the deadline, visibly.
    pub sock_config_errors: SharedCounter,
}

impl GatewayStats {
    /// Plain-data snapshot of every counter.
    pub fn snapshot(&self) -> GatewayStatsSnapshot {
        GatewayStatsSnapshot {
            connections_accepted: self.connections_accepted.get(),
            connections_closed: self.connections_closed.get(),
            frames_in: self.frames_in.get(),
            chunks_in: self.chunks_in.get(),
            samples_in: self.samples_in.get(),
            chunks_dropped: self.chunks_dropped.get(),
            seq_gaps: self.seq_gaps.get(),
            seq_dups: self.seq_dups.get(),
            protocol_errors: self.protocol_errors.get(),
            packets_uplinked: self.packets_uplinked.get(),
            worker_panics: self.worker_panics.get(),
            idle_disconnects: self.idle_disconnects.get(),
            write_timeouts: self.write_timeouts.get(),
            busy_rejects: self.busy_rejects.get(),
            shed_frames: self.shed_frames.get(),
            retransmitted_frames: self.retransmitted_frames.get(),
            sessions_parked: self.sessions_parked.get(),
            sessions_resumed: self.sessions_resumed.get(),
            sessions_expired: self.sessions_expired.get(),
            pings_answered: self.pings_answered.get(),
            sock_config_errors: self.sock_config_errors.get(),
        }
    }
}

/// Plain-data snapshot of [`GatewayStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GatewayStatsSnapshot {
    pub connections_accepted: u64,
    pub connections_closed: u64,
    pub frames_in: u64,
    pub chunks_in: u64,
    pub samples_in: u64,
    pub chunks_dropped: u64,
    pub seq_gaps: u64,
    pub seq_dups: u64,
    pub protocol_errors: u64,
    pub packets_uplinked: u64,
    pub worker_panics: u64,
    pub idle_disconnects: u64,
    pub write_timeouts: u64,
    pub busy_rejects: u64,
    pub shed_frames: u64,
    pub retransmitted_frames: u64,
    pub sessions_parked: u64,
    pub sessions_resumed: u64,
    pub sessions_expired: u64,
    pub pings_answered: u64,
    pub sock_config_errors: u64,
}

impl GatewayStatsSnapshot {
    /// Every counter as a `(name, value)` pair, in the stable JSON key
    /// order.
    pub fn fields(&self) -> [(&'static str, u64); 21] {
        [
            ("connections_accepted", self.connections_accepted),
            ("connections_closed", self.connections_closed),
            ("frames_in", self.frames_in),
            ("chunks_in", self.chunks_in),
            ("samples_in", self.samples_in),
            ("chunks_dropped", self.chunks_dropped),
            ("seq_gaps", self.seq_gaps),
            ("seq_dups", self.seq_dups),
            ("protocol_errors", self.protocol_errors),
            ("packets_uplinked", self.packets_uplinked),
            ("worker_panics", self.worker_panics),
            ("idle_disconnects", self.idle_disconnects),
            ("write_timeouts", self.write_timeouts),
            ("busy_rejects", self.busy_rejects),
            ("shed_frames", self.shed_frames),
            ("retransmitted_frames", self.retransmitted_frames),
            ("sessions_parked", self.sessions_parked),
            ("sessions_resumed", self.sessions_resumed),
            ("sessions_expired", self.sessions_expired),
            ("pings_answered", self.pings_answered),
            ("sock_config_errors", self.sock_config_errors),
        ]
    }

    /// Compact JSON object with one key per counter.
    pub fn to_json(&self) -> String {
        self.fields()
            .iter()
            .fold(json::object(), |o, &(name, value)| o.val(name, value))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_json_cover_every_counter() {
        let stats = GatewayStats::default();
        stats.frames_in.add(3);
        stats.chunks_dropped.inc();
        let snap = stats.snapshot();
        assert_eq!(snap.frames_in, 3);
        assert_eq!(snap.chunks_dropped, 1);
        let json = snap.to_json();
        for (key, _) in snap.fields() {
            assert!(json.contains(&format!("\"{key}\":")), "{json}");
        }
        assert!(json.contains("\"frames_in\":3"), "{json}");
        // The resilience counters ride along in the same object.
        stats.sessions_resumed.inc();
        stats.shed_frames.add(2);
        let json = stats.snapshot().to_json();
        assert!(json.contains("\"sessions_resumed\":1"), "{json}");
        assert!(json.contains("\"shed_frames\":2"), "{json}");
        assert!(json.contains("\"busy_rejects\":0"), "{json}");
    }
}
