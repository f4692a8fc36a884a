//! tnb-gateway: a networked gateway daemon serving the TnB streaming
//! decoder over a framed IQ wire protocol.
//!
//! This crate turns the library pipeline into a deployable service, the
//! shape the paper's testbed uses (USRP frontends feeding a gateway
//! that forwards decoded LoRa frames upstream):
//!
//! - [`wire`] — the versioned, CRC-checked binary framing for IQ chunks
//!   (interleaved i16 IQ at 1 Msps) plus control verbs.
//! - [`server`] — the `std::net` TCP daemon: one reader + one decoder
//!   thread per connection, per-stream [`tnb_core::StreamingReceiver`]s,
//!   bounded drop-oldest ingest queues, and `catch_unwind` fault
//!   containment.
//! - [`uplink`] — the daemon's JSON-lines output format in both
//!   directions: the writer of every line kind (Semtech
//!   `PUSH_DATA`-style `rxpk` objects for decoded packets, timestamps
//!   from the sample clock — never the wall clock), the reader
//!   ([`uplink::Line`], [`uplink::Uplink`]), and the session/link split
//!   the resume protocol relies on.
//! - [`client`] — the loopback client used by `tnb-sim`'s load
//!   generator, the CLI, and the integration tests, plus the
//!   resilient variant ([`client::ResilientClient`]) with
//!   HELLO/RESUME sessions, seeded-backoff reconnect, and a bounded
//!   resend-from-last-acked buffer.
//! - [`stats`] — `Sync` control-plane counters ([`tnb_metrics::SharedCounter`])
//!   exposed through the STATS verb.
//! - [`netfaults`] — the deterministic network-chaos harness: a seeded
//!   [`netfaults::NetFaultPlan`] of socket-layer injectors (partial
//!   writes, split/coalesced reads, stall, disconnect-mid-frame, bit
//!   flip) applied by an in-process [`netfaults::ChaosProxy`], the
//!   transport-level mirror of the decode pipeline's `FaultPlan`.
//!
//! Everything is dependency-free (`std::net` only), and the whole
//! uplink path is deterministic: streaming the same trace yields
//! byte-identical JSON lines on every run and every worker count.

pub mod client;
pub mod netfaults;
pub mod server;
pub mod stats;
pub mod uplink;
pub mod wire;

pub use client::{GatewayClient, ResilientClient, ResilientConfig, ResilientStats};
pub use netfaults::{ChaosProxy, NetFault, NetFaultPlan};
pub use server::{Gateway, GatewayConfig};
pub use stats::{GatewayStats, GatewayStatsSnapshot};
pub use wire::{Frame, FrameKind, FrameReader, WireError};
