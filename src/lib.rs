//! TnB — a Rust reproduction of *"TnB: Resolving Collisions in LoRa based on
//! the Peak Matching Cost and Block Error Correction"* (CoNEXT 2022).
//!
//! This facade crate re-exports the whole workspace so applications can
//! depend on a single crate:
//!
//! - [`dsp`]: FFT, peak finding, smoothing, statistics.
//! - [`phy`]: the complete LoRa PHY (chirp modulation, Gray mapping,
//!   diagonal interleaver, (8,4) Hamming code, whitening, header, CRC) with
//!   a full transmitter and a standard single-packet receiver.
//! - [`channel`]: AWGN / CFO / timing impairments, Rayleigh and ETU fading,
//!   and the multi-packet trace synthesizer.
//! - [`core`]: the paper's contribution — packet detection and
//!   synchronization, **Thrive** peak assignment and **BEC** block error
//!   correction, composed into the TnB receiver ([`core::TnbReceiver`]:
//!   `decode` for one antenna, `decode_observed` for several antennas
//!   with a report and metrics, `with_workers` for multi-threaded
//!   decoding with identical output).
//! - [`baselines`]: the compared schemes (standard LoRa decoder, CIC,
//!   AlignTrack*) behind a common trait.
//! - [`sim`]: deployments, traffic generation and metrics used by the
//!   experiment harness.
//! - [`gateway`]: the networked gateway daemon — framed IQ over TCP into
//!   per-stream streaming receivers, decoded packets out as JSON lines.
//!
//! # Quick start
//!
//! ```
//! use tnb::phy::{LoRaParams, SpreadingFactor, CodingRate, Transmitter};
//! use tnb::core::TnbReceiver;
//! use tnb::channel::TraceBuilder;
//!
//! let params = LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR4);
//! let payload = b"hello collisions";
//! let tx = Transmitter::new(params);
//! let samples = tx.transmit(payload);
//!
//! // One packet at 10 dB SNR over an AWGN channel:
//! let mut trace = TraceBuilder::new(params, 12345);
//! trace.add_packet_samples(&samples, 1000, 0.0, 10.0);
//! let rx = TnbReceiver::new(params);
//! let decoded = rx.decode(trace.build().samples());
//! assert_eq!(decoded.len(), 1);
//! assert_eq!(decoded[0].payload, payload);
//! ```

pub use tnb_baselines as baselines;
pub use tnb_channel as channel;
pub use tnb_core as core;
pub use tnb_dsp as dsp;
pub use tnb_gateway as gateway;
pub use tnb_phy as phy;
pub use tnb_sim as sim;
