//! The TnB LoRa collision decoder (the paper's contribution).
//!
//! Pipeline (paper Fig. 3): packet detection → per-packet signal-vector
//! calculation → **Thrive** peak assignment → **BEC** block error
//! correction, composed into [`TnbReceiver`].

pub mod bec;
pub mod detect;
pub mod packet;
pub mod parallel;
mod pool;
pub mod receiver;
pub mod sic;
pub mod sigcalc;
pub mod streaming;
pub mod sync;
pub mod thrive;
pub mod wideband;

/// Pipeline observability (counters, gauges, histograms), re-exported so
/// downstream crates reach it without a manifest dependency of their own.
pub use tnb_metrics as metrics;

pub use detect::{Detector, DetectorConfig};
pub use packet::{same_transmission, DecodedPacket, DetectedPacket};
pub use parallel::ParallelReceiver;
/// The ordered work pool behind [`TnbReceiver`], public so tnb-deploy
/// fans its shard tasks over the same helper.
pub use pool::Pool;
pub use receiver::{DecodeOutcome, DecodeReport, DegradeReason, TnbConfig, TnbReceiver};
pub use sic::SicConfig;
pub use streaming::{StreamingConfig, StreamingReceiver};
pub use tnb_metrics::{MetricsSnapshot, PipelineMetrics, Stage, StageCounters};
pub use wideband::{ChannelPacket, WidebandConfig, WidebandReceiver};
