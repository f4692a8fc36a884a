//! Experiment harness reproducing the paper's evaluation (§8).
//!
//! Provides the three testbed deployments (SNR distributions calibrated to
//! Fig. 10), random traffic generation at the paper's offered loads, a
//! runner that synthesizes a trace and feeds it to every scheme, and the
//! metrics the figures report (throughput, PRR, medium usage, collision
//! level, BEC-rescued codewords).

pub mod deployment;
pub mod gateway;
pub mod metrics;
pub mod runner;
pub mod traffic;

pub use deployment::Deployment;
pub use runner::{
    apply_faults, build_experiment, run_scheme, run_scheme_limited, run_scheme_observed,
    run_scheme_with_workers, BuiltExperiment, ExperimentConfig, ExperimentResult,
};
