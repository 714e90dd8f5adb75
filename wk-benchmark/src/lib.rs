//! # wk-benchmark — the repository benchmark
//!
//! Measures the system from outside: it builds a seed-driven corpus of
//! 1,024-bit RSA moduli with known primes ([`corpus`]), runs one of four
//! closed-loop workloads over the layers' public functions
//! ([`workloads`]), checks every answer against ground truth, and prints
//! each metric by name with its unit. A traced run adds spans around the
//! calls into each layer and a per-layer ladder ([`layers`], [`trace`]);
//! [`compare`] runs two builds of the benchmark against each other on one
//! machine. See `README.md` for the workloads, metrics and how to read them.

#![forbid(unsafe_code)]

pub mod compare;
pub mod corpus;
pub mod json;
pub mod layers;
pub mod meta;
pub mod stats;
pub mod trace;
pub mod workloads;

use layers::Metric;
use stats::{median, percentile};
use workloads::Measured;

/// The default seed. Seed 2016 is held back for confirming a claim.
pub const DEFAULT_SEED: u64 = 1601;
/// Default measured seconds per run.
pub const DEFAULT_SECONDS: f64 = 20.0;

/// An end-to-end metric: what a user of the system sees.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression. Every metric is better lower.
    pub bound: f64,
}

/// The end-to-end metrics every untraced run prints, with their bounds
/// (mirrored in `BENCHMARK.json`).
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "op_ms_p50",
        unit: "ms",
        bound: 0.24,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        bound: 0.15,
    },
];

/// Printed beside the end-to-end metrics but not gated: the tail and the
/// sample counts. On a shared machine the tail's run-to-run spread is wider
/// than any bound a gate could use (see the README).
pub const REPORTED: [(&str, &str); 3] =
    [("op_ms_p75", "ms"), ("ops", "count"), ("setups", "count")];

/// Derives the end-to-end metrics from a workload's measurements. A metric
/// that cannot be computed (no samples) is left out.
pub fn end_to_end(measured: &Measured, peak_rss_mib: Option<f64>) -> Vec<Metric> {
    let values = [
        median(&measured.setup_s),
        median(&measured.op_ms),
        peak_rss_mib,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .filter_map(|(m, v)| {
            v.map(|value| Metric {
                name: m.name,
                value,
                unit: m.unit,
            })
        })
        .collect()
}

/// The [`REPORTED`] values of a workload's measurements.
pub fn reported(measured: &Measured) -> Vec<Metric> {
    let values = [
        percentile(&measured.op_ms, 75.0),
        Some(measured.op_ms.len() as f64),
        Some(measured.setup_s.len() as f64),
    ];
    REPORTED
        .iter()
        .zip(values)
        .filter_map(|(&(name, unit), v)| v.map(|value| Metric { name, value, unit }))
        .collect()
}
