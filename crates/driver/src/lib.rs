#![warn(missing_docs)]

//! # snb-driver
//!
//! The test driver (spec §3.4 and chapter 6): workload scheduling,
//! execution, results logging and audit checks.
//!
//! * [`schedule`] — the query-mix construction: update-stream times,
//!   per-SF complex-read frequencies (Table B.1), time compression;
//! * [`interactive`] — the Interactive run loop (updates + complex
//!   reads + chained short-read sequences) with full-speed and timed
//!   pacing;
//! * [`bi`] — BI power test, multi-threaded throughput test and
//!   validation mode (optimized vs naive engines);
//! * [`log`] — results log with the §6.2 audit rule (95% of operations
//!   start within 1 s of schedule).

pub mod bi;
pub mod disclosure;
pub mod interactive;
pub mod log;
pub mod schedule;

pub use bi::{
    power_test, power_test_ctx, throughput_test, validate_all, Engine, QueryStats,
    ThroughputReport, ALL_BI_QUERIES,
};
pub use interactive::{run_interactive, InteractiveConfig, InteractiveReport, Pacing};
pub use log::{LogRecord, ResultsLog};
