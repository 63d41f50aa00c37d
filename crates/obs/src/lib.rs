//! # tlscope-obs
//!
//! Observability primitives for the measurement pipelines. The paper's
//! Notary and Censys campaigns (319.3 B connections, ~142 weekly
//! sweeps) were only operable because per-stage health was
//! continuously observable; the reproduction's counter bags
//! (`PipelineMetrics`, `ScanMetrics`) ride on the five modules of
//! this crate:
//!
//! * [`ledger`](mod@ledger) — the [`ledger!`] macro that declares
//!   each aperture's counters, latency histograms and balances in one
//!   table, and emits the bag, its snapshots, their JSON sections
//!   (`counts`, `clocks`, `scheduling`) and `accounting_holds`;
//! * [`hist`] — lock-free, mergeable log2-bucketed latency
//!   [`Histogram`]s (atomic buckets, p50/p90/p99/max
//!   readout) for per-batch, per-sweep, per-month, and checkpoint
//!   timing distributions;
//! * [`json`] — a hand-rolled JSON writer and parser (no serde; the
//!   build is fully offline) behind the schema-versioned
//!   `--stats-json` / `--scan-stats-json` exports;
//! * [`progress`] — the opt-in live heartbeat
//!   ([`Progress`], env `TLSCOPE_PROGRESS`)
//!   printing completed units, item rates, and ETA to stderr while a
//!   long campaign runs;
//! * [`flight`] — the panic flight recorder: a bounded per-worker ring
//!   of recent structured events, dumped into a process-wide black box
//!   by the pipelines' `catch_unwind` boundaries so poison flows and
//!   poison hosts are diagnosable postmortem.
//!
//! Everything here is observational: nothing in this crate
//! participates in aggregate equality or the bit-identity properties
//! of the pipelines it instruments, and everything is dependency-free.
//! The histograms, the heartbeat and the flight recorder are lock-free
//! (or thread-local) on their hot paths; a ledger bag takes one lock
//! per committed unit of work, never per flow or host.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flight;
pub mod hist;
pub mod json;
pub mod ledger;
pub mod progress;

pub use flight::FlightEvent;
pub use hist::{fmt_nanos, Histogram, HistogramSnapshot, BUCKETS};
pub use json::{Json, JsonArr, JsonError, JsonObj};
pub use progress::Progress;
