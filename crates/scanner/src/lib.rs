//! # tlscope-scanner
//!
//! Active scanning harness — the reproduction's analogue of the Censys /
//! ZMap / ZGrab pipeline (§3.2 of *Coming of Age*, IMC 2018): byte-level
//! scan probes (a 2015-Chrome-equivalent hello, whose answer also gives
//! Heartbeat support and the Heartbleed check, an SSL3-only hello, an
//! export-suite hello), host sweeps over the simulated IPv4 population,
//! and the weekly scan schedule covering 2015-08-22 … 2018-05-13.
//!
//! ```
//! use tlscope_chron::Date;
//! use tlscope_scanner::{sweep_sharded_with, ScanFaults, ScanMetrics};
//! use tlscope_servers::ServerPopulation;
//!
//! let pop = ServerPopulation::new();
//! let metrics = ScanMetrics::new();
//! let date = Date::ymd(2016, 6, 1);
//! let snap = sweep_sharded_with(&pop, date, 500, 42, 1, &metrics, &ScanFaults::none());
//! assert_eq!(snap.hosts, 500);
//! assert!(snap.pct(snap.answered) > 80.0);
//! assert!(metrics.snapshot().accounting_holds());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod faults;
pub mod metrics;
pub mod probe;
pub mod schedule;
pub mod sweep;

pub use checkpoint::{DateCheckpoint, ScanDirLoad};
pub use faults::{ScanFaults, DEAD_HOST_SPAN_DAYS, MAX_PROBE_ATTEMPTS};
pub use metrics::{ScanLatency, ScanMetrics, ScanMetricsSnapshot};
pub use probe::{DecisionMemo, Outcome, PreparedProbe, ProbeSet};
pub use schedule::{schedule, ScanCampaign, CENSYS_END, CENSYS_START};
pub use sweep::{
    probe_host, probe_host_with, probe_site_with, pulse_site, pulse_surveys, sweep_host,
    sweep_sharded_with, PulseSnapshot, ScanSnapshot,
};
