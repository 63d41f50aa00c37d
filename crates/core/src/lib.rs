//! # tlscope
//!
//! A TLS ecosystem measurement framework: a full, from-scratch
//! reproduction of **“Coming of Age: A Longitudinal Study of TLS
//! Deployment”** (Kotzias et al., IMC 2018) as a Rust workspace.
//!
//! The paper measured six years of real TLS traffic (the ICSI SSL
//! Notary) and three years of IPv4-wide scans (Censys). This framework
//! rebuilds every layer of that measurement stack:
//!
//! * [`wire`] — TLS/SSL wire formats, tolerant handshake parsers, and
//!   the IANA registries with security classifiers;
//! * [`fingerprint`] — the paper's 4-feature client fingerprint, the
//!   labelled database with its collision rules, and lifetime
//!   statistics;
//! * [`clients`] — the historical client-configuration catalog
//!   (Tables 3–6 as executable data) and adoption model;
//! * [`servers`] — the negotiation engine and the evolving server
//!   population, calibrated to the paper's Censys anchors;
//! * [`traffic`] — the synthetic Internet standing in for the Notary's
//!   319.3 B connections (see DESIGN.md for the substitution argument);
//! * [`notary`] — the passive measurement pipeline (bytes in, monthly
//!   statistics out);
//! * [`scanner`] — the active scan harness with the paper's probe set
//!   and schedule;
//! * [`analysis`] — figure/table/section generators and attack-impact
//!   estimation;
//! * [`durable`] — the checkpoint store both apertures persist through:
//!   sealed unit files, quarantine on load, and study stamps;
//! * [`obs`] — dependency-free observability: latency histograms,
//!   hand-rolled JSON, progress heartbeats, and a panic flight
//!   recorder.
//!
//! ## Quick start
//!
//! ```no_run
//! use tlscope::prelude::*;
//!
//! // A reduced-scale end-to-end study run.
//! let study = Study::new(StudyConfig::quick());
//! let passive = study.run_passive();
//! let scans = study.run_active();
//!
//! // Reproduce Figure 2 (negotiated RC4/CBC/AEAD) and Table 2.
//! println!("{}", tlscope::analysis::figures::fig2(&passive).to_ascii(80));
//! println!("{}", tlscope::analysis::tables::table2(&passive).to_ascii());
//! let _ = scans;
//! ```
//!
//! The `repro` binary regenerates any figure/table from the paper:
//! `cargo run --release -p tlscope --bin repro -- fig2 table2 s6.4`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use tlscope_analysis as analysis;
pub use tlscope_chron as chron;
pub use tlscope_clients as clients;
pub use tlscope_durable as durable;
pub use tlscope_fingerprint as fingerprint;
pub use tlscope_notary as notary;
pub use tlscope_obs as obs;
pub use tlscope_scanner as scanner;
pub use tlscope_servers as servers;
pub use tlscope_traffic as traffic;
pub use tlscope_wire as wire;

pub mod report;

/// The most common imports in one place.
pub mod prelude {
    pub use crate::analysis::{Figure, Series, Study, StudyConfig, Table};
    pub use crate::chron::{Date, Month};
    pub use crate::fingerprint::{Fingerprint, FingerprintDb};
    pub use crate::notary::NotaryAggregate;
    pub use crate::scanner::ScanSnapshot;
    pub use crate::wire::{CipherSuite, ClientHello, ProtocolVersion, ServerHello};
}
