//! # tlscope-notary
//!
//! The passive TLS monitoring pipeline — the reproduction's analogue of
//! the ICSI SSL Notary (§3.1 of *Coming of Age*, IMC 2018). It consumes
//! raw tapped flows (bytes only), extracts per-connection records with
//! the tolerant wire parsers, and aggregates them into the monthly
//! counters behind every figure of the paper. The per-flow fold
//! ([`ingest_borrowed`]) is what the month-sharded study runner in
//! `tlscope-analysis` drives on its worker threads, with per-stage
//! accounting in [`PipelineMetrics`].
//!
//! ```
//! use tlscope_notary::{ingest_serial, TappedFlow};
//! use tlscope_chron::Date;
//! use tlscope_wire::record::Record;
//! use tlscope_wire::{ClientHello, CipherSuite, ProtocolVersion};
//!
//! let hello = ClientHello {
//!     legacy_version: ProtocolVersion::Tls12,
//!     random: [0; 32],
//!     session_id: vec![],
//!     cipher_suites: vec![CipherSuite(0xc02f)],
//!     compression_methods: vec![0],
//!     extensions: None,
//! };
//! let flow = TappedFlow {
//!     date: Date::ymd(2016, 5, 1),
//!     port: 443,
//!     client: Record::wrap_handshake(ProtocolVersion::Tls10, &hello.to_handshake_bytes())
//!         .iter().flat_map(|r| r.to_bytes()).collect(),
//!     server: None,
//! };
//! let agg = ingest_serial([flow]);
//! assert_eq!(agg.total(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod checkpoint;
pub mod conn;
pub mod metrics;
pub mod pipeline;
pub mod store;

pub use aggregate::{
    AeadCounts, FpClassFlags, KxCounts, MonthlyStats, NotaryAggregate, PositionMean, VersionCounts,
};
pub use checkpoint::{CheckpointError, DirLoad};
pub use conn::{
    flush_parse_cache_metrics, parse_cache_set_capacity, parse_cache_stats, ClientOffer,
    ConnectionRecord, ExtractError, ExtractScratch, ParseCacheStats, ServerAnswer, ServerOutcome,
};
pub use metrics::{MetricsSnapshot, PipelineLatency, PipelineMetrics};
pub use pipeline::{ingest_borrowed, ingest_flow, ingest_serial, TappedFlow};
pub use store::{from_text, to_text, StoreError};
