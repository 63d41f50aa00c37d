//! # tlscope-notary
//!
//! The passive TLS monitoring pipeline — the reproduction's analogue of
//! the ICSI SSL Notary (§3.1 of *Coming of Age*, IMC 2018). It consumes
//! raw tapped flows (bytes only), extracts per-connection records with
//! the tolerant wire parsers, and aggregates them into the monthly
//! counters behind every figure of the paper. The per-flow fold
//! ([`ingest_borrowed`]) is what the month-sharded study runner in
//! `tlscope-analysis` drives on its worker threads, each folding
//! through the one [`ExtractScratch`] (record slot and parse cache) it
//! owns, with per-stage accounting in [`PipelineMetrics`]. Completed months persist through
//! [`checkpoint`], the lossless month codec of the checkpoint store in
//! `tlscope-durable`; a complete store is the saved run.
//!
//! ```
//! use tlscope_notary::{ingest_borrowed, ExtractScratch, NotaryAggregate};
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
//! let client: Vec<u8> =
//!     Record::wrap_handshake(ProtocolVersion::Tls10, &hello.to_handshake_bytes())
//!         .iter()
//!         .flat_map(|r| r.to_bytes())
//!         .collect();
//! let (mut agg, mut scratch) = (NotaryAggregate::new(), ExtractScratch::new());
//! for _ in 0..2 {
//!     ingest_borrowed(&mut agg, &mut scratch, Date::ymd(2016, 5, 1), 443, &client, None);
//! }
//! assert_eq!(agg.total(), 2);
//! // The second flow's hello came from the scratch's parse cache.
//! assert_eq!(scratch.parse_cache_stats().hits, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod checkpoint;
pub mod conn;
pub mod metrics;
pub mod pipeline;

pub use aggregate::{
    AeadCounts, FpClassFlags, KxCounts, MonthlyStats, NotaryAggregate, OfferFold, PositionMean,
    VersionCounts,
};
pub use checkpoint::DirLoad;
pub use conn::{
    parse_cache_set_capacity, ClientOffer, ConnectionRecord, ExtractError, ExtractScratch,
    ParseCacheStats, ServerAnswer, ServerOutcome,
};
pub use metrics::{MetricsSnapshot, PipelineLatency, PipelineMetrics};
pub use pipeline::ingest_borrowed;
