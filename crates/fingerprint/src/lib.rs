//! # tlscope-fingerprint
//!
//! TLS client fingerprinting, reproducing §4 of *Coming of Age* (IMC
//! 2018): the 4-feature order-preserving fingerprint, the labelled
//! fingerprint database with the paper's collision rules (Table 2), and
//! fingerprint-lifetime statistics (§4.1).
//!
//! ```
//! use tlscope_fingerprint::{Fingerprint, FingerprintDb, Label, Category};
//! use tlscope_wire::{ClientHello, CipherSuite, ProtocolVersion};
//!
//! let hello = ClientHello {
//!     legacy_version: ProtocolVersion::Tls12,
//!     random: [0; 32],
//!     session_id: vec![],
//!     cipher_suites: vec![CipherSuite(0xc02b), CipherSuite(0xc02f)],
//!     compression_methods: vec![0],
//!     extensions: Some(vec![]),
//! };
//! let fp = Fingerprint::from_client_hello(&hello);
//!
//! let mut db = FingerprintDb::new();
//! db.insert(fp.clone(), Label::new("ExampleBrowser", Category::Browser, "1.0"));
//! assert_eq!(db.lookup(&fp).unwrap().name, "ExampleBrowser");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod db;
pub mod duration;
pub mod fp;
pub mod intern;

pub use db::{Category, CoverageStats, FingerprintDb, InsertOutcome, Label};
pub use duration::{DurationStats, Sighting, SightingTracker};
pub use fp::Fingerprint;
pub use intern::{FpId, FpInterner};
