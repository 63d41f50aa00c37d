//! # tlscope-servers
//!
//! The simulated server side of the Internet for the tlscope
//! reproduction of *Coming of Age* (IMC 2018): per-endpoint
//! [`ServerProfile`]s, a standards-faithful (and faithfully
//! out-of-spec, where the paper observed it) negotiation engine, and a
//! population model whose configuration mix evolves 2012–2018 along the
//! patch curves the paper measures.
//!
//! ```
//! use tlscope_servers::negotiate;
//! use tlscope_wire::{ClientHello, CipherSuite, ProtocolVersion, Extension};
//!
//! let profile = tlscope_servers::ServerProfile::baseline("demo");
//! let hello = ClientHello {
//!     legacy_version: ProtocolVersion::Tls12,
//!     random: [0; 32],
//!     session_id: vec![],
//!     cipher_suites: vec![CipherSuite(0xc02f), CipherSuite(0x000a)],
//!     compression_methods: vec![0],
//!     extensions: Some(vec![Extension::renegotiation_info()]),
//! };
//! let outcome = negotiate::respond(&profile, &hello, [0; 32]).unwrap();
//! assert!(outcome.cipher.is_aead());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cohorts;
pub mod negotiate;
pub mod population;
pub mod profile;
pub mod ramps;

pub use cohorts::{params, Cohort, CohortParams, ParamsCache};
pub use negotiate::{
    decide, respond, respond_facts, write_decision_into, ClientFacts, Decision, HandshakeFailure,
    Negotiated,
};
pub use population::{Destination, ServerPopulation};
pub use profile::{preference, NegotiationKey, Quirk, ServerProfile};
