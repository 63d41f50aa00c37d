//! # tlscope-wire
//!
//! TLS/SSL wire formats and IANA registries for the tlscope measurement
//! framework — the substrate under the reproduction of *Coming of Age:
//! A Longitudinal Study of TLS Deployment* (IMC 2018).
//!
//! What lives here:
//!
//! * **Record layer** ([`record`]): TLSPlaintext framing, fragmentation,
//!   the incompatible SSLv2 record format, and flavour sniffing.
//! * **Handshake messages** ([`handshake`]): ClientHello / ServerHello
//!   parsing and serialisation, tolerant of unknown versions, suites,
//!   and extensions — exactly what a passive monitor needs.
//! * **Registries**: cipher suites with security properties
//!   ([`suites`], [`suites_table`]), named groups ([`groups`]),
//!   extension types ([`exts`]), protocol versions incl. TLS 1.3 drafts
//!   ([`version`]).
//! * **GREASE** handling ([`grease`]).
//! * **Hashing** ([`fxhash`]): the fixed multiply hasher behind the
//!   per-flow maps of the traffic, fingerprint and notary crates, and
//!   the SplitMix64 finaliser behind the generator's hello entropy, the
//!   tap's outage windows and the scanner's host streams and faults.
//!
//! The registries answer every classification question the paper's
//! analysis asks: is this suite RC4/CBC/AEAD? export-grade? anonymous?
//! NULL? forward-secret? Sweet32-exposed? Which AEAD algorithm? Which
//! key exchange? Which curve?
//!
//! ```
//! use tlscope_wire::{ClientHello, CipherSuite, ProtocolVersion, Extension};
//!
//! let hello = ClientHello {
//!     legacy_version: ProtocolVersion::Tls12,
//!     random: [0; 32],
//!     session_id: vec![],
//!     cipher_suites: vec![CipherSuite(0xc02f), CipherSuite(0x000a)],
//!     compression_methods: vec![0],
//!     extensions: Some(vec![Extension::server_name("example.org")]),
//! };
//! let bytes = hello.to_handshake_bytes();
//! let parsed = ClientHello::parse_handshake(&bytes).unwrap();
//! assert!(parsed.cipher_suites[0].is_aead());
//! assert!(parsed.cipher_suites[1].is_3des());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alert;
pub mod codec;
pub mod error;
pub mod exts;
pub mod fxhash;
pub mod grease;
pub mod groups;
pub mod handshake;
pub mod record;
pub mod ske;
pub mod suites;
pub mod suites_table;
pub mod version;
pub mod view;

pub use alert::{Alert, AlertLevel};
pub use error::{WireError, WireResult};
pub use exts::{ext_type, Extension};
pub use grease::{is_grease, strip_grease};
pub use groups::NamedGroup;
pub use handshake::{ClientHello, ServerHello};
pub use record::{sniff, ContentType, Record, RecordView, Sslv2ClientHello, WireFlavor};
pub use suites::{
    AeadAlg, Auth, CipherSuite, Enc, EncMode, Kx, Mac, SuiteClasses, SuiteInfo, SuiteSet,
};
pub use version::ProtocolVersion;
pub use view::{ClientHelloView, ExtensionsView, ServerHelloView};
