//! The paper's 4-feature TLS client fingerprint (§4).
//!
//! > "a TLS client fingerprint is the concatenation of four features
//! > extracted from the Client Hello: (i) the cipher suite list, (ii)
//! > the list of client extensions, (iii) Supported Elliptic Curves,
//! > and (iv) the Supported EC Point Formats extension. All features
//! > are stored in the order they appear in the Client Hello."
//!
//! GREASE values are identified and removed before extraction, so the
//! randomised draws Chrome injects do not explode the fingerprint space.

use core::fmt;
use tlscope_wire::grease::{is_grease, strip_grease};
use tlscope_wire::view::{ext_view, ClientHelloView};
use tlscope_wire::{ext_type, ClientHello};

/// Incremental FNV-1a, the hash behind [`Fingerprint::id64`].
struct Fnv64(u64);

impl Fnv64 {
    /// A fresh hasher at the FNV-1a 64-bit offset basis.
    fn new() -> Self {
        Fnv64(0xcbf29ce484222325)
    }

    /// Mix raw bytes into the running hash.
    fn absorb(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    /// Mix a big-endian u16 into the running hash.
    fn absorb_u16(&mut self, v: u16) {
        self.absorb(&v.to_be_bytes());
    }
}

/// A 4-feature client fingerprint, order-preserving, GREASE-stripped.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint {
    /// Offered cipher-suite code points (GREASE removed).
    pub ciphers: Vec<u16>,
    /// Offered extension type codes (GREASE removed); empty when the
    /// hello had no extension block.
    pub extensions: Vec<u16>,
    /// `supported_groups` list (GREASE removed); empty when absent.
    pub curves: Vec<u16>,
    /// `ec_point_formats` list; empty when absent.
    pub point_formats: Vec<u8>,
}

impl Fingerprint {
    /// Extract the fingerprint from a parsed ClientHello.
    pub fn from_client_hello(hello: &ClientHello) -> Self {
        let ciphers = strip_grease(
            &hello
                .cipher_suites
                .iter()
                .map(|c| c.0)
                .collect::<Vec<u16>>(),
        );
        let extensions: Vec<u16> = hello
            .extensions()
            .iter()
            .map(|e| e.typ)
            .filter(|t| !is_grease(*t))
            .collect();
        let curves = hello
            .find_extension(ext_type::SUPPORTED_GROUPS)
            .and_then(|e| e.parse_supported_groups().ok())
            .map(|gs| strip_grease(&gs.iter().map(|g| g.0).collect::<Vec<u16>>()))
            .unwrap_or_default();
        let point_formats = hello
            .find_extension(ext_type::EC_POINT_FORMATS)
            .and_then(|e| e.parse_ec_point_formats().ok())
            .unwrap_or_default();
        Fingerprint {
            ciphers,
            extensions,
            curves,
            point_formats,
        }
    }

    /// Extract the fingerprint from a borrowed ClientHello view.
    ///
    /// Produces exactly the fingerprint [`Self::from_client_hello`]
    /// would for the same bytes, but allocates only the four feature
    /// vectors (the cipher list sized in one shot).
    pub fn from_client_hello_view(hello: &ClientHelloView<'_>) -> Self {
        let mut fp = Fingerprint {
            ciphers: Vec::with_capacity(hello.cipher_suite_count()),
            extensions: Vec::new(),
            curves: Vec::new(),
            point_formats: Vec::new(),
        };
        fp.refill_from_view(hello);
        fp
    }

    /// Refill `self` in place from a borrowed ClientHello view,
    /// clearing and reusing the four feature vectors' capacity — the
    /// steady-state path of a monitor worker performs no allocation.
    /// Produces exactly [`Self::from_client_hello_view`]'s value.
    pub fn refill_from_view(&mut self, hello: &ClientHelloView<'_>) {
        self.ciphers.clear();
        self.ciphers.extend(
            hello
                .cipher_suites()
                .map(|c| c.0)
                .filter(|v| !is_grease(*v)),
        );
        self.extensions.clear();
        if let Some(exts) = &hello.extensions {
            self.extensions
                .extend(exts.iter().map(|(t, _)| t).filter(|t| !is_grease(*t)));
        }
        self.curves.clear();
        if let Some(gs) = hello
            .find_extension(ext_type::SUPPORTED_GROUPS)
            .and_then(|b| ext_view::supported_groups(b).ok())
        {
            self.curves.extend(gs.filter(|g| !is_grease(*g)));
        }
        self.point_formats.clear();
        if let Some(f) = hello
            .find_extension(ext_type::EC_POINT_FORMATS)
            .and_then(|b| ext_view::ec_point_formats(b).ok())
        {
            self.point_formats.extend_from_slice(f);
        }
    }

    /// Canonical text form: the four features joined by `;`, values
    /// dash-separated in hello order. Stable across versions; used as a
    /// database key.
    pub fn canonical(&self) -> String {
        fn join16(vs: &[u16]) -> String {
            vs.iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("-")
        }
        let pf = self
            .point_formats
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("-");
        format!(
            "{};{};{};{}",
            join16(&self.ciphers),
            join16(&self.extensions),
            join16(&self.curves),
            pf
        )
    }

    /// Parse the canonical text form back into a fingerprint.
    pub fn from_canonical(s: &str) -> Option<Self> {
        let mut parts = s.split(';');
        fn list16(part: &str) -> Option<Vec<u16>> {
            if part.is_empty() {
                return Some(Vec::new());
            }
            part.split('-').map(|v| v.parse().ok()).collect()
        }
        fn list8(part: &str) -> Option<Vec<u8>> {
            if part.is_empty() {
                return Some(Vec::new());
            }
            part.split('-').map(|v| v.parse().ok()).collect()
        }
        let ciphers = list16(parts.next()?)?;
        let extensions = list16(parts.next()?)?;
        let curves = list16(parts.next()?)?;
        let point_formats = list8(parts.next()?)?;
        if parts.next().is_some() {
            return None;
        }
        Some(Fingerprint {
            ciphers,
            extensions,
            curves,
            point_formats,
        })
    }

    /// A compact 64-bit identity derived from the canonical form (FNV-1a).
    /// Handy as a map key in high-volume aggregation.
    pub fn id64(&self) -> u64 {
        let mut h = Fnv64::new();
        for v in &self.ciphers {
            h.absorb_u16(*v);
        }
        h.absorb(&[0xff, 0xfe]);
        for v in &self.extensions {
            h.absorb_u16(*v);
        }
        h.absorb(&[0xff, 0xfd]);
        for v in &self.curves {
            h.absorb_u16(*v);
        }
        h.absorb(&[0xff, 0xfc]);
        h.absorb(&self.point_formats);
        h.0
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.canonical())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlscope_wire::{CipherSuite, Extension, NamedGroup, ProtocolVersion};

    fn hello(with_grease: bool) -> ClientHello {
        let mut suites = vec![
            CipherSuite(0xc02b),
            CipherSuite(0xc02f),
            CipherSuite(0x009c),
        ];
        let mut exts = vec![
            Extension::server_name("example.org"),
            Extension::supported_groups(&[NamedGroup::X25519, NamedGroup::SECP256R1]),
            Extension::ec_point_formats(&[0]),
        ];
        let mut groups = vec![NamedGroup::X25519, NamedGroup::SECP256R1];
        if with_grease {
            suites.insert(0, CipherSuite(0x5a5a));
            exts.insert(0, Extension::empty(0x1a1a));
            groups.insert(0, NamedGroup(0xbaba));
            exts[2] = Extension::supported_groups(&groups);
        }
        ClientHello {
            legacy_version: ProtocolVersion::Tls12,
            random: [0; 32],
            session_id: vec![],
            cipher_suites: suites,
            compression_methods: vec![0],
            extensions: Some(exts),
        }
    }

    #[test]
    fn grease_invariance() {
        // The defining property (§4): GREASE draws must not change the
        // fingerprint.
        let a = Fingerprint::from_client_hello(&hello(false));
        let b = Fingerprint::from_client_hello(&hello(true));
        assert_eq!(a, b);
        assert_eq!(a.id64(), b.id64());
    }

    #[test]
    fn order_sensitivity() {
        // Unlike JA3's sorted variants, the paper's fingerprint keeps
        // hello order: reordering ciphers is a different client.
        let mut h = hello(false);
        let a = Fingerprint::from_client_hello(&h);
        h.cipher_suites.swap(0, 1);
        let b = Fingerprint::from_client_hello(&h);
        assert_ne!(a, b);
    }

    #[test]
    fn canonical_roundtrip() {
        let fp = Fingerprint::from_client_hello(&hello(false));
        let text = fp.canonical();
        assert_eq!(Fingerprint::from_canonical(&text).unwrap(), fp);
    }

    #[test]
    fn canonical_roundtrip_empty_features() {
        let fp = Fingerprint {
            ciphers: vec![10],
            extensions: vec![],
            curves: vec![],
            point_formats: vec![],
        };
        assert_eq!(fp.canonical(), "10;;;");
        assert_eq!(Fingerprint::from_canonical("10;;;").unwrap(), fp);
    }

    #[test]
    fn canonical_rejects_malformed() {
        assert!(Fingerprint::from_canonical("1;2;3").is_none()); // 3 parts
        assert!(Fingerprint::from_canonical("1;2;3;4;5").is_none()); // 5 parts
        assert!(Fingerprint::from_canonical("a;;;").is_none()); // non-numeric
    }

    #[test]
    fn hello_without_extensions() {
        let h = ClientHello {
            legacy_version: ProtocolVersion::Tls10,
            random: [0; 32],
            session_id: vec![],
            cipher_suites: vec![CipherSuite(0x0005), CipherSuite(0x000a)],
            compression_methods: vec![0],
            extensions: None,
        };
        let fp = Fingerprint::from_client_hello(&h);
        assert_eq!(fp.ciphers, vec![0x0005, 0x000a]);
        assert!(fp.extensions.is_empty());
        assert!(fp.curves.is_empty());
        assert!(fp.point_formats.is_empty());
    }

    #[test]
    fn view_extraction_matches_owned() {
        for with_grease in [false, true] {
            let h = hello(with_grease);
            let bytes = h.to_handshake_bytes();
            let view = ClientHelloView::parse_handshake(&bytes).unwrap();
            let owned = Fingerprint::from_client_hello(&h);
            assert_eq!(Fingerprint::from_client_hello_view(&view), owned);
        }
        // No extension block at all.
        let h = ClientHello {
            legacy_version: ProtocolVersion::Tls10,
            random: [0; 32],
            session_id: vec![],
            cipher_suites: vec![CipherSuite(0x0005), CipherSuite(0x000a)],
            compression_methods: vec![0],
            extensions: None,
        };
        let bytes = h.to_handshake_bytes();
        let view = ClientHelloView::parse_handshake(&bytes).unwrap();
        let owned = Fingerprint::from_client_hello(&h);
        assert_eq!(Fingerprint::from_client_hello_view(&view), owned);
    }

    #[test]
    fn id64_distinguishes_feature_boundaries() {
        // [1,2];[] vs [1];[2] must differ despite equal flat content.
        let a = Fingerprint {
            ciphers: vec![1, 2],
            extensions: vec![],
            curves: vec![],
            point_formats: vec![],
        };
        let b = Fingerprint {
            ciphers: vec![1],
            extensions: vec![2],
            curves: vec![],
            point_formats: vec![],
        };
        assert_ne!(a.id64(), b.id64());
    }
}
