//! TLS handshake messages: framing, ClientHello, ServerHello.
//!
//! These are the only two messages the study needs — they travel in the
//! clear and carry everything the paper measures (§2.1). Parsers accept
//! any structurally valid hello (unknown versions, unknown suites,
//! unknown extensions) because a passive monitor sees whatever the
//! Internet throws at it; classification happens later against the
//! registries.

use crate::codec::{Reader, Writer};
use crate::error::{WireError, WireResult};
use crate::exts::{ext_type, read_extensions, write_extensions, Extension};
use crate::suites::CipherSuite;
use crate::version::ProtocolVersion;

/// Handshake message type codes.
pub mod handshake_type {
    /// hello_request.
    pub const HELLO_REQUEST: u8 = 0;
    /// client_hello.
    pub const CLIENT_HELLO: u8 = 1;
    /// server_hello.
    pub const SERVER_HELLO: u8 = 2;
    /// certificate.
    pub const CERTIFICATE: u8 = 11;
    /// server_key_exchange.
    pub const SERVER_KEY_EXCHANGE: u8 = 12;
    /// server_hello_done.
    pub const SERVER_HELLO_DONE: u8 = 14;
    /// client_key_exchange.
    pub const CLIENT_KEY_EXCHANGE: u8 = 16;
    /// finished.
    pub const FINISHED: u8 = 20;
}

/// Split one handshake message off `r`: returns `(type, body)`.
pub fn read_handshake<'a>(r: &mut Reader<'a>) -> WireResult<(u8, &'a [u8])> {
    let typ = r.u8()?;
    let len = r.u24()? as usize;
    if r.remaining() < len {
        return Err(WireError::LengthOverflow {
            declared: len,
            available: r.remaining(),
        });
    }
    Ok((typ, r.take(len)?))
}

/// A parsed TLS/SSL3 ClientHello.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientHello {
    /// The legacy record-layer version field. For TLS 1.3 clients this
    /// stays at TLS 1.2; the true maximum lives in `supported_versions`.
    pub legacy_version: ProtocolVersion,
    /// 32 bytes of client randomness.
    pub random: [u8; 32],
    /// Session id (0–32 bytes).
    pub session_id: Vec<u8>,
    /// Offered cipher suites, in client preference order.
    pub cipher_suites: Vec<CipherSuite>,
    /// Offered compression methods.
    pub compression_methods: Vec<u8>,
    /// Extension block: `None` when absent entirely (pre-TLS-1.0
    /// clients), `Some` — possibly empty — when present. The distinction
    /// is itself a fingerprint feature.
    pub extensions: Option<Vec<Extension>>,
}

impl ClientHello {
    /// Extensions as a slice (empty when the block is absent).
    pub fn extensions(&self) -> &[Extension] {
        self.extensions.as_deref().unwrap_or(&[])
    }

    /// Find the first extension of a given type.
    pub fn find_extension(&self, typ: u16) -> Option<&Extension> {
        self.extensions().iter().find(|e| e.typ == typ)
    }

    /// The versions this client actually supports: the
    /// `supported_versions` list if present, otherwise everything from
    /// SSL 3 up to the legacy version field (the classic "maximum
    /// version" semantics).
    pub fn offered_versions(&self) -> Vec<ProtocolVersion> {
        if let Some(e) = self.find_extension(ext_type::SUPPORTED_VERSIONS) {
            if let Ok(vs) = e.parse_supported_versions() {
                return vs
                    .into_iter()
                    .filter(|v| !matches!(v, ProtocolVersion::Unknown(x) if crate::grease::is_grease(*x)))
                    .collect();
            }
        }
        let all = [
            ProtocolVersion::Ssl3,
            ProtocolVersion::Tls10,
            ProtocolVersion::Tls11,
            ProtocolVersion::Tls12,
        ];
        all.iter()
            .copied()
            .filter(|v| v.rank() <= self.legacy_version.rank())
            .collect()
    }

    /// True if the client advertises any TLS 1.3 (final, draft, or
    /// experimental) version.
    pub fn offers_tls13(&self) -> bool {
        self.offered_versions().iter().any(|v| v.is_tls13_family())
    }

    /// Append the handshake *body* (without the 4-byte header) to `w`.
    pub fn write_body(&self, w: &mut Writer) {
        w.u16(self.legacy_version.to_wire());
        w.bytes(&self.random);
        w.vec8(|w| {
            w.bytes(&self.session_id);
        });
        w.vec16(|w| {
            for c in &self.cipher_suites {
                w.u16(c.0);
            }
        });
        w.vec8(|w| {
            w.bytes(&self.compression_methods);
        });
        if let Some(exts) = &self.extensions {
            write_extensions(w, exts);
        }
    }

    /// Append the framed handshake message to `w`.
    pub fn write_handshake(&self, w: &mut Writer) {
        w.u8(handshake_type::CLIENT_HELLO);
        w.vec24(|w| self.write_body(w));
    }

    /// Serialise to a framed handshake message.
    pub fn to_handshake_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(160);
        self.write_handshake(&mut w);
        w.into_bytes()
    }

    /// Parse from a handshake body.
    pub fn parse_body(body: &[u8]) -> WireResult<Self> {
        let mut r = Reader::new(body);
        let legacy_version = ProtocolVersion::from_wire(r.u16()?);
        let mut random = [0u8; 32];
        random.copy_from_slice(r.take(32)?);
        let session_id = r.vec8()?.u8_list();
        if session_id.len() > 32 {
            return Err(WireError::InvalidField("session_id longer than 32 bytes"));
        }
        let suites = r.vec16()?.u16_list()?;
        if suites.is_empty() {
            return Err(WireError::InvalidField("empty cipher suite list"));
        }
        let compression_methods = r.vec8()?.u8_list();
        if compression_methods.is_empty() {
            return Err(WireError::InvalidField("empty compression list"));
        }
        let extensions = if r.is_empty() {
            None
        } else {
            let exts = read_extensions(&mut r)?;
            r.expect_empty()?;
            Some(exts)
        };
        Ok(ClientHello {
            legacy_version,
            random,
            session_id,
            cipher_suites: suites.into_iter().map(CipherSuite).collect(),
            compression_methods,
            extensions,
        })
    }

    /// Parse from a framed handshake message.
    pub fn parse_handshake(bytes: &[u8]) -> WireResult<Self> {
        let mut r = Reader::new(bytes);
        let (typ, body) = read_handshake(&mut r)?;
        if typ != handshake_type::CLIENT_HELLO {
            return Err(WireError::UnexpectedHandshakeType {
                got: typ,
                want: handshake_type::CLIENT_HELLO,
            });
        }
        r.expect_empty()?;
        Self::parse_body(body)
    }
}

/// A parsed TLS/SSL3 ServerHello.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerHello {
    /// The version field; for TLS 1.3 servers this is 1.2 with the real
    /// version in `supported_versions`.
    pub legacy_version: ProtocolVersion,
    /// 32 bytes of server randomness.
    pub random: [u8; 32],
    /// Echoed or fresh session id.
    pub session_id: Vec<u8>,
    /// The single selected cipher suite.
    pub cipher_suite: CipherSuite,
    /// The selected compression method.
    pub compression_method: u8,
    /// Extension block, if present.
    pub extensions: Option<Vec<Extension>>,
}

impl ServerHello {
    /// Extensions as a slice (empty when the block is absent).
    pub fn extensions(&self) -> &[Extension] {
        self.extensions.as_deref().unwrap_or(&[])
    }

    /// Find the first extension of a given type.
    pub fn find_extension(&self, typ: u16) -> Option<&Extension> {
        self.extensions().iter().find(|e| e.typ == typ)
    }

    /// The actually negotiated protocol version: the
    /// `supported_versions` selection if present (TLS 1.3 mechanism),
    /// otherwise the legacy version field.
    pub fn negotiated_version(&self) -> ProtocolVersion {
        if let Some(e) = self.find_extension(ext_type::SUPPORTED_VERSIONS) {
            if let Ok(v) = e.parse_selected_version() {
                return v;
            }
        }
        self.legacy_version
    }

    /// Append the handshake *body* (without the 4-byte header) to `w`.
    pub fn write_body(&self, w: &mut Writer) {
        w.u16(self.legacy_version.to_wire());
        w.bytes(&self.random);
        w.vec8(|w| {
            w.bytes(&self.session_id);
        });
        w.u16(self.cipher_suite.0);
        w.u8(self.compression_method);
        if let Some(exts) = &self.extensions {
            write_extensions(w, exts);
        }
    }

    /// Append the framed handshake message to `w`.
    pub fn write_handshake(&self, w: &mut Writer) {
        w.u8(handshake_type::SERVER_HELLO);
        w.vec24(|w| self.write_body(w));
    }

    /// Serialise to a framed handshake message.
    pub fn to_handshake_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(128);
        self.write_handshake(&mut w);
        w.into_bytes()
    }

    /// Parse from a handshake body.
    pub fn parse_body(body: &[u8]) -> WireResult<Self> {
        let mut r = Reader::new(body);
        let legacy_version = ProtocolVersion::from_wire(r.u16()?);
        let mut random = [0u8; 32];
        random.copy_from_slice(r.take(32)?);
        let session_id = r.vec8()?.u8_list();
        if session_id.len() > 32 {
            return Err(WireError::InvalidField("session_id longer than 32 bytes"));
        }
        let cipher_suite = CipherSuite(r.u16()?);
        let compression_method = r.u8()?;
        let extensions = if r.is_empty() {
            None
        } else {
            let exts = read_extensions(&mut r)?;
            r.expect_empty()?;
            Some(exts)
        };
        Ok(ServerHello {
            legacy_version,
            random,
            session_id,
            cipher_suite,
            compression_method,
            extensions,
        })
    }

    /// Parse from a framed handshake message.
    pub fn parse_handshake(bytes: &[u8]) -> WireResult<Self> {
        let mut r = Reader::new(bytes);
        let (typ, body) = read_handshake(&mut r)?;
        if typ != handshake_type::SERVER_HELLO {
            return Err(WireError::UnexpectedHandshakeType {
                got: typ,
                want: handshake_type::SERVER_HELLO,
            });
        }
        r.expect_empty()?;
        Self::parse_body(body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::groups::NamedGroup;

    fn sample_client_hello() -> ClientHello {
        ClientHello {
            legacy_version: ProtocolVersion::Tls12,
            random: [7u8; 32],
            session_id: vec![1, 2, 3, 4],
            cipher_suites: vec![
                CipherSuite(0xc02b),
                CipherSuite(0xc02f),
                CipherSuite(0x009c),
                CipherSuite(0x002f),
                CipherSuite(0x000a),
            ],
            compression_methods: vec![0],
            extensions: Some(vec![
                Extension::server_name("example.org"),
                Extension::supported_groups(&[NamedGroup::X25519, NamedGroup::SECP256R1]),
                Extension::ec_point_formats(&[0]),
                Extension::renegotiation_info(),
            ]),
        }
    }

    #[test]
    fn client_hello_roundtrip() {
        let ch = sample_client_hello();
        let bytes = ch.to_handshake_bytes();
        let parsed = ClientHello::parse_handshake(&bytes).unwrap();
        assert_eq!(parsed, ch);
    }

    #[test]
    fn client_hello_without_extensions_roundtrip() {
        let mut ch = sample_client_hello();
        ch.extensions = None;
        ch.legacy_version = ProtocolVersion::Ssl3;
        let parsed = ClientHello::parse_handshake(&ch.to_handshake_bytes()).unwrap();
        assert_eq!(parsed, ch);
        assert!(parsed.extensions.is_none());
        assert_eq!(parsed.extensions(), &[]);
    }

    #[test]
    fn client_hello_empty_extension_block_is_distinct() {
        let mut ch = sample_client_hello();
        ch.extensions = Some(vec![]);
        let parsed = ClientHello::parse_handshake(&ch.to_handshake_bytes()).unwrap();
        assert_eq!(parsed.extensions, Some(vec![]));
    }

    #[test]
    fn offered_versions_classic_semantics() {
        let mut ch = sample_client_hello();
        ch.extensions = Some(vec![]);
        ch.legacy_version = ProtocolVersion::Tls10;
        assert_eq!(
            ch.offered_versions(),
            vec![ProtocolVersion::Ssl3, ProtocolVersion::Tls10]
        );
        assert!(!ch.offers_tls13());
    }

    #[test]
    fn offered_versions_tls13_mechanism() {
        let mut ch = sample_client_hello();
        // TLS 1.3 clients keep legacy_version at 1.2 (§6.4).
        ch.legacy_version = ProtocolVersion::Tls12;
        ch.extensions
            .as_mut()
            .unwrap()
            .push(Extension::supported_versions(&[
                ProtocolVersion::Tls13Experiment(2),
                ProtocolVersion::Tls13Draft(18),
                ProtocolVersion::Tls12,
                ProtocolVersion::Tls11,
            ]));
        assert!(ch.offers_tls13());
        let vs = ch.offered_versions();
        assert_eq!(vs.len(), 4);
        assert_eq!(vs[0], ProtocolVersion::Tls13Experiment(2));
    }

    #[test]
    fn server_hello_roundtrip() {
        let sh = ServerHello {
            legacy_version: ProtocolVersion::Tls12,
            random: [9u8; 32],
            session_id: vec![],
            cipher_suite: CipherSuite(0xc02f),
            compression_method: 0,
            extensions: Some(vec![Extension::renegotiation_info()]),
        };
        let parsed = ServerHello::parse_handshake(&sh.to_handshake_bytes()).unwrap();
        assert_eq!(parsed, sh);
        assert_eq!(parsed.negotiated_version(), ProtocolVersion::Tls12);
    }

    #[test]
    fn server_hello_tls13_version_negotiation() {
        let sh = ServerHello {
            legacy_version: ProtocolVersion::Tls12,
            random: [0u8; 32],
            session_id: vec![],
            cipher_suite: CipherSuite(0x1301),
            compression_method: 0,
            extensions: Some(vec![Extension::selected_version(
                ProtocolVersion::Tls13Draft(18),
            )]),
        };
        assert_eq!(sh.negotiated_version(), ProtocolVersion::Tls13Draft(18));
    }

    #[test]
    fn rejects_wrong_handshake_type() {
        let ch = sample_client_hello();
        let bytes = ch.to_handshake_bytes();
        assert!(matches!(
            ServerHello::parse_handshake(&bytes),
            Err(WireError::UnexpectedHandshakeType { got: 1, want: 2 })
        ));
    }

    #[test]
    fn rejects_empty_cipher_list() {
        let mut ch = sample_client_hello();
        ch.cipher_suites.clear();
        let bytes = ch.to_handshake_bytes();
        assert_eq!(
            ClientHello::parse_handshake(&bytes),
            Err(WireError::InvalidField("empty cipher suite list"))
        );
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let bytes = sample_client_hello().to_handshake_bytes();
        for cut in 0..bytes.len() {
            assert!(
                ClientHello::parse_handshake(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes unexpectedly parsed"
            );
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut bytes = sample_client_hello().to_handshake_bytes();
        bytes.push(0xde);
        assert!(ClientHello::parse_handshake(&bytes).is_err());
    }

    #[test]
    fn preserves_unknown_suites_and_extensions() {
        let mut ch = sample_client_hello();
        ch.cipher_suites.insert(0, CipherSuite(0x2a2a)); // GREASE
        ch.extensions
            .as_mut()
            .unwrap()
            .push(Extension::new(0x7777, vec![1, 2, 3]));
        let parsed = ClientHello::parse_handshake(&ch.to_handshake_bytes()).unwrap();
        assert_eq!(parsed, ch);
    }
}
