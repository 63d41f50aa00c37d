//! TLS extensions: the IANA type registry and the parsed bodies the
//! measurement pipeline needs.
//!
//! Extensions carry three of the paper's analysis axes: the
//! `supported_groups` and `ec_point_formats` lists are fingerprint
//! features (§4), `heartbeat` is the §5.4 Heartbleed surface, and
//! `supported_versions` is how TLS 1.3 clients actually advertise 1.3
//! (§6.4) — the legacy version field stays at 1.2.

use crate::codec::{Reader, Writer};
use crate::error::{WireError, WireResult};
use crate::groups::NamedGroup;
use crate::version::ProtocolVersion;

/// Well-known extension type code points (IANA, 2018 snapshot, plus the
/// historical nonstandard values seen in the wild).
pub mod ext_type {
    /// server_name (SNI).
    pub const SERVER_NAME: u16 = 0;
    /// max_fragment_length.
    pub const MAX_FRAGMENT_LENGTH: u16 = 1;
    /// client_certificate_url.
    pub const CLIENT_CERTIFICATE_URL: u16 = 2;
    /// trusted_ca_keys.
    pub const TRUSTED_CA_KEYS: u16 = 3;
    /// truncated_hmac.
    pub const TRUNCATED_HMAC: u16 = 4;
    /// status_request (OCSP stapling).
    pub const STATUS_REQUEST: u16 = 5;
    /// user_mapping.
    pub const USER_MAPPING: u16 = 6;
    /// client_authz.
    pub const CLIENT_AUTHZ: u16 = 7;
    /// server_authz.
    pub const SERVER_AUTHZ: u16 = 8;
    /// cert_type.
    pub const CERT_TYPE: u16 = 9;
    /// supported_groups (née elliptic_curves).
    pub const SUPPORTED_GROUPS: u16 = 10;
    /// ec_point_formats.
    pub const EC_POINT_FORMATS: u16 = 11;
    /// srp.
    pub const SRP: u16 = 12;
    /// signature_algorithms.
    pub const SIGNATURE_ALGORITHMS: u16 = 13;
    /// use_srtp.
    pub const USE_SRTP: u16 = 14;
    /// heartbeat (RFC 6520) — the Heartbleed surface.
    pub const HEARTBEAT: u16 = 15;
    /// application_layer_protocol_negotiation.
    pub const ALPN: u16 = 16;
    /// status_request_v2.
    pub const STATUS_REQUEST_V2: u16 = 17;
    /// signed_certificate_timestamp.
    pub const SCT: u16 = 18;
    /// client_certificate_type.
    pub const CLIENT_CERTIFICATE_TYPE: u16 = 19;
    /// server_certificate_type.
    pub const SERVER_CERTIFICATE_TYPE: u16 = 20;
    /// padding.
    pub const PADDING: u16 = 21;
    /// encrypt_then_mac (RFC 7366) — the Lucky 13 response.
    pub const ENCRYPT_THEN_MAC: u16 = 22;
    /// extended_master_secret.
    pub const EXTENDED_MASTER_SECRET: u16 = 23;
    /// token_binding.
    pub const TOKEN_BINDING: u16 = 24;
    /// cached_info.
    pub const CACHED_INFO: u16 = 25;
    /// session_ticket.
    pub const SESSION_TICKET: u16 = 35;
    /// key_share as used by TLS 1.3 drafts up to -22.
    pub const KEY_SHARE_DRAFT: u16 = 40;
    /// pre_shared_key.
    pub const PRE_SHARED_KEY: u16 = 41;
    /// early_data.
    pub const EARLY_DATA: u16 = 42;
    /// supported_versions — TLS 1.3 version negotiation.
    pub const SUPPORTED_VERSIONS: u16 = 43;
    /// cookie.
    pub const COOKIE: u16 = 44;
    /// psk_key_exchange_modes.
    pub const PSK_KEY_EXCHANGE_MODES: u16 = 45;
    /// certificate_authorities.
    pub const CERTIFICATE_AUTHORITIES: u16 = 47;
    /// oid_filters.
    pub const OID_FILTERS: u16 = 48;
    /// post_handshake_auth.
    pub const POST_HANDSHAKE_AUTH: u16 = 49;
    /// signature_algorithms_cert.
    pub const SIGNATURE_ALGORITHMS_CERT: u16 = 50;
    /// key_share (RFC 8446 final).
    pub const KEY_SHARE: u16 = 51;
    /// next_protocol_negotiation (NPN; historical Chrome/Firefox).
    pub const NPN: u16 = 13172;
    /// channel_id (historical Google).
    pub const CHANNEL_ID: u16 = 30032;
    /// renegotiation_info (RFC 5746) — the RIE extension.
    pub const RENEGOTIATION_INFO: u16 = 65281;

    /// Human-readable name for a type code, if known.
    pub fn name(t: u16) -> Option<&'static str> {
        Some(match t {
            SERVER_NAME => "server_name",
            MAX_FRAGMENT_LENGTH => "max_fragment_length",
            CLIENT_CERTIFICATE_URL => "client_certificate_url",
            TRUSTED_CA_KEYS => "trusted_ca_keys",
            TRUNCATED_HMAC => "truncated_hmac",
            STATUS_REQUEST => "status_request",
            USER_MAPPING => "user_mapping",
            CLIENT_AUTHZ => "client_authz",
            SERVER_AUTHZ => "server_authz",
            CERT_TYPE => "cert_type",
            SUPPORTED_GROUPS => "supported_groups",
            EC_POINT_FORMATS => "ec_point_formats",
            SRP => "srp",
            SIGNATURE_ALGORITHMS => "signature_algorithms",
            USE_SRTP => "use_srtp",
            HEARTBEAT => "heartbeat",
            ALPN => "application_layer_protocol_negotiation",
            STATUS_REQUEST_V2 => "status_request_v2",
            SCT => "signed_certificate_timestamp",
            CLIENT_CERTIFICATE_TYPE => "client_certificate_type",
            SERVER_CERTIFICATE_TYPE => "server_certificate_type",
            PADDING => "padding",
            ENCRYPT_THEN_MAC => "encrypt_then_mac",
            EXTENDED_MASTER_SECRET => "extended_master_secret",
            TOKEN_BINDING => "token_binding",
            CACHED_INFO => "cached_info",
            SESSION_TICKET => "session_ticket",
            KEY_SHARE_DRAFT => "key_share(draft)",
            PRE_SHARED_KEY => "pre_shared_key",
            EARLY_DATA => "early_data",
            SUPPORTED_VERSIONS => "supported_versions",
            COOKIE => "cookie",
            PSK_KEY_EXCHANGE_MODES => "psk_key_exchange_modes",
            CERTIFICATE_AUTHORITIES => "certificate_authorities",
            OID_FILTERS => "oid_filters",
            POST_HANDSHAKE_AUTH => "post_handshake_auth",
            SIGNATURE_ALGORITHMS_CERT => "signature_algorithms_cert",
            KEY_SHARE => "key_share",
            NPN => "next_protocol_negotiation",
            CHANNEL_ID => "channel_id",
            RENEGOTIATION_INFO => "renegotiation_info",
            _ => return None,
        })
    }
}

/// A raw extension: type code plus opaque body.
///
/// The hello parsers keep extensions raw; typed accessors below decode
/// the bodies the analysis actually uses. This mirrors how a passive
/// monitor must behave — it cannot assume it understands every
/// extension on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Extension {
    /// Extension type code point.
    pub typ: u16,
    /// Undecoded extension body.
    pub body: Vec<u8>,
}

impl Extension {
    /// Construct an extension from a type and raw body.
    pub fn new(typ: u16, body: Vec<u8>) -> Self {
        Extension { typ, body }
    }

    /// An empty-bodied extension (most boolean-flag extensions).
    pub fn empty(typ: u16) -> Self {
        Extension {
            typ,
            body: Vec::new(),
        }
    }

    /// `supported_groups`: body is a u16-length-prefixed list of groups.
    pub fn supported_groups(groups: &[NamedGroup]) -> Self {
        let mut w = Writer::new();
        ext_body::supported_groups(&mut w, groups.iter().map(|g| g.0));
        Extension::new(ext_type::SUPPORTED_GROUPS, w.into_bytes())
    }

    /// `ec_point_formats`: body is a u8-length-prefixed list of formats.
    pub fn ec_point_formats(formats: &[u8]) -> Self {
        let mut w = Writer::new();
        ext_body::ec_point_formats(&mut w, formats);
        Extension::new(ext_type::EC_POINT_FORMATS, w.into_bytes())
    }

    /// `supported_versions` (ClientHello form): u8-length-prefixed list.
    pub fn supported_versions(versions: &[ProtocolVersion]) -> Self {
        let mut w = Writer::new();
        ext_body::supported_versions(&mut w, versions.iter().map(|v| v.to_wire()));
        Extension::new(ext_type::SUPPORTED_VERSIONS, w.into_bytes())
    }

    /// `supported_versions` (ServerHello form): single version.
    pub fn selected_version(version: ProtocolVersion) -> Self {
        let mut w = Writer::new();
        ext_body::selected_version(&mut w, version);
        Extension::new(ext_type::SUPPORTED_VERSIONS, w.into_bytes())
    }

    /// `server_name` with a single DNS hostname.
    pub fn server_name(host: &str) -> Self {
        let mut w = Writer::new();
        ext_body::server_name(&mut w, host);
        Extension::new(ext_type::SERVER_NAME, w.into_bytes())
    }

    /// `heartbeat` with the given mode (1 = peer_allowed_to_send).
    pub fn heartbeat(mode: u8) -> Self {
        Extension::new(ext_type::HEARTBEAT, vec![mode])
    }

    /// `renegotiation_info` with empty verify data (initial handshake).
    pub fn renegotiation_info() -> Self {
        Extension::new(ext_type::RENEGOTIATION_INFO, vec![0])
    }

    /// ServerHello `key_share`: the selected group plus an opaque key.
    pub fn key_share_server(group: crate::groups::NamedGroup) -> Self {
        let mut w = Writer::new();
        ext_body::key_share_server(&mut w, group);
        Extension::new(ext_type::KEY_SHARE, w.into_bytes())
    }

    /// `signature_algorithms` from (hash, sig) wire pairs.
    pub fn signature_algorithms(algs: &[u16]) -> Self {
        let mut w = Writer::new();
        ext_body::signature_algorithms(&mut w, algs);
        Extension::new(ext_type::SIGNATURE_ALGORITHMS, w.into_bytes())
    }

    /// `application_layer_protocol_negotiation` from protocol names.
    pub fn alpn(protocols: &[&str]) -> Self {
        let mut w = Writer::new();
        ext_body::alpn(&mut w, protocols);
        Extension::new(ext_type::ALPN, w.into_bytes())
    }

    // ---- typed decoders --------------------------------------------

    /// Decode a `supported_groups` body.
    pub fn parse_supported_groups(&self) -> WireResult<Vec<NamedGroup>> {
        debug_assert_eq!(self.typ, ext_type::SUPPORTED_GROUPS);
        let mut r = Reader::new(&self.body);
        let groups = r.vec16()?.u16_list()?;
        r.expect_empty()?;
        Ok(groups.into_iter().map(NamedGroup).collect())
    }

    /// Decode an `ec_point_formats` body.
    pub fn parse_ec_point_formats(&self) -> WireResult<Vec<u8>> {
        debug_assert_eq!(self.typ, ext_type::EC_POINT_FORMATS);
        let mut r = Reader::new(&self.body);
        let formats = r.vec8()?.u8_list();
        r.expect_empty()?;
        Ok(formats)
    }

    /// Decode a ClientHello `supported_versions` body.
    pub fn parse_supported_versions(&self) -> WireResult<Vec<ProtocolVersion>> {
        debug_assert_eq!(self.typ, ext_type::SUPPORTED_VERSIONS);
        let mut r = Reader::new(&self.body);
        let vs = r.vec8()?.u16_list()?;
        r.expect_empty()?;
        Ok(vs.into_iter().map(ProtocolVersion::from_wire).collect())
    }

    /// Decode a ServerHello `supported_versions` body (single version).
    pub fn parse_selected_version(&self) -> WireResult<ProtocolVersion> {
        debug_assert_eq!(self.typ, ext_type::SUPPORTED_VERSIONS);
        let mut r = Reader::new(&self.body);
        let v = r.u16()?;
        r.expect_empty()?;
        Ok(ProtocolVersion::from_wire(v))
    }

    /// Decode a `server_name` body; returns the first DNS hostname.
    pub fn parse_server_name(&self) -> WireResult<String> {
        debug_assert_eq!(self.typ, ext_type::SERVER_NAME);
        let mut r = Reader::new(&self.body);
        let mut list = r.vec16()?;
        while !list.is_empty() {
            let name_type = list.u8()?;
            let mut name = list.vec16()?;
            if name_type == 0 {
                return String::from_utf8(name.rest().to_vec())
                    .map_err(|_| WireError::InvalidField("server_name not UTF-8"));
            }
        }
        Err(WireError::InvalidField("no host_name entry in server_name"))
    }

    /// Decode a ServerHello `key_share` body; returns the group.
    pub fn parse_key_share_server(&self) -> WireResult<NamedGroup> {
        debug_assert!(self.typ == ext_type::KEY_SHARE || self.typ == ext_type::KEY_SHARE_DRAFT);
        let mut r = Reader::new(&self.body);
        let g = r.u16()?;
        let mut key = r.vec16()?;
        let _ = key.rest();
        r.expect_empty()?;
        Ok(NamedGroup(g))
    }
}

/// Extension-body serialisers, shared between the [`Extension`]
/// builders and allocation-free hello writers (which emit bodies
/// straight into a reusable buffer instead of materialising
/// `Extension` structs). Each function appends exactly the bytes the
/// corresponding builder would put in `Extension::body`.
pub mod ext_body {
    use super::*;

    /// `supported_groups` body from wire group values.
    pub fn supported_groups(w: &mut Writer, groups: impl IntoIterator<Item = u16>) {
        w.vec16(|w| {
            for g in groups {
                w.u16(g);
            }
        });
    }

    /// `ec_point_formats` body.
    pub fn ec_point_formats(w: &mut Writer, formats: &[u8]) {
        w.vec8(|w| {
            w.bytes(formats);
        });
    }

    /// ClientHello `supported_versions` body from wire version values.
    pub fn supported_versions(w: &mut Writer, versions: impl IntoIterator<Item = u16>) {
        w.vec8(|w| {
            for v in versions {
                w.u16(v);
            }
        });
    }

    /// ServerHello `supported_versions` body (single version).
    pub fn selected_version(w: &mut Writer, version: ProtocolVersion) {
        w.u16(version.to_wire());
    }

    /// `server_name` body with a single DNS hostname.
    pub fn server_name(w: &mut Writer, host: &str) {
        w.vec16(|w| {
            w.u8(0); // name_type = host_name
            w.vec16(|w| {
                w.bytes(host.as_bytes());
            });
        });
    }

    /// `heartbeat` body.
    pub fn heartbeat(w: &mut Writer, mode: u8) {
        w.u8(mode);
    }

    /// `renegotiation_info` body with empty verify data.
    pub fn renegotiation_info(w: &mut Writer) {
        w.u8(0);
    }

    /// ServerHello `key_share` body: selected group plus opaque key.
    pub fn key_share_server(w: &mut Writer, group: NamedGroup) {
        w.u16(group.0);
        w.vec16(|w| {
            w.bytes(&[0x04; 32]);
        });
    }

    /// `signature_algorithms` body from (hash, sig) wire pairs.
    pub fn signature_algorithms(w: &mut Writer, algs: &[u16]) {
        w.vec16(|w| {
            w.u16_list(algs);
        });
    }

    /// ALPN body from protocol names.
    pub fn alpn(w: &mut Writer, protocols: &[&str]) {
        w.vec16(|w| {
            for p in protocols {
                w.vec8(|w| {
                    w.bytes(p.as_bytes());
                });
            }
        });
    }
}

/// Write one extension (type + u16-length-prefixed body) into `w`,
/// with the body produced by `body` — typically one of the
/// [`ext_body`] serialisers.
pub fn write_extension(w: &mut Writer, typ: u16, body: impl FnOnce(&mut Writer)) {
    w.u16(typ);
    w.vec16(body);
}

/// Serialise an extension list (with outer u16 length) into `w`.
pub fn write_extensions(w: &mut Writer, exts: &[Extension]) {
    w.vec16(|w| {
        for e in exts {
            w.u16(e.typ);
            w.vec16(|w| {
                w.bytes(&e.body);
            });
        }
    });
}

/// Parse an extension list (with outer u16 length) from `r`.
pub fn read_extensions(r: &mut Reader<'_>) -> WireResult<Vec<Extension>> {
    let mut list = r.vec16()?;
    let mut out = Vec::new();
    while !list.is_empty() {
        let typ = list.u16()?;
        let mut body = list.vec16()?;
        out.push(Extension::new(typ, body.rest().to_vec()));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_roundtrip() {
        let groups = [
            NamedGroup::X25519,
            NamedGroup::SECP256R1,
            NamedGroup::SECP384R1,
        ];
        let e = Extension::supported_groups(&groups);
        assert_eq!(e.parse_supported_groups().unwrap(), groups.to_vec());
    }

    #[test]
    fn point_formats_roundtrip() {
        let e = Extension::ec_point_formats(&[0, 1, 2]);
        assert_eq!(e.parse_ec_point_formats().unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn supported_versions_roundtrip() {
        let vs = [
            ProtocolVersion::Tls13Experiment(2),
            ProtocolVersion::Tls13Draft(18),
            ProtocolVersion::Tls12,
        ];
        let e = Extension::supported_versions(&vs);
        assert_eq!(e.parse_supported_versions().unwrap(), vs.to_vec());
    }

    #[test]
    fn selected_version_roundtrip() {
        let e = Extension::selected_version(ProtocolVersion::Tls13Draft(28));
        assert_eq!(
            e.parse_selected_version().unwrap(),
            ProtocolVersion::Tls13Draft(28)
        );
    }

    #[test]
    fn server_name_roundtrip() {
        let e = Extension::server_name("notary.icsi.berkeley.edu");
        assert_eq!(e.parse_server_name().unwrap(), "notary.icsi.berkeley.edu");
    }

    #[test]
    fn extension_list_roundtrip() {
        let exts = vec![
            Extension::server_name("example.org"),
            Extension::supported_groups(&[NamedGroup::X25519]),
            Extension::empty(ext_type::EXTENDED_MASTER_SECRET),
            Extension::renegotiation_info(),
        ];
        let mut w = Writer::new();
        write_extensions(&mut w, &exts);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let parsed = read_extensions(&mut r).unwrap();
        assert!(r.is_empty());
        assert_eq!(parsed, exts);
    }

    #[test]
    fn truncated_extension_list_fails() {
        let exts = vec![Extension::server_name("example.org")];
        let mut w = Writer::new();
        write_extensions(&mut w, &exts);
        let bytes = w.into_bytes();
        for cut in 1..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(read_extensions(&mut r).is_err(), "cut at {cut} parsed");
        }
    }

    #[test]
    fn registry_names() {
        assert_eq!(ext_type::name(0), Some("server_name"));
        assert_eq!(ext_type::name(15), Some("heartbeat"));
        assert_eq!(ext_type::name(43), Some("supported_versions"));
        assert_eq!(ext_type::name(65281), Some("renegotiation_info"));
        assert_eq!(ext_type::name(0x9999), None);
    }

    #[test]
    fn malformed_bodies_rejected() {
        // supported_groups with odd-length list body.
        let e = Extension::new(
            ext_type::SUPPORTED_GROUPS,
            vec![0x00, 0x03, 0x00, 0x1d, 0x99],
        );
        assert!(e.parse_supported_groups().is_err());
        // server_name with a non-DNS entry only.
        let mut w = Writer::new();
        w.vec16(|w| {
            w.u8(7);
            w.vec16(|w| {
                w.bytes(b"x");
            });
        });
        let e = Extension::new(ext_type::SERVER_NAME, w.into_bytes());
        assert!(e.parse_server_name().is_err());
    }
}
