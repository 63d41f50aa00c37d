//! The server-side negotiation engine.
//!
//! Given a parsed ClientHello and a [`ServerProfile`], produce the
//! ServerHello (and the ECDHE curve selection that would ride in the
//! ServerKeyExchange) exactly the way the deployed stacks the paper
//! measures do — including the out-of-spec behaviours it documents.

use tlscope_wire::codec::Writer;
use tlscope_wire::exts::{ext_body, ext_type, write_extension};
use tlscope_wire::handshake::handshake_type;
use tlscope_wire::{
    grease::is_grease, CipherSuite, ClientHello, EncMode, Extension, Kx, NamedGroup,
    ProtocolVersion, ServerHello,
};

use crate::profile::{Quirk, ServerProfile};

/// Why a handshake failed to complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandshakeFailure {
    /// No protocol version acceptable to both sides.
    VersionMismatch,
    /// No cipher suite in common (after version gating).
    NoCommonCipher,
}

/// The result of a successful negotiation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Negotiated {
    /// The ServerHello to put on the wire.
    pub server_hello: ServerHello,
    /// The negotiated protocol version (resolving supported_versions).
    pub version: ProtocolVersion,
    /// The selected cipher suite.
    pub cipher: CipherSuite,
    /// The ECDHE group selected (would appear in ServerKeyExchange /
    /// key_share); `None` for non-(EC)DHE suites.
    pub curve: Option<NamedGroup>,
    /// True when both sides negotiated the Heartbeat extension (§5.4).
    pub heartbeat: bool,
}

/// Everything negotiation reads from a ClientHello, borrowed.
///
/// The traffic generator knows these facts from the client
/// configuration it emitted and fills the struct from reusable buffers
/// without ever materialising a [`ClientHello`]; [`respond`] extracts
/// them from a parsed hello. Both paths feed [`respond_facts`], so the
/// negotiation logic itself exists once.
#[derive(Debug, Clone, Copy)]
pub struct ClientFacts<'a> {
    /// The legacy version field of the hello.
    pub legacy_version: ProtocolVersion,
    /// Session id to echo.
    pub session_id: &'a [u8],
    /// Offered suites in client order (GREASE and SCSVs included).
    pub cipher_suites: &'a [CipherSuite],
    /// `supported_versions` extension content when that extension is
    /// present (GREASE included — filtered here exactly like
    /// [`ClientHello::offered_versions`]); `None` when absent.
    pub supported_versions: Option<&'a [ProtocolVersion]>,
    /// `supported_groups` extension content when present (GREASE
    /// included); `None` when absent.
    pub curves: Option<&'a [NamedGroup]>,
    /// renegotiation_info extension present.
    pub has_renegotiation_info: bool,
    /// heartbeat extension present.
    pub has_heartbeat: bool,
    /// Any extension block present, even an empty one.
    pub has_extensions: bool,
}

/// Negotiate a response to `hello` under `profile`.
///
/// `server_random` keeps the function deterministic for tests and
/// reproducible simulation.
pub fn respond(
    profile: &ServerProfile,
    hello: &ClientHello,
    server_random: [u8; 32],
) -> Result<Negotiated, HandshakeFailure> {
    let versions = hello
        .find_extension(ext_type::SUPPORTED_VERSIONS)
        .and_then(|e| e.parse_supported_versions().ok());
    let curves = hello
        .find_extension(ext_type::SUPPORTED_GROUPS)
        .and_then(|e| e.parse_supported_groups().ok());
    let facts = ClientFacts {
        legacy_version: hello.legacy_version,
        session_id: &hello.session_id,
        cipher_suites: &hello.cipher_suites,
        supported_versions: versions.as_deref(),
        curves: curves.as_deref(),
        has_renegotiation_info: hello.find_extension(ext_type::RENEGOTIATION_INFO).is_some(),
        has_heartbeat: hello.find_extension(ext_type::HEARTBEAT).is_some(),
        has_extensions: hello.extensions.is_some(),
    };
    respond_facts(profile, &facts, server_random)
}

/// The outcome of the pure negotiation decision — everything the
/// server picked, with no wire message attached.
///
/// This is the allocation-free core shared by [`respond_facts`] (which
/// additionally materialises the ServerHello) and callers that only
/// need the decision, like the active scanner's per-host hot loop:
/// probing millions of hosts cares about *what* the server chose, not
/// about the ServerHello bytes, and building the message would put a
/// heap allocation in every probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// The negotiated protocol version (resolving supported_versions).
    pub version: ProtocolVersion,
    /// The selected cipher suite.
    pub cipher: CipherSuite,
    /// The ECDHE group selected; `None` for non-(EC)DHE suites.
    pub curve: Option<NamedGroup>,
    /// True when both sides negotiated the Heartbeat extension (§5.4).
    pub heartbeat: bool,
}

/// Decide how `profile` answers a client described by `facts`, without
/// constructing the ServerHello. Performs no heap allocation.
pub fn decide(
    profile: &ServerProfile,
    facts: &ClientFacts<'_>,
) -> Result<Decision, HandshakeFailure> {
    let version = negotiate_version(profile, facts)?;
    let cipher = select_cipher(profile, facts, version)?;
    let curve = select_curve(profile, facts, cipher, version);
    let heartbeat = profile.heartbeat && facts.has_heartbeat && !version.is_tls13_family();
    Ok(Decision {
        version,
        cipher,
        curve,
        heartbeat,
    })
}

/// Negotiate a response to a client described by `facts` — the
/// allocation-light core of [`respond`].
pub fn respond_facts(
    profile: &ServerProfile,
    facts: &ClientFacts<'_>,
    server_random: [u8; 32],
) -> Result<Negotiated, HandshakeFailure> {
    let Decision {
        version,
        cipher,
        curve,
        heartbeat,
    } = decide(profile, facts)?;

    let mut extensions: Vec<Extension> = Vec::new();
    if version.is_tls13_family() {
        extensions.push(Extension::selected_version(version));
        if let Some(group) = curve {
            // TLS 1.3 carries the selected group in key_share.
            extensions.push(Extension::key_share_server(group));
        }
    }
    if facts.has_renegotiation_info && !version.is_tls13_family() {
        extensions.push(Extension::renegotiation_info());
    }
    if heartbeat {
        extensions.push(Extension::heartbeat(1));
    }

    let server_hello = ServerHello {
        legacy_version: if version.is_tls13_family() {
            ProtocolVersion::Tls12
        } else {
            version
        },
        random: server_random,
        session_id: facts.session_id.to_vec(),
        cipher_suite: cipher,
        compression_method: 0,
        extensions: if extensions.is_empty() && !facts.has_extensions {
            None
        } else {
            Some(extensions)
        },
    };

    Ok(Negotiated {
        server_hello,
        version,
        cipher,
        curve,
        heartbeat,
    })
}

/// Serialise the framed ServerHello for an already-made [`Decision`]
/// straight into `w` — no [`ServerHello`] struct, no extension vector,
/// no heap allocation beyond `w`'s own storage — so a caller holding a
/// decision (the generator, looking up a serialised-flight template by
/// [`Decision::template_key`]) builds the bytes without re-running
/// negotiation. Byte-identical to
/// `respond_facts(..)?.server_hello.write_handshake(w)` for the same
/// inputs (pinned by `write_decision_into_matches_respond_facts`).
pub fn write_decision_into(
    d: &Decision,
    facts: &ClientFacts<'_>,
    server_random: [u8; 32],
    w: &mut Writer,
) {
    let tls13 = d.version.is_tls13_family();
    // Mirrors respond_facts: the extension block appears when the
    // server has extensions to send, or when the client sent a block
    // (even an empty one) — in which case the server echoes an empty
    // block rather than omitting it.
    // (renegotiation_info itself is only *written* on the pre-1.3
    // branch below; for deciding whether a block appears at all the
    // version does not matter).
    let server_sends_exts = tls13 || facts.has_renegotiation_info || d.heartbeat;
    let has_block = server_sends_exts || facts.has_extensions;
    w.u8(handshake_type::SERVER_HELLO);
    w.vec24(|w| {
        let legacy = if tls13 {
            ProtocolVersion::Tls12
        } else {
            d.version
        };
        w.u16(legacy.to_wire());
        w.bytes(&server_random);
        w.vec8(|w| {
            w.bytes(facts.session_id);
        });
        w.u16(d.cipher.0);
        w.u8(0); // compression_method
        if has_block {
            w.vec16(|w| {
                if tls13 {
                    write_extension(w, ext_type::SUPPORTED_VERSIONS, |w| {
                        ext_body::selected_version(w, d.version)
                    });
                    if let Some(group) = d.curve {
                        write_extension(w, ext_type::KEY_SHARE, |w| {
                            ext_body::key_share_server(w, group)
                        });
                    }
                }
                if facts.has_renegotiation_info && !tls13 {
                    write_extension(
                        w,
                        ext_type::RENEGOTIATION_INFO,
                        ext_body::renegotiation_info,
                    );
                }
                if d.heartbeat {
                    write_extension(w, ext_type::HEARTBEAT, |w| ext_body::heartbeat(w, 1));
                }
            });
        }
    });
}

impl Decision {
    /// Pack this decision together with the client-echo facts that
    /// shape the ServerHello bytes into one u64 cache key.
    ///
    /// [`write_decision_into`] emits bytes that are a pure function of
    /// `(Decision, session id, has_renegotiation_info, has_extensions,
    /// server_random)`; with an empty session id (the only case the
    /// generator's template cache handles) everything but the random —
    /// which the template patches — is captured here, so equal keys
    /// mean bit-identical flights modulo the 32 random bytes.
    pub fn template_key(&self, facts: &ClientFacts<'_>) -> u64 {
        let curve = match self.curve {
            Some(g) => 0x1_0000 | u64::from(g.0),
            None => 0,
        };
        u64::from(self.version.to_wire())
            | u64::from(self.cipher.0) << 16
            | curve << 32
            | u64::from(self.heartbeat) << 49
            | u64::from(facts.has_renegotiation_info) << 50
            | u64::from(facts.has_extensions) << 51
    }
}

/// True for a GREASE value riding in a version list.
fn grease_version(v: ProtocolVersion) -> bool {
    matches!(v, ProtocolVersion::Unknown(x) if is_grease(x))
}

/// The classic version ladder a client without `supported_versions`
/// implicitly offers (everything from SSL 3 up to its legacy field).
const CLASSIC_VERSIONS: [ProtocolVersion; 4] = [
    ProtocolVersion::Ssl3,
    ProtocolVersion::Tls10,
    ProtocolVersion::Tls11,
    ProtocolVersion::Tls12,
];

fn negotiate_version(
    profile: &ServerProfile,
    facts: &ClientFacts<'_>,
) -> Result<ProtocolVersion, HandshakeFailure> {
    // TLS 1.3 path: exact-member match within the 1.3 family, mirroring
    // how draft deployments only interoperated on equal draft numbers.
    if let Some(server13) = profile.tls13 {
        let offered13 = match facts.supported_versions {
            Some(vs) => vs.iter().any(|v| !grease_version(*v) && *v == server13),
            None => false,
        };
        if offered13 {
            return Ok(server13);
        }
    }
    // Classic path: min(client max, server max), bounded below by both.
    let client_max = match facts.supported_versions {
        Some(vs) => vs
            .iter()
            .copied()
            .filter(|v| !grease_version(*v) && !v.is_tls13_family())
            .max_by_key(|v| v.rank()),
        None => CLASSIC_VERSIONS
            .into_iter()
            .filter(|v| v.rank() <= facts.legacy_version.rank())
            .max_by_key(|v| v.rank()),
    }
    .unwrap_or(facts.legacy_version);
    let chosen = if client_max.rank() <= profile.max_version.rank() {
        client_max
    } else {
        profile.max_version
    };
    if chosen.rank() < profile.min_version.rank() {
        return Err(HandshakeFailure::VersionMismatch);
    }
    Ok(chosen)
}

/// A suite is usable at `version` if it is not TLS 1.3-only below 1.3,
/// and AEAD suites require TLS 1.2+. One registry lookup; unregistered
/// code points are neither TLS 1.3 nor AEAD.
fn usable_at(cipher: CipherSuite, version: ProtocolVersion) -> bool {
    let (tls13, aead) = cipher.info().map_or((false, false), |i| {
        (i.kx == Kx::Tls13, i.enc.mode() == EncMode::Aead)
    });
    if version.is_tls13_family() {
        tls13
    } else {
        !tls13 && (!aead || version.rank() >= ProtocolVersion::Tls12.rank())
    }
}

fn select_cipher(
    profile: &ServerProfile,
    facts: &ClientFacts<'_>,
    version: ProtocolVersion,
) -> Result<CipherSuite, HandshakeFailure> {
    let usable = |c: &CipherSuite| !is_grease(c.0) && !c.is_signaling() && usable_at(*c, version);
    let offered = || facts.cipher_suites.iter().copied().filter(|c| usable(c));

    // Out-of-spec behaviours first.
    match profile.quirk {
        Quirk::ChooseUnoffered(s) => return Ok(s),
        Quirk::DowngradeRc4ToExport => {
            if offered().any(|c| c.0 == 0x0005 || c.0 == 0x0004) {
                // Interwise: answer RC4_128 with EXP_RC4_40_MD5 (§5.5).
                return Ok(CipherSuite(0x0003));
            }
        }
        Quirk::PreferRc4 => {
            if let Some(c) = offered().find(|c| c.is_rc4()) {
                return Ok(c);
            }
        }
        Quirk::Prefer3Des => {
            if let Some(c) = offered().find(|c| c.is_3des()) {
                return Ok(c);
            }
        }
        Quirk::PreferNull => {
            if let Some(c) = offered().find(|c| c.is_null_encryption()) {
                return Ok(c);
            }
        }
        Quirk::PreferAnon => {
            if let Some(c) = offered().find(|c| c.is_anon() || c.is_null_null()) {
                return Ok(c);
            }
        }
        Quirk::None => {}
    }

    // Offer membership is a code-point compare; a suite is classified
    // (`usable`, `ecdhe_feasible`: one registry lookup each) only once
    // it is a candidate on both sides.
    let candidate = |c: &CipherSuite| usable(c) && ecdhe_feasible(profile, facts, *c);
    let choice = if profile.prefer_server_order {
        profile
            .preference
            .iter()
            .find(|c| facts.cipher_suites.contains(c) && candidate(c))
    } else {
        facts
            .cipher_suites
            .iter()
            .find(|c| profile.preference.contains(c) && candidate(c))
    };
    choice.copied().ok_or(HandshakeFailure::NoCommonCipher)
}

/// The RFC 4492 default: clients without a supported_groups extension
/// are assumed to support the NIST trio.
const RFC4492_DEFAULT_CURVES: [NamedGroup; 3] = [
    NamedGroup::SECP256R1,
    NamedGroup::SECP384R1,
    NamedGroup::SECP521R1,
];

/// ECDHE suites need a curve both sides support.
fn common_curve(profile: &ServerProfile, facts: &ClientFacts<'_>) -> Option<NamedGroup> {
    let client_curves = facts.curves.unwrap_or(&RFC4492_DEFAULT_CURVES);
    // Server preference order wins (the common OpenSSL deployment).
    profile
        .curves
        .iter()
        .find(|g| client_curves.contains(g) && !is_grease(g.0))
        .copied()
}

fn ecdhe_feasible(profile: &ServerProfile, facts: &ClientFacts<'_>, cipher: CipherSuite) -> bool {
    match cipher.kx() {
        Some(Kx::Ecdhe) | Some(Kx::Ecdh) | Some(Kx::EcdhAnon) => {
            common_curve(profile, facts).is_some()
        }
        _ => true,
    }
}

fn select_curve(
    profile: &ServerProfile,
    facts: &ClientFacts<'_>,
    cipher: CipherSuite,
    version: ProtocolVersion,
) -> Option<NamedGroup> {
    let needs_curve = version.is_tls13_family()
        || matches!(
            cipher.kx(),
            Some(Kx::Ecdhe) | Some(Kx::Ecdh) | Some(Kx::EcdhAnon) | Some(Kx::EcdhePsk)
        );
    if needs_curve {
        common_curve(profile, facts)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::preference;

    fn hello(suites: &[u16], curves: Option<&[u16]>) -> ClientHello {
        let mut extensions = vec![Extension::renegotiation_info()];
        if let Some(cs) = curves {
            let groups: Vec<NamedGroup> = cs.iter().map(|&c| NamedGroup(c)).collect();
            extensions.push(Extension::supported_groups(&groups));
            extensions.push(Extension::ec_point_formats(&[0]));
        }
        ClientHello {
            legacy_version: ProtocolVersion::Tls12,
            random: [1; 32],
            session_id: vec![],
            cipher_suites: suites.iter().map(|&s| CipherSuite(s)).collect(),
            compression_methods: vec![0],
            extensions: Some(extensions),
        }
    }

    #[test]
    fn happy_path_modern() {
        let p = ServerProfile::baseline("t");
        let h = hello(&[0xc02b, 0xc02f, 0xc013, 0x000a], Some(&[29, 23]));
        let n = respond(&p, &h, [2; 32]).unwrap();
        assert_eq!(n.version, ProtocolVersion::Tls12);
        assert!(n.cipher.is_aead());
        assert_eq!(n.curve, Some(NamedGroup::SECP256R1));
        // ServerHello parses back.
        let bytes = n.server_hello.to_handshake_bytes();
        let parsed = ServerHello::parse_handshake(&bytes).unwrap();
        assert_eq!(parsed.cipher_suite, n.cipher);
    }

    #[test]
    fn server_order_vs_client_order() {
        let mut p = ServerProfile::baseline("t");
        // Client prefers 3DES first (weird client).
        let h = hello(&[0x000a, 0xc02f], Some(&[23]));
        p.prefer_server_order = true;
        assert!(respond(&p, &h, [0; 32]).unwrap().cipher.is_aead());
        p.prefer_server_order = false;
        assert!(respond(&p, &h, [0; 32]).unwrap().cipher.is_3des());
    }

    #[test]
    fn version_intersection() {
        let mut p = ServerProfile::baseline("t");
        p.max_version = ProtocolVersion::Tls10;
        p.preference = preference::cbc_era().into();
        let h = hello(&[0xc013, 0x002f], Some(&[23]));
        let n = respond(&p, &h, [0; 32]).unwrap();
        assert_eq!(n.version, ProtocolVersion::Tls10);

        // Old client, modern-but-strict server.
        let mut h10 = hello(&[0x002f], Some(&[23]));
        h10.legacy_version = ProtocolVersion::Ssl3;
        p.max_version = ProtocolVersion::Tls12;
        p.min_version = ProtocolVersion::Tls10;
        assert_eq!(
            respond(&p, &h10, [0; 32]),
            Err(HandshakeFailure::VersionMismatch)
        );
    }

    #[test]
    fn aead_gated_below_tls12() {
        let mut p = ServerProfile::baseline("t");
        p.max_version = ProtocolVersion::Tls11;
        // Client only offers AEAD → nothing usable at TLS 1.1.
        let h = hello(&[0xc02b, 0xc02f], Some(&[23]));
        assert_eq!(
            respond(&p, &h, [0; 32]),
            Err(HandshakeFailure::NoCommonCipher)
        );
        // With a CBC fallback it works.
        let h = hello(&[0xc02b, 0xc013], Some(&[23]));
        let n = respond(&p, &h, [0; 32]).unwrap();
        assert!(n.cipher.is_cbc());
    }

    #[test]
    fn tls13_exact_draft_match() {
        let mut p = ServerProfile::baseline("t");
        p.tls13 = Some(ProtocolVersion::Tls13Experiment(2));
        p.preference = {
            let mut pref = vec![CipherSuite(0x1301), CipherSuite(0x1303)];
            pref.extend(preference::modern());
            pref.into()
        };
        let mut h = hello(&[0x1301, 0x1303, 0xc02b, 0xc02f], Some(&[29, 23]));
        h.extensions
            .as_mut()
            .unwrap()
            .push(Extension::supported_versions(&[
                ProtocolVersion::Tls13Experiment(2),
                ProtocolVersion::Tls12,
            ]));
        let n = respond(&p, &h, [0; 32]).unwrap();
        assert_eq!(n.version, ProtocolVersion::Tls13Experiment(2));
        assert!(n.cipher.is_tls13());
        // The wire ServerHello keeps legacy 1.2 + supported_versions.
        assert_eq!(n.server_hello.legacy_version, ProtocolVersion::Tls12);
        assert_eq!(
            n.server_hello.negotiated_version(),
            ProtocolVersion::Tls13Experiment(2)
        );

        // Draft mismatch falls back to 1.2.
        p.tls13 = Some(ProtocolVersion::Tls13Draft(23));
        let n = respond(&p, &h, [0; 32]).unwrap();
        assert_eq!(n.version, ProtocolVersion::Tls12);
        assert!(!n.cipher.is_tls13());
    }

    #[test]
    fn ecdhe_requires_common_curve() {
        let mut p = ServerProfile::baseline("t");
        p.curves = vec![NamedGroup::X25519].into();
        // Client only does NIST curves → ECDHE infeasible, falls to RSA.
        let h = hello(&[0xc02f, 0x009c, 0x002f], Some(&[23, 24]));
        let n = respond(&p, &h, [0; 32]).unwrap();
        assert!(!matches!(n.cipher.kx(), Some(Kx::Ecdhe)));
        assert_eq!(n.curve, None);
    }

    #[test]
    fn curve_selection_server_preference() {
        let mut p = ServerProfile::baseline("t");
        p.curves = vec![NamedGroup::X25519, NamedGroup::SECP256R1].into();
        let h = hello(&[0xc02f], Some(&[23, 29]));
        let n = respond(&p, &h, [0; 32]).unwrap();
        assert_eq!(n.curve, Some(NamedGroup::X25519));
    }

    #[test]
    fn grease_and_scsv_never_selected() {
        let p = ServerProfile::baseline("t");
        let h = hello(&[0x2a2a, 0x00ff, 0x5600, 0xc02f], Some(&[23]));
        let n = respond(&p, &h, [0; 32]).unwrap();
        assert_eq!(n.cipher, CipherSuite(0xc02f));
    }

    #[test]
    fn quirk_choose_unoffered_gost() {
        let mut p = ServerProfile::baseline("t");
        p.quirk = Quirk::ChooseUnoffered(CipherSuite(0x0081));
        let h = hello(&[0xc02f], Some(&[23]));
        let n = respond(&p, &h, [0; 32]).unwrap();
        assert_eq!(n.cipher, CipherSuite(0x0081));
        assert!(!h.cipher_suites.contains(&n.cipher));
    }

    #[test]
    fn quirk_interwise_export_downgrade() {
        let mut p = ServerProfile::baseline("t");
        p.quirk = Quirk::DowngradeRc4ToExport;
        let h = hello(&[0x0005], Some(&[23]));
        let n = respond(&p, &h, [0; 32]).unwrap();
        assert_eq!(n.cipher, CipherSuite(0x0003));
        assert!(n.cipher.is_export());
    }

    #[test]
    fn quirk_prefer_rc4_despite_better() {
        let mut p = ServerProfile::baseline("t");
        p.quirk = Quirk::PreferRc4;
        let h = hello(&[0xc02f, 0xc011], Some(&[23]));
        assert!(respond(&p, &h, [0; 32]).unwrap().cipher.is_rc4());
        // Removing RC4 from the offer flips it to a modern AEAD cipher —
        // exactly the bankmellat.ir experiment from §5.3.
        let h = hello(&[0xc02f], Some(&[23]));
        assert!(respond(&p, &h, [0; 32]).unwrap().cipher.is_aead());
    }

    #[test]
    fn decide_agrees_with_respond() {
        let mut p = ServerProfile::baseline("t");
        p.heartbeat = true;
        let mut h = hello(&[0xc02b, 0xc02f, 0xc013, 0x0005, 0x000a], Some(&[29, 23]));
        h.extensions.as_mut().unwrap().push(Extension::heartbeat(1));
        for quirk in [Quirk::None, Quirk::PreferRc4, Quirk::Prefer3Des] {
            p.quirk = quirk;
            let n = respond(&p, &h, [7; 32]).unwrap();
            let versions = h
                .find_extension(ext_type::SUPPORTED_VERSIONS)
                .and_then(|e| e.parse_supported_versions().ok());
            let curves = h
                .find_extension(ext_type::SUPPORTED_GROUPS)
                .and_then(|e| e.parse_supported_groups().ok());
            let facts = ClientFacts {
                legacy_version: h.legacy_version,
                session_id: &h.session_id,
                cipher_suites: &h.cipher_suites,
                supported_versions: versions.as_deref(),
                curves: curves.as_deref(),
                has_renegotiation_info: h.find_extension(ext_type::RENEGOTIATION_INFO).is_some(),
                has_heartbeat: h.find_extension(ext_type::HEARTBEAT).is_some(),
                has_extensions: h.extensions.is_some(),
            };
            let d = decide(&p, &facts).unwrap();
            assert_eq!(d.version, n.version);
            assert_eq!(d.cipher, n.cipher);
            assert_eq!(d.curve, n.curve);
            assert_eq!(d.heartbeat, n.heartbeat);
        }
    }

    #[test]
    fn write_decision_into_matches_respond_facts() {
        // The borrowed writer must emit byte-identical framed
        // ServerHellos across every structural variant: classic,
        // TLS 1.3 (selected_version + key_share), heartbeat,
        // renegotiation_info, empty-block echo, and no block at all.
        let facts_variants: Vec<(&str, ClientFacts<'_>)> = vec![
            (
                "plain, no extensions",
                ClientFacts {
                    legacy_version: ProtocolVersion::Tls12,
                    session_id: &[],
                    cipher_suites: &[CipherSuite(0xc02f), CipherSuite(0x002f)],
                    supported_versions: None,
                    curves: None,
                    has_renegotiation_info: false,
                    has_heartbeat: false,
                    has_extensions: false,
                },
            ),
            (
                "empty block echo",
                ClientFacts {
                    legacy_version: ProtocolVersion::Tls12,
                    session_id: &[9, 9, 9],
                    cipher_suites: &[CipherSuite(0x002f)],
                    supported_versions: None,
                    curves: None,
                    has_renegotiation_info: false,
                    has_heartbeat: false,
                    has_extensions: true,
                },
            ),
            (
                "renego + heartbeat + curves",
                ClientFacts {
                    legacy_version: ProtocolVersion::Tls12,
                    session_id: &[1; 32],
                    cipher_suites: &[CipherSuite(0xc02b), CipherSuite(0xc013)],
                    supported_versions: None,
                    curves: Some(&[NamedGroup::X25519, NamedGroup::SECP256R1]),
                    has_renegotiation_info: true,
                    has_heartbeat: true,
                    has_extensions: true,
                },
            ),
            (
                "tls13 offer",
                ClientFacts {
                    legacy_version: ProtocolVersion::Tls12,
                    session_id: &[5; 8],
                    cipher_suites: &[CipherSuite(0x1301), CipherSuite(0xc02f)],
                    supported_versions: Some(&[
                        ProtocolVersion::Tls13Draft(23),
                        ProtocolVersion::Tls12,
                    ]),
                    curves: Some(&[NamedGroup::X25519]),
                    has_renegotiation_info: true,
                    has_heartbeat: false,
                    has_extensions: true,
                },
            ),
            (
                "old ssl3 client",
                ClientFacts {
                    legacy_version: ProtocolVersion::Ssl3,
                    session_id: &[],
                    cipher_suites: &[CipherSuite(0x0005), CipherSuite(0x000a)],
                    supported_versions: None,
                    curves: None,
                    has_renegotiation_info: false,
                    has_heartbeat: false,
                    has_extensions: false,
                },
            ),
        ];
        let mut profiles = vec![ServerProfile::baseline("a")];
        let mut hb = ServerProfile::baseline("b");
        hb.heartbeat = true;
        profiles.push(hb);
        let mut t13 = ServerProfile::baseline("c");
        t13.tls13 = Some(ProtocolVersion::Tls13Draft(23));
        t13.preference = {
            let mut pref = vec![CipherSuite(0x1301)];
            pref.extend(preference::modern());
            pref.into()
        };
        profiles.push(t13);
        let mut old = ServerProfile::baseline("d");
        old.max_version = ProtocolVersion::Tls10;
        old.preference = preference::cbc_era().into();
        profiles.push(old);
        for p in &profiles {
            for (name, facts) in &facts_variants {
                let owned = respond_facts(p, facts, [3; 32]);
                let mut w = Writer::new();
                let into =
                    decide(p, facts).inspect(|d| write_decision_into(d, facts, [3; 32], &mut w));
                match (owned, into) {
                    (Ok(n), Ok(d)) => {
                        let mut expect = Writer::new();
                        n.server_hello.write_handshake(&mut expect);
                        assert_eq!(
                            w.into_bytes(),
                            expect.into_bytes(),
                            "byte divergence: profile {} / {name}",
                            p.cohort
                        );
                        assert_eq!(
                            (d.version, d.cipher, d.curve, d.heartbeat),
                            (n.version, n.cipher, n.curve, n.heartbeat)
                        );
                    }
                    (Err(a), Err(b)) => assert_eq!(a, b),
                    (a, b) => panic!(
                        "outcome divergence: profile {} / {name}: {a:?} vs {b:?}",
                        p.cohort
                    ),
                }
            }
        }
    }

    #[test]
    fn heartbeat_negotiated_only_when_both_sides() {
        let mut p = ServerProfile::baseline("t");
        p.heartbeat = true;
        let mut h = hello(&[0xc02f], Some(&[23]));
        assert!(!respond(&p, &h, [0; 32]).unwrap().heartbeat);
        h.extensions.as_mut().unwrap().push(Extension::heartbeat(1));
        assert!(respond(&p, &h, [0; 32]).unwrap().heartbeat);
        p.heartbeat = false;
        assert!(!respond(&p, &h, [0; 32]).unwrap().heartbeat);
    }

    /// `usable_at` as two predicate calls (two registry lookups), kept
    /// verbatim as part of the reference below.
    fn reference_usable_at(cipher: CipherSuite, version: ProtocolVersion) -> bool {
        if version.is_tls13_family() {
            return cipher.is_tls13();
        }
        if cipher.is_tls13() {
            return false;
        }
        if cipher.is_aead() && version.rank() < ProtocolVersion::Tls12.rank() {
            return false;
        }
        true
    }

    /// The pairwise selection order `select_cipher` replaced, verbatim:
    /// every preference entry re-classifies the whole offer.
    fn reference_select_cipher(
        profile: &ServerProfile,
        facts: &ClientFacts<'_>,
        version: ProtocolVersion,
    ) -> Result<CipherSuite, HandshakeFailure> {
        let usable = |c: &CipherSuite| {
            !is_grease(c.0) && !c.is_signaling() && reference_usable_at(*c, version)
        };
        let offered = || facts.cipher_suites.iter().copied().filter(|c| usable(c));

        // Out-of-spec behaviours first.
        match profile.quirk {
            Quirk::ChooseUnoffered(s) => return Ok(s),
            Quirk::DowngradeRc4ToExport => {
                if offered().any(|c| c.0 == 0x0005 || c.0 == 0x0004) {
                    // Interwise: answer RC4_128 with EXP_RC4_40_MD5 (§5.5).
                    return Ok(CipherSuite(0x0003));
                }
            }
            Quirk::PreferRc4 => {
                if let Some(c) = offered().find(|c| c.is_rc4()) {
                    return Ok(c);
                }
            }
            Quirk::Prefer3Des => {
                if let Some(c) = offered().find(|c| c.is_3des()) {
                    return Ok(c);
                }
            }
            Quirk::PreferNull => {
                if let Some(c) = offered().find(|c| c.is_null_encryption()) {
                    return Ok(c);
                }
            }
            Quirk::PreferAnon => {
                if let Some(c) = offered().find(|c| c.is_anon() || c.is_null_null()) {
                    return Ok(c);
                }
            }
            Quirk::None => {}
        }

        let choice = if profile.prefer_server_order {
            profile
                .preference
                .iter()
                .find(|c| offered().any(|o| o == **c) && ecdhe_feasible(profile, facts, **c))
                .copied()
        } else {
            offered().find(|c| profile.preference.contains(c) && ecdhe_feasible(profile, facts, *c))
        };
        choice.ok_or(HandshakeFailure::NoCommonCipher)
    }

    /// [`decide`] with the reference selection in place of
    /// `select_cipher`.
    fn reference_decide(
        profile: &ServerProfile,
        facts: &ClientFacts<'_>,
    ) -> Result<Decision, HandshakeFailure> {
        let version = negotiate_version(profile, facts)?;
        let cipher = reference_select_cipher(profile, facts, version)?;
        Ok(Decision {
            version,
            cipher,
            curve: select_curve(profile, facts, cipher, version),
            heartbeat: profile.heartbeat && facts.has_heartbeat && !version.is_tls13_family(),
        })
    }

    mod selection_order {
        use super::*;
        use crate::cohorts::ParamsCache;
        use crate::population::{Destination, ServerPopulation};
        use proptest::prelude::*;
        use rand::rngs::SmallRng;
        use rand::{RngExt, SeedableRng};
        use tlscope_chron::Date;
        use tlscope_wire::grease::grease_value;
        use tlscope_wire::suites_table::SUITES;

        const DESTINATIONS: [Destination; 11] = [
            Destination::Web,
            Destination::Mail,
            Destination::Grid,
            Destination::Nagios,
            Destination::Sslv2Relic,
            Destination::Interwise,
            Destination::Gost,
            Destination::BankLegacy,
            Destination::Splunk,
            Destination::Enterprise,
            Destination::Iot,
        ];

        fn pick<T: Copy>(rng: &mut SmallRng, from: &[T]) -> T {
            from[rng.random_range(0..from.len())]
        }

        /// A code point from every population negotiation must handle:
        /// registered (the whole registry, or the server's own list so
        /// that offers overlap), TLS 1.3, GREASE, both SCSVs, and
        /// unregistered.
        fn suite(rng: &mut SmallRng, preference: &[CipherSuite]) -> CipherSuite {
            match rng.random_range(0..6u8) {
                0 => CipherSuite(pick(rng, SUITES).id),
                1 if !preference.is_empty() => pick(rng, preference),
                2 => CipherSuite(rng.random_range(0x1301..=0x1305u16)),
                3 => CipherSuite(grease_value(rng.random::<u8>())),
                4 => CipherSuite(pick(rng, &[0x00ff, 0x5600])),
                _ => loop {
                    let c = CipherSuite(rng.random::<u16>());
                    if c.info().is_none() && !is_grease(c.0) {
                        break c;
                    }
                },
            }
        }

        fn suites(rng: &mut SmallRng, max: usize, preference: &[CipherSuite]) -> Vec<CipherSuite> {
            let n = rng.random_range(0..=max);
            (0..n).map(|_| suite(rng, preference)).collect()
        }

        fn version(rng: &mut SmallRng) -> ProtocolVersion {
            match rng.random_range(0..10u8) {
                0 => ProtocolVersion::Ssl2,
                1 => ProtocolVersion::Ssl3,
                2 => ProtocolVersion::Tls10,
                3 => ProtocolVersion::Tls11,
                4 | 5 => ProtocolVersion::Tls12,
                6 => ProtocolVersion::Tls13,
                7 => ProtocolVersion::Tls13Draft(pick(rng, &[18, 23, 28])),
                8 => ProtocolVersion::Tls13Experiment(2),
                _ => ProtocolVersion::Unknown(grease_value(rng.random::<u8>())),
            }
        }

        fn groups(rng: &mut SmallRng) -> Vec<NamedGroup> {
            let n = rng.random_range(0..=5usize);
            (0..n)
                .map(|_| match rng.random_range(0..6u8) {
                    0 => NamedGroup::X25519,
                    1 => NamedGroup::SECP256R1,
                    2 => NamedGroup::SECP384R1,
                    3 => NamedGroup::SECP521R1,
                    4 => NamedGroup::SECT571R1,
                    _ => NamedGroup(grease_value(rng.random::<u8>())),
                })
                .collect()
        }

        /// An owned client offer; [`Offer::facts`] borrows it.
        #[derive(Debug)]
        struct Offer {
            legacy_version: ProtocolVersion,
            cipher_suites: Vec<CipherSuite>,
            supported_versions: Option<Vec<ProtocolVersion>>,
            curves: Option<Vec<NamedGroup>>,
            has_renegotiation_info: bool,
            has_heartbeat: bool,
        }

        impl Offer {
            fn arbitrary(rng: &mut SmallRng, preference: &[CipherSuite]) -> Offer {
                let versions = |rng: &mut SmallRng| {
                    let n = rng.random_range(0..=6usize);
                    (0..n).map(|_| version(rng)).collect()
                };
                Offer {
                    legacy_version: version(rng),
                    cipher_suites: suites(rng, 40, preference),
                    supported_versions: rng.random::<bool>().then(|| versions(rng)),
                    curves: rng.random::<bool>().then(|| groups(rng)),
                    has_renegotiation_info: rng.random(),
                    has_heartbeat: rng.random(),
                }
            }

            fn facts(&self) -> ClientFacts<'_> {
                ClientFacts {
                    legacy_version: self.legacy_version,
                    session_id: &[],
                    cipher_suites: &self.cipher_suites,
                    supported_versions: self.supported_versions.as_deref(),
                    curves: self.curves.as_deref(),
                    has_renegotiation_info: self.has_renegotiation_info,
                    has_heartbeat: self.has_heartbeat,
                    has_extensions: true,
                }
            }
        }

        /// A hand-built profile carrying `quirk` and `server_order`,
        /// everything else drawn.
        fn hand_built(rng: &mut SmallRng, quirk: Quirk, server_order: bool) -> ServerProfile {
            let (a, b) = (version(rng), version(rng));
            let (min_version, max_version) = if a.rank() <= b.rank() { (a, b) } else { (b, a) };
            let base = pick(
                rng,
                &[
                    preference::modern as fn() -> &'static [CipherSuite],
                    preference::cbc_era,
                    preference::rc4_first,
                    preference::grid,
                    preference::nagios,
                    preference::legacy_appliance,
                ],
            )();
            let mut pref = suites(rng, 8, &[]);
            pref.extend(base);
            ServerProfile {
                cohort: "hand-built",
                max_version,
                min_version,
                tls13: rng.random::<bool>().then(|| {
                    pick(
                        rng,
                        &[ProtocolVersion::Tls13Draft(18), ProtocolVersion::Tls13],
                    )
                }),
                preference: pref.into(),
                prefer_server_order: server_order,
                curves: groups(rng).into(),
                heartbeat: rng.random(),
                heartbleed_vulnerable: false,
                quirk,
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]
            #[test]
            fn decide_matches_the_pairwise_reference(seed in any::<u64>()) {
                let mut rng = SmallRng::seed_from_u64(seed);
                let pop = ServerPopulation::new();
                let mut cache = ParamsCache::default();
                let first = Date::ymd(2011, 1, 1).to_epoch_days();
                let last = Date::ymd(2018, 12, 31).to_epoch_days();
                let date = Date::from_epoch_days(rng.random_range(first..=last));

                let mut profiles = vec![pop.sample_host(&mut cache, date, &mut rng)];
                for dest in DESTINATIONS {
                    profiles.push(pop.sample_for_traffic(&mut cache, dest, date, &mut rng));
                }
                let unoffered = suite(&mut rng, &[]);
                for quirk in [
                    Quirk::None,
                    Quirk::ChooseUnoffered(unoffered),
                    Quirk::DowngradeRc4ToExport,
                    Quirk::PreferRc4,
                    Quirk::Prefer3Des,
                    Quirk::PreferNull,
                    Quirk::PreferAnon,
                ] {
                    for server_order in [true, false] {
                        profiles.push(hand_built(&mut rng, quirk, server_order));
                    }
                }

                for profile in &profiles {
                    for _ in 0..4 {
                        let offer = Offer::arbitrary(&mut rng, &profile.preference);
                        let facts = offer.facts();
                        prop_assert_eq!(
                            decide(profile, &facts),
                            reference_decide(profile, &facts),
                            "{:?} / {:?}",
                            profile,
                            offer
                        );
                    }
                }
            }
        }
    }
}
