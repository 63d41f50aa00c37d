//! Client specifications: a versioned TLS configuration plus the
//! machinery to emit genuine ClientHello wire bytes from it.
//!
//! A [`ClientSpec`] is one (software, version-range) row of the client
//! database — the unit the paper's fingerprint database labels. Its
//! [`TlsConfig`] captures everything a fingerprint can see: cipher order,
//! extension order, curves, point formats, GREASE behaviour, and the
//! version-negotiation style.

use tlscope_chron::Date;
use tlscope_fingerprint::{Category, Fingerprint};
use tlscope_wire::codec::{patch_bytes, patch_u16, Writer};
use tlscope_wire::exts::{ext_body, ext_type, write_extension};
use tlscope_wire::fxhash::splitmix64;
use tlscope_wire::grease::{grease_value, is_grease};
use tlscope_wire::handshake::handshake_type;
use tlscope_wire::{CipherSuite, ClientHello, Extension, NamedGroup, ProtocolVersion};

/// Full TLS configuration of one client version.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TlsConfig {
    /// The version field placed in the hello (maximum supported for
    /// pre-1.3 clients; pinned to 1.2 for 1.3-capable clients).
    pub legacy_version: ProtocolVersion,
    /// Versions advertised via `supported_versions`; empty for clients
    /// that use classic version negotiation.
    pub supported_versions: Vec<ProtocolVersion>,
    /// Minimum version the client will fall back to.
    pub min_version: ProtocolVersion,
    /// Cipher suites in preference order (SCSVs included if sent).
    pub ciphers: Vec<CipherSuite>,
    /// Extension types in hello order.
    pub extensions: Vec<u16>,
    /// `supported_groups` body.
    pub curves: Vec<NamedGroup>,
    /// `ec_point_formats` body.
    pub point_formats: Vec<u8>,
    /// Compression methods offered.
    pub compression: Vec<u8>,
    /// Whether the client GREASEs its hello (Chrome ≥ 55).
    pub grease: bool,
    /// Heartbeat mode advertised, if the heartbeat extension is listed
    /// (1 = peer_allowed_to_send). OpenSSL-linked clients set this.
    pub heartbeat_mode: u8,
}

impl TlsConfig {
    /// Build the ClientHello this configuration emits.
    ///
    /// `entropy` supplies all nondeterminism (random bytes, session id,
    /// GREASE draws) so that hello construction itself is deterministic
    /// and testable.
    pub fn build_hello(&self, sni: Option<&str>, entropy: &HelloEntropy) -> ClientHello {
        let mut ciphers: Vec<CipherSuite> = Vec::with_capacity(self.ciphers.len() + 1);
        if self.grease {
            ciphers.push(CipherSuite(grease_value(entropy.grease_draws[0])));
        }
        ciphers.extend(self.ciphers.iter().copied());

        let mut exts: Vec<Extension> = Vec::with_capacity(self.extensions.len() + 2);
        if self.grease {
            exts.push(Extension::empty(grease_value(entropy.grease_draws[1])));
        }
        for &t in &self.extensions {
            exts.push(self.materialise_extension(t, sni, entropy));
        }
        if self.grease {
            // Chrome places a second GREASE extension at the end,
            // followed by padding; we keep just the extension.
            exts.push(Extension::empty(grease_value(
                entropy.grease_draws[2].wrapping_add(1),
            )));
        }

        ClientHello {
            legacy_version: self.legacy_version,
            random: entropy.random,
            session_id: entropy.session_id.clone(),
            cipher_suites: ciphers,
            compression_methods: self.compression.clone(),
            extensions: if self.extensions.is_empty() && !self.grease {
                // Truly extension-free hello (pre-TLS or minimal stacks).
                None
            } else {
                Some(exts)
            },
        }
    }

    fn materialise_extension(
        &self,
        typ: u16,
        sni: Option<&str>,
        entropy: &HelloEntropy,
    ) -> Extension {
        match typ {
            ext_type::SERVER_NAME => Extension::server_name(sni.unwrap_or("example.com")),
            ext_type::SUPPORTED_GROUPS => {
                let mut curves = self.curves.clone();
                if self.grease {
                    curves.insert(0, NamedGroup(grease_value(entropy.grease_draws[3])));
                }
                Extension::supported_groups(&curves)
            }
            ext_type::EC_POINT_FORMATS => Extension::ec_point_formats(&self.point_formats),
            ext_type::SUPPORTED_VERSIONS => {
                let mut vs = self.supported_versions.clone();
                if self.grease {
                    vs.insert(
                        0,
                        ProtocolVersion::Unknown(grease_value(entropy.grease_draws[0])),
                    );
                }
                Extension::supported_versions(&vs)
            }
            ext_type::HEARTBEAT => Extension::heartbeat(self.heartbeat_mode),
            ext_type::RENEGOTIATION_INFO => Extension::renegotiation_info(),
            ext_type::SIGNATURE_ALGORITHMS => {
                // A representative (hash, sig) list; content does not
                // feed the 4-feature fingerprint.
                Extension::signature_algorithms(&[
                    0x0403, 0x0503, 0x0603, 0x0401, 0x0501, 0x0601, 0x0201,
                ])
            }
            ext_type::ALPN => Extension::alpn(&["h2", "http/1.1"]),
            other => Extension::empty(other),
        }
    }

    /// Fill `out` with the on-wire cipher-suite order this configuration
    /// emits (GREASE prepended when applicable), reusing the buffer.
    pub fn hello_ciphers_into(&self, entropy: &HelloEntropy, out: &mut Vec<CipherSuite>) {
        out.clear();
        if self.grease {
            out.push(CipherSuite(grease_value(entropy.grease_draws[0])));
        }
        out.extend(self.ciphers.iter().copied());
    }

    /// Append the framed ClientHello handshake message to `w` —
    /// byte-identical to `build_hello(sni, entropy).to_handshake_bytes()`
    /// with `ciphers` as the suite list — without materialising a
    /// [`ClientHello`] or any [`Extension`].
    ///
    /// `ciphers` is the final on-wire suite order, normally produced by
    /// [`TlsConfig::hello_ciphers_into`] (the caller may reorder it, as
    /// the cipher-shuffling client does).
    pub fn write_hello_into(
        &self,
        sni: Option<&str>,
        entropy: &HelloEntropy,
        ciphers: &[CipherSuite],
        w: &mut Writer,
    ) {
        self.write_hello_recording(sni, entropy, ciphers, w);
    }

    /// [`TlsConfig::write_hello_into`], additionally recording the
    /// offsets of every volatile byte range into a [`HelloPatches`] —
    /// the single serialiser behind both, so the patch map can never
    /// drift from the bytes it describes. Offsets are absolute
    /// positions in `w`'s buffer; callers start from an empty buffer.
    pub fn write_hello_recording(
        &self,
        sni: Option<&str>,
        entropy: &HelloEntropy,
        ciphers: &[CipherSuite],
        w: &mut Writer,
    ) -> HelloPatches {
        let mut patches = HelloPatches::default();
        w.u8(handshake_type::CLIENT_HELLO);
        w.vec24(|w| {
            w.u16(self.legacy_version.to_wire());
            patches.random = w.len();
            w.bytes(&entropy.random);
            patches.session_id = w.len() + 1;
            patches.session_id_len = entropy.session_id.len();
            w.vec8(|w| {
                w.bytes(&entropy.session_id);
            });
            w.vec16(|w| {
                for c in ciphers {
                    if patches.grease_cipher.is_none() && is_grease(c.0) {
                        patches.grease_cipher = Some(w.len());
                    }
                    w.u16(c.0);
                }
            });
            w.vec8(|w| {
                w.bytes(&self.compression);
            });
            if !self.extensions.is_empty() || self.grease {
                w.vec16(|w| {
                    if self.grease {
                        patches.grease_ext1 = Some(w.len());
                        write_extension(w, grease_value(entropy.grease_draws[1]), |_| {});
                    }
                    for &t in &self.extensions {
                        self.write_one_extension(w, t, sni, entropy, &mut patches);
                    }
                    if self.grease {
                        patches.grease_ext2 = Some(w.len());
                        write_extension(
                            w,
                            grease_value(entropy.grease_draws[2].wrapping_add(1)),
                            |_| {},
                        );
                    }
                });
            }
        });
        patches
    }

    /// Write one extension the way `materialise_extension` builds it,
    /// straight into `w`.
    fn write_one_extension(
        &self,
        w: &mut Writer,
        typ: u16,
        sni: Option<&str>,
        entropy: &HelloEntropy,
        patches: &mut HelloPatches,
    ) {
        match typ {
            ext_type::SERVER_NAME => write_extension(w, typ, |w| {
                ext_body::server_name(w, sni.unwrap_or("example.com"));
            }),
            ext_type::SUPPORTED_GROUPS => write_extension(w, typ, |w| {
                // The GREASE entry leads the vec16 list: 2 length
                // bytes, then the value.
                let grease = self.grease.then(|| {
                    patches.grease_group = Some(w.len() + 2);
                    grease_value(entropy.grease_draws[3])
                });
                ext_body::supported_groups(
                    w,
                    grease.into_iter().chain(self.curves.iter().map(|g| g.0)),
                );
            }),
            ext_type::EC_POINT_FORMATS => write_extension(w, typ, |w| {
                ext_body::ec_point_formats(w, &self.point_formats);
            }),
            ext_type::SUPPORTED_VERSIONS => write_extension(w, typ, |w| {
                // The GREASE entry leads the vec8 list: 1 length byte,
                // then the value.
                let grease = self.grease.then(|| {
                    patches.grease_supported_version = Some(w.len() + 1);
                    grease_value(entropy.grease_draws[0])
                });
                ext_body::supported_versions(
                    w,
                    grease
                        .into_iter()
                        .chain(self.supported_versions.iter().map(|v| v.to_wire())),
                );
            }),
            ext_type::HEARTBEAT => write_extension(w, typ, |w| {
                ext_body::heartbeat(w, self.heartbeat_mode);
            }),
            ext_type::RENEGOTIATION_INFO => write_extension(w, typ, |w| {
                ext_body::renegotiation_info(w);
            }),
            ext_type::SIGNATURE_ALGORITHMS => write_extension(w, typ, |w| {
                ext_body::signature_algorithms(
                    w,
                    &[0x0403, 0x0503, 0x0603, 0x0401, 0x0501, 0x0601, 0x0201],
                );
            }),
            ext_type::ALPN => write_extension(w, typ, |w| {
                ext_body::alpn(w, &["h2", "http/1.1"]);
            }),
            other => write_extension(w, other, |_| {}),
        }
    }

    /// The fingerprint this configuration produces (GREASE draws do not
    /// affect it, by construction of the fingerprint extractor).
    pub fn fingerprint(&self) -> Fingerprint {
        Fingerprint::from_client_hello(&self.build_hello(None, &HelloEntropy::zero()))
    }

    // ---- classification helpers used by the client-config tables ----

    /// Count of offered suites satisfying `pred` (SCSVs never counted).
    pub fn count_ciphers(&self, pred: impl Fn(CipherSuite) -> bool) -> usize {
        self.ciphers
            .iter()
            .filter(|c| !c.is_signaling() && pred(**c))
            .count()
    }

    /// Number of CBC suites offered (Table 3).
    pub fn cbc_count(&self) -> usize {
        self.count_ciphers(|c| c.is_cbc())
    }

    /// Number of RC4 suites offered (Table 4).
    pub fn rc4_count(&self) -> usize {
        self.count_ciphers(|c| c.is_rc4())
    }

    /// Number of 3DES suites offered (Table 5).
    pub fn tdes_count(&self) -> usize {
        self.count_ciphers(|c| c.is_3des())
    }

    /// True if any offered suite is AEAD.
    pub fn offers_aead(&self) -> bool {
        self.ciphers.iter().any(|c| c.is_aead())
    }

    /// True if the client supports version `v` (or, for the TLS 1.3
    /// family, any 1.3 draft/experiment — drafts count as 1.3 support).
    pub fn supports_version(&self, v: ProtocolVersion) -> bool {
        if v.is_tls13_family() {
            return self
                .supported_versions
                .iter()
                .any(|sv| sv.is_tls13_family());
        }
        if self
            .supported_versions
            .iter()
            .any(|sv| sv.rank() >= v.rank())
        {
            return true;
        }
        self.legacy_version.rank() >= v.rank() && v.rank() >= self.min_version.rank()
    }
}

/// The patch map of a serialised ClientHello template: byte offsets of
/// every range that varies per connection while the rest of the
/// message stays bit-identical for a given `(config, sni)` pair.
///
/// Recorded by [`TlsConfig::write_hello_recording`]; applying the map
/// to a cached copy of those bytes with fresh [`HelloEntropy`]
/// reproduces exactly what a fresh serialisation would emit — the
/// template side of the hello cache. Validity requires the new
/// entropy's session id to have the recorded length ([`Self::matches`])
/// and the GREASE suite slot (if any) to sit at the recorded position,
/// which holds for every stable-order client configuration.
#[derive(Debug, Clone, Default)]
pub struct HelloPatches {
    /// Offset of the 32-byte client random.
    pub random: usize,
    /// Offset of the session-id content bytes (its length byte, part
    /// of the stable template, precedes it).
    pub session_id: usize,
    /// Length of the session id the template was recorded with.
    pub session_id_len: usize,
    /// Offset of the GREASE cipher-suite slot, when the config GREASEs.
    pub grease_cipher: Option<usize>,
    /// Offset of the leading GREASE extension's type field.
    pub grease_ext1: Option<usize>,
    /// Offset of the trailing GREASE extension's type field.
    pub grease_ext2: Option<usize>,
    /// Offset of the GREASE entry in `supported_versions`.
    pub grease_supported_version: Option<usize>,
    /// Offset of the GREASE entry in `supported_groups`.
    pub grease_group: Option<usize>,
}

impl HelloPatches {
    /// Shift every recorded offset by `delta` — used when the template
    /// bytes gain a prefix after recording (the 5-byte record header
    /// the generator wraps around a single-record hello).
    pub fn shift(&mut self, delta: usize) {
        self.random += delta;
        self.session_id += delta;
        for slot in [
            &mut self.grease_cipher,
            &mut self.grease_ext1,
            &mut self.grease_ext2,
            &mut self.grease_supported_version,
            &mut self.grease_group,
        ]
        .into_iter()
        .flatten()
        {
            *slot += delta;
        }
    }

    /// True when a template recorded with this map can be re-entropied
    /// with `entropy` (the session id must keep its recorded length —
    /// a different length would move every later offset).
    pub fn matches(&self, entropy: &HelloEntropy) -> bool {
        entropy.session_id.len() == self.session_id_len
    }

    /// Rewrite the volatile ranges of `buf` (a copy of the template
    /// bytes) for `entropy`, reproducing a fresh serialisation. The
    /// GREASE draw mapping mirrors [`TlsConfig::write_hello_recording`]:
    /// draw 0 feeds both the cipher slot and `supported_versions`,
    /// draw 1 the leading and draw 2 (+1) the trailing GREASE
    /// extension, draw 3 `supported_groups`.
    pub fn apply(&self, buf: &mut [u8], entropy: &HelloEntropy) {
        debug_assert!(self.matches(entropy), "session-id length changed");
        let draws = &entropy.grease_draws;
        patch_bytes(buf, self.random, &entropy.random);
        patch_bytes(buf, self.session_id, &entropy.session_id);
        if let Some(off) = self.grease_cipher {
            patch_u16(buf, off, grease_value(draws[0]));
        }
        if let Some(off) = self.grease_ext1 {
            patch_u16(buf, off, grease_value(draws[1]));
        }
        if let Some(off) = self.grease_ext2 {
            patch_u16(buf, off, grease_value(draws[2].wrapping_add(1)));
        }
        if let Some(off) = self.grease_supported_version {
            patch_u16(buf, off, grease_value(draws[0]));
        }
        if let Some(off) = self.grease_group {
            patch_u16(buf, off, grease_value(draws[3]));
        }
    }
}

/// All nondeterministic inputs to hello construction.
#[derive(Debug, Clone)]
pub struct HelloEntropy {
    /// The 32-byte client random.
    pub random: [u8; 32],
    /// Session id to resume (usually empty or 32 bytes).
    pub session_id: Vec<u8>,
    /// GREASE draw indices (used only when the config GREASEs).
    pub grease_draws: [u8; 4],
}

impl HelloEntropy {
    /// Deterministic all-zero entropy; used for fingerprint extraction.
    pub fn zero() -> Self {
        HelloEntropy {
            random: [0; 32],
            session_id: Vec::new(),
            grease_draws: [0; 4],
        }
    }

    /// Derive entropy from a seed using SplitMix64 — cheap, stateless,
    /// and reproducible across the whole simulation.
    pub fn from_seed(seed: u64) -> Self {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e3779b97f4a7c15);
            splitmix64(state)
        };
        let mut random = [0u8; 32];
        for chunk in random.chunks_mut(8) {
            chunk.copy_from_slice(&next().to_le_bytes());
        }
        let draws = next().to_le_bytes();
        HelloEntropy {
            random,
            session_id: Vec::new(),
            grease_draws: [draws[0], draws[1], draws[2], draws[3]],
        }
    }
}

/// One labelled client: software identity plus the configuration it
/// shipped in a version range.
#[derive(Debug, Clone)]
pub struct ClientSpec {
    /// Software name ("Firefox", "OpenSSL", "Android SDK", ...).
    pub name: &'static str,
    /// Fingerprint-database category.
    pub category: Category,
    /// Version label for this configuration era ("27-32").
    pub versions: &'static str,
    /// Date this configuration started shipping.
    pub released: Date,
    /// The TLS configuration.
    pub tls: TlsConfig,
}

impl ClientSpec {
    /// The fingerprint-database label for this spec.
    pub fn label(&self) -> tlscope_fingerprint::Label {
        tlscope_fingerprint::Label::new(self.name, self.category, self.versions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(grease: bool) -> TlsConfig {
        TlsConfig {
            legacy_version: ProtocolVersion::Tls12,
            supported_versions: vec![],
            min_version: ProtocolVersion::Tls10,
            ciphers: vec![
                CipherSuite(0xc02b),
                CipherSuite(0xc02f),
                CipherSuite(0xc013),
                CipherSuite(0x000a),
            ],
            extensions: vec![
                ext_type::SERVER_NAME,
                ext_type::RENEGOTIATION_INFO,
                ext_type::SUPPORTED_GROUPS,
                ext_type::EC_POINT_FORMATS,
                ext_type::SESSION_TICKET,
                ext_type::SIGNATURE_ALGORITHMS,
            ],
            curves: vec![NamedGroup::X25519, NamedGroup::SECP256R1],
            point_formats: vec![0],
            compression: vec![0],
            grease,
            heartbeat_mode: 1,
        }
    }

    #[test]
    fn hello_roundtrips_through_wire() {
        let cfg = config(false);
        let hello = cfg.build_hello(Some("mozilla.org"), &HelloEntropy::from_seed(7));
        let parsed = ClientHello::parse_handshake(&hello.to_handshake_bytes()).unwrap();
        assert_eq!(parsed, hello);
        assert_eq!(
            parsed
                .find_extension(ext_type::SERVER_NAME)
                .unwrap()
                .parse_server_name()
                .unwrap(),
            "mozilla.org"
        );
    }

    #[test]
    fn grease_draws_do_not_change_fingerprint() {
        let cfg = config(true);
        let fp1 =
            Fingerprint::from_client_hello(&cfg.build_hello(None, &HelloEntropy::from_seed(1)));
        let fp2 =
            Fingerprint::from_client_hello(&cfg.build_hello(None, &HelloEntropy::from_seed(999)));
        assert_eq!(fp1, fp2);
        assert_eq!(fp1, cfg.fingerprint());
    }

    #[test]
    fn grease_and_plain_configs_share_visible_fingerprint() {
        // Stripping GREASE makes the greased config's fingerprint equal
        // to the plain one's — that is the point of stripping.
        assert_eq!(config(true).fingerprint(), config(false).fingerprint());
    }

    #[test]
    fn grease_values_present_on_wire() {
        let cfg = config(true);
        let hello = cfg.build_hello(None, &HelloEntropy::from_seed(3));
        assert!(tlscope_wire::is_grease(hello.cipher_suites[0].0));
        let ext_types: Vec<u16> = hello.extensions().iter().map(|e| e.typ).collect();
        assert!(ext_types.iter().any(|t| tlscope_wire::is_grease(*t)));
    }

    #[test]
    fn cipher_census_helpers() {
        let cfg = config(false);
        // cbc_count follows the Table 3 convention: all CBC-mode suites
        // including 3DES.
        assert_eq!(cfg.cbc_count(), 2);
        assert_eq!(cfg.rc4_count(), 0);
        assert_eq!(cfg.tdes_count(), 1);
        assert!(cfg.offers_aead());
    }

    #[test]
    fn scsv_not_counted_as_cipher() {
        let mut cfg = config(false);
        cfg.ciphers.push(CipherSuite(0x00ff));
        assert_eq!(cfg.count_ciphers(|c| c.is_null_encryption()), 0);
    }

    #[test]
    fn version_support_classic() {
        let cfg = config(false);
        assert!(cfg.supports_version(ProtocolVersion::Tls12));
        assert!(cfg.supports_version(ProtocolVersion::Tls10));
        assert!(!cfg.supports_version(ProtocolVersion::Tls13));
        assert!(!cfg.supports_version(ProtocolVersion::Ssl3)); // below min
    }

    #[test]
    fn version_support_tls13_style() {
        let mut cfg = config(false);
        cfg.supported_versions = vec![ProtocolVersion::Tls13Draft(18), ProtocolVersion::Tls12];
        cfg.extensions.push(ext_type::SUPPORTED_VERSIONS);
        assert!(cfg.supports_version(ProtocolVersion::Tls13));
        let hello = cfg.build_hello(None, &HelloEntropy::zero());
        assert!(hello.offers_tls13());
    }

    #[test]
    fn write_hello_into_matches_build_hello_across_catalog() {
        // The allocation-free serialiser must be byte-identical to the
        // materialise-then-serialise path for every catalogued
        // configuration, with and without SNI, greased or not.
        let mut ciphers = Vec::new();
        for fam in crate::catalog::all_families() {
            for era in &fam.eras {
                for sni in [None, Some("mozilla.org")] {
                    for seed in [0u64, 7, 0xDEAD_BEEF] {
                        let entropy = HelloEntropy::from_seed(seed);
                        let want = era.tls.build_hello(sni, &entropy).to_handshake_bytes();
                        era.tls.hello_ciphers_into(&entropy, &mut ciphers);
                        let mut w = Writer::new();
                        era.tls.write_hello_into(sni, &entropy, &ciphers, &mut w);
                        assert_eq!(
                            w.into_bytes(),
                            want,
                            "{} {} sni={sni:?} seed={seed}",
                            fam.name,
                            era.versions
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn patched_template_matches_fresh_serialisation_across_catalog() {
        // Record a template with one entropy draw, then re-entropy the
        // cached bytes through the patch map for other draws: the
        // result must be byte-identical to serialising from scratch,
        // for every catalogued configuration. This is the invariant
        // the generation-side template cache rests on.
        let mut ciphers = Vec::new();
        for fam in crate::catalog::all_families() {
            for era in &fam.eras {
                for sni in [None, Some("mozilla.org")] {
                    let base = HelloEntropy::from_seed(11);
                    era.tls.hello_ciphers_into(&base, &mut ciphers);
                    let mut w = Writer::new();
                    let patches = era.tls.write_hello_recording(sni, &base, &ciphers, &mut w);
                    let template = w.into_bytes();
                    for seed in [0u64, 7, 0xDEAD_BEEF, u64::MAX] {
                        let entropy = HelloEntropy::from_seed(seed);
                        assert!(patches.matches(&entropy));
                        let mut patched = template.clone();
                        patches.apply(&mut patched, &entropy);
                        era.tls.hello_ciphers_into(&entropy, &mut ciphers);
                        let mut fresh = Writer::new();
                        era.tls
                            .write_hello_into(sni, &entropy, &ciphers, &mut fresh);
                        assert_eq!(
                            patched,
                            fresh.into_bytes(),
                            "{} {} sni={sni:?} seed={seed}",
                            fam.name,
                            era.versions
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn patch_shift_moves_every_offset() {
        let cfg = config(true);
        let entropy = HelloEntropy::from_seed(5);
        let mut ciphers = Vec::new();
        cfg.hello_ciphers_into(&entropy, &mut ciphers);
        let mut w = Writer::new();
        let mut patches = cfg.write_hello_recording(None, &entropy, &ciphers, &mut w);
        let bytes = w.into_bytes();
        let random = patches.random;
        let grease_cipher = patches.grease_cipher.unwrap();
        // The recorded cipher slot really holds the GREASE value.
        assert!(tlscope_wire::is_grease(u16::from_be_bytes([
            bytes[grease_cipher],
            bytes[grease_cipher + 1],
        ])));
        assert_eq!(&bytes[random..random + 32], &entropy.random);
        patches.shift(5);
        assert_eq!(patches.random, random + 5);
        assert_eq!(patches.grease_cipher, Some(grease_cipher + 5));
    }

    #[test]
    fn hello_ciphers_into_reuses_buffer() {
        let cfg = config(true);
        let entropy = HelloEntropy::from_seed(5);
        let mut buf = vec![CipherSuite(0xdead); 32];
        cfg.hello_ciphers_into(&entropy, &mut buf);
        assert_eq!(buf.len(), cfg.ciphers.len() + 1);
        assert!(tlscope_wire::is_grease(buf[0].0));
        assert_eq!(&buf[1..], &cfg.ciphers[..]);
    }

    #[test]
    fn entropy_is_deterministic() {
        assert_eq!(
            HelloEntropy::from_seed(42).random,
            HelloEntropy::from_seed(42).random
        );
        assert_ne!(
            HelloEntropy::from_seed(42).random,
            HelloEntropy::from_seed(43).random
        );
    }
}
