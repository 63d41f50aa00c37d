//! Server profiles: everything a simulated TLS endpoint needs to answer
//! a ClientHello.
//!
//! Profiles carry the configuration axes the paper's active scans
//! measure — version range (SSL 3 support, §5.1), cipher preference
//! order and server-vs-client preference (the "servers choosing CBC/RC4/
//! 3DES" Censys numbers), Heartbeat support and Heartbleed
//! vulnerability (§5.4) — plus the out-of-spec quirks the paper catches
//! in the wild (§5.5, §7.3).

use std::borrow::Cow;

use tlscope_wire::{CipherSuite, NamedGroup, ProtocolVersion};

/// Out-of-spec server behaviours observed in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Quirk {
    /// Standards-compliant server.
    None,
    /// Chooses a suite the client never offered (the GOST and anonymous
    /// NULL servers of §7.3).
    ChooseUnoffered(CipherSuite),
    /// Interwise behaviour (§5.5): client offers `RSA_WITH_RC4_128_SHA`,
    /// server answers with `RSA_EXPORT_WITH_RC4_40_MD5`.
    DowngradeRc4ToExport,
    /// Chooses RC4 whenever offered, despite stronger common options
    /// (the bankmellat.ir case, §5.3).
    PreferRc4,
    /// Chooses a 3DES suite whenever offered despite stronger options
    /// (the long-tail servers behind the Censys 3DES numbers, §5.6).
    Prefer3Des,
    /// Chooses NULL encryption whenever offered (GRID endpoints, §6.1).
    PreferNull,
    /// Chooses anonymous suites whenever offered (Nagios, §6.2).
    PreferAnon,
}

/// A simulated server endpoint configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerProfile {
    /// Cohort label (for diagnostics and aggregation).
    pub cohort: &'static str,
    /// Highest classic protocol version supported.
    pub max_version: ProtocolVersion,
    /// Lowest protocol version accepted (SSL 3 support means
    /// `min_version <= Ssl3`).
    pub min_version: ProtocolVersion,
    /// TLS 1.3 (draft/experiment) version supported, if any. Negotiated
    /// only when the client advertises the same family member.
    pub tls13: Option<ProtocolVersion>,
    /// Server cipher preference, best first. Sampled profiles borrow a
    /// `'static` list; only tests build owned ones.
    pub preference: Cow<'static, [CipherSuite]>,
    /// True: honour server order; false: honour client order.
    pub prefer_server_order: bool,
    /// Elliptic-curve groups the server can do ECDHE on, borrowed like
    /// `preference`.
    pub curves: Cow<'static, [NamedGroup]>,
    /// Whether the server supports (and echoes) the Heartbeat extension.
    pub heartbeat: bool,
    /// Whether the server runs an unpatched OpenSSL 1.0.1 (Heartbleed).
    pub heartbleed_vulnerable: bool,
    /// Out-of-spec behaviour.
    pub quirk: Quirk,
}

/// Every input [`crate::negotiate::decide`] reads from a
/// [`ServerProfile`], as one exact `Copy` key: equal keys mean equal
/// decisions for every client.
///
/// The scalar fields are held by value, the preference and curve lists
/// by the address and length of their `'static` borrow. A `'static`
/// slice of plain values is never freed, moved or changed, so one
/// address and length name one content for the life of the process;
/// two equal lists at different addresses make two keys, a memo miss
/// but never a wrong answer. No hash stands in for a value, so no
/// collision can merge two configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NegotiationKey {
    max_version: ProtocolVersion,
    min_version: ProtocolVersion,
    tls13: Option<ProtocolVersion>,
    prefer_server_order: bool,
    heartbeat: bool,
    quirk: Quirk,
    /// The preference list's address and length.
    preference: (usize, usize),
    /// The curve list's address and length.
    curves: (usize, usize),
}

impl ServerProfile {
    /// The exact key of everything negotiation reads from this profile,
    /// or `None` when a list is owned (only tests build one): an owned
    /// list has no lasting address, so its profile is decided directly.
    /// `cohort` and `heartbleed_vulnerable` are left out; no decision
    /// reads them.
    pub fn negotiation_key(&self) -> Option<NegotiationKey> {
        // An exhaustive pattern: a new field fails to compile here until
        // it is keyed or named as unread.
        let ServerProfile {
            cohort: _,
            max_version,
            min_version,
            tls13,
            preference,
            prefer_server_order,
            curves,
            heartbeat,
            heartbleed_vulnerable: _,
            quirk,
        } = self;
        let (Cow::Borrowed(preference), Cow::Borrowed(curves)) = (preference, curves) else {
            return None;
        };
        Some(NegotiationKey {
            max_version: *max_version,
            min_version: *min_version,
            tls13: *tls13,
            prefer_server_order: *prefer_server_order,
            heartbeat: *heartbeat,
            quirk: *quirk,
            preference: (preference.as_ptr() as usize, preference.len()),
            curves: (curves.as_ptr() as usize, curves.len()),
        })
    }

    /// True when SSL 3 handshakes are accepted.
    pub fn supports_ssl3(&self) -> bool {
        self.min_version.rank() <= ProtocolVersion::Ssl3.rank()
    }

    /// Relative scan-flake rate for this server's cohort: the
    /// multiplier a scanner's transient-failure probability is scaled
    /// by when probing this host. Professionally operated fleets
    /// (major web properties, CDNs) flake less than baseline; embedded
    /// and relic boxes flake more; the long tail sits in between. Used
    /// by the active scanner's fault model — a reachability hook, not
    /// a handshake property, so it never affects negotiation.
    pub fn scan_flake_bias(&self) -> f64 {
        match self.cohort {
            "major-web" | "cdn" => 0.25,
            "iot" | "sslv2-relic" | "bank-legacy" => 3.0,
            "long-tail-web" | "grid" | "interwise" | "gost" => 1.5,
            _ => 1.0,
        }
    }

    /// A compliant, conservative default used as a base in tests.
    pub fn baseline(cohort: &'static str) -> Self {
        ServerProfile {
            cohort,
            max_version: ProtocolVersion::Tls12,
            min_version: ProtocolVersion::Tls10,
            tls13: None,
            preference: Cow::Borrowed(preference::modern()),
            prefer_server_order: true,
            curves: Cow::Borrowed(&[NamedGroup::SECP256R1, NamedGroup::SECP384R1]),
            heartbeat: false,
            heartbleed_vulnerable: false,
            quirk: Quirk::None,
        }
    }
}

/// Canned server preference lists, mirroring real deployment styles.
///
/// Every list is a `'static` table built at compile time, so a sampled
/// profile borrows its list instead of allocating a copy per host or
/// per connection.
pub mod preference {
    use tlscope_wire::CipherSuite;

    /// `ids` as cipher suites, at compile time.
    const fn suites<const N: usize>(ids: [u16; N]) -> [CipherSuite; N] {
        let mut out = [CipherSuite(0); N];
        let mut i = 0;
        while i < N {
            out[i] = CipherSuite(ids[i]);
            i += 1;
        }
        out
    }

    /// `head` followed by `base`, at compile time; `M` must be the sum
    /// of their lengths.
    const fn prefixed<const M: usize>(
        head: &[CipherSuite],
        base: &[CipherSuite],
    ) -> [CipherSuite; M] {
        assert!(M == head.len() + base.len());
        let mut out = [CipherSuite(0); M];
        let mut i = 0;
        while i < M {
            out[i] = if i < head.len() {
                head[i]
            } else {
                base[i - head.len()]
            };
            i += 1;
        }
        out
    }

    /// The three TLS 1.3 suites a 1.3-draft server puts in front of
    /// its classic list.
    const TLS13: &[CipherSuite] = &suites([0x1301, 0x1302, 0x1303]);

    const MODERN: &[CipherSuite] = &suites([
        0xc02f, 0xc02b, 0xc030, 0xc02c, 0xcca8, 0xcca9, 0x009e, 0x009c, 0xc027, 0xc013, 0xc014,
        0x003c, 0x002f, 0x0035, 0x000a,
    ]);
    const MODERN_AES256_FIRST: &[CipherSuite] = &suites([
        0xc030, 0xc02c, 0xc02f, 0xc02b, 0x009f, 0x009d, 0x009e, 0x009c, 0xc028, 0xc014, 0xc027,
        0xc013, 0x0035, 0x002f, 0x000a,
    ]);
    const MODERN_CHACHA_FIRST: &[CipherSuite] = &suites([
        0xcca8, 0xcca9, 0xc02f, 0xc02b, 0xc030, 0xc02c, 0x009e, 0x009c, 0xc027, 0xc013, 0xc014,
        0x002f, 0x0035,
    ]);
    const NAGIOS: &[CipherSuite] =
        &suites([0x0034, 0x003a, 0x0018, 0x001b, 0x0017, 0x0019, 0x0000]);

    /// Modern 2015+ stack: ECDHE-AEAD first, CBC fallback, 3DES last.
    pub fn modern() -> &'static [CipherSuite] {
        MODERN
    }

    /// [`modern`] behind the three TLS 1.3 suites (a server that also
    /// speaks a 1.3 draft).
    pub fn modern_tls13() -> &'static [CipherSuite] {
        const LIST: &[CipherSuite] = &prefixed::<18>(TLS13, MODERN);
        LIST
    }

    /// Modern stack preferring 256-bit AES-GCM (security-posture
    /// configurations; the paper's Figure 9 shows AES-256-GCM carrying a
    /// steady minority share of negotiations).
    pub fn modern_aes256_first() -> &'static [CipherSuite] {
        MODERN_AES256_FIRST
    }

    /// [`modern_aes256_first`] behind the three TLS 1.3 suites.
    pub fn modern_aes256_first_tls13() -> &'static [CipherSuite] {
        const LIST: &[CipherSuite] = &prefixed::<18>(TLS13, MODERN_AES256_FIRST);
        LIST
    }

    /// Modern stack with x25519-era ChaCha20 preference (mobile-heavy
    /// properties, 2016+).
    pub fn modern_chacha_first() -> &'static [CipherSuite] {
        MODERN_CHACHA_FIRST
    }

    /// [`modern_chacha_first`] behind the three TLS 1.3 suites.
    pub fn modern_chacha_first_tls13() -> &'static [CipherSuite] {
        const LIST: &[CipherSuite] = &prefixed::<16>(TLS13, MODERN_CHACHA_FIRST);
        LIST
    }

    /// Pre-AEAD stack preferring CBC with RSA key transport first (the
    /// 2012 default — Figure 8's "more than 60 % of connections used
    /// non-forward-secret ciphers").
    pub fn cbc_era() -> &'static [CipherSuite] {
        const LIST: &[CipherSuite] = &suites([
            0x002f, 0x0035, 0x0033, 0x0039, 0xc013, 0xc014, 0xc011, 0x0005, 0x0004, 0x000a, 0x0016,
        ]);
        LIST
    }

    /// Post-Snowden variant of [`cbc_era`]: ECDHE moved to the front for
    /// forward secrecy (§6.3.1).
    pub fn cbc_era_fs() -> &'static [CipherSuite] {
        const LIST: &[CipherSuite] = &suites([
            0xc013, 0xc014, 0x0033, 0x0039, 0x002f, 0x0035, 0xc011, 0x0005, 0x0004, 0x000a, 0x0016,
        ]);
        LIST
    }

    /// DHE-first Apache-style configuration (the small DHE wedge of
    /// Figure 8).
    pub fn dhe_first() -> &'static [CipherSuite] {
        const LIST: &[CipherSuite] = &suites([
            0x0033, 0x0039, 0x009e, 0x009f, 0xc013, 0xc014, 0x002f, 0x0035, 0x000a,
        ]);
        LIST
    }

    /// BEAST-mitigation configuration: RC4 pinned first (§2.2 — "server
    /// operators were encouraged to enforce the use of RC4 suites").
    pub fn rc4_first() -> &'static [CipherSuite] {
        const LIST: &[CipherSuite] = &suites([
            0x0005, 0x0004, 0xc011, 0x002f, 0x0035, 0xc013, 0xc014, 0x0033, 0x0039, 0x000a,
        ]);
        LIST
    }

    /// RC4-first with ECDHE variants preferred (BEAST mitigation after a
    /// forward-secrecy pass).
    pub fn rc4_first_fs() -> &'static [CipherSuite] {
        const LIST: &[CipherSuite] = &suites([
            0xc011, 0x0005, 0x0004, 0xc013, 0xc014, 0x002f, 0x0035, 0x0033, 0x0039, 0x000a,
        ]);
        LIST
    }

    /// Stale appliance: RC4 and 3DES only.
    pub fn legacy_appliance() -> &'static [CipherSuite] {
        const LIST: &[CipherSuite] = &suites([0x0005, 0x0004, 0x000a, 0x0016]);
        LIST
    }

    /// Old CBC-only embedded stack.
    pub fn embedded() -> &'static [CipherSuite] {
        const LIST: &[CipherSuite] = &suites([0x002f, 0x0035, 0x000a, 0x0005]);
        LIST
    }

    /// GRID endpoint: NULL first by design (§6.1).
    pub fn grid() -> &'static [CipherSuite] {
        const LIST: &[CipherSuite] = &suites([0x0002, 0x0001, 0x002f, 0x0035]);
        LIST
    }

    /// Nagios endpoint: anonymous DH, with the export-anon and
    /// NULL_WITH_NULL_NULL oddities of §5.5/§6.1.
    pub fn nagios() -> &'static [CipherSuite] {
        NAGIOS
    }

    /// [`nagios`] with the fully-null suite `TLS_NULL_WITH_NULL_NULL`
    /// moved to the front (the rare deployments that negotiate it).
    pub fn nagios_nullnull() -> &'static [CipherSuite] {
        const LIST: &[CipherSuite] = &prefixed::<8>(&suites([0x0000]), NAGIOS);
        LIST
    }

    /// Mail server (STARTTLS-era OpenSSL defaults).
    pub fn mail() -> &'static [CipherSuite] {
        const LIST: &[CipherSuite] = &suites([
            0xc02f, 0xc02b, 0x009e, 0x009c, 0xc013, 0xc014, 0x002f, 0x0035, 0x000a, 0x0005,
        ]);
        LIST
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_is_compliant() {
        let p = ServerProfile::baseline("test");
        assert_eq!(p.quirk, Quirk::None);
        assert!(!p.supports_ssl3());
        assert!(p.preference.iter().all(|c| c.info().is_some()));
    }

    #[test]
    fn flake_bias_orders_cohorts_by_operational_quality() {
        let cdn = ServerProfile::baseline("cdn").scan_flake_bias();
        let base = ServerProfile::baseline("enterprise").scan_flake_bias();
        let tail = ServerProfile::baseline("long-tail-web").scan_flake_bias();
        let relic = ServerProfile::baseline("iot").scan_flake_bias();
        assert!(cdn < base && base < tail && tail < relic);
        assert_eq!(base, 1.0);
    }

    #[test]
    fn negotiation_key_names_every_field_decide_reads() {
        // Statics, so a prefix shares its list's address.
        static SUITES: [CipherSuite; 3] = [
            CipherSuite(0xc02f),
            CipherSuite(0x002f),
            CipherSuite(0x000a),
        ];
        static CURVES: [NamedGroup; 2] = [NamedGroup::SECP256R1, NamedGroup::SECP384R1];
        // Every field named, no `..`: a new field fails to compile here
        // until this test (and the key) account for it.
        let base = ServerProfile {
            cohort: "base",
            max_version: ProtocolVersion::Tls12,
            min_version: ProtocolVersion::Tls10,
            tls13: None,
            preference: Cow::Borrowed(&SUITES),
            prefer_server_order: true,
            curves: Cow::Borrowed(&CURVES),
            heartbeat: false,
            heartbleed_vulnerable: false,
            quirk: Quirk::ChooseUnoffered(CipherSuite(0x0081)),
        };
        let key = base.negotiation_key();
        assert!(key.is_some());
        type Edit = fn(&mut ServerProfile);
        let key_with = |edit: Edit| {
            let mut p = base.clone();
            edit(&mut p);
            p.negotiation_key()
        };
        // Each input of `decide` moves the key on its own; the lists by
        // address and by length alike.
        let decided: [(&str, Edit); 11] = [
            ("max_version", |p| p.max_version = ProtocolVersion::Tls11),
            ("min_version", |p| p.min_version = ProtocolVersion::Ssl3),
            ("tls13", |p| p.tls13 = Some(ProtocolVersion::Tls13Draft(18))),
            ("preference", |p| {
                p.preference = Cow::Borrowed(preference::cbc_era())
            }),
            ("preference length", |p| {
                p.preference = Cow::Borrowed(&SUITES[..2])
            }),
            ("prefer_server_order", |p| p.prefer_server_order = false),
            ("curves", |p| {
                p.curves = Cow::Borrowed(&[NamedGroup::X25519])
            }),
            ("curves length", |p| p.curves = Cow::Borrowed(&CURVES[..1])),
            ("heartbeat", |p| p.heartbeat = true),
            ("quirk", |p| p.quirk = Quirk::PreferRc4),
            ("unoffered suite", |p| {
                p.quirk = Quirk::ChooseUnoffered(CipherSuite(0x0080))
            }),
        ];
        for (field, edit) in decided {
            let moved = key_with(edit);
            assert!(
                moved.is_some() && moved != key,
                "{field} did not move the key"
            );
        }
        // What no decision reads leaves it.
        assert_eq!(key_with(|p| p.cohort = "other"), key);
        assert_eq!(key_with(|p| p.heartbleed_vulnerable = true), key);
        // An owned list has no lasting address, so no key.
        assert_eq!(
            key_with(|p| p.preference = Cow::Owned(SUITES.to_vec())),
            None
        );
        assert_eq!(key_with(|p| p.curves = Cow::Owned(CURVES.to_vec())), None);
    }

    #[test]
    fn ssl3_support_follows_min_version() {
        let mut p = ServerProfile::baseline("test");
        p.min_version = ProtocolVersion::Ssl3;
        assert!(p.supports_ssl3());
        p.min_version = ProtocolVersion::Tls10;
        assert!(!p.supports_ssl3());
    }

    #[test]
    fn preference_lists_are_registered_and_shaped() {
        for (name, list) in [
            ("modern", preference::modern()),
            ("chacha", preference::modern_chacha_first()),
            ("cbc_era", preference::cbc_era()),
            ("cbc_era_fs", preference::cbc_era_fs()),
            ("dhe_first", preference::dhe_first()),
            ("rc4_first", preference::rc4_first()),
            ("rc4_first_fs", preference::rc4_first_fs()),
            ("legacy", preference::legacy_appliance()),
            ("embedded", preference::embedded()),
            ("grid", preference::grid()),
            ("nagios", preference::nagios()),
            ("mail", preference::mail()),
        ] {
            assert!(!list.is_empty(), "{name} empty");
            for c in list {
                assert!(c.info().is_some(), "{name} has unregistered {c}");
            }
        }
        assert!(preference::modern()[0].is_aead());
        assert!(preference::rc4_first()[0].is_rc4());
        assert!(preference::grid()[0].is_null_encryption());
        assert!(preference::nagios()[0].is_anon());
        // 3DES sits last in the modern list (the Censys scan observation
        // that servers pick it "despite its placement at the bottom").
        assert!(preference::modern().last().unwrap().is_3des());
    }

    #[test]
    fn tls13_lists_put_the_three_13_suites_before_their_base() {
        for (name, with_13, base) in [
            ("modern", preference::modern_tls13(), preference::modern()),
            (
                "chacha",
                preference::modern_chacha_first_tls13(),
                preference::modern_chacha_first(),
            ),
            (
                "aes256",
                preference::modern_aes256_first_tls13(),
                preference::modern_aes256_first(),
            ),
        ] {
            let want: Vec<CipherSuite> = [0x1301, 0x1302, 0x1303]
                .into_iter()
                .map(CipherSuite)
                .chain(base.iter().copied())
                .collect();
            assert_eq!(with_13, want.as_slice(), "{name}");
        }
    }
}
