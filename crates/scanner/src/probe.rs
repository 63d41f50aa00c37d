//! Scan probes: the ClientHellos the active scanner offers.
//!
//! Censys's TLS scans "offer the same set of cipher suites as a 2015
//! version of Chrome including a number of strong ciphers ... as well as
//! weaker CBC, RC4, and 3DES cipher suites" (§3.2); separate weekly
//! scans offer SSL 3 as the sole version, and others look for
//! export-grade support. Each probe here is a genuine ClientHello.

use std::collections::hash_map::Entry;

use tlscope_servers::{
    negotiate, ClientFacts, Decision, HandshakeFailure, NegotiationKey, ServerProfile,
};
use tlscope_wire::exts::ext_type;
use tlscope_wire::fxhash::FxHashMap;
use tlscope_wire::{CipherSuite, ClientHello, Extension, NamedGroup, ProtocolVersion, SuiteSet};

fn hello(version: ProtocolVersion, suites: &[u16], extensions: Vec<Extension>) -> ClientHello {
    ClientHello {
        legacy_version: version,
        random: [0x5c; 32],
        session_id: vec![],
        cipher_suites: suites.iter().copied().map(CipherSuite).collect(),
        compression_methods: vec![0],
        extensions: if extensions.is_empty() {
            None
        } else {
            Some(extensions)
        },
    }
}

fn standard_extensions() -> Vec<Extension> {
    vec![
        Extension::server_name("scan.example.org"),
        Extension::renegotiation_info(),
        Extension::supported_groups(&[
            NamedGroup::SECP256R1,
            NamedGroup::SECP384R1,
            NamedGroup::SECP521R1,
        ]),
        Extension::ec_point_formats(&[0]),
        Extension::signature_algorithms(&[0x0403, 0x0401, 0x0501, 0x0201]),
        Extension::heartbeat(1),
    ]
}

/// The 2015-Chrome-equivalent probe: strong AEAD + FS first, CBC, RC4,
/// and 3DES at the bottom.
pub fn chrome_2015() -> ClientHello {
    hello(
        ProtocolVersion::Tls12,
        &[
            0xc02b, 0xc02f, 0xcc14, 0xcc13, 0x009e, 0x009c, // AEAD
            0xc023, 0xc027, 0xc009, 0xc013, 0xc00a, 0xc014, // ECDHE CBC
            0x003c, 0x002f, 0x0035, 0x0033, 0x0039, // RSA/DHE CBC
            0xc011, 0xc007, 0x0005, 0x0004, // RC4
            0xc012, 0x000a, // 3DES (bottom of the list)
        ],
        standard_extensions(),
    )
}

/// SSL3-only probe: legacy version pinned to SSL 3, pre-TLS suites, no
/// extensions (SSL 3 servers commonly reject them).
pub fn ssl3_only() -> ClientHello {
    hello(
        ProtocolVersion::Ssl3,
        &[0x002f, 0x0035, 0x0005, 0x0004, 0x000a, 0x0009],
        vec![],
    )
}

/// Export-suite probe (the FREAK/Logjam surface scan).
pub fn export_only() -> ClientHello {
    hello(
        ProtocolVersion::Tls10,
        &[0x0003, 0x0006, 0x0008, 0x0014, 0x0011],
        vec![],
    )
}

/// RC4-only probe: the SSL Pulse-style support check (§5.3 — "19.1% of
/// servers still support RC4 cipher suites").
pub fn rc4_only() -> ClientHello {
    hello(
        ProtocolVersion::Tls12,
        &[0xc011, 0xc007, 0x0005, 0x0004],
        standard_extensions(),
    )
}

/// The same 2015-Chrome probe with RC4 removed — the §5.3 experiment
/// that flipped bankmellat.ir from RC4 to AEAD.
pub fn chrome_2015_no_rc4() -> ClientHello {
    let mut h = chrome_2015();
    h.cipher_suites.retain(|c| !c.is_rc4());
    h
}

/// A probe materialised once per campaign: the ClientHello itself plus
/// what negotiation reads from it (the offered-suite set and the
/// `supported_versions` and `supported_groups` content), derived up
/// front so the per-host loop can borrow a [`ClientFacts`] without
/// touching the heap.
///
/// The old path re-built every probe hello — fresh suite and extension
/// `Vec`s — for every one of the thousands of hosts in a sweep;
/// preparing the probe once amortises all of that to campaign setup.
#[derive(Debug, Clone)]
pub struct PreparedProbe {
    hello: ClientHello,
    offered: SuiteSet,
    supported_versions: Option<Vec<ProtocolVersion>>,
    curves: Option<Vec<NamedGroup>>,
    has_renegotiation_info: bool,
    has_heartbeat: bool,
}

impl PreparedProbe {
    /// Prepare `hello` for repeated probing: build its offered-suite
    /// set and parse the extension content [`facts`] will borrow.
    ///
    /// [`facts`]: PreparedProbe::facts
    pub fn new(hello: ClientHello) -> Self {
        let supported_versions = hello
            .find_extension(ext_type::SUPPORTED_VERSIONS)
            .and_then(|e| e.parse_supported_versions().ok());
        let curves = hello
            .find_extension(ext_type::SUPPORTED_GROUPS)
            .and_then(|e| e.parse_supported_groups().ok());
        let has_renegotiation_info = hello.find_extension(ext_type::RENEGOTIATION_INFO).is_some();
        let has_heartbeat = hello.find_extension(ext_type::HEARTBEAT).is_some();
        PreparedProbe {
            offered: SuiteSet::of(&hello.cipher_suites),
            hello,
            supported_versions,
            curves,
            has_renegotiation_info,
            has_heartbeat,
        }
    }

    /// The underlying ClientHello.
    pub fn hello(&self) -> &ClientHello {
        &self.hello
    }

    /// Borrow the negotiation-relevant facts. Free: everything was
    /// derived in [`PreparedProbe::new`].
    pub fn facts(&self) -> ClientFacts<'_> {
        ClientFacts {
            legacy_version: self.hello.legacy_version,
            session_id: &self.hello.session_id,
            cipher_suites: &self.hello.cipher_suites,
            offered: self.offered,
            supported_versions: self.supported_versions.as_deref(),
            curves: self.curves.as_deref(),
            has_renegotiation_info: self.has_renegotiation_info,
            has_heartbeat: self.has_heartbeat,
            has_extensions: self.hello.extensions.is_some(),
        }
    }
}

/// Every probe one scan campaign sends, prepared once.
///
/// Build one per campaign (or per sweep worker — construction is cheap
/// relative to a sweep, just not free) and thread it through
/// [`crate::sweep::probe_host_with`] / [`crate::pulse_surveys`].
#[derive(Debug, Clone)]
pub struct ProbeSet {
    /// The 2015-Chrome-equivalent offer (§3.2).
    pub chrome_2015: PreparedProbe,
    /// The SSL3-only weekly scan offer (§5.1).
    pub ssl3_only: PreparedProbe,
    /// The export-suite offer (§5.5).
    pub export_only: PreparedProbe,
    /// The SSL Pulse RC4-only support check (§5.3).
    pub rc4_only: PreparedProbe,
    /// The Chrome offer with RC4 removed (§5.3's bankmellat experiment).
    pub chrome_2015_no_rc4: PreparedProbe,
}

impl ProbeSet {
    /// Materialise every campaign probe.
    pub fn campaign() -> Self {
        ProbeSet {
            chrome_2015: PreparedProbe::new(chrome_2015()),
            ssl3_only: PreparedProbe::new(ssl3_only()),
            export_only: PreparedProbe::new(export_only()),
            rc4_only: PreparedProbe::new(rc4_only()),
            chrome_2015_no_rc4: PreparedProbe::new(chrome_2015_no_rc4()),
        }
    }

    /// The probes a sweep sends every host, in the order they go out:
    /// 2015 Chrome, SSL3-only, export.
    pub fn sweep_probes(&self) -> [&PreparedProbe; 3] {
        [&self.chrome_2015, &self.ssl3_only, &self.export_only]
    }

    /// The probes an SSL-Pulse survey may send a site: RC4-only, then
    /// (to an RC4 supporter) the Chrome offer without RC4.
    pub fn pulse_probes(&self) -> [&PreparedProbe; 2] {
        [&self.rc4_only, &self.chrome_2015_no_rc4]
    }
}

impl Default for ProbeSet {
    fn default() -> Self {
        ProbeSet::campaign()
    }
}

/// How one probe's handshake with a server configuration ends.
pub type Outcome = Result<Decision, HandshakeFailure>;

/// Each of `probes` negotiated against `profile`, with no memo.
pub(crate) fn decide_each<const N: usize>(
    probes: [&PreparedProbe; N],
    profile: &ServerProfile,
) -> [Outcome; N] {
    probes.map(|probe| negotiate::decide(profile, &probe.facts()))
}

/// What `N` fixed probes decide against each server configuration met,
/// each configuration decided once.
///
/// A decision is a pure function of the probe and of the profile's
/// negotiation inputs, which [`ServerProfile::negotiation_key`] names
/// exactly, so every host sharing a key gets the same outcomes. A sweep
/// date or survey holds one memo for all its hosts: a weekly date of
/// 12,000 hosts meets about 490–670 configurations. A profile without a key
/// (an owned list, which only tests build) is decided directly. An
/// entry is inserted only once all `N` outcomes are decided, so a
/// panic never leaves part of one behind.
#[derive(Debug)]
pub struct DecisionMemo<'p, const N: usize> {
    probes: [&'p PreparedProbe; N],
    decided: FxHashMap<NegotiationKey, [Outcome; N]>,
    hits: u64,
}

impl<'p, const N: usize> DecisionMemo<'p, N> {
    /// An empty memo for `probes`, in the order [`decide`] returns
    /// their outcomes.
    ///
    /// [`decide`]: DecisionMemo::decide
    pub fn new(probes: [&'p PreparedProbe; N]) -> Self {
        DecisionMemo {
            probes,
            decided: FxHashMap::default(),
            hits: 0,
        }
    }

    /// Each probe's outcome against `profile`, from the memo when its
    /// configuration was decided before.
    pub fn decide(&mut self, profile: &ServerProfile) -> [Outcome; N] {
        let Some(key) = profile.negotiation_key() else {
            return decide_each(self.probes, profile);
        };
        match self.decided.entry(key) {
            Entry::Occupied(hit) => {
                self.hits += 1;
                *hit.get()
            }
            Entry::Vacant(miss) => *miss.insert(decide_each(self.probes, profile)),
        }
    }

    /// Distinct configurations decided so far.
    pub fn configurations(&self) -> usize {
        self.decided.len()
    }

    /// Lookups answered from the memo.
    pub fn hits(&self) -> u64 {
        self.hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_probe_shape() {
        let h = chrome_2015();
        assert!(h.cipher_suites[0].is_aead());
        assert!(h.cipher_suites.last().unwrap().is_3des());
        assert!(h.cipher_suites.iter().any(|c| c.is_rc4()));
        assert!(h.cipher_suites.iter().any(|c| c.is_cbc()));
        assert!(!h.cipher_suites.iter().any(|c| c.is_export()));
        // Parses through the wire like any hello.
        let parsed = ClientHello::parse_handshake(&h.to_handshake_bytes()).unwrap();
        assert_eq!(parsed, h);
    }

    #[test]
    fn ssl3_probe_is_ssl3_only() {
        let h = ssl3_only();
        assert_eq!(h.legacy_version, ProtocolVersion::Ssl3);
        assert!(h.extensions.is_none());
        assert!(!h.offers_tls13());
        assert_eq!(h.offered_versions(), vec![ProtocolVersion::Ssl3]);
    }

    #[test]
    fn export_probe_offers_only_export() {
        let h = export_only();
        assert!(h.cipher_suites.iter().all(|c| c.is_export()));
    }

    #[test]
    fn no_rc4_variant() {
        let h = chrome_2015_no_rc4();
        assert!(!h.cipher_suites.iter().any(|c| c.is_rc4()));
        assert!(h.cipher_suites.len() < chrome_2015().cipher_suites.len());
    }

    /// Profiles sharing a negotiation key get the same outcome from
    /// every campaign probe: over both population views (the host view
    /// and every traffic destination), 2012–2018, the first profile of
    /// each key answers for all the others, as a memo hit does.
    #[test]
    fn equal_negotiation_keys_decide_alike_for_every_probe() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        use std::collections::HashMap;
        use tlscope_chron::Date;
        use tlscope_servers::{Destination, ParamsCache, ServerPopulation};

        let probes = ProbeSet::campaign();
        let pop = ServerPopulation::new();
        let mut rng = SmallRng::seed_from_u64(0x6E60);
        let mut cache = ParamsCache::default();
        let mut first: HashMap<NegotiationKey, (ServerProfile, [Outcome; 5])> = HashMap::new();
        let mut profiles = 0;
        for year in 2012..=2018 {
            for month in [1, 4, 7, 10] {
                let date = Date::ymd(year, month, 15);
                let mut sampled: Vec<_> = (0..300)
                    .map(|_| pop.sample_host(&mut cache, date, &mut rng))
                    .collect();
                for dest in Destination::ALL {
                    for _ in 0..30 {
                        sampled.push(pop.sample_for_traffic(&mut cache, dest, date, &mut rng));
                    }
                }
                for profile in sampled {
                    profiles += 1;
                    let key = profile
                        .negotiation_key()
                        .expect("sampled lists are borrowed");
                    let outcomes = [
                        &probes.chrome_2015,
                        &probes.ssl3_only,
                        &probes.export_only,
                        &probes.rc4_only,
                        &probes.chrome_2015_no_rc4,
                    ]
                    .map(|probe| negotiate::decide(&profile, &probe.facts()));
                    match first.entry(key) {
                        Entry::Occupied(seen) => {
                            let (earlier, want) = seen.get();
                            assert_eq!(outcomes, *want, "{earlier:?} vs {profile:?}");
                        }
                        Entry::Vacant(slot) => {
                            slot.insert((profile, outcomes));
                        }
                    }
                }
            }
        }
        // Hosts share keys: the property compared many pairs.
        assert!(first.len() * 4 < profiles, "{} keys", first.len());
    }

    #[test]
    fn prepared_probe_decides_like_parsed_hello() {
        use tlscope_servers::{negotiate, ServerPopulation, ServerProfile};
        let probes = ProbeSet::campaign();
        let profiles = [
            ServerProfile::baseline("t"),
            ServerPopulation::grid_server(),
            ServerPopulation::interwise_server(),
            ServerPopulation::nagios_server(),
            ServerPopulation::splunk_indexer(),
        ];
        for prepared in [
            &probes.chrome_2015,
            &probes.ssl3_only,
            &probes.export_only,
            &probes.rc4_only,
            &probes.chrome_2015_no_rc4,
        ] {
            for profile in &profiles {
                let via_facts = negotiate::decide(profile, &prepared.facts());
                let via_hello = negotiate::respond(profile, prepared.hello(), [0xA5; 32]);
                match (via_facts, via_hello) {
                    (Ok(d), Ok(n)) => {
                        assert_eq!(d.version, n.version);
                        assert_eq!(d.cipher, n.cipher);
                        assert_eq!(d.curve, n.curve);
                        assert_eq!(d.heartbeat, n.heartbeat);
                    }
                    (Err(a), Err(b)) => assert_eq!(a, b),
                    (a, b) => panic!("facts {a:?} vs hello {b:?}"),
                }
            }
        }
    }
}
