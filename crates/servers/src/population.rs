//! The simulated server side of the Internet.
//!
//! Two sampling views, matching the two datasets of the paper:
//!
//! * [`ServerPopulation::sample_for_traffic`] — weighted the way *user
//!   traffic* is (Notary view): major properties and CDNs dominate.
//! * [`ServerPopulation::sample_host`] — weighted the way the *IPv4
//!   address space* is (Censys view): the long tail dominates.
//!
//! Destinations also cover the specific endpoints the paper names:
//! GRID movers, Nagios hosts (including the SSL 2 and export oddities),
//! the Interwise export-downgrade servers, GOST endpoints, the
//! RC4-preferring bank, and Splunk indexers doing static ECDH.

use std::borrow::Cow;

use rand::rngs::SmallRng;
use rand::RngExt;
use tlscope_chron::Date;
use tlscope_wire::{CipherSuite, NamedGroup, ProtocolVersion};

use crate::cohorts::{sample, Cohort, ParamsCache};
use crate::profile::{preference, Quirk, ServerProfile};
use crate::ramps::ramp;

/// Where a connection is headed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Destination {
    /// Ordinary web browsing: cohort drawn from the traffic mix.
    Web,
    /// Mail/XMPP/IMAP submission.
    Mail,
    /// A GRID data-transfer endpoint (§6.1).
    Grid,
    /// A Nagios-monitored service (§5.5, §6.1, §6.2).
    Nagios,
    /// The university servers still speaking SSL 2 (§5.1).
    Sslv2Relic,
    /// Interwise conferencing (§5.5): answers RC4 with export-RC4.
    Interwise,
    /// Out-of-spec GOST server (§7.3).
    Gost,
    /// RC4-preferring bank (§5.3's bankmellat.ir).
    BankLegacy,
    /// Splunk indexer on port 9997 doing static ECDH (§6.3.1).
    Splunk,
    /// Enterprise appliance traffic.
    Enterprise,
    /// IoT/embedded device endpoints.
    Iot,
}

impl Destination {
    /// Every destination, in declaration order.
    pub const ALL: [Destination; 11] = [
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
}

/// Weighted cohort mix at a date; weights need not be normalised.
pub(crate) fn web_traffic_mix(date: Date) -> [(Cohort, f64); 5] {
    // CDN termination grows over the window at the long tail's expense.
    let cdn = 0.06 + 0.20 * ramp(date, Date::ymd(2012, 1, 1), Date::ymd(2018, 1, 1));
    [
        (Cohort::MajorWeb, 0.47),
        (Cohort::Cdn, cdn),
        (Cohort::LongTailWeb, 0.30 - 0.5 * cdn),
        (Cohort::Enterprise, 0.08),
        (Cohort::Iot, 0.015),
    ]
}

/// Host-space mix for IPv4 scans (long tail dominates).
const HOST_MIX: [(Cohort, f64); 6] = [
    (Cohort::MajorWeb, 0.02),
    (Cohort::Cdn, 0.05),
    (Cohort::LongTailWeb, 0.60),
    (Cohort::Enterprise, 0.15),
    (Cohort::Iot, 0.13),
    (Cohort::Mail, 0.05),
];

/// The left-to-right sum of a mix's weights.
pub(crate) fn mix_total(mix: &[(Cohort, f64)]) -> f64 {
    mix.iter().map(|(_, w)| w).sum()
}

/// Draw a cohort in proportion to `mix`'s weights, whose sum is `total`.
fn pick_weighted(rng: &mut SmallRng, mix: &[(Cohort, f64)], total: f64) -> Cohort {
    let mut draw = rng.random::<f64>() * total;
    for (c, w) in mix {
        if draw < *w {
            return *c;
        }
        draw -= w;
    }
    mix.last().unwrap().0
}

/// The simulated server population.
#[derive(Debug, Default, Clone)]
pub struct ServerPopulation;

impl ServerPopulation {
    /// New population model.
    pub fn new() -> Self {
        ServerPopulation
    }

    /// Sample the server behind a user connection, with the cohort
    /// curves served from `cache`.
    pub fn sample_for_traffic(
        &self,
        cache: &mut ParamsCache,
        dest: Destination,
        date: Date,
        rng: &mut SmallRng,
    ) -> ServerProfile {
        match dest {
            Destination::Web => {
                let (mix, total) = cache.web_mix(date);
                sample(cache, pick_weighted(rng, &mix, total), date, rng)
            }
            Destination::Mail => sample(cache, Cohort::Mail, date, rng),
            Destination::Enterprise => sample(cache, Cohort::Enterprise, date, rng),
            Destination::Iot => sample(cache, Cohort::Iot, date, rng),
            Destination::Grid => Self::grid_server(),
            Destination::Nagios => {
                if rng.random::<f64>() < 0.04 {
                    Self::nagios_nullnull_server()
                } else {
                    Self::nagios_server()
                }
            }
            Destination::Sslv2Relic => Self::sslv2_relic(),
            Destination::Interwise => Self::interwise_server(),
            Destination::Gost => Self::gost_server(),
            Destination::BankLegacy => Self::bank_legacy(cache, date, rng),
            Destination::Splunk => Self::splunk_indexer(),
        }
    }

    /// Sample a random responsive IPv4 host (Censys view), with the
    /// cohort curves served from `cache`.
    pub fn sample_host(
        &self,
        cache: &mut ParamsCache,
        date: Date,
        rng: &mut SmallRng,
    ) -> ServerProfile {
        sample(
            cache,
            pick_weighted(rng, &HOST_MIX, mix_total(&HOST_MIX)),
            date,
            rng,
        )
    }

    /// GRID endpoint: picks NULL when offered — TLS is only there for
    /// mutual authentication (§6.1).
    pub fn grid_server() -> ServerProfile {
        ServerProfile {
            cohort: "grid",
            max_version: ProtocolVersion::Tls12,
            min_version: ProtocolVersion::Tls10,
            tls13: None,
            preference: Cow::Borrowed(preference::grid()),
            prefer_server_order: true,
            curves: Cow::Borrowed(&[NamedGroup::SECP256R1]),
            heartbeat: true,
            heartbleed_vulnerable: false,
            quirk: Quirk::PreferNull,
        }
    }

    /// Nagios-monitored endpoint: anonymous DH (plus the fully-null
    /// suite), with its own authentication afterwards (§6.2).
    pub fn nagios_server() -> ServerProfile {
        ServerProfile {
            cohort: "nagios",
            max_version: ProtocolVersion::Tls12,
            min_version: ProtocolVersion::Ssl3,
            tls13: None,
            preference: Cow::Borrowed(preference::nagios()),
            prefer_server_order: true,
            curves: Cow::Borrowed(&[]),
            heartbeat: false,
            heartbleed_vulnerable: false,
            quirk: Quirk::PreferAnon,
        }
    }

    /// The rare Nagios deployments that negotiate the fully-null suite
    /// `TLS_NULL_WITH_NULL_NULL` (§6.1: 198.3K connections lifetime).
    pub fn nagios_nullnull_server() -> ServerProfile {
        ServerProfile {
            cohort: "nagios-nullnull",
            preference: Cow::Borrowed(preference::nagios_nullnull()),
            quirk: Quirk::None,
            ..Self::nagios_server()
        }
    }

    /// The single university's servers that still answer SSL 2 (§5.1) —
    /// on the Nagios port, per the paper.
    pub fn sslv2_relic() -> ServerProfile {
        ServerProfile {
            cohort: "sslv2-relic",
            max_version: ProtocolVersion::Tls10,
            min_version: ProtocolVersion::Ssl2,
            tls13: None,
            preference: Cow::Borrowed(preference::legacy_appliance()),
            prefer_server_order: true,
            curves: Cow::Borrowed(&[]),
            heartbeat: false,
            heartbleed_vulnerable: false,
            quirk: Quirk::None,
        }
    }

    /// Interwise conferencing server (§5.5): answers an RC4_128 offer
    /// with EXP_RC4_40_MD5, against the specification.
    pub fn interwise_server() -> ServerProfile {
        ServerProfile {
            cohort: "interwise",
            max_version: ProtocolVersion::Tls10,
            min_version: ProtocolVersion::Ssl3,
            tls13: None,
            preference: Cow::Borrowed(&[
                CipherSuite(0x0005),
                CipherSuite(0x0004),
                CipherSuite(0x000a),
                CipherSuite(0x0003), // the export suite it downgrades to
            ]),
            prefer_server_order: true,
            curves: Cow::Borrowed(&[]),
            heartbeat: false,
            heartbleed_vulnerable: false,
            quirk: Quirk::DowngradeRc4ToExport,
        }
    }

    /// A GOST-only endpoint that chooses its national suite regardless
    /// of the offer (§7.3).
    pub fn gost_server() -> ServerProfile {
        ServerProfile {
            cohort: "gost",
            max_version: ProtocolVersion::Tls12,
            min_version: ProtocolVersion::Tls10,
            tls13: None,
            preference: Cow::Borrowed(&[CipherSuite(0x0081), CipherSuite(0x0080)]),
            prefer_server_order: true,
            curves: Cow::Borrowed(&[]),
            heartbeat: false,
            heartbleed_vulnerable: false,
            quirk: Quirk::ChooseUnoffered(CipherSuite(0x0081)),
        }
    }

    /// The RC4-preferring bank (§5.3): modern stack, but picks RC4 when
    /// offered; removing RC4 from the offer yields an AEAD suite.
    pub fn bank_legacy(cache: &mut ParamsCache, date: Date, rng: &mut SmallRng) -> ServerProfile {
        let mut p = sample(cache, Cohort::Enterprise, date, rng);
        p.cohort = "bank-legacy";
        p.preference = Cow::Borrowed(preference::modern());
        p.quirk = Quirk::PreferRc4;
        p
    }

    /// Splunk indexer on tcp/9997: static-ECDH server (§6.3.1's "ECDH
    /// nearly exclusively at Splunk servers on port 9997").
    pub fn splunk_indexer() -> ServerProfile {
        ServerProfile {
            cohort: "splunk",
            max_version: ProtocolVersion::Tls12,
            min_version: ProtocolVersion::Tls10,
            tls13: None,
            preference: Cow::Borrowed(&[
                CipherSuite(0xc031), // ECDH_RSA_WITH_AES_128_GCM_SHA256
                CipherSuite(0xc02f),
                CipherSuite(0xc013),
                CipherSuite(0x002f),
            ]),
            prefer_server_order: true,
            curves: Cow::Borrowed(&[NamedGroup::SECP256R1]),
            heartbeat: false,
            heartbleed_vulnerable: false,
            quirk: Quirk::None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn traffic_and_host_views_differ() {
        // Host view (Censys) must look much more legacy than the
        // traffic view (Notary): compare SSL 3 acceptance in 2015-09.
        let pop = ServerPopulation::new();
        let date = Date::ymd(2015, 9, 1);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut cache = ParamsCache::default();
        let n = 4000;
        let traffic_ssl3 = (0..n)
            .filter(|_| {
                pop.sample_for_traffic(&mut cache, Destination::Web, date, &mut rng)
                    .supports_ssl3()
            })
            .count() as f64
            / n as f64;
        let host_ssl3 = (0..n)
            .filter(|_| pop.sample_host(&mut cache, date, &mut rng).supports_ssl3())
            .count() as f64
            / n as f64;
        assert!(
            host_ssl3 > traffic_ssl3 + 0.1,
            "host {host_ssl3} traffic {traffic_ssl3}"
        );
        // Censys anchor: ~45 % of hosts supported SSL 3 in Sep 2015.
        assert!(host_ssl3 > 0.33 && host_ssl3 < 0.60, "host {host_ssl3}");
    }

    #[test]
    fn censys_ssl3_2018_anchor() {
        let pop = ServerPopulation::new();
        let mut rng = SmallRng::seed_from_u64(2);
        let mut cache = ParamsCache::default();
        let n = 4000;
        let host_ssl3 = (0..n)
            .filter(|_| {
                pop.sample_host(&mut cache, Date::ymd(2018, 5, 1), &mut rng)
                    .supports_ssl3()
            })
            .count() as f64
            / n as f64;
        // "less than 25 % of servers support SSL 3" in May 2018.
        assert!(host_ssl3 < 0.30, "host {host_ssl3}");
        assert!(host_ssl3 > 0.10, "host {host_ssl3}");
    }

    #[test]
    fn special_destinations_have_their_quirks() {
        assert_eq!(ServerPopulation::grid_server().quirk, Quirk::PreferNull);
        assert_eq!(ServerPopulation::nagios_server().quirk, Quirk::PreferAnon);
        assert_eq!(
            ServerPopulation::interwise_server().quirk,
            Quirk::DowngradeRc4ToExport
        );
        assert!(matches!(
            ServerPopulation::gost_server().quirk,
            Quirk::ChooseUnoffered(_)
        ));
        assert_eq!(
            ServerPopulation::sslv2_relic().min_version,
            ProtocolVersion::Ssl2
        );
        // Splunk: static ECDH preferred.
        let splunk = ServerPopulation::splunk_indexer();
        assert!(matches!(
            splunk.preference[0].kx(),
            Some(tlscope_wire::Kx::Ecdh)
        ));
    }

    #[test]
    fn nagios_nullnull_puts_the_null_suite_before_nagios() {
        let mut want = vec![CipherSuite(0x0000)];
        want.extend(preference::nagios());
        assert_eq!(
            ServerPopulation::nagios_nullnull_server().preference,
            want.as_slice()
        );
    }

    /// Sampling borrows every cipher and curve list: no profile a
    /// population draws owns one.
    #[test]
    fn sampled_profiles_borrow_their_lists() {
        let pop = ServerPopulation::new();
        let mut rng = SmallRng::seed_from_u64(3);
        let mut cache = ParamsCache::default();
        for year in [2012, 2015, 2018] {
            let date = Date::ymd(year, 4, 1);
            for _ in 0..200 {
                let mut profiles = vec![pop.sample_host(&mut cache, date, &mut rng)];
                for dest in Destination::ALL {
                    profiles.push(pop.sample_for_traffic(&mut cache, dest, date, &mut rng));
                }
                for p in profiles {
                    assert!(
                        matches!(p.preference, Cow::Borrowed(_))
                            && matches!(p.curves, Cow::Borrowed(_)),
                        "{p:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn sampling_is_deterministic_under_seed() {
        let pop = ServerPopulation::new();
        let date = Date::ymd(2016, 3, 1);
        let a: Vec<_> = {
            let mut rng = SmallRng::seed_from_u64(77);
            let mut cache = ParamsCache::default();
            (0..50)
                .map(|_| pop.sample_for_traffic(&mut cache, Destination::Web, date, &mut rng))
                .collect()
        };
        let b: Vec<_> = {
            let mut rng = SmallRng::seed_from_u64(77);
            let mut cache = ParamsCache::default();
            (0..50)
                .map(|_| pop.sample_for_traffic(&mut cache, Destination::Web, date, &mut rng))
                .collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn web_mix_weights_stay_positive() {
        for year in 2012..=2018 {
            let mix = web_traffic_mix(Date::ymd(year, 6, 1));
            for (c, w) in mix {
                assert!(w > 0.0, "{c:?} weight {w} in {year}");
            }
        }
    }
}
