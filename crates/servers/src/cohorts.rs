//! Server cohorts and their configuration evolution, 2012–2018.
//!
//! Each cohort is a population of servers whose configuration
//! probabilities are functions of the calendar date, calibrated against
//! the numbers the paper reports from Censys and the Notary:
//!
//! * SSL 3 support: ~45 % of hosts in 2015-09 → <25 % in 2018-05 (§5.1)
//! * RC4 pinning: the BEAST response (2011-10) through the post-attack
//!   decline; Censys sees 11.2 % of hosts choosing RC4 in 2015-09 and
//!   3.4 % in 2018-05 (§5.3)
//! * CBC chosen by 54 % of hosts in 2015-09 → 35 % in 2018-05, with the
//!   biggest drop late-2016 → mid-2017 (§5.2)
//! * 3DES chosen by 0.54 % → 0.25 % of hosts (§5.6)
//! * Heartbleed: ~24 % vulnerable at disclosure → <2 % within a month →
//!   0.32 % long tail in 2018-05; 34 % still support Heartbeat (§5.4)
//! * Forward secrecy: ECDHE-first preference sweeping the fleet after
//!   the Snowden disclosures of 2013-06 (§6.3.1)
//! * x25519 negotiation rising from mid-2017 to 22.2 % of connections
//!   (§6.3.3); TLS 1.3 experiments negotiating 1.3 % by 2018-04 (§6.4)

use std::borrow::Cow;

use rand::rngs::SmallRng;
use rand::RngExt;
use tlscope_chron::Date;
use tlscope_wire::{NamedGroup, ProtocolVersion};

use crate::population::{mix_total, web_traffic_mix};
use crate::profile::{preference, Quirk, ServerProfile};
use crate::ramps::{decay_after, plateau, ramp};

/// Security-event dates used by the evolution curves.
pub mod events {
    use tlscope_chron::Date;

    /// BEAST disclosure.
    pub const BEAST: Date = Date::ymd(2011, 9, 6);
    /// First big RC4 attacks (AlFardan et al.).
    pub const RC4_ATTACKS: Date = Date::ymd(2013, 3, 12);
    /// First Snowden stories.
    pub const SNOWDEN: Date = Date::ymd(2013, 6, 5);
    /// Heartbleed public disclosure.
    pub const HEARTBLEED: Date = Date::ymd(2014, 4, 7);
    /// POODLE disclosure.
    pub const POODLE: Date = Date::ymd(2014, 10, 14);
    /// RFC 7465 "RC4 no more".
    pub const RC4_NO_MORE: Date = Date::ymd(2015, 2, 18);
    /// Sweet32 disclosure.
    pub const SWEET32: Date = Date::ymd(2016, 8, 31);
}

/// Server population cohorts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cohort {
    /// Top-traffic web properties: fast patchers, early adopters.
    MajorWeb,
    /// CDNs and large termination fleets: fastest adopters, TLS 1.3
    /// experiments live here.
    Cdn,
    /// The long tail of web hosting: slow, heterogeneous.
    LongTailWeb,
    /// Corporate services and appliances: RC4/3DES linger.
    Enterprise,
    /// Embedded / IoT endpoints: effectively never patched.
    Iot,
    /// Mail and messaging servers (OpenSSL defaults).
    Mail,
}

/// Date-dependent configuration probabilities for one cohort.
#[derive(Debug, Clone, Copy)]
pub struct CohortParams {
    /// P(max version is TLS 1.2).
    pub p_tls12: f64,
    /// P(max version is TLS 1.1 | not 1.2).
    pub p_tls11: f64,
    /// P(SSL 3 accepted).
    pub p_ssl3: f64,
    /// P(modern AEAD-first preference).
    pub p_modern: f64,
    /// P(ChaCha20-first | modern).
    pub p_chacha: f64,
    /// P(AES-256-GCM-first | modern, not ChaCha-first).
    pub p_aes256: f64,
    /// P(RC4 pinned first | not modern).
    pub p_rc4_pin: f64,
    /// P(DHE-first Apache style | not modern, not RC4-pinned).
    pub p_dhe: f64,
    /// P(ECDHE moved first for FS | not modern) — the Snowden response.
    pub p_fs: f64,
    /// P(x25519 supported and preferred).
    pub p_x25519: f64,
    /// P(supports the Google experimental TLS 1.3 variant 0x7e02).
    pub p_tls13_exp: f64,
    /// P(supports TLS 1.3 draft 18).
    pub p_tls13_d18: f64,
    /// P(answers the Heartbeat extension).
    pub p_heartbeat: f64,
    /// P(Heartbleed-vulnerable OpenSSL).
    pub p_hb_vuln: f64,
    /// P(honours client cipher order instead of its own).
    pub p_client_order: f64,
    /// P(quirk: picks RC4 whenever offered, despite better options).
    pub p_quirk_rc4: f64,
    /// P(quirk: picks 3DES whenever offered).
    pub p_quirk_3des: f64,
    /// P(OpenSSL strength-ordered curve list, sect571r1 first).
    pub p_odd_curves: f64,
    /// P(no elliptic-curve support at all — pre-2013 stacks built
    /// without EC, the reason ECDHE negotiation was rare in 2012
    /// despite near-universal client support, §6.3.1).
    pub p_no_ecc: f64,
}

/// The calibrated parameter curves.
pub fn params(cohort: Cohort, date: Date) -> CohortParams {
    use events::*;
    let d = date;
    match cohort {
        Cohort::MajorWeb => CohortParams {
            p_tls12: ramp(d, Date::ymd(2011, 9, 1), Date::ymd(2014, 3, 1)),
            p_tls11: 0.3 * ramp(d, Date::ymd(2011, 1, 1), Date::ymd(2012, 9, 1)),
            p_ssl3: 0.95 - 0.92 * ramp(d, POODLE, Date::ymd(2015, 4, 1)),
            p_modern: 0.98 * ramp(d, Date::ymd(2013, 9, 1), Date::ymd(2015, 9, 1)),
            p_chacha: 0.030 * ramp(d, Date::ymd(2015, 6, 1), Date::ymd(2016, 12, 1)),
            p_aes256: 0.40,
            p_rc4_pin: plateau(
                d,
                Date::ymd(2011, 10, 1),
                Date::ymd(2012, 6, 1),
                Date::ymd(2013, 9, 1),
                Date::ymd(2015, 12, 1),
                0.80,
                0.015,
            ),
            p_dhe: 0.05 * (1.0 - ramp(d, Date::ymd(2015, 1, 1), Date::ymd(2016, 6, 1))),
            p_fs: 0.08 + 0.90 * ramp(d, SNOWDEN, Date::ymd(2014, 6, 1)),
            p_x25519: 0.45 * ramp(d, Date::ymd(2016, 6, 1), Date::ymd(2017, 12, 1)),
            p_tls13_exp: 0.12 * ramp(d, Date::ymd(2017, 9, 1), Date::ymd(2018, 4, 1)),
            p_tls13_d18: 0.02 * ramp(d, Date::ymd(2017, 3, 1), Date::ymd(2017, 12, 1)),
            p_heartbeat: 0.38,
            p_hb_vuln: 0.30 * decay_after(d, HEARTBLEED, 8.0, 0.008),
            p_client_order: 0.15,
            p_quirk_rc4: 0.002,
            p_quirk_3des: 0.0,
            p_odd_curves: 0.002,
            p_no_ecc: 0.45 * (1.0 - ramp(d, Date::ymd(2012, 6, 1), Date::ymd(2014, 6, 1))),
        },
        Cohort::Cdn => CohortParams {
            p_tls12: ramp(d, Date::ymd(2011, 1, 1), Date::ymd(2013, 1, 1)),
            p_tls11: 0.5,
            p_ssl3: 0.90 - 0.88 * ramp(d, POODLE, Date::ymd(2015, 1, 1)),
            p_modern: ramp(d, Date::ymd(2013, 3, 1), Date::ymd(2014, 3, 1)),
            p_chacha: 0.060 * ramp(d, Date::ymd(2015, 4, 1), Date::ymd(2016, 4, 1)),
            p_aes256: 0.40,
            p_rc4_pin: plateau(
                d,
                Date::ymd(2011, 10, 1),
                Date::ymd(2012, 4, 1),
                Date::ymd(2013, 9, 1),
                Date::ymd(2015, 3, 1),
                0.70,
                0.0,
            ),
            p_dhe: 0.0,
            p_fs: 0.20 + 0.80 * ramp(d, SNOWDEN, Date::ymd(2013, 12, 1)),
            p_x25519: 0.60 * ramp(d, Date::ymd(2016, 1, 1), Date::ymd(2017, 6, 1)),
            p_tls13_exp: 0.50 * ramp(d, Date::ymd(2017, 7, 1), Date::ymd(2018, 4, 1)),
            p_tls13_d18: 0.08 * ramp(d, Date::ymd(2017, 1, 1), Date::ymd(2017, 10, 1)),
            p_heartbeat: 0.25,
            p_hb_vuln: 0.25 * decay_after(d, HEARTBLEED, 6.0, 0.002),
            p_client_order: 0.05,
            p_quirk_rc4: 0.0,
            p_quirk_3des: 0.0,
            p_odd_curves: 0.0,
            p_no_ecc: 0.30 * (1.0 - ramp(d, Date::ymd(2012, 1, 1), Date::ymd(2013, 6, 1))),
        },
        Cohort::LongTailWeb => CohortParams {
            p_tls12: 0.95 * ramp(d, Date::ymd(2012, 6, 1), Date::ymd(2016, 6, 1)),
            p_tls11: 0.25,
            p_ssl3: 0.95
                - 0.42 * ramp(d, POODLE, Date::ymd(2015, 10, 1))
                - 0.27 * ramp(d, Date::ymd(2015, 10, 1), Date::ymd(2018, 5, 1)),
            p_modern: 0.88 * ramp(d, Date::ymd(2015, 1, 1), Date::ymd(2018, 1, 1)),
            p_chacha: 0.010 * ramp(d, Date::ymd(2016, 6, 1), Date::ymd(2018, 1, 1)),
            p_aes256: 0.40,
            p_rc4_pin: plateau(
                d,
                Date::ymd(2011, 12, 1),
                Date::ymd(2012, 12, 1),
                Date::ymd(2013, 9, 1),
                Date::ymd(2016, 12, 1),
                0.42,
                0.010,
            ),
            p_dhe: 0.08 * (1.0 - ramp(d, Date::ymd(2015, 6, 1), Date::ymd(2017, 6, 1))),
            p_fs: 0.05 + 0.60 * ramp(d, SNOWDEN, Date::ymd(2015, 12, 1)),
            p_x25519: 0.28 * ramp(d, Date::ymd(2016, 10, 1), Date::ymd(2018, 4, 1)),
            p_tls13_exp: 0.0,
            p_tls13_d18: 0.0,
            p_heartbeat: 0.45,
            p_hb_vuln: 0.35 * decay_after(d, HEARTBLEED, 25.0, 0.004),
            p_client_order: 0.35,
            p_quirk_rc4: 0.012,
            p_quirk_3des: 0.004
                + 0.020 * (1.0 - ramp(d, Date::ymd(2012, 1, 1), Date::ymd(2015, 6, 1)))
                - 0.002 * ramp(d, SWEET32, Date::ymd(2018, 5, 1)),
            p_odd_curves: 0.03,
            p_no_ecc: 0.75 * (1.0 - ramp(d, Date::ymd(2012, 6, 1), Date::ymd(2016, 6, 1))) + 0.04,
        },
        Cohort::Enterprise => CohortParams {
            p_tls12: ramp(d, Date::ymd(2012, 1, 1), Date::ymd(2015, 6, 1)),
            p_tls11: 0.3,
            p_ssl3: 0.60 - 0.42 * ramp(d, POODLE, Date::ymd(2017, 1, 1)),
            p_modern: 0.85 * ramp(d, Date::ymd(2014, 6, 1), Date::ymd(2017, 6, 1)),
            p_chacha: 0.0,
            p_aes256: 0.40,
            p_rc4_pin: plateau(
                d,
                Date::ymd(2011, 10, 1),
                Date::ymd(2012, 6, 1),
                Date::ymd(2014, 6, 1),
                Date::ymd(2017, 6, 1),
                0.60,
                0.03,
            ),
            p_dhe: 0.06,
            p_fs: 0.05 + 0.55 * ramp(d, SNOWDEN, Date::ymd(2015, 6, 1)),
            p_x25519: 0.15 * ramp(d, Date::ymd(2017, 1, 1), Date::ymd(2018, 5, 1)),
            p_tls13_exp: 0.0,
            p_tls13_d18: 0.0,
            p_heartbeat: 0.30,
            p_hb_vuln: 0.28 * decay_after(d, HEARTBLEED, 45.0, 0.005),
            p_client_order: 0.20,
            p_quirk_rc4: 0.025,
            p_quirk_3des: 0.005
                + 0.025 * (1.0 - ramp(d, Date::ymd(2012, 1, 1), Date::ymd(2015, 6, 1)))
                - 0.002 * ramp(d, SWEET32, Date::ymd(2018, 5, 1)),
            p_odd_curves: 0.01,
            p_no_ecc: 0.65 * (1.0 - ramp(d, Date::ymd(2012, 6, 1), Date::ymd(2016, 1, 1))) + 0.05,
        },
        Cohort::Iot => CohortParams {
            p_tls12: 0.15 * ramp(d, Date::ymd(2015, 1, 1), Date::ymd(2018, 1, 1)),
            p_tls11: 0.05,
            p_ssl3: 0.85 - 0.20 * ramp(d, Date::ymd(2015, 1, 1), Date::ymd(2018, 5, 1)),
            p_modern: 0.0,
            p_chacha: 0.0,
            p_aes256: 0.40,
            p_rc4_pin: 0.10,
            p_dhe: 0.0,
            p_fs: 0.02,
            p_x25519: 0.0,
            p_tls13_exp: 0.0,
            p_tls13_d18: 0.0,
            p_heartbeat: 0.15,
            p_hb_vuln: 0.15 * decay_after(d, HEARTBLEED, 400.0, 0.02),
            p_client_order: 0.50,
            p_quirk_rc4: 0.02,
            p_quirk_3des: 0.010,
            p_odd_curves: 0.0,
            p_no_ecc: 0.85,
        },
        Cohort::Mail => CohortParams {
            p_tls12: ramp(d, Date::ymd(2012, 3, 1), Date::ymd(2015, 6, 1)),
            p_tls11: 0.4,
            p_ssl3: 0.70 - 0.45 * ramp(d, POODLE, Date::ymd(2017, 6, 1)),
            p_modern: 0.90 * ramp(d, Date::ymd(2014, 1, 1), Date::ymd(2016, 1, 1)),
            p_chacha: 0.020 * ramp(d, Date::ymd(2016, 9, 1), Date::ymd(2018, 1, 1)),
            p_aes256: 0.40,
            p_rc4_pin: plateau(
                d,
                Date::ymd(2011, 12, 1),
                Date::ymd(2012, 9, 1),
                Date::ymd(2013, 9, 1),
                Date::ymd(2016, 1, 1),
                0.25,
                0.02,
            ),
            p_dhe: 0.12 * (1.0 - ramp(d, Date::ymd(2015, 6, 1), Date::ymd(2017, 1, 1))),
            p_fs: 0.10 + 0.70 * ramp(d, SNOWDEN, Date::ymd(2014, 12, 1)),
            p_x25519: 0.20 * ramp(d, Date::ymd(2016, 10, 1), Date::ymd(2018, 4, 1)),
            p_tls13_exp: 0.0,
            p_tls13_d18: 0.0,
            p_heartbeat: 0.70,
            p_hb_vuln: 0.40 * decay_after(d, HEARTBLEED, 20.0, 0.004),
            p_client_order: 0.40,
            p_quirk_rc4: 0.002,
            p_quirk_3des: 0.004,
            p_odd_curves: 0.05,
            p_no_ecc: 0.55 * (1.0 - ramp(d, Date::ymd(2012, 6, 1), Date::ymd(2015, 6, 1))) + 0.02,
        },
    }
}

/// Memo for [`params`], keyed by `(cohort, day of month)`, and for
/// the web traffic mix, keyed by day of month.
///
/// The parameter curves are pure functions of `(cohort, date)` but
/// cost ~20 calendar-ramp evaluations (0.3–0.4 µs) per call, more than
/// the rest of a profile draw. Every sampled profile goes through one:
/// the traffic generator holds a memo per month stream, and the
/// scanner holds one per sweep or survey chunk (all of whose hosts
/// share a date). A month has at most 31 distinct dates, so one slot
/// per `(cohort, day)` — validated against the stored date so a cache
/// crossing a month boundary simply recomputes — removes the
/// recomputation without touching the RNG stream. The web traffic mix
/// a web destination draws its cohort from is a pure function of the
/// date too; its slot holds the mix with its left-to-right total, the
/// sum a draw would otherwise take per connection.
#[derive(Debug, Clone, Default)]
pub struct ParamsCache {
    slots: Vec<Option<(Date, CohortParams)>>,
    web_mixes: Vec<Option<(Date, WebMix)>>,
}

/// A weighted cohort mix (weights need not be normalised) and the
/// left-to-right sum of its weights.
pub(crate) type WebMix = ([(Cohort, f64); 5], f64);

const COHORTS: usize = 6;
const DAY_SLOTS: usize = 31;

impl ParamsCache {
    fn cohort_index(cohort: Cohort) -> usize {
        match cohort {
            Cohort::MajorWeb => 0,
            Cohort::Cdn => 1,
            Cohort::LongTailWeb => 2,
            Cohort::Enterprise => 3,
            Cohort::Iot => 4,
            Cohort::Mail => 5,
        }
    }

    /// [`params`] through the memo, lent from its slot.
    pub fn params(&mut self, cohort: Cohort, date: Date) -> &CohortParams {
        if self.slots.is_empty() {
            self.slots.resize(COHORTS * DAY_SLOTS, None);
        }
        let idx = Self::cohort_index(cohort) * DAY_SLOTS + (date.day() as usize - 1);
        let slot = &mut self.slots[idx];
        if slot.as_ref().is_none_or(|(d, _)| *d != date) {
            *slot = Some((date, params(cohort, date)));
        }
        &slot.as_ref().expect("the slot holds `date`").1
    }

    /// [`web_traffic_mix`] at `date` and its total, through the memo.
    pub(crate) fn web_mix(&mut self, date: Date) -> WebMix {
        if self.web_mixes.is_empty() {
            self.web_mixes.resize(DAY_SLOTS, None);
        }
        let idx = date.day() as usize - 1;
        match self.web_mixes[idx] {
            Some((d, m)) if d == date => m,
            _ => {
                let mix = web_traffic_mix(date);
                let m = (mix, mix_total(&mix));
                self.web_mixes[idx] = Some((date, m));
                m
            }
        }
    }
}

fn bern(rng: &mut SmallRng, p: f64) -> bool {
    p > 0.0 && rng.random::<f64>() < p
}

/// Sample a concrete server profile from a cohort at a date, with the
/// parameter curves served from `cache`. The curves draw nothing from
/// `rng`, so a memo hit and a miss yield the same profile.
pub fn sample(
    cache: &mut ParamsCache,
    cohort: Cohort,
    date: Date,
    rng: &mut SmallRng,
) -> ServerProfile {
    let p = cache.params(cohort, date);
    let cohort_name = match cohort {
        Cohort::MajorWeb => "major-web",
        Cohort::Cdn => "cdn",
        Cohort::LongTailWeb => "long-tail-web",
        Cohort::Enterprise => "enterprise",
        Cohort::Iot => "iot",
        Cohort::Mail => "mail",
    };

    let max_version = if bern(rng, p.p_tls12) {
        ProtocolVersion::Tls12
    } else if bern(rng, p.p_tls11) {
        ProtocolVersion::Tls11
    } else {
        ProtocolVersion::Tls10
    };
    let min_version = if bern(rng, p.p_ssl3) {
        ProtocolVersion::Ssl3
    } else {
        ProtocolVersion::Tls10
    };

    // Every arm borrows a `'static` list, so sampling allocates nothing.
    // A modern list comes paired with its TLS 1.3 form (the three 1.3
    // suites in front), taken when a 1.3 draft is drawn below; the
    // other lists have none, as 1.3 is only drawn for modern stacks.
    let modern = max_version == ProtocolVersion::Tls12 && bern(rng, p.p_modern);
    let (classic, with_tls13) = if modern {
        if bern(rng, p.p_chacha) {
            (
                preference::modern_chacha_first(),
                preference::modern_chacha_first_tls13(),
            )
        } else if bern(rng, p.p_aes256) {
            (
                preference::modern_aes256_first(),
                preference::modern_aes256_first_tls13(),
            )
        } else {
            (preference::modern(), preference::modern_tls13())
        }
    } else {
        let list = if bern(rng, p.p_rc4_pin) {
            if bern(rng, p.p_fs) {
                preference::rc4_first_fs()
            } else {
                preference::rc4_first()
            }
        } else if bern(rng, p.p_dhe) {
            preference::dhe_first()
        } else if cohort == Cohort::Iot {
            if bern(rng, 0.78) {
                preference::embedded()
            } else {
                preference::legacy_appliance()
            }
        } else if bern(rng, p.p_fs) {
            preference::cbc_era_fs()
        } else {
            preference::cbc_era()
        };
        (list, list)
    };

    let curves: &'static [NamedGroup] = if bern(rng, p.p_no_ecc) {
        // EC-free stack: no ECDHE possible.
        &[]
    } else if bern(rng, p.p_odd_curves) {
        // OpenSSL strength-ordered default: sect571r1 first (§6.3.3's
        // 0.2 % sect571r1 negotiations come from these).
        &[
            NamedGroup::SECT571R1,
            NamedGroup::SECP521R1,
            NamedGroup::SECP384R1,
            NamedGroup::SECP256R1,
        ]
    } else if bern(rng, p.p_x25519) {
        &[
            NamedGroup::X25519,
            NamedGroup::SECP256R1,
            NamedGroup::SECP384R1,
        ]
    } else if bern(rng, 0.105) {
        // A security-maximalist pocket prefers P-384 (the paper's 8.6 %
        // secp384r1 share).
        &[NamedGroup::SECP384R1, NamedGroup::SECP256R1]
    } else {
        &[NamedGroup::SECP256R1, NamedGroup::SECP384R1]
    };

    let tls13 = if modern && bern(rng, p.p_tls13_exp) {
        Some(ProtocolVersion::Tls13Experiment(2))
    } else if modern && bern(rng, p.p_tls13_d18) {
        Some(ProtocolVersion::Tls13Draft(18))
    } else {
        None
    };
    let preference = if tls13.is_some() { with_tls13 } else { classic };

    // An unpatched OpenSSL 1.0.1 always has the heartbeat extension
    // compiled in — vulnerability implies heartbeat support.
    let heartbleed_vulnerable = bern(rng, p.p_hb_vuln);
    let heartbeat = bern(rng, p.p_heartbeat);

    let quirk = if bern(rng, p.p_quirk_rc4) {
        Quirk::PreferRc4
    } else if bern(rng, p.p_quirk_3des) {
        Quirk::Prefer3Des
    } else {
        Quirk::None
    };

    ServerProfile {
        cohort: cohort_name,
        max_version,
        min_version,
        tls13,
        preference: Cow::Borrowed(preference),
        prefer_server_order: !bern(rng, p.p_client_order),
        curves: Cow::Borrowed(curves),
        heartbeat: heartbeat || heartbleed_vulnerable,
        heartbleed_vulnerable,
        quirk,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn frac(cohort: Cohort, date: Date, n: usize, pred: impl Fn(&ServerProfile) -> bool) -> f64 {
        let mut rng = SmallRng::seed_from_u64(0xC0FFEE);
        let mut cache = ParamsCache::default();
        let hits = (0..n)
            .filter(|_| pred(&sample(&mut cache, cohort, date, &mut rng)))
            .count();
        hits as f64 / n as f64
    }

    #[test]
    fn major_web_modernises() {
        // 2012: no AEAD-first servers; 2016: nearly all.
        let early = frac(Cohort::MajorWeb, Date::ymd(2012, 6, 1), 2000, |p| {
            p.preference[0].is_aead()
        });
        let late = frac(Cohort::MajorWeb, Date::ymd(2016, 6, 1), 2000, |p| {
            p.preference
                .iter()
                .find(|c| !c.is_tls13())
                .unwrap()
                .is_aead()
        });
        assert!(early < 0.01, "early {early}");
        assert!(late > 0.90, "late {late}");
    }

    #[test]
    fn rc4_pinning_rises_and_falls() {
        let pre_beast = frac(Cohort::MajorWeb, Date::ymd(2011, 8, 1), 2000, |p| {
            p.preference[0].is_rc4()
        });
        let beast_era = frac(Cohort::MajorWeb, Date::ymd(2012, 12, 1), 2000, |p| {
            p.preference[0].is_rc4()
        });
        let late = frac(Cohort::MajorWeb, Date::ymd(2017, 1, 1), 2000, |p| {
            p.preference[0].is_rc4()
        });
        assert!(pre_beast < 0.01, "pre {pre_beast}");
        assert!(beast_era > 0.5, "beast {beast_era}");
        assert!(late < 0.03, "late {late}");
    }

    #[test]
    fn ssl3_long_tail() {
        let lt_2015 = frac(Cohort::LongTailWeb, Date::ymd(2015, 9, 1), 4000, |p| {
            p.supports_ssl3()
        });
        let lt_2018 = frac(Cohort::LongTailWeb, Date::ymd(2018, 5, 1), 4000, |p| {
            p.supports_ssl3()
        });
        assert!(lt_2015 > 0.45 && lt_2015 < 0.65, "2015 {lt_2015}");
        assert!(lt_2018 > 0.18 && lt_2018 < 0.38, "2018 {lt_2018}");
        assert!(lt_2018 < lt_2015);
    }

    #[test]
    fn heartbleed_patching_is_fast_with_long_tail() {
        let c = Cohort::MajorWeb;
        let before = frac(c, Date::ymd(2014, 4, 1), 4000, |p| p.heartbleed_vulnerable);
        let month = frac(c, Date::ymd(2014, 5, 7), 4000, |p| p.heartbleed_vulnerable);
        let years = frac(c, Date::ymd(2018, 5, 1), 4000, |p| p.heartbleed_vulnerable);
        assert!(before > 0.25, "before {before}");
        assert!(month < 0.05, "month {month}");
        assert!(years > 0.0003 && years < 0.02, "years {years}");
    }

    #[test]
    fn snowden_moves_fs_first() {
        let pre = frac(Cohort::MajorWeb, Date::ymd(2013, 5, 1), 2000, |p| {
            p.preference[0].is_forward_secret()
        });
        let post = frac(Cohort::MajorWeb, Date::ymd(2014, 9, 1), 2000, |p| {
            p.preference
                .iter()
                .find(|c| !c.is_tls13())
                .unwrap()
                .is_forward_secret()
        });
        assert!(post > pre + 0.3, "pre {pre} post {post}");
    }

    #[test]
    fn tls13_lives_in_cdns_only_late() {
        assert_eq!(
            frac(Cohort::Cdn, Date::ymd(2016, 6, 1), 1000, |p| p
                .tls13
                .is_some()),
            0.0
        );
        let apr18 = frac(Cohort::Cdn, Date::ymd(2018, 4, 1), 3000, |p| {
            p.tls13 == Some(ProtocolVersion::Tls13Experiment(2))
        });
        assert!(apr18 > 0.3, "apr18 {apr18}");
        assert_eq!(
            frac(Cohort::Iot, Date::ymd(2018, 4, 1), 500, |p| p
                .tls13
                .is_some()),
            0.0
        );
    }

    #[test]
    fn iot_never_modernises() {
        let d = Date::ymd(2018, 4, 1);
        assert_eq!(
            frac(Cohort::Iot, d, 1000, |p| p.preference[0].is_aead()),
            0.0
        );
        let tls10 = frac(Cohort::Iot, d, 1000, |p| {
            p.max_version == ProtocolVersion::Tls10
        });
        assert!(tls10 > 0.7, "tls10 {tls10}");
    }

    #[test]
    fn x25519_rises_after_2016() {
        let pre = frac(Cohort::Cdn, Date::ymd(2015, 6, 1), 1000, |p| {
            p.curves[0] == NamedGroup::X25519
        });
        let post = frac(Cohort::Cdn, Date::ymd(2018, 1, 1), 1000, |p| {
            p.curves[0] == NamedGroup::X25519
        });
        assert_eq!(pre, 0.0);
        assert!(post > 0.5, "post {post}");
    }

    #[test]
    fn quirks_are_rare_but_present() {
        let q = frac(Cohort::Enterprise, Date::ymd(2016, 1, 1), 20_000, |p| {
            p.quirk != Quirk::None
        });
        assert!(q > 0.003 && q < 0.05, "quirk rate {q}");
    }

    #[test]
    fn params_probabilities_in_range() {
        for cohort in [
            Cohort::MajorWeb,
            Cohort::Cdn,
            Cohort::LongTailWeb,
            Cohort::Enterprise,
            Cohort::Iot,
            Cohort::Mail,
        ] {
            for year in 2011..=2018 {
                for month in [1u8, 7] {
                    let p = params(cohort, Date::ymd(year, month, 15));
                    for (name, v) in [
                        ("tls12", p.p_tls12),
                        ("ssl3", p.p_ssl3),
                        ("modern", p.p_modern),
                        ("rc4", p.p_rc4_pin),
                        ("fs", p.p_fs),
                        ("x25519", p.p_x25519),
                        ("hb", p.p_heartbeat),
                        ("vuln", p.p_hb_vuln),
                    ] {
                        assert!(
                            (0.0..=1.0).contains(&v),
                            "{cohort:?} {year}-{month} {name} = {v}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn params_cache_serves_every_day_bit_for_bit() {
        // One memo over every day of 2011–2018 for all six cohorts:
        // each (cohort, day-of-month) slot is recycled across ~96 month
        // boundaries, and every answer, miss or hit, must equal a fresh
        // `params` call. Debug prints each f64 in its shortest
        // round-trip form, so equal strings mean equal bits.
        let cohorts = [
            Cohort::MajorWeb,
            Cohort::Cdn,
            Cohort::LongTailWeb,
            Cohort::Enterprise,
            Cohort::Iot,
            Cohort::Mail,
        ];
        let bits = |p: CohortParams| format!("{p:?}");
        let first = Date::ymd(2011, 1, 1).to_epoch_days();
        let last = Date::ymd(2018, 12, 31).to_epoch_days();
        let mut cache = ParamsCache::default();
        let check = |cache: &mut ParamsCache, date: Date| {
            for cohort in cohorts {
                let want = bits(params(cohort, date));
                assert_eq!(bits(*cache.params(cohort, date)), want, "{cohort:?} {date}");
                assert_eq!(
                    bits(*cache.params(cohort, date)),
                    want,
                    "{cohort:?} {date} hit"
                );
            }
            let mix = web_traffic_mix(date);
            let want = format!("{:?}", (mix, mix.iter().map(|(_, w)| w).sum::<f64>()));
            assert_eq!(format!("{:?}", cache.web_mix(date)), want, "web mix {date}");
            assert_eq!(
                format!("{:?}", cache.web_mix(date)),
                want,
                "web mix {date} hit"
            );
        };
        for day in first..=last {
            check(&mut cache, Date::from_epoch_days(day));
        }
        // The slots never grow, and the last pass left each holding its
        // day of December 2018.
        assert_eq!(cache.slots.len(), COHORTS * DAY_SLOTS);
        assert_eq!(cache.web_mixes.len(), DAY_SLOTS);
        let december =
            |d: Option<Date>| d.is_some_and(|d| d.month() == Date::ymd(2018, 12, 1).month());
        assert!(cache.slots.iter().all(|s| december(s.map(|(d, _)| d))));
        assert!(cache.web_mixes.iter().all(|s| december(s.map(|(d, _)| d))));
        // Out of order, a slot is overwritten by older and newer dates
        // alike.
        let mut rng = SmallRng::seed_from_u64(0x5107);
        for _ in 0..5_000 {
            check(
                &mut cache,
                Date::from_epoch_days(rng.random_range(first..=last)),
            );
        }
    }
}
