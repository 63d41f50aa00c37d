//! Sweeps: probing a host sample and aggregating a scan snapshot.
//!
//! Each sweep draws `hosts` responsive servers from the population's
//! host-space view (the Censys IPv4 perspective) and runs every probe
//! against each. The snapshot carries exactly the per-scan statistics
//! the paper quotes: SSL 3 support, what servers choose from a
//! 2015-Chrome offer (CBC / RC4 / 3DES / AEAD), export support,
//! Heartbeat support, and residual Heartbleed vulnerability.
//!
//! ## Determinism
//!
//! Host sampling is *counter-based*: host `i` of a sweep draws its
//! profile from a private RNG stream derived by SplitMix64 from
//! `(seed, date, i)` — the same construction as the fault injector's
//! outage windows. No host's draw depends on any other host's, so a
//! sweep folded host by host into one-host partials and summed with
//! [`ScanSnapshot::merge`] (a commutative integer sum) equals the
//! sweep folded in one pass, bit for bit.
//!
//! ## One negotiation per configuration and date
//!
//! Every host of a date is sent the same probes, and a probe's outcome
//! is a pure function of the profile's negotiation inputs, which
//! [`ServerProfile::negotiation_key`] names exactly. Each sweep date and
//! survey therefore holds one [`DecisionMemo`]: a configuration is
//! negotiated the first time the date meets it, and every later host
//! with its key is answered from the memo. The memo draws nothing and
//! is consulted after a host's profile and fault draws, so every
//! stream, snapshot and ledger stays where it was. [`probe_host_with`]
//! and [`probe_site_with`] negotiate every probe, as the reference.
//!
//! ## Fault model and the retry layer
//!
//! Real IPv4-wide sweeps lose probes constantly — unanswered SYNs,
//! handshake timeouts, flaky hosts, machines that are simply off.
//! [`ScanFaults`] injects those losses deterministically (every draw
//! is a pure function of `(seed, date, host_index, attempt)`), and the
//! sweep hot loop answers with a capped retry budget
//! ([`MAX_PROBE_ATTEMPTS`]): transient failures are retried, exhausted
//! hosts are counted as `hosts_dropped`, timed-out probes as
//! `probes_timed_out`. Because retry draws are keyed by attempt
//! number, a host probed alone fails or recovers exactly as it does
//! in the full sweep.
//!
//! ## The panic boundary
//!
//! A sweep date, like an SSL-Pulse survey, is one unit of the shared
//! runner ([`tlscope_durable::run_units`]) and is folded into a fresh
//! snapshot behind a panic boundary ([`tlscope_durable::isolate`]).
//! When the fold panics, the attempt is discarded and the date is
//! replayed host by host, each host into a one-host partial behind its
//! own boundary. A host that panics alone is counted as dispatched and
//! dropped and named in a flight report by `(date, host index)`, filed
//! in the date's metrics bag; the
//! date keeps every other host, so it equals the clean sweep minus
//! that host. The date's accounting is committed once, after its fold.
//! The passive study runner puts the same boundary on the month.

use std::ops::Range;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use tlscope_chron::Date;
use tlscope_durable::{isolate, run_units};
use tlscope_obs::Progress;
use tlscope_servers::{Decision, Destination, ParamsCache, ServerPopulation, ServerProfile};
use tlscope_wire::fxhash::splitmix64;

use crate::faults::{key, ScanFaults, MAX_PROBE_ATTEMPTS};
use crate::metrics::{ScanMetrics, ScanMetricsSnapshot};
use crate::probe::{decide_each, DecisionMemo, Outcome, PreparedProbe, ProbeSet};

/// Declares a sweep's or survey's measurement record once: its date and
/// its `u64` counters, each with its doc, the first counter being the
/// population `pct` divides by. From that one list the macro emits the
/// struct, `new`, `merge`, `pct`, and `counts`/`counts_mut`: the
/// counters in declaration order, the order the scan checkpoint's
/// `snap` line stores them in.
macro_rules! snapshot {
    (
        $(#[$meta:meta])*
        pub struct $name:ident across $units:literal {
            $(#[$date_doc:meta])*
            pub date: Date,
            $(#[$base_doc:meta])*
            pub $base:ident: u64,
            $(
                $(#[$doc:meta])*
                pub $field:ident: u64,
            )*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub struct $name {
            $(#[$date_doc])*
            pub date: Date,
            $(#[$base_doc])*
            pub $base: u64,
            $(
                $(#[$doc])*
                pub $field: u64,
            )*
        }

        impl $name {
            const COUNTS: usize = 1 + [$(stringify!($field)),*].len();

            /// An empty snapshot for `date` (all counters zero).
            pub fn new(date: Date) -> Self {
                $name {
                    date,
                    $base: 0,
                    $($field: 0,)*
                }
            }

            /// Fold another partial of the same sweep or survey into
            /// this one. Pure integer sums, so merging is commutative
            /// and associative: a replay's one-host partials, merged in
            /// any order, reproduce the one-pass fold bit for bit.
            ///
            /// # Panics
            /// When the dates differ: partials of different sweeps or
            /// surveys are a bug, not data.
            pub fn merge(&mut self, other: &$name) {
                assert_eq!(
                    self.date,
                    other.date,
                    concat!("merging snapshots across ", $units)
                );
                for (mine, theirs) in self.counts_mut().into_iter().zip(other.counts()) {
                    *mine += theirs;
                }
            }

            #[doc = concat!("Percentage of `count` over `", stringify!($base), "`.")]
            pub fn pct(&self, count: u64) -> f64 {
                if self.$base == 0 {
                    0.0
                } else {
                    100.0 * count as f64 / self.$base as f64
                }
            }

            /// The counters, in declaration order.
            pub(crate) fn counts(&self) -> [u64; Self::COUNTS] {
                [self.$base, $(self.$field),*]
            }

            /// The counters, in declaration order, to fill or add to.
            pub(crate) fn counts_mut(&mut self) -> [&mut u64; Self::COUNTS] {
                [&mut self.$base, $(&mut self.$field),*]
            }
        }
    };
}

snapshot! {
    /// Results of one full sweep.
    pub struct ScanSnapshot across "sweeps" {
        /// Sweep date.
        pub date: Date,
        /// Hosts probed.
        pub hosts: u64,
        /// Hosts accepting the SSL3-only probe.
        pub ssl3_supported: u64,
        /// Hosts answering the 2015-Chrome probe at all.
        pub answered: u64,
        /// ... choosing an AEAD suite from it.
        pub chose_aead: u64,
        /// ... choosing a CBC suite (§5.2: 54 % → 35 %).
        pub chose_cbc: u64,
        /// ... choosing RC4 despite stronger offers (§5.3: 11.2 % → 3.4 %).
        pub chose_rc4: u64,
        /// ... choosing 3DES from the bottom of the list (§5.6: 0.54 % →
        /// 0.25 %).
        pub chose_3des: u64,
        /// ... negotiating TLS 1.2 with the probe.
        pub chose_tls12: u64,
        /// Hosts accepting the export-only probe.
        pub export_supported: u64,
        /// Hosts echoing the Heartbeat extension (§5.4: 34 %).
        pub heartbeat_supported: u64,
        /// Hosts still Heartbleed-vulnerable (§5.4: 0.32 % in 2018-05).
        pub heartbleed_vulnerable: u64,
    }
}

/// The counter-based host stream: a private RNG for host `index` of
/// the sweep at `(seed, date)`.
///
/// The fault draws' counter key at attempt 0 through their SplitMix64
/// finaliser, then `SmallRng`'s own SplitMix64 seed expansion, so a
/// host's profile draw is a pure function of `(seed, date, index)`
/// independent of worker count, replay, and visit order.
fn host_rng(seed: u64, date: Date, index: u64) -> SmallRng {
    SmallRng::seed_from_u64(splitmix64(key(seed, date.to_epoch_days() as u64, index, 0)))
}

/// The server at host `index` of the sweep at `(seed, date)`: the
/// profile the sweep probes there, drawn from the host's own stream
/// with the cohort curves served from `cache`.
pub fn sweep_host(
    population: &ServerPopulation,
    cache: &mut ParamsCache,
    seed: u64,
    date: Date,
    index: u64,
) -> ServerProfile {
    population.sample_host(cache, date, &mut host_rng(seed, date, index))
}

/// Count one probe into `ledger` as sent, then as timed out (when
/// `timed_out`), refused or completed. Returns the decision of a
/// completed handshake.
fn resolve(
    outcome: Outcome,
    timed_out: bool,
    ledger: &mut ScanMetricsSnapshot,
) -> Option<Decision> {
    ledger.probes_sent += 1;
    if timed_out {
        ledger.probes_timed_out += 1;
        return None;
    }
    match outcome {
        Ok(d) => {
            ledger.handshakes_completed += 1;
            Some(d)
        }
        Err(_) => {
            ledger.handshakes_refused += 1;
            None
        }
    }
}

/// Fold one probed host's outcomes for the sweep probes
/// ([`ProbeSet::sweep_probes`]) into `snap` and `ledger`, resolving as
/// timed out each probe `times_out` says was lost mid-handshake. The hot
/// path of the scan engine: the outcomes come from the date's
/// [`DecisionMemo`], and folding them touches no heap.
fn tally_host(
    [chrome, ssl3, export]: [Outcome; 3],
    profile: &ServerProfile,
    times_out: impl Fn(u32) -> bool,
    snap: &mut ScanSnapshot,
    ledger: &mut ScanMetricsSnapshot,
) {
    ledger.hosts_probed += 1;
    snap.hosts += 1;
    let chrome = resolve(chrome, times_out(0), ledger);
    let ssl3 = resolve(ssl3, times_out(1), ledger);
    let export = resolve(export, times_out(2), ledger);
    if let Some(d) = chrome {
        snap.answered += 1;
        let class = d.cipher.classes();
        snap.chose_aead += u64::from(class.aead);
        snap.chose_cbc += u64::from(class.cbc);
        snap.chose_rc4 += u64::from(class.rc4);
        snap.chose_3des += u64::from(class.tdes);
        snap.chose_tls12 += u64::from(d.version == tlscope_wire::ProtocolVersion::Tls12);
        if d.heartbeat {
            snap.heartbeat_supported += 1;
            // The Heartbleed check: a malformed heartbeat against a
            // heartbeat-answering host. The profile's vulnerability
            // flag *is* the server behaviour being measured.
            snap.heartbleed_vulnerable += u64::from(profile.heartbleed_vulnerable);
        }
    }
    snap.ssl3_supported += u64::from(ssl3.is_some());
    // Export probe: supported if the server completes with an export
    // suite (the Interwise-style downgrade also counts — that is the
    // point of the scan).
    snap.export_supported += u64::from(export.is_some_and(|d| d.cipher.is_export()));
}

/// Probe one server with every sweep probe from `probes` and fold into
/// `snap`, with no faults in play. Each probe is decided directly, with
/// no memo: the reference a memoised sweep must equal.
pub fn probe_host_with(probes: &ProbeSet, profile: &ServerProfile, snap: &mut ScanSnapshot) {
    let outcomes = decide_each(probes.sweep_probes(), profile);
    // Nothing reads a reference fold's ledger.
    let ledger = &mut ScanMetricsSnapshot::default();
    tally_host(outcomes, profile, |_| false, snap, ledger);
}

/// Probe one server with every scan and fold into `snap`.
///
/// Convenience wrapper that materialises a fresh [`ProbeSet`] per
/// call; sweep loops must prepare the set once and use
/// [`probe_host_with`].
pub fn probe_host(profile: &ServerProfile, snap: &mut ScanSnapshot) {
    probe_host_with(&ProbeSet::campaign(), profile, snap);
}

/// Probe host indices `range` of the sweep at `(seed, date)` into
/// `snap` under `faults`, returning the range's ledger delta. Every host
/// of a sweep shares its date, so `cache` computes each cohort's curves
/// and `memo` each server configuration's decisions once per date, not
/// per host.
///
/// A host's profile is drawn once, before its attempts: the draw is a
/// pure function of `(seed, date, index)`, so drawing it for a host
/// that is then dropped moves no stream. Each of up to
/// [`MAX_PROBE_ATTEMPTS`] attempts mirrors a real probe: dead-host
/// windows and SYN loss kill the connect before anything is sent; a
/// flake kills the established connection before probing (flakier
/// cohorts flake more, via [`ServerProfile::scan_flake_bias`]). The
/// first attempt that connects is probed, its retries counted; per-probe
/// timeouts land after the probe is on the wire, so they count as sent.
/// A host no attempt connects to is dropped.
#[allow(clippy::too_many_arguments)]
fn sweep_range(
    population: &ServerPopulation,
    faults: &ScanFaults,
    date: Date,
    range: Range<u64>,
    seed: u64,
    cache: &mut ParamsCache,
    memo: &mut DecisionMemo<'_, 3>,
    snap: &mut ScanSnapshot,
) -> ScanMetricsSnapshot {
    let mut delta = ScanMetricsSnapshot::default();
    for index in range {
        if faults.panic_on_host == Some(index) {
            panic!("scan fault failpoint: host {index}");
        }
        let profile = sweep_host(population, cache, seed, date, index);
        let connects = (0..MAX_PROBE_ATTEMPTS).find(|&attempt| {
            !(faults.host_dead(seed, date, index)
                || faults.syn_dropped(seed, date, index, attempt)
                || faults.flakes(seed, date, index, attempt, profile.scan_flake_bias()))
        });
        let Some(attempt) = connects else {
            delta.host_retries += u64::from(MAX_PROBE_ATTEMPTS - 1);
            delta.hosts_dropped += 1;
            continue;
        };
        delta.host_retries += u64::from(attempt);
        let times_out = |probe| faults.times_out(seed, date, index, attempt, probe);
        tally_host(memo.decide(&profile), &profile, times_out, snap, &mut delta);
    }
    delta
}

/// Fold hosts `0..hosts` of the sweep (or survey) at `date` into a
/// fresh snapshot behind a panic boundary, then add the date's
/// accounting to `metrics` at once.
///
/// `fold` probes a host range into a snapshot `fresh` made, sharing
/// one [`ParamsCache`] and one [`DecisionMemo`] of `probes` for the
/// whole date (memos: a panic leaves only whole entries in them), and
/// returns the range's scan delta. When the fold panics, the attempt is
/// discarded and the date replayed host by host, each host into a
/// one-host partial behind its own boundary, and the partials summed
/// with `merge`. A host that panics alone is counted as dispatched and
/// dropped and named in a flight report in `metrics`.
fn fold_supervised<'p, S, const N: usize>(
    date: Date,
    hosts: u64,
    metrics: &ScanMetrics,
    probes: [&'p PreparedProbe; N],
    fresh: impl Fn() -> S,
    merge: impl Fn(&mut S, &S),
    fold: impl Fn(&mut ParamsCache, &mut DecisionMemo<'p, N>, Range<u64>, &mut S) -> ScanMetricsSnapshot,
) -> S {
    let started = Instant::now();
    let mut cache = ParamsCache::default();
    let mut memo = DecisionMemo::new(probes);
    let mut fold_fresh = |range| {
        let mut snap = fresh();
        let delta = fold(&mut cache, &mut memo, range, &mut snap);
        (snap, delta)
    };
    let (snap, delta) = match isolate(|| fold_fresh(0..hosts)) {
        Some(folded) => folded,
        None => {
            let (mut snap, mut delta) = (fresh(), ScanMetricsSnapshot::default());
            for index in 0..hosts {
                match isolate(|| fold_fresh(index..index + 1)) {
                    Some((one, one_delta)) => {
                        merge(&mut snap, &one);
                        delta += one_delta;
                    }
                    None => {
                        delta.hosts_dropped += 1;
                        metrics.report(&format!(
                            "poison host quarantined (date {date}, host {index})"
                        ));
                    }
                }
            }
            (snap, delta)
        }
    };
    let elapsed = started.elapsed();
    metrics.add(&ScanMetricsSnapshot {
        hosts_dispatched: hosts,
        sweeps_completed: 1,
        scan_nanos: elapsed.as_nanos() as u64,
        ..delta
    });
    metrics.sweep.record(elapsed);
    snap
}

/// Sweep `hosts` servers at `date` under the fault model, recording
/// the date's accounting into `metrics`: the one date sweep the
/// campaign runs, behind the date's panic boundary (see the module
/// docs).
///
/// `workers` is ignored: a date's hosts are swept in one pass, and
/// campaigns parallelise across dates instead. The argument stays so
/// existing callers keep compiling.
pub fn sweep_sharded_with(
    population: &ServerPopulation,
    date: Date,
    hosts: u32,
    seed: u64,
    _workers: usize,
    metrics: &ScanMetrics,
    faults: &ScanFaults,
) -> ScanSnapshot {
    let probes = ProbeSet::campaign();
    fold_supervised(
        date,
        hosts as u64,
        metrics,
        probes.sweep_probes(),
        || ScanSnapshot::new(date),
        ScanSnapshot::merge,
        |cache, memo, range, snap| {
            sweep_range(population, faults, date, range, seed, cache, memo, snap)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{schedule, ScanCampaign, CENSYS_START};
    use proptest::prelude::*;
    use tlscope_servers::Quirk;

    /// A fault-free sweep, its accounting discarded.
    fn sweep(population: &ServerPopulation, date: Date, hosts: u32, seed: u64) -> ScanSnapshot {
        let metrics = ScanMetrics::new();
        sweep_sharded_with(
            population,
            date,
            hosts,
            seed,
            1,
            &metrics,
            &ScanFaults::none(),
        )
    }

    #[test]
    fn snapshot_percentages() {
        let pop = ServerPopulation::new();
        let snap = sweep(&pop, Date::ymd(2016, 6, 1), 3000, 1);
        assert_eq!(snap.hosts, 3000);
        assert!(snap.answered > 2500);
        // Classes partition the answered set (plus rare odd choices).
        assert!(
            snap.chose_aead + snap.chose_cbc + snap.chose_rc4 <= snap.answered,
            "{snap:?}"
        );
        assert!(snap.pct(snap.answered) > 85.0);
    }

    #[test]
    fn censys_anchor_2015_chrome_choices() {
        // §5.2 / §5.3: September 2015 — ~54 % of hosts choose CBC, ~11 %
        // choose RC4. Generous bands; the bench records exact values.
        let pop = ServerPopulation::new();
        let snap = sweep(&pop, Date::ymd(2015, 9, 15), 6000, 2);
        let cbc = snap.pct(snap.chose_cbc);
        let rc4 = snap.pct(snap.chose_rc4);
        assert!(cbc > 35.0 && cbc < 70.0, "cbc {cbc}");
        assert!(rc4 > 5.0 && rc4 < 20.0, "rc4 {rc4}");
    }

    #[test]
    fn censys_trends_2015_to_2018() {
        let pop = ServerPopulation::new();
        let early = sweep(&pop, Date::ymd(2015, 9, 15), 6000, 3);
        let late = sweep(&pop, Date::ymd(2018, 5, 1), 6000, 3);
        assert!(late.pct(late.ssl3_supported) < early.pct(early.ssl3_supported));
        assert!(late.pct(late.chose_rc4) < early.pct(early.chose_rc4));
        assert!(late.pct(late.chose_cbc) < early.pct(early.chose_cbc));
        assert!(late.pct(late.chose_aead) > early.pct(early.chose_aead));
        assert!(late.pct(late.heartbleed_vulnerable) < 1.0);
    }

    #[test]
    fn interwise_counts_as_export_supporter() {
        let mut snap = ScanSnapshot::new(Date::ymd(2016, 1, 1));
        probe_host(&ServerPopulation::interwise_server(), &mut snap);
        assert_eq!(snap.export_supported, 1);
        // And it chose RC4 from the Chrome probe (it's RC4-era).
        assert_eq!(snap.chose_rc4, 1);
        let _ = Quirk::None;
    }

    #[test]
    fn heartbleed_vulnerability_requires_heartbeat() {
        let mut profile = ServerPopulation::grid_server();
        profile.heartbleed_vulnerable = true;
        profile.heartbeat = false;
        let mut snap = ScanSnapshot::new(Date::ymd(2016, 1, 1));
        probe_host(&profile, &mut snap);
        assert_eq!(snap.heartbleed_vulnerable, 0);
        profile.heartbeat = true;
        probe_host(&profile, &mut snap);
        assert_eq!(snap.heartbleed_vulnerable, 1);
    }

    #[test]
    fn zero_host_sweep_is_empty() {
        let pop = ServerPopulation::new();
        let metrics = ScanMetrics::new();
        let faults = ScanFaults::none();
        let snap = sweep_sharded_with(&pop, Date::ymd(2017, 3, 1), 0, 5, 4, &metrics, &faults);
        assert_eq!(snap, ScanSnapshot::new(Date::ymd(2017, 3, 1)));
        assert!(metrics.snapshot().accounting_holds());
        assert_eq!(metrics.snapshot().sweeps_completed, 1);
    }

    #[test]
    #[should_panic(expected = "merging snapshots across sweeps")]
    fn merge_rejects_mismatched_dates() {
        let mut a = ScanSnapshot::new(Date::ymd(2016, 1, 1));
        let b = ScanSnapshot::new(Date::ymd(2016, 1, 8));
        a.merge(&b);
    }

    #[test]
    fn faulted_sweep_reaches_the_loss_ledger() {
        // Under a non-zero profile, hosts_dispatched != hosts_probed
        // is a *reachable, accounted* state: drops and timeouts appear
        // in the ledger and the two-part invariant still holds.
        let pop = ServerPopulation::new();
        let metrics = ScanMetrics::new();
        let faults = ScanFaults::stress();
        let snap = sweep_sharded_with(&pop, Date::ymd(2016, 6, 1), 3000, 11, 1, &metrics, &faults);
        let s = metrics.snapshot();
        assert!(s.accounting_holds(), "{s:?}");
        assert_eq!(s.hosts_dispatched, 3000);
        assert!(s.hosts_dropped > 0, "{s:?}");
        assert!(s.probes_timed_out > 0, "{s:?}");
        assert!(s.host_retries > 0, "{s:?}");
        assert!(s.hosts_probed < 3000);
        assert_eq!(s.hosts_lost(), s.hosts_dropped);
        assert_eq!(snap.hosts, s.hosts_probed);
        // Timed-out probes are in `sent` but resolve to none of the
        // snapshot counters, so answered <= completed chrome probes.
        assert_eq!(
            s.handshakes_completed + s.handshakes_refused + s.probes_timed_out,
            s.probes_sent
        );
    }

    #[test]
    fn default_fault_rates_are_light() {
        let pop = ServerPopulation::new();
        let metrics = ScanMetrics::new();
        let faults = ScanFaults::scan_defaults();
        sweep_sharded_with(&pop, Date::ymd(2016, 6, 1), 4000, 5, 1, &metrics, &faults);
        let s = metrics.snapshot();
        assert!(s.accounting_holds());
        // A few percent of loss, not a blackout.
        assert!(s.hosts_dropped > 0 && s.hosts_dropped < 400, "{s:?}");
    }

    /// The sweep at `(seed, date)` over every host but `poison`,
    /// through the private range sweep: what a poisoned date must
    /// equal.
    fn swept_without(
        population: &ServerPopulation,
        faults: &ScanFaults,
        date: Date,
        hosts: u64,
        seed: u64,
        poison: u64,
    ) -> (ScanSnapshot, ScanMetricsSnapshot) {
        let probes = ProbeSet::campaign();
        let mut cache = ParamsCache::default();
        let mut memo = DecisionMemo::new(probes.sweep_probes());
        let mut snap = ScanSnapshot::new(date);
        let mut delta = ScanMetricsSnapshot::default();
        for range in [0..poison, poison + 1..hosts] {
            delta += sweep_range(
                population, faults, date, range, seed, &mut cache, &mut memo, &mut snap,
            );
        }
        (snap, delta)
    }

    /// The ledger counters a resume replays: everything but the clock
    /// and this run's checkpoint bookkeeping.
    fn ledger_core(s: &ScanMetricsSnapshot) -> [u64; 9] {
        [
            s.hosts_dispatched,
            s.hosts_probed,
            s.hosts_dropped,
            s.host_retries,
            s.probes_sent,
            s.handshakes_completed,
            s.handshakes_refused,
            s.probes_timed_out,
            s.sweeps_completed,
        ]
    }

    #[test]
    fn poison_host_costs_that_host_alone() {
        let pop = ServerPopulation::new();
        let date = Date::ymd(2016, 9, 1);
        let faults = ScanFaults {
            panic_on_host: Some(700),
            ..ScanFaults::none()
        };
        let metrics = ScanMetrics::new();
        let snap = sweep_sharded_with(&pop, date, 3000, 9, 1, &metrics, &faults);
        let (expected, _) = swept_without(&pop, &faults, date, 3000, 9, 700);
        assert_eq!(snap, expected);
        let s = metrics.snapshot();
        assert!(s.accounting_holds(), "{s:?}");
        assert_eq!(s.hosts_dispatched, 3000);
        assert_eq!((s.hosts_probed, s.hosts_dropped), (2999, 1));
        assert_eq!(s.workers_lost, 0);
        assert_eq!(snap.hosts, 2999);
        let reports = metrics.reports();
        let named = format!("(date {date}, host 700)");
        assert!(reports.iter().any(|r| r.contains(&named)), "{reports:?}");
    }

    fn unique_dir(seed: u64) -> std::path::PathBuf {
        let t = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos();
        let pid = std::process::id();
        std::env::temp_dir().join(format!("tlscope-poison-host-{seed}-{pid}-{t}"))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// A host that panics the sweep costs that host and nothing
        /// else: at every worker count 1–8, under every fault profile,
        /// with and without a checkpoint store, each date equals the
        /// same date swept without that host, the ledger counts it
        /// dispatched and dropped on every date and balances, no worker
        /// is lost, a flight report names each `(date, host)`, and a
        /// resume over the store returns the same series and ledger.
        #[test]
        fn poison_host_is_quarantined_alone(
            seed in 0u64..1_000_000,
            hosts in 200u32..=600,
            months in 2i64..=4,
            draw in 0u64..1_000_000,
        ) {
            let pop = ServerPopulation::new();
            let dates = schedule(CENSYS_START, CENSYS_START.add_days(30 * (months - 1)), 30);
            let n = dates.len() as u64;
            let poison = draw % hosts as u64;
            for faults in [
                ScanFaults::none(),
                ScanFaults::scan_defaults(),
                ScanFaults::stress(),
            ] {
                let mut expected = Vec::new();
                // Each date dispatches every host and drops the poison.
                let mut total = ScanMetricsSnapshot {
                    hosts_dispatched: hosts as u64 * n,
                    hosts_dropped: n,
                    sweeps_completed: n,
                    ..Default::default()
                };
                for &date in &dates {
                    let (snap, delta) = swept_without(&pop, &faults, date, hosts as u64, seed, poison);
                    expected.push(snap);
                    total += delta;
                }
                let core = ledger_core(&total);
                let campaign = ScanCampaign {
                    dates: dates.clone(),
                    hosts_per_sweep: hosts,
                    seed,
                    faults: ScanFaults {
                        panic_on_host: Some(poison),
                        ..faults
                    },
                };
                for workers in 1..=8 {
                    for dir in [None, Some(unique_dir(seed))] {
                        let metrics = ScanMetrics::new();
                        let series = campaign.run_durable(&pop, workers, &metrics, dir.as_deref());
                        prop_assert!(series.is_ok(), "{:?}", series.err());
                        prop_assert_eq!(series.unwrap(), expected.clone(), "workers={} {:?}", workers, faults);
                        let s = metrics.snapshot();
                        prop_assert!(s.accounting_holds(), "{:?}", s);
                        prop_assert_eq!(ledger_core(&s), core);
                        prop_assert_eq!(s.workers_lost, 0);
                        let reports = metrics.reports();
                        for date in &dates {
                            let named = format!("(date {date}, host {poison})");
                            prop_assert!(reports.iter().any(|r| r.contains(&named)), "{:?}", reports);
                        }
                        if let Some(dir) = dir {
                            let resumed = ScanMetrics::new();
                            let again = campaign.run_durable(&pop, workers, &resumed, Some(&dir));
                            prop_assert_eq!(again.unwrap(), expected.clone());
                            prop_assert_eq!(ledger_core(&resumed.snapshot()), core);
                            prop_assert_eq!(resumed.snapshot().checkpoints_loaded, n);
                            std::fs::remove_dir_all(&dir).ok();
                        }
                    }
                }
            }
        }
    }
}

snapshot! {
    /// SSL Pulse-style popular-site survey (§5.3): probe `sites` servers
    /// drawn from the *traffic-weighted* population (the Alexa-top view,
    /// not the IPv4 host view) for RC4 support.
    pub struct PulseSnapshot across "surveys" {
        /// Survey date.
        pub date: Date,
        /// Sites probed.
        pub sites: u64,
        /// Sites that complete a handshake with an RC4-only offer
        /// (paper: 92.8 % in 2013-10 → 19.1 % in 2018).
        pub rc4_supported: u64,
        /// Sites that support *only* RC4: they answer the RC4-only probe
        /// but fail the full offer with RC4 removed (paper: 4,248 sites in
        /// 2013 → 1 site in 2018).
        pub rc4_only: u64,
    }
}

/// The salt separating the pulse survey's host streams from the IPv4
/// sweep's at the same `(seed, date)`.
const PULSE_SALT: u64 = 0x9D15E;

/// The site at index `index` of the pulse survey at `(seed, date)`:
/// the profile the survey probes there, drawn from the site's own
/// stream (salted apart from the sweep's) with the cohort curves served
/// from `cache`.
pub fn pulse_site(
    population: &ServerPopulation,
    cache: &mut ParamsCache,
    seed: u64,
    date: Date,
    index: u64,
) -> ServerProfile {
    let mut rng = host_rng(seed ^ PULSE_SALT, date, index);
    population.sample_for_traffic(cache, Destination::Web, date, &mut rng)
}

/// Fold one site's outcomes for the pulse probes
/// ([`ProbeSet::pulse_probes`]) into `snap` and `ledger`. Only an RC4
/// supporter is sent the second, RC4-free probe.
fn tally_site(
    [rc4_only, no_rc4]: [Outcome; 2],
    snap: &mut PulseSnapshot,
    ledger: &mut ScanMetricsSnapshot,
) {
    ledger.hosts_probed += 1;
    snap.sites += 1;
    if resolve(rc4_only, false, ledger).is_some_and(|d| d.cipher.is_rc4()) {
        snap.rc4_supported += 1;
        snap.rc4_only += u64::from(resolve(no_rc4, false, ledger).is_none());
    }
}

/// Probe one site with the SSL-Pulse probes from `probes` and fold into
/// `snap`. Each probe is decided directly, with no memo: the reference
/// a memoised survey must equal.
pub fn probe_site_with(probes: &ProbeSet, profile: &ServerProfile, snap: &mut PulseSnapshot) {
    // Nothing reads a reference fold's ledger.
    let ledger = &mut ScanMetricsSnapshot::default();
    tally_site(decide_each(probes.pulse_probes(), profile), snap, ledger);
}

/// Probe site indices `range` of the pulse survey at `(seed, date)`
/// into `snap`, returning the range's ledger delta.
fn pulse_range(
    population: &ServerPopulation,
    date: Date,
    range: Range<u64>,
    seed: u64,
    cache: &mut ParamsCache,
    memo: &mut DecisionMemo<'_, 2>,
    snap: &mut PulseSnapshot,
) -> ScanMetricsSnapshot {
    let mut delta = ScanMetricsSnapshot::default();
    for index in range {
        let profile = pulse_site(population, cache, seed, date, index);
        tally_site(memo.decide(&profile), snap, &mut delta);
    }
    delta
}

/// Run one SSL Pulse-style survey of `sites` sites per date of
/// `dates`, spread over `workers` threads with one survey per unit of
/// [`run_units`], and return them in date order.
///
/// Each survey is folded behind the same panic boundary as a sweep
/// date and records its accounting into `metrics`, so surveys are
/// visible to `repro --scan-stats`. Site streams are salted apart
/// from the sweep's and depend on no worker count. A survey lost with
/// its worker is missing from the result and counted in
/// `workers_lost`.
pub fn pulse_surveys(
    probes: &ProbeSet,
    population: &ServerPopulation,
    dates: &[Date],
    sites: u32,
    seed: u64,
    workers: usize,
    metrics: &ScanMetrics,
) -> Vec<PulseSnapshot> {
    let progress = Progress::from_env("ssl-pulse", dates.len() as u64, "surveys", "sites");
    let ran = run_units(
        dates.len(),
        workers,
        &progress,
        || metrics.snapshot().hosts_probed,
        |done: &mut Vec<(usize, PulseSnapshot)>, i| {
            let date = dates[i];
            let survey = fold_supervised(
                date,
                sites as u64,
                metrics,
                probes.pulse_probes(),
                || PulseSnapshot::new(date),
                PulseSnapshot::merge,
                |cache, memo, range, snap| {
                    pulse_range(population, date, range, seed, cache, memo, snap)
                },
            );
            done.push((i, survey));
            Ok(())
        },
    )
    .unwrap_or_else(|e| unreachable!("surveys write no store: {e}"));
    metrics.add(&ScanMetricsSnapshot {
        workers_lost: ran.workers_lost as u64,
        ..Default::default()
    });
    let mut surveys = vec![None; dates.len()];
    for (i, survey) in ran.parts.into_iter().flatten() {
        surveys[i] = Some(survey);
    }
    surveys.into_iter().flatten().collect()
}

#[cfg(test)]
mod pulse_tests {
    use super::*;
    use std::borrow::Cow;
    use tlscope_wire::CipherSuite;

    /// A site that supports RC4 alone answers the RC4-only probe and
    /// refuses the offer without RC4: it counts as an RC4-only site,
    /// and its second probe as sent and refused. The modelled
    /// population has no such site, so no survey reaches this branch.
    #[test]
    fn rc4_only_site_refuses_the_second_probe() {
        let mut profile = ServerProfile::baseline("rc4-only");
        profile.preference = Cow::Owned(vec![CipherSuite(0x0005), CipherSuite(0x0004)]);
        let outcomes = decide_each(ProbeSet::campaign().pulse_probes(), &profile);
        let mut snap = PulseSnapshot::new(Date::ymd(2013, 10, 1));
        let mut ledger = ScanMetricsSnapshot::default();
        tally_site(outcomes, &mut snap, &mut ledger);
        assert_eq!((snap.sites, snap.rc4_supported, snap.rc4_only), (1, 1, 1));
        let resolved = (
            ledger.probes_sent,
            ledger.handshakes_completed,
            ledger.handshakes_refused,
        );
        assert_eq!(resolved, (2, 1, 1), "{ledger:?}");
    }

    #[test]
    fn rc4_support_declines_like_ssl_pulse() {
        let pop = ServerPopulation::new();
        // Paper: 92.8 % (2013-10) → 19.1 % (2018).
        let dates = [Date::ymd(2013, 10, 1), Date::ymd(2018, 4, 1)];
        let surveys = pulse_surveys(
            &ProbeSet::campaign(),
            &pop,
            &dates,
            3000,
            4,
            1,
            &ScanMetrics::new(),
        );
        let [early, late] = &surveys[..] else {
            panic!("two surveys expected: {surveys:?}");
        };
        let e = early.pct(early.rc4_supported);
        let l = late.pct(late.rc4_supported);
        assert!(e > 70.0, "early {e}");
        assert!(l < 40.0, "late {l}");
        assert!(l < e);
        // RC4-only sites effectively vanish.
        assert!(late.pct(late.rc4_only) < 2.0);
    }

    /// Surveys run as units equal a hand-driven per-date loop over the
    /// private site range, at every worker count, and every survey
    /// lands in the ledger.
    #[test]
    fn surveys_match_a_hand_driven_per_date_loop() {
        let pop = ServerPopulation::new();
        let probes = ProbeSet::campaign();
        let dates: Vec<Date> = (2013..=2018).map(|y| Date::ymd(y, 4, 1)).collect();
        let by_hand: Vec<PulseSnapshot> = dates
            .iter()
            .map(|&date| {
                let mut snap = PulseSnapshot::new(date);
                let mut cache = ParamsCache::default();
                let mut memo = DecisionMemo::new(probes.pulse_probes());
                pulse_range(&pop, date, 0..700, 11, &mut cache, &mut memo, &mut snap);
                snap
            })
            .collect();
        let rc4: u64 = by_hand.iter().map(|s| s.rc4_supported).sum();
        for workers in 1..=8 {
            let metrics = ScanMetrics::new();
            let surveys = pulse_surveys(&probes, &pop, &dates, 700, 11, workers, &metrics);
            assert_eq!(surveys, by_hand, "workers = {workers}");
            let s = metrics.snapshot();
            assert!(s.accounting_holds(), "{s:?}");
            assert_eq!(s.hosts_dispatched, 6 * 700);
            assert_eq!(s.hosts_probed, 6 * 700);
            // One probe per site, plus one more per RC4 supporter.
            assert_eq!(s.probes_sent, 6 * 700 + rc4);
            assert_eq!(s.sweeps_completed, 6);
            assert_eq!(s.workers_lost, 0);
        }
    }
}
