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
//! dropped and named in a flight report by `(date, host index)`; the
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
use tlscope_servers::{negotiate, ParamsCache, ServerPopulation, ServerProfile};

use crate::faults::{key, mix, ScanFaults, MAX_PROBE_ATTEMPTS};
use crate::metrics::{ScanMetrics, ScanMetricsSnapshot};
use crate::probe::ProbeSet;

/// Results of one full sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanSnapshot {
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

impl ScanSnapshot {
    /// An empty snapshot for `date` (all counters zero).
    pub fn new(date: Date) -> Self {
        ScanSnapshot {
            date,
            hosts: 0,
            ssl3_supported: 0,
            answered: 0,
            chose_aead: 0,
            chose_cbc: 0,
            chose_rc4: 0,
            chose_3des: 0,
            chose_tls12: 0,
            export_supported: 0,
            heartbeat_supported: 0,
            heartbleed_vulnerable: 0,
        }
    }

    /// Fold another partial snapshot of the *same sweep* into this
    /// one. Pure integer sums, so merging is commutative and
    /// associative: a replay's one-host partials, merged in any order,
    /// reproduce the one-pass sweep bit for bit.
    ///
    /// # Panics
    /// When the dates differ — partials from different sweeps are a
    /// bug, not data.
    pub fn merge(&mut self, other: &ScanSnapshot) {
        assert_eq!(self.date, other.date, "merging snapshots across sweeps");
        self.hosts += other.hosts;
        self.ssl3_supported += other.ssl3_supported;
        self.answered += other.answered;
        self.chose_aead += other.chose_aead;
        self.chose_cbc += other.chose_cbc;
        self.chose_rc4 += other.chose_rc4;
        self.chose_3des += other.chose_3des;
        self.chose_tls12 += other.chose_tls12;
        self.export_supported += other.export_supported;
        self.heartbeat_supported += other.heartbeat_supported;
        self.heartbleed_vulnerable += other.heartbleed_vulnerable;
    }

    /// Percentage helper over probed hosts.
    pub fn pct(&self, count: u64) -> f64 {
        if self.hosts == 0 {
            0.0
        } else {
            100.0 * count as f64 / self.hosts as f64
        }
    }
}

/// Per-host probe accounting returned by [`probe_host_with`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeFlight {
    /// Probes sent to the host.
    pub probes: u64,
    /// Probes that completed a handshake.
    pub completed: u64,
    /// Probes the host refused.
    pub refused: u64,
    /// Probes sent but never resolved (handshake timeout).
    pub timed_out: u64,
}

/// The counter-based host stream: a private RNG for host `index` of
/// the sweep at `(seed, date)`.
///
/// The fault draws' counter key at attempt 0 through their SplitMix64
/// finaliser, then `SmallRng`'s own SplitMix64 seed expansion, so a
/// host's profile draw is a pure function of `(seed, date, index)`
/// independent of worker count, replay, and visit order.
fn host_rng(seed: u64, date: Date, index: u64) -> SmallRng {
    SmallRng::seed_from_u64(mix(key(seed, date.to_epoch_days() as u64, index, 0)))
}

/// Probe one server with every sweep probe, skipping (and counting)
/// any probe `times_out` says was lost mid-handshake. The hot path of
/// the scan engine: with the probe set prepared once per campaign,
/// deciding all three probes touches no heap at all
/// ([`negotiate::decide`] allocates nothing).
fn probe_host_timed(
    probes: &ProbeSet,
    profile: &ServerProfile,
    snap: &mut ScanSnapshot,
    mut times_out: impl FnMut(u32) -> bool,
) -> ProbeFlight {
    let mut flight = ProbeFlight::default();
    snap.hosts += 1;

    // 2015-Chrome probe.
    flight.probes += 1;
    if times_out(0) {
        flight.timed_out += 1;
    } else {
        match negotiate::decide(profile, &probes.chrome_2015.facts()) {
            Ok(d) => {
                flight.completed += 1;
                snap.answered += 1;
                let class = d.cipher.classes();
                snap.chose_aead += u64::from(class.aead);
                snap.chose_cbc += u64::from(class.cbc);
                snap.chose_rc4 += u64::from(class.rc4);
                snap.chose_3des += u64::from(class.tdes);
                if d.version == tlscope_wire::ProtocolVersion::Tls12 {
                    snap.chose_tls12 += 1;
                }
                if d.heartbeat {
                    snap.heartbeat_supported += 1;
                    // The Heartbleed check: a malformed heartbeat against a
                    // heartbeat-answering host. The profile's vulnerability
                    // flag *is* the server behaviour being measured.
                    if profile.heartbleed_vulnerable {
                        snap.heartbleed_vulnerable += 1;
                    }
                }
            }
            Err(_) => flight.refused += 1,
        }
    }

    // SSL3-only probe.
    flight.probes += 1;
    if times_out(1) {
        flight.timed_out += 1;
    } else {
        match negotiate::decide(profile, &probes.ssl3_only.facts()) {
            Ok(_) => {
                flight.completed += 1;
                snap.ssl3_supported += 1;
            }
            Err(_) => flight.refused += 1,
        }
    }

    // Export probe: supported if the server completes with an export
    // suite (the Interwise-style downgrade also counts — that is the
    // point of the scan).
    flight.probes += 1;
    if times_out(2) {
        flight.timed_out += 1;
    } else {
        match negotiate::decide(profile, &probes.export_only.facts()) {
            Ok(d) => {
                flight.completed += 1;
                if d.cipher.is_export() {
                    snap.export_supported += 1;
                }
            }
            Err(_) => flight.refused += 1,
        }
    }

    flight
}

/// Probe one server with every sweep probe from `probes` and fold into
/// `snap`, with no faults in play.
pub fn probe_host_with(
    probes: &ProbeSet,
    profile: &ServerProfile,
    snap: &mut ScanSnapshot,
) -> ProbeFlight {
    probe_host_timed(probes, profile, snap, |_| false)
}

/// Probe one server with every scan and fold into `snap`.
///
/// Convenience wrapper that materialises a fresh [`ProbeSet`] per
/// call; sweep loops must prepare the set once and use
/// [`probe_host_with`].
pub fn probe_host(profile: &ServerProfile, snap: &mut ScanSnapshot) {
    probe_host_with(&ProbeSet::campaign(), profile, snap);
}

/// How probing one dispatched host resolved under the fault model.
enum HostOutcome {
    /// The host was probed (possibly after retries).
    Probed(ProbeFlight),
    /// The attempt budget ran out; the host was given up on.
    Dropped,
}

/// Probe dispatched host `index` under `faults`, retrying transient
/// connect failures up to [`MAX_PROBE_ATTEMPTS`] times. Returns the
/// outcome plus the number of retries (attempts beyond the first).
///
/// Order per attempt mirrors a real probe: dead-host windows and SYN
/// loss kill the connect before anything is sent; a flake kills the
/// established connection before probing (flakier cohorts flake more,
/// via [`ServerProfile::scan_flake_bias`]); per-probe timeouts land
/// after the probe is on the wire, so they count as sent. The profile
/// `sample` draws is a pure function of `(seed, date, index)` and is
/// drawn at most once regardless of attempts.
fn probe_indexed_host(
    mut sample: impl FnMut() -> ServerProfile,
    probes: &ProbeSet,
    faults: &ScanFaults,
    date: Date,
    index: u64,
    seed: u64,
    snap: &mut ScanSnapshot,
) -> (HostOutcome, u64) {
    // Flight-recorder breadcrumb before anything can die: if this host
    // (or the failpoint below) panics, the report of the date's replay
    // shows which host was in flight.
    tlscope_obs::flight::record("host", index, date.to_epoch_days() as u64, seed);
    if faults.panic_on_host == Some(index) {
        panic!("scan fault failpoint: host {index}");
    }
    let mut profile: Option<ServerProfile> = None;
    for attempt in 0..MAX_PROBE_ATTEMPTS {
        if faults.host_dead(seed, date, index) || faults.syn_dropped(seed, date, index, attempt) {
            continue;
        }
        let profile = profile.get_or_insert_with(&mut sample);
        if faults.flakes(seed, date, index, attempt, profile.scan_flake_bias()) {
            continue;
        }
        let flight = probe_host_timed(probes, profile, snap, |probe| {
            faults.times_out(seed, date, index, attempt, probe)
        });
        return (HostOutcome::Probed(flight), attempt as u64);
    }
    (HostOutcome::Dropped, (MAX_PROBE_ATTEMPTS - 1) as u64)
}

/// Probe host indices `range` of the sweep at `(seed, date)` into
/// `snap`, returning the range's probe and drop counts. Every host of
/// a sweep shares its date, so `cache` computes each cohort's curves
/// once per date, not per host.
#[allow(clippy::too_many_arguments)]
fn sweep_range(
    population: &ServerPopulation,
    probes: &ProbeSet,
    faults: &ScanFaults,
    date: Date,
    range: Range<u64>,
    seed: u64,
    cache: &mut ParamsCache,
    snap: &mut ScanSnapshot,
) -> ScanMetricsSnapshot {
    let mut delta = ScanMetricsSnapshot::default();
    for index in range {
        let sample = || population.sample_host(cache, date, &mut host_rng(seed, date, index));
        let (outcome, retries) =
            probe_indexed_host(sample, probes, faults, date, index, seed, snap);
        delta.host_retries += retries;
        match outcome {
            HostOutcome::Probed(flight) => {
                delta.hosts_probed += 1;
                delta.probes_sent += flight.probes;
                delta.handshakes_completed += flight.completed;
                delta.handshakes_refused += flight.refused;
                delta.probes_timed_out += flight.timed_out;
            }
            HostOutcome::Dropped => delta.hosts_dropped += 1,
        }
    }
    delta
}

/// Fold hosts `0..hosts` of the sweep (or survey) at `date` into a
/// fresh snapshot behind a panic boundary, then add the date's
/// accounting to `metrics` at once.
///
/// `fold` probes a host range into a snapshot `fresh` made, sharing
/// one [`ParamsCache`] for the whole date (a memo: a panic leaves only
/// whole entries in it), and returns the range's scan delta. When the
/// fold panics, the attempt is discarded and the date replayed host by
/// host, each host into a one-host partial behind its own boundary,
/// and the partials summed with `merge`. A host that panics alone is counted as dispatched and
/// dropped and named in a flight report.
fn fold_supervised<S>(
    date: Date,
    hosts: u64,
    metrics: &ScanMetrics,
    fresh: impl Fn() -> S,
    merge: impl Fn(&mut S, &S),
    fold: impl Fn(&mut ParamsCache, Range<u64>, &mut S) -> ScanMetricsSnapshot,
) -> S {
    let started = Instant::now();
    let mut cache = ParamsCache::default();
    let mut fold_fresh = |range| {
        let mut snap = fresh();
        let delta = fold(&mut cache, range, &mut snap);
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
                        tlscope_obs::flight::report(&format!(
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
        || ScanSnapshot::new(date),
        ScanSnapshot::merge,
        |cache, range, snap| {
            sweep_range(population, &probes, faults, date, range, seed, cache, snap)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{schedule, ScanCampaign, CENSYS_START};
    use proptest::prelude::*;
    use std::sync::Mutex;
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

    /// Serialises the tests that file flight reports: the black box is
    /// process-wide, and the poison tests drain it.
    static FLIGHT_BOX: Mutex<()> = Mutex::new(());

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
        let mut snap = ScanSnapshot::new(date);
        let mut delta = ScanMetricsSnapshot::default();
        for range in [0..poison, poison + 1..hosts] {
            delta += sweep_range(
                population, &probes, faults, date, range, seed, &mut cache, &mut snap,
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
        let _flight_box = FLIGHT_BOX.lock().unwrap_or_else(|p| p.into_inner());
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
        let reports = tlscope_obs::flight::drain_reports();
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
            let _flight_box = FLIGHT_BOX.lock().unwrap_or_else(|p| p.into_inner());
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
                        let reports = tlscope_obs::flight::drain_reports();
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

/// SSL Pulse-style popular-site survey (§5.3): probe `sites` servers
/// drawn from the *traffic-weighted* population (the Alexa-top view,
/// not the IPv4 host view) for RC4 support.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PulseSnapshot {
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

impl PulseSnapshot {
    /// An empty snapshot for `date` (all counters zero).
    pub fn new(date: Date) -> Self {
        PulseSnapshot {
            date,
            sites: 0,
            rc4_supported: 0,
            rc4_only: 0,
        }
    }

    /// Fold another partial of the same survey in (commutative sums).
    ///
    /// # Panics
    /// When the dates differ.
    pub fn merge(&mut self, other: &PulseSnapshot) {
        assert_eq!(self.date, other.date, "merging snapshots across surveys");
        self.sites += other.sites;
        self.rc4_supported += other.rc4_supported;
        self.rc4_only += other.rc4_only;
    }

    /// Percentage helper over probed sites.
    pub fn pct(&self, count: u64) -> f64 {
        if self.sites == 0 {
            0.0
        } else {
            100.0 * count as f64 / self.sites as f64
        }
    }
}

/// The salt separating the pulse survey's host streams from the IPv4
/// sweep's at the same `(seed, date)`.
const PULSE_SALT: u64 = 0x9D15E;

/// Probe site indices `range` of the pulse survey at `(seed, date)`
/// into `snap`, returning the range's probe counts. Site streams are
/// salted with [`PULSE_SALT`].
fn pulse_range(
    probes: &ProbeSet,
    population: &ServerPopulation,
    date: Date,
    range: Range<u64>,
    seed: u64,
    cache: &mut ParamsCache,
    snap: &mut PulseSnapshot,
) -> ScanMetricsSnapshot {
    use tlscope_servers::Destination;
    let mut delta = ScanMetricsSnapshot::default();
    for index in range {
        let mut rng = host_rng(seed ^ PULSE_SALT, date, index);
        let profile = population.sample_for_traffic(cache, Destination::Web, date, &mut rng);
        snap.sites += 1;
        delta.hosts_probed += 1;
        delta.probes_sent += 1;
        match negotiate::decide(&profile, &probes.rc4_only.facts()) {
            Ok(d) => {
                delta.handshakes_completed += 1;
                if d.cipher.is_rc4() {
                    snap.rc4_supported += 1;
                    // Only RC4 supporters get the second, RC4-free probe.
                    delta.probes_sent += 1;
                    match negotiate::decide(&profile, &probes.chrome_2015_no_rc4.facts()) {
                        Ok(_) => delta.handshakes_completed += 1,
                        Err(_) => {
                            delta.handshakes_refused += 1;
                            snap.rc4_only += 1;
                        }
                    }
                }
            }
            Err(_) => delta.handshakes_refused += 1,
        }
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
        |i| {
            let date = dates[i];
            Ok(fold_supervised(
                date,
                sites as u64,
                metrics,
                || PulseSnapshot::new(date),
                PulseSnapshot::merge,
                |cache, range, snap| {
                    pulse_range(probes, population, date, range, seed, cache, snap)
                },
            ))
        },
        |done: &mut Vec<(usize, PulseSnapshot)>, i, survey| done.push((i, survey)),
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
                pulse_range(&probes, &pop, date, 0..700, 11, &mut cache, &mut snap);
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
