//! Sweeps: probing a host sample and aggregating a scan snapshot.
//!
//! Each sweep draws `hosts` responsive servers from the population's
//! host-space view (the Censys IPv4 perspective) and runs every probe
//! against each. The snapshot carries exactly the per-scan statistics
//! the paper quotes: SSL 3 support, what servers choose from a
//! 2015-Chrome offer (CBC / RC4 / 3DES / AEAD), export support,
//! Heartbeat support, and residual Heartbleed vulnerability.
//!
//! ## Determinism and sharding
//!
//! Host sampling is *counter-based*: host `i` of a sweep draws its
//! profile from a private RNG stream derived by SplitMix64 from
//! `(seed, date, i)` — the same construction as the fault injector's
//! outage windows. No host's draw depends on any other host's, so a
//! sweep can be split across any number of workers at any chunk
//! boundary and, because [`ScanSnapshot::merge`] is a commutative
//! integer sum, the sharded result is bit-identical to the serial one.
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
//! number, the faulted sweep remains bit-identical across any shard
//! boundary.
//!
//! ## Worker death
//!
//! Every chunk of work runs behind a panic boundary and commits its
//! accounting only when it completes: a panicking chunk is recorded as
//! dropped in full, the worker retires, and the surviving workers'
//! partials still merge — a dead worker costs its in-flight chunk,
//! never the sweep (the passive study runner puts the same boundary on
//! the month).

use std::ops::Range;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use tlscope_chron::Date;
use tlscope_servers::{negotiate, ParamsCache, ServerPopulation, ServerProfile};

use crate::faults::{ScanFaults, MAX_PROBE_ATTEMPTS};
use crate::metrics::ScanMetrics;
use crate::probe::ProbeSet;

/// Hosts claimed per work-queue fetch in a sharded sweep: small enough
/// to balance the tail, large enough that the atomic is cold. Also the
/// unit of loss when a worker dies: accounting commits per chunk, so a
/// panic costs exactly the in-flight chunk.
const SHARD_CHUNK: u64 = 512;

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
    /// associative: any shard order reproduces the serial result
    /// bit for bit.
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

impl ProbeFlight {
    fn add(&mut self, other: ProbeFlight) {
        self.probes += other.probes;
        self.completed += other.completed;
        self.refused += other.refused;
        self.timed_out += other.timed_out;
    }
}

/// The counter-based host stream: a private RNG for host `index` of
/// the sweep at `(seed, date)`.
///
/// SplitMix64 finalisation over the mixed key, then `SmallRng`'s own
/// SplitMix64 seed expansion — the same stateless construction the
/// fault injector uses for outage windows, so a host's profile draw is
/// a pure function of `(seed, date, index)` independent of worker
/// count, chunking, and visit order.
fn host_rng(seed: u64, date: Date, index: u64) -> SmallRng {
    let days = date.to_epoch_days() as u64;
    let mut z =
        seed ^ days.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ index.wrapping_mul(0xd1b5_4a32_d192_ed03);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    SmallRng::seed_from_u64(z)
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
    // (or the failpoint below) panics the worker, the chunk postmortem
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

/// Accounting for one committed chunk of hosts (or survey sites).
#[derive(Debug, Clone, Copy, Default)]
struct ChunkLedger {
    probed: u64,
    dropped: u64,
    retries: u64,
    flight: ProbeFlight,
}

/// Probe the half-open host-index range `range` into a fresh partial.
fn sweep_range(
    population: &ServerPopulation,
    probes: &ProbeSet,
    faults: &ScanFaults,
    date: Date,
    range: Range<u64>,
    seed: u64,
    snap: &mut ScanSnapshot,
) -> ChunkLedger {
    let mut ledger = ChunkLedger::default();
    // One memo per chunk: every host of a sweep shares its date, so
    // the cohort curves are computed once per cohort, not per host.
    let mut cache = ParamsCache::default();
    for index in range {
        let sample = || population.sample_host(&mut cache, date, &mut host_rng(seed, date, index));
        let (outcome, retries) =
            probe_indexed_host(sample, probes, faults, date, index, seed, snap);
        ledger.retries += retries;
        match outcome {
            HostOutcome::Probed(flight) => {
                ledger.probed += 1;
                ledger.flight.add(flight);
            }
            HostOutcome::Dropped => ledger.dropped += 1,
        }
    }
    ledger
}

// Supervised chunk panics share the process-wide quiet hook with the
// passive pipeline (both live in `tlscope_durable`).
pub(crate) use tlscope_durable::quiet_thread_panics;

/// Run one chunk behind a panic boundary and commit its accounting.
///
/// Dispatch and probe/drop counters for the chunk are recorded
/// *together, after the chunk completes*, so the ledger balances at
/// every observable point — there is no window where hosts are
/// dispatched but unaccounted. On panic the whole chunk is recorded as
/// dispatched-and-dropped, the worker is counted lost, and `false` is
/// returned so the caller retires the worker.
fn commit_chunk<S>(
    range: Range<u64>,
    metrics: &ScanMetrics,
    make: &impl Fn() -> S,
    chunk_fn: &impl Fn(Range<u64>, &mut S) -> ChunkLedger,
    merge_fn: &impl Fn(&mut S, &S),
    into: &mut S,
) -> bool {
    let (start, end) = (range.start, range.end);
    let hosts = end - start;
    let started = Instant::now();
    quiet_thread_panics(true);
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
        let mut partial = make();
        let ledger = chunk_fn(range, &mut partial);
        (partial, ledger)
    }));
    quiet_thread_panics(false);
    match result {
        Ok((partial, ledger)) => {
            metrics.record_dispatched(hosts);
            metrics.record_probed(
                ledger.probed,
                ledger.flight.probes,
                ledger.flight.completed,
                ledger.flight.refused,
                ledger.flight.timed_out,
            );
            if ledger.dropped > 0 {
                metrics.record_dropped(ledger.dropped);
            }
            if ledger.retries > 0 {
                metrics.record_retries(ledger.retries);
            }
            metrics.record_chunk(started.elapsed());
            merge_fn(into, &partial);
            true
        }
        Err(_) => {
            metrics.record_dispatched(hosts);
            metrics.record_dropped(hosts);
            metrics.record_worker_lost();
            tlscope_obs::flight::report(&format!(
                "sweep chunk {start}..{end} lost to a panic ({hosts} hosts dropped)"
            ));
            false
        }
    }
}

/// The chunked host engine shared by IPv4 sweeps and pulse surveys:
/// [`SHARD_CHUNK`]-sized index ranges claimed from an atomic work
/// queue, each probed into a fresh partial behind a panic boundary and
/// committed (accounting and merge) as a unit. `workers <= 1` runs the
/// same chunk loop inline with no threads spawned; either way a
/// panicking chunk is recorded as dropped and ends only its worker.
fn run_chunked<S: Send>(
    hosts: u64,
    workers: usize,
    metrics: &ScanMetrics,
    make: &(impl Fn() -> S + Sync),
    chunk_fn: &(impl Fn(Range<u64>, &mut S) -> ChunkLedger + Sync),
    merge_fn: &(impl Fn(&mut S, &S) + Sync),
) -> S {
    tlscope_durable::install_quiet_panic_hook();
    let mut total = make();
    if workers <= 1 || hosts <= SHARD_CHUNK {
        let mut claimed = 0u64;
        while claimed < hosts {
            let end = (claimed + SHARD_CHUNK).min(hosts);
            if !commit_chunk(claimed..end, metrics, make, chunk_fn, merge_fn, &mut total) {
                break;
            }
            claimed = end;
        }
        return total;
    }

    let next = AtomicU64::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut partial = make();
                    loop {
                        let start = next.fetch_add(SHARD_CHUNK, Ordering::Relaxed);
                        if start >= hosts {
                            break;
                        }
                        let end = (start + SHARD_CHUNK).min(hosts);
                        if !commit_chunk(
                            start..end,
                            metrics,
                            make,
                            chunk_fn,
                            merge_fn,
                            &mut partial,
                        ) {
                            break;
                        }
                    }
                    partial
                })
            })
            .collect();
        for h in handles {
            // Survivor-merge: chunk panics are caught inside the
            // worker, so a join error means the worker died outside
            // any chunk — count it and keep the survivors.
            match h.join() {
                Ok(partial) => merge_fn(&mut total, &partial),
                Err(_) => metrics.record_worker_lost(),
            }
        }
    });
    total
}

/// Sweep `hosts` random responsive servers at `date`, serially, with
/// no faults.
pub fn sweep(population: &ServerPopulation, date: Date, hosts: u32, seed: u64) -> ScanSnapshot {
    sweep_sharded(population, date, hosts, seed, 1, &ScanMetrics::new())
}

/// Sweep `hosts` servers at `date`, serially, under `faults`.
pub fn sweep_faulted(
    population: &ServerPopulation,
    date: Date,
    hosts: u32,
    seed: u64,
    faults: &ScanFaults,
) -> ScanSnapshot {
    sweep_sharded_with(
        population,
        date,
        hosts,
        seed,
        1,
        &ScanMetrics::new(),
        faults,
    )
}

/// Sweep `hosts` servers at `date` across `workers` threads, with no
/// faults (see [`sweep_sharded_with`]).
pub fn sweep_sharded(
    population: &ServerPopulation,
    date: Date,
    hosts: u32,
    seed: u64,
    workers: usize,
    metrics: &ScanMetrics,
) -> ScanSnapshot {
    sweep_sharded_with(
        population,
        date,
        hosts,
        seed,
        workers,
        metrics,
        &ScanFaults::none(),
    )
}

/// Sweep `hosts` servers at `date` across `workers` threads under the
/// fault model.
///
/// Host indices are claimed in [`SHARD_CHUNK`]-sized blocks from an
/// atomic work index; each worker folds its blocks into a private
/// partial snapshot behind a per-chunk panic boundary, and the
/// partials are merged at the end. Because host sampling and every
/// fault draw are counter-based and the merge is a commutative sum,
/// the result is bit-identical to the serial sweep at any worker count
/// and under any fault profile. A dead worker costs its in-flight
/// chunk (recorded as `hosts_dropped`); the sweep still completes.
/// `workers <= 1` runs the chunk loop inline with no threads spawned.
pub fn sweep_sharded_with(
    population: &ServerPopulation,
    date: Date,
    hosts: u32,
    seed: u64,
    workers: usize,
    metrics: &ScanMetrics,
    faults: &ScanFaults,
) -> ScanSnapshot {
    let probes = ProbeSet::campaign();
    let hosts = hosts as u64;
    let started = Instant::now();
    let snap = run_chunked(
        hosts,
        workers,
        metrics,
        &|| ScanSnapshot::new(date),
        &|range, snap: &mut ScanSnapshot| {
            sweep_range(population, &probes, faults, date, range, seed, snap)
        },
        &|a: &mut ScanSnapshot, b: &ScanSnapshot| a.merge(b),
    );
    metrics.record_sweep(started.elapsed());
    snap
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlscope_servers::Quirk;

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
    fn sharded_sweep_is_bit_identical_to_serial() {
        let pop = ServerPopulation::new();
        let date = Date::ymd(2016, 9, 1);
        let serial = sweep(&pop, date, 2500, 9);
        for workers in [2usize, 3, 8] {
            let metrics = ScanMetrics::new();
            let sharded = sweep_sharded(&pop, date, 2500, 9, workers, &metrics);
            assert_eq!(serial, sharded, "workers = {workers}");
            let s = metrics.snapshot();
            assert!(s.accounting_holds(), "{s:?}");
            assert_eq!(s.hosts_probed, 2500);
            assert_eq!(s.hosts_dropped, 0);
            assert_eq!(s.probes_sent, 3 * 2500);
        }
    }

    #[test]
    fn zero_host_sweep_is_empty() {
        let pop = ServerPopulation::new();
        let metrics = ScanMetrics::new();
        let snap = sweep_sharded(&pop, Date::ymd(2017, 3, 1), 0, 5, 4, &metrics);
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
    fn faulted_sweep_is_shard_invariant() {
        let pop = ServerPopulation::new();
        let date = Date::ymd(2017, 2, 1);
        for faults in [ScanFaults::scan_defaults(), ScanFaults::stress()] {
            let serial = sweep_faulted(&pop, date, 2000, 21, &faults);
            for workers in [2usize, 5, 8] {
                let metrics = ScanMetrics::new();
                let sharded = sweep_sharded_with(&pop, date, 2000, 21, workers, &metrics, &faults);
                assert_eq!(serial, sharded, "workers = {workers}");
                assert!(metrics.snapshot().accounting_holds());
            }
        }
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

    #[test]
    fn dead_worker_costs_its_chunk_not_the_sweep() {
        let pop = ServerPopulation::new();
        let date = Date::ymd(2016, 9, 1);
        // Host 700 lives in chunk [512, 1024): that chunk's worker
        // panics, the chunk is dropped, everything else completes.
        let faults = ScanFaults {
            panic_on_host: Some(700),
            ..ScanFaults::none()
        };
        for workers in [2usize, 4, 8] {
            let metrics = ScanMetrics::new();
            let snap = sweep_sharded_with(&pop, date, 3000, 9, workers, &metrics, &faults);
            let s = metrics.snapshot();
            assert!(s.accounting_holds(), "{s:?}");
            assert_eq!(s.hosts_dispatched, 3000, "workers = {workers}");
            assert_eq!(s.hosts_dropped, 512, "workers = {workers}: {s:?}");
            assert_eq!(s.hosts_probed, 3000 - 512);
            assert_eq!(s.workers_lost, 1);
            assert_eq!(snap.hosts, 3000 - 512);
        }
    }

    #[test]
    fn serial_chunk_panic_degrades_and_accounts() {
        // In the inline (workers = 1) path the panicking chunk ends
        // the sweep early: its chunk is dropped, later chunks are
        // never dispatched, and the ledger still balances.
        let pop = ServerPopulation::new();
        let metrics = ScanMetrics::new();
        let faults = ScanFaults {
            panic_on_host: Some(700),
            ..ScanFaults::none()
        };
        let snap = sweep_sharded_with(&pop, Date::ymd(2016, 9, 1), 3000, 9, 1, &metrics, &faults);
        let s = metrics.snapshot();
        assert!(s.accounting_holds(), "{s:?}");
        assert_eq!(s.hosts_dispatched, 1024);
        assert_eq!(s.hosts_probed, 512);
        assert_eq!(s.hosts_dropped, 512);
        assert_eq!(s.workers_lost, 1);
        assert_eq!(snap.hosts, 512);
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

/// Probe the half-open site-index range of one pulse survey into a
/// fresh partial. Site streams are salted with [`PULSE_SALT`], exactly
/// as the serial survey always drew them — sharding does not move
/// them.
fn pulse_range(
    probes: &ProbeSet,
    population: &ServerPopulation,
    date: Date,
    range: Range<u64>,
    seed: u64,
    snap: &mut PulseSnapshot,
) -> ChunkLedger {
    use tlscope_servers::Destination;
    let mut ledger = ChunkLedger::default();
    let mut cache = ParamsCache::default();
    for index in range {
        let mut rng = host_rng(seed ^ PULSE_SALT, date, index);
        let profile = population.sample_for_traffic(&mut cache, Destination::Web, date, &mut rng);
        snap.sites += 1;
        ledger.probed += 1;
        ledger.flight.probes += 1;
        match negotiate::decide(&profile, &probes.rc4_only.facts()) {
            Ok(d) => {
                ledger.flight.completed += 1;
                if d.cipher.is_rc4() {
                    snap.rc4_supported += 1;
                    // Only RC4 supporters get the second, RC4-free probe.
                    ledger.flight.probes += 1;
                    match negotiate::decide(&profile, &probes.chrome_2015_no_rc4.facts()) {
                        Ok(_) => ledger.flight.completed += 1,
                        Err(_) => {
                            ledger.flight.refused += 1;
                            snap.rc4_only += 1;
                        }
                    }
                }
            }
            Err(_) => ledger.flight.refused += 1,
        }
    }
    ledger
}

/// Run one SSL Pulse-style survey at `date` across `workers` threads,
/// with survey accounting recorded into `metrics` — the same chunked
/// engine as [`sweep_sharded_with`], so surveys are visible to
/// `repro --scan-stats` and a dead worker costs a chunk, not the
/// survey. Site sampling keeps the [`PULSE_SALT`]-separated host
/// streams bit-for-bit, so any worker count reproduces the serial
/// survey exactly.
pub fn pulse_survey_sharded(
    probes: &ProbeSet,
    population: &ServerPopulation,
    date: Date,
    sites: u32,
    seed: u64,
    workers: usize,
    metrics: &ScanMetrics,
) -> PulseSnapshot {
    let started = Instant::now();
    let snap = run_chunked(
        sites as u64,
        workers,
        metrics,
        &|| PulseSnapshot::new(date),
        &|range, snap: &mut PulseSnapshot| pulse_range(probes, population, date, range, seed, snap),
        &|a: &mut PulseSnapshot, b: &PulseSnapshot| a.merge(b),
    );
    metrics.record_sweep(started.elapsed());
    snap
}

/// Run one SSL Pulse-style survey at `date` with a prepared probe set,
/// serially and without metrics.
pub fn pulse_survey_with(
    probes: &ProbeSet,
    population: &ServerPopulation,
    date: Date,
    sites: u32,
    seed: u64,
) -> PulseSnapshot {
    pulse_survey_sharded(
        probes,
        population,
        date,
        sites,
        seed,
        1,
        &ScanMetrics::new(),
    )
}

/// Run one SSL Pulse-style survey at `date`.
///
/// Materialises a fresh [`ProbeSet`]; to survey many dates, prepare
/// the set once and call [`pulse_survey_with`] (or
/// [`pulse_survey_sharded`] for the metered, sharded engine).
pub fn pulse_survey(
    population: &ServerPopulation,
    date: Date,
    sites: u32,
    seed: u64,
) -> PulseSnapshot {
    pulse_survey_with(&ProbeSet::campaign(), population, date, sites, seed)
}

#[cfg(test)]
mod pulse_tests {
    use super::*;

    #[test]
    fn rc4_support_declines_like_ssl_pulse() {
        let pop = ServerPopulation::new();
        // Paper: 92.8 % (2013-10) → 19.1 % (2018).
        let early = pulse_survey(&pop, Date::ymd(2013, 10, 1), 3000, 4);
        let late = pulse_survey(&pop, Date::ymd(2018, 4, 1), 3000, 4);
        let e = early.pct(early.rc4_supported);
        let l = late.pct(late.rc4_supported);
        assert!(e > 70.0, "early {e}");
        assert!(l < 40.0, "late {l}");
        assert!(l < e);
        // RC4-only sites effectively vanish.
        assert!(late.pct(late.rc4_only) < 2.0);
    }

    #[test]
    fn survey_is_deterministic_and_probe_set_invariant() {
        let pop = ServerPopulation::new();
        let date = Date::ymd(2015, 4, 1);
        let a = pulse_survey(&pop, date, 500, 11);
        let b = pulse_survey_with(&ProbeSet::campaign(), &pop, date, 500, 11);
        assert_eq!(a, b);
    }

    #[test]
    fn sharded_survey_is_bit_identical_and_metered() {
        let pop = ServerPopulation::new();
        let probes = ProbeSet::campaign();
        let date = Date::ymd(2015, 4, 1);
        let serial = pulse_survey(&pop, date, 2500, 11);
        for workers in [1usize, 2, 4, 8] {
            let metrics = ScanMetrics::new();
            let sharded = pulse_survey_sharded(&probes, &pop, date, 2500, 11, workers, &metrics);
            assert_eq!(serial, sharded, "workers = {workers}");
            let s = metrics.snapshot();
            assert!(s.accounting_holds(), "{s:?}");
            assert_eq!(s.hosts_dispatched, 2500);
            assert_eq!(s.hosts_probed, 2500);
            // One probe per site, plus one more per RC4 supporter.
            assert_eq!(s.probes_sent, 2500 + serial.rc4_supported);
            assert_eq!(s.sweeps_completed, 1);
        }
    }
}
