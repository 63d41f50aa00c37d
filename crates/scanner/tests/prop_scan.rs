//! Property tests for the scan engine: worker count is invisible.
//!
//! The determinism contract of the active-scan engine is that neither
//! worker count nor the fault profile's *evaluation context* is part
//! of the experiment: a campaign or a set of SSL-Pulse surveys run at
//! any worker count must equal the same dates swept one at a time, bit
//! for bit, under any fault profile, because every host draw and every
//! fault draw is a pure function of `(seed, date, host_index,
//! attempt)`. These tests drive that contract across worker counts,
//! cadences, fault profiles, and host counts (including zero), plus the
//! two-part accounting invariant (`dispatched == probed + dropped` and
//! `completed + refused + timed_out == sent`) and the merge
//! commutativity a date's host-by-host replay relies on.

use proptest::prelude::*;
use tlscope_chron::Date;
use tlscope_scanner::{
    pulse_surveys, schedule, sweep_sharded_with, ProbeSet, ScanCampaign, ScanFaults, ScanMetrics,
    ScanSnapshot, CENSYS_START,
};
use tlscope_servers::ServerPopulation;

/// The named profiles a sweep can run under, as a proptest strategy.
fn fault_profile() -> impl Strategy<Value = ScanFaults> {
    prop_oneof![
        Just(ScanFaults::none()),
        Just(ScanFaults::scan_defaults()),
        Just(ScanFaults::stress()),
    ]
}

/// One date swept under `faults`, its accounting discarded.
fn sweep(
    pop: &ServerPopulation,
    date: Date,
    hosts: u32,
    seed: u64,
    faults: &ScanFaults,
) -> ScanSnapshot {
    sweep_sharded_with(pop, date, hosts, seed, 1, &ScanMetrics::new(), faults)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A sweep's ledger balances under any fault profile, over the
    /// full host-count range the campaigns use (including the empty
    /// sweep), and the worker count it is handed changes nothing.
    #[test]
    fn sweep_ledger_balances(
        seed in 0u64..1_000_000,
        week in 0i64..140,
        hosts in 0u32..6000,
        workers in 1usize..=8,
        faults in fault_profile(),
    ) {
        let pop = ServerPopulation::new();
        let date = CENSYS_START.add_days(7 * week);
        let serial = sweep(&pop, date, hosts, seed, &faults);
        let metrics = ScanMetrics::new();
        let swept = sweep_sharded_with(&pop, date, hosts, seed, workers, &metrics, &faults);
        prop_assert_eq!(&serial, &swept);
        let s = metrics.snapshot();
        prop_assert!(s.accounting_holds(), "accounting broke: {:?}", s);
        prop_assert_eq!(s.hosts_dispatched, hosts as u64);
        prop_assert_eq!(s.hosts_probed + s.hosts_dropped, hosts as u64);
        prop_assert_eq!(s.hosts_probed, serial.hosts);
        prop_assert_eq!(
            s.handshakes_completed + s.handshakes_refused + s.probes_timed_out,
            s.probes_sent
        );
        prop_assert_eq!(s.sweeps_completed, 1);
        if faults == ScanFaults::none() {
            prop_assert_eq!(s.hosts_dropped, 0);
            prop_assert_eq!(s.probes_timed_out, 0);
            prop_assert_eq!(s.probes_sent, 3 * hosts as u64);
        }
    }

    /// A parallel campaign equals its dates swept one at a time by
    /// hand, at any worker count, cadence, and fault profile,
    /// snapshots in date order.
    #[test]
    fn parallel_campaign_matches_a_hand_driven_loop(
        seed in 0u64..1_000_000,
        weekly in 0u32..2,
        months in 1i64..5,
        hosts in 1u32..400,
        workers in 1usize..=8,
        faults in fault_profile(),
    ) {
        let interval = if weekly == 0 { 7i64 } else { 30i64 };
        let campaign = ScanCampaign {
            dates: schedule(CENSYS_START, CENSYS_START.add_days(30 * months), interval),
            hosts_per_sweep: hosts,
            seed,
            faults,
        };
        let pop = ServerPopulation::new();
        let by_hand: Vec<ScanSnapshot> = campaign
            .dates
            .iter()
            .map(|&date| sweep(&pop, date, hosts, seed, &faults))
            .collect();
        let metrics = ScanMetrics::new();
        let parallel = campaign.run_parallel(&pop, workers, &metrics);
        prop_assert_eq!(&by_hand, &parallel);
        prop_assert_eq!(&campaign.run(&pop), &parallel);
        let s = metrics.snapshot();
        prop_assert!(s.accounting_holds(), "accounting broke: {:?}", s);
        let dispatched = hosts as u64 * campaign.dates.len() as u64;
        prop_assert_eq!(s.hosts_dispatched, dispatched);
        prop_assert_eq!(s.hosts_probed + s.hosts_dropped, dispatched);
        prop_assert_eq!(
            s.handshakes_completed + s.handshakes_refused + s.probes_timed_out,
            s.probes_sent
        );
        prop_assert_eq!(s.sweeps_completed, campaign.dates.len() as u64);
        prop_assert_eq!(s.workers_lost, 0);
        if faults == ScanFaults::none() {
            prop_assert_eq!(s.hosts_probed, dispatched);
        }
    }

    /// Surveys run as units equal the same surveys run one date at a
    /// time, at any worker count: the `PULSE_SALT` site streams do not
    /// move with the schedule.
    #[test]
    fn pulse_surveys_match_a_hand_driven_loop(
        seed in 0u64..1_000_000,
        sites in 0u32..4000,
        surveys in 1i64..=6,
        workers in 1usize..=8,
    ) {
        let pop = ServerPopulation::new();
        let probes = ProbeSet::campaign();
        let dates = schedule(Date::ymd(2013, 10, 1), Date::ymd(2013, 10, 1).add_days(365 * (surveys - 1)), 365);
        let by_hand: Vec<_> = dates
            .iter()
            .flat_map(|&date| pulse_surveys(&probes, &pop, &[date], sites, seed, 1, &ScanMetrics::new()))
            .collect();
        let metrics = ScanMetrics::new();
        let run = pulse_surveys(&probes, &pop, &dates, sites, seed, workers, &metrics);
        prop_assert_eq!(&by_hand, &run);
        let s = metrics.snapshot();
        prop_assert!(s.accounting_holds(), "accounting broke: {:?}", s);
        let n = dates.len() as u64;
        prop_assert_eq!(s.hosts_probed, n * sites as u64);
        let rc4: u64 = run.iter().map(|survey| survey.rc4_supported).sum();
        prop_assert_eq!(s.probes_sent, n * sites as u64 + rc4);
        prop_assert_eq!(s.sweeps_completed, n);
    }

    /// Merging partial snapshots is order-independent: the property
    /// that lets a date's replay merge one-host partials in any order.
    #[test]
    fn snapshot_merge_is_commutative(
        seed in 0u64..1_000_000,
        hosts in 1u32..1200,
        cut_a in 0.0f64..1.0,
        cut_b in 0.0f64..1.0,
    ) {
        let pop = ServerPopulation::new();
        let date = Date::ymd(2016, 9, 1);
        let none = ScanFaults::none();
        let a = ((hosts as f64) * cut_a.min(cut_b)) as u32;
        let b = ((hosts as f64) * cut_a.max(cut_b)) as u32;
        let pa = sweep(&pop, date, a, seed, &none);
        let pb = sweep(&pop, date, b, seed.wrapping_add(1), &none);
        let mut ab = ScanSnapshot::new(date);
        ab.merge(&pa);
        ab.merge(&pb);
        let mut ba = ScanSnapshot::new(date);
        ba.merge(&pb);
        ba.merge(&pa);
        prop_assert_eq!(ab, ba);
    }
}
