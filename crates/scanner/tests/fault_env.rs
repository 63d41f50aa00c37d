//! Scanner behaviour under the environment-selected fault profile.
//!
//! Runs under whatever `TLSCOPE_SCAN_FAULT_PROFILE` names — the CI
//! fault-matrix job sets `stress`, forcing heavy SYN loss, flakes,
//! timeouts, and dead-host windows through the full sweep and campaign
//! paths; locally it falls back to the default scan mix. Either way the
//! determinism and accounting contracts must hold unchanged.

use tlscope_chron::Date;
use tlscope_scanner::{schedule, sweep_sharded_with, ScanCampaign, ScanFaults, ScanMetrics};
use tlscope_servers::ServerPopulation;

#[test]
fn env_fault_profile_never_breaks_the_sweep_ledger() {
    let faults = ScanFaults::from_env(ScanFaults::scan_defaults());
    faults.validate().expect("profile must be valid");
    let pop = ServerPopulation::new();
    let date = Date::ymd(2016, 11, 1);
    let metrics = ScanMetrics::new();
    let snap = sweep_sharded_with(&pop, date, 3000, 41, 1, &metrics, &faults);
    let s = metrics.snapshot();
    assert!(s.accounting_holds(), "{s:?}");
    assert_eq!(s.hosts_dispatched, 3000);
    assert_eq!(s.hosts_probed, snap.hosts);
    // Any non-zero profile must actually exercise the loss ledger.
    if !faults.is_none() {
        assert!(s.hosts_dropped > 0, "{s:?}");
        assert!(s.probes_timed_out > 0, "{s:?}");
    }
}

#[test]
fn env_fault_profile_campaign_accounts_loss() {
    let faults = ScanFaults::from_env(ScanFaults::scan_defaults());
    let campaign = ScanCampaign {
        dates: schedule(Date::ymd(2016, 1, 1), Date::ymd(2016, 4, 1), 30),
        hosts_per_sweep: 800,
        seed: 43,
        faults,
    };
    let pop = ServerPopulation::new();
    let by_hand: Vec<_> = campaign
        .dates
        .iter()
        .map(|&date| sweep_sharded_with(&pop, date, 800, 43, 1, &ScanMetrics::new(), &faults))
        .collect();
    let metrics = ScanMetrics::new();
    let parallel = campaign.run_parallel(&pop, 4, &metrics);
    assert_eq!(by_hand, parallel);
    let s = metrics.snapshot();
    assert!(s.accounting_holds(), "{s:?}");
    assert_eq!(
        s.hosts_dispatched,
        800 * campaign.dates.len() as u64,
        "{s:?}"
    );
}
