//! Byte pins for the scanner: the snapshots two sweep dates produce,
//! clean and under the stress fault profile; the six SSL-Pulse
//! surveys with their ledger; and a four-date monthly campaign with
//! its ledger.
//!
//! Each case hashes its snapshots (their `Debug` form, every counter
//! in declaration order) with FNV-1a. The sweep digests were recorded
//! before server profiles borrowed their cipher and curve lists; the
//! survey and campaign digests were recorded on the chunk-sharded
//! sweep engine, before dates and surveys became units of the shared
//! runner; the survey ledger digests were recorded before the
//! per-host fold began counting probes straight into the ledger. Each
//! change must leave every sampled host, probe outcome and ledger
//! count where it was. The fault profiles are named explicitly (not
//! read from the environment), so the pins hold in every CI
//! fault-matrix cell.

use tlscope_chron::Date;
use tlscope_durable::fnv1a64;
use tlscope_scanner::{
    pulse_surveys, schedule, sweep_sharded_with, ProbeSet, ScanCampaign, ScanFaults, ScanMetrics,
    ScanMetricsSnapshot,
};
use tlscope_servers::ServerPopulation;

fn snapshot_digest(faults: &ScanFaults, date: Date) -> u64 {
    let metrics = ScanMetrics::new();
    let snap = sweep_sharded_with(
        &ServerPopulation::new(),
        date,
        3_000,
        0x5CA7,
        1,
        &metrics,
        faults,
    );
    fnv1a64(format!("{snap:?}").as_bytes())
}

#[test]
fn sweep_snapshots_are_pinned() {
    for (label, faults, pins) in [
        (
            "none",
            ScanFaults::none(),
            [
                (Date::ymd(2015, 9, 1), 0x8062_9891_72e4_16d6),
                (Date::ymd(2018, 5, 1), 0x333b_dd8b_ceba_51df),
            ],
        ),
        (
            "stress",
            ScanFaults::stress(),
            [
                (Date::ymd(2015, 9, 1), 0x0246_d08e_64d8_ed14),
                (Date::ymd(2018, 5, 1), 0x1d53_ddb0_5f25_30b7),
            ],
        ),
    ] {
        for (date, digest) in pins {
            assert_eq!(
                snapshot_digest(&faults, date),
                digest,
                "{label} {date}: snapshot moved"
            );
        }
    }
}

/// The SSL-Pulse survey dates `repro`'s `ssl-pulse` artefact uses.
fn pulse_dates() -> Vec<Date> {
    (2013..=2018)
        .map(|year| match year {
            2013 => Date::ymd(2013, 10, 1),
            _ => Date::ymd(year, 4, 1),
        })
        .collect()
}

/// Each case pins the six surveys and, beside them, the ledger they
/// leave: the surveys alone would not see a refused second probe booked
/// as completed, since that moves no survey counter and the ledger
/// still balances.
#[test]
fn pulse_surveys_are_pinned() {
    let (pop, probes) = (ServerPopulation::new(), ProbeSet::campaign());
    for (sites, seed, digest, ledger_digest) in [
        (
            800,
            0x5CA7,
            0xa7f9_5bfe_5f7a_640f_u64,
            0x8299_dfc2_770d_7fa7_u64,
        ),
        (
            800,
            0x1C51_2012,
            0xef94_69e2_d383_3a7c,
            0x1b62_2620_403c_5bcd,
        ),
        (4_000, 0x5CA7, 0x7a78_80a7_6b32_8561, 0x52b7_d195_8a2f_4577),
        (
            4_000,
            0x1C51_2012,
            0x9913_80c7_1921_2a60,
            0xc167_c822_004a_9ec7,
        ),
    ] {
        for workers in [1, 2] {
            let metrics = ScanMetrics::new();
            let surveys = pulse_surveys(
                &probes,
                &pop,
                &pulse_dates(),
                sites,
                seed,
                workers,
                &metrics,
            );
            let text: String = surveys.iter().map(|s| format!("{s:?}\n")).collect();
            assert_eq!(
                fnv1a64(text.as_bytes()),
                digest,
                "{sites} sites, seed {seed:#x}, workers {workers}: surveys moved"
            );
            // The clock is the one ledger field a rerun may move.
            let ledger = ScanMetricsSnapshot {
                scan_nanos: 0,
                ..metrics.snapshot()
            };
            assert_eq!(
                fnv1a64(format!("{ledger:?}").as_bytes()),
                ledger_digest,
                "{sites} sites, seed {seed:#x}, workers {workers}: ledger moved ({ledger:?})"
            );
        }
    }
}

#[test]
fn monthly_campaign_is_pinned() {
    let pop = ServerPopulation::new();
    for (label, faults, digest) in [
        ("none", ScanFaults::none(), 0x896c_dcc7_81bd_789f_u64),
        ("stress", ScanFaults::stress(), 0x3164_437b_38c7_d8d5),
    ] {
        let campaign = ScanCampaign {
            dates: schedule(Date::ymd(2016, 1, 1), Date::ymd(2016, 4, 1), 30),
            hosts_per_sweep: 1_500,
            seed: 0x5CA7,
            faults,
        };
        assert_eq!(campaign.dates.len(), 4);
        for workers in [1, 3] {
            let metrics = ScanMetrics::new();
            let snaps = campaign.run_parallel(&pop, workers, &metrics);
            // The clock is the one ledger field a rerun may move.
            let ledger = ScanMetricsSnapshot {
                scan_nanos: 0,
                ..metrics.snapshot()
            };
            let text = format!("{snaps:?}\n{ledger:?}\n");
            assert_eq!(
                fnv1a64(text.as_bytes()),
                digest,
                "{label}, workers {workers}: campaign or ledger moved"
            );
        }
    }
}
