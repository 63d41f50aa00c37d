//! Byte pins for the scanner: the snapshots two sweep dates produce,
//! clean and under the stress fault profile.
//!
//! Each case hashes the sweep's snapshot (its `Debug` form, every
//! counter in declaration order) with FNV-1a. The digests were
//! recorded before server profiles borrowed their cipher and curve
//! lists, which must leave every sampled host and probe outcome where
//! it was. The fault profiles are named explicitly (not read from the
//! environment), so the pins hold in every CI fault-matrix cell.

use tlscope_chron::Date;
use tlscope_durable::fnv1a64;
use tlscope_scanner::{sweep_faulted, ScanFaults};
use tlscope_servers::ServerPopulation;

fn snapshot_digest(faults: &ScanFaults, date: Date) -> u64 {
    let snap = sweep_faulted(&ServerPopulation::new(), date, 3_000, 0x5CA7, faults);
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
