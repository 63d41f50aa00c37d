//! Property tests for fingerprint interning: the `FpId`s an aggregate
//! hands out depend on ingestion order (first sighting wins the next
//! dense id), so sharded workers assign *different* ids to the same
//! [`Fingerprint`] — and merge-time remapping plus the id-independent
//! `PartialEq` must hide that completely. These tests pin the
//! month-sharded study runner `PartialEq`-identical to the serial path
//! across workers 1–8 × fault profiles none/defaults/stress, and merge
//! order invisible for any shard size and tap fault mix.

use proptest::prelude::*;
use tlscope_analysis::{Study, StudyConfig};
use tlscope_chron::Month;
use tlscope_notary::{ingest_flow, ingest_serial, NotaryAggregate, TappedFlow};
use tlscope_traffic::{FaultInjector, Generator, TrafficConfig};

fn flows(seed: u64, year: i32, mon: u8, n: u32, faults: FaultInjector) -> Vec<TappedFlow> {
    let g = Generator::new(TrafficConfig {
        seed,
        connections_per_month: n,
        faults,
    });
    g.month(Month::ym(year, mon))
        .into_iter()
        .map(TappedFlow::from)
        .collect()
}

fn profile(i: usize) -> FaultInjector {
    match i {
        0 => FaultInjector::none(),
        1 => FaultInjector::tap_defaults(),
        _ => FaultInjector::stress(),
    }
}

fn fault_mix() -> impl Strategy<Value = FaultInjector> {
    (0usize..7).prop_map(|i| match i {
        0 => FaultInjector::none(),
        1 => FaultInjector::tap_defaults(),
        2 => FaultInjector {
            drop_prob: 0.1,
            truncate_prob: 0.2,
            corrupt_prob: 0.2,
            ..FaultInjector::none()
        },
        // Every flow truncated: nothing but damaged input.
        3 => FaultInjector {
            truncate_prob: 1.0,
            ..FaultInjector::none()
        },
        4 => FaultInjector {
            truncate_prob: 0.5,
            corrupt_prob: 1.0,
            ..FaultInjector::none()
        },
        // The extended tap faults: mid-flow gaps, duplication, outages.
        5 => FaultInjector {
            gap_prob: 0.5,
            duplicate_prob: 0.3,
            outage_prob: 0.4,
            ..FaultInjector::none()
        },
        _ => FaultInjector::stress(),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The full acceptance matrix per case: the study runner at every
    /// worker count 1–8 is checked against the serial aggregate for one
    /// (seed, three-month window, fault-profile) draw, and
    /// per-fingerprint lookups through the interner must agree in both
    /// directions.
    #[test]
    fn interned_parallel_matches_serial_for_all_worker_counts(
        seed in 0u64..1_000_000,
        year in 2012i32..=2018,
        mon in 1u8..=10,
        n in 80u32..240,
        profile_idx in 0usize..3,
    ) {
        let faults = profile(profile_idx);
        let fs: Vec<TappedFlow> = (mon..mon + 3)
            .flat_map(|m| flows(seed, year, m, n, faults))
            .collect();
        let serial = ingest_serial(fs);
        for workers in 1usize..=8 {
            let parallel = Study::new(StudyConfig {
                seed,
                connections_per_month: n,
                start: Month::ym(year, mon),
                end: Month::ym(year, mon + 2),
                workers,
                faults,
                ..StudyConfig::quick()
            })
            .run_passive();
            prop_assert_eq!(&serial, &parallel, "workers={}", workers);
            // Equality is id-independent by construction; also pin the
            // by-value lookup path each side of the remap.
            for (fp, count) in serial.iter_fp_counts() {
                prop_assert_eq!(parallel.fp_count(fp), count);
                prop_assert_eq!(
                    parallel.sighting_of(fp).is_some(),
                    serial.sighting_of(fp).is_some()
                );
            }
            for (fp, count) in parallel.iter_fp_counts() {
                prop_assert_eq!(serial.fp_count(fp), count);
            }
        }
    }

    /// Ingestion order permutes interner id assignment; the aggregate
    /// must still compare equal. Reversing the flow order guarantees a
    /// different first-sighting sequence whenever the month carries
    /// more than one distinct fingerprint.
    #[test]
    fn id_assignment_order_is_invisible(
        seed in 0u64..1_000_000,
        year in 2012i32..=2018,
        mon in 1u8..=12,
    ) {
        let fs = flows(seed, year, mon, 150, FaultInjector::none());
        let mut forward = NotaryAggregate::new();
        for f in &fs {
            ingest_flow(&mut forward, f);
        }
        let mut backward = NotaryAggregate::new();
        for f in fs.iter().rev() {
            ingest_flow(&mut backward, f);
        }
        prop_assert_eq!(&forward, &backward);
    }

    /// Merge is commutative under remapping: folding the shards
    /// left-to-right and right-to-left yields equal aggregates even
    /// though the surviving interners assign ids in different orders,
    /// for any shard size and any tap fault mix (including 100 %
    /// truncation), and both equal the unsharded serial fold.
    #[test]
    fn merge_order_is_invisible(
        seed in 0u64..1_000_000,
        year in 2012i32..=2018,
        mon in 1u8..=12,
        chunk in 1usize..300,
        faults in fault_mix(),
    ) {
        let fs = flows(seed, year, mon, 180, faults);
        let part = |c: &[TappedFlow]| ingest_serial(c.iter().cloned());
        let mut ltr = NotaryAggregate::new();
        for c in fs.chunks(chunk) {
            ltr.merge(part(c));
        }
        let mut rtl = NotaryAggregate::new();
        for c in fs.chunks(chunk).rev() {
            rtl.merge(part(c));
        }
        prop_assert_eq!(&ltr, &rtl);
        prop_assert_eq!(&ltr, &ingest_serial(fs));
    }
}
