//! Property test: hello-parse memoisation is invisible in the output.
//! For any seed, month, study worker count 1–8, and fault profile
//! (clean, tap defaults, stress), ingestion with the parse cache
//! enabled produces a [`NotaryAggregate`] bit-identical to ingestion
//! with the cache disabled — every monthly counter,
//! fingerprint count, sighting, and failure class. Each serial pass
//! folds through a scratch of its own, built with the capacity the
//! case pins. Run with `TLSCOPE_VERIFY_PARSE_CACHE=1` (the CI
//! fault-matrix leg does) every hit additionally re-parses and asserts
//! equality inline.

use proptest::prelude::*;
use tlscope_analysis::{Study, StudyConfig};
use tlscope_chron::Month;
use tlscope_notary::{
    ingest_borrowed, ExtractScratch, NotaryAggregate, ParseCacheStats, PipelineMetrics,
};
use tlscope_traffic::{ConnectionEvent, FaultInjector, Generator, TrafficConfig};

fn flows_for(seed: u64, year: i32, mon: u8, n: u32, faults: FaultInjector) -> Vec<ConnectionEvent> {
    let g = Generator::new(TrafficConfig {
        seed,
        connections_per_month: n,
        faults,
    });
    g.month(Month::ym(year, mon))
}

/// Fold `flows` in order into a fresh aggregate through `scratch`.
fn fold_serial(flows: &[ConnectionEvent], scratch: &mut ExtractScratch) -> NotaryAggregate {
    let mut agg = NotaryAggregate::new();
    for e in flows {
        ingest_borrowed(
            &mut agg,
            scratch,
            e.date,
            e.port,
            &e.client_flow,
            e.server_flow.as_deref(),
        );
    }
    agg
}

fn profile() -> impl Strategy<Value = FaultInjector> {
    (0usize..3).prop_map(|i| match i {
        0 => FaultInjector::none(),
        1 => FaultInjector::tap_defaults(),
        _ => FaultInjector::stress(),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn cached_ingestion_is_bit_identical(
        seed in 0u64..1_000_000,
        year in 2012i32..=2018,
        mon in 1u8..=11,
        n in 50u32..200,
        workers in 1usize..=8,
        faults in profile(),
    ) {
        let flows: Vec<ConnectionEvent> = (mon..mon + 2)
            .flat_map(|m| flows_for(seed, year, m, n, faults))
            .collect();
        let uncached = fold_serial(&flows, &mut ExtractScratch::with_cache_capacity(0));
        let cached_serial = fold_serial(&flows, &mut ExtractScratch::new());
        prop_assert_eq!(&uncached, &cached_serial);
        // Study workers each carry their own cache; the merge must
        // still be bit-identical to the uncached serial pass.
        let metrics = PipelineMetrics::new();
        let parallel = Study::new(StudyConfig {
            seed,
            connections_per_month: n,
            start: Month::ym(year, mon),
            end: Month::ym(year, mon + 1),
            workers,
            faults,
            ..StudyConfig::quick()
        })
        .run_passive_metered(&metrics);
        prop_assert_eq!(&uncached, &parallel);
        // Per-worker cache counters rolled up month by month: every
        // hit or miss is a dispatched flow.
        let s = metrics.snapshot();
        prop_assert!(s.parse_cache_hits + s.parse_cache_misses <= s.flows_dispatched);
    }

    #[test]
    fn tiny_capacity_evicts_but_stays_identical(
        seed in 0u64..1_000_000,
        year in 2012i32..=2018,
        mon in 1u8..=12,
    ) {
        let flows = flows_for(seed, year, mon, 150, FaultInjector::none());
        let uncached = fold_serial(&flows, &mut ExtractScratch::with_cache_capacity(0));
        let mut tiny = ExtractScratch::with_cache_capacity(2);
        let squeezed = fold_serial(&flows, &mut tiny);
        let stats = tiny.parse_cache_stats();
        prop_assert_eq!(&uncached, &squeezed);
        // A 2-entry cache churns on a month's worth of client stacks.
        prop_assert!(stats.evictions > 0, "cap-2 cache never evicted: {:?}", stats);
        prop_assert!(stats.misses > stats.evictions, "{:?}", stats);
    }
}

#[test]
fn full_truncation_bypasses_the_cache() {
    // Every client flow is cut mid-record: nothing reaches the cache,
    // so its counters stay at zero — damaged input must never be
    // memoised or served from memo.
    let faults = FaultInjector {
        truncate_prob: 1.0,
        ..FaultInjector::none()
    };
    let flows = flows_for(1234, 2016, 4, 300, faults);
    let mut scratch = ExtractScratch::new();
    let agg = fold_serial(&flows, &mut scratch);
    assert_eq!(
        scratch.parse_cache_stats(),
        ParseCacheStats::default(),
        "damaged flows must bypass the cache"
    );
    assert!(agg.garbled_client > 0);
}
