//! Property test: hello-parse memoisation is invisible in the output.
//! For any seed, month, study worker count 1–8, and fault profile
//! (clean, tap defaults, stress), ingestion with the parse cache
//! enabled produces a [`NotaryAggregate`] bit-identical to ingestion
//! with the cache disabled — every monthly counter,
//! fingerprint count, sighting, and failure class. Dedicated threads
//! give each run a fresh thread-local cache so capacities can be
//! pinned per case. Run with `TLSCOPE_VERIFY_PARSE_CACHE=1` (the CI
//! fault-matrix leg does) every hit additionally re-parses and asserts
//! equality inline.

use proptest::prelude::*;
use tlscope_analysis::{Study, StudyConfig};
use tlscope_chron::Month;
use tlscope_notary::{
    ingest_serial, parse_cache_set_capacity, parse_cache_stats, ParseCacheStats, PipelineMetrics,
    TappedFlow,
};
use tlscope_traffic::{FaultInjector, Generator, TrafficConfig};

/// Run `f` on a dedicated thread: a fresh thread-local parse cache,
/// whose capacity can be set without affecting any other test.
fn on_fresh_thread<R: Send>(f: impl FnOnce() -> R + Send) -> R {
    std::thread::scope(|s| s.spawn(f).join().expect("ingestion thread panicked"))
}

fn flows_for(seed: u64, year: i32, mon: u8, n: u32, faults: FaultInjector) -> Vec<TappedFlow> {
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
        let flows: Vec<TappedFlow> = (mon..mon + 2)
            .flat_map(|m| flows_for(seed, year, m, n, faults))
            .collect();
        let uncached = on_fresh_thread(|| {
            parse_cache_set_capacity(0);
            ingest_serial(flows.clone())
        });
        let cached_serial = on_fresh_thread(|| ingest_serial(flows.clone()));
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
        // Per-worker cache counters rolled up through the month flush:
        // every hit or miss is a dispatched flow.
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
        let uncached = on_fresh_thread(|| {
            parse_cache_set_capacity(0);
            ingest_serial(flows.clone())
        });
        let (squeezed, stats) = on_fresh_thread(|| {
            parse_cache_set_capacity(2);
            (ingest_serial(flows.clone()), parse_cache_stats())
        });
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
    let (agg, stats) = on_fresh_thread(|| {
        let agg = ingest_serial(flows);
        (agg, parse_cache_stats())
    });
    assert_eq!(
        stats,
        ParseCacheStats::default(),
        "damaged flows must bypass the cache"
    );
    assert!(agg.garbled_client > 0);
}
