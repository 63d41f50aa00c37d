//! Alloc-budget regression tests: pin the fused generation→ingestion
//! hot path under [`PIPELINE_ALLOC_BUDGET_PER_CONN`] heap allocations
//! per connection, and the active-scan sweep loop under
//! [`SCAN_ALLOC_BUDGET_PER_HOST`] per host. Run only with the counting
//! allocator installed:
//!
//! ```text
//! cargo test -p tlscope-bench --features alloc-counter --test alloc_budget
//! ```
//!
//! Each check measures *marginal* allocations per unit — the
//! difference between a large and a small workload divided by the
//! unit delta — so one-time costs (interner tables, month maps,
//! hash-map growth, a sweep's probe set) cancel out and the tests stay
//! meaningful at test-sized workloads. The pipeline test exercises the
//! borrowed fast path exactly as the fused study runner does: scratch
//! borrows from the generator's stream folded straight into the
//! aggregate. The sweep test runs one date's sweep clean and under the
//! stress fault profile, as the `scan` bench does.

#![cfg(feature = "alloc-counter")]

use tlscope::chron::{Date, Month};
use tlscope::notary::{ingest_borrowed, ExtractScratch, NotaryAggregate};
use tlscope::scanner::{sweep_sharded_with, ScanFaults, ScanMetrics};
use tlscope::servers::ServerPopulation;
use tlscope::traffic::{FaultInjector, Generator, TrafficConfig};
use tlscope_bench::{alloc_counter, PIPELINE_ALLOC_BUDGET_PER_CONN, SCAN_ALLOC_BUDGET_PER_HOST};

/// Allocations of one fused pass over a month of `conns` connections,
/// folded through `scratch`.
fn fused_pipeline_allocs(conns: u32, scratch: &mut ExtractScratch) -> u64 {
    let gen = Generator::new(TrafficConfig {
        seed: 0x715C0,
        connections_per_month: conns,
        faults: FaultInjector::none(),
    });
    let month = Month::new(2015, 6).unwrap();
    // Warm the extraction scratch outside the counted region.
    let mut agg = NotaryAggregate::new();
    let mut stream = gen.stream_month(month);
    for _ in 0..64 {
        let Some(flow) = stream.next_flow() else {
            break;
        };
        ingest_borrowed(
            &mut agg,
            scratch,
            flow.date,
            flow.port,
            flow.client,
            flow.server,
        );
    }
    drop(stream);
    drop(agg);
    let (_, allocs) = alloc_counter::counted(|| {
        let mut agg = NotaryAggregate::new();
        let mut stream = gen.stream_month(month);
        while let Some(flow) = stream.next_flow() {
            ingest_borrowed(
                &mut agg,
                scratch,
                flow.date,
                flow.port,
                flow.client,
                flow.server,
            );
        }
        std::hint::black_box(&agg);
    });
    allocs
}

#[test]
fn marginal_pipeline_allocs_per_conn_stay_under_budget() {
    let (small, large) = (2_000u32, 6_000u32);
    // One scratch for both passes, as one study worker keeps its
    // scratch across months.
    let mut scratch = ExtractScratch::new();
    let a_small = fused_pipeline_allocs(small, &mut scratch);
    let a_large = fused_pipeline_allocs(large, &mut scratch);
    // With the borrowed path the marginal cost can be ~zero; the
    // larger run may allocate no more than the smaller once tables
    // have grown, so the delta saturates instead of asserting growth.
    let marginal = a_large.saturating_sub(a_small) as f64 / (large - small) as f64;
    assert!(
        marginal <= PIPELINE_ALLOC_BUDGET_PER_CONN,
        "pipeline hot path regressed: {marginal:.3} allocs/conn > budget \
         {PIPELINE_ALLOC_BUDGET_PER_CONN:.1} (small={a_small}, large={a_large})"
    );
}

fn sweep_allocs(hosts: u32, faults: &ScanFaults) -> u64 {
    let pop = ServerPopulation::new();
    let date = Date::ymd(2016, 6, 1);
    let sweep =
        |hosts| sweep_sharded_with(&pop, date, hosts, 0x5CA7, 1, &ScanMetrics::new(), faults);
    // Warm lazy runtime state outside the counted region.
    std::hint::black_box(sweep(64));
    let (_, allocs) = alloc_counter::counted(|| {
        std::hint::black_box(sweep(hosts));
    });
    allocs
}

#[test]
fn marginal_sweep_allocs_per_host_stay_under_budget() {
    let (small, large) = (1_000u32, 4_000u32);
    for (label, faults) in [
        ("none", ScanFaults::none()),
        ("stress", ScanFaults::stress()),
    ] {
        let a_small = sweep_allocs(small, &faults);
        let a_large = sweep_allocs(large, &faults);
        let marginal = a_large.saturating_sub(a_small) as f64 / (large - small) as f64;
        assert!(
            marginal <= SCAN_ALLOC_BUDGET_PER_HOST,
            "sweep loop regressed under {label}: {marginal:.3} allocs/host > budget \
             {SCAN_ALLOC_BUDGET_PER_HOST:.2} (small={a_small}, large={a_large})"
        );
    }
}
