//! Generator-driven pipeline tests: serial ingestion on realistic
//! traffic, and the month-sharded study runner checked against it.
//! The serial reference is driven by hand — `stream_month` →
//! `next_flow` → `ingest_borrowed` — and shares no runner code with
//! the study.

use tlscope_analysis::{Study, StudyConfig};
use tlscope_chron::Month;
use tlscope_notary::{ingest_borrowed, ExtractScratch, NotaryAggregate, PipelineMetrics};
use tlscope_traffic::{FaultInjector, Generator, TrafficConfig};

/// Fold every flow of `g`'s `month` into `agg`, one borrow at a time.
fn fold_month(agg: &mut NotaryAggregate, g: &Generator, month: Month) {
    let mut scratch = ExtractScratch::new();
    let mut stream = g.stream_month(month);
    while let Some(f) = stream.next_flow() {
        ingest_borrowed(agg, &mut scratch, f.date, f.port, f.client, f.server);
    }
}

/// A study over `start..=end` with `n` connections per month.
fn study_config(seed: u64, start: Month, end: Month, n: u32, faults: FaultInjector) -> StudyConfig {
    StudyConfig {
        seed,
        connections_per_month: n,
        start,
        end,
        faults,
        ..StudyConfig::quick()
    }
}

/// Serial ingestion of every flow the study's generator draws.
fn serial_reference(study: &Study) -> NotaryAggregate {
    let mut agg = NotaryAggregate::new();
    for m in study.months() {
        fold_month(&mut agg, study.generator(), m);
    }
    agg
}

#[test]
fn serial_ingestion_counts_everything() {
    let g = Generator::new(TrafficConfig {
        seed: 7,
        connections_per_month: 400,
        faults: FaultInjector::none(),
    });
    let mut agg = NotaryAggregate::new();
    fold_month(&mut agg, &g, Month::ym(2016, 3));
    let m = agg.month(Month::ym(2016, 3)).unwrap();
    assert_eq!(m.total, 400);
    assert!(m.answered > 350);
    assert!(m.neg_aead > 0);
}

#[test]
fn study_matches_serial_at_every_worker_count() {
    let mut cfg = study_config(
        7,
        Month::ym(2015, 8),
        Month::ym(2015, 10),
        300,
        FaultInjector::none(),
    );
    let serial = serial_reference(&Study::new(cfg.clone()));
    for workers in 1..=8 {
        cfg.workers = workers;
        // Aggregation is commutative and integer-exact, so the whole
        // aggregate — counters, fingerprints, sightings, position
        // means — must be bit-identical.
        assert_eq!(
            Study::new(cfg.clone()).run_passive(),
            serial,
            "workers={workers}"
        );
    }
}

#[test]
fn faulty_flows_are_tolerated() {
    let g = Generator::new(TrafficConfig {
        seed: 9,
        connections_per_month: 500,
        faults: FaultInjector {
            truncate_prob: 0.3,
            corrupt_prob: 0.3,
            ..FaultInjector::none()
        },
    });
    let events = g.month(Month::ym(2016, 6));
    let n = events.len();
    let (mut agg, mut scratch) = (NotaryAggregate::new(), ExtractScratch::new());
    for e in &events {
        ingest_borrowed(
            &mut agg,
            &mut scratch,
            e.date,
            e.port,
            &e.client_flow,
            e.server_flow.as_deref(),
        );
    }
    // Nothing panics; damaged flows are counted, not lost.
    let m = agg.month(Month::ym(2016, 6)).unwrap();
    assert!(m.total as usize + agg.garbled_client as usize + agg.not_tls as usize == n);
    assert!(agg.garbled_client > 0);
}

/// Every named tap profile — the stress mix forces heavy drops,
/// truncation, corruption, gaps, duplication and outages through the
/// full pipeline — keeps the sharded study equal to the serial
/// reference, with every generated flow accounted for.
#[test]
fn every_fault_profile_keeps_equivalence() {
    for faults in [
        FaultInjector::none(),
        FaultInjector::tap_defaults(),
        FaultInjector::stress(),
    ] {
        let mut cfg = study_config(31, Month::ym(2017, 8), Month::ym(2017, 10), 800, faults);
        cfg.workers = 4;
        let study = Study::new(cfg);
        let serial = serial_reference(&study);
        let dispatched: usize = study
            .months()
            .into_iter()
            .map(|m| study.generator().month(m).len())
            .sum();
        let metrics = PipelineMetrics::new();
        assert_eq!(study.run_passive_metered(&metrics), serial, "{faults:?}");
        let s = metrics.snapshot();
        assert_eq!(s.flows_dispatched, dispatched as u64, "{faults:?}");
        assert!(s.accounting_holds(), "{faults:?}");
        assert_eq!(s.shards_lost, 0, "{faults:?}");
    }
}

/// Graceful degradation on realistic traffic: heavy truncation and
/// mid-flow gaps damage many flows, and a measurable share of them is
/// salvaged — the parser recovers the intact handshake prefix instead
/// of writing the whole flow off as garbled. The salvage count must
/// flow through both the aggregate and the pipeline metrics.
#[test]
fn damaged_flows_are_salvaged_not_discarded() {
    let faults = FaultInjector {
        truncate_prob: 0.5,
        gap_prob: 0.5,
        ..FaultInjector::none()
    };
    let mut cfg = study_config(17, Month::ym(2016, 4), Month::ym(2016, 5), 1000, faults);
    cfg.workers = 2;
    let study = Study::new(cfg);
    let metrics = PipelineMetrics::new();
    let agg = study.run_passive_metered(&metrics);
    assert!(agg.salvaged > 0, "no flow was salvaged under 50% damage");
    assert!(agg.garbled_client > 0, "some damage should be fatal");
    let s = metrics.snapshot();
    assert_eq!(s.flows_salvaged, agg.salvaged);
    assert_eq!(
        agg,
        serial_reference(&study),
        "salvage must stay deterministic"
    );
}
