//! Pipeline benchmarks: generation, negotiation, ingestion — plus the
//! DESIGN.md ablation of the serial vs month-sharded streaming study
//! runner.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use tlscope::analysis::{Study, StudyConfig};
use tlscope::chron::{Date, Month};
use tlscope::notary::ingest_serial;
use tlscope::scanner;
use tlscope::servers::{negotiate, ServerPopulation};
use tlscope::traffic::FaultInjector;
use tlscope_bench::bench_flows;

fn bench_generation(c: &mut Criterion) {
    let mut g = c.benchmark_group("pipeline/generate");
    g.throughput(Throughput::Elements(2000));
    g.bench_function("month_2000conns", |b| {
        b.iter(|| bench_flows(Month::ym(2016, 3), 2000, 7).len())
    });
    g.finish();
}

fn bench_negotiation(c: &mut Criterion) {
    let profile = tlscope::servers::ServerProfile::baseline("bench");
    let hello = scanner::probe::chrome_2015();
    c.bench_function("pipeline/negotiate", |b| {
        b.iter(|| negotiate::respond(&profile, &hello, [1; 32]).unwrap())
    });
}

fn bench_ingestion(c: &mut Criterion) {
    let flows = bench_flows(Month::ym(2016, 3), 4000, 11);
    let mut g = c.benchmark_group("pipeline/ingest");
    g.throughput(Throughput::Elements(flows.len() as u64));
    g.sample_size(10);
    g.bench_function("serial", |b| {
        b.iter_batched(
            || flows.clone(),
            |f| ingest_serial(f).total(),
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

/// The serial-vs-sharded ablation for the streaming study runner: the
/// same 12-month window run with 1 worker (serial baseline) and with
/// 2/4/8 month-shard workers through the fused generate→ingest loop.
/// Results are bit-identical across all worker counts; only wall-clock
/// differs (scaling requires physical cores — see DESIGN.md).
fn bench_study_runner(c: &mut Criterion) {
    let mut g = c.benchmark_group("pipeline/study");
    let months = 12u64;
    let conns = 500u32;
    g.throughput(Throughput::Elements(months * conns as u64));
    g.sample_size(10);
    for workers in [1usize, 2, 4, 8] {
        let name = if workers == 1 {
            "serial".to_string()
        } else {
            format!("sharded_{workers}")
        };
        g.bench_function(name, |b| {
            let study = Study::new(StudyConfig {
                connections_per_month: conns,
                start: Month::ym(2015, 1),
                end: Month::ym(2015, 12),
                workers,
                faults: FaultInjector::none(),
                ..StudyConfig::default()
            });
            b.iter(|| study.run_passive().total())
        });
    }
    g.finish();
}

fn bench_scan_sweep(c: &mut Criterion) {
    let pop = ServerPopulation::new();
    let mut g = c.benchmark_group("pipeline/scan");
    g.throughput(Throughput::Elements(1000));
    g.bench_function("sweep_1000hosts", |b| {
        let none = scanner::ScanFaults::none();
        b.iter(|| {
            let metrics = scanner::ScanMetrics::new();
            scanner::sweep_sharded_with(&pop, Date::ymd(2016, 6, 1), 1000, 3, 1, &metrics, &none)
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_generation,
    bench_negotiation,
    bench_ingestion,
    bench_study_runner,
    bench_scan_sweep
);
criterion_main!(benches);
