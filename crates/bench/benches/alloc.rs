//! pipeline/alloc — end-to-end generation→ingestion throughput and
//! allocation bench.
//!
//! A plain `main`, so it can emit a machine-readable trajectory file,
//! `BENCH_pipeline.json`, at the workspace root. Run it with the
//! counting allocator enabled:
//!
//! ```text
//! cargo bench -p tlscope-bench --bench alloc --features alloc-counter -- --fast
//! ```
//!
//! Without `--features alloc-counter` the bench still reports
//! throughput but allocation counts read as zero, so the budget check
//! is skipped. `--fast` shrinks the workload for CI smoke runs. The
//! bench exits non-zero when allocations per connection exceed the
//! committed budget, which is how the CI bench-smoke job fails on an
//! allocation regression.
//!
//! The per-stage breakdown reports where the remaining allocations
//! live: `gen` pulls borrowed flows from the generator's scratch, and
//! `ingest` extracts-and-aggregates borrowed bytes through the
//! thread-local record slot. The `pipeline` row is the fused borrowed
//! path the study runner uses.
//!
//! Two cache rows report how well the wire roundtrip is amortised on
//! the clean profile: `template_cache` (generation-side hello template
//! reuse) and `parse_cache` (ingestion-side masked-hello memoisation).
//! Both hit rates are gated at > 0.9 — the traffic model's client
//! population is a bounded set of stacks, so a cold cache on a clean
//! run means the keying broke, and the bench exits non-zero.
//!
//! The `offer_fold` row prices the parse cache's memoised offer fold:
//! `NotaryAggregate::ingest` ns per flow over the month's extracted
//! records as the cache hands them over, against the same records with
//! `fold` cleared (every flow then classifies its own suite list).
//!
//! Throughput rows are single-run reports. Back-to-back runs of
//! unchanged code on a shared 2-core host differed by over 40 %, so no
//! row is compared with an earlier run's file. `alloc_reduction_factor`
//! is against `baseline_pre_pr`. The one timing that gates is the
//! `heartbeat` row's ratio, taken within one run (see
//! [`HEARTBEAT_RATIO_MIN`]).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use tlscope::chron::Month;
use tlscope::notary::conn::extract_with;
use tlscope::notary::{
    ingest_borrowed, parse_cache_stats, ConnectionRecord, ExtractScratch, NotaryAggregate,
};
use tlscope::obs::Progress;
use tlscope::traffic::{ConnectionEvent, FaultInjector, Generator, TrafficConfig};

/// Pre-PR measurement (commit a5f358f, this bench at 20k connections,
/// month 2015-06, fault profile `none`), recorded before the zero-copy
/// extraction and fingerprint-interning work landed so the emitted
/// JSON always carries the comparison point.
const PRE_PR_GEN_ALLOCS_PER_CONN: f64 = 48.100;
const PRE_PR_INGEST_ALLOCS_PER_CONN: f64 = 53.988;
const PRE_PR_PIPELINE_ALLOCS_PER_CONN: f64 = 102.089;
const PRE_PR_PIPELINE_CONNS_PER_SEC: f64 = 97_929.0;

/// Minimum hit rate for both wire-roundtrip caches on the clean
/// profile; below this the amortisation story is broken.
const CACHE_HIT_RATE_MIN: f64 = 0.9;

/// Minimum heartbeat-on/heartbeat-off throughput ratio for the fused
/// pipeline. The heartbeat is observational — a same-run ratio far
/// below 1.0 means the ticker started perturbing the hot loop. The
/// gated ratio is the median over alternating quiet/heartbeat pairs,
/// and the bound is kept lenient, so scheduler noise on shared CI
/// runners cannot flake it; the measured ratio itself is recorded in
/// the trajectory file.
const HEARTBEAT_RATIO_MIN: f64 = 0.90;

use tlscope_bench::{best_secs, PIPELINE_ALLOC_BUDGET_PER_CONN};

#[cfg(feature = "alloc-counter")]
use tlscope_bench::alloc_counter;

#[cfg(not(feature = "alloc-counter"))]
mod alloc_counter {
    /// Stub so the bench compiles without the counting allocator; all
    /// counts read as zero and the budget check is skipped.
    pub fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
        (f(), 0)
    }
}

fn generator(conns: u32) -> Generator {
    Generator::new(TrafficConfig {
        seed: 0x715C0,
        connections_per_month: conns,
        faults: FaultInjector::none(),
    })
}

/// The middle value of an odd-length sample.
fn median(mut sample: Vec<f64>) -> f64 {
    sample.sort_by(f64::total_cmp);
    sample[sample.len() / 2]
}

/// Hit rate, or 0.0 for an untouched cache (which fails the gate:
/// a clean-profile run that never consults a cache is itself a bug).
fn hit_rate(hits: u64, misses: u64) -> f64 {
    let total = hits + misses;
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

fn main() {
    let fast = std::env::args().any(|a| a == "--fast");
    let conns: u32 = if fast { 3_000 } else { 20_000 };
    let reps: u32 = if fast { 2 } else { 3 };
    let month = Month::new(2015, 6).unwrap();
    let gen = generator(conns);

    // Warm up thread-local scratch and lazy runtime state outside the
    // counted regions; `warm` also serves as the pre-built owned flow
    // set for the ingest stage.
    let warm: Vec<ConnectionEvent> = gen.month(month);
    let mut agg = NotaryAggregate::new();
    for flow in warm.iter().take(64) {
        ingest_borrowed(
            &mut agg,
            flow.date,
            flow.port,
            &flow.client_flow,
            flow.server_flow.as_deref(),
        );
    }
    drop(agg);
    let total_bytes: u64 = warm.iter().map(ConnectionEvent::wire_bytes).sum();

    // --- Generation stage: borrowed pulls from stream scratch. ---
    let gen_stage = || {
        let mut stream = gen.stream_month(month);
        while let Some(flow) = stream.next_flow() {
            std::hint::black_box(&flow);
        }
    };
    let (_, gen_allocs) = alloc_counter::counted(gen_stage);
    let gen_secs = best_secs(reps, gen_stage);

    // --- Ingestion stage (extract + aggregate) over pre-built flows,
    // through the borrowed path. ---
    let ingest_stage = || {
        let mut agg = NotaryAggregate::new();
        for flow in &warm {
            ingest_borrowed(
                &mut agg,
                flow.date,
                flow.port,
                &flow.client_flow,
                flow.server_flow.as_deref(),
            );
        }
        std::hint::black_box(&agg);
    };
    let (_, ingest_allocs) = alloc_counter::counted(ingest_stage);
    let ingest_secs = best_secs(reps, ingest_stage);

    // --- Fused pipeline: generate -> tap -> extract -> aggregate,
    // zero-copy end to end (the study runner's inner loop). ---
    let fused = || {
        let mut agg = NotaryAggregate::new();
        let mut stream = gen.stream_month(month);
        while let Some(flow) = stream.next_flow() {
            ingest_borrowed(&mut agg, flow.date, flow.port, flow.client, flow.server);
        }
        std::hint::black_box(&agg);
    };
    let (_, pipeline_allocs) = alloc_counter::counted(fused);
    let pipeline_secs = best_secs(reps, fused);

    // --- Fused pipeline with the live heartbeat running: the same
    // inner loop, plus a 200ms Progress ticker on a scoped thread
    // sampling a shared counter the loop publishes every 1024 flows —
    // the cadence the study runner's per-batch metrics give it. The
    // heartbeat is observational by design; this row prices that claim
    // as a throughput ratio against quiet fused runs. Quiet and
    // heartbeat runs alternate in pairs and the row reads the medians,
    // so a slow stretch of the host (another job, the tail of a long
    // bench before this one) lands on both halves of a pair instead of
    // on one whole block of runs.
    let (heartbeat_secs, heartbeat_ratio) = {
        let progress = Progress::with_interval(
            Duration::from_millis(200),
            "bench-fused",
            1,
            "runs",
            "flows",
        );
        let published = AtomicU64::new(0);
        let with_heartbeat = || {
            let stop = AtomicBool::new(false);
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    progress.run_ticker(&stop, || (0, published.load(Ordering::Relaxed)))
                });
                let secs = best_secs(2, || {
                    let mut agg = NotaryAggregate::new();
                    let mut stream = gen.stream_month(month);
                    let mut flows = 0u64;
                    while let Some(flow) = stream.next_flow() {
                        ingest_borrowed(&mut agg, flow.date, flow.port, flow.client, flow.server);
                        flows += 1;
                        if flows.is_multiple_of(1024) {
                            published.store(flows, Ordering::Relaxed);
                        }
                    }
                    std::hint::black_box(&agg);
                });
                stop.store(true, Ordering::Release);
                secs
            })
        };
        // Odd, so the median is one pair's ratio. Each half of a pair
        // is its best of two runs, so neither is timed on its first run
        // alone: the quiet half starts right after the previous pair's
        // ticker shutdown, a wait with the core idle.
        let pairs = if fast { 5 } else { 7 };
        let (beats, ratios): (Vec<f64>, Vec<f64>) = (0..pairs)
            .map(|_| {
                let quiet = best_secs(2, fused);
                let beat = with_heartbeat();
                (beat, quiet / beat)
            })
            .unzip();
        (median(beats), median(ratios))
    };

    // --- Cache effectiveness on the clean profile: one dedicated
    // stream run for the generation-side template cache, and one fused
    // pass bracketed by thread-local counter snapshots for the
    // ingestion-side parse cache (the cache is warm from the timed
    // stages above, as it is in a long study run). ---
    let (tmpl_hits, tmpl_misses) = {
        let mut stream = gen.stream_month(month);
        while let Some(flow) = stream.next_flow() {
            std::hint::black_box(&flow);
        }
        stream.template_cache_stats()
    };
    let parse_before = parse_cache_stats();
    fused();
    let parse_after = parse_cache_stats();
    let parse_hits = parse_after.hits - parse_before.hits;
    let parse_misses = parse_after.misses - parse_before.misses;
    let tmpl_rate = hit_rate(tmpl_hits, tmpl_misses);
    let parse_rate = hit_rate(parse_hits, parse_misses);

    // --- Offer-fold memo ablation: the aggregate fold alone, over the
    // month's records with their memoised folds and with them cleared.
    let mut scratch = ExtractScratch::new();
    let memo_records: Vec<ConnectionRecord> = warm
        .iter()
        .filter_map(|f| {
            extract_with(
                f.date,
                f.port,
                &f.client_flow,
                f.server_flow.as_deref(),
                &mut scratch,
            )
            .ok()
        })
        .collect();
    let cleared_records: Vec<ConnectionRecord> = memo_records
        .iter()
        .cloned()
        .map(|mut rec| {
            if let Some(offer) = &mut rec.client {
                offer.fold = None;
            }
            rec
        })
        .collect();
    let fold_ns_per_flow = |records: &[ConnectionRecord]| {
        let secs = best_secs(reps, || {
            let mut agg = NotaryAggregate::new();
            for rec in records {
                agg.ingest(rec);
            }
            std::hint::black_box(&agg);
        });
        secs * 1e9 / records.len() as f64
    };
    let memo_ns = fold_ns_per_flow(&memo_records);
    let cleared_ns = fold_ns_per_flow(&cleared_records);

    let n = conns as f64;
    let gen_apc = gen_allocs as f64 / n;
    let ingest_apc = ingest_allocs as f64 / n;
    let pipeline_apc = pipeline_allocs as f64 / n;
    let pipeline_cps = n / pipeline_secs;
    let heartbeat_cps = n / heartbeat_secs;
    let counting = cfg!(feature = "alloc-counter");

    let alloc_reduction = if counting && pipeline_apc > 0.0 {
        PRE_PR_PIPELINE_ALLOCS_PER_CONN / pipeline_apc
    } else {
        0.0
    };
    let budget_pass = !counting || pipeline_apc <= PIPELINE_ALLOC_BUDGET_PER_CONN;
    let cache_pass = tmpl_rate > CACHE_HIT_RATE_MIN && parse_rate > CACHE_HIT_RATE_MIN;
    let heartbeat_pass = heartbeat_ratio >= HEARTBEAT_RATIO_MIN;

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pipeline.json");
    let mode = if fast { "fast" } else { "full" };

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"pipeline/alloc\",\n",
            "  \"mode\": \"{mode}\",\n",
            "  \"connections\": {conns},\n",
            "  \"month\": \"2015-06\",\n",
            "  \"alloc_counter\": {counting},\n",
            "  \"gen\": {{ \"allocs_per_conn\": {gen_apc:.3}, \"conns_per_sec\": {gen_cps:.0} }},\n",
            "  \"ingest\": {{ \"allocs_per_conn\": {ing_apc:.3}, \"conns_per_sec\": {ing_cps:.0}, \"bytes_per_sec\": {ing_bps:.0} }},\n",
            "  \"pipeline\": {{ \"allocs_per_conn\": {pipe_apc:.3}, \"conns_per_sec\": {pipe_cps:.0}, \"bytes_per_sec\": {pipe_bps:.0} }},\n",
            "  \"heartbeat\": {{ \"conns_per_sec\": {beat_cps:.0}, \"ratio_vs_pipeline\": {beat_ratio:.4} }},\n",
            "  \"template_cache\": {{ \"hits\": {tmpl_hits}, \"misses\": {tmpl_misses}, \"hit_rate\": {tmpl_rate:.4} }},\n",
            "  \"parse_cache\": {{ \"hits\": {parse_hits}, \"misses\": {parse_misses}, \"hit_rate\": {parse_rate:.4} }},\n",
            "  \"offer_fold\": {{ \"uncached_ns_per_flow\": {f_uncached:.1}, \"memo_ns_per_flow\": {f_memo:.1}, \"saving_ns_per_flow\": {f_saving:.1} }},\n",
            "  \"baseline_pre_pr\": {{ \"gen_allocs_per_conn\": {pre_gen:.3}, \"ingest_allocs_per_conn\": {pre_ing:.3}, \"pipeline_allocs_per_conn\": {pre_pipe:.3}, \"pipeline_conns_per_sec\": {pre_cps:.0} }},\n",
            "  \"improvement\": {{ \"alloc_reduction_factor\": {red:.2} }},\n",
            "  \"budget\": {{ \"pipeline_allocs_per_conn_max\": {budget:.1}, \"cache_hit_rate_min\": {rate_min:.1}, \"heartbeat_ratio_min\": {beat_min:.2}, \"pass\": {pass} }}\n",
            "}}\n"
        ),
        mode = mode,
        conns = conns,
        counting = counting,
        gen_apc = gen_apc,
        gen_cps = n / gen_secs,
        ing_apc = ingest_apc,
        ing_cps = n / ingest_secs,
        ing_bps = total_bytes as f64 / ingest_secs,
        pipe_apc = pipeline_apc,
        pipe_cps = pipeline_cps,
        pipe_bps = total_bytes as f64 / pipeline_secs,
        beat_cps = heartbeat_cps,
        beat_ratio = heartbeat_ratio,
        tmpl_hits = tmpl_hits,
        tmpl_misses = tmpl_misses,
        tmpl_rate = tmpl_rate,
        parse_hits = parse_hits,
        parse_misses = parse_misses,
        parse_rate = parse_rate,
        f_uncached = cleared_ns,
        f_memo = memo_ns,
        f_saving = cleared_ns - memo_ns,
        pre_gen = PRE_PR_GEN_ALLOCS_PER_CONN,
        pre_ing = PRE_PR_INGEST_ALLOCS_PER_CONN,
        pre_pipe = PRE_PR_PIPELINE_ALLOCS_PER_CONN,
        pre_cps = PRE_PR_PIPELINE_CONNS_PER_SEC,
        red = alloc_reduction,
        budget = PIPELINE_ALLOC_BUDGET_PER_CONN,
        rate_min = CACHE_HIT_RATE_MIN,
        beat_min = HEARTBEAT_RATIO_MIN,
        pass = budget_pass && cache_pass && heartbeat_pass,
    );

    print!("{json}");
    if let Err(e) = std::fs::write(out, &json) {
        eprintln!("warning: could not write {out}: {e}");
    }

    if !budget_pass {
        eprintln!(
            "alloc budget exceeded: {pipeline_apc:.3} allocs/conn > {PIPELINE_ALLOC_BUDGET_PER_CONN:.1}"
        );
        std::process::exit(1);
    }
    if !cache_pass {
        eprintln!(
            "cache hit rate below {CACHE_HIT_RATE_MIN:.1} on the clean profile: \
             template {tmpl_rate:.4}, parse {parse_rate:.4}"
        );
        std::process::exit(1);
    }
    if !heartbeat_pass {
        eprintln!(
            "heartbeat tax too high: fused throughput with the ticker is \
             {heartbeat_ratio:.4} of the quiet runs' (median of pairs, min {HEARTBEAT_RATIO_MIN:.2})"
        );
        std::process::exit(1);
    }
}
