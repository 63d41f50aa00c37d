//! scan/sweep — active-scan engine throughput and allocation bench.
//!
//! Like the `alloc` bench this is a plain `main` emitting a
//! machine-readable file, `BENCH_scan.json`, at the workspace root.
//! Run it with the counting allocator enabled:
//!
//! ```text
//! cargo bench -p tlscope-bench --bench scan --features alloc-counter -- --fast
//! ```
//!
//! It measures five things about one Censys-style sweep, each run
//! through `sweep_sharded_with` on one thread (a campaign parallelises
//! across dates, never inside one):
//!
//! 1. **Serial throughput** — hosts/s and probes/s through the
//!    prepared-probe + `decide` hot loop.
//! 2. **Allocations per host** — counted over the serial sweep, gated
//!    against [`SCAN_ALLOC_BUDGET_PER_HOST`]; the bench exits non-zero
//!    past budget. A naive per-host loop that re-materialises the
//!    probe set each host (the pre-PR shape, still available as
//!    `probe_host`) is measured alongside as the comparison point.
//! 3. **Faulted throughput** — the same sweep under the `stress`
//!    fault profile: retries, drops, and timeouts in the hot loop,
//!    with the loss counters and the two-part accounting invariant
//!    reported. Fault draws are pure arithmetic, so this row shares
//!    the serial row's allocation budget.
//! 4. **Layers** — ns per host for the two halves of a probed host:
//!    sampling (seeding the host stream + `sample_host` with a warm
//!    cohort-curve memo) and the three sweep decides (Chrome 2015,
//!    SSL3-only, export), each timed over the same sampled hosts.
//! 5. **Memo ablation** — one `params(cohort, date)` computation
//!    against one `ParamsCache` hit, the saving every sampled host
//!    gets from the memo.
//!
//! Timings are single-run reports and gate nothing. Back-to-back runs
//! of unchanged code on a shared 2-core host differed by over 40 %, so
//! no row is compared with an earlier run's file.
//!
//! Without `--features alloc-counter` allocation counts read as zero
//! and the budget check is skipped.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use tlscope::chron::Date;
use tlscope::scanner::{
    probe_host, sweep_sharded_with, PreparedProbe, ProbeSet, ScanFaults, ScanMetrics, ScanSnapshot,
};
use tlscope::servers::{negotiate, params, Cohort, CohortParams, ParamsCache, ServerPopulation};
use tlscope_bench::{best_secs, SCAN_ALLOC_BUDGET_PER_HOST};

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

/// Probes per host in the sweep probe set (Chrome, SSL3-only, export).
const PROBES_PER_HOST: f64 = 3.0;

const SEED: u64 = 0x5CA7;

const COHORTS: [Cohort; 6] = [
    Cohort::MajorWeb,
    Cohort::Cdn,
    Cohort::LongTailWeb,
    Cohort::Enterprise,
    Cohort::Iot,
    Cohort::Mail,
];

fn main() {
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scan.json");
    let fast = std::env::args().any(|a| a == "--fast");
    let hosts: u32 = if fast { 2_000 } else { 10_000 };
    let mode = if fast { "fast" } else { "full" };
    let reps: u32 = if fast { 2 } else { 3 };
    let date = Date::ymd(2016, 6, 1);
    let pop = ServerPopulation::new();
    let none = ScanFaults::none();
    let sweep = |hosts| sweep_sharded_with(&pop, date, hosts, SEED, 1, &ScanMetrics::new(), &none);

    // Warm up lazy population state outside the counted region.
    let warm = sweep(256.min(hosts));
    std::hint::black_box(&warm);

    // --- Serial sweep: allocations and throughput. ---
    let (_, serial_allocs) = alloc_counter::counted(|| std::hint::black_box(sweep(hosts)));
    let serial_secs = best_secs(reps, || {
        std::hint::black_box(sweep(hosts));
    });

    // --- Faulted sweep: stress profile through the same engine. ---
    let faults = ScanFaults::stress();
    let fault_metrics = ScanMetrics::new();
    let (_, faulted_allocs) = alloc_counter::counted(|| {
        std::hint::black_box(sweep_sharded_with(
            &pop,
            date,
            hosts,
            SEED,
            1,
            &fault_metrics,
            &faults,
        ));
    });
    let faulted_secs = best_secs(reps, || {
        let m = ScanMetrics::new();
        std::hint::black_box(sweep_sharded_with(&pop, date, hosts, SEED, 1, &m, &faults));
    });
    let fs = fault_metrics.snapshot();
    assert!(fs.hosts_dropped > 0, "stress profile must drop hosts");
    assert!(fs.probes_timed_out > 0, "stress profile must time out");

    // --- Naive per-host baseline: rebuild every probe for every host,
    // the shape the prepared-probe path replaced. ---
    let naive_hosts = hosts.min(2_000);
    let (_, naive_allocs) = alloc_counter::counted(|| {
        let mut snap = ScanSnapshot::new(date);
        let mut rng = SmallRng::seed_from_u64(SEED);
        let mut cache = ParamsCache::default();
        for _ in 0..naive_hosts {
            let profile = pop.sample_host(&mut cache, date, &mut rng);
            probe_host(&profile, &mut snap);
        }
        std::hint::black_box(&snap);
    });

    // --- Layers: sampling (each profile dropped at once, as a sweep
    // does), then each sweep decide over the same hosts.
    let mut cache = ParamsCache::default();
    let mut sample =
        |i: u64| pop.sample_host(&mut cache, date, &mut SmallRng::seed_from_u64(SEED ^ i));
    let profiles: Vec<_> = (0..u64::from(hosts)).map(&mut sample).collect();
    let sample_secs = best_secs(reps, || {
        for i in 0..u64::from(hosts) {
            std::hint::black_box(sample(i));
        }
    });
    let probes = ProbeSet::campaign();
    let decide_secs = |probe: &PreparedProbe| {
        let facts = probe.facts();
        best_secs(reps, || {
            for p in &profiles {
                std::hint::black_box(negotiate::decide(p, &facts).ok());
            }
        })
    };
    let chrome_secs = decide_secs(&probes.chrome_2015);
    let ssl3_secs = decide_secs(&probes.ssl3_only);
    let export_secs = decide_secs(&probes.export_only);

    // --- Memo ablation: the cohort curves computed against served.
    let calls = u64::from(hosts) * 10;
    let curves = |f: &mut dyn FnMut(Cohort) -> CohortParams| {
        best_secs(reps, || {
            for i in 0..calls {
                std::hint::black_box(f(COHORTS[(i % 6) as usize]));
            }
        })
    };
    let uncached_secs = curves(&mut |c| params(c, date));
    let hit_secs = curves(&mut |c| cache.params(c, date));

    let n = hosts as f64;
    let serial_apc = serial_allocs as f64 / n;
    let faulted_apc = faulted_allocs as f64 / n;
    let naive_apc = naive_allocs as f64 / naive_hosts as f64;
    let serial_hps = n / serial_secs;
    let faulted_hps = n / faulted_secs;
    let counting = cfg!(feature = "alloc-counter");
    let budget_pass = !counting
        || (serial_apc <= SCAN_ALLOC_BUDGET_PER_HOST && faulted_apc <= SCAN_ALLOC_BUDGET_PER_HOST);
    let reduction = if counting && serial_apc > 0.0 {
        naive_apc / serial_apc
    } else {
        0.0
    };
    let per_host_ns = |secs: f64| secs * 1e9 / n;
    let per_call_ns = |secs: f64| secs * 1e9 / calls as f64;

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"scan/sweep\",\n",
            "  \"mode\": \"{mode}\",\n",
            "  \"hosts\": {hosts},\n",
            "  \"date\": \"2016-06-01\",\n",
            "  \"alloc_counter\": {counting},\n",
            "  \"serial\": {{ \"hosts_per_sec\": {ser_hps:.0}, \"probes_per_sec\": {ser_pps:.0}, \"allocs_per_host\": {ser_apc:.3} }},\n",
            "  \"faulted\": {{ \"profile\": \"stress\", \"hosts_per_sec\": {f_hps:.0}, \"allocs_per_host\": {f_apc:.3}, \"hosts_dropped\": {f_dropped}, \"probes_timed_out\": {f_timed}, \"host_retries\": {f_retries}, \"accounting_holds\": {f_acct} }},\n",
            "  \"layers\": {{ \"sample_ns_per_host\": {l_sample:.1}, \"decide_chrome_ns_per_host\": {l_chrome:.1}, \"decide_ssl3_ns_per_host\": {l_ssl3:.1}, \"decide_export_ns_per_host\": {l_export:.1}, \"decide_ns_per_host\": {l_decide:.1} }},\n",
            "  \"params_memo\": {{ \"uncached_ns_per_call\": {m_uncached:.1}, \"hit_ns_per_call\": {m_hit:.1}, \"saving_ns_per_call\": {m_saving:.1} }},\n",
            "  \"baseline_naive_probe_rebuild\": {{ \"allocs_per_host\": {naive_apc:.3} }},\n",
            "  \"improvement\": {{ \"alloc_reduction_factor\": {red:.1} }},\n",
            "  \"budget\": {{ \"allocs_per_host_max\": {budget:.2}, \"pass\": {pass} }}\n",
            "}}\n"
        ),
        mode = mode,
        hosts = hosts,
        counting = counting,
        ser_hps = serial_hps,
        ser_pps = serial_hps * PROBES_PER_HOST,
        ser_apc = serial_apc,
        f_hps = faulted_hps,
        f_apc = faulted_apc,
        f_dropped = fs.hosts_dropped,
        f_timed = fs.probes_timed_out,
        f_retries = fs.host_retries,
        f_acct = fs.accounting_holds(),
        l_sample = per_host_ns(sample_secs),
        l_chrome = per_host_ns(chrome_secs),
        l_ssl3 = per_host_ns(ssl3_secs),
        l_export = per_host_ns(export_secs),
        l_decide = per_host_ns(chrome_secs + ssl3_secs + export_secs),
        m_uncached = per_call_ns(uncached_secs),
        m_hit = per_call_ns(hit_secs),
        m_saving = per_call_ns(uncached_secs - hit_secs),
        naive_apc = naive_apc,
        red = reduction,
        budget = SCAN_ALLOC_BUDGET_PER_HOST,
        pass = budget_pass,
    );

    print!("{json}");
    if let Err(e) = std::fs::write(out, &json) {
        eprintln!("warning: could not write {out}: {e}");
    }

    if !budget_pass {
        eprintln!(
            "scan alloc budget exceeded: serial {serial_apc:.3} / faulted {faulted_apc:.3} allocs/host > {SCAN_ALLOC_BUDGET_PER_HOST:.2}"
        );
        std::process::exit(1);
    }
}
