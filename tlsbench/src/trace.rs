//! The traced run: the workload's work driven layer by layer on one
//! thread, with a span around every call into a layer.
//!
//! Spans live in memory and are written out as JSON when the run ends.
//! The tree is run → phase → unit (month, sweep date, checkpoint call,
//! or artefact). Per-flow calls are not spans of their own: each is
//! folded into one child span per (month, call) carrying the call
//! `count` and the summed `busy_ns`, so memory stays bounded at a few
//! spans per month. A span's self time is its duration minus its
//! children's `busy_ns`.
//!
//! The traced run reports no end-to-end metric. It checks that what it
//! computed equals the untraced result for the same seed, so the
//! spans describe the same work the end-to-end runs time.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use tlscope::analysis::Study;
use tlscope::chron::Month;
use tlscope::notary::{checkpoint, conn, ExtractScratch, NotaryAggregate, PipelineMetrics};
use tlscope::obs::{JsonArr, JsonObj};
use tlscope::report::ReportContext;
use tlscope::scanner::{
    checkpoint as scan_checkpoint, DateCheckpoint, ScanMetricsSnapshot, ScanSnapshot,
};
use tlscope::servers::ServerPopulation;

use crate::workloads::{
    artefact_digest, remove_dir, rep, setup_once, sweep_date, weekly_artefact, Inputs, Output,
    Stores, Workload,
};
use crate::{host, median, metric, Metric, PER_LAYER};

/// Every fourth month feeds the parse-cache ablation.
const ABLATION_STRIDE: usize = 4;

/// One span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index in the tracer's span list.
    pub id: usize,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// Layer call or unit of work.
    pub name: String,
    /// Start of the first call.
    pub start_ns: u64,
    /// End of the last call.
    pub end_ns: u64,
    /// Calls folded into this span.
    pub count: u64,
    /// Time spent inside those calls.
    pub busy_ns: u64,
}

/// Per-call timings of one (unit, call) pair, folded as they happen.
#[derive(Debug, Clone, Copy, Default)]
struct Fold {
    start_ns: Option<u64>,
    end_ns: u64,
    count: u64,
    busy_ns: u64,
}

impl Fold {
    fn add(&mut self, start_ns: u64, end_ns: u64) {
        self.start_ns.get_or_insert(start_ns);
        self.end_ns = end_ns;
        self.count += 1;
        self.busy_ns += end_ns - start_ns;
    }
}

/// An in-memory span recorder.
#[derive(Debug, Clone)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    fn open(&mut self, parent: Option<usize>, name: impl Into<String>) -> usize {
        let id = self.spans.len();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            id,
            parent,
            name: name.into(),
            start_ns,
            end_ns: start_ns,
            count: 0,
            busy_ns: 0,
        });
        id
    }

    /// Close span `id`; returns its duration in nanoseconds.
    fn close(&mut self, id: usize) -> u64 {
        let end_ns = self.ns(Instant::now());
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.count = 1;
        span.busy_ns = end_ns - span.start_ns;
        span.busy_ns
    }

    /// Run `f` inside a child span of `parent`; returns its result and
    /// duration in nanoseconds.
    fn span<R>(
        &mut self,
        parent: usize,
        name: impl Into<String>,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let id = self.open(Some(parent), name);
        let out = f();
        (out, self.close(id))
    }

    fn fold(&mut self, parent: usize, name: &str, fold: &Fold) {
        let Some(start_ns) = fold.start_ns else {
            return;
        };
        self.spans.push(Span {
            id: self.spans.len(),
            parent: Some(parent),
            name: name.to_string(),
            start_ns,
            end_ns: fold.end_ns,
            count: fold.count,
            busy_ns: fold.busy_ns,
        });
    }

    /// Every recorded span, parents before their children.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut arr = JsonArr::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let obj = JsonObj::new()
                .u64("id", s.id as u64)
                .raw("parent", &parent)
                .str("name", &s.name)
                .u64("start_ns", s.start_ns)
                .u64("end_ns", s.end_ns)
                .u64("count", s.count)
                .u64("busy_ns", s.busy_ns);
            arr = arr.raw(&obj.finish());
        }
        arr.finish()
    }

    /// Summed `busy_ns` of spans without children, over the duration of
    /// span `root`.
    fn leaf_coverage(&self, root: usize) -> f64 {
        let mut has_child = vec![false; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                has_child[p] = true;
            }
        }
        let leaves: u64 = self
            .spans
            .iter()
            .filter(|s| !has_child[s.id])
            .map(|s| s.busy_ns)
            .sum();
        leaves as f64 / self.spans[root].busy_ns.max(1) as f64
    }
}

/// The result of a traced run.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// Units compared against the untraced results.
    pub attempted: u64,
    /// Units that differed.
    pub failed: u64,
    /// Digest of the artefacts the traced run rendered.
    pub digest: u64,
    /// Digest of the untraced rep's artefacts.
    pub untraced_digest: u64,
    /// The per-layer metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// The spans.
    pub tracer: Tracer,
}

impl TraceReport {
    /// The whole trace as one JSON document.
    pub fn to_json(&self, inputs: &Inputs) -> String {
        let mut metrics = JsonObj::new();
        for m in &self.metrics {
            metrics = metrics.f64(m.name, m.value);
        }
        JsonObj::new()
            .str("schema", "tlscope-benchmark-trace-v1")
            .str("workload", inputs.workload.name())
            .u64("seed", inputs.seed)
            .u64("workers", inputs.workers as u64)
            .raw("metrics", &metrics.finish())
            .raw("spans", &self.tracer.to_json())
            .finish()
    }
}

/// Counts the traced run accumulates for the per-layer metrics.
#[derive(Debug, Default)]
struct Totals {
    flows: u64,
    bytes: u64,
    template: (u64, u64),
    next_flow_ns: u64,
    extract_ns: u64,
    ingest_ns: u64,
    merge_ns: u64,
    month_ns: Vec<f64>,
    sweep_ns: Vec<f64>,
    hosts: u64,
    probes: (u64, u64),
    write_ns: Vec<f64>,
    passive_load_ns: u64,
    scan_load_ns: u64,
    render_ns: Vec<f64>,
    csv_bytes: u64,
}

/// Units compared against the untraced results.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn units(&mut self, n: usize, ok: bool) {
        self.attempted += n as u64;
        if !ok {
            self.failed += n as u64;
        }
    }
}

/// Run `inputs` traced. Writes checkpoint stores under
/// `inputs.scratch`, which the caller removes.
pub fn run_traced(inputs: &Inputs) -> Result<TraceReport, String> {
    let calib_start = host::calibrate_ms();
    let w = inputs.workload;
    let warm_stores = (w == Workload::ResumeWarm).then(|| inputs.stores());
    if warm_stores.is_some() {
        setup_once(inputs)?;
    }

    // Untraced: one end-to-end rep at the full worker count, then the
    // same work on one thread for the tracing-overhead ratio.
    let cpu_before = host::process_cpu_s()?;
    let (rep_wall, untraced, untraced_ctx) = rep(inputs, warm_stores.as_ref());
    let cpu_util = (host::process_cpu_s()? - cpu_before) / (rep_wall * inputs.workers as f64);
    let serial = Inputs {
        workers: 1,
        ..inputs.clone()
    };
    let mut untraced_serial_ns = 0u64;
    let mut study = None;
    if w.simulates_passive() {
        let metrics = PipelineMetrics::new();
        let started = Instant::now();
        let agg = Study::new(serial.study_config(1, None))
            .try_run_passive_metered(&metrics)
            .map_err(|e| e.to_string())?;
        untraced_serial_ns += started.elapsed().as_nanos() as u64;
        study = Some((agg, metrics.snapshot()));
    }
    let mut untraced_scans = Vec::new();
    if w.sweeps() {
        let started = Instant::now();
        untraced_scans = inputs.campaign().run(&ServerPopulation::new());
        untraced_serial_ns += started.elapsed().as_nanos() as u64;
    }
    if w == Workload::ResumeWarm {
        untraced_serial_ns += (rep(&serial, warm_stores.as_ref()).0 * 1e9) as u64;
    }

    let mut tr = Tracer::default();
    let run = tr.open(None, format!("run:{}", w.name()));
    let mut t = Totals::default();
    let mut tally = Tally::default();
    let mut traced_serial_ns = 0u64;

    let partials = if w.simulates_passive() {
        let (partials, ns) = trace_passive(&mut tr, run, inputs, &mut t);
        traced_serial_ns += ns;
        partials
    } else {
        Vec::new()
    };
    let saving_ns = if w.simulates_passive() {
        parse_cache_saving_ns(&mut tr, run, inputs)
    } else {
        0.0
    };
    let sweeps = if w.sweeps() {
        let (sweeps, ns) = trace_active(&mut tr, run, inputs, &mut t);
        traced_serial_ns += ns;
        let hosts = u64::from(inputs.campaign().hosts_per_sweep);
        let ok = sweeps.iter().all(|(s, _)| s.hosts == hosts);
        let same = sweeps.iter().map(|(s, _)| s).eq(untraced_scans.iter());
        tally.units(sweeps.len(), ok && same);
        sweeps
    } else {
        Vec::new()
    };

    // Checkpoint stores: written from the traced partials and sweeps,
    // then read back; `resume-warm` reads the stores its set-up wrote.
    let stores = match &warm_stores {
        Some(stores) => stores.clone(),
        None => {
            let fresh = Stores {
                passive: inputs.scratch.join("trace-months"),
                scans: inputs.scratch.join("trace-dates"),
            };
            remove_dir(&fresh.passive)?;
            remove_dir(&fresh.scans)?;
            fresh
        }
    };
    let phase = tr.open(Some(run), "phase:checkpoint");
    let mut loaded_passive = None;
    if w.simulates_passive() || w == Workload::ResumeWarm {
        for (m, p) in &partials {
            let (res, ns) = tr.span(phase, "notary.checkpoint.write_month", || {
                checkpoint::write_month(&stores.passive, *m, p)
            });
            res.map_err(|e| e.to_string())?;
            t.write_ns.push(ns as f64);
        }
        let (load, ns) = tr.span(phase, "notary.checkpoint.load_dir", || {
            checkpoint::load_dir(&stores.passive)
        });
        let load = load.map_err(|e| e.to_string())?;
        t.passive_load_ns = ns;
        let complete = load.completed.len() == inputs.months().len();
        // Warm stores were written by the untraced runner; compare what
        // they hold with what that runner rendered from.
        let same = warm_stores.is_none()
            || untraced_ctx.as_ref().and_then(|c| c.passive_ref()) == Some(&load.aggregate);
        tally.units(inputs.months().len(), complete && same);
        loaded_passive = Some(load.aggregate);
    }
    if w.sweeps() || w == Workload::ResumeWarm {
        for (snapshot, ledger) in &sweeps {
            let ckpt = DateCheckpoint {
                snapshot: snapshot.clone(),
                ledger: *ledger,
            };
            let (res, _) = tr.span(phase, "scanner.checkpoint.write_date", || {
                scan_checkpoint::write_date(&stores.scans, &ckpt)
            });
            res.map_err(|e| e.to_string())?;
        }
        let (load, ns) = tr.span(phase, "scanner.checkpoint.load_dir", || {
            scan_checkpoint::load_dir(&stores.scans)
        });
        let load = load.map_err(|e| e.to_string())?;
        t.scan_load_ns = ns;
        let dates = inputs.campaign().dates;
        let complete = dates.iter().all(|d| load.completed.contains_key(d));
        let same = sweeps.is_empty()
            || sweeps
                .iter()
                .map(|(s, _)| s)
                .eq(load.completed.values().map(|c| &c.snapshot));
        tally.units(dates.len(), complete && same);
    }
    tr.close(phase);
    let checkpoint_bytes = dir_bytes(&stores.passive)? + dir_bytes(&stores.scans)?;

    // Fold the month partials into one aggregate, as the runner does.
    let mut agg = NotaryAggregate::new();
    if !partials.is_empty() {
        let phase = tr.open(Some(run), "phase:merge");
        let mut merges = Fold::default();
        for (_, p) in partials {
            let start = tr.ns(Instant::now());
            agg.merge(p);
            merges.add(start, tr.ns(Instant::now()));
        }
        tr.fold(phase, "notary.aggregate.merge", &merges);
        t.merge_ns = merges.busy_ns;
        traced_serial_ns += merges.busy_ns;
        tr.close(phase);
        let same_as_study = study.as_ref().map(|(a, _)| a) == Some(&agg);
        let same_as_loaded = loaded_passive.as_ref() == Some(&agg);
        tally.units(inputs.months().len(), same_as_study && same_as_loaded);
    }
    let salvaged = agg.salvaged;
    let distinct = agg.distinct_fingerprints();

    // Render every artefact, each call in its own span.
    let phase = tr.open(Some(run), "phase:render");
    let phase_started = Instant::now();
    let mut artefacts = Vec::new();
    if w == Workload::ScanWeekly {
        let scans: Vec<ScanSnapshot> = sweeps.into_iter().map(|(s, _)| s).collect();
        let ((id, csv), ns) = tr.span(phase, "render:censys-weekly", || weekly_artefact(&scans));
        t.render_ns.push(ns as f64);
        t.csv_bytes += csv.len() as u64;
        artefacts.push((id, Ok(artefact_digest(id, &csv))));
    } else {
        let mut ctx = match &warm_stores {
            Some(stores) => {
                let mut ctx = ReportContext::new(serial.study_config(1, Some(stores)));
                let (res, _) = tr.span(phase, "passive.materialise", || {
                    ctx.try_passive().map(|_| ())
                });
                res.map_err(|e| e.to_string())?;
                ctx
            }
            None => ReportContext::with_passive(serial.study_config(1, None), agg),
        };
        if w != Workload::TapStress {
            let (res, _) = tr.span(phase, "active.materialise", || ctx.try_scans().map(|_| ()));
            res.map_err(|e| e.to_string())?;
        }
        for id in inputs.artefact_ids() {
            let (csv, ns) = tr.span(phase, format!("render:{id}"), || {
                ctx.run(id).map(|a| a.to_csv())
            });
            t.render_ns.push(ns as f64);
            let csv = csv.map_err(|e| e.to_string());
            if let Ok(c) = &csv {
                t.csv_bytes += c.len() as u64;
            }
            artefacts.push((id, csv.map(|c| artefact_digest(id, &c))));
        }
    }
    if w == Workload::ResumeWarm {
        traced_serial_ns += phase_started.elapsed().as_nanos() as u64;
    }
    tr.close(phase);
    tr.close(run);
    for (id, d) in &artefacts {
        let same = untraced.artefacts.iter().any(|(i, u)| i == id && u == d);
        tally.units(1, d.is_ok() && same);
    }
    let traced = Output {
        artefacts,
        ..Output::default()
    };

    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let per_flow = |ns: u64| ratio(ns, t.flows);
    let (hit_rate, bypass) = match &study {
        Some((_, s)) => {
            let lookups = s.parse_cache_hits + s.parse_cache_misses;
            (
                ratio(s.parse_cache_hits, lookups),
                1.0 - ratio(lookups, s.flows_ingested),
            )
        }
        None => (0.0, 0.0),
    };
    let max_ms = |xs: &[f64]| xs.iter().copied().fold(0.0, f64::max) / 1e6;
    let values = [
        per_flow(t.next_flow_ns),
        ratio(t.template.0, t.template.0 + t.template.1),
        ratio(t.bytes, t.flows),
        per_flow(t.extract_ns),
        saving_ns,
        hit_rate,
        bypass,
        ratio(salvaged, t.flows),
        per_flow(t.ingest_ns),
        t.merge_ns as f64 / 1e6,
        distinct as f64,
        median(&t.month_ns) / 1e6,
        max_ms(&t.month_ns),
        cpu_util,
        median(&t.sweep_ns) / 1e6,
        ratio(t.sweep_ns.iter().sum::<f64>() as u64, t.hosts),
        ratio(t.probes.0, t.probes.1),
        median(&t.write_ns) / 1e6,
        t.passive_load_ns as f64 / 1e6,
        t.scan_load_ns as f64 / 1e6,
        checkpoint_bytes as f64,
        t.render_ns.iter().sum::<f64>() / 1e6,
        max_ms(&t.render_ns),
        t.csv_bytes as f64,
        calib_start,
        host::calibrate_ms(),
        ratio(traced_serial_ns, untraced_serial_ns),
        tr.leaf_coverage(run),
    ];
    let metrics = PER_LAYER
        .iter()
        .zip(values)
        .map(|((name, _), v)| metric(name, v))
        .collect();
    Ok(TraceReport {
        attempted: tally.attempted,
        failed: tally.failed,
        digest: traced.digest(),
        untraced_digest: untraced.digest(),
        metrics,
        tracer: tr,
    })
}

/// Drive every month by hand: generator stream → `extract_into` →
/// `ingest`, timing each call. Returns the month partials and the
/// summed month-span time.
fn trace_passive(
    tr: &mut Tracer,
    run: usize,
    inputs: &Inputs,
    t: &mut Totals,
) -> (Vec<(Month, NotaryAggregate)>, u64) {
    let phase = tr.open(Some(run), "phase:passive");
    let generator = inputs.generator();
    let mut scratch = ExtractScratch::new();
    let mut partials = Vec::new();
    let mut total_ns = 0;
    for m in inputs.months() {
        let span = tr.open(Some(phase), format!("month:{m}"));
        let (mut gen, mut ext, mut ing) = (Fold::default(), Fold::default(), Fold::default());
        let mut partial = NotaryAggregate::new();
        let mut stream = generator.stream_month(m);
        let mut t0 = tr.ns(Instant::now());
        loop {
            let next = stream.next_flow();
            let t1 = tr.ns(Instant::now());
            gen.add(t0, t1);
            let Some(f) = next else { break };
            t.flows += 1;
            t.bytes += (f.client.len() + f.server.map_or(0, <[u8]>::len)) as u64;
            let rec = conn::extract_into(f.date, f.port, f.client, f.server, &mut scratch);
            let t2 = tr.ns(Instant::now());
            ext.add(t1, t2);
            match rec {
                Ok(rec) => partial.ingest(rec),
                Err(e) => partial.ingest_failure(e),
            }
            t0 = tr.ns(Instant::now());
            ing.add(t2, t0);
        }
        let (hits, misses) = stream.template_cache_stats();
        t.template.0 += hits;
        t.template.1 += misses;
        tr.fold(span, "traffic.next_flow", &gen);
        tr.fold(span, "notary.conn.extract_into", &ext);
        tr.fold(span, "notary.aggregate.ingest", &ing);
        let ns = tr.close(span);
        t.next_flow_ns += gen.busy_ns;
        t.extract_ns += ext.busy_ns;
        t.ingest_ns += ing.busy_ns;
        t.month_ns.push(ns as f64);
        total_ns += ns;
        partials.push((m, partial));
    }
    tr.close(phase);
    (partials, total_ns)
}

/// Sweep every campaign date serially, one span per date. Returns the
/// snapshots with their ledgers and the summed sweep-span time.
fn trace_active(
    tr: &mut Tracer,
    run: usize,
    inputs: &Inputs,
    t: &mut Totals,
) -> (Vec<(ScanSnapshot, ScanMetricsSnapshot)>, u64) {
    let phase = tr.open(Some(run), "phase:active");
    let population = ServerPopulation::new();
    let campaign = inputs.campaign();
    let mut sweeps = Vec::with_capacity(campaign.dates.len());
    let mut total_ns = 0;
    for &d in &campaign.dates {
        let ((snap, ledger), ns) = tr.span(phase, format!("sweep:{d}"), || {
            sweep_date(&population, &campaign, d)
        });
        t.sweep_ns.push(ns as f64);
        t.hosts += snap.hosts;
        t.probes.0 += ledger.handshakes_completed;
        t.probes.1 += ledger.probes_sent;
        total_ns += ns;
        sweeps.push((snap, ledger));
    }
    tr.close(phase);
    (sweeps, total_ns)
}

/// Per-flow time the parse cache saves: the same flows extracted with
/// a cached scratch and with the cache disabled, on sampled months.
///
/// Both sides return an owned record (`extract_with` on the cached
/// scratch; `extract` on a thread whose cache capacity is 0), so the
/// copy cost cancels and the difference is the cache's saving.
fn parse_cache_saving_ns(tr: &mut Tracer, run: usize, inputs: &Inputs) -> f64 {
    let phase = tr.open(Some(run), "phase:parse-cache-ablation");
    let generator = inputs.generator();
    let months: Vec<Month> = inputs
        .months()
        .into_iter()
        .step_by(ABLATION_STRIDE)
        .collect();
    let (cached_ns, uncached_ns, flows) = std::thread::scope(|s| {
        s.spawn(|| {
            conn::parse_cache_set_capacity(0);
            let mut scratch = ExtractScratch::new();
            let (mut cached, mut uncached, mut flows) = (0u128, 0u128, 0u64);
            for (i, &m) in months.iter().enumerate() {
                let events = generator.month(m);
                flows += events.len() as u64;
                let mut pass = |cache: bool| {
                    let started = Instant::now();
                    for e in &events {
                        let server = e.server_flow.as_deref();
                        let rec = match cache {
                            true => conn::extract_with(
                                e.date,
                                e.port,
                                &e.client_flow,
                                server,
                                &mut scratch,
                            ),
                            false => conn::extract(e.date, e.port, &e.client_flow, server),
                        };
                        black_box(rec).ok();
                    }
                    started.elapsed().as_nanos()
                };
                // Alternate which side runs first, so neither always
                // meets a cold cache hierarchy.
                if i % 2 == 0 {
                    cached += pass(true);
                    uncached += pass(false);
                } else {
                    uncached += pass(false);
                    cached += pass(true);
                }
            }
            (cached, uncached, flows)
        })
        .join()
        .expect("the ablation thread does not panic")
    });
    tr.close(phase);
    if flows == 0 {
        return 0.0;
    }
    (uncached_ns as f64 - cached_ns as f64) / flows as f64
}

/// Total size of the regular files in `dir` (0 if it does not exist).
fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(format!("cannot list {}: {e}", dir.display())),
    };
    let mut total = 0;
    for entry in entries {
        let meta = entry
            .and_then(|e| e.metadata())
            .map_err(|e| format!("cannot stat a file in {}: {e}", dir.display()))?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}
