//! The four workloads: their seed-derived inputs, the closed-loop rep
//! machinery they share, and the hand-driven reference every rep's outputs
//! are checked against.
//!
//! A rep is one closed-loop unit of work: the next starts when the
//! previous one returns. Reps run until the time budget is spent; the
//! reference is computed afterwards by driving the layers by hand
//! (generator stream → `extract_into` → `ingest` per month, one
//! single-threaded `sweep_sharded_with` per date), so it shares no
//! runner code with the `Study`/`ScanCampaign` paths the reps time.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use tlscope::analysis::{sections, Study, StudyConfig};
use tlscope::chron::{Date, Month};
use tlscope::notary::{conn, ExtractScratch, NotaryAggregate};
use tlscope::report::{needs, Artifact, ReportContext, EXPERIMENT_IDS};
use tlscope::scanner::{
    sweep_sharded_with, ScanCampaign, ScanFaults, ScanMetrics, ScanMetricsSnapshot, ScanSnapshot,
};
use tlscope::servers::ServerPopulation;
use tlscope::traffic::{FaultInjector, Generator, TrafficConfig};

use crate::{host, median, metric, Metric};

/// SSL-Pulse surveys `ReportContext` runs for the `ssl-pulse` artefact
/// (one per year, 2013–2018).
pub const PULSE_SURVEYS: u64 = 6;

/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Set-ups timed per `resume-warm` run, where one is a whole cold
/// regeneration.
const WARM_SETUPS: usize = 3;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `repro --full all`: both apertures, every artefact.
    PaperAll,
    /// The passive aperture under the stress tap-fault mix.
    TapStress,
    /// The active aperture alone, at the paper's weekly cadence.
    ScanWeekly,
    /// Every artefact re-rendered from warm checkpoint stores.
    ResumeWarm,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperAll,
        Workload::TapStress,
        Workload::ScanWeekly,
        Workload::ResumeWarm,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperAll => "paper-all",
            Workload::TapStress => "tap-stress",
            Workload::ScanWeekly => "scan-weekly",
            Workload::ResumeWarm => "resume-warm",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload simulates the passive tap.
    pub(crate) fn simulates_passive(self) -> bool {
        matches!(self, Workload::PaperAll | Workload::TapStress)
    }

    /// Whether the workload runs the active sweep campaign.
    pub(crate) fn sweeps(self) -> bool {
        matches!(self, Workload::PaperAll | Workload::ScanWeekly)
    }
}

/// Input sizes. Every workload keeps its shape at either scale; only
/// the volumes change.
#[derive(Debug, Clone)]
pub struct Scale {
    /// First month of the passive window.
    pub start: Month,
    /// Last month of the passive window.
    pub end: Month,
    /// Connections per month under the default tap mix.
    pub conns_per_month: u32,
    /// Connections per month for `tap-stress`.
    pub stress_conns_per_month: u32,
    /// Hosts per monthly sweep and sites per SSL-Pulse survey.
    pub scan_hosts: u32,
    /// Hosts per weekly sweep for `scan-weekly`.
    pub weekly_hosts: u32,
}

impl Scale {
    /// The measured scale: the paper's 76-month window at the volumes
    /// `repro --full` uses.
    pub fn full() -> Scale {
        Scale {
            start: Month::ym(2012, 1),
            end: Month::ym(2018, 4),
            conns_per_month: 12_000,
            stress_conns_per_month: 25_000,
            scan_hosts: 4_000,
            weekly_hosts: 12_000,
        }
    }

    /// A few seconds of work in a debug build, for tests.
    pub fn smoke() -> Scale {
        Scale {
            start: Month::ym(2015, 1),
            end: Month::ym(2015, 4),
            conns_per_month: 200,
            stress_conns_per_month: 200,
            scan_hosts: 40,
            weekly_hosts: 20,
        }
    }
}

/// Everything one invocation runs on, derived from `--seed`.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The workload.
    pub workload: Workload,
    /// The `--seed` argument.
    pub seed: u64,
    /// Input sizes.
    pub scale: Scale,
    /// Threads for the parallel runners.
    pub workers: usize,
    /// A directory inside the checkout for checkpoint stores; created
    /// on demand and removed by the caller.
    pub scratch: PathBuf,
}

/// The two checkpoint directories of a `resume-warm` store.
#[derive(Debug, Clone)]
pub struct Stores {
    /// Passive month checkpoints.
    pub passive: PathBuf,
    /// Scan date checkpoints.
    pub scans: PathBuf,
}

impl Inputs {
    /// Where `resume-warm` keeps its checkpoint stores.
    pub fn stores(&self) -> Stores {
        let dir = self.scratch.join("stores");
        Stores {
            passive: dir.join("months"),
            scans: dir.join("dates"),
        }
    }

    /// The study seed: SplitMix64 of `--seed`, so neighbouring seeds
    /// give unrelated traffic.
    pub fn study_seed(&self) -> u64 {
        let mut z = self.seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The study configuration, every field set here: the defaults
    /// read `TLSCOPE_*` variables and use a fixed worker count.
    pub fn study_config(&self, workers: usize, stores: Option<&Stores>) -> StudyConfig {
        let stress = self.workload == Workload::TapStress;
        StudyConfig {
            seed: self.study_seed(),
            connections_per_month: if stress {
                self.scale.stress_conns_per_month
            } else {
                self.scale.conns_per_month
            },
            start: self.scale.start,
            end: self.scale.end,
            workers,
            faults: if stress {
                FaultInjector::stress()
            } else {
                FaultInjector::tap_defaults()
            },
            scan_hosts: self.scale.scan_hosts,
            scan_faults: ScanFaults::none(),
            checkpoint_dir: stores.map(|s| s.passive.clone()),
            scan_checkpoint_dir: stores.map(|s| s.scans.clone()),
        }
    }

    /// The generator the passive reference and the trace drive.
    pub(crate) fn generator(&self) -> Generator {
        let cfg = self.study_config(1, None);
        Generator::new(TrafficConfig {
            seed: cfg.seed,
            connections_per_month: cfg.connections_per_month,
            faults: cfg.faults,
        })
    }

    /// Months of the passive window.
    pub fn months(&self) -> Vec<Month> {
        self.scale.start.iter_through(self.scale.end).collect()
    }

    /// The sweep campaign: weekly for `scan-weekly`, otherwise the
    /// monthly campaign `ReportContext` runs.
    pub fn campaign(&self) -> ScanCampaign {
        let seed = self.study_seed();
        match self.workload {
            Workload::ScanWeekly => ScanCampaign::censys_weekly(self.scale.weekly_hosts, seed),
            _ => ScanCampaign::censys_monthly(self.scale.scan_hosts, seed),
        }
        .with_faults(ScanFaults::none())
    }

    /// Artefact ids a rep renders through `ReportContext` (none for
    /// `scan-weekly`, which renders its own series).
    pub fn artefact_ids(&self) -> Vec<&'static str> {
        match self.workload {
            Workload::PaperAll | Workload::ResumeWarm => EXPERIMENT_IDS.to_vec(),
            // Passive only: every artefact that needs no scan.
            Workload::TapStress => EXPERIMENT_IDS
                .iter()
                .copied()
                .filter(|id| !needs(id).1)
                .collect(),
            Workload::ScanWeekly => Vec::new(),
        }
    }
}

/// FNV-1a of an artefact's id and CSV.
///
/// Skips exactly one line: `scan-accounting` writes the campaign's
/// measured `hosts/s (cpu)` into its CSV, so two identical runs differ
/// there. The ROADMAP item "One aggregate persistence format;
/// byte-identical artefacts" moves that timing out of the CSV; drop
/// the exclusion with it.
///
/// `s6.3` is hashed in a canonical form, see [`canonical_curve_rows`].
pub fn artefact_digest(id: &str, csv: &str) -> u64 {
    let lines: Vec<String> = match id {
        "scan-accounting" => csv
            .lines()
            .filter(|l| !l.starts_with("hosts/s (cpu),"))
            .map(String::from)
            .collect(),
        "s6.3" => canonical_curve_rows(&csv.lines().collect::<Vec<_>>()),
        _ => csv.lines().map(String::from).collect(),
    };
    let mut kept = format!("{id}\n");
    for line in lines {
        kept.push_str(&line);
        kept.push('\n');
    }
    tlscope::durable::fnv1a64(kept.as_bytes())
}

/// `s6.3` lists the six most-negotiated curves sorted by count alone,
/// out of a `HashMap`: curves with equal counts come out in hash
/// order, which differs between processes, and a tie at the sixth row
/// decides which curve is shown at all. This form sorts the names
/// within each run of equal shares and drops the names of the last
/// run; every share and every other row is kept. Breaking ties by
/// curve id in `sections::s6_3` would make it unnecessary.
fn canonical_curve_rows(lines: &[&str]) -> Vec<String> {
    let is_curve = |l: &str| !l.starts_with("x25519 share ");
    let (Some(header), body) = (lines.first(), lines.get(1..).unwrap_or_default()) else {
        return Vec::new();
    };
    let curves: Vec<(&str, &str)> = body
        .iter()
        .filter(|l| is_curve(l))
        .map(|l| l.rsplit_once(',').unwrap_or((l, "")))
        .collect();
    let last_share = curves.last().map(|(_, share)| *share);
    let mut out = vec![header.to_string()];
    for run in curves.chunk_by(|a, b| a.1 == b.1) {
        let share = run[0].1;
        let mut names: Vec<&str> = run.iter().map(|(name, _)| *name).collect();
        names.sort_unstable();
        for name in names {
            let name = if Some(share) == last_share { "*" } else { name };
            out.push(format!("{name},{share}"));
        }
    }
    out.extend(body.iter().filter(|l| !is_curve(l)).map(|l| l.to_string()));
    out
}

/// What one rep produced, reduced to what the reference can check.
#[derive(Debug, Clone, Default)]
pub struct Output {
    /// Months present in the passive aggregate.
    pub months: Vec<Month>,
    /// Sweep snapshots, in date order.
    pub scans: Vec<ScanSnapshot>,
    /// `(id, digest)` per artefact, or the error it returned.
    pub artefacts: Vec<(&'static str, Result<u64, String>)>,
    /// Flows the passive runner generated.
    pub flows_generated: u64,
    /// Hosts probed live (checkpoint ledgers replayed on resume are
    /// not counted).
    pub hosts_probed: u64,
    /// Warm-resume bookkeeping held: no month regenerated, no date
    /// re-swept, every checkpoint loaded.
    pub warm: bool,
}

impl Output {
    /// One digest over every artefact, errors included.
    pub fn digest(&self) -> u64 {
        let mut bytes = Vec::new();
        for (id, d) in &self.artefacts {
            bytes.extend_from_slice(id.as_bytes());
            match d {
                Ok(d) => bytes.extend_from_slice(&d.to_le_bytes()),
                Err(e) => bytes.extend_from_slice(e.as_bytes()),
            }
        }
        tlscope::durable::fnv1a64(&bytes)
    }
}

/// Render `ids` from `ctx` with both apertures materialised first, so
/// every rep does its phases in the same order. CSV text is digested
/// by the caller, after the clock stops.
pub(crate) fn render_csvs(
    ctx: &mut ReportContext,
    ids: &[&'static str],
    with_scans: bool,
) -> Vec<(&'static str, Result<String, String>)> {
    // An error here reappears, with its message, from every `run` below
    // that needs the failed aperture.
    let _ = ctx.try_passive();
    if with_scans {
        let _ = ctx.try_scans();
    }
    ids.iter()
        .map(|&id| {
            (
                id,
                ctx.run(id).map(|a| a.to_csv()).map_err(|e| e.to_string()),
            )
        })
        .collect()
}

fn digest_csvs(
    csvs: Vec<(&'static str, Result<String, String>)>,
) -> Vec<(&'static str, Result<u64, String>)> {
    csvs.into_iter()
        .map(|(id, csv)| (id, csv.map(|c| artefact_digest(id, &c))))
        .collect()
}

/// The weekly series `scan-weekly` renders from its snapshots.
pub(crate) fn weekly_artefact(scans: &[ScanSnapshot]) -> (&'static str, String) {
    let fig = Artifact::Figure(sections::censys_series(scans));
    ("censys-weekly", fig.to_csv())
}

/// Run one rep; returns its wall time, its output, and its context
/// (kept for the post-run aggregate check).
pub(crate) fn rep(
    inputs: &Inputs,
    stores: Option<&Stores>,
) -> (f64, Output, Option<ReportContext>) {
    let ids = inputs.artefact_ids();
    match inputs.workload {
        Workload::ScanWeekly => {
            let started = Instant::now();
            let metrics = ScanMetrics::new();
            let scans =
                inputs
                    .campaign()
                    .run_parallel(&ServerPopulation::new(), inputs.workers, &metrics);
            let (id, csv) = weekly_artefact(&scans);
            let wall = started.elapsed().as_secs_f64();
            let out = Output {
                artefacts: vec![(id, Ok(artefact_digest(id, &csv)))],
                hosts_probed: metrics.snapshot().hosts_probed,
                scans,
                ..Output::default()
            };
            (wall, out, None)
        }
        w => {
            let with_scans = w != Workload::TapStress;
            let started = Instant::now();
            let mut ctx = ReportContext::new(inputs.study_config(inputs.workers, stores));
            let csvs = render_csvs(&mut ctx, &ids, with_scans);
            let wall = started.elapsed().as_secs_f64();
            let out = context_output(inputs, &mut ctx, csvs, with_scans);
            (wall, out, Some(ctx))
        }
    }
}

/// Reduce a rendered `ReportContext` to an [`Output`].
fn context_output(
    inputs: &Inputs,
    ctx: &mut ReportContext,
    csvs: Vec<(&'static str, Result<String, String>)>,
    with_scans: bool,
) -> Output {
    let passive = ctx.metrics().snapshot();
    let scan = ctx.scan_metrics().snapshot();
    let months = ctx
        .passive_ref()
        .map(|agg| agg.iter_months().map(|(m, _)| *m).collect())
        .unwrap_or_default();
    let replayed = scan.checkpoints_loaded * u64::from(inputs.scale.scan_hosts);
    let warm = passive.flows_generated == 0
        && passive.checkpoints_loaded == inputs.months().len() as u64
        && scan.checkpoints_written == 0
        && scan.checkpoints_loaded == inputs.campaign().dates.len() as u64;
    // Already materialised by `render_csvs`: this runs nothing.
    let scans = match with_scans {
        true => ctx.try_scans().map(<[_]>::to_vec).unwrap_or_default(),
        false => Vec::new(),
    };
    Output {
        months,
        scans,
        artefacts: digest_csvs(csvs),
        flows_generated: passive.flows_generated,
        hosts_probed: scan.hosts_probed.saturating_sub(replayed),
        warm,
    }
}

/// Fold one month by hand: stream → `extract_into` → `ingest`.
pub fn fold_month(
    generator: &Generator,
    month: Month,
    scratch: &mut ExtractScratch,
) -> NotaryAggregate {
    let mut partial = NotaryAggregate::new();
    let mut stream = generator.stream_month(month);
    while let Some(f) = stream.next_flow() {
        match conn::extract_into(f.date, f.port, f.client, f.server, scratch) {
            Ok(rec) => partial.ingest(rec),
            Err(e) => partial.ingest_failure(e),
        }
    }
    partial
}

/// Sweep one date serially, returning its snapshot and ledger.
pub fn sweep_date(
    population: &ServerPopulation,
    campaign: &ScanCampaign,
    date: Date,
) -> (ScanSnapshot, ScanMetricsSnapshot) {
    let metrics = ScanMetrics::new();
    let snap = sweep_sharded_with(
        population,
        date,
        campaign.hosts_per_sweep,
        campaign.seed,
        1,
        &metrics,
        &ScanFaults::none(),
    );
    (snap, metrics.snapshot())
}

/// The hand-driven result every rep must reproduce.
pub struct Reference {
    /// The context the reference artefacts were rendered from; it holds
    /// the hand-driven aggregate (none for `scan-weekly`).
    pub context: Option<ReportContext>,
    /// Sweep snapshots in date order (empty for `tap-stress`).
    pub scans: Vec<ScanSnapshot>,
    /// `(id, digest)` per artefact.
    pub artefacts: Vec<(&'static str, Result<u64, String>)>,
    /// Dates where the context's own sweeps disagree with the
    /// hand-driven ones.
    pub failures: Vec<String>,
}

impl Reference {
    /// Compute the reference for `inputs`, months and dates striped
    /// over `inputs.workers` threads.
    pub fn compute(inputs: &Inputs) -> Reference {
        let mut aggregate = NotaryAggregate::new();
        if inputs.workload != Workload::ScanWeekly {
            let generator = inputs.generator();
            let months = inputs.months();
            let partials = striped(inputs.workers, months.len(), |i| {
                fold_month(&generator, months[i], &mut ExtractScratch::new())
            });
            for p in partials {
                aggregate.merge(p);
            }
        }
        let campaign = inputs.campaign();
        let scans: Vec<ScanSnapshot> = if inputs.workload == Workload::TapStress {
            Vec::new()
        } else {
            let population = ServerPopulation::new();
            striped(inputs.workers, campaign.dates.len(), |i| {
                sweep_date(&population, &campaign, campaign.dates[i]).0
            })
        };
        let mut failures = Vec::new();
        if inputs.workload == Workload::ScanWeekly {
            let (id, csv) = weekly_artefact(&scans);
            return Reference {
                context: None,
                artefacts: vec![(id, Ok(artefact_digest(id, &csv)))],
                scans,
                failures,
            };
        }
        let with_scans = inputs.workload != Workload::TapStress;
        let mut ctx =
            ReportContext::with_passive(inputs.study_config(inputs.workers, None), aggregate);
        let artefacts = digest_csvs(render_csvs(&mut ctx, &inputs.artefact_ids(), with_scans));
        if with_scans {
            let own = ctx.try_scans().unwrap_or_default();
            for (i, r) in scans.iter().enumerate() {
                if own.get(i) != Some(r) {
                    failures.push(format!("reference:{}", r.date));
                }
            }
        }
        Reference {
            context: Some(ctx),
            scans,
            artefacts,
            failures,
        }
    }

    /// Units of `out` checked against this reference, and the names of
    /// those that failed. A unit is a month, a sweep date, or an
    /// artefact; it fails when it is missing, a short sweep, an error,
    /// or differs from the reference.
    pub fn check(&self, inputs: &Inputs, out: &Output) -> (u64, Vec<String>) {
        let mut attempted = 0;
        let mut failed = Vec::new();
        let mut unit = |name: &dyn std::fmt::Display, ok: bool| {
            attempted += 1;
            if !ok {
                failed.push(name.to_string());
            }
        };
        // On resume-warm, a month regenerated or a date re-swept missed
        // the point of the workload even if its numbers came out right.
        let cold = inputs.workload == Workload::ResumeWarm && !out.warm;
        if inputs.workload != Workload::ScanWeekly {
            for m in inputs.months() {
                unit(&m, out.months.contains(&m) && !cold);
            }
        }
        let hosts = u64::from(inputs.campaign().hosts_per_sweep);
        for (i, r) in self.scans.iter().enumerate() {
            unit(
                &r.date,
                out.scans.get(i) == Some(r) && r.hosts == hosts && !cold,
            );
        }
        for (id, d) in &self.artefacts {
            let got = out.artefacts.iter().find(|(i, _)| i == id).map(|(_, g)| g);
            unit(id, d.is_ok() && got == Some(d));
        }
        (attempted, failed)
    }
}

/// `f(0)..f(n)` computed on `workers` scoped threads, each taking
/// every `workers`-th index; results in index order.
fn striped<T: Send>(workers: usize, n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let workers = workers.max(1);
    let f = &f;
    let mut out: Vec<(usize, T)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|k| {
                s.spawn(move || {
                    (k..n)
                        .step_by(workers)
                        .map(|i| (i, f(i)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("a reference thread panicked"))
            .collect()
    });
    out.sort_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, t)| t).collect()
}

/// How long to measure.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Keep starting reps until this much wall time has passed.
    pub seconds: f64,
    /// Run at least this many reps regardless.
    pub min_reps: usize,
}

/// The result of an untraced run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Units checked, over every rep.
    pub attempted: u64,
    /// Units that failed.
    pub failed: u64,
    /// Names of the units that failed in any rep.
    pub failures: Vec<String>,
    /// Digest of the reference artefacts.
    pub digest: u64,
    /// Whether every rep's artefact digest equals the reference's.
    pub reps_match: bool,
    /// Flows the passive runner generated in the last rep.
    pub flows_generated: u64,
    /// Hosts probed live in the last rep.
    pub hosts_probed: u64,
    /// Wall time of each set-up, seconds.
    pub setup_s: Vec<f64>,
    /// Wall time of each rep, seconds.
    pub rep_s: Vec<f64>,
    /// Process CPU seconds spent over the timed reps.
    pub cpu_s: f64,
    /// Peak RSS after the reps, MiB.
    pub peak_rss_mb: f64,
    /// Calibration loop before and after the run, ms.
    pub calib_ms: (f64, f64),
}

impl Report {
    /// The end-to-end metrics, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            metric("run_s", median(&self.rep_s)),
            metric("setup_s", median(&self.setup_s)),
            metric("peak_rss_mb", self.peak_rss_mb),
        ]
    }
}

/// Set the workload up once; returns the set-up wall time.
///
/// A set-up builds the world the reps run in from the seed and warms
/// it with the window's first unit of work (one month, one sweep), so
/// lazy tables are filled before any rep is timed. `resume-warm`
/// instead writes its warm stores with one cold regeneration.
pub(crate) fn setup_once(inputs: &Inputs) -> Result<f64, String> {
    let started = Instant::now();
    let w = inputs.workload;
    match w {
        Workload::PaperAll | Workload::TapStress | Workload::ScanWeekly => {
            let study = Study::new(inputs.study_config(inputs.workers, None));
            if w.simulates_passive() {
                let month = inputs.scale.start;
                black_box(fold_month(
                    study.generator(),
                    month,
                    &mut ExtractScratch::new(),
                ));
            }
            if w.sweeps() {
                let campaign = inputs.campaign();
                black_box(sweep_date(
                    &ServerPopulation::new(),
                    &campaign,
                    campaign.dates[0],
                ));
            }
        }
        Workload::ResumeWarm => {
            // A cold `repro --resume --resume-scan all` into fresh stores.
            let stores = inputs.stores();
            remove_dir(&stores.passive)?;
            remove_dir(&stores.scans)?;
            let mut ctx = ReportContext::new(inputs.study_config(inputs.workers, Some(&stores)));
            for (id, csv) in render_csvs(&mut ctx, &inputs.artefact_ids(), true) {
                csv.map_err(|e| format!("{id}: {e}"))?;
            }
        }
    }
    Ok(started.elapsed().as_secs_f64())
}

/// Set up as many times as the workload asks, returning each wall
/// time; `resume-warm` keeps the stores of the last one.
pub(crate) fn setup(inputs: &Inputs) -> Result<Vec<f64>, String> {
    let n = if inputs.workload == Workload::ResumeWarm {
        WARM_SETUPS
    } else {
        SETUPS
    };
    (0..n).map(|_| setup_once(inputs)).collect()
}

/// Remove a directory tree if it exists.
pub fn remove_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("cannot remove {}: {e}", dir.display())),
    }
}

/// Run `inputs` untraced: set up, time reps for the budget, then
/// compute the reference and check every rep against it.
pub fn run(inputs: &Inputs, budget: Budget) -> Result<Report, String> {
    let calib_start = host::calibrate_ms();
    let setup_s = setup(inputs)?;
    let stores = (inputs.workload == Workload::ResumeWarm).then(|| inputs.stores());

    let cpu_before = host::process_cpu_s()?;
    let started = Instant::now();
    let mut rep_s = Vec::new();
    let mut outputs = Vec::new();
    let mut last = None;
    while rep_s.len() < budget.min_reps || started.elapsed().as_secs_f64() < budget.seconds {
        let (wall, out, kept) = rep(inputs, stores.as_ref());
        rep_s.push(wall);
        outputs.push(out);
        last = kept;
    }
    let cpu_s = host::process_cpu_s()? - cpu_before;
    let peak_rss_mb = host::peak_rss_mb()?;

    let reference = Reference::compute(inputs);
    let mut attempted = 0;
    let mut failures = reference.failures.clone();
    for out in &outputs {
        let (a, f) = reference.check(inputs, out);
        attempted += a;
        failures.extend(f);
    }
    // Artefacts cover what users see; the aggregate behind them is
    // compared once, on the last rep, where every month fails if it
    // differs.
    if let Some(ctx) = &last {
        if ctx.passive_ref()
            != reference
                .context
                .as_ref()
                .and_then(ReportContext::passive_ref)
        {
            failures.extend(inputs.months().iter().map(|m| format!("aggregate:{m}")));
        }
    }
    let failed = failures.len() as u64;
    failures.sort();
    failures.dedup();
    let digest = Output {
        artefacts: reference.artefacts.clone(),
        ..Output::default()
    }
    .digest();
    let reps_match = outputs.iter().all(|o| o.digest() == digest);
    let last_out = outputs.last().expect("at least one rep ran");
    let report = Report {
        attempted,
        failed,
        failures,
        digest,
        reps_match,
        flows_generated: last_out.flows_generated,
        hosts_probed: last_out.hosts_probed,
        setup_s,
        rep_s,
        cpu_s,
        peak_rss_mb,
        calib_ms: (calib_start, host::calibrate_ms()),
    };
    Ok(report)
}
