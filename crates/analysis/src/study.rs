//! Study orchestration: run the passive and active measurements over
//! the paper's observation windows.
//!
//! The passive measurement uses a *fused* streaming runner: the
//! observation window is sharded by month across worker threads, and
//! each worker generates its month's flows and aggregates them in the
//! same loop — no month is ever materialized. Each worker owns one
//! [`ExtractScratch`] (record slot and parse cache) for every month it
//! folds. Partial aggregates are merged at the end (aggregation is
//! commutative, so the result is identical to a serial run), and every
//! stage reports into a shared [`PipelineMetrics`], which also holds
//! the run's panic reports. The panic boundary sits on the month: a month
//! whose fold panics is replayed flow by flow and only the poison flow
//! is quarantined. Months are units of the runner the active side's
//! sweep dates and SSL-Pulse surveys also go through
//! ([`tlscope_durable::run_units`]), which puts the scan panic
//! boundary on the date.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use tlscope_durable::{isolate, run_units, StoreError};
use tlscope_obs::Progress;

use tlscope_chron::Month;
use tlscope_notary::{
    checkpoint, ingest_borrowed, ExtractScratch, MetricsSnapshot, NotaryAggregate, PipelineMetrics,
};
use tlscope_scanner::{ScanCampaign, ScanFaults, ScanMetrics, ScanSnapshot};
use tlscope_servers::ServerPopulation;
use tlscope_traffic::generator::FlowRef;
use tlscope_traffic::{FaultInjector, Generator, TrafficConfig};

/// One flow in this many has its generation and fold timed; the stage
/// clocks scale the sampled sums to every flow.
const TIMING_SAMPLE: u64 = 64;

/// Configuration of a full study run.
#[derive(Debug, Clone)]
pub struct StudyConfig {
    /// Master seed for all randomness.
    pub seed: u64,
    /// Passive connections simulated per month.
    pub connections_per_month: u32,
    /// First month of the passive window (paper: 2012-02).
    pub start: Month,
    /// Last month of the passive window (paper: 2018-04).
    pub end: Month,
    /// Worker threads for the months, the sweep dates and the
    /// checkpoint-store loads (1 = serial). Defaults to the cores the
    /// machine reports.
    pub workers: usize,
    /// Tap fault injection.
    pub faults: FaultInjector,
    /// Hosts per active sweep.
    pub scan_hosts: u32,
    /// Scan-side fault injection (SYN loss, flakes, timeouts, dead
    /// hosts). Defaults to [`ScanFaults::none`] unless
    /// `TLSCOPE_SCAN_FAULT_PROFILE` names a profile, so calibration
    /// anchors see a loss-free scanner out of the box; the default
    /// panics when the variable names no profile
    /// ([`ScanFaults::from_env`]).
    pub scan_faults: ScanFaults,
    /// When set, each completed month's partial aggregate is written
    /// to this directory, and months already checkpointed there are
    /// loaded instead of re-simulated (`repro --resume <dir>`). The
    /// directory serves one passive study: `seed`,
    /// `connections_per_month` and `faults`.
    pub checkpoint_dir: Option<PathBuf>,
    /// When set, each completed campaign date's snapshot + ledger is
    /// written to this directory, and dates already checkpointed there
    /// are loaded instead of re-swept (`repro --resume-scan <dir>`).
    /// The directory serves one campaign: `seed`, `scan_hosts` and
    /// `scan_faults`.
    pub scan_checkpoint_dir: Option<PathBuf>,
}

impl Default for StudyConfig {
    fn default() -> Self {
        StudyConfig {
            seed: 0x1C51_2012,
            connections_per_month: 12_000,
            // The Notary window (Feb 2012 – Mar 2018, §3.1) padded by
            // one month on each side so milestone checks can read the
            // boundary months; calibration tests anchor on 2018-04.
            start: Month::ym(2012, 1),
            end: Month::ym(2018, 4),
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            faults: FaultInjector::tap_defaults(),
            scan_hosts: 4_000,
            scan_faults: ScanFaults::from_env(ScanFaults::none()),
            checkpoint_dir: None,
            scan_checkpoint_dir: None,
        }
    }
}

impl StudyConfig {
    /// A small configuration for tests and quick demos.
    pub fn quick() -> Self {
        StudyConfig {
            connections_per_month: 1_500,
            scan_hosts: 800,
            ..StudyConfig::default()
        }
    }

    /// The study a month store is claimed for (see `checkpoint_dir`).
    /// The window and the worker count change no month, so they are
    /// left out.
    fn passive_study(&self) -> String {
        format!(
            "passive seed={} connections_per_month={} faults={:?}",
            self.seed, self.connections_per_month, self.faults
        )
    }

    /// The campaign a scan store is claimed for (see
    /// `scan_checkpoint_dir`).
    fn scan_study(&self) -> String {
        format!(
            "scan seed={} scan_hosts={} scan_faults={:?}",
            self.seed, self.scan_hosts, self.scan_faults
        )
    }
}

/// A study: the passive tap plus the active scanner.
pub struct Study {
    cfg: StudyConfig,
    generator: Generator,
    population: ServerPopulation,
}

impl Study {
    /// Build a study from a configuration.
    pub fn new(cfg: StudyConfig) -> Self {
        let generator = Generator::new(TrafficConfig {
            seed: cfg.seed,
            connections_per_month: cfg.connections_per_month,
            faults: cfg.faults,
        });
        Study {
            cfg,
            generator,
            population: ServerPopulation::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &StudyConfig {
        &self.cfg
    }

    /// The traffic generator (exposed for market-share inspection).
    pub fn generator(&self) -> &Generator {
        &self.generator
    }

    /// Run the passive measurement over the configured window.
    pub fn run_passive(&self) -> NotaryAggregate {
        self.run_passive_metered(&PipelineMetrics::new())
    }

    /// Run the passive measurement with pipeline accounting.
    ///
    /// Convenience wrapper over [`Study::try_run_passive_metered`].
    /// Checkpoint errors are only reachable with `cfg.checkpoint_dir`
    /// set; callers that checkpoint should use the `try_` variant to
    /// surface them instead of panicking here.
    pub fn run_passive_metered(&self, metrics: &PipelineMetrics) -> NotaryAggregate {
        self.try_run_passive_metered(metrics)
            .unwrap_or_else(|e| panic!("passive checkpoint error: {e}"))
    }

    /// Run the passive measurement with pipeline accounting and
    /// (optionally) per-month checkpointing.
    ///
    /// Months are sharded across `cfg.workers` threads through an
    /// atomic work index; each worker streams its month's events and
    /// folds them, through the one [`ExtractScratch`] it owns, into a
    /// *fresh per-month partial* as they are drawn, so peak memory
    /// stays at one event per worker and a completed month is a
    /// self-contained unit of progress. With
    /// `cfg.checkpoint_dir` set, each completed partial is written
    /// atomically to `<dir>/<YYYY-MM>.ckpt` before being merged, and
    /// months already checkpointed in the directory are loaded (on the
    /// same workers) and skipped — so an interrupted run resumes from the last completed
    /// month and, because merging is commutative and integer-exact,
    /// produces a final aggregate bit-identical to an uninterrupted
    /// one. The directory is claimed for this study first
    /// ([`tlscope_durable::claim`]): a store another study wrote is
    /// refused with [`StoreError::Foreign`], never loaded.
    ///
    /// Each month is folded behind a panic boundary. A month that
    /// panics is replayed flow by flow (it is pure in `(seed, month)`),
    /// the flow that panics alone is quarantined and named in a flight
    /// report in `metrics`, and the month then commits as usual. A
    /// panic outside that boundary kills its worker; the months that
    /// worker had merged are counted in
    /// `shards_lost`, and every other month is still merged and
    /// returned.
    pub fn try_run_passive_metered(
        &self,
        metrics: &PipelineMetrics,
    ) -> Result<NotaryAggregate, StoreError> {
        self.run_months(metrics, |agg, scratch, _, _, flow| {
            ingest_borrowed(agg, scratch, flow.date, flow.port, flow.client, flow.server)
        })
    }

    /// The month-sharded runner behind [`Study::try_run_passive_metered`]:
    /// one [`run_units`] call, a month per unit, each worker holding
    /// its merged months and its scratch. Generic over the per-flow
    /// fold `(partial, scratch, month, flow index, flow)` so tests can
    /// inject a fold that panics.
    fn run_months<F>(
        &self,
        metrics: &PipelineMetrics,
        fold: F,
    ) -> Result<NotaryAggregate, StoreError>
    where
        F: Fn(&mut NotaryAggregate, &mut ExtractScratch, Month, u64, FlowRef<'_>) + Sync,
    {
        let (mut result, completed) = match &self.cfg.checkpoint_dir {
            Some(dir) => {
                tlscope_durable::claim(dir, &self.cfg.passive_study())?;
                let load_started = Instant::now();
                let load = checkpoint::load_dir_on(dir, self.cfg.workers)?;
                metrics.checkpoint_load.record(load_started.elapsed());
                metrics.add(&MetricsSnapshot {
                    checkpoints_loaded: load.completed.len() as u64,
                    checkpoints_quarantined: load.quarantined.len() as u64,
                    ..Default::default()
                });
                (load.aggregate, load.completed)
            }
            None => (NotaryAggregate::new(), std::collections::BTreeSet::new()),
        };
        let total_months = self.cfg.start.iter_through(self.cfg.end).count() as u64;
        let months: Vec<Month> = self
            .cfg
            .start
            .iter_through(self.cfg.end)
            .filter(|m| !completed.contains(m))
            .collect();
        let progress = Progress::from_env("passive-study", total_months, "months", "flows");
        let started = AtomicUsize::new(0);
        let ran = run_units(
            months.len(),
            self.cfg.workers,
            &progress,
            || metrics.snapshot().flows_ingested,
            |(agg, scratch): &mut (NotaryAggregate, ExtractScratch), i| {
                started.fetch_add(1, Ordering::Relaxed);
                let month = months[i];
                let month_started = Instant::now();
                let (partial, month_metrics) =
                    self.fold_month_supervised(month, scratch, &fold, metrics);
                if let Some(dir) = &self.cfg.checkpoint_dir {
                    let write_started = Instant::now();
                    checkpoint::write_month(dir, month, &partial)?;
                    metrics.checkpoint_write.record(write_started.elapsed());
                    metrics.add(&MetricsSnapshot {
                        checkpoints_written: 1,
                        ..Default::default()
                    });
                }
                metrics.month.record(month_started.elapsed());
                metrics.absorb(&month_metrics);
                agg.merge(partial);
                if started.load(Ordering::Relaxed) == months.len() {
                    // Every month has a worker, so this one runs no
                    // more: free its parse cache now rather than after
                    // the last worker joins.
                    *scratch = ExtractScratch::new();
                }
                Ok(())
            },
        )?;
        let started = Instant::now();
        for (partial, _) in ran.parts {
            result.merge(partial);
        }
        metrics.add(&MetricsSnapshot {
            merge_nanos: started.elapsed().as_nanos() as u64,
            // A worker that died outside the month boundary took the
            // months it had merged with it.
            shards_lost: (months.len() - ran.committed) as u64,
            ..Default::default()
        });
        Ok(result)
    }

    /// Fold `month` into a fresh partial behind a panic boundary, so a
    /// fold panic never reaches the worker's accumulated aggregate.
    ///
    /// On a panic the attempt is discarded and the month replayed: each
    /// flow is folded into a one-flow partial behind its own boundary,
    /// survivors are merged, and a flow that panics alone is
    /// quarantined and reported by `(month, flow index)`. Both attempts
    /// fold through the worker's `scratch`. Counters and reports go to
    /// a month-local bag that the caller absorbs on commit, so the
    /// discarded attempt is never counted.
    fn fold_month_supervised<F>(
        &self,
        month: Month,
        scratch: &mut ExtractScratch,
        fold: &F,
        metrics: &PipelineMetrics,
    ) -> (NotaryAggregate, PipelineMetrics)
    where
        F: Fn(&mut NotaryAggregate, &mut ExtractScratch, Month, u64, FlowRef<'_>),
    {
        let first = PipelineMetrics::new();
        let attempt = isolate(|| {
            self.fold_month(month, &first, scratch, |partial, scratch, index, flow| {
                fold(partial, scratch, month, index, flow);
                true
            })
        });
        if let Some(partial) = attempt {
            return (partial, first);
        }
        metrics.add(&MetricsSnapshot {
            months_replayed: 1,
            ..Default::default()
        });
        let replay = PipelineMetrics::new();
        let partial = self.fold_month(month, &replay, scratch, |partial, scratch, index, flow| {
            let one = isolate(|| {
                let mut one = NotaryAggregate::new();
                fold(&mut one, scratch, month, index, flow);
                one
            });
            match one {
                Some(one) => {
                    partial.merge(one);
                    true
                }
                None => {
                    replay.add(&MetricsSnapshot {
                        flows_quarantined: 1,
                        ..Default::default()
                    });
                    replay.report(&format!(
                        "poison flow quarantined (month {month}, flow {index})"
                    ));
                    false
                }
            }
        });
        (partial, replay)
    }

    /// Stream `month` into a fresh partial, folding each flow through
    /// `scratch`, and add it to `metrics` once, after the loop: the
    /// stream's tally, the parse-cache counters `scratch` moved, the
    /// flows dispatched and ingested, the parse failures, and the two
    /// stage clocks. `fold` reports whether it ingested the flow
    /// (`false`: quarantined). An attempt that panics adds nothing.
    ///
    /// The clocks are sampled: every [`TIMING_SAMPLE`]th flow by index
    /// (starting at 0) is timed with three clock reads — before
    /// `next_flow`, after it, and after the fold — and each sum is
    /// scaled by dispatched ÷ sampled.
    fn fold_month(
        &self,
        month: Month,
        metrics: &PipelineMetrics,
        scratch: &mut ExtractScratch,
        mut fold: impl FnMut(&mut NotaryAggregate, &mut ExtractScratch, u64, FlowRef<'_>) -> bool,
    ) -> NotaryAggregate {
        let cache_before = scratch.parse_cache_stats();
        let mut partial = NotaryAggregate::new();
        let (mut dispatched, mut ingested, mut sampled) = (0u64, 0u64, 0u64);
        let (mut gen_time, mut ingest_time) = (Duration::ZERO, Duration::ZERO);
        // Borrowed fast path: fold straight from the generator's
        // scratch buffers into the aggregate — no flow buffer is ever
        // owned.
        let mut stream = self.generator.stream_month(month);
        loop {
            let started = (dispatched % TIMING_SAMPLE == 0).then(Instant::now);
            let Some(flow) = stream.next_flow() else {
                break;
            };
            let generated = started.map(|t0| (t0, Instant::now()));
            ingested += u64::from(fold(&mut partial, scratch, dispatched, flow));
            if let Some((t0, t1)) = generated {
                gen_time += t1 - t0;
                ingest_time += t1.elapsed();
                sampled += 1;
            }
            dispatched += 1;
        }
        let scaled = |sum: Duration| match sampled {
            0 => 0,
            n => (sum.as_nanos() * u128::from(dispatched) / u128::from(n)) as u64,
        };
        let tally = stream.tally();
        let cache = scratch.parse_cache_stats();
        metrics.add(&MetricsSnapshot {
            flows_generated: tally.flows,
            bytes_generated: tally.wire_bytes,
            gen_nanos: scaled(gen_time),
            flows_outage_dropped: tally.outage_dropped,
            flows_duplicated: tally.duplicated,
            flows_dispatched: dispatched,
            flows_ingested: ingested,
            not_tls: partial.not_tls,
            garbled_client: partial.garbled_client,
            flows_salvaged: partial.salvaged,
            ingest_nanos: scaled(ingest_time),
            template_hits: tally.template_hits,
            template_misses: tally.template_misses,
            parse_cache_hits: cache.hits - cache_before.hits,
            parse_cache_misses: cache.misses - cache_before.misses,
            parse_cache_evictions: cache.evictions - cache_before.evictions,
            ..Default::default()
        });
        partial
    }

    /// Run the active campaign (monthly cadence over the Censys window).
    pub fn run_active(&self) -> Vec<ScanSnapshot> {
        self.run_active_metered(&ScanMetrics::new())
    }

    /// Run the active campaign with scan accounting, sweep dates
    /// sharded across `cfg.workers` threads. Bit-identical to
    /// [`Study::run_active`] at any worker count (host sampling is
    /// counter-based per `(seed, date, host index)`).
    ///
    /// Convenience wrapper over [`Study::try_run_active_metered`].
    /// Checkpoint errors are only reachable with
    /// `cfg.scan_checkpoint_dir` set; checkpointing callers should use
    /// the `try_` variant to surface them instead of panicking here.
    pub fn run_active_metered(&self, metrics: &ScanMetrics) -> Vec<ScanSnapshot> {
        self.try_run_active_metered(metrics)
            .unwrap_or_else(|e| panic!("scan checkpoint error: {e}"))
    }

    /// Run the active campaign with scan accounting and (optionally)
    /// per-date checkpointing.
    ///
    /// With `cfg.scan_checkpoint_dir` set, each completed date's
    /// snapshot and ledger is written atomically to
    /// `<dir>/<YYYY-MM-DD>.ckpt`, and dates already checkpointed there
    /// are loaded (their ledgers replayed into `metrics`) and skipped —
    /// so an interrupted campaign resumes from the last completed date
    /// and produces snapshots and counters bit-identical to an
    /// uninterrupted run. Damaged checkpoint files are quarantined to
    /// `*.ckpt.bad` and their dates re-swept. As on the passive side,
    /// the directory is claimed for this campaign before it is loaded.
    pub fn try_run_active_metered(
        &self,
        metrics: &ScanMetrics,
    ) -> Result<Vec<ScanSnapshot>, StoreError> {
        if let Some(dir) = &self.cfg.scan_checkpoint_dir {
            tlscope_durable::claim(dir, &self.cfg.scan_study())?;
        }
        ScanCampaign::censys_monthly(self.cfg.scan_hosts, self.cfg.seed)
            .with_faults(self.cfg.scan_faults)
            .run_durable(
                &self.population,
                self.cfg.workers,
                metrics,
                self.cfg.scan_checkpoint_dir.as_deref(),
            )
    }

    /// All months of the passive window.
    pub fn months(&self) -> Vec<Month> {
        self.cfg.start.iter_through(self.cfg.end).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tlscope_notary::MetricsSnapshot;

    #[test]
    fn quick_study_runs_end_to_end() {
        let mut cfg = StudyConfig::quick();
        cfg.start = Month::ym(2015, 1);
        cfg.end = Month::ym(2015, 4);
        cfg.connections_per_month = 400;
        let study = Study::new(cfg);
        let agg = study.run_passive();
        assert_eq!(agg.iter_months().count(), 4);
        let m = agg.month(Month::ym(2015, 2)).unwrap();
        assert!(m.total > 350);
        assert!(m.answered > 300);
    }

    #[test]
    fn serial_and_parallel_agree() {
        let mut cfg = StudyConfig::quick();
        cfg.start = Month::ym(2016, 1);
        cfg.end = Month::ym(2016, 2);
        cfg.connections_per_month = 300;
        cfg.workers = 1;
        let serial = Study::new(cfg.clone()).run_passive();
        cfg.workers = 4;
        let parallel = Study::new(cfg).run_passive();
        // Aggregation is commutative and integer-exact, so the sharded
        // run must be bit-identical to the serial one.
        assert_eq!(serial, parallel);
    }

    /// Both stores' stamps embed `{:?}` of the fault structs, so a
    /// field or `Debug` change would make every existing store be
    /// refused as foreign. The faults are set explicitly, so the
    /// fault-matrix variable does not move the scan stamp.
    #[test]
    fn study_stamps_are_pinned() {
        let cfg = StudyConfig {
            faults: FaultInjector::tap_defaults(),
            scan_faults: ScanFaults::none(),
            ..StudyConfig::quick()
        };
        assert_eq!(
            cfg.passive_study(),
            "passive seed=475078674 connections_per_month=1500 faults=FaultInjector { \
             drop_prob: 0.002, truncate_prob: 0.001, corrupt_prob: 0.0005, gap_prob: 0.0, \
             duplicate_prob: 0.0, outage_prob: 0.0 }"
        );
        assert_eq!(
            cfg.scan_study(),
            "scan seed=475078674 scan_hosts=800 scan_faults=ScanFaults { syn_drop_prob: 0.0, \
             timeout_prob: 0.0, flake_prob: 0.0, dead_host_prob: 0.0, panic_on_host: None }"
        );
    }

    fn unique_dir(tag: &str) -> PathBuf {
        let pid = std::process::id();
        let t = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos();
        std::env::temp_dir().join(format!("tlscope-study-{tag}-{pid}-{t}"))
    }

    /// An interrupted-then-resumed checkpointed run must be
    /// bit-identical to an uninterrupted run — for the serial
    /// (workers = 1) and sharded runners alike.
    #[test]
    fn resume_from_checkpoint_is_bit_identical() {
        for workers in [1usize, 4] {
            let mut cfg = StudyConfig::quick();
            cfg.start = Month::ym(2016, 1);
            cfg.end = Month::ym(2016, 4);
            cfg.connections_per_month = 200;
            cfg.workers = workers;
            // No drops/duplication so the regenerated-flow count below
            // is exact.
            cfg.faults = FaultInjector::none();
            let uninterrupted = Study::new(cfg.clone()).run_passive();

            // Simulate a run killed after two completed months: only
            // the truncated window executes before the "crash".
            let dir = unique_dir(&format!("resume-w{workers}"));
            let mut killed = cfg.clone();
            killed.end = Month::ym(2016, 2);
            killed.checkpoint_dir = Some(dir.clone());
            let _ = Study::new(killed).run_passive();

            // Resume over the full window from the same directory.
            let mut resumed_cfg = cfg.clone();
            resumed_cfg.checkpoint_dir = Some(dir.clone());
            let metrics = PipelineMetrics::new();
            let resumed = Study::new(resumed_cfg)
                .try_run_passive_metered(&metrics)
                .unwrap();
            assert_eq!(resumed, uninterrupted, "workers = {workers}");
            // Only the two remaining months were re-simulated.
            assert_eq!(metrics.snapshot().flows_generated, 2 * 200);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn fully_checkpointed_run_resumes_without_regenerating() {
        let mut cfg = StudyConfig::quick();
        cfg.start = Month::ym(2015, 3);
        cfg.end = Month::ym(2015, 5);
        cfg.connections_per_month = 150;
        cfg.workers = 2;
        let dir = unique_dir("full");
        cfg.checkpoint_dir = Some(dir.clone());
        let first = Study::new(cfg.clone()).run_passive();
        let metrics = PipelineMetrics::new();
        let second = Study::new(cfg).try_run_passive_metered(&metrics).unwrap();
        assert_eq!(first, second);
        assert_eq!(metrics.snapshot().flows_generated, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_io_errors_surface_as_errors() {
        let mut cfg = StudyConfig::quick();
        cfg.start = Month::ym(2015, 1);
        cfg.end = Month::ym(2015, 1);
        cfg.connections_per_month = 50;
        // A file where the checkpoint directory should be.
        let path = unique_dir("clash");
        std::fs::write(&path, "not a directory").unwrap();
        cfg.checkpoint_dir = Some(path.clone());
        let err = Study::new(cfg).try_run_passive_metered(&PipelineMetrics::new());
        assert!(err.is_err());
        std::fs::remove_file(&path).unwrap();
    }

    /// Core scan-ledger counters (everything except wall-clock time and
    /// the checkpoint bookkeeping itself).
    fn scan_ledger_core(s: &tlscope_scanner::ScanMetricsSnapshot) -> [u64; 9] {
        [
            s.hosts_dispatched,
            s.hosts_probed,
            s.hosts_dropped,
            s.host_retries,
            s.probes_sent,
            s.handshakes_completed,
            s.handshakes_refused,
            s.probes_timed_out,
            s.sweeps_completed,
        ]
    }

    /// A scan campaign resumed from a partially-populated checkpoint
    /// directory must be bit-identical — snapshots and ledger — to an
    /// uninterrupted run.
    #[test]
    fn scan_resume_from_checkpoint_is_bit_identical() {
        let mut cfg = StudyConfig::quick();
        cfg.scan_hosts = 120;
        cfg.workers = 3;
        cfg.scan_faults = ScanFaults::scan_defaults();
        let clean_metrics = ScanMetrics::new();
        let expected = Study::new(cfg.clone())
            .try_run_active_metered(&clean_metrics)
            .unwrap();

        // A full checkpointed run, then delete the last two date files
        // to simulate a campaign killed before completing them.
        let dir = unique_dir("scan-resume");
        cfg.scan_checkpoint_dir = Some(dir.clone());
        let _ = Study::new(cfg.clone()).run_active();
        let mut files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "ckpt"))
            .collect();
        files.sort();
        let total = files.len();
        assert_eq!(total, expected.len());
        for path in files.iter().rev().take(2) {
            std::fs::remove_file(path).unwrap();
        }

        let metrics = ScanMetrics::new();
        let resumed = Study::new(cfg).try_run_active_metered(&metrics).unwrap();
        assert_eq!(resumed, expected);
        let s = metrics.snapshot();
        assert_eq!(s.checkpoints_loaded, (total - 2) as u64);
        assert_eq!(s.checkpoints_written, 2);
        assert_eq!(s.checkpoints_quarantined, 0);
        // Replayed ledgers + the two re-swept dates reproduce the clean
        // run's accounting exactly.
        assert_eq!(
            scan_ledger_core(&s),
            scan_ledger_core(&clean_metrics.snapshot())
        );
        assert!(s.accounting_holds());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A damaged scan checkpoint is quarantined and its date re-swept;
    /// the resumed campaign still matches the clean run.
    #[test]
    fn scan_resume_quarantines_damaged_checkpoints() {
        let mut cfg = StudyConfig::quick();
        cfg.scan_hosts = 100;
        cfg.workers = 2;
        cfg.scan_faults = ScanFaults::scan_defaults();
        let expected = Study::new(cfg.clone()).run_active();

        let dir = unique_dir("scan-quarantine");
        cfg.scan_checkpoint_dir = Some(dir.clone());
        let _ = Study::new(cfg.clone()).run_active();
        let mut files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "ckpt"))
            .collect();
        files.sort();
        let total = files.len();
        // Truncate the first checkpoint mid-file.
        let victim = &files[0];
        let text = std::fs::read_to_string(victim).unwrap();
        std::fs::write(victim, &text[..text.len() / 2]).unwrap();

        let metrics = ScanMetrics::new();
        let resumed = Study::new(cfg).try_run_active_metered(&metrics).unwrap();
        assert_eq!(resumed, expected);
        let s = metrics.snapshot();
        assert_eq!(s.checkpoints_quarantined, 1);
        assert_eq!(s.checkpoints_loaded, (total - 1) as u64);
        assert_eq!(s.checkpoints_written, 1);
        let bad = victim.with_extension("ckpt.bad");
        assert!(bad.exists(), "damaged file parked at {}", bad.display());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scan_checkpoint_io_errors_surface_as_errors() {
        let mut cfg = StudyConfig::quick();
        cfg.scan_hosts = 60;
        // A file where the scan checkpoint directory should be.
        let path = unique_dir("scan-clash");
        std::fs::write(&path, "not a directory").unwrap();
        cfg.scan_checkpoint_dir = Some(path.clone());
        let err = Study::new(cfg).try_run_active_metered(&ScanMetrics::new());
        assert!(err.is_err());
        std::fs::remove_file(&path).unwrap();
    }

    /// The passive runner reports loaded / quarantined / written
    /// checkpoint counts through the pipeline metrics.
    #[test]
    fn passive_resume_reports_recovery_counters() {
        let mut cfg = StudyConfig::quick();
        cfg.start = Month::ym(2016, 6);
        cfg.end = Month::ym(2016, 9);
        cfg.connections_per_month = 150;
        cfg.workers = 2;
        cfg.faults = FaultInjector::none();
        let expected = Study::new(cfg.clone()).run_passive();

        let dir = unique_dir("passive-quarantine");
        cfg.checkpoint_dir = Some(dir.clone());
        let _ = Study::new(cfg.clone()).run_passive();
        // Bit-flip one month's checkpoint body.
        let victim = dir.join("2016-07.ckpt");
        let mut bytes = std::fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&victim, &bytes).unwrap();

        let metrics = PipelineMetrics::new();
        let resumed = Study::new(cfg).try_run_passive_metered(&metrics).unwrap();
        assert_eq!(resumed, expected);
        let s = metrics.snapshot();
        assert_eq!(s.checkpoints_loaded, 3);
        assert_eq!(s.checkpoints_quarantined, 1);
        assert_eq!(s.checkpoints_written, 1);
        assert!(victim.with_extension("ckpt.bad").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A store serves only the study that claimed it: another seed is
    /// refused on both apertures, while another worker count is the
    /// same study and loads everything.
    #[test]
    fn stores_refuse_another_study() {
        let mut cfg = StudyConfig::quick();
        cfg.start = Month::ym(2016, 1);
        cfg.end = Month::ym(2016, 2);
        cfg.connections_per_month = 100;
        cfg.scan_hosts = 40;
        cfg.workers = 2;
        let months = unique_dir("claim-months");
        let dates = unique_dir("claim-dates");
        cfg.checkpoint_dir = Some(months.clone());
        cfg.scan_checkpoint_dir = Some(dates.clone());
        let study = Study::new(cfg.clone());
        let (passive, scans) = (study.run_passive(), study.run_active());

        let mut serial = cfg.clone();
        serial.workers = 1;
        let study = Study::new(serial);
        let metrics = PipelineMetrics::new();
        assert_eq!(study.try_run_passive_metered(&metrics).unwrap(), passive);
        assert_eq!(metrics.snapshot().flows_generated, 0);
        let scan_metrics = ScanMetrics::new();
        assert_eq!(study.try_run_active_metered(&scan_metrics).unwrap(), scans);
        assert_eq!(scan_metrics.snapshot().checkpoints_written, 0);

        let mut reseeded = cfg;
        reseeded.seed += 1;
        let study = Study::new(reseeded);
        let passive = study.try_run_passive_metered(&PipelineMetrics::new());
        let scans = study.try_run_active_metered(&ScanMetrics::new());
        for (err, dir) in [
            (passive.unwrap_err(), &months),
            (scans.unwrap_err(), &dates),
        ] {
            assert!(
                matches!(&err, StoreError::Foreign(d, _) if d == dir),
                "{err}"
            );
        }
        std::fs::remove_dir_all(&months).unwrap();
        std::fs::remove_dir_all(&dates).unwrap();
    }

    #[test]
    fn metered_run_accounts_every_flow() {
        let mut cfg = StudyConfig::quick();
        cfg.start = Month::ym(2017, 1);
        cfg.end = Month::ym(2017, 3);
        cfg.connections_per_month = 250;
        cfg.workers = 2;
        let study = Study::new(cfg);
        let metrics = PipelineMetrics::new();
        let agg = study.run_passive_metered(&metrics);
        let s = metrics.snapshot();
        assert_eq!(s.flows_generated, s.flows_dispatched);
        assert_eq!(s.flows_dispatched, s.flows_ingested);
        assert_eq!(s.flows_lost(), 0);
        assert_eq!(s.shards_lost, 0);
        // One month latency sample per month shard.
        assert_eq!(metrics.latency().month.count, 3);
        assert_eq!(
            s.flows_ingested,
            agg.total() + agg.not_tls + agg.garbled_client
        );
        assert_eq!(
            (s.not_tls, s.garbled_client),
            (agg.not_tls, agg.garbled_client)
        );
        assert!(s.gen_nanos > 0 && s.ingest_nanos > 0);
    }

    /// A fold that ingests every flow except the one at `at`, a
    /// `(month, flow index)` pair, where it panics (`poison`) or skips
    /// the flow.
    fn fold_except(
        at: (Month, u64),
        poison: bool,
    ) -> impl Fn(&mut NotaryAggregate, &mut ExtractScratch, Month, u64, FlowRef<'_>) + Sync {
        move |agg: &mut NotaryAggregate,
              scratch: &mut ExtractScratch,
              month: Month,
              index: u64,
              flow: FlowRef<'_>| {
            if (month, index) != at {
                ingest_borrowed(agg, scratch, flow.date, flow.port, flow.client, flow.server);
            } else if poison {
                panic!("poison flow {index} of {month}");
            }
        }
    }

    /// The generation-side counters a replayed month must commit
    /// exactly once.
    fn generation_ledger(s: &MetricsSnapshot) -> [u64; 7] {
        [
            s.flows_generated,
            s.bytes_generated,
            s.flows_outage_dropped,
            s.flows_duplicated,
            s.flows_dispatched,
            s.template_hits,
            s.template_misses,
        ]
    }

    /// The month-level tally adds up to a hand count: at 1 and 3
    /// workers and under every fault profile, the run's generation
    /// counters equal the sums of a hand-driven `stream_month` loop
    /// (flows and bytes counted flow by flow, the tap and template
    /// counters read off each month's stream).
    #[test]
    fn month_tally_matches_a_hand_count() {
        for faults in [
            FaultInjector::none(),
            FaultInjector::tap_defaults(),
            FaultInjector::stress(),
        ] {
            let mut cfg = StudyConfig::quick();
            cfg.start = Month::ym(2016, 11);
            cfg.end = Month::ym(2017, 2);
            cfg.connections_per_month = 300;
            cfg.faults = faults;
            let study = Study::new(cfg.clone());
            let mut hand = [0u64; 6];
            for month in study.months() {
                let mut stream = study.generator().stream_month(month);
                let (mut flows, mut bytes) = (0u64, 0u64);
                while let Some(flow) = stream.next_flow() {
                    flows += 1;
                    bytes += (flow.client.len() + flow.server.map_or(0, <[u8]>::len)) as u64;
                }
                let t = stream.tally();
                assert_eq!((t.flows, t.wire_bytes), (flows, bytes), "{month}");
                for (sum, n) in hand.iter_mut().zip([
                    flows,
                    bytes,
                    t.outage_dropped,
                    t.duplicated,
                    t.template_hits,
                    t.template_misses,
                ]) {
                    *sum += n;
                }
            }
            for workers in [1, 3] {
                cfg.workers = workers;
                let metrics = PipelineMetrics::new();
                Study::new(cfg.clone()).run_passive_metered(&metrics);
                let s = metrics.snapshot();
                assert_eq!(
                    [
                        s.flows_generated,
                        s.bytes_generated,
                        s.flows_outage_dropped,
                        s.flows_duplicated,
                        s.template_hits,
                        s.template_misses,
                    ],
                    hand,
                    "workers={workers} {faults:?}"
                );
                assert_eq!(s.flows_dispatched, s.flows_generated);
                assert!(s.accounting_holds());
            }
        }
    }

    /// At one worker, the run's parse-cache counters are those of one
    /// scratch folding the same months in order by hand: the worker's
    /// scratch lives across its months.
    #[test]
    fn one_worker_parse_cache_counts_match_one_scratch_by_hand() {
        let mut cfg = StudyConfig::quick();
        cfg.start = Month::ym(2016, 11);
        cfg.end = Month::ym(2017, 2);
        cfg.connections_per_month = 300;
        cfg.faults = FaultInjector::stress();
        cfg.workers = 1;
        let study = Study::new(cfg);
        let (mut agg, mut scratch) = (NotaryAggregate::new(), ExtractScratch::new());
        for month in study.months() {
            let mut stream = study.generator().stream_month(month);
            while let Some(f) = stream.next_flow() {
                ingest_borrowed(&mut agg, &mut scratch, f.date, f.port, f.client, f.server);
            }
        }
        let metrics = PipelineMetrics::new();
        assert_eq!(study.run_passive_metered(&metrics), agg);
        let (s, hand) = (metrics.snapshot(), scratch.parse_cache_stats());
        assert!(hand.hits > 0 && hand.misses > 0, "{hand:?}");
        assert_eq!(
            (
                s.parse_cache_hits,
                s.parse_cache_misses,
                s.parse_cache_evictions
            ),
            (hand.hits, hand.misses, hand.evictions)
        );
    }

    /// Two studies running at once in one process each report their
    /// own poison flow, and only it, in their own bag.
    #[test]
    fn concurrent_runs_keep_their_flight_reports_apart() {
        let mut cfg = StudyConfig::quick();
        cfg.start = Month::ym(2016, 1);
        cfg.end = Month::ym(2016, 2);
        cfg.connections_per_month = 80;
        cfg.workers = 2;
        let studies = [Study::new(cfg.clone()), Study::new(cfg)];
        let poisons = [(Month::ym(2016, 1), 7), (Month::ym(2016, 2), 31)];
        let bags = [PipelineMetrics::new(), PipelineMetrics::new()];
        std::thread::scope(|s| {
            for ((study, bag), at) in studies.iter().zip(&bags).zip(poisons) {
                s.spawn(move || study.run_months(bag, fold_except(at, true)).unwrap());
            }
        });
        for (bag, (month, index)) in bags.iter().zip(poisons) {
            let reports = bag.reports();
            assert_eq!(
                reports,
                [format!(
                    "flight report: poison flow quarantined (month {month}, flow {index})\n"
                )]
            );
            assert_eq!(bag.snapshot().flows_quarantined, 1);
        }
    }

    /// A fold that panics on every flow costs one replay per month and
    /// quarantines every flow; no month is lost.
    #[test]
    fn fully_poisoned_run_quarantines_every_flow() {
        let mut cfg = StudyConfig::quick();
        cfg.start = Month::ym(2017, 1);
        cfg.end = Month::ym(2017, 3);
        cfg.connections_per_month = 60;
        cfg.workers = 2;
        let metrics = PipelineMetrics::new();
        let agg = Study::new(cfg)
            .run_months(&metrics, |_, _, _, _, _| panic!("always fails"))
            .unwrap();
        assert_eq!(agg, NotaryAggregate::new());
        let s = metrics.snapshot();
        assert_eq!(s.months_replayed, 3);
        assert_eq!(s.flows_quarantined, s.flows_dispatched);
        assert_eq!(s.flows_ingested, 0);
        assert_eq!(s.shards_lost, 0);
        assert!(s.flows_dispatched > 0 && s.accounting_holds());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// A flow that panics the fold costs that flow and nothing
        /// else: at every worker count 1–8 and under every fault
        /// profile, the run equals the same run with the flow skipped,
        /// its month is replayed once, the flow is quarantined and
        /// named in a flight report, and the generation-side counters
        /// match the clean run's.
        #[test]
        fn poison_flow_is_quarantined_alone(
            seed in 0u64..1_000_000,
            n in 40u32..120,
            month_of_year in 1u8..=3,
            draw in 0u64..1_000_000,
        ) {
            let month = Month::ym(2016, month_of_year);
            for faults in [
                FaultInjector::none(),
                FaultInjector::tap_defaults(),
                FaultInjector::stress(),
            ] {
                let mut cfg = StudyConfig::quick();
                cfg.seed = seed;
                cfg.connections_per_month = n;
                cfg.start = Month::ym(2016, 1);
                cfg.end = Month::ym(2016, 3);
                cfg.faults = faults;
                cfg.workers = 1;
                let study = Study::new(cfg.clone());
                let mut stream = study.generator().stream_month(month);
                while stream.next_flow().is_some() {}
                let flows = stream.tally().flows;
                if flows == 0 {
                    continue;
                }
                let at = (month, draw % flows);
                let clean = PipelineMetrics::new();
                study.try_run_passive_metered(&clean).unwrap();
                let skipped = study
                    .run_months(&PipelineMetrics::new(), fold_except(at, false))
                    .unwrap();
                for workers in 1..=8 {
                    cfg.workers = workers;
                    let metrics = PipelineMetrics::new();
                    let poisoned = Study::new(cfg.clone())
                        .run_months(&metrics, fold_except(at, true))
                        .unwrap();
                    prop_assert_eq!(&poisoned, &skipped, "workers={} {:?}", workers, faults);
                    let s = metrics.snapshot();
                    prop_assert!(s.accounting_holds());
                    prop_assert_eq!(s.flows_quarantined, 1);
                    prop_assert_eq!(s.months_replayed, 1);
                    prop_assert_eq!(s.shards_lost, 0);
                    prop_assert_eq!(generation_ledger(&s), generation_ledger(&clean.snapshot()));
                    let named = format!("month {}, flow {}", at.0, at.1);
                    let reports = metrics.reports();
                    prop_assert!(reports.iter().any(|r| r.contains(&named)), "{:?}", reports);
                }
            }
        }
    }
}
