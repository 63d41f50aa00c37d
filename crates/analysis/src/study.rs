//! Study orchestration: run the passive and active measurements over
//! the paper's observation windows.
//!
//! The passive measurement uses a *fused* streaming runner: the
//! observation window is sharded by month across worker threads, and
//! each worker generates its month's flows and aggregates them in the
//! same loop — no month is ever materialized. Partial aggregates are
//! merged at the end (aggregation is commutative, so the result is
//! identical to a serial run), and every stage reports into a shared
//! [`PipelineMetrics`]. The panic boundary sits on the month: a month
//! whose fold panics is replayed flow by flow and only the poison flow
//! is quarantined.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use tlscope_durable::{install_quiet_panic_hook, quiet_thread_panics};
use tlscope_obs::Progress;

use tlscope_chron::Month;
use tlscope_notary::{
    checkpoint, flush_parse_cache_metrics, ingest_borrowed, CheckpointError, NotaryAggregate,
    PipelineMetrics,
};
use tlscope_scanner::{ScanCampaign, ScanCheckpointError, ScanFaults, ScanMetrics, ScanSnapshot};
use tlscope_servers::ServerPopulation;
use tlscope_traffic::generator::FlowRef;
use tlscope_traffic::{FaultInjector, Generator, TrafficConfig};

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
    /// Ingestion worker threads (1 = serial).
    pub workers: usize,
    /// Tap fault injection.
    pub faults: FaultInjector,
    /// Hosts per active sweep.
    pub scan_hosts: u32,
    /// Scan-side fault injection (SYN loss, flakes, timeouts, dead
    /// hosts). Defaults to [`ScanFaults::none`] unless
    /// `TLSCOPE_SCAN_FAULT_PROFILE` names a profile, so calibration
    /// anchors see a loss-free scanner out of the box.
    pub scan_faults: ScanFaults,
    /// When set, each completed month's partial aggregate is written
    /// to this directory, and months already checkpointed there are
    /// loaded instead of re-simulated (`repro --resume <dir>`).
    pub checkpoint_dir: Option<PathBuf>,
    /// When set, each completed campaign date's snapshot + ledger is
    /// written to this directory, and dates already checkpointed there
    /// are loaded instead of re-swept (`repro --resume-scan <dir>`).
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
            workers: 4,
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
    /// folds them into a *fresh per-month partial* as they are drawn,
    /// so peak memory stays at one event per worker and a completed
    /// month is a self-contained unit of progress. With
    /// `cfg.checkpoint_dir` set, each completed partial is written
    /// atomically to `<dir>/<YYYY-MM>.ckpt` before being merged, and
    /// months already checkpointed in the directory are loaded and
    /// skipped — so an interrupted run resumes from the last completed
    /// month and, because merging is commutative and integer-exact,
    /// produces a final aggregate bit-identical to an uninterrupted
    /// one.
    ///
    /// Each month is folded behind a panic boundary. A month that
    /// panics is replayed flow by flow (it is pure in `(seed, month)`),
    /// the flow that panics alone is quarantined, and the month then
    /// commits as usual. A panic outside that boundary kills its
    /// worker; the months that worker had merged are counted in
    /// `shards_lost`, and every other month is still merged and
    /// returned.
    pub fn try_run_passive_metered(
        &self,
        metrics: &PipelineMetrics,
    ) -> Result<NotaryAggregate, CheckpointError> {
        self.run_months(metrics, |agg, _, _, flow| {
            ingest_borrowed(agg, flow.date, flow.port, flow.client, flow.server)
        })
    }

    /// The month-sharded runner behind [`Study::try_run_passive_metered`],
    /// generic over the per-flow fold `(partial, month, flow index,
    /// flow)` so tests can inject a fold that panics.
    fn run_months<F>(
        &self,
        metrics: &PipelineMetrics,
        fold: F,
    ) -> Result<NotaryAggregate, CheckpointError>
    where
        F: Fn(&mut NotaryAggregate, Month, u64, FlowRef<'_>) + Sync,
    {
        let (mut result, completed) = match &self.cfg.checkpoint_dir {
            Some(dir) => {
                let load_started = Instant::now();
                let load = checkpoint::load_dir(dir)?;
                metrics.observe_checkpoint_load(load_started.elapsed());
                metrics.record_checkpoints_loaded(load.completed.len() as u64);
                metrics.record_checkpoints_quarantined(load.quarantined.len() as u64);
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
        let months_done = AtomicU64::new(total_months - months.len() as u64);
        let progress = Progress::from_env("passive-study", total_months, "months", "flows");
        let workers = self.cfg.workers.max(1).min(months.len().max(1));
        let next = AtomicUsize::new(0);
        // First checkpoint write error, reported after the scope ends
        // (workers stop claiming months once one is recorded).
        let ckpt_error: Mutex<Option<CheckpointError>> = Mutex::new(None);
        let stop_heartbeat = AtomicBool::new(false);
        // Months merged into a surviving worker's aggregate; every
        // other month was lost to a panic.
        let mut months_merged = 0u64;
        install_quiet_panic_hook();
        std::thread::scope(|scope| {
            if progress.is_enabled() {
                scope.spawn(|| {
                    progress.run_ticker(&stop_heartbeat, || {
                        (
                            months_done.load(Ordering::Relaxed),
                            metrics.snapshot().flows_ingested,
                        )
                    })
                });
            }
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut agg = NotaryAggregate::new();
                        let mut committed = 0u64;
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(&month) = months.get(i) else { break };
                            if ckpt_error
                                .lock()
                                .unwrap_or_else(|p| p.into_inner())
                                .is_some()
                            {
                                break;
                            }
                            let month_started = Instant::now();
                            let (partial, month_metrics) =
                                self.fold_month_supervised(month, &fold, metrics);
                            if let Some(dir) = &self.cfg.checkpoint_dir {
                                let write_started = Instant::now();
                                if let Err(e) = checkpoint::write_month(dir, month, &partial) {
                                    ckpt_error
                                        .lock()
                                        .unwrap_or_else(|p| p.into_inner())
                                        .get_or_insert(e);
                                    break;
                                }
                                metrics.observe_checkpoint_write(write_started.elapsed());
                                metrics.record_checkpoint_written();
                            }
                            metrics.record_month(month_started.elapsed());
                            metrics.absorb(&month_metrics);
                            months_done.fetch_add(1, Ordering::Relaxed);
                            agg.merge(partial);
                            committed += 1;
                        }
                        (agg, committed)
                    })
                })
                .collect();
            for h in handles {
                // A worker that died outside the month boundary takes
                // its merged months with it; they count as lost below.
                if let Ok((partial, committed)) = h.join() {
                    let started = Instant::now();
                    result.merge(partial);
                    metrics.record_merge(started.elapsed());
                    months_merged += committed;
                }
            }
            stop_heartbeat.store(true, Ordering::Release);
        });
        match ckpt_error.into_inner().unwrap_or_else(|p| p.into_inner()) {
            Some(e) => Err(e),
            None => {
                metrics.record_shards_lost(months.len() as u64 - months_merged);
                Ok(result)
            }
        }
    }

    /// Fold `month` into a fresh partial behind a panic boundary, so a
    /// fold panic never reaches the worker's accumulated aggregate.
    ///
    /// On a panic the attempt is discarded and the month replayed: each
    /// flow is folded into a one-flow partial behind its own boundary,
    /// survivors are merged, and a flow that panics alone is
    /// quarantined by `(month, flow index)`. Counters go to a
    /// month-local bag that the caller absorbs on commit, so the
    /// discarded attempt is never counted.
    fn fold_month_supervised<F>(
        &self,
        month: Month,
        fold: &F,
        metrics: &PipelineMetrics,
    ) -> (NotaryAggregate, PipelineMetrics)
    where
        F: Fn(&mut NotaryAggregate, Month, u64, FlowRef<'_>),
    {
        let first = PipelineMetrics::new();
        quiet_thread_panics(true);
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            self.fold_month(month, &first, |partial, index, flow| {
                fold(partial, month, index, flow);
                true
            })
        }));
        quiet_thread_panics(false);
        // Parse-cache deltas go to the attempt's own bag, kept or not.
        flush_parse_cache_metrics(&first);
        if let Ok(partial) = attempt {
            return (partial, first);
        }
        metrics.record_month_replayed();
        let replay = PipelineMetrics::new();
        let partial = self.fold_month(month, &replay, |partial, index, flow| {
            quiet_thread_panics(true);
            let one = catch_unwind(AssertUnwindSafe(|| {
                let mut one = NotaryAggregate::new();
                fold(&mut one, month, index, flow);
                one
            }));
            quiet_thread_panics(false);
            match one {
                Ok(one) => {
                    partial.merge(one);
                    true
                }
                Err(_) => {
                    replay.record_quarantined(1);
                    tlscope_obs::flight::report(&format!(
                        "poison flow quarantined (month {month}, flow {index})"
                    ));
                    false
                }
            }
        });
        flush_parse_cache_metrics(&replay);
        (partial, replay)
    }

    /// Stream `month` into a fresh partial, metering generation and
    /// ingestion into `metrics`. `fold` reports whether it ingested the
    /// flow (`false`: quarantined).
    fn fold_month(
        &self,
        month: Month,
        metrics: &PipelineMetrics,
        mut fold: impl FnMut(&mut NotaryAggregate, u64, FlowRef<'_>) -> bool,
    ) -> NotaryAggregate {
        let mut partial = NotaryAggregate::new();
        let (mut dispatched, mut ingested) = (0u64, 0u64);
        let mut ingest_time = Duration::ZERO;
        // Borrowed fast path: fold straight from the generator's
        // scratch buffers into the aggregate — no flow buffer is ever
        // owned.
        let mut stream = self.generator.stream_month(month).metered(metrics);
        while let Some(flow) = stream.next_flow() {
            let started = Instant::now();
            ingested += u64::from(fold(&mut partial, dispatched, flow));
            ingest_time += started.elapsed();
            dispatched += 1;
        }
        metrics.record_dispatched(dispatched);
        // One month shard = one accounting batch.
        metrics.record_batch(ingested, ingest_time);
        metrics.record_parse_failures(partial.not_tls, partial.garbled_client);
        metrics.record_salvaged(partial.salvaged);
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
    /// `*.ckpt.bad` and their dates re-swept.
    pub fn try_run_active_metered(
        &self,
        metrics: &ScanMetrics,
    ) -> Result<Vec<ScanSnapshot>, ScanCheckpointError> {
        ScanCampaign::censys_monthly(self.cfg.scan_hosts, self.cfg.seed)
            .with_faults(self.cfg.scan_faults)
            .run_durable(
                &self.population,
                self.cfg.workers,
                metrics,
                self.cfg.scan_checkpoint_dir.as_deref(),
            )
    }

    /// Run the active campaign at the paper's weekly cadence.
    pub fn run_active_weekly(&self) -> Vec<ScanSnapshot> {
        ScanCampaign::censys_weekly(self.cfg.scan_hosts, self.cfg.seed)
            .with_faults(self.cfg.scan_faults)
            .run_parallel(&self.population, self.cfg.workers, &ScanMetrics::new())
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
        // One accounting batch per month shard.
        assert_eq!(s.batches_ingested, 3);
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
    ) -> impl Fn(&mut NotaryAggregate, Month, u64, FlowRef<'_>) + Sync {
        move |agg: &mut NotaryAggregate, month: Month, index: u64, flow: FlowRef<'_>| {
            if (month, index) != at {
                ingest_borrowed(agg, flow.date, flow.port, flow.client, flow.server);
            } else if poison {
                panic!("poison flow {index} of {month}");
            }
        }
    }

    /// The generation-side counters a replayed month must commit
    /// exactly once.
    fn generation_ledger(s: &MetricsSnapshot) -> [u64; 5] {
        [
            s.flows_generated,
            s.bytes_generated,
            s.flows_outage_dropped,
            s.flows_duplicated,
            s.flows_dispatched,
        ]
    }

    /// Serialises the tests that file flight reports: the black box is
    /// process-wide, and the poison property drains it.
    static FLIGHT_BOX: Mutex<()> = Mutex::new(());

    /// A fold that panics on every flow costs one replay per month and
    /// quarantines every flow; no month is lost.
    #[test]
    fn fully_poisoned_run_quarantines_every_flow() {
        let _flight_box = FLIGHT_BOX.lock().unwrap_or_else(|p| p.into_inner());
        let mut cfg = StudyConfig::quick();
        cfg.start = Month::ym(2017, 1);
        cfg.end = Month::ym(2017, 3);
        cfg.connections_per_month = 60;
        cfg.workers = 2;
        let metrics = PipelineMetrics::new();
        let agg = Study::new(cfg)
            .run_months(&metrics, |_, _, _, _| panic!("always fails"))
            .unwrap();
        tlscope_obs::flight::drain_reports();
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
            let _flight_box = FLIGHT_BOX.lock().unwrap_or_else(|p| p.into_inner());
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
                let flows = study.generator().stream_month(month).count() as u64;
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
                    let reports = tlscope_obs::flight::drain_reports();
                    prop_assert!(reports.iter().any(|r| r.contains(&named)), "{:?}", reports);
                }
            }
        }
    }
}
