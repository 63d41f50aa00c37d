//! Scan scheduling: the Censys observation window.
//!
//! "Censys scans are available starting from August 22nd 2015; in our
//! paper we use the data till May 13 2018" (§3.2), with weekly IPv4
//! sweeps. [`ScanCampaign`] runs the sweeps over that window, under
//! the campaign's [`ScanFaults`] profile, and survives worker death:
//! a dead campaign worker forfeits only its unfinished dates, which
//! are re-swept inline after the survivors drain the queue.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use tlscope_chron::Date;
use tlscope_durable::StoreError;
use tlscope_obs::Progress;
use tlscope_servers::ServerPopulation;

use crate::checkpoint::{self, DateCheckpoint};
use crate::faults::ScanFaults;
use crate::metrics::ScanMetrics;
use crate::sweep::{quiet_thread_panics, sweep_faulted, sweep_sharded_with, ScanSnapshot};

/// First Censys scan used by the paper.
pub const CENSYS_START: Date = Date::ymd(2015, 8, 22);
/// Last Censys scan used by the paper.
pub const CENSYS_END: Date = Date::ymd(2018, 5, 13);

/// Dates spaced `interval_days` apart across `[start, end]`.
pub fn schedule(start: Date, end: Date, interval_days: i64) -> Vec<Date> {
    assert!(interval_days > 0);
    let mut out = Vec::new();
    let mut d = start;
    while d <= end {
        out.push(d);
        d = d.add_days(interval_days);
    }
    out
}

/// A scan campaign: periodic sweeps over a window.
#[derive(Debug, Clone)]
pub struct ScanCampaign {
    /// Sweep dates.
    pub dates: Vec<Date>,
    /// Hosts sampled per sweep.
    pub hosts_per_sweep: u32,
    /// RNG seed.
    pub seed: u64,
    /// Fault profile every sweep runs under.
    pub faults: ScanFaults,
}

impl ScanCampaign {
    /// The paper's Censys window at weekly cadence, fault-free.
    pub fn censys_weekly(hosts_per_sweep: u32, seed: u64) -> Self {
        ScanCampaign {
            dates: schedule(CENSYS_START, CENSYS_END, 7),
            hosts_per_sweep,
            seed,
            faults: ScanFaults::none(),
        }
    }

    /// A sparser monthly variant for quick runs, fault-free.
    pub fn censys_monthly(hosts_per_sweep: u32, seed: u64) -> Self {
        ScanCampaign {
            dates: schedule(CENSYS_START, CENSYS_END, 30),
            hosts_per_sweep,
            seed,
            faults: ScanFaults::none(),
        }
    }

    /// The same campaign under a different fault profile.
    pub fn with_faults(mut self, faults: ScanFaults) -> Self {
        self.faults = faults;
        self
    }

    /// Run every sweep.
    pub fn run(&self, population: &ServerPopulation) -> Vec<ScanSnapshot> {
        self.dates
            .iter()
            .map(|d| {
                sweep_faulted(
                    population,
                    *d,
                    self.hosts_per_sweep,
                    self.seed,
                    &self.faults,
                )
            })
            .collect()
    }

    /// Run every sweep across `workers` threads, recording scan
    /// accounting into `metrics`.
    ///
    /// Whole sweep dates are claimed from an atomic work index — the
    /// same distribution as the passive pipeline's metered run — so a
    /// long campaign parallelises across its dates rather than inside
    /// each sweep. Host sampling and fault draws are counter-based per
    /// `(seed, date, host index)`, so every sweep (and therefore the
    /// whole campaign) is bit-identical to [`ScanCampaign::run`] at
    /// any worker count, and snapshots come back in date order
    /// regardless of which worker finished first.
    ///
    /// A campaign worker that dies forfeits only the dates it had not
    /// finished: survivors keep draining the queue, and any date left
    /// unswept is re-swept inline afterwards. Counter-based sampling
    /// makes the recovery sweep bit-identical to the one that was
    /// lost, so the returned snapshots match a clean run exactly; the
    /// loss shows up in `metrics` (`workers_lost`, and any accounting
    /// the dead worker had already committed), never in the data.
    pub fn run_parallel(
        &self,
        population: &ServerPopulation,
        workers: usize,
        metrics: &ScanMetrics,
    ) -> Vec<ScanSnapshot> {
        self.run_durable(population, workers, metrics, None)
            .unwrap_or_else(|e| unreachable!("no checkpoint dir, no checkpoint IO: {e}"))
    }

    /// [`ScanCampaign::run_parallel`] with durable checkpoint/resume.
    ///
    /// With `checkpoint_dir` set, every completed date's
    /// [`ScanSnapshot`] and per-date accounting ledger are persisted to
    /// `<dir>/<YYYY-MM-DD>.ckpt` (atomic tmp+rename, checksummed — see
    /// [`crate::checkpoint`]), and dates already present in the store
    /// are *skipped*: their snapshots fill the series directly and
    /// their ledgers are replayed into `metrics`
    /// ([`ScanMetrics::absorb`]), so a resumed campaign returns
    /// snapshots and totals bit-identical to an uninterrupted run — at
    /// any worker count, under any fault profile. Damaged checkpoint
    /// files are quarantined (`*.ckpt.bad`, counted in
    /// `checkpoints_quarantined`) and their dates re-swept.
    ///
    /// Only filesystem failures abort the campaign, and they surface
    /// as [`StoreError::Io`] after in-flight workers drain;
    /// every date swept before the failure keeps its checkpoint, so a
    /// rerun loses nothing.
    pub fn run_durable(
        &self,
        population: &ServerPopulation,
        workers: usize,
        metrics: &ScanMetrics,
        checkpoint_dir: Option<&Path>,
    ) -> Result<Vec<ScanSnapshot>, StoreError> {
        let mut ordered: Vec<Option<ScanSnapshot>> = vec![None; self.dates.len()];
        // Resume: adopt completed dates from the store. Snapshots fill
        // their slots; stored ledgers replay into the campaign bag so
        // totals match an uninterrupted run exactly.
        if let Some(dir) = checkpoint_dir {
            let load_started = Instant::now();
            let mut store = checkpoint::load_dir(dir)?;
            metrics.observe_checkpoint_load(load_started.elapsed());
            let mut loaded = 0u64;
            for (idx, date) in self.dates.iter().enumerate() {
                if ordered[idx].is_none() {
                    if let Some(ckpt) = store.completed.remove(date) {
                        metrics.absorb(&ckpt.ledger);
                        ordered[idx] = Some(ckpt.snapshot);
                        loaded += 1;
                    }
                }
            }
            metrics.record_checkpoints_loaded(loaded);
            metrics.record_checkpoints_quarantined(store.quarantined.len() as u64);
        }

        // Live-progress state: dates already adopted from checkpoints
        // count as done, and every completed sweep ticks the counter.
        // Purely observational — the heartbeat thread only reads it.
        let dates_done = AtomicU64::new(ordered.iter().filter(|s| s.is_some()).count() as u64);
        let progress =
            Progress::from_env("scan-campaign", self.dates.len() as u64, "dates", "hosts");

        // One date, end to end: sweep into a fresh per-date bag,
        // persist (snapshot + ledger) if checkpointing, then fold the
        // ledger into the campaign bag. The per-date bag is what makes
        // the stored ledger lossless — and since all counters are
        // additive, campaign totals are unchanged by the indirection.
        // Latency histograms are merged separately: the stored ledger
        // never carries timing, so resume replays counters only.
        let sweep_date = |date: Date, faults: &ScanFaults| -> Result<ScanSnapshot, StoreError> {
            let date_metrics = ScanMetrics::new();
            let snapshot = sweep_sharded_with(
                population,
                date,
                self.hosts_per_sweep,
                self.seed,
                1,
                &date_metrics,
                faults,
            );
            let ledger = date_metrics.snapshot();
            metrics.absorb(&ledger);
            metrics.merge_latency_from(&date_metrics);
            if let Some(dir) = checkpoint_dir {
                let write_started = Instant::now();
                checkpoint::write_date(
                    dir,
                    &DateCheckpoint {
                        snapshot: snapshot.clone(),
                        ledger,
                    },
                )?;
                metrics.observe_checkpoint_write(write_started.elapsed());
                metrics.record_checkpoint_written();
            }
            dates_done.fetch_add(1, Ordering::Relaxed);
            Ok(snapshot)
        };

        let pending: Vec<usize> = ordered
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_none())
            .map(|(idx, _)| idx)
            .collect();
        let workers = workers.max(1).min(pending.len().max(1));

        // The opt-in heartbeat ticks on its own scoped thread for the
        // whole remaining campaign (sweeps, survivor-merge, recovery);
        // when disabled no thread is spawned at all.
        let stop_heartbeat = AtomicBool::new(false);
        let result = std::thread::scope(|heartbeat_scope| {
            if progress.is_enabled() {
                heartbeat_scope.spawn(|| {
                    progress.run_ticker(&stop_heartbeat, || {
                        (
                            dates_done.load(Ordering::Relaxed),
                            metrics.snapshot().hosts_probed,
                        )
                    })
                });
            }
            let result =
                self.run_pending_dates(workers, &pending, &mut ordered, metrics, &sweep_date);
            stop_heartbeat.store(true, Ordering::Release);
            result
        });
        result?;
        Ok(ordered
            .into_iter()
            .map(|s| s.expect("all slots filled"))
            .collect())
    }

    /// Sweep every index in `pending` into its `ordered` slot via
    /// `sweep_date`: inline when `workers <= 1`, otherwise across a
    /// worker scope with survivor-merge and an inline recovery pass
    /// for dates lost to dead workers.
    fn run_pending_dates(
        &self,
        workers: usize,
        pending: &[usize],
        ordered: &mut [Option<ScanSnapshot>],
        metrics: &ScanMetrics,
        sweep_date: &(impl Fn(Date, &ScanFaults) -> Result<ScanSnapshot, StoreError> + Sync),
    ) -> Result<(), StoreError> {
        if workers <= 1 {
            for &idx in pending {
                ordered[idx] = Some(sweep_date(self.dates[idx], &self.faults)?);
            }
            return Ok(());
        }

        let next = AtomicUsize::new(0);
        // First checkpoint-write failure; workers stop claiming dates
        // once it is set and the error surfaces after the scope joins.
        let ckpt_error: Mutex<Option<StoreError>> = Mutex::new(None);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut done = Vec::new();
                        loop {
                            if ckpt_error
                                .lock()
                                .unwrap_or_else(|p| p.into_inner())
                                .is_some()
                            {
                                break;
                            }
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(&idx) = pending.get(i) else {
                                break;
                            };
                            let date = self.dates[idx];
                            if self.faults.panic_on_date == Some(date) {
                                // Campaign-level failpoint: this worker
                                // dies before sweeping, losing the date
                                // and anything still in its `done` pile.
                                quiet_thread_panics(true);
                                panic!("scan fault failpoint: date {date}");
                            }
                            match sweep_date(date, &self.faults) {
                                Ok(snap) => done.push((idx, snap)),
                                Err(e) => {
                                    let mut guard =
                                        ckpt_error.lock().unwrap_or_else(|p| p.into_inner());
                                    guard.get_or_insert(e);
                                    break;
                                }
                            }
                        }
                        done
                    })
                })
                .collect();
            for h in handles {
                // Survivor-merge: a dead worker costs its unreturned
                // dates (recovered below), never the campaign.
                match h.join() {
                    Ok(done) => {
                        for (idx, snap) in done {
                            ordered[idx] = Some(snap);
                        }
                    }
                    Err(_) => metrics.record_worker_lost(),
                }
            }
        });
        if let Some(e) = ckpt_error.into_inner().unwrap_or_else(|p| p.into_inner()) {
            return Err(e);
        }
        // Recovery pass: re-sweep any date a dead worker left behind.
        // The failpoint is cleared so recovery cannot re-trip it; the
        // fault *profile* stays, so the recovered snapshot is exactly
        // the one the lost worker would have produced (counter-based
        // sampling). Recovered dates are checkpointed like any other.
        let mut recovery = self.faults;
        recovery.panic_on_date = None;
        for (idx, slot) in ordered.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(sweep_date(self.dates[idx], &recovery)?);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weekly_schedule_covers_window() {
        let dates = schedule(CENSYS_START, CENSYS_END, 7);
        // 32 months of weekly scans ≈ 142 sweeps.
        assert!(dates.len() >= 140 && dates.len() <= 145, "{}", dates.len());
        assert_eq!(dates[0], CENSYS_START);
        assert!(*dates.last().unwrap() <= CENSYS_END);
        for w in dates.windows(2) {
            assert_eq!(w[1] - w[0], 7);
        }
    }

    #[test]
    fn campaign_runs_in_order() {
        let campaign = ScanCampaign {
            dates: schedule(Date::ymd(2016, 1, 1), Date::ymd(2016, 3, 1), 30),
            hosts_per_sweep: 200,
            seed: 5,
            faults: ScanFaults::none(),
        };
        let snaps = campaign.run(&ServerPopulation::new());
        assert_eq!(snaps.len(), 3);
        assert!(snaps.windows(2).all(|w| w[0].date < w[1].date));
        assert!(snaps.iter().all(|s| s.hosts == 200));
    }

    #[test]
    fn parallel_campaign_matches_serial() {
        let campaign = ScanCampaign {
            dates: schedule(Date::ymd(2016, 1, 1), Date::ymd(2016, 6, 1), 30),
            hosts_per_sweep: 300,
            seed: 17,
            faults: ScanFaults::none(),
        };
        let pop = ServerPopulation::new();
        let serial = campaign.run(&pop);
        for workers in [1usize, 2, 5, 8] {
            let metrics = ScanMetrics::new();
            let parallel = campaign.run_parallel(&pop, workers, &metrics);
            assert_eq!(serial, parallel, "workers = {workers}");
            let s = metrics.snapshot();
            assert!(s.accounting_holds(), "{s:?}");
            assert_eq!(s.hosts_probed, 300 * campaign.dates.len() as u64);
            assert_eq!(s.sweeps_completed, campaign.dates.len() as u64);
        }
    }

    #[test]
    fn faulted_campaign_matches_serial_and_accounts_loss() {
        let campaign = ScanCampaign {
            dates: schedule(Date::ymd(2016, 1, 1), Date::ymd(2016, 6, 1), 30),
            hosts_per_sweep: 600,
            seed: 23,
            faults: ScanFaults::stress(),
        };
        let pop = ServerPopulation::new();
        let serial = campaign.run(&pop);
        for workers in [1usize, 3, 6] {
            let metrics = ScanMetrics::new();
            let parallel = campaign.run_parallel(&pop, workers, &metrics);
            assert_eq!(serial, parallel, "workers = {workers}");
            let s = metrics.snapshot();
            assert!(s.accounting_holds(), "{s:?}");
            assert!(s.hosts_dropped > 0, "{s:?}");
            assert!(s.probes_timed_out > 0, "{s:?}");
        }
    }

    #[test]
    fn killed_campaign_worker_recovers_every_date() {
        let dates = schedule(Date::ymd(2016, 1, 1), Date::ymd(2016, 6, 1), 30);
        let killed = dates[2];
        let clean = ScanCampaign {
            dates: dates.clone(),
            hosts_per_sweep: 300,
            seed: 17,
            faults: ScanFaults::none(),
        };
        let campaign = clean.clone().with_faults(ScanFaults {
            panic_on_date: Some(killed),
            ..ScanFaults::none()
        });
        let pop = ServerPopulation::new();
        let expected = clean.run(&pop);
        for workers in [2usize, 4] {
            let metrics = ScanMetrics::new();
            let snaps = campaign.run_parallel(&pop, workers, &metrics);
            // Degraded, not panicked — and the recovery sweep restores
            // the killed date bit-for-bit.
            assert_eq!(snaps, expected, "workers = {workers}");
            let s = metrics.snapshot();
            assert!(s.workers_lost >= 1, "{s:?}");
            assert!(s.accounting_holds(), "{s:?}");
        }
    }

    #[test]
    fn single_day_schedule() {
        let d = Date::ymd(2017, 1, 1);
        assert_eq!(schedule(d, d, 7), vec![d]);
    }

    fn unique_dir(tag: &str) -> std::path::PathBuf {
        let pid = std::process::id();
        let t = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos();
        std::env::temp_dir().join(format!("tlscope-campaign-{tag}-{pid}-{t}"))
    }

    /// Counters that must survive interrupt/resume exactly (everything
    /// but the wall-clock and the per-run checkpoint counters).
    fn ledger_core(s: &crate::metrics::ScanMetricsSnapshot) -> [u64; 9] {
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

    #[test]
    fn resumed_campaign_is_bit_identical() {
        let campaign = ScanCampaign {
            dates: schedule(Date::ymd(2016, 1, 1), Date::ymd(2016, 6, 1), 30),
            hosts_per_sweep: 300,
            seed: 17,
            faults: ScanFaults::stress(),
        };
        let pop = ServerPopulation::new();
        let clean_metrics = ScanMetrics::new();
        let expected = campaign.run_parallel(&pop, 2, &clean_metrics);

        // "Interrupt" after three dates: a first run over the prefix
        // leaves exactly their checkpoints behind.
        let dir = unique_dir("resume");
        let prefix = ScanCampaign {
            dates: campaign.dates[..3].to_vec(),
            ..campaign.clone()
        };
        prefix
            .run_durable(&pop, 2, &ScanMetrics::new(), Some(&dir))
            .unwrap();

        let resumed = ScanMetrics::new();
        let snaps = campaign.run_durable(&pop, 3, &resumed, Some(&dir)).unwrap();
        assert_eq!(snaps, expected, "resume must be bit-identical");
        let s = resumed.snapshot();
        assert_eq!(s.checkpoints_loaded, 3);
        assert_eq!(s.checkpoints_quarantined, 0);
        assert_eq!(s.checkpoints_written, (campaign.dates.len() - 3) as u64);
        assert!(s.accounting_holds(), "{s:?}");
        // Replayed ledgers restore the uninterrupted totals exactly.
        assert_eq!(ledger_core(&s), ledger_core(&clean_metrics.snapshot()));

        // A second resume finds every date done: nothing re-swept,
        // totals still exact.
        let warm = ScanMetrics::new();
        let again = campaign.run_durable(&pop, 2, &warm, Some(&dir)).unwrap();
        assert_eq!(again, expected);
        let w = warm.snapshot();
        assert_eq!(w.checkpoints_loaded, campaign.dates.len() as u64);
        assert_eq!(w.checkpoints_written, 0);
        assert_eq!(ledger_core(&w), ledger_core(&clean_metrics.snapshot()));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_io_errors_surface_as_errors() {
        // A plain file where the checkpoint directory should be makes
        // every store operation fail — surfaced, not panicked.
        let dir = unique_dir("io-error");
        std::fs::write(&dir, b"not a directory").unwrap();
        let campaign = ScanCampaign {
            dates: schedule(Date::ymd(2016, 1, 1), Date::ymd(2016, 3, 1), 30),
            hosts_per_sweep: 100,
            seed: 3,
            faults: ScanFaults::none(),
        };
        let err = campaign
            .run_durable(&ServerPopulation::new(), 2, &ScanMetrics::new(), Some(&dir))
            .unwrap_err();
        assert!(matches!(err, StoreError::Io(..)), "{err}");
        std::fs::remove_file(&dir).unwrap();
    }
}
