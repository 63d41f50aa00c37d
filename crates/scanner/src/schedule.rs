//! Scan scheduling: the Censys observation window.
//!
//! "Censys scans are available starting from August 22nd 2015; in our
//! paper we use the data till May 13 2018" (§3.2), with weekly IPv4
//! sweeps. [`ScanCampaign`] runs the sweeps over that window, under
//! the campaign's [`ScanFaults`] profile, one sweep date per unit of
//! the runner the passive study shares ([`run_units`]). The date is
//! the panic boundary: a host that panics costs that host, not the
//! date, and a date lost with its worker is missing from the series
//! and counted in `workers_lost`.

use std::path::Path;
use std::time::Instant;

use tlscope_chron::Date;
use tlscope_durable::{run_units, StoreError};
use tlscope_obs::Progress;
use tlscope_servers::ServerPopulation;

use crate::checkpoint::{self, DateCheckpoint};
use crate::faults::ScanFaults;
use crate::metrics::{ScanMetrics, ScanMetricsSnapshot};
use crate::sweep::{sweep_sharded_with, ScanSnapshot};

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

    /// Run every sweep on one worker: [`ScanCampaign::run_parallel`]
    /// with its accounting discarded.
    pub fn run(&self, population: &ServerPopulation) -> Vec<ScanSnapshot> {
        self.run_parallel(population, 1, &ScanMetrics::new())
    }

    /// Run every sweep across `workers` threads, recording scan
    /// accounting into `metrics`.
    ///
    /// Each sweep date is one unit of [`run_units`], the runner the
    /// passive study's months go through: workers claim whole dates,
    /// so a long campaign parallelises across its dates rather than
    /// inside each sweep. Host sampling and fault draws are
    /// counter-based per `(seed, date, host index)`, so every sweep
    /// (and therefore the whole campaign) is bit-identical at any
    /// worker count, and snapshots come back in date order regardless
    /// of which worker finished first.
    ///
    /// The date is the panic boundary ([`sweep_sharded_with`]): a host
    /// that panics costs that host, counted as dispatched and dropped.
    /// A date lost outside the boundary (its worker died) is missing
    /// from the series and counted in `workers_lost`, so a campaign
    /// that returns with no worker lost has dispatched
    /// `hosts_per_sweep` hosts on every date.
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
    /// are loaded on the same `workers` and *skipped*: their snapshots fill the series directly and
    /// their ledgers are replayed into `metrics`
    /// ([`ScanMetrics::add`]), so a resumed campaign returns
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
        let mut series: Vec<Option<ScanSnapshot>> = vec![None; self.dates.len()];
        // Resume: adopt completed dates from the store. Snapshots fill
        // their slots; stored ledgers replay into the campaign bag so
        // totals match an uninterrupted run exactly.
        if let Some(dir) = checkpoint_dir {
            let load_started = Instant::now();
            let mut store = checkpoint::load_dir_on(dir, workers)?;
            metrics.checkpoint_load.record(load_started.elapsed());
            // A stored ledger's checkpoint counters are zero, so the
            // replayed sum counts this run's loads alone.
            let mut replayed = ScanMetricsSnapshot {
                checkpoints_quarantined: store.quarantined.len() as u64,
                ..Default::default()
            };
            for (slot, date) in series.iter_mut().zip(&self.dates) {
                if let Some(ckpt) = store.completed.remove(date) {
                    replayed += ckpt.ledger;
                    replayed.checkpoints_loaded += 1;
                    *slot = Some(ckpt.snapshot);
                }
            }
            metrics.add(&replayed);
        }
        let pending: Vec<usize> = (0..series.len()).filter(|&i| series[i].is_none()).collect();
        let progress =
            Progress::from_env("scan-campaign", self.dates.len() as u64, "dates", "hosts");

        // One date, end to end: sweep into a fresh per-date bag,
        // persist (snapshot + ledger) if checkpointing, then absorb the
        // bag into the campaign's. The per-date bag is what makes the
        // stored ledger lossless — and since all counters are additive,
        // campaign totals are unchanged by the indirection. The stored
        // ledger never carries timing, so resume replays counters only.
        let ran = run_units(
            pending.len(),
            workers,
            &progress,
            || metrics.snapshot().hosts_probed,
            |i| {
                let date = self.dates[pending[i]];
                let date_metrics = ScanMetrics::new();
                let snapshot = sweep_sharded_with(
                    population,
                    date,
                    self.hosts_per_sweep,
                    self.seed,
                    1,
                    &date_metrics,
                    &self.faults,
                );
                if let Some(dir) = checkpoint_dir {
                    let write_started = Instant::now();
                    checkpoint::write_date(
                        dir,
                        &DateCheckpoint {
                            snapshot: snapshot.clone(),
                            ledger: date_metrics.snapshot(),
                        },
                    )?;
                    metrics.checkpoint_write.record(write_started.elapsed());
                    metrics.add(&ScanMetricsSnapshot {
                        checkpoints_written: 1,
                        ..Default::default()
                    });
                }
                metrics.absorb(&date_metrics);
                Ok(snapshot)
            },
            |done: &mut Vec<(usize, ScanSnapshot)>, i, snapshot| done.push((pending[i], snapshot)),
        )?;
        metrics.add(&ScanMetricsSnapshot {
            workers_lost: ran.workers_lost as u64,
            ..Default::default()
        });
        for (slot, snapshot) in ran.parts.into_iter().flatten() {
            series[slot] = Some(snapshot);
        }
        Ok(series.into_iter().flatten().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The campaign swept by hand, one date at a time.
    fn by_hand(campaign: &ScanCampaign, pop: &ServerPopulation) -> Vec<ScanSnapshot> {
        let (hosts, seed) = (campaign.hosts_per_sweep, campaign.seed);
        campaign
            .dates
            .iter()
            .map(|&date| {
                let metrics = ScanMetrics::new();
                sweep_sharded_with(pop, date, hosts, seed, 1, &metrics, &campaign.faults)
            })
            .collect()
    }

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
        let serial = by_hand(&campaign, &pop);
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
        let serial = by_hand(&campaign, &pop);
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
