//! Scan accounting: lock-free counters for the active-scan engine.
//!
//! The Censys pipeline the paper rides on (§3.2) ran IPv4-wide sweeps
//! weekly for almost three years; at that scale the only way to know a
//! scanner is healthy is per-stage accounting — how many hosts were
//! handed to workers, how many were actually probed, how many probes
//! completed a handshake, *and how many were lost to timeouts, dead
//! hosts, or worker death*. [`ScanMetrics`] is that layer for the
//! reproduction's active half, mirroring the passive pipeline's
//! `PipelineMetrics`: a bag of atomic counters threaded through any
//! number of sweep workers, all methods `&self`.
//!
//! Sweep clocks are *thread-time sums*, like the passive stage clocks:
//! each worker adds the wall time it spent sweeping, so with `N` workers
//! busy a second each `scan_nanos` reads `N` seconds. That is not CPU
//! time — a descheduled worker's clock keeps running. Divide by elapsed
//! wall time for effective parallelism.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use tlscope_obs::{Histogram, HistogramSnapshot, JsonObj};

/// Shared, lock-free active-scan counters.
///
/// The accounting invariant of the sweep engine is two-part:
/// `hosts_dispatched == hosts_probed + hosts_dropped` (every host
/// index a sweep dispatched is either fully probed or explicitly given
/// up on — exhausted retry budget, dead host, or a host quarantined
/// because probing it panicked) and
/// `handshakes_completed + handshakes_refused + probes_timed_out ==
/// probes_sent` (every probe sent resolves exactly one way). Refused
/// handshakes still count as probed hosts; only hosts the scanner
/// never finished probing are drops.
#[derive(Debug, Default)]
pub struct ScanMetrics {
    hosts_dispatched: AtomicU64,
    hosts_probed: AtomicU64,
    hosts_dropped: AtomicU64,
    host_retries: AtomicU64,
    probes_sent: AtomicU64,
    handshakes_completed: AtomicU64,
    handshakes_refused: AtomicU64,
    probes_timed_out: AtomicU64,
    workers_lost: AtomicU64,
    sweeps_completed: AtomicU64,
    scan_nanos: AtomicU64,

    checkpoints_written: AtomicU64,
    checkpoints_loaded: AtomicU64,
    checkpoints_quarantined: AtomicU64,

    // Latency distributions (observational only: never persisted in a
    // checkpoint, never absorbed on resume, never part of snapshot
    // equality).
    sweep_hist: Histogram,
    ckpt_write_hist: Histogram,
    ckpt_load_hist: Histogram,
}

impl ScanMetrics {
    /// A zeroed metrics bag.
    pub fn new() -> Self {
        ScanMetrics::default()
    }

    /// Record `hosts` claimed by a sweep worker (assigned, not yet
    /// necessarily probed — the gap to `hosts_probed` is loss, and
    /// must be matched by `hosts_dropped` for the ledger to balance).
    pub fn record_dispatched(&self, hosts: u64) {
        self.hosts_dispatched.fetch_add(hosts, Ordering::Relaxed);
    }

    /// Record one probed shard: `hosts` hosts receiving `probes`
    /// probes, of which `completed` finished a handshake, `refused`
    /// were turned away, and `timed_out` were sent but never resolved.
    pub fn record_probed(
        &self,
        hosts: u64,
        probes: u64,
        completed: u64,
        refused: u64,
        timed_out: u64,
    ) {
        self.hosts_probed.fetch_add(hosts, Ordering::Relaxed);
        self.probes_sent.fetch_add(probes, Ordering::Relaxed);
        self.handshakes_completed
            .fetch_add(completed, Ordering::Relaxed);
        self.handshakes_refused
            .fetch_add(refused, Ordering::Relaxed);
        self.probes_timed_out
            .fetch_add(timed_out, Ordering::Relaxed);
    }

    /// Record `hosts` dispatched hosts the scanner gave up on:
    /// exhausted retry budget, dead-host window, or a host quarantined
    /// because probing it panicked.
    pub fn record_dropped(&self, hosts: u64) {
        self.hosts_dropped.fetch_add(hosts, Ordering::Relaxed);
    }

    /// Record `attempts` retry attempts (connect attempts beyond each
    /// host's first).
    pub fn record_retries(&self, attempts: u64) {
        self.host_retries.fetch_add(attempts, Ordering::Relaxed);
    }

    /// Record one campaign worker dying outside the date's panic
    /// boundary (the dates it held are missing from the series).
    pub fn record_worker_lost(&self) {
        self.workers_lost.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one completed sweep taking `elapsed` of worker time.
    pub fn record_sweep(&self, elapsed: Duration) {
        self.sweeps_completed.fetch_add(1, Ordering::Relaxed);
        self.scan_nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        self.sweep_hist.record(elapsed);
    }

    /// Record the wall-clock of one checkpoint file write.
    pub fn observe_checkpoint_write(&self, elapsed: Duration) {
        self.ckpt_write_hist.record(elapsed);
    }

    /// Record the wall-clock of one checkpoint directory load pass.
    pub fn observe_checkpoint_load(&self, elapsed: Duration) {
        self.ckpt_load_hist.record(elapsed);
    }

    /// Fold another bag's latency histograms into this one — the
    /// campaign runner's analog of [`absorb`] for the observational
    /// side: per-date sweeps run against fresh bags whose *ledgers*
    /// are absorbed via snapshots, so their timing distributions must
    /// be carried over separately.
    ///
    /// [`absorb`]: ScanMetrics::absorb
    pub fn merge_latency_from(&self, other: &ScanMetrics) {
        self.sweep_hist.merge(&other.sweep_hist);
        self.ckpt_write_hist.merge(&other.ckpt_write_hist);
        self.ckpt_load_hist.merge(&other.ckpt_load_hist);
    }

    /// Record one checkpoint file written to the durable store.
    pub fn record_checkpoint_written(&self) {
        self.checkpoints_written.fetch_add(1, Ordering::Relaxed);
    }

    /// Record `n` checkpoint files loaded cleanly on resume (their
    /// dates are skipped, not re-swept).
    pub fn record_checkpoints_loaded(&self, n: u64) {
        self.checkpoints_loaded.fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` damaged checkpoint files quarantined on resume
    /// (renamed to `*.ckpt.bad`; their dates are re-swept).
    pub fn record_checkpoints_quarantined(&self, n: u64) {
        self.checkpoints_quarantined.fetch_add(n, Ordering::Relaxed);
    }

    /// Fold a stored per-date ledger back into this bag — the resume
    /// path's replay of a skipped date's accounting, so a resumed
    /// campaign's totals (and its two-part invariant) match an
    /// uninterrupted run exactly.
    ///
    /// Only the sweep-ledger counters are absorbed; the checkpoint
    /// counters describe *this* run's durable-store activity and are
    /// never carried across runs.
    pub fn absorb(&self, s: &ScanMetricsSnapshot) {
        self.hosts_dispatched
            .fetch_add(s.hosts_dispatched, Ordering::Relaxed);
        self.hosts_probed
            .fetch_add(s.hosts_probed, Ordering::Relaxed);
        self.hosts_dropped
            .fetch_add(s.hosts_dropped, Ordering::Relaxed);
        self.host_retries
            .fetch_add(s.host_retries, Ordering::Relaxed);
        self.probes_sent.fetch_add(s.probes_sent, Ordering::Relaxed);
        self.handshakes_completed
            .fetch_add(s.handshakes_completed, Ordering::Relaxed);
        self.handshakes_refused
            .fetch_add(s.handshakes_refused, Ordering::Relaxed);
        self.probes_timed_out
            .fetch_add(s.probes_timed_out, Ordering::Relaxed);
        self.workers_lost
            .fetch_add(s.workers_lost, Ordering::Relaxed);
        self.sweeps_completed
            .fetch_add(s.sweeps_completed, Ordering::Relaxed);
        self.scan_nanos.fetch_add(s.scan_nanos, Ordering::Relaxed);
    }

    /// Fold every counter and latency histogram of `other`, a bag
    /// metered by another part of this same run, into this one:
    /// [`absorb`] plus the checkpoint counters (this run's store
    /// activity, whichever bag recorded it) plus
    /// [`merge_latency_from`].
    ///
    /// [`absorb`]: ScanMetrics::absorb
    /// [`merge_latency_from`]: ScanMetrics::merge_latency_from
    pub fn merge_from(&self, other: &ScanMetrics) {
        let s = other.snapshot();
        self.absorb(&s);
        self.checkpoints_written
            .fetch_add(s.checkpoints_written, Ordering::Relaxed);
        self.record_checkpoints_loaded(s.checkpoints_loaded);
        self.record_checkpoints_quarantined(s.checkpoints_quarantined);
        self.merge_latency_from(other);
    }

    /// A consistent-enough point-in-time copy of all counters.
    pub fn snapshot(&self) -> ScanMetricsSnapshot {
        ScanMetricsSnapshot {
            hosts_dispatched: self.hosts_dispatched.load(Ordering::Relaxed),
            hosts_probed: self.hosts_probed.load(Ordering::Relaxed),
            hosts_dropped: self.hosts_dropped.load(Ordering::Relaxed),
            host_retries: self.host_retries.load(Ordering::Relaxed),
            probes_sent: self.probes_sent.load(Ordering::Relaxed),
            handshakes_completed: self.handshakes_completed.load(Ordering::Relaxed),
            handshakes_refused: self.handshakes_refused.load(Ordering::Relaxed),
            probes_timed_out: self.probes_timed_out.load(Ordering::Relaxed),
            workers_lost: self.workers_lost.load(Ordering::Relaxed),
            sweeps_completed: self.sweeps_completed.load(Ordering::Relaxed),
            scan_nanos: self.scan_nanos.load(Ordering::Relaxed),
            checkpoints_written: self.checkpoints_written.load(Ordering::Relaxed),
            checkpoints_loaded: self.checkpoints_loaded.load(Ordering::Relaxed),
            checkpoints_quarantined: self.checkpoints_quarantined.load(Ordering::Relaxed),
        }
    }

    /// A point-in-time copy of the latency distributions. Kept apart
    /// from [`snapshot`] so the per-date checkpoint ledger format and
    /// its equality semantics are untouched.
    ///
    /// [`snapshot`]: ScanMetrics::snapshot
    pub fn latency(&self) -> ScanLatency {
        ScanLatency {
            sweep: self.sweep_hist.snapshot(),
            checkpoint_write: self.ckpt_write_hist.snapshot(),
            checkpoint_load: self.ckpt_load_hist.snapshot(),
        }
    }
}

/// Point-in-time latency distributions of the active-scan engine —
/// observational siblings of [`ScanMetricsSnapshot`], deliberately not
/// part of it (the snapshot is persisted per date and replayed on
/// resume; timing never is).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanLatency {
    /// Wall-clock per completed sweep.
    pub sweep: HistogramSnapshot,
    /// Wall-clock per checkpoint file write.
    pub checkpoint_write: HistogramSnapshot,
    /// Wall-clock per checkpoint directory load pass.
    pub checkpoint_load: HistogramSnapshot,
}

impl ScanLatency {
    /// Multi-line terminal rendering, mirroring
    /// [`ScanMetricsSnapshot::render`]'s column layout.
    pub fn render(&self) -> String {
        let mut out = String::from("scan latency\n");
        for (label, hist) in [
            ("sweep", &self.sweep),
            ("ckpt-write", &self.checkpoint_write),
            ("ckpt-load", &self.checkpoint_load),
        ] {
            out.push_str(&format!("  {:<11} {}\n", label, hist.render_line()));
        }
        out
    }

    fn to_json(self) -> String {
        JsonObj::new()
            .raw("sweep", &self.sweep.to_json())
            .raw("checkpoint_write", &self.checkpoint_write.to_json())
            .raw("checkpoint_load", &self.checkpoint_load.to_json())
            .finish()
    }
}

/// A plain-value copy of [`ScanMetrics`], with derived rates and a
/// terminal rendering.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanMetricsSnapshot {
    /// Host indices claimed by sweep workers.
    pub hosts_dispatched: u64,
    /// Hosts actually probed (every probe in the set sent).
    pub hosts_probed: u64,
    /// Hosts given up on: retry budget exhausted (dead hosts, repeated
    /// SYN loss / flakes) or quarantined because probing them
    /// panicked.
    pub hosts_dropped: u64,
    /// Connect attempts beyond each host's first (the retry layer's
    /// work).
    pub host_retries: u64,
    /// Individual probes sent (probed hosts × probes per host, plus
    /// timed-out probes).
    pub probes_sent: u64,
    /// Probes that completed a handshake.
    pub handshakes_completed: u64,
    /// Probes refused (version or cipher mismatch).
    pub handshakes_refused: u64,
    /// Probes sent but never resolved (handshake timeout).
    pub probes_timed_out: u64,
    /// Campaign workers that died outside the date's panic boundary,
    /// each costing the dates it held. Non-zero fails `repro`.
    pub workers_lost: u64,
    /// Sweeps finished.
    pub sweeps_completed: u64,
    /// Sweep wall-clock summed over worker threads, nanoseconds.
    pub scan_nanos: u64,
    /// Checkpoint files written to the durable store.
    pub checkpoints_written: u64,
    /// Checkpoint files loaded cleanly on resume (dates skipped).
    pub checkpoints_loaded: u64,
    /// Damaged checkpoint files quarantined on resume (dates
    /// re-swept).
    pub checkpoints_quarantined: u64,
}

fn rate(count: u64, nanos: u64) -> f64 {
    if nanos == 0 {
        0.0
    } else {
        count as f64 / (nanos as f64 / 1e9)
    }
}

fn scaled(v: f64) -> String {
    if v >= 1e9 {
        format!("{:.2}G", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.2}M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.1}k", v / 1e3)
    } else {
        format!("{v:.0}")
    }
}

impl ScanMetricsSnapshot {
    /// Scan throughput in hosts per thread-second.
    pub fn hosts_per_sec(&self) -> f64 {
        rate(self.hosts_probed, self.scan_nanos)
    }

    /// Scan throughput in probes per thread-second.
    pub fn probes_per_sec(&self) -> f64 {
        rate(self.probes_sent, self.scan_nanos)
    }

    /// Hosts claimed but never probed. Equal to `hosts_dropped`
    /// whenever the ledger balances — under the fault model this is a
    /// reachable, measured state, not a worker-death canary.
    pub fn hosts_lost(&self) -> u64 {
        self.hosts_dispatched.saturating_sub(self.hosts_probed)
    }

    /// The two-part sweep-engine accounting invariant: every
    /// dispatched host was probed or dropped, and every probe sent
    /// completed, was refused, or timed out.
    pub fn accounting_holds(&self) -> bool {
        self.hosts_dispatched == self.hosts_probed + self.hosts_dropped
            && self.handshakes_completed + self.handshakes_refused + self.probes_timed_out
                == self.probes_sent
    }

    /// Multi-line terminal rendering of the scan accounting, on the
    /// same `"  " + label padded to 11 + " " + {:>11}` column grid as
    /// the passive pipeline's `MetricsSnapshot::render`.
    pub fn render(&self) -> String {
        let mut out = String::from("scan metrics\n");
        out.push_str(&format!(
            "  {:<11} {:>11} sweeps {:>10} hosts  {:>9.3}s thread  {:>10} hosts/s\n",
            "sweep",
            self.sweeps_completed,
            self.hosts_probed,
            self.scan_nanos as f64 / 1e9,
            scaled(self.hosts_per_sec()),
        ));
        out.push_str(&format!(
            "  {:<11} {:>11} sent   {:>10} completed {:>6} refused {:>6} timed out  {:>7} probes/s\n",
            "probes",
            self.probes_sent,
            self.handshakes_completed,
            self.handshakes_refused,
            self.probes_timed_out,
            scaled(self.probes_per_sec()),
        ));
        out.push_str(&format!(
            "  {:<11} {:>11} dispatched {:>6} probed {:>9} dropped {:>6} retries\n",
            "accounting",
            self.hosts_dispatched,
            self.hosts_probed,
            self.hosts_dropped,
            self.host_retries,
        ));
        out.push_str(&format!(
            "  {:<11} {:>11} workers lost   ledger {}\n",
            "faults",
            self.workers_lost,
            if self.accounting_holds() {
                "balanced"
            } else {
                "IMBALANCED"
            },
        ));
        out.push_str(&format!(
            "  {:<11} {:>11} written {:>9} loaded {:>10} quarantined\n",
            "checkpoint",
            self.checkpoints_written,
            self.checkpoints_loaded,
            self.checkpoints_quarantined,
        ));
        out
    }

    /// Schema identifier stamped into every [`to_json`] export; bump
    /// it whenever the key set changes.
    ///
    /// [`to_json`]: ScanMetricsSnapshot::to_json
    pub const SCHEMA: &'static str = "tlscope-scan-stats-v2";

    /// Machine-readable export with empty latency sections (no
    /// histograms observed).
    pub fn to_json(&self) -> String {
        self.to_json_with(&ScanLatency::default())
    }

    /// Machine-readable export: `schema` version tag, every raw
    /// counter under `counters`, the derived figures under `derived`,
    /// and the latency distributions under `latency`. Keys are emitted
    /// in a fixed order, so same-state exports are byte-identical.
    pub fn to_json_with(&self, latency: &ScanLatency) -> String {
        let counters = JsonObj::new()
            .u64("hosts_dispatched", self.hosts_dispatched)
            .u64("hosts_probed", self.hosts_probed)
            .u64("hosts_dropped", self.hosts_dropped)
            .u64("host_retries", self.host_retries)
            .u64("probes_sent", self.probes_sent)
            .u64("handshakes_completed", self.handshakes_completed)
            .u64("handshakes_refused", self.handshakes_refused)
            .u64("probes_timed_out", self.probes_timed_out)
            .u64("workers_lost", self.workers_lost)
            .u64("sweeps_completed", self.sweeps_completed)
            .u64("scan_nanos", self.scan_nanos)
            .u64("checkpoints_written", self.checkpoints_written)
            .u64("checkpoints_loaded", self.checkpoints_loaded)
            .u64("checkpoints_quarantined", self.checkpoints_quarantined)
            .finish();
        let derived = JsonObj::new()
            .f64("hosts_per_sec", self.hosts_per_sec())
            .f64("probes_per_sec", self.probes_per_sec())
            .u64("hosts_lost", self.hosts_lost())
            .bool("accounting_holds", self.accounting_holds())
            .finish();
        JsonObj::new()
            .str("schema", ScanMetricsSnapshot::SCHEMA)
            .raw("counters", &counters)
            .raw("derived", &derived)
            .raw("latency", &latency.to_json())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_account() {
        let m = ScanMetrics::new();
        m.record_dispatched(10);
        m.record_probed(10, 30, 24, 5, 1);
        m.record_sweep(Duration::from_millis(2));
        let s = m.snapshot();
        assert_eq!(s.hosts_dispatched, 10);
        assert_eq!(s.hosts_probed, 10);
        assert_eq!(s.probes_sent, 30);
        assert_eq!(s.handshakes_completed, 24);
        assert_eq!(s.handshakes_refused, 5);
        assert_eq!(s.probes_timed_out, 1);
        assert_eq!(s.sweeps_completed, 1);
        assert_eq!(s.hosts_lost(), 0);
        assert!(s.accounting_holds());
        let text = s.render();
        for needle in [
            "sweeps",
            "probes/s",
            "dispatched",
            "dropped",
            "timed out",
            "balanced",
        ] {
            assert!(text.contains(needle), "render missing {needle}: {text}");
        }
    }

    #[test]
    fn dropped_hosts_balance_the_ledger() {
        let m = ScanMetrics::new();
        m.record_dispatched(8);
        m.record_probed(5, 15, 15, 0, 0);
        let s = m.snapshot();
        assert_eq!(s.hosts_lost(), 3);
        assert!(!s.accounting_holds(), "unaccounted loss must be visible");
        m.record_dropped(3);
        m.record_retries(6);
        let s = m.snapshot();
        assert_eq!(s.hosts_dropped, 3);
        assert_eq!(s.host_retries, 6);
        assert_eq!(s.hosts_lost(), 3);
        assert!(s.accounting_holds(), "drops account for the loss: {s:?}");
    }

    #[test]
    fn unresolved_probes_break_accounting() {
        let m = ScanMetrics::new();
        m.record_dispatched(5);
        // 15 sent but only 14 resolved: a probe vanished without being
        // counted as completed, refused, or timed out.
        m.record_probed(5, 15, 10, 3, 1);
        assert!(!m.snapshot().accounting_holds());
        m.record_probed(0, 0, 0, 0, 1);
        assert!(m.snapshot().accounting_holds());
    }

    #[test]
    fn rates_follow_clock() {
        let m = ScanMetrics::new();
        m.record_dispatched(1000);
        m.record_probed(1000, 3000, 2800, 200, 0);
        m.record_sweep(Duration::from_millis(100));
        let s = m.snapshot();
        assert!((s.hosts_per_sec() - 10_000.0).abs() < 1.0);
        assert!((s.probes_per_sec() - 30_000.0).abs() < 1.0);
    }

    #[test]
    fn shared_across_threads() {
        let m = ScanMetrics::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..500 {
                        m.record_dispatched(1);
                        m.record_probed(1, 3, 3, 0, 0);
                    }
                });
            }
        });
        let s = m.snapshot();
        assert_eq!(s.hosts_probed, 2000);
        assert!(s.accounting_holds());
    }

    #[test]
    fn absorb_replays_a_stored_ledger_exactly() {
        let per_date = ScanMetrics::new();
        per_date.record_dispatched(600);
        per_date.record_probed(580, 1740, 1500, 200, 40);
        per_date.record_dropped(20);
        per_date.record_retries(35);
        per_date.record_worker_lost();
        per_date.record_sweep(Duration::from_millis(7));
        let stored = per_date.snapshot();
        assert!(stored.accounting_holds());

        let campaign = ScanMetrics::new();
        campaign.record_checkpoint_written();
        campaign.absorb(&stored);
        let replayed = campaign.snapshot();
        // Every ledger counter carried over, checkpoint counters not.
        assert_eq!(replayed.hosts_dispatched, stored.hosts_dispatched);
        assert_eq!(replayed.hosts_probed, stored.hosts_probed);
        assert_eq!(replayed.hosts_dropped, stored.hosts_dropped);
        assert_eq!(replayed.host_retries, stored.host_retries);
        assert_eq!(replayed.probes_sent, stored.probes_sent);
        assert_eq!(replayed.handshakes_completed, stored.handshakes_completed);
        assert_eq!(replayed.handshakes_refused, stored.handshakes_refused);
        assert_eq!(replayed.probes_timed_out, stored.probes_timed_out);
        assert_eq!(replayed.workers_lost, stored.workers_lost);
        assert_eq!(replayed.sweeps_completed, stored.sweeps_completed);
        assert_eq!(replayed.scan_nanos, stored.scan_nanos);
        assert_eq!(replayed.checkpoints_written, 1);
        assert_eq!(replayed.checkpoints_loaded, 0);
        assert!(replayed.accounting_holds());
        assert!(replayed.render().contains("checkpoint"));
    }

    #[test]
    fn merge_from_carries_every_counter_and_histogram() {
        let part = ScanMetrics::new();
        part.record_dispatched(600);
        part.record_probed(580, 1740, 1500, 200, 40);
        part.record_dropped(20);
        part.record_retries(35);
        part.record_worker_lost();
        part.record_sweep(Duration::from_millis(7));
        part.record_checkpoint_written();
        part.record_checkpoints_loaded(3);
        part.record_checkpoints_quarantined(1);
        part.observe_checkpoint_write(Duration::from_micros(200));
        part.observe_checkpoint_load(Duration::from_micros(80));

        let run = ScanMetrics::new();
        run.merge_from(&part);
        assert_eq!(run.snapshot(), part.snapshot());
        assert_eq!(run.latency(), part.latency());
        // Merging is additive: a second part adds, never replaces.
        run.merge_from(&part);
        assert_eq!(run.snapshot().checkpoints_written, 2);
        assert_eq!(run.snapshot().hosts_probed, 2 * 580);
        assert_eq!(run.latency().sweep.count, 2);
    }

    #[test]
    fn render_layout_is_golden() {
        // Same column grid as the passive render: two-space indent,
        // label padded to 11 columns, separator space, 11-wide
        // right-aligned first figure ending at column 24.
        let m = ScanMetrics::new();
        m.record_dispatched(10);
        m.record_probed(10, 30, 24, 5, 1);
        m.record_sweep(Duration::from_millis(2));
        let text = m.snapshot().render();
        for line in text.lines().skip(1) {
            assert!(line.starts_with("  "), "indent: {line:?}");
            assert!(
                !line[2..13].starts_with(' '),
                "label must start at column 2: {line:?}"
            );
            assert_eq!(
                &line[13..14],
                " ",
                "separator space missing at column 13: {line:?}"
            );
            assert!(
                line[14..25].ends_with(|c: char| c != ' '),
                "first figure must be right-aligned to column 24: {line:?}"
            );
        }
    }

    #[test]
    fn latency_histograms_record_merge_and_render() {
        let per_date = ScanMetrics::new();
        per_date.record_sweep(Duration::from_millis(3));

        let campaign = ScanMetrics::new();
        campaign.observe_checkpoint_write(Duration::from_micros(200));
        campaign.observe_checkpoint_load(Duration::from_micros(80));
        campaign.merge_latency_from(&per_date);

        let lat = campaign.latency();
        assert_eq!(lat.sweep.count, 1);
        assert_eq!(lat.checkpoint_write.count, 1);
        assert_eq!(lat.checkpoint_load.count, 1);
        let text = lat.render();
        for needle in ["scan latency", "sweep", "ckpt-write", "ckpt-load"] {
            assert!(
                text.contains(needle),
                "latency render missing {needle}: {text}"
            );
        }

        // Absorbing a stored ledger does not touch the histograms —
        // the resume path replays counters only.
        let resumed = ScanMetrics::new();
        resumed.absorb(&per_date.snapshot());
        assert_eq!(resumed.latency().sweep.count, 0);
    }

    #[test]
    fn json_export_schema_is_golden() {
        // The golden key-set test: any drift in the export schema must
        // be deliberate (bump SCHEMA and update this list).
        let m = ScanMetrics::new();
        m.record_dispatched(10);
        m.record_probed(10, 30, 24, 5, 1);
        m.record_sweep(Duration::from_millis(2));
        let snap = m.snapshot();
        let parsed = tlscope_obs::Json::parse(&snap.to_json_with(&m.latency())).unwrap();
        assert_eq!(
            parsed.get("schema").and_then(|v| v.as_str()),
            Some(ScanMetricsSnapshot::SCHEMA)
        );
        assert_eq!(
            parsed.keys(),
            vec!["schema", "counters", "derived", "latency"]
        );
        assert_eq!(
            parsed.get("counters").unwrap().keys(),
            vec![
                "hosts_dispatched",
                "hosts_probed",
                "hosts_dropped",
                "host_retries",
                "probes_sent",
                "handshakes_completed",
                "handshakes_refused",
                "probes_timed_out",
                "workers_lost",
                "sweeps_completed",
                "scan_nanos",
                "checkpoints_written",
                "checkpoints_loaded",
                "checkpoints_quarantined",
            ]
        );
        assert_eq!(
            parsed.get("derived").unwrap().keys(),
            vec![
                "hosts_per_sec",
                "probes_per_sec",
                "hosts_lost",
                "accounting_holds"
            ]
        );
        assert_eq!(
            parsed.get("latency").unwrap().keys(),
            vec!["sweep", "checkpoint_write", "checkpoint_load"]
        );
        assert_eq!(
            parsed
                .get("counters")
                .and_then(|c| c.get("hosts_probed"))
                .and_then(|v| v.as_u64()),
            Some(snap.hosts_probed)
        );
        assert_eq!(
            parsed
                .get("derived")
                .and_then(|d| d.get("accounting_holds"))
                .and_then(|v| v.as_bool()),
            Some(true)
        );
    }

    #[test]
    fn worker_loss_is_counted_outside_the_ledger() {
        let m = ScanMetrics::new();
        m.record_dispatched(512);
        m.record_dropped(512);
        m.record_worker_lost();
        let s = m.snapshot();
        assert_eq!(s.workers_lost, 1);
        assert_eq!(s.hosts_dropped, 512);
        assert!(s.accounting_holds());
        assert!(s.render().contains("workers lost"));
    }
}
