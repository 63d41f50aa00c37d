//! Scan accounting: the active-scan engine's counters, sweep clock
//! and latency histograms, declared once in one
//! [`tlscope_obs::ledger!`] table.
//!
//! The Censys pipeline the paper rides on (§3.2) ran IPv4-wide sweeps
//! weekly for almost three years; at that scale the only way to know a
//! scanner is healthy is per-stage accounting — how many hosts were
//! handed to workers, how many were actually probed, how many probes
//! completed a handshake, *and how many were lost to timeouts, dead
//! hosts, or worker death*. [`ScanMetrics`] is that layer for the
//! reproduction's active half, declared like the passive pipeline's
//! `PipelineMetrics`: one bag shared by any number of sweep workers,
//! each adding a named-field [`ScanMetricsSnapshot`] delta once per
//! sweep date, survey or checkpoint pass.
//!
//! Sweep clocks are *thread-time sums*, like the passive stage clocks:
//! each worker adds the wall time it spent sweeping, so with `N` workers
//! busy a second each `scan_nanos` reads `N` seconds. That is not CPU
//! time — a descheduled worker's clock keeps running. Divide by elapsed
//! wall time for effective parallelism.

use tlscope_obs::ledger::{rate, scaled};
use tlscope_obs::JsonObj;

tlscope_obs::ledger! {
    /// Shared active-scan counters and latency histograms.
    ///
    /// The accounting invariant of the sweep engine is two-part:
    /// `hosts_dispatched == hosts_probed + hosts_dropped` (every host
    /// index a sweep dispatched is either fully probed or explicitly
    /// given up on — exhausted retry budget, dead host, or a host
    /// quarantined because probing it panicked) and
    /// `handshakes_completed + handshakes_refused + probes_timed_out ==
    /// probes_sent` (every probe sent resolves exactly one way). Refused
    /// handshakes still count as probed hosts; only hosts the scanner
    /// never finished probing are drops.
    pub struct ScanMetrics;

    /// A plain-value copy of [`ScanMetrics`]' counters, with derived
    /// rates and a terminal rendering. It is also the delta a sweep
    /// adds to the bag, and the per-date ledger a checkpoint stores.
    pub struct ScanMetricsSnapshot {
        /// Host indices claimed by sweep workers.
        hosts_dispatched: Count,
        /// Hosts actually probed (every probe in the set sent).
        hosts_probed: Count,
        /// Hosts given up on: retry budget exhausted (dead hosts, repeated
        /// SYN loss / flakes) or quarantined because probing them
        /// panicked.
        hosts_dropped: Count,
        /// Connect attempts beyond each host's first (the retry layer's
        /// work).
        host_retries: Count,
        /// Individual probes sent (probed hosts × probes per host, plus
        /// timed-out probes).
        probes_sent: Count,
        /// Probes that completed a handshake.
        handshakes_completed: Count,
        /// Probes refused (version or cipher mismatch).
        handshakes_refused: Count,
        /// Probes sent but never resolved (handshake timeout).
        probes_timed_out: Count,
        /// Campaign workers that died outside the date's panic boundary,
        /// each costing the dates it held. Non-zero fails `repro`.
        workers_lost: Count,
        /// Sweeps finished.
        sweeps_completed: Count,
        /// Sweep wall-clock summed over worker threads, nanoseconds.
        scan_nanos: Clock,
        /// Checkpoint files written to the durable store.
        checkpoints_written: Count,
        /// Checkpoint files loaded cleanly on resume (dates skipped).
        checkpoints_loaded: Count,
        /// Damaged checkpoint files quarantined on resume (dates
        /// re-swept).
        checkpoints_quarantined: Count,
    }

    /// Point-in-time latency distributions of the active-scan engine —
    /// observational siblings of [`ScanMetricsSnapshot`], deliberately not
    /// part of it (the snapshot is persisted per date and replayed on
    /// resume; timing never is).
    pub struct ScanLatency("scan latency") {
        /// Wall-clock per completed sweep.
        sweep: "sweep",
        /// Wall-clock per checkpoint file write.
        checkpoint_write: "ckpt-write",
        /// Wall-clock per checkpoint directory load pass.
        checkpoint_load: "ckpt-load",
    }

    balances {
        // Every dispatched host was probed or dropped ...
        hosts_dispatched = hosts_probed + hosts_dropped;
        // ... and every probe sent completed, was refused, or timed out.
        probes_sent = handshakes_completed + handshakes_refused + probes_timed_out;
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
            self.balance(),
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

    /// Schema identifier stamped into every [`to_json_with`] export;
    /// bump it whenever the key set changes.
    ///
    /// [`to_json_with`]: ScanMetricsSnapshot::to_json_with
    pub const SCHEMA: &'static str = "tlscope-scan-stats-v3";

    /// Machine-readable export: `schema` version tag, the raw counters
    /// by class under `counts`, `clocks` and `scheduling` (empty: no
    /// scan counter depends on scheduling), the derived figures under
    /// `derived`, and the latency distributions under `latency`. Keys
    /// are emitted in a fixed order, so same-state exports are
    /// byte-identical.
    pub fn to_json_with(&self, latency: &ScanLatency) -> String {
        let derived = JsonObj::new()
            .f64("hosts_per_sec", self.hosts_per_sec())
            .f64("probes_per_sec", self.probes_per_sec())
            .u64("hosts_lost", self.hosts_lost())
            .bool("accounting_holds", self.accounting_holds())
            .finish();
        self.counter_sections(JsonObj::new().str("schema", ScanMetricsSnapshot::SCHEMA))
            .raw("derived", &derived)
            .raw("latency", &latency.to_json())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// One completed sweep of `delta` taking `elapsed`, recorded as
    /// the sweep engine records it: one sweep and its clock added with
    /// the delta, and one histogram sample.
    fn sweep(m: &ScanMetrics, delta: ScanMetricsSnapshot, elapsed: Duration) {
        m.add(&ScanMetricsSnapshot {
            sweeps_completed: 1,
            scan_nanos: elapsed.as_nanos() as u64,
            ..delta
        });
        m.sweep.record(elapsed);
    }

    #[test]
    fn counters_accumulate_and_account() {
        let m = ScanMetrics::new();
        sweep(
            &m,
            ScanMetricsSnapshot {
                hosts_dispatched: 10,
                hosts_probed: 10,
                probes_sent: 30,
                handshakes_completed: 24,
                handshakes_refused: 5,
                probes_timed_out: 1,
                ..Default::default()
            },
            Duration::from_millis(2),
        );
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
        m.add(&ScanMetricsSnapshot {
            hosts_dispatched: 8,
            hosts_probed: 5,
            probes_sent: 15,
            handshakes_completed: 15,
            ..Default::default()
        });
        let s = m.snapshot();
        assert_eq!(s.hosts_lost(), 3);
        assert!(!s.accounting_holds(), "unaccounted loss must be visible");
        m.add(&ScanMetricsSnapshot {
            hosts_dropped: 3,
            host_retries: 6,
            ..Default::default()
        });
        let s = m.snapshot();
        assert_eq!(s.hosts_dropped, 3);
        assert_eq!(s.host_retries, 6);
        assert_eq!(s.hosts_lost(), 3);
        assert!(s.accounting_holds(), "drops account for the loss: {s:?}");
    }

    #[test]
    fn unresolved_probes_break_accounting() {
        let m = ScanMetrics::new();
        // 15 sent but only 14 resolved: a probe vanished without being
        // counted as completed, refused, or timed out.
        m.add(&ScanMetricsSnapshot {
            hosts_dispatched: 5,
            hosts_probed: 5,
            probes_sent: 15,
            handshakes_completed: 10,
            handshakes_refused: 3,
            probes_timed_out: 1,
            ..Default::default()
        });
        assert!(!m.snapshot().accounting_holds());
        m.add(&ScanMetricsSnapshot {
            probes_timed_out: 1,
            ..Default::default()
        });
        assert!(m.snapshot().accounting_holds());
    }

    #[test]
    fn rates_follow_clock() {
        let m = ScanMetrics::new();
        sweep(
            &m,
            ScanMetricsSnapshot {
                hosts_dispatched: 1000,
                hosts_probed: 1000,
                probes_sent: 3000,
                handshakes_completed: 2800,
                handshakes_refused: 200,
                ..Default::default()
            },
            Duration::from_millis(100),
        );
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
                        m.add(&ScanMetricsSnapshot {
                            hosts_dispatched: 1,
                            hosts_probed: 1,
                            probes_sent: 3,
                            handshakes_completed: 3,
                            ..Default::default()
                        });
                    }
                });
            }
        });
        let s = m.snapshot();
        assert_eq!(s.hosts_probed, 2000);
        assert!(s.accounting_holds());
    }

    /// A per-date bag as a lossy date leaves it: 600 hosts dispatched,
    /// 580 probed, 20 dropped, one worker lost.
    fn lossy_date() -> ScanMetrics {
        let per_date = ScanMetrics::new();
        sweep(
            &per_date,
            ScanMetricsSnapshot {
                hosts_dispatched: 600,
                hosts_dropped: 20,
                host_retries: 35,
                workers_lost: 1,
                hosts_probed: 580,
                probes_sent: 1740,
                handshakes_completed: 1500,
                handshakes_refused: 200,
                probes_timed_out: 40,
                ..Default::default()
            },
            Duration::from_millis(7),
        );
        per_date
    }

    #[test]
    fn absorb_replays_a_stored_ledger_exactly() {
        let stored = lossy_date().snapshot();
        assert!(stored.accounting_holds());

        let campaign = ScanMetrics::new();
        campaign.add(&ScanMetricsSnapshot {
            checkpoints_written: 1,
            ..Default::default()
        });
        campaign.add(&stored);
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
    fn absorb_carries_every_counter_and_histogram() {
        let part = lossy_date();
        part.add(&ScanMetricsSnapshot {
            checkpoints_written: 1,
            checkpoints_loaded: 3,
            checkpoints_quarantined: 1,
            ..Default::default()
        });
        part.checkpoint_write.record(Duration::from_micros(200));
        part.checkpoint_load.record(Duration::from_micros(80));

        let run = ScanMetrics::new();
        run.absorb(&part);
        assert_eq!(run.snapshot(), part.snapshot());
        assert_eq!(run.latency(), part.latency());
        // Absorbing is additive: a second part adds, never replaces.
        run.absorb(&part);
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
        sweep(
            &m,
            ScanMetricsSnapshot {
                hosts_dispatched: 10,
                hosts_probed: 10,
                probes_sent: 30,
                handshakes_completed: 24,
                handshakes_refused: 5,
                probes_timed_out: 1,
                ..Default::default()
            },
            Duration::from_millis(2),
        );
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
        sweep(
            &per_date,
            ScanMetricsSnapshot::default(),
            Duration::from_millis(3),
        );

        let campaign = ScanMetrics::new();
        campaign.checkpoint_write.record(Duration::from_micros(200));
        campaign.checkpoint_load.record(Duration::from_micros(80));
        campaign.absorb(&per_date);

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

        // Adding a stored ledger does not touch the histograms — the
        // resume path replays counters only.
        let resumed = ScanMetrics::new();
        resumed.add(&per_date.snapshot());
        assert_eq!(resumed.latency().sweep.count, 0);
    }

    #[test]
    fn json_export_schema_is_golden() {
        // The golden key-set test: any drift in the export schema must
        // be deliberate (bump SCHEMA and update this list).
        let m = ScanMetrics::new();
        sweep(
            &m,
            ScanMetricsSnapshot {
                hosts_dispatched: 10,
                hosts_probed: 10,
                probes_sent: 30,
                handshakes_completed: 24,
                handshakes_refused: 5,
                probes_timed_out: 1,
                ..Default::default()
            },
            Duration::from_millis(2),
        );
        let snap = m.snapshot();
        let parsed = tlscope_obs::Json::parse(&snap.to_json_with(&m.latency())).unwrap();
        assert_eq!(
            parsed.get("schema").and_then(|v| v.as_str()),
            Some(ScanMetricsSnapshot::SCHEMA)
        );
        assert_eq!(
            parsed.keys(),
            vec![
                "schema",
                "counts",
                "clocks",
                "scheduling",
                "derived",
                "latency"
            ]
        );
        assert_eq!(
            parsed.get("counts").unwrap().keys(),
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
                "checkpoints_written",
                "checkpoints_loaded",
                "checkpoints_quarantined",
            ]
        );
        assert_eq!(parsed.get("clocks").unwrap().keys(), vec!["scan_nanos"]);
        assert!(parsed.get("scheduling").unwrap().keys().is_empty());
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
                .get("counts")
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
        m.add(&ScanMetricsSnapshot {
            hosts_dispatched: 512,
            hosts_dropped: 512,
            workers_lost: 1,
            ..Default::default()
        });
        let s = m.snapshot();
        assert_eq!(s.workers_lost, 1);
        assert_eq!(s.hosts_dropped, 512);
        assert!(s.accounting_holds());
        assert!(s.render().contains("workers lost"));
    }
}
