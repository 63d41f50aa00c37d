//! Pipeline accounting: per-stage counters, stage clocks and latency
//! histograms, declared once in one [`tlscope_obs::ledger!`] table.
//!
//! The paper's Notary processed 319.3 B connections on a cluster whose
//! health was only observable through per-stage accounting (what was
//! parsed, what was dropped, where time went). [`PipelineMetrics`] is
//! that layer for the reproduction: one bag shared by every stage of
//! the generation → extraction → aggregation pipeline. Stages record
//! by adding a named-field [`MetricsSnapshot`] delta once per month or
//! checkpoint pass, so one lock serves any number of workers.
//!
//! Counts are exact. The two stage clocks (`gen_nanos`,
//! `ingest_nanos`) are *sampled estimates*: the study runner times one
//! flow in 64 and scales each month's sums to all of its flows, so no
//! flow pays for a clock read it does not need. Flow 0 of every month
//! is in the sample and pays that month's cold caches, so the
//! estimates lean high on short months. They are also *thread-time
//! sums*: each worker adds the wall time it spent in a stage, so with
//! `N` workers busy for a second each a stage records `N` seconds.
//! That is not CPU time — a descheduled worker's clock keeps running —
//! so on an oversubscribed host the sum can exceed the process's CPU
//! time. Divide by the elapsed wall time to read out effective
//! parallelism.

use tlscope_obs::ledger::{rate, scaled};
use tlscope_obs::JsonObj;

tlscope_obs::ledger! {
    /// Shared pipeline counters and latency histograms.
    ///
    /// Counter groups:
    /// * **generation** — flows and wire bytes emitted by the synthetic
    ///   tap, plus generator wall-clock, flows lost to tap outage
    ///   windows, and tap-duplicated flows;
    /// * **ingestion** — flows through the notary, parse failures
    ///   by class, records salvaged from damaged flows, plus extraction
    ///   wall-clock;
    /// * **recovery** — months replayed after a worker panic, and poison
    ///   flows quarantined by the replay;
    /// * **merge / fault** — aggregate-merge wall-clock and months lost
    ///   to worker panics (best-effort collection, paper §3.1).
    pub struct PipelineMetrics;

    /// A plain-value copy of [`PipelineMetrics`]' counters, with derived
    /// rates and a terminal rendering. It is also the delta a stage
    /// adds to the bag.
    pub struct MetricsSnapshot {
        /// Flows emitted by the generator.
        flows_generated: Count,
        /// Wire bytes emitted by the generator (client + server flows).
        bytes_generated: Count,
        /// Generator wall-clock summed over worker threads, nanoseconds: a
        /// sampled estimate (one flow in 64 timed, scaled to every flow).
        gen_nanos: Clock,
        /// Flows lost to tap outage windows (never dispatched).
        flows_outage_dropped: Count,
        /// Flows duplicated by the tap (the duplicate is also counted
        /// as generated).
        flows_duplicated: Count,
        /// Flows handed to the ingestion stage.
        flows_dispatched: Count,
        /// Flows actually processed by the ingestion stage.
        flows_ingested: Count,
        /// Parse failures: not SSL/TLS at all.
        not_tls: Count,
        /// Parse failures: client flow too damaged to parse.
        garbled_client: Count,
        /// Connections salvaged from damaged flows (prefix-recovered
        /// records instead of a garbled drop).
        flows_salvaged: Count,
        /// Ingestion wall-clock summed over worker threads, nanoseconds: a
        /// sampled estimate, like `gen_nanos`.
        ingest_nanos: Clock,
        /// Months replayed flow by flow after their first pass panicked.
        months_replayed: Count,
        /// Poison flows quarantined by a month replay.
        flows_quarantined: Count,
        /// Wall-clock spent merging partial aggregates, nanoseconds.
        merge_nanos: Clock,
        /// Months lost to worker panics (neither committed nor recovered
        /// by a replay).
        shards_lost: Count,
        /// Checkpoint files written to the durable store.
        checkpoints_written: Count,
        /// Checkpoint files loaded cleanly on resume (months skipped).
        checkpoints_loaded: Count,
        /// Damaged checkpoint files quarantined on resume (months
        /// recomputed).
        checkpoints_quarantined: Count,
        /// Generation-side template-cache hits (flights served by
        /// memcpy + patch).
        template_hits: Count,
        /// Generation-side template-cache misses (flights serialised in
        /// full and cached).
        template_misses: Count,
        /// Ingestion-side parse-cache hits (offers copied from cache).
        parse_cache_hits: Scheduling,
        /// Ingestion-side parse-cache misses (hellos fully parsed and
        /// inserted).
        parse_cache_misses: Scheduling,
        /// Parse-cache entries evicted by capacity pressure.
        parse_cache_evictions: Scheduling,
    }

    /// Point-in-time latency distributions of the passive pipeline —
    /// observational siblings of [`MetricsSnapshot`], deliberately not
    /// part of it (the snapshot is persisted and compared bit-for-bit;
    /// timing never is).
    pub struct PipelineLatency("pipeline latency") {
        /// Wall-clock per completed month (generation + ingestion).
        month: "month",
        /// Wall-clock per checkpoint file write.
        checkpoint_write: "ckpt-write",
        /// Wall-clock per checkpoint directory load pass.
        checkpoint_load: "ckpt-load",
    }

    balances {
        // Every dispatched flow is ingested or quarantined: nothing
        // silently vanishes.
        flows_dispatched = flows_ingested + flows_quarantined;
    }
}

impl MetricsSnapshot {
    /// Generator throughput in flows per thread-second.
    pub fn gen_flows_per_sec(&self) -> f64 {
        rate(self.flows_generated, self.gen_nanos)
    }

    /// Ingestion throughput in flows per thread-second.
    pub fn ingest_flows_per_sec(&self) -> f64 {
        rate(self.flows_ingested, self.ingest_nanos)
    }

    /// Flows dispatched but never ingested (quarantined as poison).
    pub fn flows_lost(&self) -> u64 {
        self.flows_dispatched.saturating_sub(self.flows_ingested)
    }

    /// Multi-line terminal rendering of the per-stage accounting.
    ///
    /// Every row is `"  " + label padded to 11 + " " + {:>11}` for its
    /// first figure (the golden layout test pins this), so the columns
    /// line up even for the 11-character `parse-cache` label that used
    /// to swallow its separator space.
    pub fn render(&self) -> String {
        let mut out = String::from("pipeline metrics\n");
        out.push_str(&format!(
            "  {:<11} {:>11} flows  {:>10} bytes  {:>9.3}s thread  {:>10} flows/s\n",
            "generate",
            self.flows_generated,
            scaled(self.bytes_generated as f64),
            self.gen_nanos as f64 / 1e9,
            scaled(self.gen_flows_per_sec()),
        ));
        out.push_str(&format!(
            "  {:<11} {:>11} flows  {:>27.3}s thread  {:>10} flows/s\n",
            "ingest",
            self.flows_ingested,
            self.ingest_nanos as f64 / 1e9,
            scaled(self.ingest_flows_per_sec()),
        ));
        out.push_str(&format!(
            "  {:<11} {:>11} not-tls {:>9} garbled {:>9} salvaged\n",
            "parse-fail", self.not_tls, self.garbled_client, self.flows_salvaged,
        ));
        out.push_str(&format!(
            "  {:<11} {:>11} outage-dropped {:>6} duplicated\n",
            "tap", self.flows_outage_dropped, self.flows_duplicated,
        ));
        out.push_str(&format!(
            "  {:<11} {:>11} months_replayed {:>8} quarantined\n",
            "recovery", self.months_replayed, self.flows_quarantined,
        ));
        out.push_str(&format!(
            "  {:<11} {:>10.3}s thread\n",
            "merge",
            self.merge_nanos as f64 / 1e9
        ));
        out.push_str(&format!(
            "  {:<11} {:>11} shards lost  {:>8} flows lost   ledger {}\n",
            "faults",
            self.shards_lost,
            self.flows_lost(),
            self.balance(),
        ));
        out.push_str(&format!(
            "  {:<11} {:>11} written {:>9} loaded {:>10} quarantined\n",
            "checkpoint",
            self.checkpoints_written,
            self.checkpoints_loaded,
            self.checkpoints_quarantined,
        ));
        out.push_str(&format!(
            "  {:<11} {:>11} hits {:>12} misses\n",
            "template", self.template_hits, self.template_misses,
        ));
        out.push_str(&format!(
            "  {:<11} {:>11} hits {:>12} misses {:>8} evictions\n",
            "parse-cache",
            self.parse_cache_hits,
            self.parse_cache_misses,
            self.parse_cache_evictions,
        ));
        out
    }

    /// Schema identifier stamped into every [`to_json_with`] export;
    /// bump it whenever the key set changes.
    ///
    /// [`to_json_with`]: MetricsSnapshot::to_json_with
    pub const SCHEMA: &'static str = "tlscope-pipeline-stats-v4";

    /// Machine-readable export: `schema` version tag, the raw counters
    /// by class under `counts`, `clocks` and `scheduling`, the derived
    /// figures the rendering shows under `derived`, and the latency
    /// distributions under `latency`. Keys are emitted in a fixed
    /// order, so same-state exports are byte-identical, and `counts`
    /// alone repeats exactly between identical runs.
    pub fn to_json_with(&self, latency: &PipelineLatency) -> String {
        let derived = JsonObj::new()
            .f64("gen_flows_per_sec", self.gen_flows_per_sec())
            .f64("ingest_flows_per_sec", self.ingest_flows_per_sec())
            .u64("flows_lost", self.flows_lost())
            .bool("accounting_holds", self.accounting_holds())
            .finish();
        self.counter_sections(JsonObj::new().str("schema", MetricsSnapshot::SCHEMA))
            .raw("derived", &derived)
            .raw("latency", &latency.to_json())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let m = PipelineMetrics::new();
        for bytes in [120, 80] {
            m.add(&MetricsSnapshot {
                flows_generated: 1,
                bytes_generated: bytes,
                gen_nanos: 500,
                ..Default::default()
            });
        }
        m.add(&MetricsSnapshot {
            flows_dispatched: 2,
            flows_ingested: 2,
            ingest_nanos: 3_000,
            not_tls: 1,
            shards_lost: 1,
            ..Default::default()
        });
        let s = m.snapshot();
        assert_eq!(s.flows_generated, 2);
        assert_eq!(s.bytes_generated, 200);
        assert_eq!(s.gen_nanos, 1000);
        assert_eq!(s.flows_ingested, 2);
        assert_eq!(s.not_tls, 1);
        assert_eq!(s.shards_lost, 1);
        assert_eq!(s.flows_lost(), 0);
    }

    #[test]
    fn rates_and_render() {
        let m = PipelineMetrics::new();
        m.add(&MetricsSnapshot {
            flows_ingested: 1000,
            ingest_nanos: 100_000_000,
            flows_dispatched: 1200,
            ..Default::default()
        });
        let s = m.snapshot();
        assert!((s.ingest_flows_per_sec() - 10_000.0).abs() < 1.0);
        assert_eq!(s.flows_lost(), 200);
        let text = s.render();
        assert!(text.contains("ingest"));
        assert!(text.contains("flows lost"));
    }

    #[test]
    fn recovery_counters_accumulate_and_render() {
        let m = PipelineMetrics::new();
        m.add(&MetricsSnapshot {
            flows_dispatched: 10,
            flows_ingested: 7,
            ingest_nanos: 1_000,
            months_replayed: 1,
            flows_quarantined: 3,
            flows_salvaged: 2,
            flows_outage_dropped: 5,
            flows_duplicated: 1,
            checkpoints_written: 2,
            checkpoints_loaded: 4,
            checkpoints_quarantined: 1,
            ..Default::default()
        });
        let s = m.snapshot();
        assert_eq!(s.checkpoints_written, 2);
        assert_eq!(s.checkpoints_loaded, 4);
        assert_eq!(s.checkpoints_quarantined, 1);
        assert_eq!(s.months_replayed, 1);
        assert_eq!(s.flows_quarantined, 3);
        assert_eq!(s.flows_salvaged, 2);
        assert_eq!(s.flows_outage_dropped, 5);
        assert_eq!(s.flows_duplicated, 1);
        assert!(
            s.accounting_holds(),
            "10 dispatched = 7 ingested + 3 quarantined"
        );
        let text = s.render();
        for needle in [
            "months_replayed",
            "quarantined",
            "salvaged",
            "outage-dropped",
            "checkpoint",
        ] {
            assert!(text.contains(needle), "render missing {needle}: {text}");
        }
    }

    #[test]
    fn cache_counters_accumulate_and_render() {
        let m = PipelineMetrics::new();
        for (hits, misses) in [(10, 2), (5, 0)] {
            m.add(&MetricsSnapshot {
                template_hits: hits,
                template_misses: misses,
                ..Default::default()
            });
        }
        m.add(&MetricsSnapshot {
            parse_cache_hits: 8,
            parse_cache_misses: 3,
            parse_cache_evictions: 1,
            ..Default::default()
        });
        let s = m.snapshot();
        assert_eq!(s.template_hits, 15);
        assert_eq!(s.template_misses, 2);
        assert_eq!(s.parse_cache_hits, 8);
        assert_eq!(s.parse_cache_misses, 3);
        assert_eq!(s.parse_cache_evictions, 1);
        let text = s.render();
        assert!(text.contains("template"), "{text}");
        assert!(text.contains("parse-cache"), "{text}");
        assert!(text.contains("evictions"), "{text}");
    }

    #[test]
    fn render_layout_is_golden() {
        // Every body row must share one column grid: two-space indent,
        // label padded to 11 columns, one separator space (the one the
        // old parse-cache row lacked), then an 11-wide right-aligned
        // first figure ending at column 25.
        let m = PipelineMetrics::new();
        m.add(&MetricsSnapshot {
            flows_generated: 1,
            bytes_generated: 120,
            gen_nanos: 500,
            flows_ingested: 1,
            ingest_nanos: 3_000,
            parse_cache_hits: 8,
            parse_cache_misses: 3,
            parse_cache_evictions: 1,
            template_hits: 15,
            template_misses: 2,
            ..Default::default()
        });
        let text = m.snapshot().render();
        let body: Vec<&str> = text.lines().skip(1).collect();
        assert!(body.len() >= 10, "expected all sections rendered: {text}");
        for line in body {
            assert!(line.starts_with("  "), "indent: {line:?}");
            let label = &line[2..13];
            assert!(
                !label.starts_with(' '),
                "label must start at column 2: {line:?}"
            );
            assert_eq!(
                &line[13..14],
                " ",
                "separator space missing at column 13: {line:?}"
            );
            let first_figure = &line[14..25];
            assert!(
                first_figure.ends_with(|c: char| c != ' '),
                "first figure must be right-aligned to column 24: {line:?}"
            );
            assert!(
                line.len() < 26 || line.as_bytes()[25] == b' ',
                "first figure wider than its column: {line:?}"
            );
        }
        // The specific satellite bug: parse-cache keeps its separator.
        let pc = text.lines().find(|l| l.contains("parse-cache")).unwrap();
        assert!(pc.starts_with("  parse-cache "), "{pc:?}");
    }

    #[test]
    fn absorb_adds_counters_and_merges_latency() {
        let month = PipelineMetrics::new();
        month.add(&MetricsSnapshot {
            flows_generated: 1,
            bytes_generated: 120,
            gen_nanos: 500,
            flows_dispatched: 3,
            flows_ingested: 2,
            ingest_nanos: 3_000,
            flows_quarantined: 1,
            template_hits: 4,
            template_misses: 1,
            parse_cache_hits: 2,
            parse_cache_misses: 1,
            ..Default::default()
        });
        month.month.record(Duration::from_millis(2));
        let run = PipelineMetrics::new();
        run.add(&MetricsSnapshot {
            checkpoints_written: 1,
            ..Default::default()
        });
        run.absorb(&month);
        run.absorb(&month);
        let s = run.snapshot();
        assert_eq!(s.flows_generated, 2);
        assert_eq!(s.bytes_generated, 240);
        assert_eq!(s.flows_dispatched, 6);
        assert_eq!(s.flows_ingested, 4);
        assert_eq!(s.flows_quarantined, 2);
        assert_eq!((s.template_hits, s.template_misses), (8, 2));
        assert_eq!((s.parse_cache_hits, s.parse_cache_misses), (4, 2));
        assert_eq!(s.checkpoints_written, 1);
        assert!(s.accounting_holds());
        let lat = run.latency();
        assert_eq!(lat.month.count, 2);
    }

    #[test]
    fn latency_histograms_record_and_render() {
        let m = PipelineMetrics::new();
        m.add(&MetricsSnapshot {
            flows_ingested: 10,
            ingest_nanos: 50_000,
            ..Default::default()
        });
        m.month.record(Duration::from_millis(20));
        m.checkpoint_write.record(Duration::from_micros(300));
        m.checkpoint_load.record(Duration::from_micros(100));
        let lat = m.latency();
        assert_eq!(lat.month.count, 1);
        assert_eq!(lat.checkpoint_write.count, 1);
        assert_eq!(lat.checkpoint_load.count, 1);
        let text = lat.render();
        for needle in ["pipeline latency", "month", "ckpt-write", "ckpt-load"] {
            assert!(
                text.contains(needle),
                "latency render missing {needle}: {text}"
            );
        }
        // Latency is observational: the counter snapshot is untouched
        // by everything except the added counters.
        let s = m.snapshot();
        assert_eq!(s.flows_ingested, 10);
    }

    #[test]
    fn json_export_schema_is_golden() {
        // The golden key-set test: any drift in the export schema must
        // be deliberate (bump SCHEMA and update this list).
        let m = PipelineMetrics::new();
        m.add(&MetricsSnapshot {
            flows_generated: 1,
            bytes_generated: 100,
            gen_nanos: 10,
            flows_dispatched: 1,
            flows_ingested: 1,
            ingest_nanos: 1_000,
            ..Default::default()
        });
        m.month.record(Duration::from_micros(2));
        let snap = m.snapshot();
        let parsed = tlscope_obs::Json::parse(&snap.to_json_with(&m.latency())).unwrap();
        assert_eq!(
            parsed.get("schema").and_then(|v| v.as_str()),
            Some(MetricsSnapshot::SCHEMA)
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
        let counts = parsed.get("counts").unwrap();
        assert_eq!(
            counts.keys(),
            vec![
                "flows_generated",
                "bytes_generated",
                "flows_outage_dropped",
                "flows_duplicated",
                "flows_dispatched",
                "flows_ingested",
                "not_tls",
                "garbled_client",
                "flows_salvaged",
                "months_replayed",
                "flows_quarantined",
                "shards_lost",
                "checkpoints_written",
                "checkpoints_loaded",
                "checkpoints_quarantined",
                "template_hits",
                "template_misses",
            ]
        );
        assert_eq!(
            parsed.get("clocks").unwrap().keys(),
            vec!["gen_nanos", "ingest_nanos", "merge_nanos"]
        );
        assert_eq!(
            parsed.get("scheduling").unwrap().keys(),
            vec![
                "parse_cache_hits",
                "parse_cache_misses",
                "parse_cache_evictions"
            ]
        );
        assert_eq!(
            parsed.get("derived").unwrap().keys(),
            vec![
                "gen_flows_per_sec",
                "ingest_flows_per_sec",
                "flows_lost",
                "accounting_holds"
            ]
        );
        assert_eq!(
            parsed.get("latency").unwrap().keys(),
            vec!["month", "checkpoint_write", "checkpoint_load"]
        );
        // Counters in the JSON match the snapshot the text render used.
        assert_eq!(
            counts.get("flows_generated").and_then(|v| v.as_u64()),
            Some(snap.flows_generated)
        );
        assert_eq!(
            counts.get("flows_ingested").and_then(|v| v.as_u64()),
            Some(snap.flows_ingested)
        );
        assert_eq!(
            parsed
                .get("latency")
                .and_then(|l| l.get("month"))
                .and_then(|h| h.get("count"))
                .and_then(|v| v.as_u64()),
            Some(1)
        );
    }

    #[test]
    fn shared_across_threads() {
        let m = PipelineMetrics::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        m.add(&MetricsSnapshot {
                            flows_ingested: 1,
                            ingest_nanos: 10,
                            ..Default::default()
                        });
                    }
                });
            }
        });
        assert_eq!(m.snapshot().flows_ingested, 4000);
    }
}
