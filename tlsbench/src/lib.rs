//! # tlscope-benchmark
//!
//! The end-to-end and per-layer benchmark of the tlscope reproduction.
//! One invocation runs one workload in its own process; every input is
//! derived from `--seed`; every rep's outputs are checked against a
//! serial reference. The workloads and the rep machinery live in
//! [`workloads`], the traced per-layer run in [`trace`], and the
//! `/proc` probes in [`host`]. See `README.md` for what each metric
//! means and how to compare two commits.
//!
//! The benchmark drives the public API of the `tlscope` crates only.

#![forbid(unsafe_code)]

pub mod host;
pub mod trace;
pub mod workloads;

/// End-to-end metrics `(name, unit)`, in `BENCHMARK.json` order. An
/// untraced run reports exactly these.
pub const END_TO_END: &[(&str, &str)] = &[("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics `(name, unit)`, in `BENCHMARK.json` order. A
/// traced run reports exactly these; a layer the workload does not run
/// reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("traffic.next_flow_ns", "ns/flow"),
    ("traffic.template_hit_rate", "ratio"),
    ("traffic.bytes_per_flow", "B/flow"),
    ("notary.conn.extract_ns", "ns/flow"),
    ("notary.conn.parse_cache_saving_ns", "ns/flow"),
    ("notary.conn.parse_cache_hit_rate", "ratio"),
    ("notary.conn.cache_bypass_share", "ratio"),
    ("notary.conn.salvaged_share", "ratio"),
    ("notary.aggregate.ingest_ns", "ns/flow"),
    ("notary.aggregate.merge_ms", "ms/run"),
    ("fingerprint.distinct", "count"),
    ("study.month_p50_ms", "ms/month"),
    ("study.month_max_ms", "ms/month"),
    ("process.cpu_util", "ratio"),
    ("scanner.sweep_ms_p50", "ms/sweep"),
    ("scanner.host_ns", "ns/host"),
    ("scanner.completed_share", "ratio"),
    ("notary.checkpoint.write_ms", "ms/month"),
    ("notary.checkpoint.load_ms", "ms/load"),
    ("scanner.checkpoint.load_ms", "ms/load"),
    ("checkpoint.bytes", "B"),
    ("analysis.render_ms", "ms/run"),
    ("analysis.render_max_ms", "ms/artefact"),
    ("report.csv_bytes", "B"),
    ("host.calib_ms_start", "ms"),
    ("host.calib_ms_end", "ms"),
    ("trace.overhead", "ratio"),
    ("trace.coverage", "ratio"),
];

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit, as `BENCHMARK.json` lists it.
    pub unit: &'static str,
}

/// The metric `name` with its declared unit.
///
/// # Panics
/// When `name` is in neither list — a bug in this crate.
pub(crate) fn metric(name: &'static str, value: f64) -> Metric {
    let unit = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name} is not declared"));
    Metric { name, value, unit }
}

/// Median of `xs` (mean of the middle two for an even count; 0 when
/// empty).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The result object printed as the last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    use tlscope::obs::JsonObj;
    let mut values = JsonObj::new();
    for m in metrics {
        let value = JsonObj::new().f64("value", m.value).str("unit", m.unit);
        values = values.raw(m.name, &value.finish());
    }
    JsonObj::new()
        .bool("correct", correct)
        .u64("attempted", attempted)
        .u64("failed", failed)
        .raw("metrics", &values.finish())
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<_> = END_TO_END.iter().chain(PER_LAYER).map(|(n, _)| n).collect();
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
