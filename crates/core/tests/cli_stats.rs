//! End-to-end coverage of the repro CLI's stats surfaces: `--stats`,
//! `--scan-stats`, and the machine-readable `--stats-json` /
//! `--scan-stats-json` exports. One real binary invocation drives both
//! apertures; the JSON files are then parsed back with the same
//! hand-rolled parser the workspace ships and cross-checked against
//! the human-readable render on stderr.

use std::path::PathBuf;
use std::process::{Command, Output};

use tlscope::obs::Json;

fn run_repro(args: &[&str]) -> Output {
    run_repro_with(args, &[])
}

fn run_repro_with(args: &[&str], env: &[(&str, &str)]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        // Pin the heartbeat off so stderr stays deterministic no
        // matter what the invoking environment exports.
        .env("TLSCOPE_PROGRESS", "off")
        .envs(env.iter().copied())
        .output()
        .expect("repro binary should spawn")
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tlscope-cli-stats-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Pull the `n`-th whitespace token off the first stderr line whose
/// first token is `label` (the render grid is `  <label> <figure> ..`).
fn render_token(stderr: &str, label: &str, n: usize) -> u64 {
    let line = stderr
        .lines()
        .find(|l| l.split_whitespace().next() == Some(label))
        .unwrap_or_else(|| panic!("no `{label}` row in stderr:\n{stderr}"));
    line.split_whitespace()
        .nth(n)
        .unwrap_or_else(|| panic!("no token {n} in `{line}`"))
        .parse()
        .unwrap_or_else(|_| panic!("token {n} of `{line}` is not a number"))
}

#[test]
fn stats_surfaces_agree_across_render_and_json() {
    let dir = scratch_dir("run");
    let stats_path = dir.join("stats.json");
    let scan_path = dir.join("scan.json");
    let out = run_repro(&[
        "--quick",
        "--stats",
        "--scan-stats",
        "--stats-json",
        stats_path.to_str().unwrap(),
        "--scan-stats-json",
        scan_path.to_str().unwrap(),
        "fig2",
        "censys",
    ]);
    assert!(
        out.status.success(),
        "repro failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    for heading in [
        "pipeline metrics",
        "pipeline latency",
        "scan metrics",
        "scan latency",
    ] {
        assert!(stderr.contains(heading), "missing `{heading}` in stderr");
    }

    // Pipeline export: parses, carries the schema tag, and its
    // counts match the rendered figures byte-for-byte.
    let text = std::fs::read_to_string(&stats_path).expect("stats json written");
    let doc = Json::parse(&text).expect("stats json parses");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some(tlscope::notary::MetricsSnapshot::SCHEMA)
    );
    for section in ["counts", "clocks", "scheduling", "derived", "latency"] {
        assert!(doc.get(section).is_some(), "missing `{section}` section");
    }
    let counts = doc.get("counts").expect("counts");
    // `  ingest  <flows> flows  <seconds>s thread ...`
    assert_eq!(
        counts.get("flows_ingested").and_then(Json::as_u64),
        Some(render_token(&stderr, "ingest", 1))
    );
    // The latency section holds one month sample per month folded.
    let quick = tlscope::analysis::StudyConfig::quick();
    assert_eq!(
        doc.get("latency")
            .and_then(|l| l.get("month"))
            .and_then(|h| h.get("count"))
            .and_then(Json::as_u64),
        Some(quick.start.iter_through(quick.end).count() as u64),
    );

    // Scan export: schema tag plus the sweep row's host figure.
    let text = std::fs::read_to_string(&scan_path).expect("scan json written");
    let doc = Json::parse(&text).expect("scan json parses");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some(tlscope::scanner::ScanMetricsSnapshot::SCHEMA)
    );
    let counts = doc.get("counts").expect("counts");
    // `  sweep  <sweeps> sweeps  <hosts> hosts ...`
    assert_eq!(
        counts.get("hosts_probed").and_then(Json::as_u64),
        Some(render_token(&stderr, "sweep", 3))
    );
    // The two-part ledger survives the export round trip.
    let probed = counts.get("hosts_probed").and_then(Json::as_u64).unwrap();
    let dropped = counts.get("hosts_dropped").and_then(Json::as_u64).unwrap();
    assert_eq!(
        counts.get("hosts_dispatched").and_then(Json::as_u64),
        Some(probed + dropped)
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// The `counts` sections are a pure function of the study: two
/// identical runs export equal counts on both apertures, whatever the
/// clocks and the scheduling-dependent parse-cache figures read.
#[test]
fn counts_repeat_between_identical_runs() {
    let dir = scratch_dir("repeat");
    let counts: Vec<(Json, Json)> = (0..2)
        .map(|run| {
            let stats_path = dir.join(format!("stats{run}.json"));
            let scan_path = dir.join(format!("scan{run}.json"));
            let out = run_repro(&[
                "--quick",
                "--stats-json",
                stats_path.to_str().unwrap(),
                "--scan-stats-json",
                scan_path.to_str().unwrap(),
                "fig2",
                "censys",
            ]);
            assert!(
                out.status.success(),
                "repro failed: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let section = |path: &PathBuf| {
                let text = std::fs::read_to_string(path).expect("stats json written");
                let doc = Json::parse(&text).expect("stats json parses");
                doc.get("counts").expect("counts section").clone()
            };
            (section(&stats_path), section(&scan_path))
        })
        .collect();
    assert_eq!(counts[0].0, counts[1].0, "pipeline counts differ");
    assert_eq!(counts[0].1, counts[1].1, "scan counts differ");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stats_json_flag_requires_a_path() {
    let out = run_repro(&["--stats-json"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--stats-json needs a path"), "{stderr}");
}

/// A scan fault profile name that resolves to nothing is refused
/// before any work (it would run `none` under the name it was given);
/// a real one is echoed by its resolved name and loses hosts.
#[test]
fn scan_fault_profile_is_resolved_or_refused() {
    let args = ["--quick", "--scan-stats", "scan-accounting"];
    let out = run_repro_with(&args, &[("TLSCOPE_SCAN_FAULT_PROFILE", "strss")]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("TLSCOPE_SCAN_FAULT_PROFILE=strss")
            && stderr.contains("none, defaults, stress"),
        "{stderr}"
    );
    assert!(
        !stderr.contains("# tlscope repro"),
        "work started: {stderr}"
    );
    assert!(out.stdout.is_empty());

    let out = run_repro_with(&args, &[("TLSCOPE_SCAN_FAULT_PROFILE", "stress")]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(
        stderr.contains("# scan fault profile: stress\n"),
        "{stderr}"
    );
    // `  accounting  <dispatched> dispatched <probed> probed <dropped> dropped ..`
    assert!(render_token(&stderr, "accounting", 5) > 0, "{stderr}");
}
