//! The benchmark checked on itself, at smoke scale: its metric names
//! are the ones `BENCHMARK.json` declares, every workload verifies,
//! the seed reaches the inputs, `resume-warm` really is warm, and the
//! traced run computes what the untraced one does and writes a
//! well-formed span tree.

use std::path::PathBuf;

use tlscope::obs::Json;
use tlscope_benchmark::trace::{run_traced, Span};
use tlscope_benchmark::workloads::{
    remove_dir, run, Budget, Inputs, Scale, Workload, PULSE_SURVEYS,
};
use tlscope_benchmark::{END_TO_END, PER_LAYER};

/// Two reps, so every rep is checked against a reference computed
/// after it and reps are compared with each other.
const BUDGET: Budget = Budget {
    seconds: 0.0,
    min_reps: 2,
};

fn inputs(workload: Workload, seed: u64, test: &str) -> Inputs {
    Inputs {
        workload,
        seed,
        scale: Scale::smoke(),
        workers: 2,
        scratch: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("{test}-{}-seed{seed}", workload.name())),
    }
}

fn names(list: &[(&str, &str)]) -> Vec<String> {
    list.iter().map(|(n, _)| n.to_string()).collect()
}

/// `(name, unit)` pairs of one `BENCHMARK.json` metric list.
fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
    let field = |m: &Json, k: &str| {
        m.get(k)
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string()
    };
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

#[test]
fn metric_and_workload_names_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared(&doc, "end_to_end"), own(END_TO_END));
    assert_eq!(declared(&doc, "per_layer"), own(PER_LAYER));
    let workloads: Vec<String> = declared(&doc, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn every_workload_verifies_and_follows_its_seed() {
    for w in Workload::ALL {
        let first = inputs(w, 1, "seeded");
        let a = run(&first, BUDGET).unwrap();
        let b = run(&first, BUDGET).unwrap();
        let other = run(&inputs(w, 2, "seeded"), BUDGET).unwrap();
        remove_dir(&first.scratch).unwrap();
        remove_dir(&inputs(w, 2, "seeded").scratch).unwrap();

        assert!(a.attempted > 0, "{}", w.name());
        assert_eq!(a.failed, 0, "{}: {:?}", w.name(), a.failures);
        assert!(a.reps_match, "{}", w.name());
        assert_eq!(a.rep_s.len(), 2);
        let emitted: Vec<String> = a.metrics().iter().map(|m| m.name.to_string()).collect();
        assert_eq!(emitted, names(END_TO_END));
        assert!(
            a.metrics().iter().all(|m| m.value > 0.0),
            "{:?}",
            a.metrics()
        );

        let counts = |r: &tlscope_benchmark::workloads::Report| {
            (r.digest, r.attempted, r.flows_generated, r.hosts_probed)
        };
        assert_eq!(
            counts(&a),
            counts(&b),
            "{}: same seed, same inputs",
            w.name()
        );
        assert_ne!(
            a.digest,
            other.digest,
            "{}: the seed reaches the inputs",
            w.name()
        );
    }
}

#[test]
fn resume_warm_regenerates_nothing() {
    let i = inputs(Workload::ResumeWarm, 3, "warm");
    let r = run(&i, BUDGET).unwrap();
    remove_dir(&i.scratch).unwrap();
    assert_eq!(r.failed, 0, "{:?}", r.failures);
    assert_eq!(r.flows_generated, 0);
    // Only the SSL-Pulse surveys probe live; every sweep date is loaded.
    assert_eq!(
        r.hosts_probed,
        PULSE_SURVEYS * u64::from(i.scale.scan_hosts)
    );
}

#[test]
fn traced_run_matches_untraced_and_writes_a_sane_span_tree() {
    for w in Workload::ALL {
        let i = inputs(w, 4, "traced");
        let t = run_traced(&i).unwrap();
        remove_dir(&i.scratch).unwrap();
        assert!(t.attempted > 0, "{}", w.name());
        assert_eq!(t.failed, 0, "{}", w.name());
        assert_eq!(t.digest, t.untraced_digest, "{}", w.name());
        let emitted: Vec<String> = t.metrics.iter().map(|m| m.name.to_string()).collect();
        assert_eq!(emitted, names(PER_LAYER));

        let doc = Json::parse(&t.to_json(&i)).unwrap();
        let spans = doc.get("spans").and_then(Json::as_array).unwrap();
        assert_eq!(spans.len(), t.tracer.spans().len());
        let parsed: Vec<Span> = spans
            .iter()
            .map(|s| {
                let n = |k: &str| s.get(k).and_then(Json::as_u64).unwrap();
                Span {
                    id: n("id") as usize,
                    parent: s.get("parent").and_then(Json::as_u64).map(|p| p as usize),
                    name: s.get("name").and_then(Json::as_str).unwrap().to_string(),
                    start_ns: n("start_ns"),
                    end_ns: n("end_ns"),
                    count: n("count"),
                    busy_ns: n("busy_ns"),
                }
            })
            .collect();
        assert_eq!(parsed, t.tracer.spans());
        for s in &parsed {
            let children: u64 = parsed
                .iter()
                .filter(|c| c.parent == Some(s.id))
                .map(|c| c.busy_ns)
                .sum();
            let duration = s.end_ns - s.start_ns;
            assert!(s.busy_ns <= duration, "{} busier than it is long", s.name);
            assert!(children <= duration, "{} has negative self time", s.name);
            if s.name.starts_with("month:") {
                assert!(
                    children as f64 >= 0.9 * duration as f64,
                    "layer spans cover {children} of {duration} ns in {}",
                    s.name
                );
            }
        }
    }
}
