//! Property test for checkpoint/resume: for any tap fault mix —
//! including the extended faults (mid-flow gaps, flow duplication,
//! outage windows) — and any worker count 1–8, a study killed
//! mid-window and resumed from its checkpoint directory produces an
//! aggregate bit-identical to the uninterrupted serial run, and the
//! flow-accounting invariant `dispatched = ingested + quarantined`
//! holds throughout.

use std::path::PathBuf;

use proptest::prelude::*;
use tlscope_analysis::{Study, StudyConfig};
use tlscope_chron::Month;
use tlscope_notary::PipelineMetrics;
use tlscope_traffic::FaultInjector;

fn fault_mix() -> impl Strategy<Value = FaultInjector> {
    (0usize..4).prop_map(|i| match i {
        0 => FaultInjector::none(),
        // The extended faults the ISSUE names: outages + duplication.
        1 => FaultInjector {
            gap_prob: 0.4,
            duplicate_prob: 0.3,
            outage_prob: 0.4,
            ..FaultInjector::none()
        },
        2 => FaultInjector::stress(),
        _ => FaultInjector {
            truncate_prob: 0.5,
            corrupt_prob: 0.5,
            duplicate_prob: 0.2,
            ..FaultInjector::none()
        },
    })
}

fn unique_dir(seed: u64, workers: usize) -> PathBuf {
    let pid = std::process::id();
    let t = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .as_nanos();
    std::env::temp_dir().join(format!("tlscope-prop-resume-{seed}-{workers}-{pid}-{t}"))
}

proptest! {
    // Each case runs three short studies; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(10))]
    #[test]
    fn resumed_checkpoint_equals_uninterrupted_serial(
        seed in 0u64..1_000_000,
        workers in 1usize..=8,
        n in 40u32..120,
        faults in fault_mix(),
    ) {
        let mut cfg = StudyConfig::quick();
        cfg.seed = seed;
        cfg.connections_per_month = n;
        cfg.start = Month::ym(2016, 1);
        cfg.end = Month::ym(2016, 3);
        cfg.workers = 1;
        cfg.faults = faults;
        let serial = Study::new(cfg.clone()).run_passive();

        // A run killed after two completed months...
        let dir = unique_dir(seed, workers);
        let mut killed = cfg.clone();
        killed.end = Month::ym(2016, 2);
        killed.workers = workers;
        killed.checkpoint_dir = Some(dir.clone());
        let _ = Study::new(killed).run_passive();

        // ...resumed sharded over the full window.
        let mut resumed_cfg = cfg.clone();
        resumed_cfg.workers = workers;
        resumed_cfg.checkpoint_dir = Some(dir.clone());
        let metrics = PipelineMetrics::new();
        let resumed = Study::new(resumed_cfg).try_run_passive_metered(&metrics).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        prop_assert_eq!(&resumed, &serial);
        let s = metrics.snapshot();
        prop_assert!(s.accounting_holds());
        prop_assert_eq!(s.shards_lost, 0);
    }
}
