//! Study-level durability property: for either aperture — the passive
//! monthly pipeline or the active scan campaign — a checkpointed run
//! that is interrupted at an arbitrary point and whose store is then
//! damaged (files truncated, bit-flipped, or shadowed by a leftover
//! `.tmp`) resumes to results bit-identical to a clean run, with the
//! loaded / quarantined / written counters accounting for every file.
//!
//! Interruption is simulated by deleting a suffix of a fully
//! checkpointed store: the surviving prefix is byte-identical to what
//! a run killed at that point would have left behind.

use std::path::{Path, PathBuf};

use proptest::prelude::*;
use tlscope_analysis::{Study, StudyConfig};
use tlscope_chron::Month;
use tlscope_notary::PipelineMetrics;
use tlscope_scanner::{ScanFaults, ScanMetrics};
use tlscope_traffic::FaultInjector;

#[derive(Debug, Clone, Copy)]
enum Damage {
    TruncateHalf,
    TruncateToZero,
    FlipByte(usize, u8),
}

fn damage() -> impl Strategy<Value = Damage> {
    prop_oneof![
        Just(Damage::TruncateHalf),
        Just(Damage::TruncateToZero),
        ((0usize..4096), (1u8..255)).prop_map(|(i, m)| Damage::FlipByte(i, m)),
    ]
}

fn inflict(path: &Path, d: Damage) {
    let mut bytes = std::fs::read(path).unwrap();
    match d {
        Damage::TruncateHalf => bytes.truncate(bytes.len() / 2),
        Damage::TruncateToZero => bytes.clear(),
        Damage::FlipByte(at, mask) => {
            let i = at % bytes.len();
            bytes[i] ^= mask;
        }
    }
    std::fs::write(path, bytes).unwrap();
}

fn tap_faults() -> impl Strategy<Value = FaultInjector> {
    (0usize..3).prop_map(|i| match i {
        0 => FaultInjector::none(),
        1 => FaultInjector::stress(),
        _ => FaultInjector {
            truncate_prob: 0.3,
            duplicate_prob: 0.2,
            ..FaultInjector::none()
        },
    })
}

fn scan_faults() -> impl Strategy<Value = ScanFaults> {
    (0usize..3).prop_map(|i| match i {
        0 => ScanFaults::none(),
        1 => ScanFaults::scan_defaults(),
        _ => ScanFaults::stress(),
    })
}

fn unique_dir(tag: &str, seed: u64) -> PathBuf {
    let pid = std::process::id();
    let t = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .as_nanos();
    std::env::temp_dir().join(format!("tlscope-prop-durable-{tag}-{seed}-{pid}-{t}"))
}

/// Checkpoint files in the store, sorted (months and dates both sort
/// lexicographically in this format).
fn store_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|rd| rd.map(|e| e.unwrap().path()).collect())
        .unwrap_or_default();
    files.retain(|p| p.extension().is_some_and(|x| x == "ckpt"));
    files.sort();
    files
}

proptest! {
    // Each case runs two full studies per aperture; keep it modest.
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn damaged_interrupted_studies_resume_bit_identically(
        seed in 0u64..1_000_000,
        workers in 1usize..=8,
        deleted in 0usize..=2,
        damaged in 0usize..=2,
        dmg in damage(),
        tap in tap_faults(),
        scan in scan_faults(),
    ) {
        let mut cfg = StudyConfig::quick();
        cfg.seed = seed;
        cfg.start = Month::ym(2016, 1);
        cfg.end = Month::ym(2016, 4);
        cfg.connections_per_month = 120;
        cfg.scan_hosts = 60;
        cfg.workers = workers;
        cfg.faults = tap;
        cfg.scan_faults = scan;

        // --- Passive aperture ---
        let clean = Study::new(cfg.clone()).run_passive();
        let dir = unique_dir("passive", seed);
        let mut ckpt_cfg = cfg.clone();
        ckpt_cfg.checkpoint_dir = Some(dir.clone());
        let _ = Study::new(ckpt_cfg.clone()).run_passive();
        let files = store_files(&dir);
        let total = files.len();
        // Interrupt: drop the last `del` checkpoints; damage the first
        // `dam` of what survives.
        let del = deleted.min(total);
        for path in files.iter().rev().take(del) {
            std::fs::remove_file(path).unwrap();
        }
        let dam = damaged.min(total - del);
        for path in files.iter().take(dam) {
            inflict(path, dmg);
        }
        std::fs::write(dir.join("2016-01.ckpt.tmp"), "torn write").unwrap();
        let metrics = PipelineMetrics::new();
        let resumed = Study::new(ckpt_cfg).try_run_passive_metered(&metrics).unwrap();
        prop_assert_eq!(&resumed, &clean);
        let s = metrics.snapshot();
        prop_assert!(s.accounting_holds());
        prop_assert_eq!(s.checkpoints_loaded, (total - del - dam) as u64);
        prop_assert_eq!(s.checkpoints_quarantined, dam as u64);
        prop_assert_eq!(s.checkpoints_written, (del + dam) as u64);
        std::fs::remove_dir_all(&dir).ok();

        // --- Active aperture ---
        let clean_scans = Study::new(cfg.clone()).run_active();
        let scan_dir = unique_dir("scan", seed);
        let mut scan_cfg = cfg.clone();
        scan_cfg.scan_checkpoint_dir = Some(scan_dir.clone());
        let _ = Study::new(scan_cfg.clone()).run_active();
        let files = store_files(&scan_dir);
        let total = files.len();
        prop_assert_eq!(total, clean_scans.len());
        let del = deleted.min(total);
        for path in files.iter().rev().take(del) {
            std::fs::remove_file(path).unwrap();
        }
        let dam = damaged.min(total - del);
        for path in files.iter().take(dam) {
            inflict(path, dmg);
        }
        std::fs::write(scan_dir.join("2015-08-22.ckpt.tmp"), "torn write").unwrap();
        let scan_metrics = ScanMetrics::new();
        let resumed_scans = Study::new(scan_cfg)
            .try_run_active_metered(&scan_metrics)
            .unwrap();
        prop_assert_eq!(&resumed_scans, &clean_scans);
        let s = scan_metrics.snapshot();
        prop_assert!(s.accounting_holds(), "{:?}", s);
        prop_assert_eq!(s.checkpoints_loaded, (total - del - dam) as u64);
        prop_assert_eq!(s.checkpoints_quarantined, dam as u64);
        prop_assert_eq!(s.checkpoints_written, (del + dam) as u64);
        std::fs::remove_dir_all(&scan_dir).ok();
    }
}
