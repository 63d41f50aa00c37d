//! Property tests for the durable scan campaign: a campaign
//! interrupted after any number of completed dates, at any worker
//! count 1–8, under any fault profile — with its checkpoint store then
//! truncated, bit-flipped, or littered with leftover `.tmp` files —
//! must resume to snapshots and a ledger bit-identical to an
//! uninterrupted run, with the quarantine counters accounting for
//! every damaged file. Plus a fuzz pass over the scan checkpoint
//! parser: arbitrary mutations never panic it.

use std::path::{Path, PathBuf};

use proptest::prelude::*;
use tlscope_chron::Date;
use tlscope_durable::StoreError;
use tlscope_scanner::checkpoint;
use tlscope_scanner::{
    schedule, sweep_sharded_with, DateCheckpoint, ScanCampaign, ScanFaults, ScanMetrics,
    ScanMetricsSnapshot,
};
use tlscope_servers::ServerPopulation;

fn fault_profile() -> impl Strategy<Value = ScanFaults> {
    (0usize..3).prop_map(|i| match i {
        0 => ScanFaults::none(),
        1 => ScanFaults::scan_defaults(),
        _ => ScanFaults::stress(),
    })
}

/// How to damage one checkpoint file before resuming.
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

fn unique_dir(tag: u64) -> PathBuf {
    let pid = std::process::id();
    let t = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .as_nanos();
    std::env::temp_dir().join(format!("tlscope-prop-scan-{tag}-{pid}-{t}"))
}

/// The core scan-ledger counters (wall-clock time and checkpoint
/// bookkeeping excluded).
fn ledger_core(s: &ScanMetricsSnapshot) -> [u64; 9] {
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

proptest! {
    // Each case runs three short campaigns; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(10))]
    /// Interrupt anywhere, damage anything, resume: bit-identical.
    #[test]
    fn interrupted_damaged_campaign_resumes_bit_identically(
        seed in 0u64..1_000_000,
        workers in 1usize..=8,
        hosts in 100u32..250,
        faults in fault_profile(),
        interrupt_after in 0usize..=6,
        dmg in damage(),
        damage_count in 0usize..=2,
        leave_tmp in 0usize..2,
    ) {
        let campaign = ScanCampaign {
            dates: schedule(Date::ymd(2016, 1, 1), Date::ymd(2016, 6, 30), 30),
            hosts_per_sweep: hosts,
            seed,
            faults,
        };
        let pop = ServerPopulation::new();
        let n = campaign.dates.len();
        let clean_metrics = ScanMetrics::new();
        let expected = campaign.run_parallel(&pop, workers, &clean_metrics);

        // Interrupt: only the first `interrupt_after` dates complete
        // before the campaign dies.
        let k = interrupt_after.min(n);
        let dir = unique_dir(seed);
        let mut killed = campaign.clone();
        killed.dates.truncate(k);
        killed
            .run_durable(&pop, workers, &ScanMetrics::new(), Some(&dir))
            .unwrap();

        // Damage up to `damage_count` of the checkpoints it left.
        let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
            .map(|rd| rd.map(|e| e.unwrap().path()).collect())
            .unwrap_or_default();
        files.sort();
        let damaged = damage_count.min(files.len());
        for path in files.iter().take(damaged) {
            inflict(path, dmg);
        }
        // A crash mid-write leaves a stray tmp file; it must be inert.
        if leave_tmp == 1 {
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(dir.join("2016-01-01.ckpt.tmp"), "torn write").unwrap();
        }

        // Resume over the full window.
        let metrics = ScanMetrics::new();
        let resumed = campaign
            .run_durable(&pop, workers, &metrics, Some(&dir))
            .unwrap();
        prop_assert_eq!(&resumed, &expected);
        let s = metrics.snapshot();
        prop_assert!(s.accounting_holds(), "{:?}", s);
        prop_assert_eq!(s.checkpoints_quarantined, damaged as u64);
        prop_assert_eq!(s.checkpoints_loaded, (k - damaged) as u64);
        prop_assert_eq!(s.checkpoints_written, (n - (k - damaged)) as u64);
        prop_assert_eq!(ledger_core(&s), ledger_core(&clean_metrics.snapshot()));
        // Every damaged file is parked as *.ckpt.bad, none silently lost.
        let bad = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .path()
                    .to_string_lossy()
                    .ends_with(".ckpt.bad")
            })
            .count();
        prop_assert_eq!(bad, damaged);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// One mutation of a checkpoint text (structural or byte-level).
#[derive(Debug, Clone)]
enum Mutation {
    Truncate(usize),
    FlipByte(usize, u8),
    DeleteLine(usize),
    DuplicateLine(usize),
    InsertLine(usize, String),
}

fn mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (0usize..1024).prop_map(Mutation::Truncate),
        ((0usize..1024), (1u8..255)).prop_map(|(i, m)| Mutation::FlipByte(i, m)),
        (0usize..8).prop_map(Mutation::DeleteLine),
        (0usize..8).prop_map(Mutation::DuplicateLine),
        ((0usize..8), (0u64..u64::MAX))
            .prop_map(|(i, s)| Mutation::InsertLine(i, format!("junk\t{s:x}"))),
    ]
}

fn apply(text: &str, m: &Mutation) -> String {
    match m {
        Mutation::Truncate(at) => {
            let mut bytes = text.as_bytes().to_vec();
            bytes.truncate(*at % (bytes.len() + 1));
            String::from_utf8_lossy(&bytes).into_owned()
        }
        Mutation::FlipByte(at, mask) => {
            let mut bytes = text.as_bytes().to_vec();
            if !bytes.is_empty() {
                let i = at % bytes.len();
                bytes[i] ^= mask;
            }
            String::from_utf8_lossy(&bytes).into_owned()
        }
        Mutation::DeleteLine(j) => {
            let mut lines: Vec<&str> = text.lines().collect();
            if !lines.is_empty() {
                lines.remove(j % lines.len());
            }
            rejoin(text, lines)
        }
        Mutation::DuplicateLine(j) => {
            let mut lines: Vec<&str> = text.lines().collect();
            if !lines.is_empty() {
                let line = lines[j % lines.len()];
                let at = j % (lines.len() + 1);
                lines.insert(at, line);
            }
            rejoin(text, lines)
        }
        Mutation::InsertLine(j, s) => {
            let mut lines: Vec<&str> = text.lines().collect();
            let at = j % (lines.len() + 1);
            lines.insert(at, s);
            rejoin(text, lines)
        }
    }
}

fn rejoin(original: &str, lines: Vec<&str>) -> String {
    let mut out = lines.join("\n");
    if original.ends_with('\n') && !out.is_empty() {
        out.push('\n');
    }
    out
}

fn error_path(e: &StoreError) -> &Path {
    match e {
        StoreError::Io(p, _)
        | StoreError::Malformed(p, _)
        | StoreError::Corrupt(p)
        | StoreError::Foreign(p, _) => p,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// Mutated scan checkpoint texts parse cleanly or fail as damage
    /// with the caller's path — never a panic, never an Io error. With
    /// `reseal` the mutated body is sealed again, so the mutation gets
    /// past the checksum and reaches the record parser.
    #[test]
    fn mutated_scan_checkpoint_never_panics(
        seed in 0u64..1_000,
        muts in proptest::collection::vec(mutation(), 1..4),
        reseal in any::<bool>(),
    ) {
        let pop = ServerPopulation::new();
        let date = Date::ymd(2016, 9, 1);
        let date_metrics = ScanMetrics::new();
        let snapshot = sweep_sharded_with(
            &pop,
            date,
            200,
            seed,
            1,
            &date_metrics,
            &ScanFaults::scan_defaults(),
        );
        let ckpt = DateCheckpoint {
            snapshot,
            ledger: date_metrics.snapshot(),
        };
        let text = checkpoint::to_text(&ckpt);
        let mutated = if reseal {
            let body = tlscope_durable::open_sealed(&text).unwrap().to_string();
            tlscope_durable::seal(muts.iter().fold(body, |t, m| apply(&t, m)))
        } else {
            muts.iter().fold(text, |t, m| apply(&t, m))
        };
        let path = Path::new("fuzz/2016-09-01.ckpt");
        match checkpoint::from_text(&mutated, path) {
            Ok(parsed) => {
                // A surviving parse must itself round-trip.
                let again = checkpoint::from_text(&checkpoint::to_text(&parsed), path).unwrap();
                prop_assert_eq!(parsed, again);
            }
            Err(e) => {
                prop_assert!(e.is_damage(), "unexpected error class: {e}");
                prop_assert_eq!(error_path(&e), path);
            }
        }
    }
}
