//! Per-date checkpoint files for resumable scan campaigns.
//!
//! The paper's Censys campaign swept IPv4 weekly for almost three
//! years (§3.2); a crash 100 sweeps in must not force a restart from
//! zero. The campaign runner persists each completed date's
//! [`ScanSnapshot`] *and* its per-date [`ScanMetricsSnapshot`] ledger
//! to `<dir>/<YYYY-MM-DD>.ckpt`, and on resume reloads both: the
//! snapshot fills the date's slot in the campaign series, and the
//! ledger is replayed into the campaign's metrics bag
//! ([`ScanMetrics::add`](crate::ScanMetrics::add)) so the resumed
//! run's accounting — right down to the two-part invariant
//! `dispatched == probed + dropped` — is indistinguishable from an
//! uninterrupted run. Because every sweep is a pure function of
//! `(seed, date, host_index, attempt)`, the resumed series is
//! **bit-identical** (`PartialEq`) to a clean run at any worker count
//! and under any fault profile.
//!
//! This module owns only the record codec. The store — atomic writes,
//! the checksum footer, the directory scan that quarantines damaged
//! files to `*.ckpt.bad` so the campaign re-sweeps their dates, and
//! the study stamp — is [`tlscope_durable`]'s.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use tlscope_chron::Date;
use tlscope_durable::StoreError;

use crate::metrics::ScanMetricsSnapshot;
use crate::sweep::ScanSnapshot;

/// Versioned first line of every scan checkpoint file.
const HEADER: &str = "# tlscope scan checkpoint v1";

/// One completed campaign date: what the sweep measured and what it
/// cost. The ledger is the per-date [`ScanMetricsSnapshot`] recorded
/// while sweeping only this date, so replaying it on resume
/// reconstructs the campaign totals losslessly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DateCheckpoint {
    /// The sweep's measurement counters.
    pub snapshot: ScanSnapshot,
    /// The sweep's accounting ledger (core counters only; checkpoint
    /// counters are per-run and never persisted).
    pub ledger: ScanMetricsSnapshot,
}

/// Serialize one completed date to checkpoint text: versioned header,
/// a `snap` line, a `ledger` line, and a checksum footer. Field order
/// is fixed, so equal checkpoints produce equal bytes.
pub fn to_text(ckpt: &DateCheckpoint) -> String {
    let s = &ckpt.snapshot;
    let l = &ckpt.ledger;
    let mut out = String::from(HEADER);
    out.push('\n');
    out.push_str(&format!(
        "snap\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
        s.date,
        s.hosts,
        s.ssl3_supported,
        s.answered,
        s.chose_aead,
        s.chose_cbc,
        s.chose_rc4,
        s.chose_3des,
        s.chose_tls12,
        s.export_supported,
        s.heartbeat_supported,
        s.heartbleed_vulnerable,
    ));
    out.push_str(&format!(
        "ledger\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
        l.hosts_dispatched,
        l.hosts_probed,
        l.hosts_dropped,
        l.host_retries,
        l.probes_sent,
        l.handshakes_completed,
        l.handshakes_refused,
        l.probes_timed_out,
        l.workers_lost,
        l.sweeps_completed,
        l.scan_nanos,
    ));
    tlscope_durable::seal(out)
}

/// Parse checkpoint text read from `path` back into a
/// [`DateCheckpoint`]. A wrong header or any unparseable record is
/// [`StoreError::Malformed`]; a failed checksum is
/// [`StoreError::Corrupt`].
pub fn from_text(text: &str, path: &Path) -> Result<DateCheckpoint, StoreError> {
    let bad = |n: usize| StoreError::Malformed(path.to_path_buf(), n);
    // Both section lines carry exactly eleven u64 counters (the snap
    // line after its leading date field).
    fn counters(fields: &mut std::str::Split<'_, char>) -> Option<[u64; 11]> {
        let mut out = [0u64; 11];
        for slot in &mut out {
            *slot = fields.next()?.parse().ok()?;
        }
        fields.next().is_none().then_some(out)
    }
    let mut snapshot: Option<ScanSnapshot> = None;
    let mut ledger: Option<ScanMetricsSnapshot> = None;
    let mut last = 1;
    for (n, line) in tlscope_durable::open_unit(text, HEADER, path)? {
        last = n;
        let (tag, rest) = line.split_once('\t').ok_or(bad(n))?;
        let mut f = rest.split('\t');
        match tag {
            "snap" if snapshot.is_none() => {
                let date: Date = f.next().and_then(|v| v.parse().ok()).ok_or(bad(n))?;
                let c = counters(&mut f).ok_or(bad(n))?;
                snapshot = Some(ScanSnapshot {
                    date,
                    hosts: c[0],
                    ssl3_supported: c[1],
                    answered: c[2],
                    chose_aead: c[3],
                    chose_cbc: c[4],
                    chose_rc4: c[5],
                    chose_3des: c[6],
                    chose_tls12: c[7],
                    export_supported: c[8],
                    heartbeat_supported: c[9],
                    heartbleed_vulnerable: c[10],
                });
            }
            "ledger" if ledger.is_none() => {
                let c = counters(&mut f).ok_or(bad(n))?;
                ledger = Some(ScanMetricsSnapshot {
                    hosts_dispatched: c[0],
                    hosts_probed: c[1],
                    hosts_dropped: c[2],
                    host_retries: c[3],
                    probes_sent: c[4],
                    handshakes_completed: c[5],
                    handshakes_refused: c[6],
                    probes_timed_out: c[7],
                    workers_lost: c[8],
                    sweeps_completed: c[9],
                    scan_nanos: c[10],
                    checkpoints_written: 0,
                    checkpoints_loaded: 0,
                    checkpoints_quarantined: 0,
                });
            }
            // Duplicate sections or unknown tags are malformed.
            _ => return Err(bad(n)),
        }
    }
    match (snapshot, ledger) {
        (Some(snapshot), Some(ledger)) => Ok(DateCheckpoint { snapshot, ledger }),
        // A missing section means the body ended early.
        _ => Err(bad(last + 1)),
    }
}

/// Atomically write the checkpoint for one completed date.
pub fn write_date(dir: &Path, ckpt: &DateCheckpoint) -> Result<(), StoreError> {
    tlscope_durable::write_unit(dir, ckpt.snapshot.date, &to_text(ckpt))
}

/// Result of scanning a scan-checkpoint directory with [`load_dir`].
#[derive(Debug)]
pub struct ScanDirLoad {
    /// Dates whose checkpoints loaded cleanly, with their contents.
    pub completed: BTreeMap<Date, DateCheckpoint>,
    /// Quarantine paths (`*.ckpt.bad`) of damaged files that were
    /// moved aside; their dates are *not* in `completed`, so the
    /// campaign re-sweeps them.
    pub quarantined: Vec<PathBuf>,
}

/// Scan a checkpoint directory for completed campaign dates.
///
/// A missing directory is a valid cold start. A damaged file
/// (malformed, truncated, failing its checksum, or carrying another
/// date than its name) is quarantined — renamed to `<date>.ckpt.bad` —
/// and its date reported incomplete, so a resume re-sweeps it instead
/// of aborting; only filesystem errors abort.
pub fn load_dir(dir: &Path) -> Result<ScanDirLoad, StoreError> {
    let mut completed = BTreeMap::new();
    let quarantined = tlscope_durable::load_units(dir, |date: Date, text, path| {
        let ckpt = from_text(text, path)?;
        // The snap line, which carries the date, is line 2.
        if ckpt.snapshot.date != date {
            return Err(StoreError::Malformed(path.to_path_buf(), 2));
        }
        completed.insert(date, ckpt);
        Ok(())
    })?;
    Ok(ScanDirLoad {
        completed,
        quarantined,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::ScanFaults;
    use crate::metrics::ScanMetrics;
    use crate::sweep::sweep_sharded_with;
    use tlscope_servers::ServerPopulation;

    fn unique_dir(tag: &str) -> PathBuf {
        let pid = std::process::id();
        let t = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos();
        std::env::temp_dir().join(format!("tlscope-scan-ckpt-{tag}-{pid}-{t}"))
    }

    fn sample_checkpoint(date: Date) -> DateCheckpoint {
        let pop = ServerPopulation::new();
        let metrics = ScanMetrics::new();
        let snapshot = sweep_sharded_with(
            &pop,
            date,
            400,
            41,
            1,
            &metrics,
            &ScanFaults::scan_defaults(),
        );
        DateCheckpoint {
            snapshot,
            ledger: metrics.snapshot(),
        }
    }

    #[test]
    fn roundtrip_is_bit_identical() {
        let ckpt = sample_checkpoint(Date::ymd(2016, 3, 5));
        assert!(ckpt.ledger.accounting_holds());
        assert!(ckpt.snapshot.answered > 0, "sample must probe something");
        let text = to_text(&ckpt);
        assert!(text.starts_with(HEADER));
        let back = from_text(&text, Path::new("test")).unwrap();
        assert_eq!(ckpt, back, "checkpoint text must be lossless");
        assert_eq!(text, to_text(&back));
    }

    /// The on-disk bytes of a fixed sample, pinned so a codec change
    /// cannot silently change the file format. The sweep clock is the
    /// one ledger figure that differs between runs, so it is fixed.
    #[test]
    fn checkpoint_bytes_are_pinned() {
        let mut ckpt = sample_checkpoint(Date::ymd(2016, 3, 5));
        ckpt.ledger.scan_nanos = 1_234_567;
        assert_eq!(
            tlscope_durable::fnv1a64(to_text(&ckpt).as_bytes()),
            0x1fbd_f9c3_1594_b323
        );
    }

    /// `load_dir` keeps the intact dates and quarantines a date file
    /// that holds another date's sweep.
    #[test]
    fn load_dir_keeps_dates_and_quarantines_misnamed_files() {
        let dir = unique_dir("dir");
        let (d1, d2) = (Date::ymd(2016, 3, 5), Date::ymd(2016, 4, 4));
        let c1 = sample_checkpoint(d1);
        write_date(&dir, &c1).unwrap();
        std::fs::copy(
            dir.join(format!("{d1}.ckpt")),
            dir.join(format!("{d2}.ckpt")),
        )
        .unwrap();
        let load = load_dir(&dir).unwrap();
        assert_eq!(
            load.completed.into_iter().collect::<Vec<_>>(),
            vec![(d1, c1)]
        );
        assert_eq!(load.quarantined, vec![dir.join(format!("{d2}.ckpt.bad"))]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn malformed_and_corrupt_texts_are_rejected() {
        let p = Path::new("x");
        assert!(matches!(from_text("", p), Err(StoreError::Malformed(_, 1))));
        assert!(matches!(
            from_text("# some other file\n", p),
            Err(StoreError::Malformed(_, 1))
        ));
        // Right header, no footer: truncation.
        assert!(matches!(
            from_text("# tlscope scan checkpoint v1\n", p),
            Err(StoreError::Corrupt(_))
        ));
        // Sealed but missing the ledger section.
        let half = tlscope_durable::seal(format!(
            "{HEADER}\nsnap\t2016-03-05\t1\t1\t1\t1\t1\t1\t1\t1\t1\t1\t1\n"
        ));
        assert!(matches!(
            from_text(&half, p),
            Err(StoreError::Malformed(_, 3))
        ));
        // Sealed but with a bogus tag.
        let bogus = tlscope_durable::seal(format!("{HEADER}\nwhat\tis\tthis\n"));
        assert!(matches!(
            from_text(&bogus, p),
            Err(StoreError::Malformed(_, 2))
        ));
        // Errors render with context.
        let err = from_text(&bogus, p).unwrap_err();
        assert!(err.to_string().contains("line 2"));
        let err = from_text("# tlscope scan checkpoint v1\n", p).unwrap_err();
        assert!(err.to_string().contains("checksum"));
    }
}
