//! Checkpoint stores and the supervised unit runner shared by the
//! passive (`tlscope-notary`) and active (`tlscope-scanner`)
//! apertures.
//!
//! A store is a directory holding one sealed text file per completed
//! unit of work (`<key>.ckpt`: a month, a sweep date) and a stamp
//! naming the study the units belong to. Long-running campaigns must
//! survive the classic failure modes of such state: torn writes (crash
//! mid-`write`), truncation (crash mid-`rename`, full disk), bit rot,
//! and a store left behind by another study. This crate owns every
//! part of a store except the record codec, which each aperture keeps:
//!
//! - [`seal`] / [`open_sealed`] — append and verify an FNV-1a content
//!   checksum footer, so any damaged file is *detected* at load time
//!   instead of silently mis-parsed;
//! - [`write_unit`] / [`open_unit`] — write one unit file atomically,
//!   and check a unit text's header line and checksum;
//! - [`load_units`] — load every unit of a store on the caller's
//!   workers, quarantining damaged files (`<key>.ckpt.bad`) so the
//!   caller recomputes their units;
//! - [`claim`] — stamp a store for one study and refuse it to any
//!   other;
//! - [`StoreError`] — the one error type of both stores;
//! - [`write_atomic`] — tmp+rename writes, so a crash never leaves a
//!   half-written file under the final name;
//! - [`run_units`] / [`isolate`] — the one runner for units of work
//!   (months, sweep dates, SSL-Pulse surveys, the files of a store
//!   load) and the panic boundary inside them (see [`runner`]).
//!
//! Everything here is `std`-only (`tlscope-obs`, for the heartbeat, is
//! too) and deliberately free of any tlscope domain types.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};

pub mod runner;

pub use runner::{isolate, run_units, Committed};
use tlscope_obs::Progress;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Tag prefix of the checksum footer line appended by [`seal`].
pub const FOOTER_PREFIX: &str = "sum\tfnv1a:";

/// FNV-1a 64-bit hash of `bytes`. Pure in-tree (no dependency), fast
/// enough for checkpoint-sized payloads, and stable across platforms —
/// exactly what a content checksum footer needs. Not cryptographic:
/// it detects corruption, not tampering.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Why a sealed text failed verification in [`open_sealed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SealViolation {
    /// No checksum footer line at the end of the text (truncated file,
    /// or a file that was never sealed).
    MissingFooter,
    /// A footer line is present but its hex digest does not parse.
    MalformedFooter,
    /// The digest parsed but does not match the body's content hash.
    ChecksumMismatch,
}

impl std::fmt::Display for SealViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SealViolation::MissingFooter => write!(f, "missing checksum footer"),
            SealViolation::MalformedFooter => write!(f, "malformed checksum footer"),
            SealViolation::ChecksumMismatch => write!(f, "checksum mismatch"),
        }
    }
}

/// Append the checksum footer line `sum\tfnv1a:<016x>\n` to `body`.
/// The digest covers every byte of `body` (including its trailing
/// newline), so any truncation, bit flip, or line mutation of the
/// sealed text is caught by [`open_sealed`].
pub fn seal(body: String) -> String {
    let digest = fnv1a64(body.as_bytes());
    let mut sealed = body;
    sealed.push_str(FOOTER_PREFIX);
    sealed.push_str(&format!("{digest:016x}\n"));
    sealed
}

/// Verify the checksum footer of a sealed text and return the body it
/// covers (the text with the footer line removed).
pub fn open_sealed(text: &str) -> Result<&str, SealViolation> {
    // A sealed text always ends in a newline; its absence means the
    // footer line itself was cut short.
    let trimmed = text
        .strip_suffix('\n')
        .ok_or(SealViolation::MissingFooter)?;
    let footer_start = match trimmed.rfind('\n') {
        Some(i) => i + 1,
        None => 0,
    };
    let footer = &trimmed[footer_start..];
    let hex = footer
        .strip_prefix(FOOTER_PREFIX)
        .ok_or(SealViolation::MissingFooter)?;
    let digest = u64::from_str_radix(hex, 16).map_err(|_| SealViolation::MalformedFooter)?;
    if hex.len() != 16 {
        return Err(SealViolation::MalformedFooter);
    }
    let body = &text[..footer_start];
    if fnv1a64(body.as_bytes()) != digest {
        return Err(SealViolation::ChecksumMismatch);
    }
    Ok(body)
}

/// Write `text` to `dir/file_name` atomically: the bytes land in
/// `dir/file_name.tmp` first and are renamed over the final name only
/// once fully written, so readers never observe a torn file under the
/// final name. Creates `dir` if missing. A leftover `.tmp` from a
/// crash is harmless — checkpoint loaders ignore non-`.ckpt` names.
pub fn write_atomic(dir: &Path, file_name: &str, text: &str) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    let tmp = dir.join(format!("{file_name}.tmp"));
    fs::write(&tmp, text)?;
    fs::rename(&tmp, dir.join(file_name))
}

/// Move a damaged file out of the way by renaming it to `<name>.bad`
/// (e.g. `2016-03.ckpt` → `2016-03.ckpt.bad`). The caller then
/// recomputes the lost state; the damaged bytes stay on disk for
/// inspection. Returns the quarantine path.
fn quarantine(path: &Path) -> io::Result<PathBuf> {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".bad");
    let bad = path.with_file_name(name);
    fs::rename(path, &bad)?;
    Ok(bad)
}

/// Suffix of a unit file. Nothing else in a store — the stamp, a
/// `.tmp` left by a crash, a quarantined `.bad` file — is a unit.
const UNIT_SUFFIX: &str = ".ckpt";
/// The stamp file [`claim`] writes; not a unit, by its suffix.
const STAMP_FILE: &str = "study.stamp";
/// First line of the stamp file.
const STAMP_HEADER: &str = "# tlscope study stamp v1";

/// Why a checkpoint store could not be read, written or claimed.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure (path carried for context).
    Io(PathBuf, io::Error),
    /// A unit file failed to parse, or holds another unit than its
    /// name claims; carries path and 1-based line.
    Malformed(PathBuf, usize),
    /// A unit file failed its content-checksum check (truncated, torn,
    /// or bit-rotted on disk).
    Corrupt(PathBuf),
    /// The store belongs to another study: its stamp names another
    /// study or is damaged, or it holds units but no stamp. Carries
    /// the store directory and the reason.
    Foreign(PathBuf, String),
}

impl StoreError {
    /// True when the error describes a damaged unit *file*
    /// (recoverable by quarantining it and recomputing its unit)
    /// rather than a failure that must abort the run.
    pub fn is_damage(&self) -> bool {
        matches!(self, StoreError::Malformed(..) | StoreError::Corrupt(..))
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(p, e) => write!(f, "checkpoint io error at {}: {e}", p.display()),
            StoreError::Malformed(p, line) => {
                write!(f, "malformed checkpoint {} (line {line})", p.display())
            }
            StoreError::Corrupt(p) => {
                write!(f, "corrupt checkpoint {} (checksum failed)", p.display())
            }
            StoreError::Foreign(dir, why) => write!(
                f,
                "checkpoint store {} belongs to another study: {why}",
                dir.display()
            ),
        }
    }
}

impl std::error::Error for StoreError {}

/// Atomically write one unit's sealed text to `dir/<key>.ckpt` (see
/// [`write_atomic`]).
pub fn write_unit(dir: &Path, key: impl std::fmt::Display, text: &str) -> Result<(), StoreError> {
    let name = format!("{key}{UNIT_SUFFIX}");
    write_atomic(dir, &name, text).map_err(|e| StoreError::Io(dir.join(name), e))
}

/// Check a unit text read from `path`: its first line must start with
/// the format's `header` ([`StoreError::Malformed`] at line 1
/// otherwise), and its checksum footer must verify
/// ([`StoreError::Corrupt`] otherwise). Returns the non-blank body
/// lines after the header with their 1-based line numbers.
pub fn open_unit<'a>(
    text: &'a str,
    header: &str,
    path: &Path,
) -> Result<impl Iterator<Item = (usize, &'a str)>, StoreError> {
    if !text.lines().next().unwrap_or("").starts_with(header) {
        return Err(StoreError::Malformed(path.to_path_buf(), 1));
    }
    let body = open_sealed(text).map_err(|_| StoreError::Corrupt(path.to_path_buf()))?;
    Ok((2..)
        .zip(body.lines().skip(1))
        .filter(|(_, line)| !line.trim().is_empty()))
}

/// Every unit file in `dir` whose stem parses as a `K`, with its path;
/// a missing directory holds none.
fn unit_files<K: FromStr>(dir: &Path) -> Result<Vec<(K, PathBuf)>, StoreError> {
    let io_err = |e| StoreError::Io(dir.to_path_buf(), e);
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(io_err(e)),
    };
    let mut units = Vec::new();
    for entry in entries {
        let entry = entry.map_err(io_err)?;
        let name = entry.file_name();
        let stem = name.to_str().and_then(|n| n.strip_suffix(UNIT_SUFFIX));
        if let Some(key) = stem.and_then(|s| s.parse().ok()) {
            units.push((key, entry.path()));
        }
    }
    Ok(units)
}

/// Load every unit of the store at `dir` on up to `workers` threads,
/// through [`run_units`].
///
/// Each `<key>.ckpt` whose stem parses as a `K` is one unit. Its
/// worker reads the file and hands its key, text and path to `unit`,
/// which parses the text and rejects records of another unit than
/// `key` as [`StoreError::Malformed`]. `commit` then folds the parsed
/// unit into the worker's own accumulator, so a worker holds one
/// unit's text and one parsed unit at a time. A damaged file — invalid
/// UTF-8, or rejected by `unit` with a damage error
/// ([`StoreError::is_damage`]) — is renamed to `<key>.ckpt.bad` by the
/// worker that read it, so the caller recomputes its unit. Any other
/// error aborts the load. A missing directory is a cold start.
///
/// Returns the workers' accumulators (which worker committed which
/// unit depends on scheduling) and the quarantine paths in key order.
///
/// # Panics
///
/// When a worker dies (`unit` or `commit` panicked): the units it
/// committed are lost with its accumulator, and a short load would
/// silently recompute or drop them.
pub fn load_units<K, P, A>(
    dir: &Path,
    workers: usize,
    unit: impl Fn(&K, &str, &Path) -> Result<P, StoreError> + Sync,
    commit: impl Fn(&mut A, &K, P) + Sync,
) -> Result<(Vec<A>, Vec<PathBuf>), StoreError>
where
    K: FromStr + Ord + Sync,
    A: Default + Send,
{
    let mut units = unit_files::<K>(dir)?;
    units.sort_by(|a, b| a.0.cmp(&b.0));
    let task = format!("load {}", dir.display());
    let progress = Progress::from_env(&task, units.len() as u64, "units", "bytes");
    let bytes = AtomicU64::new(0);
    let ran = run_units(
        units.len(),
        workers,
        &progress,
        || bytes.load(Ordering::Relaxed),
        |i| {
            let (key, path) = &units[i];
            let parsed = match fs::read_to_string(path) {
                Ok(text) => {
                    bytes.fetch_add(text.len() as u64, Ordering::Relaxed);
                    unit(key, &text, path)
                }
                // Bit rot can make a file invalid UTF-8; that is
                // damage to the file's content, not a filesystem
                // failure.
                Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                    Err(StoreError::Corrupt(path.clone()))
                }
                Err(e) => Err(StoreError::Io(path.clone(), e)),
            };
            match parsed {
                Ok(parsed) => Ok(Ok(parsed)),
                Err(e) if e.is_damage() => quarantine(path)
                    .map(Err)
                    .map_err(|e| StoreError::Io(path.clone(), e)),
                Err(e) => Err(e),
            }
        },
        |(acc, bad): &mut (A, Vec<(usize, PathBuf)>), i, parsed| match parsed {
            Ok(parsed) => commit(acc, &units[i].0, parsed),
            Err(path) => bad.push((i, path)),
        },
    )?;
    if ran.workers_lost > 0 {
        panic!(
            "checkpoint store {}: {} load worker(s) lost",
            dir.display(),
            ran.workers_lost
        );
    }
    let (parts, bad): (Vec<A>, Vec<_>) = ran.parts.into_iter().unzip();
    let mut quarantined: Vec<(usize, PathBuf)> = bad.into_iter().flatten().collect();
    quarantined.sort_by_key(|(i, _)| *i);
    Ok((parts, quarantined.into_iter().map(|(_, p)| p).collect()))
}

/// Claim the store at `dir` for `study`, one line naming every input
/// its units depend on. Claim a store before loading it, so a run
/// never folds units that another study wrote.
///
/// The first claim writes a sealed stamp file holding `study` (and
/// creates `dir`). A later claim succeeds only when the stamp names
/// the same study. It fails with [`StoreError::Foreign`] when the
/// stamp names another study or is damaged, or when the directory
/// holds units but no stamp.
pub fn claim(dir: &Path, study: &str) -> Result<(), StoreError> {
    let path = dir.join(STAMP_FILE);
    let stamp = seal(format!("{STAMP_HEADER}\n{study}\n"));
    let why = match fs::read(&path) {
        Ok(found) if found == stamp.as_bytes() => return Ok(()),
        Ok(found) => match std::str::from_utf8(&found).map(open_sealed) {
            Ok(Ok(body)) => format!(
                "it is stamped `{}`, this run is `{study}`",
                body.lines().nth(1).unwrap_or_default()
            ),
            _ => "its study stamp is damaged".to_string(),
        },
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            if unit_files::<String>(dir)?.is_empty() {
                return write_atomic(dir, STAMP_FILE, &stamp).map_err(|e| StoreError::Io(path, e));
            }
            "it holds checkpoints but no study stamp".to_string()
        }
        Err(e) => return Err(StoreError::Io(path, e)),
    };
    Err(StoreError::Foreign(dir.to_path_buf(), why))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn seal_roundtrips() {
        let body = "# header\nline\t1\n".to_string();
        let sealed = seal(body.clone());
        assert!(sealed.ends_with('\n'));
        assert_eq!(open_sealed(&sealed), Ok(body.as_str()));
    }

    #[test]
    fn empty_body_seals() {
        let sealed = seal(String::new());
        assert_eq!(open_sealed(&sealed), Ok(""));
    }

    #[test]
    fn unsealed_text_is_missing_footer() {
        assert_eq!(
            open_sealed("just a line\n"),
            Err(SealViolation::MissingFooter)
        );
        assert_eq!(open_sealed(""), Err(SealViolation::MissingFooter));
    }

    #[test]
    fn truncation_is_detected() {
        let sealed = seal("month\t2016-01\nfp\t12\tdeadbeef\n".to_string());
        for cut in 1..sealed.len() {
            let cropped = &sealed[..cut]; // sealed text is pure ASCII
            assert!(
                open_sealed(cropped).is_err(),
                "truncation at byte {cut} went undetected"
            );
        }
    }

    #[test]
    fn bit_flip_is_detected() {
        let sealed = seal("month\t2016-01\nflag\t3\t7\n".to_string());
        let mut bytes = sealed.clone().into_bytes();
        for i in 0..bytes.len() {
            let orig = bytes[i];
            bytes[i] ^= 0x01;
            if let Ok(mutated) = String::from_utf8(bytes.clone()) {
                assert!(
                    open_sealed(&mutated).is_err(),
                    "bit flip at byte {i} went undetected"
                );
            }
            bytes[i] = orig;
        }
    }

    #[test]
    fn malformed_footer_digest_is_rejected() {
        let bad = format!("body\n{FOOTER_PREFIX}zzzz\n");
        assert_eq!(open_sealed(&bad), Err(SealViolation::MalformedFooter));
        // Digest of the wrong width parses as hex but is still malformed.
        let short = format!("body\n{FOOTER_PREFIX}abcd\n");
        assert_eq!(open_sealed(&short), Err(SealViolation::MalformedFooter));
    }

    fn unique_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "tlscope-durable-{tag}-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ))
    }

    #[test]
    fn atomic_write_then_quarantine() {
        let dir = unique_dir("atomic");
        write_atomic(&dir, "x.ckpt", "hello\n").unwrap();
        let path = dir.join("x.ckpt");
        assert_eq!(fs::read_to_string(&path).unwrap(), "hello\n");
        assert!(!dir.join("x.ckpt.tmp").exists());
        let bad = quarantine(&path).unwrap();
        assert_eq!(bad, dir.join("x.ckpt.bad"));
        assert!(!path.exists());
        assert_eq!(fs::read_to_string(&bad).unwrap(), "hello\n");
        fs::remove_dir_all(&dir).unwrap();
    }

    const HEADER: &str = "# test unit v1";

    /// Parse a unit whose one record is `n\t<key>`.
    fn parse_unit(key: &u32, text: &str, path: &Path) -> Result<u32, StoreError> {
        for (n, line) in open_unit(text, HEADER, path)? {
            if line != format!("n\t{key}") {
                return Err(StoreError::Malformed(path.to_path_buf(), n));
            }
        }
        Ok(*key)
    }

    /// Load the store at `dir` on `workers` threads with `unit`: the
    /// kept keys, sorted, and the quarantine paths.
    fn load_keys(
        dir: &Path,
        workers: usize,
        unit: impl Fn(&u32, &str, &Path) -> Result<u32, StoreError> + Sync,
    ) -> Result<(Vec<u32>, Vec<PathBuf>), StoreError> {
        let (parts, quarantined) =
            load_units(dir, workers, unit, |kept: &mut Vec<u32>, _, key| {
                kept.push(key)
            })?;
        let mut kept: Vec<u32> = parts.into_iter().flatten().collect();
        kept.sort_unstable();
        Ok((kept, quarantined))
    }

    fn listing(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    /// Commit order across workers is scheduling order, so the kept
    /// keys are compared sorted; the quarantine paths come back in key
    /// order at every worker count.
    #[test]
    fn load_units_keeps_intact_units_and_quarantines_damage_at_any_worker_count() {
        for workers in 1..=4 {
            let dir = unique_dir(&format!("load-w{workers}"));
            claim(&dir, "study").unwrap();
            for key in [3u32, 1, 2, 4] {
                write_unit(&dir, key, &seal(format!("{HEADER}\nn\t{key}\n"))).unwrap();
            }
            // Unit 2's file holds unit 1's record; unit 4 is not UTF-8.
            fs::copy(dir.join("1.ckpt"), dir.join("2.ckpt")).unwrap();
            fs::write(dir.join("4.ckpt"), b"\xff\xfe").unwrap();
            // Not units: the stamp, a torn write, a stem that is no key.
            fs::write(dir.join("5.ckpt.tmp"), "torn").unwrap();
            fs::write(dir.join("x.ckpt"), "junk").unwrap();
            let (kept, quarantined) = load_keys(&dir, workers, parse_unit).unwrap();
            assert_eq!(kept, vec![1, 3], "workers = {workers}");
            assert_eq!(
                quarantined,
                vec![dir.join("2.ckpt.bad"), dir.join("4.ckpt.bad")]
            );
            assert_eq!(
                listing(&dir),
                [
                    "1.ckpt",
                    "2.ckpt.bad",
                    "3.ckpt",
                    "4.ckpt.bad",
                    "5.ckpt.tmp",
                    STAMP_FILE,
                    "x.ckpt"
                ]
            );
            // A second load finds only the intact units.
            let again = load_keys(&dir, workers, parse_unit).unwrap();
            assert_eq!(again, (vec![1, 3], vec![]));
            // A unit error that is not damage aborts the load.
            let abort = load_keys(&dir, workers, |_, _, p| {
                Err(StoreError::Foreign(p.into(), "x".into()))
            });
            assert!(matches!(abort, Err(StoreError::Foreign(..))));
            fs::remove_dir_all(&dir).unwrap();
            // A missing store is a cold start.
            let cold = load_keys(&dir, workers, parse_unit).unwrap();
            assert_eq!(cold, (vec![], vec![]));
        }
    }

    /// Load a six-unit store whose unit 4 panics, then remove it.
    fn load_with_a_panicking_unit(workers: usize) {
        let dir = unique_dir(&format!("panic-w{workers}"));
        for key in 1u32..=6 {
            write_unit(&dir, key, &seal(format!("{HEADER}\nn\t{key}\n"))).unwrap();
        }
        let load = std::panic::catch_unwind(|| {
            load_keys(&dir, workers, |key, text, path| {
                assert_ne!(*key, 4, "unit 4 dies");
                parse_unit(key, text, path)
            })
        });
        fs::remove_dir_all(&dir).unwrap();
        if let Err(panic) = load {
            std::panic::resume_unwind(panic);
        }
    }

    #[test]
    #[should_panic(expected = "load worker(s) lost")]
    fn a_panicking_unit_fails_a_one_worker_load() {
        load_with_a_panicking_unit(1);
    }

    #[test]
    #[should_panic(expected = "load worker(s) lost")]
    fn a_panicking_unit_fails_a_three_worker_load() {
        load_with_a_panicking_unit(3);
    }

    #[test]
    fn claim_stamps_once_and_refuses_other_studies() {
        let dir = unique_dir("claim");
        claim(&dir, "passive seed=1").unwrap();
        claim(&dir, "passive seed=1").unwrap();
        write_unit(&dir, 1, "unit").unwrap();
        claim(&dir, "passive seed=1").unwrap();
        let err = claim(&dir, "passive seed=7").unwrap_err();
        assert!(
            matches!(&err, StoreError::Foreign(d, _) if *d == dir),
            "{err}"
        );
        let msg = err.to_string();
        assert!(msg.contains(&dir.display().to_string()), "{msg}");
        assert!(msg.contains("seed=1`") && msg.contains("seed=7`"), "{msg}");
        assert!(!err.is_damage());

        // A damaged stamp is refused, not repaired.
        let stamp = dir.join(STAMP_FILE);
        let mut bytes = fs::read(&stamp).unwrap();
        bytes[3] ^= 0x01;
        fs::write(&stamp, &bytes).unwrap();
        let err = claim(&dir, "passive seed=1").unwrap_err();
        assert!(err.to_string().contains("damaged"), "{err}");

        // Units with no stamp are refused; an empty store is claimed.
        fs::remove_file(&stamp).unwrap();
        let err = claim(&dir, "passive seed=1").unwrap_err();
        assert!(err.to_string().contains("no study stamp"), "{err}");
        fs::remove_file(dir.join("1.ckpt")).unwrap();
        claim(&dir, "passive seed=1").unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }
}
