//! Per-month checkpoint files for resumable studies.
//!
//! The Notary ran for six years; a crash four months into a long
//! replay must not force a restart from zero. The study runner
//! serializes each completed month's *partial* [`NotaryAggregate`] to
//! `<dir>/<YYYY-MM>.ckpt` and, on resume, reloads the partials and
//! skips the completed months. Because aggregate merging is
//! commutative and accumulation is integer-exact, the resumed final
//! aggregate is **bit-identical** (`PartialEq`) to an uninterrupted
//! run — an acceptance criterion, property-tested in the analysis
//! crate. A complete directory is therefore also the saved run:
//! rerunning the study on it generates no flow.
//!
//! A checkpoint is *lossless*: it carries the month counters (one
//! `month` line, keyed by the counter table beside [`MonthlyStats`],
//! including the raw `PositionMean` accumulators), per-month
//! fingerprint class flags, the fingerprint
//! coverage counts, sighting windows, and the aggregate-level
//! failure/salvage counters. All sections are emitted in sorted order
//! so equal partials serialize to equal bytes.
//!
//! This module owns only the record codec. The store — atomic writes,
//! the checksum footer, the directory scan that quarantines damaged
//! files to `*.ckpt.bad`, and the study stamp — is
//! [`tlscope_durable`]'s.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use tlscope_chron::{Date, Month};
use tlscope_durable::StoreError;
use tlscope_fingerprint::Fingerprint;

use crate::aggregate::{FpClassFlags, MonthlyStats, NotaryAggregate};

/// First line of every month checkpoint; the body is sealed with a
/// `sum\tfnv1a:` footer.
const HEADER: &str = "# tlscope checkpoint v2";

/// Parse the fields of one `month` line. Any unknown key or damaged
/// field is `None`. `fp_flags` travel on separate `flag` lines.
fn parse_month_line(line: &str) -> Option<(Month, MonthlyStats)> {
    let mut fields = line.split('\t');
    let month: Month = fields.next()?.parse().ok()?;
    let mut stats = MonthlyStats::default();
    for field in fields {
        let (key, val) = field.split_once('=')?;
        stats.set_count(key, val.parse().ok()?)?;
    }
    Some((month, stats))
}

fn flags_to_bits(f: &FpClassFlags) -> u8 {
    (f.rc4 as u8)
        | (f.cbc as u8) << 1
        | (f.aead as u8) << 2
        | (f.des as u8) << 3
        | (f.tdes as u8) << 4
        | (f.null as u8) << 5
        | (f.anon as u8) << 6
}

fn flags_from_bits(bits: u8) -> FpClassFlags {
    FpClassFlags {
        rc4: bits & 1 != 0,
        cbc: bits & 2 != 0,
        aead: bits & 4 != 0,
        des: bits & 8 != 0,
        tdes: bits & 16 != 0,
        null: bits & 32 != 0,
        anon: bits & 64 != 0,
    }
}

/// Comma-join a list of wire ids; `-` marks the empty list (a bare
/// empty field would be ambiguous in a tab-split line).
fn join_ids<T: std::fmt::Display>(ids: &[T]) -> String {
    if ids.is_empty() {
        "-".to_string()
    } else {
        ids.iter()
            .map(|i| i.to_string())
            .collect::<Vec<_>>()
            .join(",")
    }
}

fn split_ids<T: std::str::FromStr>(field: &str) -> Option<Vec<T>> {
    if field == "-" {
        return Some(Vec::new());
    }
    field.split(',').map(|p| p.parse().ok()).collect()
}

/// Serialize one partial aggregate to checkpoint text. Deterministic:
/// every section is sorted, so equal partials produce equal bytes.
pub fn to_text(partial: &NotaryAggregate) -> String {
    let mut out = String::from(HEADER);
    out.push('\n');
    for (month, stats) in partial.iter_months() {
        out.push_str(&format!("month\t{month}"));
        stats.write_counts(&mut out);
        out.push('\n');
        // On-disk flag lines key on the stable content hash (id64), not
        // the run-local dense id.
        let mut flags: Vec<(u64, &FpClassFlags)> = stats
            .fp_flags
            .iter()
            .map(|(id, f)| (partial.interner.id64_of(*id), f))
            .collect();
        flags.sort_by_key(|(id, _)| *id);
        for (id, f) in flags {
            out.push_str(&format!("flag\t{month}\t{id}\t{}\n", flags_to_bits(f)));
        }
    }
    let mut fps: Vec<(&Fingerprint, u64)> = partial.iter_fp_counts().collect();
    fps.sort();
    for (fp, count) in fps {
        out.push_str(&format!(
            "fp\t{count}\t{}\t{}\t{}\t{}\n",
            join_ids(&fp.ciphers),
            join_ids(&fp.extensions),
            join_ids(&fp.curves),
            join_ids(&fp.point_formats),
        ));
    }
    let mut sightings: Vec<_> = partial
        .sightings
        .iter_raw()
        .map(|(id, s)| (partial.interner.id64_of(*id), s))
        .collect();
    sightings.sort_by_key(|(id, _)| *id);
    for (id, s) in sightings {
        out.push_str(&format!(
            "sight\t{id}\t{}\t{}\t{}\n",
            s.first, s.last, s.connections
        ));
    }
    out.push_str(&format!(
        "fail\t{}\t{}\t{}\n",
        partial.not_tls, partial.garbled_client, partial.salvaged
    ));
    tlscope_durable::seal(out)
}

/// Parse checkpoint text read from `path` back into a partial
/// aggregate. A wrong header or any unparseable record is
/// [`StoreError::Malformed`]; a failed checksum is
/// [`StoreError::Corrupt`].
pub fn from_text(text: &str, path: &Path) -> Result<NotaryAggregate, StoreError> {
    let bad = |n: usize| StoreError::Malformed(path.to_path_buf(), n);
    let mut agg = NotaryAggregate::new();
    // Month stats are buffered so `flag` lines can attach to them in
    // any order relative to their `month` line. Flag and sight lines
    // key on id64 but the in-memory structures key on interned ids, so
    // they are buffered too and resolved once all `fp` lines (which
    // populate the interner) have been read.
    let mut months = BTreeMap::new();
    let mut pending_flags: Vec<(usize, Month, u64, FpClassFlags)> = Vec::new();
    let mut pending_sights: Vec<(usize, u64, Date, Date, u64)> = Vec::new();
    for (n, line) in tlscope_durable::open_unit(text, HEADER, path)? {
        let (tag, rest) = line.split_once('\t').ok_or(bad(n))?;
        match tag {
            "month" => {
                let (month, stats) = parse_month_line(rest).ok_or(bad(n))?;
                months.insert(month, stats);
            }
            "flag" => {
                let mut f = rest.split('\t');
                let month: Month = f.next().and_then(|v| v.parse().ok()).ok_or(bad(n))?;
                let id: u64 = f.next().and_then(|v| v.parse().ok()).ok_or(bad(n))?;
                let bits: u8 = f.next().and_then(|v| v.parse().ok()).ok_or(bad(n))?;
                if !months.contains_key(&month) {
                    return Err(bad(n));
                }
                pending_flags.push((n, month, id, flags_from_bits(bits)));
            }
            "fp" => {
                let mut f = rest.split('\t');
                let count: u64 = f.next().and_then(|v| v.parse().ok()).ok_or(bad(n))?;
                let ciphers = f.next().and_then(split_ids::<u16>).ok_or(bad(n))?;
                let extensions = f.next().and_then(split_ids::<u16>).ok_or(bad(n))?;
                let curves = f.next().and_then(split_ids::<u16>).ok_or(bad(n))?;
                let point_formats = f.next().and_then(split_ids::<u8>).ok_or(bad(n))?;
                let id = agg.interner.intern_owned(Fingerprint {
                    ciphers,
                    extensions,
                    curves,
                    point_formats,
                });
                if agg.fp_counts.len() <= id.index() {
                    agg.fp_counts.resize(id.index() + 1, 0);
                }
                agg.fp_counts[id.index()] = count;
            }
            "sight" => {
                let mut f = rest.split('\t');
                let id: u64 = f.next().and_then(|v| v.parse().ok()).ok_or(bad(n))?;
                let first: Date = f.next().and_then(|v| v.parse().ok()).ok_or(bad(n))?;
                let last: Date = f.next().and_then(|v| v.parse().ok()).ok_or(bad(n))?;
                let connections: u64 = f.next().and_then(|v| v.parse().ok()).ok_or(bad(n))?;
                pending_sights.push((n, id, first, last, connections));
            }
            "fail" => {
                let mut f = rest.split('\t');
                agg.not_tls = f.next().and_then(|v| v.parse().ok()).ok_or(bad(n))?;
                agg.garbled_client = f.next().and_then(|v| v.parse().ok()).ok_or(bad(n))?;
                agg.salvaged = f.next().and_then(|v| v.parse().ok()).ok_or(bad(n))?;
            }
            _ => return Err(bad(n)),
        }
    }
    // A flag or sight id64 with no matching `fp` line means the file
    // is internally inconsistent — reject it at that line.
    for (n, month, id64, flags) in pending_flags {
        let id = agg.interner.lookup_id64(id64).ok_or(bad(n))?;
        months
            .get_mut(&month)
            .ok_or(bad(n))?
            .fp_flags
            .insert(id, flags);
    }
    for (n, id64, first, last, connections) in pending_sights {
        let id = agg.interner.lookup_id64(id64).ok_or(bad(n))?;
        agg.sightings.observe(id, first, 0);
        agg.sightings.observe(id, last, connections);
    }
    for (month, stats) in months {
        agg.insert_month(month, stats);
    }
    Ok(agg)
}

/// Atomically write the partial aggregate for one completed month.
///
/// The temp-then-rename dance guarantees a reader (or a resumed run)
/// never observes a torn checkpoint: the final path either does not
/// exist or holds a complete serialization.
pub fn write_month(dir: &Path, month: Month, partial: &NotaryAggregate) -> Result<(), StoreError> {
    tlscope_durable::write_unit(dir, month, &to_text(partial))
}

/// Result of scanning a checkpoint directory with [`load_dir_on`].
#[derive(Debug)]
pub struct DirLoad {
    /// Merge of every intact month partial.
    pub aggregate: NotaryAggregate,
    /// Months whose checkpoints loaded cleanly (safe to skip).
    pub completed: BTreeSet<Month>,
    /// Quarantine paths (`*.ckpt.bad`) of damaged files that were
    /// moved aside; their months are *not* in `completed`, so the
    /// runner recomputes them.
    pub quarantined: Vec<PathBuf>,
}

/// [`load_dir_on`] with one worker.
pub fn load_dir(dir: &Path) -> Result<DirLoad, StoreError> {
    load_dir_on(dir, 1)
}

/// Scan a checkpoint directory on up to `workers` threads: merge every
/// completed month's partial into one aggregate and report which
/// months are already done. Each worker parses one file at a time and
/// merges it into an aggregate of its own; the workers' aggregates are
/// merged into the first. Merging is commutative, so the aggregate
/// equals a one-worker load's.
///
/// A missing directory is a valid cold start. A damaged file
/// (malformed, truncated, failing its checksum, or holding another
/// month than its name) is quarantined — renamed to
/// `<month>.ckpt.bad` — and its month reported incomplete, so a resume
/// recomputes it instead of aborting; only filesystem errors abort.
pub fn load_dir_on(dir: &Path, workers: usize) -> Result<DirLoad, StoreError> {
    let (parts, quarantined) = tlscope_durable::load_units(
        dir,
        workers,
        |month: &Month, text, path| {
            let partial = from_text(text, path)?;
            // The month line is the first record, on line 2.
            if partial.iter_months().any(|(m, _)| m != month) {
                return Err(StoreError::Malformed(path.to_path_buf(), 2));
            }
            Ok(partial)
        },
        |(aggregate, completed): &mut (NotaryAggregate, BTreeSet<Month>), month, partial| {
            aggregate.merge(partial);
            completed.insert(*month);
        },
    )?;
    let mut parts = parts.into_iter();
    let (mut aggregate, mut completed) = parts.next().unwrap_or_default();
    for (partial, months) in parts {
        aggregate.merge(partial);
        completed.extend(months);
    }
    Ok(DirLoad {
        aggregate,
        completed,
        quarantined,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use tlscope_chron::Month;
    use tlscope_traffic::{FaultInjector, Generator, TrafficConfig};

    fn unique_dir(tag: &str) -> PathBuf {
        let pid = std::process::id();
        let t = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos();
        std::env::temp_dir().join(format!("tlscope-ckpt-{tag}-{pid}-{t}"))
    }

    fn sample_partial(month: Month) -> NotaryAggregate {
        let g = Generator::new(TrafficConfig {
            seed: 77,
            connections_per_month: 250,
            faults: FaultInjector {
                truncate_prob: 0.05,
                corrupt_prob: 0.05,
                ..FaultInjector::none()
            },
        });
        let (mut agg, mut scratch) = (NotaryAggregate::new(), crate::ExtractScratch::new());
        let mut stream = g.stream_month(month);
        while let Some(f) = stream.next_flow() {
            crate::ingest_borrowed(&mut agg, &mut scratch, f.date, f.port, f.client, f.server);
        }
        agg
    }

    #[test]
    fn roundtrip_is_bit_identical() {
        let partial = sample_partial(Month::ym(2015, 6));
        assert!(!partial.sightings.is_empty(), "sample must exercise fps");
        assert!(partial.distinct_fingerprints() > 0);
        let text = to_text(&partial);
        assert!(text.starts_with(HEADER));
        let back = from_text(&text, Path::new("test")).unwrap();
        assert_eq!(partial, back, "checkpoint text must be lossless");
        // Serialization itself is deterministic.
        assert_eq!(text, to_text(&back));
    }

    /// The on-disk bytes of a fixed sample, pinned so a codec change
    /// cannot silently change the file format.
    #[test]
    fn checkpoint_bytes_are_pinned() {
        let text = to_text(&sample_partial(Month::ym(2015, 6)));
        assert_eq!(
            tlscope_durable::fnv1a64(text.as_bytes()),
            0xb010_eda2_a7ab_81b1
        );
    }

    /// `load_dir` merges the intact months and quarantines a month
    /// file that holds another month's partial.
    #[test]
    fn load_dir_merges_months_and_quarantines_misnamed_files() {
        let dir = unique_dir("dir");
        let (m1, m2, m3) = (Month::ym(2015, 6), Month::ym(2015, 7), Month::ym(2015, 8));
        for m in [m1, m2] {
            write_month(&dir, m, &sample_partial(m)).unwrap();
        }
        write_month(&dir, m3, &sample_partial(m1)).unwrap();
        let load = load_dir(&dir).unwrap();
        let mut whole = sample_partial(m1);
        whole.merge(sample_partial(m2));
        assert_eq!(load.aggregate, whole);
        assert_eq!(load.completed.into_iter().collect::<Vec<_>>(), vec![m1, m2]);
        assert_eq!(load.quarantined, vec![dir.join(format!("{m3}.ckpt.bad"))]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn malformed_files_are_rejected() {
        let p = Path::new("x");
        let sealed = |body: &str| tlscope_durable::seal(format!("{HEADER}\n{body}\n"));
        let malformed_at = |text: &str| match from_text(text, p) {
            Err(StoreError::Malformed(_, n)) => n,
            other => panic!("expected Malformed, got {other:?}"),
        };
        assert_eq!(malformed_at(""), 1);
        // The unsealed v1 format is no longer read.
        assert_eq!(malformed_at("# tlscope checkpoint v1\nfail\t0\t0\t0\n"), 1);
        assert_eq!(malformed_at(&sealed("bogus\tline")), 2);
        assert_eq!(malformed_at(&sealed("flag\t2015-01\t5\t1")), 2);
        // A sight line referencing an id64 with no fp line is
        // internally inconsistent.
        assert_eq!(
            malformed_at(&sealed("sight\t99\t2015-01-01\t2015-01-02\t5")),
            2
        );
        // Month lines: a bad value, a bad month, an unknown counter.
        assert_eq!(malformed_at(&sealed("month\t2015-01\ttotal=x")), 2);
        assert_eq!(malformed_at(&sealed("month\tnot-a-month\ttotal=1")), 2);
        assert_eq!(
            malformed_at(&sealed("fail\t0\t0\t0\nmonth\t2015-01\tfuture=9")),
            3
        );
        // A v2 header without a valid checksum footer is corrupt.
        assert!(matches!(
            from_text(&format!("{HEADER}\nfail\t0\t0\t0\n"), p),
            Err(StoreError::Corrupt(_)),
        ));
        // Error values render.
        let err = from_text("", p).unwrap_err();
        assert!(err.to_string().contains("line 1"));
        let err = from_text(&format!("{HEADER}\n"), p).unwrap_err();
        assert!(err.to_string().contains("checksum"));
    }

    #[test]
    fn truncated_and_flipped_files_are_corrupt() {
        let partial = sample_partial(Month::ym(2015, 9));
        let text = to_text(&partial);
        let p = Path::new("x");
        // Truncation anywhere past the header is detected.
        let cut = text.len() / 2;
        assert!(matches!(
            from_text(&text[..cut], p),
            Err(StoreError::Corrupt(_)),
        ));
        // A single flipped bit is detected.
        let mut bytes = text.clone().into_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x04;
        let flipped = String::from_utf8_lossy(&bytes).into_owned();
        assert!(matches!(
            from_text(&flipped, p),
            Err(StoreError::Corrupt(_)),
        ));
    }

    /// How the property below damages one unit of its store.
    #[derive(Debug, Clone, Copy)]
    enum Damage {
        Intact,
        Truncated(usize),
        Flipped(usize, u8),
        /// The file holds the next unit's text.
        Misnamed,
    }

    fn damage() -> impl Strategy<Value = Damage> {
        prop_oneof![
            Just(Damage::Intact),
            Just(Damage::Intact),
            any::<usize>().prop_map(Damage::Truncated),
            (any::<usize>(), 1u8..=255).prop_map(|(at, mask)| Damage::Flipped(at, mask)),
            Just(Damage::Misnamed),
        ]
    }

    /// The bytes of unit `i` of a store of `texts`, damaged by `d`.
    fn damaged(texts: &[String], i: usize, d: Damage) -> Vec<u8> {
        let mut bytes = texts[i].clone().into_bytes();
        match d {
            Damage::Intact => {}
            Damage::Truncated(at) => bytes.truncate(at % bytes.len()),
            Damage::Flipped(at, mask) => {
                let at = at % bytes.len();
                bytes[at] ^= mask;
            }
            Damage::Misnamed => bytes = texts[(i + 1) % texts.len()].clone().into_bytes(),
        }
        bytes
    }

    fn file_names(paths: impl IntoIterator<Item = PathBuf>) -> Vec<String> {
        paths
            .into_iter()
            .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// A store of 4–10 months with random damage loads the same on
        /// 1–4 workers: an equal aggregate, the intact months completed,
        /// the same quarantine list and the same files left on disk.
        /// Each load gets a fresh copy of the store.
        #[test]
        fn load_dir_on_matches_one_worker(damages in vec(damage(), 4..=10)) {
            let months: Vec<Month> = (0..damages.len() as i32)
                .map(|i| Month::ym(2015, 1).add_months(i))
                .collect();
            let texts: Vec<String> = months.iter().map(|&m| to_text(&sample_partial(m))).collect();
            let load = |workers: usize| {
                let dir = unique_dir(&format!("prop-w{workers}"));
                std::fs::create_dir_all(&dir).unwrap();
                for (i, (m, &d)) in months.iter().zip(&damages).enumerate() {
                    std::fs::write(dir.join(format!("{m}.ckpt")), damaged(&texts, i, d)).unwrap();
                }
                let load = load_dir_on(&dir, workers).unwrap();
                let mut left = file_names(std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()));
                left.sort();
                std::fs::remove_dir_all(&dir).unwrap();
                // Quarantine paths differ by directory alone.
                (load.aggregate, load.completed, file_names(load.quarantined), left)
            };
            let one = load(1);
            let intact: BTreeSet<Month> = months
                .iter()
                .zip(&damages)
                .filter(|(_, d)| matches!(d, Damage::Intact))
                .map(|(m, _)| *m)
                .collect();
            prop_assert_eq!(&one.1, &intact);
            prop_assert!(one.2.windows(2).all(|w| w[0] < w[1]), "key order: {:?}", one.2);
            for workers in 2..=4 {
                prop_assert!(load(workers) == one, "workers = {}", workers);
            }
        }
    }

    #[test]
    fn flag_bits_roundtrip_all_combinations() {
        for bits in 0u8..128 {
            assert_eq!(flags_to_bits(&flags_from_bits(bits)), bits);
        }
    }
}
