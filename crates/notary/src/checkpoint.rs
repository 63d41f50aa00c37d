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
//! A checkpoint is *lossless*: it carries the month counters (the
//! month-line codec below, including the raw `PositionMean`
//! accumulators), per-month fingerprint class flags, the fingerprint
//! coverage counts, sighting windows, and the aggregate-level
//! failure/salvage counters. All sections are emitted in sorted order
//! so equal partials serialize to equal bytes.
//!
//! This module owns only the record codec. The store — atomic writes,
//! the checksum footer, the directory scan that quarantines damaged
//! files to `*.ckpt.bad`, and the study stamp — is
//! [`tlscope_durable`]'s.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::{Path, PathBuf};

use tlscope_chron::{Date, Month};
use tlscope_durable::StoreError;
use tlscope_fingerprint::Fingerprint;

use crate::aggregate::{FpClassFlags, MonthlyStats, NotaryAggregate};

/// First line of every month checkpoint; the body is sealed with a
/// `sum\tfnv1a:` footer.
const HEADER: &str = "# tlscope checkpoint v2";

/// The `month` line's scalar counters, each named once, in on-disk key
/// order: the macro emits the writer and the setter from this table.
macro_rules! scalars {
    ($($key:literal => $($field:ident).+,)*) => {
        /// Append `\t<key>=<value>` for every scalar counter of `s`.
        fn write_scalars(out: &mut String, s: &MonthlyStats) {
            $(out.push_str(&format!("\t{}={}", $key, s.$($field).+));)*
        }

        /// Set the scalar counter `key` of `s`; `None` for an unknown
        /// key, which would otherwise silently drop a counter.
        fn set_scalar(s: &mut MonthlyStats, key: &str, val: u64) -> Option<()> {
            match key {
                $($key => s.$($field).+ = val,)*
                _ => return None,
            }
            Some(())
        }
    };
}

scalars! {
    "total" => total,
    "sslv2" => sslv2,
    "rejected" => rejected,
    "missing_server" => missing_server,
    "garbled_server" => garbled_server,
    "answered" => answered,
    "v_ssl2" => neg_version.ssl2,
    "v_ssl3" => neg_version.ssl3,
    "v_tls10" => neg_version.tls10,
    "v_tls11" => neg_version.tls11,
    "v_tls12" => neg_version.tls12,
    "v_tls13" => neg_version.tls13,
    "v_other" => neg_version.other,
    "neg_rc4" => neg_rc4,
    "neg_cbc" => neg_cbc,
    "neg_aead" => neg_aead,
    "neg_null" => neg_null,
    "neg_null_null" => neg_null_null,
    "neg_3des" => neg_3des,
    "neg_des" => neg_des,
    "neg_export" => neg_export,
    "neg_anon" => neg_anon,
    "neg_unoffered" => neg_unoffered,
    "neg_fs" => neg_fs,
    "kx_rsa" => neg_kx.rsa,
    "kx_dhe" => neg_kx.dhe,
    "kx_ecdhe" => neg_kx.ecdhe,
    "kx_dh" => neg_kx.dh,
    "kx_ecdh" => neg_kx.ecdh,
    "kx_tls13" => neg_kx.tls13,
    "kx_other" => neg_kx.other,
    "na_128gcm" => neg_aead_alg.aes128gcm,
    "na_256gcm" => neg_aead_alg.aes256gcm,
    "na_chacha" => neg_aead_alg.chacha,
    "na_ccm" => neg_aead_alg.ccm,
    "na_other" => neg_aead_alg.other,
    "hb_neg" => heartbeat_negotiated,
    "adv_rc4" => adv_rc4,
    "adv_cbc" => adv_cbc,
    "adv_aead" => adv_aead,
    "adv_des" => adv_des,
    "adv_3des" => adv_3des,
    "adv_export" => adv_export,
    "adv_anon" => adv_anon,
    "adv_null" => adv_null,
    "adv_fs" => adv_fs,
    "adv_hb" => adv_heartbeat,
    "adv_tls13" => adv_tls13,
    "aa_128gcm" => adv_aead_alg.aes128gcm,
    "aa_256gcm" => adv_aead_alg.aes256gcm,
    "aa_chacha" => adv_aead_alg.chacha,
    "aa_ccm" => adv_aead_alg.ccm,
    "aa_other" => adv_aead_alg.other,
    // Raw PositionMean accumulators (micro-unit sum + sample count),
    // so a reloaded partial is bit-identical.
    "pa_sum" => pos_aead.sum_micro,
    "pa_n" => pos_aead.n,
    "pc_sum" => pos_cbc.sum_micro,
    "pc_n" => pos_cbc.n,
    "pr_sum" => pos_rc4.sum_micro,
    "pr_n" => pos_rc4.n,
    "pd_sum" => pos_des.sum_micro,
    "pd_n" => pos_des.n,
    "p3_sum" => pos_3des.sum_micro,
    "p3_n" => pos_3des.n,
}

/// Append `\t<tag>:<key>=<value>` for every entry of `map`, sorted.
fn write_map(out: &mut String, tag: &str, map: &HashMap<u16, u64>) {
    let mut entries: Vec<_> = map.iter().collect();
    entries.sort();
    for (key, val) in entries {
        out.push_str(&format!("\t{tag}:{key}={val}"));
    }
}

/// Parse the fields of one `month` line. Any unknown key or damaged
/// field is `None`. `fp_flags` travel on separate `flag` lines.
fn parse_month_line(line: &str) -> Option<(Month, MonthlyStats)> {
    let mut fields = line.split('\t');
    let month: Month = fields.next()?.parse().ok()?;
    let mut stats = MonthlyStats::default();
    for field in fields {
        let (key, val) = field.split_once('=')?;
        let val: u64 = val.parse().ok()?;
        if let Some((tag, map_key)) = key.split_once(':') {
            let map = match tag {
                "curve" => &mut stats.curves,
                "sv" => &mut stats.supported_versions_values,
                "ext" => &mut stats.adv_extensions,
                _ => return None,
            };
            map.insert(map_key.parse().ok()?, val);
        } else {
            set_scalar(&mut stats, key, val)?;
        }
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
        write_scalars(&mut out, stats);
        write_map(&mut out, "curve", &stats.curves);
        write_map(&mut out, "sv", &stats.supported_versions_values);
        write_map(&mut out, "ext", &stats.adv_extensions);
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

/// Result of scanning a checkpoint directory with [`load_dir`].
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

/// Scan a checkpoint directory: merge every completed month's partial
/// into one aggregate, one file at a time, and report which months are
/// already done.
///
/// A missing directory is a valid cold start. A damaged file
/// (malformed, truncated, failing its checksum, or holding another
/// month than its name) is quarantined — renamed to
/// `<month>.ckpt.bad` — and its month reported incomplete, so a resume
/// recomputes it instead of aborting; only filesystem errors abort.
pub fn load_dir(dir: &Path) -> Result<DirLoad, StoreError> {
    let mut aggregate = NotaryAggregate::new();
    let mut completed = BTreeSet::new();
    let quarantined = tlscope_durable::load_units(dir, |month: Month, text, path| {
        let partial = from_text(text, path)?;
        // The month line is the first record, on line 2.
        if partial.iter_months().any(|(m, _)| *m != month) {
            return Err(StoreError::Malformed(path.to_path_buf(), 2));
        }
        aggregate.merge(partial);
        completed.insert(month);
        Ok(())
    })?;
    Ok(DirLoad {
        aggregate,
        completed,
        quarantined,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let mut agg = NotaryAggregate::new();
        let mut stream = g.stream_month(month);
        while let Some(f) = stream.next_flow() {
            crate::ingest_borrowed(&mut agg, f.date, f.port, f.client, f.server);
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

    #[test]
    fn flag_bits_roundtrip_all_combinations() {
        for bits in 0u8..128 {
            assert_eq!(flags_to_bits(&flags_from_bits(bits)), bits);
        }
    }
}
