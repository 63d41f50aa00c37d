//! Fuzz-style property test for the checkpoint parser: arbitrary
//! mutations of valid checkpoint texts — truncations, bit flips,
//! deleted / duplicated / inserted lines — must never panic the
//! parser. Every outcome is either a clean parse or a structured
//! damage error ([`StoreError::is_damage`]) carrying the path the
//! caller handed in, so `load_dir` can quarantine the file instead of
//! aborting the campaign.

use std::path::Path;

use proptest::prelude::*;
use tlscope_chron::Month;
use tlscope_durable::StoreError;
use tlscope_notary::{checkpoint, ingest_borrowed, ExtractScratch, NotaryAggregate};
use tlscope_traffic::{FaultInjector, Generator, TrafficConfig};

fn sample_partial(seed: u64) -> NotaryAggregate {
    let g = Generator::new(TrafficConfig {
        seed,
        connections_per_month: 120,
        faults: FaultInjector {
            truncate_prob: 0.05,
            corrupt_prob: 0.05,
            ..FaultInjector::none()
        },
    });
    let (mut agg, mut scratch) = (NotaryAggregate::new(), ExtractScratch::new());
    let mut stream = g.stream_month(Month::ym(2016, 5));
    while let Some(f) = stream.next_flow() {
        ingest_borrowed(&mut agg, &mut scratch, f.date, f.port, f.client, f.server);
    }
    agg
}

/// One structural or byte-level mutation of a checkpoint text.
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
        (0usize..4096).prop_map(Mutation::Truncate),
        ((0usize..4096), (1u8..255)).prop_map(|(i, m)| Mutation::FlipByte(i, m)),
        (0usize..64).prop_map(Mutation::DeleteLine),
        (0usize..64).prop_map(Mutation::DuplicateLine),
        ((0usize..64), (0u64..u64::MAX))
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
            let mut out = lines.join("\n");
            if text.ends_with('\n') && !out.is_empty() {
                out.push('\n');
            }
            out
        }
        Mutation::DuplicateLine(j) => {
            let mut lines: Vec<&str> = text.lines().collect();
            if !lines.is_empty() {
                let line = lines[j % lines.len()];
                let at = j % (lines.len() + 1);
                lines.insert(at, line);
            }
            let mut out = lines.join("\n");
            if text.ends_with('\n') && !out.is_empty() {
                out.push('\n');
            }
            out
        }
        Mutation::InsertLine(j, s) => {
            let mut lines: Vec<&str> = text.lines().collect();
            let at = j % (lines.len() + 1);
            lines.insert(at, s);
            let mut out = lines.join("\n");
            if text.ends_with('\n') && !out.is_empty() {
                out.push('\n');
            }
            out
        }
    }
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
    /// Mutated sealed texts parse cleanly or fail as damage with the
    /// caller's path — never a panic, never an Io error. With `reseal`
    /// the mutated body is sealed again, so the mutation gets past the
    /// checksum and reaches the record parser.
    #[test]
    fn mutated_v2_text_never_panics(
        seed in 0u64..1_000,
        muts in proptest::collection::vec(mutation(), 1..4),
        reseal in any::<bool>(),
    ) {
        let text = checkpoint::to_text(&sample_partial(seed));
        let mutated = if reseal {
            let body = tlscope_durable::open_sealed(&text).unwrap().to_string();
            tlscope_durable::seal(muts.iter().fold(body, |t, m| apply(&t, m)))
        } else {
            muts.iter().fold(text, |t, m| apply(&t, m))
        };
        let path = Path::new("fuzz/v2.ckpt");
        match checkpoint::from_text(&mutated, path) {
            Ok(parsed) => {
                // A surviving parse must itself round-trip: the text a
                // clean parse implies is re-parseable to the same value.
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
