//! Durability primitives shared by the passive (`tlscope-notary`) and
//! active (`tlscope-scanner`) checkpoint stores.
//!
//! Long-running campaigns persist intermediate state to disk and must
//! survive the three classic failure modes of that state: torn writes
//! (crash mid-`write`), truncation (crash mid-`rename`, full disk),
//! and bit-rot (storage corruption). This crate provides the pieces
//! both stores build on:
//!
//! - [`seal`] / [`open_sealed`] — append and verify an FNV-1a content
//!   checksum footer, so any damaged file is *detected* at load time
//!   instead of silently mis-parsed;
//! - [`write_atomic`] — tmp+rename writes, so a crash never leaves a
//!   half-written file under the final name;
//! - [`quarantine`] — rename a damaged file to `<name>.bad` so the
//!   caller can recompute its contents without destroying forensic
//!   evidence;
//! - [`install_quiet_panic_hook`] / [`quiet_thread_panics`] — the
//!   shared panic hook for supervised workers (the passive study
//!   runner and the scanner sweep engine).
//!
//! Everything here is `std`-only and deliberately free of any tlscope
//! domain types: the notary and scanner crates own their formats; this
//! crate owns the bytes-on-disk guarantees.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Once;

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
pub fn quarantine(path: &Path) -> io::Result<PathBuf> {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".bad");
    let bad = path.with_file_name(name);
    fs::rename(path, &bad)?;
    Ok(bad)
}

// The default panic hook prints every caught worker panic, which
// floods output once panics are expected and supervised. The hook
// below forwards to the previous hook unless the current thread has
// opted in as a supervised worker.
thread_local! {
    static QUIET_PANICS: Cell<bool> = const { Cell::new(false) };
}

static QUIET_HOOK: Once = Once::new();

/// Install the process-wide quiet panic hook (idempotent). Panics on
/// threads that have not called [`quiet_thread_panics`]`(true)` are
/// forwarded to the previously installed hook unchanged.
pub fn install_quiet_panic_hook() {
    QUIET_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !QUIET_PANICS.with(|q| q.get()) {
                prev(info);
            }
        }));
    });
}

/// Mark the current thread as a supervised worker (`quiet = true`) so
/// its caught panics are not printed, or restore normal reporting
/// (`quiet = false`). Installs the hook on first use.
pub fn quiet_thread_panics(quiet: bool) {
    install_quiet_panic_hook();
    QUIET_PANICS.with(|q| q.set(quiet));
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

    #[test]
    fn atomic_write_then_quarantine() {
        let dir = std::env::temp_dir().join(format!(
            "tlscope-durable-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .subsec_nanos()
        ));
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

    #[test]
    fn quiet_hook_round_trip() {
        install_quiet_panic_hook();
        quiet_thread_panics(true);
        let caught = std::panic::catch_unwind(|| panic!("supervised"));
        quiet_thread_panics(false);
        assert!(caught.is_err());
    }
}
