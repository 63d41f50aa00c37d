//! Repeat runs of the repro CLI produce byte-identical artefacts: no
//! timing, map iteration order, or thread scheduling may leak into
//! what `repro` prints on stdout, and a run can be repeated from the
//! seed its header prints.

use std::process::Command;

fn repro() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.env("TLSCOPE_PROGRESS", "off");
    cmd
}

fn stdout_of(cmd: &mut Command) -> Vec<u8> {
    let out = cmd.output().expect("repro binary should spawn");
    assert!(
        out.status.success(),
        "repro failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

fn repro_stdout(args: &[&str]) -> Vec<u8> {
    stdout_of(repro().args(args))
}

#[test]
fn quick_csv_all_is_byte_identical_across_runs() {
    let args = ["--quick", "--csv", "all"];
    let first = String::from_utf8(repro_stdout(&args)).expect("utf-8 csv");
    let second = String::from_utf8(repro_stdout(&args)).expect("utf-8 csv");
    assert!(first.lines().count() > 100, "{first}");
    let differs = first.lines().zip(second.lines()).find(|(a, b)| a != b);
    assert_eq!(differs, None, "first differing line of two runs");
    assert_eq!(first, second);
}

/// The quick run's artefacts are pinned: any change to an artefact
/// byte fails here instead of going unnoticed. The scan fault profile
/// is the one environment variable that changes what `repro` prints,
/// so the child runs without it.
#[test]
fn quick_csv_all_is_pinned() {
    let stdout = stdout_of(
        repro()
            .args(["--quick", "--csv", "all"])
            .env_remove("TLSCOPE_SCAN_FAULT_PROFILE"),
    );
    assert_eq!(stdout.len(), 35_597);
    assert_eq!(
        tlscope::durable::fnv1a64(&stdout),
        0xc099_a43c_4101_668c,
        "the quick run's artefacts changed"
    );
}

/// Fields in one CSV line: commas outside double quotes, plus one.
fn fields(line: &str) -> usize {
    let mut quoted = false;
    let commas = line.chars().filter(|&c| {
        quoted ^= c == '"';
        c == ',' && !quoted
    });
    commas.count() + 1
}

/// Every CSV block `repro --csv` prints — a `# <id>` line, a header,
/// then rows — has as many fields in each row as in its header.
#[test]
fn quick_csv_rows_have_as_many_fields_as_their_header() {
    let stdout = String::from_utf8(repro_stdout(&["--quick", "--csv", "all"])).expect("utf-8 csv");
    let mut header = None;
    let mut blocks = 0;
    for line in stdout.lines() {
        if line.starts_with("# ") {
            header = None;
            blocks += 1;
        } else if let Some(width) = header {
            assert_eq!(fields(line), width, "row `{line}`");
        } else {
            header = Some(fields(line));
        }
    }
    assert_eq!(blocks, 31);
}

/// `--seed` takes the hex form the run header prints (`seed 0x…`,
/// either case of prefix and digits) as well as decimal: every
/// spelling of the default seed prints the default run's artefact,
/// another seed does not, and a malformed hex seed is refused.
#[test]
fn seed_accepts_the_hex_form_the_header_prints() {
    let seed = tlscope::analysis::StudyConfig::quick().seed;
    let default = repro_stdout(&["--quick", "--csv", "fig2"]);
    for spelled in [
        format!("{seed:#X}"),
        format!("{seed:#x}").replacen("0x", "0X", 1),
        seed.to_string(),
    ] {
        let run = repro_stdout(&["--quick", "--csv", "--seed", &spelled, "fig2"]);
        assert!(run == default, "--seed {spelled} changed the artefact");
    }
    let other = repro_stdout(&["--quick", "--csv", "--seed", "0x1", "fig2"]);
    assert!(other != default, "--seed 0x1 was ignored");

    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--quick", "--seed", "0xZZ", "fig2"])
        .output()
        .expect("repro binary should spawn");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--seed needs a number"), "{stderr}");
}
