//! Repeat runs of the repro CLI produce byte-identical artefacts: no
//! timing, map iteration order, or thread scheduling may leak into
//! what `repro` prints on stdout.

use std::process::Command;

fn repro_stdout(args: &[&str]) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .env("TLSCOPE_PROGRESS", "off")
        .output()
        .expect("repro binary should spawn");
    assert!(
        out.status.success(),
        "repro failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
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
