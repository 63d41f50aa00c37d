//! `repro --resume` / `--resume-scan` stores serve one study: rerunning
//! the same study on its stores prints the same bytes without
//! generating a flow, and a run of another study on them fails and
//! names the store instead of printing the first study's numbers.

use std::process::{Command, Output};

fn run_repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .env("TLSCOPE_PROGRESS", "off")
        .output()
        .expect("repro binary should spawn")
}

#[test]
fn stores_serve_only_their_own_study() {
    let dir = std::env::temp_dir().join(format!("tlscope-cli-resume-{}", std::process::id()));
    let (months, dates) = (dir.join("months"), dir.join("dates"));
    let (m, d) = (months.to_str().unwrap(), dates.to_str().unwrap());
    let args = [
        "--quick",
        "--csv",
        "--stats",
        "--resume",
        m,
        "--resume-scan",
        d,
    ];
    let args = [&args[..], &["fig2", "table2", "censys"]].concat();
    let cold = run_repro(&args);
    let warm = run_repro(&args);
    let warm_err = String::from_utf8_lossy(&warm.stderr);
    assert!(cold.status.success() && warm.status.success(), "{warm_err}");
    assert_eq!(
        cold.stdout, warm.stdout,
        "a warm rerun prints the same bytes"
    );
    let generated = warm_err
        .lines()
        .find(|l| l.trim_start().starts_with("generate"));
    assert_eq!(
        generated.and_then(|l| l.split_whitespace().nth(1)),
        Some("0")
    );

    for (flag, store, id) in [("--resume", m, "fig2"), ("--resume-scan", d, "censys")] {
        let other = run_repro(&["--quick", "--csv", "--seed", "7", flag, store, id]);
        let err = String::from_utf8_lossy(&other.stderr);
        assert!(!other.status.success() && other.stdout.is_empty(), "{err}");
        assert!(
            err.contains(store) && err.contains("another study"),
            "{err}"
        );
    }

    // One directory cannot serve both apertures; refused before any work.
    let shared = run_repro(&["--quick", "--resume", m, "--resume-scan", m, "fig2"]);
    let err = String::from_utf8_lossy(&shared.stderr);
    assert!(
        !shared.status.success() && shared.stdout.is_empty(),
        "{err}"
    );
    assert!(err.contains(m), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}
