//! Run one benchmark workload and print its metrics.
//!
//! ```text
//! tlscope-benchmark --workload <name> --seed <n> [--seconds <n>] [--trace <0|1>]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics untraced, the per-layer metrics with `--trace 1`. A traced
//! run also writes its spans to `.bench_out/trace-<workload>-seed<n>.json`.
//! A human-readable summary goes to standard error. Exit status: 0 when
//! every output matched its reference, 1 when one did not or the run
//! failed, 2 on bad arguments or a `TLSCOPE_*` variable in the
//! environment.

use std::path::PathBuf;
use std::process::ExitCode;

use tlscope_benchmark::workloads::{self, Budget, Inputs, Scale, Workload};
use tlscope_benchmark::{host, median, result_line, trace};

/// Where runs keep scratch stores and traces, relative to the
/// directory the benchmark runs from.
const OUT_DIR: &str = ".bench_out";

/// A run keeps measuring until `--seconds` have passed and at least
/// this many reps have finished, so every median has samples on both
/// sides.
const MIN_REPS: usize = 3;

const USAGE: &str = "usage: tlscope-benchmark --workload <paper-all|tap-stress|scan-weekly|resume-warm> --seed <n> [--seconds <n>] [--trace <0|1>]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse()
                        .map_err(|_| "--seed needs a whole number")?,
                )
            }
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .map_err(|_| "--seconds needs a whole number")?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // `TLSCOPE_SCAN_FAULT_PROFILE` changes the default study config,
    // and `TLSCOPE_PROGRESS` / `TLSCOPE_VERIFY_PARSE_CACHE` change the
    // program being measured.
    if let Some((key, _)) =
        std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("TLSCOPE_"))
    {
        eprintln!(
            "error: {} is set; TLSCOPE_* variables change what is measured, unset them",
            key.to_string_lossy()
        );
        return ExitCode::from(2);
    }
    let inputs = Inputs {
        workload: args.workload,
        seed: args.seed,
        scale: Scale::full(),
        workers: host::workers(),
        scratch: PathBuf::from(OUT_DIR).join(format!(
            "{}-seed{}-pid{}",
            args.workload.name(),
            args.seed,
            std::process::id()
        )),
    };
    let outcome = if args.trace {
        traced(&inputs)
    } else {
        untraced(&inputs, args.seconds)
    };
    if let Err(e) = workloads::remove_dir(&inputs.scratch) {
        eprintln!("warning: {e}");
    }
    match outcome {
        Ok((line, correct)) => {
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn untraced(inputs: &Inputs, seconds: u64) -> Result<(String, bool), String> {
    let budget = Budget {
        seconds: seconds as f64,
        min_reps: MIN_REPS,
    };
    let r = workloads::run(inputs, budget)?;
    let correct = r.failed == 0 && r.reps_match;
    let mut sorted = r.rep_s.clone();
    sorted.sort_by(f64::total_cmp);
    let at = |q: f64| sorted[((sorted.len() - 1) as f64 * q).round() as usize];
    // The highest percentile with at least ten reps beyond it.
    let tail = (sorted.len() >= 100).then(|| at(0.9));
    eprintln!(
        "# {} seed {} workers {}: {} reps, run_s median {:.4} (min {:.4}, quartiles {:.4} {:.4}, \
         max {:.4}{}), setup_s median {:.4} of {:?}, cpu {:.2} s over the reps, peak RSS {:.1} MiB",
        inputs.workload.name(),
        inputs.seed,
        inputs.workers,
        r.rep_s.len(),
        median(&r.rep_s),
        sorted[0],
        at(0.25),
        at(0.75),
        sorted[sorted.len() - 1],
        tail.map_or(String::new(), |p| format!(", p90 {p:.4}")),
        median(&r.setup_s),
        r.setup_s,
        r.cpu_s,
        r.peak_rss_mb,
    );
    eprintln!(
        "# digest {:016x}, {} flows generated and {} hosts probed per rep, {} of {} units failed, \
         calibration {:.1} -> {:.1} ms",
        r.digest,
        r.flows_generated,
        r.hosts_probed,
        r.failed,
        r.attempted,
        r.calib_ms.0,
        r.calib_ms.1
    );
    if !r.failures.is_empty() {
        eprintln!("# failed units: {}", r.failures.join(" "));
    }
    Ok((
        result_line(correct, r.attempted, r.failed, &r.metrics()),
        correct,
    ))
}

fn traced(inputs: &Inputs) -> Result<(String, bool), String> {
    let r = trace::run_traced(inputs)?;
    let path = PathBuf::from(OUT_DIR).join(format!(
        "trace-{}-seed{}.json",
        inputs.workload.name(),
        inputs.seed
    ));
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    std::fs::write(&path, r.to_json(inputs))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let correct = r.failed == 0 && r.digest == r.untraced_digest;
    for m in &r.metrics {
        eprintln!("# {:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    eprintln!(
        "# {} spans written to {}; {} of {} units failed",
        r.tracer.spans().len(),
        path.display(),
        r.failed,
        r.attempted
    );
    Ok((
        result_line(correct, r.attempted, r.failed, &r.metrics),
        correct,
    ))
}
