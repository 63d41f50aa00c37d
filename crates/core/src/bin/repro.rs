//! The reproduction harness: regenerate any figure or table of
//! *Coming of Age* (IMC 2018).
//!
//! ```text
//! repro [OPTIONS] <experiment-id>... | all
//!
//! Options:
//!   --quick        reduced scale (fast; default)
//!   --full         paper-scale window with more samples per month
//!   --csv          emit CSV instead of ASCII rendering
//!   --width <n>    ASCII chart width (default 84)
//!   --seed <n>     override the study seed: decimal, or hex with a
//!                  0x prefix (the form the run header prints)
//!   --stats        print per-stage pipeline metrics after the run
//!   --scan-stats   print active-scan accounting after the run
//!   --stats-json <path>
//!                  write the pipeline metrics (counters, derived
//!                  rates, latency histograms) as JSON to <path>
//!   --scan-stats-json <path>
//!                  write the scan accounting as JSON to <path>
//!   --resume <dir> checkpoint completed months into <dir> and resume
//!                  from whatever is already there; <dir> serves one
//!                  study, and a complete <dir> is the saved run
//!   --resume-scan <dir>
//!                  checkpoint completed scan dates into <dir> and
//!                  resume the campaign from whatever is already there;
//!                  not the same directory as --resume
//!   --list         list experiment ids and exit
//! ```

use std::process::ExitCode;

use tlscope::analysis::StudyConfig;
use tlscope::report::{needs, ReportContext, RunError, EXPERIMENT_IDS};
use tlscope::scanner::ScanFaults;

struct Options {
    full: bool,
    csv: bool,
    stats: bool,
    scan_stats: bool,
    stats_json: Option<String>,
    scan_stats_json: Option<String>,
    width: usize,
    seed: Option<u64>,
    resume: Option<String>,
    resume_scan: Option<String>,
    ids: Vec<String>,
}

fn usage() {
    eprintln!(
        "usage: repro [--quick|--full] [--csv] [--stats] [--scan-stats] [--stats-json PATH] [--scan-stats-json PATH] [--width N] [--seed N|0xHEX] [--resume DIR] [--resume-scan DIR] [--list] <id>...|all\n\
         ids: {}",
        EXPERIMENT_IDS.join(" ")
    );
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        full: false,
        csv: false,
        stats: false,
        scan_stats: false,
        stats_json: None,
        scan_stats_json: None,
        width: 84,
        seed: None,
        resume: None,
        resume_scan: None,
        ids: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => opts.full = false,
            "--full" => opts.full = true,
            "--csv" => opts.csv = true,
            "--stats" => opts.stats = true,
            "--scan-stats" => opts.scan_stats = true,
            "--stats-json" => {
                opts.stats_json = Some(args.next().ok_or("--stats-json needs a path")?);
            }
            "--scan-stats-json" => {
                opts.scan_stats_json = Some(args.next().ok_or("--scan-stats-json needs a path")?);
            }
            "--width" => {
                opts.width = args
                    .next()
                    .ok_or("--width needs a value")?
                    .parse()
                    .map_err(|_| "--width needs a number")?;
            }
            "--seed" => {
                let seed = args.next().ok_or("--seed needs a value")?;
                opts.seed = Some(parse_seed(&seed).ok_or("--seed needs a number")?);
            }
            "--resume" => {
                opts.resume = Some(args.next().ok_or("--resume needs a directory")?);
            }
            "--resume-scan" => {
                opts.resume_scan = Some(args.next().ok_or("--resume-scan needs a directory")?);
            }
            "--list" => {
                for id in EXPERIMENT_IDS {
                    println!("{id}");
                }
                std::process::exit(0);
            }
            "--help" | "-h" => {
                usage();
                std::process::exit(0);
            }
            "all" => opts.ids = EXPERIMENT_IDS.iter().map(|s| s.to_string()).collect(),
            id if !id.starts_with('-') => opts.ids.push(id.to_string()),
            other => return Err(format!("unknown option {other}")),
        }
    }
    if opts.ids.is_empty() {
        return Err("no experiments requested".into());
    }
    Ok(opts)
}

/// A seed in decimal, or in hex after a `0x`/`0X` prefix: the header
/// prints the seed as `0x…`, so a run can be repeated from its log.
fn parse_seed(raw: &str) -> Option<u64> {
    match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => raw.parse().ok(),
    }
}

/// Write an exported metrics document atomically (tmp + rename via
/// `tlscope::durable`) so a consumer polling the path never reads a
/// torn JSON file.
fn write_json(path: &str, json: &str) -> std::io::Result<()> {
    let p = std::path::Path::new(path);
    let dir = match p.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => std::path::Path::new("."),
    };
    let name = p.file_name().and_then(|n| n.to_str()).ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "path has no file name")
    })?;
    tlscope::durable::write_atomic(dir, name, json)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            usage();
            return ExitCode::FAILURE;
        }
    };

    // `StudyConfig` reads the variable and panics on a name that is
    // no profile; refuse it here instead, before any work.
    let scan_profile =
        match ScanFaults::env_profile(std::env::var_os(ScanFaults::PROFILE_ENV).as_deref()) {
            Ok(profile) => profile,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };

    let mut cfg = if opts.full {
        StudyConfig::default()
    } else {
        StudyConfig::quick()
    };
    if let Some(seed) = opts.seed {
        cfg.seed = seed;
    }
    // Which apertures the requested experiments will actually run, so
    // an inert --resume/--resume-scan can be called out up front.
    let (needs_passive, needs_active) = opts.ids.iter().fold((false, false), |(p, a), id| {
        let (np, na) = needs(id);
        (p || np, a || na)
    });
    if let Some(dir) = &opts.resume {
        // Create the directory up front so a typo'd path fails here,
        // not after months of simulation.
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create checkpoint dir {dir}: {e}");
            return ExitCode::FAILURE;
        }
        if !needs_passive {
            eprintln!(
                "warning: --resume has no effect: requested experiments run no passive study"
            );
        }
        eprintln!("# checkpointing completed months to {dir}");
        cfg.checkpoint_dir = Some(std::path::PathBuf::from(dir));
    }
    if let Some(dir) = &opts.resume_scan {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create scan checkpoint dir {dir}: {e}");
            return ExitCode::FAILURE;
        }
        if !needs_active {
            eprintln!(
                "warning: --resume-scan has no effect: requested experiments run no active campaign"
            );
        }
        eprintln!("# checkpointing completed scan dates to {dir}");
        cfg.scan_checkpoint_dir = Some(std::path::PathBuf::from(dir));
    }
    // Each store is claimed for its own aperture's study, so one
    // directory cannot serve both.
    if let (Some(months), Some(dates)) = (&opts.resume, &opts.resume_scan) {
        let same = (std::fs::canonicalize(months), std::fs::canonicalize(dates));
        if matches!(same, (Ok(a), Ok(b)) if a == b) {
            eprintln!(
                "error: --resume and --resume-scan both name {months}; give each its own directory"
            );
            return ExitCode::FAILURE;
        }
    }
    eprintln!(
        "# tlscope repro: {} months x {} connections/month, {} scan hosts/sweep, seed {:#x}",
        cfg.start.iter_through(cfg.end).count(),
        cfg.connections_per_month,
        cfg.scan_hosts,
        cfg.seed
    );

    let mut ctx = ReportContext::new(cfg);
    let mut failed = false;
    for id in &opts.ids {
        match ctx.run(id) {
            Ok(artifact) => {
                if opts.csv {
                    println!("# {id}");
                    print!("{}", artifact.to_csv());
                } else {
                    println!("{}", artifact.to_ascii(opts.width));
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                failed = true;
                // Every later artefact that needs that store would
                // repeat the same error.
                if matches!(e, RunError::Store(_)) {
                    break;
                }
            }
        }
    }
    // A lost month silently thins every passive artefact, so it fails
    // the run; a quarantined flow is a single connection, so it warns.
    let passive = ctx.metrics().snapshot();
    if passive.flows_quarantined > 0 {
        eprintln!(
            "warning: {} poison flow(s) quarantined by the passive runner",
            passive.flows_quarantined
        );
    }
    if passive.shards_lost > 0 {
        eprintln!(
            "error: {} passive month(s) lost to worker panics",
            passive.shards_lost
        );
        failed = true;
    }
    // Likewise a sweep date or survey lost with its worker; a host
    // quarantined by the date's boundary is named in a flight report.
    let workers_lost = ctx.scan_metrics().snapshot().workers_lost;
    if workers_lost > 0 {
        eprintln!(
            "error: {workers_lost} scan worker(s) lost to panics; their sweep dates or surveys are missing"
        );
        failed = true;
    }
    if opts.stats {
        // Stats go to stderr so --csv output stays machine-readable.
        eprint!("{}", ctx.metrics().snapshot().render());
        eprint!("{}", ctx.metrics().latency().render());
    }
    if opts.scan_stats {
        // Name the profile the campaign ran under so a lossy ledger is
        // attributable to its knob set.
        if let Some(profile) = scan_profile {
            eprintln!("# scan fault profile: {profile}");
        }
        eprint!("{}", ctx.scan_metrics().snapshot().render());
        eprint!("{}", ctx.scan_metrics().latency().render());
    }
    if let Some(path) = &opts.stats_json {
        let json = ctx
            .metrics()
            .snapshot()
            .to_json_with(&ctx.metrics().latency());
        match write_json(path, &json) {
            Ok(()) => eprintln!("# wrote pipeline stats to {path}"),
            Err(e) => {
                eprintln!("error: cannot write {path}: {e}");
                failed = true;
            }
        }
    }
    if let Some(path) = &opts.scan_stats_json {
        let json = ctx
            .scan_metrics()
            .snapshot()
            .to_json_with(&ctx.scan_metrics().latency());
        match write_json(path, &json) {
            Ok(()) => eprintln!("# wrote scan stats to {path}"),
            Err(e) => {
                eprintln!("error: cannot write {path}: {e}");
                failed = true;
            }
        }
    }
    // Any flight reports filed by panic boundaries during the run come
    // out last so they sit next to the exit status in a captured log.
    for report in tlscope::obs::flight::drain_reports() {
        eprint!("{report}");
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
