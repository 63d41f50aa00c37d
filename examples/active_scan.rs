//! Censys-style active scanning: run the monthly scan campaign over the
//! paper's window (2015-08-22 … 2018-05-13) and print the §5 scan
//! trends — SSL 3 support, what hosts choose from the 2015-Chrome
//! probe, Heartbeat/Heartbleed, and export support. Also reruns the
//! paper's §5.3 "remove RC4 from the offer" experiment against an
//! RC4-preferring server.
//!
//! ```sh
//! cargo run --release --example active_scan
//! ```

use tlscope::analysis::sections;
use tlscope::scanner::{probe, ScanCampaign, ScanMetrics};
use tlscope::servers::{negotiate, ParamsCache, ServerPopulation};

fn main() {
    let population = ServerPopulation::new();

    eprintln!("running monthly scan campaign (2015-08 .. 2018-05) ...");
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let metrics = ScanMetrics::new();
    let snaps =
        ScanCampaign::censys_monthly(3_000, 0xCE9595).run_parallel(&population, workers, &metrics);
    assert_eq!(metrics.snapshot().workers_lost, 0, "a sweep date was lost");
    println!("{}", sections::censys_series(&snaps).to_ascii(72));

    let first = snaps.first().unwrap();
    let last = snaps.last().unwrap();
    println!("paper anchors (host-level percentages):");
    for (label, paper, first_v, last_v) in [
        (
            "SSL3 supported",
            "45% -> <25%",
            first.pct(first.ssl3_supported),
            last.pct(last.ssl3_supported),
        ),
        (
            "chose CBC   ",
            "54% -> 35%",
            first.pct(first.chose_cbc),
            last.pct(last.chose_cbc),
        ),
        (
            "chose RC4   ",
            "11.2% -> 3.4%",
            first.pct(first.chose_rc4),
            last.pct(last.chose_rc4),
        ),
        (
            "chose 3DES  ",
            "0.54% -> 0.25%",
            first.pct(first.chose_3des),
            last.pct(last.chose_3des),
        ),
        (
            "heartbeat   ",
            "34% (2018)",
            first.pct(first.heartbeat_supported),
            last.pct(last.heartbeat_supported),
        ),
        (
            "heartbleed  ",
            "0.32% (2018)",
            first.pct(first.heartbleed_vulnerable),
            last.pct(last.heartbleed_vulnerable),
        ),
    ] {
        println!("  {label}  paper {paper:15}  measured {first_v:.2}% -> {last_v:.2}%");
    }

    // §5.3's bankmellat experiment: an RC4-preferring server flips to
    // AEAD the moment RC4 leaves the offer.
    println!("\n§5.3 experiment — RC4-preferring server:");
    let mut rng = {
        use rand::SeedableRng;
        rand::rngs::SmallRng::seed_from_u64(7)
    };
    let bank = ServerPopulation::bank_legacy(
        &mut ParamsCache::default(),
        tlscope::chron::Date::ymd(2018, 2, 1),
        &mut rng,
    );
    let with_rc4 = negotiate::respond(&bank, &probe::chrome_2015(), [2; 32]).unwrap();
    let without_rc4 = negotiate::respond(&bank, &probe::chrome_2015_no_rc4(), [2; 32]).unwrap();
    println!("  full 2015-Chrome offer  -> {}", with_rc4.cipher);
    println!("  same offer without RC4  -> {}", without_rc4.cipher);
    assert!(with_rc4.cipher.is_rc4());
    assert!(without_rc4.cipher.is_aead());
    println!("  (matches the paper: \"when removing RC4 from the list, it will switch to a modern AEAD cipher\")");
}
