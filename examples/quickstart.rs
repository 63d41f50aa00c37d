//! Quickstart: parse a ClientHello, fingerprint it, negotiate against a
//! server profile, and run one month of the synthetic Internet through
//! the passive monitor.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use tlscope::chron::Month;
use tlscope::clients::{browsers, HelloEntropy};
use tlscope::fingerprint::Fingerprint;
use tlscope::notary::{ingest_borrowed, ExtractScratch, NotaryAggregate};
use tlscope::servers::{negotiate, ServerProfile};
use tlscope::traffic::{FaultInjector, Generator, TrafficConfig};
use tlscope::wire::ClientHello;

fn main() {
    // 1. Build the hello Chrome shipped the month Heartbleed dropped,
    //    as real wire bytes, and parse it back like a monitor would.
    let chrome = browsers::chrome();
    let era = chrome
        .era_at(tlscope::chron::Date::ymd(2014, 4, 7))
        .expect("Chrome existed in 2014");
    let hello = era
        .tls
        .build_hello(Some("example.org"), &HelloEntropy::from_seed(42));
    let bytes = hello.to_handshake_bytes();
    let parsed = ClientHello::parse_handshake(&bytes).expect("wire roundtrip");
    println!(
        "Chrome {} ClientHello: {} bytes, {} suites, {} extensions",
        era.versions,
        bytes.len(),
        parsed.cipher_suites.len(),
        parsed.extensions().len()
    );

    // 2. Fingerprint it (the paper's 4-feature fingerprint).
    let fp = Fingerprint::from_client_hello(&parsed);
    println!("4-feature fingerprint: {}", fp.canonical());

    // 3. Negotiate against a modern server.
    let server = ServerProfile::baseline("demo");
    let outcome = negotiate::respond(&server, &parsed, [1; 32]).expect("handshake");
    println!(
        "negotiated: {} with {} (curve {:?})",
        outcome.version, outcome.cipher, outcome.curve
    );

    // 4. One month of the synthetic Internet through the monitor.
    let generator = Generator::new(TrafficConfig {
        seed: 1,
        connections_per_month: 2_000,
        faults: FaultInjector::tap_defaults(),
    });
    //    One extraction scratch (record slot and parse cache) serves
    //    every flow, as each study worker keeps one for its months.
    let month = Month::ym(2015, 6);
    let (mut agg, mut scratch) = (NotaryAggregate::new(), ExtractScratch::new());
    let mut stream = generator.stream_month(month);
    while let Some(flow) = stream.next_flow() {
        let (date, port) = (flow.date, flow.port);
        ingest_borrowed(&mut agg, &mut scratch, date, port, flow.client, flow.server);
    }
    let stats = agg.month(month).expect("month present");
    println!(
        "\n{month}: {} connections | {:.1}% AEAD, {:.1}% CBC, {:.1}% RC4 negotiated",
        stats.total,
        stats.pct(stats.neg_aead),
        stats.pct(stats.neg_cbc),
        stats.pct(stats.neg_rc4),
    );
    println!(
        "advertised: RC4 {:.1}%, export {:.1}%, anon {:.1}%, TLS1.3 {:.1}%",
        stats.pct(stats.adv_rc4),
        stats.pct(stats.adv_export),
        stats.pct(stats.adv_anon),
        stats.pct(stats.adv_tls13),
    );

    // 5. And show the monitor is honest about wire damage.
    let rejected: u64 = stats.rejected;
    println!(
        "handshake failures seen on the wire: {} ({:.2}%); unparseable flows: {}",
        rejected,
        stats.pct(rejected),
        agg.garbled_client,
    );
}
