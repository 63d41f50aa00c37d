//! Cross-crate integration: the full byte-level pipeline from the
//! synthetic Internet through the notary into figures.

use tlscope::analysis::{figures, Study, StudyConfig};
use tlscope::chron::Month;
use tlscope::notary::{ingest_serial, TappedFlow};
use tlscope::traffic::{FaultInjector, Generator, TrafficConfig};

fn flows(seed: u64, month: Month, n: u32) -> Vec<TappedFlow> {
    Generator::new(TrafficConfig {
        seed,
        connections_per_month: n,
        faults: FaultInjector::none(),
    })
    .month(month)
    .into_iter()
    .map(TappedFlow::from)
    .collect()
}

#[test]
fn pipeline_is_deterministic() {
    let a = ingest_serial(flows(3, Month::ym(2016, 2), 500));
    let b = ingest_serial(flows(3, Month::ym(2016, 2), 500));
    let (ma, mb) = (
        a.month(Month::ym(2016, 2)).unwrap(),
        b.month(Month::ym(2016, 2)).unwrap(),
    );
    assert_eq!(ma.total, mb.total);
    assert_eq!(ma.neg_aead, mb.neg_aead);
    assert_eq!(ma.adv_rc4, mb.adv_rc4);
    assert_eq!(a, b);
}

#[test]
fn parallel_ingestion_is_exact() {
    let (start, end) = (Month::ym(2015, 7), Month::ym(2015, 9));
    let serial = ingest_serial(start.iter_through(end).flat_map(|m| flows(5, m, 300)));
    for workers in 1..=8 {
        let par = Study::new(StudyConfig {
            seed: 5,
            connections_per_month: 300,
            start,
            end,
            workers,
            faults: FaultInjector::none(),
            ..StudyConfig::quick()
        })
        .run_passive();
        // Exact equality: every counter, fingerprint, and sighting.
        assert_eq!(par, serial, "workers={workers}");
    }
}

#[test]
fn monthly_percentages_are_coherent() {
    let agg = ingest_serial(flows(7, Month::ym(2016, 9), 1000));
    let m = agg.month(Month::ym(2016, 9)).unwrap();
    // Outcome partition.
    assert_eq!(
        m.answered + m.rejected + m.missing_server + m.garbled_server,
        m.total - m.sslv2
    );
    // Negotiated classes never exceed answered.
    for count in [m.neg_rc4, m.neg_cbc, m.neg_aead, m.neg_null, m.neg_anon] {
        assert!(count <= m.answered);
    }
    // Cipher classes are mutually exclusive per connection.
    assert!(m.neg_rc4 + m.neg_cbc + m.neg_aead + m.neg_null <= m.answered + m.neg_null_null);
    // Advertised counters never exceed totals.
    for count in [
        m.adv_rc4,
        m.adv_cbc,
        m.adv_aead,
        m.adv_export,
        m.adv_anon,
        m.adv_null,
    ] {
        assert!(count <= m.total);
    }
    // Forward secrecy: every AEAD negotiation in this era is (EC)DHE.
    assert!(m.neg_fs >= m.neg_aead - m.neg_kx.rsa.min(m.neg_aead));
}

#[test]
fn study_over_a_quarter_produces_figures() {
    let mut cfg = StudyConfig::quick();
    cfg.start = Month::ym(2014, 1);
    cfg.end = Month::ym(2014, 6);
    cfg.connections_per_month = 600;
    let agg = Study::new(cfg).run_passive();
    for fig in figures::all_figures(&agg) {
        assert_eq!(fig.months.len(), 6, "{}", fig.id);
        assert!(!fig.series.is_empty(), "{}", fig.id);
        for s in &fig.series {
            for v in &s.values {
                assert!(
                    v.is_nan() || (0.0..=100.0).contains(v),
                    "{} {} out of range: {v}",
                    fig.id,
                    s.label
                );
            }
        }
        // CSV renders one line per month plus header.
        assert_eq!(fig.to_csv().lines().count(), 7, "{}", fig.id);
    }
}

#[test]
fn version_shares_sum_to_answered() {
    let agg = ingest_serial(flows(11, Month::ym(2017, 3), 800));
    let m = agg.month(Month::ym(2017, 3)).unwrap();
    let v = m.neg_version;
    assert_eq!(
        v.ssl3 + v.tls10 + v.tls11 + v.tls12 + v.tls13 + v.other,
        m.answered,
    );
}

#[test]
fn faults_do_not_break_aggregation() {
    let gen = Generator::new(TrafficConfig {
        seed: 13,
        connections_per_month: 800,
        faults: FaultInjector {
            drop_prob: 0.05,
            truncate_prob: 0.05,
            corrupt_prob: 0.05,
            ..FaultInjector::none()
        },
    });
    let month = Month::ym(2015, 3);
    let n_events = gen.month(month).len();
    let agg = ingest_serial(gen.month(month).into_iter().map(TappedFlow::from));
    let ingested = agg.month(month).map(|m| m.total).unwrap_or(0);
    assert_eq!(ingested + agg.garbled_client + agg.not_tls, n_events as u64);
    assert!(
        agg.garbled_client > 0,
        "corruption should damage some flows"
    );
}
