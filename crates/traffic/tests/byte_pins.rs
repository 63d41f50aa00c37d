//! Byte pins for the generator: the exact flows a month stream yields.
//!
//! Each case hashes every flow's date, port, client bytes, and server
//! bytes or their absence (FNV-1a over a length-prefixed encoding) for
//! one month under one fault profile, once through the borrowed
//! `next_flow` stream and once through the owned `Generator::month`
//! collector; both must read the same pin. The digests were recorded from
//! the generator as it stood before the per-day client tables, the
//! borrowed server-profile lists and the month-level tally, all of
//! which must leave every byte and RNG draw where it was. The fault
//! profiles are named explicitly (not read from the environment), so
//! the pins hold in every CI fault-matrix cell.

use tlscope_chron::{Date, Month};
use tlscope_traffic::{FaultInjector, Generator, TrafficConfig};

/// Incremental FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_flow(&mut self, bytes: &[u8]) {
        self.write(&(bytes.len() as u64).to_le_bytes());
        self.write(bytes);
    }

    fn write_connection(&mut self, date: Date, port: u16, client: &[u8], server: Option<&[u8]>) {
        self.write(&date.to_epoch_days().to_le_bytes());
        self.write(&port.to_le_bytes());
        self.write_flow(client);
        match server {
            Some(server) => {
                self.write(&[1]);
                self.write_flow(server);
            }
            None => self.write(&[0]),
        }
    }
}

/// `(flows, digest)` of one month, through the borrowed stream and
/// through the owned collector.
fn month_digests(faults: FaultInjector, month: Month) -> [(u64, u64); 2] {
    let generator = Generator::new(TrafficConfig {
        seed: 0x715C0,
        connections_per_month: 2_000,
        faults,
    });
    let mut h = Fnv::new();
    let mut flows = 0u64;
    let mut stream = generator.stream_month(month);
    while let Some(flow) = stream.next_flow() {
        flows += 1;
        h.write_connection(flow.date, flow.port, flow.client, flow.server);
    }
    let events = generator.month(month);
    let mut owned = Fnv::new();
    for e in &events {
        owned.write_connection(e.date, e.port, &e.client_flow, e.server_flow.as_deref());
    }
    [(flows, h.0), (events.len() as u64, owned.0)]
}

fn check(faults: FaultInjector, label: &str, pins: [(Month, u64, u64); 3]) {
    for (month, flows, digest) in pins {
        let [streamed, owned] = month_digests(faults, month);
        assert_eq!(
            streamed,
            (flows, digest),
            "{label} {month}: flow bytes moved"
        );
        assert_eq!(
            owned,
            (flows, digest),
            "{label} {month}: Generator::month differs from the stream"
        );
    }
}

#[test]
fn clean_tap_flows_are_pinned() {
    check(
        FaultInjector::none(),
        "none",
        [
            (Month::ym(2012, 3), 2000, 0x0699_449e_00ca_ef95),
            (Month::ym(2015, 6), 2000, 0x9476_87c2_77d4_c38c),
            (Month::ym(2018, 3), 2000, 0x08b4_1036_f453_e766),
        ],
    );
}

#[test]
fn default_tap_flows_are_pinned() {
    check(
        FaultInjector::tap_defaults(),
        "tap_defaults",
        [
            (Month::ym(2012, 3), 1995, 0x1313_9e4c_1f02_dd1b),
            (Month::ym(2015, 6), 1997, 0xdc03_7b14_5ab3_badc),
            (Month::ym(2018, 3), 1997, 0x6fa4_0fc4_645f_e955),
        ],
    );
}

#[test]
fn stressed_tap_flows_are_pinned() {
    check(
        FaultInjector::stress(),
        "stress",
        [
            (Month::ym(2012, 3), 1521, 0xff23_6a0b_7ecd_f836),
            (Month::ym(2015, 6), 1595, 0xf9de_40aa_0caa_f94b),
            (Month::ym(2018, 3), 1411, 0x12c5_e29f_8706_68a7),
        ],
    );
}
