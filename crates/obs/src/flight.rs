//! The panic flight recorder.
//!
//! The pipelines already survive worker panics (`catch_unwind` around
//! each passive month and each sweep date) but a quarantined flow or
//! host would leave no trace of *what the worker was doing*. This
//! module is the black box: each worker thread keeps a bounded,
//! thread-local ring of recent [`FlightEvent`]s ([`record`] is a
//! `VecDeque` push — no locks, no allocation after warm-up), and when
//! a `catch_unwind` boundary trips, [`report`] snapshots that ring
//! into a process-wide, size-capped black box that the `repro` binary
//! drains at exit ([`drain_reports`]).
//!
//! Events are three bare `u64`s plus a static label, deliberately too
//! small to tempt anyone into logging payloads through them. Both the
//! ring and the black box drop oldest-first and count what they
//! dropped, so a poison-storm (thousands of quarantines) costs a few
//! KiB, not unbounded memory.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::Mutex;

/// Events retained per worker thread.
pub const RING_CAPACITY: usize = 64;

/// Panic reports retained process-wide.
pub const BLACK_BOX_CAPACITY: usize = 64;

/// One structured breadcrumb: a static event kind plus three
/// event-specific words (batch id / flow meta / probe index …).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Static label naming the event kind (`"flow"`, `"batch"`,
    /// `"host"`, …).
    pub kind: &'static str,
    /// First event word.
    pub a: u64,
    /// Second event word.
    pub b: u64,
    /// Third event word.
    pub c: u64,
}

struct Ring {
    events: VecDeque<FlightEvent>,
    dropped: u64,
}

thread_local! {
    static RING: RefCell<Ring> = RefCell::new(Ring {
        events: VecDeque::with_capacity(RING_CAPACITY),
        dropped: 0,
    });
}

/// The process-wide black box: rendered reports plus a count of
/// reports discarded once the box was full.
static BLACK_BOX: Mutex<(VecDeque<String>, u64)> = Mutex::new((VecDeque::new(), 0));

/// Record one breadcrumb on the calling thread's ring. Constant-time,
/// lock-free, allocation-free once the ring is warm.
pub fn record(kind: &'static str, a: u64, b: u64, c: u64) {
    RING.with(|ring| {
        let mut ring = ring.borrow_mut();
        if ring.events.len() == RING_CAPACITY {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        ring.events.push_back(FlightEvent { kind, a, b, c });
    });
}

/// Clear the calling thread's ring (used by tests and by workers that
/// want a fresh ring per batch).
pub fn clear() {
    RING.with(|ring| {
        let mut ring = ring.borrow_mut();
        ring.events.clear();
        ring.dropped = 0;
    });
}

/// Render the calling thread's ring, oldest event first.
pub fn dump() -> String {
    RING.with(|ring| {
        let ring = ring.borrow();
        let mut out = String::new();
        if ring.dropped > 0 {
            let _ = writeln!(out, "    … {} earlier events dropped", ring.dropped);
        }
        for ev in &ring.events {
            let _ = writeln!(out, "    {} a={} b={} c={}", ev.kind, ev.a, ev.b, ev.c);
        }
        out
    })
}

/// File a panic report: `context` (one line saying what died) plus the
/// calling thread's ring dump, pushed into the process black box.
/// Called from the `catch_unwind` error arms.
pub fn report(context: &str) {
    let ring_dump = dump();
    let mut text = format!("flight report: {context}\n");
    if ring_dump.is_empty() {
        text.push_str("    (flight ring empty)\n");
    } else {
        text.push_str(&ring_dump);
    }
    let mut black_box = match BLACK_BOX.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    };
    if black_box.0.len() == BLACK_BOX_CAPACITY {
        black_box.0.pop_front();
        black_box.1 += 1;
    }
    black_box.0.push_back(text);
}

/// Drain every filed report, oldest first, appending a note when the
/// box overflowed. Empties the black box.
pub fn drain_reports() -> Vec<String> {
    let mut black_box = match BLACK_BOX.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    };
    let mut reports: Vec<String> = black_box.0.drain(..).collect();
    if black_box.1 > 0 {
        reports.push(format!(
            "flight report: … {} earlier reports dropped (black box full)\n",
            black_box.1
        ));
        black_box.1 = 0;
    }
    reports
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_bounded_and_oldest_first() {
        clear();
        for i in 0..(RING_CAPACITY as u64 + 10) {
            record("ev", i, 0, 0);
        }
        let dump = dump();
        assert!(dump.contains("… 10 earlier events dropped"));
        assert!(!dump.contains("ev a=9 "), "oldest events evicted");
        assert!(dump.contains(&format!("ev a={} ", RING_CAPACITY as u64 + 9)));
        clear();
        assert!(super::dump().is_empty());
    }

    #[test]
    fn rings_are_per_thread() {
        clear();
        record("mine", 1, 2, 3);
        std::thread::scope(|s| {
            s.spawn(|| {
                assert!(super::dump().is_empty(), "fresh thread, fresh ring");
                record("theirs", 9, 9, 9);
            });
        });
        let dump = dump();
        assert!(dump.contains("mine"));
        assert!(!dump.contains("theirs"));
        clear();
    }

    // One test for all black-box behaviour: the box is process-global,
    // so splitting these across tests would race under the parallel
    // test runner.
    #[test]
    fn black_box_collects_and_bounds_reports() {
        // Run the ring-backed reports on a dedicated thread so this
        // test's ring state can't collide with the other ring tests.
        std::thread::scope(|s| {
            s.spawn(|| {
                drain_reports(); // isolate from anything already filed
                record("flow", 7, 443, 180);
                for i in 0..(BLACK_BOX_CAPACITY + 5) {
                    report(&format!("batch {i} poisoned"));
                }
                let reports = drain_reports();
                // Capacity reports plus the overflow note.
                assert_eq!(reports.len(), BLACK_BOX_CAPACITY + 1);
                assert!(reports[0].contains("flight report:"));
                assert!(reports[0].contains("flow a=7 b=443 c=180"));
                assert!(reports
                    .last()
                    .unwrap()
                    .contains("5 earlier reports dropped"));
                assert!(drain_reports().is_empty(), "drain empties the box");

                // An empty ring still produces a (labelled) report.
                clear();
                report("chunk 0..512 lost");
                let reports = drain_reports();
                assert_eq!(reports.len(), 1);
                assert!(reports[0].contains("(flight ring empty)"));
            });
        });
    }
}
