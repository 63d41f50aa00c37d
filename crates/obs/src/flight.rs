//! The panic flight recorder.
//!
//! The pipelines survive worker panics (`catch_unwind` around each
//! passive month and each sweep date), and a quarantined flow or host
//! must still leave a trace. This module is the black box: when a
//! `catch_unwind` boundary trips, [`report`] files one line naming what
//! died — the unit and item, as `(month …, flow …)` or
//! `(date …, host …)` — into a process-wide, size-capped box that the
//! `repro` binary drains at exit ([`drain_reports`]).
//!
//! The box drops oldest-first and counts what it dropped, so a
//! poison-storm (thousands of quarantines) costs a few KiB, not
//! unbounded memory.

use std::collections::VecDeque;
use std::sync::Mutex;

/// Panic reports retained process-wide.
pub const BLACK_BOX_CAPACITY: usize = 64;

/// The process-wide black box: rendered reports plus a count of
/// reports discarded once the box was full.
static BLACK_BOX: Mutex<(VecDeque<String>, u64)> = Mutex::new((VecDeque::new(), 0));

/// File a panic report: `context`, one line saying what died, pushed
/// into the process black box. Called from the `catch_unwind` error
/// arms.
pub fn report(context: &str) {
    let mut black_box = match BLACK_BOX.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    };
    if black_box.0.len() == BLACK_BOX_CAPACITY {
        black_box.0.pop_front();
        black_box.1 += 1;
    }
    black_box.0.push_back(format!("flight report: {context}\n"));
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

    // One test for all black-box behaviour: the box is process-global,
    // so splitting it across tests would race under the parallel test
    // runner.
    #[test]
    fn black_box_collects_and_bounds_reports() {
        drain_reports(); // isolate from anything already filed
        for i in 0..(BLACK_BOX_CAPACITY + 5) {
            report(&format!(
                "poison flow quarantined (month 2015-06, flow {i})"
            ));
        }
        let reports = drain_reports();
        // Capacity reports plus the overflow note, oldest kept first.
        assert_eq!(reports.len(), BLACK_BOX_CAPACITY + 1);
        assert_eq!(
            reports[0],
            "flight report: poison flow quarantined (month 2015-06, flow 5)\n"
        );
        assert!(reports
            .last()
            .unwrap()
            .contains("5 earlier reports dropped"));
        assert!(drain_reports().is_empty(), "drain empties the box");
    }
}
