//! The panic flight recorder.
//!
//! The pipelines survive worker panics (`catch_unwind` around each
//! passive month and each sweep date), and a quarantined flow or host
//! must still leave a trace. This module is the black box: when a
//! `catch_unwind` boundary trips, the run files one line naming what
//! died — the unit and item, as `(month …, flow …)` or
//! `(date …, host …)` — into a size-capped [`FlightBox`]. Each ledger
//! bag holds one ([`ledger!`](crate::ledger!)), so a report belongs to
//! the run whose bag it was filed in, and absorbing a bag carries its
//! reports up; the `repro` binary prints its bags' reports at exit.
//!
//! The box drops oldest-first and counts what it dropped, so a
//! poison-storm (thousands of quarantines) costs a few KiB, not
//! unbounded memory.

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Panic reports one box retains.
pub const BLACK_BOX_CAPACITY: usize = 64;

/// A bounded box of panic reports: the filed contexts, oldest first,
/// plus a count of those dropped once the box was full.
#[derive(Debug, Default)]
pub struct FlightBox(Mutex<(VecDeque<String>, u64)>);

impl FlightBox {
    /// File a panic report: `context`, one line saying what died.
    /// Called from the `catch_unwind` error arms.
    pub fn report(&self, context: &str) {
        self.file([context.to_string()].into(), 0);
    }

    /// Every filed report, oldest first, as `flight report: …` lines,
    /// with a note on how many were dropped when the box overflowed.
    pub fn reports(&self) -> Vec<String> {
        let (contexts, dropped) = &*self.filed();
        let mut reports: Vec<String> = contexts
            .iter()
            .map(|context| format!("flight report: {context}\n"))
            .collect();
        if *dropped > 0 {
            reports.push(format!(
                "flight report: … {dropped} earlier reports dropped (black box full)\n"
            ));
        }
        reports
    }

    /// File `other`'s reports after this box's, oldest first, and add
    /// the reports it dropped to this box's count.
    pub fn absorb(&self, other: &FlightBox) {
        let (contexts, dropped) = other.filed().clone();
        self.file(contexts, dropped);
    }

    /// Push `contexts`, dropping the oldest report whenever the box is
    /// full, and count `dropped` more.
    fn file(&self, contexts: VecDeque<String>, dropped: u64) {
        let mut filed = self.filed();
        filed.1 += dropped;
        for context in contexts {
            if filed.0.len() == BLACK_BOX_CAPACITY {
                filed.0.pop_front();
                filed.1 += 1;
            }
            filed.0.push_back(context);
        }
    }

    fn filed(&self) -> MutexGuard<'_, (VecDeque<String>, u64)> {
        // Each update leaves the box whole, so a poisoned lock still
        // holds valid reports.
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}
