//! Declarative counter ledgers: each aperture's accounting is one
//! table, declared with [`ledger!`](crate::ledger!).
//!
//! The macro emits what used to be written out once per counter: the
//! plain-value snapshot (`Copy`, compared and persisted bit-for-bit)
//! and its `+=`; the shared bag, with `new`, `add(&delta)`,
//! `snapshot`, `absorb(&bag)`, `latency`, one public
//! [`Histogram`](crate::Histogram) field per latency row, and the run's
//! panic reports (`report`, `reports`; see [`flight`](crate::flight));
//! the latency
//! snapshot with its render and JSON; the JSON counter sections, one
//! per [`Class`]; and `accounting_holds`, from the declared balances.
//!
//! A bag is touched once per committed unit of work (a month, a sweep
//! date, a survey, a checkpoint pass), never per flow or host, so its
//! counter lock costs nothing measurable, and it makes each `add`
//! atomic: a reader never sees half a delta. Its flight box takes a
//! lock of its own once per report. The renders stay hand-written per
//! aperture: their rows mix counters with thread-seconds, scaled bytes
//! and rates at per-figure widths.

use crate::JsonObj;

/// What a counter's value depends on, and so which section of a stats
/// export it goes in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// A pure function of the study: its seed, scale and fault
    /// profiles. Identical runs agree on every count.
    Count,
    /// Wall time summed over worker threads, in nanoseconds.
    Clock,
    /// Depends on which worker ran which unit (the hits and misses of
    /// the parse cache each worker keeps across its months), so it
    /// varies between identical runs.
    Scheduling,
}

impl Class {
    /// Every class, in export order.
    const ALL: [Class; 3] = [Class::Count, Class::Clock, Class::Scheduling];

    /// The stats-export section holding this class's counters.
    fn section(self) -> &'static str {
        match self {
            Class::Count => "counts",
            Class::Clock => "clocks",
            Class::Scheduling => "scheduling",
        }
    }
}

/// Append one section per class to `json` — `counts`, `clocks`, then
/// `scheduling` — each holding the `(name, class, value)` counters of
/// that class in the order given.
pub fn counter_sections(json: JsonObj, counters: &[(&str, Class, u64)]) -> JsonObj {
    Class::ALL.into_iter().fold(json, |json, class| {
        let section = counters
            .iter()
            .filter(|(_, c, _)| *c == class)
            .fold(JsonObj::new(), |s, &(name, _, value)| s.u64(name, value));
        json.raw(class.section(), &section.finish())
    })
}

/// `count` per second of `nanos` thread time (0 before any time).
pub fn rate(count: u64, nanos: u64) -> f64 {
    if nanos == 0 {
        0.0
    } else {
        count as f64 / (nanos as f64 / 1e9)
    }
}

/// `v` with a k/M/G suffix, for a render column.
pub fn scaled(v: f64) -> String {
    if v >= 1e9 {
        format!("{:.2}G", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.2}M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.1}k", v / 1e3)
    } else {
        format!("{v:.0}")
    }
}

/// Declare a counter ledger: the bag, its snapshot, its latency
/// snapshot and its balances, in one table (see the [module
/// docs](mod@crate::ledger) for what is emitted).
///
/// Each counter is `name: Class`, a [`Class`] variant; each latency
/// row is `field: "render label"`; each balance is
/// `total = part + part ...;` over counter names. Callers record by
/// adding a named-field delta:
///
/// ```
/// tlscope_obs::ledger! {
///     /// Counters of a toy pipeline.
///     pub struct Metrics;
///     /// A copy of [`Metrics`]' counters, and a delta to add to it.
///     pub struct Snapshot {
///         /// Items handed over.
///         sent: Count,
///         /// Items finished.
///         done: Count,
///         /// Items given up on.
///         failed: Count,
///         /// Thread-time spent, nanoseconds.
///         busy_nanos: Clock,
///     }
///     /// Latency of the toy pipeline.
///     pub struct Latency("toy latency") {
///         /// Wall-clock per batch.
///         batch: "batch",
///     }
///     balances {
///         sent = done + failed;
///     }
/// }
///
/// let metrics = Metrics::new();
/// metrics.add(&Snapshot { sent: 3, done: 2, ..Default::default() });
/// assert!(!metrics.snapshot().accounting_holds());
/// metrics.add(&Snapshot { failed: 1, ..Default::default() });
/// metrics.batch.record(std::time::Duration::from_micros(5));
/// assert!(metrics.snapshot().accounting_holds());
/// assert_eq!(metrics.latency().batch.count, 1);
/// ```
///
/// The snapshot also gets two private helpers for the hand-written
/// render and export: `balance()`, which reads `accounting_holds` as
/// `balanced` or `IMBALANCED`, and `counter_sections(json)`, which
/// appends the class sections; the latency snapshot gets a private
/// `to_json()`.
#[macro_export]
macro_rules! ledger {
    (
        $(#[$bag_meta:meta])*
        pub struct $Bag:ident;
        $(#[$snap_meta:meta])*
        pub struct $Snap:ident {
            $( $(#[$c_meta:meta])* $counter:ident: $class:ident, )*
        }
        $(#[$lat_meta:meta])*
        pub struct $Lat:ident($title:literal) {
            $( $(#[$h_meta:meta])* $hist:ident: $label:literal, )*
        }
        balances {
            $( $total:ident = $first:ident $(+ $part:ident)*; )*
        }
    ) => {
        $(#[$snap_meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $Snap {
            $( $(#[$c_meta])* pub $counter: u64, )*
        }

        impl ::std::ops::AddAssign for $Snap {
            fn add_assign(&mut self, delta: $Snap) {
                $( self.$counter += delta.$counter; )*
            }
        }

        impl $Snap {
            /// The ledger's declared balances, all at once: nothing
            /// counted on one side went missing on the other.
            pub fn accounting_holds(&self) -> bool {
                true $( && self.$total == self.$first $(+ self.$part)* )*
            }

            fn balance(&self) -> &'static str {
                if self.accounting_holds() {
                    "balanced"
                } else {
                    "IMBALANCED"
                }
            }

            fn counter_sections(&self, json: $crate::JsonObj) -> $crate::JsonObj {
                $crate::ledger::counter_sections(
                    json,
                    &[$(
                        (
                            stringify!($counter),
                            $crate::ledger::Class::$class,
                            self.$counter,
                        ),
                    )*],
                )
            }
        }

        $(#[$bag_meta])*
        #[derive(Debug, Default)]
        pub struct $Bag {
            counts: ::std::sync::Mutex<$Snap>,
            flight: $crate::flight::FlightBox,
            $( $(#[$h_meta])* pub $hist: $crate::Histogram, )*
        }

        impl $Bag {
            /// A zeroed bag.
            pub fn new() -> Self {
                Self::default()
            }

            /// Add `delta` to the counters, all under one lock.
            pub fn add(&self, delta: &$Snap) {
                *self.counts() += *delta;
            }

            /// A point-in-time copy of the counters.
            pub fn snapshot(&self) -> $Snap {
                *self.counts()
            }

            /// Fold `other` into this bag: its counters added, its
            /// latency histograms merged and its panic reports filed
            /// after this bag's.
            pub fn absorb(&self, other: &$Bag) {
                self.add(&other.snapshot());
                self.flight.absorb(&other.flight);
                $( self.$hist.merge(&other.$hist); )*
            }

            /// File a panic report naming what died, `context`, in this
            /// bag's bounded flight box.
            pub fn report(&self, context: &str) {
                self.flight.report(context);
            }

            /// This bag's panic reports, oldest first, as
            /// `flight report: …` lines (see
            /// [`FlightBox::reports`]($crate::flight::FlightBox::reports)).
            pub fn reports(&self) -> Vec<String> {
                self.flight.reports()
            }

            /// A point-in-time copy of the latency histograms, kept
            /// apart from the counter snapshot so its equality and the
            /// formats persisted from it never see timing.
            pub fn latency(&self) -> $Lat {
                $Lat {
                    $( $hist: self.$hist.snapshot(), )*
                }
            }

            fn counts(&self) -> ::std::sync::MutexGuard<'_, $Snap> {
                // Only `+=` runs under the lock, one whole `u64` field
                // at a time, so a panic there (an overflow in a debug
                // build) leaves every counter a valid count.
                self.counts
                    .lock()
                    .unwrap_or_else(::std::sync::PoisonError::into_inner)
            }
        }

        $(#[$lat_meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $Lat {
            $( $(#[$h_meta])* pub $hist: $crate::HistogramSnapshot, )*
        }

        impl $Lat {
            /// Multi-line terminal rendering, one row per histogram on
            /// the counter render's column grid.
            pub fn render(&self) -> String {
                let mut out = String::from(concat!($title, "\n"));
                $(
                    out.push_str(&format!(
                        "  {:<11} {}\n",
                        $label,
                        self.$hist.render_line()
                    ));
                )*
                out
            }

            fn to_json(self) -> String {
                $crate::JsonObj::new()
                    $( .raw(stringify!($hist), &self.$hist.to_json()) )*
                    .finish()
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::BLACK_BOX_CAPACITY;

    crate::ledger! {
        /// Test bag.
        pub struct Bag;
        /// Test snapshot.
        pub struct Snap {
            /// Sent.
            sent: Count,
            /// Done.
            done: Count,
            /// Dropped.
            dropped: Count,
            /// Clock.
            nanos: Clock,
            /// Cache hits.
            hits: Scheduling,
        }
        /// Test latency.
        pub struct Lat("test latency") {
            /// Per unit.
            unit: "unit",
        }
        balances {
            sent = done + dropped;
        }
    }

    #[test]
    fn sections_balances_and_latency_follow_the_table() {
        let s = Snap {
            sent: 5,
            done: 2,
            dropped: 3,
            nanos: 4,
            hits: 5,
        };
        assert_eq!(
            s.counter_sections(JsonObj::new()).finish(),
            r#"{"counts":{"sent":5,"done":2,"dropped":3},"clocks":{"nanos":4},"scheduling":{"hits":5}}"#
        );
        let none = counter_sections(JsonObj::new(), &[]).finish();
        assert_eq!(none, r#"{"counts":{},"clocks":{},"scheduling":{}}"#);
        assert_eq!(s.balance(), "balanced");
        assert_eq!(Snap { sent: 4, ..s }.balance(), "IMBALANCED");
        let lat = Bag::new().latency();
        assert!(lat
            .render()
            .starts_with("test latency\n  unit        n 0\n"));
        let json = crate::Json::parse(&lat.to_json()).unwrap();
        assert_eq!(json.keys(), vec!["unit"]);
    }

    #[test]
    fn a_poisoned_bag_stays_readable() {
        let bag = Bag::new();
        bag.add(&Snap {
            sent: 1,
            ..Default::default()
        });
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _held = bag.counts();
            panic!("poison the lock");
        }));
        assert!(poisoned.is_err());
        bag.add(&Snap {
            sent: 1,
            ..Default::default()
        });
        assert_eq!(bag.snapshot().sent, 2);
        let run = Bag::new();
        run.absorb(&bag);
        assert_eq!(run.snapshot(), bag.snapshot());
    }

    #[test]
    fn black_box_collects_and_bounds_reports() {
        let bag = Bag::new();
        for i in 0..(BLACK_BOX_CAPACITY + 5) {
            bag.report(&format!(
                "poison flow quarantined (month 2015-06, flow {i})"
            ));
        }
        let reports = bag.reports();
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
        assert!(Bag::new().reports().is_empty(), "a new bag has no reports");
    }

    /// `absorb` files the other bag's reports after this bag's, within
    /// the same bound, and leaves the other bag's box as it was.
    #[test]
    fn absorb_carries_reports_up_within_the_bound() {
        let (run, unit) = (Bag::new(), Bag::new());
        run.report("first");
        for i in 0..BLACK_BOX_CAPACITY {
            unit.report(&format!("unit {i}"));
        }
        run.absorb(&unit);
        run.absorb(&Bag::new());
        let reports = run.reports();
        assert_eq!(reports.len(), BLACK_BOX_CAPACITY + 1);
        assert_eq!(reports[0], "flight report: unit 0\n");
        assert!(reports[BLACK_BOX_CAPACITY].contains("1 earlier reports dropped"));
        assert_eq!(unit.reports().len(), BLACK_BOX_CAPACITY);
    }

    #[test]
    fn rate_and_scaled() {
        assert_eq!(rate(5, 0), 0.0);
        assert!((rate(1000, 100_000_000) - 10_000.0).abs() < 1e-9);
        assert_eq!(scaled(999.0), "999");
        assert_eq!(scaled(1500.0), "1.5k");
        assert_eq!(scaled(2_500_000.0), "2.50M");
        assert_eq!(scaled(3e9), "3.00G");
    }
}
