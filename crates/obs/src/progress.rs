//! The live campaign heartbeat.
//!
//! Long campaigns (a 76-month passive window, ~142 weekly sweeps) run
//! silently for minutes; [`Progress`] is the opt-in stderr heartbeat
//! that makes them watchable. It is configured from the
//! `TLSCOPE_PROGRESS` environment variable — unset, empty, `off`, or
//! an unparsable/non-positive value disables it entirely (the default:
//! zero overhead, zero output); any positive number of seconds (`1`,
//! `0.5`, …) enables a tick at that interval.
//!
//! The reporter itself is passive: the campaign runner spawns one
//! extra scoped thread that calls [`Progress::run_ticker`] with a
//! `sample` closure reading the shared metrics bag. The instrumented
//! workers never see it — the heartbeat only loads relaxed atomics, so
//! it cannot perturb ledger accounting or bit-identity.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Environment variable controlling the heartbeat: `off` (or unset)
/// disables, a positive number of seconds sets the tick interval.
pub const PROGRESS_ENV: &str = "TLSCOPE_PROGRESS";

/// Poll granularity of the ticker loop; also bounds how long a
/// finished campaign waits for its heartbeat thread to notice.
const POLL: Duration = Duration::from_millis(50);

/// An opt-in progress reporter for a campaign with a known number of
/// work units (months, sweep dates) and a monotone item counter
/// (flows, hosts).
#[derive(Debug, Clone)]
pub struct Progress {
    interval: Option<Duration>,
    task: String,
    total_units: u64,
    unit: &'static str,
    item_unit: &'static str,
}

impl Progress {
    /// A reporter configured from [`PROGRESS_ENV`]. `task` names the
    /// campaign in each line; `total_units` is the number of `unit`s
    /// (e.g. months) the run will complete; `item_unit` names the
    /// throughput counter (e.g. flows).
    pub fn from_env(
        task: &str,
        total_units: u64,
        unit: &'static str,
        item_unit: &'static str,
    ) -> Self {
        let interval = std::env::var(PROGRESS_ENV)
            .ok()
            .and_then(|raw| parse_interval(&raw));
        Progress {
            interval,
            task: task.to_string(),
            total_units,
            unit,
            item_unit,
        }
    }

    /// A reporter with an explicit interval, independent of the
    /// environment (used by the bench harness).
    pub fn with_interval(
        interval: Duration,
        task: &str,
        total_units: u64,
        unit: &'static str,
        item_unit: &'static str,
    ) -> Self {
        Progress {
            interval: Some(interval.max(Duration::from_millis(10))),
            task: task.to_string(),
            total_units,
            unit,
            item_unit,
        }
    }

    /// Whether the heartbeat will print anything. When false,
    /// `run_ticker` returns immediately — callers skip spawning the
    /// thread.
    pub fn is_enabled(&self) -> bool {
        self.interval.is_some()
    }

    /// The units the campaign completes in all, counting any done
    /// before this run.
    pub fn total_units(&self) -> u64 {
        self.total_units
    }

    /// Tick until `stop` becomes true, printing one heartbeat line per
    /// interval and a final summary line at the end. `sample` returns
    /// `(units_done, items_done)` from the shared metrics; it is
    /// called at most once per poll. Blocking — run it on a dedicated
    /// (scoped) thread alongside the campaign workers.
    pub fn run_ticker(&self, stop: &AtomicBool, sample: impl Fn() -> (u64, u64)) {
        let Some(interval) = self.interval else {
            return;
        };
        let started = Instant::now();
        let mut last_print = Instant::now();
        let mut last_items = sample().1;
        while !stop.load(Ordering::Acquire) {
            std::thread::sleep(POLL);
            if last_print.elapsed() < interval {
                continue;
            }
            let (units, items) = sample();
            let elapsed = last_print.elapsed().as_secs_f64();
            let delta = items.saturating_sub(last_items);
            let rate = delta as f64 / elapsed.max(1e-9);
            eprintln!(
                "# progress {}: {}/{} {}  {} {} (+{}, {:.0}/s)  eta {}",
                self.task,
                units,
                self.total_units,
                self.unit,
                items,
                self.item_unit,
                delta,
                rate,
                self.eta(units, started.elapsed()),
            );
            last_print = Instant::now();
            last_items = items;
        }
        let (units, items) = sample();
        let total = started.elapsed().as_secs_f64();
        eprintln!(
            "# progress {}: done — {}/{} {}, {} {} in {:.1}s ({:.0}/s)",
            self.task,
            units,
            self.total_units,
            self.unit,
            items,
            self.item_unit,
            total,
            items as f64 / total.max(1e-9),
        );
    }

    /// Remaining-time estimate from linear extrapolation over
    /// completed units; `"?"` until the first unit lands.
    fn eta(&self, units_done: u64, elapsed: Duration) -> String {
        if units_done == 0 || self.total_units == 0 {
            return "?".to_string();
        }
        let remaining = self.total_units.saturating_sub(units_done);
        let secs = elapsed.as_secs_f64() / units_done as f64 * remaining as f64;
        if secs >= 90.0 {
            format!("{:.1}min", secs / 60.0)
        } else {
            format!("{secs:.1}s")
        }
    }
}

/// `TLSCOPE_PROGRESS` value → tick interval; `None` disables.
fn parse_interval(raw: &str) -> Option<Duration> {
    let raw = raw.trim();
    if raw.is_empty() || raw.eq_ignore_ascii_case("off") {
        return None;
    }
    let secs: f64 = raw.parse().ok()?;
    if !secs.is_finite() || secs <= 0.0 {
        return None;
    }
    Some(Duration::from_secs_f64(secs).max(Duration::from_millis(10)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_parsing() {
        assert_eq!(parse_interval(""), None);
        assert_eq!(parse_interval("off"), None);
        assert_eq!(parse_interval("OFF"), None);
        assert_eq!(parse_interval("0"), None);
        assert_eq!(parse_interval("-3"), None);
        assert_eq!(parse_interval("bananas"), None);
        assert_eq!(parse_interval("2"), Some(Duration::from_secs(2)));
        assert_eq!(parse_interval("0.5"), Some(Duration::from_millis(500)));
        // Sub-10ms intervals clamp rather than spin.
        assert_eq!(parse_interval("0.0001"), Some(Duration::from_millis(10)));
    }

    #[test]
    fn disabled_ticker_returns_immediately() {
        let p = Progress {
            interval: None,
            task: "t".into(),
            total_units: 10,
            unit: "months",
            item_unit: "flows",
        };
        assert!(!p.is_enabled());
        let stop = AtomicBool::new(false); // never set — must not block
        p.run_ticker(&stop, || (0, 0));
    }

    #[test]
    fn enabled_ticker_stops_and_summarises() {
        let p = Progress::with_interval(Duration::from_millis(10), "t", 4, "months", "flows");
        assert!(p.is_enabled());
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            let ticker = s.spawn(|| p.run_ticker(&stop, || (2, 1234)));
            std::thread::sleep(Duration::from_millis(30));
            stop.store(true, Ordering::Release);
            ticker.join().unwrap();
        });
    }

    #[test]
    fn eta_extrapolates() {
        let p = Progress::with_interval(Duration::from_secs(1), "t", 10, "months", "flows");
        assert_eq!(p.eta(0, Duration::from_secs(5)), "?");
        assert_eq!(p.eta(5, Duration::from_secs(5)), "5.0s");
        assert_eq!(p.eta(1, Duration::from_secs(30)), "4.5min");
        assert_eq!(p.eta(10, Duration::from_secs(5)), "0.0s");
    }
}
