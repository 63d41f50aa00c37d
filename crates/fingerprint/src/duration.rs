//! Fingerprint-lifetime tracking (§4.1 of the paper).
//!
//! The paper asks: how long is each fingerprint seen in the wild? It
//! finds an extreme bimodality — the median lifetime is a single day
//! (42,188 of 69,874 fingerprints appear on exactly one day), while
//! 1,203 fingerprints persist for more than 1,200 days and carry 21.75 %
//! of fingerprinted traffic. [`SightingTracker`] reproduces those
//! statistics from a stream of (fingerprint, date) observations.

use std::hash::Hash;
use tlscope_chron::Date;
use tlscope_wire::fxhash::FxHashMap;

/// First-seen / last-seen / volume record for one fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sighting {
    /// First date observed.
    pub first: Date,
    /// Last date observed.
    pub last: Date,
    /// Total connections observed.
    pub connections: u64,
}

impl Sighting {
    /// Lifetime in days, *inclusive* of both endpoints — a fingerprint
    /// seen on a single day has duration 1 (the paper's "median 1 day").
    pub fn duration_days(&self) -> i64 {
        (self.last - self.first) + 1
    }
}

/// Aggregated §4.1 statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct DurationStats {
    /// Number of distinct fingerprints.
    pub fingerprints: usize,
    /// Maximum lifetime in days.
    pub max_days: i64,
    /// Median lifetime in days.
    pub median_days: f64,
    /// Mean lifetime in days.
    pub mean_days: f64,
    /// Third-quartile lifetime in days.
    pub q3_days: f64,
    /// Standard deviation of lifetimes in days.
    pub stddev_days: f64,
    /// Fingerprints seen on exactly one day.
    pub single_day: usize,
    /// Connections carried by single-day fingerprints.
    pub single_day_connections: u64,
    /// Fingerprints with lifetime above `long_threshold_days`.
    pub long_lived: usize,
    /// Connections carried by long-lived fingerprints.
    pub long_lived_connections: u64,
    /// Total connections observed.
    pub total_connections: u64,
    /// Threshold used for `long_lived` (paper: 1,200 days).
    pub long_threshold_days: i64,
}

impl DurationStats {
    /// Share of connections carried by long-lived fingerprints, percent.
    pub fn long_lived_traffic_pct(&self) -> f64 {
        if self.total_connections == 0 {
            0.0
        } else {
            100.0 * self.long_lived_connections as f64 / self.total_connections as f64
        }
    }
}

/// Streaming first/last-seen tracker keyed by fingerprint id.
///
/// The key type is generic so callers can pick the cheapest id at
/// hand: the 64-bit content hash ([`crate::Fingerprint::id64`]) for
/// standalone use, or a dense interned u32 ([`crate::FpId`]) inside a
/// high-volume aggregate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SightingTracker<K: Eq + Hash = u64> {
    map: FxHashMap<K, Sighting>,
}

impl<K: Eq + Hash + Copy> Default for SightingTracker<K> {
    fn default() -> Self {
        SightingTracker {
            map: FxHashMap::default(),
        }
    }
}

impl<K: Eq + Hash + Copy> SightingTracker<K> {
    /// Empty tracker.
    pub fn new() -> Self {
        SightingTracker::default()
    }

    /// Record `count` connections with fingerprint id `fp` on `date`.
    ///
    /// Observations may arrive out of chronological order.
    pub fn observe(&mut self, fp: K, date: Date, count: u64) {
        self.map
            .entry(fp)
            .and_modify(|s| {
                if date < s.first {
                    s.first = date;
                }
                if date > s.last {
                    s.last = date;
                }
                s.connections += count;
            })
            .or_insert(Sighting {
                first: date,
                last: date,
                connections: count,
            });
    }

    /// Number of distinct fingerprints seen.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing has been observed.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Sighting record for one fingerprint id.
    pub fn get(&self, fp: K) -> Option<&Sighting> {
        self.map.get(&fp)
    }

    /// Iterate all (fingerprint id, sighting) pairs — used to merge
    /// trackers from parallel ingestion workers.
    pub fn iter_raw(&self) -> impl Iterator<Item = (&K, &Sighting)> {
        self.map.iter()
    }

    /// Compute §4.1 statistics with the given long-lived threshold
    /// (the paper uses 1,200 days).
    pub fn stats(&self, long_threshold_days: i64) -> DurationStats {
        let mut durations: Vec<i64> = self.map.values().map(|s| s.duration_days()).collect();
        durations.sort_unstable();
        let n = durations.len();
        let total_connections: u64 = self.map.values().map(|s| s.connections).sum();
        if n == 0 {
            return DurationStats {
                fingerprints: 0,
                max_days: 0,
                median_days: 0.0,
                mean_days: 0.0,
                q3_days: 0.0,
                stddev_days: 0.0,
                single_day: 0,
                single_day_connections: 0,
                long_lived: 0,
                long_lived_connections: 0,
                total_connections,
                long_threshold_days,
            };
        }
        let mean = durations.iter().sum::<i64>() as f64 / n as f64;
        let var = durations
            .iter()
            .map(|d| {
                let diff = *d as f64 - mean;
                diff * diff
            })
            .sum::<f64>()
            / n as f64;
        let quantile = |q: f64| -> f64 {
            // Linear interpolation between closest ranks (type-7).
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            let frac = pos - lo as f64;
            durations[lo] as f64 * (1.0 - frac) + durations[hi] as f64 * frac
        };
        let single: Vec<&Sighting> = self
            .map
            .values()
            .filter(|s| s.duration_days() == 1)
            .collect();
        let long: Vec<&Sighting> = self
            .map
            .values()
            .filter(|s| s.duration_days() > long_threshold_days)
            .collect();
        DurationStats {
            fingerprints: n,
            max_days: *durations.last().unwrap(),
            median_days: quantile(0.5),
            mean_days: mean,
            q3_days: quantile(0.75),
            stddev_days: var.sqrt(),
            single_day: single.len(),
            single_day_connections: single.iter().map(|s| s.connections).sum(),
            long_lived: long.len(),
            long_lived_connections: long.iter().map(|s| s.connections).sum(),
            total_connections,
            long_threshold_days,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_day_has_duration_one() {
        let mut t: SightingTracker = SightingTracker::new();
        t.observe(1, Date::ymd(2015, 6, 1), 10);
        assert_eq!(t.get(1).unwrap().duration_days(), 1);
    }

    #[test]
    fn out_of_order_observations() {
        let mut t: SightingTracker = SightingTracker::new();
        t.observe(1, Date::ymd(2015, 6, 10), 1);
        t.observe(1, Date::ymd(2015, 6, 1), 1);
        t.observe(1, Date::ymd(2015, 6, 5), 1);
        let s = t.get(1).unwrap();
        assert_eq!(s.first, Date::ymd(2015, 6, 1));
        assert_eq!(s.last, Date::ymd(2015, 6, 10));
        assert_eq!(s.duration_days(), 10);
        assert_eq!(s.connections, 3);
    }

    #[test]
    fn stats_bimodal_population() {
        let mut t: SightingTracker = SightingTracker::new();
        // 6 ephemeral single-day fingerprints with little traffic.
        for i in 0..6 {
            t.observe(i, Date::ymd(2016, 1, 1 + i as u8), 1);
        }
        // 2 long-lived fingerprints with heavy traffic.
        for i in 100..102u64 {
            t.observe(i, Date::ymd(2014, 10, 1), 500);
            t.observe(i, Date::ymd(2018, 3, 1), 500);
        }
        let stats = t.stats(1200);
        assert_eq!(stats.fingerprints, 8);
        assert_eq!(stats.single_day, 6);
        assert_eq!(stats.single_day_connections, 6);
        assert_eq!(stats.long_lived, 2);
        assert_eq!(stats.long_lived_connections, 2000);
        assert_eq!(stats.median_days, 1.0);
        assert_eq!(
            stats.max_days,
            (Date::ymd(2018, 3, 1) - Date::ymd(2014, 10, 1)) + 1
        );
        assert!((stats.long_lived_traffic_pct() - 100.0 * 2000.0 / 2006.0).abs() < 1e-9);
        assert!(stats.mean_days > 1.0 && stats.stddev_days > 0.0);
    }

    #[test]
    fn quantiles_on_uniform_data() {
        let mut t: SightingTracker = SightingTracker::new();
        // Durations 1, 2, 3, 4, 5 days.
        for i in 0..5u64 {
            t.observe(i, Date::ymd(2016, 1, 1), 1);
            t.observe(i, Date::ymd(2016, 1, 1 + i as u8), 1);
        }
        let stats = t.stats(1200);
        assert_eq!(stats.median_days, 3.0);
        assert_eq!(stats.q3_days, 4.0);
        assert_eq!(stats.mean_days, 3.0);
    }

    #[test]
    fn empty_stats() {
        let t: SightingTracker = SightingTracker::new();
        let stats = t.stats(1200);
        assert_eq!(stats.fingerprints, 0);
        assert_eq!(stats.long_lived_traffic_pct(), 0.0);
    }
}
