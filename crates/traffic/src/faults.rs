//! Fault injection for the synthetic tap.
//!
//! The paper stresses that the Notary is a best-effort collector
//! running on operational networks: "we must accept occasional outages,
//! packet drops (e.g., due to CPU overload) and misconfigurations"
//! (§3.1). The injector reproduces those artefacts so the measurement
//! pipeline is forced to tolerate them, smoltcp-style: drops, truncated
//! flows, corrupted octets, mid-flow segment gaps, flow duplication,
//! and contiguous outage windows where the tap sees nothing at all.
//!
//! Every fault is seeded and deterministic: per-flow faults draw from
//! the month RNG stream (gated so a zero probability consumes no
//! draws), and outage windows are a pure function of `(seed, date)`,
//! so serial and sharded runs see identical fault patterns.

use rand::rngs::SmallRng;
use rand::RngExt;

use tlscope_chron::Date;
use tlscope_wire::fxhash::splitmix_unit;

/// Length of one outage window, in days. Outages model the paper's
/// tap-level blackouts (node reboots, capture-process crashes): the
/// tap is dark for a *contiguous* span, not scattered single flows.
pub const OUTAGE_SPAN_DAYS: i64 = 3;

/// Probabilities of each tap fault.
///
/// `drop`, `truncate`, `corrupt`, `gap`, and `duplicate` apply per
/// flow; `outage` applies per [`OUTAGE_SPAN_DAYS`]-day window (the
/// whole window goes dark).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultInjector {
    /// Drop the flow entirely (monitor never sees it).
    pub drop_prob: f64,
    /// Truncate the flow at a random byte (mid-record loss).
    pub truncate_prob: f64,
    /// Flip one random octet (damaged capture).
    pub corrupt_prob: f64,
    /// Excise a contiguous mid-flow span (capture gap: the tap lost a
    /// run of segments but caught the rest of the flow).
    pub gap_prob: f64,
    /// Emit the flow twice (tap-side duplication, e.g. a misconfigured
    /// mirror port seeing both directions of a bonded link).
    pub duplicate_prob: f64,
    /// Probability that any given [`OUTAGE_SPAN_DAYS`]-day window is a
    /// tap outage: every flow dated inside it is lost.
    pub outage_prob: f64,
}

impl FaultInjector {
    /// No faults.
    pub fn none() -> Self {
        FaultInjector {
            drop_prob: 0.0,
            truncate_prob: 0.0,
            corrupt_prob: 0.0,
            gap_prob: 0.0,
            duplicate_prob: 0.0,
            outage_prob: 0.0,
        }
    }

    /// The default best-effort-tap fault mix.
    ///
    /// The extended faults (gap, duplication, outage) default to zero
    /// so the default event stream — which calibration anchors on —
    /// is unchanged; enable them explicitly or via [`stress`].
    ///
    /// [`stress`]: FaultInjector::stress
    pub fn tap_defaults() -> Self {
        FaultInjector {
            drop_prob: 0.002,
            truncate_prob: 0.001,
            corrupt_prob: 0.0005,
            ..FaultInjector::none()
        }
    }

    /// A high-fault profile exercising every recovery path: heavy
    /// drops, truncation, corruption, gaps, duplication, and outages.
    /// The `tap-stress` benchmark workload runs it, and so do the
    /// pipeline, study and byte-pin tests.
    pub fn stress() -> Self {
        FaultInjector {
            drop_prob: 0.05,
            truncate_prob: 0.10,
            corrupt_prob: 0.05,
            gap_prob: 0.10,
            duplicate_prob: 0.05,
            outage_prob: 0.15,
        }
    }

    /// True when `date` falls inside a tap outage window. Pure in
    /// `(seed, date)`: independent of RNG stream position, worker
    /// sharding, and generation order, so outages are contiguous
    /// calendar spans exactly as §3.1 describes.
    pub fn in_outage(&self, seed: u64, date: Date) -> bool {
        if self.outage_prob <= 0.0 {
            return false;
        }
        let window = date.to_epoch_days().div_euclid(OUTAGE_SPAN_DAYS) as u64;
        // SplitMix64 over (seed, window) → uniform in [0, 1).
        splitmix_unit(seed ^ window.wrapping_mul(0x9e3779b97f4a7c15)) < self.outage_prob
    }

    /// Whether the tap duplicates this flow (drawn per flow; gated so
    /// a zero probability consumes no RNG draws).
    pub fn duplicates(&self, rng: &mut SmallRng) -> bool {
        self.duplicate_prob > 0.0 && rng.random::<f64>() < self.duplicate_prob
    }

    /// Apply per-flow byte faults to `flow` in place, each fault gated
    /// so a zero probability consumes no RNG draws. Returns `false`
    /// when the flow was dropped (the buffer contents are then
    /// meaningless).
    pub fn apply(&self, flow: &mut Vec<u8>, rng: &mut SmallRng) -> bool {
        if self.drop_prob > 0.0 && rng.random::<f64>() < self.drop_prob {
            return false;
        }
        if self.truncate_prob > 0.0 && rng.random::<f64>() < self.truncate_prob && !flow.is_empty()
        {
            let cut = rng.random_range(0..flow.len());
            flow.truncate(cut);
        }
        if self.gap_prob > 0.0 && rng.random::<f64>() < self.gap_prob && flow.len() >= 2 {
            // Excise a contiguous span strictly inside the flow: the
            // capture resumes after the gap, so bytes remain on both
            // sides of the damage.
            let start = rng.random_range(0..flow.len() - 1);
            let len = rng.random_range(1..=flow.len() - 1 - start).max(1);
            flow.drain(start..start + len);
        }
        if self.corrupt_prob > 0.0 && rng.random::<f64>() < self.corrupt_prob && !flow.is_empty() {
            let idx = rng.random_range(0..flow.len());
            flow[idx] ^= 1 << rng.random_range(0..8u8);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// `flow` after the injector's byte faults, `None` when dropped.
    fn apply(inj: FaultInjector, mut flow: Vec<u8>, rng: &mut SmallRng) -> Option<Vec<u8>> {
        inj.apply(&mut flow, rng).then_some(flow)
    }

    #[test]
    fn none_is_identity() {
        let mut rng = SmallRng::seed_from_u64(1);
        let data = vec![1u8, 2, 3, 4];
        assert_eq!(
            apply(FaultInjector::none(), data.clone(), &mut rng),
            Some(data)
        );
    }

    #[test]
    fn always_drop() {
        let inj = FaultInjector {
            drop_prob: 1.0,
            ..FaultInjector::none()
        };
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(apply(inj, vec![1, 2, 3], &mut rng), None);
    }

    #[test]
    fn truncation_shortens() {
        let inj = FaultInjector {
            truncate_prob: 1.0,
            ..FaultInjector::none()
        };
        let mut rng = SmallRng::seed_from_u64(7);
        let out = apply(inj, vec![9u8; 100], &mut rng).unwrap();
        assert!(out.len() < 100);
    }

    #[test]
    fn corruption_flips_one_bit() {
        let inj = FaultInjector {
            corrupt_prob: 1.0,
            ..FaultInjector::none()
        };
        let mut rng = SmallRng::seed_from_u64(3);
        let data = vec![0u8; 64];
        let out = apply(inj, data.clone(), &mut rng).unwrap();
        assert_eq!(out.len(), data.len());
        let diff: u32 = out
            .iter()
            .zip(&data)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(diff, 1);
    }

    #[test]
    fn gap_removes_interior_span() {
        let inj = FaultInjector {
            gap_prob: 1.0,
            ..FaultInjector::none()
        };
        let mut rng = SmallRng::seed_from_u64(5);
        let data: Vec<u8> = (0..200u8).collect();
        let out = apply(inj, data.clone(), &mut rng).unwrap();
        assert!(!out.is_empty(), "gap must never consume the whole flow");
        assert!(out.len() < data.len(), "gap must remove bytes");
        // The surviving bytes are a subsequence of the original flow:
        // a contiguous prefix followed by a contiguous suffix.
        let removed = data.len() - out.len();
        let mut matched = false;
        for start in 0..out.len() + 1 {
            if data[..start] == out[..start] && data[start + removed..] == out[start..] {
                matched = true;
                break;
            }
        }
        assert!(matched, "gap output is not prefix+suffix of the input");
    }

    #[test]
    fn default_rates_are_rare() {
        let inj = FaultInjector::tap_defaults();
        let mut rng = SmallRng::seed_from_u64(11);
        let survived = (0..10_000)
            .filter(|_| apply(inj, vec![1, 2, 3], &mut rng).is_some())
            .count();
        assert!(survived > 9_900);
    }

    #[test]
    fn outage_windows_are_contiguous_and_deterministic() {
        let inj = FaultInjector {
            outage_prob: 0.3,
            ..FaultInjector::none()
        };
        let start = Date::ymd(2015, 1, 1);
        let days: Vec<bool> = (0..365)
            .map(|d| inj.in_outage(9, start.add_days(d)))
            .collect();
        // Deterministic: same answer on re-query.
        let again: Vec<bool> = (0..365)
            .map(|d| inj.in_outage(9, start.add_days(d)))
            .collect();
        assert_eq!(days, again);
        // Some outages, but not everything dark.
        let dark = days.iter().filter(|d| **d).count();
        assert!(dark > 30, "expected some outage days, got {dark}");
        assert!(dark < 300, "expected some light days, got {dark}");
        // Dark days come in runs of OUTAGE_SPAN_DAYS (window-aligned, so
        // any maximal run is a multiple of the span once away from the
        // year boundary).
        let mut run = 0i64;
        for (i, d) in days.iter().enumerate() {
            if *d {
                run += 1;
            } else {
                if run > 0 && i as i64 - run > 0 {
                    assert_eq!(run % OUTAGE_SPAN_DAYS, 0, "run of {run} days");
                }
                run = 0;
            }
        }
        // A different seed produces a different outage calendar.
        let other: Vec<bool> = (0..365)
            .map(|d| inj.in_outage(10, start.add_days(d)))
            .collect();
        assert_ne!(days, other);
    }

    #[test]
    fn zero_probability_outage_never_fires() {
        let inj = FaultInjector::none();
        for d in 0..1000 {
            assert!(!inj.in_outage(1, Date::ymd(2014, 1, 1).add_days(d)));
        }
    }

    #[test]
    fn profile_probabilities_lie_in_the_unit_interval() {
        for inj in [
            FaultInjector::none(),
            FaultInjector::tap_defaults(),
            FaultInjector::stress(),
        ] {
            for p in [
                inj.drop_prob,
                inj.truncate_prob,
                inj.corrupt_prob,
                inj.gap_prob,
                inj.duplicate_prob,
                inj.outage_prob,
            ] {
                assert!((0.0..=1.0).contains(&p), "{inj:?}");
            }
        }
    }
}
