//! Fault injection for the active-scan engine.
//!
//! The Censys pipeline the paper rides on (§3.2) ran IPv4-wide sweeps
//! weekly for almost three years. At that scale unanswered SYNs,
//! handshake timeouts, and flaky hosts are the *normal* case, not the
//! exception — a scanner that assumes every probe is answered or
//! refused cleanly is hiding its own loss modes. [`ScanFaults`] is the
//! scan-side mirror of the passive tap's `FaultInjector`: a knob per
//! §3.2 artefact, each drawn deterministically so a campaign at any
//! worker count, and a date replayed host by host, see identical fault
//! patterns.
//!
//! Every draw is a pure function of `(seed, date, host_index, attempt)`
//! through the same SplitMix64 counter construction the host sampler
//! and the tap's outage windows use: no draw depends on RNG stream
//! position, worker count, replay, or visit order. Retry draws are
//! keyed by attempt number, so a host probed alone fails (or recovers)
//! exactly as it does in the full sweep.

use tlscope_chron::Date;

/// Length of one dead-host window, in days. A host that draws "dead"
/// stays dark for the whole window — the scan-side analogue of the
/// tap's contiguous outage spans: real unreachability (machine off,
/// network renumbered) persists across retries and adjacent sweeps,
/// it does not flicker per probe.
pub const DEAD_HOST_SPAN_DAYS: i64 = 7;

/// Probe attempts per host before the scanner gives up and counts the
/// host as dropped (1 initial try + 2 retries).
pub const MAX_PROBE_ATTEMPTS: u32 = 3;

/// A probability field was invalid (checked constructor, see
/// [`ScanFaults::checked`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanFaultConfigError {
    /// Name of the offending field.
    pub field: &'static str,
}

impl std::fmt::Display for ScanFaultConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "scan fault probability `{}` must be a finite value in [0, 1]",
            self.field
        )
    }
}

impl std::error::Error for ScanFaultConfigError {}

/// Probabilities of each active-scan fault, plus one deterministic
/// failpoint used by tests to panic a sweep on purpose.
///
/// `syn_drop_prob` and `flake_prob` apply per `(host, attempt)` and
/// are *transient* — a retry redraws them. `timeout_prob` applies per
/// individual probe within an attempt; a timed-out probe was sent, so
/// it stays in the ledger as `probes_timed_out` rather than being
/// retried. `dead_host_prob` applies per host per
/// [`DEAD_HOST_SPAN_DAYS`]-day window and is *permanent* within the
/// window: every attempt fails, and the host is eventually counted as
/// dropped. Construct with [`ScanFaults::checked`] to validate the
/// probabilities; the struct-literal escape hatch remains for tests,
/// and [`ScanFaults::validate`] can be called on any value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScanFaults {
    /// Probability a connect attempt's SYN is silently dropped
    /// (per host per attempt; transient — retried).
    pub syn_drop_prob: f64,
    /// Probability an individual probe's handshake times out after the
    /// connection was established (per probe per attempt; the probe
    /// counts as sent and timed out, never retried).
    pub timeout_prob: f64,
    /// Probability an established connection dies before any probe
    /// completes — a flaky host (per host per attempt; transient —
    /// retried). Scaled by the sampled profile's
    /// `ServerProfile::scan_flake_bias`.
    pub flake_prob: f64,
    /// Probability a host is dead for a whole [`DEAD_HOST_SPAN_DAYS`]
    /// window (per host per window; permanent — retries cannot help,
    /// the host is dropped once the attempt budget is exhausted).
    pub dead_host_prob: f64,
    /// Test failpoint: probing this host index panics the sweep,
    /// exercising the date's host-by-host replay and the quarantine
    /// of that host. `None` in every named profile.
    pub panic_on_host: Option<u64>,
}

impl ScanFaults {
    /// No faults: every probe is answered or refused cleanly.
    pub fn none() -> Self {
        ScanFaults {
            syn_drop_prob: 0.0,
            timeout_prob: 0.0,
            flake_prob: 0.0,
            dead_host_prob: 0.0,
            panic_on_host: None,
        }
    }

    /// The default real-sweep fault mix: a few percent of hosts
    /// unreachable or flaky, a sub-percent handshake-timeout rate —
    /// the magnitudes an IPv4-wide TCP/443 sweep actually sees.
    pub fn scan_defaults() -> Self {
        ScanFaults {
            syn_drop_prob: 0.01,
            timeout_prob: 0.005,
            flake_prob: 0.01,
            dead_host_prob: 0.02,
            ..ScanFaults::none()
        }
    }

    /// A high-fault profile exercising every recovery path: heavy SYN
    /// loss, timeouts, flakes, and dead-host windows. Used by the CI
    /// fault-matrix job (`TLSCOPE_SCAN_FAULT_PROFILE=stress`).
    pub fn stress() -> Self {
        ScanFaults {
            syn_drop_prob: 0.10,
            timeout_prob: 0.08,
            flake_prob: 0.10,
            dead_host_prob: 0.08,
            ..ScanFaults::none()
        }
    }

    /// Checked constructor over the four probabilities (in declaration
    /// order): rejects NaN, negative, and >1.0 values instead of
    /// silently misbehaving at draw time. Failpoints start unset.
    pub fn checked(
        syn_drop_prob: f64,
        timeout_prob: f64,
        flake_prob: f64,
        dead_host_prob: f64,
    ) -> Result<Self, ScanFaultConfigError> {
        let faults = ScanFaults {
            syn_drop_prob,
            timeout_prob,
            flake_prob,
            dead_host_prob,
            ..ScanFaults::none()
        };
        faults.validate()?;
        Ok(faults)
    }

    /// Validate every probability field: finite and within `[0, 1]`.
    pub fn validate(&self) -> Result<(), ScanFaultConfigError> {
        for (field, p) in [
            ("syn_drop_prob", self.syn_drop_prob),
            ("timeout_prob", self.timeout_prob),
            ("flake_prob", self.flake_prob),
            ("dead_host_prob", self.dead_host_prob),
        ] {
            if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                return Err(ScanFaultConfigError { field });
            }
        }
        Ok(())
    }

    /// True when no fault can ever fire (all probabilities zero and no
    /// failpoint armed) — the profile calibration anchors on.
    pub fn is_none(&self) -> bool {
        self.syn_drop_prob == 0.0
            && self.timeout_prob == 0.0
            && self.flake_prob == 0.0
            && self.dead_host_prob == 0.0
            && self.panic_on_host.is_none()
    }

    /// The names [`ScanFaults::profile`] resolves, one per profile.
    pub const PROFILES: [&'static str; 3] = ["none", "defaults", "stress"];

    /// Resolve a named fault profile: `none`, `defaults` (the real
    /// sweep mix; `scan` is an alias), or `stress`.
    pub fn profile(name: &str) -> Option<Self> {
        match name {
            "none" => Some(ScanFaults::none()),
            "defaults" | "scan" => Some(ScanFaults::scan_defaults()),
            "stress" => Some(ScanFaults::stress()),
            _ => None,
        }
    }

    /// The profile named by the `TLSCOPE_SCAN_FAULT_PROFILE`
    /// environment variable, falling back to `fallback` when the
    /// variable is unset or names no known profile. This is how the CI
    /// fault-matrix job re-runs the scanner tests under `stress`
    /// without a code change.
    pub fn from_env(fallback: ScanFaults) -> ScanFaults {
        std::env::var("TLSCOPE_SCAN_FAULT_PROFILE")
            .ok()
            .as_deref()
            .and_then(ScanFaults::profile)
            .unwrap_or(fallback)
    }

    /// True when `index` is dead for the [`DEAD_HOST_SPAN_DAYS`]
    /// window containing `date`. Pure in `(seed, window, index)`:
    /// attempt-independent, so retries within the window always fail.
    pub fn host_dead(&self, seed: u64, date: Date, index: u64) -> bool {
        if self.dead_host_prob <= 0.0 {
            return false;
        }
        let window = date.to_epoch_days().div_euclid(DEAD_HOST_SPAN_DAYS) as u64;
        unit(key(seed, window, index, 0) ^ SALT_DEAD) < self.dead_host_prob
    }

    /// True when attempt `attempt` at host `index` loses its SYN
    /// (transient: each attempt redraws).
    pub fn syn_dropped(&self, seed: u64, date: Date, index: u64, attempt: u32) -> bool {
        if self.syn_drop_prob <= 0.0 {
            return false;
        }
        let days = date.to_epoch_days() as u64;
        unit(key(seed, days, index, attempt) ^ SALT_SYN) < self.syn_drop_prob
    }

    /// True when the established connection of attempt `attempt` at
    /// host `index` flakes out before probing completes. `bias` scales
    /// the base probability (flaky cohorts flake more); the effective
    /// probability is clamped to 1.
    pub fn flakes(&self, seed: u64, date: Date, index: u64, attempt: u32, bias: f64) -> bool {
        if self.flake_prob <= 0.0 {
            return false;
        }
        let days = date.to_epoch_days() as u64;
        unit(key(seed, days, index, attempt) ^ SALT_FLAKE) < (self.flake_prob * bias).min(1.0)
    }

    /// True when probe number `probe` of attempt `attempt` at host
    /// `index` times out mid-handshake (sent but never resolved).
    pub fn times_out(&self, seed: u64, date: Date, index: u64, attempt: u32, probe: u32) -> bool {
        if self.timeout_prob <= 0.0 {
            return false;
        }
        let days = date.to_epoch_days() as u64;
        let k = key(seed, days, index, attempt) ^ (probe as u64).wrapping_mul(SALT_PROBE_STEP);
        unit(k ^ SALT_TIMEOUT) < self.timeout_prob
    }
}

// Distinct salts so the fault streams never alias each other (or the
// host-profile stream) at the same counter key.
const SALT_DEAD: u64 = 0x5CA4_FA17_0000_0000;
const SALT_SYN: u64 = 0x5CA4_FA17_0000_0001;
const SALT_FLAKE: u64 = 0x5CA4_FA17_0000_0002;
const SALT_TIMEOUT: u64 = 0x5CA4_FA17_0000_0003;
const SALT_PROBE_STEP: u64 = 0x9fb2_1c65_1e98_df25;

/// Mix `(seed, date-or-window, host index, attempt)` into one 64-bit
/// counter key — the same multiplicative mixing the host sampler uses,
/// extended by an attempt term so retry draws are independent.
fn key(seed: u64, days: u64, index: u64, attempt: u32) -> u64 {
    seed ^ days.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ index.wrapping_mul(0xd1b5_4a32_d192_ed03)
        ^ (attempt as u64).wrapping_mul(0xa24b_aed4_963e_e407)
}

/// SplitMix64 finalisation of `z`, mapped to a uniform draw in [0, 1).
fn unit(mut z: u64) -> f64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z >> 11) as f64 / ((1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checked_rejects_bad_probabilities() {
        assert!(ScanFaults::checked(0.0, 0.0, 0.0, 0.0).is_ok());
        assert!(ScanFaults::checked(1.0, 1.0, 1.0, 1.0).is_ok());
        let nan = ScanFaults::checked(f64::NAN, 0.0, 0.0, 0.0);
        assert_eq!(nan.unwrap_err().field, "syn_drop_prob");
        let neg = ScanFaults::checked(0.0, -0.001, 0.0, 0.0);
        assert_eq!(neg.unwrap_err().field, "timeout_prob");
        let over = ScanFaults::checked(0.0, 0.0, 1.5, 0.0);
        assert_eq!(over.unwrap_err().field, "flake_prob");
        let inf = ScanFaults::checked(0.0, 0.0, 0.0, f64::INFINITY);
        assert_eq!(inf.unwrap_err().field, "dead_host_prob");
        let msg = inf.unwrap_err().to_string();
        assert!(msg.contains("dead_host_prob"), "{msg}");
    }

    #[test]
    fn validate_flags_struct_literals() {
        let bad = ScanFaults {
            dead_host_prob: f64::NAN,
            ..ScanFaults::none()
        };
        assert_eq!(bad.validate().unwrap_err().field, "dead_host_prob");
        assert!(ScanFaults::stress().validate().is_ok());
        assert!(ScanFaults::scan_defaults().validate().is_ok());
    }

    #[test]
    fn named_profiles_resolve() {
        assert_eq!(ScanFaults::profile("none"), Some(ScanFaults::none()));
        assert_eq!(
            ScanFaults::profile("defaults"),
            Some(ScanFaults::scan_defaults())
        );
        assert_eq!(ScanFaults::profile("stress"), Some(ScanFaults::stress()));
        assert_eq!(ScanFaults::profile("bogus"), None);
        assert_eq!(
            ScanFaults::profile("scan"),
            Some(ScanFaults::scan_defaults())
        );
        let resolved: Vec<_> = ScanFaults::PROFILES
            .iter()
            .map(|name| ScanFaults::profile(name))
            .collect();
        assert_eq!(
            resolved,
            [
                Some(ScanFaults::none()),
                Some(ScanFaults::scan_defaults()),
                Some(ScanFaults::stress())
            ]
        );
        assert!(ScanFaults::none().is_none());
        assert!(!ScanFaults::stress().is_none());
        assert!(!ScanFaults {
            panic_on_host: Some(1),
            ..ScanFaults::none()
        }
        .is_none());
    }

    #[test]
    fn dead_host_windows_persist_across_retries_and_days() {
        let faults = ScanFaults {
            dead_host_prob: 0.3,
            ..ScanFaults::none()
        };
        let start = Date::ymd(2016, 1, 4);
        // Dead-or-alive is attempt-independent by construction (no
        // attempt argument) and constant within a window.
        let window_start = Date::ymd(2016, 1, 4); // any date; compare within span
        let d0 = faults.host_dead(7, window_start, 42);
        for offset in 0..DEAD_HOST_SPAN_DAYS {
            let day = start.add_days(offset);
            if day.to_epoch_days().div_euclid(DEAD_HOST_SPAN_DAYS)
                == window_start.to_epoch_days().div_euclid(DEAD_HOST_SPAN_DAYS)
            {
                assert_eq!(faults.host_dead(7, day, 42), d0);
            }
        }
        // Roughly the configured fraction of hosts is dead.
        let dead = (0..10_000u64)
            .filter(|i| faults.host_dead(7, start, *i))
            .count();
        assert!((2_400..3_600).contains(&dead), "dead hosts: {dead}");
        // A different seed draws a different dead set.
        let other = (0..10_000u64)
            .filter(|i| faults.host_dead(8, start, *i))
            .count();
        assert!(
            dead != other || {
                (0..10_000u64)
                    .any(|i| faults.host_dead(7, start, i) != faults.host_dead(8, start, i))
            }
        );
    }

    #[test]
    fn transient_draws_vary_by_attempt() {
        let faults = ScanFaults {
            syn_drop_prob: 0.5,
            flake_prob: 0.5,
            ..ScanFaults::none()
        };
        let date = Date::ymd(2016, 6, 1);
        // Over many hosts, some host must fail attempt 0 and pass
        // attempt 1 — the retry draw is independent.
        let recovered = (0..1000u64)
            .any(|i| faults.syn_dropped(3, date, i, 0) && !faults.syn_dropped(3, date, i, 1));
        assert!(recovered, "retries never redrew the SYN fault");
        let flake_recovered = (0..1000u64)
            .any(|i| faults.flakes(3, date, i, 0, 1.0) && !faults.flakes(3, date, i, 1, 1.0));
        assert!(flake_recovered, "retries never redrew the flake fault");
    }

    #[test]
    fn timeout_draws_vary_by_probe() {
        let faults = ScanFaults {
            timeout_prob: 0.5,
            ..ScanFaults::none()
        };
        let date = Date::ymd(2016, 6, 1);
        let differs = (0..1000u64)
            .any(|i| faults.times_out(3, date, i, 0, 0) != faults.times_out(3, date, i, 0, 1));
        assert!(differs, "probe index never changed the timeout draw");
    }

    #[test]
    fn flake_bias_scales_rate() {
        let faults = ScanFaults {
            flake_prob: 0.1,
            ..ScanFaults::none()
        };
        let date = Date::ymd(2016, 6, 1);
        let base = (0..20_000u64)
            .filter(|i| faults.flakes(5, date, *i, 0, 1.0))
            .count();
        let biased = (0..20_000u64)
            .filter(|i| faults.flakes(5, date, *i, 0, 3.0))
            .count();
        assert!(
            biased > base * 2,
            "bias 3.0 should roughly triple flakes: {base} vs {biased}"
        );
    }

    #[test]
    fn zero_probabilities_never_fire() {
        let f = ScanFaults::none();
        let date = Date::ymd(2017, 3, 1);
        for i in 0..1000 {
            assert!(!f.host_dead(1, date, i));
            assert!(!f.syn_dropped(1, date, i, 0));
            assert!(!f.flakes(1, date, i, 0, 5.0));
            assert!(!f.times_out(1, date, i, 0, 2));
        }
    }

    #[test]
    fn env_selection_falls_back() {
        // The variable is not set in unit-test runs unless CI's
        // fault-matrix job sets it; in either case the call must
        // resolve to a valid profile.
        let f = ScanFaults::from_env(ScanFaults::none());
        assert!(f.validate().is_ok());
    }
}
