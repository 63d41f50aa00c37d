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
//! through one SplitMix64 counter construction: `key`, then the shared
//! finaliser ([`splitmix64`](tlscope_wire::fxhash::splitmix64)), whose
//! unit draw the faults read and whose output seeds the host sampler's
//! stream. No draw depends on RNG stream position, worker count,
//! replay, or visit order. Retry draws are keyed by attempt number, so
//! a host probed alone fails (or recovers) exactly as it does in the
//! full sweep.

use std::ffi::OsStr;

use tlscope_chron::Date;
use tlscope_wire::fxhash::splitmix_unit;

/// Length of one dead-host window, in days. A host that draws "dead"
/// stays dark for the whole window — the scan-side analogue of the
/// tap's contiguous outage spans: real unreachability (machine off,
/// network renumbered) persists across retries and adjacent sweeps,
/// it does not flicker per probe.
pub const DEAD_HOST_SPAN_DAYS: i64 = 7;

/// Probe attempts per host before the scanner gives up and counts the
/// host as dropped (1 initial try + 2 retries).
pub const MAX_PROBE_ATTEMPTS: u32 = 3;

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
/// dropped. [`ScanFaults::PROFILES`] names the profiles a run can pick.
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
    pub const fn none() -> Self {
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
    pub const fn scan_defaults() -> Self {
        ScanFaults {
            syn_drop_prob: 0.01,
            timeout_prob: 0.005,
            flake_prob: 0.01,
            dead_host_prob: 0.02,
            ..ScanFaults::none()
        }
    }

    /// A high-fault profile exercising every recovery path: heavy SYN
    /// loss, timeouts, flakes, and dead-host windows. The CI
    /// fault-matrix job runs the scanner and study tests under it
    /// (`TLSCOPE_SCAN_FAULT_PROFILE=stress`).
    pub const fn stress() -> Self {
        ScanFaults {
            syn_drop_prob: 0.10,
            timeout_prob: 0.08,
            flake_prob: 0.10,
            dead_host_prob: 0.08,
            ..ScanFaults::none()
        }
    }

    /// The named profiles, the one table [`ScanFaults::profile`] and
    /// [`ScanFaults::env_profile`] read.
    pub const PROFILES: [(&'static str, ScanFaults); 3] = [
        ("none", ScanFaults::none()),
        ("defaults", ScanFaults::scan_defaults()),
        ("stress", ScanFaults::stress()),
    ];

    /// The profile [`ScanFaults::PROFILES`] lists under `name`.
    pub fn profile(name: &str) -> Option<Self> {
        ScanFaults::PROFILES
            .iter()
            .find(|(listed, _)| *listed == name)
            .map(|&(_, faults)| faults)
    }

    /// The environment variable [`ScanFaults::from_env`] reads.
    pub const PROFILE_ENV: &'static str = "TLSCOPE_SCAN_FAULT_PROFILE";

    /// The profile a raw [`ScanFaults::PROFILE_ENV`] value selects, by
    /// the name [`ScanFaults::PROFILES`] lists it under: `None` when
    /// the variable is unset, and an error naming the variable, the
    /// value and the accepted names when it is set to anything but a
    /// profile name.
    pub fn env_profile(raw: Option<&OsStr>) -> Result<Option<&'static str>, String> {
        let Some(raw) = raw else {
            return Ok(None);
        };
        ScanFaults::PROFILES
            .iter()
            .find(|(name, _)| raw == *name)
            .map(|&(name, _)| Some(name))
            .ok_or_else(|| {
                format!(
                    "{}={} names no scan fault profile (accepted: {})",
                    ScanFaults::PROFILE_ENV,
                    raw.to_string_lossy(),
                    ScanFaults::PROFILES.map(|(name, _)| name).join(", ")
                )
            })
    }

    /// The profile the `TLSCOPE_SCAN_FAULT_PROFILE` environment
    /// variable names, or `fallback` when it is unset. This is how the
    /// CI fault-matrix job re-runs the scanner tests under `stress`
    /// without a code change; `StudyConfig::default()` reads it too.
    ///
    /// # Panics
    ///
    /// When the variable names no profile ([`ScanFaults::env_profile`]):
    /// a misspelled name would otherwise run `fallback` without a word.
    pub fn from_env(fallback: ScanFaults) -> ScanFaults {
        let raw = std::env::var_os(ScanFaults::PROFILE_ENV);
        match ScanFaults::env_profile(raw.as_deref()) {
            Ok(Some(name)) => ScanFaults::profile(name).expect("every listed profile resolves"),
            Ok(None) => fallback,
            Err(e) => panic!("{e}"),
        }
    }

    /// True when `index` is dead for the [`DEAD_HOST_SPAN_DAYS`]
    /// window containing `date`. Pure in `(seed, window, index)`:
    /// attempt-independent, so retries within the window always fail.
    pub fn host_dead(&self, seed: u64, date: Date, index: u64) -> bool {
        if self.dead_host_prob <= 0.0 {
            return false;
        }
        let window = date.to_epoch_days().div_euclid(DEAD_HOST_SPAN_DAYS) as u64;
        splitmix_unit(key(seed, window, index, 0) ^ SALT_DEAD) < self.dead_host_prob
    }

    /// True when attempt `attempt` at host `index` loses its SYN
    /// (transient: each attempt redraws).
    pub fn syn_dropped(&self, seed: u64, date: Date, index: u64, attempt: u32) -> bool {
        if self.syn_drop_prob <= 0.0 {
            return false;
        }
        let days = date.to_epoch_days() as u64;
        splitmix_unit(key(seed, days, index, attempt) ^ SALT_SYN) < self.syn_drop_prob
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
        splitmix_unit(key(seed, days, index, attempt) ^ SALT_FLAKE)
            < (self.flake_prob * bias).min(1.0)
    }

    /// True when probe number `probe` of attempt `attempt` at host
    /// `index` times out mid-handshake (sent but never resolved).
    pub fn times_out(&self, seed: u64, date: Date, index: u64, attempt: u32, probe: u32) -> bool {
        if self.timeout_prob <= 0.0 {
            return false;
        }
        let days = date.to_epoch_days() as u64;
        let k = key(seed, days, index, attempt) ^ (probe as u64).wrapping_mul(SALT_PROBE_STEP);
        splitmix_unit(k ^ SALT_TIMEOUT) < self.timeout_prob
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
/// counter key. The attempt term keeps retry draws independent; at
/// attempt 0 it vanishes, which is the key the host sampler seeds from.
pub(crate) fn key(seed: u64, days: u64, index: u64, attempt: u32) -> u64 {
    seed ^ days.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ index.wrapping_mul(0xd1b5_4a32_d192_ed03)
        ^ (attempt as u64).wrapping_mul(0xa24b_aed4_963e_e407)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_profiles_resolve() {
        assert_eq!(ScanFaults::profile("none"), Some(ScanFaults::none()));
        assert_eq!(
            ScanFaults::profile("defaults"),
            Some(ScanFaults::scan_defaults())
        );
        assert_eq!(ScanFaults::profile("stress"), Some(ScanFaults::stress()));
        assert_eq!(ScanFaults::profile("bogus"), None);
        assert_eq!(ScanFaults::profile("scan"), None);
        for (name, faults) in ScanFaults::PROFILES {
            for p in [
                faults.syn_drop_prob,
                faults.timeout_prob,
                faults.flake_prob,
                faults.dead_host_prob,
            ] {
                assert!((0.0..=1.0).contains(&p), "{name}: {faults:?}");
            }
            assert_eq!(faults.panic_on_host, None, "{name}");
        }
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
        // resolve to a named profile.
        let f = ScanFaults::from_env(ScanFaults::none());
        assert!(ScanFaults::PROFILES.iter().any(|&(_, p)| p == f));
    }

    #[test]
    fn env_profile_resolves_names_and_refuses_the_rest() {
        let resolve = |raw: &str| ScanFaults::env_profile(Some(OsStr::new(raw)));
        assert_eq!(ScanFaults::env_profile(None), Ok(None));
        for (name, _) in ScanFaults::PROFILES {
            assert_eq!(resolve(name), Ok(Some(name)));
        }
        for bad in ["strss", "", "Stress", "stress ", "scan"] {
            let err = resolve(bad).unwrap_err();
            assert!(
                err.contains(&format!("TLSCOPE_SCAN_FAULT_PROFILE={bad} "))
                    && err.contains("(accepted: none, defaults, stress)"),
                "{err}"
            );
        }
    }
}
