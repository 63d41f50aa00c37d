//! What the host tells us about this process, read from `/proc` with
//! no dependencies: peak memory, CPU time, core count, and a fixed
//! single-thread calibration loop that shows host-speed drift.

use std::hint::black_box;
use std::time::Instant;

/// Worker threads for every parallel stage: one per core the process
/// may run on, so no stage oversubscribes the machine.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// User plus system CPU time of the whole process so far (every
/// thread, including exited ones), in seconds. `/proc` reports it in
/// USER_HZ ticks, which Linux fixes at 100 per second.
pub fn process_cpu_s() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    // The command name (field 2) may contain spaces; fields after its
    // closing parenthesis are space-separated, starting at field 3.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15, i.e. indices 11 and 12 here.
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    Ok((ticks(11)? + ticks(12)?) / 100.0)
}

/// Wall time, in milliseconds, of a fixed single-threaded FNV-1a pass
/// over 4 MiB, 8 times. The work never changes, so a change in this
/// number between runs is a change in the host, not in the program.
/// Diagnostic only: no metric is scaled by it.
pub fn calibrate_ms() -> f64 {
    let buf: Vec<u8> = (0..4u32 << 20)
        .map(|i| (i.wrapping_mul(31) >> 3) as u8)
        .collect();
    let started = Instant::now();
    let mut acc = 0u64;
    for _ in 0..8 {
        acc ^= tlscope::durable::fnv1a64(black_box(&buf));
    }
    black_box(acc);
    started.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_positive_values() {
        assert!(peak_rss_mb().unwrap() > 0.0);
        assert!(process_cpu_s().unwrap() >= 0.0);
        assert!(calibrate_ms() > 0.0);
        assert!(workers() >= 1);
    }
}
