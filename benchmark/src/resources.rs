//! Process resource readings on Linux: CPU time from the process CPU
//! clock, peak resident set size from `/proc`.

use std::fs;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` in `<time.h>`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// User plus system CPU seconds of this process, every thread included
/// (threads that already exited count too), at nanosecond resolution.
/// `/proc/self/stat` carries the same sum in 10 ms ticks, too coarse
/// for runs of a few hundred milliseconds.
pub fn cpu_seconds() -> Result<f64, String> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark builds for, as
    // the compile-time check below pins), and the clock id is a
    // constant the call validates.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return Err(format!(
            "clock_gettime(CLOCK_PROCESS_CPUTIME_ID): {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads Linux process clocks and /proc on 64-bit targets");

/// Resets the process's peak resident set size to its current size.
pub fn reset_peak_rss() -> Result<(), String> {
    fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("/proc/self/clear_refs: {e}"))
}

/// Peak resident set size since start or the last reset, MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = cpu_seconds().expect("process CPU clock");
        let burn = (0..20_000_000u64).fold(0u64, |a, i| a.wrapping_add(i.wrapping_mul(i)));
        std::hint::black_box(burn);
        assert!(cpu_seconds().expect("process CPU clock") > before);
    }

    #[test]
    fn peak_rss_is_positive_after_a_reset() {
        reset_peak_rss().expect("clear_refs is writable");
        assert!(peak_rss_mib().expect("VmHWM") > 0.0);
    }
}
