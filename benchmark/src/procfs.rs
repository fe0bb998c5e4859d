//! What the operating system says about this process (`/proc/self`).

/// A `name: value` field of `/proc/self/<file>` as a number (0 when
/// unreadable, so the benchmark still runs where `/proc` is restricted).
pub fn field(file: &str, name: &str) -> u64 {
    std::fs::read_to_string(format!("/proc/self/{file}"))
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|line| line.strip_prefix(name))
                .and_then(|rest| {
                    rest.trim_start_matches(':')
                        .split_whitespace()
                        .next()
                        .map(str::to_owned)
                })
        })
        .and_then(|value| value.parse().ok())
        .unwrap_or(0)
}

/// Processor seconds (user + system) this process has used so far, over
/// all its threads, including ones that have ended: the process CPU-time
/// clock, at nanosecond resolution.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn cpu_seconds() -> f64 {
    /// `struct timespec` on 64-bit Linux: `time_t` and `long` are both 64 bits.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut now = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` is the C library's (std already links it); it
    // writes one `timespec` through the pointer, which points at a live,
    // correctly laid out value, and keeps no reference to it.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut now) };
    assert_eq!(
        status, 0,
        "the process CPU-time clock exists on every Linux"
    );
    now.tv_sec as f64 + now.tv_nsec as f64 / 1e9
}

/// Elsewhere the wall clock stands in, so the benchmark still runs; its
/// cpu-clock metrics then include every wait.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn cpu_seconds() -> f64 {
    static START: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    START
        .get_or_init(std::time::Instant::now)
        .elapsed()
        .as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work_and_rss_is_positive() {
        let before = cpu_seconds();
        let mut x = 0u64;
        let began = std::time::Instant::now();
        while began.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let used = cpu_seconds() - before;
        assert!(
            used > 0.03 && used < 1.0,
            "60 ms of spinning used {used} s of processor time"
        );
        assert!(field("status", "VmHWM") > 0);
    }
}
