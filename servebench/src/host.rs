//! Process and host readings: CPU time, resident set, hypervisor
//! steal, and the build/host facts printed beside every run's metrics.

use std::fs;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// User + system CPU seconds of this process (all threads, live and
/// exited), at nanosecond resolution — `/proc/self/stat` counts in 10 ms
/// ticks, too coarse for a window.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// User + system CPU seconds of the calling thread.
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID)
}

fn cpu_clock_s(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields
    // on 64-bit Linux) for the whole call, and clock_gettime writes nothing
    // else.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// A memory field of `/proc/self/status` (`VmRSS`, `VmHWM`, …) in MiB.
pub fn status_mb(field: &str) -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or_else(|| panic!("{field} in /proc/self/status"));
    kb as f64 / 1024.0
}

/// Machine-wide busy and steal ticks from the `cpu` line of `/proc/stat`.
#[derive(Clone, Copy, Default)]
pub struct CpuTicks {
    busy: u64,
    steal: u64,
}

impl CpuTicks {
    pub fn now() -> CpuTicks {
        let Ok(stat) = fs::read_to_string("/proc/stat") else {
            return CpuTicks::default();
        };
        let v: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .filter_map(|x| x.parse().ok())
            .collect();
        if v.len() < 8 {
            return CpuTicks::default();
        }
        // user nice system idle iowait irq softirq steal
        let steal = v[7];
        CpuTicks {
            busy: v[0] + v[1] + v[2] + v[5] + v[6] + steal,
            steal,
        }
    }

    /// Steal as a share of busy time between `earlier` and `self`.
    pub fn steal_share_since(&self, earlier: &CpuTicks) -> f64 {
        let busy = self.busy.saturating_sub(earlier.busy);
        if busy == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / busy as f64
    }
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn simd_tier() -> &'static str {
    valuenet_tensor::simd::level().name()
}

pub fn rustc_version() -> &'static str {
    env!("SERVEBENCH_RUSTC")
}
