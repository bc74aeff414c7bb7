//! The few things the benchmark needs from the operating system: CPU
//! pinning, process resource usage, and the facts about the box that go into
//! a result file.  Linux only (the two foreign calls are glibc's).

#![allow(unsafe_code)]

use std::process::Command;
use std::time::Duration;

/// `struct rusage` of x86-64 / aarch64 Linux: two `timeval`s, then 14 longs.
#[repr(C)]
#[derive(Default)]
struct RawRusage {
    utime_sec: i64,
    utime_usec: i64,
    stime_sec: i64,
    stime_usec: i64,
    maxrss_kb: i64,
    _unused: [i64; 11],
    nvcsw: i64,
    nivcsw: i64,
}

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct RawTimespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RawRusage) -> i32;
    fn clock_gettime(clock: i32, time: *mut RawTimespec) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
/// Words in the affinity mask handed to the kernel (1024 CPUs).
const MASK_WORDS: usize = 16;

/// Resource usage of this process so far, every thread included.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    pub user: Duration,
    pub sys: Duration,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
    /// High-water mark of resident memory, in MB.
    pub peak_rss_mb: f64,
}

impl Usage {
    pub fn now() -> Usage {
        let mut raw = RawRusage::default();
        // SAFETY: `raw` is a live, writable `struct rusage` of the layout the
        // kernel fills for RUSAGE_SELF; the call has no other effect.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut raw) };
        assert_eq!(
            rc, 0,
            "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
        );
        let tv = |s: i64, us: i64| Duration::new(s as u64, (us as u32) * 1_000);
        Usage {
            user: tv(raw.utime_sec, raw.utime_usec),
            sys: tv(raw.stime_sec, raw.stime_usec),
            ctx_switches: (raw.nvcsw + raw.nivcsw) as u64,
            peak_rss_mb: raw.maxrss_kb as f64 / 1024.0,
        }
    }
}

fn clock_ns(clock: i32) -> u64 {
    let mut raw = RawTimespec::default();
    // SAFETY: `raw` is a live, writable `struct timespec`; the call has no
    // other effect.
    let rc = unsafe { clock_gettime(clock, &mut raw) };
    assert_eq!(rc, 0, "clock_gettime on a CPU-time clock cannot fail");
    raw.sec as u64 * 1_000_000_000 + raw.nsec as u64
}

/// Nanoseconds of CPU this process has used so far, every thread included,
/// to the scheduler's own precision (`getrusage` rounds to clock ticks).  Time
/// the CPU spent on somebody else -- another process, or another guest of a
/// shared host -- is not in it.
pub fn process_cpu_ns() -> u64 {
    clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// Nanoseconds of CPU the calling thread has used so far.
pub fn thread_cpu_ns() -> u64 {
    clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// Pin the whole process (threads spawned later inherit the mask) to the
/// first CPU it is allowed to run on.  Returns that CPU, or the reason the
/// kernel refused.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is MASK_WORDS * 8 writable bytes, the size passed.
    let rc = unsafe { sched_getaffinity(0, MASK_WORDS * 8, mask.as_mut_ptr()) };
    if rc != 0 {
        return Err("sched_getaffinity failed".into());
    }
    let cpu = mask
        .iter()
        .enumerate()
        .find(|(_, w)| **w != 0)
        .map(|(i, w)| i * 64 + w.trailing_zeros() as usize)
        .ok_or("empty affinity mask")?;
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is MASK_WORDS * 8 readable bytes, the size passed.
    let rc = unsafe { sched_setaffinity(0, MASK_WORDS * 8, one.as_ptr()) };
    if rc != 0 {
        return Err(format!("sched_setaffinity to cpu {cpu} failed"));
    }
    Ok(cpu)
}

/// CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn first_line_of(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines().next().map(|l| l.trim().to_string())
}

/// `rustc --version`, or `unknown`.
pub fn rustc_version() -> String {
    first_line_of("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, or `unknown` outside a git repository (the
/// driver's checkouts are not repositories).
pub fn git_commit() -> String {
    first_line_of("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into())
}
