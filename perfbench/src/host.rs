//! CPU time, the host's speed, and its CPU steal.
//!
//! On a shared VM the wall time of an operation swings by a factor of two
//! or three from minute to minute: while the hypervisor runs other guests
//! ("steal"), every wake-up of a loopback round trip waits. The CPU time a
//! thread or process ran does not include stolen time (the kernel's task
//! clock leaves it out), so the benchmark's gated figures are CPU times,
//! scaled by a probe of the core's current speed to a reference core.

/// The host's cumulative `(steal, all)` CPU jiffies from `/proc/stat`.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Steal share between two `cpu_jiffies` samples; 0 when unavailable.
pub fn steal_share(a: Option<(u64, u64)>, b: Option<(u64, u64)>) -> f64 {
    match (a, b) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            s1.saturating_sub(s0) as f64 / (t1 - t0) as f64
        }
        _ => 0.0,
    }
}

/// Clock ticks per second of `/proc/<pid>/stat` (`USER_HZ`, 100 on Linux).
const USER_HZ: u64 = 100;

/// CPU time a process has run, ns: user plus system time of all its
/// threads, exited ones included (the server's executor spawns helper
/// threads per parallel region), from `/proc/<pid>/stat`. The kernel
/// accumulates it in nanoseconds and prints it in `USER_HZ` ticks.
pub fn process_cpu_ns(pid: u32) -> Option<u64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * (1_000_000_000 / USER_HZ))
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// The calling thread's CPU clock, ns.
pub fn thread_cpu_ns() -> u64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call, and the clock id is a constant the kernel always accepts.
    unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// Thread CPU time of one `speed_probe` on a quiet 2-vCPU host of the kind
/// the benchmark was written on.
pub const PROBE_REFERENCE_NS: f64 = 45_000.0;

/// Thread CPU ns a fixed 20 000-step integer hash takes now: a probe of the
/// current per-core speed, which a busy neighbour on the same physical core
/// lowers.
pub fn speed_probe() -> u64 {
    let t0 = thread_cpu_ns();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..20_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    thread_cpu_ns() - t0
}

/// How much slower than the reference the host's cores ran: the median of
/// the `speed_probe` samples over `PROBE_REFERENCE_NS`; 1 without samples.
pub fn slowdown(probes: &[u64]) -> f64 {
    if probes.is_empty() {
        return 1.0;
    }
    let ns: Vec<f64> = probes.iter().map(|p| *p as f64).collect();
    crate::report::median(&ns) / PROBE_REFERENCE_NS
}
