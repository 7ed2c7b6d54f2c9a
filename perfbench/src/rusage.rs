//! Process resource usage from `getrusage(RUSAGE_SELF)`: CPU time of all
//! threads (finished ones included), peak RSS, page faults and context
//! switches.

use std::time::Duration;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads `struct rusage` with the 64-bit Linux layout");

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen `long`s.
/// Every field is declared to fix the layout; not all are read.
#[allow(dead_code)]
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct RawRusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kib: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RawRusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// A snapshot of this process's resource usage.
#[derive(Clone, Copy, Debug)]
pub struct Usage {
    /// User CPU time, all threads.
    pub user: Duration,
    /// System CPU time, all threads.
    pub sys: Duration,
    /// Peak resident set size so far, in KiB.
    pub maxrss_kib: u64,
    /// Minor page faults.
    pub minflt: u64,
    /// Involuntary context switches: the scheduler took the CPU away,
    /// usually for another process on the host.
    pub nivcsw: u64,
}

fn duration(t: Timeval) -> Duration {
    let secs = u64::try_from(t.sec).unwrap_or(0);
    let micros = u32::try_from(t.usec).unwrap_or(0);
    Duration::from_secs(secs) + Duration::from_micros(u64::from(micros))
}

fn count(v: i64) -> u64 {
    u64::try_from(v).unwrap_or(0)
}

/// Reads the current usage.
///
/// # Panics
///
/// If `getrusage` fails, which it cannot for `RUSAGE_SELF` and a valid
/// buffer.
pub fn now() -> Usage {
    let mut raw = RawRusage::default();
    // SAFETY: `raw` is a live, writable `struct rusage` with the 64-bit
    // Linux layout (checked by the `compile_error!` above), and
    // `RUSAGE_SELF` is a valid `who`; the call writes only into `raw`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut raw) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    Usage {
        user: duration(raw.utime),
        sys: duration(raw.stime),
        maxrss_kib: count(raw.maxrss_kib),
        minflt: count(raw.minflt),
        nivcsw: count(raw.nivcsw),
    }
}

impl Usage {
    /// Counters accumulated since `earlier` (peak RSS stays absolute).
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user: self.user.saturating_sub(earlier.user),
            sys: self.sys.saturating_sub(earlier.sys),
            maxrss_kib: self.maxrss_kib,
            minflt: self.minflt.saturating_sub(earlier.minflt),
            nivcsw: self.nivcsw.saturating_sub(earlier.nivcsw),
        }
    }
}
