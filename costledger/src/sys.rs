//! Host facts recorded with every result: peak resident set, core count
//! and the source revision; and the process's CPU time.

use std::path::Path;

/// `struct rusage` from `<sys/resource.h>` on 64-bit Linux: two
/// `timeval`s followed by fourteen `long`s, `ru_maxrss` first.
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// This process's resource usage, all threads together; `None` if the
/// kernel refuses the query.
fn usage() -> Option<RUsage> {
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value laid out like the C
    // `struct rusage` on 64-bit Linux, and RUSAGE_SELF (0) is valid.
    let rc = unsafe { getrusage(0, &mut usage) };
    (rc == 0).then_some(usage)
}

/// Peak resident set size of this process so far, MB (10^6 bytes); 0 if
/// the kernel refuses the query.
pub fn peak_rss_mb() -> f64 {
    // ru_maxrss is in KiB on Linux.
    usage().map_or(0.0, |u| u.maxrss as f64 * 1024.0 / 1e6)
}

/// CPU time this process has used so far, user and system, s; 0 if the
/// kernel refuses the query.
pub fn cpu_s() -> f64 {
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 / 1e6;
    usage().map_or(0.0, |u| secs(u.utime) + secs(u.stime))
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out revision, read from `.git` in the working directory
/// when there is one; `unknown` otherwise.
pub fn git_rev() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None => head.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_positive() {
        let rss = peak_rss_mb();
        assert!(rss > 0.1 && rss < 1e5, "{rss}");
        assert!(cpu_s() > 0.0);
        assert!(nproc() >= 1);
    }
}
