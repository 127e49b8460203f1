//! The regime a measurement runs in, enforced rather than assumed: one CPU,
//! an optimized build, a scratch directory that is always removed. A run
//! that cannot get the regime fails; it never measures a different one.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID`: CPU time consumed by every thread of the
/// process, exited ones included.
const CLOCK_PROCESS_CPUTIME: i32 = 2;

/// Width of glibc's `cpu_set_t`: 1024 CPUs.
const CPU_SET_WORDS: usize = 16;

/// The highest-numbered CPU of a `Cpus_allowed_list` value such as
/// `0-3,8,10-11`.
fn highest_cpu(list: &str) -> Option<usize> {
    list.trim()
        .split(',')
        .filter_map(|range| range.rsplit('-').next()?.trim().parse().ok())
        .max()
}

fn status_field(name: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let (field, value) = line.split_once(':')?;
        (field == name).then(|| value.trim().to_string())
    })
}

/// Pins the calling thread — and every thread it spawns afterwards, which
/// inherit the mask — to the highest-numbered CPU it is allowed on, and
/// returns that CPU. Call before spawning any thread.
///
/// With two closed-loop clients on a multi-core box the scheduler flips
/// between same-core wake-ups and cross-core idle wake-ups, an 8x
/// bimodality in latency (see README.md); on one CPU every wake-up is the
/// same kind.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let list = status_field("Cpus_allowed_list")
        .ok_or("cannot read Cpus_allowed_list from /proc/self/status")?;
    let cpu = highest_cpu(&list).ok_or_else(|| format!("cannot parse CPU list {list:?}"))?;
    if cpu >= CPU_SET_WORDS * 64 {
        return Err(format!(
            "CPU {cpu} is beyond the {}-CPU mask",
            CPU_SET_WORDS * 64
        ));
    }
    let mut mask = [0u64; CPU_SET_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialized array of `size_of_val(&mask)`
    // bytes for the whole call, which is all `sched_setaffinity(2)` requires
    // of its pointer argument; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity(cpu {cpu}) failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// Refuses a build without optimizations: its numbers describe the compiler's
/// debug output, not the program.
pub fn require_release_build() -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err("this is a debug build; build with --release".to_string());
    }
    Ok(())
}

/// CPU seconds the whole process has consumed — clients, peers and
/// transport threads together, user and system. Read from the process CPU
/// clock, because the `utime`/`stime` of `/proc/self/stat` tick in hundredths
/// of a second: an idle workload spends six of those per one-second slice,
/// and its CPU cost per operation would move in steps of a sixth.
pub fn cpu_seconds() -> f64 {
    let mut time = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `time` is a live, writable `timespec` of the layout 64-bit
    // Linux uses, which is all `clock_gettime(2)` requires of its pointer.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME, &mut time) };
    assert_eq!(rc, 0, "the process CPU clock is always readable");
    time.tv_sec as f64 + time.tv_nsec as f64 / 1e9
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM")
        .and_then(|value| value.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A scratch directory of this process next to the executable — inside the
/// build directory, so inside the checkout — removed when dropped, which
/// covers success, failure and panic unwinding.
pub struct ScratchDir {
    path: PathBuf,
}

/// Distinguishes the scratch directories of one process (parallel tests).
static NEXT_SCRATCH: AtomicU64 = AtomicU64::new(0);

impl ScratchDir {
    pub fn create() -> Result<Self, String> {
        let exe =
            std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
        let parent = exe
            .parent()
            .ok_or("own executable has no parent directory")?;
        // relaxed: the counter only has to hand out distinct numbers.
        let serial = NEXT_SCRATCH.fetch_add(1, Ordering::Relaxed);
        let path = parent.join(format!("rdht-benchmark-{}-{serial}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create scratch directory {}: {e}", path.display()))?;
        Ok(ScratchDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn highest_cpu_reads_ranges_and_singletons() {
        assert_eq!(highest_cpu("0-3"), Some(3));
        assert_eq!(highest_cpu("0-3,8,10-11\n"), Some(11));
        assert_eq!(highest_cpu("5"), Some(5));
        assert_eq!(highest_cpu(""), None);
    }

    #[test]
    fn scratch_dir_is_removed_on_drop_and_on_panic() {
        let scratch = ScratchDir::create().expect("scratch directory");
        let path = scratch.path().to_path_buf();
        assert!(path.is_dir());
        let outcome = std::panic::catch_unwind(move || {
            let _held = scratch;
            panic!("unwinding must still remove the directory");
        });
        assert!(outcome.is_err());
        assert!(!path.exists());
    }

    #[test]
    fn process_readers_return_plausible_values() {
        assert!(peak_rss_mb() > 0.0);
        let before = cpu_seconds();
        let mut acc = 0u64;
        for i in 0..5_000_000u64 {
            acc = acc.wrapping_add(i * i);
        }
        std::hint::black_box(acc);
        assert!(cpu_seconds() > before);
    }
}
