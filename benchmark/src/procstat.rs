//! What the benchmark reads about its own process from `/proc`: CPU
//! time, peak memory, live threads — and the runner fingerprint that
//! every result file carries.

use crate::json::Json;
use std::collections::BTreeMap;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads Linux's /proc and declares 64-bit Linux's struct timespec");

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// A `Key:   value unit` field of `/proc/self/status`, as a number.
fn status_field(key: &str) -> Option<f64> {
    read("/proc/self/status").lines().find_map(|l| {
        l.strip_prefix(key)?.strip_prefix(':')?.split_whitespace().next()?.parse().ok()
    })
}

/// CPU seconds of the whole process so far, exited threads included,
/// to the nanosecond: the C library's process CPU-time clock.
/// (`/proc/self/stat` counts in 10 ms ticks — a two-second round of a
/// light workload is a couple of dozen ticks, and CPU per request then
/// reads the same to the last digit run after run.)
pub fn process_cpu_secs() -> f64 {
    /// `struct timespec` of 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `clock_gettime` writes one `struct timespec` through the
    // pointer, which points to a live, properly aligned `Timespec` whose
    // layout is the 64-bit Linux `struct timespec`; std already links
    // the C library that provides the symbol.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// On-CPU nanoseconds of the calling thread (`schedstat`, ns exact).
pub fn thread_cpu_ns() -> u64 {
    read("/proc/thread-self/schedstat")
        .split_whitespace()
        .next()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set of the process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    status_field("VmHWM").unwrap_or(0.0) / 1024.0
}

/// Threads alive in the process right now.
pub fn live_threads() -> u64 {
    status_field("Threads").unwrap_or(0.0) as u64
}

/// On-CPU nanoseconds of every live thread, summed by thread class:
/// the thread's name with digits removed (`r2-consensus` →
/// `r-consensus`, `tcp-rx-r1-r3` → `tcp-rx-r-r`), so one scan from
/// outside says what the load generator, the socket threads and the
/// stage threads each burned.
pub fn cpu_ns_by_thread_class() -> BTreeMap<String, u64> {
    let mut classes = BTreeMap::new();
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else { return classes };
    for task in tasks.flatten() {
        let dir = task.path();
        let comm = std::fs::read_to_string(dir.join("comm")).unwrap_or_default();
        let class: String = comm.trim().chars().filter(|c| !c.is_ascii_digit()).collect();
        let ns = std::fs::read_to_string(dir.join("schedstat"))
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
            .unwrap_or(0);
        *classes.entry(class).or_insert(0) += ns;
    }
    classes
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Who measured: cores, CPU model, kernel, compiler, commit. Numbers
/// from two fingerprints that differ are not comparable.
pub fn fingerprint() -> Json {
    let cpu_model = read("/proc/cpuinfo")
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")?.split_once(':').map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(0);
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("cpu_model", Json::str(cpu_model)),
        ("kernel", Json::str(read("/proc/sys/kernel/osrelease").trim())),
        ("rustc", Json::str(command_line("rustc", &["-V"]))),
        ("git_sha", Json::str(command_line("git", &["rev-parse", "HEAD"]))),
    ])
}
