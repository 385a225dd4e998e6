//! What the harness reads from the host: memory high-water marks, a
//! noise sentinel and the metadata written beside every result.

use std::time::Instant;

use crate::json::Json;

/// Size of the table the sentinel walks: larger than any cache level,
/// so the loop feels a neighbour on the memory system too.
const SENTINEL_TABLE: usize = 4 << 20;

/// Random read-modify-writes per sentinel run (tens of milliseconds).
const SENTINEL_STEPS: u64 = 4_000_000;

/// Times a fixed loop of xorshift steps, each updating a random slot of
/// a 32 MB table. The work never changes, so a slow reading means the
/// host was slow, not the program under test. A pure register loop
/// would not do: the slow-downs seen on the calibration host left it
/// untouched while slowing everything that touches memory.
pub fn sentinel_ms() -> f64 {
    let mut table = vec![1u64; SENTINEL_TABLE];
    // The first walk pays for page faults and a cold TLB; the second
    // is the reading.
    sentinel_walk(&mut table);
    let started = Instant::now();
    sentinel_walk(&mut table);
    started.elapsed().as_secs_f64() * 1e3
}

fn sentinel_walk(table: &mut [u64]) {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..SENTINEL_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = &mut table[(x >> 40) as usize % SENTINEL_TABLE];
        *slot = slot.wrapping_add(i);
    }
    std::hint::black_box(table);
}

fn status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set (`VmHWM`) of this process in MB, 0 where `/proc`
/// does not say.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// Current resident set (`VmRSS`) in MB.
pub fn rss_mb() -> f64 {
    status_kb("VmRSS:").unwrap_or(0) as f64 / 1024.0
}

pub fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg").map(|s| s.trim().to_string()).unwrap_or_default()
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// First line of a command's stdout, `"unknown"` when it cannot run
/// (the benchmark checkout is not a git repository, for one).
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// The host half of the run metadata.
pub fn metadata() -> Vec<(&'static str, Json)> {
    vec![
        ("nproc", Json::Int(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64)),
        ("cpu_model", Json::str(cpu_model())),
        ("git_commit", Json::str(command_line("git", &["rev-parse", "HEAD"]))),
        ("rustc", Json::str(command_line("rustc", &["-V"]))),
    ]
}

/// `cpu_set_t` of the C library: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// Pins every thread of the process to the first core it may run on
/// and returns that core; threads started later inherit the pin.
/// `None` where the kernel does not say which cores are allowed, and
/// then nothing is pinned.
///
/// Threads that hand work to each other across cores pay a wake-up
/// that, on the virtual machine this was calibrated on, switches
/// between 6 and 40 µs from one run to the next; on one core it is a
/// context switch. With one client there is never more than one
/// request's worth of work to overlap, so one core is both the
/// steadier and the faster place to measure: `svc_short` reads
/// 130 K ± 1 % requests per second pinned against 96 K ± 5 % free,
/// `bi_refresh` 495 ± 2 % against 465 ± 5 %, and the two single-threaded
/// workloads read the same either way.
pub fn confine_to_one_core() -> Option<usize> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a live, writable `cpu_set_t`-sized buffer and
    // its size is passed alongside; pid 0 is the caller.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) } != 0 {
        return None;
    }
    let cpu = (0..1024).find(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)?;
    mask = [0; 16];
    mask[cpu / 64] |= 1 << (cpu % 64);
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    for tid in tasks.flatten().filter_map(|t| t.file_name().to_str()?.parse::<i32>().ok()) {
        // SAFETY: `mask` is a live `cpu_set_t`-sized buffer that is only
        // read; a thread that exited meanwhile makes the call fail,
        // which is harmless.
        unsafe { sched_setaffinity(tid, std::mem::size_of::<CpuSet>(), &mask) };
    }
    Some(cpu)
}
