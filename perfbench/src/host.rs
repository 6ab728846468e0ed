//! The host a result was taken on, and the clocks the benchmark reads.
//!
//! Every result is tagged with the host's shape so a 1-CPU figure is never
//! compared with a 2-vCPU one, and with the hypervisor's steal share over
//! the run so VM stalls show next to the latencies they inflate.

use std::time::Instant;

/// Nanoseconds since the benchmark's process-wide epoch. Every span and
/// every latency sample uses this one monotonic axis, so timestamps taken
/// on different threads compare directly.
pub fn now_ns() -> u64 {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
const PR_SET_TIMERSLACK: i32 = 29;

fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec with the C layout
    // (`repr(C)`, two 64-bit fields on the 64-bit Linux targets this
    // benchmark builds for), and clock_gettime writes nothing else.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time consumed by every thread of this process.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed by the calling thread.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// Sets the calling thread's timer slack to 1 ns, so a load generator's
/// sleeps end when asked instead of up to the default slack later. Only
/// generator threads call this; the system under test keeps the host's
/// slack.
pub fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and
    // touches only the calling thread's scheduling attributes.
    let rc = unsafe { prctl(PR_SET_TIMERSLACK, 1 as std::ffi::c_ulong) };
    assert_eq!(rc, 0, "PR_SET_TIMERSLACK rejected a 1 ns slack");
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// Aggregate `cpu` line of `/proc/stat`: (steal, total) in clock ticks.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = read("/proc/stat");
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already inside user, so the first eight are the total.
    let total = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0), total)
}

/// Share of all CPU ticks between two [`cpu_ticks`] readings that the
/// hypervisor stole.
pub fn steal_frac(start: (u64, u64), end: (u64, u64)) -> f64 {
    let total = end.1.saturating_sub(start.1);
    if total == 0 {
        return 0.0;
    }
    end.0.saturating_sub(start.0) as f64 / total as f64
}

/// One line of host tags, as a JSON object.
pub fn fingerprint_json() -> String {
    let nproc = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let cpuinfo = read("/proc/cpuinfo");
    let model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, m)| m.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let kernel = read("/proc/sys/kernel/osrelease").trim().to_string();
    let slack = read("/proc/self/timerslack_ns").trim().to_string();
    let allowed = read("/proc/self/status")
        .lines()
        .find(|l| l.starts_with("Cpus_allowed_list"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"nproc\": {nproc}, \"cpu_model\": {}, \"kernel\": {}, \"timerslack_ns\": {}, \
         \"generator_timerslack_ns\": 1, \"pinning\": {}}}",
        json_str(&model),
        json_str(&kernel),
        json_str(&slack),
        json_str(&format!("none; threads float over cpus {allowed}")),
    )
}

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_with_work() {
        let (p0, t0) = (process_cpu_ns(), thread_cpu_ns());
        let start = Instant::now();
        while start.elapsed().as_millis() < 20 {
            std::hint::black_box(0u64);
        }
        assert!(thread_cpu_ns() - t0 >= 5_000_000);
        assert!(process_cpu_ns() - p0 >= 5_000_000);
    }

    #[test]
    fn steal_share_of_tick_deltas() {
        assert_eq!(steal_frac((10, 1000), (20, 2000)), 0.01);
        assert_eq!(steal_frac((0, 5), (0, 5)), 0.0, "no ticks elapsed");
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
