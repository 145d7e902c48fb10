//! Readers for the process and host facts the benchmark records: process
//! CPU time and peak RSS from `/proc/self`, CPU affinity, load average,
//! core count and the compiler version.

use std::process::Command;

/// Clock ticks per second of the `/proc/<pid>/stat` time fields (Linux
/// `USER_HZ`, fixed at 100 for the user-space ABI).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds from the text of `/proc/<pid>/stat`.
///
/// The command name (field 2) may itself contain spaces and parentheses,
/// so fields are counted from the last `)`: `utime` and `stime` are fields
/// 14 and 15 of the whole line.
pub fn parse_stat_cpu_s(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// Value in KiB of a `Key:   123 kB` line of `/proc/<pid>/status`.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// Value of a `Key:\tvalue` line of `/proc/<pid>/status`, as text.
fn status_field(key: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| Some(line.strip_prefix(key)?.strip_prefix(':')?.trim().to_string()))
}

/// CPU seconds this process has used so far, all threads included (also
/// threads that have exited).
pub fn cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_s(&s))
        .expect("/proc/self/stat has utime and stime")
}

// System call numbers of the calls below.
#[cfg(target_arch = "x86_64")]
mod sysno {
    pub const CLOCK_GETTIME: i64 = 228;
    pub const SCHED_SETAFFINITY: i64 = 203;
    pub const SCHED_GETAFFINITY: i64 = 204;
}
#[cfg(target_arch = "aarch64")]
mod sysno {
    pub const CLOCK_GETTIME: i64 = 113;
    pub const SCHED_SETAFFINITY: i64 = 122;
    pub const SCHED_GETAFFINITY: i64 = 123;
}

#[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
compile_error!("perfbench makes its few system calls directly, on x86_64 or aarch64 Linux");

/// A Linux system call with three arguments; returns its result register
/// (negative errno on failure).
///
/// # Safety
///
/// The caller must pass a call number and arguments for which the kernel
/// writes only memory the caller owns.
unsafe fn syscall3(nr: i64, a: i64, b: i64, c: i64) -> i64 {
    let ret: i64;
    // SAFETY: the syscall instruction clobbers only rcx and r11 besides
    // the return register; memory safety is the caller's contract.
    #[cfg(target_arch = "x86_64")]
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") nr => ret,
            in("rdi") a,
            in("rsi") b,
            in("rdx") c,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    // SAFETY: `svc 0` returns in x0 and clobbers nothing else.
    #[cfg(target_arch = "aarch64")]
    unsafe {
        std::arch::asm!(
            "svc 0",
            in("x8") nr,
            inlateout("x0") a => ret,
            in("x1") b,
            in("x2") c,
            options(nostack),
        );
    }
    ret
}

/// CPU seconds this process has used so far, all threads included, at
/// nanosecond resolution: `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`.
///
/// This is the clock every host time of the benchmark reads. Unlike wall
/// time it leaves out the time the process waits for a core the hypervisor
/// has lent to another guest (steal time, which Linux keeps out of task
/// run time). `/proc/self/stat` has the same count in 10-ms ticks, too
/// coarse for a 1-s slice.
pub fn cpu_clock_s() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i64 = 2;
    // struct timespec { tv_sec, tv_nsec }, both 64-bit on these targets.
    let mut ts = [0i64; 2];
    // SAFETY: clock_gettime writes one timespec to `ts` and nothing else.
    let ret = unsafe {
        syscall3(sysno::CLOCK_GETTIME, CLOCK_PROCESS_CPUTIME_ID, ts.as_mut_ptr() as i64, 0)
    };
    assert_eq!(ret, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts[0] as f64 + ts[1] as f64 * 1e-9
}

/// CPU mask words for up to 1,024 CPUs.
type CpuMask = [u64; 16];

/// The CPUs this thread may run on, or `None` if the kernel would not say.
fn affinity() -> Option<CpuMask> {
    let mut mask: CpuMask = [0; 16];
    // SAFETY: sched_getaffinity writes at most `size_of_val(&mask)` bytes
    // into `mask`.
    let n = unsafe {
        syscall3(
            sysno::SCHED_GETAFFINITY,
            0,
            std::mem::size_of_val(&mask) as i64,
            mask.as_mut_ptr() as i64,
        )
    };
    (n > 0).then_some(mask)
}

/// Lowest CPU set in `mask`.
pub fn lowest_cpu(mask: &[u64]) -> Option<usize> {
    (0..mask.len() * 64).find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
}

/// Restrict this thread, and every thread it starts from now on, to the
/// lowest-numbered CPU it may run on; returns that CPU.
///
/// Called first thing in `main`, while the process has one thread, this
/// pins the whole benchmark to one CPU, so `available_parallelism()`, and
/// with it the program's default worker count, is 1.
pub fn pin_to_one_cpu() -> Option<usize> {
    let cpu = lowest_cpu(&affinity()?)?;
    let mut one: CpuMask = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: sched_setaffinity only reads `size_of_val(&one)` bytes from
    // `one`.
    let ret = unsafe {
        syscall3(
            sysno::SCHED_SETAFFINITY,
            0,
            std::mem::size_of_val(&one) as i64,
            one.as_ptr() as i64,
        )
    };
    (ret == 0).then_some(cpu)
}

/// Peak resident set size of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_kb(&s, "VmHWM"))
        .expect("/proc/self/status has VmHWM") as f64
        / 1024.0
}

/// One line describing the host: cores, affinity, compiler and load.
pub fn host_line() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpus = status_field("Cpus_allowed_list").unwrap_or_else(|| "unknown".into());
    format!(
        "host: nproc={nproc} cpus_allowed={cpus} rustc=\"{}\" load={}",
        rustc_version(),
        loadavg()
    )
}

/// The 1-, 5- and 15-minute load averages.
pub fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".into())
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_command_name() {
        let line = "4242 (odd) name) R 1 4242 4242 0 -1 4194304 120 0 0 0 \
                    250 37 0 0 20 0 3 0 1000 123456 789 18446744073709551615";
        assert_eq!(parse_stat_cpu_s(line), Some(2.87));
        assert_eq!(parse_stat_cpu_s("no command name"), None);
        assert_eq!(parse_stat_cpu_s("1 (x) R 1 2"), None);
    }

    #[test]
    fn status_lines_parse_by_key() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  20480 kB\nVmHWM:\t   9216 kB\nVmRSS:\t 8192 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(9216));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(8192));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
    }

    #[test]
    fn live_readers_see_this_process() {
        let before = cpu_s();
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 50 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_s() >= before);
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn lowest_cpu_of_a_mask() {
        assert_eq!(lowest_cpu(&[0b1010, 0]), Some(1));
        assert_eq!(lowest_cpu(&[0, 1 << 3]), Some(67));
        assert_eq!(lowest_cpu(&[0, 0]), None);
        assert!(lowest_cpu(&affinity().expect("sched_getaffinity works")).is_some());
    }

    #[test]
    fn cpu_clock_counts_busy_time() {
        // Other tests run in parallel threads of this process and add to
        // its clock, so only lower bounds hold.
        let c0 = cpu_clock_s();
        let t = std::time::Instant::now();
        let mut x = 0u64;
        while t.elapsed().as_millis() < 30 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_clock_s() - c0 > 0.003);
        // The tick-based reader agrees to within its resolution.
        assert!((cpu_s() - cpu_clock_s()).abs() < 0.05);
    }
}
