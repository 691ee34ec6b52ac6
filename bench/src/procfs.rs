//! `/proc` readers: CPU time and peak RSS of the processes under test,
//! and the facts that stamp a result with its host.

use std::fmt::Write as _;

/// `/proc` reports CPU times in USER_HZ ticks, which the Linux ABI fixes
/// at 100 per second regardless of the kernel's internal HZ.
const TICK_US: u64 = 10_000;

/// CPU time of a process and of its waited-for children, in microseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuTimes {
    /// utime + stime of the process itself.
    pub own_us: u64,
    /// cutime + cstime: children that exited and were waited for.
    pub children_us: u64,
}

/// Parses the contents of `/proc/<pid>/stat`. The second field (`comm`)
/// is the executable name in parentheses and may itself hold spaces and
/// parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat(text: &str) -> Option<CpuTimes> {
    let rest = &text[text.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime is field 14.
    let fields: Vec<&str> = rest.split_ascii_whitespace().collect();
    let tick = |i: usize| fields.get(i)?.parse::<u64>().ok();
    Some(CpuTimes {
        own_us: (tick(11)? + tick(12)?) * TICK_US,
        children_us: (tick(13)? + tick(14)?) * TICK_US,
    })
}

/// Parses `VmHWM` (peak resident set, kB) out of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(text: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

/// CPU times of `pid` (`"self"` works too); `None` once it is gone.
pub fn cpu_times(pid: &str) -> Option<CpuTimes> {
    parse_stat(&std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?)
}

/// CPU time of the calling thread, in microseconds.
pub fn thread_cpu_us() -> u64 {
    thread_cpu_ns() / 1000
}

/// Peak RSS of `pid` in kB; `None` once it is gone.
pub fn vm_hwm_kb(pid: &str) -> Option<u64> {
    parse_vm_hwm_kb(&std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?)
}

extern "C" {
    /// glibc's wrapper of the Linux system call; `pid` 0 is the calling
    /// thread.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    /// `param` points at a `struct sched_param`, which is one `int`.
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
    /// `ts` points at a `struct timespec`: seconds, nanoseconds.
    fn clock_gettime(clock: i32, ts: *mut [i64; 2]) -> i32;
}

/// The CPU layout, the same for every run so that results compare: the
/// harness — load generator and speed meter — and every process it
/// starts are confined to this one CPU.
///
/// On the 2-vCPU reference host a wake-up that crosses vCPUs costs
/// 20–40 µs and varies with the hypervisor's load, and the guest
/// scheduler moves the client and server threads between "same vCPU" and
/// "spread" placements at random: unpinned, the warm trip's median swung
/// between 75 µs and 270 µs from run to run. On one CPU it holds within a
/// few per cent, what is measured is the program's own work per op rather
/// than the host's signalling, and one speed meter sees everything the
/// programs see. The price is stated in `README.md`: the gated metrics
/// cannot see parallel speed-up (the traced `hub_cold` run measures it on
/// both CPUs, un-gated), and the load generator's CPU per op is part of
/// `throughput_ops_s` (it is reported beside it).
pub const MEASURED_CPU: usize = 0;

/// The affinity bit set of `cpus`.
fn cpu_mask(cpus: &[usize]) -> Result<[u64; 16], String> {
    let mut mask = [0u64; 16];
    for &cpu in cpus {
        *mask
            .get_mut(cpu / 64)
            .ok_or_else(|| format!("CPU {cpu} is beyond the affinity mask"))? |= 1 << (cpu % 64);
    }
    Ok(mask)
}

fn set_affinity(tid: i32, mask: &[u64; 16]) -> std::io::Result<()> {
    // SAFETY: `mask` is a live, correctly sized bit set for the call's
    // duration and the kernel only reads it.
    let rc = unsafe { sched_setaffinity(tid, std::mem::size_of_val(mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

/// Restricts the calling thread — and every thread and process it starts
/// from now on, which inherit the mask — to the given CPUs. Call first
/// thing in `main`, before any thread or process exists.
pub fn pin_to_cpus(cpus: &[usize]) -> Result<(), String> {
    set_affinity(0, &cpu_mask(cpus)?).map_err(|e| format!("cannot pin to CPUs {cpus:?}: {e}"))
}

/// Moves every thread of a running process onto the given CPUs.
pub fn move_process_to_cpus(pid: &str, cpus: &[usize]) -> Result<(), String> {
    let mask = cpu_mask(cpus)?;
    let tasks = std::fs::read_dir(format!("/proc/{pid}/task")).map_err(|e| e.to_string())?;
    for task in tasks {
        let name = task.map_err(|e| e.to_string())?.file_name();
        let tid: i32 = name
            .to_string_lossy()
            .parse()
            .map_err(|_| format!("/proc/{pid}/task/{name:?} is not a thread id"))?;
        set_affinity(tid, &mask).map_err(|e| format!("thread {tid} of {pid}: {e}"))?;
    }
    Ok(())
}

/// Puts the calling thread into the lowest scheduling class
/// (`SCHED_IDLE`): it runs only when nothing else wants its CPU and is
/// preempted the moment anything does. Needs no privilege.
pub fn demote_to_idle_class() -> Result<(), String> {
    const SCHED_IDLE: i32 = 5;
    let priority = 0i32;
    // SAFETY: `priority` is a live `struct sched_param` (one int) that
    // the kernel only reads; pid 0 is this thread.
    match unsafe { sched_setscheduler(0, SCHED_IDLE, &priority) } {
        0 => Ok(()),
        _ => Err(format!(
            "sched_setscheduler(SCHED_IDLE): {}",
            std::io::Error::last_os_error()
        )),
    }
}

/// CPU time the calling thread has used, in nanoseconds
/// (`CLOCK_THREAD_CPUTIME_ID`): it stands still while the thread is
/// preempted, so a difference times the thread's own work.
pub fn thread_cpu_ns() -> u64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = [0i64; 2];
    // SAFETY: `ts` is a live `struct timespec` the kernel fills in.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_THREAD_CPUTIME_ID is always there on Linux");
    ts[0] as u64 * 1_000_000_000 + ts[1] as u64
}

/// Where and on what a result was measured.
#[derive(Debug, Clone, Default)]
pub struct HostStamp {
    pub nproc: usize,
    pub cpu_model: String,
    /// The ISA flags the kernels dispatch on, if the CPU has them.
    pub cpu_flags: Vec<String>,
    pub loadavg_1m: f64,
    pub commit: String,
    /// The CPU the harness and the servers are confined to.
    pub pinned_cpu: usize,
}

const FLAGS_OF_INTEREST: &[&str] = &["sse4_2", "avx", "avx2", "fma", "avx512f"];

/// Extracts the model name and the interesting flags from `/proc/cpuinfo`.
pub fn parse_cpuinfo(text: &str) -> (String, Vec<String>) {
    let field = |name: &str| {
        text.lines()
            .find(|l| l.starts_with(name))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_string())
    };
    let model = field("model name").unwrap_or_else(|| "unknown".into());
    let all = field("flags").unwrap_or_default();
    let flags = FLAGS_OF_INTEREST
        .iter()
        .filter(|f| all.split_ascii_whitespace().any(|have| have == **f))
        .map(|f| f.to_string())
        .collect();
    (model, flags)
}

impl HostStamp {
    pub fn collect() -> Self {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let (cpu_model, cpu_flags) = parse_cpuinfo(&cpuinfo);
        let loadavg_1m = std::fs::read_to_string("/proc/loadavg")
            .ok()
            .and_then(|t| t.split_ascii_whitespace().next()?.parse().ok())
            .unwrap_or(0.0);
        // A driver checkout is not a git repository; the stamp says so
        // rather than guessing.
        let commit = std::process::Command::new("git")
            .args(["rev-parse", "--short", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        HostStamp {
            // The machine's CPUs, not the one this process is pinned to.
            nproc: cpuinfo
                .lines()
                .filter(|l| l.starts_with("processor"))
                .count(),
            cpu_model,
            cpu_flags,
            loadavg_1m,
            commit,
            pinned_cpu: MEASURED_CPU,
        }
    }

    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"nproc\":{},\"cpu_model\":{:?},\"cpu_flags\":{:?},\"loadavg_1m\":{},\"commit\":{:?},\"pinned_cpu\":{}}}",
            self.nproc,
            self.cpu_model,
            self.cpu_flags,
            self.loadavg_1m,
            self.commit,
            self.pinned_cpu
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT_TAIL: &str = " S 1 2 3 4 5 6 7 8 9 10 150 25 7 3 20 0 6 0 100 200 300";

    #[test]
    fn stat_parser_survives_spaces_and_parens_in_comm() {
        for comm in [
            "(nvc)",
            "(tmux: server)",
            "(a) b) (c)",
            "(weird ) 9 9 9 name)",
        ] {
            let t = parse_stat(&format!("4242 {comm}{STAT_TAIL}")).expect(comm);
            assert_eq!(t.own_us, (150 + 25) * 10_000, "{comm}");
            assert_eq!(t.children_us, (7 + 3) * 10_000, "{comm}");
        }
        assert_eq!(parse_stat("4242 (nvc) S 1 2"), None, "truncated");
        assert_eq!(parse_stat("garbage"), None);
    }

    #[test]
    fn vm_hwm_parser_reads_the_right_line() {
        let status = "Name:\tnvc (x)\nVmPeak:\t  999 kB\nVmHWM:\t   51234 kB\nVmRSS:\t 400 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(51234));
        assert_eq!(parse_vm_hwm_kb("Name:\tnvc\n"), None);
    }

    #[test]
    fn cpuinfo_parser_picks_model_and_known_flags() {
        let text = "processor\t: 0\nmodel name\t: Test CPU @ 2GHz\nflags\t\t: fpu sse4_2 avx avx2 fma bmi2\n";
        let (model, flags) = parse_cpuinfo(text);
        assert_eq!(model, "Test CPU @ 2GHz");
        assert_eq!(flags, ["sse4_2", "avx", "avx2", "fma"]);
    }

    #[test]
    fn cpu_mask_sets_bits_and_refuses_cpus_beyond_it() {
        assert_eq!(cpu_mask(&[0, 1]).unwrap()[0], 0b11);
        assert_eq!(cpu_mask(&[65]).unwrap()[1], 0b10);
        assert!(cpu_mask(&[1024]).is_err());
    }

    #[test]
    fn own_process_is_readable() {
        assert!(cpu_times("self").is_some());
        assert!(vm_hwm_kb("self").unwrap() > 0);
    }
}
