//! `/proc` readers: CPU time, peak resident set, thread count and
//! context switches of this process or of a child, plus the host facts
//! (`nproc`, kernel) recorded with every result.

use std::fs;

/// `USER_HZ`: the unit of the `utime`/`stime` fields of `/proc/<pid>/stat`.
/// The kernel ABI fixes it at 100 on every Linux architecture in use.
pub const CLK_TCK: f64 = 100.0;

/// Which process to read.
#[derive(Clone, Copy, Debug)]
pub enum Pid {
    Me,
    Child(u32),
}

impl Pid {
    fn dir(self) -> String {
        match self {
            Pid::Me => "/proc/self".to_string(),
            Pid::Child(p) => format!("/proc/{p}"),
        }
    }
}

/// The fields of `/proc/<pid>/stat` the benchmark uses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Stat {
    /// User-mode CPU time of all threads, in clock ticks.
    pub utime: u64,
    /// Kernel-mode CPU time of all threads, in clock ticks.
    pub stime: u64,
    pub threads: u64,
}

impl Stat {
    pub fn user_s(&self) -> f64 {
        self.utime as f64 / CLK_TCK
    }

    pub fn sys_s(&self) -> f64 {
        self.stime as f64 / CLK_TCK
    }

    pub fn cpu_s(&self) -> f64 {
        self.user_s() + self.sys_s()
    }

    /// Counters accumulated since `earlier` (thread count is the later
    /// reading's).
    pub fn since(&self, earlier: &Stat) -> Stat {
        Stat {
            utime: self.utime - earlier.utime,
            stime: self.stime - earlier.stime,
            threads: self.threads,
        }
    }
}

/// Parses one `/proc/<pid>/stat` line. The command name (field 2) is
/// parenthesised and may itself hold spaces and parentheses, so fields
/// are counted from the *last* `)`.
pub fn parse_stat(text: &str) -> Option<Stat> {
    let rest = &text[text.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime, stime and num_threads are
    // fields 14, 15 and 20.
    let f: Vec<&str> = rest.split_ascii_whitespace().collect();
    Some(Stat {
        utime: f.get(11)?.parse().ok()?,
        stime: f.get(12)?.parse().ok()?,
        threads: f.get(17)?.parse().ok()?,
    })
}

/// The fields of `/proc/<pid>/status` the benchmark uses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Status {
    /// Peak resident set size ("high water mark"), kB.
    pub vm_hwm_kb: u64,
    pub involuntary_switches: u64,
}

pub fn parse_status(text: &str) -> Status {
    let mut s = Status::default();
    for line in text.lines() {
        let Some((key, value)) = line.split_once(':') else { continue };
        let number = || value.split_ascii_whitespace().next().and_then(|v| v.parse().ok());
        match key {
            "VmHWM" => s.vm_hwm_kb = number().unwrap_or(0),
            "nonvoluntary_ctxt_switches" => s.involuntary_switches = number().unwrap_or(0),
            _ => {}
        }
    }
    s
}

pub fn read_stat(pid: Pid) -> Option<Stat> {
    parse_stat(&fs::read_to_string(format!("{}/stat", pid.dir())).ok()?)
}

pub fn read_status(pid: Pid) -> Option<Status> {
    Some(parse_status(&fs::read_to_string(format!("{}/status", pid.dir())).ok()?))
}

/// Peak resident set of the process in MB (0 when unreadable).
pub fn peak_rss_mb(pid: Pid) -> f64 {
    read_status(pid).map_or(0.0, |s| s.vm_hwm_kb as f64 / 1024.0)
}

/// Restarts this process's peak-RSS high-water mark at its current
/// resident set (`clear_refs` value 5), so that workloads sharing one
/// process each report their own peak. Best effort: kernels without it
/// keep the running maximum.
pub fn reset_own_peak_rss() {
    let _ = fs::write("/proc/self/clear_refs", "5");
}

/// Involuntary context switches summed over the process's live threads
/// (`status` of the process itself only counts its main thread).
pub fn involuntary_switches(pid: Pid) -> u64 {
    let Ok(tasks) = fs::read_dir(format!("{}/task", pid.dir())) else { return 0 };
    tasks
        .flatten()
        .filter_map(|t| fs::read_to_string(t.path().join("status")).ok())
        .map(|text| parse_status(&text).involuntary_switches)
        .sum()
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The running kernel's release string.
pub fn kernel() -> String {
    fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_from_the_last_parenthesis() {
        let line = "4242 (hot pathd) x) S 1 4242 4242 0 -1 4194304 1234 0 0 0 \
                    317 45 0 0 20 0 5 0 8675309 123456789 2048 18446744073709551615 \
                    1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";
        let s = parse_stat(line).expect("parses");
        assert_eq!(s, Stat { utime: 317, stime: 45, threads: 5 });
        assert_eq!(s.user_s(), 3.17);
        assert_eq!(s.cpu_s(), 3.62);
        let later = Stat { utime: 400, stime: 50, threads: 6 };
        assert_eq!(later.since(&s), Stat { utime: 83, stime: 5, threads: 6 });
        assert_eq!(parse_stat("garbage"), None);
        assert_eq!(parse_stat("1 (x) S 1 2"), None);
    }

    #[test]
    fn status_picks_peak_rss_and_switches() {
        let text = "Name:\thotpathd\nVmPeak:\t  300000 kB\nVmHWM:\t   81234 kB\n\
                    VmRSS:\t   70000 kB\nThreads:\t5\n\
                    voluntary_ctxt_switches:\t1500\nnonvoluntary_ctxt_switches:\t27\n";
        assert_eq!(parse_status(text), Status { vm_hwm_kb: 81234, involuntary_switches: 27 });
        assert_eq!(parse_status(""), Status::default());
    }

    #[test]
    fn this_process_is_readable() {
        let s = read_stat(Pid::Me).expect("own stat");
        assert!(s.threads >= 1);
        assert!(peak_rss_mb(Pid::Me) > 0.0);
        assert!(nproc() >= 1);
        assert!(!kernel().is_empty());
        // Reading twice never goes backwards.
        let again = read_stat(Pid::Me).expect("own stat");
        assert!(again.utime >= s.utime && again.stime >= s.stime);
        let _ = involuntary_switches(Pid::Me);
        reset_own_peak_rss();
        assert!(peak_rss_mb(Pid::Me) > 0.0);
    }
}
