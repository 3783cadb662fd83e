//! CPU time and peak memory of a process and its threads, read from
//! `/proc` — the benchmark measures the program from outside, so nothing
//! in the program reports its own cost.

use std::collections::BTreeMap;

/// Clock ticks per second of the `utime`/`stime` fields: `USER_HZ`, which
/// the Linux ABI fixes at 100 on x86-64 and aarch64.
const TICKS_PER_S: f64 = 100.0;

/// One thread's name and accumulated CPU time.
#[derive(Clone, Debug, PartialEq)]
pub struct ThreadCpu {
    /// Thread name (`comm`, truncated by the kernel to 15 bytes).
    pub comm: String,
    /// User + system CPU seconds since the thread started.
    pub cpu_s: f64,
}

/// Per-thread CPU of a process at one instant, keyed by thread id.
#[derive(Clone, Debug, Default)]
pub struct CpuSnapshot {
    /// The process id, which is also the id of its main thread.
    pub pid: u32,
    /// User + system CPU seconds of the whole process, including threads
    /// that have already exited.
    pub process_s: f64,
    /// Live threads.
    pub threads: BTreeMap<u32, ThreadCpu>,
}

/// Splits a `/proc/<pid>/stat` (or `task/<tid>/stat`) line into the
/// command name and the CPU seconds (`utime + stime`). The name sits in
/// parentheses and may itself hold spaces and parentheses, so it runs to
/// the *last* `)` of the line.
pub fn parse_stat(line: &str) -> Option<(String, f64)> {
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    if close < open {
        return None;
    }
    let comm = line[open + 1..close].to_string();
    // Fields after the name, starting at field 3 (`state`): utime and
    // stime are fields 14 and 15.
    let rest: Vec<&str> = line[close + 1..].split_whitespace().collect();
    let utime: u64 = rest.get(11)?.parse().ok()?;
    let stime: u64 = rest.get(12)?.parse().ok()?;
    Some((comm, (utime + stime) as f64 / TICKS_PER_S))
}

/// Peak resident set size (`VmHWM`) in MiB from a `/proc/<pid>/status`
/// body.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line["VmHWM:".len()..].split_whitespace().next()?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Reads the process's total CPU and every live thread's CPU. A thread
/// that exits between listing and reading is skipped.
pub fn snapshot(pid: u32) -> std::io::Result<CpuSnapshot> {
    let bad = || std::io::Error::new(std::io::ErrorKind::InvalidData, "unparseable stat line");
    let (_, process_s) =
        parse_stat(&std::fs::read_to_string(format!("/proc/{pid}/stat"))?).ok_or_else(bad)?;
    let mut threads = BTreeMap::new();
    for entry in std::fs::read_dir(format!("/proc/{pid}/task"))? {
        let entry = entry?;
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse::<u32>().ok()) else {
            continue;
        };
        let (Ok(comm), Ok(stat)) = (
            std::fs::read_to_string(entry.path().join("comm")),
            std::fs::read_to_string(entry.path().join("stat")),
        ) else {
            continue;
        };
        if let Some((_, cpu_s)) = parse_stat(&stat) {
            threads.insert(tid, ThreadCpu { comm: comm.trim_end_matches('\n').to_string(), cpu_s });
        }
    }
    Ok(CpuSnapshot { pid, process_s, threads })
}

/// Peak resident set size of a process, in MiB.
pub fn vm_hwm_mb(pid: u32) -> std::io::Result<f64> {
    parse_vm_hwm_mb(&std::fs::read_to_string(format!("/proc/{pid}/status"))?).ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "no VmHWM line in status")
    })
}

/// The host's aggregate CPU counters from the first line of `/proc/stat`:
/// `(steal ticks, all ticks)`. Steal is time a virtual CPU was runnable
/// but the hypervisor ran something else — tails caused by the host, not
/// by the program.
pub fn parse_host_steal(stat: &str) -> Option<(u64, u64)> {
    let line = stat.lines().next()?.strip_prefix("cpu ")?;
    let ticks: Vec<u64> = line.split_whitespace().map(str::parse).collect::<Result<_, _>>().ok()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice],
    // where guest time is already included in user time.
    let steal = *ticks.get(7)?;
    Some((steal, ticks.iter().take(8).sum()))
}

/// Reads the host's `(steal, total)` CPU ticks.
pub fn host_steal() -> std::io::Result<(u64, u64)> {
    parse_host_steal(&std::fs::read_to_string("/proc/stat")?).ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "unparseable /proc/stat")
    })
}

/// Share of the host's CPU time stolen by the hypervisor between two
/// [`host_steal`] readings.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    crate::stats::ratio((after.0 - before.0) as f64, (after.1 - before.1) as f64)
}

/// CPU spent between two snapshots of one process.
#[derive(Clone, Debug, Default)]
pub struct CpuDelta {
    /// The process id, which is also the id of its main thread.
    pub pid: u32,
    /// Whole-process CPU seconds.
    pub process_s: f64,
    /// `(tid, comm, cpu seconds)` of every thread alive at the end.
    pub threads: Vec<(u32, String, f64)>,
}

impl CpuDelta {
    /// CPU seconds of the threads whose name starts with `prefix`.
    pub fn by_prefix(&self, prefix: &str) -> f64 {
        self.threads.iter().filter(|(_, c, _)| c.starts_with(prefix)).map(|(_, _, s)| s).sum()
    }

    /// CPU seconds of the main thread.
    pub fn main_thread(&self) -> f64 {
        self.threads.iter().filter(|(t, _, _)| *t == self.pid).map(|(_, _, s)| s).sum()
    }
}

/// The CPU spent from `before` to `after`. A thread born in between
/// counts from zero.
pub fn delta(before: &CpuSnapshot, after: &CpuSnapshot) -> CpuDelta {
    let threads = after
        .threads
        .iter()
        .map(|(tid, t)| {
            let base = before.threads.get(tid).map_or(0.0, |b| b.cpu_s);
            (*tid, t.comm.clone(), t.cpu_s - base)
        })
        .collect();
    CpuDelta { pid: after.pid, process_s: after.process_s - before.process_s, threads }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A realistic stat line with utime 1234 and stime 56 ticks.
    fn stat_line(comm: &str) -> String {
        format!(
            "4242 ({comm}) S 1 4242 4242 0 -1 4194368 1513 0 0 0 1234 56 0 0 20 0 3 0 \
             987654 123456789 4321 18446744073709551615 1 1 0 0 0 0 0 4096 0 0 0 0 17 1 0 0 0 0 0"
        )
    }

    #[test]
    fn stat_parses_plain_names() {
        let (comm, cpu) = parse_stat(&stat_line("neural-ner")).unwrap();
        assert_eq!(comm, "neural-ner");
        assert!((cpu - 12.90).abs() < 1e-9);
    }

    #[test]
    fn stat_parses_names_with_spaces_and_parentheses() {
        for comm in ["a b c", "x) S 9 (y", "((", ")", "ner-serve-poll-", "trailing ) "] {
            let (got, cpu) = parse_stat(&stat_line(comm)).unwrap();
            assert_eq!(got, comm);
            assert!((cpu - 12.90).abs() < 1e-9, "{comm:?} parsed {cpu}");
        }
    }

    #[test]
    fn stat_rejects_truncated_lines() {
        assert_eq!(parse_stat("4242 (x) S 1 2"), None);
        assert_eq!(parse_stat("no parentheses here"), None);
        assert_eq!(parse_stat(") 4242 ( x"), None);
    }

    #[test]
    fn vm_hwm_parses_kib() {
        let status =
            "Name:\tneural-ner\nVmPeak:\t  90000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 40000 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(50.0));
        assert_eq!(parse_vm_hwm_mb("Name:\tx\n"), None);
    }

    #[test]
    fn deltas_group_threads_by_name() {
        let snap = |entries: &[(u32, &str, f64)], process_s| CpuSnapshot {
            pid: 1,
            process_s,
            threads: entries
                .iter()
                .map(|&(tid, comm, cpu_s)| (tid, ThreadCpu { comm: comm.into(), cpu_s }))
                .collect(),
        };
        let before = snap(&[(1, "neural-ner", 1.0), (2, "ner-serve-poll-", 2.0)], 3.0);
        let after = snap(
            &[(1, "neural-ner", 1.5), (2, "ner-serve-poll-", 2.25), (3, "ner-serve-batch", 0.5)],
            4.5,
        );
        let d = delta(&before, &after);
        assert_eq!(d.process_s, 1.5);
        assert_eq!(d.main_thread(), 0.5);
        assert_eq!(d.by_prefix("ner-serve-poll"), 0.25);
        assert_eq!(d.by_prefix("ner-serve-batch"), 0.5);
        assert_eq!(d.by_prefix("ner-par"), 0.0);
    }

    #[test]
    fn host_steal_parses_the_aggregate_line() {
        let stat = "cpu  100 0 50 800 10 0 5 35 7 0\ncpu0 50 0 25 400 5 0 2 18 3 0\n";
        assert_eq!(parse_host_steal(stat), Some((35, 1000)));
        assert_eq!(steal_share((35, 1000), (85, 2000)), 0.05);
        assert_eq!(parse_host_steal("intr 1 2 3\n"), None);
    }

    #[test]
    fn own_process_is_readable() {
        let snap = snapshot(std::process::id()).unwrap();
        assert!(!snap.threads.is_empty());
        assert!(vm_hwm_mb(std::process::id()).unwrap() > 0.0);
        assert!(host_steal().unwrap().1 > 0);
    }
}
