//! Clocks, `/proc` readers and the robust statistics every number in the
//! benchmark goes through.
//!
//! The reference box is a small shared VM whose hypervisor takes the vCPUs
//! away for a large and drifting share of the time (`steal` in
//! `/proc/stat`). Raw wall-clock rates swing by a factor of two there, so a
//! measured [`Window`] records, next to its wall time, the process CPU time
//! and the system steal time, and rates are taken over
//! [`Window::effective_s`]: the wall time scaled by the share of wanted CPU
//! time the machine actually delivered. On a quiet machine steal is zero
//! and the effective time *is* the wall time.

use std::time::Instant;

/// Kernel clock ticks per second for the `/proc` tick counters (`USER_HZ`,
/// fixed at 100 on Linux).
const TICKS_PER_S: f64 = 100.0;

/// Process CPU time parsed from `/proc/self/stat`, in clock ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuTicks {
    /// User-mode ticks of every thread of the process.
    pub utime: u64,
    /// Kernel-mode ticks of every thread of the process.
    pub stime: u64,
}

/// Parses `utime` and `stime` out of a `/proc/<pid>/stat` line.
///
/// The second field (`comm`) is the executable name in parentheses and may
/// itself contain spaces and parentheses, so fields are counted from the
/// *last* `)` of the line: after it come `state` (field 3) and onwards,
/// which puts `utime` and `stime` (fields 14 and 15) at offsets 11 and 12.
pub fn parse_proc_stat(line: &str) -> Option<CpuTicks> {
    let rest = &line[line.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    let utime = fields.nth(11)?.parse().ok()?;
    let stime = fields.next()?.parse().ok()?;
    Some(CpuTicks { utime, stime })
}

/// Parses the system-wide steal ticks out of `/proc/stat` (ninth column of
/// the aggregate `cpu` line); `None` on kernels that do not report it.
pub fn parse_steal(stat: &str) -> Option<u64> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_ascii_whitespace().nth(8)?.parse().ok()
}

/// Parses `VmHWM` (peak resident set, kB) out of `/proc/self/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_vm_hwm_kb(&status).unwrap_or(0) as f64 / 1024.0
}

/// On-CPU time of the *calling thread* in nanoseconds, from the scheduler's
/// own accounting (`/proc/thread-self/schedstat`). Unlike the tick counters
/// it has nanosecond resolution, and unlike wall time it does not advance
/// while the hypervisor has the vCPU or another thread has the core, so for
/// one CPU-bound thread it *is* the effective time. Single-threaded
/// measurements (simulator repetitions, micro rows, the trace host) are
/// timed with it. Falls back to wall time where the file is missing.
pub fn thread_cpu_ns() -> u64 {
    static ORIGIN: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    let origin = *ORIGIN.get_or_init(Instant::now);
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_ascii_whitespace().next()?.parse().ok())
        .unwrap_or_else(|| origin.elapsed().as_nanos() as u64)
}

/// One reading of every clock a [`Window`] is made of.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    at: Instant,
    cpu: CpuTicks,
    steal: u64,
}

impl Sample {
    /// Reads the clocks now.
    pub fn now() -> Self {
        let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
        let sys = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        Sample {
            cpu: parse_proc_stat(&stat).unwrap_or(CpuTicks { utime: 0, stime: 0 }),
            steal: parse_steal(&sys).unwrap_or(0),
            at: Instant::now(),
        }
    }

    /// The window from `self` to `end`.
    pub fn until(&self, end: &Sample) -> Window {
        let ticks = |a: u64, b: u64| b.saturating_sub(a) as f64 / TICKS_PER_S;
        Window {
            wall_s: end.at.duration_since(self.at).as_secs_f64(),
            user_s: ticks(self.cpu.utime, end.cpu.utime),
            sys_s: ticks(self.cpu.stime, end.cpu.stime),
            steal_s: ticks(self.steal, end.steal),
        }
    }
}

/// A measured interval: wall time, process CPU time and system steal time.
#[derive(Debug, Clone, Copy, Default)]
pub struct Window {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// User-mode CPU seconds of the whole process.
    pub user_s: f64,
    /// Kernel-mode CPU seconds of the whole process.
    pub sys_s: f64,
    /// Seconds the hypervisor withheld a runnable vCPU, system-wide.
    pub steal_s: f64,
}

impl Window {
    /// Process CPU seconds (user + kernel).
    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }

    /// Share of the CPU time the process wanted that the machine delivered:
    /// `cpu / (cpu + steal)`, 1 on a machine without steal. The benchmark
    /// is the only load while it runs, so all steal is charged to it.
    pub fn delivered_share(&self) -> f64 {
        let wanted = self.cpu_s() + self.steal_s;
        if wanted > 0.0 && self.cpu_s() > 0.0 {
            self.cpu_s() / wanted
        } else {
            1.0
        }
    }

    /// Wall seconds a steal-free machine would have taken: the wall time
    /// scaled by [`Self::delivered_share`]. With average parallelism `P`
    /// steal accrues on `P` vCPUs at once, so the wall time lost is
    /// `steal / P`; substituting `P = cpu / effective` gives this form,
    /// which holds for one busy thread and for saturated vCPUs alike.
    pub fn effective_s(&self) -> f64 {
        self.wall_s * self.delivered_share()
    }

    /// Adds `other` to this window (for totals over rounds).
    pub fn add(&mut self, other: &Window) {
        self.wall_s += other.wall_s;
        self.user_s += other.user_s;
        self.sys_s += other.sys_s;
        self.steal_s += other.steal_s;
    }
}

/// How long a workload keeps measuring.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Until the measured windows total this many wall seconds (`--seconds`).
    Seconds(f64),
    /// Exactly this many rounds or repetitions (`--rounds`, local smoke only).
    Rounds(usize),
}

impl Budget {
    /// Whether `rounds` rounds totalling `measured_wall_s` are enough; a
    /// time budget still takes at least `min_rounds`, since a median over
    /// fewer says little.
    pub fn spent(&self, rounds: usize, min_rounds: usize, measured_wall_s: f64) -> bool {
        match *self {
            Budget::Seconds(s) => rounds >= min_rounds && measured_wall_s >= s,
            Budget::Rounds(n) => rounds >= n,
        }
    }
}

/// Nearest-rank quantile of `values` (rank `⌈q·n⌉`, 1-indexed), the same
/// rule `flexitrust-sim` uses for latency percentiles. `None` when empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Nearest-rank median.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// Nearest-rank 10th percentile.
pub fn p10(values: &[f64]) -> Option<f64> {
    quantile(values, 0.1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_stat_parser_survives_spaces_and_parentheses_in_comm() {
        // comm is "a) (b c)": naive splitting on spaces or on the first ')'
        // would shift every later field.
        let line = "4242 (a) (b c)) S 1 4242 4242 0 -1 4194560 500 0 0 0 \
                    1234 567 0 0 20 0 9 0 100 1000000 200 18446744073709551615";
        assert_eq!(
            parse_proc_stat(line),
            Some(CpuTicks {
                utime: 1234,
                stime: 567
            })
        );
        assert_eq!(parse_proc_stat("no parenthesis here"), None);
        assert_eq!(parse_proc_stat("1 (x) S 1 2"), None);
    }

    #[test]
    fn steal_and_hwm_parsers_pick_the_right_column() {
        let stat = "cpu  10 20 30 40 50 60 70 8080 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n";
        assert_eq!(parse_steal(stat), Some(8080));
        assert_eq!(parse_steal("cpu  1 2 3 4"), None);
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(20480));
    }

    #[test]
    fn nearest_rank_median_and_p10() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[7.0]), Some(7.0));
        // Even n: rank ⌈0.5·4⌉ = 2 → the second smallest, not an average.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), Some(50.0));
        assert_eq!(p10(&v), Some(10.0));
        // Fewer than ten samples: p10 is the minimum.
        assert_eq!(p10(&[9.0, 8.0, 7.0]), Some(7.0));
    }

    #[test]
    fn effective_time_removes_steal_for_one_and_for_two_busy_cpus() {
        // One busy thread for 1 s of CPU that lost 1 s to steal: 2 s wall.
        let one = Window {
            wall_s: 2.0,
            user_s: 1.0,
            sys_s: 0.0,
            steal_s: 1.0,
        };
        assert!((one.effective_s() - 1.0).abs() < 1e-12);
        // Two saturated vCPUs, 2 s of CPU, 2 s of steal summed over both:
        // each lost 1 s, so 2 s of wall held 1 s of effective time.
        let two = Window {
            wall_s: 2.0,
            user_s: 1.5,
            sys_s: 0.5,
            steal_s: 2.0,
        };
        assert!((two.effective_s() - 1.0).abs() < 1e-12);
        // No steal reported: effective time is wall time.
        let quiet = Window {
            wall_s: 3.0,
            user_s: 1.0,
            sys_s: 0.0,
            steal_s: 0.0,
        };
        assert_eq!(quiet.effective_s(), 3.0);
        let mut total = quiet;
        total.add(&two);
        assert_eq!(
            (total.wall_s, total.cpu_s(), total.steal_s),
            (5.0, 3.0, 2.0)
        );
    }
}
