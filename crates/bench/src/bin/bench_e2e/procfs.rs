//! Process accounting read from `/proc/self`: CPU time, minor faults and
//! peak resident set. The harness measures the program from outside, so
//! these are the only views of "what the box did" it has.

use std::fs;

/// `USER_HZ`: the unit of the `utime`/`stime` fields. It is 100 on every
/// Linux ABI (the kernel scales its internal tick to it), and reading it
/// properly needs `sysconf`, which the standard library does not expose.
const TICKS_PER_SECOND: f64 = 100.0;

/// Counters of the whole process (all threads, live and reaped).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcStat {
    /// User-mode CPU seconds.
    pub user_s: f64,
    /// Kernel-mode CPU seconds.
    pub sys_s: f64,
    /// Minor page faults.
    pub minor_faults: u64,
}

impl ProcStat {
    /// User + kernel CPU seconds.
    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }

    /// Counter growth since `earlier`.
    pub fn since(&self, earlier: &ProcStat) -> ProcStat {
        ProcStat {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            minor_faults: self.minor_faults - earlier.minor_faults,
        }
    }
}

/// Parses one `/proc/<pid>/stat` line. The second field is the command
/// name in parentheses and may itself contain spaces and `)`, so fields
/// are counted from the *last* `)`: `minflt` is the 10th field overall,
/// `utime` the 14th, `stime` the 15th.
pub fn parse_stat(line: &str) -> Option<ProcStat> {
    let after_comm = &line[line.rfind(')')? + 1..];
    // `after_comm` starts at field 3 (state).
    let fields: Vec<&str> = after_comm.split_ascii_whitespace().collect();
    let field = |number: usize| fields.get(number - 3)?.parse::<u64>().ok();
    Some(ProcStat {
        user_s: field(14)? as f64 / TICKS_PER_SECOND,
        sys_s: field(15)? as f64 / TICKS_PER_SECOND,
        minor_faults: field(10)?,
    })
}

/// Parses the `VmHWM` (peak resident set) line of `/proc/<pid>/status`
/// into MB (10^6 bytes; the kernel reports KiB).
pub fn parse_peak_rss_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024.0 / 1e6)
}

/// This process's counters now.
pub fn stat_now() -> Result<ProcStat, String> {
    let line =
        fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    parse_stat(&line).ok_or_else(|| format!("unparseable /proc/self/stat: {line:?}"))
}

/// This process's peak resident set so far, in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    parse_peak_rss_mb(&status).ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    // Fields 3.. of a real line; minflt=4242, utime=150, stime=25.
    const TAIL: &str = "S 1 77 77 0 -1 4194560 4242 0 3 0 150 25 0 0 20 0 3 0 12345 1000000 200";

    #[test]
    fn parses_plain_comm() {
        let stat = parse_stat(&format!("77 (bench_e2e) {TAIL}")).unwrap();
        assert_eq!(
            stat,
            ProcStat {
                user_s: 1.5,
                sys_s: 0.25,
                minor_faults: 4242
            }
        );
        assert_eq!(stat.cpu_s(), 1.75);
    }

    #[test]
    fn parses_past_a_comm_with_parens_and_spaces() {
        // A comm of `a) S 9 (b c` would shift every field if the parser
        // split on whitespace or stopped at the first `)`.
        let stat = parse_stat(&format!("77 (a) S 9 (b c) {TAIL}")).unwrap();
        assert_eq!(stat.minor_faults, 4242);
        assert_eq!(stat.user_s, 1.5);
        assert_eq!(stat.sys_s, 0.25);
    }

    #[test]
    fn rejects_truncated_lines() {
        assert!(parse_stat("77 (x) S 1 2 3").is_none());
        assert!(parse_stat("no parens at all").is_none());
    }

    #[test]
    fn since_subtracts_fieldwise() {
        let a = ProcStat {
            user_s: 1.0,
            sys_s: 0.5,
            minor_faults: 10,
        };
        let b = ProcStat {
            user_s: 3.0,
            sys_s: 0.75,
            minor_faults: 25,
        };
        assert_eq!(
            b.since(&a),
            ProcStat {
                user_s: 2.0,
                sys_s: 0.25,
                minor_faults: 15
            }
        );
    }

    #[test]
    fn peak_rss_reads_vmhwm_in_kib() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t  250000 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_peak_rss_mb(status), Some(256.0));
        assert_eq!(parse_peak_rss_mb("Name:\tx\n"), None);
    }

    #[test]
    fn reads_the_live_process() {
        assert!(stat_now().is_ok());
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
