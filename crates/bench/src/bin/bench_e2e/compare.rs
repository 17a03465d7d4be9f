//! `--compare A.jsonl B.jsonl`: the A/A tool, and the parent/change tool
//! of every later performance claim. Both files hold the run records
//! `--out` appends; for each workload × end-to-end metric the two sides'
//! medians are compared against the metric's bound.

use std::collections::BTreeMap;

use crate::json::{self, Value};
use crate::stats::median;
use crate::{MetricSpec, Res, Spec};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// Worse by more than the bound, and no run of B is as good as any
    /// run of A; or worse by anything, for an [`EXACT`] metric.
    Worse,
    /// Worse by more than the bound, but the two sides' run ranges
    /// overlap: the runs cannot tell a regression from noise.
    Unresolved,
}

/// Metrics whose values repeat exactly from run to run: byte counts, and
/// the verified share of a clean run. `BENCHMARK.json` has to give them a
/// relative bound; here any worsening at all is a regression.
pub const EXACT: [&str; 3] = ["setup_bytes", "online_bytes", "verified_share"];

/// A file of run records.
#[derive(Debug, Default)]
struct RunSet {
    /// Values of every end-to-end metric, per workload, over the file's
    /// untraced runs, in file order.
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    /// Runs, traced ones included, whose result is not `correct`.
    incorrect_runs: usize,
}

impl RunSet {
    fn metric(&self, workload: &str, metric: &str) -> Option<&[f64]> {
        Some(self.values.get(workload)?.get(metric)?.as_slice())
    }
}

fn load(path: &str) -> Res<RunSet> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_runs(&text, path)
}

fn parse_runs(text: &str, path: &str) -> Res<RunSet> {
    let mut set = RunSet::default();
    for (number, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record = json::parse(line).map_err(|e| format!("{path}:{}: {e}", number + 1))?;
        let Some(workload) = record.get("workload").and_then(Value::as_str) else {
            continue; // a set's header line
        };
        let result = record.get("result");
        if result.and_then(|r| r.get("correct")) != Some(&Value::Bool(true)) {
            set.incorrect_runs += 1;
        }
        if record.get("trace") != Some(&Value::Bool(false)) {
            continue; // traced runs carry no end-to-end metrics
        }
        let metrics = result
            .and_then(|r| r.get("metrics"))
            .and_then(Value::as_object)
            .ok_or_else(|| format!("{path}:{}: run record without metrics", number + 1))?;
        let by_metric = set.values.entry(workload.to_string()).or_default();
        for (name, entry) in metrics {
            if let Some(value) = entry.get("value").and_then(Value::as_f64) {
                by_metric.entry(name.clone()).or_default().push(value);
            }
        }
    }
    Ok(set)
}

/// How much worse `b`'s median is than `a`'s, as a share of `a`'s
/// (negative: better), and the verdict against the metric's bound.
pub fn judge(a: &[f64], b: &[f64], spec: &MetricSpec) -> (f64, Verdict) {
    let (median_a, median_b) = (median(a), median(b));
    let worse_by = if spec.lower_is_better {
        (median_b - median_a) / median_a
    } else {
        (median_a - median_b) / median_a
    };
    let range = |v: &[f64]| {
        v.iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
                (lo.min(x), hi.max(x))
            })
    };
    let ((lo_a, hi_a), (lo_b, hi_b)) = (range(a), range(b));
    let exact = EXACT.contains(&spec.name.as_str());
    let allowed = if exact {
        0.0
    } else {
        spec.bound.unwrap_or(0.0)
    };
    let verdict = if worse_by <= allowed {
        Verdict::Ok
    } else if !exact && lo_a <= hi_b && lo_b <= hi_a {
        Verdict::Unresolved
    } else {
        Verdict::Worse
    };
    (worse_by, verdict)
}

/// Prints the comparison table; `Ok(false)` when any pairing is `worse`,
/// a workload or metric is missing from a side, or a run on either side
/// was not correct.
pub fn compare(spec: &Spec, path_a: &str, path_b: &str) -> Res<bool> {
    let (set_a, set_b) = (load(path_a)?, load(path_b)?);
    let mut clean = true;
    println!(
        "{:<13} {:<20} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "bound"
    );
    for workload in &spec.workloads {
        for metric in &spec.end_to_end {
            let (Some(a), Some(b)) = (
                set_a.metric(workload, &metric.name),
                set_b.metric(workload, &metric.name),
            ) else {
                println!("{workload:<13} {:<20} missing from a side", metric.name);
                clean = false;
                continue;
            };
            let (worse_by, verdict) = judge(a, b, metric);
            clean &= verdict != Verdict::Worse;
            println!(
                "{workload:<13} {:<20} {:>16.4} {:>16.4} {:>+8.2}% {:>7}  {} ({}+{} runs, {})",
                metric.name,
                median(a),
                median(b),
                100.0 * worse_by,
                if EXACT.contains(&metric.name.as_str()) {
                    "exact".to_string()
                } else {
                    format!("{:.1}%", 100.0 * metric.bound.unwrap_or(0.0))
                },
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                },
                a.len(),
                b.len(),
                metric.unit,
            );
        }
    }
    for (path, set) in [(path_a, &set_a), (path_b, &set_b)] {
        if set.incorrect_runs > 0 {
            println!("{path}: {} runs were not correct", set.incorrect_runs);
            clean = false;
        }
    }
    Ok(clean)
}

/// Prints one file's per-workload medians and run ranges; `Ok(false)`
/// when one of its runs was not correct.
pub fn summarize(spec: &Spec, path: &str) -> Res<bool> {
    let set = load(path)?;
    println!(
        "{:<13} {:<20} {:>16} {:>16} {:>16}  runs",
        "workload", "metric", "median", "min", "max"
    );
    for workload in &spec.workloads {
        for metric in &spec.end_to_end {
            let Some(values) = set.metric(workload, &metric.name) else {
                continue;
            };
            let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            println!(
                "{workload:<13} {:<20} {:>16.4} {lo:>16.4} {hi:>16.4}  {} ({})",
                metric.name,
                median(values),
                values.len(),
                metric.unit,
            );
        }
    }
    if set.incorrect_runs > 0 {
        println!("{path}: {} runs were not correct", set.incorrect_runs);
    }
    Ok(set.incorrect_runs == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(lower_is_better: bool, bound: f64) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            unit: "ms".into(),
            lower_is_better,
            bound: Some(bound),
        }
    }

    #[test]
    fn within_the_bound_is_ok_in_both_directions() {
        let lower = metric(true, 0.10);
        assert_eq!(
            judge(&[100.0, 101.0, 99.0], &[108.0, 109.0, 107.0], &lower).1,
            Verdict::Ok
        );
        assert_eq!(judge(&[100.0], &[50.0], &lower).1, Verdict::Ok);
        let higher = metric(false, 0.10);
        let (worse_by, verdict) = judge(&[10.0], &[9.5], &higher);
        assert!((worse_by - 0.05).abs() < 1e-12);
        assert_eq!(verdict, Verdict::Ok);
        assert_eq!(judge(&[10.0], &[20.0], &higher).1, Verdict::Ok);
    }

    #[test]
    fn beyond_the_bound_is_worse_only_when_the_ranges_are_apart() {
        let lower = metric(true, 0.10);
        // Medians 100 vs 120, every B run slower than every A run.
        assert_eq!(
            judge(&[98.0, 100.0, 103.0], &[118.0, 120.0, 125.0], &lower).1,
            Verdict::Worse
        );
        // Same medians, but one disturbed A run reaches into B's range.
        assert_eq!(
            judge(&[98.0, 100.0, 119.0], &[118.0, 120.0, 125.0], &lower).1,
            Verdict::Unresolved
        );
        let higher = metric(false, 0.10);
        assert_eq!(judge(&[10.0, 10.2], &[8.0, 8.5], &higher).1, Verdict::Worse);
        assert_eq!(
            judge(&[8.4, 10.2, 10.4], &[8.0, 8.5, 8.6], &higher).1,
            Verdict::Unresolved
        );
    }

    #[test]
    fn an_exact_metric_flags_any_worsening() {
        let bytes = MetricSpec {
            name: "setup_bytes".into(),
            ..metric(true, 0.001)
        };
        assert_eq!(
            judge(&[92110856.0; 3], &[92110856.0; 3], &bytes).1,
            Verdict::Ok
        );
        assert_eq!(
            judge(&[92110856.0; 3], &[92110000.0; 3], &bytes).1,
            Verdict::Ok
        );
        // One byte more is inside the contract's 0.001 and still worse.
        assert_eq!(
            judge(&[92110856.0; 3], &[92110857.0; 3], &bytes).1,
            Verdict::Worse
        );
        // So is a share that slips in one run of three on one side only,
        // although the two sides' ranges touch.
        let share = MetricSpec {
            name: "verified_share".into(),
            ..metric(false, 0.001)
        };
        assert_eq!(
            judge(&[1.0, 1.0, 1.0], &[1.0, 0.9995, 0.9995], &share).1,
            Verdict::Worse
        );
    }

    #[test]
    fn loads_run_records_and_skips_headers_and_traced_runs() {
        let run = |trace: bool, value: f64| {
            format!(
                r#"{{"workload": "w", "trace": {trace}, "result": {{"correct": {}, "metrics": {{"m": {{"value": {value}, "unit": "ms"}}}}}}}}"#,
                value < 90.0
            )
        };
        let text = format!(
            "{}\n{}\n{}\n\n{}\n",
            r#"{"set": true, "git_head": "abc"}"#,
            run(false, 1.5),
            run(true, 99.0),
            run(false, 2.5)
        );
        let set = parse_runs(&text, "a.jsonl").unwrap();
        assert_eq!(set.metric("w", "m"), Some(&[1.5, 2.5][..]));
        assert_eq!(set.metric("w", "other"), None);
        // The traced run's values are skipped, its failure is not.
        assert_eq!(set.incorrect_runs, 1);
        assert!(parse_runs("{\"workload\": \"w\", \"trace\": false}", "b.jsonl").is_err());
    }
}
