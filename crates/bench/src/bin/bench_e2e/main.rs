//! `bench_e2e` — the repository's benchmark: whole private inferences,
//! timed end to end and decomposed layer by layer from outside.
//!
//! ```text
//! bench_e2e --workload W --seed N --seconds S --trace 0|1 [--out FILE]
//! bench_e2e [--seed N] [--seconds S] [--out FILE]
//! bench_e2e --smoke [--seed N]
//! bench_e2e --compare A.jsonl B.jsonl
//! ```
//!
//! The first form is one **run**: one process pinned to one CPU, one
//! workload, `S` seconds cut into five blocks, each with a fresh model
//! preparation, a discarded warm-up and closed-loop sessions; every timing
//! is divided by a sentinel's slowdown sampled beside it. Its last stdout
//! line is the result object `BENCHMARK.json` describes (`--trace 0`: the
//! end-to-end metrics; `--trace 1`: the per-layer metrics of a separate
//! traced run). The second form is a **set**: five runs of every workload
//! as child processes, round-robin across workloads, then one traced run
//! each, all appended to `FILE`.
//! See `README.md` beside this file.

mod compare;
mod json;
mod layers;
mod machine;
mod procfs;
mod run;
mod stats;
mod trace;
mod workloads;

use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

use json::{object, Value};
use machine::Sentinel;
use run::{Bench, RunPlan, Tally};
use trace::Tracer;
use workloads::{Workload, WORKLOADS};

pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// The benchmark's contract, compiled in: workload names, metric names,
/// units, directions and bounds have this one source.
const SPEC_JSON: &str = include_str!("../../../../../BENCHMARK.json");

#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the parent's median the metric may worsen by; per-layer
    /// metrics have none.
    pub bound: Option<f64>,
}

#[derive(Debug)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    pub fn load() -> Res<Self> {
        let doc = json::parse(SPEC_JSON)?;
        let list = |key: &str| -> Res<&[Value]> {
            doc.get(key)
                .and_then(Value::as_array)
                .ok_or_else(|| format!("BENCHMARK.json: no {key} list").into())
        };
        let text = |item: &Value, key: &str| -> Res<String> {
            item.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: entry without {key}").into())
        };
        let metrics = |key: &str| -> Res<Vec<MetricSpec>> {
            list(key)?
                .iter()
                .map(|item| {
                    Ok(MetricSpec {
                        name: text(item, "name")?,
                        unit: text(item, "unit")?,
                        lower_is_better: text(item, "better")? == "lower",
                        bound: item.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect()
        };
        Ok(Self {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_f64)
                .ok_or("BENCHMARK.json: no run_seconds")?,
            workloads: list("workloads")?
                .iter()
                .map(|w| text(w, "name"))
                .collect::<Res<_>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

/// What one run produced.
pub struct Outcome {
    /// The contract's result object: `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub result: Value,
    /// Raw material beside the metrics (the raw samples, block by block,
    /// and the slowdowns they were divided by); empty for traced runs.
    pub detail: Value,
    pub tracer: Option<Tracer>,
}

/// Builds the result object, refusing a metric the contract does not
/// name, a named metric that was not measured, and any value that is not
/// a finite number.
fn result_object(
    declared: &[MetricSpec],
    measured: &[(String, f64)],
    tally: Tally,
    correct: bool,
) -> Res<Value> {
    for (name, _) in measured {
        if !declared.iter().any(|d| d.name == *name) {
            return Err(format!("measured metric {name} is not in BENCHMARK.json").into());
        }
    }
    let mut metrics = Vec::with_capacity(declared.len());
    for spec in declared {
        let mut values = measured.iter().filter(|(name, _)| *name == spec.name);
        let value = match (values.next(), values.next()) {
            (Some((_, value)), None) => *value,
            (None, _) => return Err(format!("metric {} was not measured", spec.name).into()),
            _ => return Err(format!("metric {} was measured twice", spec.name).into()),
        };
        if !value.is_finite() {
            return Err(format!("metric {} is not a finite number", spec.name).into());
        }
        metrics.push((
            spec.name.clone(),
            object([
                ("value", Value::Num(value)),
                ("unit", Value::Str(spec.unit.clone())),
            ]),
        ));
    }
    if tally.attempted == 0 {
        return Err("no session was attempted".into());
    }
    Ok(object([
        ("correct", Value::Bool(correct && tally.failed == 0)),
        ("attempted", Value::Num(tally.attempted as f64)),
        ("failed", Value::Num(tally.failed as f64)),
        ("metrics", Value::Obj(metrics)),
    ]))
}

/// The metric run: tracing off, the end-to-end metrics.
fn metric_run(
    spec: &Spec,
    bench: Bench,
    plan: &RunPlan,
    sentinel: &mut Sentinel,
) -> Res<(Bench, Outcome)> {
    let (bench, blocks) = run::measure(bench, plan, sentinel)?;
    let (metrics, detail) = run::end_to_end_metrics(&bench, &blocks)?;
    let outcome = Outcome {
        result: result_object(&spec.end_to_end, &metrics, bench.tally, true)?,
        detail: Value::Obj(
            detail
                .into_iter()
                .map(|(k, v)| (k, Value::Arr(v.into_iter().map(Value::Num).collect())))
                .collect(),
        ),
        tracer: None,
    };
    Ok((bench, outcome))
}

/// The traced run: the per-layer metrics.
fn traced_run(
    spec: &Spec,
    bench: &mut Bench,
    plan: &RunPlan,
    sentinel: &mut Sentinel,
) -> Res<Outcome> {
    let traced = layers::per_layer_metrics(bench, plan, sentinel)?;
    Ok(Outcome {
        result: result_object(
            &spec.per_layer,
            &traced.metrics,
            bench.tally,
            traced.replay_correct,
        )?,
        detail: Value::Obj(Vec::new()),
        tracer: Some(traced.tracer),
    })
}

/// Both kinds of run of one workload, in this process, at the smallest
/// counts: `steps` sessions (or fleets). Returns the metric run's outcome
/// and the traced run's.
fn smoke(spec: &Spec, workload: &'static Workload, seed: u64, steps: usize) -> Res<[Outcome; 2]> {
    let plan = RunPlan::smoke(steps);
    let mut sentinel = Sentinel::new();
    let bench = Bench::set_up(workload, seed, &plan, &mut sentinel)?;
    let (mut bench, untraced) = metric_run(spec, bench, &plan, &mut sentinel)?;
    bench.tally = Tally::default();
    let traced = traced_run(spec, &mut bench, &plan, &mut sentinel)?;
    Ok([untraced, traced])
}

fn print_metrics(workload: &str, result: &Value) {
    let Some(metrics) = result.get("metrics").and_then(Value::as_object) else {
        return;
    };
    for (name, entry) in metrics {
        let value = entry
            .get("value")
            .and_then(Value::as_f64)
            .unwrap_or(f64::NAN);
        let unit = entry.get("unit").and_then(Value::as_str).unwrap_or("");
        println!("{workload:<13} {name:<40} {value:>16.4} {unit}");
    }
}

/// Where trace files and the default set file go: beside the build.
fn output_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target).join("bench_e2e")
}

/// What every record says about the machine and the build.
fn environment() -> [(&'static str, Value); 2] {
    [
        ("nproc", Value::Num(run::nproc() as f64)),
        (
            "simd",
            Value::Str(cheetah_bfv::simd::current_backend().name().to_string()),
        ),
    ]
}

fn append_line(path: &str, line: &str) -> Res<()> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(file, "{line}")?;
    Ok(())
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    out: Option<String>,
    smoke: bool,
    compare: Option<(String, String)>,
}

fn parse_args(args: &[String]) -> Res<Args> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        out: None,
        smoke: false,
        compare: None,
    };
    let mut it = args.iter();
    let value = |it: &mut std::slice::Iter<String>, flag: &str| -> Res<String> {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value").into())
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value(&mut it, flag)?),
            "--seed" => parsed.seed = value(&mut it, flag)?.parse()?,
            "--seconds" => parsed.seconds = Some(value(&mut it, flag)?.parse()?),
            "--trace" => {
                parsed.trace = match value(&mut it, flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}").into()),
                }
            }
            "--out" => parsed.out = Some(value(&mut it, flag)?),
            "--smoke" => parsed.smoke = true,
            "--compare" => {
                parsed.compare = Some((value(&mut it, flag)?, value(&mut it, flag)?));
            }
            other => return Err(format!("unknown argument {other}").into()),
        }
    }
    if parsed.seconds.is_some_and(|s| !(0.0..=3600.0).contains(&s)) {
        return Err("--seconds must lie between 0 and 3600".into());
    }
    Ok(parsed)
}

/// One run of one workload in this process. Once the result line is
/// printed the run has succeeded as a *measurement*, whatever it found:
/// failed sessions are in the result (`correct`, `failed`), not in the
/// exit code.
fn single_run(spec: &Spec, workload: &'static Workload, args: &Args) -> Res<()> {
    let seconds = args.seconds.unwrap_or(spec.run_seconds);
    let plan = RunPlan::timed(seconds);
    let mut sentinel = Sentinel::new();
    let mut bench = Bench::set_up(workload, args.seed, &plan, &mut sentinel)?;
    let outcome = if args.trace {
        traced_run(spec, &mut bench, &plan, &mut sentinel)?
    } else {
        metric_run(spec, bench, &plan, &mut sentinel)?.1
    };

    if let Some(tracer) = &outcome.tracer {
        let dir = output_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("trace-{}.jsonl", workload.name));
        std::fs::write(&path, tracer.to_jsonl())?;
        println!("wrote {} spans to {}", tracer.spans().len(), path.display());
    }
    if let Some(out) = &args.out {
        let record = object(
            [
                ("workload", Value::Str(workload.name.to_string())),
                ("seed", Value::Num(args.seed as f64)),
                ("trace", Value::Bool(args.trace)),
                ("seconds", Value::Num(seconds)),
            ]
            .into_iter()
            .chain(environment())
            .chain([
                ("result", outcome.result.clone()),
                ("detail", outcome.detail.clone()),
            ]),
        );
        append_line(out, &record.render())?;
    }
    print_metrics(workload.name, &outcome.result);
    println!("{}", outcome.result.render());
    Ok(())
}

/// A set: `stats::BLOCKS` runs of every workload, round-robin, each a child
/// process — so every run has its own peak RSS, model preparation and
/// first-touch faults, and a minutes-long disturbance lands on one run of
/// every workload instead of on every run of one. A traced run of each
/// workload follows.
fn run_set(spec: &Spec, args: &Args) -> Res<bool> {
    let dir = output_dir();
    std::fs::create_dir_all(&dir)?;
    let out = args.out.clone().unwrap_or_else(|| {
        dir.join(format!("set-seed{}.jsonl", args.seed))
            .display()
            .to_string()
    });
    let git_head = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    let header = object(
        [
            ("set", Value::Bool(true)),
            ("seed", Value::Num(args.seed as f64)),
            ("runs", Value::Num(stats::BLOCKS as f64)),
            ("git_head", Value::Str(git_head)),
        ]
        .into_iter()
        .chain(environment()),
    );
    std::fs::write(&out, format!("{}\n", header.render()))?;

    let exe = std::env::current_exe()?;
    let seconds = args.seconds.unwrap_or(spec.run_seconds);
    let child = |workload: &str, trace: &str| -> Res<()> {
        let status = Command::new(&exe)
            .args(["--workload", workload, "--trace", trace, "--out", &out])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .status()?;
        if !status.success() {
            return Err(format!("{workload} (trace {trace}) ended with {status}").into());
        }
        Ok(())
    };
    for run in 0..stats::BLOCKS {
        println!("== run {} of {}", run + 1, stats::BLOCKS);
        for workload in &spec.workloads {
            child(workload, "0")?;
        }
    }
    println!("== traced runs");
    for workload in &spec.workloads {
        child(workload, "1")?;
    }
    let all_correct = compare::summarize(spec, &out)?;
    println!("wrote {out}");
    Ok(all_correct)
}

fn real_main() -> Res<bool> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    let spec = Spec::load()?;
    if let Some((a, b)) = &args.compare {
        return compare::compare(&spec, a, b);
    }
    // Before anything asks how many threads to start.
    machine::pin_to_one_cpu()?;
    if args.smoke {
        let mut correct = true;
        for workload in &WORKLOADS {
            for outcome in smoke(&spec, workload, args.seed, 3)? {
                print_metrics(workload.name, &outcome.result);
                correct &= outcome.result.get("correct") == Some(&Value::Bool(true));
            }
        }
        return Ok(correct);
    }
    match &args.workload {
        Some(name) => {
            let workload = workloads::find(name)
                .filter(|w| spec.workloads.iter().any(|s| s == w.name))
                .ok_or_else(|| format!("unknown workload {name}"))?;
            single_run(&spec, workload, &args)?;
            Ok(true)
        }
        None => run_set(&spec, &args),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2),
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn names(specs: &[MetricSpec]) -> BTreeSet<String> {
        specs.iter().map(|m| m.name.clone()).collect()
    }

    /// A renamed or dropped metric fails here, in both directions: what a
    /// workload's smoke run emits is exactly what `BENCHMARK.json`
    /// declares. One test per workload, so they run side by side.
    fn smoke_emits_exactly_the_declared_metrics(name: &str) {
        let spec = Spec::load().unwrap();
        assert!(spec.workloads.iter().any(|w| w == name));
        let [untraced, traced] = smoke(&spec, workloads::find(name).unwrap(), 1, 1).unwrap();
        for (outcome, declared) in [(&untraced, &spec.end_to_end), (&traced, &spec.per_layer)] {
            let metrics = outcome.result.get("metrics").unwrap().as_object().unwrap();
            let emitted: BTreeSet<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
            assert_eq!(emitted, names(declared));
            assert_eq!(outcome.result.get("correct"), Some(&Value::Bool(true)));
            assert_eq!(outcome.result.get("failed"), Some(&Value::Num(0.0)));
        }
        assert!(untraced.tracer.is_none());
        assert!(!traced.tracer.unwrap().spans().is_empty());
    }

    #[test]
    fn smoke_mlp_digit() {
        smoke_emits_exactly_the_declared_metrics("mlp_digit");
    }

    #[test]
    fn smoke_cnn_digit() {
        smoke_emits_exactly_the_declared_metrics("cnn_digit");
    }

    #[test]
    fn smoke_mlp_hybrid() {
        smoke_emits_exactly_the_declared_metrics("mlp_hybrid");
    }

    #[test]
    fn smoke_fleet_sparse() {
        smoke_emits_exactly_the_declared_metrics("fleet_sparse");
    }

    #[test]
    fn the_contract_file_is_well_formed() {
        let spec = Spec::load().unwrap();
        // Workloads match in both directions.
        let declared: BTreeSet<&str> = spec.workloads.iter().map(String::as_str).collect();
        let built: BTreeSet<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(declared, built);
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .unwrap();
        assert_eq!((setup.unit.as_str(), setup.lower_is_better), ("s", true));
        let widest = spec
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest));
        assert!(spec.end_to_end.iter().all(|m| m.bound.is_some()));
        for exact in compare::EXACT {
            assert!(spec.end_to_end.iter().any(|m| m.name == exact), "{exact}");
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        assert!(spec.per_layer.len() <= 128);
        let all: Vec<&MetricSpec> = spec.end_to_end.iter().chain(&spec.per_layer).collect();
        assert_eq!(
            all.iter().map(|m| &m.name).collect::<BTreeSet<_>>().len(),
            all.len()
        );
    }

    #[test]
    fn result_object_refuses_unknown_missing_and_non_finite_metrics() {
        let declared = vec![MetricSpec {
            name: "a_ms".into(),
            unit: "ms".into(),
            lower_is_better: true,
            bound: Some(0.1),
        }];
        let tally = Tally {
            attempted: 4,
            failed: 1,
        };
        let ok = result_object(&declared, &[("a_ms".into(), 1.5)], tally, true).unwrap();
        assert_eq!(
            ok.render(),
            r#"{"correct": false, "attempted": 4, "failed": 1, "metrics": {"a_ms": {"value": 1.5, "unit": "ms"}}}"#
        );
        assert!(result_object(&declared, &[("b_ms".into(), 1.0)], tally, true).is_err());
        assert!(result_object(&declared, &[], tally, true).is_err());
        assert!(result_object(&declared, &[("a_ms".into(), f64::NAN)], tally, true).is_err());
        assert!(result_object(
            &declared,
            &[("a_ms".into(), 1.0), ("a_ms".into(), 2.0)],
            tally,
            true
        )
        .is_err());
    }

    /// One tampered client in a fleet of eight: exactly that session is
    /// counted failed, its seven neighbours verify bit-exact, and the
    /// step is not a timing sample.
    #[test]
    fn a_tampered_client_fails_alone() {
        let workload = workloads::find("fleet_sparse").unwrap();
        let mut bench =
            Bench::set_up(workload, 5, &RunPlan::smoke(1), &mut Sentinel::new()).unwrap();
        let pool = bench.new_pool();
        let (drivers, inputs, setup_ms) = bench.build_fleet(0).unwrap();
        let drivers: Vec<_> = drivers
            .into_iter()
            .enumerate()
            .map(|(slot, driver)| {
                if slot == 3 {
                    driver.with_tamper(Box::new(|layer, upload: &mut Vec<u8>| {
                        if layer == 1 {
                            let middle = upload.len() / 2;
                            upload[middle] ^= 0x40;
                        }
                    }))
                } else {
                    driver
                }
            })
            .collect();
        let step = bench.run_fleet(&pool, drivers, &inputs, setup_ms).unwrap();
        assert_eq!((step.sessions, step.failed), (8, 1));
        assert_eq!(step.setup_bytes.len(), 7);
        assert_eq!(
            bench.tally,
            Tally {
                attempted: 8,
                failed: 1
            }
        );
        let share = bench.tally.failed as f64 / bench.tally.attempted as f64;
        assert_eq!(share, 0.125);
    }

    /// A prediction that differs from the reference is a failure even
    /// though the protocol ran clean: judged against a reference computed
    /// from other weights, every session fails and none is sampled.
    #[test]
    fn a_wrong_prediction_is_a_failure_not_a_sample() {
        let workload = workloads::find("cnn_digit").unwrap();
        let mut sentinel = Sentinel::new();
        let mut bench = Bench::set_up(workload, 5, &RunPlan::smoke(1), &mut sentinel).unwrap();
        let mut scratch = bench.new_scratch();
        let mut tracer = Tracer::with_capacity(0);

        let clean = bench.solo_step(0, &mut scratch, &mut tracer).unwrap();
        assert_eq!((clean.sessions, clean.failed), (1, 0));
        assert!(clean.inference_ms > 0.0);

        bench.weights = workload.weights(&bench.net, 6);
        let wrong = bench.solo_step(0, &mut scratch, &mut tracer).unwrap();
        assert_eq!((wrong.sessions, wrong.failed), (1, 1));
        assert!(wrong.client_setup_ms.is_empty() && wrong.setup_bytes.is_empty());
        assert_eq!(
            bench.tally,
            Tally {
                attempted: 2,
                failed: 1
            }
        );
        let plan = RunPlan::smoke(1);
        assert!(
            run::measure(bench, &plan, &mut sentinel).is_err(),
            "no clean step can exist"
        );
    }

    /// A stretch of the run in which the machine, sentinel included, runs
    /// twice as slow reads the same as the quiet stretch beside it.
    #[test]
    fn timings_are_divided_by_the_slowdown_sampled_beside_them() {
        let workload = workloads::find("fleet_sparse").unwrap();
        let mut bench =
            Bench::set_up(workload, 5, &RunPlan::smoke(1), &mut Sentinel::new()).unwrap();
        bench.setup_s = vec![0.5, 1.0];
        bench.setup_slowdown = vec![1.0, 2.0];
        bench.tally = Tally {
            attempted: 4,
            failed: 0,
        };
        let step = |slowdown: f64| run::Step {
            slowdown,
            inference_ms: 100.0 * slowdown,
            cpu: procfs::ProcStat {
                user_s: 0.08 * slowdown,
                ..Default::default()
            },
            client_setup_ms: vec![40.0 * slowdown; 2],
            sessions: 2,
            ..Default::default()
        };
        let blocks = vec![vec![step(1.0)], Vec::new(), vec![step(2.0)]];
        let (metrics, _) = run::end_to_end_metrics(&bench, &blocks).unwrap();
        for (name, expected) in [
            ("setup_s", 0.5),
            ("client_setup_p50_ms", 40.0),
            ("inference_p50_ms", 100.0),
            ("inference_cpu_ms", 40.0),
            ("sessions_per_s", 20.0),
        ] {
            let (_, value) = metrics.iter().find(|(n, _)| n == name).unwrap();
            assert!((value - expected).abs() < 1e-9, "{name} = {value}");
        }
    }

    #[test]
    fn arguments_parse_and_reject() {
        let to_args = |s: &str| -> Vec<String> { s.split(' ').map(str::to_string).collect() };
        let args = parse_args(&to_args("--workload hit --seed 7 --seconds 2.5 --trace 1")).unwrap();
        assert_eq!(args.workload.as_deref(), Some("hit"));
        assert_eq!((args.seed, args.seconds, args.trace), (7, Some(2.5), true));
        assert!(parse_args(&to_args("--trace 2")).is_err());
        assert!(parse_args(&to_args("--seed")).is_err());
        assert!(parse_args(&to_args("--seconds -1")).is_err());
        assert!(parse_args(&to_args("--bogus")).is_err());
    }
}
