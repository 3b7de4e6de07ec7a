//! `tl-benchmark`: the repository benchmark.
//!
//! One invocation runs one named workload in this process, one simulation
//! at a time, and times the calls into each layer's public functions from
//! outside. It measures host time, what the simulator costs to run;
//! simulated results are correctness checks that must match bit for bit.
//! See README.md in this directory for the workloads, metrics, bounds and
//! the A/B protocol.

mod measure;
mod workload;

use measure::{digest, summarize, PolicyCalls, Summary, TimedPolicy};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use tl_dl::{SimOutput, Simulation};
use workload::{Scenario, Shape, Workload, DEFAULT_SEED, WORKLOADS};

const USAGE: &str = "usage: tl-benchmark --workload <name> [--seed N] [--seconds S] \
                     [--trace [0|1]] [--smoke]";

/// Measuring time when `--seconds` is not given (BENCHMARK.json's
/// `run_seconds`).
const DEFAULT_SECONDS: f64 = 20.0;
/// Set-ups measured and discarded before the warm-up simulation.
const SETUP_WARMUPS: usize = 2;
/// Set-ups timed before each timed simulation.
const SETUP_BURST: usize = 5;

/// Committed scale-sweep results the flagship cells must reproduce at the
/// default seed.
const SCALE_CANONICAL: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../../../../results/json/scale.canonical.json"
);

#[derive(Debug)]
struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut smoke = false;
    let mut it = argv.iter().map(String::as_str).peekable();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg {
            "--workload" => {
                let name = value()?;
                workload = Some(workload::by_name(name).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err("--seconds must be a positive number".into());
                }
            }
            // `--trace` alone or with an explicit 0|1.
            "--trace" => trace = it.next_if(|v| *v == "0" || *v == "1") != Some("0"),
            "--smoke" => smoke = true,
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        smoke,
    })
}

/// One named metric value; `samples` is set for medians over repetitions.
#[derive(Debug, Clone)]
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    samples: Option<Summary>,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value,
        samples: None,
    }
}

fn median_metric(name: &'static str, unit: &'static str, values: &[f64]) -> Metric {
    let s = summarize(values);
    Metric {
        name,
        unit,
        value: s.median,
        samples: Some(s),
    }
}

/// What one invocation measured and checked.
#[derive(Debug)]
struct Report {
    attempted: u64,
    failed: u64,
    end_to_end: Vec<Metric>,
    /// Empty unless the invocation ran the traced simulation.
    per_layer: Vec<Metric>,
    /// Simulations run: warm-up, timed, traced.
    reps: (usize, usize, usize),
    /// The digest every simulation matched, if any passed.
    digest: Option<u64>,
    /// Calibration kernel times over the timed repetitions.
    host: Summary,
    /// Median `Simulation::run` wall time before scaling.
    host_wall: f64,
}

/// Passes or fails each simulation: every job must complete, nothing may
/// panic, and every digest must equal the reference (the committed one at
/// the default seed, otherwise the first simulation's). At the default
/// seed the flagship cells must also reproduce the scale sweep's committed
/// mean JCT and completion count.
struct Checker {
    digest: Option<u64>,
    canonical: Option<Result<(u64, usize), String>>,
    attempted: u64,
    failed: u64,
}

impl Checker {
    fn new(args: &Args) -> Self {
        let reference = args.seed == DEFAULT_SEED && !args.smoke;
        let w = args.workload;
        Checker {
            digest: reference.then_some(w.digest),
            canonical: match w.full {
                Shape::Flagship { hosts, jobs, .. } if reference => {
                    Some(canonical_row(hosts, jobs, w.policy.label()))
                }
                _ => None,
            },
            attempted: 0,
            failed: 0,
        }
    }

    /// Record one simulation (`None` if it panicked); true if it passed.
    fn check(&mut self, what: &str, out: Option<&SimOutput>) -> bool {
        self.attempted += 1;
        let verdict = match out {
            None => Err("panicked".to_string()),
            Some(out) => self.verdict(out),
        };
        if let Err(why) = &verdict {
            self.failed += 1;
            eprintln!("tl-benchmark: {what} simulation failed the check: {why}");
        }
        verdict.is_ok()
    }

    fn verdict(&mut self, out: &SimOutput) -> Result<(), String> {
        let completed = out.jobs.iter().filter(|j| j.completion.is_some()).count();
        if completed != out.jobs.len() {
            return Err(format!("{completed}/{} jobs completed", out.jobs.len()));
        }
        let d = digest(out);
        match self.digest {
            None => self.digest = Some(d),
            Some(want) if want != d => {
                return Err(format!("digest {d:#018x}, expected {want:#018x}"))
            }
            Some(_) => {}
        }
        match &self.canonical {
            Some(Err(why)) => Err(why.clone()),
            Some(Ok((bits, count))) => {
                let got = (out.mean_jct_secs().to_bits(), completed);
                if got == (*bits, *count) {
                    Ok(())
                } else {
                    Err(format!(
                        "(mean_jct_bits, completed) = {got:?}, scale.canonical.json has {:?}",
                        (bits, count)
                    ))
                }
            }
            None => Ok(()),
        }
    }
}

/// `(mean_jct_bits, completed)` of one row of the committed scale sweep.
fn canonical_row(hosts: u32, jobs: u32, policy: &str) -> Result<(u64, usize), String> {
    use serde::Value;
    let text = std::fs::read_to_string(SCALE_CANONICAL)
        .map_err(|e| format!("cannot read {SCALE_CANONICAL}: {e}"))?;
    let doc =
        serde_json::from_str_value(&text).map_err(|e| format!("scale.canonical.json: {e}"))?;
    let uint = |row: &Value, key: &str| match row.get(key) {
        Some(Value::UInt(v)) => Some(*v),
        _ => None,
    };
    let Some(Value::Array(rows)) = doc.get("rows") else {
        return Err("scale.canonical.json has no rows".into());
    };
    rows.iter()
        .find(|r| {
            uint(r, "hosts") == Some(u64::from(hosts))
                && uint(r, "jobs") == Some(u64::from(jobs))
                && matches!(r.get("policy"), Some(Value::Str(p)) if p == policy)
        })
        .and_then(|r| Some((uint(r, "mean_jct_bits")?, uint(r, "completed")? as usize)))
        .ok_or_else(|| format!("scale.canonical.json has no {hosts}h x {jobs}j {policy} row"))
}

/// One simulation's host-time measurements.
struct Timed {
    out: Option<SimOutput>,
    wall: f64,
    cpu: f64,
}

/// Time `Simulation::run` on `sc`; a panic is caught and yields no output.
fn simulate(sc: Scenario, profile: bool, policy_calls: Option<&mut PolicyCalls>) -> Timed {
    let Scenario {
        cfg,
        setups,
        mut policy,
    } = sc;
    let cpu0 = measure::process_cpu_secs();
    let started = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(|| {
        let sim = Simulation::new(cfg).jobs(setups).profile(profile);
        match policy_calls {
            None => sim.policy_ref(policy.as_mut()).run(),
            Some(calls) => {
                let mut timed = TimedPolicy::new(policy.as_mut());
                let out = sim.policy_ref(&mut timed).run();
                *calls = timed.calls;
                out
            }
        }
    }));
    let wall = started.elapsed().as_secs_f64();
    Timed {
        out: out.ok(),
        wall,
        cpu: measure::process_cpu_secs() - cpu0,
    }
}

fn iterations(out: &SimOutput) -> u64 {
    out.jobs.iter().map(|j| j.iterations).sum()
}

/// Set-up samples: scenario construction, then engine set-up timed as a
/// run with a horizon of zero.
#[derive(Default)]
struct SetupTimes {
    scenario: Vec<f64>,
    engine: Vec<f64>,
    total: Vec<f64>,
}

impl SetupTimes {
    fn sample(&mut self, build: impl FnOnce() -> Scenario) {
        let started = Instant::now();
        let sc = build();
        let scenario = started.elapsed().as_secs_f64();
        let engine = simulate(sc.horizon_zero(), false, None).wall;
        self.scenario.push(scenario);
        self.engine.push(engine);
        self.total.push(scenario + engine);
    }
}

fn run(args: &Args) -> Report {
    let w = args.workload;
    let shape = if args.smoke { w.smoke } else { w.full };
    let build = || shape.scenario(w.policy, args.seed);
    let mut checker = Checker::new(args);
    let (warmup, setup_burst) = if args.smoke { (0, 1) } else { (1, SETUP_BURST) };

    // Warm-up: the calibration kernel, set-ups and one simulation,
    // measured and discarded.
    let mut kernel = measure::Calibration::new();
    kernel.time();
    let mut discarded = SetupTimes::default();
    for _ in 0..SETUP_WARMUPS * warmup {
        discarded.sample(build);
    }
    for _ in 0..warmup {
        let t = simulate(build(), false, None);
        checker.check("warm-up", t.out.as_ref());
    }

    // Timed repetitions, each a burst of set-ups and one simulation, until
    // the next one would end after `--seconds`. Interleaving spreads the
    // short set-up samples over the same stretch of host time as the
    // simulations, rather than the first few milliseconds of the process.
    // The calibration kernel runs before every repetition and after the
    // last, measuring how fast the host ran over the same stretch.
    let mut setup = SetupTimes::default();
    let (mut walls, mut cpus, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let mut calibration = Vec::new();
    let budget = Duration::from_secs_f64(args.seconds);
    let timed_start = Instant::now();
    loop {
        let rep_start = Instant::now();
        calibration.push(kernel.time());
        for _ in 0..setup_burst {
            setup.sample(build);
        }
        let t = simulate(build(), false, None);
        if checker.check("timed", t.out.as_ref()) {
            let out = t.out.as_ref().expect("a passing simulation has output");
            walls.push(t.wall);
            cpus.push(t.cpu);
            rates.push(iterations(out) as f64 / t.wall);
        }
        if args.smoke || timed_start.elapsed() + rep_start.elapsed() > budget {
            break;
        }
    }
    calibration.push(kernel.time());
    let host = summarize(&calibration);
    let scale = measure::CALIBRATION_REF_S / host.median;
    let scaled = |v: &[f64], by: f64| v.iter().map(|x| x * by).collect::<Vec<_>>();
    let end_to_end = vec![
        median_metric("wall_s", "s", &scaled(&walls, scale)),
        median_metric("cpu_s", "s", &scaled(&cpus, scale)),
        median_metric("iters_per_s", "1/s", &scaled(&rates, 1.0 / scale)),
        median_metric("setup_s", "s", &scaled(&setup.total, scale)),
        metric("peak_rss_mb", "MB", measure::peak_rss_mb()),
    ];
    let (host_wall, host_cpu) = (summarize(&walls).median, summarize(&cpus).median);

    let mut per_layer = Vec::new();
    if args.trace {
        let mut calls = PolicyCalls::default();
        let t = simulate(build(), true, Some(&mut calls));
        if checker.check("traced", t.out.as_ref()) {
            let out = t.out.as_ref().expect("a passing simulation has output");
            per_layer = layer_metrics(out, t.wall, &calls, host_wall, host_cpu);
            per_layer.push(median_metric("setup.scenario_s", "s", &setup.scenario));
            per_layer.push(median_metric("setup.engine_s", "s", &setup.engine));
        }
    }
    Report {
        attempted: checker.attempted,
        failed: checker.failed,
        end_to_end,
        per_layer,
        reps: (warmup, walls.len(), usize::from(args.trace)),
        digest: checker.digest,
        host,
        host_wall,
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Per-layer metrics of the traced simulation, from the profiler slots
/// and allocator counters the program exports and the policy decorator.
/// A slot the program no longer records reads as 0.
fn layer_metrics(
    out: &SimOutput,
    traced_wall: f64,
    policy: &PolicyCalls,
    wall_s: f64,
    cpu_s: f64,
) -> Vec<Metric> {
    let slot = |name: &str| {
        out.profile
            .as_ref()
            .and_then(|p| p.subsystems.iter().find(|s| s.name == name))
            .map_or((0.0, 0.0), |s| (s.total_nanos as f64 / 1e9, s.count as f64))
    };
    let (solve, _) = slot("alloc.solve");
    let (handlers, _) = slot("engine.handlers");
    let (parallel, parallel_calls) = slot("alloc.solve_parallel");
    let (heap, heap_ops) = slot("queue.heap");
    let a = out.alloc_stats;
    let solved = a.components_solved as f64;
    let retained = a.components_retained as f64;
    let flows = a.flows_touched as f64;
    let events = out.events as f64;
    vec![
        metric("alloc.solve_s", "s", solve),
        metric("alloc.share", "ratio", ratio(solve, handlers)),
        metric("alloc.invocations", "count", a.invocations as f64),
        metric("alloc.components_solved", "count", solved),
        metric("alloc.components_retained", "count", retained),
        metric(
            "alloc.retained_ratio",
            "ratio",
            ratio(retained, solved + retained),
        ),
        metric("alloc.rounds", "count", a.rounds as f64),
        metric(
            "alloc.rounds_per_solve",
            "count",
            ratio(a.rounds as f64, solved),
        ),
        metric("alloc.flows_touched", "count", flows),
        metric("alloc.ns_per_flow_touched", "ns", ratio(solve * 1e9, flows)),
        metric("alloc.parallel_s", "s", parallel),
        metric("alloc.parallel_calls", "count", parallel_calls),
        metric("cpu.parallelism", "ratio", ratio(cpu_s, wall_s)),
        metric("engine.events", "count", events),
        metric("engine.handlers_s", "s", handlers),
        metric("engine.other_s", "s", handlers - solve),
        metric("engine.loop_s", "s", traced_wall - handlers),
        metric(
            "engine.us_per_event",
            "us",
            ratio(traced_wall * 1e6, events),
        ),
        metric("queue.heap_s", "s", heap),
        metric("queue.ops", "count", heap_ops),
        metric("policy.assign_calls", "count", policy.assign as f64),
        metric("policy.assign_s", "s", policy.assign_s),
        metric(
            "policy.jobs_per_assign",
            "count",
            ratio(policy.jobs_assigned as f64, policy.assign as f64),
        ),
        metric(
            "policy.next_update_calls",
            "count",
            policy.next_update.get() as f64,
        ),
        metric(
            "trace.overhead_frac",
            "ratio",
            ratio(traced_wall, wall_s) - 1.0,
        ),
    ]
}

/// A JSON number, or `null` for a value that could not be measured.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The result line: `--trace 1` reports the per-layer metrics, otherwise
/// the end-to-end ones.
fn result_json(report: &Report, trace: bool) -> String {
    let metrics = if trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        body.join(", ")
    )
}

fn print_metric(m: &Metric) {
    let spread = m.samples.map_or(String::new(), |s| {
        format!("  (median of n={}, q1 {:.6}, q3 {:.6})", s.n, s.q1, s.q3)
    });
    println!("  {:<28} {:>16.6} {:<6}{spread}", m.name, m.value, m.unit);
}

fn main() -> ExitCode {
    // Engine knobs come from TL_* variables; the benchmark measures the
    // defaults, so both sides of an A/B run measure the same thing.
    if let Some(var) = std::env::vars_os()
        .map(|(k, _)| k.to_string_lossy().into_owned())
        .find(|k| k.starts_with("TL_"))
    {
        eprintln!(
            "tl-benchmark: {var} is set; unset every TL_* variable to benchmark the defaults"
        );
        return ExitCode::from(2);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tl-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "tl-benchmark workload={} seed={} smoke={} trace={} nproc={nproc}",
        args.workload.name, args.seed, args.smoke, args.trace
    );
    let report = run(&args);
    let (warmup, timed, traced) = report.reps;
    println!("simulations: {warmup} warm-up + {timed} timed + {traced} traced");
    let h = report.host;
    println!(
        "host speed: calibration kernel {:.6} s (median of n={}, q1 {:.6}, q3 {:.6}); \
         median wall {:.6} s unscaled",
        h.median, h.n, h.q1, h.q3, report.host_wall
    );
    println!(
        "end to end, in seconds of a host that runs the kernel in {} s:",
        measure::CALIBRATION_REF_S
    );
    report.end_to_end.iter().for_each(print_metric);
    if args.trace {
        println!("per layer (traced simulation):");
        report.per_layer.iter().for_each(print_metric);
    }
    println!(
        "checked {} simulations, {} failed; digest {:#018x}",
        report.attempted,
        report.failed,
        report.digest.unwrap_or(0)
    );
    println!("{}", result_json(&report, args.trace));
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    const BENCHMARK_JSON: &str =
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");

    fn args(argv: &[&str]) -> Result<Args, String> {
        parse_args(&argv.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    fn smoke(name: &str) -> Args {
        args(&["--workload", name, "--smoke", "--trace"]).expect("valid arguments")
    }

    /// Metric names a section of BENCHMARK.json declares.
    fn declared(section: &str) -> Vec<String> {
        let text = std::fs::read_to_string(BENCHMARK_JSON).expect("BENCHMARK.json is readable");
        let doc = serde_json::from_str_value(&text).expect("BENCHMARK.json parses");
        let Some(Value::Array(entries)) = doc.get(section) else {
            panic!("BENCHMARK.json has no {section} list");
        };
        entries
            .iter()
            .map(|e| match e.get("name") {
                Some(Value::Str(name)) => name.clone(),
                other => panic!("{section} entry without a name: {other:?}"),
            })
            .collect()
    }

    fn sorted(names: impl IntoIterator<Item = String>) -> Vec<String> {
        let mut v: Vec<String> = names.into_iter().collect();
        v.sort();
        v
    }

    #[test]
    fn parses_the_runner_and_the_short_command_lines() {
        let a = args(&[
            "--workload",
            "paper_p1_tls_rr",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.name, a.seed, a.seconds, a.trace, a.smoke),
            ("paper_p1_tls_rr", 7, 3.0, false, false)
        );
        assert!(
            args(&["--workload", "flagship_fifo", "--trace", "1"])
                .unwrap()
                .trace
        );
        let a = args(&["--workload", "flagship_fifo", "--trace", "--smoke"]).unwrap();
        assert!(a.trace && a.smoke && a.seed == DEFAULT_SEED && a.seconds == DEFAULT_SECONDS);
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seed", "1"]).is_err(), "workload is required");
        assert!(args(&["--workload", "flagship_fifo", "--seconds", "0"]).is_err());
        assert!(args(&["--workload", "flagship_fifo", "--bogus"]).is_err());
    }

    #[test]
    fn workloads_are_the_ones_benchmark_json_declares() {
        let names = WORKLOADS.iter().map(|w| w.name.to_string());
        assert_eq!(sorted(names), sorted(declared("workloads")));
    }

    #[test]
    fn digest_is_stable_across_runs_and_follows_the_seed() {
        let w = workload::by_name("paper_p1_tls_rr").unwrap();
        let run = |seed| {
            let out = simulate(w.smoke.scenario(w.policy, seed), false, None).out;
            digest(&out.expect("smoke simulation completes"))
        };
        let d = run(DEFAULT_SEED);
        assert_eq!(d, run(DEFAULT_SEED));
        assert_ne!(d, run(7));
    }

    #[test]
    fn every_workload_prints_every_declared_metric_finite() {
        let name_ok = |n: &str| {
            !n.is_empty()
                && n.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
        };
        for w in &WORKLOADS {
            let report = run(&smoke(w.name));
            assert_eq!((report.failed, report.attempted), (0, 2), "{}", w.name);
            for (section, metrics) in [
                ("end_to_end", &report.end_to_end),
                ("per_layer", &report.per_layer),
            ] {
                let printed = metrics.iter().map(|m| m.name.to_string());
                assert_eq!(
                    sorted(printed),
                    sorted(declared(section)),
                    "{} {section}",
                    w.name
                );
                for m in metrics.iter() {
                    assert!(name_ok(m.name) && m.value.is_finite(), "{}: {m:?}", w.name);
                }
            }
            // The engine split conserves the traced run's wall time.
            let get = |n: &str| report.per_layer.iter().find(|m| m.name == n).unwrap().value;
            let traced_wall = get("engine.us_per_event") * get("engine.events") / 1e6;
            let split = get("engine.handlers_s") + get("engine.loop_s");
            assert!(
                (split - traced_wall).abs() <= 1e-9 * traced_wall.max(1.0),
                "{}",
                w.name
            );

            for trace in [false, true] {
                let line = result_json(&report, trace);
                let doc = serde_json::from_str_value(&line).expect("result line is JSON");
                let Value::Object(keys) = &doc else {
                    panic!("{line}")
                };
                let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                assert!(matches!(doc.get("correct"), Some(Value::Bool(true))));
            }
        }
    }

    #[test]
    fn sources_name_no_api_the_roadmap_deletes() {
        // The engine knobs, kernel-only counters and executor APIs listed
        // here are slated for deletion; naming none of them keeps those
        // deletions from having to edit the benchmark.
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/");
        let deleted = std::fs::read_to_string(format!("{dir}deleted_api.txt")).unwrap();
        let deleted: Vec<&str> = deleted.lines().filter(|l| !l.trim().is_empty()).collect();
        assert!(deleted.len() >= 10, "deleted_api.txt lists the names");
        for entry in std::fs::read_dir(format!("{dir}src")).unwrap() {
            let path = entry.unwrap().path();
            let source = std::fs::read_to_string(&path).unwrap();
            for name in &deleted {
                assert!(!source.contains(name), "{} names {name}", path.display());
            }
        }
    }
}
