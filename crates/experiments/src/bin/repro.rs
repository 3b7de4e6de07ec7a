//! `repro` — regenerate every table and figure of the TensorLights paper.
//!
//! Usage:
//!
//! ```text
//! repro [--experiment all|table1|fig2|fig3|fig4|fig5a|fig5b|fig6|table2|ablations|faults|perf|validate|scale|fabric|explain]
//!       [--iterations N] [--full] [--quick] [--seed S] [--csv DIR] [--json DIR]
//!       [--topology SPEC] [--pattern NAME] [--profile]
//!       [--resume] [--ledger-dir DIR] [--cell-timeout SECS] [--max-failures N]
//!       [--trace-out PATH] [--metrics-out PATH] [--check-trace PATH]
//! ```
//!
//! `--full` runs at the paper's 1500 iterations (slow); the default is the
//! scaled 300-iteration configuration, which preserves every result's shape.
//!
//! Every grid of runs — the paper figures and Table II, the ablations,
//! and the `scale`, `fabric`, `validate`, `faults` and `explain` sweeps —
//! runs through the crash-safe orchestrator (DESIGN.md §9): each cell
//! executes in isolation, failures are recorded rather than aborting the
//! run, and when a ledger directory is available (`--ledger-dir`,
//! defaulting to `--json`) completed cells stream to an append-only
//! `<artifact>.cells.jsonl` checkpoint. `--resume` loads that ledger and
//! re-runs only the missing or failed cells; the merged output is
//! byte-identical to an uninterrupted run. Each report block is isolated
//! too, so one failed cell costs its table, not the rest of the report.
//!
//! `--trace-out` writes structured telemetry from experiments that produce
//! it (`fig4`, `perf`): a Chrome `trace_event` JSON document loadable in
//! Perfetto / `chrome://tracing`, or a JSONL event log when the path ends
//! in `.jsonl`. `--metrics-out` writes the sampled metrics timeseries
//! (`perf` only). `--check-trace` validates a previously written Chrome
//! trace and exits (0 valid, 2 invalid).
//!
//! Exit codes: `0` everything completed; `2` usage error (unknown
//! argument/experiment, bad value, invalid trace); `3` differential
//! validation diverged; `4` one or more cells failed or were skipped —
//! reported per cell after the run drains; `130` interrupted (SIGINT),
//! after flushing in-flight ledger entries.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;
use tl_cluster::Table1Index;
use tl_experiments::ablations::{
    async_mode, bands, churn, fabric, fairness, jitter, model_size, ordering, ps_aware, qdisc,
    rate_control, rotation, sharded_ps, slow_host, timeline,
};
use tl_experiments::report::Table;
use tl_experiments::{
    config::ExperimentConfig, fabric as fabric_sweep, faults, fig2, fig3, fig4, fig5, fig6,
    install_sigint_handler, interrupted, run_isolated, table1, table2, validate, write_atomic,
    CellRecord, SweepOptions,
};

struct Args {
    experiment: String,
    cfg: ExperimentConfig,
    quick: bool,
    xl: bool,
    profile: bool,
    csv_dir: Option<PathBuf>,
    json_dir: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    markdown: std::cell::RefCell<Option<(PathBuf, String)>>,
    ledger_dir: Option<PathBuf>,
    resume: bool,
    cell_timeout: Option<Duration>,
    max_failures: Option<usize>,
}

impl Args {
    /// Orchestrator options shared by every grid this invocation runs.
    fn sweep_opts(&self) -> SweepOptions {
        SweepOptions {
            workers: None,
            cell_timeout: self.cell_timeout,
            max_failures: self.max_failures,
            ledger_dir: self.ledger_dir.clone(),
            resume: self.resume,
            progress: true,
        }
    }
}

/// Bad invocation: complain on stderr and exit 2 (usage error).
fn usage_error(msg: &str) -> ! {
    eprintln!("repro: {msg} (see --help)");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut experiment = "all".to_string();
    let mut cfg = ExperimentConfig::default();
    let mut quick = false;
    let mut xl = false;
    let mut profile = false;
    let mut csv_dir = None;
    let mut json_dir: Option<PathBuf> = None;
    let mut trace_out = None;
    let mut metrics_out = None;
    let mut markdown: Option<PathBuf> = None;
    let mut topology: Option<tl_dl::TopologySpec> = None;
    let mut pattern: Option<tl_dl::TrafficPattern> = None;
    let mut ledger_dir: Option<PathBuf> = None;
    let mut resume = false;
    let mut cell_timeout = None;
    let mut max_failures = None;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let next = |i: &mut usize| -> String {
            *i += 1;
            match argv.get(*i) {
                Some(v) => v.clone(),
                None => usage_error(&format!("missing value after {}", argv[*i - 1])),
            }
        };
        match argv[i].as_str() {
            "--experiment" | "-e" => experiment = next(&mut i),
            "--iterations" | "-i" => {
                let v = next(&mut i);
                let n: u64 = v
                    .parse()
                    .unwrap_or_else(|_| usage_error(&format!("bad --iterations value {v:?}")));
                if n == 0 {
                    usage_error("--iterations must be positive, got 0");
                }
                cfg = ExperimentConfig::scaled(n)
            }
            "--full" => cfg = ExperimentConfig::full(),
            "--quick" => quick = true,
            "--xl" => xl = true,
            "--profile" => profile = true,
            "--seed" | "-s" => {
                let v = next(&mut i);
                cfg.seed = v
                    .parse()
                    .unwrap_or_else(|_| usage_error(&format!("bad --seed value {v:?}")));
            }
            "--topology" => {
                let v = next(&mut i);
                let t = v.parse::<tl_dl::TopologySpec>();
                topology = Some(t.unwrap_or_else(|e| usage_error(&e.to_string())));
            }
            "--pattern" => {
                let v = next(&mut i);
                let p = v.parse::<tl_dl::TrafficPattern>();
                pattern = Some(p.unwrap_or_else(|e| usage_error(&e.to_string())));
            }
            "--csv" => csv_dir = Some(PathBuf::from(next(&mut i))),
            "--json" => json_dir = Some(PathBuf::from(next(&mut i))),
            "--ledger-dir" => ledger_dir = Some(PathBuf::from(next(&mut i))),
            "--resume" => resume = true,
            "--cell-timeout" => {
                let v = next(&mut i);
                let secs: f64 = v
                    .parse()
                    .unwrap_or_else(|_| usage_error(&format!("bad --cell-timeout value {v:?}")));
                match Duration::try_from_secs_f64(secs) {
                    Ok(d) if !d.is_zero() => cell_timeout = Some(d),
                    _ => usage_error(&format!(
                        "--cell-timeout must be positive seconds, got {v:?}"
                    )),
                }
            }
            "--max-failures" => {
                let v = next(&mut i);
                max_failures = Some(
                    v.parse()
                        .unwrap_or_else(|_| usage_error(&format!("bad --max-failures value {v:?}"))),
                );
            }
            "--trace-out" => trace_out = Some(PathBuf::from(next(&mut i))),
            "--metrics-out" => metrics_out = Some(PathBuf::from(next(&mut i))),
            "--check-trace" => {
                let code = check_trace(&PathBuf::from(next(&mut i)));
                std::process::exit(code);
            }
            "--markdown" => markdown = Some(PathBuf::from(next(&mut i))),
            "--help" | "-h" => {
                println!(
                    "repro — regenerate the TensorLights paper's tables and figures\n\
                     \n\
                     --experiment all|table1|fig2|fig3|fig4|fig5a|fig5b|fig6|table2|ablations|faults|perf|validate|scale|fabric|explain\n\
                     --iterations N   scaled iteration count (default 300)\n\
                     --full           paper scale (1500 iterations)\n\
                     --quick          scale/fabric/explain: smoke-sized run\n\
                     --xl             scale: the 10 000-host x 5 000-job cell instead of the grid\n\
                     --profile        self-profile the simulator (per-subsystem wall time)\n\
                     --seed S         master seed\n\
                     --topology SPEC  single-switch (default) or leaf-spine:<racks>x<hosts>[@<oversub>]\n\
                     --pattern NAME   ps-star (default), ring, or hierarchical\n\
                     --csv DIR        also write each table as CSV\n\
                     --json DIR       also write each result as JSON\n\
                     --ledger-dir DIR sweep checkpoint ledgers (default: the --json DIR)\n\
                     --resume         load completed cells from the ledger; re-run only the rest\n\
                     --cell-timeout S abandon a sweep cell after S wall-clock seconds\n\
                     --max-failures N stop dispatching cells after N failures; skip the rest\n\
                     --trace-out PATH     all|fig4|faults|validate|perf: write telemetry as Chrome\n\
                     \x20                    trace_event JSON (Perfetto); .jsonl writes a JSONL event log\n\
                     --metrics-out PATH   perf: write sampled metrics timeseries JSON\n\
                     --check-trace PATH   validate a Chrome trace file and exit (0 ok, 2 bad)\n\
                     --markdown FILE  also write all tables as one markdown report\n\
                     \n\
                     exit codes: 0 ok; 2 usage error; 3 validation divergence;\n\
                     4 sweep cells failed or were skipped (reported after the run\n\
                     drains); 130 interrupted (checkpoints flushed first)"
                );
                std::process::exit(0);
            }
            other => usage_error(&format!("unknown argument: {other}")),
        }
        i += 1;
    }
    // Flags only some experiments honour: anywhere else they would exit 0
    // with the flag silently ignored. Each list names the dispatch blocks
    // in `main` that read the flag. `SHAPED` blocks build their cells from
    // the `--topology`/`--pattern` config (table1 and fig4 are fixed;
    // validate, fabric, explain and the ablations set their own).
    // `SWEEPS` blocks run a grid through the orchestrator, whose ledger
    // `--resume` reads.
    const SHAPED: &[&str] = &[
        "all", "fig2", "fig3", "fig5a", "fig5b", "fig6", "table2", "faults", "scale", "perf",
    ];
    const SWEEPS: &[&str] = &[
        "all", "fig2", "fig3", "fig5a", "fig5b", "fig6", "table2", "faults", "validate", "scale",
        "fabric", "explain", "ablations",
    ];
    for (flag, given, honoured_by) in [
        ("--metrics-out", metrics_out.is_some(), &["perf"][..]),
        (
            "--trace-out",
            trace_out.is_some(),
            &["all", "fig4", "faults", "validate", "perf"][..],
        ),
        ("--xl", xl, &["scale"][..]),
        // `--profile` runs a cell of its own sized by `--quick`, next to
        // any experiment.
        ("--quick", quick && !profile, &["scale", "fabric", "explain"][..]),
        ("--topology", topology.is_some(), SHAPED),
        ("--pattern", pattern.is_some(), SHAPED),
        ("--resume", resume, SWEEPS),
    ] {
        if given && !honoured_by.contains(&experiment.as_str()) {
            usage_error(&format!(
                "{flag} applies only to --experiment {}",
                honoured_by.join(", ")
            ));
        }
    }
    if xl && topology.is_some() {
        usage_error("--xl runs its own leaf-spine fabric; --topology does not apply");
    }
    // Applied after the loop so `--iterations`/`--full` (which rebuild the
    // config) cannot clobber an earlier `--topology`/`--pattern`.
    if let Some(t) = topology {
        cfg.topology = t;
    }
    if let Some(p) = pattern {
        cfg.pattern = p;
    }
    if experiment == "faults" && cfg.pattern != tl_dl::TrafficPattern::PsStar {
        usage_error("--experiment faults models fault injection for the ps-star pattern only");
    }
    // The ledger rides with the JSON output unless placed explicitly.
    let ledger_dir = ledger_dir.or_else(|| json_dir.clone());
    if resume && ledger_dir.is_none() {
        usage_error("--resume needs a ledger directory (--json DIR or --ledger-dir DIR)");
    }
    Args {
        experiment,
        cfg,
        quick,
        xl,
        profile,
        csv_dir,
        json_dir,
        trace_out,
        metrics_out,
        markdown: std::cell::RefCell::new(markdown.map(|p| (p, String::new()))),
        ledger_dir,
        resume,
        cell_timeout,
        max_failures,
    }
}

/// The allocator's exported counters as `name=value` pairs.
fn counter_line(stats: &tl_net::AllocStats) -> String {
    let pairs: Vec<String> = stats
        .counters()
        .iter()
        .map(|(name, v)| format!("{name}={v}"))
        .collect();
    pairs.join(" ")
}

/// Validate a Chrome `trace_event` file without external tooling: it must
/// parse as JSON, hold a non-empty `traceEvents` array, and contain the
/// metadata ("M"), span ("X"), and instant ("i") phases the exporter emits.
/// Returns the process exit code (0 valid, 2 invalid).
fn check_trace(path: &std::path::Path) -> i32 {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("check-trace: cannot read {}: {e}", path.display());
            return 2;
        }
    };
    let doc: serde::Value = match serde_json::from_slice_value(&bytes) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("check-trace: {} is not valid JSON: {e}", path.display());
            return 2;
        }
    };
    let events = match doc.get("traceEvents") {
        Some(serde::Value::Array(evs)) if !evs.is_empty() => evs,
        _ => {
            eprintln!(
                "check-trace: {} has no non-empty traceEvents array",
                path.display()
            );
            return 2;
        }
    };
    for required in ["M", "X", "i"] {
        let found = events.iter().any(|e| {
            matches!(e.get("ph"), Some(serde::Value::Str(ph)) if ph == required)
        });
        if !found {
            eprintln!(
                "check-trace: {} contains no ph={required:?} event",
                path.display()
            );
            return 2;
        }
    }
    println!(
        "check-trace: {} ok ({} trace events)",
        path.display(),
        events.len()
    );
    0
}

fn emit(
    args: &Args,
    name: &str,
    table: &Table,
    summary: Option<String>,
    result: &impl serde::Serialize,
) {
    println!("{}", table.render());
    if let Some(s) = &summary {
        println!("{s}\n");
    }
    if let Some(dir) = &args.csv_dir {
        std::fs::create_dir_all(dir).expect("create csv dir");
        write_atomic(&dir.join(format!("{name}.csv")), table.to_csv().as_bytes())
            .expect("write csv");
    }
    if let Some(dir) = &args.json_dir {
        std::fs::create_dir_all(dir).expect("create json dir");
        let json = serde_json::to_string_pretty(result).expect("json");
        write_atomic(&dir.join(format!("{name}.json")), json.as_bytes()).expect("write json");
    }
    if let Some((_, body)) = args.markdown.borrow_mut().as_mut() {
        body.push_str(&table.to_markdown());
        if let Some(s) = &summary {
            body.push_str(&format!("{s}\n\n"));
        }
    }
}

/// Write `events` to `path`: JSONL if the extension is `.jsonl`, Chrome
/// `trace_event` JSON otherwise.
fn write_events(path: &std::path::Path, events: &[tl_telemetry::TimedEvent]) {
    let jsonl = path.extension().is_some_and(|e| e == "jsonl");
    let body = if jsonl {
        tl_telemetry::export::events_to_jsonl(events)
    } else {
        tl_telemetry::export::chrome_trace(events)
    };
    write_atomic(path, body.as_bytes()).expect("write trace");
    println!(
        "telemetry: {} events written to {} ({})",
        events.len(),
        path.display(),
        if jsonl { "JSONL" } else { "Chrome trace_event" }
    );
}

/// Append `[scope] label — outcome` lines for every cell that did not
/// finish cleanly; these become the post-drain failure report.
fn collect_failures(failures: &mut Vec<String>, scope: &str, records: &[CellRecord]) {
    for rec in records {
        if !rec.outcome.is_ok() {
            failures.push(format!("[{scope}] {} — {}", rec.label, rec.outcome));
        }
    }
}

fn main() {
    install_sigint_handler();
    let args = parse_args();
    let cfg = &args.cfg;
    let opts = args.sweep_opts();
    let wanted = |name: &str| args.experiment == "all" || args.experiment == name;
    let mut ran = 0;
    let t0 = std::time::Instant::now();
    let mut summaries: BTreeMap<&'static str, String> = BTreeMap::new();
    let mut failures: Vec<String> = Vec::new();
    let mut validation_failed = false;

    /// Run one report block under panic isolation: a figure or ablation
    /// that dies is recorded in the failure report instead of aborting
    /// everything after it.
    macro_rules! isolated {
        ($name:expr, $body:block) => {{
            let (_, rec) = run_isolated($name, || $body);
            if !rec.outcome.is_ok() {
                failures.push(format!("[repro] {} — {}", rec.label, rec.outcome));
            }
        }};
    }

    println!(
        "TensorLights reproduction — {} iterations/job, seed {}\n",
        cfg.iterations, cfg.seed
    );

    if wanted("table1") {
        isolated!("table1", {
            let r = table1::run();
            emit(&args, "table1", &r.table(), None, &r.table());
        });
        ran += 1;
    }
    if wanted("fig2") {
        isolated!("fig2", {
            let r = fig2::run(cfg, &Table1Index::all(), &opts);
            summaries.insert("fig2", r.summary());
            let bars: Vec<(String, f64)> = r
                .rows
                .iter()
                .map(|row| (format!("#{}", row.index), row.mean_jct))
                .collect();
            let chart = tl_experiments::charts::bar_chart("mean JCT by placement (s)", &bars, 48);
            emit(
                &args,
                "fig2",
                &r.table(),
                Some(format!("{chart}\n{}", r.summary())),
                &r,
            );
        });
        ran += 1;
    }
    if wanted("fig3") {
        isolated!("fig3", {
            let r = fig3::run(cfg, &opts);
            summaries.insert("fig3", r.summary());
            let chart = tl_experiments::charts::cdf_chart(
                "CDF of per-barrier mean wait (s)",
                &[("#1", &r.heavy.cdf_mean), ("#8", &r.mild.cdf_mean)],
                56,
                12,
            );
            emit(
                &args,
                "fig3",
                &r.table(),
                Some(format!("{chart}\n{}", r.summary())),
                &r,
            );
        });
        ran += 1;
    }
    if wanted("fig4") {
        isolated!("fig4", {
            let fig_cfg = fig4::Fig4Config::default();
            let r = fig4::run(&fig_cfg);
            emit(&args, "fig4", &r.table(), Some(r.ascii.clone()), &r);
            if let Some(path) = &args.trace_out {
                let events = fig4::telemetry_events(&fig_cfg);
                write_events(path, &events);
            }
        });
        ran += 1;
    }
    if wanted("fig5a") {
        isolated!("fig5a", {
            let r = fig5::run_5a(cfg, &Table1Index::all(), &opts);
            summaries.insert("fig5a", r.summary());
            emit(&args, "fig5a", &r.table(), Some(r.summary()), &r);
        });
        ran += 1;
    }
    if wanted("fig5b") {
        isolated!("fig5b", {
            let r = fig5::run_5b(cfg, &[1, 2, 4, 8, 16, 32], &opts);
            summaries.insert("fig5b", r.summary());
            emit(&args, "fig5b", &r.table(), Some(r.summary()), &r);
        });
        ran += 1;
    }
    if wanted("fig6") {
        isolated!("fig6", {
            let r = fig6::run(cfg, &opts);
            summaries.insert("fig6", r.summary());
            let chart = tl_experiments::charts::cdf_chart(
                "CDF of per-barrier wait variance (s^2), placement #1",
                &[
                    (r.sides[0].label.as_str(), &r.sides[0].cdf_var),
                    (r.sides[1].label.as_str(), &r.sides[1].cdf_var),
                    (r.sides[2].label.as_str(), &r.sides[2].cdf_var),
                ],
                56,
                12,
            );
            emit(
                &args,
                "fig6",
                &r.table(),
                Some(format!("{chart}\n{}", r.summary())),
                &r,
            );
        });
        ran += 1;
    }
    if wanted("table2") {
        isolated!("table2", {
            // Too short a run leaves no window for any seed-dependent
            // threshold argv could check: a usage error, not a cell failure.
            let r = table2::run(cfg, Table1Index(1), &opts)
                .unwrap_or_else(|e| usage_error(&e.to_string()));
            summaries.insert("table2", r.summary());
            emit(&args, "table2", &r.table(), Some(r.summary()), &r);
        });
        ran += 1;
    }

    if args.experiment == "faults" {
        // Robustness extension (not a paper figure): JCT under injected
        // host/NIC/PS/control-plane faults, both barrier-loss policies.
        use tl_dl::BarrierLossPolicy;
        let intensities = [0.0, 0.5, 1.0, 2.0];
        for loss in [
            BarrierLossPolicy::StallUntilRecovery,
            BarrierLossPolicy::DropAndContinue,
        ] {
            let name = match loss {
                BarrierLossPolicy::StallUntilRecovery => "faults_stall",
                BarrierLossPolicy::DropAndContinue => "faults_drop",
            };
            isolated!(name, {
                let (r, records) = faults::run(cfg, &intensities, loss, &opts);
                collect_failures(&mut failures, name, &records);
                for row in &r.rows {
                    if row.completed != 21 {
                        failures.push(format!(
                            "[{name}] intensity={},policy={} — only {} of 21 jobs completed",
                            row.intensity, row.policy, row.completed
                        ));
                    }
                }
                if r.rows.is_empty() {
                    eprintln!("{name}: no cells completed; skipping report");
                } else {
                    summaries.insert(name, r.summary());
                    emit(&args, name, &r.table(), Some(r.summary()), &r);
                }
            });
        }
        if let Some(path) = &args.trace_out {
            let events = faults::telemetry_events(cfg, 2.0, BarrierLossPolicy::DropAndContinue);
            write_events(path, &events);
        }
        ran += 1;
    }

    if args.experiment == "validate" {
        // Differential validation (not a paper figure): every scenario of
        // the seeded matrix runs through the full DL engine on both the
        // fluid and the packet network backend with invariant checks on;
        // any divergence beyond tolerance or invariant violation fails
        // the process (exit 3, raised only after everything else drains).
        isolated!("validate", {
            let (r, records) = validate::run(cfg, &opts);
            collect_failures(&mut failures, "validate", &records);
            if r.rows.is_empty() {
                eprintln!("validate: no scenarios completed; skipping report");
                validation_failed = true;
            } else {
                summaries.insert("validate", r.summary());
                emit(&args, "validate", &r.table(), Some(r.summary()), &r);
                if let Some(path) = &args.trace_out {
                    write_events(path, &r.mark_events());
                }
                if !r.passed() {
                    validation_failed = true;
                }
            }
        });
        ran += 1;
    }

    if args.experiment == "scale" {
        // Scale-out engine throughput sweep (not a paper figure): the
        // (hosts x jobs) grid up to 500 hosts / 200 jobs under all three
        // policies, reporting wall-clock, events and allocator counters
        // per cell. `--quick` runs only the smallest cell (smoke run).
        use tl_experiments::scale;
        isolated!("scale", {
            let (r, records) = if args.xl {
                // The single 10 000-host x 5 000-job cell (all three
                // policies); run_xl panics unless every job completes.
                (scale::run_xl(cfg), Vec::new())
            } else {
                scale::run(cfg, args.quick, &opts)
            };
            collect_failures(&mut failures, "scale", &records);
            for row in &r.rows {
                if row.completed as u32 != row.jobs {
                    failures.push(format!(
                        "[scale] hosts={},jobs={},policy={} — incomplete: {}/{} jobs",
                        row.hosts, row.jobs, row.policy, row.completed, row.jobs
                    ));
                }
            }
            if r.rows.is_empty() {
                eprintln!("scale: no cells completed; skipping report");
            } else {
                summaries.insert("scale", r.summary());
                emit(&args, "scale", &r.table(), Some(r.summary()), &r);
                // Deterministic projection (wall-clock columns stripped,
                // floats as bit patterns): byte-identical across runs and
                // processes; check.sh compares it with the committed copy.
                if let Some(dir) = &args.json_dir {
                    std::fs::create_dir_all(dir).expect("create json dir");
                    write_atomic(
                        &dir.join("scale.canonical.json"),
                        r.canonical_json().as_bytes(),
                    )
                    .expect("write canonical json");
                }
            }
        });
        ran += 1;
    }

    if args.experiment == "fabric" {
        // Multi-link fabric sweep (not a paper figure): the cross-rack
        // workload under policy x oversubscription x traffic pattern on a
        // 3-rack leaf-spine topology. Every cell must complete all jobs.
        isolated!("fabric", {
            let (r, records) = fabric_sweep::run(cfg, args.quick, &opts);
            collect_failures(&mut failures, "fabric", &records);
            for row in &r.rows {
                if row.completed as u32 != row.jobs {
                    failures.push(format!(
                        "[fabric] oversub={},pattern={},policy={} — incomplete: {}/{} jobs",
                        row.oversub, row.pattern, row.policy, row.completed, row.jobs
                    ));
                }
            }
            if r.rows.is_empty() {
                eprintln!("fabric: no cells completed; skipping report");
            } else {
                summaries.insert("fabric", r.summary());
                emit(&args, "fabric", &r.table(), Some(r.summary()), &r);
            }
        });
        ran += 1;
    }

    if args.experiment == "explain" {
        // Critical-path analysis (not a paper figure): rerun the fabric
        // workload's bracketing cells with telemetry on, decompose every
        // JCT into conservation-checked components, attribute wait to the
        // competing jobs that caused it, and extract critical paths.
        use tl_experiments::explain;
        isolated!("explain", {
            let (r, records) = explain::run(cfg, args.quick, &opts);
            collect_failures(&mut failures, "explain", &records);
            for c in &r.cells {
                if let Err(e) = c.report.check_conservation() {
                    failures.push(format!(
                        "[explain] oversub={}:1,policy={} — conservation: {e}",
                        c.oversub, c.policy
                    ));
                }
            }
            if r.cells.is_empty() {
                eprintln!("explain: no cells completed; skipping report");
            } else {
                summaries.insert("explain", r.summary());
                emit(
                    &args,
                    "explain",
                    &r.table(),
                    Some(format!("{}\n{}", r.report_text(), r.summary())),
                    &r,
                );
            }
        });
        ran += 1;
    }

    if args.profile {
        // Self-profiling run (pairs with any experiment, or stands alone):
        // one instrumented 4:1 TLs-One fabric cell with per-subsystem
        // wall-time histograms. Wall-clock values vary run to run; the
        // slot set and counts are deterministic.
        use tl_experiments::explain;
        isolated!("profile", {
            let (rep, alloc) = explain::profile_cell(cfg, args.quick);
            println!("simulator self-profile (4:1 ps-star, TLs-One):\n{}", rep.render());
            println!(
                "allocator share of event handling: {:.1}%",
                100.0 * rep.share_of("alloc.solve", "engine.handlers").unwrap_or(0.0)
            );
            println!(
                "cpu engine share of event handling: {:.1}%",
                100.0 * rep.share_of("cpu.engine", "engine.handlers").unwrap_or(0.0)
            );
            println!("allocator counters: {}", counter_line(&alloc));
            if let Some(dir) = &args.json_dir {
                std::fs::create_dir_all(dir).expect("create json dir");
                write_atomic(&dir.join("profile.json"), rep.to_json().as_bytes())
                    .expect("write json");
            }
        });
        ran += 1;
    }

    if args.experiment == "perf" {
        // One grid-search simulation per policy, reporting the engine's
        // allocator performance counters (SimOutput::alloc_stats).
        // Placement #8 gives every PS a host of its own, so its three
        // policies solve identically; placement #1 colocates every PS on
        // one host, where strict-priority band admission does the work.
        use tl_experiments::{run_table1, PolicyKind};
        isolated!("perf", {
            for placement in [8, 1] {
                println!("allocator perf counters, Table I placement #{placement}:");
                for policy in PolicyKind::all() {
                    let t = std::time::Instant::now();
                    let out = run_table1(cfg, Table1Index(placement), policy);
                    let wall = t.elapsed();
                    println!(
                        "  {:<8} events={} sim_wall={:.2?} alloc_wall={:.2?}\n           {}",
                        policy.label(),
                        out.events,
                        wall,
                        std::time::Duration::from_nanos(out.alloc_stats.wall_nanos),
                        counter_line(&out.alloc_stats),
                    );
                }
            }
            if args.trace_out.is_some() || args.metrics_out.is_some() {
                // One instrumented TLs-RR run for the requested exports.
                // Placement #1 colocates every PS on one host, so the trace
                // shows the rotations TLs-RR exists for (at #8 every PS host is
                // dedicated and rotation never re-bands anything).
                use tl_cluster::table1_placement;
                use tl_experiments::run_grid_search_telemetry;
                use tl_telemetry::TelemetryConfig;
                let placement = table1_placement(Table1Index(1), 21, 21);
                let out = run_grid_search_telemetry(
                    cfg,
                    &placement,
                    PolicyKind::TlsRr,
                    4,
                    None,
                    TelemetryConfig::full(simcore::SimDuration::from_millis(100)),
                );
                if let Some(path) = &args.trace_out {
                    if path.extension().is_some_and(|e| e == "jsonl") {
                        write_events(path, &out.telemetry.events);
                    } else {
                        // Full export: event spans plus counter tracks for the
                        // sampled cpu/net/fabric gauges (rack uplinks and
                        // downlinks show as per-link utilization counters on
                        // leaf-spine runs).
                        write_atomic(path, out.telemetry.to_chrome_trace().as_bytes())
                            .expect("write trace");
                        println!(
                            "telemetry: {} events + {} metric series written to {} (Chrome trace_event)",
                            out.telemetry.events.len(),
                            out.telemetry.metrics.len(),
                            path.display()
                        );
                    }
                }
                if let Some(path) = &args.metrics_out {
                    write_atomic(path, out.telemetry.metrics_json().as_bytes())
                        .expect("write metrics");
                    println!(
                        "telemetry: {} metrics written to {}",
                        out.telemetry.metrics.len(),
                        path.display()
                    );
                }
            }
        });
        ran += 1;
    }

    if args.experiment == "ablations" {
        // Scale the ablation sweeps down relative to the headline figures;
        // they multiply many runs. Each ablation is isolated: one panic
        // costs that table, not the other fourteen.
        let acfg = ExperimentConfig::scaled(cfg.iterations.min(80));

        isolated!("ablate_bands", {
            let r = bands::run(&acfg, &[1, 2, 3, 4, 6, 8], &opts);
            emit(&args, "ablate_bands", &r.table(), None, &r);
        });

        isolated!("ablate_rotation", {
            let r = rotation::run(&acfg, &[0.5, 1.0, 2.0, 5.0, 20.0, 1e6], &opts);
            emit(&args, "ablate_rotation", &r.table(), None, &r);
        });

        isolated!("ablate_jitter", {
            let r = jitter::run(&acfg, &[0.0, 0.15, 0.3, 0.5, 0.8], &opts);
            emit(&args, "ablate_jitter", &r.table(), None, &r);
        });

        isolated!("ablate_ordering", {
            let r = ordering::run(&acfg, &opts);
            emit(&args, "ablate_ordering", &r.table(), None, &r);
        });

        isolated!("ablate_model_size", {
            let r = model_size::run(&acfg, &[1, 2, 4, 8, 16], &opts);
            emit(&args, "ablate_model_size", &r.table(), None, &r);
        });

        isolated!("ablate_rate_control", {
            let r = rate_control::run(&acfg);
            emit(&args, "ablate_rate_control", &r.table(), None, &r);
        });

        isolated!("ablate_async", {
            let r = async_mode::run(&acfg, &opts);
            emit(&args, "ablate_async", &r.table(), None, &r);
        });

        isolated!("ablate_ps_aware", {
            let r = ps_aware::run(&acfg, &opts);
            emit(&args, "ablate_ps_aware", &r.table(), None, &r);
        });

        isolated!("ablate_qdisc", {
            let r = qdisc::run();
            emit(&args, "ablate_qdisc", &r.table(), None, &r);
        });

        isolated!("ablate_churn", {
            let r = churn::run(&acfg, 5.0, &opts);
            emit(&args, "ablate_churn", &r.table(), None, &r);
        });

        isolated!("ablate_timeline", {
            let r = timeline::run(&acfg, 250, &opts);
            let chart = r.ascii(100);
            emit(&args, "ablate_timeline", &r.table(), Some(chart), &r);
        });

        isolated!("ablate_fabric", {
            let r = fabric::run(&acfg, &[1.0, 8.0, 16.0, 32.0], &opts);
            emit(&args, "ablate_fabric", &r.table(), None, &r);
        });

        isolated!("ablate_fairness", {
            let r = fairness::run(&acfg, 2.0, &opts);
            emit(&args, "ablate_fairness", &r.table(), None, &r);
        });

        isolated!("ablate_sharded_ps", {
            let r = sharded_ps::run(&acfg, &[1, 2, 4], &opts);
            emit(&args, "ablate_sharded_ps", &r.table(), None, &r);
        });

        isolated!("ablate_slow_host", {
            let r = slow_host::run(&acfg, &opts);
            emit(&args, "ablate_slow_host", &r.table(), None, &r);
        });

        ran += 15;
    }

    if ran == 0 {
        usage_error(&format!("unknown experiment '{}'", args.experiment));
    }
    if !summaries.is_empty() {
        println!("== measured vs paper ==");
        for (name, s) in &summaries {
            println!("  {name}: {s}");
        }
    }
    if let Some((path, body)) = args.markdown.borrow().as_ref() {
        let header = format!(
            "# TensorLights reproduction report\n\n{} iterations/job, seed {}.\n\n",
            cfg.iterations, cfg.seed
        );
        write_atomic(path, format!("{header}{body}").as_bytes()).expect("write markdown report");
        println!("markdown report written to {}", path.display());
    }
    println!("\ndone in {:.1?}", t0.elapsed());

    // Exit-code ladder, applied only after every requested block drained:
    // interruption trumps everything (the ledger already holds the
    // completed cells), then validation divergence, then cell failures.
    if !failures.is_empty() {
        eprintln!("\n{} cell(s) did not complete:", failures.len());
        for f in &failures {
            eprintln!("  {f}");
        }
    }
    if interrupted() {
        match &args.ledger_dir {
            Some(dir) => eprintln!(
                "interrupted — completed cells are checkpointed; re-run with \
                 --resume --ledger-dir {} (same arguments) to continue",
                dir.display()
            ),
            None => eprintln!(
                "interrupted — no ledger directory (--json/--ledger-dir), progress \
                 was not checkpointed"
            ),
        }
        std::process::exit(130);
    }
    if validation_failed {
        eprintln!("validate: FAILED — backend divergence or invariant violations (see table)");
        std::process::exit(3);
    }
    if !failures.is_empty() {
        std::process::exit(4);
    }
}
