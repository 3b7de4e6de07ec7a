//! The `repro` binary's documented exit-code contract: 0 everything
//! completed, 2 usage error, 4 sweep cells failed after the run drained
//! (with a per-cell failure report on stderr). Exit 3 (validation
//! divergence) needs a divergence to exist and is exercised by the
//! differential-validation suite instead; exit 130 (SIGINT) is covered by
//! the orchestrator's interrupt unit tests.

use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tl-exit-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn usage_errors_exit_2() {
    let out = repro().arg("--bogus-flag").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown argument"));

    let out = repro().args(["--experiment", "nope"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));

    let out = repro().arg("--resume").output().unwrap();
    assert_eq!(out.status.code(), Some(2), "--resume without a ledger dir is a usage error");

    let out = repro().args(["--cell-timeout", "-1"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));

    let out = repro().arg("--iterations").output().unwrap();
    assert_eq!(out.status.code(), Some(2), "missing flag value is a usage error");

    // Zero iterations would reach the cells as a zero rotation interval
    // (a panic) or as an empty run; argv rejects it first.
    for experiment in ["fig5a", "fig2"] {
        let out = repro()
            .args(["--experiment", experiment, "--iterations", "0"])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{experiment} --iterations 0");
        assert!(String::from_utf8_lossy(&out.stderr).contains("must be positive"));
    }

    // Table II needs runs long enough for a window in which every job is
    // active; the threshold depends on the seed, so the cell reports it.
    let out = repro()
        .args(["--experiment", "table2", "--iterations", "2"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "table2 --iterations 2");
    assert!(String::from_utf8_lossy(&out.stderr).contains("runs too short for an active window"));

    // The max-min kernel is no longer selectable.
    let out = repro().args(["--kernel", "legacy"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown argument"));
}

#[test]
fn out_of_range_flag_values_exit_2() {
    // Values that parse as numbers but name no runnable setting: a cell
    // timeout past `Duration`'s range, an infinite oversubscription, and
    // a fabric with more hosts than a host id can name.
    for args in [
        ["--cell-timeout", "1e300"],
        ["--topology", "leaf-spine:3x7@inf"],
        ["--topology", "leaf-spine:65536x65536"],
    ] {
        let out = repro()
            .args(["--experiment", "fig2", "--iterations", "3"])
            .args(args)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
    }
}

#[test]
fn faults_with_a_non_star_pattern_exits_2() {
    // Fault injection is modelled for the PS star only; any other pattern
    // is refused at argv instead of failing every cell of the sweep.
    for pattern in ["ring", "hierarchical"] {
        let out = repro()
            .args(["--experiment", "faults", "--iterations", "3", "--pattern", pattern])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{pattern}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("ps-star"));
    }
}

#[test]
fn flags_an_experiment_ignores_exit_2() {
    // An output or size flag the chosen experiment would ignore is a
    // usage error naming the experiments that honour it, never a silent
    // exit 0 with no file written.
    let dir = temp_dir("ignored-flags");
    let out_file = dir.join("out.json");
    let out_path = out_file.to_str().unwrap();
    for (experiment, flag, honoured_by) in [
        ("table1", "--metrics-out", "perf"),
        ("fig4", "--metrics-out", "perf"),
        ("all", "--metrics-out", "perf"),
        ("table1", "--trace-out", "all, fig4, faults, validate, perf"),
        ("fig2", "--trace-out", "all, fig4, faults, validate, perf"),
        ("table1", "--xl", "scale"),
        ("fabric", "--xl", "scale"),
    ] {
        let mut cmd = repro();
        cmd.args(["--experiment", experiment, "--iterations", "3", flag]);
        if flag != "--xl" {
            cmd.arg(out_path);
        }
        let out = cmd.output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{experiment} {flag}: {stderr}");
        assert!(
            stderr.contains(flag) && stderr.contains(honoured_by),
            "{experiment} {flag}: {stderr}"
        );
        assert!(!out_file.exists(), "{experiment} {flag} wrote a file");
    }

    // Where a flag is honoured it still works.
    let out = repro()
        .args(["--experiment", "perf", "--iterations", "3", "--metrics-out", out_path])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    assert!(std::fs::read_to_string(&out_file).unwrap().contains("alloc.invocations"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn perf_and_profile_print_the_counter_table() {
    // Both reports print every exported allocator counter, by the names
    // `AllocStats::counters` gives them: once per policy for `perf`, once
    // for the profiled cell.
    let out = repro()
        .args(["--experiment", "perf", "--iterations", "3", "--profile"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for (name, _) in tl_net::AllocStats::default().counters() {
        let printed = stdout.matches(&format!("{name}=")).count();
        assert_eq!(printed, 4, "{name} printed {printed} times:\n{stdout}");
    }
}

#[test]
fn check_trace_rejects_invalid_utf8_with_exit_2() {
    let dir = temp_dir("utf8");
    let path = dir.join("trace.json");
    let mut bytes = br#"{"traceEvents":[{"ph":"M","name":"ab"#.to_vec();
    bytes.push(0xFF);
    bytes.extend_from_slice(br#"cd"}]}"#);
    std::fs::write(&path, &bytes).unwrap();
    let out = repro().arg("--check-trace").arg(&path).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("invalid utf-8"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_cell_exits_4_then_resume_recovers_to_0() {
    let dir = temp_dir("resume");
    let json = dir.to_str().unwrap();

    // A cell panics mid-sweep: the run drains, reports the failure, and
    // exits 4 — with the surviving cells checkpointed in the ledger.
    let out = repro()
        .args(["--experiment", "scale", "--quick", "--json", json])
        .env("TL_SWEEP_PANIC_AT", "scale:0")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(4));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("did not complete") && stderr.contains("injected test fault"),
        "per-cell failure report missing: {stderr}"
    );
    let ledger = std::fs::read_to_string(dir.join("scale.cells.jsonl")).unwrap();
    assert!(ledger.contains("\"Panicked\""), "failure checkpointed in the ledger");

    // The fault is gone; resume re-runs only the failed cell and exits 0.
    let out = repro()
        .args(["--experiment", "scale", "--quick", "--json", json, "--resume"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "resume after the fault cleared must pass");
    let merged = std::fs::read(dir.join("scale.json")).unwrap();

    // A second resume is a pure ledger load and reproduces the merged
    // JSON byte-for-byte.
    let out = repro()
        .args(["--experiment", "scale", "--quick", "--json", json, "--resume"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(std::fs::read(dir.join("scale.json")).unwrap(), merged);

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn failed_figure_cell_exits_4_then_resume_matches_an_uninterrupted_run() {
    // Figures run their grids through the orchestrator too: an injected
    // panic in one Figure 6 cell drains the rest, exits 4 with the cell
    // checkpointed as failed, and a resume re-runs only that cell.
    let dir = temp_dir("fig6");
    let fig6 = |dir: &std::path::Path, extra: &[&str], inject: Option<&str>| {
        let mut cmd = repro();
        cmd.args(["--experiment", "fig6", "--iterations", "20", "--json"])
            .arg(dir)
            .args(extra);
        if let Some(spec) = inject {
            cmd.env("TL_SWEEP_PANIC_AT", spec);
        }
        cmd.output().unwrap()
    };

    let out = fig6(&dir, &[], Some("fig6:1"));
    assert_eq!(out.status.code(), Some(4));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("did not complete") && stderr.contains("injected test fault"),
        "per-cell failure report missing: {stderr}"
    );
    let ledger = std::fs::read_to_string(dir.join("fig6.cells.jsonl")).unwrap();
    assert!(ledger.contains("\"Panicked\""), "failure checkpointed in the ledger");

    let out = fig6(&dir, &["--resume"], None);
    assert_eq!(out.status.code(), Some(0), "resume after the fault cleared must pass");

    let fresh = temp_dir("fig6-ref");
    let out = fig6(&fresh, &[], None);
    assert_eq!(out.status.code(), Some(0));
    assert!(
        std::fs::read(dir.join("fig6.json")).unwrap()
            == std::fs::read(fresh.join("fig6.json")).unwrap(),
        "resumed fig6.json differs from an uninterrupted run's"
    );

    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&fresh).unwrap();
}
