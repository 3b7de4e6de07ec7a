//! Full-stack kill-and-resume determinism: a real fabric sweep whose
//! ledger is truncated mid-sweep (simulating a crash) must, after resume,
//! serialize to merged JSON byte-identical to an uninterrupted run —
//! regardless of worker count. The paper figures and the ablations must
//! load every cell back from their ledgers and write the same bytes. The
//! toy-cell equivalents live in `tests/orchestrator.rs`.

use tl_experiments::fabric;
use tl_experiments::{ExperimentConfig, SweepOptions};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tl-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn opts(dir: &std::path::Path, resume: bool, workers: usize) -> SweepOptions {
    SweepOptions {
        workers: Some(workers),
        ledger_dir: Some(dir.to_path_buf()),
        resume,
        ..SweepOptions::default()
    }
}

#[test]
fn fabric_merged_json_survives_kill_and_resume_byte_identical() {
    let cfg = ExperimentConfig {
        iterations: 2,
        ..ExperimentConfig::quick()
    };

    // Reference: one worker, uninterrupted.
    let dir_a = temp_dir("ref");
    let (ref_result, ref_records) = fabric::run(&cfg, true, &opts(&dir_a, false, 1));
    assert!(ref_records.iter().all(|c| c.outcome.is_ok()));
    assert_eq!(ref_result.rows.len(), 27, "3 oversubs x 3 patterns x 3 policies");
    let ref_json = serde_json::to_string_pretty(&ref_result).unwrap();

    // Victim: four workers, then a simulated crash — the ledger keeps the
    // header, nine complete entries, and half of the tenth (a torn append).
    let dir_b = temp_dir("victim");
    fabric::run(&cfg, true, &opts(&dir_b, false, 4));
    let ledger = dir_b.join("fabric.cells.jsonl");
    let contents = std::fs::read_to_string(&ledger).unwrap();
    let lines: Vec<&str> = contents.lines().collect();
    assert_eq!(lines.len(), 28, "header + 27 cells");
    let mut torn = lines[..10].join("\n");
    torn.push('\n');
    torn.push_str(&lines[10][..lines[10].len() / 2]);
    std::fs::write(&ledger, &torn).unwrap();

    // Resume with a different worker count than the reference run.
    let (resumed, records) = fabric::run(&cfg, true, &opts(&dir_b, true, 4));
    assert_eq!(
        records.iter().filter(|c| c.from_ledger).count(),
        9,
        "the intact ledger prefix loads without re-execution"
    );
    assert!(records.iter().all(|c| c.outcome.is_ok()));
    assert_eq!(
        serde_json::to_string_pretty(&resumed).unwrap(),
        ref_json,
        "resumed merged JSON must be byte-identical to the uninterrupted run"
    );

    std::fs::remove_dir_all(&dir_a).unwrap();
    std::fs::remove_dir_all(&dir_b).unwrap();
}

/// Run `repro <args> --json DIR`, which must write `json_files` artifacts,
/// then the same with `--resume`: every cell of each named sweep must load
/// from its ledger (none re-runs, none fails to decode), and every JSON
/// artifact must come out byte-identical.
fn assert_pure_ledger_resume(tag: &str, args: &[&str], sweeps: &[&str], json_files: usize) {
    let dir = temp_dir(tag);
    let repro = |extra: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .arg("--json")
            .arg(&dir)
            .args(extra)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(0), "{args:?} {extra:?}");
        String::from_utf8_lossy(&out.stderr).into_owned()
    };
    let artifacts = || -> Vec<(std::ffi::OsString, Vec<u8>)> {
        let mut files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "json"))
            .map(|p| (p.file_name().unwrap().to_owned(), std::fs::read(&p).unwrap()))
            .collect();
        files.sort();
        files
    };
    repro(&[]);
    let first = artifacts();
    assert_eq!(first.len(), json_files, "{first:?}");
    let stderr = repro(&["--resume"]);
    assert!(!stderr.contains("does not decode"), "{stderr}");
    for sweep in sweeps {
        let tag = format!("[{sweep}] resumed ");
        let line = stderr
            .lines()
            .find_map(|l| l.strip_prefix(tag.as_str()))
            .unwrap_or_else(|| panic!("{sweep} did not resume from its ledger: {stderr}"));
        let (loaded, total) = line.split_once(" cells").unwrap().0.split_once('/').unwrap();
        assert_eq!(loaded, total, "{sweep} re-ran cells: {line}");
    }
    assert_eq!(artifacts(), first, "resumed artifacts differ from the first run's");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn paper_figures_resume_every_cell_from_their_ledgers() {
    let sweeps = ["fig2", "fig3", "fig5a", "fig5b", "fig6", "table2_probe", "table2"];
    let args = ["--experiment", "all", "--iterations", "3"];
    assert_pure_ledger_resume("paper", &args, &sweeps, 8);
}

#[test]
fn ablations_resume_every_cell_from_their_ledgers() {
    let sweeps = [
        "ablate_bands",
        "ablate_rotation",
        "ablate_jitter",
        "ablate_ordering",
        "ablate_model_size",
        "ablate_async",
        "ablate_ps_aware",
        "ablate_churn",
        "ablate_timeline",
        "ablate_fabric",
        "ablate_fairness",
        "ablate_sharded_ps",
        "ablate_slow_host",
    ];
    let args = ["--experiment", "ablations", "--iterations", "2"];
    assert_pure_ledger_resume("ablations", &args, &sweeps, 15);
}
