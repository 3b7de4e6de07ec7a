//! The committed paper artifacts regenerate byte for byte. The full set
//! (`repro --experiment all --csv`) takes minutes and runs in
//! `scripts/check.sh`; the two artifacts that regenerate in milliseconds
//! are checked here on every test run.

use std::path::PathBuf;
use std::process::Command;

#[test]
fn fast_paper_csvs_match_committed_copies() {
    let committed = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results/csv");
    let dir = std::env::temp_dir().join(format!("tl-paper-csv-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for name in ["table1", "fig4"] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["--experiment", name, "--csv"])
            .arg(&dir)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(0), "{name}");
        let file = format!("{name}.csv");
        let fresh = std::fs::read(dir.join(&file)).unwrap();
        let want = std::fs::read(committed.join(&file)).unwrap();
        assert!(fresh == want, "{file} differs from results/csv/{file}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
