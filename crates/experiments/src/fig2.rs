//! Figure 2 — JCT of concurrent DL jobs under various placements (FIFO).
//!
//! Paper: "the performance gap in terms of average job completion time can
//! be as large as 75% due to placement of PS tasks."

use crate::config::ExperimentConfig;
use crate::orchestrator::{run_sweep, SweepOptions};
use crate::report::{pct, Table};
use crate::runner::{run_table1, PolicyKind};
use serde::{Deserialize, Serialize};
use tl_cluster::Table1Index;

/// One placement's results.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig2Row {
    /// Table I index.
    pub index: u8,
    /// Individual job completion times (seconds) — the scatter points.
    pub jcts: Vec<f64>,
    /// Average JCT (the bar height).
    pub mean_jct: f64,
}

/// The full figure.
#[derive(Debug, Serialize)]
pub struct Fig2 {
    /// One row per placement, in index order.
    pub rows: Vec<Fig2Row>,
    /// `(worst mean − best mean) / best mean`.
    pub gap_vs_best: f64,
}

/// Run Figure 2 for the given placement indexes (pass
/// `Table1Index::all()` for the full figure).
pub fn run(cfg: &ExperimentConfig, indexes: &[Table1Index], opts: &SweepOptions) -> Fig2 {
    let cfg = cfg.clone();
    let rows = run_sweep(
        "fig2",
        &serde_json::to_string(&cfg).expect("config serializes"),
        opts,
        indexes.to_vec(),
        |idx| format!("placement=#{}", idx.0),
        move |idx| {
            let out = run_table1(&cfg, idx, PolicyKind::Fifo);
            assert!(out.all_complete(), "placement {idx:?} did not finish");
            let jcts: Vec<f64> = out.jobs.iter().map(|j| j.jct_secs().unwrap()).collect();
            Fig2Row {
                index: idx.0,
                mean_jct: jcts.iter().sum::<f64>() / jcts.len() as f64,
                jcts,
            }
        },
    )
    .expect_complete();
    let best = rows
        .iter()
        .map(|r| r.mean_jct)
        .fold(f64::INFINITY, f64::min);
    let worst = rows.iter().map(|r| r.mean_jct).fold(0.0, f64::max);
    Fig2 {
        rows,
        gap_vs_best: (worst - best) / best,
    }
}

impl Fig2 {
    /// Paper-style rendering.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Figure 2: JCT under FIFO across PS placements",
            &["Placement", "mean JCT (s)", "min JCT (s)", "max JCT (s)"],
        );
        for r in &self.rows {
            let min = r.jcts.iter().fold(f64::INFINITY, |a, &b| a.min(b));
            let max = r.jcts.iter().fold(0.0f64, |a, &b| a.max(b));
            t.push_row(vec![
                format!("#{}", r.index),
                format!("{:.1}", r.mean_jct),
                format!("{min:.1}"),
                format!("{max:.1}"),
            ]);
        }
        t
    }

    /// Summary line vs the paper's headline number.
    pub fn summary(&self) -> String {
        format!(
            "performance gap (worst vs best mean JCT): {} [paper: as large as 75%]",
            pct(self.gap_vs_best)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn colocation_hurts() {
        let cfg = ExperimentConfig::quick();
        let f = run(
            &cfg,
            &[Table1Index(1), Table1Index(8)],
            &SweepOptions::default(),
        );
        assert_eq!(f.rows.len(), 2);
        assert!(
            f.rows[0].mean_jct > f.rows[1].mean_jct * 1.2,
            "#1 ({:.1}s) should be much slower than #8 ({:.1}s)",
            f.rows[0].mean_jct,
            f.rows[1].mean_jct
        );
        assert!(f.gap_vs_best > 0.2);
        assert!(f.summary().contains("paper"));
    }

    #[test]
    fn each_row_has_all_jobs() {
        let cfg = ExperimentConfig::quick();
        let f = run(&cfg, &[Table1Index(8)], &SweepOptions::default());
        assert_eq!(f.rows[0].jcts.len(), 21);
        assert!(f.rows[0].jcts.iter().all(|&j| j > 0.0));
        let t = f.table().render();
        assert!(t.contains("#8"));
    }
}
