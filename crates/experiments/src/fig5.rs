//! Figure 5 — normalized JCT of TensorLights vs FIFO.
//!
//! (a) across PS placements (batch size 4): "TLs-One reduces the average
//! job completion time by up to 27% ... under TLs-RR ... by up to 16%.
//! For the placement with less model update traffic contention, i.e.
//! placement #4 and above ... comparable performance as FIFO."
//!
//! (b) across local batch sizes at placement #1: "under more intense
//! traffic contention due to smaller local batch size, TLs-One (or TLs-RR)
//! enlarges the improvement over FIFO ... to 31% (or 17%)."

use crate::config::ExperimentConfig;
use crate::orchestrator::{run_sweep, SweepOptions};
use crate::report::{pct, Table};
use crate::runner::{run_grid_search, PolicyKind};
use serde::Serialize;
use tl_cluster::{table1_placement, Table1Index};

/// One (x-axis point, policy) cell: normalized JCTs.
#[derive(Debug, Clone, Serialize)]
pub struct NormalizedCell {
    /// Per-job JCT normalized over the same job's JCT under FIFO —
    /// the scatter points.
    pub per_job: Vec<f64>,
    /// Mean of the normalized values — the bar height.
    pub mean: f64,
}

/// One x-axis point (a placement for 5a, a batch size for 5b).
#[derive(Debug, Serialize)]
pub struct Fig5Row {
    /// Placement index (5a) or batch size (5b).
    pub x: u32,
    /// FIFO mean JCT (seconds), the normalization base.
    pub fifo_mean_jct: f64,
    /// Normalized cell for TLs-One.
    pub tls_one: NormalizedCell,
    /// Normalized cell for TLs-RR.
    pub tls_rr: NormalizedCell,
}

/// A normalized-JCT figure (either panel).
#[derive(Debug, Serialize)]
pub struct Fig5 {
    /// Panel label.
    pub label: &'static str,
    /// Rows along the x axis.
    pub rows: Vec<Fig5Row>,
    /// Best (most negative) mean improvement of TLs-One across rows.
    pub best_tls_one_improvement: f64,
    /// Best mean improvement of TLs-RR across rows.
    pub best_tls_rr_improvement: f64,
}

fn normalize(policy_jcts: &[f64], fifo_jcts: &[f64]) -> NormalizedCell {
    assert_eq!(policy_jcts.len(), fifo_jcts.len());
    let per_job: Vec<f64> = policy_jcts
        .iter()
        .zip(fifo_jcts)
        .map(|(p, f)| p / f)
        .collect();
    NormalizedCell {
        mean: per_job.iter().sum::<f64>() / per_job.len() as f64,
        per_job,
    }
}

fn run_axis(
    cfg: &ExperimentConfig,
    label: &'static str,
    points: Vec<(u32, Table1Index, u32)>, // (x, placement index, batch)
    opts: &SweepOptions,
) -> Fig5 {
    // One run per (point, policy), all in parallel.
    let mut tasks = Vec::new();
    for &(_, idx, batch) in &points {
        for policy in PolicyKind::all() {
            tasks.push((idx, batch, policy));
        }
    }
    let cfg = cfg.clone();
    let outs = run_sweep(
        &format!("fig{label}"),
        &serde_json::to_string(&cfg).expect("config serializes"),
        opts,
        tasks,
        |(idx, batch, policy)| {
            format!(
                "placement=#{},batch={batch},policy={}",
                idx.0,
                policy.label()
            )
        },
        move |(idx, batch, policy)| {
            let placement = table1_placement(idx, 21, 21);
            let out = run_grid_search(&cfg, &placement, policy, batch, None);
            assert!(out.all_complete(), "{idx:?}/{policy:?} did not finish");
            out.jobs
                .iter()
                .map(|j| j.jct_secs().unwrap())
                .collect::<Vec<f64>>()
        },
    )
    .expect_complete();
    let mut rows = Vec::new();
    for (pi, &(x, _, _)) in points.iter().enumerate() {
        let base = pi * 3;
        let fifo = &outs[base];
        let one = &outs[base + 1];
        let rr = &outs[base + 2];
        rows.push(Fig5Row {
            x,
            fifo_mean_jct: fifo.iter().sum::<f64>() / fifo.len() as f64,
            tls_one: normalize(one, fifo),
            tls_rr: normalize(rr, fifo),
        });
    }
    let best =
        |sel: fn(&Fig5Row) -> f64| rows.iter().map(sel).fold(0.0f64, |acc, m| acc.max(1.0 - m));
    Fig5 {
        label,
        best_tls_one_improvement: best(|r| r.tls_one.mean),
        best_tls_rr_improvement: best(|r| r.tls_rr.mean),
        rows,
    }
}

/// Figure 5a: normalized JCT across the given placements (batch size 4).
pub fn run_5a(cfg: &ExperimentConfig, indexes: &[Table1Index], opts: &SweepOptions) -> Fig5 {
    run_axis(
        cfg,
        "5a",
        indexes.iter().map(|&i| (i.0 as u32, i, 4)).collect(),
        opts,
    )
}

/// Figure 5b: normalized JCT across local batch sizes at placement #1.
pub fn run_5b(cfg: &ExperimentConfig, batches: &[u32], opts: &SweepOptions) -> Fig5 {
    run_axis(
        cfg,
        "5b",
        batches.iter().map(|&b| (b, Table1Index(1), b)).collect(),
        opts,
    )
}

impl Fig5 {
    /// Paper-style rendering.
    pub fn table(&self) -> Table {
        let xname = if self.label == "5a" {
            "Placement"
        } else {
            "Batch size"
        };
        let mut t = Table::new(
            format!("Figure {}: normalized JCT (lower is better)", self.label),
            &[xname, "FIFO JCT (s)", "TLs-One", "TLs-RR"],
        );
        for r in &self.rows {
            let x = if self.label == "5a" {
                format!("#{}", r.x)
            } else {
                r.x.to_string()
            };
            t.push_row(vec![
                x,
                format!("{:.1}", r.fifo_mean_jct),
                format!("{:.3}", r.tls_one.mean),
                format!("{:.3}", r.tls_rr.mean),
            ]);
        }
        t
    }

    /// Summary vs the paper's headline numbers.
    pub fn summary(&self) -> String {
        let paper = if self.label == "5a" {
            "up to 27% (TLs-One), 16% (TLs-RR)"
        } else {
            "up to 31% (TLs-One), 17% (TLs-RR)"
        };
        format!(
            "best improvement: TLs-One {}, TLs-RR {} [paper: {}]",
            pct(-self.best_tls_one_improvement),
            pct(-self.best_tls_rr_improvement),
            paper
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tls_wins_under_contention_only() {
        let cfg = ExperimentConfig::quick();
        let f = run_5a(
            &cfg,
            &[Table1Index(1), Table1Index(8)],
            &SweepOptions::default(),
        );
        let heavy = &f.rows[0];
        let mild = &f.rows[1];
        assert!(
            heavy.tls_one.mean < 0.9,
            "TLs-One should beat FIFO at #1: {}",
            heavy.tls_one.mean
        );
        assert!(
            (mild.tls_one.mean - 1.0).abs() < 0.05,
            "TLs ~ FIFO at #8: {}",
            mild.tls_one.mean
        );
        assert!(f.best_tls_one_improvement > 0.1);
        assert!(f.summary().contains("27%"));
    }

    #[test]
    fn smaller_batch_amplifies_improvement() {
        let cfg = ExperimentConfig::quick();
        let f = run_5b(&cfg, &[1, 16], &SweepOptions::default());
        let small = &f.rows[0];
        let large = &f.rows[1];
        assert!(
            small.tls_one.mean < large.tls_one.mean,
            "batch 1 ({:.3}) should gain more than batch 16 ({:.3})",
            small.tls_one.mean,
            large.tls_one.mean
        );
        assert!(f.table().render().contains("Batch size"));
    }
}
