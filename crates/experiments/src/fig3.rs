//! Figure 3 — distribution of barrier wait time under placements #1 and #8
//! (FIFO).
//!
//! Paper: "the average wait time under placement #1 ... is 3.71× of that
//! under placement #8", and "the variance of barrier wait time under
//! placement #1 is 4.37× of that under placement #8".

use crate::config::ExperimentConfig;
use crate::orchestrator::{run_sweep, SweepOptions};
use crate::report::{ratio, Table};
use crate::runner::{run_table1, PolicyKind};
use serde::{Deserialize, Serialize};
use simcore::SampleSet;
use tl_cluster::Table1Index;

/// Barrier-wait distributions for one placement.
#[derive(Debug, Serialize, Deserialize)]
pub struct Fig3Side {
    /// Table I index.
    pub index: u8,
    /// CDF of per-barrier mean waits (seconds).
    pub cdf_mean: Vec<(f64, f64)>,
    /// CDF of per-barrier wait variances (seconds²).
    pub cdf_var: Vec<(f64, f64)>,
    /// Grand mean of per-barrier means.
    pub mean_of_means: f64,
    /// Grand mean of per-barrier variances.
    pub mean_of_vars: f64,
}

/// The full figure: the two placements plus their ratios.
#[derive(Debug, Serialize)]
pub struct Fig3 {
    /// Placement #1 (heavy contention).
    pub heavy: Fig3Side,
    /// Placement #8 (mild contention).
    pub mild: Fig3Side,
    /// Ratio of average barrier wait, heavy/mild (paper: 3.71×).
    pub mean_ratio: f64,
    /// Ratio of average wait variance, heavy/mild (paper: 4.37×).
    pub var_ratio: f64,
}

fn collect_side(cfg: &ExperimentConfig, idx: Table1Index, cdf_points: usize) -> Fig3Side {
    let out = run_table1(cfg, idx, PolicyKind::Fifo);
    assert!(out.all_complete());
    let mut means = SampleSet::new();
    let mut vars = SampleSet::new();
    for j in &out.jobs {
        means.extend_from(&j.barrier_means);
        vars.extend_from(&j.barrier_vars);
    }
    Fig3Side {
        index: idx.0,
        mean_of_means: means.mean(),
        mean_of_vars: vars.mean(),
        cdf_mean: means.cdf(cdf_points),
        cdf_var: vars.cdf(cdf_points),
    }
}

/// Run Figure 3.
pub fn run(cfg: &ExperimentConfig, opts: &SweepOptions) -> Fig3 {
    let cfg = cfg.clone();
    let mut sides = run_sweep(
        "fig3",
        &serde_json::to_string(&cfg).expect("config serializes"),
        opts,
        vec![Table1Index(1), Table1Index(8)],
        |idx| format!("placement=#{}", idx.0),
        move |idx| collect_side(&cfg, idx, 64),
    )
    .expect_complete();
    let mild = sides.pop().expect("two sides");
    let heavy = sides.pop().expect("two sides");
    Fig3 {
        mean_ratio: heavy.mean_of_means / mild.mean_of_means,
        var_ratio: heavy.mean_of_vars / mild.mean_of_vars,
        heavy,
        mild,
    }
}

impl Fig3 {
    /// Paper-style quantile table (a compact view of the CDFs).
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Figure 3: barrier wait time distributions under FIFO",
            &["Placement", "mean wait (s)", "mean variance (s^2)"],
        );
        for side in [&self.heavy, &self.mild] {
            t.push_row(vec![
                format!("#{}", side.index),
                format!("{:.3}", side.mean_of_means),
                format!("{:.5}", side.mean_of_vars),
            ]);
        }
        t
    }

    /// Summary vs the paper's headline ratios.
    pub fn summary(&self) -> String {
        format!(
            "avg wait #1/#8: {} [paper: 3.71x]; wait variance #1/#8: {} [paper: 4.37x]",
            ratio(self.mean_ratio),
            ratio(self.var_ratio)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contention_inflates_wait_and_variance() {
        let cfg = ExperimentConfig::quick();
        let f = run(&cfg, &SweepOptions::default());
        assert!(f.mean_ratio > 1.5, "mean ratio {}", f.mean_ratio);
        assert!(f.var_ratio > 1.5, "var ratio {}", f.var_ratio);
        assert_eq!(f.heavy.index, 1);
        assert_eq!(f.mild.index, 8);
        // CDFs are monotone and end at 1.
        for cdf in [&f.heavy.cdf_mean, &f.mild.cdf_var] {
            assert!(cdf.windows(2).all(|w| w[0].1 <= w[1].1));
            assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-9);
        }
        assert!(f.summary().contains("3.71x"));
        assert!(f.table().render().contains("#1"));
    }
}
