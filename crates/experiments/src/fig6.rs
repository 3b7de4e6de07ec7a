//! Figure 6 — barrier wait time under the three policies at placement #1.
//!
//! Paper: "The average barrier wait time are comparable under the three
//! network scheduling policies. ... Compared with FIFO, the average (or
//! median) variance of barrier wait time under TLs-One is reduced by 26%
//! (or 40%), and under TLs-RR by 15% (or 30%)."

use crate::config::ExperimentConfig;
use crate::orchestrator::{run_sweep, SweepOptions};
use crate::report::{pct, Table};
use crate::runner::{run_table1, PolicyKind};
use serde::{Deserialize, Serialize};
use simcore::SampleSet;
use tl_cluster::Table1Index;

/// One policy's barrier-wait distributions.
#[derive(Debug, Serialize, Deserialize)]
pub struct Fig6Side {
    /// Policy label.
    pub label: String,
    /// CDF of per-barrier mean waits (seconds).
    pub cdf_mean: Vec<(f64, f64)>,
    /// CDF of per-barrier wait variances (seconds²).
    pub cdf_var: Vec<(f64, f64)>,
    /// Average of per-barrier means.
    pub mean_of_means: f64,
    /// Average of per-barrier variances.
    pub mean_of_vars: f64,
    /// Median of per-barrier variances.
    pub median_of_vars: f64,
}

/// The figure: three policies at placement #1.
#[derive(Debug, Serialize)]
pub struct Fig6 {
    /// FIFO / TLs-One / TLs-RR distributions.
    pub sides: Vec<Fig6Side>,
    /// Reduction of the *average* wait variance vs FIFO: (TLs-One, TLs-RR).
    pub var_mean_reduction: (f64, f64),
    /// Reduction of the *median* wait variance vs FIFO: (TLs-One, TLs-RR).
    pub var_median_reduction: (f64, f64),
}

/// Run Figure 6.
pub fn run(cfg: &ExperimentConfig, opts: &SweepOptions) -> Fig6 {
    let cfg = cfg.clone();
    let sides = run_sweep(
        "fig6",
        &serde_json::to_string(&cfg).expect("config serializes"),
        opts,
        PolicyKind::all().to_vec(),
        |policy| format!("policy={}", policy.label()),
        move |policy| {
            let out = run_table1(&cfg, Table1Index(1), policy);
            assert!(out.all_complete());
            let mut means = SampleSet::new();
            let mut vars = SampleSet::new();
            for j in &out.jobs {
                means.extend_from(&j.barrier_means);
                vars.extend_from(&j.barrier_vars);
            }
            Fig6Side {
                label: policy.label().to_string(),
                mean_of_means: means.mean(),
                mean_of_vars: vars.mean(),
                median_of_vars: vars.median().unwrap_or(f64::NAN),
                cdf_mean: means.cdf(64),
                cdf_var: vars.cdf(64),
            }
        },
    )
    .expect_complete();
    let red = |x: f64, base: f64| 1.0 - x / base;
    let fifo_mean = sides[0].mean_of_vars;
    let fifo_median = sides[0].median_of_vars;
    Fig6 {
        var_mean_reduction: (
            red(sides[1].mean_of_vars, fifo_mean),
            red(sides[2].mean_of_vars, fifo_mean),
        ),
        var_median_reduction: (
            red(sides[1].median_of_vars, fifo_median),
            red(sides[2].median_of_vars, fifo_median),
        ),
        sides,
    }
}

impl Fig6 {
    /// Paper-style rendering.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Figure 6: barrier wait time at placement #1",
            &[
                "Policy",
                "mean wait (s)",
                "mean variance (s^2)",
                "median variance (s^2)",
            ],
        );
        for s in &self.sides {
            t.push_row(vec![
                s.label.clone(),
                format!("{:.3}", s.mean_of_means),
                format!("{:.5}", s.mean_of_vars),
                format!("{:.5}", s.median_of_vars),
            ]);
        }
        t
    }

    /// Summary vs the paper's headline numbers.
    pub fn summary(&self) -> String {
        format!(
            "wait-variance reduction vs FIFO — TLs-One: avg {} / median {} [paper: 26% / 40%]; \
             TLs-RR: avg {} / median {} [paper: 15% / 30%]",
            pct(-self.var_mean_reduction.0),
            pct(-self.var_median_reduction.0),
            pct(-self.var_mean_reduction.1),
            pct(-self.var_median_reduction.1),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tensorlights_reduces_wait_variance() {
        let cfg = ExperimentConfig::quick();
        let f = run(&cfg, &SweepOptions::default());
        assert_eq!(f.sides.len(), 3);
        assert_eq!(f.sides[0].label, "FIFO");
        assert!(
            f.var_mean_reduction.0 > 0.0,
            "TLs-One reduces average variance: {}",
            f.var_mean_reduction.0
        );
        assert!(
            f.var_median_reduction.0 > 0.0,
            "TLs-One reduces median variance: {}",
            f.var_median_reduction.0
        );
        assert!(
            f.var_mean_reduction.1 > 0.0,
            "TLs-RR reduces average variance: {}",
            f.var_mean_reduction.1
        );
        assert!(f.summary().contains("paper"));
        assert!(f.table().render().contains("TLs-RR"));
    }
}
