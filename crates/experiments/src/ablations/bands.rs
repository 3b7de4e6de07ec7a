//! Band-count ablation.
//!
//! The paper: "tc only supports a limited number of priority bands. In our
//! experiments, we only use up to six distinct priority bands, and multiple
//! jobs may share the same priority band." How much does the band budget
//! matter for 21 contending jobs? One band collapses to FIFO; more bands
//! separate more jobs.

use crate::config::ExperimentConfig;
use crate::orchestrator::{run_sweep, SweepOptions};
use crate::report::Table;
use serde::{Deserialize, Serialize};
use simcore::SampleSet;
use tensorlights::{JobOrdering, TlsOne};
use tl_cluster::{table1_placement, Table1Index};
use tl_dl::Simulation;
use tl_workloads::GridSearchConfig;

/// One band-count data point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BandsRow {
    /// Number of priority bands available.
    pub num_bands: u8,
    /// Mean JCT (seconds).
    pub mean_jct: f64,
    /// Average per-barrier wait variance (straggler indicator).
    pub wait_variance: f64,
}

/// The ablation result.
#[derive(Debug, Serialize)]
pub struct BandsAblation {
    /// One row per band count, ascending.
    pub rows: Vec<BandsRow>,
}

/// Run TLs-One at placement #1 with each band budget.
pub fn run(cfg: &ExperimentConfig, band_counts: &[u8], opts: &SweepOptions) -> BandsAblation {
    let cfg = cfg.clone();
    let rows = run_sweep(
        "ablate_bands",
        &serde_json::to_string(&cfg).expect("config serializes"),
        opts,
        band_counts.to_vec(),
        |bands| format!("bands={bands}"),
        move |bands| {
            let placement = table1_placement(Table1Index(1), 21, 21);
            let setups = GridSearchConfig::paper_scaled(cfg.iterations).build(&placement);
            let mut policy = TlsOne::new(JobOrdering::Random { seed: cfg.seed }).with_bands(bands);
            let out = Simulation::new(cfg.sim_config())
                .jobs(setups)
                .policy_ref(&mut policy)
                .run();
            assert!(out.all_complete());
            let mut vars = SampleSet::new();
            for j in &out.jobs {
                vars.extend_from(&j.barrier_vars);
            }
            BandsRow {
                num_bands: bands,
                mean_jct: out.mean_jct_secs(),
                wait_variance: vars.mean(),
            }
        },
    )
    .expect_complete();
    BandsAblation { rows }
}

impl BandsAblation {
    /// Rendered table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Ablation: tc band budget (TLs-One, placement #1)",
            &["Bands", "mean JCT (s)", "wait variance (s^2)"],
        );
        for r in &self.rows {
            t.push_row(vec![
                r.num_bands.to_string(),
                format!("{:.1}", r.mean_jct),
                format!("{:.5}", r.wait_variance),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_band_is_fifo_and_more_bands_help() {
        let cfg = ExperimentConfig::quick();
        let a = run(&cfg, &[1, 6], &SweepOptions::default());
        assert_eq!(a.rows.len(), 2);
        assert!(
            a.rows[1].mean_jct < a.rows[0].mean_jct * 0.85,
            "6 bands ({:.1}s) should clearly beat 1 band ({:.1}s)",
            a.rows[1].mean_jct,
            a.rows[0].mean_jct
        );
        assert!(a.table().render().contains("Bands"));
    }
}
