//! Job churn: open-loop arrivals and departures.
//!
//! The paper's grid-search evaluation launches all jobs at once, but its
//! design explicitly supports churn: "it suffices to reconfigure priority
//! assignment upon job arrival and departure" (TLs-One). This extension
//! launches the 21 jobs as a Poisson process, so the active job set (and
//! with it every host's band assignment) changes throughout the run, and
//! verifies TensorLights still helps and never hurts.

use crate::config::ExperimentConfig;
use crate::orchestrator::{run_sweep, SweepOptions};
use crate::report::Table;
use crate::runner::PolicyKind;
use serde::{Deserialize, Serialize};
use simcore::{RngFactory, SimDuration};
use tl_cluster::{table1_placement, Table1Index};
use tl_dl::Simulation;
use tl_workloads::{poisson_arrivals, with_arrivals, GridSearchConfig};

/// One policy's outcome under churn.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChurnRow {
    /// Policy label.
    pub policy: String,
    /// Mean JCT (s).
    pub mean_jct: f64,
    /// Max JCT (s) — the job that suffered the most contention epochs.
    pub max_jct: f64,
}

/// The extension result.
#[derive(Debug, Serialize)]
pub struct ChurnStudy {
    /// Mean inter-arrival gap used (seconds).
    pub mean_gap_secs: f64,
    /// One row per policy.
    pub rows: Vec<ChurnRow>,
}

/// Run the churn scenario at placement #1 under all three policies.
///
/// `mean_gap_secs` controls overlap: a gap well below the per-job runtime
/// keeps many jobs concurrent; a huge gap degenerates to sequential jobs.
pub fn run(cfg: &ExperimentConfig, mean_gap_secs: f64, opts: &SweepOptions) -> ChurnStudy {
    let mut rng = RngFactory::new(cfg.seed).stream("churn.arrivals");
    let arrivals = poisson_arrivals(&mut rng, 21, SimDuration::from_secs_f64(mean_gap_secs));
    let cfg = cfg.clone();
    let rows = run_sweep(
        "ablate_churn",
        &format!(
            "cfg={};mean_gap_secs={mean_gap_secs}",
            serde_json::to_string(&cfg).expect("config serializes")
        ),
        opts,
        PolicyKind::all().to_vec(),
        |policy| format!("policy={}", policy.label()),
        move |policy| {
            let placement = table1_placement(Table1Index(1), 21, 21);
            let wl = GridSearchConfig::paper_scaled(cfg.iterations);
            let setups = with_arrivals(wl.build(&placement), &arrivals);
            let mut p = policy.build(&cfg);
            let out = Simulation::new(cfg.sim_config())
                .jobs(setups)
                .policy_ref(p.as_mut())
                .run();
            assert!(out.all_complete());
            let jcts: Vec<f64> = out.jobs.iter().map(|j| j.jct_secs().unwrap()).collect();
            ChurnRow {
                policy: policy.label().to_string(),
                mean_jct: out.mean_jct_secs(),
                max_jct: jcts.iter().fold(0.0f64, |a, &b| a.max(b)),
            }
        },
    )
    .expect_complete();
    ChurnStudy {
        mean_gap_secs,
        rows,
    }
}

impl ChurnStudy {
    /// Rendered table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "Extension: Poisson job churn (mean gap {:.1}s, placement #1)",
                self.mean_gap_secs
            ),
            &["Policy", "mean JCT (s)", "max JCT (s)"],
        );
        for r in &self.rows {
            t.push_row(vec![
                r.policy.to_string(),
                format!("{:.1}", r.mean_jct),
                format!("{:.1}", r.max_jct),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tls_survives_and_helps_under_churn() {
        let mut cfg = ExperimentConfig::quick();
        cfg.iterations = 40;
        // Gaps around a tenth of the per-job runtime: heavy overlap with
        // constant arrival-driven reconfiguration.
        let s = run(&cfg, 3.0, &SweepOptions::default());
        assert_eq!(s.rows.len(), 3);
        let jct = |label: &str| {
            s.rows
                .iter()
                .find(|r| r.policy == label)
                .unwrap_or_else(|| panic!("missing {label}"))
                .mean_jct
        };
        assert!(
            jct("TLs-One") < jct("FIFO"),
            "TLs-One {} vs FIFO {}",
            jct("TLs-One"),
            jct("FIFO")
        );
        assert!(jct("TLs-RR") <= jct("FIFO") * 1.02);
        assert!(s.table().render().contains("Poisson"));
    }
}
