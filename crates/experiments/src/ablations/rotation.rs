//! TLs-RR rotation-interval ablation: fairness vs efficiency.
//!
//! The paper argues "an interval T in the scale of seconds to minutes is
//! sufficient". Rotating very fast approaches per-iteration fair sharing
//! (less straggler mitigation per interval but very even progress);
//! rotating very slowly approaches TLs-One (strict priority, uneven
//! progress). The fairness metric is the spread of job completion times.

use crate::config::ExperimentConfig;
use crate::orchestrator::{run_sweep, SweepOptions};
use crate::report::Table;
use serde::{Deserialize, Serialize};
use simcore::SimDuration;
use tensorlights::{JobOrdering, TlsRr};
use tl_cluster::{table1_placement, Table1Index};
use tl_dl::Simulation;
use tl_workloads::GridSearchConfig;

/// One rotation-interval data point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RotationRow {
    /// Rotation interval in seconds.
    pub interval_secs: f64,
    /// Mean JCT (seconds) — efficiency.
    pub mean_jct: f64,
    /// Max − min JCT across jobs (seconds) — unfairness.
    pub jct_spread: f64,
}

/// The ablation result.
#[derive(Debug, Serialize)]
pub struct RotationAblation {
    /// One row per interval, ascending.
    pub rows: Vec<RotationRow>,
}

/// Run TLs-RR at placement #1 with each interval.
pub fn run(
    cfg: &ExperimentConfig,
    intervals_secs: &[f64],
    opts: &SweepOptions,
) -> RotationAblation {
    let cfg = cfg.clone();
    let rows = run_sweep(
        "ablate_rotation",
        &serde_json::to_string(&cfg).expect("config serializes"),
        opts,
        intervals_secs.to_vec(),
        |t| format!("interval_secs={t}"),
        move |t| {
            let placement = table1_placement(Table1Index(1), 21, 21);
            let setups = GridSearchConfig::paper_scaled(cfg.iterations).build(&placement);
            let mut policy = TlsRr::new(JobOrdering::Random { seed: cfg.seed })
                .with_bands(cfg.num_bands)
                .with_interval(SimDuration::from_secs_f64(t));
            let out = Simulation::new(cfg.sim_config())
                .jobs(setups)
                .policy_ref(&mut policy)
                .run();
            assert!(out.all_complete());
            let jcts: Vec<f64> = out.jobs.iter().map(|j| j.jct_secs().unwrap()).collect();
            let min = jcts.iter().fold(f64::INFINITY, |a, &b| a.min(b));
            let max = jcts.iter().fold(0.0f64, |a, &b| a.max(b));
            RotationRow {
                interval_secs: t,
                mean_jct: out.mean_jct_secs(),
                jct_spread: max - min,
            }
        },
    )
    .expect_complete();
    RotationAblation { rows }
}

impl RotationAblation {
    /// Rendered table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Ablation: TLs-RR rotation interval (placement #1)",
            &["T (s)", "mean JCT (s)", "JCT spread (s)"],
        );
        for r in &self.rows {
            t.push_row(vec![
                format!("{:.1}", r.interval_secs),
                format!("{:.1}", r.mean_jct),
                format!("{:.1}", r.jct_spread),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_rotation_is_fairer() {
        let mut cfg = ExperimentConfig::quick();
        cfg.iterations = 40;
        let a = run(&cfg, &[0.5, 1e6], &SweepOptions::default()); // very fast vs effectively never
        assert_eq!(a.rows.len(), 2);
        assert!(
            a.rows[0].jct_spread < a.rows[1].jct_spread,
            "fast rotation spread {:.2}s should beat none {:.2}s",
            a.rows[0].jct_spread,
            a.rows[1].jct_spread
        );
        assert!(a.table().render().contains("T (s)"));
    }
}
