//! Progress fairness over time: why TLs-RR exists.
//!
//! The paper: "fairness is desirable in grid search, because when all
//! search instances have made similar progress, a DL engineer may compare
//! the accuracy performance of concurrent grid-search instances." Under
//! TLs-One, high-priority jobs pull ahead for the whole run; under TLs-RR
//! the rotation keeps the *progress spread* — the gap in global steps
//! between the fastest and slowest job — bounded.
//!
//! This experiment samples every job's global step over time and reports
//! the normalized progress spread (max − min, as a fraction of the target)
//! for TLs-One vs TLs-RR at placement #1.

use crate::config::ExperimentConfig;
use crate::orchestrator::{run_sweep, SweepOptions};
use crate::report::Table;
use crate::runner::PolicyKind;
use serde::{Deserialize, Serialize};
use simcore::SimDuration;
use tl_cluster::{table1_placement, Table1Index};
use tl_dl::Simulation;
use tl_telemetry::TelemetryConfig;
use tl_workloads::GridSearchConfig;

/// One policy's progress-spread trajectory.
#[derive(Debug, Serialize, Deserialize)]
pub struct FairnessSide {
    /// Policy label.
    pub label: String,
    /// `(seconds, spread as fraction of the step target)` over time.
    pub spread_series: Vec<(f64, f64)>,
    /// The worst spread seen at any sample.
    pub max_spread: f64,
    /// Mean JCT (s) — the efficiency side of the trade.
    pub mean_jct: f64,
}

/// The comparison.
#[derive(Debug, Serialize)]
pub struct FairnessStudy {
    /// TLs-One and TLs-RR sides.
    pub sides: Vec<FairnessSide>,
}

/// Sample progress under both TLs variants at placement #1.
pub fn run(cfg: &ExperimentConfig, sample_secs: f64, opts: &SweepOptions) -> FairnessStudy {
    let cfg = cfg.clone();
    let sides = run_sweep(
        "ablate_fairness",
        &format!(
            "cfg={};sample_secs={sample_secs}",
            serde_json::to_string(&cfg).expect("config serializes")
        ),
        opts,
        vec![PolicyKind::TlsOne, PolicyKind::TlsRr],
        |policy| format!("policy={}", policy.label()),
        move |policy| {
            let placement = table1_placement(Table1Index(1), 21, 21);
            let wl = GridSearchConfig::paper_scaled(cfg.iterations);
            let target = wl.target_global_steps as f64;
            let setups = wl.build(&placement);
            let mut sim_cfg = cfg.sim_config();
            sim_cfg.telemetry = TelemetryConfig::metrics(SimDuration::from_secs_f64(sample_secs));
            let mut p = policy.build(&cfg);
            let out = Simulation::new(sim_cfg)
                .jobs(setups)
                .policy_ref(p.as_mut())
                .run();
            assert!(out.all_complete());
            // Every job's `steps` gauge shares the sampling ticks. The
            // first tick has no interval behind it, so the spread series
            // starts at the second, in step with the utilization gauges.
            let reg = &out.telemetry.metrics;
            let steps: Vec<_> = (0..wl.num_jobs)
                .filter_map(|j| reg.lookup(&format!("job{j}.steps")))
                .map(|id| reg.series(id))
                .collect();
            let ticks = steps.first().map_or(0, |s| s.len());
            let spread_series: Vec<(f64, f64)> = (1..ticks)
                .map(|k| {
                    let at_k = steps.iter().map(|s| s[k].1);
                    let max = at_k.clone().fold(f64::MIN, f64::max);
                    let min = at_k.fold(f64::MAX, f64::min);
                    (steps[0][k].0.as_secs_f64(), (max - min) / target)
                })
                .collect();
            FairnessSide {
                label: policy.label().to_string(),
                max_spread: spread_series.iter().map(|&(_, s)| s).fold(0.0f64, f64::max),
                mean_jct: out.mean_jct_secs(),
                spread_series,
            }
        },
    )
    .expect_complete();
    FairnessStudy { sides }
}

impl FairnessStudy {
    /// Rendered table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Extension: progress fairness over time (placement #1)",
            &["Policy", "max progress spread", "mean JCT (s)"],
        );
        for s in &self.sides {
            t.push_row(vec![
                s.label.to_string(),
                format!("{:.1}% of target", s.max_spread * 100.0),
                format!("{:.1}", s.mean_jct),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_bounds_progress_spread() {
        let mut cfg = ExperimentConfig::quick();
        cfg.iterations = 60;
        // Rotate briskly so the short run sees many rotations.
        cfg.rr_interval = simcore::SimDuration::from_secs_f64(0.5);
        let s = run(&cfg, 1.0, &SweepOptions::default());
        let one = &s.sides[0];
        let rr = &s.sides[1];
        assert!(!one.spread_series.is_empty());
        assert!(
            rr.max_spread < one.max_spread,
            "TLs-RR spread {:.3} should stay below TLs-One {:.3}",
            rr.max_spread,
            one.max_spread
        );
        assert!(s.table().render().contains("progress spread"));
    }

    #[test]
    fn spread_series_starts_one_interval_in() {
        // The first sampling tick has no interval behind it; the spread
        // series starts at the second and keeps the sampling cadence.
        let mut cfg = ExperimentConfig::quick();
        cfg.iterations = 10;
        let s = run(&cfg, 0.5, &SweepOptions::default());
        for side in &s.sides {
            let times: Vec<f64> = side.spread_series.iter().map(|&(t, _)| t).collect();
            assert!(times.len() >= 2, "{}: {} samples", side.label, times.len());
            assert_eq!(times[0], 1.0, "{}", side.label);
            assert!(times.windows(2).all(|w| (w[1] - w[0] - 0.5).abs() < 1e-9));
            assert!(side.spread_series.iter().all(|&(_, x)| (0.0..=1.0).contains(&x)));
        }
    }
}
