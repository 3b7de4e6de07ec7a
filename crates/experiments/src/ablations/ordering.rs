//! Priority-ordering ablation on heterogeneous model mixes.
//!
//! The paper: "in other cases with concurrent DL jobs of various sizes of
//! model update, a higher priority can be assigned to a job with a smaller
//! model update, so as to avoid head-of-line blocking from a job with
//! larger model update." We mix ResNet-32-sized jobs with AlexNet-sized
//! jobs (two orders of magnitude more bytes per update) on one PS host and
//! compare orderings.

use crate::config::ExperimentConfig;
use crate::orchestrator::{run_sweep, SweepOptions};
use crate::report::Table;
use serde::{Deserialize, Serialize};
use tensorlights::{JobOrdering, TlsOne};
use tl_cluster::{table1_placement, Table1Index};
use tl_dl::{ModelSpec, Simulation};
use tl_workloads::{heterogeneous_mix, GridSearchConfig};

/// One ordering's outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OrderingRow {
    /// Ordering label.
    pub label: String,
    /// Mean JCT over all jobs (s).
    pub mean_jct: f64,
    /// Mean JCT of the small-model jobs (s) — the head-of-line victims.
    pub small_jobs_jct: f64,
    /// Mean JCT of the large-model jobs (s).
    pub large_jobs_jct: f64,
}

/// The ablation result.
#[derive(Debug, Serialize)]
pub struct OrderingAblation {
    /// One row per ordering.
    pub rows: Vec<OrderingRow>,
}

/// Run the heterogeneous mix under each ordering.
pub fn run(cfg: &ExperimentConfig, opts: &SweepOptions) -> OrderingAblation {
    let orderings: Vec<(String, JobOrdering)> = vec![
        ("random".into(), JobOrdering::Random { seed: cfg.seed }),
        ("by-arrival".into(), JobOrdering::ByArrival),
        (
            "smallest-update-first".into(),
            JobOrdering::SmallestUpdateFirst,
        ),
    ];
    let models = [ModelSpec::resnet32(), ModelSpec::alexnet()];
    let cfg = cfg.clone();
    let rows = run_sweep(
        "ablate_ordering",
        &serde_json::to_string(&cfg).expect("config serializes"),
        opts,
        orderings,
        |(label, _)| format!("ordering={label}"),
        move |(label, ordering)| {
            let placement = table1_placement(Table1Index(1), 21, 21);
            let wl = GridSearchConfig::paper_scaled(cfg.iterations);
            let setups = heterogeneous_mix(&wl, &models, &placement);
            let small: Vec<usize> = (0..21).filter(|i| i % 2 == 0).collect();
            let large: Vec<usize> = (0..21).filter(|i| i % 2 == 1).collect();
            let mut policy = TlsOne::new(ordering).with_bands(cfg.num_bands);
            let out = Simulation::new(cfg.sim_config())
                .jobs(setups)
                .policy_ref(&mut policy)
                .run();
            assert!(out.all_complete());
            let jct = |idx: &[usize]| {
                idx.iter()
                    .map(|&i| out.jobs[i].jct_secs().unwrap())
                    .sum::<f64>()
                    / idx.len() as f64
            };
            OrderingRow {
                label,
                mean_jct: out.mean_jct_secs(),
                small_jobs_jct: jct(&small),
                large_jobs_jct: jct(&large),
            }
        },
    )
    .expect_complete();
    OrderingAblation { rows }
}

impl OrderingAblation {
    /// Rendered table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Ablation: priority ordering on a ResNet-32 + AlexNet mix (TLs-One, placement #1)",
            &[
                "Ordering",
                "mean JCT (s)",
                "small jobs (s)",
                "large jobs (s)",
            ],
        );
        for r in &self.rows {
            t.push_row(vec![
                r.label.clone(),
                format!("{:.1}", r.mean_jct),
                format!("{:.1}", r.small_jobs_jct),
                format!("{:.1}", r.large_jobs_jct),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smallest_first_protects_small_jobs() {
        let mut cfg = ExperimentConfig::quick();
        cfg.iterations = 20;
        let a = run(&cfg, &SweepOptions::default());
        let by = |label: &str| {
            a.rows
                .iter()
                .find(|r| r.label == label)
                .unwrap_or_else(|| panic!("missing {label}"))
        };
        let sf = by("smallest-update-first");
        let rand = by("random");
        assert!(
            sf.small_jobs_jct < rand.small_jobs_jct,
            "small jobs gain from going first: {:.1}s vs {:.1}s",
            sf.small_jobs_jct,
            rand.small_jobs_jct
        );
        assert!(a.table().render().contains("smallest-update-first"));
    }
}
