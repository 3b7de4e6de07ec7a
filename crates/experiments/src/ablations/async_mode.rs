//! Synchronous vs asynchronous training under contention.
//!
//! The paper focuses on synchronous training because "any one straggling
//! worker will delay the whole iteration". Asynchronous training has no
//! barrier, so stragglers do not amplify — this ablation verifies that the
//! simulator reproduces that structural difference: TensorLights' advantage
//! should be concentrated in the synchronous mode.

use crate::config::ExperimentConfig;
use crate::orchestrator::{run_sweep, SweepOptions};
use crate::report::Table;
use crate::runner::PolicyKind;
use serde::{Deserialize, Serialize};
use tl_cluster::{table1_placement, Table1Index};
use tl_dl::{Simulation, TrainingMode};
use tl_workloads::GridSearchConfig;

/// One (mode, policy) cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AsyncRow {
    /// "sync" or "async".
    pub mode: String,
    /// Policy label.
    pub policy: String,
    /// Mean JCT (s).
    pub mean_jct: f64,
}

/// The ablation result.
#[derive(Debug, Serialize)]
pub struct AsyncAblation {
    /// All four cells.
    pub rows: Vec<AsyncRow>,
    /// TLs-One improvement over FIFO in sync mode.
    pub sync_improvement: f64,
    /// TLs-One improvement over FIFO in async mode.
    pub async_improvement: f64,
}

/// Run the 2×2 (mode × policy) grid at placement #1.
pub fn run(cfg: &ExperimentConfig, opts: &SweepOptions) -> AsyncAblation {
    let cells = vec![
        (TrainingMode::Synchronous, PolicyKind::Fifo),
        (TrainingMode::Synchronous, PolicyKind::TlsOne),
        (TrainingMode::Asynchronous, PolicyKind::Fifo),
        (TrainingMode::Asynchronous, PolicyKind::TlsOne),
    ];
    let cfg = cfg.clone();
    let rows = run_sweep(
        "ablate_async",
        &serde_json::to_string(&cfg).expect("config serializes"),
        opts,
        cells,
        |(mode, policy)| format!("mode={mode:?},policy={}", policy.label()),
        move |(mode, policy)| {
            let placement = table1_placement(Table1Index(1), 21, 21);
            let mut wl = GridSearchConfig::paper_scaled(cfg.iterations);
            wl.mode = mode;
            let mut p = policy.build(&cfg);
            let out = Simulation::new(cfg.sim_config())
                .jobs(wl.build(&placement))
                .policy_ref(p.as_mut())
                .run();
            assert!(out.all_complete());
            AsyncRow {
                mode: match mode {
                    TrainingMode::Synchronous => "sync".to_string(),
                    TrainingMode::Asynchronous => "async".to_string(),
                },
                policy: policy.label().to_string(),
                mean_jct: out.mean_jct_secs(),
            }
        },
    )
    .expect_complete();
    AsyncAblation {
        sync_improvement: 1.0 - rows[1].mean_jct / rows[0].mean_jct,
        async_improvement: 1.0 - rows[3].mean_jct / rows[2].mean_jct,
        rows,
    }
}

impl AsyncAblation {
    /// Rendered table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Ablation: training mode × policy (placement #1)",
            &["Mode", "Policy", "mean JCT (s)"],
        );
        for r in &self.rows {
            t.push_row(vec![
                r.mode.to_string(),
                r.policy.to_string(),
                format!("{:.1}", r.mean_jct),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn barrier_amplifies_tls_benefit() {
        let cfg = ExperimentConfig::quick();
        let a = run(&cfg, &SweepOptions::default());
        assert_eq!(a.rows.len(), 4);
        assert!(a.sync_improvement > 0.05, "sync: {}", a.sync_improvement);
        assert!(
            a.sync_improvement > a.async_improvement,
            "sync gain {:.3} should exceed async gain {:.3}",
            a.sync_improvement,
            a.async_improvement
        );
        assert!(a.table().render().contains("async"));
    }
}
