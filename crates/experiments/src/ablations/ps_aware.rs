//! PS-aware placement vs end-host scheduling.
//!
//! The paper's §VII: "an effective approach to mitigate contention due to
//! model updates is to better schedule the placement of PS tasks before
//! starting a DL job" — at the cost of modifying the cluster scheduler.
//! This experiment quantifies the trade: a PS-aware spread placement under
//! plain FIFO, versus TensorLights rescuing the scheduler-agnostic
//! worst-case placement.

use crate::config::ExperimentConfig;
use crate::orchestrator::{run_sweep, SweepOptions};
use crate::report::Table;
use crate::runner::{run_grid_search, PolicyKind};
use serde::{Deserialize, Serialize};
use simcore::RngFactory;
use tl_cluster::{make_placement, table1_placement, Placement, PlacementStrategy, Table1Index};

/// One scenario's outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PsAwareRow {
    /// Scenario label.
    pub label: String,
    /// Mean JCT (s).
    pub mean_jct: f64,
}

/// The comparison result.
#[derive(Debug, Serialize)]
pub struct PsAwareStudy {
    /// All scenarios.
    pub rows: Vec<PsAwareRow>,
}

/// Run the comparison.
pub fn run(cfg: &ExperimentConfig, opts: &SweepOptions) -> PsAwareStudy {
    let mut rng = RngFactory::new(cfg.seed).stream("ps_aware.random_placement");
    let scenarios: Vec<(String, Placement, PolicyKind)> = vec![
        (
            "colocated (#1) + FIFO".into(),
            table1_placement(Table1Index(1), 21, 21),
            PolicyKind::Fifo,
        ),
        (
            "colocated (#1) + TLs-One".into(),
            table1_placement(Table1Index(1), 21, 21),
            PolicyKind::TlsOne,
        ),
        (
            "random scheduler + FIFO".into(),
            make_placement(PlacementStrategy::Random, 21, 21, 20, &mut rng),
            PolicyKind::Fifo,
        ),
        (
            "random scheduler + TLs-One".into(),
            make_placement(PlacementStrategy::Random, 21, 21, 20, &mut rng),
            PolicyKind::TlsOne,
        ),
        (
            "PS-aware spread + FIFO".into(),
            make_placement(PlacementStrategy::Spread, 21, 21, 20, &mut rng),
            PolicyKind::Fifo,
        ),
    ];
    let cfg = cfg.clone();
    let rows = run_sweep(
        "ablate_ps_aware",
        &serde_json::to_string(&cfg).expect("config serializes"),
        opts,
        scenarios,
        |(label, _, _)| label.clone(),
        move |(label, placement, policy)| {
            let out = run_grid_search(&cfg, &placement, policy, 4, None);
            assert!(out.all_complete(), "{label}");
            PsAwareRow {
                label,
                mean_jct: out.mean_jct_secs(),
            }
        },
    )
    .expect_complete();
    PsAwareStudy { rows }
}

impl PsAwareStudy {
    /// Rendered table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Extension: PS-aware scheduling (§VII) vs TensorLights",
            &["Scenario", "mean JCT (s)"],
        );
        for r in &self.rows {
            t.push_row(vec![r.label.clone(), format!("{:.1}", r.mean_jct)]);
        }
        t
    }

    /// Mean JCT of a scenario by label.
    pub fn jct(&self, label: &str) -> f64 {
        self.rows
            .iter()
            .find(|r| r.label == label)
            .unwrap_or_else(|| panic!("missing scenario {label}"))
            .mean_jct
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_is_best_but_tls_recovers_most() {
        let cfg = ExperimentConfig::quick();
        let s = run(&cfg, &SweepOptions::default());
        let worst = s.jct("colocated (#1) + FIFO");
        let rescued = s.jct("colocated (#1) + TLs-One");
        let spread = s.jct("PS-aware spread + FIFO");
        assert!(spread < worst, "PS-aware placement avoids the problem");
        assert!(rescued < worst, "TLs rescues the bad placement");
        // TLs recovers at least half of the placement gap without touching
        // the scheduler.
        let recovered = (worst - rescued) / (worst - spread);
        assert!(recovered > 0.5, "recovered only {recovered:.2}");
        // TLs also helps (or at least never hurts) random placements.
        assert!(s.jct("random scheduler + TLs-One") <= s.jct("random scheduler + FIFO") * 1.02);
    }
}
