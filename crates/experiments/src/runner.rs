//! Shared experiment plumbing: policies by name and grid-search runs.
//! Every grid of runs fans out through
//! [`run_sweep`](crate::orchestrator::run_sweep).

use crate::config::ExperimentConfig;
use serde::{Deserialize, Serialize};
use simcore::SimTime;
use tensorlights::{FifoPolicy, JobOrdering, PriorityPolicy, TlsOne, TlsRr};
use tl_cluster::{table1_placement, Placement, Table1Index};
use tl_dl::{SimOutput, Simulation};
use tl_telemetry::TelemetryConfig;
use tl_workloads::GridSearchConfig;

/// The three network scheduling policies the paper evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PolicyKind {
    /// Default FIFO (no tc configuration) — the baseline.
    Fifo,
    /// TLs-One: static distinct priorities.
    TlsOne,
    /// TLs-RR: priorities rotated every interval T.
    TlsRr,
}

impl PolicyKind {
    /// All policies, baseline first.
    pub fn all() -> [PolicyKind; 3] {
        [PolicyKind::Fifo, PolicyKind::TlsOne, PolicyKind::TlsRr]
    }

    /// Display name matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            PolicyKind::Fifo => "FIFO",
            PolicyKind::TlsOne => "TLs-One",
            PolicyKind::TlsRr => "TLs-RR",
        }
    }

    /// Instantiate the policy. Grid-search jobs are homogeneous, so the
    /// paper's random priority assignment is used for TLs (seeded for
    /// determinism).
    pub fn build(&self, cfg: &ExperimentConfig) -> Box<dyn PriorityPolicy + Send> {
        let ordering = JobOrdering::Random { seed: cfg.seed };
        match self {
            PolicyKind::Fifo => Box::new(FifoPolicy),
            PolicyKind::TlsOne => Box::new(TlsOne::new(ordering).with_bands(cfg.num_bands)),
            PolicyKind::TlsRr => Box::new(
                TlsRr::new(ordering)
                    .with_bands(cfg.num_bands)
                    .with_interval(cfg.rr_interval),
            ),
        }
    }
}

/// One grid-search run: the paper's 21-job workload (scaled to
/// `cfg.iterations`) on the given placement under the given policy.
pub fn run_grid_search(
    cfg: &ExperimentConfig,
    placement: &Placement,
    policy: PolicyKind,
    batch_size: u32,
    window: Option<(SimTime, SimTime)>,
) -> SimOutput {
    run_grid_search_telemetry(
        cfg,
        placement,
        policy,
        batch_size,
        window,
        TelemetryConfig::disabled(),
    )
}

/// [`run_grid_search`] with an explicit telemetry configuration; the
/// structured events/metrics land in [`SimOutput::telemetry`].
pub fn run_grid_search_telemetry(
    cfg: &ExperimentConfig,
    placement: &Placement,
    policy: PolicyKind,
    batch_size: u32,
    window: Option<(SimTime, SimTime)>,
    telemetry: TelemetryConfig,
) -> SimOutput {
    let mut wl = GridSearchConfig::paper_scaled(cfg.iterations);
    wl.local_batch_size = batch_size;
    let setups = wl.build(placement);
    let mut sim_cfg = cfg.sim_config();
    sim_cfg.active_window = window;
    let mut policy = policy.build(cfg);
    Simulation::new(sim_cfg)
        .jobs(setups)
        .policy_ref(policy.as_mut())
        .telemetry(telemetry)
        .run()
}

/// Grid search on a Table I placement with the paper's batch size 4.
pub fn run_table1(cfg: &ExperimentConfig, index: Table1Index, policy: PolicyKind) -> SimOutput {
    let placement = table1_placement(index, 21, 21);
    run_grid_search(cfg, &placement, policy, 4, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_labels() {
        assert_eq!(PolicyKind::Fifo.label(), "FIFO");
        assert_eq!(PolicyKind::TlsOne.label(), "TLs-One");
        assert_eq!(PolicyKind::TlsRr.label(), "TLs-RR");
    }

    #[test]
    fn policies_have_expected_names() {
        let cfg = ExperimentConfig::quick();
        assert_eq!(PolicyKind::Fifo.build(&cfg).name(), "fifo");
        assert_eq!(PolicyKind::TlsOne.build(&cfg).name(), "tls-one");
        assert_eq!(PolicyKind::TlsRr.build(&cfg).name(), "tls-rr");
    }

    #[test]
    fn quick_grid_search_completes() {
        let cfg = ExperimentConfig::quick();
        let out = run_table1(&cfg, Table1Index(8), PolicyKind::Fifo);
        assert!(out.all_complete());
        assert_eq!(out.jobs.len(), 21);
        for j in &out.jobs {
            assert_eq!(j.iterations, cfg.iterations);
        }
    }
}
