//! Compute stragglers: the failure mode TensorLights does *not* fix.
//!
//! TensorLights targets network-induced stragglers — "a worker may become a
//! straggler if its model update is delayed as a result of traffic
//! contention at the PS side". Stragglers caused by *slow compute* (an
//! overloaded or degraded host) hit the same barrier but no NIC priority
//! can help. This negative control halves one worker host's cores at the
//! uncontended placement #8 and confirms that (a) every job slows down (it
//! has a worker there), and (b) TLs-One buys back ~nothing — a useful
//! boundary on the paper's claims.

use crate::config::ExperimentConfig;
use crate::orchestrator::{run_sweep, SweepOptions};
use crate::report::Table;
use crate::runner::PolicyKind;
use serde::{Deserialize, Serialize};
use tl_cluster::{table1_placement, HostSpec, Table1Index};
use tl_dl::Simulation;
use tl_workloads::GridSearchConfig;

/// One (scenario, policy) cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SlowHostRow {
    /// "uniform" or "one slow host".
    pub scenario: String,
    /// Policy label.
    pub policy: String,
    /// Mean JCT (s).
    pub mean_jct: f64,
    /// Mean per-barrier wait variance.
    pub wait_variance: f64,
}

/// The comparison.
#[derive(Debug, Serialize)]
pub struct SlowHostStudy {
    /// All four cells.
    pub rows: Vec<SlowHostRow>,
}

/// Run placement #8 with and without a half-speed host, under FIFO and
/// TLs-One.
pub fn run(cfg: &ExperimentConfig, opts: &SweepOptions) -> SlowHostStudy {
    let mut tasks = Vec::new();
    for scenario in ["uniform", "one slow host"] {
        for p in [PolicyKind::Fifo, PolicyKind::TlsOne] {
            tasks.push((scenario, p));
        }
    }
    let cfg = cfg.clone();
    let rows = run_sweep(
        "ablate_slow_host",
        &serde_json::to_string(&cfg).expect("config serializes"),
        opts,
        tasks,
        |(scenario, policy)| format!("scenario={scenario},policy={}", policy.label()),
        move |(scenario, policy)| {
            let placement = table1_placement(Table1Index(8), 21, 21);
            let setups = GridSearchConfig::paper_scaled(cfg.iterations).build(&placement);
            let mut sim_cfg = cfg.sim_config();
            if scenario == "one slow host" {
                // Host 5 (a worker host for most jobs) loses half its cores.
                sim_cfg
                    .host_spec_overrides
                    .push((5, HostSpec::with_cores(sim_cfg.host_spec.cores / 2.0)));
            }
            let mut p = policy.build(&cfg);
            let out = Simulation::new(sim_cfg)
                .jobs(setups)
                .policy_ref(p.as_mut())
                .run();
            assert!(out.all_complete());
            let mut vars = simcore::SampleSet::new();
            for j in &out.jobs {
                vars.extend_from(&j.barrier_vars);
            }
            SlowHostRow {
                scenario: scenario.to_string(),
                policy: policy.label().to_string(),
                mean_jct: out.mean_jct_secs(),
                wait_variance: vars.mean(),
            }
        },
    )
    .expect_complete();
    SlowHostStudy { rows }
}

impl SlowHostStudy {
    /// Rendered table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Extension: compute stragglers (placement #8, negative control)",
            &["Scenario", "Policy", "mean JCT (s)", "wait variance"],
        );
        for r in &self.rows {
            t.push_row(vec![
                r.scenario.to_string(),
                r.policy.to_string(),
                format!("{:.1}", r.mean_jct),
                format!("{:.5}", r.wait_variance),
            ]);
        }
        t
    }

    /// Cell lookup.
    pub fn jct(&self, scenario: &str, policy: &str) -> f64 {
        self.rows
            .iter()
            .find(|r| r.scenario == scenario && r.policy == policy)
            .unwrap_or_else(|| panic!("missing cell {scenario}/{policy}"))
            .mean_jct
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nic_priorities_cannot_fix_compute_stragglers() {
        let cfg = ExperimentConfig::quick();
        let s = run(&cfg, &SweepOptions::default());
        // The slow host drags every job (each has a worker there).
        assert!(
            s.jct("one slow host", "FIFO") > s.jct("uniform", "FIFO") * 1.3,
            "slow host hurts: {} vs {}",
            s.jct("one slow host", "FIFO"),
            s.jct("uniform", "FIFO")
        );
        // And TLs-One buys back essentially nothing there.
        let ratio = s.jct("one slow host", "TLs-One") / s.jct("one slow host", "FIFO");
        assert!(
            (ratio - 1.0).abs() < 0.03,
            "TLs cannot fix compute stragglers: {ratio}"
        );
        // The slow host also raises barrier-wait variance (stragglers).
        let uniform_var = s.rows[0].wait_variance;
        let slow_var = s.rows[2].wait_variance;
        assert!(slow_var > uniform_var, "{slow_var} vs {uniform_var}");
        assert!(s.table().render().contains("negative control"));
    }
}
