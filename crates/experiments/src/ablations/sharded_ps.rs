//! Sharded parameter servers — the paper's "more general case".
//!
//! §III: "In a more general case where one DL job has multiple PSes, each
//! PS communicates with remote workers in a similar way." Sharding splits
//! every job's update bytes across several hosts, which both multiplies the
//! available PS egress and *spreads* the colocation: with two shards per
//! job on hosts {0, 1}, each host carries half the burst of placement #1.
//! TensorLights applies unchanged (each contended host runs its own tc).

use crate::config::ExperimentConfig;
use crate::orchestrator::{run_sweep, SweepOptions};
use crate::report::Table;
use crate::runner::PolicyKind;
use serde::{Deserialize, Serialize};
use tl_cluster::{table1_placement, Table1Index};
use tl_dl::Simulation;
use tl_net::HostId;
use tl_workloads::GridSearchConfig;

/// One (shards, policy) cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardedRow {
    /// PS shards per job.
    pub shards: u32,
    /// Policy label.
    pub policy: String,
    /// Mean JCT (s).
    pub mean_jct: f64,
}

/// The study result.
#[derive(Debug, Serialize)]
pub struct ShardedStudy {
    /// All cells, shards-major.
    pub rows: Vec<ShardedRow>,
}

/// Run the 21-job grid search with every job's PS split into `1..=max`
/// shards, colocated on hosts `0..shards` (the generalization of
/// placement #1), under FIFO and TLs-One.
pub fn run(cfg: &ExperimentConfig, shard_counts: &[u32], opts: &SweepOptions) -> ShardedStudy {
    let mut tasks = Vec::new();
    for &sc in shard_counts {
        for p in [PolicyKind::Fifo, PolicyKind::TlsOne] {
            tasks.push((sc, p));
        }
    }
    let cfg = cfg.clone();
    let rows = run_sweep(
        "ablate_sharded_ps",
        &serde_json::to_string(&cfg).expect("config serializes"),
        opts,
        tasks,
        |(shards, policy)| format!("shards={shards},policy={}", policy.label()),
        move |(shards, policy)| {
            assert!(shards >= 1, "need at least one shard");
            let placement = table1_placement(Table1Index(1), 21, 21);
            let mut setups = GridSearchConfig::paper_scaled(cfg.iterations).build(&placement);
            for s in &mut setups {
                // Shard k of every job lives on host k; all hosts 0..shards are
                // worker-free in placement #1's shape only for host 0, so keep
                // worker overlap as-is — shards and workers may share hosts,
                // as in real clusters.
                let extra: Vec<HostId> = (1..shards).map(HostId).collect();
                s.placement = s.placement.clone().with_extra_ps(extra);
            }
            let mut p = policy.build(&cfg);
            let out = Simulation::new(cfg.sim_config())
                .jobs(setups)
                .policy_ref(p.as_mut())
                .run();
            assert!(out.all_complete());
            ShardedRow {
                shards,
                policy: policy.label().to_string(),
                mean_jct: out.mean_jct_secs(),
            }
        },
    )
    .expect_complete();
    ShardedStudy { rows }
}

impl ShardedStudy {
    /// Rendered table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Extension: sharded parameter servers (colocated shards, 21 jobs)",
            &["Shards/job", "Policy", "mean JCT (s)"],
        );
        for r in &self.rows {
            t.push_row(vec![
                r.shards.to_string(),
                r.policy.to_string(),
                format!("{:.1}", r.mean_jct),
            ]);
        }
        t
    }

    /// Mean JCT of a cell.
    pub fn jct(&self, shards: u32, policy: &str) -> f64 {
        self.rows
            .iter()
            .find(|r| r.shards == shards && r.policy == policy)
            .unwrap_or_else(|| panic!("missing cell {shards}/{policy}"))
            .mean_jct
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharding_spreads_contention_and_tls_still_helps() {
        let cfg = ExperimentConfig::quick();
        let s = run(&cfg, &[1, 4], &SweepOptions::default());
        // Four shards quarter each host's burst: FIFO improves a lot.
        assert!(
            s.jct(4, "FIFO") < s.jct(1, "FIFO") * 0.75,
            "sharding helps FIFO: {} vs {}",
            s.jct(4, "FIFO"),
            s.jct(1, "FIFO")
        );
        // TLs still beats FIFO while shards remain colocated.
        assert!(s.jct(1, "TLs-One") < s.jct(1, "FIFO"));
        assert!(s.jct(4, "TLs-One") <= s.jct(4, "FIFO") * 1.02);
        assert!(s.table().render().contains("Shards/job"));
    }
}
