//! Oversubscribed switch fabric: where end-host scheduling stops helping.
//!
//! The paper's testbed switch is non-blocking, so all contention happens at
//! host NICs — exactly where `tc` can act. Production aggregation fabrics
//! are often oversubscribed; the fabric then becomes a contention point no
//! end-host priority can control. This extension sweeps the core
//! oversubscription factor at placement *#8* (no PS colocation, so no NIC
//! contention): FIFO and TLs-One must converge as the fabric bottleneck
//! takes over, bounding where TensorLights is the right tool.

use crate::config::ExperimentConfig;
use crate::orchestrator::{run_sweep, SweepOptions};
use crate::report::Table;
use crate::runner::PolicyKind;
use serde::Serialize;
use tl_cluster::{table1_placement, Table1Index};
use tl_dl::Simulation;
use tl_net::Bandwidth;
use tl_workloads::GridSearchConfig;

/// One oversubscription data point.
#[derive(Debug, Clone, Serialize)]
pub struct FabricRow {
    /// Core oversubscription factor (1 = non-blocking; 4 = fabric carries a
    /// quarter of the aggregate edge bandwidth).
    pub oversubscription: f64,
    /// FIFO mean JCT (s).
    pub fifo_jct: f64,
    /// TLs-One mean JCT normalized over FIFO.
    pub tls_one_norm: f64,
}

/// The sweep result.
#[derive(Debug, Serialize)]
pub struct FabricAblation {
    /// One row per factor, ascending.
    pub rows: Vec<FabricRow>,
}

/// Sweep fabric oversubscription at placement #8.
pub fn run(cfg: &ExperimentConfig, factors: &[f64], opts: &SweepOptions) -> FabricAblation {
    let mut tasks = Vec::new();
    for &f in factors {
        for p in [PolicyKind::Fifo, PolicyKind::TlsOne] {
            tasks.push((f, p));
        }
    }
    let cfg = cfg.clone();
    let outs = run_sweep(
        "ablate_fabric",
        &serde_json::to_string(&cfg).expect("config serializes"),
        opts,
        tasks,
        |(factor, policy)| format!("oversub={factor},policy={}", policy.label()),
        move |(factor, policy)| {
            assert!(factor >= 1.0, "oversubscription factor must be >= 1");
            let placement = table1_placement(Table1Index(8), 21, 21);
            let setups = GridSearchConfig::paper_scaled(cfg.iterations).build(&placement);
            let mut sim_cfg = cfg.sim_config();
            if factor > 1.0 {
                // Edge aggregate: 21 hosts × link. The core carries 1/factor of
                // it (factor == 1.0 keeps the paper's non-blocking switch).
                let edge_gbps = 21.0 * sim_cfg.link.gbps();
                sim_cfg.core_capacity = Some(Bandwidth::from_gbps(edge_gbps / factor));
            }
            let mut p = policy.build(&cfg);
            let out = Simulation::new(sim_cfg)
                .jobs(setups)
                .policy_ref(p.as_mut())
                .run();
            assert!(out.all_complete());
            out.mean_jct_secs()
        },
    )
    .expect_complete();
    let rows = factors
        .iter()
        .enumerate()
        .map(|(k, &factor)| FabricRow {
            oversubscription: factor,
            fifo_jct: outs[2 * k],
            tls_one_norm: outs[2 * k + 1] / outs[2 * k],
        })
        .collect();
    FabricAblation { rows }
}

impl FabricAblation {
    /// Rendered table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Extension: fabric oversubscription (placement #8)",
            &["Oversub.", "FIFO JCT (s)", "TLs-One (norm.)"],
        );
        for r in &self.rows {
            t.push_row(vec![
                format!("{:.0}:1", r.oversubscription),
                format!("{:.1}", r.fifo_jct),
                format!("{:.3}", r.tls_one_norm),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fabric_bottleneck_is_policy_agnostic() {
        let cfg = ExperimentConfig::quick();
        let a = run(&cfg, &[1.0, 32.0], &SweepOptions::default());
        // Oversubscription slows everyone down...
        assert!(a.rows[1].fifo_jct > a.rows[0].fifo_jct * 1.2);
        // ...and end-host priorities cannot buy it back (no NIC contention
        // at #8): TLs ~ FIFO at both points.
        for r in &a.rows {
            assert!(
                (r.tls_one_norm - 1.0).abs() < 0.05,
                "factor {}: {}",
                r.oversubscription,
                r.tls_one_norm
            );
        }
        assert!(a.table().render().contains("Oversub."));
    }
}
