//! Fabric sweep — policies × oversubscription × traffic patterns on a
//! leaf–spine fabric.
//!
//! Not from the paper: TensorLights evaluates on one non-blocking switch,
//! where flows only contend at host NICs. Real training clusters hang
//! racks off an oversubscribed leaf–spine fabric, and the traffic pattern
//! decides how much of a job's bytes cross it: the PS star pushes every
//! update through the PS host's rack uplink, ring all-reduce spreads
//! `1/k`-sized slices around the ring (crossing racks wherever the ring
//! does), and hierarchical PS reduces rack-locally so only one full
//! update per rack crosses the spine.
//!
//! This sweep runs the same cross-rack workload under every
//! (policy × oversubscription × pattern) cell on a 3-rack leaf–spine
//! topology and reports mean JCT per cell — the fabric-sensitivity
//! picture the single-switch experiments cannot show. Distinct from
//! `ablations::fabric`, which models the fabric as one aggregate core
//! capacity with no notion of racks or patterns.

use crate::config::ExperimentConfig;
use crate::orchestrator::{self, CellRecord, SweepOptions};
use crate::report::Table;
use crate::runner::PolicyKind;
use serde::{Deserialize, Serialize};
use tl_cluster::grouped_placement;
use tl_dl::{Simulation, TopologySpec, TrafficPattern};
use tl_workloads::GridSearchConfig;

/// Leaf–spine shape every cell runs on.
pub const RACKS: u32 = 3;
/// Hosts per rack.
pub const HOSTS_PER_RACK: u32 = 4;
/// Oversubscription ratios swept (1:1 is a non-blocking fabric).
pub const OVERSUBS: [f64; 3] = [1.0, 2.0, 4.0];
/// Concurrent jobs per cell.
const NUM_JOBS: u32 = 6;
/// Workers per job — spread round-robin over all 12 hosts, so every job
/// straddles all three racks.
const WORKERS_PER_JOB: u32 = 6;
/// Model update size per job, MB (network-heavy by design; see
/// [`run_cell`]).
const MODEL_MB: u64 = 64;
/// Synchronous iterations per job in a full run.
const ITERS: u64 = 30;
/// Iterations in the `--quick` smoke run.
const QUICK_ITERS: u64 = 4;

/// One (oversubscription, pattern, policy) cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FabricRow {
    /// Fabric oversubscription ratio.
    pub oversub: f64,
    /// Traffic pattern name (`ps-star`, `ring`, `hierarchical`).
    pub pattern: String,
    /// Policy label.
    pub policy: String,
    /// Mean JCT over completed jobs, seconds.
    pub mean_jct: f64,
    /// Simulated completion time of the whole cell, seconds.
    pub makespan: f64,
    /// Jobs that ran to completion.
    pub completed: usize,
    /// Jobs launched.
    pub jobs: u32,
}

/// The whole sweep.
#[derive(Debug, Serialize)]
pub struct FabricResult {
    /// Topology shape every cell ran on.
    pub topology: String,
    /// Iterations per job in every cell.
    pub iterations: u64,
    /// One row per cell, oversubscription-major.
    pub rows: Vec<FabricRow>,
}

/// Run one cell: the cross-rack workload on `leaf-spine:3x4@oversub`
/// under `pattern` and `policy`. Public so tests can pin single cells.
pub fn run_cell(
    cfg: &ExperimentConfig,
    oversub: f64,
    pattern: TrafficPattern,
    policy: PolicyKind,
) -> FabricRow {
    let hosts = RACKS * HOSTS_PER_RACK;
    // PSes in three groups of two — one PS host per rack, so the star and
    // hierarchical patterns both have cross-rack PS traffic to schedule.
    let placement = grouped_placement(hosts, WORKERS_PER_JOB, &[2; (NUM_JOBS / 2) as usize]);
    let mut wl = GridSearchConfig::paper_scaled(cfg.iterations);
    wl.num_jobs = NUM_JOBS;
    wl.workers_per_job = WORKERS_PER_JOB;
    wl.target_global_steps = cfg.iterations * WORKERS_PER_JOB as u64;
    // The paper's ~2 MB updates make training compute-bound, which would
    // hide the fabric entirely; this sweep ships modern-sized updates with
    // light compute so cross-rack bandwidth is the contended resource.
    wl.model = tl_dl::ModelSpec::synthetic_mb(MODEL_MB);
    let setups = wl.build(&placement);
    let cell_cfg = ExperimentConfig {
        per_sample_core_secs: 0.02,
        ..cfg.clone()
    };
    let mut policy_impl = policy.build(&cell_cfg);
    let out = Simulation::new(cell_cfg.sim_config())
        .topology(TopologySpec::LeafSpine {
            racks: RACKS,
            hosts_per_rack: HOSTS_PER_RACK,
            oversub,
        })
        .pattern(pattern)
        .jobs(setups)
        .policy_ref(policy_impl.as_mut())
        .run();
    FabricRow {
        oversub,
        pattern: pattern.name().to_string(),
        policy: policy.label().to_string(),
        mean_jct: out.mean_jct_secs(),
        makespan: out.end_time.as_secs_f64(),
        completed: out.jobs.iter().filter(|j| j.completion.is_some()).count(),
        jobs: NUM_JOBS,
    }
}

/// Run the sweep through the crash-safe orchestrator: every
/// (oversubscription × pattern × policy) cell, isolated, with an optional
/// checkpoint ledger and the per-cell audit trail. `quick` keeps the full
/// grid but drops to a smoke-test iteration count — the grid itself is
/// the coverage, not the run length.
pub fn run(
    cfg: &ExperimentConfig,
    quick: bool,
    opts: &SweepOptions,
) -> (FabricResult, Vec<CellRecord>) {
    let cell_cfg = ExperimentConfig {
        iterations: if quick { QUICK_ITERS } else { ITERS },
        ..cfg.clone()
    };
    let mut cells = Vec::new();
    for &oversub in &OVERSUBS {
        for pattern in TrafficPattern::all() {
            for policy in PolicyKind::all() {
                cells.push((oversub, pattern, policy));
            }
        }
    }
    let context = format!(
        "cfg={};jobs={NUM_JOBS};workers={WORKERS_PER_JOB};model_mb={MODEL_MB}",
        serde_json::to_string(&cell_cfg).expect("config serializes"),
    );
    let run_cfg = cell_cfg.clone();
    let out = orchestrator::run_sweep(
        "fabric",
        &context,
        opts,
        cells,
        |(oversub, pattern, policy)| {
            format!(
                "oversub={oversub},pattern={},policy={}",
                pattern.name(),
                policy.label()
            )
        },
        move |(oversub, pattern, policy)| run_cell(&run_cfg, oversub, pattern, policy),
    );
    (
        FabricResult {
            topology: format!("leaf-spine:{RACKS}x{HOSTS_PER_RACK}"),
            iterations: cell_cfg.iterations,
            rows: out.rows,
        },
        out.cells,
    )
}

impl FabricResult {
    /// Mean JCT of a cell, or `None` when the cell failed or was skipped
    /// (a degraded sweep can be missing rows).
    pub fn try_jct(&self, oversub: f64, pattern: &str, policy: &str) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.oversub == oversub && r.pattern == pattern && r.policy == policy)
            .map(|r| r.mean_jct)
    }

    /// Mean JCT of a cell; panics when the cell is missing.
    pub fn jct(&self, oversub: f64, pattern: &str, policy: &str) -> f64 {
        self.try_jct(oversub, pattern, policy)
            .unwrap_or_else(|| panic!("missing cell {oversub}/{pattern}/{policy}"))
    }

    /// Render the sweep as a report table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "Fabric sweep: {} ({} jobs x {} workers, cross-rack)",
                self.topology, NUM_JOBS, WORKERS_PER_JOB
            ),
            &["oversub", "pattern", "policy", "mean JCT (s)", "makespan (s)", "done"],
        );
        for r in &self.rows {
            t.push_row(vec![
                format!("{}:1", r.oversub),
                r.pattern.to_string(),
                r.policy.to_string(),
                format!("{:.1}", r.mean_jct),
                format!("{:.1}", r.makespan),
                format!("{}/{}", r.completed, r.jobs),
            ]);
        }
        t
    }

    /// Headline: how much 4:1 oversubscription costs each pattern under
    /// FIFO, and whether TLs still helps on a constrained fabric. Cells
    /// missing from a degraded sweep render as `n/a`.
    pub fn summary(&self) -> String {
        let ratio = |num: Option<f64>, den: Option<f64>| match (num, den) {
            (Some(n), Some(d)) if d > 0.0 => format!("{:.2}x", n / d),
            _ => "n/a".to_string(),
        };
        let cost = |pattern: &str| {
            ratio(
                self.try_jct(4.0, pattern, "FIFO"),
                self.try_jct(1.0, pattern, "FIFO"),
            )
        };
        format!(
            "fabric: 4:1 oversubscription multiplies FIFO mean JCT by \
             {} (ps-star), {} (ring), {} (hierarchical); \
             at 4:1 ps-star, TLs-One is {} FIFO \
             [leaf-spine extension: no paper counterpart]",
            cost("ps-star"),
            cost("ring"),
            cost("hierarchical"),
            ratio(
                self.try_jct(4.0, "ps-star", "TLs-One"),
                self.try_jct(4.0, "ps-star", "FIFO"),
            ),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ExperimentConfig {
        ExperimentConfig {
            iterations: 3,
            ..ExperimentConfig::quick()
        }
    }

    #[test]
    fn quick_sweep_covers_the_grid_and_completes() {
        let (r, _) = run(&tiny_cfg(), true, &SweepOptions::default());
        assert_eq!(r.rows.len(), 27, "3 oversubs x 3 patterns x 3 policies");
        for row in &r.rows {
            assert_eq!(
                row.completed as u32, row.jobs,
                "cell {}:1/{}/{} left jobs incomplete",
                row.oversub, row.pattern, row.policy
            );
            assert!(row.mean_jct > 0.0 && row.makespan >= row.mean_jct);
        }
        assert!(r.table().render().contains("hierarchical"));
        assert!(r.summary().contains("oversubscription"));
        let json = serde_json::to_string_pretty(&r).expect("serialize");
        assert!(json.contains("\"oversub\""));
    }

    #[test]
    fn oversubscription_slows_the_star_but_non_blocking_matches_flat() {
        let cfg = tiny_cfg();
        let at = |o| run_cell(&cfg, o, TrafficPattern::PsStar, PolicyKind::Fifo).mean_jct;
        let free = at(1.0);
        let tight = at(4.0);
        assert!(
            tight > free * 1.02,
            "4:1 fabric should visibly slow cross-rack PS traffic: {tight} vs {free}"
        );
    }

    #[test]
    fn cells_are_deterministic() {
        let cfg = tiny_cfg();
        let a = run_cell(&cfg, 2.0, TrafficPattern::Ring, PolicyKind::TlsRr);
        let b = run_cell(&cfg, 2.0, TrafficPattern::Ring, PolicyKind::TlsRr);
        assert_eq!(a.mean_jct.to_bits(), b.mean_jct.to_bits());
        assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
    }
}
