//! Differential validation — fluid ↔ packet oracle through the DL engine.
//!
//! The big experiments all run on the fluid max-min network model. The
//! chunk-level packet engine ([`tl_net::PacketNet`]) was built
//! independently from the same physical description (store-and-forward
//! NICs, strict-priority egress, FIFO ingress), so the two models act as
//! oracles for each other: any scenario where they disagree beyond chunk
//! quantization is a bug in one of them — or in the engine that drives
//! them.
//!
//! This module generates a seeded matrix of randomized scenarios —
//! placements × policies × arrival patterns × fault plans — and runs each
//! one through the *full* training simulation twice, once per backend
//! (`SimConfig::backend`), with runtime invariant checks enabled on both
//! sides. It reports per-job JCT divergence against a documented
//! tolerance and fails (non-zero exit from `repro --experiment validate`)
//! on any invariant violation, incomplete job, or out-of-tolerance
//! divergence.
//!
//! ## Tolerances
//!
//! The packet model differs from the fluid model by design in three ways:
//! chunk quantization (64 KiB grains instead of continuous rates),
//! store-and-forward pipelining (a chunk occupies the sender NIC, then
//! the receiver NIC), and round-robin instead of weighted sharing within
//! a band. The scenarios therefore run with `net_weight_sigma = 0`
//! (weights are all 1.0; the RR limitation is documented on
//! [`tl_dl::backend`]) and accept per-job JCT divergence up to:
//!
//! * **relative** [`TOL_REL_HEALTHY`] on healthy runs — chunk rounding
//!   compounds per barrier, and a barrier waits for the *slowest* worker,
//!   so divergence grows with contention but stays well under this bound
//!   on every scenario shape generated here (the engine-level test
//!   `backends_agree_on_jct_within_chunk_tolerance` pins the same bound);
//! * **relative** [`TOL_REL_FAULTED`] on faulted runs — a fault window at
//!   a fixed wall-clock time lands on different barrier phases in the two
//!   models, so recovery stalls amplify timing differences. Faulted
//!   scenarios primarily validate *robustness equivalence* (both backends
//!   complete every job with clean invariants), with the looser JCT bound
//!   as a tripwire for gross disagreement;
//! * **absolute** [`TOL_ABS_SECS`] as a floor, so near-zero JCTs are not
//!   held to a relative standard tighter than a handful of chunk windows.

use crate::config::ExperimentConfig;
use crate::report::Table;
use crate::orchestrator::{self, CellRecord, SweepOptions};
use crate::runner::PolicyKind;
use serde::{Deserialize, Serialize};
use simcore::{RngFactory, SimDuration, SimTime};
use tl_cluster::{grouped_placement, Placement};
use tl_dl::{
    BarrierLossPolicy, FaultPlan, ModelSpec, NetBackendKind, SimError, SimOutput, Simulation,
    TopologySpec, TrafficPattern,
};
use tl_telemetry::{SimEvent, TimedEvent};
use tl_workloads::{poisson_arrivals, with_arrivals, GridSearchConfig};

/// Relative per-job JCT tolerance on healthy (fault-free) scenarios.
pub const TOL_REL_HEALTHY: f64 = 0.15;
/// Relative per-job JCT tolerance on faulted scenarios.
pub const TOL_REL_FAULTED: f64 = 0.50;
/// Absolute divergence floor, seconds (≈ 500 chunk serializations at
/// 10 Gb/s — generous against per-barrier rounding on these short runs).
pub const TOL_ABS_SECS: f64 = 0.025;

/// Single-switch scenarios generated per sweep (≥ 20 by design).
pub const NUM_FLAT_SCENARIOS: usize = 24;
/// Multi-tier (leaf–spine) scenarios appended to the matrix: ring and
/// hierarchical patterns, varying oversubscription, both arrival shapes.
pub const NUM_FABRIC_SCENARIOS: usize = 8;
/// Total scenarios per sweep.
pub const NUM_SCENARIOS: usize = NUM_FLAT_SCENARIOS + NUM_FABRIC_SCENARIOS;

/// How a scenario's PSes are spread over hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementShape {
    /// Every PS on host 0 (the paper's worst case, Table I #1).
    Colocated,
    /// PSes in two groups on two hosts.
    Split,
    /// One PS per host (Table I #8).
    Spread,
}

impl PlacementShape {
    fn label(self) -> &'static str {
        match self {
            PlacementShape::Colocated => "colocated",
            PlacementShape::Split => "split",
            PlacementShape::Spread => "spread",
        }
    }
}

/// How a scenario's jobs arrive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalPattern {
    /// The paper's 100 ms launch stagger.
    Staggered,
    /// Open-loop Poisson arrivals (seeded per scenario).
    Poisson,
}

impl ArrivalPattern {
    fn label(self) -> &'static str {
        match self {
            ArrivalPattern::Staggered => "staggered",
            ArrivalPattern::Poisson => "poisson",
        }
    }
}

/// One generated differential scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Index in the sweep (also salts the per-scenario RNG streams).
    pub id: usize,
    /// PS spread.
    pub shape: PlacementShape,
    /// Priority policy under test.
    pub policy: PolicyKind,
    /// Job arrival pattern.
    pub arrivals: ArrivalPattern,
    /// Seeded fault-plan intensity (0 = healthy).
    pub fault_intensity: f64,
    /// Concurrent jobs.
    pub num_jobs: u32,
    /// Workers per job.
    pub workers: u32,
    /// Model update size, MB.
    pub model_mb: u64,
    /// Link graph the scenario runs on.
    pub topology: TopologySpec,
    /// Traffic pattern the jobs use.
    pub pattern: TrafficPattern,
}

impl Scenario {
    fn num_hosts(&self) -> u32 {
        // Spread needs one host per PS; every shape needs workers + 1.
        (self.workers + 1).max(self.num_jobs)
    }

    fn placement(&self) -> Placement {
        let n = self.num_jobs;
        let groups: Vec<u32> = match self.shape {
            PlacementShape::Colocated => vec![n],
            PlacementShape::Split => vec![n.div_ceil(2), n / 2]
                .into_iter()
                .filter(|&g| g > 0)
                .collect(),
            PlacementShape::Spread => vec![1; n as usize],
        };
        grouped_placement(self.num_hosts(), self.workers, &groups)
    }

    /// Materialize the job set (fresh each call; deterministic).
    fn setups(&self, ecfg: &ExperimentConfig) -> Vec<tl_dl::JobSetup> {
        let wl = GridSearchConfig {
            num_jobs: self.num_jobs,
            workers_per_job: self.workers,
            model: ModelSpec::synthetic_mb(self.model_mb),
            local_batch_size: 4,
            target_global_steps: ecfg.iterations * self.workers as u64,
            launch_stagger: SimDuration::from_millis(100),
            mode: tl_dl::TrainingMode::Synchronous,
            base_port: 2222,
        };
        let setups = wl.build(&self.placement());
        match self.arrivals {
            ArrivalPattern::Staggered => setups,
            ArrivalPattern::Poisson => {
                let mut rng = RngFactory::new(ecfg.seed)
                    .indexed_stream("validate-arrivals", self.id as u64);
                let arrivals = poisson_arrivals(
                    &mut rng,
                    self.num_jobs as usize,
                    SimDuration::from_millis(150),
                );
                with_arrivals(setups, &arrivals)
            }
        }
    }
}

/// The experiment configuration the scenarios run under: weights pinned
/// to 1.0 (the packet model's round-robin is unweighted — see
/// [`tl_dl::backend`]), light compute so the network matters, and a
/// rotation interval short enough that TLs-RR re-bands mid-run.
fn scenario_cfg(master: &ExperimentConfig) -> ExperimentConfig {
    ExperimentConfig {
        // Clamp: packet runs cost O(bytes); long sweeps add no coverage.
        iterations: master.iterations.clamp(2, 6),
        seed: master.seed,
        per_sample_core_secs: 0.02,
        compute_sigma: 0.05,
        net_sigma: 0.0,
        rr_interval: SimDuration::from_millis(250),
        num_bands: 6,
        link_gbps: 10.0,
        // Per-scenario; `run_backend` installs the scenario's own.
        topology: TopologySpec::SingleSwitch,
        pattern: TrafficPattern::PsStar,
    }
}

/// The seeded scenario matrix. Dimensions are cycled at co-prime strides
/// so all policies, shapes, arrival patterns, and fault intensities mix.
/// The first [`NUM_FLAT_SCENARIOS`] run the paper's single switch with
/// the PS star; the remaining [`NUM_FABRIC_SCENARIOS`] run on leaf–spine
/// fabrics of varying oversubscription under all three traffic patterns
/// (fault-free — fault injection is only modelled for the ps-star
/// pattern, and the multi-tier rows validate topology, not recovery).
pub fn scenarios(master: &ExperimentConfig) -> Vec<Scenario> {
    let _ = master; // matrix is structural; the seed enters via the runs
    let mut scs: Vec<Scenario> = (0..NUM_FLAT_SCENARIOS)
        .map(|i| Scenario {
            id: i,
            shape: match i % 3 {
                0 => PlacementShape::Colocated,
                1 => PlacementShape::Split,
                _ => PlacementShape::Spread,
            },
            policy: PolicyKind::all()[(i / 3) % 3],
            arrivals: if (i / 2) % 2 == 0 {
                ArrivalPattern::Staggered
            } else {
                ArrivalPattern::Poisson
            },
            fault_intensity: if i % 4 == 3 { 1.0 } else { 0.0 },
            num_jobs: 2 + (i as u32 % 3),
            workers: 2 + ((i as u32 / 4) % 2),
            model_mb: [8, 16, 32][(i / 5) % 3],
            topology: TopologySpec::SingleSwitch,
            pattern: TrafficPattern::PsStar,
        })
        .collect();
    for k in 0..NUM_FABRIC_SCENARIOS {
        let i = NUM_FLAT_SCENARIOS + k;
        scs.push(Scenario {
            id: i,
            shape: match (k + 1) % 3 {
                0 => PlacementShape::Colocated,
                1 => PlacementShape::Split,
                _ => PlacementShape::Spread,
            },
            policy: PolicyKind::all()[(k / 3) % 3],
            arrivals: if k % 2 == 0 {
                ArrivalPattern::Staggered
            } else {
                ArrivalPattern::Poisson
            },
            fault_intensity: 0.0,
            num_jobs: 2 + (k as u32 % 3),
            workers: 2 + ((k as u32 / 3) % 2),
            model_mb: [8, 16, 32][k % 3],
            // 2 racks x 3 hosts covers every shape above; oversubscription
            // cycles through non-blocking, 2:1, and 4:1.
            topology: TopologySpec::LeafSpine {
                racks: 2,
                hosts_per_rack: 3,
                oversub: [1.0, 2.0, 4.0][(k / 2) % 3],
            },
            pattern: TrafficPattern::all()[k % 3],
        });
    }
    scs
}

/// One scenario's differential verdict.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioRow {
    /// Scenario index.
    pub id: usize,
    /// PS spread label.
    pub placement: String,
    /// Policy label.
    pub policy: String,
    /// Arrival pattern label.
    pub arrivals: String,
    /// Topology label (`single-switch` or `leaf-spine:RxH@O`).
    pub topology: String,
    /// Traffic pattern name.
    pub pattern: String,
    /// Fault intensity (0 = healthy).
    pub fault_intensity: f64,
    /// Concurrent jobs.
    pub num_jobs: u32,
    /// Workers per job.
    pub workers: u32,
    /// Model update size, MB.
    pub model_mb: u64,
    /// Largest per-job relative JCT divergence.
    pub max_rel_divergence: f64,
    /// Largest per-job absolute JCT divergence, seconds.
    pub max_abs_divergence_secs: f64,
    /// Job with the largest divergence (-1 if no comparable pair).
    pub worst_job: i64,
    /// That job's fluid JCT, seconds (0 if none).
    pub worst_fluid_jct: f64,
    /// That job's packet JCT, seconds (0 if none).
    pub worst_packet_jct: f64,
    /// Relative tolerance applied to this scenario.
    pub tol_rel: f64,
    /// Invariant violations recorded by the fluid run.
    pub fluid_violations: usize,
    /// Invariant violations recorded by the packet run.
    pub packet_violations: usize,
    /// Jobs completed under the fluid backend.
    pub fluid_completed: usize,
    /// Jobs completed under the packet backend.
    pub packet_completed: usize,
    /// Engine error, if a run failed outright (empty otherwise).
    pub error: String,
    /// Scenario verdict: complete, clean, and within tolerance.
    pub pass: bool,
}

/// The sweep's outcome: one row per scenario plus the tolerances applied.
#[derive(Debug, Serialize)]
pub struct ValidateResult {
    /// Relative tolerance, healthy scenarios.
    pub tol_rel_healthy: f64,
    /// Relative tolerance, faulted scenarios.
    pub tol_rel_faulted: f64,
    /// Absolute divergence floor, seconds.
    pub tol_abs_secs: f64,
    /// Iterations per job after clamping.
    pub iterations: u64,
    /// Per-scenario verdicts, id order.
    pub rows: Vec<ScenarioRow>,
}

fn run_backend(
    ecfg: &ExperimentConfig,
    sc: &Scenario,
    faults: FaultPlan,
    backend: NetBackendKind,
) -> Result<SimOutput, SimError> {
    let mut sim_cfg = ecfg.sim_config();
    sim_cfg.backend = backend;
    sim_cfg.invariants = true;
    sim_cfg.net_weight_sigma = 0.0;
    sim_cfg.faults = faults;
    sim_cfg.barrier_loss = BarrierLossPolicy::StallUntilRecovery;
    sim_cfg.topology = sc.topology;
    sim_cfg.pattern = sc.pattern;
    let mut policy = sc.policy.build(ecfg);
    Simulation::new(sim_cfg)
        .jobs(sc.setups(ecfg))
        .policy_ref(policy.as_mut())
        .try_run()
}

fn run_scenario(ecfg: &ExperimentConfig, sc: &Scenario) -> ScenarioRow {
    let faulted = sc.fault_intensity > 0.0;
    let tol_rel = if faulted {
        TOL_REL_FAULTED
    } else {
        TOL_REL_HEALTHY
    };
    let mut row = ScenarioRow {
        id: sc.id,
        placement: sc.shape.label().to_string(),
        policy: sc.policy.label().to_string(),
        arrivals: sc.arrivals.label().to_string(),
        topology: sc.topology.to_string(),
        pattern: sc.pattern.name().to_string(),
        fault_intensity: sc.fault_intensity,
        num_jobs: sc.num_jobs,
        workers: sc.workers,
        model_mb: sc.model_mb,
        max_rel_divergence: 0.0,
        max_abs_divergence_secs: 0.0,
        worst_job: -1,
        worst_fluid_jct: 0.0,
        worst_packet_jct: 0.0,
        tol_rel,
        fluid_violations: 0,
        packet_violations: 0,
        fluid_completed: 0,
        packet_completed: 0,
        error: String::new(),
        pass: false,
    };

    // Faulted scenarios pin their fault horizon from a healthy fluid
    // baseline, so seeded faults land while work is in flight.
    let plan = if faulted {
        match run_backend(ecfg, sc, FaultPlan::default(), NetBackendKind::Fluid) {
            Ok(healthy) => FaultPlan::seeded(
                ecfg.seed ^ (0x9e37_79b9 + sc.id as u64),
                sc.fault_intensity,
                sc.num_hosts(),
                sc.num_jobs,
                healthy.end_time.as_secs_f64() * 0.5,
            ),
            Err(e) => {
                row.error = format!("healthy baseline: {e}");
                return row;
            }
        }
    } else {
        FaultPlan::default()
    };

    let fluid = match run_backend(ecfg, sc, plan.clone(), NetBackendKind::Fluid) {
        Ok(out) => out,
        Err(e) => {
            row.error = format!("fluid backend: {e}");
            return row;
        }
    };
    let packet = match run_backend(ecfg, sc, plan, NetBackendKind::Packet) {
        Ok(out) => out,
        Err(e) => {
            row.error = format!("packet backend: {e}");
            return row;
        }
    };

    row.fluid_violations = fluid.invariant_violations.len();
    row.packet_violations = packet.invariant_violations.len();
    row.fluid_completed = fluid.jobs.iter().filter(|j| j.completion.is_some()).count();
    row.packet_completed = packet
        .jobs
        .iter()
        .filter(|j| j.completion.is_some())
        .count();

    let mut within = true;
    for (k, (f, p)) in fluid.jobs.iter().zip(&packet.jobs).enumerate() {
        let (Some(fj), Some(pj)) = (f.jct_secs(), p.jct_secs()) else {
            continue;
        };
        let abs = (fj - pj).abs();
        let rel = abs / fj.max(pj).max(f64::MIN_POSITIVE);
        if rel > row.max_rel_divergence {
            row.max_rel_divergence = rel;
            row.max_abs_divergence_secs = abs;
            row.worst_job = k as i64;
            row.worst_fluid_jct = fj;
            row.worst_packet_jct = pj;
        }
        if rel > tol_rel && abs > TOL_ABS_SECS {
            within = false;
        }
    }

    let n = sc.num_jobs as usize;
    row.pass = within
        && row.fluid_violations == 0
        && row.packet_violations == 0
        && row.fluid_completed == n
        && row.packet_completed == n;
    row
}

/// Run the differential sweep: every scenario through both backends.
/// Panics if any scenario cell fails outright (engine errors are still
/// per-row data, not failures); `repro` uses [`run_with`] and degrades.
pub fn run(master: &ExperimentConfig) -> ValidateResult {
    let (result, records) = run_with(master, &SweepOptions::ephemeral());
    if let Some(bad) = records.iter().find(|c| !c.outcome.is_ok()) {
        panic!("validate cell {} — {}", bad.label, bad.outcome);
    }
    result
}

/// [`run`] through the crash-safe orchestrator: per-scenario isolation,
/// optional checkpoint ledger, and the per-cell audit trail.
pub fn run_with(
    master: &ExperimentConfig,
    opts: &SweepOptions,
) -> (ValidateResult, Vec<CellRecord>) {
    let ecfg = scenario_cfg(master);
    let context = format!(
        "cfg={};tol={TOL_REL_HEALTHY}/{TOL_REL_FAULTED}/{TOL_ABS_SECS}",
        serde_json::to_string(&ecfg).expect("config serializes"),
    );
    let run_cfg = ecfg.clone();
    let out = orchestrator::run_sweep(
        "validate",
        &context,
        opts,
        scenarios(master),
        |sc| {
            format!(
                "id={},placement={},policy={},arrivals={},topo={},pattern={},fault={},jobs={},workers={},mb={}",
                sc.id,
                sc.shape.label(),
                sc.policy.label(),
                sc.arrivals.label(),
                sc.topology,
                sc.pattern.name(),
                sc.fault_intensity,
                sc.num_jobs,
                sc.workers,
                sc.model_mb,
            )
        },
        move |sc| run_scenario(&run_cfg, &sc),
    );
    (
        ValidateResult {
            tol_rel_healthy: TOL_REL_HEALTHY,
            tol_rel_faulted: TOL_REL_FAULTED,
            tol_abs_secs: TOL_ABS_SECS,
            iterations: ecfg.iterations,
            rows: out.rows,
        },
        out.cells,
    )
}

impl ValidateResult {
    /// True when every scenario completed, stayed clean, and agreed.
    pub fn passed(&self) -> bool {
        self.rows.iter().all(|r| r.pass)
    }

    /// Paper-style rendering.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Differential validation: fluid vs packet backend".to_string(),
            &[
                "id",
                "placement",
                "policy",
                "arrivals",
                "topology",
                "pattern",
                "fault",
                "jobs x workers",
                "MB",
                "max rel",
                "max abs (ms)",
                "viol f/p",
                "pass",
            ],
        );
        for r in &self.rows {
            t.push_row(vec![
                r.id.to_string(),
                r.placement.to_string(),
                r.policy.to_string(),
                r.arrivals.to_string(),
                r.topology.clone(),
                r.pattern.to_string(),
                format!("{:.1}", r.fault_intensity),
                format!("{}x{}", r.num_jobs, r.workers),
                r.model_mb.to_string(),
                format!("{:.4}", r.max_rel_divergence),
                format!("{:.2}", r.max_abs_divergence_secs * 1e3),
                format!("{}/{}", r.fluid_violations, r.packet_violations),
                if r.pass {
                    "ok".into()
                } else if r.error.is_empty() {
                    "FAIL".into()
                } else {
                    format!("FAIL ({})", r.error)
                },
            ]);
        }
        t
    }

    /// Headline: pass count and the worst divergences per regime.
    pub fn summary(&self) -> String {
        let passed = self.rows.iter().filter(|r| r.pass).count();
        let worst = |faulted: bool| -> f64 {
            self.rows
                .iter()
                .filter(|r| (r.fault_intensity > 0.0) == faulted)
                .map(|r| r.max_rel_divergence)
                .fold(0.0, f64::max)
        };
        format!(
            "{passed}/{} scenarios agree across backends; worst rel divergence \
             {:.4} healthy (tol {}), {:.4} faulted (tol {}); abs floor {} ms \
             [oracle cross-check: no paper counterpart]",
            self.rows.len(),
            worst(false),
            self.tol_rel_healthy,
            worst(true),
            self.tol_rel_faulted,
            self.tol_abs_secs * 1e3,
        )
    }

    /// Telemetry marks for `--trace-out`: one per failing or divergent
    /// scenario (at the worst job's fluid JCT), plus a closing summary.
    pub fn mark_events(&self) -> Vec<TimedEvent> {
        let mut events = Vec::new();
        let mut end = 0.0f64;
        for r in &self.rows {
            end = end.max(r.worst_fluid_jct);
            if r.pass && r.max_rel_divergence <= r.tol_rel / 2.0 {
                continue;
            }
            events.push(TimedEvent {
                at: SimTime::from_secs_f64(r.worst_fluid_jct.max(0.0)),
                event: SimEvent::Mark {
                    scope: "validate",
                    message: format!(
                        "scenario {} ({}/{}/{} on {} via {}, fault {:.1}): {} — job {} fluid \
                         {:.3}s vs packet {:.3}s (rel {:.4}, tol {}), violations {}/{}{}",
                        r.id,
                        r.placement,
                        r.policy,
                        r.arrivals,
                        r.topology,
                        r.pattern,
                        r.fault_intensity,
                        if r.pass { "divergent but in tolerance" } else { "FAIL" },
                        r.worst_job,
                        r.worst_fluid_jct,
                        r.worst_packet_jct,
                        r.max_rel_divergence,
                        r.tol_rel,
                        r.fluid_violations,
                        r.packet_violations,
                        if r.error.is_empty() {
                            String::new()
                        } else {
                            format!("; error: {}", r.error)
                        },
                    ),
                },
            });
        }
        events.push(TimedEvent {
            at: SimTime::from_secs_f64(end),
            event: SimEvent::Mark {
                scope: "validate",
                message: self.summary(),
            },
        });
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_every_dimension() {
        let cfg = ExperimentConfig::quick();
        let scs = scenarios(&cfg);
        assert!(scs.len() >= 20, "need at least 20 scenarios");
        for shape in [
            PlacementShape::Colocated,
            PlacementShape::Split,
            PlacementShape::Spread,
        ] {
            assert!(scs.iter().any(|s| s.shape == shape), "{shape:?} missing");
        }
        for policy in PolicyKind::all() {
            assert!(scs.iter().any(|s| s.policy == policy));
        }
        assert!(scs.iter().any(|s| s.arrivals == ArrivalPattern::Poisson));
        assert!(scs.iter().any(|s| s.arrivals == ArrivalPattern::Staggered));
        assert!(scs.iter().any(|s| s.fault_intensity > 0.0));
        assert!(scs.iter().any(|s| s.fault_intensity == 0.0));
        // Every scenario builds a well-formed placement.
        for s in &scs {
            assert_eq!(s.placement().jobs.len(), s.num_jobs as usize);
        }
        // Multi-tier coverage: enough leaf-spine scenarios, every traffic
        // pattern represented on them, every oversubscription tier swept,
        // and none of them faulted (faults are ps-star-only).
        let fabric: Vec<_> = scs
            .iter()
            .filter(|s| s.topology != TopologySpec::SingleSwitch)
            .collect();
        assert!(fabric.len() >= 6, "need >= 6 multi-tier scenarios");
        for p in TrafficPattern::all() {
            assert!(fabric.iter().any(|s| s.pattern == p), "{p} missing on fabric");
        }
        for o in [1.0, 2.0, 4.0] {
            assert!(
                fabric.iter().any(
                    |s| matches!(s.topology, TopologySpec::LeafSpine { oversub, .. } if oversub == o)
                ),
                "oversub {o} missing"
            );
        }
        assert!(fabric
            .iter()
            .all(|s| s.fault_intensity == 0.0 || s.pattern == TrafficPattern::PsStar));
        // The fabric is always big enough for its placement.
        for s in &fabric {
            if let TopologySpec::LeafSpine {
                racks,
                hosts_per_rack,
                ..
            } = s.topology
            {
                assert!(racks * hosts_per_rack >= s.num_hosts());
            }
        }
    }

    #[test]
    fn sweep_passes_and_serializes() {
        let cfg = ExperimentConfig::quick();
        let r = run(&cfg);
        assert_eq!(r.rows.len(), NUM_SCENARIOS);
        for row in &r.rows {
            assert!(
                row.pass,
                "scenario {} ({}/{}/{} fault {:.1}): rel {:.4} abs {:.1}ms \
                 viol {}/{} completed {}/{} err '{}'",
                row.id,
                row.placement,
                row.policy,
                row.arrivals,
                row.fault_intensity,
                row.max_rel_divergence,
                row.max_abs_divergence_secs * 1e3,
                row.fluid_violations,
                row.packet_violations,
                row.fluid_completed,
                row.packet_completed,
                row.error,
            );
        }
        assert!(r.passed());
        assert!(r.table().render().contains("max rel"));
        assert!(r.summary().contains("scenarios agree"));
        // The JSON report round-trips through the vendored serde.
        let json = serde_json::to_string_pretty(&r).expect("serialize");
        assert!(json.contains("tol_rel_healthy"));
        // The closing summary mark is always present.
        let marks = r.mark_events();
        assert!(!marks.is_empty());
        assert!(marks.iter().all(|m| m.event.kind() == "mark"));
    }

    #[test]
    fn scenario_comparison_is_deterministic() {
        let cfg = ExperimentConfig::quick();
        let ecfg = scenario_cfg(&cfg);
        let sc = &scenarios(&cfg)[0];
        let a = run_scenario(&ecfg, sc);
        let b = run_scenario(&ecfg, sc);
        assert_eq!(
            a.max_rel_divergence.to_bits(),
            b.max_rel_divergence.to_bits()
        );
        assert_eq!(a.worst_fluid_jct.to_bits(), b.worst_fluid_jct.to_bits());
        assert_eq!(a.pass, b.pass);
    }

    #[test]
    fn failing_row_is_flagged_and_marked() {
        let row = ScenarioRow {
            id: 7,
            placement: "colocated".to_string(),
            policy: "FIFO".to_string(),
            arrivals: "staggered".to_string(),
            topology: "single-switch".into(),
            pattern: "ps-star".to_string(),
            fault_intensity: 0.0,
            num_jobs: 3,
            workers: 2,
            model_mb: 8,
            max_rel_divergence: 0.9,
            max_abs_divergence_secs: 1.2,
            worst_job: 1,
            worst_fluid_jct: 1.0,
            worst_packet_jct: 2.2,
            tol_rel: TOL_REL_HEALTHY,
            fluid_violations: 1,
            packet_violations: 0,
            fluid_completed: 3,
            packet_completed: 3,
            error: String::new(),
            pass: false,
        };
        let r = ValidateResult {
            tol_rel_healthy: TOL_REL_HEALTHY,
            tol_rel_faulted: TOL_REL_FAULTED,
            tol_abs_secs: TOL_ABS_SECS,
            iterations: 4,
            rows: vec![row],
        };
        assert!(!r.passed());
        assert!(r.table().render().contains("FAIL"));
        let marks = r.mark_events();
        assert_eq!(marks.len(), 2, "failure mark + summary mark");
        assert!(matches!(
            &marks[0].event,
            SimEvent::Mark { scope: "validate", message } if message.contains("FAIL")
        ));
    }
}

