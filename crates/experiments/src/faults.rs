//! Failure experiments — JCT under injected faults.
//!
//! Not from the paper: TensorLights is evaluated on a healthy testbed.
//! This experiment asks how the three policies hold up when the cluster is
//! *not* healthy — host crashes, NIC brownouts, PS process failures, and
//! tlsd control-plane outages — by sweeping a seeded [`FaultPlan`]
//! intensity and reporting mean and tail JCT per policy. Fault timelines
//! are deterministic per seed, so the sweep is exactly reproducible.

use crate::config::ExperimentConfig;
use crate::orchestrator::{self, CellRecord, SweepOptions};
use crate::report::Table;
use crate::runner::PolicyKind;
use serde::{Deserialize, Serialize};
use simcore::SampleSet;
use tl_cluster::{table1_placement, Placement, Table1Index};
use tl_dl::{BarrierLossPolicy, FaultPlan, SimOutput, Simulation};
use tl_telemetry::TelemetryConfig;
use tl_workloads::GridSearchConfig;

/// One (intensity, policy) cell of the sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultRow {
    /// Fault intensity (expected faults ≈ 4 × intensity).
    pub intensity: f64,
    /// Policy label.
    pub policy: String,
    /// Mean JCT over completed jobs, seconds.
    pub mean_jct: f64,
    /// 99th-percentile JCT, seconds; `None` when a fault plan kills every
    /// job in the window (serializes as `null`, renders as `NaN`).
    pub p99_jct: Option<f64>,
    /// Retry attempts observed (blocked work re-dispatched).
    pub retries: u64,
    /// Barrier-loss events (workers dropped from their barrier).
    pub workers_lost: u64,
    /// Jobs that ran to completion.
    pub completed: usize,
}

/// The failure sweep: intensities × the three policies.
#[derive(Debug, Serialize)]
pub struct FaultsResult {
    /// Barrier policy applied on worker loss.
    pub barrier_loss: &'static str,
    /// One row per (intensity, policy), intensity-major.
    pub rows: Vec<FaultRow>,
}

fn run_one(
    cfg: &ExperimentConfig,
    placement: &Placement,
    policy: PolicyKind,
    plan: FaultPlan,
    loss: BarrierLossPolicy,
    events: bool,
) -> SimOutput {
    let setups = GridSearchConfig::paper_scaled(cfg.iterations).build(placement);
    let mut sim_cfg = cfg.sim_config();
    sim_cfg.faults = plan;
    sim_cfg.barrier_loss = loss;
    let mut policy = policy.build(cfg);
    Simulation::new(sim_cfg)
        .jobs(setups)
        .policy_ref(policy.as_mut())
        .telemetry(if events {
            TelemetryConfig::events()
        } else {
            TelemetryConfig::disabled()
        })
        .run()
}

fn loss_label(loss: BarrierLossPolicy) -> &'static str {
    match loss {
        BarrierLossPolicy::StallUntilRecovery => "stall-until-recovery",
        BarrierLossPolicy::DropAndContinue => "drop-and-continue",
    }
}

/// Run the failure sweep at the given intensities (0 = healthy baseline)
/// under barrier-loss policy `loss`, on Table I placement #1, through the
/// crash-safe orchestrator. The sweep name carries the barrier-loss policy
/// (`faults-stall-until-recovery` / `faults-drop-and-continue`) so the two
/// variants keep separate ledgers.
pub fn run(
    cfg: &ExperimentConfig,
    intensities: &[f64],
    loss: BarrierLossPolicy,
    opts: &SweepOptions,
) -> (FaultsResult, Vec<CellRecord>) {
    let placement = table1_placement(Table1Index(1), 21, 21);
    // A healthy FIFO run pins the fault horizon: seeded faults land inside
    // the busiest 60% of the schedule instead of after everything drained.
    let baseline = run_one(
        cfg,
        &placement,
        PolicyKind::Fifo,
        FaultPlan::default(),
        loss,
        false,
    );
    let horizon = baseline.end_time.as_secs_f64() * 0.6;
    let cells: Vec<(f64, PolicyKind)> = intensities
        .iter()
        .flat_map(|&x| PolicyKind::all().into_iter().map(move |p| (x, p)))
        .collect();
    let context = format!(
        "cfg={};horizon={horizon};loss={}",
        serde_json::to_string(cfg).expect("config serializes"),
        loss_label(loss),
    );
    let run_cfg = cfg.clone();
    let out = orchestrator::run_sweep(
        &format!("faults-{}", loss_label(loss)),
        &context,
        opts,
        cells,
        |(intensity, policy)| format!("intensity={intensity},policy={}", policy.label()),
        move |(intensity, policy)| {
            let plan = FaultPlan::seeded(run_cfg.seed, intensity, 21, 21, horizon);
            let out = run_one(&run_cfg, &placement, policy, plan, loss, true);
            let mut jct = SampleSet::new();
            for j in out.jobs.iter().filter_map(|j| j.jct_secs()) {
                jct.push(j);
            }
            FaultRow {
                intensity,
                policy: policy.label().to_string(),
                mean_jct: jct.mean(),
                // None (rendered as NaN) when a fault plan kills every job
                // in the window — not a fake "p99 = 0 s".
                p99_jct: jct.quantile(0.99),
                retries: out.telemetry.events_of_kind("retry_attempt").len() as u64,
                workers_lost: out.telemetry.events_of_kind("worker_lost").len() as u64,
                completed: out.jobs.iter().filter(|j| j.completion.is_some()).count(),
            }
        },
    );
    (
        FaultsResult {
            barrier_loss: loss_label(loss),
            rows: out.rows,
        },
        out.cells,
    )
}

impl FaultsResult {
    /// Paper-style rendering.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!("Failure sweep: JCT under faults ({})", self.barrier_loss),
            &[
                "intensity",
                "policy",
                "mean JCT (s)",
                "p99 JCT (s)",
                "retries",
                "workers lost",
                "completed",
            ],
        );
        for r in &self.rows {
            t.push_row(vec![
                format!("{:.1}", r.intensity),
                r.policy.to_string(),
                format!("{:.1}", r.mean_jct),
                r.p99_jct
                    .map(|v| format!("{v:.1}"))
                    .unwrap_or_else(|| "NaN".to_string()),
                r.retries.to_string(),
                r.workers_lost.to_string(),
                r.completed.to_string(),
            ]);
        }
        t
    }

    /// Headline: how much the heaviest fault load stretches each policy's
    /// mean JCT relative to its healthy baseline.
    pub fn summary(&self) -> String {
        let max_x = self
            .rows
            .iter()
            .map(|r| r.intensity)
            .fold(f64::NEG_INFINITY, f64::max);
        let stretch = |label: &str| -> Option<f64> {
            let base = self
                .rows
                .iter()
                .find(|r| r.policy == label && r.intensity == 0.0)?;
            let top = self
                .rows
                .iter()
                .find(|r| r.policy == label && r.intensity == max_x)?;
            Some(top.mean_jct / base.mean_jct)
        };
        let fmt = |x: Option<f64>| match x {
            Some(v) => format!("{v:.2}x"),
            None => "n/a".into(),
        };
        format!(
            "mean-JCT stretch at intensity {:.1} vs healthy — FIFO: {}, TLs-One: {}, TLs-RR: {} \
             [no paper counterpart: robustness extension]",
            max_x,
            fmt(stretch("FIFO")),
            fmt(stretch("TLs-One")),
            fmt(stretch("TLs-RR")),
        )
    }
}

/// Telemetry events from one faulted TLs-RR run at the top intensity, for
/// `repro --experiment faults --trace-out`.
pub fn telemetry_events(
    cfg: &ExperimentConfig,
    intensity: f64,
    loss: BarrierLossPolicy,
) -> Vec<tl_telemetry::TimedEvent> {
    let placement = table1_placement(Table1Index(1), 21, 21);
    let baseline = run_one(
        cfg,
        &placement,
        PolicyKind::Fifo,
        FaultPlan::default(),
        loss,
        false,
    );
    let horizon = baseline.end_time.as_secs_f64() * 0.6;
    let plan = FaultPlan::seeded(cfg.seed, intensity, 21, 21, horizon);
    let out = run_one(cfg, &placement, PolicyKind::TlsRr, plan, loss, true);
    out.telemetry.events
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_reports_faults_and_completions() {
        let cfg = ExperimentConfig::quick();
        let loss = BarrierLossPolicy::DropAndContinue;
        let (r, _) = run(&cfg, &[0.0, 1.0, 2.0], loss, &SweepOptions::default());
        assert_eq!(r.rows.len(), 9, "3 intensities x 3 policies");
        // Healthy baseline: no fault machinery engaged.
        for row in r.rows.iter().filter(|r| r.intensity == 0.0) {
            assert_eq!(row.retries, 0);
            assert_eq!(row.workers_lost, 0);
            assert_eq!(row.completed, 21);
        }
        // Faulted rows: recovery semantics visible in the event stream.
        let faulted: Vec<_> = r.rows.iter().filter(|r| r.intensity > 0.0).collect();
        assert!(
            faulted.iter().any(|r| r.retries > 0),
            "blocked work must retry somewhere in the sweep"
        );
        assert!(
            faulted.iter().any(|r| r.workers_lost > 0),
            "drop-and-continue must shed at least one worker"
        );
        for row in &faulted {
            assert_eq!(row.completed, 21, "every job survives its faults");
        }
        assert!(r.table().render().contains("TLs-RR"));
        assert!(r.summary().contains("stretch"));
    }

    #[test]
    fn sweep_is_deterministic() {
        let cfg = ExperimentConfig::quick();
        let sweep = || {
            let loss = BarrierLossPolicy::StallUntilRecovery;
            run(&cfg, &[1.0], loss, &SweepOptions::default()).0
        };
        let (a, b) = (sweep(), sweep());
        assert_eq!(a.rows.len(), 3, "1 intensity x 3 policies");
        assert_eq!(b.rows.len(), 3);
        for (x, y) in a.rows.iter().zip(&b.rows) {
            assert_eq!(x.mean_jct.to_bits(), y.mean_jct.to_bits());
            assert_eq!(x.p99_jct.map(f64::to_bits), y.p99_jct.map(f64::to_bits));
            assert_eq!(x.retries, y.retries);
        }
    }
}
