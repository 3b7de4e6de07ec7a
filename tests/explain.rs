//! Cross-crate checks for the analysis layer: explain output is
//! deterministic down to the byte, and the JCT decomposition conserves
//! exactly on arbitrary (including faulted) scenarios.

use simcore::SimTime;
use tl_cluster::JobPlacement;
use tl_dl::{
    BarrierLossPolicy, ComputeModel, FaultPlan, JobId, JobSpec, ModelSpec, SimConfig, SimOutput,
    Simulation, TopologySpec, TrainingMode,
};
use tl_experiments::{explain, ExperimentConfig, PolicyKind, SweepOptions};
use tl_net::{HostId, Topology};

fn tiny_cfg() -> ExperimentConfig {
    ExperimentConfig {
        iterations: 3,
        ..ExperimentConfig::quick()
    }
}

#[test]
fn explain_json_is_byte_identical_across_runs() {
    // Same seed, same cell → the full analysis JSON (decompositions,
    // blame matrices, critical paths) must serialize to identical bytes.
    let cfg = tiny_cfg();
    let a = explain::run_cell(&cfg, 4.0, PolicyKind::TlsOne);
    let b = explain::run_cell(&cfg, 4.0, PolicyKind::TlsOne);
    assert!(!a.report.jobs.is_empty());
    assert_eq!(a.report.to_json(), b.report.to_json());
}

#[test]
fn explain_sweep_is_identical_on_one_and_four_workers() {
    // The sweep's thread count must not leak into results: strictly
    // sequential and 4-way parallel runs serialize to the same bytes.
    let cfg = tiny_cfg();
    let sweep = |workers| {
        let opts = SweepOptions {
            workers: Some(workers),
            ..SweepOptions::default()
        };
        let (result, cells) = explain::run(&cfg, true, &opts);
        assert!(cells.iter().all(|c| c.outcome.is_ok()), "{cells:?}");
        result
    };
    let (seq, par) = (sweep(1), sweep(4));
    let a = serde_json::to_string_pretty(&seq).expect("json");
    let b = serde_json::to_string_pretty(&par).expect("json");
    assert_eq!(a, b);
}

// ---- conservation on random scenarios ------------------------------------

use proptest::prelude::*;

/// A small instrumented 2-job scenario (mirrors tests/determinism.rs) and
/// the topology it ran on, so the analyzer can resolve routes.
fn traced_run(plan: FaultPlan, loss: BarrierLossPolicy, model_mb: u64) -> (SimOutput, Topology) {
    let setups: Vec<tl_dl::engine::JobSetup> = (0..2u32)
        .map(|id| tl_dl::engine::JobSetup {
            spec: JobSpec {
                id: JobId(id),
                model: ModelSpec::synthetic_mb(model_mb),
                num_workers: 3,
                local_batch_size: 4,
                target_global_steps: 8 * 3,
                mode: TrainingMode::Synchronous,
                launch_time: SimTime::from_millis(100 * id as u64),
                ps_port: 2222 + id as u16,
                pattern: None,
            },
            placement: JobPlacement::new(HostId(0), vec![HostId(1), HostId(2), HostId(3)]),
        })
        .collect();
    let cfg = SimConfig {
        compute: ComputeModel {
            per_sample_core_secs: 0.01,
            ..Default::default()
        },
        telemetry: tl_telemetry::TelemetryConfig::events(),
        faults: plan,
        barrier_loss: loss,
        ..Default::default()
    };
    let topo = TopologySpec::SingleSwitch.build(4, cfg.link, cfg.core_capacity);
    let mut policy = tensorlights::FifoPolicy;
    let out = Simulation::new(cfg)
        .jobs(setups)
        .policy_ref(&mut policy)
        .run();
    (out, topo)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// On any seeded fault scenario, every completed job's decomposition
    /// sums exactly (integer nanoseconds) to its JCT, and the analyzer's
    /// internal blame totals match the wait components it reports.
    fn decomposition_conserves_on_random_scenarios(
        seed in 0u64..u64::MAX,
        intensity in 0.0f64..2.0,
        drop in 0u8..2,
        model_mb in 5u64..40,
    ) {
        let loss = if drop == 1 {
            BarrierLossPolicy::DropAndContinue
        } else {
            BarrierLossPolicy::StallUntilRecovery
        };
        let plan = FaultPlan::seeded(seed, intensity, 4, 2, 3.0);
        let (out, topo) = traced_run(plan, loss, model_mb);
        let completed = out.jobs.iter().filter(|j| j.completion.is_some()).count();
        let report = tl_analysis::explain(&out.telemetry.events, &topo);
        prop_assert_eq!(report.jobs.len(), completed, "one explanation per completed job");
        prop_assert!(report.check_conservation().is_ok(),
            "{}", report.check_conservation().unwrap_err());
        for j in &report.jobs {
            let blamed: u64 = j.blame.iter().map(|e| e.wait_ns).sum();
            prop_assert_eq!(blamed, j.breakdown.wait_ns(),
                "job {}: blame matrix must sum to the wait components", j.job);
            prop_assert!(!j.critical_path.is_empty());
        }
    }
}
