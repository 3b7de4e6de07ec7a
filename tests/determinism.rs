//! Full-stack determinism: identical configurations produce bit-identical
//! results, and the randomness that exists is exactly the seeded kind.

use tl_cluster::{table1_placement, Table1Index};
use tl_experiments::{
    run_grid_search, run_grid_search_telemetry, ExperimentConfig, PolicyKind,
};

fn jcts(cfg: &ExperimentConfig, policy: PolicyKind) -> Vec<f64> {
    let placement = table1_placement(Table1Index(2), 21, 21);
    let out = run_grid_search(cfg, &placement, policy, 4, None);
    assert!(out.all_complete());
    out.jobs.iter().map(|j| j.jct_secs().unwrap()).collect()
}

#[test]
fn same_seed_same_results_across_policies() {
    let cfg = ExperimentConfig::quick();
    for policy in PolicyKind::all() {
        let a = jcts(&cfg, policy);
        let b = jcts(&cfg, policy);
        assert_eq!(a, b, "{policy:?} not deterministic");
    }
}

#[test]
fn different_seed_different_results() {
    let a = jcts(&ExperimentConfig::quick(), PolicyKind::Fifo);
    let mut cfg = ExperimentConfig::quick();
    cfg.seed ^= 0xDEAD_BEEF;
    let b = jcts(&cfg, PolicyKind::Fifo);
    assert_ne!(a, b);
}

#[test]
fn policies_actually_differ_under_contention() {
    let cfg = ExperimentConfig::quick();
    let placement = table1_placement(Table1Index(1), 21, 21);
    let fifo = run_grid_search(&cfg, &placement, PolicyKind::Fifo, 4, None);
    let one = run_grid_search(&cfg, &placement, PolicyKind::TlsOne, 4, None);
    assert!(
        one.mean_jct_secs() < fifo.mean_jct_secs(),
        "TLs-One must beat FIFO at placement #1"
    );
}

#[test]
fn telemetry_export_is_byte_identical() {
    // Two same-seed instrumented runs must serialize to exactly the same
    // bytes across every exporter — events in emission order, metrics in
    // registration order, deterministic float rendering throughout.
    let cfg = ExperimentConfig::quick();
    let placement = table1_placement(Table1Index(2), 21, 21);
    let run = || {
        run_grid_search_telemetry(
            &cfg,
            &placement,
            PolicyKind::TlsRr,
            4,
            None,
            tensorlights_suite::telemetry::TelemetryConfig::full(
                simcore::SimDuration::from_millis(100),
            ),
        )
    };
    let a = run().telemetry;
    let b = run().telemetry;
    assert!(!a.events.is_empty(), "instrumented run emitted events");
    assert!(!a.metrics.is_empty(), "instrumented run sampled metrics");
    assert_eq!(a.to_jsonl(), b.to_jsonl());
    assert_eq!(a.to_chrome_trace(), b.to_chrome_trace());
    assert_eq!(a.metrics_json(), b.metrics_json());
}

#[test]
fn barrier_accounting_is_exact() {
    // Every job observes exactly iterations-1 complete barriers, each with
    // one wait sample per worker.
    let cfg = ExperimentConfig::quick();
    let placement = table1_placement(Table1Index(3), 21, 21);
    let out = run_grid_search(&cfg, &placement, PolicyKind::TlsRr, 4, None);
    for j in &out.jobs {
        let barriers = (cfg.iterations - 1) as usize;
        assert_eq!(j.barrier_means.len(), barriers);
        assert_eq!(j.barrier_vars.len(), barriers);
        assert_eq!(j.waits.len(), barriers * 20);
        assert_eq!(j.global_steps, cfg.iterations * 20);
    }
}

// ---- fault-injection determinism -----------------------------------------

use proptest::prelude::*;
use simcore::SimTime;
use tl_cluster::JobPlacement;
use tl_dl::{
    BarrierLossPolicy, ComputeModel, FaultPlan, JobId, JobSpec, ModelSpec, SimConfig, SimOutput,
    Simulation, TrainingMode,
};
use tl_net::HostId;

/// A small instrumented 2-job scenario for fault-replay checks (full grid
/// search is too heavy to replay hundreds of times under proptest).
fn faulted_run(plan: FaultPlan, loss: BarrierLossPolicy) -> SimOutput {
    let setups: Vec<tl_dl::engine::JobSetup> = (0..2u32)
        .map(|id| tl_dl::engine::JobSetup {
            spec: JobSpec {
                id: JobId(id),
                model: ModelSpec::synthetic_mb(20),
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
    let mut policy = tensorlights::FifoPolicy;
    Simulation::new(cfg)
        .jobs(setups)
        .policy_ref(&mut policy)
        .run()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any seeded fault plan, replayed with the same seed, yields
    /// byte-identical telemetry exports — fault handling introduces no
    /// hidden nondeterminism (iteration order, float noise, map ordering).
    fn seeded_fault_plan_replays_byte_identically(
        seed in 0u64..u64::MAX,
        intensity in 0.0f64..2.5,
        drop in 0u8..2,
    ) {
        let loss = if drop == 1 {
            BarrierLossPolicy::DropAndContinue
        } else {
            BarrierLossPolicy::StallUntilRecovery
        };
        let plan = FaultPlan::seeded(seed, intensity, 4, 2, 3.0);
        let a = faulted_run(plan.clone(), loss).telemetry;
        let b = faulted_run(plan, loss).telemetry;
        prop_assert!(!a.events.is_empty());
        prop_assert_eq!(a.to_jsonl(), b.to_jsonl());
        prop_assert_eq!(a.to_chrome_trace(), b.to_chrome_trace());
    }
}

#[test]
fn idle_host_crash_and_recover_is_a_jct_noop() {
    // Host 4 exists (one placement names it) but carries no work while it
    // is down: job 1 launches long after the crash has healed. Fault
    // handling must not perturb either job's completion time.
    let mk = |plan: FaultPlan| {
        let mut setups: Vec<tl_dl::engine::JobSetup> = (0..2u32)
            .map(|id| tl_dl::engine::JobSetup {
                spec: JobSpec {
                    id: JobId(id),
                    model: ModelSpec::synthetic_mb(20),
                    num_workers: 3,
                    local_batch_size: 4,
                    target_global_steps: 8 * 3,
                    mode: TrainingMode::Synchronous,
                    launch_time: SimTime::ZERO,
                    ps_port: 2222 + id as u16,
                    pattern: None,
                },
                placement: JobPlacement::new(HostId(0), vec![HostId(1), HostId(2), HostId(3)]),
            })
            .collect();
        setups[1].spec.launch_time = SimTime::from_secs(300);
        setups[1].placement = JobPlacement::new(HostId(4), vec![HostId(1), HostId(2), HostId(3)]);
        let cfg = SimConfig {
            compute: ComputeModel {
                per_sample_core_secs: 0.01,
                ..Default::default()
            },
            faults: plan,
            ..Default::default()
        };
        let mut policy = tensorlights::FifoPolicy;
        Simulation::new(cfg)
            .jobs(setups)
            .policy_ref(&mut policy)
            .run()
    };
    let healthy = mk(FaultPlan::default());
    let crashed = mk(FaultPlan {
        faults: vec![tl_faults::FaultSpec::HostCrash {
            host: 4,
            at_secs: 0.5,
            downtime_secs: 1.0,
        }],
    });
    assert!(healthy.all_complete() && crashed.all_complete());
    for (a, b) in healthy.jobs.iter().zip(&crashed.jobs) {
        assert_eq!(
            a.completion, b.completion,
            "crash of an unused host must not move any completion"
        );
    }
}
