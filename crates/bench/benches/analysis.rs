//! Overhead of the analysis layer and the engine self-profiler.
//!
//! The contract is zero-cost-when-disabled: `baseline` (no telemetry, no
//! profiler) must match `telemetry_overhead/disabled` from the
//! `telemetry` bench within noise — the profiler hooks on the event
//! queue, allocator, and handler loop compile down to a `None` check when
//! off (end-to-end baselines: the "Baselines" tables of
//! `crates/bench/src/bin/tl-benchmark/README.md`). `profile_on` prices those hooks when live, `events_and_explain`
//! prices full event capture plus a complete [`tl_analysis::explain`]
//! pass, and `explain_only` isolates the analyzer itself on a pre-captured
//! stream.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;
use tl_cluster::{table1_placement, Table1Index};
use tl_experiments::{config::ExperimentConfig, PolicyKind};
use tl_telemetry::TelemetryConfig;

fn run(cfg: &ExperimentConfig, profile: bool, telemetry: TelemetryConfig) -> tl_dl::SimOutput {
    let placement = table1_placement(Table1Index(8), 21, 21);
    let mut wl = tl_workloads::GridSearchConfig::paper_scaled(cfg.iterations);
    wl.local_batch_size = 4;
    let setups = wl.build(&placement);
    let mut policy = PolicyKind::TlsRr.build(cfg);
    tl_dl::Simulation::new(cfg.sim_config())
        .jobs(setups)
        .policy_ref(policy.as_mut())
        .telemetry(telemetry)
        .profile(profile)
        .run()
}

fn bench_analysis_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("analysis_overhead");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(8));
    let cfg = ExperimentConfig::scaled(12);
    let topo = tl_dl::TopologySpec::SingleSwitch.build(
        21,
        tl_net::Bandwidth::from_gbps(cfg.link_gbps),
        None,
    );
    g.bench_function("baseline", |b| {
        b.iter(|| black_box(run(&cfg, false, TelemetryConfig::disabled()).mean_jct_secs()));
    });
    g.bench_function("profile_on", |b| {
        b.iter(|| {
            let out = run(&cfg, true, TelemetryConfig::disabled());
            black_box((out.mean_jct_secs(), out.profile.is_some()))
        });
    });
    g.bench_function("events_and_explain", |b| {
        b.iter(|| {
            let out = run(&cfg, false, TelemetryConfig::events());
            let report = tl_analysis::explain(&out.telemetry.events, &topo);
            black_box(report.jobs.len())
        });
    });
    let events = run(&cfg, false, TelemetryConfig::events()).telemetry.events;
    g.bench_function("explain_only", |b| {
        b.iter(|| black_box(tl_analysis::explain(black_box(&events), &topo).jobs.len()));
    });
    g.finish();
}

criterion_group!(benches, bench_analysis_overhead);
criterion_main!(benches);
