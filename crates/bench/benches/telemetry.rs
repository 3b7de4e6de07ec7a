//! Overhead of the telemetry layer on the hot simulation loop.
//!
//! The contract is zero-cost-when-disabled: a grid-search run with
//! telemetry disabled must cost what the same run costs in the
//! repository benchmark, whose end-to-end baselines are the "Baselines"
//! tables of `crates/bench/src/bin/tl-benchmark/README.md` (within
//! noise). The enabled variants
//! quantify what full event capture and metrics sampling cost, so future
//! changes can't silently put allocations on the disabled path.

use criterion::{criterion_group, criterion_main, Criterion};
use simcore::SimDuration;
use std::hint::black_box;
use std::time::Duration;
use tl_cluster::{table1_placement, Table1Index};
use tl_experiments::{config::ExperimentConfig, run_grid_search_telemetry, PolicyKind};
use tl_telemetry::TelemetryConfig;

fn bench_telemetry_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("telemetry_overhead");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(8));
    let cfg = ExperimentConfig::scaled(12);
    let placement = table1_placement(Table1Index(8), 21, 21);
    let run = |telemetry: TelemetryConfig| {
        run_grid_search_telemetry(&cfg, &placement, PolicyKind::TlsRr, 4, None, telemetry)
    };
    g.bench_function("disabled", |b| {
        b.iter(|| black_box(run(TelemetryConfig::disabled()).mean_jct_secs()));
    });
    g.bench_function("events", |b| {
        b.iter(|| {
            let out = run(TelemetryConfig::events());
            black_box((out.mean_jct_secs(), out.telemetry.events.len()))
        });
    });
    g.bench_function("events_and_metrics", |b| {
        b.iter(|| {
            let out = run(TelemetryConfig::full(SimDuration::from_millis(100)));
            black_box((out.telemetry.events.len(), out.telemetry.metrics.len()))
        });
    });
    g.finish();
}

criterion_group!(benches, bench_telemetry_overhead);
criterion_main!(benches);
