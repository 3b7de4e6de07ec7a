//! One benchmark group per table/figure of the paper.
//!
//! Each group runs the corresponding experiment at a reduced scale (the
//! experiment *code paths* are identical; only the iteration count is
//! small) so `cargo bench` regenerates every artifact's pipeline and
//! reports its cost. For paper-shape output at meaningful scale, run the
//! `repro` binary instead.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;
use tl_cluster::Table1Index;
use tl_experiments::{
    config::ExperimentConfig, fig2, fig3, fig4, fig5, fig6, run_table1, table1, table2, PolicyKind,
    SweepOptions,
};

fn quick() -> ExperimentConfig {
    ExperimentConfig::scaled(12)
}

fn configure(g: &mut criterion::BenchmarkGroup<'_, criterion::measurement::WallTime>) {
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(8));
}

/// One full 21-job grid-search step — the workload the incremental
/// allocator targets. TLs-RR maximizes allocator churn (every rotation
/// interval re-bands a tag); FIFO is the low-churn contrast.
fn bench_grid_search(c: &mut Criterion) {
    let mut g = c.benchmark_group("grid_search");
    configure(&mut g);
    let cfg = quick();
    g.bench_function("21_jobs_fifo", |b| {
        b.iter(|| {
            let out = run_table1(&cfg, Table1Index(8), PolicyKind::Fifo);
            black_box(out.mean_jct_secs())
        });
    });
    g.bench_function("21_jobs_tls_rr", |b| {
        b.iter(|| {
            let out = run_table1(&cfg, Table1Index(8), PolicyKind::TlsRr);
            black_box(out.mean_jct_secs())
        });
    });
    g.finish();
}

fn bench_table1(c: &mut Criterion) {
    let mut g = c.benchmark_group("table1_placements");
    configure(&mut g);
    g.bench_function("generate", |b| {
        b.iter(|| black_box(table1::run().rows.len()));
    });
    g.finish();
}

fn bench_fig2(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig2_jct_placement");
    configure(&mut g);
    let cfg = quick();
    let opts = SweepOptions::default();
    g.bench_function("placements_1_and_8_fifo", |b| {
        b.iter(|| {
            let f = fig2::run(&cfg, &[Table1Index(1), Table1Index(8)], &opts);
            black_box(f.gap_vs_best)
        });
    });
    g.finish();
}

fn bench_fig3(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig3_barrier_wait");
    configure(&mut g);
    let cfg = quick();
    g.bench_function("wait_distributions", |b| {
        b.iter(|| {
            let f = fig3::run(&cfg, &SweepOptions::default());
            black_box((f.mean_ratio, f.var_ratio))
        });
    });
    g.finish();
}

fn bench_fig4(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig4_timeline");
    configure(&mut g);
    g.bench_function("chunk_level_panels", |b| {
        b.iter(|| {
            let f = fig4::run(&fig4::Fig4Config::default());
            black_box(f.panels.len())
        });
    });
    g.finish();
}

fn bench_fig5a(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig5a_normalized_jct");
    configure(&mut g);
    let cfg = quick();
    let opts = SweepOptions::default();
    g.bench_function("placements_1_and_8_all_policies", |b| {
        b.iter(|| {
            let f = fig5::run_5a(&cfg, &[Table1Index(1), Table1Index(8)], &opts);
            black_box(f.best_tls_one_improvement)
        });
    });
    g.finish();
}

fn bench_fig5b(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig5b_batch_sweep");
    configure(&mut g);
    let cfg = quick();
    g.bench_function("batches_2_and_8", |b| {
        b.iter(|| {
            let f = fig5::run_5b(&cfg, &[2, 8], &SweepOptions::default());
            black_box(f.best_tls_one_improvement)
        });
    });
    g.finish();
}

fn bench_fig6(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig6_straggler");
    configure(&mut g);
    let cfg = quick();
    g.bench_function("three_policies_at_placement_1", |b| {
        b.iter(|| {
            let f = fig6::run(&cfg, &SweepOptions::default());
            black_box(f.var_mean_reduction)
        });
    });
    g.finish();
}

fn bench_table2(c: &mut Criterion) {
    let mut g = c.benchmark_group("table2_utilization");
    configure(&mut g);
    let cfg = ExperimentConfig::scaled(20); // needs room for an active window
    g.bench_function("utilization_pipeline", |b| {
        b.iter(|| {
            let t = table2::run(&cfg, Table1Index(1), &SweepOptions::default())
                .expect("20 iterations leave a window");
            black_box(t.normalized.len())
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_grid_search,
    bench_table1,
    bench_fig2,
    bench_fig3,
    bench_fig4,
    bench_fig5a,
    bench_fig5b,
    bench_fig6,
    bench_table2
);
criterion_main!(benches);
