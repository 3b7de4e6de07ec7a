//! End-to-end smoke tests over the whole reproduction pipeline: every
//! experiment runs at quick scale and exhibits the paper's qualitative
//! shape.

use tl_cluster::Table1Index;
use tl_experiments::{
    config::ExperimentConfig, fig2, fig3, fig4, fig5, fig6, table1, SweepOptions,
};

#[test]
fn table1_is_the_paper_table() {
    let t = table1::run();
    let rendered = t.table().render();
    assert!(rendered.contains("5, 16"));
    assert!(rendered.contains("3, 3, 3, 3, 3, 3, 3"));
}

#[test]
fn fig2_shape_holds() {
    let cfg = ExperimentConfig::quick();
    let opts = SweepOptions::default();
    let f = fig2::run(
        &cfg,
        &[Table1Index(1), Table1Index(4), Table1Index(8)],
        &opts,
    );
    // Monotone trend: more colocation, worse mean JCT.
    assert!(f.rows[0].mean_jct > f.rows[1].mean_jct);
    assert!(f.rows[1].mean_jct >= f.rows[2].mean_jct * 0.95);
    assert!(f.gap_vs_best > 0.3, "gap {}", f.gap_vs_best);
}

#[test]
fn fig3_shape_holds() {
    let cfg = ExperimentConfig::quick();
    let f = fig3::run(&cfg, &SweepOptions::default());
    assert!(f.mean_ratio > 1.5 && f.mean_ratio < 10.0);
    assert!(f.var_ratio > 1.5 && f.var_ratio < 20.0);
}

#[test]
fn fig4_shape_holds() {
    let f = fig4::run(&fig4::Fig4Config::default());
    let fifo = &f.panels[0];
    let one = &f.panels[1];
    // The winning job halves its delivery time; the losing job is unharmed.
    assert!(one.job_done[0].1 < fifo.job_done[0].1 * 0.6);
    assert!(one.job_done[1].1 <= fifo.job_done[1].1 * 1.01);
}

#[test]
fn fig5a_shape_holds() {
    let cfg = ExperimentConfig::quick();
    let opts = SweepOptions::default();
    let f = fig5::run_5a(&cfg, &[Table1Index(1), Table1Index(6)], &opts);
    // Gains concentrate in the contended placement.
    assert!(f.rows[0].tls_one.mean < 0.85);
    assert!(f.rows[1].tls_one.mean > 0.9);
    // TLs never significantly hurts (work conservation).
    for r in &f.rows {
        assert!(r.tls_one.mean < 1.05, "#{} {}", r.x, r.tls_one.mean);
        assert!(r.tls_rr.mean < 1.05, "#{} {}", r.x, r.tls_rr.mean);
    }
}

#[test]
fn fig6_shape_holds() {
    let cfg = ExperimentConfig::quick();
    let f = fig6::run(&cfg, &SweepOptions::default());
    // Variance reduction is the headline; both TLs variants deliver it.
    assert!(f.var_mean_reduction.0 > 0.1);
    assert!(f.var_mean_reduction.1 > 0.1);
    assert!(f.var_median_reduction.0 > 0.1);
}
