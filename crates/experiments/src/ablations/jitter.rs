//! TCP-unfairness (jitter) sensitivity.
//!
//! The straggler mechanism the paper describes requires *unequal* progress
//! among a burst's flows. This ablation sweeps the per-flow weight sigma:
//! with zero jitter all of a job's updates finish simultaneously and the
//! within-job variance vanishes; more jitter means more stragglers, and
//! TensorLights' relative advantage should persist across the range.

use crate::config::ExperimentConfig;
use crate::orchestrator::{run_sweep, SweepOptions};
use crate::report::Table;
use crate::runner::{run_table1, PolicyKind};
use serde::{Deserialize, Serialize};
use simcore::SampleSet;
use tl_cluster::Table1Index;

/// One jitter data point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JitterRow {
    /// Lognormal sigma of per-flow weights.
    pub sigma: f64,
    /// FIFO mean JCT (s).
    pub fifo_jct: f64,
    /// TLs-One mean JCT normalized over FIFO.
    pub tls_one_norm: f64,
    /// FIFO average per-barrier wait variance (straggler intensity).
    pub fifo_wait_variance: f64,
}

/// The ablation result.
#[derive(Debug, Serialize)]
pub struct JitterAblation {
    /// One row per sigma, ascending.
    pub rows: Vec<JitterRow>,
}

/// Sweep the jitter sigma at placement #1.
pub fn run(cfg: &ExperimentConfig, sigmas: &[f64], opts: &SweepOptions) -> JitterAblation {
    let cfg = cfg.clone();
    let rows = run_sweep(
        "ablate_jitter",
        &serde_json::to_string(&cfg).expect("config serializes"),
        opts,
        sigmas.to_vec(),
        |sigma| format!("sigma={sigma}"),
        move |sigma| {
            let mut c = cfg.clone();
            c.net_sigma = sigma;
            let fifo = run_table1(&c, Table1Index(1), PolicyKind::Fifo);
            let one = run_table1(&c, Table1Index(1), PolicyKind::TlsOne);
            assert!(fifo.all_complete() && one.all_complete());
            let mut vars = SampleSet::new();
            for j in &fifo.jobs {
                vars.extend_from(&j.barrier_vars);
            }
            JitterRow {
                sigma,
                fifo_jct: fifo.mean_jct_secs(),
                tls_one_norm: one.mean_jct_secs() / fifo.mean_jct_secs(),
                fifo_wait_variance: vars.mean(),
            }
        },
    )
    .expect_complete();
    JitterAblation { rows }
}

impl JitterAblation {
    /// Rendered table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Ablation: TCP-unfairness sigma (placement #1)",
            &["sigma", "FIFO JCT (s)", "TLs-One (norm.)", "FIFO wait var"],
        );
        for r in &self.rows {
            t.push_row(vec![
                format!("{:.2}", r.sigma),
                format!("{:.1}", r.fifo_jct),
                format!("{:.3}", r.tls_one_norm),
                format!("{:.5}", r.fifo_wait_variance),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jitter_drives_straggler_variance() {
        let cfg = ExperimentConfig::quick();
        let a = run(&cfg, &[0.0, 0.5], &SweepOptions::default());
        assert!(
            a.rows[1].fifo_wait_variance > a.rows[0].fifo_wait_variance * 2.0,
            "jitter raises variance: {} vs {}",
            a.rows[1].fifo_wait_variance,
            a.rows[0].fifo_wait_variance
        );
        // TLs still helps at both extremes (burst alignment exists with or
        // without jitter).
        for r in &a.rows {
            assert!(
                r.tls_one_norm < 1.0,
                "sigma {}: {}",
                r.sigma,
                r.tls_one_norm
            );
        }
        assert!(a.table().render().contains("sigma"));
    }
}
