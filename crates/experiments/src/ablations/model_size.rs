//! Model-size sweep: TLs benefit vs update size.
//!
//! The paper's §V closes with: recent trends (more workers, accelerators,
//! larger exchanges per iteration) "would lead to even heavier contention".
//! This ablation scales the model-update size from well below to well above
//! the ResNet-32 workload and measures FIFO's degradation and TensorLights'
//! advantage.

use crate::config::ExperimentConfig;
use crate::orchestrator::{run_sweep, SweepOptions};
use crate::report::Table;
use serde::{Deserialize, Serialize};
use tensorlights::{FifoPolicy, JobOrdering, PriorityPolicy, TlsOne};
use tl_cluster::{table1_placement, Table1Index};
use tl_dl::{ModelSpec, Simulation};
use tl_workloads::GridSearchConfig;

/// One model-size data point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelSizeRow {
    /// Update size in megabytes.
    pub update_mb: u64,
    /// FIFO mean JCT (s).
    pub fifo_jct: f64,
    /// TLs-One mean JCT normalized over FIFO.
    pub tls_one_norm: f64,
}

/// The ablation result.
#[derive(Debug, Serialize)]
pub struct ModelSizeAblation {
    /// One row per size, ascending.
    pub rows: Vec<ModelSizeRow>,
}

/// Sweep synthetic update sizes at placement #1.
pub fn run(cfg: &ExperimentConfig, sizes_mb: &[u64], opts: &SweepOptions) -> ModelSizeAblation {
    let cfg = cfg.clone();
    let rows = run_sweep(
        "ablate_model_size",
        &serde_json::to_string(&cfg).expect("config serializes"),
        opts,
        sizes_mb.to_vec(),
        |mb| format!("update_mb={mb}"),
        move |mb| {
            let placement = table1_placement(Table1Index(1), 21, 21);
            let mut wl = GridSearchConfig::paper_scaled(cfg.iterations);
            wl.model = ModelSpec::synthetic_mb(mb);
            let mut fifo = FifoPolicy;
            let base = Simulation::new(cfg.sim_config())
                .jobs(wl.build(&placement))
                .policy_ref(&mut fifo)
                .run();
            let mut one: Box<dyn PriorityPolicy + Send> = Box::new(
                TlsOne::new(JobOrdering::Random { seed: cfg.seed }).with_bands(cfg.num_bands),
            );
            let tls = Simulation::new(cfg.sim_config())
                .jobs(wl.build(&placement))
                .policy_ref(one.as_mut())
                .run();
            assert!(base.all_complete() && tls.all_complete());
            ModelSizeRow {
                update_mb: mb,
                fifo_jct: base.mean_jct_secs(),
                tls_one_norm: tls.mean_jct_secs() / base.mean_jct_secs(),
            }
        },
    )
    .expect_complete();
    ModelSizeAblation { rows }
}

impl ModelSizeAblation {
    /// Rendered table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Ablation: model update size (placement #1)",
            &["Update (MB)", "FIFO JCT (s)", "TLs-One (norm.)"],
        );
        for r in &self.rows {
            t.push_row(vec![
                r.update_mb.to_string(),
                format!("{:.1}", r.fifo_jct),
                format!("{:.3}", r.tls_one_norm),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bigger_models_contend_more() {
        let cfg = ExperimentConfig::quick();
        let a = run(&cfg, &[1, 8], &SweepOptions::default());
        assert!(a.rows[1].fifo_jct > a.rows[0].fifo_jct, "bigger = slower");
        assert!(
            a.rows[1].tls_one_norm < a.rows[0].tls_one_norm,
            "bigger = more TLs benefit: {:.3} vs {:.3}",
            a.rows[1].tls_one_norm,
            a.rows[0].tls_one_norm
        );
        assert!(a.table().render().contains("Update (MB)"));
    }
}
