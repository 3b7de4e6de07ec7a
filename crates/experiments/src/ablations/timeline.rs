//! NIC utilization over time: the burstiness mechanism, made visible.
//!
//! The paper's Observation #1 attributes FIFO's losses to *bursty* model
//! updates: "the PS will wait for the gradient updates from all workers and
//! then send out model updates to all workers at once", so overlapping
//! bursts produce heavy delays while the link idles in between. This
//! extension samples the PS-host egress utilization over time at placement
//! #1: under FIFO the phase-locked jobs drive the NIC in on/off bursts;
//! under TLs-One the staircased priorities pipeline the bursts into a
//! near-steady stream.

use crate::config::ExperimentConfig;
use crate::orchestrator::{run_sweep, SweepOptions};
use crate::report::Table;
use crate::runner::PolicyKind;
use serde::{Deserialize, Serialize};
use simcore::{SampleSet, SimDuration};
use tl_cluster::{table1_placement, Table1Index};
use tl_dl::Simulation;
use tl_telemetry::TelemetryConfig;
use tl_workloads::GridSearchConfig;

/// One policy's egress-utilization time series at the PS host.
#[derive(Debug, Serialize, Deserialize)]
pub struct TimelineSide {
    /// Policy label.
    pub label: String,
    /// `(seconds, PS-host egress utilization)` samples.
    pub series: Vec<(f64, f64)>,
    /// Mean utilization while any job runs.
    pub mean: f64,
    /// Coefficient of variation (stddev/mean) — burstiness.
    pub burstiness: f64,
}

/// The timeline comparison.
#[derive(Debug, Serialize)]
pub struct TimelineStudy {
    /// FIFO and TLs-One sides.
    pub sides: Vec<TimelineSide>,
}

/// Sample the PS-host (host 0) egress under FIFO and TLs-One.
pub fn run(cfg: &ExperimentConfig, sample_ms: u64, opts: &SweepOptions) -> TimelineStudy {
    let cfg = cfg.clone();
    let sides = run_sweep(
        "ablate_timeline",
        &format!(
            "cfg={};sample_ms={sample_ms}",
            serde_json::to_string(&cfg).expect("config serializes")
        ),
        opts,
        vec![PolicyKind::Fifo, PolicyKind::TlsOne],
        |policy| format!("policy={}", policy.label()),
        move |policy| {
            let placement = table1_placement(Table1Index(1), 21, 21);
            let setups = GridSearchConfig::paper_scaled(cfg.iterations).build(&placement);
            let mut sim_cfg = cfg.sim_config();
            sim_cfg.telemetry = TelemetryConfig::metrics(SimDuration::from_millis(sample_ms));
            let mut p = policy.build(&cfg);
            let out = Simulation::new(sim_cfg)
                .jobs(setups)
                .policy_ref(p.as_mut())
                .run();
            assert!(out.all_complete());
            // Utilization gauges start one tick in, once an interval lies
            // behind the sample.
            let reg = &out.telemetry.metrics;
            let series: Vec<(f64, f64)> = reg
                .lookup("host0.net_out")
                .map_or(&[][..], |id| reg.series(id))
                .iter()
                .map(|&(at, u)| (at.as_secs_f64(), u))
                .collect();
            let mut stats = SampleSet::new();
            for &(_, u) in &series {
                stats.push(u);
            }
            let mean = stats.mean();
            TimelineSide {
                label: policy.label().to_string(),
                burstiness: if mean > 0.0 {
                    stats.variance().sqrt() / mean
                } else {
                    0.0
                },
                mean,
                series,
            }
        },
    )
    .expect_complete();
    TimelineStudy { sides }
}

impl TimelineStudy {
    /// Rendered table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Extension: PS-host egress utilization over time (placement #1)",
            &["Policy", "mean utilization", "burstiness (CV)"],
        );
        for s in &self.sides {
            t.push_row(vec![
                s.label.to_string(),
                format!("{:.3}", s.mean),
                format!("{:.3}", s.burstiness),
            ]);
        }
        t
    }

    /// ASCII strip of the utilization level over time for each policy
    /// (`.:-=#` from idle to saturated), clipped to the first `cols`
    /// samples.
    pub fn ascii(&self, cols: usize) -> String {
        let glyph = |u: f64| match (u * 5.0) as u32 {
            0 => '.',
            1 => ':',
            2 => '-',
            3 => '=',
            _ => '#',
        };
        let mut out = String::from("PS egress utilization over time (. idle -> # saturated):\n");
        for s in &self.sides {
            let strip: String = s.series.iter().take(cols).map(|&(_, u)| glyph(u)).collect();
            out.push_str(&format!("  {:8} |{strip}|\n", s.label));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_is_burstier_tls_is_fuller() {
        let mut cfg = ExperimentConfig::quick();
        cfg.iterations = 40;
        let s = run(&cfg, 300, &SweepOptions::default());
        let fifo = &s.sides[0];
        let tls = &s.sides[1];
        assert!(fifo.series.len() > 10);
        assert!(
            tls.mean > fifo.mean,
            "TLs keeps the NIC busier: {:.3} vs {:.3}",
            tls.mean,
            fifo.mean
        );
        assert!(
            fifo.burstiness > tls.burstiness,
            "FIFO is burstier: {:.3} vs {:.3}",
            fifo.burstiness,
            tls.burstiness
        );
        let a = s.ascii(60);
        assert!(a.contains("FIFO") && a.contains("TLs-One"));
        assert!(s.table().render().contains("burstiness"));
    }

    #[test]
    fn series_starts_one_interval_in() {
        // Utilization averages over the interval behind a tick, so the
        // series starts at the second tick and keeps the cadence.
        let mut cfg = ExperimentConfig::quick();
        cfg.iterations = 10;
        let s = run(&cfg, 250, &SweepOptions::default());
        for side in &s.sides {
            let times: Vec<f64> = side.series.iter().map(|&(t, _)| t).collect();
            assert!(times.len() >= 2, "{}: {} samples", side.label, times.len());
            assert_eq!(times[0], 0.5, "{}", side.label);
            assert!(times.windows(2).all(|w| (w[1] - w[0] - 0.25).abs() < 1e-9));
            assert!(side.series.iter().all(|&(_, u)| (-1e-9..=1.0 + 1e-9).contains(&u)));
        }
    }
}
