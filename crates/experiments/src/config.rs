//! Calibrated experiment configuration.
//!
//! The simulator cannot (and need not) match the authors' absolute
//! wall-clock numbers — the goal is the paper's *shape*: who wins, by
//! roughly what factor, and where the crossovers fall. The constants here
//! are calibrated so that the paper-scale workload lands in the paper's
//! regime: iteration times of a couple of seconds, job lifetimes of
//! thousands of seconds (at full 1500-iteration scale), and network
//! contention at colocated PS hosts that is material but not the only cost.

use serde::{Deserialize, Serialize};
use simcore::{SimDuration, SimTime};
use tl_dl::{ComputeModel, SimConfig, TopologySpec, TrafficPattern};
use tl_net::Bandwidth;

/// Top-level knobs shared by every reproduction experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Synchronous iterations per job (the paper runs 1500; the default is
    /// scaled down — pass `--full` to the harness for paper scale).
    pub iterations: u64,
    /// Master seed.
    pub seed: u64,
    /// Per-sample compute cost (core-seconds).
    pub per_sample_core_secs: f64,
    /// Compute-time noise sigma.
    pub compute_sigma: f64,
    /// Per-flow weight lognormal sigma (TCP unfairness → stragglers).
    pub net_sigma: f64,
    /// TLs-RR rotation interval.
    pub rr_interval: SimDuration,
    /// Number of tc priority bands.
    pub num_bands: u8,
    /// Link speed.
    pub link_gbps: f64,
    /// Link graph the simulations run on (`repro --topology`); the paper's
    /// single non-blocking switch unless overridden.
    #[serde(default)]
    pub topology: TopologySpec,
    /// Run-wide traffic pattern (`repro --pattern`); the paper's PS star
    /// unless overridden.
    #[serde(default)]
    pub pattern: TrafficPattern,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self::scaled(300)
    }
}

impl ExperimentConfig {
    /// Config for a run of `iterations` synchronous iterations per job.
    ///
    /// The TLs-RR rotation interval is scaled with the run length so that
    /// the *number of rotations per job lifetime* matches the paper's
    /// (T = 20 s against ~1500 iterations); otherwise short scaled runs see
    /// too few rotations for TLs-RR to differ from TLs-One.
    pub fn scaled(iterations: u64) -> Self {
        ExperimentConfig {
            iterations,
            seed: 20190520, // IPPS 2019's opening day
            per_sample_core_secs: 0.15,
            compute_sigma: 0.08,
            net_sigma: 0.30,
            rr_interval: SimDuration::from_secs_f64(20.0 * iterations as f64 / 1500.0),
            num_bands: 6,
            link_gbps: 10.0,
            topology: TopologySpec::SingleSwitch,
            pattern: TrafficPattern::PsStar,
        }
    }

    /// Paper-scale config (1500 iterations, T = 20 s).
    pub fn full() -> Self {
        Self::scaled(1500)
    }

    /// Quick config for tests and benches.
    pub fn quick() -> Self {
        Self::scaled(30)
    }

    /// Build the simulator configuration (without an active window).
    pub fn sim_config(&self) -> SimConfig {
        SimConfig {
            link: Bandwidth::from_gbps(self.link_gbps),
            host_spec: tl_cluster::HostSpec::paper_testbed(),
            compute: ComputeModel {
                per_sample_core_secs: self.per_sample_core_secs,
                noise_sigma: self.compute_sigma,
                ..Default::default()
            },
            net_weight_sigma: self.net_sigma,
            seed: self.seed,
            active_window: None,
            max_sim_time: SimTime::from_secs(14 * 24 * 3600),
            telemetry: tl_telemetry::TelemetryConfig::disabled(),
            model_update_rate_cap: None,
            core_capacity: None,
            host_spec_overrides: Vec::new(),
            faults: tl_dl::FaultPlan::default(),
            retry: tl_dl::RetryConfig::default(),
            barrier_loss: tl_dl::BarrierLossPolicy::default(),
            topology: self.topology,
            pattern: self.pattern,
            ..SimConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_scaled_full_is_paper() {
        assert_eq!(ExperimentConfig::default().iterations, 300);
        assert_eq!(ExperimentConfig::full().iterations, 1500);
        assert!(ExperimentConfig::quick().iterations < 100);
    }

    #[test]
    fn sim_config_propagates_knobs() {
        let e = ExperimentConfig {
            seed: 7,
            net_sigma: 0.5,
            topology: TopologySpec::LeafSpine {
                racks: 3,
                hosts_per_rack: 7,
                oversub: 2.0,
            },
            pattern: TrafficPattern::Ring,
            ..Default::default()
        };
        let s = e.sim_config();
        assert_eq!(s.seed, 7);
        assert_eq!(s.net_weight_sigma, 0.5);
        assert!((s.link.gbps() - 10.0).abs() < 1e-9);
        assert_eq!(s.topology, e.topology);
        assert_eq!(s.pattern, TrafficPattern::Ring);
    }

    #[test]
    fn config_naming_removed_allocator_knobs_loads_with_them_ignored() {
        // Configs written while the allocator had two kernels carry
        // `alloc_kernel` and `par_min_component_flows`; configs written
        // while it had a worker pool carry `alloc_workers` and
        // `par_min_flows`. All four knobs are gone; such a file still
        // loads, and the stale fields change nothing.
        let current = serde_json::to_string(&ExperimentConfig::default()).unwrap();
        let old = current.replacen(
            '{',
            concat!(
                r#"{"alloc_kernel":"Bottleneck","par_min_component_flows":4096,"#,
                r#""alloc_workers":4,"par_min_flows":128,"#,
            ),
            1,
        );
        assert_ne!(old, current);
        let loaded: ExperimentConfig = serde_json::from_str(&old).expect("old config loads");
        assert_eq!(serde_json::to_string(&loaded).unwrap(), current);
    }
}
