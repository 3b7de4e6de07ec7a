//! Table II — normalized CPU and NIC utilization under placement #1.
//!
//! Paper methodology: utilization is averaged over an "active window" when
//! all concurrent jobs are active, then normalized over FIFO. "TLs-One
//! improves the average CPU utilization by 4% on the host supporting PS and
//! by 13% on the hosts supporting workers ... an improvement of 20% on both
//! the inbound and outbound directions."
//!
//! The window is chosen automatically: a first pass (no window) finds the
//! earliest job completion across all three policies; the measured window
//! then spans from just after the last launch to 90% of that minimum, so
//! every job is active throughout the window under every policy.

use crate::config::ExperimentConfig;
use crate::orchestrator::{run_sweep, SweepOptions};
use crate::report::{ratio, Table};
use crate::runner::{run_grid_search, run_table1, PolicyKind};
use serde::{Deserialize, Serialize};
use simcore::SimTime;
use std::fmt;
use tl_cluster::{mean_utilization, table1_placement, HostUtilization, Table1Index};

/// Utilization of one policy, split by host group.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table2Side {
    /// Policy label.
    pub label: String,
    /// Mean utilization of hosts carrying PSes.
    pub ps_hosts: HostUtilization,
    /// Mean utilization of worker-only hosts.
    pub worker_hosts: HostUtilization,
    /// Mean utilization of all hosts.
    pub all_hosts: HostUtilization,
}

/// The table: absolute and FIFO-normalized utilization.
#[derive(Debug, Serialize)]
pub struct Table2 {
    /// Active window used.
    pub window: (f64, f64),
    /// FIFO / TLs-One / TLs-RR measurements.
    pub sides: Vec<Table2Side>,
    /// Normalized rows: `(resource, host type, TLs-One×, TLs-RR×)`.
    pub normalized: Vec<(String, String, f64, f64)>,
}

/// Why Table II could not be measured.
#[derive(Debug, Clone, PartialEq)]
pub enum Table2Error {
    /// Some job finished so early that no window lies inside every job's
    /// run under every policy. Where the threshold falls depends on the
    /// seed; more iterations lengthen the runs.
    RunsTooShort {
        /// Start of the window (just after the last launch), seconds.
        start: f64,
        /// 90% of the earliest job completion, seconds.
        end: f64,
    },
}

impl fmt::Display for Table2Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Table2Error::RunsTooShort { start, end } => write!(
                f,
                "runs too short for an active window (the window would span \
                 {start:.3} s to {end:.3} s); increase iterations"
            ),
        }
    }
}

impl std::error::Error for Table2Error {}

/// Run Table II at the given placement (the paper uses #1).
pub fn run(
    cfg: &ExperimentConfig,
    index: Table1Index,
    opts: &SweepOptions,
) -> Result<Table2, Table2Error> {
    let key = |p: &PolicyKind| format!("policy={}", p.label());
    // Pass 1: find a window inside every policy's run.
    let probe_cfg = cfg.clone();
    let probes = run_sweep(
        "table2_probe",
        &format!(
            "cfg={};placement={}",
            serde_json::to_string(cfg).expect("config serializes"),
            index.0
        ),
        opts,
        PolicyKind::all().to_vec(),
        key,
        move |p| {
            let out = run_table1(&probe_cfg, index, p);
            assert!(out.all_complete());
            out.jobs
                .iter()
                .map(|j| j.completion.unwrap())
                .min()
                .expect("jobs present")
        },
    )
    .expect_complete();
    let min_completion = probes.into_iter().min().expect("three probes");
    let start = SimTime::from_secs_f64(2.2); // just after the last 0.1 s-staggered launch
    let end = SimTime::from_secs_f64(min_completion.as_secs_f64() * 0.9);
    if end <= start {
        return Err(Table2Error::RunsTooShort {
            start: start.as_secs_f64(),
            end: end.as_secs_f64(),
        });
    }

    // Pass 2: measure with the common window.
    let placement = table1_placement(index, 21, 21);
    let ps_hosts: Vec<usize> = placement
        .ps_colocation_counts()
        .keys()
        .map(|h| h.0 as usize)
        .collect();
    let worker_hosts: Vec<usize> = (0..21usize).filter(|h| !ps_hosts.contains(h)).collect();
    let all_hosts: Vec<usize> = (0..21).collect();

    let measure_cfg = cfg.clone();
    let sides = run_sweep(
        "table2",
        &format!(
            "cfg={};placement={};window={start:?}..{end:?}",
            serde_json::to_string(cfg).expect("config serializes"),
            index.0
        ),
        opts,
        PolicyKind::all().to_vec(),
        key,
        move |p| {
            let out = run_grid_search(&measure_cfg, &placement, p, 4, Some((start, end)));
            let util = out.utilization.expect("window inside the run");
            Table2Side {
                label: p.label().to_string(),
                ps_hosts: mean_utilization(&util, &ps_hosts),
                worker_hosts: mean_utilization(&util, &worker_hosts),
                all_hosts: mean_utilization(&util, &all_hosts),
            }
        },
    )
    .expect_complete();

    let fifo = sides[0].clone();
    let mut normalized = Vec::new();
    for (resource, get) in [
        (
            "CPU (PS hosts)",
            Box::new(|s: &Table2Side| s.ps_hosts.cpu) as Box<dyn Fn(&Table2Side) -> f64>,
        ),
        ("CPU (worker hosts)", Box::new(|s| s.worker_hosts.cpu)),
        ("Net inbound (all)", Box::new(|s| s.all_hosts.net_in)),
        ("Net outbound (all)", Box::new(|s| s.all_hosts.net_out)),
    ] {
        let base = get(&fifo);
        let parts: Vec<&str> = resource.splitn(2, " (").collect();
        normalized.push((
            parts[0].to_string(),
            parts[1].trim_end_matches(')').to_string(),
            get(&sides[1]) / base,
            get(&sides[2]) / base,
        ));
    }

    Ok(Table2 {
        window: (start.as_secs_f64(), end.as_secs_f64()),
        sides,
        normalized,
    })
}

impl Table2 {
    /// Paper-style rendering (normalized; larger is better).
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Table II: normalized utilization (vs FIFO, larger is better)",
            &["Resource", "Host type", "TLs-One", "TLs-RR"],
        );
        for (res, host, one, rr) in &self.normalized {
            t.push_row(vec![res.clone(), host.clone(), ratio(*one), ratio(*rr)]);
        }
        t
    }

    /// Summary vs the paper's headline numbers.
    pub fn summary(&self) -> String {
        format!(
            "TLs-One: CPU PS {}, CPU workers {}, net in {}, net out {} \
             [paper: 1.04x / 1.13x / 1.20x / 1.20x]",
            ratio(self.normalized[0].2),
            ratio(self.normalized[1].2),
            ratio(self.normalized[2].2),
            ratio(self.normalized[3].2),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tensorlights_improves_utilization() {
        let mut cfg = ExperimentConfig::quick();
        cfg.iterations = 60; // long enough for a meaningful window
        let t = run(&cfg, Table1Index(1), &SweepOptions::default())
            .expect("60 iterations leave a window");
        assert_eq!(t.sides.len(), 3);
        // Under heavy contention, TLs should not hurt utilization; network
        // utilization should improve.
        let (_, _, net_in_one, net_in_rr) = t.normalized[2];
        let (_, _, net_out_one, _) = t.normalized[3];
        assert!(net_in_one > 1.0, "net inbound TLs-One: {net_in_one}");
        assert!(net_in_rr > 1.0, "net inbound TLs-RR: {net_in_rr}");
        assert!(net_out_one > 1.0, "net outbound TLs-One: {net_out_one}");
        let (_, _, cpu_w_one, _) = t.normalized[1];
        assert!(cpu_w_one > 1.0, "worker CPU TLs-One: {cpu_w_one}");
        assert!(t.summary().contains("paper"));
        assert!(t.table().render().contains("TLs-RR"));
        assert!(t.window.1 > t.window.0);
    }

    #[test]
    fn runs_too_short_for_a_window_are_an_error() {
        let mut cfg = ExperimentConfig::quick();
        cfg.iterations = 2;
        let err = run(&cfg, Table1Index(1), &SweepOptions::default())
            .expect_err("two iterations end before the last launch");
        assert!(matches!(err, Table2Error::RunsTooShort { start, end } if end <= start));
        assert!(err
            .to_string()
            .contains("runs too short for an active window"));
    }
}
