//! Explain — per-job JCT decomposition, blame attribution, and critical
//! paths for the fabric workload.
//!
//! Not from the paper: the other experiments report *that* a policy or a
//! fabric changes JCT; this one reports *why*. Each cell reruns the
//! cross-rack fabric workload (see [`crate::fabric`]) with structured
//! telemetry on, feeds the event stream through [`tl_analysis::explain`],
//! and publishes every job's integer-nanosecond decomposition (compute /
//! exclusive network / contention / band throttle / barrier / fault
//! recovery), its blame matrix (which competitor on which link), and its
//! critical path. Every decomposition is conservation-checked: the
//! components must sum exactly to the JCT or the run panics.
//!
//! Three cells bracket the story: a non-blocking fabric (1:1 FIFO), the
//! oversubscribed fabric (4:1 FIFO — where does the extra time go?), and
//! the oversubscribed fabric under TLs-One (contention wait converted to
//! band throttling of the losers).

use crate::config::ExperimentConfig;
use crate::fabric::{HOSTS_PER_RACK, RACKS};
use crate::orchestrator::{self, CellRecord, SweepOptions};
use crate::report::Table;
use crate::runner::PolicyKind;
use serde::{Deserialize, Serialize};
use tl_analysis::AnalysisReport;
use tl_cluster::grouped_placement;
use tl_dl::{Simulation, TopologySpec, TrafficPattern};
use tl_telemetry::TelemetryConfig;
use tl_workloads::GridSearchConfig;

/// Concurrent jobs per cell (mirrors the fabric sweep).
const NUM_JOBS: u32 = 6;
/// Workers per job, spread round-robin over all hosts.
const WORKERS_PER_JOB: u32 = 6;
/// Model update size per job, MB (network-heavy by design).
const MODEL_MB: u64 = 64;
/// Synchronous iterations per job in a full run.
const ITERS: u64 = 30;
/// Iterations in the `--quick` smoke run.
const QUICK_ITERS: u64 = 4;

/// The (oversubscription, policy) cells the experiment explains, in
/// report order: non-blocking baseline, the oversubscribed fabric, and
/// the oversubscribed fabric under TLs-One.
pub const CELLS: [(f64, PolicyKind); 3] = [
    (1.0, PolicyKind::Fifo),
    (4.0, PolicyKind::Fifo),
    (4.0, PolicyKind::TlsOne),
];

/// One explained cell: the workload's run parameters plus the analyzer's
/// full per-job output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExplainCell {
    /// Fabric oversubscription ratio.
    pub oversub: f64,
    /// Policy label.
    pub policy: String,
    /// Mean JCT over the cell's jobs, seconds.
    pub mean_jct: f64,
    /// Per-job decomposition, blame matrix, and critical paths.
    pub report: AnalysisReport,
}

/// The whole experiment: one [`ExplainCell`] per entry of [`CELLS`].
#[derive(Debug, Serialize)]
pub struct ExplainResult {
    /// Topology shape every cell ran on.
    pub topology: String,
    /// Iterations per job in every cell.
    pub iterations: u64,
    /// One explained cell per [`CELLS`] entry, in order.
    pub cells: Vec<ExplainCell>,
}

/// Run one cell with telemetry on and explain every job. Panics if any
/// job's decomposition fails conservation — that is an analyzer bug, not
/// a data artifact. Public so tests can pin single cells.
pub fn run_cell(cfg: &ExperimentConfig, oversub: f64, policy: PolicyKind) -> ExplainCell {
    let hosts = RACKS * HOSTS_PER_RACK;
    let placement = grouped_placement(hosts, WORKERS_PER_JOB, &[2; (NUM_JOBS / 2) as usize]);
    let mut wl = GridSearchConfig::paper_scaled(cfg.iterations);
    wl.num_jobs = NUM_JOBS;
    wl.workers_per_job = WORKERS_PER_JOB;
    wl.target_global_steps = cfg.iterations * WORKERS_PER_JOB as u64;
    wl.model = tl_dl::ModelSpec::synthetic_mb(MODEL_MB);
    let setups = wl.build(&placement);
    let cell_cfg = ExperimentConfig {
        per_sample_core_secs: 0.02,
        ..cfg.clone()
    };
    let spec = TopologySpec::LeafSpine {
        racks: RACKS,
        hosts_per_rack: HOSTS_PER_RACK,
        oversub,
    };
    let mut policy_impl = policy.build(&cell_cfg);
    let sim_cfg = cell_cfg.sim_config();
    // The analyzer resolves routes and capacities itself, so it needs the
    // same topology the engine built for this cell.
    let topo = spec.build(hosts as usize, sim_cfg.link, sim_cfg.core_capacity);
    let out = Simulation::new(sim_cfg)
        .topology(spec)
        .pattern(TrafficPattern::PsStar)
        .jobs(setups)
        .policy_ref(policy_impl.as_mut())
        .telemetry(TelemetryConfig::events())
        .run();
    let report = tl_analysis::explain(&out.telemetry.events, &topo);
    report
        .check_conservation()
        .unwrap_or_else(|e| panic!("explain cell {oversub}:1/{}: {e}", policy.label()));
    assert_eq!(
        report.jobs.len(),
        NUM_JOBS as usize,
        "explain cell {oversub}:1/{}: not every job completed",
        policy.label()
    );
    ExplainCell {
        oversub,
        policy: policy.label().to_string(),
        mean_jct: out.mean_jct_secs(),
        report,
    }
}

/// Run every cell of [`CELLS`]. `quick` drops to a smoke-test iteration
/// count. `workers` forces the sweep's thread count (for determinism
/// tests); pass `None` for one worker per core. Panics if any cell
/// fails; `repro` uses [`run_with`] and degrades instead.
pub fn run_with_workers(
    cfg: &ExperimentConfig,
    quick: bool,
    workers: Option<usize>,
) -> ExplainResult {
    let opts = SweepOptions {
        workers,
        ..SweepOptions::ephemeral()
    };
    let (result, records) = run_with(cfg, quick, &opts);
    if let Some(bad) = records.iter().find(|c| !c.outcome.is_ok()) {
        panic!("explain cell {} — {}", bad.label, bad.outcome);
    }
    result
}

/// Run every cell of [`CELLS`] with the default worker pool.
pub fn run(cfg: &ExperimentConfig, quick: bool) -> ExplainResult {
    run_with_workers(cfg, quick, None)
}

/// The explain cells through the crash-safe orchestrator: per-cell
/// isolation, optional checkpoint ledger, and the per-cell audit trail.
pub fn run_with(
    cfg: &ExperimentConfig,
    quick: bool,
    opts: &SweepOptions,
) -> (ExplainResult, Vec<CellRecord>) {
    let cell_cfg = ExperimentConfig {
        iterations: if quick { QUICK_ITERS } else { ITERS },
        ..cfg.clone()
    };
    let context = format!(
        "cfg={};jobs={NUM_JOBS};workers={WORKERS_PER_JOB};model_mb={MODEL_MB}",
        serde_json::to_string(&cell_cfg).expect("config serializes"),
    );
    let run_cfg = cell_cfg.clone();
    let out = orchestrator::run_sweep(
        "explain",
        &context,
        opts,
        CELLS.to_vec(),
        |(oversub, policy)| format!("oversub={oversub},policy={}", policy.label()),
        move |(oversub, policy)| run_cell(&run_cfg, oversub, policy),
    );
    (
        ExplainResult {
            topology: format!("leaf-spine:{RACKS}x{HOSTS_PER_RACK}"),
            iterations: cell_cfg.iterations,
            cells: out.rows,
        },
        out.cells,
    )
}

/// Run one instrumented simulation (the 4:1 TLs-One cell) with the
/// engine's self-profiler on and return the per-subsystem wall-time
/// report plus the allocator's counters (so kernel-level regressions —
/// freeze rounds, heap pops, stale-key skips — are diagnosable alongside
/// the wall-time shares). Wall-clock values vary run to run; the report
/// *shape* (slots, counts) and the allocator counters are deterministic.
pub fn profile_cell(
    cfg: &ExperimentConfig,
    quick: bool,
) -> (simcore::ProfileReport, tl_net::AllocStats) {
    let cell_cfg = ExperimentConfig {
        iterations: if quick { QUICK_ITERS } else { ITERS },
        per_sample_core_secs: 0.02,
        ..cfg.clone()
    };
    let hosts = RACKS * HOSTS_PER_RACK;
    let placement = grouped_placement(hosts, WORKERS_PER_JOB, &[2; (NUM_JOBS / 2) as usize]);
    let mut wl = GridSearchConfig::paper_scaled(cell_cfg.iterations);
    wl.num_jobs = NUM_JOBS;
    wl.workers_per_job = WORKERS_PER_JOB;
    wl.target_global_steps = cell_cfg.iterations * WORKERS_PER_JOB as u64;
    wl.model = tl_dl::ModelSpec::synthetic_mb(MODEL_MB);
    let setups = wl.build(&placement);
    let mut policy_impl = PolicyKind::TlsOne.build(&cell_cfg);
    let out = Simulation::new(cell_cfg.sim_config())
        .topology(TopologySpec::LeafSpine {
            racks: RACKS,
            hosts_per_rack: HOSTS_PER_RACK,
            oversub: 4.0,
        })
        .pattern(TrafficPattern::PsStar)
        .jobs(setups)
        .policy_ref(policy_impl.as_mut())
        // Events on so the telemetry sink shows up as a profiled
        // subsystem rather than a zero-cost no-op.
        .telemetry(TelemetryConfig::events())
        .profile(true)
        .run();
    let report = out.profile.expect("profile(true) run returns a report");
    (report, out.alloc_stats)
}

impl ExplainResult {
    /// The cell for `(oversub, policy)`, or `None` when it failed or was
    /// skipped in a degraded sweep.
    pub fn try_cell(&self, oversub: f64, policy: &str) -> Option<&ExplainCell> {
        self.cells
            .iter()
            .find(|c| c.oversub == oversub && c.policy == policy)
    }

    /// The cell for `(oversub, policy)`; panics when it is missing.
    pub fn cell(&self, oversub: f64, policy: &str) -> &ExplainCell {
        self.try_cell(oversub, policy)
            .unwrap_or_else(|| panic!("missing explain cell {oversub}/{policy}"))
    }

    /// Render the per-job decompositions as a report table: one row per
    /// (cell, job), components as percentages of that job's JCT, plus the
    /// job's top blame entry.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "Explain: JCT decomposition on {} ({} jobs x {} workers, ps-star)",
                self.topology, NUM_JOBS, WORKERS_PER_JOB
            ),
            &[
                "oversub", "policy", "job", "JCT (s)", "comp%", "excl%", "cont%", "thr%",
                "barr%", "other%", "top blame",
            ],
        );
        for c in &self.cells {
            for j in &c.report.jobs {
                let pct = |v: u64| {
                    if j.jct_ns == 0 {
                        0.0
                    } else {
                        100.0 * v as f64 / j.jct_ns as f64
                    }
                };
                let b = &j.breakdown;
                let top = j
                    .blame
                    .first()
                    .map(|e| format!("job{}@{} {:.1}s", e.job, e.link, e.wait_ns as f64 / 1e9))
                    .unwrap_or_else(|| "-".to_string());
                t.push_row(vec![
                    format!("{}:1", c.oversub),
                    c.policy.to_string(),
                    format!("{}", j.job),
                    format!("{:.1}", j.jct_ns as f64 / 1e9),
                    format!("{:.1}", pct(b.compute_ns)),
                    format!("{:.1}", pct(b.net_exclusive_ns)),
                    format!("{:.1}", pct(b.net_contention_ns)),
                    format!("{:.1}", pct(b.band_throttle_ns)),
                    format!("{:.1}", pct(b.barrier_wait_ns)),
                    format!("{:.1}", pct(b.fault_recovery_ns + b.other_ns)),
                    top,
                ]);
            }
        }
        t
    }

    /// Mean share (percent of JCT, averaged over a cell's jobs) of the
    /// summed components selected by `f`; `None` when the cell is missing.
    fn mean_share(
        &self,
        oversub: f64,
        policy: &str,
        f: impl Fn(&tl_analysis::JctBreakdown) -> u64,
    ) -> Option<f64> {
        let c = self.try_cell(oversub, policy)?;
        let shares: Vec<f64> = c
            .report
            .jobs
            .iter()
            .filter(|j| j.jct_ns > 0)
            .map(|j| 100.0 * f(&j.breakdown) as f64 / j.jct_ns as f64)
            .collect();
        Some(shares.iter().sum::<f64>() / shares.len().max(1) as f64)
    }

    /// Headline: where the 4:1 oversubscription penalty goes, and how
    /// TLs-One re-labels it. Cells missing from a degraded sweep render
    /// as `n/a`.
    pub fn summary(&self) -> String {
        let slow = match (self.try_cell(4.0, "FIFO"), self.try_cell(1.0, "FIFO")) {
            (Some(t), Some(f)) if f.mean_jct > 0.0 => format!("{:.2}x", t.mean_jct / f.mean_jct),
            _ => "n/a".to_string(),
        };
        let pct = |v: Option<f64>| match v {
            Some(v) => format!("{v:.0}%"),
            None => "n/a".to_string(),
        };
        let wait = |o, p| self.mean_share(o, p, |b| b.net_contention_ns + b.band_throttle_ns);
        let thr = |o, p| self.mean_share(o, p, |b| b.band_throttle_ns);
        format!(
            "explain: 4:1 ps-star FIFO is {slow} the non-blocking JCT; the \
             decomposition attributes {} of JCT to waiting on competitors \
             at 4:1 vs {} at 1:1; under TLs-One {} of JCT is explicit \
             band throttling (vs {} under FIFO) \
             [analysis extension: no paper counterpart]",
            pct(wait(4.0, "FIFO")),
            pct(wait(1.0, "FIFO")),
            pct(thr(4.0, "TLs-One")),
            pct(thr(4.0, "FIFO")),
        )
    }

    /// Full human-readable report: every cell's per-job decomposition,
    /// blame matrix, and critical-path summary.
    pub fn report_text(&self) -> String {
        let mut out = String::new();
        for c in &self.cells {
            out.push_str(&format!(
                "== cell {}:1 {} (mean JCT {:.1}s) ==\n{}",
                c.oversub,
                c.policy,
                c.mean_jct,
                c.report.render()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ExperimentConfig {
        ExperimentConfig {
            iterations: 3,
            ..ExperimentConfig::quick()
        }
    }

    #[test]
    fn cell_conserves_and_explains_every_job() {
        let c = run_cell(&tiny_cfg(), 4.0, PolicyKind::Fifo);
        assert_eq!(c.report.jobs.len(), NUM_JOBS as usize);
        c.report.check_conservation().expect("conservation");
        for j in &c.report.jobs {
            assert!(j.jct_ns > 0);
            assert!(!j.critical_path.is_empty(), "job {} has no path", j.job);
            // A network-heavy oversubscribed cell must show network time.
            assert!(
                j.breakdown.net_exclusive_ns + j.breakdown.wait_ns() > 0,
                "job {} shows no network time at 4:1",
                j.job
            );
        }
    }

    #[test]
    fn oversubscription_shows_up_as_wait_not_compute() {
        let cfg = tiny_cfg();
        let free = run_cell(&cfg, 1.0, PolicyKind::Fifo);
        let tight = run_cell(&cfg, 4.0, PolicyKind::Fifo);
        let wait = |c: &ExplainCell| {
            c.report
                .jobs
                .iter()
                .map(|j| j.breakdown.wait_ns())
                .sum::<u64>()
        };
        assert!(
            wait(&tight) > wait(&free),
            "4:1 should add contention/throttle wait: {} vs {}",
            wait(&tight),
            wait(&free)
        );
    }

    #[test]
    fn result_renders_and_serializes() {
        let r = run_with_workers(&tiny_cfg(), true, Some(1));
        assert_eq!(r.cells.len(), CELLS.len());
        assert!(r.table().render().contains("top blame"));
        assert!(r.summary().contains("explain:"));
        assert!(r.report_text().contains("critical path"));
        let json = serde_json::to_string_pretty(&r).expect("serialize");
        assert!(json.contains("\"breakdown\""));
        assert!(json.contains("\"blame\""));
    }

    #[test]
    fn profile_cell_reports_every_subsystem() {
        let (rep, alloc) = profile_cell(&tiny_cfg(), true);
        let text = rep.render();
        for slot in [
            "alloc.solve",
            "cpu.engine",
            "queue.heap",
            "telemetry.sink",
            "engine.handlers",
        ] {
            assert!(text.contains(slot), "profile report missing {slot}: {text}");
        }
        assert!(rep.total_nanos("engine.handlers") > 0);
        // The kernel reports its per-round link scans.
        assert!(alloc.invocations > 0);
        assert!(alloc.links_touched >= alloc.rounds && alloc.rounds > 0);
    }
}
