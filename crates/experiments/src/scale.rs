//! Scale-out sweep — engine throughput at 10–25× the paper's testbed.
//!
//! Not from the paper: TensorLights stops at 21 hosts / 21 jobs. The
//! ROADMAP north-star is a simulator that stays fast at cluster scale
//! (CASSINI/MLTCP regimes), so this experiment sweeps a
//! (hosts × concurrent jobs) grid under the three policies and reports
//! *simulator* performance per cell — wall-clock, events processed,
//! events/sec, allocator counters — alongside the usual mean JCT.
//!
//! Cells run through the orchestrator with the worker count forced to one
//! (never in parallel) so per-cell wall-clock numbers are not polluted by
//! sibling cells on other cores.
//! The workload shape is fixed: every job is the paper's 20-worker
//! synchronous job, PSes are colocated into three groups (Table I #4
//! generalized), and each cell runs a fixed short iteration count — the
//! sweep measures engine cost, not convergence.

use crate::config::ExperimentConfig;
use crate::orchestrator::{self, CellRecord, SweepOptions};
use crate::report::Table;
use crate::runner::PolicyKind;
use serde::{Deserialize, Serialize};
use simcore::SimDuration;
use tl_cluster::{grouped_placement, table1_group_sizes, JobPlacement, Placement, Table1Index};
use tl_dl::{SimOutput, Simulation, TopologySpec};
use tl_net::HostId;
use tl_workloads::GridSearchConfig;

/// Workers per job everywhere in the sweep (the paper's job shape).
const WORKERS_PER_JOB: u32 = 20;
/// Synchronous iterations per job in every full-grid cell.
const ITERS: u64 = 5;
/// Iterations in the `--quick` smoke cell.
const QUICK_ITERS: u64 = 4;
/// PS colocation shape: three even PS groups (Table I #4, generalized).
const PS_GROUPS: Table1Index = Table1Index(4);

/// Host counts swept by the full grid.
pub const GRID_HOSTS: [u32; 5] = [21, 63, 147, 315, 500];
/// Concurrent-job counts swept by the full grid.
pub const GRID_JOBS: [u32; 3] = [21, 80, 200];

/// XL cell (`repro --experiment scale --xl`): 10 000 hosts as a leaf-spine
/// fabric of 250 racks × 40 hosts, 5 000 jobs.
pub const XL_RACKS: u32 = 250;
/// Hosts per rack in the XL cell.
pub const XL_HOSTS_PER_RACK: u32 = 40;
/// Concurrent jobs in the XL cell.
pub const XL_JOBS: u32 = 5_000;
/// Workers per job in the XL cell. Deliberately smaller than the grid's
/// 20-worker paper job: at 5 000 concurrent jobs the realistic cluster
/// regime (CASSINI/MLTCP traces) is many small jobs, and rack-local
/// 4-worker jobs keep each rack an independent flow component — which is
/// exactly the structure the parallel allocator exploits.
pub const XL_WORKERS_PER_JOB: u32 = 4;
/// Iterations per job in the XL cell.
const XL_ITERS: u64 = 3;

/// One (hosts, jobs, policy) cell of the sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScaleRow {
    /// Cluster size.
    pub hosts: u32,
    /// Concurrent jobs.
    pub jobs: u32,
    /// Policy label.
    pub policy: String,
    /// Wall-clock seconds spent simulating this cell.
    pub wall_secs: f64,
    /// Simulator events processed.
    pub events: u64,
    /// Events per wall-clock second (the throughput headline).
    pub events_per_sec: f64,
    /// Allocator invocations.
    pub alloc_invocations: u64,
    /// Connected components re-solved.
    pub components_solved: u64,
    /// Components whose cached rates were kept.
    pub components_retained: u64,
    /// Progressive-filling rounds across all solves.
    pub rounds: u64,
    /// Flows belonging to re-solved components.
    pub flows_touched: u64,
    /// Wall-clock milliseconds inside the rate allocator.
    pub alloc_wall_ms: f64,
    /// Mean JCT over completed jobs, seconds (sanity, not the headline).
    pub mean_jct: f64,
    /// Jobs that ran to completion.
    pub completed: usize,
}

/// The whole sweep.
#[derive(Debug, Serialize)]
pub struct ScaleResult {
    /// Iterations per job in every cell.
    pub iterations: u64,
    /// Workers per job in every cell.
    pub workers_per_job: u32,
    /// One row per (hosts, jobs, policy), hosts-major.
    pub rows: Vec<ScaleRow>,
}

/// The experiment configuration actually used for one cell: the caller's
/// seed and calibration knobs, but a fixed short iteration count and a
/// fixed 5 s TLs-RR rotation interval (the `scaled()` interval shrinks
/// with iterations and would drown large cells in rotation events).
fn cell_config(cfg: &ExperimentConfig, iters: u64) -> ExperimentConfig {
    ExperimentConfig {
        iterations: iters,
        rr_interval: SimDuration::from_secs(5),
        ..cfg.clone()
    }
}

/// Run one grid cell and return its raw [`SimOutput`]. Public so the
/// determinism tests can push the exact cell the sweep runs through
/// [`orchestrator::run_sweep`] with a forced worker count.
pub fn run_cell(cfg: &ExperimentConfig, hosts: u32, jobs: u32, policy: PolicyKind) -> SimOutput {
    run_cell_inner(cfg, hosts, jobs, policy, false)
}

/// [`run_cell`] with the engine self-profiler on; the per-subsystem
/// wall-time report lands in [`SimOutput::profile`]. Used to check the
/// profiler's allocator share against the `alloc_wall_ms` counter this
/// sweep records.
pub fn run_cell_profiled(
    cfg: &ExperimentConfig,
    hosts: u32,
    jobs: u32,
    policy: PolicyKind,
) -> SimOutput {
    run_cell_inner(cfg, hosts, jobs, policy, true)
}

fn run_cell_inner(
    cfg: &ExperimentConfig,
    hosts: u32,
    jobs: u32,
    policy: PolicyKind,
    profile: bool,
) -> SimOutput {
    let cell_cfg = cell_config(cfg, cfg.iterations);
    let placement = grouped_placement(
        hosts,
        WORKERS_PER_JOB,
        &table1_group_sizes(PS_GROUPS, jobs),
    );
    let mut wl = GridSearchConfig::paper_scaled(cell_cfg.iterations);
    wl.num_jobs = jobs;
    wl.workers_per_job = WORKERS_PER_JOB;
    let setups = wl.build(&placement);
    let sim_cfg = cell_cfg.sim_config();
    let mut policy = policy.build(&cell_cfg);
    Simulation::new(sim_cfg)
        .jobs(setups)
        .policy_ref(policy.as_mut())
        .profile(profile)
        .run()
}

fn measure(cfg: &ExperimentConfig, iters: u64, hosts: u32, jobs: u32, policy: PolicyKind) -> ScaleRow {
    let cell_cfg = ExperimentConfig {
        iterations: iters,
        ..cfg.clone()
    };
    let started = std::time::Instant::now();
    let out = run_cell(&cell_cfg, hosts, jobs, policy);
    let wall = started.elapsed().as_secs_f64();
    let a = out.alloc_stats;
    ScaleRow {
        hosts,
        jobs,
        policy: policy.label().to_string(),
        wall_secs: wall,
        events: out.events,
        events_per_sec: out.events as f64 / wall.max(1e-9),
        alloc_invocations: a.invocations,
        components_solved: a.components_solved,
        components_retained: a.components_retained,
        rounds: a.rounds,
        flows_touched: a.flows_touched,
        alloc_wall_ms: a.wall_nanos as f64 / 1e6,
        mean_jct: out.mean_jct_secs(),
        completed: out.jobs.iter().filter(|j| j.completion.is_some()).count(),
    }
}

/// Run the sweep through the crash-safe orchestrator. `quick` restricts
/// it to the smallest grid cell (21 hosts × 21 jobs, all three policies)
/// — the check-script smoke run. The worker count is forced to one
/// regardless of `opts` — cells time themselves, and parallel siblings
/// would pollute the wall-clock columns — but the ledger/resume/timeout
/// machinery all applies. Note that resumed cells keep the wall-clock
/// numbers of the run that produced them.
pub fn run(
    cfg: &ExperimentConfig,
    quick: bool,
    opts: &SweepOptions,
) -> (ScaleResult, Vec<CellRecord>) {
    let (hosts_axis, jobs_axis, iters): (&[u32], &[u32], u64) = if quick {
        (&GRID_HOSTS[..1], &GRID_JOBS[..1], QUICK_ITERS)
    } else {
        (&GRID_HOSTS, &GRID_JOBS, ITERS)
    };
    let mut cells = Vec::new();
    for &hosts in hosts_axis {
        for &jobs in jobs_axis {
            for policy in PolicyKind::all() {
                cells.push((hosts, jobs, policy));
            }
        }
    }
    let context = format!(
        "cfg={};iters={iters};workers_per_job={WORKERS_PER_JOB};ps_groups={}",
        serde_json::to_string(cfg).expect("config serializes"),
        PS_GROUPS.0,
    );
    let sequential = SweepOptions {
        workers: Some(1),
        ..opts.clone()
    };
    let run_cfg = cfg.clone();
    let out = orchestrator::run_sweep(
        "scale",
        &context,
        &sequential,
        cells,
        |(hosts, jobs, policy)| format!("hosts={hosts},jobs={jobs},policy={}", policy.label()),
        move |(hosts, jobs, policy)| measure(&run_cfg, iters, hosts, jobs, policy),
    );
    (
        ScaleResult {
            iterations: iters,
            workers_per_job: WORKERS_PER_JOB,
            rows: out.rows,
        },
        out.cells,
    )
}

/// Rack-local placement for the XL cell. Jobs are dealt 20 per rack; each
/// rack pins two jobs' PSes to each of its ten even hosts (the paper's
/// contending-PS shape, rack-scale) and runs their workers on the
/// following hosts of the same rack. No flow ever leaves its rack, so the
/// 10 000-host cluster decomposes into 250 independent components and
/// dirty re-solves stay rack-sized.
fn xl_placement() -> Placement {
    let jobs_per_rack = XL_JOBS / XL_RACKS;
    let jobs = (0..XL_JOBS)
        .map(|i| {
            let rack = i / jobs_per_rack;
            let slot = i % jobs_per_rack;
            let base = rack * XL_HOSTS_PER_RACK;
            let ps_off = (slot % (jobs_per_rack / 2)) * 4 % XL_HOSTS_PER_RACK;
            let workers = (0..XL_WORKERS_PER_JOB)
                .map(|w| HostId(base + (ps_off + 1 + slot + w) % XL_HOSTS_PER_RACK))
                .collect();
            JobPlacement::new(HostId(base + ps_off), workers)
        })
        .collect();
    Placement { jobs }
}

/// Run the XL cell (10 000 hosts × 5 000 jobs) under one policy.
pub fn run_xl_cell(cfg: &ExperimentConfig, policy: PolicyKind) -> SimOutput {
    let cell_cfg = ExperimentConfig {
        iterations: XL_ITERS,
        rr_interval: SimDuration::from_secs(5),
        topology: TopologySpec::LeafSpine {
            racks: XL_RACKS,
            hosts_per_rack: XL_HOSTS_PER_RACK,
            oversub: 2.0,
        },
        ..cfg.clone()
    };
    let placement = xl_placement();
    let mut wl = GridSearchConfig::paper_scaled(XL_ITERS);
    wl.num_jobs = XL_JOBS;
    wl.workers_per_job = XL_WORKERS_PER_JOB;
    let setups = wl.build(&placement);
    let sim_cfg = cell_cfg.sim_config();
    let mut policy = policy.build(&cell_cfg);
    Simulation::new(sim_cfg)
        .jobs(setups)
        .policy_ref(policy.as_mut())
        .run()
}

/// The XL scale row: the 10 000-host × 5 000-job cell under all three
/// policies (`repro --experiment scale --xl`). Panics if any job fails to
/// complete — an unfinished job at this scale means the engine broke, not
/// that the workload was slow.
pub fn run_xl(cfg: &ExperimentConfig) -> ScaleResult {
    let rows = PolicyKind::all()
        .iter()
        .map(|&policy| {
            let started = std::time::Instant::now();
            let out = run_xl_cell(cfg, policy);
            let wall = started.elapsed().as_secs_f64();
            let a = out.alloc_stats;
            let completed = out.jobs.iter().filter(|j| j.completion.is_some()).count();
            assert_eq!(
                completed,
                XL_JOBS as usize,
                "XL cell ({}) finished only {completed}/{XL_JOBS} jobs",
                policy.label()
            );
            ScaleRow {
                hosts: XL_RACKS * XL_HOSTS_PER_RACK,
                jobs: XL_JOBS,
                policy: policy.label().to_string(),
                wall_secs: wall,
                events: out.events,
                events_per_sec: out.events as f64 / wall.max(1e-9),
                alloc_invocations: a.invocations,
                components_solved: a.components_solved,
                components_retained: a.components_retained,
                rounds: a.rounds,
                flows_touched: a.flows_touched,
                alloc_wall_ms: a.wall_nanos as f64 / 1e6,
                mean_jct: out.mean_jct_secs(),
                completed,
            }
        })
        .collect();
    ScaleResult {
        iterations: XL_ITERS,
        workers_per_job: XL_WORKERS_PER_JOB,
        rows,
    }
}

impl ScaleResult {
    /// Render the sweep as a report table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Scale sweep: simulator throughput per (hosts x jobs) cell",
            &[
                "hosts", "jobs", "policy", "wall (s)", "events", "kev/s", "solved",
                "retained", "alloc (ms)", "mean JCT (s)",
            ],
        );
        for r in &self.rows {
            t.push_row(vec![
                r.hosts.to_string(),
                r.jobs.to_string(),
                r.policy.to_string(),
                format!("{:.3}", r.wall_secs),
                r.events.to_string(),
                format!("{:.1}", r.events_per_sec / 1e3),
                r.components_solved.to_string(),
                r.components_retained.to_string(),
                format!("{:.1}", r.alloc_wall_ms),
                format!("{:.1}", r.mean_jct),
            ]);
        }
        t
    }

    /// A canonical, fully deterministic JSON rendering of the sweep for
    /// byte-identity comparisons: every wall-clock column (`wall_secs`,
    /// `events_per_sec`, `alloc_wall_ms`) is excluded and every simulated
    /// float is captured as its IEEE-754 bit pattern. Two runs of the same
    /// sweep — at any sweep worker count, in any process — must produce
    /// byte-identical output; the check script compares exactly this file
    /// with the committed copy in `results/json/`.
    pub fn canonical_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"iterations\":{},\"workers_per_job\":{},\"rows\":[",
            self.iterations, self.workers_per_job
        );
        for (k, r) in self.rows.iter().enumerate() {
            if k > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"hosts\":{},\"jobs\":{},\"policy\":\"{}\",\"events\":{},\
                 \"alloc\":[{},{},{},{},{}],\"mean_jct_bits\":{},\"completed\":{}}}",
                r.hosts,
                r.jobs,
                r.policy,
                r.events,
                r.alloc_invocations,
                r.components_solved,
                r.components_retained,
                r.rounds,
                r.flows_touched,
                r.mean_jct.to_bits(),
                r.completed
            );
        }
        s.push_str("]}");
        s
    }

    /// One-line summary: total wall, total events, and the largest cell.
    pub fn summary(&self) -> String {
        let total_wall: f64 = self.rows.iter().map(|r| r.wall_secs).sum();
        let total_events: u64 = self.rows.iter().map(|r| r.events).sum();
        let largest = self
            .rows
            .iter()
            .max_by_key(|r| (r.hosts, r.jobs))
            .expect("sweep has rows");
        format!(
            "scale: {} cells, {total_events} events in {total_wall:.1} s wall; \
             largest cell ({}h x {}j, {}) {:.2} s at {:.0} kev/s",
            self.rows.len(),
            largest.hosts,
            largest.jobs,
            largest.policy,
            largest.wall_secs,
            largest.events_per_sec / 1e3,
        )
    }
}

/// A canonical, fully deterministic JSON rendering of a [`SimOutput`] for
/// byte-identity assertions: job lifecycles and engine counters with every
/// float captured as its exact IEEE-754 bit pattern. Wall-clock fields
/// (`AllocStats::wall_nanos`) are deliberately excluded — they are real
/// time, not simulated time.
pub fn canonical_json(out: &SimOutput) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"end_time\":{},\"events\":{},\"jobs\":[",
        out.end_time.as_nanos(),
        out.events
    );
    for (k, j) in out.jobs.iter().enumerate() {
        if k > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"completion\":{},\"jct_bits\":{},\"steps\":{}}}",
            j.completion.map(|t| t.as_nanos()).unwrap_or(u64::MAX),
            j.jct_secs().map(f64::to_bits).unwrap_or(0),
            j.global_steps
        );
    }
    let a = out.alloc_stats;
    let _ = write!(
        s,
        "],\"alloc\":[{},{},{},{},{},{}]}}",
        a.invocations, a.full_solves, a.components_solved, a.components_retained, a.rounds,
        a.flows_touched
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ExperimentConfig {
        ExperimentConfig {
            iterations: 2,
            ..ExperimentConfig::quick()
        }
    }

    #[test]
    fn quick_sweep_completes_every_job() {
        let cfg = ExperimentConfig {
            iterations: QUICK_ITERS,
            ..ExperimentConfig::quick()
        };
        let out = run_cell(&cfg, GRID_HOSTS[0], GRID_JOBS[0], PolicyKind::Fifo);
        assert!(out.all_complete());
        assert_eq!(out.jobs.len(), GRID_JOBS[0] as usize);
    }

    #[test]
    fn sweep_rows_cover_the_grid() {
        let (result, _) = run(&tiny_cfg(), true, &SweepOptions::default());
        assert_eq!(result.rows.len(), 3, "quick = smallest cell x 3 policies");
        assert!(result.rows.iter().all(|r| r.hosts == 21 && r.jobs == 21));
        assert!(result.rows.iter().all(|r| r.events > 0 && r.completed == 21));
        let t = result.table();
        assert!(t.render().contains("TLs-RR"));
        assert!(result.summary().contains("scale:"));
    }

    #[test]
    fn profiler_agrees_with_alloc_stats_on_smallest_cell() {
        // The self-profiler's "alloc.solve" slot and the allocator's own
        // wall_nanos counter time the same region through different
        // mechanisms; they must agree to well within 2x even on a small
        // cell (wall-clock noise dominates at this size).
        let cfg = tiny_cfg();
        let out = run_cell_profiled(&cfg, GRID_HOSTS[0], GRID_JOBS[0], PolicyKind::TlsRr);
        let rep = out.profile.expect("profiled cell returns a report");
        let solve = rep.total_nanos("alloc.solve");
        let counter = out.alloc_stats.wall_nanos;
        assert!(solve > 0 && counter > 0);
        let ratio = solve as f64 / counter as f64;
        assert!(
            (0.5..2.0).contains(&ratio),
            "profiler {solve} ns vs alloc_stats {counter} ns (ratio {ratio:.2})"
        );
        // The allocator runs inside the handler loop, so its share of
        // engine.handlers must be a meaningful fraction, not ~0 or >1.
        let share = rep
            .share_of("alloc.solve", "engine.handlers")
            .expect("both slots populated");
        assert!(share > 0.05 && share < 1.0, "allocator share {share:.3}");
    }

    #[test]
    #[ignore = "multi-second release-mode validation of the allocator share at 500x200; run with cargo test --release -- --ignored"]
    fn profiled_share_matches_bench_scale_at_500x200() {
        // The allocator is most of the handler time at the largest cell
        // (`alloc.share` 0.62–0.76 on the flagship workloads in the
        // "Baselines" tables of crates/bench/src/bin/tl-benchmark/README.md).
        // The profiler must reproduce that picture from inside the engine.
        let cfg = ExperimentConfig {
            iterations: ITERS,
            ..ExperimentConfig::default()
        };
        let out = run_cell_profiled(&cfg, 500, 200, PolicyKind::TlsRr);
        let rep = out.profile.expect("profiled cell returns a report");
        let share = rep
            .share_of("alloc.solve", "engine.handlers")
            .expect("both slots populated");
        println!(
            "500x200 TLs-RR: alloc.solve {:.2} s / engine.handlers {:.2} s = {:.1}% (alloc_stats wall {:.2} s)",
            rep.total_nanos("alloc.solve") as f64 / 1e9,
            rep.total_nanos("engine.handlers") as f64 / 1e9,
            100.0 * share,
            out.alloc_stats.wall_nanos as f64 / 1e9,
        );
        assert!(
            (0.5..0.95).contains(&share),
            "allocator share {share:.3} far from the benchmark's ~0.6-0.75"
        );
    }

    #[test]
    fn xl_placement_keeps_every_job_in_one_rack() {
        // The XL cell decomposes into rack components only because of its
        // placement: every job's PS and workers share one rack, each rack
        // holds the same number of jobs, and each PS host carries exactly
        // two PSes (the contending-PS shape).
        let p = xl_placement();
        assert_eq!(p.jobs.len(), XL_JOBS as usize);
        let rack = |h: HostId| h.0 / XL_HOSTS_PER_RACK;
        let mut jobs_per_rack = vec![0; XL_RACKS as usize];
        for j in &p.jobs {
            let r = rack(j.ps_host());
            let local = j.worker_hosts.iter().all(|&w| rack(w) == r && w != j.ps_host());
            assert!(local, "{j:?}");
            jobs_per_rack[r as usize] += 1;
        }
        assert!(jobs_per_rack.iter().all(|&n| n == XL_JOBS / XL_RACKS));
        let ps_hosts = p.ps_colocation_counts();
        assert_eq!(ps_hosts.len(), XL_RACKS as usize * 10);
        assert!(ps_hosts.values().all(|&n| n == 2));
    }

    #[test]
    fn deterministic_across_sweep_worker_counts() {
        // The satellite guarantee: a sweep cell run under `run_sweep`
        // serializes to byte-identical JSON whether the pool had one
        // worker or many — thread count can never leak into results.
        let sweep = |workers: usize| -> Vec<String> {
            let cfg = tiny_cfg();
            let opts = SweepOptions {
                workers: Some(workers),
                ..SweepOptions::default()
            };
            let cells: Vec<PolicyKind> = PolicyKind::all().to_vec();
            orchestrator::run_sweep(
                "scale-workers",
                "worker-counts",
                &opts,
                cells,
                |p| p.label().to_string(),
                move |policy| canonical_json(&run_cell(&cfg, GRID_HOSTS[0], GRID_JOBS[0], policy)),
            )
            .expect_complete()
        };
        let sequential = sweep(1);
        let threaded = sweep(4);
        assert!(sequential[0].contains("\"jobs\":["));
        assert_eq!(sequential, threaded, "worker count changed results");
    }

    #[test]
    fn deterministic_after_kill_mid_sweep_and_resume() {
        // Extends `deterministic_across_sweep_worker_counts` to the
        // crash path: the same cells through the orchestrator, with the
        // ledger truncated after the first completed cell (a simulated
        // kill -9 mid-append), then resumed under a different worker
        // count. The merged canonical JSON must be byte-identical to the
        // uninterrupted run.
        let cfg = tiny_cfg();
        let dir = std::env::temp_dir().join(format!("tl-scale-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let sweep = |resume: bool, workers: usize, ledger: bool| {
            let cfg = cfg.clone();
            let opts = SweepOptions {
                workers: Some(workers),
                ledger_dir: ledger.then(|| dir.clone()),
                resume,
                ..SweepOptions::default()
            };
            orchestrator::run_sweep(
                "scale-determinism",
                "kill-resume",
                &opts,
                PolicyKind::all().to_vec(),
                |p| p.label().to_string(),
                move |policy| canonical_json(&run_cell(&cfg, GRID_HOSTS[0], GRID_JOBS[0], policy)),
            )
        };
        let uninterrupted = sweep(false, 1, false);

        // Full checkpointed run, then chop the ledger down to the header
        // plus one completed cell and half of the next line.
        sweep(false, 1, true);
        let ledger = dir.join("scale-determinism.cells.jsonl");
        let contents = std::fs::read_to_string(&ledger).unwrap();
        let lines: Vec<&str> = contents.lines().collect();
        assert_eq!(lines.len(), 4, "header + 3 cells");
        let torn = format!("{}\n{}\n{}", lines[0], lines[1], &lines[2][..lines[2].len() / 2]);
        std::fs::write(&ledger, torn).unwrap();

        let resumed = sweep(true, 4, true);
        assert_eq!(resumed.cells.iter().filter(|c| c.from_ledger).count(), 1);
        assert_eq!(
            uninterrupted.rows, resumed.rows,
            "kill-mid-sweep + resume changed the merged output"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
