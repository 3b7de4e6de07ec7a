//! The training simulation engine.
//!
//! Combines the substrates into the full system of the paper's testbed:
//!
//! * [`tl_net::FluidNet`] carries gradient- and model-update flows with the
//!   priority bands chosen by a [`tensorlights::PriorityPolicy`];
//! * [`tl_cluster::CpuEngine`] runs worker local steps and PS aggregation
//!   under processor sharing;
//! * per-job PS/worker state machines implement synchronous (barrier) or
//!   asynchronous training, with barrier wait-time instrumentation.
//!
//! The engine is a single-threaded discrete-event simulation, fully
//! deterministic in `(config, jobs, policy)` — see the determinism
//! integration tests.

use crate::backend::{NetBackend, NetBackendKind};
use crate::compute::ComputeModel;
use crate::job::{JobId, JobSpec, TrainingMode};
use crate::metrics::BarrierTracker;
use crate::pattern::{TopologySpec, TrafficPattern};
use rand::rngs::SmallRng;
use simcore::{
    EventHandle, EventQueue, InvariantChecker, InvariantViolation, Profiler, RngFactory, SampleSet,
    SimTime, UnitLogNormal,
};
use std::collections::HashMap;
use tl_telemetry::{MetricKind, SimEvent, Telemetry, TelemetryConfig, TelemetryOutput};
use tensorlights::{Assignment, FifoPolicy, JobTrafficInfo, PriorityPolicy};
use tl_cluster::{
    monitor, CpuEngine, CpuTaskId, HostSpec, HostUtilization, JobPlacement, ResourceSnapshot,
};
use tl_faults::{BarrierLossPolicy, FaultAction, FaultPlan, RetryConfig, TimedFault};
use tl_net::{
    AllocStats, Bandwidth, FlowId, FlowSpec, FluidNet, HostId, LinkId, PacketNet,
};

/// Tag prefix distinguishing gradient flows from model-update flows in the
/// fluid engine (rotations must only retag model updates).
const GRAD_TAG_BASE: u64 = 1 << 32;

/// Simulation-wide configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// NIC speed of every host (the paper: 10 Gbps).
    pub link: Bandwidth,
    /// Host hardware (the paper: 12 hardware threads).
    pub host_spec: HostSpec,
    /// Compute-time model.
    pub compute: ComputeModel,
    /// Sigma of the mean-1 lognormal per-flow weight — the TCP-unfairness
    /// model that produces stragglers under FIFO. 0 disables jitter.
    pub net_weight_sigma: f64,
    /// Master seed for all randomness.
    pub seed: u64,
    /// If set, take resource snapshots at these two times for Table-II style
    /// utilization measurement (the paper's "active window").
    pub active_window: Option<(SimTime, SimTime)>,
    /// Hard stop; jobs unfinished by then report `completion: None`.
    pub max_sim_time: SimTime,
    /// Record typed telemetry events (debugging / Figure-4 narratives /
    /// Chrome-trace export). See [`SimOutput::telemetry`].
    pub trace: bool,
    /// If set, every model-update flow is additionally capped at this rate
    /// (bytes/sec) at the sender — models the paper's §VII alternative of
    /// explicit sender rate allocation instead of work-conserving priority.
    pub model_update_rate_cap: Option<f64>,
    /// If set, record per-host utilization averaged over consecutive
    /// intervals of this length (a utilization time series, as `ifstat`
    /// would report). Sampling stops when the last job completes.
    pub sample_interval: Option<simcore::SimDuration>,
    /// If set, sample the telemetry metrics registry (host utilization
    /// gauges, allocator counters, per-job progress) on this cadence into
    /// timeseries exported via [`SimOutput::telemetry`].
    pub metrics_interval: Option<simcore::SimDuration>,
    /// Optional switch-fabric aggregate capacity (an oversubscribed core);
    /// `None` keeps the paper's non-blocking switch.
    pub core_capacity: Option<Bandwidth>,
    /// The link graph the run is simulated on: the paper's single
    /// non-blocking switch (default) or a leaf–spine fabric with per-rack
    /// uplink/downlink capacities.
    pub topology: TopologySpec,
    /// Run-wide traffic pattern; individual jobs may override it via
    /// `JobSpec::pattern`. Non-star patterns require synchronous mode, a
    /// single PS shard, and an empty fault plan.
    pub pattern: TrafficPattern,
    /// Per-host hardware overrides (heterogeneous clusters); hosts beyond
    /// the list's length fall back to `host_spec`.
    pub host_spec_overrides: Vec<(u32, HostSpec)>,
    /// Faults to inject during the run (host crashes, NIC degradation,
    /// PS failures, control-plane outages). The empty plan — the default
    /// — costs nothing.
    pub faults: FaultPlan,
    /// Timeout-and-backoff policy for work blocked by a down host or a
    /// dead PS process.
    pub retry: RetryConfig,
    /// What a synchronous barrier does when a worker's host crashes.
    pub barrier_loss: BarrierLossPolicy,
    /// Which network model carries the traffic: the fluid max-min engine
    /// (default — the paper's numbers) or the chunk-level packet oracle
    /// (slow; used by the differential-validation harness).
    pub backend: NetBackendKind,
    /// Run runtime invariant checks (NIC capacity conservation, band
    /// ordering, per-flow byte conservation, barrier accounting) and
    /// report violations in [`SimOutput::invariant_violations`]. Defaults
    /// to on in debug builds (so every `cargo test` checks them) and off
    /// in release builds (zero overhead for experiments and benches).
    pub invariants: bool,
    /// Self-profile the simulator: per-subsystem wall-clock histograms
    /// (allocator solves, event-queue heap ops, packet service, telemetry
    /// sink, engine dispatch) reported in [`SimOutput::profile`]. Off by
    /// default — when off every hook is a single branch. Wall-clock
    /// values are *not* deterministic; the report is excluded from
    /// telemetry exports.
    pub profile: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            link: Bandwidth::from_gbps(10.0),
            host_spec: HostSpec::paper_testbed(),
            compute: ComputeModel::default(),
            net_weight_sigma: 0.25,
            seed: 1,
            active_window: None,
            max_sim_time: SimTime::from_secs(7 * 24 * 3600),
            trace: false,
            model_update_rate_cap: None,
            sample_interval: None,
            metrics_interval: None,
            core_capacity: None,
            topology: TopologySpec::SingleSwitch,
            pattern: TrafficPattern::PsStar,
            host_spec_overrides: Vec::new(),
            faults: FaultPlan::default(),
            retry: RetryConfig::default(),
            barrier_loss: BarrierLossPolicy::default(),
            backend: NetBackendKind::Fluid,
            invariants: cfg!(debug_assertions),
            profile: false,
        }
    }
}

/// A structural inconsistency detected while the engine ran: a substrate
/// reported a completion for work the engine has no record of. This is
/// unreachable through the public API (contexts are registered at start
/// and removed exactly once), but [`Simulation::try_run`] surfaces it as
/// a typed error instead of a panic so harnesses can report *which*
/// flow or task lost its context.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimError {
    /// The network engine completed a flow with no registered context.
    MissingFlowContext {
        /// The orphaned flow.
        flow: FlowId,
        /// When the completion surfaced.
        at: SimTime,
    },
    /// The CPU engine completed a task with no registered context.
    MissingTaskContext {
        /// The orphaned task.
        task: CpuTaskId,
        /// When the completion surfaced.
        at: SimTime,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            SimError::MissingFlowContext { flow, at } => write!(
                f,
                "completed flow {flow:?} at {at:?} has no context (engine bookkeeping bug)"
            ),
            SimError::MissingTaskContext { task, at } => write!(
                f,
                "completed task {task:?} at {at:?} has no context (engine bookkeeping bug)"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// One job plus where its tasks run.
#[derive(Debug, Clone)]
pub struct JobSetup {
    /// The job's specification.
    pub spec: JobSpec,
    /// Its PS/worker placement.
    pub placement: JobPlacement,
}

/// Per-job outcome of a simulation.
#[derive(Debug)]
pub struct JobResult {
    /// The job's id.
    pub id: JobId,
    /// Launch time.
    pub launch: SimTime,
    /// Completion time (None if the simulation hit its horizon first).
    pub completion: Option<SimTime>,
    /// Iterations fully aggregated (sync) / not meaningful for async.
    pub iterations: u64,
    /// Global steps reached.
    pub global_steps: u64,
    /// Per-barrier mean waits (seconds) — Figure 3a / 6a material.
    pub barrier_means: SampleSet,
    /// Per-barrier wait variances (seconds²) — Figure 3b / 6b material.
    pub barrier_vars: SampleSet,
    /// Individual worker waits (seconds; in async mode, the round-trip wait
    /// between sending a gradient and receiving the next model).
    pub waits: SampleSet,
}

impl JobResult {
    /// Job completion time in seconds, if the job finished.
    pub fn jct_secs(&self) -> Option<f64> {
        self.completion.map(|c| c.since(self.launch).as_secs_f64())
    }
}

/// One point of the utilization time series.
#[derive(Debug, Clone)]
pub struct UtilizationSample {
    /// End of the averaging interval.
    pub at: SimTime,
    /// Mean utilization per host over the interval just ended.
    pub per_host: Vec<HostUtilization>,
    /// Global step of each job at the sample instant (progress fairness).
    pub job_progress: Vec<u64>,
}

/// Everything a simulation run produces.
#[derive(Debug)]
pub struct SimOutput {
    /// Per-job results, in job order.
    pub jobs: Vec<JobResult>,
    /// Snapshots at the active window's bounds, when configured and reached.
    pub window_snapshots: Option<(ResourceSnapshot, ResourceSnapshot)>,
    /// Per-host utilization over the active window, when available.
    pub utilization: Option<Vec<HostUtilization>>,
    /// Utilization time series (empty unless `SimConfig::sample_interval`).
    pub samples: Vec<UtilizationSample>,
    /// When the simulation stopped.
    pub end_time: SimTime,
    /// Total events processed (progress/perf metric).
    pub events: u64,
    /// Rate-allocator performance counters for the whole run (invocations,
    /// components solved vs retained, rounds, flows touched, wall time).
    pub alloc_stats: AllocStats,
    /// Structured telemetry: typed events (empty unless `SimConfig::trace`)
    /// and metric timeseries (empty unless `SimConfig::metrics_interval`).
    /// Export with [`TelemetryOutput::to_jsonl`] /
    /// [`TelemetryOutput::to_chrome_trace`] / [`TelemetryOutput::metrics_json`].
    pub telemetry: TelemetryOutput,
    /// Invariant violations recorded during the run (empty unless
    /// `SimConfig::invariants`; always empty on a healthy engine).
    /// [`Simulation::run`] panics if any are present;
    /// [`Simulation::try_run`] hands them to the caller.
    pub invariant_violations: Vec<InvariantViolation>,
    /// Per-subsystem simulator wall-time histograms (`None` unless
    /// `SimConfig::profile`). Wall-clock values vary run to run; only the
    /// report's shape is deterministic.
    pub profile: Option<simcore::ProfileReport>,
}

impl SimConfig {
    /// The resolved per-host specs for a cluster of `n` hosts.
    pub fn host_specs(&self, n: usize) -> Vec<HostSpec> {
        let mut specs = vec![self.host_spec; n];
        for &(h, spec) in &self.host_spec_overrides {
            assert!((h as usize) < n, "host override {h} out of range");
            specs[h as usize] = spec;
        }
        specs
    }
}

impl SimOutput {
    /// Mean JCT across completed jobs, in seconds.
    pub fn mean_jct_secs(&self) -> f64 {
        let jcts: Vec<f64> = self.jobs.iter().filter_map(|j| j.jct_secs()).collect();
        if jcts.is_empty() {
            return 0.0;
        }
        jcts.iter().sum::<f64>() / jcts.len() as f64
    }

    /// True if every job completed.
    pub fn all_complete(&self) -> bool {
        self.jobs.iter().all(|j| j.completion.is_some())
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Ev {
    Launch(usize),
    NetWake,
    CpuWake,
    PolicyUpdate,
    SnapshotStart,
    SnapshotEnd,
    Sample,
    MetricsSample,
    /// Apply `timeline[i]` (a compiled fault action).
    Fault(usize),
    /// Re-attempt `retries[i]` (work blocked by a down host / dead PS).
    Retry(usize),
}

/// Work displaced by a fault, awaiting retry. The context alone suffices:
/// on resume the engine rebuilds the flow/task spec from current job
/// state, exactly as a real worker re-issuing a pull/push would.
#[derive(Debug, Clone, Copy)]
enum PendingWork {
    Flow(FlowCtx),
    Task(TaskCtx),
}

impl PendingWork {
    fn job(&self) -> usize {
        match self {
            PendingWork::Flow(c) => c.job,
            PendingWork::Task(c) => c.job,
        }
    }
}

#[derive(Debug)]
struct RetryState {
    work: PendingWork,
    /// 1-based attempt number of the *next* firing.
    attempt: u32,
    /// Resolved: resumed, or cancelled (job done / worker dropped).
    done: bool,
}

#[derive(Debug, Clone, Copy)]
enum FlowKind {
    /// PS shard → worker, carrying the shard's slice of the model for step
    /// `round`. The worker counts received shards without distinguishing
    /// them; the shard index routes retries after a crash.
    ModelUpdate { round: u64, shard: u32 },
    /// Worker → PS shard, carrying the shard's slice of the gradients of
    /// step `round`.
    GradUpdate { round: u64, shard: u32 },
    /// Ring all-reduce: worker `w` → worker `(w+1) % k`, carrying a
    /// `1/k`-sized slice during step `step` of round `round`'s all-reduce
    /// (`ctx.worker` is the sender).
    RingShift { round: u64, step: u32 },
    /// Hierarchical: a group member's full gradient → its rack leader
    /// (`ctx.worker` is the sending member).
    HierGrad,
    /// Hierarchical: a rack leader's reduced gradient → the PS
    /// (`ctx.worker` is the leader; the PS counts leader gradients without
    /// distinguishing rounds).
    HierGradToPs,
    /// Hierarchical: the PS's model → a rack leader (`ctx.worker` is the
    /// leader).
    HierModelToLeader { round: u64 },
    /// Hierarchical: a rack leader relaying the model → a group member
    /// (`ctx.worker` is the receiving member).
    HierModelRelay { round: u64 },
}

#[derive(Debug, Clone, Copy)]
struct FlowCtx {
    job: usize,
    worker: u32,
    kind: FlowKind,
}

#[derive(Debug, Clone, Copy)]
enum TaskKind {
    /// A worker computing local step `round`.
    WorkerStep { worker: u32, round: u64 },
    /// A PS shard aggregating its slice of one synchronous iteration.
    PsAggregate { shard: u32 },
    /// The PS applying one worker's gradient (async mode).
    PsAsyncApply { worker: u32 },
}

impl TaskKind {
    /// Telemetry label and unit index (worker or shard) for task events.
    fn telemetry_label(self) -> (&'static str, u32) {
        match self {
            TaskKind::WorkerStep { worker, .. } => ("worker_step", worker),
            TaskKind::PsAggregate { shard } => ("ps_aggregate", shard),
            TaskKind::PsAsyncApply { worker } => ("ps_async_apply", worker),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct TaskCtx {
    job: usize,
    kind: TaskKind,
}

struct JobRt {
    spec: JobSpec,
    placement: JobPlacement,
    /// Resolved traffic pattern (`spec.pattern` falling back to the
    /// run-wide `SimConfig::pattern`).
    pattern: TrafficPattern,
    launched: bool,
    completion: Option<SimTime>,
    /// Round currently being distributed/computed (sync mode).
    round: u64,
    global_steps: u64,
    iterations: u64,
    /// Gradients received this round, per PS shard.
    grads_received: Vec<u32>,
    /// Shards whose aggregation completed this round.
    shards_aggregated: u32,
    /// Model-update shards received by each worker for its next round.
    worker_shards_recv: Vec<u32>,
    tracker: BarrierTracker,
    rng: SmallRng,
    // Async mode state.
    async_remaining: Vec<u64>,
    async_pending_wait: Vec<Option<SimTime>>,
    async_done_workers: u32,
    // Fault state.
    /// The PS process is dead (hosts may be fine).
    ps_down: bool,
    /// Workers dropped from the barrier (DropAndContinue only).
    lost: Vec<bool>,
    lost_count: u32,
    /// Lost workers whose host has recovered, awaiting a round boundary.
    rejoin_pending: Vec<bool>,
    /// Suppress the next `record_exit` for a rejoining worker (it never
    /// entered the barrier the model delivery would exit).
    skip_exit: Vec<bool>,
    /// Suppress the next `record_enter` for a worker replaying a round it
    /// had already entered before being lost.
    skip_enter: Vec<bool>,
    /// Per-worker bitmask of shards whose gradient was counted into
    /// `grads_received` this round but not yet consumed by a release —
    /// what must be un-counted if the worker is dropped mid-round.
    grad_bits: Vec<u64>,
    /// Shards whose aggregation was released this round.
    agg_started: Vec<bool>,
    /// Gradients actually aggregated this round (effective batch after
    /// worker drops); 0 until the first shard release of the round.
    round_contrib: u32,
    // Ring all-reduce state.
    /// Workers that finished computing this round (the all-reduce starts
    /// when all `k` are ready).
    ring_ready: u32,
    /// Current all-reduce step (0 .. 2(k-1)).
    ring_step: u32,
    /// Shift flows received in the current step.
    ring_recv: u32,
    // Hierarchical-pattern state.
    /// Worker indices per rack group (ordered by rack id; `groups[g][0]`
    /// is the group's leader). Empty unless the pattern is hierarchical.
    groups: Vec<Vec<u32>>,
    /// Group index of each worker.
    worker_group: Vec<usize>,
    /// Gradients collected by each group's leader this round (the
    /// leader's own counts too).
    group_recv: Vec<u32>,
    /// Reduced leader gradients received by the PS this round.
    hier_grads: u32,
}

impl JobRt {
    fn done(&self) -> bool {
        self.completion.is_some()
    }

    /// Number of PS shards.
    fn num_shards(&self) -> u32 {
        self.placement.ps.count()
    }

    /// Host of PS shard `s`.
    fn shard_host(&self, s: u32) -> tl_net::HostId {
        self.placement.ps.host(s)
    }

    /// Gradients a shard must collect before aggregating this round
    /// (the effective quorum after dropped workers).
    fn expected_grads(&self) -> u32 {
        self.spec.num_workers - self.lost_count
    }

    /// Bytes of one shard's model/gradient slice (shard 0 takes the
    /// remainder so slices sum to the full update).
    fn shard_bytes(&self, s: u32) -> f64 {
        let total = self.spec.model.update_bytes();
        let shards = self.num_shards() as u64;
        let base = total / shards;
        if s == 0 {
            (base + total % shards) as f64
        } else {
            base as f64
        }
    }
}

struct Sim<'a, N: NetBackend> {
    cfg: SimConfig,
    queue: EventQueue<Ev>,
    net: N,
    cpu: CpuEngine,
    jobs: Vec<JobRt>,
    policy: &'a mut dyn PriorityPolicy,
    assignment: Assignment,
    flows: HashMap<FlowId, FlowCtx>,
    tasks: HashMap<CpuTaskId, TaskCtx>,
    net_wake: Option<(EventHandle, SimTime)>,
    cpu_wake: Option<(EventHandle, SimTime)>,
    policy_wake: Option<EventHandle>,
    weight_noise: UnitLogNormal,
    snap_start: Option<ResourceSnapshot>,
    snap_end: Option<ResourceSnapshot>,
    last_sample: Option<ResourceSnapshot>,
    samples: Vec<UtilizationSample>,
    done_count: usize,
    telemetry: Telemetry,
    metrics_prev: Option<ResourceSnapshot>,
    /// Cumulative per-fabric-link byte counters at the previous metrics
    /// sample (for per-interval utilization gauges).
    metrics_prev_fabric: Option<Vec<f64>>,
    /// Compiled fault timeline; `Ev::Fault(i)` indexes into it.
    timeline: Vec<TimedFault>,
    host_down: Vec<bool>,
    /// The tlsd control plane is unreachable: bands freeze.
    ctrl_outage: bool,
    /// Displaced work awaiting retry; `Ev::Retry(i)` indexes into it.
    retries: Vec<RetryState>,
    /// Shared with the network backend; engine-level checks (flow timing,
    /// barrier accounting, progress) report into the same sink.
    invariants: InvariantChecker,
    /// Self-profiling handle shared with the backend, queue, and sink;
    /// the engine times event dispatch under `engine.handlers`.
    profiler: Profiler,
}

/// How a [`Simulation`] holds its policy: borrowed from the caller or owned
/// by the builder.
enum PolicyHolder<'p> {
    Borrowed(&'p mut dyn PriorityPolicy),
    Owned(Box<dyn PriorityPolicy>),
}

impl std::fmt::Debug for PolicyHolder<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolicyHolder::Borrowed(p) => write!(f, "Borrowed({})", p.name()),
            PolicyHolder::Owned(p) => write!(f, "Owned({})", p.name()),
        }
    }
}

/// Builder-style entry point for a training simulation.
///
/// Collects the configuration, job setups, and scheduling policy, then
/// [`run`](Simulation::run)s the discrete-event engine:
///
/// ```no_run
/// use tl_dl::{Simulation, SimConfig};
/// # let setups = vec![];
/// let out = Simulation::new(SimConfig::default())
///     .jobs(setups)
///     .trace(false)
///     .run();
/// assert!(out.all_complete());
/// ```
///
/// The policy defaults to FIFO (the paper's baseline); pass any
/// [`PriorityPolicy`] by value with [`policy`](Simulation::policy), a boxed
/// one with [`policy_box`](Simulation::policy_box), or borrow one the caller
/// needs back afterwards with [`policy_ref`](Simulation::policy_ref).
#[derive(Debug)]
pub struct Simulation<'p> {
    cfg: SimConfig,
    setups: Vec<JobSetup>,
    policy: PolicyHolder<'p>,
}

impl<'p> Simulation<'p> {
    /// Start building a simulation with `cfg` and no jobs yet.
    pub fn new(cfg: SimConfig) -> Self {
        Simulation {
            cfg,
            setups: Vec::new(),
            policy: PolicyHolder::Owned(Box::new(FifoPolicy)),
        }
    }

    /// Append `setups` to the job list.
    pub fn jobs(mut self, setups: impl IntoIterator<Item = JobSetup>) -> Self {
        self.setups.extend(setups);
        self
    }

    /// Append a single job.
    pub fn job(mut self, setup: JobSetup) -> Self {
        self.setups.push(setup);
        self
    }

    /// Use `policy`, owned by the simulation.
    pub fn policy(mut self, policy: impl PriorityPolicy + 'static) -> Self {
        self.policy = PolicyHolder::Owned(Box::new(policy));
        self
    }

    /// Use an already-boxed policy (e.g. from a policy registry).
    pub fn policy_box(mut self, policy: Box<dyn PriorityPolicy>) -> Self {
        self.policy = PolicyHolder::Owned(policy);
        self
    }

    /// Borrow `policy` for the run; the caller keeps ownership (useful to
    /// inspect policy state after the run).
    pub fn policy_ref(mut self, policy: &'p mut dyn PriorityPolicy) -> Self {
        self.policy = PolicyHolder::Borrowed(policy);
        self
    }

    /// Enable or disable event tracing (overrides `cfg.trace`).
    pub fn trace(mut self, enabled: bool) -> Self {
        self.cfg.trace = enabled;
        self
    }

    /// Configure the structured telemetry layer in one call: `spec.events`
    /// overrides `cfg.trace` and `spec.metrics_interval` overrides
    /// `cfg.metrics_interval`.
    pub fn telemetry(mut self, spec: TelemetryConfig) -> Self {
        self.cfg.trace = spec.events;
        self.cfg.metrics_interval = spec.metrics_interval;
        self
    }

    /// Inject `plan` during the run (overrides `cfg.faults`).
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.cfg.faults = plan;
        self
    }

    /// Retry policy for fault-displaced work (overrides `cfg.retry`).
    pub fn retry(mut self, retry: RetryConfig) -> Self {
        self.cfg.retry = retry;
        self
    }

    /// Barrier behavior on worker loss (overrides `cfg.barrier_loss`).
    pub fn barrier_loss(mut self, policy: BarrierLossPolicy) -> Self {
        self.cfg.barrier_loss = policy;
        self
    }

    /// Select the network model (overrides `cfg.backend`).
    pub fn backend(mut self, backend: NetBackendKind) -> Self {
        self.cfg.backend = backend;
        self
    }

    /// Simulate on the given link graph (overrides `cfg.topology`).
    pub fn topology(mut self, spec: TopologySpec) -> Self {
        self.cfg.topology = spec;
        self
    }

    /// Run-wide traffic pattern (overrides `cfg.pattern`; jobs may still
    /// override per-job via `JobSpec::pattern`).
    pub fn pattern(mut self, pattern: TrafficPattern) -> Self {
        self.cfg.pattern = pattern;
        self
    }

    /// Enable or disable runtime invariant checks (overrides
    /// `cfg.invariants`).
    pub fn invariants(mut self, enabled: bool) -> Self {
        self.cfg.invariants = enabled;
        self
    }

    /// Enable or disable simulator self-profiling (overrides
    /// `cfg.profile`); the report lands in [`SimOutput::profile`].
    pub fn profile(mut self, enabled: bool) -> Self {
        self.cfg.profile = enabled;
        self
    }

    /// Run the simulation to completion (or the configured horizon).
    ///
    /// Panics if no jobs were added, a setup is inconsistent, or — with
    /// `SimConfig::invariants` on — any runtime invariant was violated.
    /// Use [`try_run`](Simulation::try_run) to collect violations instead.
    pub fn run(self) -> SimOutput {
        let out = self.try_run().unwrap_or_else(|e| panic!("{e}"));
        if let Some(first) = out.invariant_violations.first() {
            panic!(
                "{} invariant violation(s); first: {first}",
                out.invariant_violations.len()
            );
        }
        out
    }

    /// Like [`run`](Simulation::run), but surfaces engine bookkeeping
    /// inconsistencies as a typed [`SimError`] instead of panicking.
    /// Configuration errors (no jobs, bad placement, invalid fault plan)
    /// still panic: those are caller bugs, not runtime conditions.
    pub fn try_run(self) -> Result<SimOutput, SimError> {
        let Simulation {
            cfg,
            setups,
            mut policy,
        } = self;
        let policy: &mut dyn PriorityPolicy = match &mut policy {
            PolicyHolder::Borrowed(p) => *p,
            PolicyHolder::Owned(p) => p.as_mut(),
        };
        run_inner(cfg, setups, policy)
    }
}

fn run_inner(
    cfg: SimConfig,
    setups: Vec<JobSetup>,
    policy: &mut dyn PriorityPolicy,
) -> Result<SimOutput, SimError> {
    assert!(!setups.is_empty(), "no jobs to simulate");
    let num_hosts = setups
        .iter()
        .flat_map(|s| {
            s.placement
                .ps
                .iter()
                .map(|h| h.0)
                .chain(s.placement.worker_hosts.iter().map(|h| h.0))
        })
        .max()
        .expect("jobs present") as usize
        + 1;
    for s in &setups {
        assert_eq!(
            s.spec.num_workers as usize,
            s.placement.worker_hosts.len(),
            "{}: worker count does not match placement",
            s.spec.id
        );
    }

    let topo = cfg.topology.build(num_hosts, cfg.link, cfg.core_capacity);
    // Dispatch once on the backend kind; everything below is generic and
    // monomorphized, so the fluid fast path pays nothing for pluggability.
    match cfg.backend {
        NetBackendKind::Fluid => run_with_net(cfg, setups, policy, FluidNet::new(topo)),
        NetBackendKind::Packet => run_with_net(cfg, setups, policy, PacketNet::new(topo)),
    }
}

fn run_with_net<N: NetBackend>(
    cfg: SimConfig,
    setups: Vec<JobSetup>,
    policy: &mut dyn PriorityPolicy,
    mut net: N,
) -> Result<SimOutput, SimError> {
    let num_hosts = net.topology().num_hosts();
    let factory = RngFactory::new(cfg.seed);
    let mut queue = EventQueue::new();
    for (i, s) in setups.iter().enumerate() {
        queue.schedule(s.spec.launch_time, Ev::Launch(i));
    }
    if let Some((a, b)) = cfg.active_window {
        assert!(a < b, "active window must be a positive interval");
        queue.schedule(a, Ev::SnapshotStart);
        queue.schedule(b, Ev::SnapshotEnd);
    }
    if let Some(dt) = cfg.sample_interval {
        assert!(!dt.is_zero(), "sample interval must be positive");
        queue.schedule(SimTime::ZERO + dt, Ev::Sample);
    }
    if let Some(dt) = cfg.metrics_interval {
        assert!(!dt.is_zero(), "metrics interval must be positive");
        queue.schedule(SimTime::ZERO + dt, Ev::MetricsSample);
    }
    let timeline = cfg
        .faults
        .compile(num_hosts as u32, setups.len() as u32)
        .unwrap_or_else(|e| panic!("invalid fault plan: {e}"));
    for (i, tf) in timeline.iter().enumerate() {
        queue.schedule(tf.at, Ev::Fault(i));
    }

    let profiler = if cfg.profile {
        Profiler::enabled()
    } else {
        Profiler::disabled()
    };
    queue.set_profiler(profiler.clone());
    let mut telemetry = Telemetry::from_config(TelemetryConfig {
        events: cfg.trace,
        metrics_interval: cfg.metrics_interval,
    });
    telemetry.set_profiler(profiler.clone());

    let jobs: Vec<JobRt> = setups
        .into_iter()
        .enumerate()
        .map(|(i, s)| {
            let workers = s.spec.num_workers;
            let shards = s.placement.ps.count() as usize;
            if matches!(s.spec.mode, TrainingMode::Asynchronous) {
                assert_eq!(
                    shards, 1,
                    "{}: sharded PS is only modelled for synchronous training",
                    s.spec.id
                );
            }
            assert!(shards <= 64, "{}: more than 64 PS shards", s.spec.id);
            let pattern = s.spec.pattern.unwrap_or(cfg.pattern);
            if pattern != TrafficPattern::PsStar {
                assert!(
                    matches!(s.spec.mode, TrainingMode::Synchronous),
                    "{}: the {pattern} pattern is only modelled for synchronous training",
                    s.spec.id
                );
                assert_eq!(
                    shards, 1,
                    "{}: the {pattern} pattern does not use a sharded PS",
                    s.spec.id
                );
                assert!(
                    timeline.is_empty(),
                    "{}: fault injection is only modelled for the ps-star pattern",
                    s.spec.id
                );
            }
            // Rack groups for the hierarchical pattern: workers bucketed
            // by the rack their host sits in (one group on a single
            // switch), each led by its lowest-indexed worker.
            let groups: Vec<Vec<u32>> = if pattern == TrafficPattern::Hierarchical {
                let topo = net.topology();
                let mut by_rack: Vec<(u32, Vec<u32>)> = Vec::new();
                for (w, h) in s.placement.worker_hosts.iter().enumerate() {
                    let rack = topo.rack_of(*h).unwrap_or(0);
                    match by_rack.iter_mut().find(|(r, _)| *r == rack) {
                        Some((_, ws)) => ws.push(w as u32),
                        None => by_rack.push((rack, vec![w as u32])),
                    }
                }
                by_rack.sort_by_key(|(r, _)| *r);
                by_rack.into_iter().map(|(_, ws)| ws).collect()
            } else {
                Vec::new()
            };
            let mut worker_group = vec![0usize; workers as usize];
            for (g, ws) in groups.iter().enumerate() {
                for &w in ws {
                    worker_group[w as usize] = g;
                }
            }
            JobRt {
                tracker: BarrierTracker::with_telemetry(
                    workers as usize,
                    i as u64,
                    telemetry.clone(),
                ),
                rng: factory.indexed_stream("dl.job", i as u64),
                async_remaining: (0..workers).map(|w| s.spec.async_local_steps(w)).collect(),
                async_pending_wait: vec![None; workers as usize],
                async_done_workers: 0,
                grads_received: vec![0; shards],
                worker_shards_recv: vec![0; workers as usize],
                ps_down: false,
                lost: vec![false; workers as usize],
                lost_count: 0,
                rejoin_pending: vec![false; workers as usize],
                skip_exit: vec![false; workers as usize],
                skip_enter: vec![false; workers as usize],
                grad_bits: vec![0; workers as usize],
                agg_started: vec![false; shards],
                round_contrib: 0,
                ring_ready: 0,
                ring_step: 0,
                ring_recv: 0,
                group_recv: vec![0; groups.len()],
                hier_grads: 0,
                groups,
                worker_group,
                pattern,
                spec: s.spec,
                placement: s.placement,
                launched: false,
                completion: None,
                round: 0,
                global_steps: 0,
                iterations: 0,
                shards_aggregated: 0,
            }
        })
        .collect();

    let weight_noise = UnitLogNormal::new(cfg.net_weight_sigma);
    let invariants = if cfg.invariants {
        InvariantChecker::enabled()
    } else {
        InvariantChecker::disabled()
    };
    net.set_telemetry(telemetry.clone());
    net.set_invariants(invariants.clone());
    net.set_profiler(profiler.clone());
    let mut cpu = CpuEngine::new(cfg.host_specs(num_hosts));
    cpu.set_profiler(profiler.clone());
    let sim = Sim {
        cpu,
        net,
        cfg,
        queue,
        jobs,
        policy,
        assignment: Assignment::default(),
        flows: HashMap::new(),
        tasks: HashMap::new(),
        net_wake: None,
        cpu_wake: None,
        policy_wake: None,
        weight_noise,
        snap_start: None,
        snap_end: None,
        last_sample: None,
        samples: Vec::new(),
        done_count: 0,
        telemetry,
        metrics_prev: None,
        metrics_prev_fabric: None,
        timeline,
        host_down: vec![false; num_hosts],
        ctrl_outage: false,
        retries: Vec::new(),
        invariants,
        profiler,
    };
    sim.run()
}

impl<'a, N: NetBackend> Sim<'a, N> {
    fn run(mut self) -> Result<SimOutput, SimError> {
        let window_configured = self.cfg.active_window.is_some();
        let mut end_time = SimTime::ZERO;
        while let Some((t, ev)) = self.queue.pop() {
            if t > self.cfg.max_sim_time {
                end_time = self.cfg.max_sim_time;
                break;
            }
            end_time = t;
            let handler_timer = self.profiler.start();
            match ev {
                Ev::Launch(j) => self.on_launch(t, j),
                Ev::NetWake => self.on_net_wake(t)?,
                Ev::CpuWake => self.on_cpu_wake(t)?,
                Ev::PolicyUpdate => self.refresh_policy(t),
                Ev::Fault(i) => self.on_fault(t, i),
                Ev::Retry(i) => self.on_retry(t, i),
                Ev::SnapshotStart => {
                    self.net.advance(t);
                    self.cpu.advance(t);
                    self.snap_start = Some(monitor::snapshot(t, &self.cpu, self.net.egress_bytes(), self.net.ingress_bytes()));
                }
                Ev::SnapshotEnd => {
                    self.net.advance(t);
                    self.cpu.advance(t);
                    self.snap_end = Some(monitor::snapshot(t, &self.cpu, self.net.egress_bytes(), self.net.ingress_bytes()));
                }
                Ev::Sample => self.on_sample(t),
                Ev::MetricsSample => self.on_metrics_sample(t),
            }
            // Same-timestamp batching: while more events are queued at
            // exactly `t`, skip re-arming the wake-up events — each rearm
            // asks the substrates for their next event time, which forces
            // a rate refresh, and handlers never need rates mid-batch
            // (any read goes through an explicit `advance`). One rearm —
            // and so at most one allocator solve — serves the burst.
            // Handlers only schedule strictly-future events except via
            // `rearm` itself, so batching cannot change same-`t` pop order.
            if self.queue.peek_time() != Some(t) {
                self.rearm(t);
            }
            self.profiler.stop("engine.handlers", handler_timer);
            let snaps_done =
                !window_configured || (self.snap_start.is_some() && self.snap_end.is_some());
            if self.done_count == self.jobs.len() && snaps_done {
                break;
            }
        }

        let utilization = match (&self.snap_start, &self.snap_end) {
            (Some(a), Some(b)) => Some(monitor::utilization_between(
                a,
                b,
                &self.cfg.host_specs(self.net.topology().num_hosts()),
                self.net.topology(),
            )),
            _ => None,
        };
        let events = self.queue.events_processed();
        Ok(SimOutput {
            samples: self.samples,
            jobs: self
                .jobs
                .into_iter()
                .map(|j| JobResult {
                    id: j.spec.id,
                    launch: j.spec.launch_time,
                    completion: j.completion,
                    iterations: j.iterations,
                    global_steps: j.global_steps,
                    barrier_means: j.tracker.means,
                    barrier_vars: j.tracker.vars,
                    waits: j.tracker.waits,
                })
                .collect(),
            window_snapshots: self.snap_start.zip(self.snap_end),
            utilization,
            end_time,
            events,
            alloc_stats: self.net.alloc_stats(),
            telemetry: self.telemetry.take_output(),
            invariant_violations: self.invariants.take(),
            profile: self.profiler.report(),
        })
    }

    // ---- event handlers ------------------------------------------------

    fn on_launch(&mut self, now: SimTime, j: usize) {
        self.jobs[j].launched = true;
        self.telemetry
            .emit_with(now, || SimEvent::JobArrival { job: j as u64 });
        self.refresh_policy(now);
        match self.jobs[j].pattern {
            TrafficPattern::PsStar => self.send_model_updates(now, j, None),
            // No PS: workers hold the model locally and start computing
            // round 0 straight away.
            TrafficPattern::Ring => {
                for w in 0..self.jobs[j].spec.num_workers {
                    self.start_worker_step(now, j, w, 0);
                }
            }
            TrafficPattern::Hierarchical => self.send_hier_models(now, j),
        }
    }

    fn on_net_wake(&mut self, now: SimTime) -> Result<(), SimError> {
        let completions = self.net.take_completions(now);
        for c in completions {
            self.invariants.check(
                now,
                "dl.flow_time",
                || c.started <= c.finished && c.finished <= now,
                || {
                    format!(
                        "flow {:?} completion out of order: started {}, finished {}, drained {now}",
                        c.id, c.started, c.finished
                    )
                },
            );
            let ctx = self
                .flows
                .remove(&c.id)
                .ok_or(SimError::MissingFlowContext { flow: c.id, at: now })?;
            match ctx.kind {
                FlowKind::ModelUpdate { round, .. } => self.on_model_delivered(now, ctx, round),
                FlowKind::GradUpdate { round, shard } => {
                    self.on_grad_delivered(now, ctx, round, shard)
                }
                FlowKind::RingShift { round, step } => {
                    self.on_ring_shift(now, ctx.job, round, step)
                }
                FlowKind::HierGrad => self.on_hier_grad(now, ctx.job, ctx.worker),
                FlowKind::HierGradToPs => self.on_hier_ps_grad(now, ctx.job),
                FlowKind::HierModelToLeader { round } => {
                    self.on_hier_model_at_leader(now, ctx.job, ctx.worker, round)
                }
                FlowKind::HierModelRelay { round } => {
                    self.on_hier_model_at_member(now, ctx.job, ctx.worker, round)
                }
            }
        }
        Ok(())
    }

    fn on_cpu_wake(&mut self, now: SimTime) -> Result<(), SimError> {
        let completions = self.cpu.take_completions(now);
        for c in completions {
            let ctx = self
                .tasks
                .remove(&c.id)
                .ok_or(SimError::MissingTaskContext { task: c.id, at: now })?;
            self.telemetry.emit_with(now, || {
                let (kind, unit) = ctx.kind.telemetry_label();
                SimEvent::TaskFinish {
                    task: c.id.0,
                    job: ctx.job as u64,
                    host: c.host as u32,
                    kind,
                    unit,
                    started: c.started,
                }
            });
            match ctx.kind {
                TaskKind::WorkerStep { worker, round } => {
                    self.on_step_computed(now, ctx.job, worker, round)
                }
                TaskKind::PsAggregate { shard } => self.on_aggregated(now, ctx.job, shard),
                TaskKind::PsAsyncApply { worker } => self.on_async_applied(now, ctx.job, worker),
            }
        }
        Ok(())
    }

    // ---- synchronous state machine -------------------------------------

    /// The PS (every shard) sends model updates: to all workers (sync /
    /// launch) or to one worker (async).
    fn send_model_updates(&mut self, now: SimTime, j: usize, only_worker: Option<u32>) {
        let (specs, ctxs) = {
            let band = self.assignment.band_of(j as u64);
            let job = &mut self.jobs[j];
            let round = job.round;
            let mut specs = Vec::new();
            let mut ctxs = Vec::new();
            let workers: Vec<u32> = match only_worker {
                Some(w) => vec![w],
                // Dropped workers get no model until they rejoin.
                None => (0..job.spec.num_workers)
                    .filter(|&w| !job.lost[w as usize])
                    .collect(),
            };
            for shard in 0..job.num_shards() {
                let src = job.shard_host(shard);
                let bytes = job.shard_bytes(shard);
                for &w in &workers {
                    specs.push(FlowSpec {
                        src,
                        dst: job.placement.worker_hosts[w as usize],
                        bytes,
                        band,
                        weight: self.weight_noise.sample(&mut job.rng),
                        tag: j as u64,
                    });
                    ctxs.push(FlowCtx {
                        job: j,
                        worker: w,
                        kind: FlowKind::ModelUpdate { round, shard },
                    });
                }
            }
            (specs, ctxs)
        };
        for (spec, ctx) in specs.into_iter().zip(ctxs) {
            if self.flow_blocked(&ctx) {
                self.queue_retry(now, PendingWork::Flow(ctx));
                continue;
            }
            let id = match self.cfg.model_update_rate_cap {
                Some(cap) => self.net.start_flow_with_cap(now, spec, cap),
                None => self.net.start_flow(now, spec),
            };
            self.flows.insert(id, ctx);
        }
    }

    /// A worker received one model shard for `round`. Once all shards are
    /// in, it exits the previous barrier and starts computing.
    fn on_model_delivered(&mut self, now: SimTime, ctx: FlowCtx, round: u64) {
        let j = ctx.job;
        let w = ctx.worker;
        let (demand, cap) = {
            let job = &mut self.jobs[j];
            job.worker_shards_recv[w as usize] += 1;
            if job.worker_shards_recv[w as usize] < job.num_shards() {
                return; // other shards of this round still in flight
            }
            job.worker_shards_recv[w as usize] = 0;
            match job.spec.mode {
                TrainingMode::Synchronous => {
                    if round > 0 {
                        if job.skip_exit[w as usize] {
                            // Rejoining worker: it never entered the
                            // barrier this delivery would exit.
                            job.skip_exit[w as usize] = false;
                        } else {
                            job.tracker.record_exit(w as usize, now, round - 1);
                        }
                    }
                }
                TrainingMode::Asynchronous => {
                    if let Some(sent) = job.async_pending_wait[w as usize].take() {
                        job.tracker.waits.push(now.since(sent).as_secs_f64());
                    }
                }
            }
            let demand = self.cfg.compute.sample_step_core_secs(
                &mut job.rng,
                &job.spec.model,
                job.spec.local_batch_size,
            );
            (demand, self.cfg.compute.worker_parallelism)
        };
        self.dispatch_task(
            now,
            demand,
            cap,
            TaskCtx {
                job: j,
                kind: TaskKind::WorkerStep { worker: w, round },
            },
        );
    }

    /// Sample a local step's compute demand and dispatch it for `w`.
    fn start_worker_step(&mut self, now: SimTime, j: usize, w: u32, round: u64) {
        let (demand, cap) = {
            let job = &mut self.jobs[j];
            (
                self.cfg.compute.sample_step_core_secs(
                    &mut job.rng,
                    &job.spec.model,
                    job.spec.local_batch_size,
                ),
                self.cfg.compute.worker_parallelism,
            )
        };
        self.dispatch_task(
            now,
            demand,
            cap,
            TaskCtx {
                job: j,
                kind: TaskKind::WorkerStep { worker: w, round },
            },
        );
    }

    /// A worker finished computing step `round`: continue per the job's
    /// traffic pattern.
    fn on_step_computed(&mut self, now: SimTime, j: usize, w: u32, round: u64) {
        match self.jobs[j].pattern {
            TrafficPattern::PsStar => self.on_step_computed_star(now, j, w, round),
            TrafficPattern::Ring => self.on_step_computed_ring(now, j, w, round),
            TrafficPattern::Hierarchical => self.on_step_computed_hier(now, j, w, round),
        }
    }

    /// PS-star: enter the barrier and send a gradient slice to every PS
    /// shard.
    fn on_step_computed_star(&mut self, now: SimTime, j: usize, w: u32, round: u64) {
        let specs: Vec<(FlowSpec, u32)> = {
            let job = &mut self.jobs[j];
            match job.spec.mode {
                TrainingMode::Synchronous => {
                    if job.skip_enter[w as usize] {
                        // Rejoined worker replaying a round it already
                        // entered before its host crashed.
                        job.skip_enter[w as usize] = false;
                    } else {
                        job.tracker.record_enter(w as usize, now, round);
                    }
                }
                TrainingMode::Asynchronous => {
                    job.async_pending_wait[w as usize] = Some(now);
                }
            }
            let src = job.placement.worker_hosts[w as usize];
            let band = self.assignment.default_band_of(src);
            (0..job.num_shards())
                .map(|shard| {
                    (
                        FlowSpec {
                            src,
                            dst: job.shard_host(shard),
                            bytes: job.shard_bytes(shard),
                            band,
                            weight: self.weight_noise.sample(&mut job.rng),
                            tag: GRAD_TAG_BASE | j as u64,
                        },
                        shard,
                    )
                })
                .collect()
        };
        for (spec, shard) in specs {
            let ctx = FlowCtx {
                job: j,
                worker: w,
                kind: FlowKind::GradUpdate { round, shard },
            };
            if self.flow_blocked(&ctx) {
                self.queue_retry(now, PendingWork::Flow(ctx));
                continue;
            }
            let id = self.net.start_flow(now, spec);
            self.flows.insert(id, ctx);
        }
    }

    /// A gradient slice reached a PS shard.
    fn on_grad_delivered(&mut self, now: SimTime, ctx: FlowCtx, _round: u64, shard: u32) {
        let j = ctx.job;
        let job = &mut self.jobs[j];
        match job.spec.mode {
            TrainingMode::Synchronous => {
                job.grads_received[shard as usize] += 1;
                job.grad_bits[ctx.worker as usize] |= 1 << shard;
                self.maybe_release_shard(now, j, shard);
            }
            TrainingMode::Asynchronous => {
                let demand = (self
                    .cfg
                    .compute
                    .ps_aggregate_core_secs(&job.spec.model, job.spec.num_workers)
                    / job.spec.num_workers as f64)
                    .max(1e-6);
                let cap = self.cfg.compute.ps_parallelism;
                self.dispatch_task(
                    now,
                    demand,
                    cap,
                    TaskCtx {
                        job: j,
                        kind: TaskKind::PsAsyncApply { worker: ctx.worker },
                    },
                );
            }
        }
    }

    // ---- ring all-reduce state machine ---------------------------------

    /// Ring: a worker finished computing. It enters the barrier; when all
    /// `k` workers are ready the barrier-synchronized all-reduce starts
    /// (2(k-1) steps of `1/k`-sized shifts around the ring).
    fn on_step_computed_ring(&mut self, now: SimTime, j: usize, w: u32, round: u64) {
        let k = {
            let job = &mut self.jobs[j];
            job.tracker.record_enter(w as usize, now, round);
            job.ring_ready += 1;
            if job.ring_ready < job.spec.num_workers {
                return;
            }
            job.ring_ready = 0;
            job.ring_step = 0;
            job.spec.num_workers
        };
        if k > 1 {
            self.start_ring_step(now, j, round);
        } else {
            // A one-worker ring has nothing to reduce.
            self.jobs[j].tracker.record_exit(0, now, round);
            self.ring_commit(now, j);
        }
    }

    /// Launch the `k` concurrent shift flows of the current ring step:
    /// worker `w` sends its slice to worker `(w+1) % k`.
    fn start_ring_step(&mut self, now: SimTime, j: usize, round: u64) {
        let (specs, ctxs) = {
            let job = &mut self.jobs[j];
            let step = job.ring_step;
            let k = job.spec.num_workers;
            let bytes = job.spec.model.update_bytes() as f64 / k as f64;
            let mut specs = Vec::with_capacity(k as usize);
            let mut ctxs = Vec::with_capacity(k as usize);
            for w in 0..k {
                let src = job.placement.worker_hosts[w as usize];
                let dst = job.placement.worker_hosts[((w + 1) % k) as usize];
                let band = self.assignment.default_band_of(src);
                specs.push(FlowSpec {
                    src,
                    dst,
                    bytes,
                    band,
                    weight: self.weight_noise.sample(&mut job.rng),
                    tag: GRAD_TAG_BASE | j as u64,
                });
                ctxs.push(FlowCtx {
                    job: j,
                    worker: w,
                    kind: FlowKind::RingShift { round, step },
                });
            }
            (specs, ctxs)
        };
        for (spec, ctx) in specs.into_iter().zip(ctxs) {
            let id = self.net.start_flow(now, spec);
            self.flows.insert(id, ctx);
        }
    }

    /// A ring-shift slice arrived. When all `k` slices of the step are in,
    /// advance to the next step or finish the all-reduce.
    fn on_ring_shift(&mut self, now: SimTime, j: usize, round: u64, step: u32) {
        let complete = {
            let job = &mut self.jobs[j];
            debug_assert_eq!(step, job.ring_step, "ring steps are barrier-synchronized");
            job.ring_recv += 1;
            if job.ring_recv < job.spec.num_workers {
                return;
            }
            job.ring_recv = 0;
            job.ring_step += 1;
            job.ring_step == 2 * (job.spec.num_workers - 1)
        };
        if complete {
            // Every worker now holds the fully reduced update: the barrier
            // opens for all of them at once.
            for w in 0..self.jobs[j].spec.num_workers {
                self.jobs[j].tracker.record_exit(w as usize, now, round);
            }
            self.ring_commit(now, j);
        } else {
            self.start_ring_step(now, j, round);
        }
    }

    /// Commit one ring iteration: every worker contributed a step.
    fn ring_commit(&mut self, now: SimTime, j: usize) {
        let finished = {
            let job = &mut self.jobs[j];
            job.global_steps += job.spec.num_workers as u64;
            job.iterations += 1;
            job.ring_step = 0;
            job.global_steps >= job.spec.target_global_steps
        };
        if finished {
            self.complete_job(now, j);
        } else {
            self.jobs[j].round += 1;
            let round = self.jobs[j].round;
            for w in 0..self.jobs[j].spec.num_workers {
                self.start_worker_step(now, j, w, round);
            }
        }
    }

    // ---- hierarchical (rack-local reduce) state machine ----------------

    /// Hierarchical: the PS sends the full model to every rack-group
    /// leader (launch and each round boundary).
    fn send_hier_models(&mut self, now: SimTime, j: usize) {
        let (specs, ctxs) = {
            let band = self.assignment.band_of(j as u64);
            let job = &mut self.jobs[j];
            let round = job.round;
            let src = job.placement.ps_host();
            let bytes = job.spec.model.update_bytes() as f64;
            let leaders: Vec<u32> = job.groups.iter().map(|g| g[0]).collect();
            let mut specs = Vec::with_capacity(leaders.len());
            let mut ctxs = Vec::with_capacity(leaders.len());
            for leader in leaders {
                specs.push(FlowSpec {
                    src,
                    dst: job.placement.worker_hosts[leader as usize],
                    bytes,
                    band,
                    weight: self.weight_noise.sample(&mut job.rng),
                    tag: j as u64,
                });
                ctxs.push(FlowCtx {
                    job: j,
                    worker: leader,
                    kind: FlowKind::HierModelToLeader { round },
                });
            }
            (specs, ctxs)
        };
        for (spec, ctx) in specs.into_iter().zip(ctxs) {
            let id = match self.cfg.model_update_rate_cap {
                Some(cap) => self.net.start_flow_with_cap(now, spec, cap),
                None => self.net.start_flow(now, spec),
            };
            self.flows.insert(id, ctx);
        }
    }

    /// The model reached a rack leader: relay it to the group's members
    /// and start the leader's own step.
    fn on_hier_model_at_leader(&mut self, now: SimTime, j: usize, leader: u32, round: u64) {
        let (specs, ctxs) = {
            let band = self.assignment.band_of(j as u64);
            let job = &mut self.jobs[j];
            let g = job.worker_group[leader as usize];
            let src = job.placement.worker_hosts[leader as usize];
            let bytes = job.spec.model.update_bytes() as f64;
            let members: Vec<u32> = job.groups[g][1..].to_vec();
            let mut specs = Vec::with_capacity(members.len());
            let mut ctxs = Vec::with_capacity(members.len());
            for m in members {
                specs.push(FlowSpec {
                    src,
                    dst: job.placement.worker_hosts[m as usize],
                    bytes,
                    band,
                    weight: self.weight_noise.sample(&mut job.rng),
                    tag: j as u64,
                });
                ctxs.push(FlowCtx {
                    job: j,
                    worker: m,
                    kind: FlowKind::HierModelRelay { round },
                });
            }
            (specs, ctxs)
        };
        for (spec, ctx) in specs.into_iter().zip(ctxs) {
            let id = match self.cfg.model_update_rate_cap {
                Some(cap) => self.net.start_flow_with_cap(now, spec, cap),
                None => self.net.start_flow(now, spec),
            };
            self.flows.insert(id, ctx);
        }
        self.hier_worker_has_model(now, j, leader, round);
    }

    /// A relayed model reached a group member.
    fn on_hier_model_at_member(&mut self, now: SimTime, j: usize, w: u32, round: u64) {
        self.hier_worker_has_model(now, j, w, round);
    }

    /// A worker holds round `round`'s model: exit the previous barrier and
    /// start computing (mirrors the PS-star model-delivery path).
    fn hier_worker_has_model(&mut self, now: SimTime, j: usize, w: u32, round: u64) {
        if round > 0 {
            self.jobs[j].tracker.record_exit(w as usize, now, round - 1);
        }
        self.start_worker_step(now, j, w, round);
    }

    /// Hierarchical: a worker finished computing. Members push their full
    /// gradient to the rack leader; the leader's own gradient is local.
    fn on_step_computed_hier(&mut self, now: SimTime, j: usize, w: u32, round: u64) {
        let (spec, leader, group_complete) = {
            let job = &mut self.jobs[j];
            job.tracker.record_enter(w as usize, now, round);
            let g = job.worker_group[w as usize];
            let leader = job.groups[g][0];
            if w == leader {
                job.group_recv[g] += 1;
                (None, leader, job.group_recv[g] == job.groups[g].len() as u32)
            } else {
                let src = job.placement.worker_hosts[w as usize];
                let band = self.assignment.default_band_of(src);
                let spec = FlowSpec {
                    src,
                    dst: job.placement.worker_hosts[leader as usize],
                    bytes: job.spec.model.update_bytes() as f64,
                    band,
                    weight: self.weight_noise.sample(&mut job.rng),
                    tag: GRAD_TAG_BASE | j as u64,
                };
                (Some(spec), leader, false)
            }
        };
        match spec {
            Some(spec) => {
                let ctx = FlowCtx {
                    job: j,
                    worker: w,
                    kind: FlowKind::HierGrad,
                };
                let id = self.net.start_flow(now, spec);
                self.flows.insert(id, ctx);
            }
            None if group_complete => self.send_leader_gradient(now, j, leader),
            None => {}
        }
    }

    /// A member's gradient reached its rack leader. Once the whole group
    /// reported, the leader forwards one reduced gradient to the PS.
    fn on_hier_grad(&mut self, now: SimTime, j: usize, member: u32) {
        let (leader, complete) = {
            let job = &mut self.jobs[j];
            let g = job.worker_group[member as usize];
            job.group_recv[g] += 1;
            (job.groups[g][0], job.group_recv[g] == job.groups[g].len() as u32)
        };
        if complete {
            self.send_leader_gradient(now, j, leader);
        }
    }

    /// A rack leader sends its group's reduced gradient to the PS.
    fn send_leader_gradient(&mut self, now: SimTime, j: usize, leader: u32) {
        let spec = {
            let job = &mut self.jobs[j];
            let src = job.placement.worker_hosts[leader as usize];
            let band = self.assignment.default_band_of(src);
            FlowSpec {
                src,
                dst: job.placement.ps_host(),
                bytes: job.spec.model.update_bytes() as f64,
                band,
                weight: self.weight_noise.sample(&mut job.rng),
                tag: GRAD_TAG_BASE | j as u64,
            }
        };
        let ctx = FlowCtx {
            job: j,
            worker: leader,
            kind: FlowKind::HierGradToPs,
        };
        let id = self.net.start_flow(now, spec);
        self.flows.insert(id, ctx);
    }

    /// A reduced gradient reached the PS. With one per rack group in, the
    /// PS aggregates (the commit then flows through `on_aggregated`).
    fn on_hier_ps_grad(&mut self, now: SimTime, j: usize) {
        let release = {
            let job = &mut self.jobs[j];
            job.hier_grads += 1;
            job.hier_grads == job.groups.len() as u32
        };
        if !release {
            return;
        }
        let (demand, cap) = {
            let job = &mut self.jobs[j];
            job.hier_grads = 0;
            for r in job.group_recv.iter_mut() {
                *r = 0;
            }
            // Every worker contributed a step; the leaders pre-reduced, so
            // the PS folds only one gradient per rack group.
            job.round_contrib = job.spec.num_workers;
            let groups = job.groups.len() as u32;
            (
                self.cfg
                    .compute
                    .ps_aggregate_core_secs(&job.spec.model, groups)
                    .max(1e-6),
                self.cfg.compute.ps_parallelism,
            )
        };
        self.dispatch_task(
            now,
            demand,
            cap,
            TaskCtx {
                job: j,
                kind: TaskKind::PsAggregate { shard: 0 },
            },
        );
    }

    /// Release PS shard `shard`'s aggregation if its gradient quorum —
    /// `num_workers` minus dropped workers — is met and it has not
    /// already aggregated this round.
    fn maybe_release_shard(&mut self, now: SimTime, j: usize, shard: u32) {
        let (demand, cap, count, workers) = {
            let job = &mut self.jobs[j];
            let expected = job.expected_grads();
            if job.agg_started[shard as usize]
                || expected == 0
                || job.grads_received[shard as usize] < expected
            {
                return;
            }
            let count = job.grads_received[shard as usize];
            job.grads_received[shard as usize] = 0;
            job.agg_started[shard as usize] = true;
            job.round_contrib = job.round_contrib.max(count);
            // These gradients are consumed: a later worker drop must not
            // un-count them.
            for bits in job.grad_bits.iter_mut() {
                *bits &= !(1 << shard);
            }
            // The shard aggregates its slice of every collected gradient.
            let demand = (self
                .cfg
                .compute
                .ps_aggregate_core_secs(&job.spec.model, job.spec.num_workers)
                / job.num_shards() as f64)
                .max(1e-6);
            (
                demand,
                self.cfg.compute.ps_parallelism,
                count,
                job.spec.num_workers,
            )
        };
        // Barrier accounting: a shard can never have collected more
        // gradients than the job has workers (double-counted deliveries
        // or a missed un-count after a worker drop would break this).
        self.invariants.check(
            now,
            "dl.barrier",
            || count <= workers,
            || format!("job {j} shard {shard} released with {count} grads > {workers} workers"),
        );
        self.dispatch_task(
            now,
            demand,
            cap,
            TaskCtx {
                job: j,
                kind: TaskKind::PsAggregate { shard },
            },
        );
    }

    /// A PS shard finished aggregating. When every shard is done the
    /// iteration commits: advance the global step; finish the job or
    /// distribute the next round from all shards.
    fn on_aggregated(&mut self, now: SimTime, j: usize, _shard: u32) {
        let (finished, contrib, workers) = {
            let job = &mut self.jobs[j];
            job.shards_aggregated += 1;
            if job.shards_aggregated < job.num_shards() {
                return;
            }
            job.shards_aggregated = 0;
            for started in job.agg_started.iter_mut() {
                *started = false;
            }
            // The effective batch of this iteration: gradients actually
            // aggregated (reduced while workers are dropped).
            let contrib = job.round_contrib;
            job.global_steps += contrib as u64;
            job.round_contrib = 0;
            job.iterations += 1;
            (
                job.global_steps >= job.spec.target_global_steps,
                contrib,
                job.spec.num_workers,
            )
        };
        // Gradient-accounting balance: every committed iteration must have
        // aggregated between 1 and `num_workers` gradients.
        self.invariants.check(
            now,
            "dl.barrier",
            || (1..=workers).contains(&contrib),
            || format!("job {j} committed an iteration with {contrib} of {workers} gradients"),
        );
        if finished {
            self.complete_job(now, j);
        } else {
            // Round boundary: recovered workers rejoin here.
            let rejoins: Vec<usize> = {
                let job = &self.jobs[j];
                (0..job.spec.num_workers as usize)
                    .filter(|&w| {
                        job.rejoin_pending[w]
                            && !self.host_down[job.placement.worker_hosts[w].0 as usize]
                    })
                    .collect()
            };
            for w in rejoins {
                let job = &mut self.jobs[j];
                job.rejoin_pending[w] = false;
                job.lost[w] = false;
                job.lost_count -= 1;
                job.worker_shards_recv[w] = 0;
                // The rejoin model delivery exits no barrier.
                job.skip_exit[w] = true;
            }
            self.jobs[j].round += 1;
            match self.jobs[j].pattern {
                TrafficPattern::Hierarchical => self.send_hier_models(now, j),
                _ => self.send_model_updates(now, j, None),
            }
        }
    }

    /// Asynchronous apply finished for one worker.
    fn on_async_applied(&mut self, now: SimTime, j: usize, w: u32) {
        let action = {
            let job = &mut self.jobs[j];
            job.global_steps += 1;
            job.async_remaining[w as usize] -= 1;
            if job.async_remaining[w as usize] == 0 {
                job.async_done_workers += 1;
                if job.async_done_workers == job.spec.num_workers {
                    AsyncAction::Complete
                } else {
                    AsyncAction::Nothing
                }
            } else {
                AsyncAction::SendModel
            }
        };
        match action {
            AsyncAction::Complete => self.complete_job(now, j),
            AsyncAction::SendModel => self.send_model_updates(now, j, Some(w)),
            AsyncAction::Nothing => {}
        }
    }

    fn complete_job(&mut self, now: SimTime, j: usize) {
        debug_assert!(self.jobs[j].completion.is_none(), "job completed twice");
        let (steps, target) = (
            self.jobs[j].global_steps,
            self.jobs[j].spec.target_global_steps,
        );
        self.invariants.check(
            now,
            "dl.progress",
            || steps >= target,
            || format!("job {j} completed with {steps} of {target} global steps"),
        );
        self.jobs[j].completion = Some(now);
        self.done_count += 1;
        self.telemetry.emit_with(now, || SimEvent::JobCompletion {
            job: j as u64,
            iterations: self.jobs[j].iterations,
        });
        self.refresh_policy(now);
    }

    fn on_sample(&mut self, now: SimTime) {
        self.net.advance(now);
        self.cpu.advance(now);
        let snap = monitor::snapshot(now, &self.cpu, self.net.egress_bytes(), self.net.ingress_bytes());
        if let Some(prev) = self.last_sample.take() {
            let specs = self.cfg.host_specs(self.net.topology().num_hosts());
            self.samples.push(UtilizationSample {
                at: now,
                per_host: monitor::utilization_between(&prev, &snap, &specs, self.net.topology()),
                job_progress: self.jobs.iter().map(|j| j.global_steps).collect(),
            });
        }
        self.last_sample = Some(snap);
        // Keep sampling while any job is still running.
        if self.done_count < self.jobs.len() {
            let dt = self.cfg.sample_interval.expect("sampling configured");
            self.queue.schedule(now + dt, Ev::Sample);
        }
    }

    /// Sample the telemetry metrics registry: per-host utilization gauges
    /// over the interval just ended, cumulative allocator counters, and
    /// per-job progress gauges.
    fn on_metrics_sample(&mut self, now: SimTime) {
        self.net.advance(now);
        self.cpu.advance(now);
        let snap = monitor::snapshot(now, &self.cpu, self.net.egress_bytes(), self.net.ingress_bytes());
        let util = self.metrics_prev.take().map(|prev| {
            let specs = self.cfg.host_specs(self.net.topology().num_hosts());
            monitor::utilization_between(&prev, &snap, &specs, self.net.topology())
        });
        self.metrics_prev = Some(snap);
        // Per-fabric-link utilization over the interval just ended (empty
        // on single-switch topologies).
        let fabric_util: Vec<(String, f64)> = {
            let cur = self.net.fabric_bytes().to_vec();
            let prev = self.metrics_prev_fabric.replace(cur.clone());
            match prev {
                Some(prev) => {
                    let dt = self
                        .cfg
                        .metrics_interval
                        .expect("metrics configured")
                        .as_secs_f64();
                    let topo = self.net.topology();
                    cur.iter()
                        .enumerate()
                        .map(|(l, &bytes)| {
                            let link = LinkId(l as u32);
                            let cap = topo.fabric_capacity(link).bytes_per_sec();
                            (
                                format!("fabric.{}.util", topo.fabric_label(link)),
                                (bytes - prev[l]) / (cap * dt),
                            )
                        })
                        .collect()
                }
                None => Vec::new(),
            }
        };
        let alloc = self.net.alloc_stats();
        let progress: Vec<u64> = self.jobs.iter().map(|j| j.global_steps).collect();
        self.telemetry.metrics(|reg| {
            if let Some(util) = &util {
                monitor::record_utilization(reg, util);
            }
            // The wall-clock field (`wall_nanos`) stays out: exported
            // metrics must be deterministic.
            for (name, v) in [
                ("alloc.invocations", alloc.invocations),
                ("alloc.full_solves", alloc.full_solves),
                ("alloc.components_solved", alloc.components_solved),
                ("alloc.components_retained", alloc.components_retained),
                ("alloc.rounds", alloc.rounds),
                ("alloc.freeze_rounds", alloc.freeze_rounds),
                ("alloc.links_touched", alloc.links_touched),
                ("alloc.flows_touched", alloc.flows_touched),
            ] {
                let id = reg.register(name, MetricKind::Counter);
                reg.set(id, v as f64);
            }
            for (j, steps) in progress.iter().enumerate() {
                let id = reg.register(&format!("job{j}.steps"), MetricKind::Gauge);
                reg.set(id, *steps as f64);
            }
            for (name, util) in &fabric_util {
                let id = reg.register(name, MetricKind::Gauge);
                reg.set(id, *util);
            }
            reg.sample(now);
        });
        if self.done_count < self.jobs.len() {
            let dt = self.cfg.metrics_interval.expect("metrics configured");
            self.queue.schedule(now + dt, Ev::MetricsSample);
        }
    }

    // ---- policy plumbing ------------------------------------------------

    fn refresh_policy(&mut self, now: SimTime) {
        if self.ctrl_outage {
            // tlsd is unreachable: the deployed band map freezes (no
            // assign, no tc pushes), but the tick stays armed so rotation
            // resumes the instant the outage ends.
            if let Some(h) = self.policy_wake.take() {
                self.queue.cancel(h);
            }
            if let Some(t) = self.policy.next_update(now) {
                debug_assert!(t > now, "policy next_update must be in the future");
                self.policy_wake = Some(self.queue.schedule(t, Ev::PolicyUpdate));
            }
            return;
        }
        let infos: Vec<JobTrafficInfo> = self
            .jobs
            .iter()
            .enumerate()
            .filter(|(_, job)| job.launched && !job.done())
            .map(|(i, job)| JobTrafficInfo {
                tag: i as u64,
                ps_host: job.placement.ps.primary(),
                update_bytes: job.spec.model.update_bytes(),
                arrival_seq: i as u64,
            })
            .collect();
        let old = std::mem::replace(&mut self.assignment, self.policy.assign(now, &infos));
        for info in &infos {
            let band = self.assignment.band_of(info.tag);
            let changed = self.net.set_band_for_tag(now, info.tag, band);
            // The fluid engine emits the rotation when it re-bands in-flight
            // flows; when none are in flight the band change is still a
            // policy-level fact worth tracing.
            if changed == 0 && band != old.band_of(info.tag) {
                self.telemetry.emit_with(now, || SimEvent::PriorityRotation {
                    tag: info.tag,
                    band: band.0,
                    flows: 0,
                });
            }
        }
        if let Some(h) = self.policy_wake.take() {
            self.queue.cancel(h);
        }
        if let Some(t) = self.policy.next_update(now) {
            debug_assert!(t > now, "policy next_update must be in the future");
            self.policy_wake = Some(self.queue.schedule(t, Ev::PolicyUpdate));
        }
    }

    // ---- fault injection and recovery ----------------------------------

    fn on_fault(&mut self, now: SimTime, i: usize) {
        match self.timeline[i].action {
            FaultAction::HostDown { host } => self.on_host_down(now, host),
            FaultAction::HostUp { host } => self.on_host_up(now, host),
            FaultAction::NicCapacity { host, factor } => {
                let cap = Bandwidth::from_bytes_per_sec(self.cfg.link.bytes_per_sec() * factor);
                self.net.set_host_capacity(now, HostId(host), cap, cap);
                self.emit_capacity_event(now, "nic_degrade", host, factor);
            }
            FaultAction::ComputeCapacity { host, factor } => {
                let n = self.net.topology().num_hosts();
                let base = self.cfg.host_specs(n)[host as usize].cores;
                self.cpu.set_host_cores(now, host as usize, base * factor);
                self.emit_capacity_event(now, "compute_slowdown", host, factor);
            }
            FaultAction::PsDown { job } => self.on_ps_down(now, job as usize),
            FaultAction::PsUp { job } => {
                self.jobs[job as usize].ps_down = false;
                self.telemetry.emit_with(now, || SimEvent::FaultRecovered {
                    fault: "ps_failure",
                    target: job as u64,
                });
            }
            FaultAction::CtrlOutageStart => {
                self.ctrl_outage = true;
                self.telemetry.emit_with(now, || SimEvent::FaultInjected {
                    fault: "ctrl_outage",
                    target: 0,
                });
            }
            FaultAction::CtrlStale => self.on_ctrl_stale(now),
            FaultAction::CtrlOutageEnd => {
                self.ctrl_outage = false;
                self.telemetry.emit_with(now, || SimEvent::FaultRecovered {
                    fault: "ctrl_outage",
                    target: 0,
                });
                // Re-sync: rebuild band state from the live job set.
                self.refresh_policy(now);
            }
        }
    }

    fn emit_capacity_event(&mut self, now: SimTime, fault: &'static str, host: u32, factor: f64) {
        if factor < 1.0 {
            self.telemetry.emit_with(now, || SimEvent::FaultInjected {
                fault,
                target: host as u64,
            });
        } else {
            self.telemetry.emit_with(now, || SimEvent::FaultRecovered {
                fault,
                target: host as u64,
            });
        }
    }

    fn on_host_down(&mut self, now: SimTime, h: u32) {
        self.host_down[h as usize] = true;
        self.telemetry.emit_with(now, || SimEvent::FaultInjected {
            fault: "host_crash",
            target: h as u64,
        });
        let hid = HostId(h);
        // In-flight work touching the host is lost (partial bytes are not
        // resumed — the transfer restarts from scratch on retry).
        let flows = self
            .net
            .abort_flows_where(now, &mut |_, spec| spec.src == hid || spec.dst == hid);
        for (id, tag) in flows {
            if let Some(ctx) = self.flows.remove(&id) {
                self.telemetry
                    .emit_with(now, || SimEvent::FlowAbort { flow: id.0, tag });
                self.route_aborted(now, PendingWork::Flow(ctx));
            }
        }
        let tasks = self
            .cpu
            .abort_tasks_where(now, |_, host, _| host == h as usize);
        for (id, _tag) in tasks {
            if let Some(ctx) = self.tasks.remove(&id) {
                self.telemetry.emit_with(now, || SimEvent::TaskAbort {
                    task: id.0,
                    job: ctx.job as u64,
                });
                self.route_aborted(now, PendingWork::Task(ctx));
            }
        }
        // Under DropAndContinue every synchronous worker on the host
        // leaves its barrier; under StallUntilRecovery the queued retries
        // hold the job until the host returns.
        if self.cfg.barrier_loss == BarrierLossPolicy::DropAndContinue {
            for j in 0..self.jobs.len() {
                let ws: Vec<usize> = {
                    let job = &self.jobs[j];
                    if !matches!(job.spec.mode, TrainingMode::Synchronous)
                        || !job.launched
                        || job.done()
                    {
                        continue;
                    }
                    (0..job.spec.num_workers as usize)
                        .filter(|&w| job.placement.worker_hosts[w] == hid)
                        .collect()
                };
                for w in ws {
                    if self.jobs[j].rejoin_pending[w] {
                        // Was awaiting rejoin; its host just died again.
                        self.jobs[j].rejoin_pending[w] = false;
                    } else if !self.jobs[j].lost[w] {
                        self.mark_worker_lost(now, j, w);
                    }
                }
            }
        }
    }

    fn on_host_up(&mut self, now: SimTime, h: u32) {
        self.host_down[h as usize] = false;
        self.telemetry.emit_with(now, || SimEvent::FaultRecovered {
            fault: "host_crash",
            target: h as u64,
        });
        let hid = HostId(h);
        // Dropped workers on this host rejoin at the next round boundary;
        // stalled work simply lands on its next retry tick.
        for j in 0..self.jobs.len() {
            let mut any = false;
            {
                let job = &mut self.jobs[j];
                for w in 0..job.spec.num_workers as usize {
                    if job.lost[w] && !job.rejoin_pending[w] && job.placement.worker_hosts[w] == hid
                    {
                        job.rejoin_pending[w] = true;
                        any = true;
                    }
                }
            }
            if any {
                self.try_immediate_rejoin(now, j);
            }
        }
    }

    /// Dropped workers normally rejoin at a round boundary, but a job
    /// whose every worker is lost commits no more rounds. If the job is
    /// completely idle when a host returns, rejoin immediately instead of
    /// deadlocking.
    fn try_immediate_rejoin(&mut self, now: SimTime, j: usize) {
        {
            let job = &self.jobs[j];
            if !job.launched || job.done() || !job.rejoin_pending.iter().any(|&p| p) {
                return;
            }
        }
        if self.flows.values().any(|c| c.job == j)
            || self.tasks.values().any(|c| c.job == j)
            || self.retries.iter().any(|r| !r.done && r.work.job() == j)
        {
            return; // in-flight work will carry the job to a boundary
        }
        let rejoins: Vec<usize> = {
            let job = &self.jobs[j];
            (0..job.spec.num_workers as usize)
                .filter(|&w| job.rejoin_pending[w])
                .collect()
        };
        for w in rejoins {
            let round = {
                let job = &mut self.jobs[j];
                job.rejoin_pending[w] = false;
                job.lost[w] = false;
                job.lost_count -= 1;
                job.worker_shards_recv[w] = 0;
                job.skip_exit[w] = job.round > 0;
                job.round
            };
            // If the worker had already entered the current round's
            // barrier before being lost, its replayed step must not
            // enter again.
            let entered = self.jobs[j].tracker.has_entered(w, round);
            self.jobs[j].skip_enter[w] = entered;
            self.send_model_updates(now, j, Some(w as u32));
        }
    }

    fn mark_worker_lost(&mut self, now: SimTime, j: usize, w: usize) {
        let num_shards = {
            let job = &mut self.jobs[j];
            job.lost[w] = true;
            job.lost_count += 1;
            job.worker_shards_recv[w] = 0;
            // Un-count its gradients not yet consumed by a shard release.
            let bits = job.grad_bits[w];
            job.grad_bits[w] = 0;
            for s in 0..job.num_shards() {
                if bits & (1 << s) != 0 {
                    job.grads_received[s as usize] -= 1;
                }
            }
            job.num_shards()
        };
        self.telemetry.emit_with(now, || SimEvent::WorkerLost {
            job: j as u64,
            worker: w as u32,
        });
        // The reduced quorum may already be satisfied.
        for s in 0..num_shards {
            self.maybe_release_shard(now, j, s);
        }
    }

    fn on_ps_down(&mut self, now: SimTime, j: usize) {
        self.jobs[j].ps_down = true;
        self.telemetry.emit_with(now, || SimEvent::FaultInjected {
            fault: "ps_failure",
            target: j as u64,
        });
        // Every flow of the job has the PS on one end; abort them and any
        // PS-side compute, then retry against the warm-restarted process.
        // Worker-local compute is unaffected.
        let t_model = j as u64;
        let t_grad = GRAD_TAG_BASE | j as u64;
        let flows = self
            .net
            .abort_flows_where(now, &mut |_, spec| spec.tag == t_model || spec.tag == t_grad);
        for (id, tag) in flows {
            if let Some(ctx) = self.flows.remove(&id) {
                self.telemetry
                    .emit_with(now, || SimEvent::FlowAbort { flow: id.0, tag });
                self.queue_retry(now, PendingWork::Flow(ctx));
            }
        }
        let tasks_map = &self.tasks;
        let tasks = self.cpu.abort_tasks_where(now, |id, _, tag| {
            tag == t_model
                && matches!(
                    tasks_map.get(&id).map(|c| c.kind),
                    Some(TaskKind::PsAggregate { .. } | TaskKind::PsAsyncApply { .. })
                )
        });
        for (id, _tag) in tasks {
            if let Some(ctx) = self.tasks.remove(&id) {
                self.telemetry.emit_with(now, || SimEvent::TaskAbort {
                    task: id.0,
                    job: ctx.job as u64,
                });
                self.queue_retry(now, PendingWork::Task(ctx));
            }
        }
    }

    /// The frozen band map has outlived its trust: degrade gracefully to
    /// FIFO (every flow in the default band) until the outage ends.
    fn on_ctrl_stale(&mut self, now: SimTime) {
        if !self.ctrl_outage {
            return;
        }
        self.assignment = Assignment::default();
        let tags: Vec<u64> = self
            .jobs
            .iter()
            .enumerate()
            .filter(|(_, job)| job.launched && !job.done())
            .map(|(i, _)| i as u64)
            .collect();
        for &tag in &tags {
            let band = self.assignment.band_of(tag);
            self.net.set_band_for_tag(now, tag, band);
            self.net.set_band_for_tag(now, GRAD_TAG_BASE | tag, band);
        }
        self.telemetry.emit_with(now, || SimEvent::DegradedToFifo {
            jobs: tags.len() as u64,
        });
    }

    // ---- retry machinery ------------------------------------------------

    /// True if one of the flow's endpoints (worker host, PS shard host,
    /// or the PS process itself) is currently down.
    fn flow_blocked(&self, ctx: &FlowCtx) -> bool {
        let job = &self.jobs[ctx.job];
        let shard = match ctx.kind {
            FlowKind::ModelUpdate { shard, .. } | FlowKind::GradUpdate { shard, .. } => shard,
            // Non-star patterns run with an empty fault plan (asserted at
            // setup), so their endpoints are never down.
            _ => return false,
        };
        job.ps_down
            || self.host_down[job.shard_host(shard).0 as usize]
            || self.host_down[job.placement.worker_hosts[ctx.worker as usize].0 as usize]
    }

    fn task_blocked(&self, ctx: &TaskCtx) -> bool {
        let job = &self.jobs[ctx.job];
        match ctx.kind {
            TaskKind::WorkerStep { worker, .. } => {
                self.host_down[job.placement.worker_hosts[worker as usize].0 as usize]
            }
            TaskKind::PsAggregate { shard } => {
                job.ps_down || self.host_down[job.shard_host(shard).0 as usize]
            }
            TaskKind::PsAsyncApply { .. } => {
                job.ps_down || self.host_down[job.placement.ps.primary().0 as usize]
            }
        }
    }

    fn task_host(&self, ctx: &TaskCtx) -> usize {
        let job = &self.jobs[ctx.job];
        match ctx.kind {
            TaskKind::WorkerStep { worker, .. } => {
                job.placement.worker_hosts[worker as usize].0 as usize
            }
            TaskKind::PsAggregate { shard } => job.shard_host(shard).0 as usize,
            TaskKind::PsAsyncApply { .. } => job.placement.ps.primary().0 as usize,
        }
    }

    /// Start `ctx`'s compute, or queue a retry if its host/PS is down.
    fn dispatch_task(&mut self, now: SimTime, demand: f64, cap: f64, ctx: TaskCtx) {
        if self.task_blocked(&ctx) {
            self.queue_retry(now, PendingWork::Task(ctx));
            return;
        }
        let host = self.task_host(&ctx);
        let id = self.cpu.start_task(now, host, demand, cap, ctx.job as u64);
        self.telemetry.emit_with(now, || {
            let (kind, unit) = ctx.kind.telemetry_label();
            SimEvent::TaskStart {
                task: id.0,
                job: ctx.job as u64,
                host: host as u32,
                kind,
                unit,
            }
        });
        self.tasks.insert(id, ctx);
    }

    /// Aborted work either retries (the default) or, for a synchronous
    /// worker dropped from its barrier, is discarded — the rejoin path
    /// re-issues it from scratch.
    fn route_aborted(&mut self, now: SimTime, work: PendingWork) {
        let drop_it = {
            let job = &self.jobs[work.job()];
            self.cfg.barrier_loss == BarrierLossPolicy::DropAndContinue
                && matches!(job.spec.mode, TrainingMode::Synchronous)
                && match work {
                    PendingWork::Flow(c) => {
                        self.host_down[job.placement.worker_hosts[c.worker as usize].0 as usize]
                    }
                    PendingWork::Task(TaskCtx {
                        kind: TaskKind::WorkerStep { worker, .. },
                        ..
                    }) => self.host_down[job.placement.worker_hosts[worker as usize].0 as usize],
                    PendingWork::Task(_) => false,
                }
        };
        if !drop_it {
            self.queue_retry(now, work);
        }
    }

    fn queue_retry(&mut self, now: SimTime, work: PendingWork) {
        let idx = self.retries.len();
        self.retries.push(RetryState {
            work,
            attempt: 1,
            done: false,
        });
        let delay = self.cfg.retry.delay_for_attempt(1);
        self.queue.schedule(now + delay, Ev::Retry(idx));
    }

    fn on_retry(&mut self, now: SimTime, i: usize) {
        if self.retries[i].done {
            return;
        }
        let work = self.retries[i].work;
        let j = work.job();
        // Cancelled: the job finished, or the owning worker was dropped
        // (its rejoin re-issues everything from scratch).
        let cancelled = {
            let job = &self.jobs[j];
            job.done()
                || match work {
                    PendingWork::Flow(c) => job.lost[c.worker as usize],
                    PendingWork::Task(TaskCtx {
                        kind: TaskKind::WorkerStep { worker, .. },
                        ..
                    }) => job.lost[worker as usize],
                    PendingWork::Task(_) => false,
                }
        };
        if cancelled {
            self.retries[i].done = true;
            // This retry may have been the last in-flight item keeping a
            // fully-lost job from its immediate rejoin.
            self.try_immediate_rejoin(now, j);
            return;
        }
        let blocked = match &work {
            PendingWork::Flow(ctx) => self.flow_blocked(ctx),
            PendingWork::Task(ctx) => self.task_blocked(ctx),
        };
        let attempt = self.retries[i].attempt;
        let label = match work {
            PendingWork::Flow(_) => "flow",
            PendingWork::Task(_) => "task",
        };
        self.telemetry.emit_with(now, || SimEvent::RetryAttempt {
            job: j as u64,
            work: label,
            attempt: attempt as u64,
            resumed: !blocked,
        });
        if blocked {
            self.retries[i].attempt += 1;
            let delay = self.cfg.retry.delay_for_attempt(attempt + 1);
            self.queue.schedule(now + delay, Ev::Retry(i));
        } else {
            self.retries[i].done = true;
            self.resume_work(now, work);
        }
    }

    /// Re-issue displaced work against current state: specs (bytes, band,
    /// weight, compute demand) are rebuilt exactly as the original
    /// dispatch path would build them now.
    fn resume_work(&mut self, now: SimTime, work: PendingWork) {
        match work {
            PendingWork::Flow(ctx) => {
                let j = ctx.job;
                let spec = {
                    let band = match ctx.kind {
                        FlowKind::ModelUpdate { .. } => self.assignment.band_of(j as u64),
                        FlowKind::GradUpdate { .. } => {
                            let src = self.jobs[j].placement.worker_hosts[ctx.worker as usize];
                            self.assignment.default_band_of(src)
                        }
                        // Non-star patterns reject fault plans, so their
                        // flows are never displaced.
                        _ => unreachable!("non-star flows are never retried"),
                    };
                    let job = &mut self.jobs[j];
                    let weight = self.weight_noise.sample(&mut job.rng);
                    match ctx.kind {
                        FlowKind::ModelUpdate { shard, .. } => FlowSpec {
                            src: job.shard_host(shard),
                            dst: job.placement.worker_hosts[ctx.worker as usize],
                            bytes: job.shard_bytes(shard),
                            band,
                            weight,
                            tag: j as u64,
                        },
                        FlowKind::GradUpdate { shard, .. } => FlowSpec {
                            src: job.placement.worker_hosts[ctx.worker as usize],
                            dst: job.shard_host(shard),
                            bytes: job.shard_bytes(shard),
                            band,
                            weight,
                            tag: GRAD_TAG_BASE | j as u64,
                        },
                        _ => unreachable!("non-star flows are never retried"),
                    }
                };
                let id = match (self.cfg.model_update_rate_cap, ctx.kind) {
                    (Some(cap), FlowKind::ModelUpdate { .. }) => {
                        self.net.start_flow_with_cap(now, spec, cap)
                    }
                    _ => self.net.start_flow(now, spec),
                };
                self.flows.insert(id, ctx);
            }
            PendingWork::Task(ctx) => {
                let (demand, cap) = {
                    let job = &mut self.jobs[ctx.job];
                    match ctx.kind {
                        TaskKind::WorkerStep { .. } => (
                            self.cfg.compute.sample_step_core_secs(
                                &mut job.rng,
                                &job.spec.model,
                                job.spec.local_batch_size,
                            ),
                            self.cfg.compute.worker_parallelism,
                        ),
                        TaskKind::PsAggregate { .. } => (
                            (self
                                .cfg
                                .compute
                                .ps_aggregate_core_secs(&job.spec.model, job.spec.num_workers)
                                / job.num_shards() as f64)
                                .max(1e-6),
                            self.cfg.compute.ps_parallelism,
                        ),
                        TaskKind::PsAsyncApply { .. } => (
                            (self
                                .cfg
                                .compute
                                .ps_aggregate_core_secs(&job.spec.model, job.spec.num_workers)
                                / job.spec.num_workers as f64)
                                .max(1e-6),
                            self.cfg.compute.ps_parallelism,
                        ),
                    }
                };
                self.dispatch_task(now, demand, cap, ctx);
            }
        }
    }

    // ---- wake-up plumbing -------------------------------------------------

    fn rearm(&mut self, now: SimTime) {
        let want_net = self.net.next_event_time();
        Self::rearm_one(
            &mut self.queue,
            &mut self.net_wake,
            want_net,
            Ev::NetWake,
            now,
        );
        let want_cpu = self.cpu.next_event_time();
        Self::rearm_one(
            &mut self.queue,
            &mut self.cpu_wake,
            want_cpu,
            Ev::CpuWake,
            now,
        );
    }

    fn rearm_one(
        queue: &mut EventQueue<Ev>,
        slot: &mut Option<(EventHandle, SimTime)>,
        want: Option<SimTime>,
        ev: Ev,
        now: SimTime,
    ) {
        match (want, slot.as_ref()) {
            (Some(t), Some(&(_, cur))) if t == cur => {}
            (Some(t), _) => {
                if let Some((h, _)) = slot.take() {
                    queue.cancel(h);
                }
                let t = t.max(now);
                *slot = Some((queue.schedule(t, ev), t));
            }
            (None, _) => {
                if let Some((h, _)) = slot.take() {
                    queue.cancel(h);
                }
            }
        }
    }
}

enum AsyncAction {
    Complete,
    SendModel,
    Nothing,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelSpec;
    use tensorlights::{FifoPolicy, JobOrdering, TlsOne};
    use tl_net::HostId;

    /// A small 2-job, 3-worker, 5-host scenario with both PSes colocated.
    fn small_setup(iter_target: u64) -> Vec<JobSetup> {
        (0..2u32)
            .map(|id| {
                let spec = JobSpec {
                    id: JobId(id),
                    model: ModelSpec::synthetic_mb(20),
                    num_workers: 3,
                    local_batch_size: 4,
                    target_global_steps: iter_target * 3,
                    mode: TrainingMode::Synchronous,
                    launch_time: SimTime::from_millis(100 * id as u64),
                    ps_port: 2222 + id as u16,
                    pattern: None,
                };
                JobSetup {
                    spec,
                    placement: JobPlacement::new(HostId(0), vec![HostId(1), HostId(2), HostId(3)]),
                }
            })
            .collect()
    }

    fn fast_cfg() -> SimConfig {
        SimConfig {
            compute: ComputeModel {
                per_sample_core_secs: 0.01,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn jobs_run_to_completion() {
        let mut policy = FifoPolicy;
        let out = Simulation::new(fast_cfg())
            .jobs(small_setup(10))
            .policy_ref(&mut policy)
            .run();
        assert!(out.all_complete());
        for j in &out.jobs {
            assert_eq!(j.iterations, 10);
            assert_eq!(j.global_steps, 30);
            assert!(j.jct_secs().unwrap() > 0.0);
            // 10 iterations -> 9 completed barriers (the last has no exits).
            assert_eq!(j.barrier_means.len(), 9);
            assert_eq!(j.barrier_vars.len(), 9);
            assert_eq!(j.waits.len(), 9 * 3);
        }
        assert!(out.events > 0);
    }

    #[test]
    fn identical_seeds_are_bit_identical() {
        let mut p1 = FifoPolicy;
        let mut p2 = FifoPolicy;
        let a = Simulation::new(fast_cfg())
            .jobs(small_setup(5))
            .policy_ref(&mut p1)
            .run();
        let b = Simulation::new(fast_cfg())
            .jobs(small_setup(5))
            .policy_ref(&mut p2)
            .run();
        for (x, y) in a.jobs.iter().zip(&b.jobs) {
            assert_eq!(x.completion, y.completion);
            assert_eq!(x.barrier_means.samples(), y.barrier_means.samples());
        }
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn different_seeds_differ() {
        let mut p1 = FifoPolicy;
        let mut p2 = FifoPolicy;
        let mut cfg2 = fast_cfg();
        cfg2.seed = 99;
        let a = Simulation::new(fast_cfg())
            .jobs(small_setup(5))
            .policy_ref(&mut p1)
            .run();
        let b = Simulation::new(cfg2)
            .jobs(small_setup(5))
            .policy_ref(&mut p2)
            .run();
        assert_ne!(a.jobs[0].completion, b.jobs[0].completion);
    }

    #[test]
    fn priority_beats_fifo_under_contention() {
        // With heavy network contention (big updates, fast compute), TLs-One
        // should cut the mean JCT versus FIFO.
        let mk = || {
            (0..3u32)
                .map(|id| JobSetup {
                    spec: JobSpec {
                        id: JobId(id),
                        model: ModelSpec::synthetic_mb(50),
                        num_workers: 3,
                        local_batch_size: 1,
                        target_global_steps: 8 * 3,
                        mode: TrainingMode::Synchronous,
                        launch_time: SimTime::ZERO,
                        ps_port: 2222 + id as u16,
                        pattern: None,
                    },
                    placement: JobPlacement::new(HostId(0), vec![HostId(1), HostId(2), HostId(3)]),
                })
                .collect::<Vec<_>>()
        };
        let cfg = SimConfig {
            compute: ComputeModel {
                per_sample_core_secs: 0.005,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut fifo = FifoPolicy;
        let base = Simulation::new(cfg.clone())
            .jobs(mk())
            .policy_ref(&mut fifo)
            .run();
        let mut tls = TlsOne::new(JobOrdering::ByArrival);
        let prio = Simulation::new(cfg).jobs(mk()).policy_ref(&mut tls).run();
        assert!(base.all_complete() && prio.all_complete());
        assert!(
            prio.mean_jct_secs() < base.mean_jct_secs(),
            "TLs-One {:.2}s vs FIFO {:.2}s",
            prio.mean_jct_secs(),
            base.mean_jct_secs()
        );
    }

    #[test]
    fn live_rotation_changes_the_schedule() {
        // With a rotation interval shorter than an iteration, TLs-RR's
        // in-flight band reassignments must produce a different (still
        // complete) schedule than TLs-One on the same seed.
        use tensorlights::TlsRr;
        let cfg = SimConfig {
            compute: ComputeModel {
                per_sample_core_secs: 0.002,
                ..Default::default()
            },
            ..Default::default()
        };
        let mk = || {
            (0..3u32)
                .map(|id| JobSetup {
                    spec: JobSpec {
                        id: JobId(id),
                        model: ModelSpec::synthetic_mb(80),
                        num_workers: 3,
                        local_batch_size: 1,
                        target_global_steps: 6 * 3,
                        mode: TrainingMode::Synchronous,
                        launch_time: SimTime::ZERO,
                        ps_port: 2222 + id as u16,
                        pattern: None,
                    },
                    placement: JobPlacement::new(HostId(0), vec![HostId(1), HostId(2), HostId(3)]),
                })
                .collect::<Vec<_>>()
        };
        let mut one = TlsOne::new(JobOrdering::ByArrival);
        let a = Simulation::new(cfg.clone())
            .jobs(mk())
            .policy_ref(&mut one)
            .run();
        let mut rr = TlsRr::new(JobOrdering::ByArrival)
            .with_interval(simcore::SimDuration::from_millis(300));
        let b = Simulation::new(cfg).jobs(mk()).policy_ref(&mut rr).run();
        assert!(a.all_complete() && b.all_complete());
        let ja: Vec<_> = a.jobs.iter().map(|j| j.completion).collect();
        let jb: Vec<_> = b.jobs.iter().map(|j| j.completion).collect();
        assert_ne!(ja, jb, "rotation must alter the schedule");
        // (The *fairness* effect of rotation needs full cycles to show and
        // is asserted at proper scale by the fairness ablation test.)
    }

    #[test]
    fn async_mode_completes() {
        let mut setups = small_setup(6);
        for s in &mut setups {
            s.spec.mode = TrainingMode::Asynchronous;
        }
        let mut policy = FifoPolicy;
        let out = Simulation::new(fast_cfg())
            .jobs(setups)
            .policy_ref(&mut policy)
            .run();
        assert!(out.all_complete());
        for j in &out.jobs {
            assert_eq!(j.global_steps, 18);
            // Each worker's final gradient gets no model answer; waits are
            // recorded for all earlier rounds.
            assert_eq!(j.waits.len(), (6 - 1) * 3);
            assert_eq!(j.barrier_means.len(), 0, "no barriers in async mode");
        }
    }

    #[test]
    fn active_window_produces_utilization() {
        let mut policy = FifoPolicy;
        let mut cfg = fast_cfg();
        cfg.active_window = Some((SimTime::from_millis(10), SimTime::from_millis(500)));
        let out = Simulation::new(cfg)
            .jobs(small_setup(10))
            .policy_ref(&mut policy)
            .run();
        let u = out.utilization.expect("window inside the run");
        assert_eq!(u.len(), 4);
        // The PS host moved bytes out; some worker host moved bytes in.
        assert!(u[0].net_out > 0.0);
        assert!(u[1].net_in > 0.0);
        assert!(u.iter().all(|h| h.cpu >= 0.0 && h.cpu <= 1.0 + 1e-9));
    }

    #[test]
    fn max_sim_time_stops_runaway() {
        let mut policy = FifoPolicy;
        let mut cfg = fast_cfg();
        cfg.max_sim_time = SimTime::from_millis(1);
        let out = Simulation::new(cfg)
            .jobs(small_setup(1000))
            .policy_ref(&mut policy)
            .run();
        assert!(!out.all_complete());
        assert!(out.end_time <= SimTime::from_millis(1));
    }

    #[test]
    fn single_job_no_contention_is_compute_bound() {
        // One job alone: JCT should be close to iterations × (compute +
        // serialized model/grad transfer), with tiny barrier variance.
        let setup = vec![JobSetup {
            spec: JobSpec {
                id: JobId(0),
                model: ModelSpec::synthetic_mb(10),
                num_workers: 2,
                local_batch_size: 4,
                target_global_steps: 10,
                mode: TrainingMode::Synchronous,
                launch_time: SimTime::ZERO,
                ps_port: 2222,
                pattern: None,
            },
            placement: JobPlacement::new(HostId(0), vec![HostId(1), HostId(2)]),
        }];
        let mut cfg = fast_cfg();
        cfg.net_weight_sigma = 0.0;
        cfg.compute.noise_sigma = 0.0;
        let mut policy = FifoPolicy;
        let out = Simulation::new(cfg)
            .jobs(setup)
            .policy_ref(&mut policy)
            .run();
        assert!(out.all_complete());
        let j = &out.jobs[0];
        assert_eq!(j.iterations, 5);
        // Without any noise, workers are symmetric: variance ~ 0.
        assert!(j.barrier_vars.mean() < 1e-9, "{}", j.barrier_vars.mean());
    }

    #[test]
    fn colocated_ps_and_worker_use_loopback() {
        // A job whose worker shares the PS host: its updates are loopback
        // flows that never touch the NIC, so they are near-instant and the
        // NIC byte counters stay at zero for that pair.
        let setups = vec![JobSetup {
            spec: JobSpec {
                id: JobId(0),
                model: ModelSpec::synthetic_mb(50),
                num_workers: 2,
                local_batch_size: 4,
                target_global_steps: 8,
                mode: TrainingMode::Synchronous,
                launch_time: SimTime::ZERO,
                ps_port: 2222,
                pattern: None,
            },
            placement: JobPlacement::new(HostId(0), vec![HostId(0), HostId(1)]),
        }];
        let mut policy = FifoPolicy;
        let out = Simulation::new(fast_cfg())
            .jobs(setups)
            .policy_ref(&mut policy)
            .run();
        assert!(out.all_complete());
        assert_eq!(out.jobs[0].iterations, 4);
    }

    #[test]
    fn single_worker_job_degenerates_cleanly() {
        let setups = vec![JobSetup {
            spec: JobSpec {
                id: JobId(0),
                model: ModelSpec::synthetic_mb(5),
                num_workers: 1,
                local_batch_size: 4,
                target_global_steps: 5,
                mode: TrainingMode::Synchronous,
                launch_time: SimTime::ZERO,
                ps_port: 2222,
                pattern: None,
            },
            placement: JobPlacement::new(HostId(0), vec![HostId(1)]),
        }];
        let mut policy = FifoPolicy;
        let out = Simulation::new(fast_cfg())
            .jobs(setups)
            .policy_ref(&mut policy)
            .run();
        assert!(out.all_complete());
        assert_eq!(out.jobs[0].global_steps, 5);
        // With one worker, every barrier has zero variance.
        assert!(out.jobs[0].barrier_vars.mean() < 1e-12);
    }

    #[test]
    fn mixed_sync_and_async_jobs_coexist() {
        let mut setups = small_setup(6);
        setups[1].spec.mode = TrainingMode::Asynchronous;
        let mut policy = FifoPolicy;
        let out = Simulation::new(fast_cfg())
            .jobs(setups)
            .policy_ref(&mut policy)
            .run();
        assert!(out.all_complete());
        assert_eq!(out.jobs[0].barrier_means.len(), 5);
        assert_eq!(out.jobs[1].barrier_means.len(), 0);
    }

    #[test]
    fn rate_cap_slows_model_distribution() {
        // One communication-heavy job; capping its model updates to a tenth
        // of the link must lengthen the JCT (the §VII underutilization).
        let mk = || {
            vec![JobSetup {
                spec: JobSpec {
                    id: JobId(0),
                    model: ModelSpec::synthetic_mb(100),
                    num_workers: 2,
                    local_batch_size: 1,
                    target_global_steps: 10,
                    mode: TrainingMode::Synchronous,
                    launch_time: SimTime::ZERO,
                    ps_port: 2222,
                    pattern: None,
                },
                placement: JobPlacement::new(HostId(0), vec![HostId(1), HostId(2)]),
            }]
        };
        let mut cfg = fast_cfg();
        let mut policy = FifoPolicy;
        let free = Simulation::new(cfg.clone())
            .jobs(mk())
            .policy_ref(&mut policy)
            .run();
        cfg.model_update_rate_cap = Some(1.25e8);
        let mut policy = FifoPolicy;
        let capped = Simulation::new(cfg)
            .jobs(mk())
            .policy_ref(&mut policy)
            .run();
        assert!(
            capped.mean_jct_secs() > free.mean_jct_secs() * 1.3,
            "capped {:.2}s vs free {:.2}s",
            capped.mean_jct_secs(),
            free.mean_jct_secs()
        );
    }

    #[test]
    fn trace_records_job_lifecycle() {
        let mut policy = FifoPolicy;
        let mut cfg = fast_cfg();
        cfg.trace = true;
        let out = Simulation::new(cfg)
            .jobs(small_setup(2))
            .policy_ref(&mut policy)
            .run();
        let text = out.telemetry.render();
        assert!(text.contains("job0 launched"));
        assert!(text.contains("job1 completed"));
        // The typed stream carries the full lifecycle, not just job marks.
        assert_eq!(out.telemetry.events_of_kind("job_arrival").len(), 2);
        assert_eq!(out.telemetry.events_of_kind("job_completion").len(), 2);
        assert!(!out.telemetry.events_of_kind("flow_start").is_empty());
        assert!(!out.telemetry.events_of_kind("flow_finish").is_empty());
        assert!(!out.telemetry.events_of_kind("barrier_enter").is_empty());
        assert!(!out.telemetry.events_of_kind("barrier_exit").is_empty());
    }

    #[test]
    fn telemetry_builder_collects_metrics_timeseries() {
        let mut policy = FifoPolicy;
        let out = Simulation::new(fast_cfg())
            .jobs(small_setup(2))
            .policy_ref(&mut policy)
            .telemetry(tl_telemetry::TelemetryConfig::full(
                simcore::SimDuration::from_millis(50),
            ))
            .run();
        let reg = &out.telemetry.metrics;
        assert!(!reg.is_empty(), "metrics were sampled");
        let id = reg.lookup("alloc.invocations").expect("allocator counter");
        assert!(reg.value(id) > 0.0);
        assert!(!reg.series(id).is_empty());
        let steps = reg.lookup("job0.steps").expect("progress gauge");
        assert!(reg.value(steps) > 0.0);
        // Host gauges appear once a full interval has elapsed.
        assert!(reg.lookup("host0.cpu").is_some());
    }

    #[test]
    fn exported_allocator_counters_are_host_independent() {
        // Exported metrics must not depend on the machine that produced
        // them: the allocator exports exactly its deterministic work
        // counters, never wall time or anything tied to the core count.
        let mut policy = FifoPolicy;
        let out = Simulation::new(fast_cfg())
            .jobs(small_setup(2))
            .policy_ref(&mut policy)
            .telemetry(tl_telemetry::TelemetryConfig::full(
                simcore::SimDuration::from_millis(50),
            ))
            .run();
        let mut names: Vec<&str> = out
            .telemetry
            .metrics
            .entries()
            .map(|(name, _, _)| name)
            .filter(|name| name.starts_with("alloc."))
            .collect();
        names.sort_unstable();
        assert_eq!(
            names,
            [
                "alloc.components_retained",
                "alloc.components_solved",
                "alloc.flows_touched",
                "alloc.freeze_rounds",
                "alloc.full_solves",
                "alloc.invocations",
                "alloc.links_touched",
                "alloc.rounds",
            ]
        );
    }

    #[test]
    fn disabled_telemetry_output_is_empty() {
        let mut policy = FifoPolicy;
        let out = Simulation::new(fast_cfg())
            .jobs(small_setup(2))
            .policy_ref(&mut policy)
            .run();
        assert_eq!(out.telemetry.events.len(), 0);
        assert!(out.telemetry.metrics.is_empty());
    }

    #[test]
    fn borrowed_policy_matches_owned_policy() {
        // Successor of the removed `run_simulation` shim-equivalence test:
        // the two builder policy-ownership paths stay bit-identical.
        let mut policy = FifoPolicy;
        let borrowed = Simulation::new(fast_cfg())
            .jobs(small_setup(3))
            .policy_ref(&mut policy)
            .run();
        let owned = Simulation::new(fast_cfg())
            .jobs(small_setup(3))
            .policy(FifoPolicy)
            .run();
        assert_eq!(borrowed.events, owned.events);
        for (a, b) in borrowed.jobs.iter().zip(&owned.jobs) {
            assert_eq!(a.completion, b.completion);
        }
    }

    #[test]
    fn builder_owns_boxed_policy_and_defaults_to_fifo() {
        let boxed: Box<dyn PriorityPolicy> = Box::new(FifoPolicy);
        let a = Simulation::new(fast_cfg())
            .jobs(small_setup(3))
            .policy_box(boxed)
            .run();
        // No .policy() call: FIFO is the default.
        let b = Simulation::new(fast_cfg()).jobs(small_setup(3)).run();
        assert_eq!(a.events, b.events);
        assert!(a.alloc_stats.invocations > 0);
        assert!(a.alloc_stats.rounds >= a.alloc_stats.components_solved);
    }

    #[test]
    fn job_appends_to_the_list() {
        let mut setups = small_setup(3);
        let last = setups.pop().unwrap();
        let out = Simulation::new(fast_cfg()).jobs(setups).job(last).run();
        assert_eq!(out.jobs.len(), 2);
        assert!(out.all_complete());
    }

    #[test]
    #[should_panic(expected = "worker count does not match placement")]
    fn rejects_inconsistent_setup() {
        let mut setups = small_setup(1);
        setups[0].spec.num_workers = 7;
        let mut policy = FifoPolicy;
        let _ = Simulation::new(fast_cfg())
            .jobs(setups)
            .policy_ref(&mut policy)
            .run();
    }
}

#[cfg(test)]
mod sampling_tests {
    use super::*;
    use crate::model::ModelSpec;
    use simcore::SimDuration;
    use tensorlights::FifoPolicy;
    use tl_net::HostId;

    #[test]
    fn sampling_records_a_time_series() {
        let setups = vec![JobSetup {
            spec: JobSpec {
                id: JobId(0),
                model: ModelSpec::synthetic_mb(50),
                num_workers: 2,
                local_batch_size: 4,
                target_global_steps: 20,
                mode: TrainingMode::Synchronous,
                launch_time: SimTime::ZERO,
                ps_port: 2222,
                pattern: None,
            },
            placement: JobPlacement::new(HostId(0), vec![HostId(1), HostId(2)]),
        }];
        let mut cfg = SimConfig {
            compute: ComputeModel {
                per_sample_core_secs: 0.05,
                ..Default::default()
            },
            ..Default::default()
        };
        cfg.sample_interval = Some(SimDuration::from_millis(200));
        let mut policy = FifoPolicy;
        let out = Simulation::new(cfg)
            .jobs(setups)
            .policy_ref(&mut policy)
            .run();
        assert!(out.all_complete());
        assert!(out.samples.len() >= 3, "got {} samples", out.samples.len());
        // Timestamps are strictly increasing and interval-spaced.
        assert!(out
            .samples
            .windows(2)
            .all(|w| w[1].at.since(w[0].at) == SimDuration::from_millis(200)));
        // Utilization is a valid fraction and the PS egress was used.
        let mut saw_egress = false;
        for s in &out.samples {
            assert_eq!(s.per_host.len(), 3);
            for h in &s.per_host {
                assert!(h.net_out >= -1e-9 && h.net_out <= 1.0 + 1e-9);
            }
            if s.per_host[0].net_out > 0.2 {
                saw_egress = true;
            }
        }
        assert!(saw_egress, "no sample saw PS egress traffic");
    }

    #[test]
    fn sampling_disabled_means_no_samples() {
        let setups = vec![JobSetup {
            spec: JobSpec {
                id: JobId(0),
                model: ModelSpec::synthetic_mb(10),
                num_workers: 2,
                local_batch_size: 4,
                target_global_steps: 4,
                mode: TrainingMode::Synchronous,
                launch_time: SimTime::ZERO,
                ps_port: 2222,
                pattern: None,
            },
            placement: JobPlacement::new(HostId(0), vec![HostId(1), HostId(2)]),
        }];
        let mut policy = FifoPolicy;
        let out = Simulation::new(SimConfig::default())
            .jobs(setups)
            .policy_ref(&mut policy)
            .run();
        assert!(out.samples.is_empty());
    }
}

#[cfg(test)]
mod shard_tests {
    use super::*;
    use crate::model::ModelSpec;
    use tensorlights::FifoPolicy;
    use tl_net::HostId;

    fn sharded_setup(extra_ps: Vec<HostId>, iterations: u64) -> Vec<JobSetup> {
        vec![JobSetup {
            spec: JobSpec {
                id: JobId(0),
                model: ModelSpec::synthetic_mb(60),
                num_workers: 3,
                local_batch_size: 4,
                target_global_steps: iterations * 3,
                mode: TrainingMode::Synchronous,
                launch_time: SimTime::ZERO,
                ps_port: 2222,
                pattern: None,
            },
            placement: JobPlacement::new(HostId(0), vec![HostId(2), HostId(3), HostId(4)])
                .with_extra_ps(extra_ps),
        }]
    }

    fn shard_cfg() -> SimConfig {
        SimConfig {
            compute: ComputeModel {
                per_sample_core_secs: 0.005,
                noise_sigma: 0.0,
                ..Default::default()
            },
            net_weight_sigma: 0.0,
            ..Default::default()
        }
    }

    #[test]
    fn sharded_job_completes_with_exact_accounting() {
        let mut policy = FifoPolicy;
        let out = Simulation::new(shard_cfg())
            .jobs(sharded_setup(vec![HostId(1)], 6))
            .policy_ref(&mut policy)
            .run();
        assert!(out.all_complete());
        let j = &out.jobs[0];
        assert_eq!(j.iterations, 6);
        assert_eq!(j.global_steps, 18);
        // Barriers behave exactly as in the single-PS case.
        assert_eq!(j.barrier_means.len(), 5);
        assert_eq!(j.waits.len(), 5 * 3);
    }

    #[test]
    fn two_shards_halve_the_distribution_bottleneck() {
        // A communication-bound job: splitting the PS across two hosts
        // doubles the available egress for model updates and must shorten
        // the JCT materially.
        let mut policy = FifoPolicy;
        let single = Simulation::new(shard_cfg())
            .jobs(sharded_setup(vec![], 6))
            .policy_ref(&mut policy)
            .run();
        let mut policy = FifoPolicy;
        let dual = Simulation::new(shard_cfg())
            .jobs(sharded_setup(vec![HostId(1)], 6))
            .policy_ref(&mut policy)
            .run();
        assert!(single.all_complete() && dual.all_complete());
        let s = single.mean_jct_secs();
        let d = dual.mean_jct_secs();
        assert!(
            d < s * 0.75,
            "two shards should cut the network-bound JCT: {d:.2}s vs {s:.2}s"
        );
    }

    #[test]
    fn shard_bytes_sum_to_model() {
        let setups = sharded_setup(vec![HostId(1)], 2);
        let mut policy = FifoPolicy;
        let out = Simulation::new(shard_cfg())
            .jobs(setups)
            .policy_ref(&mut policy)
            .run();
        assert!(out.all_complete());
        // Indirect check: the engine panics internally on mismatches; here
        // we verify the arithmetic helper directly.
        let job = JobRt {
            spec: JobSpec {
                id: JobId(0),
                model: ModelSpec {
                    name: "odd".into(),
                    params: 7,
                    bytes_per_param: 1,
                    compute_scale: 1.0,
                },
                num_workers: 1,
                local_batch_size: 1,
                target_global_steps: 1,
                mode: TrainingMode::Synchronous,
                launch_time: SimTime::ZERO,
                ps_port: 1,
                pattern: None,
            },
            placement: JobPlacement::new(HostId(0), vec![HostId(2)])
                .with_extra_ps(vec![HostId(1), HostId(3)]),
            pattern: TrafficPattern::PsStar,
            launched: false,
            completion: None,
            round: 0,
            global_steps: 0,
            iterations: 0,
            grads_received: vec![0; 3],
            shards_aggregated: 0,
            worker_shards_recv: vec![0; 1],
            tracker: BarrierTracker::new(1),
            rng: RngFactory::new(0).stream("t"),
            async_remaining: vec![1],
            async_pending_wait: vec![None],
            async_done_workers: 0,
            ps_down: false,
            lost: vec![false; 1],
            lost_count: 0,
            rejoin_pending: vec![false; 1],
            skip_exit: vec![false; 1],
            skip_enter: vec![false; 1],
            grad_bits: vec![0; 1],
            agg_started: vec![false; 3],
            round_contrib: 0,
            ring_ready: 0,
            ring_step: 0,
            ring_recv: 0,
            groups: Vec::new(),
            worker_group: vec![0],
            group_recv: Vec::new(),
            hier_grads: 0,
        };
        let total: f64 = (0..3).map(|s| job.shard_bytes(s)).sum();
        assert_eq!(total, 7.0, "slices cover every byte");
        assert_eq!(job.shard_bytes(0), 3.0, "shard 0 takes the remainder");
    }

    #[test]
    #[should_panic(expected = "sharded PS is only modelled for synchronous")]
    fn async_sharding_rejected() {
        let mut setups = sharded_setup(vec![HostId(1)], 2);
        setups[0].spec.mode = TrainingMode::Asynchronous;
        let mut policy = FifoPolicy;
        let _ = Simulation::new(shard_cfg())
            .jobs(setups)
            .policy_ref(&mut policy)
            .run();
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::model::ModelSpec;
    use tensorlights::{FifoPolicy, JobOrdering, TlsOne};
    use tl_faults::FaultSpec;
    use tl_net::HostId;

    /// Two synchronous 3-worker jobs on 4 hosts, PSes colocated on host 0.
    fn jobs2(iter_target: u64) -> Vec<JobSetup> {
        (0..2u32)
            .map(|id| JobSetup {
                spec: JobSpec {
                    id: JobId(id),
                    model: ModelSpec::synthetic_mb(20),
                    num_workers: 3,
                    local_batch_size: 4,
                    target_global_steps: iter_target * 3,
                    mode: TrainingMode::Synchronous,
                    launch_time: SimTime::from_millis(100 * id as u64),
                    ps_port: 2222 + id as u16,
                    pattern: None,
                },
                placement: JobPlacement::new(HostId(0), vec![HostId(1), HostId(2), HostId(3)]),
            })
            .collect()
    }

    fn traced_cfg() -> SimConfig {
        SimConfig {
            compute: ComputeModel {
                per_sample_core_secs: 0.01,
                ..Default::default()
            },
            trace: true,
            ..Default::default()
        }
    }

    fn run_with(plan: FaultPlan, loss: BarrierLossPolicy) -> SimOutput {
        let mut policy = FifoPolicy;
        Simulation::new(traced_cfg())
            .jobs(jobs2(10))
            .policy_ref(&mut policy)
            .faults(plan)
            .barrier_loss(loss)
            .run()
    }

    #[test]
    fn empty_plan_is_inert() {
        // With no faults scheduled, the fault machinery (including the
        // barrier-loss knob) must not perturb the schedule at all.
        let a = run_with(FaultPlan::default(), BarrierLossPolicy::StallUntilRecovery);
        let b = run_with(FaultPlan::default(), BarrierLossPolicy::DropAndContinue);
        assert!(a.all_complete() && b.all_complete());
        for (x, y) in a.jobs.iter().zip(&b.jobs) {
            assert_eq!(x.completion, y.completion);
        }
        assert_eq!(a.events, b.events);
        assert!(a.telemetry.events_of_kind("fault_injected").is_empty());
        assert!(a.telemetry.events_of_kind("retry_attempt").is_empty());
    }

    #[test]
    fn host_crash_stalls_until_recovery_then_completes() {
        let base = run_with(FaultPlan::default(), BarrierLossPolicy::StallUntilRecovery);
        let plan = FaultPlan {
            faults: vec![FaultSpec::HostCrash {
                host: 1,
                at_secs: 0.5,
                downtime_secs: 2.0,
            }],
        };
        let out = run_with(plan, BarrierLossPolicy::StallUntilRecovery);
        assert!(out.all_complete(), "stalled jobs finish after recovery");
        assert_eq!(out.telemetry.events_of_kind("fault_injected").len(), 1);
        assert_eq!(out.telemetry.events_of_kind("fault_recovered").len(), 1);
        // The crash must actually have displaced in-flight work...
        let retries = out.telemetry.events_of_kind("retry_attempt");
        assert!(!retries.is_empty(), "displaced work retried");
        // ...and under the stall policy no worker ever leaves its barrier.
        assert!(out.telemetry.events_of_kind("worker_lost").is_empty());
        assert!(
            out.mean_jct_secs() > base.mean_jct_secs() + 1.0,
            "a 2s stall must lengthen the JCT: {:.2}s vs {:.2}s",
            out.mean_jct_secs(),
            base.mean_jct_secs()
        );
    }

    #[test]
    fn host_crash_drop_policy_sheds_workers_and_completes() {
        let plan = FaultPlan {
            faults: vec![FaultSpec::HostCrash {
                host: 1,
                at_secs: 0.5,
                downtime_secs: 2.0,
            }],
        };
        let out = run_with(plan, BarrierLossPolicy::DropAndContinue);
        assert!(out.all_complete());
        let lost = out.telemetry.events_of_kind("worker_lost");
        assert!(!lost.is_empty(), "workers on the crashed host are shed");
        // Surviving quorum keeps committing rounds: each job still reaches
        // its target step count (with more iterations at reduced batch).
        for j in &out.jobs {
            assert!(j.global_steps >= 30);
            assert!(j.iterations >= 10, "reduced rounds contribute fewer steps");
        }
    }

    #[test]
    fn crash_of_unused_host_is_a_jct_noop() {
        // Jobs only touch hosts 0..=3; host 4 exists because one placement
        // names it but its job launches long after the fault window.
        let mut setups = jobs2(10);
        setups[1].spec.launch_time = SimTime::from_secs(500);
        setups[1].placement =
            JobPlacement::new(HostId(4), vec![HostId(1), HostId(2), HostId(3)]);
        let mk = |plan: FaultPlan| {
            let mut policy = FifoPolicy;
            Simulation::new(traced_cfg())
                .jobs(setups.clone())
                .policy_ref(&mut policy)
                .faults(plan)
                .run()
        };
        let base = mk(FaultPlan::default());
        let plan = FaultPlan {
            faults: vec![FaultSpec::HostCrash {
                host: 4,
                at_secs: 0.5,
                downtime_secs: 1.0,
            }],
        };
        let out = mk(plan);
        assert!(base.all_complete() && out.all_complete());
        for (a, b) in base.jobs.iter().zip(&out.jobs) {
            assert_eq!(a.completion, b.completion, "idle-host crash is free");
        }
        assert!(out.telemetry.events_of_kind("retry_attempt").is_empty());
    }

    #[test]
    fn nic_degradation_lengthens_jct() {
        let base = run_with(FaultPlan::default(), BarrierLossPolicy::StallUntilRecovery);
        // Choke the PS host's NIC to 5% for the whole run.
        let plan = FaultPlan {
            faults: vec![FaultSpec::NicDegrade {
                host: 0,
                at_secs: 0.1,
                duration_secs: 60.0,
                factor: 0.05,
            }],
        };
        let out = run_with(plan, BarrierLossPolicy::StallUntilRecovery);
        assert!(out.all_complete());
        assert!(
            out.mean_jct_secs() > base.mean_jct_secs() * 1.3,
            "20x slower distribution must hurt: {:.2}s vs {:.2}s",
            out.mean_jct_secs(),
            base.mean_jct_secs()
        );
    }

    #[test]
    fn ps_failure_retries_and_recovers() {
        let base = run_with(FaultPlan::default(), BarrierLossPolicy::StallUntilRecovery);
        let plan = FaultPlan {
            faults: vec![FaultSpec::PsFailure {
                job: 0,
                at_secs: 0.5,
                downtime_secs: 1.5,
            }],
        };
        let out = run_with(plan, BarrierLossPolicy::StallUntilRecovery);
        assert!(out.all_complete());
        assert_eq!(out.telemetry.events_of_kind("fault_injected").len(), 1);
        assert_eq!(out.telemetry.events_of_kind("fault_recovered").len(), 1);
        assert!(!out.telemetry.events_of_kind("retry_attempt").is_empty());
        let j0 = out.jobs[0].jct_secs().unwrap();
        let b0 = base.jobs[0].jct_secs().unwrap();
        assert!(j0 > b0 + 1.0, "PS outage stalls job 0: {j0:.2}s vs {b0:.2}s");
    }

    #[test]
    fn ctrl_outage_degrades_to_fifo_and_resyncs() {
        let mut tls = TlsOne::new(JobOrdering::ByArrival);
        let plan = FaultPlan {
            faults: vec![FaultSpec::CtrlOutage {
                at_secs: 0.3,
                duration_secs: 1.0,
                stale_after_secs: Some(0.3),
            }],
        };
        let out = Simulation::new(traced_cfg())
            .jobs(jobs2(10))
            .policy_ref(&mut tls)
            .faults(plan)
            .run();
        assert!(out.all_complete(), "jobs survive the control outage");
        assert_eq!(out.telemetry.events_of_kind("fault_injected").len(), 1);
        assert_eq!(out.telemetry.events_of_kind("fault_recovered").len(), 1);
        let degraded = out.telemetry.events_of_kind("degraded_to_fifo");
        assert_eq!(degraded.len(), 1, "stale band map falls back to FIFO once");
    }


    #[test]
    fn faulted_run_is_deterministic() {
        let plan = FaultPlan {
            faults: vec![
                FaultSpec::HostCrash {
                    host: 1,
                    at_secs: 0.5,
                    downtime_secs: 1.0,
                },
                FaultSpec::PsFailure {
                    job: 1,
                    at_secs: 0.8,
                    downtime_secs: 0.5,
                },
            ],
        };
        let a = run_with(plan.clone(), BarrierLossPolicy::DropAndContinue);
        let b = run_with(plan, BarrierLossPolicy::DropAndContinue);
        for (x, y) in a.jobs.iter().zip(&b.jobs) {
            assert_eq!(x.completion, y.completion);
            assert_eq!(x.global_steps, y.global_steps);
        }
        assert_eq!(a.events, b.events);
        assert_eq!(a.telemetry.events.len(), b.telemetry.events.len());
    }

}

#[cfg(test)]
mod backend_tests {
    use super::*;
    use crate::model::ModelSpec;
    use tl_faults::FaultSpec;
    use tl_net::HostId;

    /// Same shape as `tests::small_setup`: two colocated-PS jobs.
    fn small_setup(iter_target: u64) -> Vec<JobSetup> {
        (0..2u32)
            .map(|id| JobSetup {
                spec: JobSpec {
                    id: JobId(id),
                    model: ModelSpec::synthetic_mb(20),
                    num_workers: 3,
                    local_batch_size: 4,
                    target_global_steps: iter_target * 3,
                    mode: TrainingMode::Synchronous,
                    launch_time: SimTime::from_millis(100 * id as u64),
                    ps_port: 2222 + id as u16,
                    pattern: None,
                },
                placement: JobPlacement::new(HostId(0), vec![HostId(1), HostId(2), HostId(3)]),
            })
            .collect()
    }

    fn fast_cfg() -> SimConfig {
        SimConfig {
            compute: ComputeModel {
                per_sample_core_secs: 0.01,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn packet_backend_runs_jobs_to_completion() {
        let mut cfg = fast_cfg();
        cfg.backend = NetBackendKind::Packet;
        cfg.net_weight_sigma = 0.0; // the packet model's RR ignores weights
        let out = Simulation::new(cfg).jobs(small_setup(3)).run();
        assert!(out.all_complete());
        for j in &out.jobs {
            assert_eq!(j.iterations, 3);
            assert_eq!(j.global_steps, 9);
        }
        assert!(out.invariant_violations.is_empty());
    }

    #[test]
    fn packet_backend_is_deterministic() {
        let run = || {
            let mut cfg = fast_cfg();
            cfg.backend = NetBackendKind::Packet;
            cfg.net_weight_sigma = 0.0;
            Simulation::new(cfg).jobs(small_setup(3)).run()
        };
        let (a, b) = (run(), run());
        for (x, y) in a.jobs.iter().zip(&b.jobs) {
            assert_eq!(x.completion, y.completion);
        }
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn backends_agree_on_jct_within_chunk_tolerance() {
        // The fluid model and the packet oracle must tell the same story
        // on the same workload: per-job JCTs within a per-chunk tolerance
        // (chunk-boundary rounding and pipelining are the packet model's
        // only extra frictions on an uncontended-to-mildly-contended run).
        let run = |backend| {
            let mut cfg = fast_cfg();
            cfg.backend = backend;
            cfg.net_weight_sigma = 0.0;
            Simulation::new(cfg).jobs(small_setup(5)).run()
        };
        let fluid = run(NetBackendKind::Fluid);
        let packet = run(NetBackendKind::Packet);
        for (f, p) in fluid.jobs.iter().zip(&packet.jobs) {
            let (fj, pj) = (f.jct_secs().unwrap(), p.jct_secs().unwrap());
            let rel = (fj - pj).abs() / fj.max(pj);
            assert!(
                rel < 0.15,
                "job {:?}: fluid {fj:.3}s vs packet {pj:.3}s (rel {rel:.3})",
                f.id
            );
        }
    }

    #[test]
    fn packet_backend_survives_faults() {
        let mut cfg = fast_cfg();
        cfg.backend = NetBackendKind::Packet;
        cfg.net_weight_sigma = 0.0;
        let plan = FaultPlan {
            faults: vec![FaultSpec::HostCrash {
                host: 1,
                at_secs: 0.3,
                downtime_secs: 0.6,
            }],
        };
        let out = Simulation::new(cfg)
            .jobs(small_setup(4))
            .faults(plan)
            .barrier_loss(BarrierLossPolicy::StallUntilRecovery)
            .run();
        assert!(out.all_complete());
        assert!(out.invariant_violations.is_empty());
    }

    #[test]
    fn invariants_off_yields_empty_report() {
        let out = Simulation::new(fast_cfg())
            .jobs(small_setup(2))
            .invariants(false)
            .run();
        assert!(out.invariant_violations.is_empty());
    }
}

#[cfg(test)]
mod pattern_tests {
    use super::*;
    use crate::model::ModelSpec;
    use tl_faults::FaultSpec;
    use tl_net::HostId;

    fn one_job(iterations: u64, workers: Vec<HostId>) -> Vec<JobSetup> {
        let n = workers.len() as u32;
        vec![JobSetup {
            spec: JobSpec {
                id: JobId(0),
                model: ModelSpec::synthetic_mb(20),
                num_workers: n,
                local_batch_size: 4,
                target_global_steps: iterations * n as u64,
                mode: TrainingMode::Synchronous,
                launch_time: SimTime::ZERO,
                ps_port: 2222,
                pattern: None,
            },
            placement: JobPlacement::new(HostId(0), workers),
        }]
    }

    fn fast_cfg() -> SimConfig {
        SimConfig {
            compute: ComputeModel {
                per_sample_core_secs: 0.01,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn ring_completes_with_exact_accounting() {
        let out = Simulation::new(fast_cfg())
            .jobs(one_job(6, vec![HostId(1), HostId(2), HostId(3)]))
            .pattern(TrafficPattern::Ring)
            .run();
        assert!(out.all_complete());
        let j = &out.jobs[0];
        assert_eq!(j.iterations, 6);
        assert_eq!(j.global_steps, 18);
        // Unlike the star, the ring's last barrier completes (every worker
        // exits when the final all-reduce lands), so all 6 are recorded.
        assert_eq!(j.barrier_means.len(), 6);
        assert_eq!(j.waits.len(), 6 * 3);
    }

    #[test]
    fn ring_single_worker_degenerates_cleanly() {
        let out = Simulation::new(fast_cfg())
            .jobs(one_job(5, vec![HostId(1)]))
            .pattern(TrafficPattern::Ring)
            .run();
        assert!(out.all_complete());
        assert_eq!(out.jobs[0].global_steps, 5);
    }

    #[test]
    fn hierarchical_single_switch_is_one_group() {
        // On a flat topology every worker lands in one rack group, so the
        // PS sees exactly one reduced gradient per round.
        let out = Simulation::new(fast_cfg())
            .jobs(one_job(6, vec![HostId(1), HostId(2), HostId(3)]))
            .pattern(TrafficPattern::Hierarchical)
            .run();
        assert!(out.all_complete());
        let j = &out.jobs[0];
        assert_eq!(j.iterations, 6);
        assert_eq!(j.global_steps, 18);
        // Star-like barrier shape: the final barrier has no exits.
        assert_eq!(j.barrier_means.len(), 5);
    }

    #[test]
    fn hierarchical_leaf_spine_reduces_per_rack() {
        // 2 racks x 2 hosts: PS on host 0; workers on hosts 1, 2, 3 form
        // two rack groups ({w0}, {w1, w2}).
        let out = Simulation::new(fast_cfg())
            .jobs(one_job(5, vec![HostId(1), HostId(2), HostId(3)]))
            .topology(TopologySpec::LeafSpine {
                racks: 2,
                hosts_per_rack: 2,
                oversub: 2.0,
            })
            .pattern(TrafficPattern::Hierarchical)
            .run();
        assert!(out.all_complete());
        assert_eq!(out.jobs[0].iterations, 5);
        assert_eq!(out.jobs[0].global_steps, 15);
    }

    #[test]
    fn per_job_override_mixes_patterns() {
        let mut setups = one_job(4, vec![HostId(1), HostId(2)]);
        setups.extend(one_job(4, vec![HostId(3), HostId(4)]));
        setups[1].spec.id = JobId(1);
        setups[1].spec.ps_port = 2223;
        setups[1].spec.pattern = Some(TrafficPattern::Ring);
        let out = Simulation::new(fast_cfg()).jobs(setups).run();
        assert!(out.all_complete());
        // Job 0 ran the star (incomplete final barrier), job 1 the ring.
        assert_eq!(out.jobs[0].barrier_means.len(), 3);
        assert_eq!(out.jobs[1].barrier_means.len(), 4);
    }

    #[test]
    fn one_to_one_leaf_spine_matches_single_switch_bitwise() {
        // A non-blocking leaf-spine emits no fabric links, so the whole
        // run — completions, event counts, barrier samples — is bitwise
        // the run on the equivalent single switch.
        for pattern in [TrafficPattern::PsStar, TrafficPattern::Ring] {
            let run = |spec: TopologySpec| {
                Simulation::new(fast_cfg())
                    .jobs(one_job(4, vec![HostId(1), HostId(2), HostId(3)]))
                    .topology(spec)
                    .pattern(pattern)
                    .run()
            };
            let flat = run(TopologySpec::SingleSwitch);
            let tiered = run(TopologySpec::LeafSpine {
                racks: 2,
                hosts_per_rack: 2,
                oversub: 1.0,
            });
            assert_eq!(flat.events, tiered.events, "{pattern}");
            for (a, b) in flat.jobs.iter().zip(&tiered.jobs) {
                assert_eq!(a.completion, b.completion, "{pattern}");
                assert_eq!(a.barrier_means.samples(), b.barrier_means.samples());
            }
        }
    }

    #[test]
    fn oversubscription_slows_cross_rack_traffic() {
        // PS in rack 0, workers in rack 1: every update crosses the spine.
        let mk = |oversub| {
            Simulation::new(fast_cfg())
                .jobs(one_job(5, vec![HostId(2), HostId(3)]))
                .topology(TopologySpec::LeafSpine {
                    racks: 2,
                    hosts_per_rack: 2,
                    oversub,
                })
                .run()
        };
        let free = mk(1.0);
        let choked = mk(4.0);
        assert!(free.all_complete() && choked.all_complete());
        assert!(
            choked.mean_jct_secs() > free.mean_jct_secs() * 1.2,
            "4:1 oversubscription must hurt cross-rack JCT: {:.2}s vs {:.2}s",
            choked.mean_jct_secs(),
            free.mean_jct_secs()
        );
    }

    #[test]
    fn fabric_gauges_appear_in_metrics() {
        let out = Simulation::new(fast_cfg())
            .jobs(one_job(4, vec![HostId(2), HostId(3)]))
            .topology(TopologySpec::LeafSpine {
                racks: 2,
                hosts_per_rack: 2,
                oversub: 2.0,
            })
            .telemetry(tl_telemetry::TelemetryConfig::full(
                simcore::SimDuration::from_millis(50),
            ))
            .run();
        assert!(out.all_complete());
        let reg = &out.telemetry.metrics;
        let up = reg.lookup("fabric.rack0.up.util").expect("uplink gauge");
        assert!(!reg.series(up).is_empty());
        // Cross-rack model updates keep rack 0's uplink busy at some point.
        assert!(reg.series(up).iter().any(|&(_, v)| v > 0.1));
        assert!(reg.lookup("fabric.rack1.down.util").is_some());
    }

    #[test]
    fn ring_runs_are_deterministic_on_both_backends() {
        for backend in [NetBackendKind::Fluid, NetBackendKind::Packet] {
            let run = || {
                let mut cfg = fast_cfg();
                cfg.backend = backend;
                cfg.net_weight_sigma = 0.0;
                Simulation::new(cfg)
                    .jobs(one_job(3, vec![HostId(1), HostId(2), HostId(3)]))
                    .pattern(TrafficPattern::Ring)
                    .run()
            };
            let (a, b) = (run(), run());
            assert!(a.all_complete());
            assert_eq!(a.events, b.events);
            assert_eq!(a.jobs[0].completion, b.jobs[0].completion);
        }
    }

    #[test]
    #[should_panic(expected = "fault injection is only modelled for the ps-star")]
    fn non_star_rejects_fault_plans() {
        let plan = FaultPlan {
            faults: vec![FaultSpec::HostCrash {
                host: 1,
                at_secs: 0.5,
                downtime_secs: 1.0,
            }],
        };
        let _ = Simulation::new(fast_cfg())
            .jobs(one_job(3, vec![HostId(1), HostId(2)]))
            .pattern(TrafficPattern::Ring)
            .faults(plan)
            .run();
    }

    #[test]
    #[should_panic(expected = "only modelled for synchronous training")]
    fn non_star_rejects_async_mode() {
        let mut setups = one_job(3, vec![HostId(1), HostId(2)]);
        setups[0].spec.mode = TrainingMode::Asynchronous;
        let _ = Simulation::new(fast_cfg())
            .jobs(setups)
            .pattern(TrafficPattern::Hierarchical)
            .run();
    }

    #[test]
    #[should_panic(expected = "does not use a sharded PS")]
    fn non_star_rejects_sharded_ps() {
        let mut setups = one_job(3, vec![HostId(2), HostId(3)]);
        setups[0].placement = setups[0]
            .placement
            .clone()
            .with_extra_ps(vec![HostId(1)]);
        let _ = Simulation::new(fast_cfg())
            .jobs(setups)
            .pattern(TrafficPattern::Ring)
            .run();
    }
}
