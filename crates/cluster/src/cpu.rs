//! Processor-sharing CPU model.
//!
//! Each host's cores are shared among its runnable tasks by capped max-min:
//! a task receives `min(its parallelism cap, fair share)` cores, with the
//! slack from capped tasks redistributed. This captures the paper's testbed
//! reality that ~21 colocated single-threaded worker tasks contend for 12
//! hardware threads: when stragglers idle some workers, the remaining ones
//! speed up — and overall CPU utilization drops, which is exactly the
//! Table II effect.
//!
//! Like [`tl_net::FluidNet`], the engine is driven externally: mutate →
//! ask for the next completion → advance/collect.

use crate::host::HostSpec;
use simcore::{crossing, DepletionIndex, DirtySet, Profiler, SimTime};

/// Identifier of a compute task within a [`CpuEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CpuTaskId(pub u64);

/// A finished compute task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompletedTask {
    /// The task's id.
    pub id: CpuTaskId,
    /// Caller-defined tag (we use job/worker identifiers).
    pub tag: u64,
    /// Host it ran on.
    pub host: usize,
    /// When it was submitted.
    pub started: SimTime,
    /// When its demand was fully served.
    pub finished: SimTime,
}

/// A task's fields that the per-event passes never read; the ones they do
/// read (`remaining`, `rate`, host) live in the engine's arrays parallel
/// to its active list.
#[derive(Debug)]
struct TaskState {
    tag: u64,
    cap: f64, // max cores usable in parallel
    started: SimTime,
}

/// Core-seconds below which a task counts as complete (ns-resolution slack).
const DONE_EPS: f64 = 1e-7;

/// Profiler slot timing the engine's public entry points.
const PROFILE_SLOT: &str = "cpu.engine";

/// Slab slot: the generation disambiguates reused slots so stale
/// [`CpuTaskId`]s never alias a newer task.
#[derive(Debug)]
struct SlotEntry {
    gen: u32,
    state: Option<TaskState>,
}

fn slot_of(id: u64) -> usize {
    (id & 0xFFFF_FFFF) as usize
}

/// Retire a slot generation on recycle. Checked: a wrapped generation
/// would let a CpuTaskId issued 2^32 reuses ago resolve to an unrelated
/// task, so overflow fails loudly instead.
fn bump_gen(gen: u32) -> u32 {
    gen.checked_add(1)
        .expect("task slot generation counter overflow — stale CpuTaskIds would alias")
}

fn make_id(gen: u32, slot: usize) -> u64 {
    // The id packs the slot into the low 32 bits; a larger slot index
    // would silently alias an existing CpuTaskId. `start_task` refuses to
    // grow the slab past the boundary; this assert is the backstop.
    assert!(
        slot <= u32::MAX as usize,
        "task slot {slot} does not fit the 32-bit id field"
    );
    ((gen as u64) << 32) | slot as u64
}

/// Event-driven processor-sharing engine over a set of hosts.
///
/// Tasks live in a generational slab (ids are `(generation << 32) | slot`);
/// the state every event touches (remaining demand, share, host) sits in
/// dense arrays in creation order, which the integration and completion
/// passes stream. Shares are recomputed incrementally: hosts are
/// independent, so a task arrival or completion only re-runs the
/// water-filling pass on its own host. Each host keeps its task list in
/// creation order, and dirty hosts are queued on a worklist, so a refresh
/// costs O(tasks on the changed hosts), not O(hosts). The next-completion
/// time is cached between mutations — it is an absolute time, invariant
/// under [`CpuEngine::advance`] while shares are unchanged — and a cache
/// miss consults a [`DepletionIndex`] keyed by host rather than scanning
/// every runnable task.
#[derive(Debug)]
pub struct CpuEngine {
    specs: Vec<HostSpec>,
    slots: Vec<SlotEntry>,
    /// Free slab slots available for reuse.
    free: Vec<u32>,
    /// Active slots in creation order (deterministic iteration).
    active: Vec<u32>,
    // Hot per-task state in lock-step with `active` (same order): the
    // advance and completion passes stream these dense arrays instead of
    // chasing slab entries. Starts append; removals compact in place.
    /// Core-seconds left.
    remaining: Vec<f64>,
    /// Currently allocated cores.
    rate: Vec<f64>,
    /// Host the task runs on.
    host_of: Vec<u32>,
    /// Each occupied slot's index into `active` and the hot arrays.
    pos: Vec<u32>,
    last_advance: SimTime,
    /// Hosts whose shares must be recomputed before the next query.
    dirty: DirtySet,
    /// Cached `next_event_time` result; cleared on any mutation.
    next_cache: Option<Option<SimTime>>,
    /// Each host's active slots in creation order (the order of `active`
    /// restricted to the host): appended on start, pruned on removal.
    per_host: Vec<Vec<u32>>,
    /// Reusable water-filling worklist.
    unfrozen: Vec<u32>,
    /// Reusable list of hosts that lost tasks in one removal pass.
    pruned: Vec<usize>,
    /// Each host's earliest task depletion, keyed by host and re-keyed
    /// whenever the host is re-shared.
    depletion: DepletionIndex,
    /// Cumulative busy core-seconds per host (for utilization).
    busy_core_secs: Vec<f64>,
    /// Self-profiling handle (wall-times the public entry points);
    /// disabled by default.
    profiler: Profiler,
}

impl CpuEngine {
    /// Create an engine over the given hosts.
    pub fn new(specs: Vec<HostSpec>) -> Self {
        assert!(!specs.is_empty(), "need at least one host");
        let n = specs.len();
        let mut depletion = DepletionIndex::new();
        depletion.reserve_keys(n);
        CpuEngine {
            specs,
            slots: Vec::new(),
            free: Vec::new(),
            active: Vec::new(),
            remaining: Vec::new(),
            rate: Vec::new(),
            host_of: Vec::new(),
            pos: Vec::new(),
            last_advance: SimTime::ZERO,
            dirty: DirtySet::new(n),
            next_cache: None,
            per_host: vec![Vec::new(); n],
            unfrozen: Vec::new(),
            pruned: Vec::new(),
            depletion,
            busy_core_secs: vec![0.0; n],
            profiler: Profiler::disabled(),
        }
    }

    /// Attach a self-profiling handle; every public entry point is then
    /// wall-timed under the `cpu.engine` slot (nested calls are not
    /// double-counted). Costs one branch per call when disabled.
    pub fn set_profiler(&mut self, profiler: Profiler) {
        self.profiler = profiler;
    }

    /// Number of hosts.
    pub fn num_hosts(&self) -> usize {
        self.specs.len()
    }

    /// Number of currently runnable tasks.
    pub fn active_task_count(&self) -> usize {
        self.active.len()
    }

    /// Cumulative busy core-seconds per host since engine creation.
    pub fn busy_core_secs(&self) -> &[f64] {
        &self.busy_core_secs
    }

    /// Submit a task demanding `core_secs` of compute on `host`, able to use
    /// at most `cap` cores in parallel.
    pub fn start_task(
        &mut self,
        now: SimTime,
        host: usize,
        core_secs: f64,
        cap: f64,
        tag: u64,
    ) -> CpuTaskId {
        assert!(host < self.specs.len(), "host {host} out of range");
        assert!(
            core_secs > 0.0 && core_secs.is_finite(),
            "invalid demand {core_secs}"
        );
        assert!(cap > 0.0 && cap.is_finite(), "invalid cap {cap}");
        let timer = self.profiler.start();
        self.advance_to(now);
        let state = TaskState {
            tag,
            cap,
            started: now,
        };
        let slot = match self.free.pop() {
            Some(s) => {
                let entry = &mut self.slots[s as usize];
                debug_assert!(entry.state.is_none(), "free slot still occupied");
                entry.state = Some(state);
                s as usize
            }
            None => {
                // CpuTaskIds carry the slot in their low 32 bits; one more
                // slot than fits would alias slot 0's ids.
                assert!(
                    self.slots.len() <= u32::MAX as usize,
                    "task slot space exhausted: {} concurrent tasks",
                    self.slots.len()
                );
                self.slots.push(SlotEntry {
                    gen: 0,
                    state: Some(state),
                });
                self.pos.push(0);
                self.slots.len() - 1
            }
        };
        self.pos[slot] = self.active.len() as u32;
        self.active.push(slot as u32);
        self.remaining.push(core_secs);
        self.rate.push(0.0);
        self.host_of.push(host as u32);
        self.per_host[host].push(slot as u32);
        self.mark_dirty(host);
        let id = CpuTaskId(make_id(self.slots[slot].gen, slot));
        self.profiler.stop(PROFILE_SLOT, timer);
        id
    }

    /// Integrate progress up to `now`.
    pub fn advance(&mut self, now: SimTime) {
        let timer = self.profiler.start();
        self.advance_to(now);
        self.profiler.stop(PROFILE_SLOT, timer);
    }

    fn advance_to(&mut self, now: SimTime) {
        assert!(
            now >= self.last_advance,
            "cpu engine cannot move backwards: {now} < {}",
            self.last_advance
        );
        if now == self.last_advance {
            return;
        }
        self.refresh_rates();
        let dt = now.since(self.last_advance).as_secs_f64();
        let busy = &mut self.busy_core_secs;
        let tasks = self.remaining.iter_mut().zip(&self.rate).zip(&self.host_of);
        for ((remaining, &rate), &host) in tasks {
            if rate > 0.0 {
                let done = (rate * dt).min(*remaining);
                *remaining -= done;
                busy[host as usize] += done;
            }
        }
        self.last_advance = now;
    }

    /// The earliest time a task completes under current shares, if any.
    ///
    /// The result is cached: while no task arrives or completes, shares —
    /// and thus the absolute completion time — are unchanged, so repeated
    /// calls (one per simulator event) cost nothing. A cache miss
    /// recomputes only the hosts near the top of the depletion index; the
    /// minimum over hosts of each host's minimum is the minimum of a scan
    /// over every runnable task, so the instant is bit-identical to it.
    pub fn next_event_time(&mut self) -> Option<SimTime> {
        if let Some(cached) = self.next_cache {
            return cached;
        }
        let timer = self.profiler.start();
        self.refresh_rates();
        let (remaining, rate, pos) = (&self.remaining, &self.rate, &self.pos);
        let per_host = &self.per_host;
        let best = self
            .depletion
            .min_exact(|h| depletion_secs(remaining, rate, pos, &per_host[h as usize]))
            .map(|secs| crossing(self.last_advance, secs));
        self.next_cache = Some(best);
        self.profiler.stop(PROFILE_SLOT, timer);
        best
    }

    /// Advance to `now` and drain finished tasks in creation order.
    pub fn take_completions(&mut self, now: SimTime) -> Vec<CompletedTask> {
        let timer = self.profiler.start();
        self.advance_to(now);
        let mut done = Vec::new();
        self.remove_where(
            |e, k| e.remaining[k] <= DONE_EPS,
            |id, host, t| {
                done.push(CompletedTask {
                    id,
                    tag: t.tag,
                    host,
                    started: t.started,
                    finished: now,
                })
            },
        );
        self.profiler.stop(PROFILE_SLOT, timer);
        done
    }

    /// Change `host`'s core count at time `now` (a compute-straggler
    /// window, or its end). Running tasks are integrated under the old
    /// shares first, then re-shared at the new capacity.
    pub fn set_host_cores(&mut self, now: SimTime, host: usize, cores: f64) {
        assert!(host < self.specs.len(), "host {host} out of range");
        assert!(cores > 0.0 && cores.is_finite(), "invalid cores {cores}");
        let timer = self.profiler.start();
        self.advance_to(now);
        self.specs[host].cores = cores;
        self.mark_dirty(host);
        self.profiler.stop(PROFILE_SLOT, timer);
    }

    /// Current core count of `host` (nominal or fault-degraded).
    pub fn host_cores(&self, host: usize) -> f64 {
        self.specs[host].cores
    }

    /// Abort every runnable task for which `pred(id, host, tag)` holds
    /// (e.g. all tasks on a crashed host). Partially served demand is
    /// discarded; aborted ids no longer resolve. Returns the aborted
    /// `(id, tag)` pairs in creation order.
    pub fn abort_tasks_where(
        &mut self,
        now: SimTime,
        mut pred: impl FnMut(CpuTaskId, usize, u64) -> bool,
    ) -> Vec<(CpuTaskId, u64)> {
        let timer = self.profiler.start();
        self.advance_to(now);
        let mut aborted = Vec::new();
        self.remove_where(
            |e, k| {
                let slot = e.active[k] as usize;
                let entry = &e.slots[slot];
                let tag = entry.state.as_ref().expect("active task missing").tag;
                pred(
                    CpuTaskId(make_id(entry.gen, slot)),
                    e.host_of[k] as usize,
                    tag,
                )
            },
            |id, _, t| aborted.push((id, t.tag)),
        );
        self.profiler.stop(PROFILE_SLOT, timer);
        aborted
    }

    /// Currently allocated cores for a task (None once completed).
    pub fn rate_of(&mut self, id: CpuTaskId) -> Option<f64> {
        let timer = self.profiler.start();
        self.refresh_rates();
        self.profiler.stop(PROFILE_SLOT, timer);
        let slot = slot_of(id.0);
        let entry = self.slots.get(slot)?;
        if make_id(entry.gen, slot) != id.0 {
            return None;
        }
        entry
            .state
            .as_ref()
            .map(|_| self.rate[self.pos[slot] as usize])
    }

    fn mark_dirty(&mut self, host: usize) {
        self.dirty.mark(host);
        self.next_cache = None;
    }

    /// Remove every active task for which `pick(self, k)` holds (`k`
    /// indexes `active` and the hot arrays), in creation order, handing
    /// each to `removed` with its id and host. Survivors keep creation
    /// order; freed slots are recycled and their hosts re-shared.
    fn remove_where(
        &mut self,
        mut pick: impl FnMut(&Self, usize) -> bool,
        mut removed: impl FnMut(CpuTaskId, usize, TaskState),
    ) {
        let mut w = 0;
        for k in 0..self.active.len() {
            let slot = self.active[k];
            if pick(self, k) {
                let host = self.host_of[k] as usize;
                let entry = &mut self.slots[slot as usize];
                let id = CpuTaskId(make_id(entry.gen, slot as usize));
                let t = entry.state.take().expect("active task missing");
                entry.gen = bump_gen(entry.gen);
                self.free.push(slot);
                self.pruned.push(host);
                removed(id, host, t);
            } else {
                if w != k {
                    self.active[w] = slot;
                    self.remaining[w] = self.remaining[k];
                    self.rate[w] = self.rate[k];
                    self.host_of[w] = self.host_of[k];
                    self.pos[slot as usize] = w as u32;
                }
                w += 1;
            }
        }
        self.active.truncate(w);
        self.remaining.truncate(w);
        self.rate.truncate(w);
        self.host_of.truncate(w);
        self.prune_hosts();
    }

    /// Drop the slots freed by a removal pass from the task lists of the
    /// hosts in `pruned` (each visited once; survivors keep creation
    /// order) and queue those hosts for re-sharing. Must run before any
    /// freed slot is reused, or a recycled slot could be mistaken for
    /// the task it replaced.
    fn prune_hosts(&mut self) {
        let mut pruned = std::mem::take(&mut self.pruned);
        pruned.sort_unstable();
        pruned.dedup();
        for &h in &pruned {
            let slots = &self.slots;
            self.per_host[h].retain(|&s| slots[s as usize].state.is_some());
            self.mark_dirty(h);
        }
        pruned.clear();
        self.pruned = pruned;
    }

    /// Capped max-min share of each host's cores among its runnable tasks.
    ///
    /// Hosts are independent, so only the hosts queued on the dirty
    /// worklist are re-shared and re-keyed in the depletion index;
    /// everyone else keeps their rates and their entry.
    fn refresh_rates(&mut self) {
        if self.dirty.is_empty() {
            return;
        }
        let mut unfrozen = std::mem::take(&mut self.unfrozen);
        for &h in self.dirty.as_slice() {
            self.depletion.invalidate(h);
            let h = h as usize;
            let ids = &self.per_host[h];
            if ids.is_empty() {
                continue;
            }
            let mut remaining_cores = self.specs[h].cores;
            unfrozen.clear();
            unfrozen.extend_from_slice(ids);
            // Capped water-filling: tasks below the fair share take their
            // cap and release the slack to the rest.
            while !unfrozen.is_empty() {
                let fair = remaining_cores / unfrozen.len() as f64;
                let mut froze_any = false;
                unfrozen.retain(|&slot| {
                    let cap = self.slots[slot as usize]
                        .state
                        .as_ref()
                        .expect("task missing")
                        .cap;
                    if cap <= fair {
                        self.rate[self.pos[slot as usize] as usize] = cap;
                        remaining_cores -= cap;
                        froze_any = true;
                        false
                    } else {
                        true
                    }
                });
                if !froze_any {
                    for &slot in &unfrozen {
                        self.rate[self.pos[slot as usize] as usize] = fair;
                    }
                    break;
                }
            }
            let secs = depletion_secs(&self.remaining, &self.rate, &self.pos, &self.per_host[h]);
            if secs.is_finite() {
                self.depletion
                    .push(h as u32, crossing(self.last_advance, secs));
            }
        }
        self.unfrozen = unfrozen;
        self.dirty.clear();
        // Each host holds at most one live entry, and only a host with a
        // runnable task holds one.
        self.depletion.compact(self.active.len());
    }
}

/// Seconds until the first of `slots`' tasks runs dry under current
/// shares, or infinity if none is progressing. `pos` maps a slot to its
/// index in `remaining` and `rate`, which hold as of the engine's last
/// advance point.
fn depletion_secs(remaining: &[f64], rate: &[f64], pos: &[u32], slots: &[u32]) -> f64 {
    slots
        .iter()
        .map(|&slot| pos[slot as usize] as usize)
        .filter(|&k| rate[k] > 0.0)
        .map(|k| (remaining[k] / rate[k]).max(0.0))
        .fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use simcore::SimDuration;

    fn engine(hosts: usize, cores: f64) -> CpuEngine {
        CpuEngine::new(vec![HostSpec::with_cores(cores); hosts])
    }

    #[test]
    fn lone_task_runs_at_cap() {
        let mut e = engine(1, 12.0);
        // 2 core-seconds at cap 1 core -> 2 seconds wall.
        let id = e.start_task(SimTime::ZERO, 0, 2.0, 1.0, 7);
        assert_eq!(e.rate_of(id), Some(1.0));
        let t = e.next_event_time().unwrap();
        assert!((t.as_secs_f64() - 2.0).abs() < 1e-6);
        let done = e.take_completions(t);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].tag, 7);
    }

    #[test]
    fn oversubscription_slows_tasks() {
        // 21 single-core tasks on 12 cores: each gets 12/21 cores.
        let mut e = engine(1, 12.0);
        for i in 0..21 {
            e.start_task(SimTime::ZERO, 0, 1.0, 1.0, i);
        }
        let t = e.next_event_time().unwrap();
        let want = 21.0 / 12.0; // 1 core-sec at 12/21 cores
        assert!((t.as_secs_f64() - want).abs() < 1e-6, "got {t}");
        let done = e.take_completions(t);
        assert_eq!(done.len(), 21, "all equal tasks finish together");
    }

    #[test]
    fn undersubscription_leaves_cores_idle() {
        // 4 single-core tasks on 12 cores: each runs at its cap of 1.
        let mut e = engine(1, 12.0);
        for i in 0..4 {
            e.start_task(SimTime::ZERO, 0, 3.0, 1.0, i);
        }
        let t = e.next_event_time().unwrap();
        assert!((t.as_secs_f64() - 3.0).abs() < 1e-6);
        e.take_completions(t);
        // Busy core-time: 4 tasks × 3 core-secs.
        assert!((e.busy_core_secs()[0] - 12.0).abs() < 1e-6);
    }

    #[test]
    fn capped_task_releases_slack() {
        // One cap-1 task and one cap-8 task on 4 cores: fair = 2, so the
        // cap-1 task takes 1 and the wide task gets 3.
        let mut e = engine(1, 4.0);
        let narrow = e.start_task(SimTime::ZERO, 0, 10.0, 1.0, 1);
        let wide = e.start_task(SimTime::ZERO, 0, 10.0, 8.0, 2);
        assert_eq!(e.rate_of(narrow), Some(1.0));
        assert_eq!(e.rate_of(wide), Some(3.0));
    }

    #[test]
    fn wide_task_is_limited_by_host_cores() {
        let mut e = engine(1, 12.0);
        let id = e.start_task(SimTime::ZERO, 0, 24.0, 16.0, 0);
        assert_eq!(
            e.rate_of(id),
            Some(12.0),
            "capped by the host, not the task"
        );
        let t = e.next_event_time().unwrap();
        assert!((t.as_secs_f64() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn completion_speeds_up_survivors() {
        let mut e = engine(1, 1.0);
        e.start_task(SimTime::ZERO, 0, 1.0, 1.0, 1); // done at t=2 (half core)
        e.start_task(SimTime::ZERO, 0, 2.0, 1.0, 2);
        let t1 = e.next_event_time().unwrap();
        assert!((t1.as_secs_f64() - 2.0).abs() < 1e-6);
        let done = e.take_completions(t1);
        assert_eq!(done[0].tag, 1);
        // Task 2 has 1 core-sec left, now at a full core: done at t=3.
        let t2 = e.next_event_time().unwrap();
        assert!((t2.as_secs_f64() - 3.0).abs() < 1e-6);
    }

    #[test]
    fn completion_past_the_time_horizon_saturates() {
        // 1 core-second on a 1e-12-core host takes ~32,000 years, past the
        // last representable instant. The completion saturates to "never"
        // instead of overflowing, and a task on another host still
        // completes on time.
        let mut e = CpuEngine::new(vec![HostSpec::with_cores(1e-12), HostSpec::with_cores(1.0)]);
        e.start_task(SimTime::ZERO, 0, 1.0, 1.0, 1);
        assert_eq!(e.next_event_time(), Some(SimTime::MAX));
        e.start_task(SimTime::ZERO, 1, 2.0, 1.0, 2);
        let t = e.next_event_time().unwrap();
        assert_eq!(t, SimTime::from_secs(2) + SimDuration::from_nanos(1));
        let done = e.take_completions(t);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].tag, 2);
        assert_eq!(e.next_event_time(), Some(SimTime::MAX));
    }

    #[test]
    fn idle_engine_has_no_next_event() {
        let mut e = engine(3, 4.0);
        assert_eq!(e.next_event_time(), None);
        let id = e.start_task(SimTime::ZERO, 1, 1.0, 1.0, 0);
        e.abort_tasks_where(SimTime::ZERO, |t, _, _| t == id);
        assert_eq!(e.next_event_time(), None);
    }

    #[test]
    fn next_event_is_the_earliest_host() {
        let mut e = engine(3, 1.0);
        for (host, demand) in [(0, 3.0), (1, 1.0), (2, 2.0)] {
            e.start_task(SimTime::ZERO, host, demand, 1.0, host as u64);
        }
        let t = e.next_event_time().unwrap();
        assert_eq!(t, SimTime::from_secs(1) + SimDuration::from_nanos(1));
        let done = e.take_completions(t);
        assert_eq!(done.len(), 1);
        assert_eq!((done[0].host, done[0].tag), (1, 1));
        let t = e.next_event_time().unwrap();
        assert_eq!(e.take_completions(t)[0].host, 2);
    }

    #[test]
    fn tied_hosts_complete_at_the_same_instant() {
        // Equal demands started together on equal hosts: one query, one
        // instant, every host's task drained by it.
        let mut e = engine(4, 2.0);
        for host in 0..4 {
            e.start_task(SimTime::ZERO, host, 1.5, 1.0, host as u64);
        }
        let t = e.next_event_time().unwrap();
        let done = e.take_completions(t);
        let mut hosts: Vec<usize> = done.iter().map(|c| c.host).collect();
        hosts.sort_unstable();
        assert_eq!(hosts, vec![0, 1, 2, 3]);
        assert_eq!(e.next_event_time(), None);
    }

    #[test]
    fn emptied_host_drops_out_of_the_next_event() {
        let mut e = engine(2, 1.0);
        e.start_task(SimTime::ZERO, 0, 1.0, 1.0, 10);
        e.start_task(SimTime::ZERO, 1, 5.0, 1.0, 11);
        assert_eq!(
            e.next_event_time(),
            Some(SimTime::from_secs(1) + SimDuration::from_nanos(1))
        );
        let aborted = e.abort_tasks_where(SimTime::from_millis(500), |_, host, _| host == 0);
        assert_eq!(aborted.len(), 1);
        assert_eq!(
            e.next_event_time(),
            Some(SimTime::from_secs(5) + SimDuration::from_nanos(1))
        );
    }

    #[test]
    fn slowing_a_host_strands_its_earlier_key() {
        // Host 0's first key (t = 1 s) lies ahead of every live key once
        // its cores drop; the query must skip it and match the full scan.
        let mut e = engine(2, 1.0);
        let mut o = Oracle::new(2, 1.0);
        for (host, demand) in [(0, 1.0), (1, 3.0)] {
            e.start_task(SimTime::ZERO, host, demand, 1.0, host as u64);
            o.start(SimTime::ZERO, host, demand, 1.0, host as u64);
        }
        assert_eq!(e.next_event_time(), o.next_event_time());
        let now = SimTime::from_millis(500);
        e.set_host_cores(now, 0, 0.1);
        o.advance(now);
        o.cores[0] = 0.1;
        let t = e.next_event_time();
        assert_eq!(t, o.next_event_time());
        assert_eq!(t, Some(SimTime::from_secs(3) + SimDuration::from_nanos(1)));
        let t = t.unwrap();
        assert_eq!(e.take_completions(t), o.take_completions(t));
        assert_eq!(e.next_event_time(), o.next_event_time());
    }

    #[test]
    fn repeated_queries_neither_grow_the_index_nor_move() {
        let mut e = engine(3, 2.0);
        for host in 0..3 {
            e.start_task(SimTime::ZERO, host, 1.0 + host as f64, 1.0, 0);
        }
        let first = e.next_event_time();
        let entries = e.depletion.len();
        assert_eq!(entries, 3, "one entry per busy host");
        for _ in 0..10 {
            assert_eq!(e.next_event_time(), first);
        }
        e.advance(SimTime::from_millis(100));
        assert_eq!(
            e.next_event_time(),
            first,
            "advancing alone re-keys nothing"
        );
        assert_eq!(e.depletion.len(), entries);
    }

    #[test]
    fn hosts_are_independent() {
        let mut e = engine(2, 1.0);
        e.start_task(SimTime::ZERO, 0, 1.0, 1.0, 1);
        e.start_task(SimTime::ZERO, 1, 1.0, 1.0, 2);
        let t = e.next_event_time().unwrap();
        assert!(
            (t.as_secs_f64() - 1.0).abs() < 1e-6,
            "no cross-host sharing"
        );
        let done = e.take_completions(t);
        assert_eq!(done.len(), 2);
        assert!((e.busy_core_secs()[0] - 1.0).abs() < 1e-6);
        assert!((e.busy_core_secs()[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn busy_accounting_partial_window() {
        let mut e = engine(1, 2.0);
        e.start_task(SimTime::ZERO, 0, 10.0, 1.0, 1);
        e.advance(SimTime::from_secs(3));
        assert!((e.busy_core_secs()[0] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn late_arrival_reshares() {
        let mut e = engine(1, 1.0);
        let a = e.start_task(SimTime::ZERO, 0, 2.0, 1.0, 1);
        e.start_task(SimTime::from_secs(1), 0, 2.0, 1.0, 2);
        // Task a: 1 core-sec left at t=1, then half core.
        assert_eq!(e.rate_of(a), Some(0.5));
        let t = e.next_event_time().unwrap();
        assert!((t.as_secs_f64() - 3.0).abs() < 1e-6);
    }

    #[test]
    fn core_change_reshapes_running_tasks() {
        let mut e = engine(1, 4.0);
        let id = e.start_task(SimTime::ZERO, 0, 8.0, 8.0, 1);
        assert_eq!(e.rate_of(id), Some(4.0));
        // 1s at 4 cores: 4 core-secs left. Halve the host.
        e.set_host_cores(SimTime::from_secs(1), 0, 2.0);
        assert_eq!(e.rate_of(id), Some(2.0));
        assert!((e.host_cores(0) - 2.0).abs() < 1e-12);
        // 4 core-secs at 2 cores: finishes at t=3.
        let t = e.next_event_time().unwrap();
        assert!((t.as_secs_f64() - 3.0).abs() < 1e-6, "got {t}");
        // Restore; no tasks left, engine stays consistent.
        e.take_completions(t);
        e.set_host_cores(t, 0, 4.0);
        assert_eq!(e.active_task_count(), 0);
    }

    #[test]
    fn abort_discards_tasks_and_ids() {
        let mut e = engine(2, 1.0);
        let a = e.start_task(SimTime::ZERO, 0, 5.0, 1.0, 1);
        let b = e.start_task(SimTime::ZERO, 0, 5.0, 1.0, 2);
        let c = e.start_task(SimTime::ZERO, 1, 5.0, 1.0, 3);
        let aborted = e.abort_tasks_where(SimTime::from_secs(1), |_, host, _| host == 0);
        assert_eq!(aborted, vec![(a, 1), (b, 2)]);
        assert_eq!(e.active_task_count(), 1);
        assert!(e.rate_of(a).is_none());
        assert!(e.rate_of(b).is_none());
        assert_eq!(e.rate_of(c), Some(1.0));
        // The survivor completes on schedule.
        let t = e.next_event_time().unwrap();
        assert!((t.as_secs_f64() - 5.0).abs() < 1e-6);
        assert_eq!(e.take_completions(t).len(), 1);
    }

    #[test]
    #[should_panic(expected = "generation counter overflow")]
    fn generation_overflow_fails_loudly() {
        // A slot generation at u32::MAX has handed out ids for 2^32 tasks;
        // one more recycle would make the oldest id resolve to the newest
        // task. The recycle must panic instead.
        let mut e = engine(1, 1.0);
        e.start_task(SimTime::ZERO, 0, 1.0, 1.0, 0);
        e.slots[0].gen = u32::MAX;
        e.abort_tasks_where(SimTime::ZERO, |_, _, _| true);
    }

    #[test]
    #[should_panic(expected = "generation counter overflow")]
    fn generation_overflow_fails_loudly_on_completion() {
        let mut e = engine(1, 1.0);
        e.start_task(SimTime::ZERO, 0, 1.0, 1.0, 0);
        e.slots[0].gen = u32::MAX;
        let t = e.next_event_time().unwrap();
        e.take_completions(t);
    }

    #[test]
    fn task_id_packing_roundtrips_at_the_slot_boundary() {
        let slot = u32::MAX as usize;
        let id = make_id(7, slot);
        assert_eq!(slot_of(id), slot);
        assert_eq!(id >> 32, 7);
    }

    #[test]
    #[should_panic(expected = "does not fit the 32-bit id field")]
    fn task_id_packing_rejects_oversized_slots() {
        let _ = make_id(0, (u32::MAX as usize) + 1);
    }

    #[test]
    fn recycled_slot_on_another_host_keeps_lists_apart() {
        // A slot freed on host 0 and reused on host 1 in the same instant
        // must leave host 0's list and join host 1's exactly once.
        let mut e = engine(2, 2.0);
        let a = e.start_task(SimTime::ZERO, 0, 1.0, 1.0, 1);
        e.start_task(SimTime::ZERO, 0, 5.0, 1.0, 2);
        let t = SimTime::from_secs(1) + SimDuration::from_nanos(1);
        let done = e.take_completions(t);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, a);
        let c = e.start_task(t, 1, 1.0, 4.0, 3);
        assert_eq!(slot_of(c.0), slot_of(a.0), "slot recycled");
        assert_eq!(e.rate_of(a), None, "stale id no longer resolves");
        assert_eq!(e.rate_of(c), Some(2.0));
        assert_eq!(e.per_host[0].len(), 1);
        assert_eq!(e.per_host[1], vec![slot_of(c.0) as u32]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_host() {
        let mut e = engine(1, 1.0);
        e.start_task(SimTime::ZERO, 1, 1.0, 1.0, 0);
    }

    #[test]
    #[should_panic(expected = "invalid demand")]
    fn rejects_zero_demand() {
        let mut e = engine(1, 1.0);
        e.start_task(SimTime::ZERO, 0, 0.0, 1.0, 0);
    }

    /// From-scratch reference for the churn proptest: the same slab id
    /// allocation, but shares are recomputed for every host on every query
    /// by regrouping the creation-ordered active list (the engine's
    /// original, non-incremental refresh).
    struct Oracle {
        cores: Vec<f64>,
        gens: Vec<u32>,
        free: Vec<u32>,
        /// (slot, host, tag, remaining, cap, started) in creation order.
        active: Vec<(u32, usize, u64, f64, f64, SimTime)>,
        rates: Vec<f64>,
        last: SimTime,
        busy: Vec<f64>,
    }

    impl Oracle {
        fn new(hosts: usize, cores: f64) -> Self {
            Oracle {
                cores: vec![cores; hosts],
                gens: Vec::new(),
                free: Vec::new(),
                active: Vec::new(),
                rates: Vec::new(),
                last: SimTime::ZERO,
                busy: vec![0.0; hosts],
            }
        }

        fn id(&self, slot: u32) -> CpuTaskId {
            CpuTaskId(((self.gens[slot as usize] as u64) << 32) | slot as u64)
        }

        /// Capped water-filling of every host, regrouped from `active`.
        fn recompute(&mut self) {
            self.rates = vec![0.0; self.active.len()];
            let mut per_host: Vec<Vec<usize>> = vec![Vec::new(); self.cores.len()];
            for (k, t) in self.active.iter().enumerate() {
                per_host[t.1].push(k);
            }
            for (h, ks) in per_host.iter().enumerate() {
                let mut remaining_cores = self.cores[h];
                let mut unfrozen = ks.clone();
                while !unfrozen.is_empty() {
                    let fair = remaining_cores / unfrozen.len() as f64;
                    let before = unfrozen.len();
                    unfrozen.retain(|&k| {
                        let cap = self.active[k].4;
                        if cap <= fair {
                            self.rates[k] = cap;
                            remaining_cores -= cap;
                            false
                        } else {
                            true
                        }
                    });
                    if unfrozen.len() == before {
                        for &k in &unfrozen {
                            self.rates[k] = fair;
                        }
                        break;
                    }
                }
            }
        }

        fn advance(&mut self, now: SimTime) {
            if now == self.last {
                return;
            }
            self.recompute();
            let dt = now.since(self.last).as_secs_f64();
            for (k, t) in self.active.iter_mut().enumerate() {
                if self.rates[k] > 0.0 {
                    let done = (self.rates[k] * dt).min(t.3);
                    t.3 -= done;
                    self.busy[t.1] += done;
                }
            }
            self.last = now;
        }

        fn start(
            &mut self,
            now: SimTime,
            host: usize,
            demand: f64,
            cap: f64,
            tag: u64,
        ) -> CpuTaskId {
            self.advance(now);
            let slot = match self.free.pop() {
                Some(s) => s,
                None => {
                    self.gens.push(0);
                    (self.gens.len() - 1) as u32
                }
            };
            self.active.push((slot, host, tag, demand, cap, now));
            self.id(slot)
        }

        fn next_event_time(&mut self) -> Option<SimTime> {
            self.recompute();
            let mut best: Option<f64> = None;
            for (k, t) in self.active.iter().enumerate() {
                if self.rates[k] > 0.0 {
                    let secs = (t.3 / self.rates[k]).max(0.0);
                    best = Some(best.map_or(secs, |b: f64| b.min(secs)));
                }
            }
            best.map(|secs| {
                self.last + SimDuration::from_secs_f64(secs) + SimDuration::from_nanos(1)
            })
        }

        /// Remove (in creation order) every task `pick` selects.
        fn remove_where(
            &mut self,
            mut pick: impl FnMut(CpuTaskId, &(u32, usize, u64, f64, f64, SimTime)) -> bool,
        ) -> Vec<(u32, usize, u64, SimTime)> {
            let mut out = Vec::new();
            let mut keep = Vec::new();
            for t in std::mem::take(&mut self.active) {
                let id = self.id(t.0);
                if pick(id, &t) {
                    out.push((t.0, t.1, t.2, t.5));
                    self.gens[t.0 as usize] += 1;
                    self.free.push(t.0);
                } else {
                    keep.push(t);
                }
            }
            self.active = keep;
            out
        }

        fn take_completions(&mut self, now: SimTime) -> Vec<CompletedTask> {
            self.advance(now);
            let removed = self.remove_where(|_, t| t.3 <= DONE_EPS);
            removed
                .into_iter()
                .map(|(slot, host, tag, started)| CompletedTask {
                    id: CpuTaskId(((self.gens[slot as usize] as u64 - 1) << 32) | slot as u64),
                    tag,
                    host,
                    started,
                    finished: now,
                })
                .collect()
        }

        fn abort(&mut self, now: SimTime, host: usize, tag: u64) -> Vec<(CpuTaskId, u64)> {
            self.advance(now);
            let mut ids = Vec::new();
            self.remove_where(|id, t| {
                let hit = t.1 == host || t.2 == tag;
                if hit {
                    ids.push((id, t.2));
                }
                hit
            });
            ids
        }

        fn rate_of(&mut self, id: CpuTaskId) -> Option<f64> {
            self.recompute();
            self.active
                .iter()
                .position(|t| self.id(t.0) == id)
                .map(|k| self.rates[k])
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum ChurnOp {
        Start {
            host: usize,
            demand: f64,
            cap: f64,
            tag: u64,
            dt_us: u64,
        },
        Collect {
            dt_us: u64,
        },
        RunToNext,
        Abort {
            host: usize,
            tag: u64,
        },
        SetCores {
            host: usize,
            cores: f64,
            dt_us: u64,
        },
        /// The same task started at one instant on `count` consecutive
        /// hosts from `first`, each demand `jitter` core-seconds above the
        /// last: exact ties (`jitter` = 0) or near-ties a few nanoseconds
        /// apart between hosts with equal shares.
        Fanout {
            first: usize,
            count: usize,
            demand: f64,
            jitter: f64,
            cap: f64,
            tag: u64,
            dt_us: u64,
        },
    }

    const CHURN_HOSTS: usize = 9;

    fn arb_churn() -> impl Strategy<Value = Vec<ChurnOp>> {
        // Caps and core counts without exact binary sums, so the order in
        // which water-filling subtracts caps shows in the rate bits.
        let caps = [0.3, 0.7, 1.0, 1.1, 2.9, 16.0];
        proptest::collection::vec(
            (
                (0u8..12, 0..CHURN_HOSTS, 0usize..6),
                (0.01f64..3.0, 0u64..6, 0u64..400_000),
                // Host indices past the range make the abort tag-only.
                (0..CHURN_HOSTS + 4, 1u32..17),
            )
                .prop_map(
                    move |((kind, host, cap), (demand, tag, dt_us), (abort_host, cores))| match kind
                    {
                        0..=4 => ChurnOp::Start {
                            host,
                            demand,
                            cap: caps[cap],
                            tag,
                            dt_us,
                        },
                        5 => ChurnOp::Collect { dt_us },
                        6 | 7 => ChurnOp::RunToNext,
                        8 => ChurnOp::Abort {
                            host: abort_host,
                            tag: tag + 10 * (dt_us % 2),
                        },
                        9 => ChurnOp::SetCores {
                            host,
                            cores: cores as f64 / 3.0,
                            dt_us,
                        },
                        _ => ChurnOp::Fanout {
                            first: host,
                            count: 2 + abort_host % 4,
                            demand,
                            jitter: if cores % 2 == 0 { 0.0 } else { 1e-8 },
                            cap: caps[cap],
                            tag,
                            dt_us,
                        },
                    },
                ),
            1..80,
        )
    }

    fn check_churn(ops: &[ChurnOp]) -> Result<(), proptest::test_runner::TestCaseError> {
        let mut e = engine(CHURN_HOSTS, 3.7);
        let mut o = Oracle::new(CHURN_HOSTS, 3.7);
        let mut now = SimTime::ZERO;
        let mut ids: Vec<CpuTaskId> = Vec::new();
        for op in ops {
            match *op {
                ChurnOp::Start {
                    host,
                    demand,
                    cap,
                    tag,
                    dt_us,
                } => {
                    now += SimDuration::from_micros(dt_us);
                    let a = e.start_task(now, host, demand, cap, tag);
                    let b = o.start(now, host, demand, cap, tag);
                    prop_assert_eq!(a, b, "task ids diverged");
                    ids.push(a);
                }
                ChurnOp::Collect { dt_us } => {
                    now += SimDuration::from_micros(dt_us);
                    prop_assert_eq!(e.take_completions(now), o.take_completions(now));
                }
                ChurnOp::RunToNext => {
                    if let Some(t) = e.next_event_time() {
                        now = t;
                    }
                    prop_assert_eq!(e.take_completions(now), o.take_completions(now));
                }
                ChurnOp::Abort { host, tag } => {
                    let a = e.abort_tasks_where(now, |_, h, t| h == host || t == tag);
                    prop_assert_eq!(a, o.abort(now, host, tag));
                }
                ChurnOp::SetCores { host, cores, dt_us } => {
                    now += SimDuration::from_micros(dt_us);
                    e.set_host_cores(now, host, cores);
                    o.advance(now);
                    o.cores[host] = cores;
                }
                ChurnOp::Fanout {
                    first,
                    count,
                    demand,
                    jitter,
                    cap,
                    tag,
                    dt_us,
                } => {
                    now += SimDuration::from_micros(dt_us);
                    for k in 0..count {
                        let host = (first + k) % CHURN_HOSTS;
                        let demand = demand + k as f64 * jitter;
                        let a = e.start_task(now, host, demand, cap, tag);
                        let b = o.start(now, host, demand, cap, tag);
                        prop_assert_eq!(a, b, "task ids diverged");
                        ids.push(a);
                    }
                }
            }
            prop_assert_eq!(e.active_task_count(), o.active.len());
            prop_assert_eq!(e.next_event_time(), o.next_event_time(), "after {:?}", op);
            for &id in &ids {
                let (a, b) = (e.rate_of(id), o.rate_of(id));
                prop_assert_eq!(a.map(f64::to_bits), b.map(f64::to_bits), "rate of {:?}", id);
            }
            let busy_e: Vec<u64> = e.busy_core_secs().iter().map(|b| b.to_bits()).collect();
            let busy_o: Vec<u64> = o.busy.iter().map(|b| b.to_bits()).collect();
            prop_assert_eq!(busy_e, busy_o, "busy core-seconds after {:?}", op);
        }
        Ok(())
    }

    proptest::proptest! {
        /// Random multi-host churn — arrivals, completions, aborts, core
        /// changes and same-instant fan-outs that tie hosts inside the
        /// depletion index's candidate window — keeps the incremental
        /// per-host lists, dirty worklist and per-host depletion keys
        /// bit-identical to the from-scratch regroup: same ids, rates,
        /// next-event instants, completion lists and busy time.
        fn incremental_refresh_matches_scratch_under_churn(ops in arb_churn()) {
            check_churn(&ops)?;
        }
    }

    #[test]
    fn long_churn_compacts_the_index_and_matches_the_oracle() {
        const HOSTS: usize = 4;
        let mut e = engine(HOSTS, 2.0);
        let mut o = Oracle::new(HOSTS, 2.0);
        let mut now = SimTime::ZERO;
        let check = |e: &mut CpuEngine, o: &mut Oracle, step: usize| {
            assert_eq!(e.next_event_time(), o.next_event_time(), "step {step}");
            assert!(
                e.depletion.len() <= 2 * e.active_task_count() + 64,
                "step {step}: {} index entries for {} tasks",
                e.depletion.len(),
                e.active_task_count()
            );
        };
        // Phase 1: speeding up host 0 again and again re-keys it to ever
        // earlier instants, so every stranded entry lies behind the live
        // top and only compaction can drop it: without compaction the
        // index would hold 500 entries.
        e.start_task(now, 0, 1e6, 16.0, 0);
        o.start(now, 0, 1e6, 16.0, 0);
        for step in 0..500 {
            now += SimDuration::from_micros(10);
            let cores = 2.0 + step as f64 * 1e-3;
            e.set_host_cores(now, 0, cores);
            o.advance(now);
            o.cores[0] = cores;
            check(&mut e, &mut o, step);
        }
        // Phase 2: deterministic mixed churn over every host.
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for step in 500..6_000 {
            let r = next();
            let host = (r >> 8) as usize % HOSTS;
            // Aborts act at the current instant, as in the proptest: an
            // abort that matches nothing leaves the cached next event in
            // place, and a later instant could pass it without a harvest.
            if r % 8 != 7 {
                now += SimDuration::from_micros((r >> 16) % 300);
            }
            match r % 8 {
                0..=2 => {
                    let demand = 0.01 + ((r >> 32) % 1000) as f64 * 1e-3;
                    let cap = [0.3, 0.7, 1.0, 2.9][(r >> 24) as usize % 4];
                    assert_eq!(
                        e.start_task(now, host, demand, cap, step as u64),
                        o.start(now, host, demand, cap, step as u64)
                    );
                }
                3 => {
                    let cores = 0.5 + ((r >> 40) % 16) as f64 / 3.0;
                    e.set_host_cores(now, host, cores);
                    o.advance(now);
                    o.cores[host] = cores;
                }
                4 | 5 => {
                    if let Some(t) = e.next_event_time() {
                        now = now.max(t);
                    }
                    assert_eq!(e.take_completions(now), o.take_completions(now));
                }
                6 => assert_eq!(e.take_completions(now), o.take_completions(now)),
                _ => {
                    let tag = (r >> 48) % 64 + 500;
                    assert_eq!(
                        e.abort_tasks_where(now, |_, _, t| t == tag),
                        o.abort(now, HOSTS, tag)
                    );
                }
            }
            assert_eq!(e.active_task_count(), o.active.len(), "step {step}");
            check(&mut e, &mut o, step);
        }
    }
}
