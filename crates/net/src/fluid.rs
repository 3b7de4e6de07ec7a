//! Fluid (rate-based) network engine.
//!
//! Tracks the set of active flows and integrates their progress between
//! events under the rates computed by [`MaxMinAllocator`]. The engine is
//! *driven* by an outer simulation loop: after any mutation (flow start,
//! completion, band change) the driver asks for [`FluidNet::next_event_time`]
//! and schedules a wake-up; on wake-up it calls [`FluidNet::take_completions`].
//!
//! Determinism: flows are iterated in creation order (the active list is
//! append-only between completions), so floating-point summation order —
//! and therefore results — are stable across runs.
//!
//! Rate refreshes are incremental: every mutation records the hosts it
//! touched, and the next refresh re-solves only the connected components
//! of the flow graph containing a touched host (see
//! [`MaxMinAllocator::allocate_dirty_into`]). The result is bit-identical
//! to a from-scratch allocation.
//!
//! Next-event queries are indexed rather than scanned: every rate change
//! re-keys the flow's slot in a [`DepletionIndex`], and
//! [`FluidNet::next_event_time`] recomputes `remaining / rate` only for the
//! flows near the index's top instead of across the whole active set. The
//! returned instant is bit-identical to the full scan.
//!
//! ```
//! use simcore::SimTime;
//! use tl_net::{Band, Bandwidth, FlowSpec, FluidNet, HostId, Topology};
//!
//! let mut net = FluidNet::new(Topology::uniform(2, Bandwidth::from_gbps(10.0)));
//! net.start_flow(SimTime::ZERO, FlowSpec {
//!     src: HostId(0),
//!     dst: HostId(1),
//!     bytes: 1.25e9, // exactly one second at 10 Gbps
//!     band: Band(0),
//!     weight: 1.0,
//!     tag: 0,
//! });
//! let done_at = net.next_event_time().unwrap();
//! assert!((done_at.as_secs_f64() - 1.0).abs() < 1e-6);
//! assert_eq!(net.take_completions(done_at).len(), 1);
//! ```

use crate::maxmin::{AllocStats, FlowDemand, MaxMinAllocator};
use crate::topology::Topology;
use crate::types::{Band, Bandwidth, FlowId, HostId};
use simcore::{crossing, DepletionIndex, DirtySet, InvariantChecker, Profiler, SimTime};
use tl_telemetry::{ShareChangeCause, SimEvent, Telemetry};

/// Everything needed to start a flow.
#[derive(Debug, Clone, Copy)]
pub struct FlowSpec {
    /// Sending host.
    pub src: HostId,
    /// Receiving host.
    pub dst: HostId,
    /// Transfer size in bytes.
    pub bytes: f64,
    /// Strict-priority band at the sender NIC.
    pub band: Band,
    /// Fair-share weight within the band (models TCP unfairness).
    pub weight: f64,
    /// Caller-defined grouping tag (we use the owning job's id), used for
    /// band reassignment on TLs-RR rotations.
    pub tag: u64,
}

/// A finished transfer, reported once by [`FluidNet::take_completions`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompletedFlow {
    /// The flow's id.
    pub id: FlowId,
    /// The caller-defined tag from the spec.
    pub tag: u64,
    /// Sending host.
    pub src: HostId,
    /// Receiving host.
    pub dst: HostId,
    /// When the flow was started.
    pub started: SimTime,
    /// When the last byte was delivered.
    pub finished: SimTime,
    /// Total bytes transferred.
    pub bytes: f64,
}

#[derive(Debug)]
struct FlowState {
    spec: FlowSpec,
    remaining: f64,
    rate: f64,
    max_rate: f64,
    started: SimTime,
}

/// One slab slot. The generation is baked into the [`FlowId`] handed out,
/// so a stale id for a reused slot never resolves.
#[derive(Debug)]
struct SlotEntry {
    gen: u32,
    state: Option<FlowState>,
}

fn slot_of(id: u64) -> usize {
    (id & 0xFFFF_FFFF) as usize
}

/// Retire a slot generation on recycle. Checked: a wrapped generation
/// would let a FlowId issued 2^32 reuses ago resolve to an unrelated
/// flow, so overflow fails loudly instead.
fn bump_gen(gen: u32) -> u32 {
    gen.checked_add(1)
        .expect("flow slot generation counter overflow — stale FlowIds would alias")
}

fn make_id(gen: u32, slot: usize) -> u64 {
    // The id packs the slot into the low 32 bits; a slot index beyond that
    // would silently alias an existing FlowId. Slot allocation refuses to
    // grow past the boundary (see `start_flow_with_cap`), so this assert
    // is a backstop against future call sites bypassing that check.
    assert!(
        slot <= u32::MAX as usize,
        "flow slot {slot} does not fit the 32-bit id field"
    );
    ((gen as u64) << 32) | slot as u64
}

/// Bytes below which a flow counts as complete. Event times have nanosecond
/// resolution, so a flow can be short of completion by up to
/// `rate × 1 ns` bytes (≈ 50 bytes at the 400 Gbps loopback rate); 64 bytes
/// of slack absorbs that without ever mattering at MB-scale transfers.
const DONE_EPS: f64 = 64.0;
/// Rates below this (bytes/sec) are treated as fully starved.
const RATE_EPS: f64 = 1e-6;

/// The fluid network: active flows, their rates, and byte accounting.
#[derive(Debug)]
pub struct FluidNet {
    topo: Topology,
    /// Generational slab of flow state; completed slots go on the free list
    /// and a bumped generation invalidates outstanding ids.
    flows: Vec<SlotEntry>,
    free: Vec<u32>,
    /// Active slot indices in creation order (completions are removed with
    /// `retain`, preserving order → deterministic iteration).
    active: Vec<u32>,
    last_advance: SimTime,
    /// Hosts whose attached flow set or bands changed since the last rate
    /// refresh; the allocator re-solves only their components.
    dirty: DirtySet,
    /// Cached `next_event_time` result; cleared on any mutation.
    next_cache: Option<Option<SimTime>>,
    /// Flows harvested by `advance` at their exact depletion instant,
    /// buffered until the next `take_completions` call.
    pending_done: Vec<CompletedFlow>,
    allocator: MaxMinAllocator,
    // Persistent allocator inputs maintained in lock-step with `active`
    // (same order): `demands[k]`/`rates[k]` describe the flow in slot
    // `active[k]`. Starts append, completions/aborts compact in place, and
    // band changes patch `demands[k].band` — so a refresh hands the
    // allocator ready-made vectors instead of rebuilding them per call.
    demands: Vec<FlowDemand>,
    rates: Vec<f64>,
    // True when `active`'s membership or order changed since the last
    // refresh; while false, the allocator may reuse its cached component
    // structure (band/weight/capacity changes don't alter connectivity).
    structure_dirty: bool,
    // Depletion instants keyed by flow slot, one live entry per flow with
    // a meaningful rate.
    depletion: DepletionIndex,
    // Cumulative NIC byte counters (for utilization measurements).
    egress_bytes: Vec<f64>,
    ingress_bytes: Vec<f64>,
    // Cumulative per-fabric-link byte counters (leaf–spine telemetry).
    fabric_bytes: Vec<f64>,
    /// Structured event sink; disabled by default (near-free emits).
    telemetry: Telemetry,
    /// Runtime invariant checks on every rate refresh; disabled by default.
    invariants: InvariantChecker,
    /// Cause attached to the next emitted share changes: the last
    /// mutation that dirtied the allocation. Refreshes are lazy, so by
    /// the time one runs, the most recent mutation is the cause; every
    /// mutation entry point advances (flushing pending dirtiness under
    /// the *old* cause) before overwriting this, so attribution is
    /// deterministic.
    pending_cause: ShareChangeCause,
    /// Self-profiling handle (wall-times allocator solves); disabled by
    /// default.
    profiler: Profiler,
}

impl FluidNet {
    /// Create an engine over `topo` with no active flows.
    pub fn new(topo: Topology) -> Self {
        let n = topo.num_hosts();
        let nf = topo.num_fabric_links();
        FluidNet {
            topo,
            flows: Vec::new(),
            free: Vec::new(),
            active: Vec::new(),
            last_advance: SimTime::ZERO,
            dirty: DirtySet::new(n),
            next_cache: None,
            pending_done: Vec::new(),
            allocator: MaxMinAllocator::new(),
            demands: Vec::new(),
            rates: Vec::new(),
            structure_dirty: false,
            depletion: DepletionIndex::new(),
            egress_bytes: vec![0.0; n],
            ingress_bytes: vec![0.0; n],
            fabric_bytes: vec![0.0; nf],
            telemetry: Telemetry::disabled(),
            invariants: InvariantChecker::disabled(),
            pending_cause: ShareChangeCause::NewCompetitor,
            profiler: Profiler::disabled(),
        }
    }

    /// Attach a telemetry handle; the engine emits flow lifecycle, band
    /// rotation, and allocator re-solve events through it.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Attach an invariant checker: every rate refresh then validates NIC
    /// capacity conservation and strict-priority band ordering. Costs
    /// nothing when the checker is disabled.
    pub fn set_invariants(&mut self, invariants: InvariantChecker) {
        self.invariants = invariants;
    }

    /// Attach a self-profiling handle; every allocator solve is then
    /// wall-timed under the `alloc.solve` slot. Costs one branch per
    /// refresh when the profiler is disabled.
    pub fn set_profiler(&mut self, profiler: Profiler) {
        self.profiler = profiler;
    }

    /// The topology this engine runs over.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Number of currently active flows.
    pub fn active_flow_count(&self) -> usize {
        self.active.len()
    }

    /// Cumulative allocator performance counters (invocations, solved vs
    /// retained components, rounds, flows touched, wall time).
    pub fn alloc_stats(&self) -> AllocStats {
        self.allocator.stats()
    }

    fn get(&self, id: FlowId) -> Option<&FlowState> {
        let slot = slot_of(id.0);
        self.flows.get(slot).and_then(|e| {
            if make_id(e.gen, slot) == id.0 {
                e.state.as_ref()
            } else {
                None
            }
        })
    }

    fn state(&self, slot: u32) -> &FlowState {
        self.flows[slot as usize]
            .state
            .as_ref()
            .expect("active flow missing")
    }

    fn mark_dirty(&mut self, host: HostId) {
        self.dirty.mark(host.0 as usize);
        self.next_cache = None;
    }

    /// Current rate of a flow in bytes/sec (None if unknown/completed).
    /// Refreshes rates if stale.
    pub fn rate_of(&mut self, id: FlowId) -> Option<f64> {
        self.refresh_rates();
        self.get(id).map(|f| f.rate)
    }

    /// Remaining bytes of a flow (None if unknown/completed).
    pub fn remaining_of(&self, id: FlowId) -> Option<f64> {
        self.get(id).map(|f| f.remaining)
    }

    /// Cumulative egress bytes per host since engine creation.
    pub fn egress_bytes(&self) -> &[f64] {
        &self.egress_bytes
    }

    /// Cumulative ingress bytes per host since engine creation.
    pub fn ingress_bytes(&self) -> &[f64] {
        &self.ingress_bytes
    }

    /// Cumulative bytes carried per fabric link since engine creation
    /// (indexed by [`crate::LinkId`]; empty on non-blocking fabrics).
    pub fn fabric_bytes(&self) -> &[f64] {
        &self.fabric_bytes
    }

    /// Start a flow at time `now`. Progress of existing flows is integrated
    /// up to `now` first; rates are then recomputed lazily.
    pub fn start_flow(&mut self, now: SimTime, spec: FlowSpec) -> FlowId {
        self.start_flow_with_cap(now, spec, f64::INFINITY)
    }

    /// Start a flow whose rate the sender additionally limits to
    /// `max_rate` bytes/sec — the §VII "explicit rate allocation"
    /// alternative to work-conserving priority.
    pub fn start_flow_with_cap(&mut self, now: SimTime, spec: FlowSpec, max_rate: f64) -> FlowId {
        assert!(spec.bytes > 0.0 && spec.bytes.is_finite(), "invalid size");
        assert!(max_rate > 0.0, "rate cap must be positive");
        assert!(
            self.topo.contains(spec.src) && self.topo.contains(spec.dst),
            "flow endpoints outside topology"
        );
        self.advance(now);
        let state = FlowState {
            spec,
            remaining: spec.bytes,
            rate: 0.0,
            max_rate,
            started: now,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.flows[slot as usize].state = Some(state);
                slot
            }
            None => {
                // FlowIds carry the slot in their low 32 bits; one more
                // slot than fits would alias slot 0's ids. 4 billion
                // *concurrent* flows is far beyond a 10k-host run, but
                // fail loudly rather than hand out colliding ids.
                assert!(
                    self.flows.len() <= u32::MAX as usize,
                    "flow slot space exhausted: {} concurrent flows", self.flows.len()
                );
                self.flows.push(SlotEntry {
                    gen: 0,
                    state: Some(state),
                });
                (self.flows.len() - 1) as u32
            }
        };
        self.active.push(slot);
        self.demands.push(FlowDemand {
            src: spec.src,
            dst: spec.dst,
            band: spec.band,
            weight: spec.weight,
            max_rate,
        });
        self.rates.push(0.0);
        self.depletion.reserve_keys(self.flows.len());
        self.structure_dirty = true;
        self.mark_dirty(spec.src);
        self.mark_dirty(spec.dst);
        self.pending_cause = ShareChangeCause::NewCompetitor;
        let id = FlowId(make_id(self.flows[slot as usize].gen, slot as usize));
        self.telemetry.emit_with(now, || SimEvent::FlowStart {
            flow: id.0,
            tag: spec.tag,
            src: spec.src.0,
            dst: spec.dst.0,
            bytes: spec.bytes,
            band: spec.band.0,
        });
        id
    }

    /// Change host `h`'s NIC capacity (both directions) at time `now`.
    /// Progress under the old rates is integrated up to `now` first, then
    /// the host's whole flow component is re-solved — in-flight flows see
    /// the new capacity immediately. This is the fault layer's NIC
    /// degradation / link-flap primitive.
    pub fn set_host_capacity(
        &mut self,
        now: SimTime,
        h: HostId,
        egress: Bandwidth,
        ingress: Bandwidth,
    ) {
        assert!(self.topo.contains(h), "host outside topology");
        self.advance(now);
        self.topo.set_host_capacity(h, egress, ingress);
        self.mark_dirty(h);
        self.pending_cause = ShareChangeCause::Fault;
    }

    /// Abort every active flow for which `pred` holds (e.g. all flows
    /// touching a crashed host), returning the aborted flows' ids and
    /// tags in creation order. Aborted flows vanish without a
    /// `FlowFinish` event — the bytes were lost, not delivered; their
    /// slots are recycled and stale ids no longer resolve.
    pub fn abort_flows_where(
        &mut self,
        now: SimTime,
        mut pred: impl FnMut(FlowId, &FlowSpec) -> bool,
    ) -> Vec<(FlowId, u64)> {
        self.advance(now);
        let mut aborted = Vec::new();
        // In-place compaction keeps `active`/`demands`/`rates` in lock-step
        // and preserves creation order for the survivors.
        let mut w = 0usize;
        for r in 0..self.active.len() {
            let slot = self.active[r];
            let entry = &mut self.flows[slot as usize];
            let id = FlowId(make_id(entry.gen, slot as usize));
            let spec = entry.state.as_ref().expect("active flow missing").spec;
            if pred(id, &spec) {
                entry.state = None;
                entry.gen = bump_gen(entry.gen);
                self.free.push(slot);
                self.dirty.mark(spec.src.0 as usize);
                self.dirty.mark(spec.dst.0 as usize);
                self.depletion.invalidate(slot);
                aborted.push((id, spec.tag));
            } else {
                self.active[w] = slot;
                self.demands[w] = self.demands[r];
                self.rates[w] = self.rates[r];
                w += 1;
            }
        }
        if !aborted.is_empty() {
            self.active.truncate(w);
            self.demands.truncate(w);
            self.rates.truncate(w);
            self.structure_dirty = true;
            self.next_cache = None;
            self.pending_cause = ShareChangeCause::Fault;
        }
        aborted
    }

    /// Reassign the band of every active flow with the given tag.
    /// Returns the number of flows affected. Used on TLs-RR rotations and
    /// TLs-One (re)configuration at job arrival/departure.
    pub fn set_band_for_tag(&mut self, now: SimTime, tag: u64, band: Band) -> usize {
        self.advance(now);
        let mut changed = 0;
        let mut any = false;
        for k in 0..self.active.len() {
            let slot = self.active[k] as usize;
            let f = self.flows[slot]
                .state
                .as_mut()
                .expect("active flow missing");
            if f.spec.tag == tag && f.spec.band != band {
                f.spec.band = band;
                self.demands[k].band = band;
                changed += 1;
                // Bands are egress-scoped; marking the sender dirties the
                // flow's whole component.
                let src = f.spec.src;
                self.dirty.mark(src.0 as usize);
                any = true;
            }
        }
        if any {
            self.next_cache = None;
            self.pending_cause = ShareChangeCause::Rotation;
            self.telemetry.emit_with(now, || SimEvent::PriorityRotation {
                tag,
                band: band.0,
                flows: changed as u32,
            });
        }
        changed
    }

    /// Integrate flow progress from the last advance point to `now`.
    ///
    /// The interval is stepped piecewise through every depletion crossing
    /// inside it: a flow that runs dry mid-interval is stamped finished at
    /// its exact crossing instant (buffered until the next
    /// [`FluidNet::take_completions`]) and its capacity is redistributed
    /// to the surviving flows for the remainder of the interval. A caller
    /// may therefore jump arbitrarily far — e.g. a fault injected long
    /// after the last scheduled event — without skewing completion
    /// timestamps or byte accounting. Idempotent for equal `now`.
    pub fn advance(&mut self, now: SimTime) {
        assert!(
            now >= self.last_advance,
            "fluid engine cannot move backwards: {now} < {}",
            self.last_advance
        );
        // Same-instant re-entry is a no-op: depletion crossings are pushed
        // with a +1 ns round-up, so every live crossing is strictly later
        // than the advance point that produced it — the loop body below
        // could never run, and zero-length integration moves no bytes.
        // Returning here lets a burst of same-timestamp mutations (e.g. a
        // PS fanning out 20 model updates at one instant) defer the rate
        // refresh until something actually observes rates, so one solve
        // serves the whole batch.
        if now == self.last_advance {
            return;
        }
        while let Some(t) = self.next_event_time() {
            if t > now {
                break;
            }
            self.integrate_to(t);
            self.harvest_completions(t);
        }
        self.integrate_to(now);
    }

    /// Single-segment integration under the current (constant) rates.
    fn integrate_to(&mut self, now: SimTime) {
        if now == self.last_advance {
            return;
        }
        self.refresh_rates();
        let dt = now.since(self.last_advance).as_secs_f64();
        for &slot in &self.active {
            let f = self.flows[slot as usize]
                .state
                .as_mut()
                .expect("active flow missing");
            if f.rate > RATE_EPS {
                let moved = (f.rate * dt).min(f.remaining);
                f.remaining -= moved;
                if f.spec.src != f.spec.dst {
                    self.egress_bytes[f.spec.src.0 as usize] += moved;
                    self.ingress_bytes[f.spec.dst.0 as usize] += moved;
                    for l in self.topo.route(f.spec.src, f.spec.dst).into_iter().flatten() {
                        self.fabric_bytes[l.0 as usize] += moved;
                    }
                }
            }
        }
        self.last_advance = now;
    }

    /// Move every flow at or below the completion threshold out of the
    /// active set, stamped finished at `at`, into the pending buffer.
    fn harvest_completions(&mut self, at: SimTime) {
        let before = self.pending_done.len();
        // In-place compaction keeps `active`/`demands`/`rates` in lock-step
        // and preserves creation order for the survivors (order is
        // load-bearing: it fixes the allocator's fp summation order).
        let mut w = 0usize;
        for r in 0..self.active.len() {
            let slot = self.active[r];
            let entry = &mut self.flows[slot as usize];
            let remaining = entry.state.as_ref().expect("active flow missing").remaining;
            if remaining <= DONE_EPS {
                let f = entry.state.take().expect("flow vanished");
                let id = FlowId(make_id(entry.gen, slot as usize));
                entry.gen = bump_gen(entry.gen);
                self.pending_done.push(CompletedFlow {
                    id,
                    tag: f.spec.tag,
                    src: f.spec.src,
                    dst: f.spec.dst,
                    started: f.started,
                    finished: at,
                    bytes: f.spec.bytes,
                });
                self.dirty.mark(f.spec.src.0 as usize);
                self.dirty.mark(f.spec.dst.0 as usize);
                self.free.push(slot);
                self.depletion.invalidate(slot);
            } else {
                self.active[w] = slot;
                self.demands[w] = self.demands[r];
                self.rates[w] = self.rates[r];
                w += 1;
            }
        }
        if self.pending_done.len() == before {
            return;
        }
        self.active.truncate(w);
        self.demands.truncate(w);
        self.rates.truncate(w);
        self.structure_dirty = true;
        self.next_cache = None;
        self.pending_cause = ShareChangeCause::CompetitorFinished;
        if self.telemetry.is_enabled() {
            for d in &self.pending_done[before..] {
                self.telemetry.emit(
                    at,
                    SimEvent::FlowFinish {
                        flow: d.id.0,
                        tag: d.tag,
                        src: d.src.0,
                        dst: d.dst.0,
                        bytes: d.bytes,
                        started: d.started,
                    },
                );
            }
        }
    }

    /// The earliest time at which some flow completes under current rates,
    /// if any flow is making progress.
    ///
    /// The result is cached: while no mutation dirties a host, rates — and
    /// thus the absolute completion time — are unchanged, so repeated calls
    /// (one per simulator event) cost nothing. A cache miss consults the
    /// depletion index instead of scanning the active set; the instant is
    /// bit-identical to the full scan `min over active of
    /// crossing(last_advance, remaining / rate)`.
    pub fn next_event_time(&mut self) -> Option<SimTime> {
        if let Some(cached) = self.next_cache {
            return cached;
        }
        self.refresh_rates();
        // Both `remaining` and `rate` hold as of `last_advance`, as in the
        // full scan.
        let flows = &self.flows;
        let best = self.depletion.min_exact(|slot| {
            let f = flows[slot as usize]
                .state
                .as_ref()
                .expect("active flow missing");
            debug_assert!(f.rate > RATE_EPS, "live entry for a starved flow");
            (f.remaining / f.rate).max(0.0)
        });
        let when = best.map(|secs| crossing(self.last_advance, secs));
        self.next_cache = Some(when);
        when
    }

    /// Advance to `now` and drain all flows that have finished by then,
    /// ordered by completion time, then creation. A flow whose bytes
    /// depleted strictly before `now` carries its exact depletion instant
    /// as `finished`, not the harvest time.
    pub fn take_completions(&mut self, now: SimTime) -> Vec<CompletedFlow> {
        self.advance(now);
        self.harvest_completions(now);
        std::mem::take(&mut self.pending_done)
    }

    fn refresh_rates(&mut self) {
        if self.dirty.is_empty() {
            return;
        }
        debug_assert_eq!(self.demands.len(), self.active.len());
        debug_assert_eq!(self.rates.len(), self.active.len());
        let events_on = self.telemetry.is_enabled();
        let stats_before = events_on.then(|| self.allocator.stats());
        // `demands`/`rates` are maintained incrementally (see the field
        // docs), so nothing is rebuilt here; `rates` seeds the allocator
        // with the previous allocation, kept verbatim for clean components.
        let solve_timer = self.profiler.start();
        self.allocator.allocate_dirty_reuse(
            &self.topo,
            &self.demands,
            self.dirty.as_slice(),
            &mut self.rates,
            !self.structure_dirty,
        );
        self.profiler.stop("alloc.solve", solve_timer);
        self.structure_dirty = false;
        if let Some(before) = stats_before {
            let after = self.allocator.stats();
            self.telemetry.emit(
                self.last_advance,
                SimEvent::AllocSolve {
                    components_solved: after.components_solved - before.components_solved,
                    components_retained: after.components_retained - before.components_retained,
                    rounds: after.rounds - before.rounds,
                    flows_touched: after.flows_touched - before.flows_touched,
                },
            );
        }
        // Write-back visits only the flows the allocator re-solved
        // (ascending order = active order, so telemetry emission order is
        // identical to a full sweep); everything else kept its rate
        // bit-for-bit and its depletion entry stays live.
        for idx in 0..self.allocator.last_touched().len() {
            let k = self.allocator.last_touched()[idx] as usize;
            let slot = self.active[k] as usize;
            let new_rate = self.rates[k];
            let gen = self.flows[slot].gen;
            let (old_rate, remaining, tag) = {
                let f = self.flows[slot]
                    .state
                    .as_mut()
                    .expect("active flow missing");
                let prev = (f.rate, f.remaining, f.spec.tag);
                f.rate = new_rate;
                prev
            };
            if events_on && (old_rate - new_rate).abs() > RATE_EPS {
                self.telemetry.emit(
                    self.last_advance,
                    SimEvent::FlowShareChange {
                        flow: make_id(gen, slot),
                        tag,
                        rate: new_rate,
                        cause: self.pending_cause,
                    },
                );
            }
            if old_rate != new_rate {
                // Re-key the depletion index: strand the old entry and, if
                // the flow is actually moving, push the new crossing.
                self.depletion.invalidate(slot as u32);
                if new_rate > RATE_EPS {
                    let secs = (remaining / new_rate).max(0.0);
                    self.depletion
                        .push(slot as u32, crossing(self.last_advance, secs));
                }
            }
        }
        // Stranded entries accumulate across rotations; each active flow
        // holds at most one live entry.
        self.depletion.compact(self.active.len());
        self.dirty.clear();
        if self.invariants.is_enabled() {
            self.check_allocation();
        }
    }

    /// Validate the freshly computed allocation (only runs when an enabled
    /// [`InvariantChecker`] is attached):
    ///
    /// * **`net.capacity`** — per-host egress and ingress rate sums of
    ///   non-loopback flows never exceed the NIC capacity, and the
    ///   aggregate never exceeds a configured fabric core.
    /// * **`net.link_capacity`** — the rate sum routed over each fabric
    ///   link (rack uplink/downlink) never exceeds that link's capacity.
    /// * **`net.band_order`** — strict priority: an uncapped flow can only
    ///   be starved while a *lower*-priority flow shares its egress if
    ///   something else explains the starvation (its destination ingress,
    ///   a fabric link on its route, or the fabric core is saturated).
    fn check_allocation(&mut self) {
        let at = self.last_advance;
        let n = self.topo.num_hosts();
        let nf = self.topo.num_fabric_links();
        let mut egress_sum = vec![0.0; n];
        let mut ingress_sum = vec![0.0; n];
        let mut fabric_sum = vec![0.0; nf];
        let mut total = 0.0;
        for &slot in &self.active {
            let f = self.state(slot);
            if f.spec.src == f.spec.dst {
                continue;
            }
            egress_sum[f.spec.src.0 as usize] += f.rate;
            ingress_sum[f.spec.dst.0 as usize] += f.rate;
            for l in self.topo.route(f.spec.src, f.spec.dst).into_iter().flatten() {
                fabric_sum[l.0 as usize] += f.rate;
            }
            total += f.rate;
        }
        // Relative slack for float summation error; a real bug overshoots
        // by a whole fair share, many orders of magnitude larger.
        const REL: f64 = 1e-6;
        for h in 0..n {
            let host = HostId(h as u32);
            let e_cap = self.topo.egress(host).bytes_per_sec();
            let i_cap = self.topo.ingress(host).bytes_per_sec();
            self.invariants.check(
                at,
                "net.capacity",
                || egress_sum[h] <= e_cap * (1.0 + REL),
                || format!("host {h} egress {} B/s > cap {e_cap} B/s", egress_sum[h]),
            );
            self.invariants.check(
                at,
                "net.capacity",
                || ingress_sum[h] <= i_cap * (1.0 + REL),
                || format!("host {h} ingress {} B/s > cap {i_cap} B/s", ingress_sum[h]),
            );
        }
        for l in self.topo.fabric_links() {
            let cap = self.topo.fabric_capacity(l).bytes_per_sec();
            let sum = fabric_sum[l.0 as usize];
            let label = self.topo.fabric_label(l);
            self.invariants.check(
                at,
                "net.link_capacity",
                || sum <= cap * (1.0 + REL),
                || format!("fabric link {label} carries {sum} B/s > cap {cap} B/s"),
            );
        }
        if let Some(core) = self.topo.core_capacity() {
            let core = core.bytes_per_sec();
            self.invariants.check(
                at,
                "net.capacity",
                || total <= core * (1.0 + REL),
                || format!("aggregate {total} B/s > fabric core {core} B/s"),
            );
        }
        let core_saturated = self
            .topo
            .core_capacity()
            .is_some_and(|c| total >= c.bytes_per_sec() * (1.0 - REL));
        for &slot in &self.active {
            let f = self.state(slot);
            if f.spec.src == f.spec.dst || f.rate >= RATE_EPS || f.max_rate.is_finite() {
                continue;
            }
            // `f` is an uncapped, fully starved flow. Under strict egress
            // priority that is only legitimate if every same-egress flow
            // still running has equal or higher priority, or `f` is
            // blocked elsewhere (saturated destination ingress / core).
            let preempted_by_lower = self.active.iter().any(|&other| {
                let g = self.state(other);
                other != slot
                    && g.spec.src == f.spec.src
                    && g.spec.dst != g.spec.src
                    && g.spec.band > f.spec.band
                    && g.rate >= RATE_EPS
            });
            if preempted_by_lower {
                let dst = f.spec.dst.0 as usize;
                let i_cap = self.topo.ingress(f.spec.dst).bytes_per_sec();
                let fabric_saturated = self
                    .topo
                    .route(f.spec.src, f.spec.dst)
                    .into_iter()
                    .flatten()
                    .any(|l| {
                        fabric_sum[l.0 as usize]
                            >= self.topo.fabric_capacity(l).bytes_per_sec() * (1.0 - REL)
                    });
                let explained =
                    ingress_sum[dst] >= i_cap * (1.0 - REL) || core_saturated || fabric_saturated;
                if !explained {
                    let (src, dst_h, band) = (f.spec.src.0, f.spec.dst.0, f.spec.band.0);
                    self.invariants.violation(at, "net.band_order", || {
                        format!(
                            "flow in band {band} at host {src} starved while a \
                             lower-priority flow sends, yet ingress {dst_h} has headroom"
                        )
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Bandwidth;

    fn topo(hosts: usize) -> Topology {
        Topology::uniform(hosts, Bandwidth::from_gbps(10.0))
    }

    fn spec(src: u32, dst: u32, bytes: f64, band: u8, tag: u64) -> FlowSpec {
        FlowSpec {
            src: HostId(src),
            dst: HostId(dst),
            bytes,
            band: Band(band),
            weight: 1.0,
            tag,
        }
    }

    #[test]
    fn invariants_clean_under_contention() {
        // Shared egress, three bands, a mid-run rotation and a capacity
        // change: the allocator must never violate capacity conservation
        // or strict-priority ordering.
        let inv = InvariantChecker::enabled();
        let mut net = FluidNet::new(topo(4));
        net.set_invariants(inv.clone());
        for k in 0..6u32 {
            net.start_flow(SimTime::ZERO, spec(0, 1 + k % 3, 200e6, (k % 3) as u8, k as u64));
        }
        let t = SimTime::from_millis(50);
        net.set_band_for_tag(t, 0, Band(2));
        net.set_host_capacity(t, HostId(1), Bandwidth::from_gbps(5.0), Bandwidth::from_gbps(5.0));
        let mut done = 0;
        while let Some(t) = net.next_event_time() {
            done += net.take_completions(t).len();
        }
        assert_eq!(done, 6);
        assert_eq!(inv.violation_count(), 0, "{:?}", inv.take());
    }

    #[test]
    fn single_flow_completes_on_schedule() {
        let mut net = FluidNet::new(topo(2));
        // 1.25 GB at 10 Gbps = 1 second.
        let id = net.start_flow(SimTime::ZERO, spec(0, 1, 1.25e9, 0, 7));
        let t = net.next_event_time().unwrap();
        assert!((t.as_secs_f64() - 1.0).abs() < 1e-6);
        let done = net.take_completions(t);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, id);
        assert_eq!(done[0].tag, 7);
        assert_eq!(done[0].finished, t);
        assert_eq!(net.active_flow_count(), 0);
    }

    #[test]
    fn two_flows_share_then_speed_up() {
        let mut net = FluidNet::new(topo(3));
        // Both leave host 0; equal shares of 1.25 GB/s.
        net.start_flow(SimTime::ZERO, spec(0, 1, 1.25e9, 0, 1));
        net.start_flow(SimTime::ZERO, spec(0, 2, 0.625e9, 0, 2));
        // Flow 2 (half the bytes) finishes first at t=1s (rate = LINK/2).
        let t1 = net.next_event_time().unwrap();
        assert!((t1.as_secs_f64() - 1.0).abs() < 1e-6);
        let done = net.take_completions(t1);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].tag, 2);
        // Flow 1 has 0.625e9 left, now at full rate: 0.5s more.
        let t2 = net.next_event_time().unwrap();
        assert!((t2.as_secs_f64() - 1.5).abs() < 1e-6);
        let done = net.take_completions(t2);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].tag, 1);
    }

    #[test]
    fn priority_starves_then_releases() {
        let mut net = FluidNet::new(topo(3));
        net.start_flow(SimTime::ZERO, spec(0, 1, 1.25e9, 0, 1)); // high
        net.start_flow(SimTime::ZERO, spec(0, 2, 1.25e9, 1, 2)); // low
        let t1 = net.next_event_time().unwrap();
        assert!((t1.as_secs_f64() - 1.0).abs() < 1e-6);
        let done = net.take_completions(t1);
        assert_eq!(done[0].tag, 1, "high band first");
        // The starved flow has all bytes left; finishes 1s later.
        let t2 = net.next_event_time().unwrap();
        let low = net.take_completions(t2);
        assert!((low[0].finished.as_secs_f64() - 2.0).abs() < 1e-6);
        assert_eq!(
            low[0].started,
            SimTime::ZERO,
            "start time is arrival, not first service"
        );
    }

    #[test]
    fn fifo_vs_priority_total_time_identical() {
        // The paper's Figure 4(b) vs 4(c): under FIFO both jobs finish at T;
        // under priority job 1 finishes at T/2 and job 2 still at T.
        let bytes = 1.25e9;
        // FIFO
        let mut fifo = FluidNet::new(topo(3));
        fifo.start_flow(SimTime::ZERO, spec(0, 1, bytes, 0, 1));
        fifo.start_flow(SimTime::ZERO, spec(0, 2, bytes, 0, 2));
        let mut fifo_done = vec![];
        while let Some(t) = fifo.next_event_time() {
            fifo_done.extend(fifo.take_completions(t));
        }
        // Priority
        let mut prio = FluidNet::new(topo(3));
        prio.start_flow(SimTime::ZERO, spec(0, 1, bytes, 0, 1));
        prio.start_flow(SimTime::ZERO, spec(0, 2, bytes, 1, 2));
        let mut prio_done = vec![];
        while let Some(t) = prio.next_event_time() {
            prio_done.extend(prio.take_completions(t));
        }
        let fifo_last = fifo_done.iter().map(|d| d.finished).max().unwrap();
        let prio_last = prio_done.iter().map(|d| d.finished).max().unwrap();
        assert!((fifo_last.as_secs_f64() - prio_last.as_secs_f64()).abs() < 1e-6);
        let prio_first = prio_done.iter().map(|d| d.finished).min().unwrap();
        let fifo_first = fifo_done.iter().map(|d| d.finished).min().unwrap();
        assert!(
            prio_first.as_secs_f64() < fifo_first.as_secs_f64() - 0.4,
            "priority finishes its first job much earlier"
        );
    }

    #[test]
    fn band_rotation_switches_winner() {
        let mut net = FluidNet::new(topo(3));
        net.start_flow(SimTime::ZERO, spec(0, 1, 2.5e9, 0, 1)); // 2s alone
        net.start_flow(SimTime::ZERO, spec(0, 2, 2.5e9, 1, 2));
        // Rotate at t=1s: tag 1 -> band 1, tag 2 -> band 0.
        let t_rot = SimTime::from_secs(1);
        net.advance(t_rot);
        net.set_band_for_tag(t_rot, 1, Band(1));
        net.set_band_for_tag(t_rot, 2, Band(0));
        // Tag 2 now runs at full rate with all 2.5e9 left: completes at t=3.
        let t = net.next_event_time().unwrap();
        let done = net.take_completions(t);
        assert_eq!(done[0].tag, 2);
        assert!((t.as_secs_f64() - 3.0).abs() < 1e-6);
        // Tag 1 had 1.25e9 left; completes at t=4.
        let t = net.next_event_time().unwrap();
        let done = net.take_completions(t);
        assert_eq!(done[0].tag, 1);
        assert!((t.as_secs_f64() - 4.0).abs() < 1e-6);
    }

    #[test]
    fn set_band_counts_changes() {
        let mut net = FluidNet::new(topo(3));
        net.start_flow(SimTime::ZERO, spec(0, 1, 1e9, 0, 5));
        net.start_flow(SimTime::ZERO, spec(0, 2, 1e9, 0, 5));
        net.start_flow(SimTime::ZERO, spec(0, 2, 1e9, 0, 6));
        assert_eq!(net.set_band_for_tag(SimTime::ZERO, 5, Band(2)), 2);
        assert_eq!(
            net.set_band_for_tag(SimTime::ZERO, 5, Band(2)),
            0,
            "idempotent"
        );
    }

    #[test]
    fn byte_accounting_matches_transfers() {
        let mut net = FluidNet::new(topo(3));
        net.start_flow(SimTime::ZERO, spec(0, 1, 1.0e9, 0, 1));
        net.start_flow(SimTime::ZERO, spec(2, 1, 0.5e9, 0, 2));
        while let Some(t) = net.next_event_time() {
            net.take_completions(t);
        }
        assert!((net.egress_bytes()[0] - 1.0e9).abs() < 1.0);
        assert!((net.egress_bytes()[2] - 0.5e9).abs() < 1.0);
        assert!((net.ingress_bytes()[1] - 1.5e9).abs() < 1.0);
        assert_eq!(net.egress_bytes()[1], 0.0);
    }

    #[test]
    fn loopback_flows_complete_and_skip_counters() {
        let mut net = FluidNet::new(topo(2));
        net.start_flow(SimTime::ZERO, spec(0, 0, 1e9, 0, 1));
        let t = net.next_event_time().unwrap();
        let done = net.take_completions(t);
        assert_eq!(done.len(), 1);
        assert!(t.as_secs_f64() < 0.1, "loopback is fast");
        assert_eq!(net.egress_bytes()[0], 0.0);
        assert_eq!(net.ingress_bytes()[0], 0.0);
    }

    #[test]
    fn weights_skew_completion_order() {
        let mut net = FluidNet::new(topo(3));
        let mut s1 = spec(0, 1, 1.25e9, 0, 1);
        s1.weight = 3.0;
        let mut s2 = spec(0, 2, 1.25e9, 0, 2);
        s2.weight = 1.0;
        net.start_flow(SimTime::ZERO, s1);
        net.start_flow(SimTime::ZERO, s2);
        let t = net.next_event_time().unwrap();
        let done = net.take_completions(t);
        assert_eq!(done[0].tag, 1, "heavier flow finishes first");
        // Heavy flow at 3/4 link: 1.25e9 / (0.75 * 1.25e9) = 4/3 s.
        assert!((t.as_secs_f64() - 4.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn next_event_none_when_idle_or_starved_only() {
        let mut net = FluidNet::new(topo(2));
        assert!(net.next_event_time().is_none());
    }

    #[test]
    fn capped_flow_takes_proportionally_longer() {
        let mut net = FluidNet::new(topo(2));
        // 1.25 GB at a 1/4-link cap: 4 seconds instead of 1.
        net.start_flow_with_cap(SimTime::ZERO, spec(0, 1, 1.25e9, 0, 1), 1.25e9 / 4.0);
        let t = net.next_event_time().unwrap();
        assert!((t.as_secs_f64() - 4.0).abs() < 1e-6, "got {t}");
        assert_eq!(net.take_completions(t).len(), 1);
    }

    #[test]
    fn crossing_past_the_time_horizon_saturates() {
        // 1 GB at 2 µB/s — just above the starvation threshold — would
        // finish ~1.6e7 years out, past the last representable instant.
        // The crossing saturates to "never" instead of overflowing, both
        // when the flow's rate is first set and when the next event is
        // asked for.
        let mut net = FluidNet::new(topo(3));
        let slow = net.start_flow_with_cap(SimTime::ZERO, spec(0, 1, 1e9, 0, 1), 2e-6);
        assert_eq!(net.rate_of(slow), Some(2e-6));
        assert_eq!(net.next_event_time(), Some(SimTime::MAX));
        // A finite flow beside it still completes on time.
        net.start_flow(SimTime::ZERO, spec(0, 2, 1.25e9, 0, 2));
        let t = net.next_event_time().unwrap();
        assert!((t.as_secs_f64() - 1.0).abs() < 1e-6, "got {t}");
        assert_eq!(net.take_completions(t).len(), 1);
        assert_eq!(net.active_flow_count(), 1);
    }

    #[test]
    fn cap_only_binds_under_slack() {
        // Two flows share an egress (fair share = LINK/2); a cap above the
        // fair share changes nothing.
        let mut net = FluidNet::new(topo(3));
        let a = net.start_flow_with_cap(SimTime::ZERO, spec(0, 1, 1e9, 0, 1), 0.9e9);
        net.start_flow(SimTime::ZERO, spec(0, 2, 1e9, 0, 2));
        assert!((net.rate_of(a).unwrap() - 0.625e9).abs() < 1.0);
    }

    #[test]
    fn advance_is_idempotent_at_same_time() {
        let mut net = FluidNet::new(topo(2));
        let id = net.start_flow(SimTime::ZERO, spec(0, 1, 1.25e9, 0, 1));
        net.advance(SimTime::from_millis(500));
        let r1 = net.remaining_of(id).unwrap();
        net.advance(SimTime::from_millis(500));
        let r2 = net.remaining_of(id).unwrap();
        assert_eq!(r1, r2);
        assert!((r1 - 0.625e9).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "cannot move backwards")]
    fn advance_rejects_time_reversal() {
        let mut net = FluidNet::new(topo(2));
        net.start_flow(SimTime::from_secs(2), spec(0, 1, 1e6, 0, 1));
        net.advance(SimTime::from_secs(1));
    }

    #[test]
    fn alloc_solve_events_are_per_solve_deltas() {
        // Each `alloc_solve` event carries one solve's counters, so the
        // events of a run add up to the allocator's cumulative totals.
        // Three disjoint host pairs keep most solves partial.
        use tl_telemetry::TelemetryConfig;
        let telemetry = Telemetry::from_config(TelemetryConfig::events());
        let mut net = FluidNet::new(topo(6));
        net.set_telemetry(telemetry.clone());
        for (k, bytes) in [(0u32, 1e9), (1, 2e9), (2, 3e9)] {
            net.start_flow(SimTime::ZERO, spec(2 * k, 2 * k + 1, bytes, 0, k.into()));
        }
        net.advance(SimTime::from_millis(100));
        net.start_flow(SimTime::from_millis(100), spec(1, 0, 1e9, 1, 3));
        net.set_band_for_tag(SimTime::from_millis(100), 2, Band(1));
        while let Some(t) = net.next_event_time() {
            net.take_completions(t);
        }
        let mut sum = [0u64; 4];
        for e in telemetry.take_output().events_of_kind("alloc_solve") {
            let SimEvent::AllocSolve {
                components_solved,
                components_retained,
                rounds,
                flows_touched,
            } = e.event
            else {
                unreachable!()
            };
            let solve = [components_solved, components_retained, rounds, flows_touched];
            for (acc, v) in sum.iter_mut().zip(solve) {
                *acc += v;
            }
        }
        let a = net.alloc_stats();
        assert_eq!(sum, [a.components_solved, a.components_retained, a.rounds, a.flows_touched]);
        assert!(a.components_retained > 0, "no solve was partial");
    }

    #[test]
    fn telemetry_captures_flow_lifecycle_and_rotation() {
        use tl_telemetry::TelemetryConfig;
        let telemetry = Telemetry::from_config(TelemetryConfig::events());
        let mut net = FluidNet::new(topo(3));
        net.set_telemetry(telemetry.clone());
        net.start_flow(SimTime::ZERO, spec(0, 1, 2.5e9, 0, 1));
        net.start_flow(SimTime::ZERO, spec(0, 2, 2.5e9, 1, 2));
        let t_rot = SimTime::from_secs(1);
        net.advance(t_rot);
        net.set_band_for_tag(t_rot, 1, Band(1));
        net.set_band_for_tag(t_rot, 2, Band(0));
        while let Some(t) = net.next_event_time() {
            net.take_completions(t);
        }
        let out = telemetry.take_output();
        assert_eq!(out.events_of_kind("flow_start").len(), 2);
        assert_eq!(out.events_of_kind("flow_finish").len(), 2);
        assert_eq!(out.events_of_kind("priority_rotation").len(), 2);
        assert!(!out.events_of_kind("alloc_solve").is_empty());
        let share_changes = out.events_of_kind("flow_share_change");
        assert!(!share_changes.is_empty());
        // Every share change names the mutation that caused the re-solve;
        // this run has flow arrivals, band rotations, and departures.
        let causes: Vec<ShareChangeCause> = share_changes
            .iter()
            .map(|e| match e.event {
                SimEvent::FlowShareChange { cause, .. } => cause,
                _ => unreachable!(),
            })
            .collect();
        assert!(causes.contains(&ShareChangeCause::NewCompetitor));
        assert!(causes.contains(&ShareChangeCause::Rotation));
        // Start/finish ids pair up.
        let starts: Vec<u64> = out
            .events_of_kind("flow_start")
            .iter()
            .map(|e| match e.event {
                SimEvent::FlowStart { flow, .. } => flow,
                _ => unreachable!(),
            })
            .collect();
        for ev in out.events_of_kind("flow_finish") {
            match ev.event {
                SimEvent::FlowFinish { flow, .. } => assert!(starts.contains(&flow)),
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn disabled_telemetry_changes_nothing() {
        let run = |attach: bool| {
            let mut net = FluidNet::new(topo(3));
            if attach {
                net.set_telemetry(Telemetry::disabled());
            }
            net.start_flow(SimTime::ZERO, spec(0, 1, 1.25e9, 0, 1));
            net.start_flow(SimTime::ZERO, spec(0, 2, 0.625e9, 1, 2));
            let mut done = vec![];
            while let Some(t) = net.next_event_time() {
                done.extend(net.take_completions(t));
            }
            done.iter().map(|d| d.finished).collect::<Vec<_>>()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn capacity_change_resolves_in_flight_flows() {
        let mut net = FluidNet::new(topo(2));
        let id = net.start_flow(SimTime::ZERO, spec(0, 1, 2.5e9, 0, 1));
        // 1s at full rate: half done. Then the NIC halves.
        let t = SimTime::from_secs(1);
        net.set_host_capacity(t, HostId(0), Bandwidth::from_gbps(5.0), Bandwidth::from_gbps(5.0));
        assert!((net.remaining_of(id).unwrap() - 1.25e9).abs() < 1.0);
        // Remaining 1.25e9 at 0.625e9 B/s -> 2 more seconds.
        let done_at = net.next_event_time().unwrap();
        assert!((done_at.as_secs_f64() - 3.0).abs() < 1e-6, "got {done_at}");
        assert_eq!(net.take_completions(done_at).len(), 1);
        // Restoring capacity is symmetric.
        net.set_host_capacity(
            done_at,
            HostId(0),
            Bandwidth::from_gbps(10.0),
            Bandwidth::from_gbps(10.0),
        );
        assert!((net.topology().egress(HostId(0)).gbps() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn abort_removes_matching_flows_without_finish() {
        use tl_telemetry::TelemetryConfig;
        let telemetry = Telemetry::from_config(TelemetryConfig::events());
        let mut net = FluidNet::new(topo(3));
        net.set_telemetry(telemetry.clone());
        let a = net.start_flow(SimTime::ZERO, spec(0, 1, 1.25e9, 0, 1));
        let b = net.start_flow(SimTime::ZERO, spec(2, 1, 1.25e9, 0, 2));
        let t = SimTime::from_millis(100);
        let aborted = net.abort_flows_where(t, |_, s| s.src == HostId(0) || s.dst == HostId(0));
        assert_eq!(aborted, vec![(a, 1)]);
        assert_eq!(net.active_flow_count(), 1);
        // The aborted id no longer resolves; the survivor does.
        assert!(net.remaining_of(a).is_none());
        assert!(net.remaining_of(b).is_some());
        // The survivor speeds up to the full ingress rate and completes.
        let done_at = net.next_event_time().unwrap();
        let done = net.take_completions(done_at);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].tag, 2);
        // No FlowFinish was emitted for the aborted flow.
        let out = telemetry.take_output();
        assert_eq!(out.events_of_kind("flow_finish").len(), 1);
        assert_eq!(out.events_of_kind("flow_start").len(), 2);
    }

    #[test]
    fn completion_crossed_by_jump_keeps_exact_timestamp() {
        // Regression: a mutation arriving after a flow's last byte used to
        // stamp the completion at the mutation time. Here 12.5 MB at
        // 10 Gbps depletes at t = 10 ms, but the next engine touch is a
        // capacity change (fault) at 46 ms.
        let mut net = FluidNet::new(topo(2));
        net.start_flow(SimTime::ZERO, spec(0, 1, 1.25e7, 0, 7));
        let t_fault = SimTime::from_millis(46);
        net.set_host_capacity(
            t_fault,
            HostId(0),
            Bandwidth::from_gbps(1.0),
            Bandwidth::from_gbps(1.0),
        );
        let done = net.take_completions(t_fault);
        assert_eq!(done.len(), 1);
        let finished = done[0].finished.as_secs_f64();
        assert!(
            (finished - 0.01).abs() < 1e-6,
            "stamped {finished}, want ~0.01"
        );
    }

    #[test]
    fn capacity_freed_mid_jump_is_redistributed() {
        // Two flows share host 0's egress at 6.25e8 B/s each. Flow A
        // (62.5 MB) depletes at t = 0.1 s; from then on B runs at the full
        // 1.25e9 B/s. A single advance spanning the crossing must
        // integrate both segments, not hold B at the stale half rate.
        let mut net = FluidNet::new(topo(3));
        net.start_flow(SimTime::ZERO, spec(0, 1, 6.25e7, 0, 1));
        let b = net.start_flow(SimTime::ZERO, spec(0, 2, 1.25e9, 0, 2));
        net.advance(SimTime::from_millis(300));
        let moved = 1.25e9 - net.remaining_of(b).unwrap();
        assert!((moved - 3.125e8).abs() < 1e3, "B moved {moved} bytes");
    }

    #[test]
    fn mid_run_arrival_reshapes_rates() {
        let mut net = FluidNet::new(topo(3));
        let a = net.start_flow(SimTime::ZERO, spec(0, 1, 2.5e9, 0, 1));
        // Alone for 1s: 1.25e9 done. Then a second flow arrives.
        net.start_flow(SimTime::from_secs(1), spec(0, 2, 1.25e9, 0, 2));
        assert!((net.remaining_of(a).unwrap() - 1.25e9).abs() < 1.0);
        // Both now at half rate; both have 1.25e9 left -> both done at t=3.
        let t = net.next_event_time().unwrap();
        assert!((t.as_secs_f64() - 3.0).abs() < 1e-6);
        let done = net.take_completions(t);
        assert_eq!(done.len(), 2);
    }

    #[test]
    fn oversubscribed_uplink_slows_cross_rack_flow() {
        // 2 racks × 2 hosts, 2:1 oversub: uplink = 2 × 10 / 2 = 10 Gbps.
        // Two cross-rack flows from distinct senders share rack 0's uplink,
        // so each runs at 6.25e8 B/s and 1.25e9 bytes take 2 s. Invariants
        // (including net.link_capacity) stay clean throughout.
        let t = crate::topology::TopologyBuilder::leaf_spine(2, 2, 2.0)
            .link(Bandwidth::from_gbps(10.0))
            .build();
        let mut net = FluidNet::new(t);
        let inv = InvariantChecker::enabled();
        net.set_invariants(inv.clone());
        net.start_flow(SimTime::ZERO, spec(0, 2, 1.25e9, 0, 1));
        net.start_flow(SimTime::ZERO, spec(1, 3, 1.25e9, 0, 2));
        let at = net.next_event_time().unwrap();
        assert!((at.as_secs_f64() - 2.0).abs() < 1e-6, "got {at}");
        let done = net.take_completions(at);
        assert_eq!(done.len(), 2);
        // Each flow moved 1.25e9 bytes across rack 0's uplink (link 0) and
        // rack 1's downlink (link 3); rack 0's downlink idles.
        assert!((net.fabric_bytes()[0] - 2.5e9).abs() < 1e3, "uplink bytes");
        assert!((net.fabric_bytes()[3] - 2.5e9).abs() < 1e3, "downlink bytes");
        assert!(net.fabric_bytes()[1].abs() < 1.0, "rack0 downlink idle");
        assert_eq!(inv.violation_count(), 0, "{:?}", inv.take());
    }

    #[test]
    fn band_order_starvation_by_fabric_is_explained() {
        // A band-0 flow saturates rack 0's uplink; a band-1 flow from the
        // same sender to another cross-rack host is then starved by the
        // full uplink, while a band-2 rack-local flow (work conservation)
        // picks up the NIC headroom. The band-1 flow is now starved while
        // a *lower*-priority flow at its egress runs — legitimate only
        // because its routed fabric link is saturated, which the checker
        // must recognise rather than record a net.band_order violation.
        let t = crate::topology::TopologyBuilder::leaf_spine(2, 2, 4.0)
            .link(Bandwidth::from_gbps(10.0))
            .build();
        let mut net = FluidNet::new(t);
        let inv = InvariantChecker::enabled();
        net.set_invariants(inv.clone());
        // Uplink = 2 × 10 / 4 = 5 Gbps; this flow saturates it.
        net.start_flow(SimTime::ZERO, spec(0, 2, 1e12, 0, 1));
        // Same sender, cross-rack, lower priority: fully starved (uplink
        // already full at band 0).
        let starved = net.start_flow(SimTime::ZERO, spec(0, 3, 1e12, 1, 2));
        // Same sender, rack-local, lowest priority: work conservation gives
        // it the NIC headroom the capped band-0 flow cannot use.
        let local = net.start_flow(SimTime::ZERO, spec(0, 1, 1e12, 2, 3));
        assert!(net.rate_of(starved).unwrap() < 1.0, "uplink-starved");
        assert!(
            net.rate_of(local).unwrap() > 6e8,
            "rack-local flow picks up NIC headroom: {}",
            net.rate_of(local).unwrap()
        );
        assert_eq!(inv.violation_count(), 0, "{:?}", inv.take());
    }

    #[test]
    #[should_panic(expected = "generation counter overflow")]
    fn generation_overflow_fails_loudly() {
        // A slot generation at u32::MAX has handed out ids for 2^32
        // flows; one more recycle would make the oldest id resolve to the
        // newest flow. The recycle must panic instead.
        let mut net = FluidNet::new(topo(2));
        net.start_flow(SimTime::ZERO, spec(0, 1, 1e9, 0, 1));
        net.flows[0].gen = u32::MAX;
        net.abort_flows_where(SimTime::ZERO, |_, _| true);
    }

    #[test]
    fn flow_id_packing_roundtrips_at_the_slot_boundary() {
        // The largest representable slot survives the pack/unpack pair
        // bit-exactly, with the generation in the high half.
        let slot = u32::MAX as usize;
        let id = make_id(7, slot);
        assert_eq!(slot_of(id), slot);
        assert_eq!(id >> 32, 7);
    }

    #[test]
    #[should_panic(expected = "does not fit the 32-bit id field")]
    fn flow_id_packing_rejects_oversized_slots() {
        let _ = make_id(0, (u32::MAX as usize) + 1);
    }

    #[test]
    fn same_timestamp_flow_burst_is_one_solve() {
        // A PS fanning out 20 model updates at one instant: every
        // `start_flow` re-enters `advance` at the same timestamp, which
        // must not trigger a rate refresh per flow. One solve serves the
        // whole batch, observed when rates are first read.
        let mut net = FluidNet::new(topo(21));
        let t = SimTime::from_secs(1);
        net.start_flow(SimTime::ZERO, spec(1, 2, 1e6, 0, 0));
        net.advance(t);
        let before = net.alloc_stats().invocations;
        for d in 1..21 {
            net.start_flow(t, spec(0, d, 1e9, 0, d as u64));
        }
        assert_eq!(
            net.alloc_stats().invocations,
            before,
            "starting flows must not refresh rates eagerly"
        );
        let _ = net.next_event_time();
        assert_eq!(
            net.alloc_stats().invocations,
            before + 1,
            "a same-timestamp burst should cost exactly one allocator solve"
        );
    }
}
