//! Weighted max-min rate allocation with strict *egress-scoped* priority.
//!
//! This is the heart of the fluid network model. Given the set of active
//! flows it computes the instantaneous rate of each flow under:
//!
//! * per-host NIC **egress** and **ingress** capacity constraints
//!   (the switch is non-blocking, as in the paper's testbed), plus any
//!   **fabric links** on the flow's deterministic route
//!   ([`Topology::route`]) — rack uplinks/downlinks in a leaf–spine
//!   build. Each flow is filled against its own link set, so the same
//!   water-filling covers the single-switch and multi-tier cases;
//! * **strict priority at the sender's egress NIC**: flows in band *b*
//!   at an egress are served only while no flow of a band `< b` at *that
//!   same egress* still wants bandwidth — the behaviour of the `tc`
//!   htb/prio configuration the paper deploys. Priority is purely local to
//!   the sending NIC: at a *receiver's* ingress, concurrent flows share
//!   capacity without regard to the bands their senders used (real `tc`
//!   shapes outbound traffic only);
//! * **work conservation**: a high-band flow bottlenecked elsewhere (e.g. at
//!   its receiver) releases its egress's lower bands;
//! * **weighted fairness** among competing flows: bottleneck capacity is
//!   shared in proportion to flow weights. Weights model stochastic TCP
//!   unfairness (drawn per flow instance by the caller).
//!
//! The algorithm is progressive filling (water-filling) over an *eligible*
//! set: a flow is eligible when it is unfrozen and belongs to the lowest
//! (highest-priority) unfrozen band at its egress. Each round raises a
//! common level `θ` (the rate of flow `i` grows by `θ·wᵢ`) until a link
//! saturates, freezes the eligible flows on saturated links, and recomputes
//! eligibility — freezing a band-0 flow may admit band-1 flows at that
//! egress. Every round freezes at least one flow, so there are at most
//! `flows` rounds; in the workloads here, saturation freezes whole links at
//! a time and the round count tracks the number of busy links instead.
//!
//! ## Parallel allocation kernel
//!
//! Connected components of the flow/link graph are independent subproblems:
//! no link is shared across components (sharing a link would have merged
//! them in the union-find), so their water-fillings touch disjoint state.
//! When [`MaxMinAllocator::set_workers`] raises the worker count, a solve
//! that covers several dirty components dispatches contiguous chunks of
//! the canonical (ascending-id) component list to a persistent
//! [`WorkerPool`], each worker filling a disjoint range of one shared
//! output buffer with its own [`SolveScratch`] (per-link accumulators are
//! sharded per worker, never shared). The caller then scatters the buffer
//! back in canonical component order. Because each component is solved by
//! exactly the same dense kernel regardless of which worker runs it, and
//! the merge order is fixed by component id, the result is **bitwise
//! identical at any worker count** — the property tests in this module and
//! the scale experiment's canonical-JSON comparison both assert it.

use crate::topology::Topology;
use crate::types::{Band, HostId, LinkId};
use simcore::WorkerPool;

/// Which single-component water-filling kernel the allocator runs. Both
/// kernels produce **bitwise-identical** rates (proven by proptests and
/// the cross-kernel canonical-JSON `cmp` in `scripts/check.sh`); they
/// differ only in how much work each round costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum AllocKernel {
    /// The PR 1–9 kernel: every round rescans all active links for the
    /// minimum saturation step θ and retains the whole unfrozen list.
    /// O(rounds × (links + flows)).
    Legacy,
    /// Bottleneck-ordered kernel (default): a lazy min-heap of links
    /// keyed by projected saturation level pops the true bottleneck,
    /// its flows freeze, and only the links those flows traverse are
    /// decremented; per-flow rates are reconstructed at the end of the
    /// solve by replaying the θ history over each flow's eligible span.
    /// O((F + L) log L) heap traffic instead of per-round rescans.
    #[default]
    Bottleneck,
}

impl AllocKernel {
    /// Parse a kernel name as used by the `TL_KERNEL` environment
    /// variable and `repro --kernel`.
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "legacy" => Some(AllocKernel::Legacy),
            "bottleneck" => Some(AllocKernel::Bottleneck),
            _ => None,
        }
    }

    /// Stable lowercase label (inverse of [`AllocKernel::parse`]).
    pub fn label(self) -> &'static str {
        match self {
            AllocKernel::Legacy => "legacy",
            AllocKernel::Bottleneck => "bottleneck",
        }
    }
}

/// One flow's demand as seen by the allocator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowDemand {
    /// Sending host.
    pub src: HostId,
    /// Receiving host.
    pub dst: HostId,
    /// Strict-priority band at the sender's NIC (0 = highest).
    pub band: Band,
    /// Fair-share weight (must be positive).
    pub weight: f64,
    /// Optional sender-enforced rate ceiling in bytes/sec (htb `ceil`, or a
    /// §VII-style explicit rate allocation). `INFINITY` means uncapped.
    pub max_rate: f64,
}

impl FlowDemand {
    /// An uncapped demand.
    pub fn new(src: HostId, dst: HostId, band: Band, weight: f64) -> Self {
        FlowDemand {
            src,
            dst,
            band,
            weight,
            max_rate: f64::INFINITY,
        }
    }

    /// Apply a rate ceiling.
    pub fn with_max_rate(mut self, max_rate: f64) -> Self {
        assert!(max_rate > 0.0, "rate ceiling must be positive");
        self.max_rate = max_rate;
        self
    }
}

/// Numeric floor below which a link is considered saturated (bytes/sec).
const CAP_EPS: f64 = 1e-6;

/// Cumulative allocator performance counters. Monotonically increasing for
/// the lifetime of a [`MaxMinAllocator`]; read them via
/// [`MaxMinAllocator::stats`] and difference snapshots to meter a window.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AllocStats {
    /// Solver entry count (full and partial calls).
    pub invocations: u64,
    /// Calls that re-solved every component ([`MaxMinAllocator::allocate_into`]).
    pub full_solves: u64,
    /// Connected components actually re-solved.
    pub components_solved: u64,
    /// Components whose cached rates were kept (partial calls only).
    pub components_retained: u64,
    /// Progressive-filling rounds across all solved components.
    pub rounds: u64,
    /// Flows belonging to re-solved components (one count per solve).
    pub flows_touched: u64,
    /// Wall-clock time spent inside the solver, in nanoseconds.
    pub wall_nanos: u64,
    /// Solver calls whose dirty components were dispatched to the worker
    /// pool, plus single-component solves that engaged intra-component
    /// sharding (always 0 with a single worker).
    pub parallel_dispatches: u64,
    /// Wall-clock nanoseconds spent inside pool dispatch (a subset of
    /// `wall_nanos`; includes worker wake/join overhead).
    pub parallel_wall_nanos: u64,
    /// Rounds that froze at least one flow. Identical across kernels (both
    /// kernels execute the same round sequence), so a divergence here is a
    /// kernel bug, not tuning noise.
    pub freeze_rounds: u64,
    /// Heap entries popped by the bottleneck kernel (0 under `legacy`).
    pub heap_pops: u64,
    /// Popped heap entries discarded because the link was re-keyed or
    /// retired after the entry was pushed (0 under `legacy`).
    pub stale_key_skips: u64,
    /// Per-link work units: for `legacy`, one per active link per round
    /// (the full rescan); for `bottleneck`, one per deferred-θ replay step
    /// or candidate recompute. Comparable across runs of one kernel, not
    /// between kernels.
    pub links_touched: u64,
}

/// Per-solve round/work tally returned by both kernels and folded into
/// [`AllocStats`] by the dispatcher.
#[derive(Debug, Default, Clone, Copy)]
struct KernelTally {
    rounds: u64,
    freeze_rounds: u64,
    heap_pops: u64,
    stale_key_skips: u64,
    links_touched: u64,
    /// 1 when this solve sharded rounds across the worker pool.
    par_dispatches: u64,
    par_nanos: u64,
}

impl KernelTally {
    fn add(&mut self, o: KernelTally) {
        self.rounds += o.rounds;
        self.freeze_rounds += o.freeze_rounds;
        self.heap_pops += o.heap_pops;
        self.stale_key_skips += o.stale_key_skips;
        self.links_touched += o.links_touched;
        self.par_dispatches += o.par_dispatches;
        self.par_nanos += o.par_nanos;
    }
}

impl AllocStats {
    fn absorb(&mut self, t: KernelTally) {
        self.rounds += t.rounds;
        self.freeze_rounds += t.freeze_rounds;
        self.heap_pops += t.heap_pops;
        self.stale_key_skips += t.stale_key_skips;
        self.links_touched += t.links_touched;
        self.parallel_dispatches += t.par_dispatches;
        self.parallel_wall_nanos += t.par_nanos;
    }
}

/// Sentinel for "no unfrozen flow at this egress".
const NO_BAND: u16 = u16::MAX;
/// Sentinel for an absent link slot in a flow's cached link set.
const NO_LINK: u32 = u32::MAX;
/// Default minimum number of flows across dirty components before a
/// multi-worker solve pays for pool dispatch (condvar wake + per-chunk
/// boxing). Runtime-tunable via [`MaxMinAllocator::set_par_min_flows`]
/// (`TL_PAR_MIN_FLOWS` at the `FluidNet` level).
pub const DEFAULT_PAR_MIN_FLOWS: usize = 128;
/// Default minimum flow count of a single component before the bottleneck
/// kernel shards its gather/weight-sum/fill phases across the worker pool.
/// Runtime-tunable via [`MaxMinAllocator::set_par_min_component_flows`]
/// (`TL_PAR_MIN_COMPONENT_FLOWS` at the `FluidNet` level).
pub const DEFAULT_PAR_MIN_COMPONENT_FLOWS: usize = 4096;

/// Per-worker scratch for the dense component solve. Link accumulators
/// (`cap`, `weight_sum`, per-egress band minima) are sharded here — one
/// copy per worker — so concurrent component solves never share mutable
/// state. The gather arrays hold the component's flows densely (creation
/// order preserved, which fixes fp summation order) with their routed link
/// ids cached once per solve instead of re-deriving routes every round.
#[derive(Debug, Default)]
struct SolveScratch {
    // Remaining capacity per link; links are [egress 0..n) ++ [ingress 0..n)
    // ++ [fabric links 2n..2n+F) ++ [optional aggregate core at 2n+F].
    // Only links of the component being solved are (re)initialized.
    cap: Vec<f64>,
    // Sum of weights of eligible unfrozen flows per link, valid when the
    // stamp matches the current solve. Maintained incrementally: summed in
    // flow creation order at eligibility init, decremented as flows freeze
    // (both orders are deterministic functions of the component's input, so
    // every solve path produces bit-identical rates).
    weight_sum: Vec<f64>,
    ws_stamp: Vec<u64>,
    // Eligible-flow count per link; when it reaches zero the link leaves
    // `active_links` and its (fp-drifted) weight sum is reset to exactly 0.
    link_count: Vec<u32>,
    // Links carrying at least one eligible flow, maintained across rounds.
    active_links: Vec<u32>,
    // Per-egress minimum unfrozen band, stamp-validated like `weight_sum`,
    // plus the number of still-unfrozen flows at that band.
    min_band: Vec<u16>,
    mb_stamp: Vec<u64>,
    egr_count: Vec<u32>,
    // Egresses whose eligible band emptied this round (band promotion).
    promote: Vec<u32>,
    promo_stamp: Vec<u64>,
    solve_stamp: u64,
    promo_ctr: u64,
    // Per-flow eligible flag, indexed by dense (component-local) position.
    eligible: Vec<bool>,
    // Dense positions of still-unfrozen flows, in creation order (order is
    // load-bearing: it fixes fp summation).
    unfrozen: Vec<u32>,
    // Gathered per-flow data, dense in component creation order.
    g_weight: Vec<f64>,
    g_band: Vec<u16>,
    g_egress: Vec<u32>,
    g_max_rate: Vec<f64>,
    // Cached link ids per flow in water-filling order
    // [egress, ingress, uplink, downlink, core]; `NO_LINK` where absent.
    g_links: Vec<[u32; 5]>,

    // --- bottleneck-kernel state (see `solve_component_bottleneck`) ---
    // Positive θ increments of the current solve, in round order. Per-flow
    // rates are Σ θ·weight over each flow's eligible span — the same
    // left-to-right fold the legacy kernel performs incrementally, so the
    // deferred reconstruction is bit-identical.
    thetas: Vec<f64>,
    // Per link: number of `thetas` entries already charged against `cap`.
    // Replaying the pending suffix before any weight-sum change keeps the
    // per-link subtraction sequence identical to the legacy kernel's
    // (the weight sum is constant across a deferred segment by
    // construction).
    replayed: Vec<u32>,
    // Per link: version of its newest heap entry; older entries are stale.
    link_ver: Vec<u32>,
    // Per link: flows admitted at this link during the current solve, in
    // admission order (global creation order within each admission wave).
    link_flows: Vec<Vec<u32>>,
    // Lazy min-heap of links keyed by projected saturation level.
    heap: std::collections::BinaryHeap<HeapEntry>,
    // Per flow: [start, end) span into `thetas` while eligible.
    span_start: Vec<u32>,
    span_end: Vec<u32>,
    frozen: Vec<bool>,
    freeze_mark: Vec<bool>,
    // Eligible unfrozen flows with a finite rate ceiling, admission order.
    // These stay eager (their running rate feeds the θ ceiling fold).
    capped: Vec<u32>,
    // Candidate bottleneck links of the current round, pop order.
    cand: Vec<u32>,
    // Flows freezing this round, sorted ascending (creation order).
    freeze_set: Vec<u32>,
    // Links whose weight sum / membership changed this round, dedup'd.
    touch_list: Vec<u32>,
    touch_stamp: Vec<u64>,
    touch_ctr: u64,
    // Links stamped this solve; drives the debug-only full-scan θ check.
    stamped: Vec<u32>,
    // Per-egress flow lists for band promotion (multi-band solves only):
    // distinct egresses in first-appearance order, host → dense slot, and
    // per-slot creation-order flow lists (frozen flows filtered at use).
    egr_list: Vec<u32>,
    egr_pos: Vec<u32>,
    egr_seen: Vec<u64>,
    egr_flows: Vec<Vec<u32>>,
    // Merged unfrozen flows of this round's promoted egresses.
    promo_flows: Vec<u32>,
    // Per-link weight sums produced by the sharded D2 reduction, aligned
    // with `touch_list`.
    ws_out: Vec<f64>,
}

/// Heap entry of the bottleneck kernel: a link and its projected
/// saturation level (Λ at push time + remaining capacity ÷ weight sum).
/// Ordered as a **min**-heap on the key inside `std`'s max-heap, with ties
/// broken by canonical link id so pop order is a deterministic function of
/// the component's input. Keys are never NaN (capacities are finite,
/// weight sums positive), so `total_cmp` agrees with numeric order.
#[derive(Debug, Clone, Copy, PartialEq)]
struct HeapEntry {
    key: f64,
    link: u32,
    ver: u32,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .key
            .total_cmp(&self.key)
            .then_with(|| other.link.cmp(&self.link))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl SolveScratch {
    fn ensure(&mut self, num_links: usize, num_hosts: usize, max_flows: usize) {
        self.cap.resize(num_links.max(self.cap.len()), 0.0);
        self.weight_sum
            .resize(num_links.max(self.weight_sum.len()), 0.0);
        self.ws_stamp.resize(num_links.max(self.ws_stamp.len()), 0);
        self.link_count.resize(num_links.max(self.link_count.len()), 0);
        self.min_band
            .resize(num_hosts.max(self.min_band.len()), NO_BAND);
        self.mb_stamp.resize(num_hosts.max(self.mb_stamp.len()), 0);
        self.egr_count.resize(num_hosts.max(self.egr_count.len()), 0);
        self.promo_stamp
            .resize(num_hosts.max(self.promo_stamp.len()), 0);
        self.eligible
            .resize(max_flows.max(self.eligible.len()), false);
    }

    /// Additional sizing for the bottleneck kernel's lazy state.
    fn ensure_bn(&mut self, num_links: usize, num_hosts: usize, max_flows: usize) {
        self.replayed.resize(num_links.max(self.replayed.len()), 0);
        self.link_ver.resize(num_links.max(self.link_ver.len()), 0);
        if self.link_flows.len() < num_links {
            self.link_flows.resize_with(num_links, Vec::new);
        }
        self.touch_stamp
            .resize(num_links.max(self.touch_stamp.len()), 0);
        self.span_start
            .resize(max_flows.max(self.span_start.len()), 0);
        self.span_end.resize(max_flows.max(self.span_end.len()), 0);
        self.frozen.resize(max_flows.max(self.frozen.len()), false);
        self.freeze_mark
            .resize(max_flows.max(self.freeze_mark.len()), false);
        self.egr_pos.resize(num_hosts.max(self.egr_pos.len()), 0);
        self.egr_seen.resize(num_hosts.max(self.egr_seen.len()), 0);
    }
}

/// Per-worker shard for intra-component parallel phases: partial
/// per-egress band minima (stamped, with a touched list for the
/// deterministic merge) plus scalar reductions of the gather pass.
#[derive(Debug, Default)]
struct IntraShard {
    min_band: Vec<u16>,
    seen: Vec<u64>,
    touched: Vec<u32>,
    ctr: u64,
    band_lo: u16,
    band_hi: u16,
    has_caps: bool,
    nonloop: u64,
    w_min: f64,
}

impl IntraShard {
    fn ensure(&mut self, num_hosts: usize) {
        self.min_band
            .resize(num_hosts.max(self.min_band.len()), NO_BAND);
        self.seen.resize(num_hosts.max(self.seen.len()), 0);
    }
}

/// Progressive filling restricted to one component — the round-based
/// full-rescan kernel ([`AllocKernel::Legacy`]). `idxs` lists the
/// component's flows in creation order; the flows' rates are written
/// densely into `out` (same order as `idxs`). Returns the round tally.
///
/// This is a free function over a [`SolveScratch`] so worker threads can
/// run disjoint components concurrently; it touches nothing outside the
/// scratch and its output slice.
fn solve_component_legacy(
    s: &mut SolveScratch,
    topo: &Topology,
    flows: &[FlowDemand],
    idxs: &[u32],
    out: &mut [f64],
) -> KernelTally {
    let n = topo.num_hosts();
    // Fabric links occupy cap[2n..2n+F); the aggregate core sits after.
    let fab_base = 2 * n;
    let core_link = topo.core_capacity().map(|c| {
        let idx = fab_base + topo.num_fabric_links();
        s.cap[idx] = c.bytes_per_sec();
        idx as u32
    });

    let loopback = topo.loopback().bytes_per_sec();
    s.unfrozen.clear();
    s.g_weight.clear();
    s.g_band.clear();
    s.g_egress.clear();
    s.g_max_rate.clear();
    s.g_links.clear();
    let mut band_lo = u16::MAX;
    let mut band_hi = 0u16;
    let mut has_caps = false;
    for (j, &i) in idxs.iter().enumerate() {
        let f = &flows[i as usize];
        let band = f.band.0 as u16;
        s.g_weight.push(f.weight);
        s.g_band.push(band);
        s.g_egress.push(f.src.0);
        s.g_max_rate.push(f.max_rate);
        if f.src == f.dst {
            // Loopback traffic never touches the NIC.
            out[j] = loopback;
            s.g_links.push([NO_LINK; 5]);
        } else {
            out[j] = 0.0;
            band_lo = band_lo.min(band);
            band_hi = band_hi.max(band);
            has_caps |= f.max_rate.is_finite();
            let egress = f.src.0;
            let ingress = (n + f.dst.0 as usize) as u32;
            s.cap[egress as usize] = topo.egress(f.src).bytes_per_sec();
            s.cap[ingress as usize] = topo.ingress(f.dst).bytes_per_sec();
            let [up, down] = topo.route(f.src, f.dst);
            let up = up.map_or(NO_LINK, |l| {
                let idx = fab_base + l.0 as usize;
                s.cap[idx] = topo.fabric_capacity(l).bytes_per_sec();
                idx as u32
            });
            let down = down.map_or(NO_LINK, |l| {
                let idx = fab_base + l.0 as usize;
                s.cap[idx] = topo.fabric_capacity(l).bytes_per_sec();
                idx as u32
            });
            s.g_links
                .push([egress, ingress, up, down, core_link.unwrap_or(NO_LINK)]);
            s.unfrozen.push(j as u32);
        }
    }
    if s.eligible.len() < idxs.len() {
        s.eligible.resize(idxs.len(), false);
    }

    // Eligibility and weight-sum init. `solve_stamp` marks scratch entries
    // as belonging to this solve; the per-link sums then persist across
    // rounds, decremented as flows freeze, instead of being rebuilt from
    // scratch every round. Both the initial creation-order summation and
    // the freeze-order subtraction are deterministic functions of the
    // component's input, so every solve path stays bit-identical.
    s.solve_stamp += 1;
    let solve = s.solve_stamp;
    // All flows in one band (or none): everything unfrozen is eligible and
    // the per-egress band bookkeeping is skipped entirely.
    let single_band = band_lo >= band_hi;
    // On a fabric-less, core-less topology every non-loopback flow has
    // exactly [egress, ingress]; scanning only that prefix of the cached
    // link arrays keeps the hot per-round loops short.
    let max_links: usize = if core_link.is_some() {
        5
    } else if topo.num_fabric_links() > 0 {
        4
    } else {
        2
    };
    if !single_band {
        for &j in &s.unfrozen {
            let j = j as usize;
            let e = s.g_egress[j] as usize;
            let band = s.g_band[j];
            if s.mb_stamp[e] != solve {
                s.mb_stamp[e] = solve;
                s.min_band[e] = band;
                s.egr_count[e] = 0;
            } else {
                s.min_band[e] = s.min_band[e].min(band);
            }
        }
    }
    s.active_links.clear();
    for &j in &s.unfrozen {
        let j = j as usize;
        let el = single_band || s.g_band[j] == s.min_band[s.g_egress[j] as usize];
        s.eligible[j] = el;
        if !el {
            continue;
        }
        if !single_band {
            s.egr_count[s.g_egress[j] as usize] += 1;
        }
        let w = s.g_weight[j];
        for &l in &s.g_links[j][..max_links] {
            if l == NO_LINK {
                continue;
            }
            let l = l as usize;
            if s.ws_stamp[l] != solve {
                s.ws_stamp[l] = solve;
                s.weight_sum[l] = 0.0;
                s.link_count[l] = 0;
                s.active_links.push(l as u32);
            }
            s.weight_sum[l] += w;
            s.link_count[l] += 1;
        }
    }
    let mut tally = KernelTally::default();
    while !s.unfrozen.is_empty() {
        tally.rounds += 1;
        tally.links_touched += s.active_links.len() as u64;
        // The common level can rise until the tightest link saturates
        // or an eligible flow reaches its own rate ceiling.
        let mut theta = f64::INFINITY;
        for &l in &s.active_links {
            let l = l as usize;
            theta = theta.min(s.cap[l].max(0.0) / s.weight_sum[l]);
        }
        if has_caps {
            for &j in &s.unfrozen {
                let j = j as usize;
                if s.eligible[j] && s.g_max_rate[j].is_finite() {
                    theta = theta.min(((s.g_max_rate[j] - out[j]).max(0.0)) / s.g_weight[j]);
                }
            }
        }
        debug_assert!(theta.is_finite(), "eligible flows but no constrained link");

        // Raise all eligible flows by theta * weight and charge the links.
        if theta > 0.0 {
            if single_band {
                for &j in &s.unfrozen {
                    out[j as usize] += theta * s.g_weight[j as usize];
                }
            } else {
                for &j in &s.unfrozen {
                    let j = j as usize;
                    if s.eligible[j] {
                        out[j] += theta * s.g_weight[j];
                    }
                }
            }
            for &l in &s.active_links {
                let l = l as usize;
                s.cap[l] -= theta * s.weight_sum[l];
            }
        }

        // Freeze eligible flows touching a saturated link or sitting at
        // their own ceiling; `retain` keeps creation order. A frozen flow's
        // weight leaves its links' running sums and its egress's eligible
        // count; a link whose eligible count reaches zero has its sum reset
        // to exactly 0.0 so fp drift cannot leak into a re-activation.
        s.promote.clear();
        let unfrozen_before = s.unfrozen.len();
        {
            let (unfrozen, eligible, cap) = (&mut s.unfrozen, &s.eligible, &s.cap);
            let (g_links, g_max_rate) = (&s.g_links, &s.g_max_rate);
            let (g_weight, g_egress) = (&s.g_weight, &s.g_egress);
            let (weight_sum, link_count) = (&mut s.weight_sum, &mut s.link_count);
            let (egr_count, promote) = (&mut s.egr_count, &mut s.promote);
            unfrozen.retain(|&j| {
                let j = j as usize;
                if !eligible[j] {
                    return true;
                }
                let capped = has_caps
                    && g_max_rate[j].is_finite()
                    && out[j] >= g_max_rate[j] * (1.0 - 1e-12);
                let mut link_full = false;
                for &l in &g_links[j][..max_links] {
                    if l != NO_LINK && cap[l as usize] <= CAP_EPS {
                        link_full = true;
                    }
                }
                if !(link_full || capped) {
                    return true;
                }
                let w = g_weight[j];
                for &l in &g_links[j][..max_links] {
                    if l == NO_LINK {
                        continue;
                    }
                    let l = l as usize;
                    link_count[l] -= 1;
                    weight_sum[l] = if link_count[l] == 0 {
                        0.0
                    } else {
                        weight_sum[l] - w
                    };
                }
                if !single_band {
                    let e = g_egress[j] as usize;
                    egr_count[e] -= 1;
                    if egr_count[e] == 0 {
                        promote.push(g_egress[j]);
                    }
                }
                false
            });
        }
        if s.unfrozen.len() != unfrozen_before {
            tally.freeze_rounds += 1;
        }
        {
            let (active_links, link_count) = (&mut s.active_links, &s.link_count);
            active_links.retain(|&l| link_count[l as usize] > 0);
        }

        if !s.promote.is_empty() {
            // Band promotion: an egress whose whole eligible band froze
            // exposes its next-lowest unfrozen band. Two creation-order
            // passes (find the new band, then admit its flows) keep the fp
            // summation order deterministic. Links regained here were reset
            // to an exact 0.0 sum when they retired, and a still-saturated
            // link simply freezes its newly admitted flows on the next
            // round's zero-theta pass.
            s.promo_ctr += 1;
            let pc = s.promo_ctr;
            let promote = std::mem::take(&mut s.promote);
            for &e in &promote {
                s.promo_stamp[e as usize] = pc;
                s.min_band[e as usize] = NO_BAND;
            }
            for &j in &s.unfrozen {
                let j = j as usize;
                let e = s.g_egress[j] as usize;
                if s.promo_stamp[e] == pc {
                    s.min_band[e] = s.min_band[e].min(s.g_band[j]);
                }
            }
            for &j in &s.unfrozen {
                let j = j as usize;
                let e = s.g_egress[j] as usize;
                if s.promo_stamp[e] == pc && s.g_band[j] == s.min_band[e] {
                    s.eligible[j] = true;
                    s.egr_count[e] += 1;
                    let w = s.g_weight[j];
                    for &l in &s.g_links[j][..max_links] {
                        if l == NO_LINK {
                            continue;
                        }
                        let l = l as usize;
                        if s.ws_stamp[l] != solve {
                            s.ws_stamp[l] = solve;
                            s.weight_sum[l] = 0.0;
                            s.link_count[l] = 0;
                        }
                        if s.link_count[l] == 0 {
                            s.active_links.push(l as u32);
                        }
                        s.weight_sum[l] += w;
                        s.link_count[l] += 1;
                    }
                }
            }
            s.promote = promote;
        }
    }
    tally
}

/// Capacity of link id `l` under the canonical link layout
/// [egress 0..n) ++ [ingress n..2n) ++ [fabric 2n..2n+F) ++ [core].
/// The bottleneck kernel initializes capacities lazily at link activation
/// (instead of during gather like the legacy kernel); both read the same
/// topology accessors, so the initial values are bit-identical.
#[inline]
fn link_capacity(topo: &Topology, n: usize, fab_base: usize, l: usize) -> f64 {
    if l < n {
        topo.egress(HostId(l as u32)).bytes_per_sec()
    } else if l < fab_base {
        topo.ingress(HostId((l - n) as u32)).bytes_per_sec()
    } else if l < fab_base + topo.num_fabric_links() {
        topo.fabric_capacity(LinkId((l - fab_base) as u32)).bytes_per_sec()
    } else {
        topo.core_capacity()
            .expect("core link id implies a configured core")
            .bytes_per_sec()
    }
}

/// Charge link `l` with every θ it missed since its last exact update.
/// The link's weight sum is constant across the deferred segment (every
/// weight-sum change replays first), so the subtraction sequence is
/// bit-identical to the legacy kernel's per-round updates. Returns the
/// number of replay steps (a `links_touched` contribution).
#[inline]
fn replay_link(cap: &mut [f64], replayed: &mut [u32], thetas: &[f64], ws: f64, l: usize) -> u64 {
    let from = replayed[l] as usize;
    let to = thetas.len();
    if from == to {
        return 0;
    }
    let mut c = cap[l];
    for &th in &thetas[from..to] {
        c -= th * ws;
    }
    cap[l] = c;
    replayed[l] = to as u32;
    (to - from) as u64
}

#[inline]
fn touch_link(touch_stamp: &mut [u64], touch_list: &mut Vec<u32>, ctr: u64, l: usize) {
    if touch_stamp[l] != ctr {
        touch_stamp[l] = ctr;
        touch_list.push(l as u32);
    }
}

/// Candidate window half-width for the bottleneck pop: stored heap keys
/// drift from a link's true projected level by at most the rounding error
/// accumulated across its deferred updates (≲ rounds · ε · scale, about
/// seven orders of magnitude below the relative term here), and a link
/// whose post-round capacity could fall within `CAP_EPS` of saturation
/// sits within `CAP_EPS / weight_sum ≤ CAP_EPS / w_min` of the popped
/// key. Everything inside the window is recomputed exactly, so the window
/// only has to be sound (never exclude the true bottleneck or a
/// saturating link), not tight — an over-wide window costs speed, never
/// correctness.
#[inline]
fn key_window(k0: f64, level: f64, w_min: f64) -> f64 {
    1e-6 * (k0.abs() + level.abs()) + 1.0 + CAP_EPS / w_min
}

/// Gather one contiguous range of a component's flows into the dense
/// per-flow arrays (all slices are range-local). Returns the range's
/// scalar reductions `(band_lo, band_hi, has_caps, nonloop, w_min)`;
/// per-egress band minima accumulate into `shard` when given (the
/// intra-parallel path; the sequential caller folds bands in a separate
/// pass, matching the legacy kernel's order exactly).
#[allow(clippy::too_many_arguments)]
fn gather_range(
    topo: &Topology,
    flows: &[FlowDemand],
    idxs: &[u32],
    n: usize,
    fab_base: usize,
    core_link: u32,
    loopback: f64,
    g_weight: &mut [f64],
    g_band: &mut [u16],
    g_egress: &mut [u32],
    g_max_rate: &mut [f64],
    g_links: &mut [[u32; 5]],
    frozen: &mut [bool],
    freeze_mark: &mut [bool],
    span_start: &mut [u32],
    span_end: &mut [u32],
    out: &mut [f64],
    mut shard: Option<&mut IntraShard>,
) -> (u16, u16, bool, u64, f64) {
    let mut band_lo = u16::MAX;
    let mut band_hi = 0u16;
    let mut has_caps = false;
    let mut nonloop = 0u64;
    let mut w_min = f64::INFINITY;
    for (q, &i) in idxs.iter().enumerate() {
        let f = &flows[i as usize];
        let band = f.band.0 as u16;
        g_weight[q] = f.weight;
        g_band[q] = band;
        g_egress[q] = f.src.0;
        g_max_rate[q] = f.max_rate;
        frozen[q] = false;
        freeze_mark[q] = false;
        span_start[q] = 0;
        span_end[q] = 0;
        if f.src == f.dst {
            // Loopback traffic never touches the NIC.
            out[q] = loopback;
            g_links[q] = [NO_LINK; 5];
            continue;
        }
        out[q] = 0.0;
        band_lo = band_lo.min(band);
        band_hi = band_hi.max(band);
        has_caps |= f.max_rate.is_finite();
        w_min = w_min.min(f.weight);
        nonloop += 1;
        let egress = f.src.0;
        let ingress = (n + f.dst.0 as usize) as u32;
        let [up, down] = topo.route(f.src, f.dst);
        let up = up.map_or(NO_LINK, |l| (fab_base + l.0 as usize) as u32);
        let down = down.map_or(NO_LINK, |l| (fab_base + l.0 as usize) as u32);
        g_links[q] = [egress, ingress, up, down, core_link];
        if let Some(sh) = shard.as_deref_mut() {
            let e = f.src.0 as usize;
            if sh.seen[e] != sh.ctr {
                sh.seen[e] = sh.ctr;
                sh.min_band[e] = band;
                sh.touched.push(e as u32);
            } else {
                sh.min_band[e] = sh.min_band[e].min(band);
            }
        }
    }
    (band_lo, band_hi, has_caps, nonloop, w_min)
}

/// Re-key every link whose weight sum or membership changed this round:
/// bump its version (invalidating any outstanding heap entry) and, if it
/// still carries eligible flows, push a fresh projected-saturation key.
/// Runs after *all* of the round's decrements and admissions so a key
/// always reflects the link's final weight sum — a stale too-large key
/// could otherwise escape the next round's candidate window.
fn rekey_touched(s: &mut SolveScratch, level: f64) {
    for ti in 0..s.touch_list.len() {
        let l = s.touch_list[ti] as usize;
        s.link_ver[l] = s.link_ver[l].wrapping_add(1);
        if s.link_count[l] > 0 {
            debug_assert_eq!(
                s.replayed[l] as usize,
                s.thetas.len(),
                "re-keying a link with pending θ replay"
            );
            s.heap.push(HeapEntry {
                key: level + s.cap[l].max(0.0) / s.weight_sum[l],
                link: l as u32,
                ver: s.link_ver[l],
            });
        }
    }
}

/// Progressive filling restricted to one component — the bottleneck-ordered
/// kernel ([`AllocKernel::Bottleneck`]). Produces **bit-identical** output
/// to [`solve_component_legacy`] (including the round count) by executing
/// the exact same round sequence while avoiding its per-round full rescans:
///
/// - A lazy min-heap keys every active link by its projected saturation
///   level `Λ + cap/Σw` (ties broken by canonical link id). Each round pops
///   the minimum plus every live entry within a sound drift window and
///   recomputes those candidates exactly, so θ is the same `min` fold over
///   the same values the legacy kernel folds — just over a provably
///   sufficient subset.
/// - Link capacities are charged lazily: each link remembers how far into
///   the θ history it is exact and replays the pending suffix before any
///   weight-sum change (the sum is constant across the deferred segment, so
///   the subtraction sequence is identical to eager per-round updates).
/// - Per-flow rates are reconstructed at the end as `Σ θ·w` over the flow's
///   eligible span — the same left-to-right fold, deferred. Flows with a
///   finite rate ceiling stay eager because their running rate feeds the θ
///   ceiling fold and the freeze check.
/// - Freezes and band promotions process flows in ascending dense index
///   (creation order), matching the legacy `retain`/two-pass order, so
///   every weight-sum add/subtract sequence is bit-identical.
///
/// When `par` is given (worker pool + per-worker shards), the gather,
/// initial weight-sum, and final fill phases shard across workers: flows
/// split into contiguous ranges with disjoint output slices, per-egress
/// band minima merge from per-worker stamped partials in worker order
/// (`u16::min` is exact, so the merge is order-insensitive anyway), and
/// weight sums shard **by link** over creation-ordered per-link flow lists
/// — each link's fp addition sequence is then identical to the sequential
/// interleaved fold, which flow-sharded partial sums could not guarantee.
/// Debug builds cross-check every round's windowed θ against a full scan.
fn solve_component_bottleneck(
    s: &mut SolveScratch,
    topo: &Topology,
    flows: &[FlowDemand],
    idxs: &[u32],
    out: &mut [f64],
    mut par: Option<(&WorkerPool, &mut [IntraShard])>,
) -> KernelTally {
    let mut tally = KernelTally::default();
    let n = topo.num_hosts();
    let fab_base = 2 * n;
    let core_link = if topo.core_capacity().is_some() {
        (fab_base + topo.num_fabric_links()) as u32
    } else {
        NO_LINK
    };
    let loopback = topo.loopback().bytes_per_sec();
    let nf = idxs.len();
    if s.g_weight.len() < nf {
        s.g_weight.resize(nf, 0.0);
        s.g_band.resize(nf, 0);
        s.g_egress.resize(nf, 0);
        s.g_max_rate.resize(nf, 0.0);
        s.g_links.resize(nf, [NO_LINK; 5]);
    }

    // --- Gather (sharded D1 when parallel) ---------------------------------
    let mut band_lo = u16::MAX;
    let mut band_hi = 0u16;
    let mut has_caps = false;
    let mut nonloop = 0u64;
    let mut w_min = f64::INFINITY;
    let mut used_shards = 0usize;
    if let Some((pool, shards)) = par.as_mut() {
        tally.par_dispatches = 1;
        let workers = shards.len();
        let chunk = nf.div_ceil(workers).max(1);
        let SolveScratch {
            g_weight,
            g_band,
            g_egress,
            g_max_rate,
            g_links,
            frozen,
            freeze_mark,
            span_start,
            span_end,
            ..
        } = &mut *s;
        let t0 = std::time::Instant::now();
        {
            let mut jobs: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(workers);
            let mut gw = &mut g_weight[..nf];
            let mut gb = &mut g_band[..nf];
            let mut ge = &mut g_egress[..nf];
            let mut gm = &mut g_max_rate[..nf];
            let mut gl = &mut g_links[..nf];
            let mut fz = &mut frozen[..nf];
            let mut fm = &mut freeze_mark[..nf];
            let mut ss = &mut span_start[..nf];
            let mut se = &mut span_end[..nf];
            let mut ou = &mut out[..nf];
            let mut base = 0usize;
            for sh in shards.iter_mut() {
                if base >= nf {
                    break;
                }
                let len = chunk.min(nf - base);
                let (a_gw, r) = gw.split_at_mut(len);
                gw = r;
                let (a_gb, r) = gb.split_at_mut(len);
                gb = r;
                let (a_ge, r) = ge.split_at_mut(len);
                ge = r;
                let (a_gm, r) = gm.split_at_mut(len);
                gm = r;
                let (a_gl, r) = gl.split_at_mut(len);
                gl = r;
                let (a_fz, r) = fz.split_at_mut(len);
                fz = r;
                let (a_fm, r) = fm.split_at_mut(len);
                fm = r;
                let (a_ss, r) = ss.split_at_mut(len);
                ss = r;
                let (a_se, r) = se.split_at_mut(len);
                se = r;
                let (a_ou, r) = ou.split_at_mut(len);
                ou = r;
                sh.ensure(n);
                sh.ctr += 1;
                sh.touched.clear();
                let sub = &idxs[base..base + len];
                jobs.push(Box::new(move || {
                    let (lo, hi, hc, nl, wm) = gather_range(
                        topo,
                        flows,
                        sub,
                        n,
                        fab_base,
                        core_link,
                        loopback,
                        a_gw,
                        a_gb,
                        a_ge,
                        a_gm,
                        a_gl,
                        a_fz,
                        a_fm,
                        a_ss,
                        a_se,
                        a_ou,
                        Some(&mut *sh),
                    );
                    sh.band_lo = lo;
                    sh.band_hi = hi;
                    sh.has_caps = hc;
                    sh.nonloop = nl;
                    sh.w_min = wm;
                }));
                base += len;
            }
            used_shards = jobs.len();
            pool.run(jobs);
        }
        tally.par_nanos += t0.elapsed().as_nanos() as u64;
        for sh in shards[..used_shards].iter() {
            band_lo = band_lo.min(sh.band_lo);
            band_hi = band_hi.max(sh.band_hi);
            has_caps |= sh.has_caps;
            nonloop += sh.nonloop;
            w_min = w_min.min(sh.w_min);
        }
    } else {
        let SolveScratch {
            g_weight,
            g_band,
            g_egress,
            g_max_rate,
            g_links,
            frozen,
            freeze_mark,
            span_start,
            span_end,
            ..
        } = &mut *s;
        (band_lo, band_hi, has_caps, nonloop, w_min) = gather_range(
            topo,
            flows,
            idxs,
            n,
            fab_base,
            core_link,
            loopback,
            &mut g_weight[..nf],
            &mut g_band[..nf],
            &mut g_egress[..nf],
            &mut g_max_rate[..nf],
            &mut g_links[..nf],
            &mut frozen[..nf],
            &mut freeze_mark[..nf],
            &mut span_start[..nf],
            &mut span_end[..nf],
            out,
            None,
        );
    }

    s.solve_stamp += 1;
    let solve = s.solve_stamp;
    let single_band = band_lo >= band_hi;
    let max_links: usize = if core_link != NO_LINK {
        5
    } else if topo.num_fabric_links() > 0 {
        4
    } else {
        2
    };
    s.heap.clear();
    s.thetas.clear();
    s.capped.clear();
    s.stamped.clear();
    s.egr_list.clear();
    let mut level = 0.0f64;
    let mut unfrozen_count = nonloop;

    // --- Per-egress band minima: shard merge or the legacy scan order ------
    if !single_band {
        if let Some((_, shards)) = par.as_mut() {
            for sh in shards[..used_shards].iter() {
                for &e in &sh.touched {
                    let e = e as usize;
                    if s.mb_stamp[e] != solve {
                        s.mb_stamp[e] = solve;
                        s.min_band[e] = sh.min_band[e];
                        s.egr_count[e] = 0;
                    } else {
                        s.min_band[e] = s.min_band[e].min(sh.min_band[e]);
                    }
                }
            }
        } else {
            for j in 0..nf {
                if s.g_links[j][0] == NO_LINK {
                    continue;
                }
                let e = s.g_egress[j] as usize;
                let band = s.g_band[j];
                if s.mb_stamp[e] != solve {
                    s.mb_stamp[e] = solve;
                    s.min_band[e] = band;
                    s.egr_count[e] = 0;
                } else {
                    s.min_band[e] = s.min_band[e].min(band);
                }
            }
        }
    }

    // --- Eligibility init: link membership, per-egress CSR, capped list ----
    s.touch_ctr += 1;
    let tc = s.touch_ctr;
    s.touch_list.clear();
    for j in 0..nf {
        if s.g_links[j][0] == NO_LINK {
            continue;
        }
        let e = s.g_egress[j] as usize;
        if !single_band {
            if s.egr_seen[e] != solve {
                s.egr_seen[e] = solve;
                let p = s.egr_list.len();
                s.egr_pos[e] = p as u32;
                if s.egr_flows.len() == p {
                    s.egr_flows.push(Vec::new());
                } else {
                    s.egr_flows[p].clear();
                }
                s.egr_list.push(e as u32);
            }
            s.egr_flows[s.egr_pos[e] as usize].push(j as u32);
            if s.g_band[j] != s.min_band[e] {
                continue;
            }
            s.egr_count[e] += 1;
        }
        if has_caps && s.g_max_rate[j].is_finite() {
            s.capped.push(j as u32);
        }
        for &l in &s.g_links[j][..max_links] {
            if l == NO_LINK {
                continue;
            }
            let l = l as usize;
            if s.ws_stamp[l] != solve {
                s.ws_stamp[l] = solve;
                s.weight_sum[l] = 0.0;
                s.link_count[l] = 0;
                s.cap[l] = link_capacity(topo, n, fab_base, l);
                s.replayed[l] = 0;
                s.link_flows[l].clear();
                if cfg!(debug_assertions) {
                    s.stamped.push(l as u32);
                }
            }
            s.link_count[l] += 1;
            s.link_flows[l].push(j as u32);
            touch_link(&mut s.touch_stamp, &mut s.touch_list, tc, l);
        }
    }

    // --- Initial weight sums (sharded-by-link D2 when parallel) ------------
    // Each link's sum folds its admitted flows in creation order — exactly
    // the per-slot addition subsequence the legacy interleaved loop runs.
    if let Some((pool, _)) = par.as_mut() {
        let tl = s.touch_list.len();
        s.ws_out.clear();
        s.ws_out.resize(tl, 0.0);
        let workers = pool.size();
        let chunk = tl.div_ceil(workers.max(1)).max(1);
        let SolveScratch {
            touch_list,
            link_flows,
            g_weight,
            ws_out,
            ..
        } = &mut *s;
        let link_flows = &*link_flows;
        let g_weight = &*g_weight;
        let t0 = std::time::Instant::now();
        {
            let mut jobs: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
            let mut rest = &mut ws_out[..];
            let mut base = 0usize;
            while base < tl {
                let len = chunk.min(tl - base);
                let (slot, r) = rest.split_at_mut(len);
                rest = r;
                let links = &touch_list[base..base + len];
                jobs.push(Box::new(move || {
                    for (i, &l) in links.iter().enumerate() {
                        let mut acc = 0.0;
                        for &j in &link_flows[l as usize] {
                            acc += g_weight[j as usize];
                        }
                        slot[i] = acc;
                    }
                }));
                base += len;
            }
            pool.run(jobs);
        }
        tally.par_nanos += t0.elapsed().as_nanos() as u64;
        for i in 0..tl {
            let l = s.touch_list[i] as usize;
            s.weight_sum[l] = s.ws_out[i];
        }
    } else {
        for ti in 0..s.touch_list.len() {
            let l = s.touch_list[ti] as usize;
            let mut acc = 0.0;
            for &j in &s.link_flows[l] {
                acc += s.g_weight[j as usize];
            }
            s.weight_sum[l] = acc;
        }
    }
    rekey_touched(s, level);

    // --- Rounds ------------------------------------------------------------
    while unfrozen_count > 0 {
        tally.rounds += 1;
        s.touch_ctr += 1;
        let tc = s.touch_ctr;
        s.touch_list.clear();

        // Pop the bottleneck and every live key within the sound window.
        s.cand.clear();
        let mut cutoff = f64::INFINITY;
        while let Some(&top) = s.heap.peek() {
            let l = top.link as usize;
            let live =
                s.ws_stamp[l] == solve && s.link_count[l] > 0 && s.link_ver[l] == top.ver;
            if !live {
                s.heap.pop();
                tally.heap_pops += 1;
                tally.stale_key_skips += 1;
                continue;
            }
            if s.cand.is_empty() {
                cutoff = top.key + key_window(top.key, level, w_min);
            } else if top.key > cutoff {
                break;
            }
            s.heap.pop();
            tally.heap_pops += 1;
            s.cand.push(top.link);
        }

        // Exact θ over the candidates (plus the eager ceiling fold) — the
        // same `min` the legacy kernel folds over all active links.
        let mut theta = f64::INFINITY;
        for ci in 0..s.cand.len() {
            let l = s.cand[ci] as usize;
            tally.links_touched +=
                replay_link(&mut s.cap, &mut s.replayed, &s.thetas, s.weight_sum[l], l);
            theta = theta.min(s.cap[l].max(0.0) / s.weight_sum[l]);
        }
        if has_caps {
            for &j in &s.capped {
                let j = j as usize;
                theta = theta.min(((s.g_max_rate[j] - out[j]).max(0.0)) / s.g_weight[j]);
            }
        }
        debug_assert!(theta.is_finite(), "eligible flows but no constrained link");
        #[cfg(debug_assertions)]
        {
            // Full-scan cross-check: the windowed θ must equal the θ a
            // legacy-style scan over every active link would compute.
            // Replays are simulated locally so counters stay untouched.
            let mut full = f64::INFINITY;
            for &l in &s.stamped {
                let l = l as usize;
                if s.ws_stamp[l] != solve || s.link_count[l] == 0 {
                    continue;
                }
                let ws = s.weight_sum[l];
                let mut c = s.cap[l];
                for &th in &s.thetas[s.replayed[l] as usize..] {
                    c -= th * ws;
                }
                full = full.min(c.max(0.0) / ws);
            }
            if has_caps {
                for &j in &s.capped {
                    let j = j as usize;
                    full = full.min(((s.g_max_rate[j] - out[j]).max(0.0)) / s.g_weight[j]);
                }
            }
            debug_assert!(
                full == theta,
                "candidate window missed the true θ: full-scan {full:e} vs windowed {theta:e}"
            );
        }

        // Raise the level: eager flows advance, candidate links get charged.
        if theta > 0.0 {
            s.thetas.push(theta);
            level += theta;
            for &j in &s.capped {
                let j = j as usize;
                out[j] += theta * s.g_weight[j];
            }
            let now = s.thetas.len() as u32;
            for ci in 0..s.cand.len() {
                let l = s.cand[ci] as usize;
                s.cap[l] -= theta * s.weight_sum[l];
                s.replayed[l] = now;
                tally.links_touched += 1;
            }
        }

        // Collect this round's freeze set: eligible flows on a saturated
        // candidate (the window guarantees every link that can reach
        // `CAP_EPS` this round is a candidate) plus ceiling-frozen flows.
        s.promote.clear();
        {
            let SolveScratch {
                cand,
                cap,
                link_flows,
                frozen,
                freeze_mark,
                freeze_set,
                touch_stamp,
                touch_list,
                ..
            } = &mut *s;
            freeze_set.clear();
            for &l in cand.iter() {
                let l = l as usize;
                touch_link(touch_stamp, touch_list, tc, l);
                if cap[l] <= CAP_EPS {
                    for &j in &link_flows[l] {
                        let ju = j as usize;
                        if !frozen[ju] && !freeze_mark[ju] {
                            freeze_mark[ju] = true;
                            freeze_set.push(j);
                        }
                    }
                }
            }
        }
        if has_caps {
            let SolveScratch {
                capped,
                g_max_rate,
                freeze_mark,
                freeze_set,
                ..
            } = &mut *s;
            for &j in capped.iter() {
                let ju = j as usize;
                if out[ju] >= g_max_rate[ju] * (1.0 - 1e-12) && !freeze_mark[ju] {
                    freeze_mark[ju] = true;
                    freeze_set.push(j);
                }
            }
        }

        if !s.freeze_set.is_empty() {
            tally.freeze_rounds += 1;
            s.freeze_set.sort_unstable();
            let now = s.thetas.len() as u32;
            {
                let SolveScratch {
                    freeze_set,
                    freeze_mark,
                    frozen,
                    span_end,
                    g_weight,
                    g_links,
                    g_egress,
                    cap,
                    replayed,
                    thetas,
                    link_count,
                    weight_sum,
                    egr_count,
                    promote,
                    touch_stamp,
                    touch_list,
                    ..
                } = &mut *s;
                for &j in freeze_set.iter() {
                    let ju = j as usize;
                    freeze_mark[ju] = false;
                    frozen[ju] = true;
                    span_end[ju] = now;
                    unfrozen_count -= 1;
                    let w = g_weight[ju];
                    for &l in &g_links[ju][..max_links] {
                        if l == NO_LINK {
                            continue;
                        }
                        let l = l as usize;
                        tally.links_touched +=
                            replay_link(cap, replayed, thetas, weight_sum[l], l);
                        link_count[l] -= 1;
                        weight_sum[l] = if link_count[l] == 0 {
                            0.0
                        } else {
                            weight_sum[l] - w
                        };
                        touch_link(touch_stamp, touch_list, tc, l);
                    }
                    if !single_band {
                        let e = g_egress[ju] as usize;
                        egr_count[e] -= 1;
                        if egr_count[e] == 0 {
                            promote.push(g_egress[ju]);
                        }
                    }
                }
            }
            if has_caps {
                let frozen = &s.frozen;
                s.capped.retain(|&j| !frozen[j as usize]);
            }
        }

        if !single_band && !s.promote.is_empty() {
            // Band promotion, replicating the legacy two-pass structure
            // over exactly the promoted egresses' unfrozen flows, merged
            // into global creation order (admitted flows from different
            // egresses can share an ingress link, so the weight-sum add
            // order must be global, not per-egress).
            s.promo_ctr += 1;
            let pc = s.promo_ctr;
            let SolveScratch {
                promote,
                promo_stamp,
                promo_flows,
                min_band,
                egr_pos,
                egr_flows,
                frozen,
                g_band,
                g_egress,
                g_weight,
                g_max_rate,
                g_links,
                capped,
                span_start,
                egr_count,
                ws_stamp,
                weight_sum,
                link_count,
                cap,
                replayed,
                thetas,
                link_flows,
                stamped,
                touch_stamp,
                touch_list,
                ..
            } = &mut *s;
            for &e in promote.iter() {
                promo_stamp[e as usize] = pc;
                min_band[e as usize] = NO_BAND;
            }
            promo_flows.clear();
            for &e in promote.iter() {
                let p = egr_pos[e as usize] as usize;
                for &j in &egr_flows[p] {
                    if !frozen[j as usize] {
                        promo_flows.push(j);
                    }
                }
            }
            if promote.len() > 1 {
                promo_flows.sort_unstable();
            }
            for &j in promo_flows.iter() {
                let ju = j as usize;
                let e = g_egress[ju] as usize;
                min_band[e] = min_band[e].min(g_band[ju]);
            }
            let now = thetas.len() as u32;
            for &j in promo_flows.iter() {
                let ju = j as usize;
                let e = g_egress[ju] as usize;
                if g_band[ju] != min_band[e] {
                    continue;
                }
                egr_count[e] += 1;
                span_start[ju] = now;
                if has_caps && g_max_rate[ju].is_finite() {
                    capped.push(j);
                }
                let w = g_weight[ju];
                for &l in &g_links[ju][..max_links] {
                    if l == NO_LINK {
                        continue;
                    }
                    let l = l as usize;
                    if ws_stamp[l] != solve {
                        ws_stamp[l] = solve;
                        weight_sum[l] = 0.0;
                        link_count[l] = 0;
                        cap[l] = link_capacity(topo, n, fab_base, l);
                        link_flows[l].clear();
                        replayed[l] = now;
                        if cfg!(debug_assertions) {
                            stamped.push(l as u32);
                        }
                    } else if link_count[l] == 0 {
                        // Re-activation: the link's capacity was frozen at
                        // its retirement value while inactive (the legacy
                        // kernel never charges inactive links), so pending
                        // θs from the inactive period must be skipped.
                        replayed[l] = now;
                    } else {
                        tally.links_touched +=
                            replay_link(cap, replayed, thetas, weight_sum[l], l);
                    }
                    weight_sum[l] += w;
                    link_count[l] += 1;
                    link_flows[l].push(j);
                    touch_link(touch_stamp, touch_list, tc, l);
                }
            }
        }

        rekey_touched(s, level);
    }

    // --- Deferred fill (sharded D3 when parallel) --------------------------
    if let Some((pool, _)) = par.as_mut() {
        let workers = pool.size();
        let chunk = nf.div_ceil(workers.max(1)).max(1);
        let SolveScratch {
            g_links,
            g_weight,
            g_max_rate,
            span_start,
            span_end,
            thetas,
            ..
        } = &*s;
        let t0 = std::time::Instant::now();
        {
            let mut jobs: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
            let mut rest = &mut out[..nf];
            let mut base = 0usize;
            while base < nf {
                let len = chunk.min(nf - base);
                let (slot, r) = rest.split_at_mut(len);
                rest = r;
                jobs.push(Box::new(move || {
                    for (q, slot_q) in slot.iter_mut().enumerate() {
                        let j = base + q;
                        if g_links[j][0] == NO_LINK {
                            continue;
                        }
                        if has_caps && g_max_rate[j].is_finite() {
                            continue;
                        }
                        let w = g_weight[j];
                        let mut x = 0.0;
                        for &th in &thetas[span_start[j] as usize..span_end[j] as usize] {
                            x += th * w;
                        }
                        *slot_q = x;
                    }
                }));
                base += len;
            }
            pool.run(jobs);
        }
        tally.par_nanos += t0.elapsed().as_nanos() as u64;
    } else {
        for (j, slot) in out.iter_mut().enumerate().take(nf) {
            if s.g_links[j][0] == NO_LINK {
                continue;
            }
            if has_caps && s.g_max_rate[j].is_finite() {
                continue;
            }
            let w = s.g_weight[j];
            let mut x = 0.0;
            for &th in &s.thetas[s.span_start[j] as usize..s.span_end[j] as usize] {
                x += th * w;
            }
            *slot = x;
        }
    }
    tally
}

/// Reusable allocator scratch space. Allocation runs on every network
/// event, so all working buffers are kept and reused across calls, and the
/// solve is decomposed by connected component of the flow/link graph: a
/// partial call ([`MaxMinAllocator::allocate_dirty_into`]) re-solves only
/// components containing a changed ("dirty") host and keeps cached rates
/// everywhere else. The full and partial paths run the identical
/// per-component solve, so their results are bit-for-bit equal — as are
/// single-threaded and pool-dispatched solves (see the module docs).
#[derive(Debug, Default)]
pub struct MaxMinAllocator {
    // One solve scratch per worker; `scratches[0]` serves the sequential
    // path.
    scratches: Vec<SolveScratch>,
    // Union-find over hosts + fabric links, rebuilt per structure change
    // and kept for O(α) host→component lookups between rebuilds.
    parent: Vec<u32>,
    // Nodes linked under another root since the last rebuild — exactly
    // the nodes with `parent[x] != x` — so a rebuild resets only them
    // instead of every host.
    uf_linked: Vec<u32>,
    // Dense component ids in order of first appearance along `flows`,
    // keyed by union-find root (always a host; roots are minima).
    host_comp: Vec<u32>,
    host_comp_stamp: Vec<u64>,
    comp_stamp: u64,
    // CSR layout: component `c` owns flow indices
    // `comp_flows[comp_start[c]..comp_start[c+1]]`, creation order.
    comp_start: Vec<u32>,
    comp_flows: Vec<u32>,
    comp_of: Vec<u32>,
    // Reusable counting-sort cursor for the CSR build.
    cursor: Vec<u32>,
    // Component count of the CSR currently in the buffers, tagged with the
    // flow count it was built for; lets a caller that knows the flow list
    // is unchanged skip the per-call union-find + CSR rebuild.
    cached_structure: Option<(usize, usize)>,
    // Flow indices whose rates the last call (re)wrote — i.e. members of
    // re-solved components — in ascending order. Callers use it to update
    // only the affected downstream state (see `FluidNet::refresh_rates`).
    touched: Vec<u32>,
    // Per-component dirty flags for the current call.
    comp_dirty: Vec<bool>,
    // Dirty component ids of the current call, ascending (canonical order).
    to_solve: Vec<u32>,
    // Dense rate output buffer shared by the sequential and parallel paths.
    par_out: Vec<f64>,
    // Worker pool, created lazily on the first dispatch that wants it.
    pool: Option<WorkerPool>,
    workers: usize,
    // Per-worker shards for intra-component parallel phases.
    intra: Vec<IntraShard>,
    // Which single-component kernel to run (both are bit-identical).
    kernel: AllocKernel,
    // Tunable dispatch thresholds; 0 = unset (use the defaults). The
    // zero-sentinel keeps `Default` derivable.
    par_min_flows: usize,
    par_min_component_flows: usize,
    stats: AllocStats,
}

fn uf_find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        let grand = parent[parent[x as usize] as usize];
        parent[x as usize] = grand;
        x = grand;
    }
    x
}

impl MaxMinAllocator {
    /// Create an allocator (no per-topology state; reusable across calls).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the worker count for component-parallel solves. `0` and `1`
    /// both mean single-threaded. The result is bitwise-identical at any
    /// setting; only wall time changes. Threads spawn lazily on the first
    /// solve big enough to dispatch.
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = workers.max(1);
    }

    /// The configured worker count (1 = single-threaded).
    pub fn workers(&self) -> usize {
        self.workers.max(1)
    }

    /// Select the single-component kernel. Both produce bitwise-identical
    /// rates (and round counts); `legacy` exists as an A/B reference and
    /// escape hatch.
    pub fn set_kernel(&mut self, kernel: AllocKernel) {
        self.kernel = kernel;
    }

    /// The active single-component kernel.
    pub fn kernel(&self) -> AllocKernel {
        self.kernel
    }

    /// Set the minimum total flow count (across dirty components) before a
    /// multi-worker solve dispatches components to the pool. Panics on 0 —
    /// use 1 to always dispatch.
    pub fn set_par_min_flows(&mut self, min_flows: usize) {
        assert!(min_flows > 0, "par_min_flows must be positive");
        self.par_min_flows = min_flows;
    }

    /// The component-dispatch threshold ([`DEFAULT_PAR_MIN_FLOWS`] unless
    /// overridden).
    pub fn par_min_flows(&self) -> usize {
        if self.par_min_flows == 0 {
            DEFAULT_PAR_MIN_FLOWS
        } else {
            self.par_min_flows
        }
    }

    /// Set the minimum flow count of a single component before the
    /// bottleneck kernel shards its gather/weight-sum/fill phases across
    /// the pool. Panics on 0 — use 1 to always shard.
    pub fn set_par_min_component_flows(&mut self, min_flows: usize) {
        assert!(min_flows > 0, "par_min_component_flows must be positive");
        self.par_min_component_flows = min_flows;
    }

    /// The intra-component sharding threshold
    /// ([`DEFAULT_PAR_MIN_COMPONENT_FLOWS`] unless overridden).
    pub fn par_min_component_flows(&self) -> usize {
        if self.par_min_component_flows == 0 {
            DEFAULT_PAR_MIN_COMPONENT_FLOWS
        } else {
            self.par_min_component_flows
        }
    }

    /// Cumulative performance counters for this allocator.
    pub fn stats(&self) -> AllocStats {
        self.stats
    }

    /// Reset the performance counters to zero.
    pub fn reset_stats(&mut self) {
        self.stats = AllocStats::default();
    }

    /// Flow indices written by the most recent allocate call (members of
    /// re-solved components), in ascending order. Flows outside this set
    /// kept their previous rates bit-for-bit, so callers can limit
    /// write-back, telemetry diffing, and completion re-keying to exactly
    /// these indices.
    ///
    /// The indices refer to the `flows` slice of that same call — after
    /// any membership change (departure compaction, arrival) the caller
    /// must consume them before mutating its flow list, or they go stale.
    pub fn last_touched(&self) -> &[u32] {
        &self.touched
    }

    /// Compute rates (bytes/sec) for `flows`, writing into `rates`
    /// (resized to `flows.len()`). Every component is (re)solved.
    ///
    /// Panics if any flow references a host outside `topo` or has a
    /// non-positive weight.
    pub fn allocate_into(&mut self, topo: &Topology, flows: &[FlowDemand], rates: &mut Vec<f64>) {
        let started = std::time::Instant::now();
        rates.clear();
        rates.resize(flows.len(), 0.0);
        self.stats.invocations += 1;
        self.stats.full_solves += 1;
        self.touched.clear();
        // Full solves are rare (once per structure reset), so the API-level
        // validation lives here in release builds; the per-event dirty path
        // checks the same invariants under debug assertions only.
        for f in flows {
            assert!(
                f.weight > 0.0 && f.weight.is_finite(),
                "flow weight must be positive, got {}",
                f.weight
            );
            assert!(
                topo.contains(f.src) && topo.contains(f.dst),
                "flow references host outside topology"
            );
        }
        if !flows.is_empty() {
            let comp_count = self.build_components(topo, flows);
            self.solve_components(topo, flows, rates, comp_count, None);
        }
        self.stats.wall_nanos += started.elapsed().as_nanos() as u64;
    }

    /// Re-solve only the components that contain a host listed in
    /// `dirty_hosts` (host ids; order and duplicates do not matter); for
    /// every flow of an untouched component, `rates[i]` is left exactly as
    /// passed in (the caller supplies the previous allocation). Produces
    /// bit-identical results to [`MaxMinAllocator::allocate_into`]
    /// provided the rates of clean components are indeed unchanged — which
    /// the dirty-host contract guarantees: any input change to a component
    /// lists one of its hosts.
    pub fn allocate_dirty_into(
        &mut self,
        topo: &Topology,
        flows: &[FlowDemand],
        dirty_hosts: &[u32],
        rates: &mut [f64],
    ) {
        self.allocate_dirty_reuse(topo, flows, dirty_hosts, rates, false);
    }

    /// [`MaxMinAllocator::allocate_dirty_into`] with an optional shortcut:
    /// when `structure_unchanged` is true the caller asserts that `flows`
    /// has the same length, order, and endpoints as on the previous call to
    /// this allocator, so the union-find + CSR component structure from
    /// that call is still valid and is reused instead of rebuilt. Band,
    /// weight, and `max_rate` changes do not affect connectivity and are
    /// fine under the shortcut; any insertion, removal, or reordering of
    /// flows is not — a same-tick departure + arrival that leaves the
    /// count unchanged still changes membership and must pass `false`
    /// (the count check below cannot catch it). The hint is ignored (and
    /// the structure rebuilt) if the flow count disagrees with the cached
    /// structure.
    pub fn allocate_dirty_reuse(
        &mut self,
        topo: &Topology,
        flows: &[FlowDemand],
        dirty_hosts: &[u32],
        rates: &mut [f64],
        structure_unchanged: bool,
    ) {
        let started = std::time::Instant::now();
        assert_eq!(
            rates.len(),
            flows.len(),
            "partial solve needs the previous rate for every flow"
        );
        assert!(
            dirty_hosts.iter().all(|&h| topo.contains(HostId(h))),
            "dirty host outside topology"
        );
        self.stats.invocations += 1;
        self.touched.clear();
        if !flows.is_empty() {
            let comp_count = match self.cached_structure {
                Some((len, count)) if structure_unchanged && len == flows.len() => count,
                _ => self.build_components(topo, flows),
            };
            self.solve_components(topo, flows, rates, comp_count, Some(dirty_hosts));
        }
        self.stats.wall_nanos += started.elapsed().as_nanos() as u64;
    }

    /// Convenience wrapper returning a fresh rate vector.
    pub fn allocate(&mut self, topo: &Topology, flows: &[FlowDemand]) -> Vec<f64> {
        let mut rates = Vec::new();
        self.allocate_into(topo, flows, &mut rates);
        rates
    }

    /// Group flows into connected components of the host + fabric-link
    /// graph (loopback flows join their host's component; flows sharing a
    /// routed fabric link are coupled even when they share no host; a
    /// configured aggregate core couples everything into one). Returns the
    /// component count and fills the CSR buffers; component ids follow
    /// first appearance in `flows`, and each component lists its flows in
    /// creation order.
    fn build_components(&mut self, topo: &Topology, flows: &[FlowDemand]) -> usize {
        let n = topo.num_hosts();
        let nf = topo.num_fabric_links();
        // Validation is debug-only: this runs on every network event and
        // the flow lists come from `FluidNet`, which already bounds-checks
        // hosts at flow start. Out-of-range hosts still panic (index OOB)
        // in release, just with a less specific message.
        debug_assert!(
            flows
                .iter()
                .all(|f| f.weight > 0.0 && f.weight.is_finite()),
            "flow weight must be positive and finite"
        );
        debug_assert!(
            flows.iter().all(|f| topo.contains(f.src) && topo.contains(f.dst)),
            "flow references host outside topology"
        );

        self.comp_of.clear();
        self.comp_of.resize(flows.len(), 0);
        let comp_count = if topo.core_capacity().is_some() {
            // The shared core couples every flow's rate to every other's:
            // a single component (the "full solve" fallback).
            1
        } else {
            // Union-find nodes: hosts 0..n, then fabric links n..n+nf. A
            // set containing a fabric node always contains a host (unions
            // only arise from flows) and roots are minima, so every root
            // is a host id.
            if self.parent.len() == n + nf {
                for &x in &self.uf_linked {
                    self.parent[x as usize] = x;
                }
            } else {
                self.parent.clear();
                self.parent.extend(0..(n + nf) as u32);
            }
            self.uf_linked.clear();
            for f in flows {
                if f.src != f.dst {
                    let a = uf_find(&mut self.parent, f.src.0);
                    let b = uf_find(&mut self.parent, f.dst.0);
                    if a != b {
                        self.parent[a.max(b) as usize] = a.min(b);
                        self.uf_linked.push(a.max(b));
                    }
                    for l in topo.route(f.src, f.dst).into_iter().flatten() {
                        let a = uf_find(&mut self.parent, f.src.0);
                        let b = uf_find(&mut self.parent, n as u32 + l.0);
                        if a != b {
                            self.parent[a.max(b) as usize] = a.min(b);
                            self.uf_linked.push(a.max(b));
                        }
                    }
                }
            }
            self.host_comp.resize(n.max(self.host_comp.len()), 0);
            self.host_comp_stamp
                .resize(n.max(self.host_comp_stamp.len()), 0);
            self.comp_stamp += 1;
            let mut count = 0u32;
            for (i, f) in flows.iter().enumerate() {
                let root = uf_find(&mut self.parent, f.src.0) as usize;
                if self.host_comp_stamp[root] != self.comp_stamp {
                    self.host_comp_stamp[root] = self.comp_stamp;
                    self.host_comp[root] = count;
                    count += 1;
                }
                self.comp_of[i] = self.host_comp[root];
            }
            count as usize
        };

        // CSR: counting sort by component id, stable in flow order.
        self.comp_start.clear();
        self.comp_start.resize(comp_count + 1, 0);
        for &c in &self.comp_of {
            self.comp_start[c as usize + 1] += 1;
        }
        for c in 0..comp_count {
            self.comp_start[c + 1] += self.comp_start[c];
        }
        self.comp_flows.clear();
        self.comp_flows.resize(flows.len(), 0);
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.comp_start[..comp_count]);
        for (i, &c) in self.comp_of.iter().enumerate() {
            let slot = self.cursor[c as usize];
            self.comp_flows[slot as usize] = i as u32;
            self.cursor[c as usize] = slot + 1;
        }
        self.cached_structure = Some((flows.len(), comp_count));
        comp_count
    }

    /// Mark the components reachable from the listed dirty hosts, in
    /// O(listed·α) via the persistent union-find — neither the flows nor
    /// the clean hosts are visited: a dirty host resolves to its component
    /// through its root, and dirtiness is lifted onto the fabric tier by
    /// probing the host's rack links — two flows can share a rack uplink
    /// without sharing a host, so a host-only check would wrongly retain
    /// the neighbour's component. Marking is idempotent, so duplicate ids
    /// and list order do not matter.
    fn mark_dirty_components(&mut self, topo: &Topology, dirty: &[u32], comp_count: usize) {
        let n = topo.num_hosts();
        if topo.core_capacity().is_some() {
            // A core capacity couples every flow: bandwidth freed by a
            // departed flow (whose hosts may appear in no surviving
            // demand) can raise other flows' rates through the shared core
            // link. Any dirtiness at all re-solves the single component.
            if !dirty.is_empty() {
                self.comp_dirty[..comp_count].fill(true);
            }
            return;
        }
        let has_fabric = topo.num_fabric_links() > 0;
        for &h in dirty {
            let root = uf_find(&mut self.parent, h) as usize;
            // A root outside the host range or with a stale stamp belongs
            // to no current component (e.g. both endpoints of a departed
            // flow): nothing to re-solve there.
            if root < n && self.host_comp_stamp[root] == self.comp_stamp {
                self.comp_dirty[self.host_comp[root] as usize] = true;
            }
            if has_fabric {
                for l in topo.host_fabric_links(HostId(h)).into_iter().flatten() {
                    let root = uf_find(&mut self.parent, (n + l.0 as usize) as u32) as usize;
                    if root < n && self.host_comp_stamp[root] == self.comp_stamp {
                        self.comp_dirty[self.host_comp[root] as usize] = true;
                    }
                }
            }
        }
    }

    fn solve_components(
        &mut self,
        topo: &Topology,
        flows: &[FlowDemand],
        rates: &mut [f64],
        comp_count: usize,
        dirty_hosts: Option<&[u32]>,
    ) {
        let n = topo.num_hosts();
        let num_links =
            2 * n + topo.num_fabric_links() + usize::from(topo.core_capacity().is_some());

        self.comp_dirty.clear();
        self.comp_dirty.resize(comp_count, dirty_hosts.is_none());
        if let Some(dirty) = dirty_hosts {
            self.mark_dirty_components(topo, dirty, comp_count);
        }

        let comp_start = std::mem::take(&mut self.comp_start);
        let comp_flows = std::mem::take(&mut self.comp_flows);
        let mut to_solve = std::mem::take(&mut self.to_solve);
        let mut par_out = std::mem::take(&mut self.par_out);
        to_solve.clear();
        let mut solved_flows = 0usize;
        for (c, &d) in self.comp_dirty[..comp_count].iter().enumerate() {
            if d {
                to_solve.push(c as u32);
                let idxs = &comp_flows[comp_start[c] as usize..comp_start[c + 1] as usize];
                solved_flows += idxs.len();
                self.touched.extend_from_slice(idxs);
            } else {
                self.stats.components_retained += 1;
            }
        }
        self.stats.components_solved += to_solve.len() as u64;
        self.stats.flows_touched += solved_flows as u64;

        let workers = self.workers.max(1);
        let kernel = self.kernel;
        let use_pool = workers > 1 && to_solve.len() >= 2 && solved_flows >= self.par_min_flows();
        if self.scratches.is_empty() {
            self.scratches.push(SolveScratch::default());
        }

        if !use_pool {
            let par_min_comp = self.par_min_component_flows();
            let comp_range = |c: usize| comp_start[c] as usize..comp_start[c + 1] as usize;
            // Intra-component sharding: only the bottleneck kernel supports
            // it, and only for components at/above the threshold (a giant
            // coupled component is exactly the case pool dispatch can't
            // help with — there is only one component to dispatch).
            let want_intra = kernel == AllocKernel::Bottleneck
                && workers > 1
                && to_solve.iter().any(|&c| {
                    (comp_start[c as usize + 1] - comp_start[c as usize]) as usize >= par_min_comp
                });
            if want_intra {
                if self.pool.as_ref().is_none_or(|p| p.size() != workers) {
                    self.pool = Some(WorkerPool::new(workers));
                }
                if self.intra.len() < workers {
                    self.intra.resize_with(workers, IntraShard::default);
                }
            }
            for &c in &to_solve {
                let idxs = &comp_flows[comp_range(c as usize)];
                par_out.clear();
                par_out.resize(idxs.len(), 0.0);
                let s = &mut self.scratches[0];
                s.ensure(num_links, n, flows.len());
                let tally = match kernel {
                    AllocKernel::Legacy => {
                        solve_component_legacy(s, topo, flows, idxs, &mut par_out)
                    }
                    AllocKernel::Bottleneck => {
                        s.ensure_bn(num_links, n, flows.len());
                        let par = if want_intra && idxs.len() >= par_min_comp {
                            Some((
                                self.pool.as_ref().expect("pool built above"),
                                &mut self.intra[..workers],
                            ))
                        } else {
                            None
                        };
                        solve_component_bottleneck(s, topo, flows, idxs, &mut par_out, par)
                    }
                };
                self.stats.absorb(tally);
                for (j, &i) in idxs.iter().enumerate() {
                    rates[i as usize] = par_out[j];
                }
            }
        } else {
            self.stats.parallel_dispatches += 1;
            let chunks = workers.min(to_solve.len());
            while self.scratches.len() < chunks {
                self.scratches.push(SolveScratch::default());
            }
            for s in &mut self.scratches[..chunks] {
                s.ensure(num_links, n, flows.len());
                if kernel == AllocKernel::Bottleneck {
                    s.ensure_bn(num_links, n, flows.len());
                }
            }
            if self
                .pool
                .as_ref()
                .is_none_or(|p| p.size() != workers)
            {
                self.pool = Some(WorkerPool::new(workers));
            }

            // Dense output offsets per dirty component, canonical order.
            let mut offsets = Vec::with_capacity(to_solve.len());
            let mut acc = 0usize;
            for &c in &to_solve {
                offsets.push(acc);
                acc += (comp_start[c as usize + 1] - comp_start[c as usize]) as usize;
            }
            par_out.clear();
            par_out.resize(solved_flows, 0.0);

            // Contiguous chunks of the canonical component list, balanced
            // by flow count. Chunking only affects which worker solves
            // what — every per-component result is independent of it.
            let target = solved_flows.div_ceil(chunks);
            let mut bounds = Vec::with_capacity(chunks);
            let mut start = 0usize;
            let mut load = 0usize;
            for pos in 0..to_solve.len() {
                let c = to_solve[pos] as usize;
                load += (comp_start[c + 1] - comp_start[c]) as usize;
                let remaining_chunks = chunks - bounds.len();
                let remaining_comps = to_solve.len() - pos - 1;
                if load >= target || remaining_comps < remaining_chunks {
                    bounds.push((start, pos + 1));
                    start = pos + 1;
                    load = 0;
                    if bounds.len() == chunks {
                        break;
                    }
                }
            }
            if start < to_solve.len() {
                bounds.push((start, to_solve.len()));
            }

            let mut rounds_out = vec![KernelTally::default(); bounds.len()];
            let timer = std::time::Instant::now();
            {
                let comp_start = &comp_start[..];
                let comp_flows = &comp_flows[..];
                let to_solve = &to_solve[..];
                let offsets = &offsets[..];
                let mut out_rest = &mut par_out[..];
                let mut taken = 0usize;
                let mut jobs: Vec<Box<dyn FnOnce() + Send + '_>> =
                    Vec::with_capacity(bounds.len());
                let mut scratch_iter = self.scratches[..bounds.len()].iter_mut();
                let mut rounds_iter = rounds_out.iter_mut();
                for &(p0, p1) in &bounds {
                    let chunk_flows: usize = to_solve[p0..p1]
                        .iter()
                        .map(|&c| (comp_start[c as usize + 1] - comp_start[c as usize]) as usize)
                        .sum();
                    let (chunk_out, rest) = out_rest.split_at_mut(chunk_flows);
                    out_rest = rest;
                    let chunk_base = taken;
                    taken += chunk_flows;
                    let s = scratch_iter.next().expect("scratch per chunk");
                    let r = rounds_iter.next().expect("tally per chunk");
                    jobs.push(Box::new(move || {
                        let mut local = KernelTally::default();
                        for (q, &c) in to_solve[p0..p1].iter().enumerate() {
                            let c = c as usize;
                            let idxs =
                                &comp_flows[comp_start[c] as usize..comp_start[c + 1] as usize];
                            let off = offsets[p0 + q] - chunk_base;
                            let chunk_out = &mut chunk_out[off..off + idxs.len()];
                            local.add(match kernel {
                                AllocKernel::Legacy => {
                                    solve_component_legacy(s, topo, flows, idxs, chunk_out)
                                }
                                AllocKernel::Bottleneck => solve_component_bottleneck(
                                    s, topo, flows, idxs, chunk_out, None,
                                ),
                            });
                        }
                        *r = local;
                    }));
                }
                self.pool.as_ref().expect("pool just built").run(jobs);
            }
            self.stats.parallel_wall_nanos += timer.elapsed().as_nanos() as u64;
            for t in &rounds_out {
                self.stats.absorb(*t);
            }

            // Deterministic merge: scatter per-component ranges back in
            // canonical (ascending component id) order.
            for (pos, &c) in to_solve.iter().enumerate() {
                let c = c as usize;
                let idxs = &comp_flows[comp_start[c] as usize..comp_start[c + 1] as usize];
                let off = offsets[pos];
                for (j, &i) in idxs.iter().enumerate() {
                    rates[i as usize] = par_out[off + j];
                }
            }
        }

        self.comp_start = comp_start;
        self.comp_flows = comp_flows;
        self.to_solve = to_solve;
        self.par_out = par_out;
        // CSR order groups by component; downstream consumers iterate
        // `touched` expecting ascending flow order (it keeps telemetry
        // emission order identical to a full scan over the flow list).
        self.touched.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Bandwidth;

    fn topo(hosts: usize, gbps: f64) -> Topology {
        Topology::uniform(hosts, Bandwidth::from_gbps(gbps))
    }

    fn demand(src: u32, dst: u32, band: u8, weight: f64) -> FlowDemand {
        FlowDemand::new(HostId(src), HostId(dst), Band(band), weight)
    }

    const LINK: f64 = 1.25e9; // 10 Gbps in bytes/sec

    #[test]
    fn single_flow_gets_full_link() {
        let t = topo(2, 10.0);
        let mut a = MaxMinAllocator::new();
        let r = a.allocate(&t, &[demand(0, 1, 0, 1.0)]);
        assert!((r[0] - LINK).abs() < 1.0);
    }

    #[test]
    fn equal_flows_split_evenly() {
        let t = topo(3, 10.0);
        let mut a = MaxMinAllocator::new();
        // Two flows leaving host 0 to distinct receivers share its egress.
        let r = a.allocate(&t, &[demand(0, 1, 0, 1.0), demand(0, 2, 0, 1.0)]);
        assert!((r[0] - LINK / 2.0).abs() < 1.0);
        assert!((r[1] - LINK / 2.0).abs() < 1.0);
    }

    #[test]
    fn weights_split_proportionally() {
        let t = topo(3, 10.0);
        let mut a = MaxMinAllocator::new();
        let r = a.allocate(&t, &[demand(0, 1, 0, 3.0), demand(0, 2, 0, 1.0)]);
        assert!((r[0] - 0.75 * LINK).abs() < 1.0, "got {}", r[0]);
        assert!((r[1] - 0.25 * LINK).abs() < 1.0, "got {}", r[1]);
    }

    #[test]
    fn strict_priority_starves_lower_band_same_egress() {
        let t = topo(3, 10.0);
        let mut a = MaxMinAllocator::new();
        let r = a.allocate(&t, &[demand(0, 1, 0, 1.0), demand(0, 2, 1, 1.0)]);
        assert!((r[0] - LINK).abs() < 1.0, "high band takes all: {}", r[0]);
        assert!(r[1] < 1.0, "low band starved: {}", r[1]);
    }

    #[test]
    fn priority_is_local_to_the_egress() {
        // Bands on different senders do not rank against each other: a
        // band-5 flow from an unconfigured host shares a common *ingress*
        // fairly with a band-0 flow from another host. Real tc shapes
        // outbound traffic only.
        let t = topo(3, 10.0);
        let mut a = MaxMinAllocator::new();
        let r = a.allocate(&t, &[demand(0, 2, 0, 1.0), demand(1, 2, 5, 1.0)]);
        assert!((r[0] - LINK / 2.0).abs() < 1.0, "got {}", r[0]);
        assert!((r[1] - LINK / 2.0).abs() < 1.0, "got {}", r[1]);
    }

    #[test]
    fn priority_is_work_conserving() {
        // High-band flow is bottlenecked at its receiver's ingress (shared
        // with another flow into the same receiver), leaving egress headroom
        // that the low-band flow at the same sender picks up.
        let t = topo(4, 10.0);
        let mut a = MaxMinAllocator::new();
        let flows = [
            demand(0, 2, 0, 1.0), // shares ingress of h2
            demand(1, 2, 0, 1.0), // shares ingress of h2
            demand(0, 3, 1, 1.0), // low band, egress of h0
        ];
        let r = a.allocate(&t, &flows);
        assert!((r[0] - LINK / 2.0).abs() < 1.0);
        assert!((r[1] - LINK / 2.0).abs() < 1.0);
        // Low-band flow picks up the other half of h0's egress.
        assert!(
            (r[2] - LINK / 2.0).abs() < 1.0,
            "work conservation: {}",
            r[2]
        );
    }

    #[test]
    fn ingress_contention_limits_fanin() {
        // Twenty senders into one receiver (gradient-update pattern): each
        // gets 1/20 of the receiver's ingress.
        let t = topo(21, 10.0);
        let mut a = MaxMinAllocator::new();
        let flows: Vec<_> = (1..21).map(|s| demand(s, 0, 0, 1.0)).collect();
        let r = a.allocate(&t, &flows);
        for &x in &r {
            assert!((x - LINK / 20.0).abs() < 1.0, "got {x}");
        }
    }

    #[test]
    fn fanout_contention_limits_sender() {
        // One PS sending to 20 workers: each model-update flow gets 1/20 of
        // the PS egress.
        let t = topo(21, 10.0);
        let mut a = MaxMinAllocator::new();
        let flows: Vec<_> = (1..21).map(|d| demand(0, d, 0, 1.0)).collect();
        let r = a.allocate(&t, &flows);
        for &x in &r {
            assert!((x - LINK / 20.0).abs() < 1.0, "got {x}");
        }
    }

    #[test]
    fn loopback_bypasses_nic() {
        let t = topo(2, 10.0);
        let mut a = MaxMinAllocator::new();
        let flows = [demand(0, 0, 0, 1.0), demand(0, 1, 0, 1.0)];
        let r = a.allocate(&t, &flows);
        assert!((r[0] - t.loopback().bytes_per_sec()).abs() < 1.0);
        // The network flow still sees the full link: loopback charged nothing.
        assert!((r[1] - LINK).abs() < 1.0);
    }

    #[test]
    fn two_colocated_ps_fifo_share() {
        // The paper's Figure 4a: two PSes on one host, each with 2 workers,
        // same band (FIFO). All four flows share the sender egress equally.
        let t = topo(5, 10.0);
        let mut a = MaxMinAllocator::new();
        let flows = [
            demand(0, 1, 0, 1.0),
            demand(0, 2, 0, 1.0),
            demand(0, 3, 0, 1.0),
            demand(0, 4, 0, 1.0),
        ];
        let r = a.allocate(&t, &flows);
        for &x in &r {
            assert!((x - LINK / 4.0).abs() < 1.0);
        }
    }

    #[test]
    fn two_colocated_ps_priority_split() {
        // Same scenario under TLs-One: job A in band 0, job B in band 1.
        // Job A's flows split the full link; job B is starved meanwhile.
        let t = topo(5, 10.0);
        let mut a = MaxMinAllocator::new();
        let flows = [
            demand(0, 1, 0, 1.0),
            demand(0, 2, 0, 1.0),
            demand(0, 3, 1, 1.0),
            demand(0, 4, 1, 1.0),
        ];
        let r = a.allocate(&t, &flows);
        assert!((r[0] - LINK / 2.0).abs() < 1.0);
        assert!((r[1] - LINK / 2.0).abs() < 1.0);
        assert!(r[2] < 1.0);
        assert!(r[3] < 1.0);
    }

    #[test]
    fn three_bands_cascade() {
        // Bands 0,1,2 at one egress: band 0 bottlenecked at its ingress
        // (2 flows into one host from elsewhere), band 1 takes the rest,
        // band 2 starves.
        let t = topo(5, 10.0);
        let mut a = MaxMinAllocator::new();
        let flows = [
            demand(0, 2, 0, 1.0), // with flow below, saturates h2 ingress
            demand(1, 2, 0, 1.0),
            demand(0, 3, 1, 1.0), // gets h0's leftover
            demand(0, 4, 2, 1.0), // starved: band 1 uses all leftover
        ];
        let r = a.allocate(&t, &flows);
        assert!((r[0] - LINK / 2.0).abs() < 1.0);
        assert!((r[2] - LINK / 2.0).abs() < 1.0);
        assert!(r[3] < 1.0, "band 2 starved: {}", r[3]);
    }

    #[test]
    fn empty_flow_set() {
        let t = topo(2, 10.0);
        let mut a = MaxMinAllocator::new();
        let r = a.allocate(&t, &[]);
        assert!(r.is_empty());
    }

    #[test]
    fn no_link_oversubscribed_random() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
        let hosts = 8;
        let t = topo(hosts, 10.0);
        let mut a = MaxMinAllocator::new();
        for _ in 0..50 {
            let nf = rng.gen_range(1..40);
            let flows: Vec<_> = (0..nf)
                .map(|_| {
                    demand(
                        rng.gen_range(0..hosts as u32),
                        rng.gen_range(0..hosts as u32),
                        rng.gen_range(0..4),
                        rng.gen_range(0.1..4.0),
                    )
                })
                .collect();
            let r = a.allocate(&t, &flows);
            let mut eg = vec![0.0; hosts];
            let mut ing = vec![0.0; hosts];
            for (f, &x) in flows.iter().zip(&r) {
                assert!(x >= 0.0);
                if f.src != f.dst {
                    eg[f.src.0 as usize] += x;
                    ing[f.dst.0 as usize] += x;
                }
            }
            for h in 0..hosts {
                assert!(eg[h] <= LINK * (1.0 + 1e-9), "egress over: {}", eg[h]);
                assert!(ing[h] <= LINK * (1.0 + 1e-9), "ingress over: {}", ing[h]);
            }
        }
    }

    #[test]
    fn allocation_is_saturating() {
        // No flow is left with zero rate while both of its links have slack
        // (starvation must come from priority, which consumes the slack).
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(11);
        let hosts = 6;
        let t = topo(hosts, 10.0);
        let mut a = MaxMinAllocator::new();
        for _ in 0..20 {
            let nf = rng.gen_range(1..25);
            let flows: Vec<_> = (0..nf)
                .map(|_| {
                    let s = rng.gen_range(0..hosts as u32);
                    let mut d = rng.gen_range(0..hosts as u32);
                    if d == s {
                        d = (d + 1) % hosts as u32;
                    }
                    demand(s, d, rng.gen_range(0..3), 1.0)
                })
                .collect();
            let r = a.allocate(&t, &flows);
            let mut eg = vec![0.0; hosts];
            let mut ing = vec![0.0; hosts];
            for (f, &x) in flows.iter().zip(&r) {
                eg[f.src.0 as usize] += x;
                ing[f.dst.0 as usize] += x;
            }
            for (f, &x) in flows.iter().zip(&r) {
                let egress_full = eg[f.src.0 as usize] >= LINK * (1.0 - 1e-6);
                let ingress_full = ing[f.dst.0 as usize] >= LINK * (1.0 - 1e-6);
                assert!(
                    egress_full || ingress_full || x > 0.0,
                    "flow starved with slack available"
                );
            }
        }
    }

    #[test]
    fn repeated_allocations_are_identical() {
        // The allocator is reused across events; stale scratch state must
        // not leak between calls.
        let t = topo(4, 10.0);
        let mut a = MaxMinAllocator::new();
        let flows = [
            demand(0, 1, 0, 1.3),
            demand(0, 2, 1, 0.7),
            demand(3, 2, 0, 2.0),
        ];
        let r1 = a.allocate(&t, &flows);
        let _ = a.allocate(&t, &[demand(1, 0, 2, 1.0)]);
        let r2 = a.allocate(&t, &flows);
        assert_eq!(r1, r2);
    }

    #[test]
    fn oversubscribed_core_binds_cross_host_traffic() {
        // Four disjoint host pairs, each pair's flow could run at 10 Gbps,
        // but a 2:1 oversubscribed core (20 Gbps for 40 Gbps of edge)
        // halves everyone.
        let t = crate::topology::TopologyBuilder::single_switch(8)
            .core_capacity(Bandwidth::from_gbps(20.0))
            .build();
        let mut a = MaxMinAllocator::new();
        let flows: Vec<_> = (0..4).map(|k| demand(2 * k, 2 * k + 1, 0, 1.0)).collect();
        let r = a.allocate(&t, &flows);
        for &x in &r {
            assert!((x - LINK / 2.0).abs() < 1.0, "core-shared rate {x}");
        }
    }

    #[test]
    fn non_blocking_core_changes_nothing() {
        let t = Topology::uniform(8, Bandwidth::from_gbps(10.0));
        let tc = crate::topology::TopologyBuilder::single_switch(8)
            .core_capacity(Bandwidth::from_gbps(1000.0))
            .build();
        let flows: Vec<_> = (0..4).map(|k| demand(2 * k, 2 * k + 1, 0, 1.0)).collect();
        let mut a = MaxMinAllocator::new();
        assert_eq!(a.allocate(&t, &flows), a.allocate(&tc, &flows));
    }

    #[test]
    fn rate_cap_limits_flow_and_releases_slack() {
        let t = topo(3, 10.0);
        let mut a = MaxMinAllocator::new();
        let flows = [
            demand(0, 1, 0, 1.0).with_max_rate(LINK / 10.0),
            demand(0, 2, 0, 1.0),
        ];
        let r = a.allocate(&t, &flows);
        assert!((r[0] - LINK / 10.0).abs() < 1.0, "capped at ceil: {}", r[0]);
        assert!(
            (r[1] - 0.9 * LINK).abs() < 1.0,
            "slack goes to the uncapped flow: {}",
            r[1]
        );
    }

    #[test]
    fn capped_high_band_releases_lower_band() {
        // A rate-limited band-0 flow must not block band 1 (htb ceil
        // semantics: a class at its ceiling stops borrowing).
        let t = topo(3, 10.0);
        let mut a = MaxMinAllocator::new();
        let flows = [
            demand(0, 1, 0, 1.0).with_max_rate(LINK / 4.0),
            demand(0, 2, 1, 1.0),
        ];
        let r = a.allocate(&t, &flows);
        assert!((r[0] - LINK / 4.0).abs() < 1.0);
        assert!(
            (r[1] - 0.75 * LINK).abs() < 1.0,
            "lower band fills in: {}",
            r[1]
        );
    }

    #[test]
    fn static_rate_allocation_underutilizes() {
        // The §VII pitfall: give each of two flows a "safe" static half-link
        // allocation; when one is absent the other cannot exceed its cap and
        // half the link idles.
        let t = topo(3, 10.0);
        let mut a = MaxMinAllocator::new();
        let r = a.allocate(&t, &[demand(0, 1, 0, 1.0).with_max_rate(LINK / 2.0)]);
        assert!(
            (r[0] - LINK / 2.0).abs() < 1.0,
            "static allocation wastes: {}",
            r[0]
        );
    }

    #[test]
    fn uncapped_is_infinity_and_harmless() {
        let d = demand(0, 1, 0, 1.0);
        assert!(d.max_rate.is_infinite());
        let t = topo(2, 10.0);
        let mut a = MaxMinAllocator::new();
        let r = a.allocate(&t, &[d]);
        assert!((r[0] - LINK).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "ceiling must be positive")]
    fn rejects_zero_cap() {
        let _ = demand(0, 1, 0, 1.0).with_max_rate(0.0);
    }

    #[test]
    #[should_panic(expected = "weight must be positive")]
    fn rejects_zero_weight() {
        let t = topo(2, 10.0);
        let mut a = MaxMinAllocator::new();
        let _ = a.allocate(&t, &[demand(0, 1, 0, 0.0)]);
    }

    #[test]
    fn last_touched_lists_resolved_flows_in_order() {
        let t = topo(6, 10.0);
        let mut a = MaxMinAllocator::new();
        // Three disjoint components: (0,1), (2,3), (4,5).
        let flows = [
            demand(0, 1, 0, 1.0),
            demand(2, 3, 0, 1.0),
            demand(4, 5, 0, 1.0),
        ];
        let mut rates = a.allocate(&t, &flows);
        assert_eq!(a.last_touched(), &[0, 1, 2], "full solve touches all");

        let dirty = [2];
        a.allocate_dirty_into(&t, &flows, &dirty, &mut rates);
        assert_eq!(a.last_touched(), &[1], "only the dirty component");
    }

    #[test]
    fn oversubscribed_uplink_binds_cross_rack_traffic() {
        // 2 racks × 4 hosts, 4:1 oversubscription: each uplink carries
        // 4 × 10 / 4 = 10 Gbps. Four cross-rack flows out of rack 0 share
        // its single uplink even though their NICs could carry 40 Gbps.
        let t = crate::topology::TopologyBuilder::leaf_spine(2, 4, 4.0)
            .link(Bandwidth::from_gbps(10.0))
            .build();
        let mut a = MaxMinAllocator::new();
        let flows: Vec<_> = (0..4).map(|k| demand(k, 4 + k, 0, 1.0)).collect();
        let r = a.allocate(&t, &flows);
        for &x in &r {
            assert!((x - LINK / 4.0).abs() < 1.0, "uplink-shared rate {x}");
        }
    }

    #[test]
    fn rack_local_traffic_ignores_fabric() {
        let t = crate::topology::TopologyBuilder::leaf_spine(2, 4, 4.0)
            .link(Bandwidth::from_gbps(10.0))
            .build();
        let mut a = MaxMinAllocator::new();
        // Same-rack flow runs at full NIC speed regardless of oversub.
        let r = a.allocate(&t, &[demand(0, 1, 0, 1.0)]);
        assert!((r[0] - LINK).abs() < 1.0, "got {}", r[0]);
    }

    #[test]
    fn downlink_contention_limits_fanin_across_racks() {
        // 2:1 oversub, 2 racks × 4 hosts: downlink = 20 Gbps. Four senders
        // in rack 0 target distinct hosts in rack 1; NICs would allow
        // 4 × 10 Gbps but the shared downlink halves everyone.
        let t = crate::topology::TopologyBuilder::leaf_spine(2, 4, 2.0)
            .link(Bandwidth::from_gbps(10.0))
            .build();
        let mut a = MaxMinAllocator::new();
        let flows: Vec<_> = (0..4).map(|k| demand(k, 4 + k, 0, 1.0)).collect();
        let r = a.allocate(&t, &flows);
        for &x in &r {
            assert!((x - LINK / 2.0).abs() < 1.0, "downlink-shared rate {x}");
        }
    }

    #[test]
    fn one_to_one_leaf_spine_matches_single_switch_bitwise() {
        let flat = topo(8, 10.0);
        let ls = crate::topology::TopologyBuilder::leaf_spine(2, 4, 1.0)
            .link(Bandwidth::from_gbps(10.0))
            .build();
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
        let mut a = MaxMinAllocator::new();
        let mut b = MaxMinAllocator::new();
        for _ in 0..20 {
            let nf = rng.gen_range(1..30);
            let flows: Vec<_> = (0..nf)
                .map(|_| {
                    demand(
                        rng.gen_range(0..8),
                        rng.gen_range(0..8),
                        rng.gen_range(0..4),
                        rng.gen_range(0.1..4.0),
                    )
                })
                .collect();
            assert_eq!(a.allocate(&flat, &flows), b.allocate(&ls, &flows));
        }
    }

    #[test]
    fn fabric_coupling_joins_components_across_racks() {
        // Two flows share rack 0's uplink but no host; dirtying one must
        // re-solve the other (they are one component), while a rack-local
        // pair elsewhere stays cached.
        let t = crate::topology::TopologyBuilder::leaf_spine(2, 4, 2.0)
            .link(Bandwidth::from_gbps(10.0))
            .build();
        let mut a = MaxMinAllocator::new();
        let flows = [
            demand(0, 4, 0, 1.0), // rack0 → rack1, via uplink 0
            demand(1, 5, 0, 1.0), // rack0 → rack1, via uplink 0
            demand(6, 7, 0, 1.0), // rack1-local
        ];
        let mut rates = a.allocate(&t, &flows);
        let dirty = [0];
        a.allocate_dirty_into(&t, &flows, &dirty, &mut rates);
        assert_eq!(
            a.last_touched(),
            &[0, 1],
            "uplink-coupled flows form one component; local pair cached"
        );
    }

    #[test]
    fn dirty_reuse_on_fabric_matches_full_solve() {
        let t = crate::topology::TopologyBuilder::leaf_spine(3, 3, 2.0)
            .link(Bandwidth::from_gbps(10.0))
            .build();
        let mut a = MaxMinAllocator::new();
        let mut flows = vec![
            demand(0, 3, 0, 1.2), // rack0 → rack1
            demand(1, 4, 1, 0.8), // rack0 → rack1
            demand(6, 8, 0, 1.0), // rack2-local
        ];
        let mut rates = a.allocate(&t, &flows);
        for f in &mut flows {
            f.band = Band((f.band.0 + 1) % 3);
        }
        let dirty = [0, 1];
        a.allocate_dirty_reuse(&t, &flows, &dirty, &mut rates, true);
        let fresh = MaxMinAllocator::new().allocate(&t, &flows);
        assert_eq!(rates, fresh, "fabric dirty-reuse diverged");
    }

    #[test]
    fn fabric_neighbour_is_resolved_when_link_mate_departs() {
        // Regression: flows 0→2 and 1→3 share rack0's uplink (and rack1's
        // downlink) but no host. When 0→2 departs, only hosts {0, 2} are
        // dirty — a host-only dirty check would retain 1→3's component at
        // its stale uplink half-share instead of letting it claim the freed
        // fabric capacity.
        let t = crate::topology::TopologyBuilder::leaf_spine(2, 2, 4.0)
            .link(Bandwidth::from_gbps(10.0))
            .build();
        let mut a = MaxMinAllocator::new();
        let both = [demand(0, 2, 0, 1.0), demand(1, 3, 0, 1.0)];
        let rates = a.allocate(&t, &both);
        // 4:1 oversubscription: uplink = 2·LINK/4 = LINK/2, split two ways.
        assert!((rates[0] - LINK / 4.0).abs() < 1.0, "got {}", rates[0]);
        assert!((rates[1] - LINK / 4.0).abs() < 1.0, "got {}", rates[1]);

        let survivor = [both[1]];
        let mut partial = vec![rates[1]];
        let dirty = [0, 2];
        a.allocate_dirty_into(&t, &survivor, &dirty, &mut partial);
        let fresh = MaxMinAllocator::new().allocate(&t, &survivor);
        assert!(
            (fresh[0] - LINK / 2.0).abs() < 1.0,
            "survivor alone fills the uplink: {}",
            fresh[0]
        );
        assert_eq!(
            partial[0].to_bits(),
            fresh[0].to_bits(),
            "partial solve kept a stale fabric share: {} vs {}",
            partial[0],
            fresh[0]
        );
        assert_eq!(a.last_touched(), &[0], "survivor's component re-solved");
    }

    /// `rates` after a dirty-list solve must equal a fresh full solve bit
    /// for bit.
    fn assert_matches_full_solve(t: &Topology, flows: &[FlowDemand], rates: &[f64]) {
        let fresh = MaxMinAllocator::new().allocate(t, flows);
        let bits = |r: &[f64]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(rates), bits(&fresh), "dirty-list solve diverged");
    }

    #[test]
    fn duplicate_dirty_hosts_match_a_deduplicated_list() {
        let t = topo(6, 10.0);
        let flows = [
            demand(0, 1, 0, 1.0),
            demand(2, 3, 1, 0.5),
            demand(2, 4, 0, 2.0),
            demand(5, 5, 0, 1.0),
        ];
        let mut a = MaxMinAllocator::new();
        let mut b = MaxMinAllocator::new();
        let mut ra = a.allocate(&t, &flows);
        let mut rb = b.allocate(&t, &flows);
        a.allocate_dirty_into(&t, &flows, &[3, 2, 3, 3, 2], &mut ra);
        b.allocate_dirty_into(&t, &flows, &[2, 3], &mut rb);
        assert_eq!(a.last_touched(), &[1, 2]);
        assert_eq!(a.last_touched(), b.last_touched());
        assert_eq!(a.stats().components_solved, b.stats().components_solved);
        assert_matches_full_solve(&t, &flows, &ra);
        assert_matches_full_solve(&t, &flows, &rb);
    }

    #[test]
    fn dirty_hosts_with_no_surviving_flows_solve_nothing() {
        // Flow 2→3 departs: its endpoints are listed dirty but appear in
        // no surviving demand, so their union-find roots carry a stale
        // stamp. No component may be marked for them — the neighbours'
        // rates are kept verbatim — and the result still equals a full
        // solve.
        let t = topo(6, 10.0);
        let before = [
            demand(0, 1, 0, 1.0),
            demand(2, 3, 0, 1.0),
            demand(4, 5, 0, 1.0),
        ];
        let mut a = MaxMinAllocator::new();
        let rates = a.allocate(&t, &before);
        let after = [before[0], before[2]];
        let mut partial = vec![rates[0], rates[2]];
        a.allocate_dirty_reuse(&t, &after, &[2, 3], &mut partial, false);
        assert!(a.last_touched().is_empty(), "no live component was dirty");
        assert_matches_full_solve(&t, &after, &partial);
        // The same departure with a live neighbour listed re-solves only
        // that neighbour's component.
        a.allocate_dirty_reuse(&t, &after, &[3, 4, 2], &mut partial, true);
        assert_eq!(a.last_touched(), &[1]);
        assert_matches_full_solve(&t, &after, &partial);
    }

    #[test]
    fn rack_link_lifts_dirtiness_from_an_idle_host() {
        // Host 0 carries no flow, but its rack uplink carries 1→5. Listing
        // host 0 must lift onto that uplink and re-solve 1→5's component,
        // while the rack-1-local pair 6→7 stays cached.
        let t = crate::topology::TopologyBuilder::leaf_spine(2, 4, 2.0)
            .link(Bandwidth::from_gbps(10.0))
            .build();
        let mut flows = [demand(1, 5, 0, 1.0), demand(6, 7, 0, 1.0)];
        let mut a = MaxMinAllocator::new();
        let mut rates = a.allocate(&t, &flows);
        flows[0].band = Band(1);
        a.allocate_dirty_reuse(&t, &flows, &[0], &mut rates, true);
        assert_eq!(a.last_touched(), &[0], "lifted via the shared uplink");
        assert_matches_full_solve(&t, &flows, &rates);
    }

    #[test]
    #[should_panic(expected = "dirty host outside topology")]
    fn rejects_dirty_host_outside_topology() {
        let t = topo(2, 10.0);
        let flows = [demand(0, 1, 0, 1.0)];
        let mut a = MaxMinAllocator::new();
        let mut rates = a.allocate(&t, &flows);
        a.allocate_dirty_into(&t, &flows, &[2], &mut rates);
    }

    #[test]
    fn structure_reuse_matches_rebuild_bit_for_bit() {
        let t = topo(6, 10.0);
        let mut a = MaxMinAllocator::new();
        let mut flows = vec![
            demand(0, 1, 0, 1.3),
            demand(0, 2, 1, 0.7),
            demand(0, 3, 0, 2.0),
            demand(4, 5, 0, 1.0),
        ];
        let mut rates = a.allocate(&t, &flows);

        // A band rotation changes no endpoints: the reuse path must agree
        // exactly with a from-scratch allocator seeing the same demands.
        for f in &mut flows {
            f.band = Band((f.band.0 + 1) % 3);
        }
        let dirty = [0];
        a.allocate_dirty_reuse(&t, &flows, &dirty, &mut rates, true);

        let fresh = MaxMinAllocator::new().allocate(&t, &flows);
        assert_eq!(rates[..3], fresh[..3], "reused structure diverged");
        assert_eq!(a.last_touched(), &[0, 1, 2]);

        // A stale hint with a different flow count is ignored, not trusted.
        flows.push(demand(1, 4, 0, 1.0));
        rates.push(0.0);
        let dirty = [1, 4];
        a.allocate_dirty_reuse(&t, &flows, &dirty, &mut rates, true);
        let fresh = MaxMinAllocator::new().allocate(&t, &flows);
        assert_eq!(rates, fresh, "count mismatch must force a rebuild");
    }

    /// One simulated event batch of churn: departures and arrivals applied
    /// in the same tick, exactly as the fluid engine batches them.
    enum ChurnOp {
        /// Remove the flow at this index (compacting, like the engine).
        Remove(usize),
        Add(FlowDemand),
        /// Rotate the band of the flow at this index (non-structural).
        Rotate(usize),
    }

    /// Deterministic pseudo-random churn schedule over `hosts` hosts: a
    /// sequence of same-tick op batches, used by the parallel-identity
    /// and same-tick-churn tests below. The caller applies each batch to
    /// its own (flows, rates) pair in lockstep — the partial-solve
    /// contract requires the previous rate at every surviving index.
    /// `rack` 0 draws endpoints anywhere (cross-rack flows merge into few
    /// large components); `rack = k` keeps each flow inside one k-host
    /// rack, yielding many small components (the parallel-dispatch shape).
    /// With `caps`, a fraction of arrivals carry a finite rate ceiling
    /// (exercising the eager-flow path of the bottleneck kernel).
    fn churn_schedule(
        seed: u64,
        hosts: u32,
        ticks: usize,
        adds_per_tick: u32,
        rack: u32,
        caps: bool,
    ) -> Vec<Vec<ChurnOp>> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let mut len = 0usize;
        let mut schedule = Vec::new();
        for _ in 0..ticks {
            let mut ops = Vec::new();
            if len > 0 && rng.gen_bool(0.6) {
                let drops = rng.gen_range(0..=len / 3 + 1).min(len);
                for _ in 0..drops {
                    ops.push(ChurnOp::Remove(rng.gen_range(0..len)));
                    len -= 1;
                }
            }
            for _ in 0..rng.gen_range(0..adds_per_tick) {
                let (src, dst) = match hosts.checked_div(rack) {
                    None => (rng.gen_range(0..hosts), rng.gen_range(0..hosts)),
                    Some(racks) => {
                        let base = rng.gen_range(0..racks) * rack;
                        (
                            base + rng.gen_range(0..rack),
                            base + rng.gen_range(0..rack),
                        )
                    }
                };
                let mut f = demand(src, dst, rng.gen_range(0..3), rng.gen_range(0.1..4.0));
                if caps && rng.gen_bool(0.4) {
                    // Ceilings from well below fair share to far above it.
                    f = f.with_max_rate(rng.gen_range(0.01..2.0) * 1.25e9);
                }
                ops.push(ChurnOp::Add(f));
                len += 1;
            }
            if len > 0 && rng.gen_bool(0.3) {
                ops.push(ChurnOp::Rotate(rng.gen_range(0..len)));
            }
            schedule.push(ops);
        }
        schedule
    }

    /// Apply one tick's ops to (flows, rates) in lockstep, returning the
    /// dirty-host list — raw, so a host touched twice is listed twice —
    /// and whether membership changed.
    fn apply_ops(
        ops: &[ChurnOp],
        flows: &mut Vec<FlowDemand>,
        rates: &mut Vec<f64>,
    ) -> (Vec<u32>, bool) {
        let mut dirty = Vec::new();
        let mut structural = false;
        for op in ops {
            match *op {
                ChurnOp::Remove(k) => {
                    let k = k.min(flows.len() - 1);
                    let f = flows.remove(k);
                    rates.remove(k);
                    dirty.extend([f.src.0, f.dst.0]);
                    structural = true;
                }
                ChurnOp::Add(f) => {
                    dirty.extend([f.src.0, f.dst.0]);
                    flows.push(f);
                    rates.push(0.0);
                    structural = true;
                }
                ChurnOp::Rotate(k) => {
                    let k = k.min(flows.len() - 1);
                    flows[k].band = Band((flows[k].band.0 + 1) % 3);
                    dirty.push(flows[k].src.0);
                }
            }
        }
        (dirty, structural)
    }

    #[test]
    fn same_tick_departure_and_arrival_matches_full_solve() {
        // The staleness class PR 1 and PR 6 each hit once: departures and
        // arrivals in the same event batch split/reshape components while
        // possibly leaving the flow *count* unchanged (so the reuse-hint
        // length check alone cannot save a caller that wrongly passes
        // `structure_unchanged = true`). The incremental path, driven the
        // way the fluid engine drives it, must match a from-scratch solve
        // bit for bit at every step.
        let t = crate::topology::TopologyBuilder::leaf_spine(3, 4, 2.0)
            .link(Bandwidth::from_gbps(10.0))
            .build();
        let hosts = t.num_hosts();
        for seed in 0..8u64 {
            let mut a = MaxMinAllocator::new();
            let mut flows: Vec<FlowDemand> = Vec::new();
            let mut rates: Vec<f64> = Vec::new();
            for (step, ops) in churn_schedule(seed, hosts as u32, 40, 8, 0, false)
                .iter()
                .enumerate() {
                let (dirty, structural) = apply_ops(ops, &mut flows, &mut rates);
                a.allocate_dirty_reuse(&t, &flows, &dirty, &mut rates, !structural);
                let fresh = MaxMinAllocator::new().allocate(&t, &flows);
                assert_eq!(
                    rates, fresh,
                    "seed {seed} step {step} diverged at {} flows",
                    flows.len()
                );
            }
        }
    }

    #[test]
    fn parallel_solve_is_bitwise_identical_across_worker_counts() {
        // Many disjoint components so the pool actually dispatches: churn
        // across a 16-rack leaf–spine fabric. Workers 2/4/8 must reproduce
        // the single-threaded result bit for bit, through full solves and
        // dirty-partial churn alike.
        let t = crate::topology::TopologyBuilder::leaf_spine(16, 8, 2.0)
            .link(Bandwidth::from_gbps(10.0))
            .build();
        let hosts = t.num_hosts();
        for seed in [1u64, 9, 23] {
            // Rack-local flows keep components small and numerous, the
            // shape that actually reaches the worker pool; heavy arrival
            // pressure pushes past the dispatch threshold.
            let schedule = churn_schedule(seed, hosts as u32, 50, 30, 8, false);
            // Reference: single-threaded.
            let mut reference = MaxMinAllocator::new();
            let mut ref_flows: Vec<FlowDemand> = Vec::new();
            let mut ref_rates: Vec<f64> = Vec::new();
            let mut ref_results = Vec::new();
            for ops in &schedule {
                let (dirty, structural) = apply_ops(ops, &mut ref_flows, &mut ref_rates);
                reference.allocate_dirty_reuse(&t, &ref_flows, &dirty, &mut ref_rates, !structural);
                ref_results.push(ref_rates.clone());
            }
            for workers in [2usize, 4, 8] {
                let mut a = MaxMinAllocator::new();
                a.set_workers(workers);
                let mut flows: Vec<FlowDemand> = Vec::new();
                let mut rates: Vec<f64> = Vec::new();
                for (step, ops) in schedule.iter().enumerate() {
                    let (dirty, structural) = apply_ops(ops, &mut flows, &mut rates);
                    a.allocate_dirty_reuse(&t, &flows, &dirty, &mut rates, !structural);
                    let same = rates
                        .iter()
                        .zip(&ref_results[step])
                        .all(|(x, y)| x.to_bits() == y.to_bits());
                    assert!(
                        same,
                        "seed {seed} step {step}: {workers}-worker solve diverged"
                    );
                }
                assert!(
                    a.stats().parallel_dispatches > 0,
                    "churn workload never reached the pool at {workers} workers — \
                     the test is not exercising the parallel path"
                );
            }
        }
    }

    #[test]
    fn parallel_full_solve_matches_single_threaded_on_dense_grid() {
        // A full solve over hundreds of single-rack components, well past
        // PAR_MIN_FLOWS: the parallel scatter must be a bitwise no-op
        // relative to sequential.
        let t = crate::topology::TopologyBuilder::leaf_spine(32, 8, 2.0)
            .link(Bandwidth::from_gbps(10.0))
            .build();
        let mut flows = Vec::new();
        for rack in 0..32u32 {
            let base = rack * 8;
            for k in 0..6u32 {
                flows.push(demand(
                    base + k % 8,
                    base + (k + 1) % 8,
                    (k % 3) as u8,
                    1.0 + k as f64 * 0.37,
                ));
            }
        }
        let mut seq = MaxMinAllocator::new();
        let seq_rates = seq.allocate(&t, &flows);
        for workers in [2usize, 4, 8] {
            let mut par = MaxMinAllocator::new();
            par.set_workers(workers);
            let par_rates = par.allocate(&t, &flows);
            assert_eq!(
                par.stats().parallel_dispatches,
                1,
                "{workers}-worker full solve should dispatch"
            );
            let same = seq_rates
                .iter()
                .zip(&par_rates)
                .all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(same, "{workers}-worker full solve diverged");
        }
    }

    #[test]
    fn defaults_unchanged() {
        // Guards the satellite contract: making the thresholds tunable must
        // not move the defaults, and the bottleneck kernel is the default.
        let a = MaxMinAllocator::new();
        assert_eq!(a.kernel(), AllocKernel::Bottleneck);
        assert_eq!(a.par_min_flows(), 128);
        assert_eq!(a.par_min_component_flows(), 4096);
        assert_eq!(DEFAULT_PAR_MIN_FLOWS, 128);
        assert_eq!(DEFAULT_PAR_MIN_COMPONENT_FLOWS, 4096);
        assert_eq!(AllocKernel::parse("legacy"), Some(AllocKernel::Legacy));
        assert_eq!(
            AllocKernel::parse(" Bottleneck "),
            Some(AllocKernel::Bottleneck)
        );
        assert_eq!(AllocKernel::parse("fast"), None);
        assert_eq!(AllocKernel::Legacy.label(), "legacy");
        assert_eq!(AllocKernel::Bottleneck.label(), "bottleneck");
    }

    #[test]
    #[should_panic(expected = "par_min_flows must be positive")]
    fn par_min_flows_rejects_zero() {
        MaxMinAllocator::new().set_par_min_flows(0);
    }

    #[test]
    #[should_panic(expected = "par_min_component_flows must be positive")]
    fn par_min_component_flows_rejects_zero() {
        MaxMinAllocator::new().set_par_min_component_flows(0);
    }

    /// Drive one churn schedule through a legacy and a bottleneck
    /// allocator in lockstep, asserting bitwise-equal rates at every step
    /// and equal round/freeze tallies at the end.
    fn assert_kernels_lockstep(t: &Topology, schedule: &[Vec<ChurnOp>], label: &str) {
        let mut legacy = MaxMinAllocator::new();
        legacy.set_kernel(AllocKernel::Legacy);
        let mut bn = MaxMinAllocator::new();
        bn.set_kernel(AllocKernel::Bottleneck);
        let mut lf: Vec<FlowDemand> = Vec::new();
        let mut lr: Vec<f64> = Vec::new();
        let mut bf: Vec<FlowDemand> = Vec::new();
        let mut br: Vec<f64> = Vec::new();
        for (step, ops) in schedule.iter().enumerate() {
            let (dirty, structural) = apply_ops(ops, &mut lf, &mut lr);
            apply_ops(ops, &mut bf, &mut br);
            legacy.allocate_dirty_reuse(t, &lf, &dirty, &mut lr, !structural);
            bn.allocate_dirty_reuse(t, &bf, &dirty, &mut br, !structural);
            let same = lr.iter().zip(&br).all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(
                same,
                "{label} step {step}: kernels diverged at {} flows",
                lf.len()
            );
        }
        // Both kernels execute the identical round sequence.
        assert_eq!(legacy.stats().rounds, bn.stats().rounds, "{label}: rounds");
        assert_eq!(
            legacy.stats().freeze_rounds,
            bn.stats().freeze_rounds,
            "{label}: freeze rounds"
        );
        assert_eq!(legacy.stats().heap_pops, 0);
        assert!(bn.stats().heap_pops > 0, "{label}: heap never engaged");
    }

    #[test]
    fn kernels_are_bitwise_identical_under_churn_single_switch() {
        let t = topo(12, 10.0);
        for seed in [2u64, 7, 19, 41] {
            let schedule = churn_schedule(seed, 12, 40, 10, 0, true);
            assert_kernels_lockstep(&t, &schedule, &format!("single-switch seed {seed}"));
        }
    }

    #[test]
    fn kernels_are_bitwise_identical_under_churn_leaf_spine() {
        let t = crate::topology::TopologyBuilder::leaf_spine(4, 4, 2.0)
            .link(Bandwidth::from_gbps(10.0))
            .build();
        for seed in [3u64, 11, 29] {
            let schedule = churn_schedule(seed, 16, 40, 12, 0, true);
            assert_kernels_lockstep(&t, &schedule, &format!("leaf-spine seed {seed}"));
        }
    }

    #[test]
    fn kernels_match_with_aggregate_core() {
        // The core couples everything into one component (the giant-
        // component shape, in miniature) and adds the fifth link slot.
        let t = crate::topology::TopologyBuilder::single_switch(10)
            .link(Bandwidth::from_gbps(10.0))
            .core_capacity(Bandwidth::from_gbps(25.0))
            .build();
        for seed in [5u64, 17] {
            let schedule = churn_schedule(seed, 10, 30, 8, 0, true);
            assert_kernels_lockstep(&t, &schedule, &format!("core seed {seed}"));
        }
    }

    /// One giant coupled component (colocated PS stars): every group's
    /// workers fan into a PS on a shared host set, so all jobs join one
    /// component — the 500h×200j shape in miniature.
    fn giant_component_flows(hosts: u32, jobs: u32, workers_per_job: u32) -> Vec<FlowDemand> {
        let mut flows = Vec::new();
        for job in 0..jobs {
            let ps = job % 3; // colocated PS hosts couple all jobs
            for w in 0..workers_per_job {
                let src = 3 + (job * workers_per_job + w) % (hosts - 3);
                flows.push(demand(src, ps, (job % 3) as u8, 1.0 + (w as f64) * 0.13));
            }
        }
        flows
    }

    #[test]
    fn intra_component_sharding_is_bitwise_identical() {
        let t = topo(40, 10.0);
        let flows = giant_component_flows(40, 18, 6);
        let mut seq = MaxMinAllocator::new();
        let seq_rates = seq.allocate(&t, &flows);
        assert_eq!(seq.stats().parallel_dispatches, 0);
        for workers in [2usize, 4, 8] {
            let mut par = MaxMinAllocator::new();
            par.set_workers(workers);
            par.set_par_min_component_flows(8);
            let par_rates = par.allocate(&t, &flows);
            assert!(
                par.stats().parallel_dispatches > 0,
                "{workers}-worker giant component should engage intra sharding"
            );
            let same = seq_rates
                .iter()
                .zip(&par_rates)
                .all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(same, "{workers}-worker intra-component solve diverged");
            assert_eq!(seq.stats().rounds, par.stats().rounds);
        }
    }

    #[test]
    fn threshold_boundary_is_bitwise_identical() {
        // A component exactly at the sharding threshold must produce the
        // same bits whether the threshold admits it or excludes it.
        let t = topo(24, 10.0);
        let flows = giant_component_flows(24, 10, 5); // exactly 50 flows
        assert_eq!(flows.len(), 50);
        let mut base = MaxMinAllocator::new();
        let base_rates = base.allocate(&t, &flows);
        for (threshold, engages) in [(50usize, true), (51usize, false)] {
            let mut a = MaxMinAllocator::new();
            a.set_workers(4);
            a.set_par_min_component_flows(threshold);
            let rates = a.allocate(&t, &flows);
            assert_eq!(
                a.stats().parallel_dispatches > 0,
                engages,
                "threshold {threshold}: wrong engagement"
            );
            let same = base_rates
                .iter()
                .zip(&rates)
                .all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(same, "threshold {threshold} changed the output bits");
        }
    }

    #[test]
    fn intra_sharding_matches_under_multi_band_cap_churn() {
        // Promotions + ceilings + dirty-partial churn with intra sharding
        // forced on: the hardest composite path. Reference is the legacy
        // kernel, single-threaded.
        let t = topo(16, 10.0);
        let schedule = churn_schedule(13, 16, 30, 20, 0, true);
        let mut legacy = MaxMinAllocator::new();
        legacy.set_kernel(AllocKernel::Legacy);
        let mut bn = MaxMinAllocator::new();
        bn.set_workers(4);
        bn.set_par_min_flows(usize::MAX >> 1); // keep component dispatch off
        bn.set_par_min_component_flows(4); // force intra sharding on
        let mut lf: Vec<FlowDemand> = Vec::new();
        let mut lr: Vec<f64> = Vec::new();
        let mut bf: Vec<FlowDemand> = Vec::new();
        let mut br: Vec<f64> = Vec::new();
        for (step, ops) in schedule.iter().enumerate() {
            let (dirty, structural) = apply_ops(ops, &mut lf, &mut lr);
            apply_ops(ops, &mut bf, &mut br);
            legacy.allocate_dirty_reuse(&t, &lf, &dirty, &mut lr, !structural);
            bn.allocate_dirty_reuse(&t, &bf, &dirty, &mut br, !structural);
            let same = lr.iter().zip(&br).all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(same, "step {step}: sharded bottleneck diverged from legacy");
        }
        assert!(bn.stats().parallel_dispatches > 0);
        assert_eq!(legacy.stats().rounds, bn.stats().rounds);
    }
}

