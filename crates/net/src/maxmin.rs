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

use crate::topology::Topology;
use crate::types::{Band, HostId};

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
    /// Rounds that froze at least one flow.
    pub freeze_rounds: u64,
    /// Per-link work units: one per active link per round (the θ rescan).
    pub links_touched: u64,
}

/// Per-solve round/work tally returned by the kernel and folded into
/// [`AllocStats`] by the caller.
#[derive(Debug, Default, Clone, Copy)]
struct KernelTally {
    rounds: u64,
    freeze_rounds: u64,
    links_touched: u64,
}

impl AllocStats {
    /// The deterministic counters under their exported names, in export
    /// order: the one list the telemetry registry, `repro --experiment
    /// perf` and `repro --profile` all read. `wall_nanos` stays out, since
    /// exported metrics must not depend on the machine that produced them.
    pub fn counters(&self) -> [(&'static str, u64); 8] {
        [
            ("alloc.invocations", self.invocations),
            ("alloc.full_solves", self.full_solves),
            ("alloc.components_solved", self.components_solved),
            ("alloc.components_retained", self.components_retained),
            ("alloc.rounds", self.rounds),
            ("alloc.freeze_rounds", self.freeze_rounds),
            ("alloc.links_touched", self.links_touched),
            ("alloc.flows_touched", self.flows_touched),
        ]
    }

    fn absorb(&mut self, t: KernelTally) {
        self.rounds += t.rounds;
        self.freeze_rounds += t.freeze_rounds;
        self.links_touched += t.links_touched;
    }
}

/// Sentinel for "no unfrozen flow at this egress".
const NO_BAND: u16 = u16::MAX;
/// Sentinel for an absent link slot in a flow's cached link set.
const NO_LINK: u32 = u32::MAX;

/// Scratch for the dense component solve: link accumulators (`cap`,
/// `weight_sum`, per-egress band minima), reused across components and
/// calls. The gather arrays hold the component's flows densely (creation
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
}

/// Progressive filling restricted to one component: every round rescans
/// the component's active links for the minimum saturation step θ.
/// O(rounds × (links + flows)). `idxs` lists the
/// component's flows in creation order; the flows' rates are written
/// densely into `out` (same order as `idxs`). Returns the round tally.
fn solve_component(
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

/// Reusable allocator scratch space. Allocation runs on every network
/// event, so all working buffers are kept and reused across calls, and the
/// solve is decomposed by connected component of the flow/link graph: a
/// partial call ([`MaxMinAllocator::allocate_dirty_into`]) re-solves only
/// components containing a changed ("dirty") host and keeps cached rates
/// everywhere else. The full and partial paths run the identical
/// per-component solve, so their results are bit-for-bit equal.
#[derive(Debug, Default)]
pub struct MaxMinAllocator {
    scratch: SolveScratch,
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
    // Dense rate output of the component being solved, in its flow order.
    comp_rates: Vec<f64>,
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

        // Dirty components are solved one after another in ascending id
        // (canonical) order; each writes only its own flows' rates.
        let s = &mut self.scratch;
        s.ensure(num_links, n, flows.len());
        for (c, &dirty) in self.comp_dirty[..comp_count].iter().enumerate() {
            if !dirty {
                self.stats.components_retained += 1;
                continue;
            }
            let (lo, hi) = (self.comp_start[c] as usize, self.comp_start[c + 1] as usize);
            let idxs = &self.comp_flows[lo..hi];
            self.stats.components_solved += 1;
            self.stats.flows_touched += idxs.len() as u64;
            self.touched.extend_from_slice(idxs);
            let out = &mut self.comp_rates;
            out.clear();
            out.resize(idxs.len(), 0.0);
            let tally = solve_component(s, topo, flows, idxs, out);
            self.stats.absorb(tally);
            for (&i, &r) in idxs.iter().zip(out.iter()) {
                rates[i as usize] = r;
            }
        }
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
    /// sequence of same-tick op batches, used by the same-tick-churn and
    /// rack-local churn tests below. The caller applies each batch to
    /// its own (flows, rates) pair in lockstep — the partial-solve
    /// contract requires the previous rate at every surviving index.
    /// `rack` 0 draws endpoints anywhere (cross-rack flows merge into few
    /// large components); `rack = k` keeps each flow inside one k-host
    /// rack, yielding many small components (the `scale --xl` shape).
    /// With `caps`, a fraction of arrivals carry a finite rate ceiling.
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

    // --- Independent oracle -------------------------------------------------
    //
    // The evidence that the kernel is right comes from code that shares none
    // of its machinery: a slow water-filling written from the module docs,
    // and a certificate that checks a rate vector without solving anything.

    /// A link as the module docs name it, independent of the kernel's dense
    /// link ids.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum SpecLink {
        Egress(u32),
        Ingress(u32),
        Fabric(u32),
        Core,
    }

    /// The links flow `f` crosses (none for loopback).
    fn spec_links(t: &Topology, f: &FlowDemand) -> Vec<SpecLink> {
        if f.src == f.dst {
            return Vec::new();
        }
        let mut links = vec![SpecLink::Egress(f.src.0), SpecLink::Ingress(f.dst.0)];
        let route = t.route(f.src, f.dst).into_iter().flatten();
        links.extend(route.map(|l| SpecLink::Fabric(l.0)));
        if t.core_capacity().is_some() {
            links.push(SpecLink::Core);
        }
        links
    }

    fn spec_capacity(t: &Topology, l: SpecLink) -> f64 {
        match l {
            SpecLink::Egress(h) => t.egress(HostId(h)).bytes_per_sec(),
            SpecLink::Ingress(h) => t.ingress(HostId(h)).bytes_per_sec(),
            SpecLink::Fabric(l) => t.fabric_capacity(crate::types::LinkId(l)).bytes_per_sec(),
            SpecLink::Core => t.core_capacity().expect("core link").bytes_per_sec(),
        }
    }

    /// Rate carried by every link: the sum over the flows that cross it,
    /// summed from scratch.
    fn link_loads(
        t: &Topology,
        flows: &[FlowDemand],
        rates: &[f64],
    ) -> std::collections::BTreeMap<SpecLink, f64> {
        let mut load = std::collections::BTreeMap::new();
        for (f, &x) in flows.iter().zip(rates) {
            for l in spec_links(t, f) {
                *load.entry(l).or_insert(0.0) += x;
            }
        }
        load
    }

    /// Reference water-filling, straight from the module docs: every round,
    /// the eligible flows are the unfrozen ones in the lowest unfrozen band
    /// at their egress; every link's residual capacity and eligible weight
    /// sum are recomputed from scratch; the common level rises by the
    /// smallest step that saturates a link or brings a flow to its ceiling;
    /// then eligible flows on a saturated link or at their ceiling freeze.
    fn reference_rates(t: &Topology, flows: &[FlowDemand]) -> Vec<f64> {
        use std::collections::BTreeMap;
        // A link is saturated once its residual is below this share of its
        // capacity: far above the rounding of a from-scratch sum, far below
        // any rate the comparison resolves.
        const SAT_REL: f64 = 1e-12;
        let links: Vec<Vec<SpecLink>> = flows.iter().map(|f| spec_links(t, f)).collect();
        let loopback = t.loopback().bytes_per_sec();
        let mut rate: Vec<f64> = links
            .iter()
            .map(|ls| if ls.is_empty() { loopback } else { 0.0 })
            .collect();
        let mut frozen: Vec<bool> = links.iter().map(|ls| ls.is_empty()).collect();
        let mut rounds = 0;
        while frozen.contains(&false) {
            rounds += 1;
            assert!(rounds <= flows.len(), "reference water-filling did not converge");
            let mut top_band: BTreeMap<u32, u8> = BTreeMap::new();
            for (f, _) in flows.iter().zip(&frozen).filter(|(_, &z)| !z) {
                let b = top_band.entry(f.src.0).or_insert(f.band.0);
                *b = (*b).min(f.band.0);
            }
            let eligible: Vec<bool> = flows
                .iter()
                .zip(&frozen)
                .map(|(f, &z)| !z && f.band.0 == top_band[&f.src.0])
                .collect();
            let mut weight: BTreeMap<SpecLink, f64> = BTreeMap::new();
            for (i, ls) in links.iter().enumerate().filter(|&(i, _)| eligible[i]) {
                for &l in ls {
                    *weight.entry(l).or_insert(0.0) += flows[i].weight;
                }
            }
            let load = link_loads(t, flows, &rate);
            let mut theta = f64::INFINITY;
            for (l, w) in &weight {
                theta = theta.min((spec_capacity(t, *l) - load[l]).max(0.0) / w);
            }
            for (i, f) in flows.iter().enumerate().filter(|&(i, _)| eligible[i]) {
                theta = theta.min((f.max_rate - rate[i]).max(0.0) / f.weight);
            }
            assert!(theta.is_finite(), "eligible flows but no constraint");
            for (i, f) in flows.iter().enumerate().filter(|&(i, _)| eligible[i]) {
                rate[i] += theta * f.weight;
            }
            let load = link_loads(t, flows, &rate);
            let saturated = |l: &SpecLink| load[l] >= spec_capacity(t, *l) * (1.0 - SAT_REL);
            for (i, f) in flows.iter().enumerate().filter(|&(i, _)| eligible[i]) {
                let at_ceiling = rate[i] >= f.max_rate * (1.0 - SAT_REL);
                if at_ceiling || links[i].iter().any(saturated) {
                    frozen[i] = true;
                }
            }
        }
        rate
    }

    /// Relative slack of the certificate's capacity comparisons.
    const CERT_REL: f64 = 1e-9;

    /// Optimality certificate, checked without solving anything:
    ///
    /// 1. feasibility: rates are non-negative and within their ceilings,
    ///    loopback flows run at loopback speed, and no link carries more
    ///    than its capacity;
    /// 2. bottlenecks: every non-loopback flow below its ceiling crosses a
    ///    saturated link;
    /// 3. `net.band_order`: a flow below its ceiling whose egress also
    ///    serves a lower-priority (higher band) flow at a non-zero rate
    ///    crosses a saturated link other than that egress — had the egress
    ///    been its bottleneck, the lower band would never have been served.
    fn check_certificate(t: &Topology, flows: &[FlowDemand], rates: &[f64]) -> Result<(), String> {
        let load = link_loads(t, flows, rates);
        let cap = |l: SpecLink| spec_capacity(t, l);
        for (l, &x) in &load {
            if x > cap(*l) * (1.0 + CERT_REL) {
                return Err(format!("{l:?} carries {x} B/s > capacity {}", cap(*l)));
            }
        }
        let saturated = |l: &SpecLink| load[l] >= cap(*l) * (1.0 - CERT_REL);
        let below_ceiling = |i: usize| rates[i] < flows[i].max_rate * (1.0 - CERT_REL);
        for (i, f) in flows.iter().enumerate() {
            let x = rates[i];
            let links = spec_links(t, f);
            if links.is_empty() {
                // Loopback never touches the NIC, and ceilings shape only
                // NIC traffic.
                if x != t.loopback().bytes_per_sec() {
                    return Err(format!("loopback flow {i} runs at {x} B/s"));
                }
                continue;
            }
            if !(x >= 0.0 && x <= f.max_rate * (1.0 + CERT_REL)) {
                return Err(format!("flow {i} rate {x} outside [0, {}]", f.max_rate));
            }
            if below_ceiling(i) && !links.iter().any(saturated) {
                return Err(format!("flow {i} ({f:?}) at {x} B/s crosses no saturated link"));
            }
        }
        for (i, f) in flows.iter().enumerate() {
            if f.src == f.dst || !below_ceiling(i) {
                continue;
            }
            let floor = CERT_REL * cap(SpecLink::Egress(f.src.0));
            let lower_served = flows.iter().zip(rates).any(|(g, &y)| {
                g.src == f.src && g.dst != g.src && g.band > f.band && y > floor
            });
            let elsewhere = spec_links(t, f)
                .iter()
                .any(|l| *l != SpecLink::Egress(f.src.0) && saturated(l));
            if lower_served && !elsewhere {
                return Err(format!(
                    "flow {i} in band {} at host {} is below its ceiling while a \
                     lower-priority flow sends, yet only its egress is saturated",
                    f.band.0, f.src.0
                ));
            }
        }
        Ok(())
    }

    /// Kernel rates must match the reference within 1e-9 relative, with the
    /// link capacity as the scale for rates near zero, and must satisfy
    /// the certificate.
    fn check_against_oracle(
        t: &Topology,
        flows: &[FlowDemand],
        rates: &[f64],
    ) -> Result<(), String> {
        check_certificate(t, flows, rates)?;
        let want = reference_rates(t, flows);
        for (i, (&x, &y)) in rates.iter().zip(&want).enumerate() {
            let scale = x.abs().max(y.abs()).max(t.egress(flows[i].src).bytes_per_sec());
            if (x - y).abs() > 1e-9 * scale {
                return Err(format!("flow {i} ({:?}): kernel {x} vs reference {y}", flows[i]));
            }
        }
        Ok(())
    }

    #[test]
    fn oracle_reproduces_hand_computed_allocations() {
        // The reference and the certificate are themselves checked on
        // allocations computed by hand in the tests above.
        let t = topo(5, 10.0);
        let flows = [
            demand(0, 2, 0, 1.0),
            demand(1, 2, 0, 1.0),
            demand(0, 3, 1, 1.0),
            demand(0, 4, 2, 1.0),
        ];
        let want = [LINK / 2.0, LINK / 2.0, LINK / 2.0, 0.0];
        assert_eq!(reference_rates(&t, &flows), want);
        check_certificate(&t, &flows, &want).unwrap();
        // Starving band 1 while band 2 sends breaks the band-order rule.
        let inverted = [LINK / 2.0, LINK / 2.0, 0.0, LINK / 2.0];
        let err = check_certificate(&t, &flows, &inverted).unwrap_err();
        assert!(err.contains("lower-priority"), "{err}");
        // Leaving headroom on every link of a flow breaks the bottleneck rule.
        let slack = [LINK / 4.0, LINK / 2.0, LINK / 2.0, 0.0];
        let err = check_certificate(&t, &flows, &slack).unwrap_err();
        assert!(err.contains("no saturated link"), "{err}");
        // Overfilling a link breaks feasibility.
        let over = [LINK / 2.0, LINK * 0.6, LINK / 2.0, 0.0];
        let err = check_certificate(&t, &flows, &over).unwrap_err();
        assert!(err.contains("capacity"), "{err}");
    }

    /// `got` matches `want` within 1e-9 of the link rate.
    fn assert_rates_near(got: &[f64], want: &[f64]) {
        assert_eq!(got.len(), want.len());
        for (i, (&x, &y)) in got.iter().zip(want).enumerate() {
            assert!((x - y).abs() <= 1e-9 * LINK, "flow {i}: {x} vs {y}");
        }
    }

    #[test]
    fn oracle_honours_ceilings_and_releases_slack() {
        // The hand-computed ceiling cases above: a capped flow keeps its
        // ceiling and the slack goes to its egress mate, in the same band
        // or in a lower one.
        let t = topo(3, 10.0);
        let same_band = [
            demand(0, 1, 0, 1.0).with_max_rate(LINK / 10.0),
            demand(0, 2, 0, 1.0),
        ];
        let want = [LINK / 10.0, 0.9 * LINK];
        assert_rates_near(&reference_rates(&t, &same_band), &want);
        check_certificate(&t, &same_band, &want).unwrap();
        let lower_band = [
            demand(0, 1, 0, 1.0).with_max_rate(LINK / 4.0),
            demand(0, 2, 1, 1.0),
        ];
        let want = [LINK / 4.0, 0.75 * LINK];
        assert_rates_near(&reference_rates(&t, &lower_band), &want);
        check_certificate(&t, &lower_band, &want).unwrap();
        // Running a capped flow past its ceiling breaks feasibility even
        // when every link has room for it.
        let err = check_certificate(&t, &same_band, &[LINK / 5.0, 0.8 * LINK]).unwrap_err();
        assert!(err.contains("outside"), "{err}");
    }

    #[test]
    fn oracle_binds_on_fabric_and_core_links() {
        // Four flows from rack 0 to rack 1, each to its own receiver: at
        // 4:1 the shared uplink carries 10 Gbps, at 2:1 the downlink 20;
        // behind a 20 Gbps aggregate core the same pattern halves too.
        let flows: Vec<_> = (0..4).map(|k| demand(k, 4 + k, 0, 1.0)).collect();
        let spine = |oversub| {
            crate::topology::TopologyBuilder::leaf_spine(2, 4, oversub)
                .link(Bandwidth::from_gbps(10.0))
                .build()
        };
        let core = crate::topology::TopologyBuilder::single_switch(8)
            .core_capacity(Bandwidth::from_gbps(20.0))
            .build();
        for (t, share) in [(spine(4.0), LINK / 4.0), (spine(2.0), LINK / 2.0), (core, LINK / 2.0)] {
            let want = vec![share; flows.len()];
            assert_rates_near(&reference_rates(&t, &flows), &want);
            check_certificate(&t, &flows, &want).unwrap();
            // Twice the fair share fits every NIC but not the shared link.
            let err = check_certificate(&t, &flows, &vec![2.0 * share; flows.len()]).unwrap_err();
            assert!(err.contains("capacity"), "{err}");
        }
    }

    #[test]
    fn oracle_serves_loopback_at_loopback_speed() {
        // A loopback flow bypasses the NIC: it runs at loopback speed and
        // takes nothing from a flow leaving the same host.
        let t = topo(2, 10.0);
        let flows = [demand(0, 0, 0, 1.0), demand(0, 1, 1, 1.0)];
        let want = [t.loopback().bytes_per_sec(), LINK];
        assert_eq!(reference_rates(&t, &flows), want);
        check_certificate(&t, &flows, &want).unwrap();
        let err = check_certificate(&t, &flows, &[LINK, LINK]).unwrap_err();
        assert!(err.contains("loopback"), "{err}");
        let err = check_certificate(&t, &flows, &[want[0], -1.0]).unwrap_err();
        assert!(err.contains("outside"), "{err}");
    }

    /// 32 racks of 8 hosts on a 2:1 leaf-spine, six rack-local flows per
    /// rack in three bands: one small component per rack, the `scale --xl`
    /// shape. Rack `r` owns flows `6r..6r + 6`.
    fn rack_local_grid() -> (Topology, Vec<FlowDemand>) {
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
        (t, flows)
    }

    #[test]
    fn many_rack_local_components_match_reference() {
        let (t, flows) = rack_local_grid();
        let mut a = MaxMinAllocator::new();
        let rates = a.allocate(&t, &flows);
        assert_eq!(a.stats().components_solved, 32);
        check_against_oracle(&t, &flows, &rates).unwrap();
    }

    #[test]
    fn counters_name_every_deterministic_field_in_export_order() {
        let stats = AllocStats {
            invocations: 1,
            full_solves: 2,
            components_solved: 3,
            components_retained: 4,
            rounds: 5,
            flows_touched: 8,
            wall_nanos: 99,
            freeze_rounds: 6,
            links_touched: 7,
        };
        let table = stats.counters();
        // Each exported name is `alloc.` plus its field's name, and the
        // values come out in export order; wall time is never exported.
        assert_eq!(
            table.map(|(name, _)| name),
            [
                "alloc.invocations",
                "alloc.full_solves",
                "alloc.components_solved",
                "alloc.components_retained",
                "alloc.rounds",
                "alloc.freeze_rounds",
                "alloc.links_touched",
                "alloc.flows_touched",
            ]
        );
        assert_eq!(table.map(|(_, v)| v), [1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn partial_solve_counts_each_component_once() {
        // Hosts in racks 3 and 17 are dirty (one of them twice): the call
        // solves those two components and retains the other thirty, its
        // touched flows are exactly their twelve in ascending order, and
        // with no input changed every rate comes back bit for bit.
        let (t, flows) = rack_local_grid();
        let mut a = MaxMinAllocator::new();
        let full = a.allocate(&t, &flows);
        a.reset_stats();
        let mut rates = full.clone();
        a.allocate_dirty_reuse(&t, &flows, &[3 * 8 + 2, 17 * 8, 3 * 8 + 5], &mut rates, true);
        let s = a.stats();
        assert_eq!((s.invocations, s.full_solves), (1, 0));
        assert_eq!((s.components_solved, s.components_retained), (2, 30));
        assert_eq!(s.flows_touched, 12);
        let want: Vec<u32> = (18..24).chain(102..108).collect();
        assert_eq!(a.last_touched(), want);
        assert!(rates.iter().zip(&full).all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn rack_local_churn_matches_reference() {
        // Heavy rack-local churn on a 16-rack leaf-spine, driven the way
        // the fluid engine drives the allocator: many small components, a
        // few dirty per tick, the rest retained. Every allocation must
        // match the reference water-filling and pass the certificate.
        let t = crate::topology::TopologyBuilder::leaf_spine(16, 8, 2.0)
            .link(Bandwidth::from_gbps(10.0))
            .build();
        let hosts = t.num_hosts() as u32;
        for (seed, caps) in [(1u64, false), (9, true)] {
            let mut a = MaxMinAllocator::new();
            let mut flows: Vec<FlowDemand> = Vec::new();
            let mut rates: Vec<f64> = Vec::new();
            for (step, ops) in churn_schedule(seed, hosts, 50, 30, 8, caps).iter().enumerate() {
                let (dirty, structural) = apply_ops(ops, &mut flows, &mut rates);
                a.allocate_dirty_reuse(&t, &flows, &dirty, &mut rates, !structural);
                if let Err(e) = check_against_oracle(&t, &flows, &rates) {
                    panic!("seed {seed} step {step}: {e}");
                }
            }
            assert!(
                a.stats().components_retained > 0,
                "seed {seed}: churn never retained a component"
            );
        }
    }

    /// The topology a generated shape names: `kind` 0 is a single switch of
    /// `a·b` hosts, 1 the same with an oversubscribed aggregate core, 2 a
    /// leaf-spine fabric of `a` racks × `b` hosts at `oversub`:1.
    fn arb_topology(kind: u8, a: u32, b: u32, oversub: u8) -> Topology {
        let link = Bandwidth::from_gbps(10.0);
        match kind {
            0 => crate::topology::TopologyBuilder::single_switch((a * b) as usize)
                .link(link)
                .build(),
            1 => crate::topology::TopologyBuilder::single_switch((a * b) as usize)
                .link(link)
                .core_capacity(Bandwidth::from_gbps(2.5 * (a * b) as f64))
                .build(),
            _ => crate::topology::TopologyBuilder::leaf_spine(a, b, oversub as f64)
                .link(link)
                .build(),
        }
    }

    /// One raw churn op: `(kind, (src, dst), band, weight, ceiling, index)`.
    /// Hosts and indices are reduced modulo the live sizes when applied.
    type RawOp = (u8, (u32, u32), u8, f64, (u8, f64), usize);

    fn arb_ops() -> impl proptest::strategy::Strategy<Value = Vec<Vec<RawOp>>> {
        use proptest::prelude::*;
        let op = (
            0u8..10,
            (0u32..64, 0u32..64),
            0u8..4,
            0.1f64..4.0,
            (0u8..5, 0.01f64..2.0),
            0usize..64,
        );
        prop::collection::vec(prop::collection::vec(op, 1..4), 1..25)
    }

    /// Turn raw ops into churn ops over `hosts` hosts. Weights of 1.0 and
    /// ceilings are drawn often enough that exact ties and capped flows
    /// appear in most scripts.
    fn churn_from_raw(raw: &[Vec<RawOp>], hosts: u32) -> Vec<Vec<ChurnOp>> {
        let mut len = 0usize;
        raw.iter()
            .map(|tick| {
                let mut ops = Vec::new();
                for &(kind, (src, dst), band, weight, (cap_kind, cap), idx) in tick {
                    match kind {
                        0..=5 => {
                            let w = if kind < 2 { 1.0 } else { weight };
                            let mut f = demand(src % hosts, dst % hosts, band, w);
                            if cap_kind == 0 {
                                f = f.with_max_rate(cap * LINK);
                            }
                            ops.push(ChurnOp::Add(f));
                            len += 1;
                        }
                        6..=7 if len > 0 => {
                            ops.push(ChurnOp::Remove(idx % len));
                            len -= 1;
                        }
                        8..=9 if len > 0 => ops.push(ChurnOp::Rotate(idx % len)),
                        _ => {}
                    }
                }
                ops
            })
            .collect()
    }

    proptest::proptest! {
        /// Under random churn, driven the way the fluid engine drives the
        /// allocator (dirty hosts, structure reuse), every allocation
        /// matches the reference water-filling and passes the certificate,
        /// on single-switch, aggregate-core and leaf-spine topologies.
        fn kernel_matches_reference_under_churn(
            shape in (0u8..3, 2u32..5, 2u32..5, 1u8..5),
            raw in arb_ops(),
        ) {
            let (kind, a, b, oversub) = shape;
            let t = arb_topology(kind, a, b, oversub);
            let hosts = t.num_hosts() as u32;
            let mut alloc = MaxMinAllocator::new();
            let mut flows: Vec<FlowDemand> = Vec::new();
            let mut rates: Vec<f64> = Vec::new();
            for (step, ops) in churn_from_raw(&raw, hosts).iter().enumerate() {
                let (dirty, structural) = apply_ops(ops, &mut flows, &mut rates);
                alloc.allocate_dirty_reuse(&t, &flows, &dirty, &mut rates, !structural);
                if let Err(e) = check_against_oracle(&t, &flows, &rates) {
                    proptest::prop_assert!(false, "topology {kind}/{a}x{b}@{oversub} step {step}: {e}");
                }
            }
        }

        /// A one-shot full solve of a random flow set (up to ~70 flows in
        /// up to four bands) matches the reference and passes the
        /// certificate.
        fn full_solve_matches_reference(
            shape in (0u8..3, 2u32..5, 2u32..5, 1u8..5),
            raw in arb_ops(),
        ) {
            let (kind, a, b, oversub) = shape;
            let t = arb_topology(kind, a, b, oversub);
            let flows: Vec<FlowDemand> = churn_from_raw(&raw, t.num_hosts() as u32)
                .into_iter()
                .flatten()
                .filter_map(|op| match op {
                    ChurnOp::Add(f) => Some(f),
                    _ => None,
                })
                .collect();
            let rates = MaxMinAllocator::new().allocate(&t, &flows);
            if let Err(e) = check_against_oracle(&t, &flows, &rates) {
                proptest::prop_assert!(false, "topology {kind}/{a}x{b}@{oversub}: {e}");
            }
        }
    }
}
