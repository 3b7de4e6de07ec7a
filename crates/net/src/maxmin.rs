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
//! Per-round work is proportional to what the round can change:
//!
//! * a round with θ > 0 costs O(active links + eligible flows): it visits
//!   only the eligible flows, never the ones waiting for their band;
//! * a round with θ exactly zero costs O(admitted × links per flow). It
//!   follows a band promotion that admitted a flow onto a link with no
//!   residual capacity; every other active link still has headroom, so it
//!   raises nothing and only the flows just admitted can freeze;
//! * a promotion costs O(admitted): every flow waits in a list of its
//!   (egress, band), built at solve start, and a promotion admits its
//!   egress's next list.
//!
//! Rates and counters are bit-identical to a creation-order rescan of
//! every flow each round, because every weight sum is still added and
//! subtracted in creation order. [`certify`] checks an allocation's
//! optimality without solving anything.
//!
//! Connected components of the host + fabric-link graph are independent
//! subproblems. [`MaxMinAllocator`] owns the live flow list and keeps its
//! components across calls: an arrival joins (or merges) the components
//! it touches, a departure re-splits its component only when it may cut
//! it, and [`MaxMinAllocator::solve`] re-solves only the components a
//! change touched. No call rebuilds the components over every flow.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::topology::Topology;
use crate::types::{Band, HostId, LinkId};

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
    /// Wall-clock time spent inside `solve` and `allocate_into` calls, in
    /// nanoseconds. A departure batch's upkeep ([`MaxMinAllocator::remove`])
    /// is not included.
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

/// Sentinel for an absent link slot in a flow's cached link set.
const NO_LINK: u32 = u32::MAX;

/// Per-link water-filling state, reused across components and calls. Links
/// are [egress 0..n) ++ [ingress 0..n) ++ [fabric links 2n..2n+F) ++
/// [optional aggregate core at 2n+F]; only links of the component being
/// solved are (re)initialized.
#[derive(Debug, Default)]
struct LinkState {
    // Remaining capacity per link.
    cap: Vec<f64>,
    // Sum of weights of eligible flows per link, valid when `stamp` matches
    // `solve`. Maintained incrementally: added in flow creation order as
    // flows become eligible, subtracted in creation order as they freeze
    // (both orders are deterministic functions of the component's input,
    // so every solve path produces bit-identical rates).
    weight_sum: Vec<f64>,
    stamp: Vec<u64>,
    solve: u64,
    // Eligible-flow count per link; when it reaches zero the link goes
    // inactive and its (fp-drifted) weight sum is reset to exactly 0.
    count: Vec<u32>,
    // Links with a non-zero count, plus inactive ones not yet compacted
    // away; `listed` marks membership so a re-activated link is never
    // listed twice, and `n_active` counts the links with a non-zero count.
    active: Vec<u32>,
    listed: Vec<bool>,
    n_active: usize,
}

impl LinkState {
    /// Add eligible flow weight `w` to each of `links`, activating links
    /// that carried no eligible flow. Returns whether any of them has no
    /// residual capacity (`cap <= 0`): the next round's θ is then exactly
    /// zero.
    fn admit(&mut self, links: &[u32], w: f64) -> bool {
        let mut exhausted = false;
        for &l in links {
            if l == NO_LINK {
                continue;
            }
            let l = l as usize;
            if self.stamp[l] != self.solve {
                self.stamp[l] = self.solve;
                self.weight_sum[l] = 0.0;
                self.count[l] = 0;
                self.listed[l] = false;
            }
            if self.count[l] == 0 {
                self.n_active += 1;
                if !self.listed[l] {
                    self.listed[l] = true;
                    self.active.push(l as u32);
                }
            }
            self.weight_sum[l] += w;
            self.count[l] += 1;
            exhausted |= self.cap[l] <= 0.0;
        }
        exhausted
    }

    /// Take frozen flow weight `w` off each of `links`.
    fn retire(&mut self, links: &[u32], w: f64) {
        for &l in links {
            if l == NO_LINK {
                continue;
            }
            let l = l as usize;
            self.count[l] -= 1;
            if self.count[l] == 0 {
                self.weight_sum[l] = 0.0;
                self.n_active -= 1;
            } else {
                self.weight_sum[l] -= w;
            }
        }
    }

    /// Whether any of `links` is saturated.
    fn saturated(&self, links: &[u32]) -> bool {
        links
            .iter()
            .any(|&l| l != NO_LINK && self.cap[l as usize] <= CAP_EPS)
    }

    /// Drop the links that went inactive since the last compaction.
    fn compact(&mut self) {
        if self.active.len() != self.n_active {
            let (count, listed) = (&self.count, &mut self.listed);
            self.active.retain(|&l| {
                let keep = count[l as usize] > 0;
                listed[l as usize] = keep;
                keep
            });
        }
    }
}

/// Scratch for the dense component solve, reused across components and
/// calls. The gather arrays hold the component's flows densely (creation
/// order preserved, which fixes fp summation order) with their routed link
/// ids cached once per solve instead of re-deriving routes every round.
#[derive(Debug, Default)]
struct SolveScratch {
    links: LinkState,
    // Whether the component spans several bands. With one band (or none)
    // every flow is eligible and the per-egress band bookkeeping is
    // skipped entirely.
    multi_band: bool,
    // Per-egress eligible band (the lowest band not yet frozen out) and
    // highest band, stamp-validated by the solve, and the number of
    // eligible flows at each egress.
    min_band: Vec<u16>,
    max_band: Vec<u16>,
    mb_stamp: Vec<u64>,
    egr_count: Vec<u32>,
    // Per-(egress, band) lists of the component's flows in creation order,
    // chained through `next` (indexed by dense position): list
    // `eslot[e] * bands + (band - band_lo)` runs from `list_head` to
    // `list_tail` and exists when its `list_stamp` matches the solve. A
    // promotion admits its egress's next existing list.
    eslot: Vec<u32>,
    list_head: Vec<u32>,
    list_tail: Vec<u32>,
    list_stamp: Vec<u64>,
    next: Vec<u32>,
    band_lo: u16,
    bands: usize,
    // Egresses whose eligible band emptied this round (band promotion).
    promote: Vec<u32>,
    // Dense positions of eligible flows, in creation order (order is
    // load-bearing: it fixes fp summation).
    elig: Vec<u32>,
    // Flows the last promotion admitted, in creation order.
    admitted: Vec<u32>,
    // Admitted flows still to be merged into `elig` at the next full round.
    fresh: Vec<u32>,
    merged: Vec<u32>,
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
    fn ensure(&mut self, num_links: usize, num_hosts: usize) {
        let l = &mut self.links;
        l.cap.resize(num_links.max(l.cap.len()), 0.0);
        l.weight_sum.resize(num_links.max(l.weight_sum.len()), 0.0);
        l.stamp.resize(num_links.max(l.stamp.len()), 0);
        l.count.resize(num_links.max(l.count.len()), 0);
        l.listed.resize(num_links.max(l.listed.len()), false);
        self.min_band.resize(num_hosts.max(self.min_band.len()), 0);
        self.max_band.resize(num_hosts.max(self.max_band.len()), 0);
        self.mb_stamp.resize(num_hosts.max(self.mb_stamp.len()), 0);
        self.egr_count.resize(num_hosts.max(self.egr_count.len()), 0);
        self.eslot.resize(num_hosts.max(self.eslot.len()), 0);
    }

    /// Freeze eligible flow `j`, now at `rate`, if it sits at its ceiling
    /// or crosses a saturated link: its weight leaves its links' sums and
    /// its egress's eligible count, and an egress left with no eligible
    /// flow is queued for promotion. Returns whether it froze.
    fn freeze_if_done(&mut self, j: usize, rate: f64, has_caps: bool, max_links: usize) -> bool {
        let links = &self.g_links[j][..max_links];
        let capped = has_caps
            && self.g_max_rate[j].is_finite()
            && rate >= self.g_max_rate[j] * (1.0 - 1e-12);
        if !(capped || self.links.saturated(links)) {
            return false;
        }
        self.links.retire(links, self.g_weight[j]);
        if self.multi_band {
            let e = self.g_egress[j] as usize;
            self.egr_count[e] -= 1;
            if self.egr_count[e] == 0 {
                self.promote.push(e as u32);
            }
        }
        true
    }

    /// Band promotion: every egress in `promote` has no eligible flow left
    /// and admits its next band present, a list built at solve start. The
    /// admitted flows' weights are then added in creation order across all
    /// those egresses, so each link's sum is the one a creation-order scan
    /// would produce. Costs O(admitted). Returns whether the next round's
    /// θ is exactly zero.
    fn promote_bands(&mut self, max_links: usize) -> bool {
        self.admitted.clear();
        let solve = self.links.solve;
        let mut sources = 0;
        for &e in &self.promote {
            let e = e as usize;
            if self.min_band[e] == self.max_band[e] {
                continue;
            }
            sources += 1;
            let base = self.eslot[e] as usize * self.bands;
            // The egress's highest band has a list, so the search ends there
            // at the latest.
            let mut b = (self.min_band[e] - self.band_lo) as usize + 1;
            while self.list_stamp[base + b] != solve {
                b += 1;
            }
            self.min_band[e] = self.band_lo + b as u16;
            let (mut j, tail) = (self.list_head[base + b], self.list_tail[base + b]);
            loop {
                self.admitted.push(j);
                if j == tail {
                    break;
                }
                j = self.next[j as usize];
            }
        }
        if sources > 1 {
            self.admitted.sort_unstable();
        }
        let mut zero = false;
        for &j in &self.admitted {
            let j = j as usize;
            self.egr_count[self.g_egress[j] as usize] += 1;
            zero |= self.links.admit(&self.g_links[j][..max_links], self.g_weight[j]);
        }
        zero
    }
}

/// Progressive filling restricted to one component. `idxs` lists the
/// component's flows in creation order; the flows' rates are written
/// densely into `out` (same order as `idxs`). Returns the round tally.
/// The cost of each kind of round is in the module docs.
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
        s.links.cap[idx] = c.bytes_per_sec();
        idx as u32
    });

    let loopback = topo.loopback().bytes_per_sec();
    s.elig.clear();
    s.fresh.clear();
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
            let cap = &mut s.links.cap;
            let egress = f.src.0;
            let ingress = (n + f.dst.0 as usize) as u32;
            cap[egress as usize] = topo.egress(f.src).bytes_per_sec();
            cap[ingress as usize] = topo.ingress(f.dst).bytes_per_sec();
            let [up, down] = topo.route(f.src, f.dst);
            let up = up.map_or(NO_LINK, |l| {
                let idx = fab_base + l.0 as usize;
                cap[idx] = topo.fabric_capacity(l).bytes_per_sec();
                idx as u32
            });
            let down = down.map_or(NO_LINK, |l| {
                let idx = fab_base + l.0 as usize;
                cap[idx] = topo.fabric_capacity(l).bytes_per_sec();
                idx as u32
            });
            s.g_links
                .push([egress, ingress, up, down, core_link.unwrap_or(NO_LINK)]);
            s.elig.push(j as u32);
        }
    }

    // `solve` marks scratch entries as belonging to this solve.
    s.links.solve += 1;
    let solve = s.links.solve;
    s.multi_band = band_lo < band_hi;
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
    if s.multi_band {
        // A flow is eligible when it is in its egress's lowest band; every
        // flow joins its (egress, band) list, in creation order, so a
        // promotion finds the next band's flows without a scan.
        s.band_lo = band_lo;
        s.bands = (band_hi - band_lo) as usize + 1;
        s.next.resize(idxs.len().max(s.next.len()), 0);
        let mut egresses = 0;
        for &j in &s.elig {
            let (e, band) = (s.g_egress[j as usize] as usize, s.g_band[j as usize]);
            if s.mb_stamp[e] != solve {
                s.mb_stamp[e] = solve;
                s.min_band[e] = band;
                s.max_band[e] = band;
                s.egr_count[e] = 0;
                s.eslot[e] = egresses as u32;
                egresses += 1;
                if s.list_stamp.len() < egresses * s.bands {
                    s.list_head.resize(egresses * s.bands, 0);
                    s.list_tail.resize(egresses * s.bands, 0);
                    s.list_stamp.resize(egresses * s.bands, 0);
                }
            } else {
                s.min_band[e] = s.min_band[e].min(band);
                s.max_band[e] = s.max_band[e].max(band);
            }
            let list = s.eslot[e] as usize * s.bands + (band - band_lo) as usize;
            if s.list_stamp[list] != solve {
                s.list_stamp[list] = solve;
                s.list_head[list] = j;
            } else {
                s.next[s.list_tail[list] as usize] = j;
            }
            s.list_tail[list] = j;
        }
        let (g_band, g_egress) = (&s.g_band, &s.g_egress);
        let (min_band, egr_count) = (&s.min_band, &mut s.egr_count);
        s.elig.retain(|&j| {
            let e = g_egress[j as usize] as usize;
            let eligible = g_band[j as usize] == min_band[e];
            egr_count[e] += u32::from(eligible);
            eligible
        });
    }
    s.links.active.clear();
    s.links.n_active = 0;
    for &j in &s.elig {
        let j = j as usize;
        s.links.admit(&s.g_links[j][..max_links], s.g_weight[j]);
    }

    let mut tally = KernelTally::default();
    let mut zero_theta = false;
    loop {
        s.promote.clear();
        let froze = if zero_theta {
            // θ is exactly 0: nothing rises and no capacity changes, so
            // every flow eligible before the last promotion still has
            // headroom on all its links; only the admitted flows can
            // freeze. Survivors join `elig` at the next full round.
            tally.rounds += 1;
            tally.links_touched += s.links.n_active as u64;
            let mut froze = false;
            for k in 0..s.admitted.len() {
                let j = s.admitted[k];
                if s.freeze_if_done(j as usize, out[j as usize], has_caps, max_links) {
                    froze = true;
                } else {
                    s.fresh.push(j);
                }
            }
            debug_assert!(froze, "zero-θ round froze nothing");
            froze
        } else {
            if !s.fresh.is_empty() {
                // Merge the flows admitted since the last full round into
                // `elig`, keeping creation order.
                s.fresh.sort_unstable();
                s.merged.clear();
                let (mut a, mut b) = (s.elig.iter().peekable(), s.fresh.iter().peekable());
                while let (Some(&&x), Some(&&y)) = (a.peek(), b.peek()) {
                    if x < y {
                        s.merged.push(x);
                        a.next();
                    } else {
                        s.merged.push(y);
                        b.next();
                    }
                }
                s.merged.extend(a);
                s.merged.extend(b);
                std::mem::swap(&mut s.elig, &mut s.merged);
                s.fresh.clear();
            }
            if s.elig.is_empty() {
                break;
            }
            s.links.compact();
            tally.rounds += 1;
            tally.links_touched += s.links.n_active as u64;
            // The common level can rise until the tightest link saturates
            // or an eligible flow reaches its own rate ceiling.
            let mut theta = f64::INFINITY;
            for &l in &s.links.active {
                let l = l as usize;
                theta = theta.min(s.links.cap[l].max(0.0) / s.links.weight_sum[l]);
            }
            if has_caps {
                for &j in &s.elig {
                    let j = j as usize;
                    if s.g_max_rate[j].is_finite() {
                        theta = theta.min(((s.g_max_rate[j] - out[j]).max(0.0)) / s.g_weight[j]);
                    }
                }
            }
            debug_assert!(theta.is_finite(), "eligible flows but no constrained link");
            debug_assert!(
                theta > 0.0 || tally.rounds == 1,
                "a zero-θ round outside a promotion"
            );

            // Raise all eligible flows by theta * weight and charge the links.
            if theta > 0.0 {
                for &j in &s.elig {
                    out[j as usize] += theta * s.g_weight[j as usize];
                }
                let l = &mut s.links;
                for &k in &l.active {
                    l.cap[k as usize] -= theta * l.weight_sum[k as usize];
                }
            }

            // Freeze eligible flows touching a saturated link or sitting at
            // their own ceiling, keeping the rest in creation order.
            let mut kept = 0;
            for k in 0..s.elig.len() {
                let j = s.elig[k];
                if !s.freeze_if_done(j as usize, out[j as usize], has_caps, max_links) {
                    s.elig[kept] = j;
                    kept += 1;
                }
            }
            let froze = kept != s.elig.len();
            s.elig.truncate(kept);
            froze
        };
        if froze {
            tally.freeze_rounds += 1;
        }
        zero_theta = false;
        if !s.promote.is_empty() {
            zero_theta = s.promote_bands(max_links);
            if !zero_theta {
                s.fresh.extend_from_slice(&s.admitted);
            }
        }
    }
    tally
}

/// Sentinel for "no component": an idle node (no live flow touches it).
const NONE: u32 = u32::MAX;

/// One connected component: its flows, as positions in the live flow list
/// in creation order (ascending), and the nodes they span.
#[derive(Debug, Default)]
struct Comp {
    flows: Vec<u32>,
    nodes: Vec<u32>,
    // Index of this component in `Components::live`.
    live_slot: u32,
    // A departure may have cut it; re-split at the end of the batch.
    stale: bool,
    // Marked for the current solve.
    dirty: bool,
}

/// A live flow list and the connected components of its host + fabric-link
/// graph, kept across calls. Nodes are hosts `0..n`, then fabric links
/// `n..n+F`; a flow joins its endpoints and the links of its route, and a
/// loopback flow sits at its host alone. A configured aggregate core
/// couples every flow, so a core topology keeps one component and no
/// node labels.
///
/// Arrivals join at the next settle: the new flow is the youngest, so it
/// is appended, and a bridging arrival merges the components it touches,
/// relabelling the smaller into the larger and merging their flow lists in
/// creation order. Departures settle in O(1) when they cannot cut (see
/// [`Components::remove`]); any other departure re-splits only its own
/// component with a local union-find.
#[derive(Debug, Default)]
struct Components {
    demands: Vec<FlowDemand>,
    // Flows `0..joined` belong to the components; the rest were pushed
    // since and join at the next settle, so an arrival costs nothing until
    // a solve needs it.
    joined: usize,
    // Component id per node, `NONE` while idle; sized when flows first join.
    label: Vec<u32>,
    // Index of each labelled node in its component's `nodes`.
    node_slot: Vec<u32>,
    // Live flows per host, counting both endpoints (a loopback flow once).
    host_flows: Vec<u32>,
    // Live flows per ordered (src, dst) pair.
    pairs: HashMap<u64, u32, BuildHasherDefault<PairHasher>>,
    // Component slab, its free slots, and the live ids.
    comps: Vec<Comp>,
    free: Vec<u32>,
    live: Vec<u32>,
    // Components marked for the current solve.
    dirty: Vec<u32>,
    core: bool,
    // Components a departure batch left stale, and the batch's map from
    // old to new positions above its first departure.
    stale: Vec<u32>,
    remap: Vec<u32>,
    // Re-split scratch: stamp-validated union-find parents and group ids
    // per node, each group's component id, and the re-split component's
    // flows and nodes.
    uf: Vec<u32>,
    group: Vec<u32>,
    seen: Vec<u64>,
    stamp: u64,
    group_comp: Vec<u32>,
    spare_flows: Vec<u32>,
    spare_nodes: Vec<u32>,
}

/// An ordered host pair as one map key.
fn pair_key(src: u32, dst: u32) -> u64 {
    (u64::from(src) << 32) | u64::from(dst)
}

/// Multiplicative hash for [`pair_key`]s: the pair map is probed on every
/// arrival and departure, where SipHash's DoS resistance buys nothing.
#[derive(Debug, Default)]
struct PairHasher(u64);

impl Hasher for PairHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0 ^ x).wrapping_mul(0xf135_7aea_2e62_a9c5);
    }

    fn finish(&self) -> u64 {
        // The product's high bits mix every key bit; the table indexes by
        // the low ones.
        self.0.rotate_left(26)
    }
}

/// The nodes a flow joins: `[src, dst, uplink, downlink]`, `NONE` where
/// absent (a loopback flow has only its host).
fn flow_nodes(topo: &Topology, f: &FlowDemand) -> [u32; 4] {
    if f.src == f.dst {
        return [f.src.0, NONE, NONE, NONE];
    }
    let n = topo.num_hosts() as u32;
    let [up, down] = topo.route(f.src, f.dst);
    [
        f.src.0,
        f.dst.0,
        up.map_or(NONE, |l| n + l.0),
        down.map_or(NONE, |l| n + l.0),
    ]
}

/// Merge ascending `src` into ascending `dst`, in place from the back:
/// entries of `dst` below `src`'s first entry never move.
fn merge_sorted_into(dst: &mut Vec<u32>, src: &[u32]) {
    let (mut i, mut j) = (dst.len(), src.len());
    dst.resize(i + j, 0);
    while j > 0 {
        let k = i + j - 1;
        if i > 0 && dst[i - 1] > src[j - 1] {
            dst[k] = dst[i - 1];
            i -= 1;
        } else {
            dst[k] = src[j - 1];
            j -= 1;
        }
    }
}

fn uf_find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        let grand = parent[parent[x as usize] as usize];
        parent[x as usize] = grand;
        x = grand;
    }
    x
}

impl Components {
    /// Size the node tables for `topo` (they only grow) and note whether
    /// it has an aggregate core.
    fn fit(&mut self, topo: &Topology) {
        let n = topo.num_hosts();
        let nodes = n + topo.num_fabric_links();
        if self.label.len() < nodes {
            self.label.resize(nodes, NONE);
            self.node_slot.resize(nodes, 0);
            self.uf.resize(nodes, 0);
            self.group.resize(nodes, 0);
            self.seen.resize(nodes, 0);
        }
        if self.host_flows.len() < n {
            self.host_flows.resize(n, 0);
        }
        self.core = topo.core_capacity().is_some();
    }

    /// Drop every flow and component, keeping the buffers.
    fn clear(&mut self) {
        for &c in &self.live {
            let comp = &mut self.comps[c as usize];
            for &x in &comp.nodes {
                self.label[x as usize] = NONE;
            }
            comp.nodes.clear();
            comp.flows.clear();
        }
        self.free.append(&mut self.live);
        for f in &self.demands[..self.joined] {
            self.host_flows[f.src.0 as usize] = 0;
            self.host_flows[f.dst.0 as usize] = 0;
        }
        self.demands.clear();
        self.joined = 0;
        self.pairs.clear();
    }

    fn new_comp(&mut self) -> u32 {
        let c = self.free.pop().unwrap_or_else(|| {
            self.comps.push(Comp::default());
            (self.comps.len() - 1) as u32
        });
        let comp = &mut self.comps[c as usize];
        comp.live_slot = self.live.len() as u32;
        comp.stale = false;
        self.live.push(c);
        c
    }

    /// Retire an empty component.
    fn release(&mut self, c: u32) {
        let comp = &mut self.comps[c as usize];
        debug_assert!(comp.flows.is_empty() && comp.nodes.is_empty());
        comp.stale = false;
        let slot = comp.live_slot as usize;
        self.live.swap_remove(slot);
        if let Some(&moved) = self.live.get(slot) {
            self.comps[moved as usize].live_slot = slot as u32;
        }
        self.free.push(c);
    }

    fn attach(&mut self, x: u32, c: u32) {
        let nodes = &mut self.comps[c as usize].nodes;
        self.label[x as usize] = c;
        self.node_slot[x as usize] = nodes.len() as u32;
        nodes.push(x);
    }

    fn detach(&mut self, x: u32) {
        let (c, slot) = (self.label[x as usize], self.node_slot[x as usize] as usize);
        let nodes = &mut self.comps[c as usize].nodes;
        nodes.swap_remove(slot);
        if let Some(&moved) = nodes.get(slot) {
            self.node_slot[moved as usize] = slot as u32;
        }
        self.label[x as usize] = NONE;
    }

    fn size(&self, c: u32) -> usize {
        let comp = &self.comps[c as usize];
        comp.flows.len() + comp.nodes.len()
    }

    /// Fold component `from` into `into`: relabel its nodes and merge its
    /// flows into `into`'s list, which stays in creation order as the
    /// kernel's sums and every list operation here assume.
    fn merge(&mut self, from: u32, into: u32) {
        let mut nodes = std::mem::take(&mut self.comps[from as usize].nodes);
        for &x in &nodes {
            self.attach(x, into);
        }
        nodes.clear();
        self.comps[from as usize].nodes = nodes;
        let mut flows = std::mem::take(&mut self.comps[from as usize].flows);
        merge_sorted_into(&mut self.comps[into as usize].flows, &flows);
        flows.clear();
        self.comps[from as usize].flows = flows;
        self.release(from);
    }

    /// Append an arriving flow. It joins the components at the next
    /// [`Components::settle`].
    fn push(&mut self, topo: &Topology, f: FlowDemand) {
        assert!(
            topo.contains(f.src) && topo.contains(f.dst),
            "flow references host outside topology"
        );
        debug_assert!(
            f.weight > 0.0 && f.weight.is_finite(),
            "flow weight must be positive and finite"
        );
        self.demands.push(f);
    }

    /// Join every flow pushed since the last call to the components.
    fn settle(&mut self, topo: &Topology) {
        if self.joined < self.demands.len() {
            self.fit(topo);
        }
        while self.joined < self.demands.len() {
            self.join(topo, self.joined as u32);
            self.joined += 1;
        }
    }

    /// Join the flow at `pos`, the youngest joined so far.
    fn join(&mut self, topo: &Topology, pos: u32) {
        let f = self.demands[pos as usize];
        self.host_flows[f.src.0 as usize] += 1;
        if f.dst != f.src {
            self.host_flows[f.dst.0 as usize] += 1;
        }
        *self.pairs.entry(pair_key(f.src.0, f.dst.0)).or_insert(0) += 1;
        if self.core {
            let c = match self.live.first() {
                Some(&c) => c,
                None => self.new_comp(),
            };
            self.comps[c as usize].flows.push(pos);
            return;
        }
        let nodes = flow_nodes(topo, &f);
        let mut target = NONE;
        for &x in nodes.iter().filter(|&&x| x != NONE) {
            let c = self.label[x as usize];
            if c != NONE && (target == NONE || self.size(c) > self.size(target)) {
                target = c;
            }
        }
        if target == NONE {
            target = self.new_comp();
        }
        for &x in nodes.iter().filter(|&&x| x != NONE) {
            match self.label[x as usize] {
                NONE => self.attach(x, target),
                c if c != target => self.merge(c, target),
                _ => {}
            }
        }
        // The youngest flow: appending keeps creation order.
        self.comps[target as usize].flows.push(pos);
    }

    /// Remove the flows at `positions` (ascending, distinct) and compact
    /// the list in place, keeping the survivors' creation order.
    ///
    /// Departures are taken one at a time against the flows still live,
    /// and settle without a re-split when they cannot cut their component:
    /// a loopback flow joins nothing; another live flow has the same
    /// ordered (src, dst) pair — or, for a flow with no fabric route, the
    /// reverse pair — and so the same edges; or the flow has no fabric
    /// route and one endpoint is left with no flow, a leaf that is then
    /// detached. A departure that fits none of these marks its component
    /// stale, and each stale component is re-split once, after the batch.
    fn remove(&mut self, topo: &Topology, positions: &[u32]) {
        let Some(&first) = positions.first() else {
            return;
        };
        // Flows never joined leave nothing behind but their positions.
        let joined = positions.partition_point(|&p| (p as usize) < self.joined);
        for &p in &positions[..joined] {
            let f = self.demands[p as usize];
            let (s, d) = (f.src.0, f.dst.0);
            self.host_flows[s as usize] -= 1;
            if d != s {
                self.host_flows[d as usize] -= 1;
            }
            let same_pair = match self.pairs.get_mut(&pair_key(s, d)) {
                Some(k) if *k > 1 => {
                    *k -= 1;
                    true
                }
                _ => {
                    self.pairs.remove(&pair_key(s, d));
                    false
                }
            };
            if self.core {
                continue;
            }
            let c = self.label[s as usize];
            if self.comps[c as usize].stale {
                continue;
            }
            let settled = s == d || same_pair || {
                let unrouted = topo.route(f.src, f.dst) == [None, None];
                unrouted
                    && (self.pairs.contains_key(&pair_key(d, s))
                        || self.host_flows[s as usize] == 0
                        || self.host_flows[d as usize] == 0)
            };
            if !settled {
                self.comps[c as usize].stale = true;
                self.stale.push(c);
                continue;
            }
            for x in [s, d] {
                if self.host_flows[x as usize] == 0 && self.label[x as usize] != NONE {
                    self.detach(x);
                }
            }
        }

        // Compact: the survivors above `first` shift down, and every
        // component list drops the departed positions and renumbers the rest.
        self.remap.clear();
        let mut w = first as usize;
        let mut gone = positions.iter().peekable();
        for p in first as usize..self.demands.len() {
            if gone.next_if(|&&q| q as usize == p).is_some() {
                self.remap.push(NONE);
            } else {
                self.remap.push(w as u32);
                self.demands[w] = self.demands[p];
                w += 1;
            }
        }
        self.demands.truncate(w);
        self.joined -= joined;
        for i in (0..self.live.len()).rev() {
            let c = self.live[i];
            let comp = &mut self.comps[c as usize];
            let start = comp.flows.partition_point(|&p| p < first);
            let mut kept = start;
            for k in start..comp.flows.len() {
                let q = self.remap[(comp.flows[k] - first) as usize];
                if q != NONE {
                    comp.flows[kept] = q;
                    kept += 1;
                }
            }
            comp.flows.truncate(kept);
            if kept == 0 {
                for &x in &comp.nodes {
                    self.label[x as usize] = NONE;
                }
                comp.nodes.clear();
                self.release(c);
            }
        }
        let mut stale = std::mem::take(&mut self.stale);
        for &c in &stale {
            // A released component is no longer stale; its slot may even
            // hold a component the re-splits below created.
            if self.comps[c as usize].stale {
                self.comps[c as usize].stale = false;
                self.resplit(topo, c);
            }
        }
        stale.clear();
        self.stale = stale;
    }

    /// Recompute the connected components among component `c`'s surviving
    /// flows with a union-find over its nodes only. The first group keeps
    /// id `c`; nodes no surviving flow touches go idle.
    fn resplit(&mut self, topo: &Topology, c: u32) {
        // `seen` is `stamp` on the nodes the survivors touch and
        // `stamp + 1` on the union-find roots that have a group id.
        self.stamp += 2;
        let stamp = self.stamp;
        std::mem::swap(&mut self.comps[c as usize].flows, &mut self.spare_flows);
        std::mem::swap(&mut self.comps[c as usize].nodes, &mut self.spare_nodes);
        let (uf, seen) = (&mut self.uf, &mut self.seen);
        for &p in &self.spare_flows {
            // The sender comes first and is always present.
            let nodes = flow_nodes(topo, &self.demands[p as usize]);
            for x in nodes.into_iter().filter(|&x| x != NONE) {
                if seen[x as usize] != stamp {
                    seen[x as usize] = stamp;
                    uf[x as usize] = x;
                }
                let (a, b) = (uf_find(uf, nodes[0]), uf_find(uf, x));
                uf[a.max(b) as usize] = a.min(b);
            }
        }
        // Deal the survivors out to their groups in creation order.
        self.group_comp.clear();
        for k in 0..self.spare_flows.len() {
            let p = self.spare_flows[k];
            let r = uf_find(&mut self.uf, self.demands[p as usize].src.0) as usize;
            if self.seen[r] == stamp {
                self.seen[r] = stamp + 1;
                self.group[r] = self.group_comp.len() as u32;
                let id = if self.group_comp.is_empty() {
                    c
                } else {
                    self.new_comp()
                };
                self.group_comp.push(id);
            }
            let id = self.group_comp[self.group[r] as usize];
            self.comps[id as usize].flows.push(p);
        }
        self.spare_flows.clear();
        for k in 0..self.spare_nodes.len() {
            let x = self.spare_nodes[k];
            if self.seen[x as usize] >= stamp {
                let r = uf_find(&mut self.uf, x) as usize;
                self.attach(x, self.group_comp[self.group[r] as usize]);
            } else {
                self.label[x as usize] = NONE;
            }
        }
        self.spare_nodes.clear();
    }

    /// Mark the components a change at the listed hosts can affect: each
    /// host's own component, and — since two flows can share a rack link
    /// without sharing a host — the components of its rack links. An idle
    /// node belongs to no component. Marking is idempotent.
    fn mark_dirty(&mut self, topo: &Topology, hosts: &[u32]) {
        if self.core {
            // The shared core couples every flow: bandwidth freed at any
            // host can raise any other flow's rate.
            if !hosts.is_empty() {
                self.mark_all();
            }
            return;
        }
        let n = topo.num_hosts() as u32;
        let has_fabric = topo.num_fabric_links() > 0;
        for &h in hosts {
            self.mark(self.label[h as usize]);
            if has_fabric {
                for l in topo.host_fabric_links(HostId(h)).into_iter().flatten() {
                    self.mark(self.label[(n + l.0) as usize]);
                }
            }
        }
    }

    fn mark_all(&mut self) {
        for i in 0..self.live.len() {
            self.mark(self.live[i]);
        }
    }

    fn mark(&mut self, c: u32) {
        if c != NONE && !self.comps[c as usize].dirty {
            self.comps[c as usize].dirty = true;
            self.dirty.push(c);
        }
    }
}

/// Reusable allocator state. Allocation runs on every network event, so
/// all working buffers are kept and reused across calls, and the solve is
/// decomposed by connected component of the flow/link graph.
///
/// The allocator owns the live flow list, in creation order, and keeps its
/// components across calls: the caller reports arrivals
/// ([`MaxMinAllocator::push`]), departures ([`MaxMinAllocator::remove`])
/// and band changes ([`MaxMinAllocator::set_band`]), then
/// [`MaxMinAllocator::solve`] re-solves only the components containing a
/// changed ("dirty") host and keeps cached rates everywhere else. No call
/// rebuilds the components over all flows. The one-shot
/// [`MaxMinAllocator::allocate_into`] solves a given flow list from
/// scratch with the same per-component kernel, so both paths are bit for
/// bit equal.
#[derive(Debug, Default)]
pub struct MaxMinAllocator {
    scratch: SolveScratch,
    // The live flow list and its components.
    live: Components,
    // Components of the last one-shot flow list.
    oneshot: Components,
    // Flow indices whose rates the last call (re)wrote — i.e. members of
    // re-solved components — in ascending order. Callers use it to update
    // only the affected downstream state (see `FluidNet::refresh_rates`).
    touched: Vec<u32>,
    // Dense rate output of the component being solved, in its flow order.
    comp_rates: Vec<f64>,
    stats: AllocStats,
}

impl MaxMinAllocator {
    /// Create an allocator with an empty live flow list.
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

    /// Flow indices written by the most recent solve (members of
    /// re-solved components), in ascending order. Flows outside this set
    /// kept their previous rates bit-for-bit, so callers can limit
    /// write-back, telemetry diffing, and completion re-keying to exactly
    /// these indices.
    ///
    /// The indices are positions in the flow list of that call — after a
    /// [`MaxMinAllocator::remove`] or [`MaxMinAllocator::push`] they may
    /// be stale, so consume them first.
    pub fn last_touched(&self) -> &[u32] {
        &self.touched
    }

    /// The live flow list, in creation order.
    pub fn flows(&self) -> &[FlowDemand] {
        &self.live.demands
    }

    /// Append an arriving flow to the live list. It joins the components
    /// at the next [`MaxMinAllocator::solve`], so a burst of arrivals costs
    /// nothing until rates are needed. Every call on one allocator must see
    /// the same topology; capacities may change.
    ///
    /// Panics if the flow references a host outside `topo`.
    pub fn push(&mut self, topo: &Topology, demand: FlowDemand) {
        self.live.push(topo, demand);
    }

    /// Remove the live flows at `positions` (ascending, distinct) and
    /// compact the list, keeping the survivors in creation order. Only the
    /// components a departure may have cut are re-split.
    pub fn remove(&mut self, topo: &Topology, positions: &[u32]) {
        debug_assert!(
            positions.windows(2).all(|w| w[0] < w[1]),
            "positions must ascend"
        );
        self.live.remove(topo, positions);
    }

    /// Move live flow `k` to `band`. Connectivity does not depend on bands.
    pub fn set_band(&mut self, k: usize, band: Band) {
        self.live.demands[k].band = band;
    }

    /// Re-solve only the components of the live flow list that contain a
    /// host listed in `dirty_hosts` (host ids; order and duplicates do not
    /// matter), or share a rack link with one. For every flow of an
    /// untouched component, `rates[i]` is left exactly as passed in (the
    /// caller supplies the previous allocation, `0.0` for new flows).
    /// Bit-identical to [`MaxMinAllocator::allocate_into`] over the same
    /// list, provided every input change to a component lists one of its
    /// hosts — the endpoints of each arrival and departure, the sender of
    /// each band change.
    pub fn solve(&mut self, topo: &Topology, dirty_hosts: &[u32], rates: &mut [f64]) {
        let started = std::time::Instant::now();
        assert_eq!(
            rates.len(),
            self.live.demands.len(),
            "partial solve needs the previous rate for every flow"
        );
        assert!(
            dirty_hosts.iter().all(|&h| topo.contains(HostId(h))),
            "dirty host outside topology"
        );
        self.stats.invocations += 1;
        self.touched.clear();
        if !self.live.demands.is_empty() {
            self.live.settle(topo);
            self.live.mark_dirty(topo, dirty_hosts);
            self.solve_marked(topo, rates, false);
        }
        self.stats.wall_nanos += started.elapsed().as_nanos() as u64;
    }

    /// Compute rates (bytes/sec) for `flows` from scratch, writing into
    /// `rates` (resized to `flows.len()`). Every component is solved. The
    /// live flow list is not touched.
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
        self.oneshot.clear();
        for &f in flows {
            assert!(
                f.weight > 0.0 && f.weight.is_finite(),
                "flow weight must be positive, got {}",
                f.weight
            );
            self.oneshot.push(topo, f);
        }
        self.oneshot.settle(topo);
        self.oneshot.mark_all();
        self.solve_marked(topo, rates, true);
        self.stats.wall_nanos += started.elapsed().as_nanos() as u64;
    }

    /// Convenience wrapper returning a fresh rate vector.
    pub fn allocate(&mut self, topo: &Topology, flows: &[FlowDemand]) -> Vec<f64> {
        let mut rates = Vec::new();
        self.allocate_into(topo, flows, &mut rates);
        rates
    }

    /// Solve the marked components of the live (or one-shot) list one after
    /// another; each writes only its own flows' rates.
    fn solve_marked(&mut self, topo: &Topology, rates: &mut [f64], oneshot: bool) {
        let comps = if oneshot {
            &mut self.oneshot
        } else {
            &mut self.live
        };
        let n = topo.num_hosts();
        let num_links =
            2 * n + topo.num_fabric_links() + usize::from(topo.core_capacity().is_some());
        let s = &mut self.scratch;
        s.ensure(num_links, n);
        self.stats.components_retained += (comps.live.len() - comps.dirty.len()) as u64;
        for &c in &comps.dirty {
            let comp = &mut comps.comps[c as usize];
            comp.dirty = false;
            let idxs = &comp.flows;
            self.stats.components_solved += 1;
            self.stats.flows_touched += idxs.len() as u64;
            self.touched.extend_from_slice(idxs);
            let out = &mut self.comp_rates;
            out.clear();
            out.resize(idxs.len(), 0.0);
            let tally = solve_component(s, topo, &comps.demands, idxs, out);
            self.stats.absorb(tally);
            for (&i, &r) in idxs.iter().zip(out.iter()) {
                rates[i as usize] = r;
            }
        }
        // Components are solved in marking order; downstream consumers
        // iterate `touched` expecting ascending flow order (it keeps
        // telemetry emission order identical to a full scan over the list).
        if comps.dirty.len() > 1 {
            self.touched.sort_unstable();
        }
        comps.dirty.clear();
    }

    /// The live list's components, each a list of flow positions.
    #[cfg(test)]
    fn partition(&mut self, topo: &Topology) -> Vec<Vec<u32>> {
        self.live.settle(topo);
        let c = &self.live;
        c.live
            .iter()
            .map(|&id| c.comps[id as usize].flows.clone())
            .collect()
    }
}

/// Relative slack of the certificate's capacity comparisons.
const CERT_REL: f64 = 1e-9;

/// Optimality certificate for the allocation `rates` of `flows` on `topo`,
/// checked without solving anything, in O(flows + links):
///
/// 1. feasibility: rates are non-negative and within their ceilings,
///    loopback flows run at loopback speed, and no link carries more than
///    its capacity;
/// 2. bottlenecks: every non-loopback flow below its ceiling crosses a
///    saturated link;
/// 3. band order: a flow below its ceiling whose egress also serves a
///    lower-priority (higher band) flow at a non-zero rate crosses a
///    saturated link other than that egress — had the egress been its
///    bottleneck, the lower band would never have been served.
///
/// Returns the first violated condition. [`crate::FluidNet`] runs it on
/// every rate refresh as the `net.maxmin` invariant.
pub(crate) fn certify(topo: &Topology, flows: &[FlowDemand], rates: &[f64]) -> Result<(), String> {
    let n = topo.num_hosts();
    let fab_base = 2 * n;
    let core = fab_base + topo.num_fabric_links();
    // Link ids as in the kernel: egress, ingress, fabric, then the core.
    let links_of = |f: &FlowDemand| {
        let [up, down] = topo.route(f.src, f.dst);
        [
            Some(f.src.0 as usize),
            Some(n + f.dst.0 as usize),
            up.map(|l| fab_base + l.0 as usize),
            down.map(|l| fab_base + l.0 as usize),
            topo.core_capacity().map(|_| core),
        ]
    };
    let capacity = |l: usize| {
        if l < n {
            topo.egress(HostId(l as u32)).bytes_per_sec()
        } else if l < fab_base {
            topo.ingress(HostId((l - n) as u32)).bytes_per_sec()
        } else if l < core {
            topo.fabric_capacity(LinkId((l - fab_base) as u32)).bytes_per_sec()
        } else {
            topo.core_capacity().map_or(0.0, |c| c.bytes_per_sec())
        }
    };
    let name = |l: usize| {
        if l < n {
            format!("egress {l}")
        } else if l < fab_base {
            format!("ingress {}", l - n)
        } else if l < core {
            format!("fabric link {}", topo.fabric_label(LinkId((l - fab_base) as u32)))
        } else {
            "fabric core".to_string()
        }
    };
    let mut load = vec![0.0; core + 1];
    for (f, &x) in flows.iter().zip(rates) {
        if f.src != f.dst {
            for l in links_of(f).into_iter().flatten() {
                load[l] += x;
            }
        }
    }
    for (l, &x) in load.iter().enumerate() {
        if x > capacity(l) * (1.0 + CERT_REL) {
            return Err(format!("{} carries {x} B/s > capacity {}", name(l), capacity(l)));
        }
    }
    let saturated = |l: usize| load[l] >= capacity(l) * (1.0 - CERT_REL);
    // The highest band each egress serves above the floor, in one pass.
    let mut top_served: Vec<Option<Band>> = vec![None; n];
    for (f, &x) in flows.iter().zip(rates) {
        let e = f.src.0 as usize;
        if f.src != f.dst && x > CERT_REL * capacity(e) {
            top_served[e] = top_served[e].max(Some(f.band));
        }
    }
    for (i, (f, &x)) in flows.iter().zip(rates).enumerate() {
        if f.src == f.dst {
            // Loopback never touches the NIC, and ceilings shape only NIC
            // traffic.
            if x != topo.loopback().bytes_per_sec() {
                return Err(format!("loopback flow {i} runs at {x} B/s"));
            }
            continue;
        }
        if !(x >= 0.0 && x <= f.max_rate * (1.0 + CERT_REL)) {
            return Err(format!("flow {i} rate {x} outside [0, {}]", f.max_rate));
        }
        if x >= f.max_rate * (1.0 - CERT_REL) {
            continue;
        }
        let links = links_of(f);
        if !links.into_iter().flatten().any(saturated) {
            return Err(format!("flow {i} ({f:?}) at {x} B/s crosses no saturated link"));
        }
        let egress = f.src.0 as usize;
        let elsewhere = links[1..].iter().flatten().any(|&l| saturated(l));
        if top_served[egress] > Some(f.band) && !elsewhere {
            return Err(format!(
                "flow {i} in band {} at host {} is below its ceiling while a \
                 lower-priority flow sends, yet only its egress is saturated",
                f.band.0, f.src.0
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Bandwidth;
    use std::collections::{BTreeMap, BTreeSet};

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

    /// An allocator whose live list is `flows`, solved with every host
    /// dirty, and its rates.
    fn loaded(t: &Topology, flows: &[FlowDemand]) -> (MaxMinAllocator, Vec<f64>) {
        let mut a = MaxMinAllocator::new();
        for &f in flows {
            a.push(t, f);
        }
        let mut rates = vec![0.0; flows.len()];
        let hosts: Vec<u32> = (0..t.num_hosts() as u32).collect();
        a.solve(t, &hosts, &mut rates);
        (a, rates)
    }

    #[test]
    fn last_touched_lists_resolved_flows_in_order() {
        let t = topo(6, 10.0);
        // Three disjoint components: (0,1), (2,3), (4,5).
        let flows = [
            demand(0, 1, 0, 1.0),
            demand(2, 3, 0, 1.0),
            demand(4, 5, 0, 1.0),
        ];
        let mut a = MaxMinAllocator::new();
        a.allocate(&t, &flows);
        assert_eq!(a.last_touched(), &[0, 1, 2], "full solve touches all");

        let (mut a, mut rates) = loaded(&t, &flows);
        assert_eq!(a.last_touched(), &[0, 1, 2], "every host dirty touches all");
        a.solve(&t, &[2], &mut rates);
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
        let flows = [
            demand(0, 4, 0, 1.0), // rack0 → rack1, via uplink 0
            demand(1, 5, 0, 1.0), // rack0 → rack1, via uplink 0
            demand(6, 7, 0, 1.0), // rack1-local
        ];
        let (mut a, mut rates) = loaded(&t, &flows);
        a.solve(&t, &[0], &mut rates);
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
        let mut flows = vec![
            demand(0, 3, 0, 1.2), // rack0 → rack1
            demand(1, 4, 1, 0.8), // rack0 → rack1
            demand(6, 8, 0, 1.0), // rack2-local
        ];
        let (mut a, mut rates) = loaded(&t, &flows);
        for (k, f) in flows.iter_mut().enumerate() {
            f.band = Band((f.band.0 + 1) % 3);
            a.set_band(k, f.band);
        }
        a.solve(&t, &[0, 1], &mut rates);
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
        let both = [demand(0, 2, 0, 1.0), demand(1, 3, 0, 1.0)];
        let (mut a, rates) = loaded(&t, &both);
        // 4:1 oversubscription: uplink = 2·LINK/4 = LINK/2, split two ways.
        assert!((rates[0] - LINK / 4.0).abs() < 1.0, "got {}", rates[0]);
        assert!((rates[1] - LINK / 4.0).abs() < 1.0, "got {}", rates[1]);

        a.remove(&t, &[0]);
        let mut partial = vec![rates[1]];
        a.solve(&t, &[0, 2], &mut partial);
        let fresh = MaxMinAllocator::new().allocate(&t, &[both[1]]);
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
        let (mut a, mut ra) = loaded(&t, &flows);
        let (mut b, mut rb) = loaded(&t, &flows);
        a.solve(&t, &[3, 2, 3, 3, 2], &mut ra);
        b.solve(&t, &[2, 3], &mut rb);
        assert_eq!(a.last_touched(), &[1, 2]);
        assert_eq!(a.last_touched(), b.last_touched());
        assert_eq!(a.stats().components_solved, b.stats().components_solved);
        assert_matches_full_solve(&t, &flows, &ra);
        assert_matches_full_solve(&t, &flows, &rb);
    }

    #[test]
    fn dirty_hosts_with_no_surviving_flows_solve_nothing() {
        // Flow 2→3 departs: its endpoints are listed dirty but appear in
        // no surviving demand, so they are idle and belong to no
        // component. No component may be marked for them — the
        // neighbours' rates are kept verbatim — and the result still
        // equals a full solve.
        let t = topo(6, 10.0);
        let before = [
            demand(0, 1, 0, 1.0),
            demand(2, 3, 0, 1.0),
            demand(4, 5, 0, 1.0),
        ];
        let (mut a, rates) = loaded(&t, &before);
        a.remove(&t, &[1]);
        let after = [before[0], before[2]];
        let mut partial = vec![rates[0], rates[2]];
        a.solve(&t, &[2, 3], &mut partial);
        assert!(a.last_touched().is_empty(), "no live component was dirty");
        assert_matches_full_solve(&t, &after, &partial);
        // The same departure with a live neighbour listed re-solves only
        // that neighbour's component.
        a.solve(&t, &[3, 4, 2], &mut partial);
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
        let (mut a, mut rates) = loaded(&t, &flows);
        flows[0].band = Band(1);
        a.set_band(0, Band(1));
        a.solve(&t, &[0], &mut rates);
        assert_eq!(a.last_touched(), &[0], "lifted via the shared uplink");
        assert_matches_full_solve(&t, &flows, &rates);
    }

    #[test]
    #[should_panic(expected = "dirty host outside topology")]
    fn rejects_dirty_host_outside_topology() {
        let t = topo(2, 10.0);
        let (mut a, mut rates) = loaded(&t, &[demand(0, 1, 0, 1.0)]);
        a.solve(&t, &[2], &mut rates);
    }

    #[test]
    fn structure_reuse_matches_rebuild_bit_for_bit() {
        let t = topo(6, 10.0);
        let mut flows = vec![
            demand(0, 1, 0, 1.3),
            demand(0, 2, 1, 0.7),
            demand(0, 3, 0, 2.0),
            demand(4, 5, 0, 1.0),
        ];
        let (mut a, mut rates) = loaded(&t, &flows);

        // A band rotation changes no endpoints: the kept structure must
        // agree exactly with a from-scratch allocator seeing the same
        // demands.
        for (k, f) in flows.iter_mut().enumerate() {
            f.band = Band((f.band.0 + 1) % 3);
            a.set_band(k, f.band);
        }
        a.solve(&t, &[0], &mut rates);

        let fresh = MaxMinAllocator::new().allocate(&t, &flows);
        assert_eq!(rates[..3], fresh[..3], "reused structure diverged");
        assert_eq!(a.last_touched(), &[0, 1, 2]);

        // An arrival that bridges the two components merges them.
        flows.push(demand(1, 4, 0, 1.0));
        a.push(&t, flows[4]);
        rates.push(0.0);
        a.solve(&t, &[1, 4], &mut rates);
        assert_eq!(a.partition(&t), [vec![0, 1, 2, 3, 4]]);
        let fresh = MaxMinAllocator::new().allocate(&t, &flows);
        assert_eq!(rates, fresh, "merged structure diverged");
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

    /// Apply one tick's ops to the allocator's live list and to `flows`,
    /// a mirror of it, with `rates` in lockstep, and return the dirty-host
    /// list — raw, so a host touched twice is listed twice. A run of
    /// consecutive removals reaches the allocator as one compacting batch,
    /// the way the fluid engine hands over a harvest.
    fn apply_ops(
        a: &mut MaxMinAllocator,
        t: &Topology,
        ops: &[ChurnOp],
        flows: &mut Vec<FlowDemand>,
        rates: &mut Vec<f64>,
    ) -> Vec<u32> {
        let mut dirty = Vec::new();
        let mut i = 0;
        while i < ops.len() {
            match ops[i] {
                ChurnOp::Remove(_) => {
                    // Each index refers to the list as the earlier removals
                    // of the run left it.
                    let mut left: Vec<u32> = (0..flows.len() as u32).collect();
                    let mut batch = Vec::new();
                    while let Some(&ChurnOp::Remove(k)) = ops.get(i) {
                        batch.push(left.remove(k.min(left.len() - 1)));
                        i += 1;
                    }
                    batch.sort_unstable();
                    remove_batch(a, t, &batch, flows, rates, &mut dirty);
                    continue;
                }
                ChurnOp::Add(f) => {
                    dirty.extend([f.src.0, f.dst.0]);
                    a.push(t, f);
                    flows.push(f);
                    rates.push(0.0);
                }
                ChurnOp::Rotate(k) => {
                    let k = k.min(flows.len() - 1);
                    flows[k].band = Band((flows[k].band.0 + 1) % 3);
                    a.set_band(k, flows[k].band);
                    dirty.push(flows[k].src.0);
                }
            }
            i += 1;
        }
        assert_eq!(a.flows(), &flows[..], "the mirror diverged");
        dirty
    }

    /// Remove the flows at ascending `batch` from the allocator, from
    /// `flows` and from `rates`, listing their endpoints in `dirty`.
    fn remove_batch(
        a: &mut MaxMinAllocator,
        t: &Topology,
        batch: &[u32],
        flows: &mut Vec<FlowDemand>,
        rates: &mut Vec<f64>,
        dirty: &mut Vec<u32>,
    ) {
        for &p in batch {
            dirty.extend([flows[p as usize].src.0, flows[p as usize].dst.0]);
        }
        a.remove(t, batch);
        let gone = |k: usize| batch.binary_search(&(k as u32)).is_ok();
        let mut k = 0;
        flows.retain(|_| {
            k += 1;
            !gone(k - 1)
        });
        let mut k = 0;
        rates.retain(|_| {
            k += 1;
            !gone(k - 1)
        });
    }

    #[test]
    fn same_tick_departure_and_arrival_matches_full_solve() {
        // The staleness class that twice slipped through earlier versions:
        // departures and arrivals in the same event batch split and
        // reshape components while possibly leaving the flow *count*
        // unchanged. The incremental path, driven the way the fluid
        // engine drives it, must match a from-scratch solve bit for bit
        // at every step.
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
                let dirty = apply_ops(&mut a, &t, ops, &mut flows, &mut rates);
                a.solve(&t, &dirty, &mut rates);
                let fresh = MaxMinAllocator::new().allocate(&t, &flows);
                assert_eq!(
                    rates, fresh,
                    "seed {seed} step {step} diverged at {} flows",
                    flows.len()
                );
            }
        }
    }

    /// The allocator's components, each a list of flow positions, in a
    /// canonical order.
    fn parts(a: &mut MaxMinAllocator, t: &Topology) -> Vec<Vec<u32>> {
        let mut p = a.partition(t);
        p.sort();
        p
    }

    #[test]
    fn bridge_departure_splits_and_one_side_resolves_alone() {
        // 1→2 is the only edge between {0, 1} and {2, 3}. Its departure
        // leaves both endpoints with flows, so the component re-splits in
        // two; a later change on one side re-solves that side only.
        let t = topo(5, 10.0);
        let flows = [
            demand(0, 1, 0, 1.0),
            demand(1, 2, 0, 1.5),
            demand(2, 3, 0, 0.7),
            demand(3, 2, 1, 1.3),
        ];
        let (mut a, rates) = loaded(&t, &flows);
        assert_eq!(parts(&mut a, &t), [vec![0, 1, 2, 3]]);
        a.remove(&t, &[1]);
        assert_eq!(parts(&mut a, &t), [vec![0], vec![1, 2]]);
        let mut rates = vec![rates[0], rates[2], rates[3]];
        a.solve(&t, &[1, 2], &mut rates);
        assert_matches_full_solve(&t, a.flows(), &rates);

        a.set_band(2, Band(0));
        let before = a.stats();
        a.solve(&t, &[3], &mut rates);
        let after = a.stats();
        assert_eq!(a.last_touched(), &[1, 2]);
        assert_eq!(after.components_solved - before.components_solved, 1);
        assert_eq!(after.components_retained - before.components_retained, 1);
        assert_matches_full_solve(&t, a.flows(), &rates);
    }

    #[test]
    fn idle_host_solves_nothing_and_rejoins_only_its_new_peer() {
        // Host 0's only flow departs: host 0 goes idle, and marking it
        // dirty solves nothing. A new flow from host 0 into the component
        // of 2→3 joins that component alone; 1→5, which shared host 0's
        // old component, is not pulled in.
        let t = topo(6, 10.0);
        let flows = [
            demand(0, 1, 0, 1.0),
            demand(1, 5, 0, 0.6),
            demand(2, 3, 0, 1.4),
        ];
        let (mut a, rates) = loaded(&t, &flows);
        assert_eq!(parts(&mut a, &t), [vec![0, 1], vec![2]]);
        a.remove(&t, &[0]);
        let mut rates = vec![rates[1], rates[2]];
        let before = a.stats();
        a.solve(&t, &[0], &mut rates);
        let after = a.stats();
        assert!(a.last_touched().is_empty(), "an idle host has no component");
        assert_eq!(after.components_solved, before.components_solved);
        assert_eq!(after.components_retained - before.components_retained, 2);
        a.solve(&t, &[1], &mut rates);
        assert_matches_full_solve(&t, a.flows(), &rates);

        a.push(&t, demand(0, 2, 0, 0.9));
        rates.push(0.0);
        assert_eq!(parts(&mut a, &t), [vec![0], vec![1, 2]]);
        let before = a.stats();
        a.solve(&t, &[0, 2], &mut rates);
        let after = a.stats();
        assert_eq!(a.last_touched(), &[1, 2]);
        assert_eq!(after.components_solved - before.components_solved, 1);
        assert_eq!(after.components_retained - before.components_retained, 1);
        assert_matches_full_solve(&t, a.flows(), &rates);
    }

    #[test]
    fn arrival_merges_interleaved_components_in_creation_order() {
        // Host 0's fan-out (0.7, 0.2, 0.1) and the pair 2→3 were created
        // interleaved. 0→3 joins them; the merged component must list its
        // flows in creation order, so host 0's egress sums its weights as
        // ((0.7 + 0.2) + 0.1) + 0.3, one ulp from the reverse order. The
        // egress binds first, so every rate there is θ·w with θ = LINK /
        // that sum.
        let t = topo(6, 10.0);
        let flows = [
            demand(0, 1, 0, 0.7),
            demand(2, 3, 0, 0.1),
            demand(0, 4, 0, 0.2),
            demand(2, 3, 0, 0.1),
            demand(0, 5, 0, 0.1),
            demand(0, 3, 0, 0.3),
        ];
        let sum = ((0.7 + 0.2) + 0.1) + 0.3;
        assert_ne!(
            sum,
            ((0.1 + 0.2) + 0.7) + 0.3,
            "weights no longer tell the orders apart"
        );
        let (mut a, rates) = loaded(&t, &flows[..5]);
        assert_eq!(parts(&mut a, &t), [vec![0, 2, 4], vec![1, 3]]);
        a.push(&t, flows[5]);
        assert_eq!(a.partition(&t), [vec![0, 1, 2, 3, 4, 5]]);
        let mut rates = [rates, vec![0.0]].concat();
        a.solve(&t, &[0, 3], &mut rates);
        assert_matches_full_solve(&t, &flows, &rates);
        let theta = LINK / sum;
        for k in [0, 2, 4, 5] {
            assert_eq!(
                rates[k].to_bits(),
                (theta * flows[k].weight).to_bits(),
                "flow {k}"
            );
        }
    }

    #[test]
    fn departure_leaving_only_a_loopback_flow_splits_it_off() {
        // Host 0 keeps only its loopback flow once 0→1 departs: the
        // loopback flow no longer joins anything and forms a component of
        // its own.
        let t = topo(3, 10.0);
        let flows = [
            demand(0, 0, 0, 1.0),
            demand(0, 1, 0, 1.0),
            demand(1, 2, 0, 1.0),
        ];
        let (mut a, rates) = loaded(&t, &flows);
        assert_eq!(parts(&mut a, &t), [vec![0, 1, 2]]);
        a.remove(&t, &[1]);
        assert_eq!(parts(&mut a, &t), [vec![0], vec![1]]);
        let mut rates = vec![rates[0], rates[2]];
        a.solve(&t, &[0], &mut rates);
        assert_eq!(a.last_touched(), &[0]);
        a.solve(&t, &[1], &mut rates);
        assert_eq!(a.last_touched(), &[1]);
        assert_matches_full_solve(&t, a.flows(), &rates);
    }

    // --- Structural oracle --------------------------------------------------
    //
    // The components the allocator keeps across calls must be exactly the
    // connected components of the host + fabric-link graph. The reference
    // below recomputes them from scratch with a union-find of its own.

    /// The connected components of `flows` on `t` as sets of positions: a
    /// flow joins its endpoints and its route's fabric links, a loopback
    /// flow sits at its host, and an aggregate core joins everything.
    fn reference_partition(t: &Topology, flows: &[FlowDemand]) -> BTreeSet<BTreeSet<u32>> {
        fn root(parent: &mut [usize], x: usize) -> usize {
            let p = parent[x];
            if p == x {
                return x;
            }
            let r = root(parent, p);
            parent[x] = r;
            r
        }
        let n = t.num_hosts();
        let mut parent: Vec<usize> = (0..n + t.num_fabric_links()).collect();
        for f in flows.iter().filter(|f| f.src != f.dst) {
            let route = t.route(f.src, f.dst).into_iter().flatten();
            for x in route.map(|l| n + l.0 as usize).chain([f.dst.0 as usize]) {
                let (a, b) = (root(&mut parent, f.src.0 as usize), root(&mut parent, x));
                parent[a] = b;
            }
        }
        let mut groups: BTreeMap<usize, BTreeSet<u32>> = BTreeMap::new();
        for (i, f) in flows.iter().enumerate() {
            let key = match t.core_capacity() {
                Some(_) => 0,
                None => root(&mut parent, f.src.0 as usize),
            };
            groups.entry(key).or_default().insert(i as u32);
        }
        groups.into_values().collect()
    }

    /// The allocator's components as sets, each checked to list its flows
    /// in creation order.
    fn incremental_partition(a: &mut MaxMinAllocator, t: &Topology) -> BTreeSet<BTreeSet<u32>> {
        let mut out = BTreeSet::new();
        for c in a.partition(t) {
            assert!(
                c.windows(2).all(|w| w[0] < w[1]),
                "component out of creation order: {c:?}"
            );
            out.insert(c.into_iter().collect());
        }
        out
    }

    /// Whether a departure batch cut a component: two survivors that
    /// shared a component `before` no longer share one `after`. `batch`
    /// holds the departed positions of the list `before` describes.
    fn cut(
        before: &BTreeSet<BTreeSet<u32>>,
        after: &BTreeSet<BTreeSet<u32>>,
        batch: &[u32],
    ) -> bool {
        let comp_of: BTreeMap<u32, usize> = after
            .iter()
            .enumerate()
            .flat_map(|(c, set)| set.iter().map(move |&p| (p, c)))
            .collect();
        before.iter().any(|set| {
            let sides: BTreeSet<usize> = set
                .iter()
                .filter(|p| !batch.contains(p))
                .map(|&p| comp_of[&(p - batch.iter().filter(|&&q| q < p).count() as u32)])
                .collect();
            sides.len() > 1
        })
    }

    /// Whether two live flows share a fabric link but no host.
    fn fabric_only_coupling(t: &Topology, flows: &[FlowDemand]) -> bool {
        let links = |f: &FlowDemand| {
            t.route(f.src, f.dst)
                .into_iter()
                .flatten()
                .collect::<Vec<_>>()
        };
        flows.iter().enumerate().any(|(i, f)| {
            flows[i + 1..].iter().any(|g| {
                let hosts = [f.src, f.dst];
                !hosts.contains(&g.src)
                    && !hosts.contains(&g.dst)
                    && links(f).iter().any(|l| links(g).contains(l))
            })
        })
    }

    /// The churn cases a structural script exercised.
    #[derive(Debug, Default)]
    struct Coverage {
        /// Departure batches that cut a component.
        bridges: u32,
        /// States with two flows coupled by a fabric link alone.
        fabric_only: u32,
        /// Batches with one departure and one arrival (count kept).
        swaps: u32,
        /// Loopback arrivals.
        loopbacks: u32,
        /// Arrivals at a host whose last flow had just departed.
        returns: u32,
    }

    /// One raw structural op: `(kind, (src, dst), index, count)`, reduced
    /// modulo the live sizes when applied. Kinds 0–1 are an arrival, 2 an
    /// arrival on a live flow's (src, dst) pair, 3 and 9 one on its reverse
    /// pair (a PS's update and a worker's gradient), 4 a loopback arrival,
    /// 5–6 a batch of up to three departures, 7 a departure and an arrival
    /// in one batch, 8 a departure followed by an arrival at the departed
    /// flow's sender, 10 an arrival that departs before any solve.
    type StructOp = (u8, (u32, u32), usize, usize);

    /// Drive an allocator through `ops` on `t`. After every op its
    /// components must equal the reference partition and its rates a full
    /// solve's, bit for bit. Returns what the script exercised.
    fn structural_churn(t: &Topology, ops: &[StructOp]) -> Result<Coverage, String> {
        let hosts = t.num_hosts() as u32;
        let mut a = MaxMinAllocator::new();
        let (mut flows, mut rates): (Vec<FlowDemand>, Vec<f64>) = (Vec::new(), Vec::new());
        let mut cov = Coverage::default();
        for (step, &(kind, (s, d), idx, count)) in ops.iter().enumerate() {
            let (s, d) = (s % hosts, d % hosts);
            let w = 1.0 + (idx % 4) as f64 * 0.3;
            let mut batch = Vec::new();
            let mut arrival = None;
            let live = flows.get(idx % flows.len().max(1)).copied();
            match (kind, live) {
                (2, Some(f)) => arrival = Some(demand(f.src.0, f.dst.0, 0, w)),
                (3 | 9, Some(f)) => arrival = Some(demand(f.dst.0, f.src.0, 0, w)),
                (0..=3 | 9, _) => arrival = Some(demand(s, d, (idx % 3) as u8, w)),
                (4, _) => arrival = Some(demand(s, s, 0, w)),
                (_, None) => continue,
                (10, _) => {
                    // An arrival that departs before any solve joined it,
                    // in one batch with an older flow.
                    let f = demand(s, d, 0, w);
                    a.push(t, f);
                    flows.push(f);
                    rates.push(0.0);
                    batch.extend([(idx % (flows.len() - 1)) as u32, (flows.len() - 1) as u32]);
                }
                (5..=6, _) => {
                    let mut left: Vec<u32> = (0..flows.len() as u32).collect();
                    for j in 0..=(count % 3).min(flows.len() - 1) {
                        batch.push(left.remove((idx + 7 * j) % left.len()));
                    }
                }
                (7, _) => {
                    batch.push((idx % flows.len()) as u32);
                    arrival = Some(demand(s, d, 0, w));
                    cov.swaps += 1;
                }
                (_, Some(f)) => {
                    batch.push((idx % flows.len()) as u32);
                    arrival = Some(demand(f.src.0, d, 1, w));
                }
            }
            batch.sort_unstable();
            let before = reference_partition(t, &flows);
            let mut dirty = Vec::new();
            remove_batch(&mut a, t, &batch, &mut flows, &mut rates, &mut dirty);
            if cut(&before, &reference_partition(t, &flows), &batch) {
                cov.bridges += 1;
            }
            if let Some(f) = arrival {
                cov.loopbacks += u32::from(f.src == f.dst);
                let idle = !flows.iter().any(|g| g.src == f.src || g.dst == f.src);
                cov.returns += u32::from(kind == 8 && idle);
                dirty.extend([f.src.0, f.dst.0]);
                a.push(t, f);
                flows.push(f);
                rates.push(0.0);
            }
            let (got, want) = (incremental_partition(&mut a, t), reference_partition(t, &flows));
            if got != want {
                return Err(format!("step {step}: components {got:?}, want {want:?}"));
            }
            cov.fabric_only += u32::from(fabric_only_coupling(t, &flows));
            a.solve(t, &dirty, &mut rates);
            let fresh = MaxMinAllocator::new().allocate(t, &flows);
            let bits = |r: &[f64]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            if bits(&rates) != bits(&fresh) {
                return Err(format!(
                    "step {step}: rates {rates:?}, full solve {fresh:?}"
                ));
            }
        }
        Ok(cov)
    }

    #[test]
    fn structural_churn_exercises_every_named_case() {
        // The generator behind the structural proptest, run on fixed
        // seeds, produces each case the component structure must get
        // right.
        use rand::{Rng, SeedableRng};
        let mut total = Coverage::default();
        for seed in 0..6u64 {
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            let t = arb_topology((seed % 3) as u8, 3, 3, 2);
            let ops: Vec<StructOp> = (0..60)
                .map(|_| {
                    let hosts = (rng.gen_range(0..64), rng.gen_range(0..64));
                    (
                        rng.gen_range(0..11),
                        hosts,
                        rng.gen_range(0..64),
                        rng.gen_range(0..3),
                    )
                })
                .collect();
            let cov = structural_churn(&t, &ops).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            total.bridges += cov.bridges;
            total.fabric_only += cov.fabric_only;
            total.swaps += cov.swaps;
            total.loopbacks += cov.loopbacks;
            total.returns += cov.returns;
        }
        let c = &total;
        assert!(
            [c.bridges, c.fabric_only, c.swaps, c.loopbacks, c.returns]
                .iter()
                .all(|&k| k > 0),
            "a case went unexercised: {c:?}"
        );
    }

    // --- Independent oracle -------------------------------------------------
    //
    // The evidence that the kernel is right comes from code that shares none
    // of its machinery: a slow water-filling written from the module docs,
    // and the certificate ([`certify`]), which checks a rate vector without
    // solving anything.

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

    /// Kernel rates must match the reference within 1e-9 relative, with the
    /// link capacity as the scale for rates near zero, and must satisfy
    /// the certificate.
    fn check_against_oracle(
        t: &Topology,
        flows: &[FlowDemand],
        rates: &[f64],
    ) -> Result<(), String> {
        certify(t, flows, rates)?;
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
        certify(&t, &flows, &want).unwrap();
        // Starving band 1 while band 2 sends breaks the band-order rule.
        let inverted = [LINK / 2.0, LINK / 2.0, 0.0, LINK / 2.0];
        let err = certify(&t, &flows, &inverted).unwrap_err();
        assert!(err.contains("lower-priority"), "{err}");
        // Leaving headroom on every link of a flow breaks the bottleneck rule.
        let slack = [LINK / 4.0, LINK / 2.0, LINK / 2.0, 0.0];
        let err = certify(&t, &flows, &slack).unwrap_err();
        assert!(err.contains("no saturated link"), "{err}");
        // Overfilling a link breaks feasibility.
        let over = [LINK / 2.0, LINK * 0.6, LINK / 2.0, 0.0];
        let err = certify(&t, &flows, &over).unwrap_err();
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
        certify(&t, &same_band, &want).unwrap();
        let lower_band = [
            demand(0, 1, 0, 1.0).with_max_rate(LINK / 4.0),
            demand(0, 2, 1, 1.0),
        ];
        let want = [LINK / 4.0, 0.75 * LINK];
        assert_rates_near(&reference_rates(&t, &lower_band), &want);
        certify(&t, &lower_band, &want).unwrap();
        // Running a capped flow past its ceiling breaks feasibility even
        // when every link has room for it.
        let err = certify(&t, &same_band, &[LINK / 5.0, 0.8 * LINK]).unwrap_err();
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
            certify(&t, &flows, &want).unwrap();
            // Twice the fair share fits every NIC but not the shared link.
            let err = certify(&t, &flows, &vec![2.0 * share; flows.len()]).unwrap_err();
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
        certify(&t, &flows, &want).unwrap();
        let err = certify(&t, &flows, &[LINK, LINK]).unwrap_err();
        assert!(err.contains("loopback"), "{err}");
        let err = certify(&t, &flows, &[want[0], -1.0]).unwrap_err();
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
        let (mut a, full) = loaded(&t, &flows);
        a.reset_stats();
        let mut rates = full.clone();
        a.solve(&t, &[3 * 8 + 2, 17 * 8, 3 * 8 + 5], &mut rates);
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
                let dirty = apply_ops(&mut a, &t, ops, &mut flows, &mut rates);
                a.solve(&t, &dirty, &mut rates);
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

    /// Fold one 64-bit word into an FNV-1a hash, byte by byte.
    fn fnv1a(hash: &mut u64, word: u64) {
        for b in word.to_le_bytes() {
            *hash ^= u64::from(b);
            *hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// FNV-1a digest of a fixed multi-band churn script on `t`: every rate's
    /// bits after every dirty solve, then the eight exported counters. The
    /// script has the TensorLights shape: a quarter of the hosts are PS
    /// hosts that push updates in up to six bands, every host pushes
    /// gradients to a PS in band 0, a quarter of the flows carry a ceiling,
    /// and a PS host's bands rotate now and then (a TLs-RR rotation).
    fn bit_pin_digest(t: &Topology, seed: u64, ticks: usize) -> u64 {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let hosts = t.num_hosts() as u32;
        let ps_hosts = (hosts / 4).max(2);
        let mut alloc = MaxMinAllocator::new();
        let mut flows: Vec<FlowDemand> = Vec::new();
        let mut rates: Vec<f64> = Vec::new();
        let mut hash = 0xcbf2_9ce4_8422_2325;
        for _ in 0..ticks {
            let mut dirty = Vec::new();
            // Each drawn index refers to the list as the earlier draws left
            // it; the allocator takes the tick's departures as one batch.
            let mut left: Vec<u32> = (0..flows.len() as u32).collect();
            let mut batch = Vec::new();
            for _ in 0..rng.gen_range(0..=flows.len() / 20 + 1).min(flows.len()) {
                batch.push(left.remove(rng.gen_range(0..left.len())));
            }
            batch.sort_unstable();
            remove_batch(&mut alloc, t, &batch, &mut flows, &mut rates, &mut dirty);
            for _ in 0..rng.gen_range(0..6) {
                let ps = rng.gen_range(0..ps_hosts);
                let peer = rng.gen_range(0..hosts);
                let (src, dst, band) = if rng.gen_bool(0.7) {
                    (ps, peer, rng.gen_range(0..6u8))
                } else {
                    (peer, ps, 0)
                };
                let w = if rng.gen_bool(0.3) { 1.0 } else { rng.gen_range(0.2..3.0) };
                let mut f = demand(src, dst, band, w);
                if rng.gen_bool(0.25) {
                    f = f.with_max_rate(rng.gen_range(0.02..1.5) * LINK);
                }
                dirty.extend([src, dst]);
                alloc.push(t, f);
                flows.push(f);
                rates.push(0.0);
            }
            if rng.gen_bool(0.3) {
                let ps = rng.gen_range(0..ps_hosts);
                for (k, f) in flows.iter_mut().enumerate().filter(|(_, f)| f.src.0 == ps) {
                    f.band = Band((f.band.0 + 1) % 6);
                    alloc.set_band(k, f.band);
                }
                dirty.push(ps);
            }
            alloc.solve(t, &dirty, &mut rates);
            for r in &rates {
                fnv1a(&mut hash, r.to_bits());
            }
        }
        for (_, v) in alloc.stats().counters() {
            fnv1a(&mut hash, v);
        }
        hash
    }

    #[test]
    fn kernel_bits_and_counters_are_pinned() {
        // The reference-tolerance tests cannot see a one-ulp drift in a
        // rate or a changed round count; this digest can. The constants
        // were produced by the kernel before band admission stopped
        // rescanning the component, and every restructuring since must
        // reproduce them exactly.
        let link = Bandwidth::from_gbps(10.0);
        let single = crate::topology::TopologyBuilder::single_switch(16).link(link).build();
        let core = crate::topology::TopologyBuilder::single_switch(16)
            .link(link)
            .core_capacity(Bandwidth::from_gbps(40.0))
            .build();
        let spine = crate::topology::TopologyBuilder::leaf_spine(4, 4, 2.0).link(link).build();
        let got = [
            bit_pin_digest(&single, 1, 1000),
            bit_pin_digest(&core, 2, 1000),
            bit_pin_digest(&spine, 3, 1000),
        ];
        assert_eq!(
            got.map(|h| format!("{h:016x}")),
            ["bbf8abafce7dc25a", "d4c0d965d0c97eca", "a6bd3941ccaf6b40"]
        );
    }

    /// Full solve with a fresh allocator: the rates, checked against the
    /// oracle, and the solve's `(rounds, freeze_rounds, links_touched)`.
    fn solve_once(t: &Topology, flows: &[FlowDemand]) -> (Vec<f64>, (u64, u64, u64)) {
        let mut a = MaxMinAllocator::new();
        let rates = a.allocate(t, flows);
        check_against_oracle(t, flows, &rates).unwrap();
        let s = a.stats();
        (rates, (s.rounds, s.freeze_rounds, s.links_touched))
    }

    #[test]
    fn saturated_egress_settles_a_band_ladder_in_zero_theta_rounds() {
        // Band 0 fills host 0's egress to exactly zero residual. Bands 1, 2
        // and 3 are then admitted one after another onto the full egress:
        // three zero-θ rounds, each freezing what the last promotion
        // admitted. Links per round: {e0, i1}, {e0, i2, i3}, {e0, i4},
        // {e0, i5}.
        let t = topo(6, 10.0);
        let flows = [
            demand(0, 1, 0, 1.0),
            demand(0, 2, 1, 1.0),
            demand(0, 3, 1, 2.0),
            demand(0, 4, 2, 1.0),
            demand(0, 5, 3, 1.0),
        ];
        let (rates, tally) = solve_once(&t, &flows);
        assert_eq!(rates, [LINK, 0.0, 0.0, 0.0, 0.0]);
        assert_eq!(tally, (4, 4, 9));
    }

    #[test]
    fn promotions_at_two_egresses_sum_a_shared_ingress_in_creation_order() {
        // Band 0 at hosts 0 and 1 freezes on host 2's ingress (four equal
        // shares), which promotes both egresses in the same round. Their
        // band-1 flows all enter host 4 and bind there, so each rate is θ·w
        // with θ = LINK / (ingress weight sum). Host 1's flows were created
        // before host 0's: summed in creation order the weights give
        // (0.2 + 0.1) + 0.3, one ulp above the promotion order's
        // (0.3 + 0.2) + 0.1.
        let t = topo(7, 10.0);
        let flows = [
            demand(1, 4, 1, 0.2),
            demand(0, 2, 0, 1.0),
            demand(1, 2, 0, 1.0),
            demand(5, 2, 0, 1.0),
            demand(6, 2, 0, 1.0),
            demand(1, 4, 1, 0.1),
            demand(0, 4, 1, 0.3),
        ];
        let sum = (0.2 + 0.1) + 0.3;
        assert_ne!(sum, (0.3 + 0.2) + 0.1, "weights no longer tell the orders apart");
        let theta = LINK / sum;
        let (rates, tally) = solve_once(&t, &flows);
        let want = [
            theta * 0.2,
            LINK / 4.0,
            LINK / 4.0,
            LINK / 4.0,
            LINK / 4.0,
            theta * 0.1,
            theta * 0.3,
        ];
        let bits = |r: &[f64]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&rates), bits(&want));
        // Round 1: e0, e1, e5, e6, i2. Round 2: e1, i4, e0.
        assert_eq!(tally, (2, 2, 8));
    }

    #[test]
    fn promotion_onto_a_tiny_residual_takes_a_full_round() {
        // Found by scanning the seeded churn scripts above (seed 0, step 4,
        // hosts renumbered): band 0 fills host 0's egress but rounding
        // leaves a residual in (0, CAP_EPS]. The band-1 flow admitted there
        // sees θ > 0, so it takes a full round and rises by that residual
        // instead of freezing at zero.
        let t = topo(3, 10.0);
        let (w1, w0) = (2.6982686899592503, 2.3171986800508586);
        let flows = [demand(0, 2, 1, w1), demand(0, 1, 0, w0)];
        let theta = LINK / w0;
        let residual = LINK - theta * w0;
        assert!(residual > 0.0 && residual <= CAP_EPS, "residual {residual}");
        let (rates, tally) = solve_once(&t, &flows);
        assert_eq!(rates[1].to_bits(), (theta * w0).to_bits());
        assert_eq!(rates[0].to_bits(), ((residual / w1) * w1).to_bits());
        assert!(rates[0] > 0.0);
        assert_eq!(tally, (2, 2, 4));
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
        /// allocator (arrivals, departure batches, band changes, dirty
        /// hosts), every allocation matches the reference water-filling
        /// and passes the certificate, on single-switch, aggregate-core and
        /// leaf-spine topologies.
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
                let dirty = apply_ops(&mut alloc, &t, ops, &mut flows, &mut rates);
                alloc.solve(&t, &dirty, &mut rates);
                if let Err(e) = check_against_oracle(&t, &flows, &rates) {
                    proptest::prop_assert!(false, "topology {kind}/{a}x{b}@{oversub} step {step}: {e}");
                }
            }
        }

        /// After every structural op — arrivals, departure batches,
        /// same-batch swaps, loopback flows, returns to an idle host — the
        /// allocator's components equal an independent union-find's, and
        /// its rates a full solve's bit for bit, on single-switch,
        /// aggregate-core and leaf-spine topologies.
        fn components_match_an_independent_union_find_under_churn(
            shape in (0u8..3, 2u32..5, 2u32..5, 1u8..5),
            ops in proptest::collection::vec((0u8..11, (0u32..64, 0u32..64), 0usize..64, 0usize..3), 1..40),
        ) {
            let (kind, a, b, oversub) = shape;
            let t = arb_topology(kind, a, b, oversub);
            if let Err(e) = structural_churn(&t, &ops) {
                proptest::prop_assert!(false, "topology {kind}/{a}x{b}@{oversub} {e}");
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
