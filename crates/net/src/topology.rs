//! Cluster network topology and deterministic routing.
//!
//! The paper's testbed is a single-switch topology: N hosts, each with one
//! NIC, all links the same speed, a non-blocking switch. The contended
//! resources there are exactly the per-host NIC egress and ingress
//! capacities. This model generalizes that shape with an optional
//! *leaf–spine fabric tier*: hosts are grouped into racks, and each rack
//! reaches a non-blocking spine through an uplink/downlink pair sized by
//! an oversubscription factor. A cross-rack flow therefore traverses four
//! modeled links — source NIC egress, source-rack uplink, destination-rack
//! downlink, destination NIC ingress — while rack-local flows see only the
//! two NICs.
//!
//! Topology description and routing are deliberately separate concerns
//! (the same split dslab-network draws between its topology model and its
//! routing component): the link tables say what capacity exists, and
//! [`Topology::route`] derives a flow's fabric path as a pure function of
//! its endpoints. All engines — fluid and packet — consume the same route,
//! so the two backends always agree on which links a flow loads.
//!
//! Construction goes through [`TopologyBuilder`]; the historical
//! [`Topology::uniform`] constructor remains as a thin shim for the paper
//! path.

use crate::types::{Bandwidth, HostId, LinkId};
use serde::{Deserialize, Serialize};

/// A cluster topology: per-host NIC capacities, an optional per-rack
/// fabric tier, plus an optional aggregate core capacity.
///
/// The paper's testbed switch is non-blocking (no fabric links, no core
/// constraint); the fabric tier models the oversubscribed leaf–spine
/// networks common in production clusters, where TensorLights' end-host
/// priorities meet a contention point they cannot control. The older
/// aggregate `core` knob is retained for the PR-3 ablation but superseded
/// by explicit fabric links.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Topology {
    egress: Vec<Bandwidth>,
    ingress: Vec<Bandwidth>,
    /// Rate applied to flows whose source and destination host coincide
    /// (loopback traffic never touches the NIC).
    loopback: Bandwidth,
    /// Aggregate capacity of the switch fabric (None = non-blocking).
    core: Option<Bandwidth>,
    /// Shared fabric links, laid out per rack as `[up, down]` pairs: rack
    /// `r`'s uplink is `LinkId(2r)`, its downlink `LinkId(2r + 1)`. Empty
    /// means a non-blocking fabric (every pre-fabric topology deserializes
    /// to this).
    #[serde(default)]
    fabric: Vec<Bandwidth>,
    /// Rack membership per host. Empty means single-switch (all hosts in
    /// one implicit rack). May be populated with `fabric` empty: a 1:1
    /// leaf–spine records rack grouping but needs no fabric constraint.
    #[serde(default)]
    rack_of: Vec<u32>,
}

impl Topology {
    /// A uniform single-switch topology: `hosts` hosts, all NICs at `link`
    /// speed. Matches the paper's testbed shape (21 hosts, 10 Gbps). Thin
    /// shim over [`TopologyBuilder::single_switch`].
    pub fn uniform(hosts: usize, link: Bandwidth) -> Self {
        TopologyBuilder::single_switch(hosts).link(link).build()
    }

    /// A topology with per-host link speeds (heterogeneous NICs).
    pub fn heterogeneous(egress: Vec<Bandwidth>, ingress: Vec<Bandwidth>) -> Self {
        assert!(!egress.is_empty(), "topology needs at least one host");
        assert_eq!(
            egress.len(),
            ingress.len(),
            "egress/ingress host counts differ"
        );
        let mut t = TopologyBuilder::single_switch(egress.len()).build();
        t.egress = egress;
        t.ingress = ingress;
        t
    }

    /// Override the loopback (same-host) transfer rate.
    pub fn with_loopback(mut self, loopback: Bandwidth) -> Self {
        self.loopback = loopback;
        self
    }

    /// The aggregate fabric capacity, if constrained.
    pub fn core_capacity(&self) -> Option<Bandwidth> {
        self.core
    }

    /// Number of hosts.
    pub fn num_hosts(&self) -> usize {
        self.egress.len()
    }

    /// True if `h` is a valid host id.
    pub fn contains(&self, h: HostId) -> bool {
        (h.0 as usize) < self.egress.len()
    }

    /// Egress (outbound) capacity of host `h`.
    pub fn egress(&self, h: HostId) -> Bandwidth {
        self.egress[h.0 as usize]
    }

    /// Ingress (inbound) capacity of host `h`.
    pub fn ingress(&self, h: HostId) -> Bandwidth {
        self.ingress[h.0 as usize]
    }

    /// Loopback rate for same-host transfers.
    pub fn loopback(&self) -> Bandwidth {
        self.loopback
    }

    /// Number of shared fabric links (0 for single-switch and 1:1
    /// leaf–spine topologies).
    pub fn num_fabric_links(&self) -> usize {
        self.fabric.len()
    }

    /// Capacity of fabric link `l`.
    pub fn fabric_capacity(&self, l: LinkId) -> Bandwidth {
        self.fabric[l.0 as usize]
    }

    /// Human-readable label for fabric link `l` (`rack{r}.up` /
    /// `rack{r}.down`), used for telemetry gauge names.
    pub fn fabric_label(&self, l: LinkId) -> String {
        let dir = if l.0.is_multiple_of(2) { "up" } else { "down" };
        format!("rack{}.{dir}", l.0 / 2)
    }

    /// Rack of host `h`, or `None` on a single-switch topology.
    pub fn rack_of(&self, h: HostId) -> Option<u32> {
        self.rack_of.get(h.0 as usize).copied()
    }

    /// Number of racks (0 when rack grouping is not modeled).
    pub fn num_racks(&self) -> usize {
        self.rack_of.iter().map(|&r| r as usize + 1).max().unwrap_or(0)
    }

    /// The fabric links a `src → dst` flow traverses, in traversal order:
    /// `[source-rack uplink, destination-rack downlink]`. Loopback,
    /// rack-local, and non-blocking-fabric flows traverse none. The result
    /// is a pure function of the endpoints — deterministic path routing.
    pub fn route(&self, src: HostId, dst: HostId) -> [Option<LinkId>; 2] {
        if src == dst || self.fabric.is_empty() {
            return [None, None];
        }
        let sr = self.rack_of[src.0 as usize];
        let dr = self.rack_of[dst.0 as usize];
        if sr == dr {
            [None, None]
        } else {
            [Some(LinkId(2 * sr)), Some(LinkId(2 * dr + 1))]
        }
    }

    /// The fabric links any traffic of host `h` can occupy: its rack's
    /// `[uplink, downlink]`, or `[None, None]` on a single-switch /
    /// non-blocking topology. Used to propagate per-host dirtiness to the
    /// fabric tier (a change at `h` can free or claim capacity on both).
    pub fn host_fabric_links(&self, h: HostId) -> [Option<LinkId>; 2] {
        if self.fabric.is_empty() {
            return [None, None];
        }
        let r = self.rack_of[h.0 as usize];
        [Some(LinkId(2 * r)), Some(LinkId(2 * r + 1))]
    }

    /// Replace host `h`'s NIC capacities (both directions). This is the
    /// fault layer's degradation knob; callers driving a live
    /// [`crate::FluidNet`] must go through
    /// [`crate::FluidNet::set_host_capacity`] so in-flight allocations
    /// are re-solved.
    pub fn set_host_capacity(&mut self, h: HostId, egress: Bandwidth, ingress: Bandwidth) {
        assert!(self.contains(h), "host {h:?} not in topology");
        self.egress[h.0 as usize] = egress;
        self.ingress[h.0 as usize] = ingress;
    }

    /// Iterator over all host ids.
    pub fn hosts(&self) -> impl Iterator<Item = HostId> {
        (0..self.egress.len() as u32).map(HostId)
    }

    /// Iterator over all fabric link ids.
    pub fn fabric_links(&self) -> impl Iterator<Item = LinkId> {
        (0..self.fabric.len() as u32).map(LinkId)
    }
}

/// Fluent builder for [`Topology`]: pick a shape (single switch or
/// leaf–spine), then refine link speeds and per-host NIC overrides.
///
/// ```
/// use tl_net::{Bandwidth, HostId, topology::TopologyBuilder};
/// let t = TopologyBuilder::leaf_spine(3, 7, 4.0)
///     .link(Bandwidth::from_gbps(10.0))
///     .host_nic(HostId(0), Bandwidth::from_gbps(25.0), Bandwidth::from_gbps(25.0))
///     .build();
/// assert_eq!(t.num_hosts(), 21);
/// assert_eq!(t.num_fabric_links(), 6); // 3 racks × {up, down}
/// ```
#[derive(Debug, Clone)]
pub struct TopologyBuilder {
    hosts: usize,
    /// `(racks, hosts_per_rack, oversub)` when a leaf–spine fabric is
    /// requested.
    shape: Option<(u32, u32, f64)>,
    link: Bandwidth,
    loopback: Bandwidth,
    core: Option<Bandwidth>,
    nic_overrides: Vec<(HostId, Bandwidth, Bandwidth)>,
}

impl TopologyBuilder {
    const DEFAULT_LINK_GBPS: f64 = 10.0;
    const DEFAULT_LOOPBACK_GBPS: f64 = 400.0;

    fn base(hosts: usize, shape: Option<(u32, u32, f64)>) -> Self {
        assert!(hosts > 0, "topology needs at least one host");
        TopologyBuilder {
            hosts,
            shape,
            link: Bandwidth::from_gbps(Self::DEFAULT_LINK_GBPS),
            loopback: Bandwidth::from_gbps(Self::DEFAULT_LOOPBACK_GBPS),
            core: None,
            nic_overrides: Vec::new(),
        }
    }

    /// A single non-blocking switch over `hosts` hosts — the paper's
    /// testbed shape. NICs default to 10 Gbps; override with [`link`].
    ///
    /// [`link`]: TopologyBuilder::link
    pub fn single_switch(hosts: usize) -> Self {
        Self::base(hosts, None)
    }

    /// A two-tier leaf–spine fabric: `racks × hosts_per_rack` hosts, each
    /// rack joined to a non-blocking spine by an uplink/downlink pair of
    /// capacity `hosts_per_rack × link / oversub`. An `oversub` of 1.0 is
    /// a fully-provisioned fabric: rack grouping is recorded (the
    /// hierarchical traffic pattern needs it) but no fabric links are
    /// emitted, because a link that can never bind is not a constraint —
    /// this is what makes a 1:1 leaf–spine bitwise-identical to the
    /// equivalent single switch.
    pub fn leaf_spine(racks: u32, hosts_per_rack: u32, oversub: f64) -> Self {
        assert!(racks > 0 && hosts_per_rack > 0, "leaf_spine needs hosts");
        assert!(
            oversub >= 1.0 && oversub.is_finite(),
            "oversubscription factor must be >= 1.0, got {oversub}"
        );
        Self::base(
            racks as usize * hosts_per_rack as usize,
            Some((racks, hosts_per_rack, oversub)),
        )
    }

    /// Set the uniform NIC speed (default 10 Gbps). In a leaf–spine build
    /// this also sizes the fabric links: uplink capacity is
    /// `hosts_per_rack × link / oversub`.
    pub fn link(mut self, link: Bandwidth) -> Self {
        self.link = link;
        self
    }

    /// Override the loopback (same-host) transfer rate.
    pub fn loopback(mut self, loopback: Bandwidth) -> Self {
        self.loopback = loopback;
        self
    }

    /// Override one host's NIC capacities (heterogeneous clusters).
    /// Fabric-link sizing keeps using the uniform [`link`] speed — uplink
    /// provisioning is a property of the fabric design, not of any one
    /// host's NIC.
    ///
    /// [`link`]: TopologyBuilder::link
    pub fn host_nic(mut self, h: HostId, egress: Bandwidth, ingress: Bandwidth) -> Self {
        self.nic_overrides.push((h, egress, ingress));
        self
    }

    /// Constrain the aggregate core capacity shared by all cross-host
    /// traffic (the PR-3 ablation knob). Prefer [`leaf_spine`] for a
    /// structured fabric.
    ///
    /// [`leaf_spine`]: TopologyBuilder::leaf_spine
    pub fn core_capacity(mut self, core: Bandwidth) -> Self {
        self.core = Some(core);
        self
    }

    /// Materialize the topology.
    pub fn build(self) -> Topology {
        let (fabric, rack_of) = match self.shape {
            None => (Vec::new(), Vec::new()),
            Some((racks, hpr, oversub)) => {
                let rack_of: Vec<u32> =
                    (0..self.hosts).map(|h| h as u32 / hpr).collect();
                let fabric = if oversub > 1.0 {
                    let cap = Bandwidth::from_bytes_per_sec(
                        hpr as f64 * self.link.bytes_per_sec() / oversub,
                    );
                    vec![cap; 2 * racks as usize]
                } else {
                    Vec::new()
                };
                (fabric, rack_of)
            }
        };
        let mut t = Topology {
            egress: vec![self.link; self.hosts],
            ingress: vec![self.link; self.hosts],
            loopback: self.loopback,
            core: self.core,
            fabric,
            rack_of,
        };
        for (h, e, i) in self.nic_overrides {
            t.set_host_capacity(h, e, i);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_topology() {
        let t = Topology::uniform(21, Bandwidth::from_gbps(10.0));
        assert_eq!(t.num_hosts(), 21);
        assert!((t.egress(HostId(0)).gbps() - 10.0).abs() < 1e-9);
        assert!((t.ingress(HostId(20)).gbps() - 10.0).abs() < 1e-9);
        assert!(t.contains(HostId(20)));
        assert!(!t.contains(HostId(21)));
        assert_eq!(t.num_fabric_links(), 0);
        assert_eq!(t.num_racks(), 0);
        assert_eq!(t.route(HostId(0), HostId(20)), [None, None]);
    }

    #[test]
    fn heterogeneous_topology() {
        let t = Topology::heterogeneous(
            vec![Bandwidth::from_gbps(10.0), Bandwidth::from_gbps(25.0)],
            vec![Bandwidth::from_gbps(10.0), Bandwidth::from_gbps(25.0)],
        );
        assert_eq!(t.num_hosts(), 2);
        assert!((t.egress(HostId(1)).gbps() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn hosts_iterator_covers_all() {
        let t = Topology::uniform(5, Bandwidth::from_gbps(1.0));
        let ids: Vec<_> = t.hosts().collect();
        assert_eq!(ids.len(), 5);
        assert_eq!(ids[0], HostId(0));
        assert_eq!(ids[4], HostId(4));
    }

    #[test]
    fn core_capacity_option() {
        let t = Topology::uniform(4, Bandwidth::from_gbps(10.0));
        assert!(t.core_capacity().is_none(), "non-blocking by default");
        let t = TopologyBuilder::single_switch(4)
            .core_capacity(Bandwidth::from_gbps(20.0))
            .build();
        assert!((t.core_capacity().unwrap().gbps() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn loopback_override() {
        let t = Topology::uniform(2, Bandwidth::from_gbps(10.0))
            .with_loopback(Bandwidth::from_gbps(100.0));
        assert!((t.loopback().gbps() - 100.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one host")]
    fn rejects_empty() {
        let _ = Topology::uniform(0, Bandwidth::from_gbps(10.0));
    }

    #[test]
    fn leaf_spine_shape_and_routing() {
        let t = TopologyBuilder::leaf_spine(3, 4, 2.0)
            .link(Bandwidth::from_gbps(10.0))
            .build();
        assert_eq!(t.num_hosts(), 12);
        assert_eq!(t.num_racks(), 3);
        assert_eq!(t.num_fabric_links(), 6);
        // Uplink sized hosts_per_rack × link / oversub = 4 × 10 / 2.
        assert!((t.fabric_capacity(LinkId(0)).gbps() - 20.0).abs() < 1e-9);
        assert_eq!(t.rack_of(HostId(0)), Some(0));
        assert_eq!(t.rack_of(HostId(5)), Some(1));
        assert_eq!(t.rack_of(HostId(11)), Some(2));
        // Rack-local: no fabric hops. Cross-rack: src uplink + dst downlink.
        assert_eq!(t.route(HostId(0), HostId(3)), [None, None]);
        assert_eq!(
            t.route(HostId(0), HostId(5)),
            [Some(LinkId(0)), Some(LinkId(3))]
        );
        assert_eq!(
            t.route(HostId(11), HostId(2)),
            [Some(LinkId(4)), Some(LinkId(1))]
        );
        // Loopback never routes.
        assert_eq!(t.route(HostId(5), HostId(5)), [None, None]);
        assert_eq!(t.fabric_label(LinkId(0)), "rack0.up");
        assert_eq!(t.fabric_label(LinkId(3)), "rack1.down");
    }

    #[test]
    fn one_to_one_leaf_spine_has_no_fabric_links() {
        let t = TopologyBuilder::leaf_spine(2, 4, 1.0).build();
        assert_eq!(t.num_fabric_links(), 0, "1:1 fabric cannot bind");
        assert_eq!(t.num_racks(), 2, "rack grouping still recorded");
        assert_eq!(t.route(HostId(0), HostId(7)), [None, None]);
    }

    #[test]
    fn builder_overrides_one_nic() {
        let t = TopologyBuilder::leaf_spine(2, 2, 4.0)
            .host_nic(
                HostId(3),
                Bandwidth::from_gbps(25.0),
                Bandwidth::from_gbps(1.0),
            )
            .build();
        assert!((t.egress(HostId(3)).gbps() - 25.0).abs() < 1e-9);
        assert!((t.ingress(HostId(3)).gbps() - 1.0).abs() < 1e-9);
        assert!((t.egress(HostId(0)).gbps() - 10.0).abs() < 1e-9);
        // Fabric sizing ignores the override: 2 × 10 / 4.
        assert!((t.fabric_capacity(LinkId(0)).gbps() - 5.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "oversubscription factor")]
    fn rejects_undersubscription() {
        let _ = TopologyBuilder::leaf_spine(2, 2, 0.5);
    }

    #[test]
    fn serde_roundtrip_without_fabric_fields() {
        // Pre-fabric serialized topologies (no `fabric`/`rack_of` keys)
        // must deserialize to a non-blocking fabric: build the legacy form
        // by stripping the new keys from a real round trip.
        let t = Topology::uniform(2, Bandwidth::from_gbps(10.0));
        let json = serde_json::to_string(&t).unwrap();
        let mut v = serde_json::from_str_value(&json).unwrap();
        if let serde::Value::Object(fields) = &mut v {
            fields.retain(|(k, _)| k != "fabric" && k != "rack_of");
        }
        let legacy = serde_json::to_string(&v).unwrap();
        let back: Topology = serde_json::from_str(&legacy).unwrap();
        assert_eq!(back.num_fabric_links(), 0);
        assert_eq!(back.num_hosts(), 2);
    }
}
