//! Property-based tests over the core invariants.

use proptest::prelude::*;
use simcore::{EventQueue, SampleSet, SimTime};
use tl_net::{Band, Bandwidth, FlowDemand, HostId, MaxMinAllocator, Topology};

const LINK: f64 = 1.25e9;

fn arb_flows(hosts: u32) -> impl Strategy<Value = Vec<FlowDemand>> {
    prop::collection::vec(
        (0..hosts, 0..hosts, 0u8..4, 0.1f64..4.0)
            .prop_map(|(s, d, b, w)| FlowDemand::new(HostId(s), HostId(d), Band(b), w)),
        1..40,
    )
}

proptest! {
    /// No link is ever oversubscribed, and rates are non-negative.
    fn allocator_respects_capacities(flows in arb_flows(6)) {
        let topo = Topology::uniform(6, Bandwidth::from_gbps(10.0));
        let mut alloc = MaxMinAllocator::new();
        let rates = alloc.allocate(&topo, &flows);
        let mut eg = [0.0; 6];
        let mut ing = [0.0; 6];
        for (f, &r) in flows.iter().zip(&rates) {
            prop_assert!(r >= 0.0);
            prop_assert!(r.is_finite());
            if f.src != f.dst {
                eg[f.src.0 as usize] += r;
                ing[f.dst.0 as usize] += r;
            }
        }
        for h in 0..6 {
            prop_assert!(eg[h] <= LINK * (1.0 + 1e-9), "egress {h}: {}", eg[h]);
            prop_assert!(ing[h] <= LINK * (1.0 + 1e-9), "ingress {h}: {}", ing[h]);
        }
    }

    /// Work conservation: every flow is bottlenecked somewhere — it has a
    /// positive rate, or one of its links is saturated.
    fn allocator_is_work_conserving(flows in arb_flows(5)) {
        let topo = Topology::uniform(5, Bandwidth::from_gbps(10.0));
        let mut alloc = MaxMinAllocator::new();
        let rates = alloc.allocate(&topo, &flows);
        let mut eg = [0.0; 5];
        let mut ing = [0.0; 5];
        for (f, &r) in flows.iter().zip(&rates) {
            if f.src != f.dst {
                eg[f.src.0 as usize] += r;
                ing[f.dst.0 as usize] += r;
            }
        }
        for (f, &r) in flows.iter().zip(&rates) {
            if f.src == f.dst { continue; }
            let egress_full = eg[f.src.0 as usize] >= LINK * (1.0 - 1e-6);
            let ingress_full = ing[f.dst.0 as usize] >= LINK * (1.0 - 1e-6);
            prop_assert!(r > 0.0 || egress_full || ingress_full,
                "flow {f:?} starved with slack on both links");
        }
    }

    /// Raising a flow's band (numerically) never *increases* its own rate,
    /// all else equal — priorities only demote.
    fn demotion_never_helps(flows in arb_flows(4), victim in 0usize..40) {
        prop_assume!(victim < flows.len());
        let topo = Topology::uniform(4, Bandwidth::from_gbps(10.0));
        let mut alloc = MaxMinAllocator::new();
        let before = alloc.allocate(&topo, &flows);
        let mut demoted = flows.clone();
        demoted[victim].band = Band(demoted[victim].band.0 + 1);
        let after = alloc.allocate(&topo, &demoted);
        // Tolerances: relative for real rates, plus an absolute floor for
        // starved flows whose "rates" are float residue near zero.
        prop_assert!(after[victim] <= before[victim] * (1.0 + 1e-9) + 1e-3,
            "demotion raised rate: {} -> {}", before[victim], after[victim]);
    }

    /// The event queue pops in (time, insertion) order for any schedule.
    fn event_queue_total_order(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), i);
        }
        let mut popped = Vec::new();
        while let Some((t, i)) = q.pop() {
            popped.push((t.as_nanos(), i));
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 < w[1].0 || (w[0].0 == w[1].0 && w[0].1 < w[1].1));
        }
    }

    /// SampleSet quantiles are monotone and bounded by min/max.
    fn quantiles_are_monotone(values in prop::collection::vec(-1e6f64..1e6, 1..500)) {
        let mut s = SampleSet::new();
        for &v in &values { s.push(v); }
        let qs: Vec<f64> = (0..=10).map(|k| s.quantile(k as f64 / 10.0).unwrap()).collect();
        for w in qs.windows(2) {
            prop_assert!(w[0] <= w[1] + 1e-9);
        }
        prop_assert!((qs[0] - s.min()).abs() < 1e-9);
        prop_assert!((qs[10] - s.max()).abs() < 1e-9);
    }

    /// Mean/variance from SampleSet agree with OnlineStats (two
    /// implementations, one truth).
    fn two_stats_implementations_agree(values in prop::collection::vec(-1e3f64..1e3, 1..300)) {
        let mut set = SampleSet::new();
        let mut online = simcore::OnlineStats::new();
        for &v in &values {
            set.push(v);
            online.push(v);
        }
        prop_assert!((set.mean() - online.mean()).abs() < 1e-6);
        prop_assert!((set.variance() - online.variance()).abs() < 1e-4);
    }
}

// ---------------------------------------------------------------------------
// Cross-model property: on random single-switch scenarios, the fluid
// allocator and the independent store-and-forward chunk engine agree on
// completion times within chunk quantization.

use simcore::SimTime as PTime;
use tl_net::{psim, EgressDiscipline, FlowSpec, FluidNet, NetFlow, NetSimConfig};

/// Flows with *distinct sources*: one per host 1..=k, random receivers.
///
/// Two deliberate restrictions keep the property within the regime where
/// the two models are supposed to agree (divergences outside it are real,
/// documented modelling differences, not bugs):
/// * sizes ≥ 5 MB so every flow exceeds the default 1 MB window and
///   self-clocks to per-flow fairness (sub-window bursts legitimately
///   share a congested ingress by arrival rate);
/// * one flow per source, because flows sharing an egress replenish a
///   remote queue half as fast — the chunk engine reproduces TCP's
///   RTT/feedback bias, which ideal max-min does not have.
fn arb_netflows(hosts: u32) -> impl Strategy<Value = Vec<NetFlow>> {
    prop::collection::vec((0..hosts, 5u64..40, 0u8..3), 1..(hosts as usize)).prop_map(
        move |specs| {
            specs
                .into_iter()
                .enumerate()
                .map(|(k, (mut d, mb, b))| {
                    let s = k as u32 + 1; // distinct source per flow
                    if d == s {
                        d = (d + 1) % hosts;
                    }
                    NetFlow {
                        src: HostId(s),
                        dst: HostId(d),
                        bytes: mb * 1_000_000,
                        band: Band(b),
                        tag: 0,
                        start: PTime::ZERO,
                    }
                })
                .collect()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    fn fluid_and_psim_agree_on_random_scenarios(flows in arb_netflows(5)) {
        let topo = Topology::uniform(5, Bandwidth::from_gbps(10.0));
        // Fluid side.
        let mut net = FluidNet::new(topo.clone());
        let mut ids = Vec::new();
        for f in &flows {
            ids.push(net.start_flow(PTime::ZERO, FlowSpec {
                src: f.src,
                dst: f.dst,
                bytes: f.bytes as f64,
                band: f.band,
                weight: 1.0,
                tag: 0,
            }));
        }
        let mut fluid = vec![0.0; flows.len()];
        while let Some(t) = net.next_event_time() {
            for c in net.take_completions(t) {
                let k = ids.iter().position(|&i| i == c.id).unwrap();
                fluid[k] = c.finished.as_secs_f64();
            }
        }
        // Chunk side.
        let cfg = NetSimConfig::new(topo, EgressDiscipline::Priority);
        let packet = psim::run(&cfg, &flows);
        // Tolerance: one chunk per concurrently active flow, doubled for
        // the store-and-forward hop.
        let tol = 2.0 * flows.len() as f64 * 65536.0 / 1.25e9 + 1e-4;
        for (k, (f, p)) in fluid.iter().zip(&packet).enumerate() {
            let pt = p.finished.as_secs_f64();
            prop_assert!((f - pt).abs() < tol,
                "flow {k} of {flows:?}: fluid {f} vs chunk {pt} (tol {tol})");
        }
    }

    /// The CPU engine never allocates more cores than a host has, and a
    /// set of equal tasks finishes exactly at demand × n / cores.
    fn cpu_engine_conserves_cores(n_tasks in 1usize..30, cores in 1u32..16) {
        use tl_cluster::{CpuEngine, HostSpec};
        let cores = cores as f64;
        let mut e = CpuEngine::new(vec![HostSpec::with_cores(cores)]);
        for i in 0..n_tasks {
            e.start_task(PTime::ZERO, 0, 2.0, 1.0, i as u64);
        }
        let t = e.next_event_time().expect("tasks scheduled");
        let done = e.take_completions(t);
        prop_assert_eq!(done.len(), n_tasks, "equal tasks finish together");
        let want = 2.0 * (n_tasks as f64 / cores).max(1.0);
        prop_assert!((t.as_secs_f64() - want).abs() < 1e-6,
            "finish at {} want {}", t.as_secs_f64(), want);
        // Busy time never exceeds cores × elapsed.
        prop_assert!(e.busy_core_secs()[0] <= cores * t.as_secs_f64() + 1e-9);
    }
}

/// One step of the churn script for the incremental-allocator property
/// tests: a flow arrival, a completion collection, or a band rotation.
#[derive(Debug, Clone, Copy)]
enum ChurnOp {
    Arrive {
        src: u32,
        dst: u32,
        bytes: f64,
        band: u8,
        weight: f64,
        /// 0 = uncapped; otherwise the cap is `LINK / cap_div`.
        cap_div: u8,
        tag: u64,
    },
    Collect,
    Rotate {
        tag: u64,
        band: u8,
    },
}

fn arb_churn(hosts: u32) -> impl Strategy<Value = Vec<ChurnOp>> {
    prop::collection::vec(
        (
            (0u8..5, 0..hosts, 0..hosts),
            (1.0f64..100.0, 0u8..3, 0.1f64..4.0),
            (0u8..8, 0u64..4),
        )
            .prop_map(
                |((kind, src, dst), (mb, band, weight), (cap_div, tag))| match kind {
                    0..=2 => ChurnOp::Arrive {
                        src,
                        dst,
                        bytes: mb * 1e6,
                        band,
                        weight,
                        cap_div,
                        tag,
                    },
                    3 => ChurnOp::Collect,
                    _ => ChurnOp::Rotate { tag, band },
                },
            ),
        1..60,
    )
}

/// Drive `ops` through a `FluidNet` (incremental allocator) and mirror the
/// live demand set outside it; after every op, a from-scratch solve over
/// the mirror must produce bitwise-identical rates.
fn check_churn_against_scratch(
    topo: &Topology,
    ops: &[ChurnOp],
) -> Result<(), proptest::test_runner::TestCaseError> {
    use simcore::SimDuration;
    use tl_net::{FlowId, FlowSpec, FluidNet};

    let mut net = FluidNet::new(topo.clone());
    let mut scratch = MaxMinAllocator::new();
    // (id, tag, demand) per live flow, in the engine's creation order.
    let mut live: Vec<(FlowId, u64, FlowDemand)> = Vec::new();
    let mut demands: Vec<FlowDemand> = Vec::new();
    let mut now = SimTime::ZERO;
    for op in ops {
        match *op {
            ChurnOp::Arrive {
                src,
                dst,
                bytes,
                band,
                weight,
                cap_div,
                tag,
            } => {
                now += SimDuration::from_micros(50);
                let spec = FlowSpec {
                    src: HostId(src),
                    dst: HostId(dst),
                    bytes,
                    band: Band(band),
                    weight,
                    tag,
                };
                let mut demand = FlowDemand::new(spec.src, spec.dst, spec.band, weight);
                let id = if cap_div == 0 {
                    net.start_flow(now, spec)
                } else {
                    let cap = LINK / cap_div as f64;
                    demand = demand.with_max_rate(cap);
                    net.start_flow_with_cap(now, spec, cap)
                };
                live.push((id, tag, demand));
            }
            ChurnOp::Collect => {
                if let Some(t) = net.next_event_time() {
                    now = t;
                }
            }
            ChurnOp::Rotate { tag, band } => {
                net.set_band_for_tag(now, tag, Band(band));
                for (_, t, d) in live.iter_mut() {
                    if *t == tag {
                        d.band = Band(band);
                    }
                }
            }
        }
        // The engine harvests flows that deplete mid-advance on its own
        // (stamped at their exact crossing); mirror that in the model
        // before comparing rates.
        for c in net.take_completions(now) {
            live.retain(|&(id, _, _)| id != c.id);
        }
        demands.clear();
        demands.extend(live.iter().map(|&(_, _, d)| d));
        let want = scratch.allocate(topo, &demands);
        for (k, &(id, _, _)) in live.iter().enumerate() {
            let got = net.rate_of(id).expect("live flow has a rate");
            prop_assert_eq!(
                got.to_bits(),
                want[k].to_bits(),
                "rate diverged for flow {} after {:?}: incremental {} vs scratch {}",
                k,
                op,
                got,
                want[k]
            );
        }
    }
    Ok(())
}

proptest! {
    /// The incremental (dirty-component) allocator inside `FluidNet` stays
    /// bitwise-identical to a from-scratch solve under arbitrary churn:
    /// arrivals, completions, band rotations, and rate caps.
    fn incremental_allocator_matches_scratch_under_churn(ops in arb_churn(6)) {
        let topo = Topology::uniform(6, Bandwidth::from_gbps(10.0));
        check_churn_against_scratch(&topo, &ops)?;
    }

    /// Same as above with a binding core capacity, which forces the
    /// single-component (full re-solve) path.
    fn incremental_allocator_matches_scratch_with_core(ops in arb_churn(6)) {
        let topo = tl_net::TopologyBuilder::single_switch(6)
            .link(Bandwidth::from_gbps(10.0))
            .core_capacity(Bandwidth::from_gbps(25.0))
            .build();
        check_churn_against_scratch(&topo, &ops)?;
    }

    /// Same churn script on a 2:1-oversubscribed leaf–spine fabric, where
    /// cross-rack flows traverse uplink/downlink fabric tiers — the
    /// multi-link water-fill must stay bitwise-identical to a from-scratch
    /// solve too.
    fn incremental_allocator_matches_scratch_on_leaf_spine(ops in arb_churn(6)) {
        let topo = tl_net::TopologyBuilder::leaf_spine(2, 3, 2.0)
            .link(Bandwidth::from_gbps(10.0))
            .build();
        check_churn_against_scratch(&topo, &ops)?;
    }

    /// Same churn over eight 3-host racks with every flow kept inside its
    /// sender's rack: the many-small-components shape of the `scale --xl`
    /// cell, where most solves re-run a few racks and retain the rest.
    fn incremental_allocator_matches_scratch_on_rack_local_fabric(ops in arb_churn(24)) {
        let topo = tl_net::TopologyBuilder::leaf_spine(8, 3, 2.0)
            .link(Bandwidth::from_gbps(10.0))
            .build();
        let ops: Vec<ChurnOp> = ops
            .into_iter()
            .map(|op| match op {
                ChurnOp::Arrive { src, dst, bytes, band, weight, cap_div, tag } => {
                    let dst = src / 3 * 3 + dst % 3;
                    ChurnOp::Arrive { src, dst, bytes, band, weight, cap_div, tag }
                }
                other => other,
            })
            .collect();
        check_churn_against_scratch(&topo, &ops)?;
    }
}

/// Perf counters are observational: two identical runs produce identical
/// simulation results and identical counters, except for wall time (the
/// only non-deterministic field).
#[test]
fn perf_counters_do_not_perturb_results() {
    use tensorlights_suite::prelude::*;

    let scenario = r#"{
      "hosts": 4,
      "jobs": [
        { "model": "synthetic:20", "workers": 3, "iterations": 12, "ps_host": 0 },
        { "model": "synthetic:10", "workers": 3, "iterations": 12, "ps_host": 0 }
      ]
    }"#;
    let run = || {
        let setups = tl_workloads::load_scenario(scenario).expect("valid scenario");
        Simulation::new(SimConfig::default()).jobs(setups).run()
    };
    let a = run();
    let b = run();
    assert_eq!(a.events, b.events, "event counts must match");
    assert_eq!(a.jobs.len(), b.jobs.len());
    for (ja, jb) in a.jobs.iter().zip(&b.jobs) {
        assert_eq!(ja.jct_secs(), jb.jct_secs(), "JCTs must match exactly");
    }
    let strip = |mut s: tensorlights_suite::net::AllocStats| {
        s.wall_nanos = 0;
        s
    };
    assert_eq!(
        strip(a.alloc_stats),
        strip(b.alloc_stats),
        "counters must be deterministic"
    );
}

// ---------------------------------------------------------------------------
// Cross-model property against the *interactive* chunk engine: PacketNet
// (the oracle behind `SimConfig::backend = Packet` and the validate
// harness) must agree with the fluid allocator on single-bottleneck
// scenarios within chunk quantization — same regime restrictions as the
// psim property above (sizes well past the window so flows self-clock,
// one bottleneck so RR vs weighted fairness cannot differ).

/// Drive a set of specs through `PacketNet` starting at t = 0 and return
/// completion times in input order.
fn packetnet_times(hosts: usize, specs: &[FlowSpec]) -> Vec<f64> {
    use tl_net::PacketNet;
    let mut net = PacketNet::new(Topology::uniform(hosts, Bandwidth::from_gbps(10.0)));
    let ids: Vec<_> = specs
        .iter()
        .map(|&s| net.start_flow(PTime::ZERO, s))
        .collect();
    let mut done = vec![0.0; specs.len()];
    while let Some(t) = net.next_event_time() {
        for c in net.take_completions(t) {
            let k = ids.iter().position(|&i| i == c.id).unwrap();
            done[k] = c.finished.as_secs_f64();
        }
    }
    done
}

/// Ditto for the fluid engine.
fn fluidnet_times(hosts: usize, specs: &[FlowSpec]) -> Vec<f64> {
    let mut net = FluidNet::new(Topology::uniform(hosts, Bandwidth::from_gbps(10.0)));
    let ids: Vec<_> = specs
        .iter()
        .map(|&s| net.start_flow(PTime::ZERO, s))
        .collect();
    let mut done = vec![0.0; specs.len()];
    while let Some(t) = net.next_event_time() {
        for c in net.take_completions(t) {
            let k = ids.iter().position(|&i| i == c.id).unwrap();
            done[k] = c.finished.as_secs_f64();
        }
    }
    done
}

// ---------------------------------------------------------------------------
// Fabric equivalence: a 1:1-oversubscribed leaf–spine emits no binding
// fabric links, so a full training simulation on it must be *bitwise*
// identical to the same run on a single non-blocking switch — same
// completions, same event count, same allocator counters. Holds for the
// PS star and ring patterns; hierarchical is excluded by design (its
// rack-local reduction groups follow `rack_of`, which the leaf–spine
// topology populates and the single switch does not).

fn fabric_equivalence_run(
    num_jobs: u32,
    workers: u32,
    model_mb: u64,
    pattern: tensorlights_suite::dl::TrafficPattern,
    topology: tensorlights_suite::dl::TopologySpec,
    seed: u64,
) -> String {
    use tensorlights_suite::prelude::*;
    use tl_cluster::grouped_placement;

    let num_hosts = (workers + 1).max(num_jobs);
    let placement = grouped_placement(num_hosts, workers, &vec![1; num_jobs as usize]);
    let mut wl = GridSearchConfig::paper_scaled(3);
    wl.num_jobs = num_jobs;
    wl.workers_per_job = workers;
    wl.target_global_steps = 3 * workers as u64;
    wl.model = tensorlights_suite::dl::ModelSpec::synthetic_mb(model_mb);
    let setups = wl.build(&placement);
    let cfg = SimConfig {
        seed,
        topology,
        pattern,
        ..SimConfig::default()
    };
    let out = Simulation::new(cfg).jobs(setups).run();
    assert!(out.all_complete());
    tensorlights_suite::experiments::scale::canonical_json(&out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A non-blocking (1:1) leaf–spine fabric is structurally equivalent
    /// to the single switch: the builder emits zero fabric links, so the
    /// whole training simulation — completions, JCT bits, event and
    /// allocator counters — must match bit for bit.
    fn non_blocking_leaf_spine_is_bitwise_identical_to_single_switch(
        num_jobs in 1u32..4,
        workers in 1u32..5,
        model_mb in 4u64..32,
        star in 0u8..2,
        seed in 0u64..1_000,
    ) {
        use tensorlights_suite::dl::{TopologySpec, TrafficPattern};
        let pattern = if star == 0 { TrafficPattern::Ring } else { TrafficPattern::PsStar };
        let flat = fabric_equivalence_run(
            num_jobs, workers, model_mb, pattern, TopologySpec::SingleSwitch, seed,
        );
        let fabric = fabric_equivalence_run(
            num_jobs, workers, model_mb, pattern,
            TopologySpec::LeafSpine { racks: 3, hosts_per_rack: 2, oversub: 1.0 },
            seed,
        );
        prop_assert_eq!(flat, fabric, "1:1 leaf-spine diverged from single switch");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Shared-egress bottleneck: every flow leaves host 0 for a distinct
    /// receiver, so the sender NIC is the only contended link. Strict
    /// priority plus round-robin within a band must reproduce the fluid
    /// max-min schedule up to chunk rounding.
    fn packetnet_agrees_with_fluid_on_shared_egress(
        flows in prop::collection::vec((5u64..40, 0u8..3), 1..5)
    ) {
        let hosts = flows.len() + 1;
        let specs: Vec<FlowSpec> = flows
            .iter()
            .enumerate()
            .map(|(k, &(mb, band))| FlowSpec {
                src: HostId(0),
                dst: HostId(k as u32 + 1),
                bytes: mb as f64 * 1_000_000.0,
                band: Band(band),
                weight: 1.0,
                tag: k as u64,
            })
            .collect();
        let fluid = fluidnet_times(hosts, &specs);
        let packet = packetnet_times(hosts, &specs);
        // One chunk per active flow, doubled for store-and-forward.
        let tol = 2.0 * specs.len() as f64 * 65536.0 / 1.25e9 + 1e-4;
        for (k, (f, p)) in fluid.iter().zip(&packet).enumerate() {
            prop_assert!((f - p).abs() < tol,
                "flow {k} of {specs:?}: fluid {f} vs packet {p} (tol {tol})");
        }
    }

    /// Shared-ingress bottleneck: distinct senders converge on host 0.
    /// Each sender's egress is uncontended, so flows self-clock into the
    /// receiver FIFO at equal arrival rates — the fluid model's equal
    /// ingress shares (bands only order *egress* queues; both models are
    /// band-agnostic at the ingress).
    fn packetnet_agrees_with_fluid_on_shared_ingress(
        flows in prop::collection::vec((5u64..40, 0u8..3), 1..5)
    ) {
        let hosts = flows.len() + 1;
        let specs: Vec<FlowSpec> = flows
            .iter()
            .enumerate()
            .map(|(k, &(mb, band))| FlowSpec {
                src: HostId(k as u32 + 1),
                dst: HostId(0),
                bytes: mb as f64 * 1_000_000.0,
                band: Band(band),
                weight: 1.0,
                tag: k as u64,
            })
            .collect();
        let fluid = fluidnet_times(hosts, &specs);
        let packet = packetnet_times(hosts, &specs);
        let tol = 2.0 * specs.len() as f64 * 65536.0 / 1.25e9 + 1e-4;
        for (k, (f, p)) in fluid.iter().zip(&packet).enumerate() {
            prop_assert!((f - p).abs() < tol,
                "flow {k} of {specs:?}: fluid {f} vs packet {p} (tol {tol})");
        }
    }

    /// A mid-run capacity dip and recovery must re-rate chunks in service
    /// (regression property for the brownout bug the validate harness
    /// caught): after recovery, both models drain the remaining bytes at
    /// full speed, so completion times still agree.
    fn packetnet_agrees_with_fluid_across_brownout(
        mb in 5u64..40,
        dip_ms in 1u64..50,
        factor in 1e-6f64..0.5,
    ) {
        use tl_net::PacketNet;
        let topo = || Topology::uniform(2, Bandwidth::from_gbps(10.0));
        let spec = FlowSpec {
            src: HostId(0),
            dst: HostId(1),
            bytes: mb as f64 * 1_000_000.0,
            band: Band(0),
            weight: 1.0,
            tag: 0,
        };
        let down = Bandwidth::from_bytes_per_sec(1.25e9 * factor);
        let up = Bandwidth::from_bytes_per_sec(1.25e9);
        let t_down = PTime::from_millis(1);
        let t_up = PTime::from_millis(1 + dip_ms);

        let mut fnet = FluidNet::new(topo());
        fnet.start_flow(PTime::ZERO, spec);
        fnet.set_host_capacity(t_down, HostId(0), down, down);
        fnet.set_host_capacity(t_up, HostId(0), up, up);
        let mut fluid = 0.0;
        let mut last = t_up;
        while let Some(t) = fnet.next_event_time() {
            last = t;
            for c in fnet.take_completions(t) {
                fluid = c.finished.as_secs_f64();
            }
        }
        // A completion can land during set_host_capacity's internal
        // advance; drain anything already harvested.
        for c in fnet.take_completions(last) {
            fluid = c.finished.as_secs_f64();
        }

        let mut pnet = PacketNet::new(topo());
        pnet.start_flow(PTime::ZERO, spec);
        pnet.set_host_capacity(t_down, HostId(0), down, down);
        pnet.set_host_capacity(t_up, HostId(0), up, up);
        let mut packet = 0.0;
        let mut last = t_up;
        while let Some(t) = pnet.next_event_time() {
            last = t;
            for c in pnet.take_completions(t) {
                packet = c.finished.as_secs_f64();
            }
        }
        for c in pnet.take_completions(last) {
            packet = c.finished.as_secs_f64();
        }

        // Two chunks of wire tolerance (store-and-forward) at full rate.
        let tol = 2.0 * 65536.0 / 1.25e9 + 1e-3;
        prop_assert!((fluid - packet).abs() < tol,
            "{mb} MB, dip {dip_ms} ms @ {factor}: fluid {fluid} vs packet {packet} (tol {tol})");
    }
}
