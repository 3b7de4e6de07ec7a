//! Microbenchmarks of the simulation kernel: the event queue, the max-min
//! rate allocator (the per-event hot path), the fluid engine, the CPU
//! engine, and the chunk-level packet engine.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use simcore::{EventQueue, SimTime};
use std::hint::black_box;
use tl_cluster::{CpuEngine, HostSpec};
use tl_net::{
    Band, Bandwidth, FlowDemand, FlowSpec, FluidNet, HostId, MaxMinAllocator, PacketSim, Qdisc,
    Topology, Transfer,
};

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel/event_queue");
    for n in [1_000usize, 100_000] {
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::new("schedule_pop", n), &n, |b, &n| {
            b.iter(|| {
                let mut q = EventQueue::new();
                for i in 0..n {
                    q.schedule(SimTime::from_nanos(((i * 2654435761) % n) as u64), i);
                }
                let mut count = 0;
                while q.pop().is_some() {
                    count += 1;
                }
                black_box(count)
            });
        });
    }
    g.finish();
}

/// The paper-scale allocation problem: 21 jobs × 20 model-update flows from
/// one colocated host plus 420 gradient flows inbound.
fn paper_scale_demands() -> (Topology, Vec<FlowDemand>) {
    let topo = Topology::uniform(21, Bandwidth::from_gbps(10.0));
    let mut flows = Vec::new();
    for j in 0..21u64 {
        for w in 0..20u32 {
            flows.push(FlowDemand::new(
                HostId(0),
                HostId(1 + w),
                Band((j % 6) as u8),
                1.0 + (j as f64) * 0.01,
            ));
            flows.push(FlowDemand::new(HostId(1 + w), HostId(0), Band(0), 1.0));
        }
    }
    (topo, flows)
}

fn bench_maxmin(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel/maxmin");
    let (topo, flows) = paper_scale_demands();
    g.throughput(Throughput::Elements(flows.len() as u64));
    g.bench_function("allocate_840_flows", |b| {
        let mut alloc = MaxMinAllocator::new();
        let mut rates = Vec::new();
        b.iter(|| {
            alloc.allocate_into(&topo, black_box(&flows), &mut rates);
            black_box(rates.len())
        });
    });
    g.finish();
}

fn bench_fluid(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel/fluid");
    g.bench_function("fanout_20_flows_to_completion", |b| {
        b.iter(|| {
            let mut net = FluidNet::new(Topology::uniform(21, Bandwidth::from_gbps(10.0)));
            for w in 0..20 {
                net.start_flow(
                    SimTime::ZERO,
                    FlowSpec {
                        src: HostId(0),
                        dst: HostId(1 + w),
                        bytes: 1.9e6,
                        band: Band(0),
                        weight: 1.0 + w as f64 * 0.01,
                        tag: 0,
                    },
                );
            }
            let mut done = 0;
            while let Some(t) = net.next_event_time() {
                done += net.take_completions(t).len();
            }
            black_box(done)
        });
    });
    g.finish();
}

/// Allocator churn as the TLs-RR policy produces it: the paper-scale
/// 840-flow network stays up while band assignments rotate tag by tag,
/// forcing a rate refresh after every rotation.
fn bench_churn(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel/churn");

    g.bench_function("band_rotation_840_flows", |b| {
        let mut net = FluidNet::new(Topology::uniform(21, Bandwidth::from_gbps(10.0)));
        for j in 0..21u64 {
            for w in 0..20u32 {
                net.start_flow(
                    SimTime::ZERO,
                    FlowSpec {
                        src: HostId(0),
                        dst: HostId(1 + w),
                        bytes: 1e14,
                        band: Band((j % 6) as u8),
                        weight: 1.0 + j as f64 * 0.01,
                        tag: j,
                    },
                );
                net.start_flow(
                    SimTime::ZERO,
                    FlowSpec {
                        src: HostId(1 + w),
                        dst: HostId(0),
                        bytes: 1e14,
                        band: Band(0),
                        weight: 1.0,
                        tag: j,
                    },
                );
            }
        }
        let mut round = 0u64;
        b.iter(|| {
            round += 1;
            for j in 0..21u64 {
                net.set_band_for_tag(SimTime::ZERO, j, Band(((j + round) % 6) as u8));
                black_box(net.next_event_time());
            }
        });
    });

    // Churn on one pair of hosts while 31 other disjoint pairs carry
    // long-lived elephants: the case where an incremental allocator only
    // needs to re-solve the touched connected component.
    g.bench_function("sparse_arrival_disjoint_pairs", |b| {
        let mut net = FluidNet::new(Topology::uniform(64, Bandwidth::from_gbps(10.0)));
        for p in 1..32u32 {
            net.start_flow(
                SimTime::ZERO,
                FlowSpec {
                    src: HostId(2 * p),
                    dst: HostId(2 * p + 1),
                    bytes: 1e14,
                    band: Band(0),
                    weight: 1.0,
                    tag: p as u64,
                },
            );
        }
        let mut now = SimTime::ZERO;
        b.iter(|| {
            net.start_flow(
                now,
                FlowSpec {
                    src: HostId(0),
                    dst: HostId(1),
                    bytes: 1e6,
                    band: Band(0),
                    weight: 1.0,
                    tag: 999,
                },
            );
            loop {
                let t = net.next_event_time().expect("pending flows");
                now = t;
                if !net.take_completions(t).is_empty() {
                    break;
                }
            }
            black_box(now)
        });
    });

    // Incremental re-solve on a multi-link fabric: 4 racks × 16 hosts at
    // 4:1 oversubscription, every host streaming cross-rack, one rack's
    // flows churning bands each iteration. Fabric links couple flows that
    // share no host, so dirtiness must spill across the uplink — this
    // meters `allocate_dirty_reuse` with the fabric-aware dirty check.
    g.bench_function("dirty_reuse_leaf_spine_4x16", |b| {
        let topo = tl_net::TopologyBuilder::leaf_spine(4, 16, 4.0)
            .link(Bandwidth::from_gbps(10.0))
            .build();
        let n = 64u32;
        let mut flows: Vec<FlowDemand> = (0..n)
            .map(|h| {
                FlowDemand::new(
                    HostId(h),
                    HostId((h + 16) % n), // next rack over
                    Band((h % 6) as u8),
                    1.0 + h as f64 * 0.01,
                )
            })
            .collect();
        let mut alloc = MaxMinAllocator::new();
        let mut rates = Vec::new();
        alloc.allocate_into(&topo, &flows, &mut rates);
        let dirty: Vec<u32> = (0..16).collect();
        let mut round = 0u8;
        b.iter(|| {
            round = round.wrapping_add(1);
            for f in &mut flows[..16] {
                f.band = Band((f.band.0 + round) % 6);
            }
            alloc.allocate_dirty_reuse(&topo, black_box(&flows), &dirty, &mut rates, true);
            black_box(rates[0])
        });
    });

    g.finish();
}

fn bench_cpu(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel/cpu");
    g.bench_function("21_tasks_processor_sharing", |b| {
        b.iter(|| {
            let mut cpu = CpuEngine::new(vec![HostSpec::paper_testbed()]);
            for i in 0..21 {
                cpu.start_task(SimTime::ZERO, 0, 0.6 + i as f64 * 0.01, 1.0, i);
            }
            let mut done = 0;
            while let Some(t) = cpu.next_event_time() {
                done += cpu.take_completions(t).len();
            }
            black_box(done)
        });
    });
    g.finish();
}

fn bench_packet(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel/packet");
    let transfers: Vec<Transfer> = (0..8)
        .map(|k| Transfer {
            tag: 1 + k / 4,
            dst: k as u32,
            bytes: 10_000_000,
            band: Band((k / 4) as u8),
            arrival: SimTime::ZERO,
        })
        .collect();
    g.bench_function("prio_80mb_in_64k_chunks", |b| {
        let sim = PacketSim::new(Bandwidth::from_gbps(10.0), Qdisc::Prio);
        b.iter(|| black_box(sim.run(black_box(&transfers), &[]).outcomes.len()));
    });
    g.finish();
}

fn bench_psim(c: &mut Criterion) {
    use tl_net::{psim, EgressDiscipline, NetFlow, NetSimConfig};
    let mut g = c.benchmark_group("kernel/psim");
    let topo = Topology::uniform(8, Bandwidth::from_gbps(10.0));
    let flows: Vec<NetFlow> = (1..8)
        .map(|w| NetFlow {
            src: HostId(0),
            dst: HostId(w),
            bytes: 5_000_000,
            band: Band((w % 3) as u8),
            tag: w as u64,
            start: SimTime::ZERO,
        })
        .collect();
    g.bench_function("fanout_35mb_store_and_forward", |b| {
        let cfg = NetSimConfig::new(topo.clone(), EgressDiscipline::Priority);
        b.iter(|| black_box(psim::run(&cfg, black_box(&flows)).len()));
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_maxmin,
    bench_fluid,
    bench_churn,
    bench_cpu,
    bench_packet,
    bench_psim
);
criterion_main!(benches);
