//! The single-giant-component max-min solve: the 500-host × 200-job cell
//! whose three colocated PS groups couple every job into ONE connected
//! component, so the per-component decomposition cannot help and the
//! kernel itself is what's measured.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use tl_net::{Band, Bandwidth, FlowDemand, HostId, MaxMinAllocator, Topology};

const HOSTS: u32 = 500;
const JOBS: u32 = 200;
const WORKERS_PER_JOB: u32 = 20;
const PS_GROUPS: u32 = 3;

/// The coupled PS-star shape from the scale sweep's worst cell: every
/// job's PS lives on one of `PS_GROUPS` shared hosts, so all jobs chain
/// into a single connected component of the flow/link graph.
fn giant_component_demands() -> (Topology, Vec<FlowDemand>) {
    let topo = Topology::uniform(HOSTS as usize, Bandwidth::from_gbps(10.0));
    let mut flows = Vec::new();
    for j in 0..JOBS {
        let ps = HostId(j % PS_GROUPS);
        for w in 0..WORKERS_PER_JOB {
            let worker = HostId(PS_GROUPS + (j * WORKERS_PER_JOB + w) % (HOSTS - PS_GROUPS));
            let band = Band((j % 6) as u8);
            let weight = 1.0 + (j as f64) * 0.01 + (w as f64) * 0.003;
            flows.push(FlowDemand::new(ps, worker, band, weight));
            flows.push(FlowDemand::new(worker, ps, Band(0), 1.0));
        }
    }
    (topo, flows)
}

/// Full solve of the giant component.
fn bench_full_solve(c: &mut Criterion) {
    let mut g = c.benchmark_group("alloc_single_component/full_solve");
    g.sample_size(10);
    let (topo, flows) = giant_component_demands();
    g.throughput(Throughput::Elements(flows.len() as u64));
    g.bench_function("solve", |b| {
        let mut alloc = MaxMinAllocator::new();
        let mut rates = Vec::new();
        b.iter(|| {
            alloc.allocate_into(&topo, black_box(&flows), &mut rates);
            black_box(rates.len())
        });
    });
    g.finish();
}

/// The steady-state hot path: the whole component dirty with its
/// structure kept — what a TLs-RR rotation or any arrival/departure in the
/// cell costs, since every flow shares the one component.
fn bench_dirty_resolve(c: &mut Criterion) {
    let mut g = c.benchmark_group("alloc_single_component/dirty_resolve");
    g.sample_size(10);
    let (topo, flows) = giant_component_demands();
    let dirty: Vec<u32> = (0..topo.num_hosts() as u32).collect();
    g.throughput(Throughput::Elements(flows.len() as u64));
    g.bench_function("solve", |b| {
        let mut alloc = MaxMinAllocator::new();
        for &f in &flows {
            alloc.push(&topo, f);
        }
        let mut rates = vec![0.0; flows.len()];
        b.iter(|| {
            alloc.solve(&topo, black_box(&dirty), &mut rates);
            black_box(rates.len())
        });
    });
    g.finish();
}

/// The freeze-ladder regime: one giant chain-coupled component where every
/// egress saturates at a *distinct* water level, so the solve takes ~one
/// freeze round per link (R ≈ L) and the kernel pays its full
/// O(rounds × links) rescan bill. The PS-star shapes above terminate in
/// single-digit rounds (colocated PS groups make a handful of links the
/// simultaneous bottleneck for everything) and cannot show this. It is
/// the one regime where a bottleneck-ordered (heap) kernel would win; no
/// simulator workload reaches it.
fn ladder_demands() -> (Topology, Vec<FlowDemand>) {
    let topo = Topology::uniform(HOSTS as usize, Bandwidth::from_gbps(10.0));
    let mut flows = Vec::new();
    for i in 0..HOSTS {
        for k in 1..=4u32 {
            let w = 1.0 + (i as f64) * 0.01 + (k as f64) * 0.002;
            flows.push(FlowDemand::new(HostId(i), HostId((i + k) % HOSTS), Band(0), w));
        }
    }
    (topo, flows)
}

fn bench_freeze_ladder(c: &mut Criterion) {
    let mut g = c.benchmark_group("alloc_single_component/freeze_ladder");
    g.sample_size(10);
    let (topo, flows) = ladder_demands();
    g.throughput(Throughput::Elements(flows.len() as u64));
    g.bench_function("solve", |b| {
        let mut alloc = MaxMinAllocator::new();
        let mut rates = Vec::new();
        b.iter(|| {
            alloc.allocate_into(&topo, black_box(&flows), &mut rates);
            black_box(rates.len())
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_full_solve,
    bench_dirty_resolve,
    bench_freeze_ladder
);
criterion_main!(benches);
