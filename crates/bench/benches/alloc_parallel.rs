//! The parallel allocation kernel: dirty-component re-solves dispatched to
//! the allocator's worker pool, swept across worker counts.
//!
//! The workload is the shape the pool is built for — a leaf-spine fabric
//! whose racks are independent flow components (rack-local jobs), so a
//! dirty batch fans out to many disjoint solves. Output is bitwise
//! identical at every worker count (the determinism tests pin that);
//! these benches measure what the thread count is *allowed* to change:
//! wall time. On a single-core machine expect the 2/4/8-worker rows to
//! match or slightly trail the 1-worker row (dispatch overhead without
//! parallel hardware); the spread is the point of the measurement.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use tl_net::{Band, Bandwidth, FlowDemand, HostId, MaxMinAllocator, Topology, TopologyBuilder};

const RACKS: u32 = 64;
const HOSTS_PER_RACK: u32 = 8;
const JOBS_PER_RACK: u32 = 3;
const WORKERS_PER_JOB: u32 = 6;
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Rack-local PS-star demands: every rack holds `JOBS_PER_RACK` jobs whose
/// PS and workers all live in the rack, so each rack is one connected
/// component of the flow/link graph.
fn rack_local_demands() -> (Topology, Vec<FlowDemand>) {
    let topo = TopologyBuilder::leaf_spine(RACKS, HOSTS_PER_RACK, 2.0)
        .link(Bandwidth::from_gbps(10.0))
        .build();
    let mut flows = Vec::new();
    for r in 0..RACKS {
        let base = r * HOSTS_PER_RACK;
        for j in 0..JOBS_PER_RACK {
            let ps = HostId(base + (j * 2) % HOSTS_PER_RACK);
            for w in 0..WORKERS_PER_JOB {
                let worker = HostId(base + (ps.0 - base + 1 + w) % HOSTS_PER_RACK);
                let band = Band((j % 6) as u8);
                let weight = 1.0 + (j as f64) * 0.05 + (w as f64) * 0.01;
                flows.push(FlowDemand::new(ps, worker, band, weight));
                flows.push(FlowDemand::new(worker, ps, Band(0), 1.0));
            }
        }
    }
    (topo, flows)
}

/// Full solve of all `RACKS` components at each worker-pool size.
fn bench_full_solve(c: &mut Criterion) {
    let mut g = c.benchmark_group("alloc_parallel/full_solve");
    let (topo, flows) = rack_local_demands();
    g.throughput(Throughput::Elements(flows.len() as u64));
    for workers in WORKER_COUNTS {
        g.bench_with_input(
            BenchmarkId::new("racks_64", workers),
            &workers,
            |b, &workers| {
                let mut alloc = MaxMinAllocator::new();
                alloc.set_workers(workers);
                let mut rates = Vec::new();
                b.iter(|| {
                    alloc.allocate_into(&topo, black_box(&flows), &mut rates);
                    black_box(rates.len())
                });
            },
        );
    }
    g.finish();
}

/// The per-event hot path: every component dirty, structure cached — the
/// shape of a same-timestamp event batch touching the whole fabric (a
/// TLs-RR rotation). All of the per-call work is component solves, so this
/// is the cleanest view of the pool's dispatch overhead and scaling.
fn bench_dirty_batch(c: &mut Criterion) {
    let mut g = c.benchmark_group("alloc_parallel/dirty_all_racks");
    let (topo, flows) = rack_local_demands();
    let dirty: Vec<u32> = (0..topo.num_hosts() as u32).collect();
    g.throughput(Throughput::Elements(flows.len() as u64));
    for workers in WORKER_COUNTS {
        g.bench_with_input(
            BenchmarkId::new("racks_64", workers),
            &workers,
            |b, &workers| {
                let mut alloc = MaxMinAllocator::new();
                alloc.set_workers(workers);
                let mut rates = Vec::new();
                alloc.allocate_into(&topo, &flows, &mut rates);
                b.iter(|| {
                    alloc.allocate_dirty_reuse(
                        &topo,
                        black_box(&flows),
                        &dirty,
                        &mut rates,
                        true,
                    );
                    black_box(rates.len())
                });
            },
        );
    }
    g.finish();
}

/// Single dirty rack with the structure cached — the common steady-state
/// event (one flow departs, its rack re-solves). Worker count must not
/// matter here: one dirty component never dispatches to the pool.
fn bench_dirty_one_rack(c: &mut Criterion) {
    let mut g = c.benchmark_group("alloc_parallel/dirty_one_rack");
    let (topo, flows) = rack_local_demands();
    let dirty: Vec<u32> = (0..HOSTS_PER_RACK).collect();
    for workers in [1usize, 8] {
        g.bench_with_input(
            BenchmarkId::new("racks_64", workers),
            &workers,
            |b, &workers| {
                let mut alloc = MaxMinAllocator::new();
                alloc.set_workers(workers);
                let mut rates = Vec::new();
                alloc.allocate_into(&topo, &flows, &mut rates);
                b.iter(|| {
                    alloc.allocate_dirty_reuse(
                        &topo,
                        black_box(&flows),
                        &dirty,
                        &mut rates,
                        true,
                    );
                    black_box(rates.len())
                });
            },
        );
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_full_solve,
    bench_dirty_batch,
    bench_dirty_one_rack
);
criterion_main!(benches);
