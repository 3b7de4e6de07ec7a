//! Cross-validation of the fluid and chunk-level network models.
//!
//! The fluid engine (used by the big experiments) must agree with the
//! single-link packet engine (used for Figure 4) on single-egress
//! scenarios, and with the multi-host `PacketNet` on topology-wide ones:
//! same completion times up to chunk quantization.

use simcore::SimTime;
use tl_net::{Band, Bandwidth, FlowSpec, FluidNet, HostId, PacketSim, Qdisc, Topology, Transfer};

const LINK_GBPS: f64 = 10.0;

/// Run the fluid engine on transfers all leaving host 0 and return each
/// transfer's completion time in seconds (input order).
fn fluid_times(transfers: &[Transfer]) -> Vec<f64> {
    let hosts = transfers.len() + 1;
    let mut net = FluidNet::new(Topology::uniform(hosts, Bandwidth::from_gbps(LINK_GBPS)));
    let mut ids = Vec::new();
    for (k, t) in transfers.iter().enumerate() {
        assert_eq!(
            t.arrival,
            SimTime::ZERO,
            "helper assumes simultaneous start"
        );
        ids.push(net.start_flow(
            SimTime::ZERO,
            FlowSpec {
                src: HostId(0),
                dst: HostId(k as u32 + 1), // distinct receivers: egress is the only shared link
                bytes: t.bytes as f64,
                band: t.band,
                weight: 1.0,
                tag: t.tag,
            },
        ));
    }
    let mut done = vec![0.0; transfers.len()];
    while let Some(t) = net.next_event_time() {
        for c in net.take_completions(t) {
            let k = ids.iter().position(|&i| i == c.id).expect("known flow");
            done[k] = c.finished.as_secs_f64();
        }
    }
    done
}

fn packet_times(transfers: &[Transfer], qdisc: Qdisc) -> Vec<f64> {
    let run = PacketSim::new(Bandwidth::from_gbps(LINK_GBPS), qdisc).run(transfers, &[]);
    run.outcomes
        .iter()
        .map(|o| o.finished.as_secs_f64())
        .collect()
}

fn xfer(tag: u64, mb: u64, band: u8) -> Transfer {
    Transfer {
        tag,
        dst: tag as u32,
        bytes: mb * 1_000_000,
        band: Band(band),
        arrival: SimTime::ZERO,
    }
}

/// Chunk quantization bound: one 64 KiB chunk per active transfer.
fn tolerance(n: usize) -> f64 {
    n as f64 * 65536.0 / 1.25e9 + 1e-6
}

#[test]
fn equal_fifo_transfers_agree() {
    let ts: Vec<Transfer> = (0..4).map(|k| xfer(k, 50, 0)).collect();
    let fluid = fluid_times(&ts);
    let packet = packet_times(&ts, Qdisc::PfifoFast);
    for (f, p) in fluid.iter().zip(&packet) {
        assert!((f - p).abs() < tolerance(4), "fluid {f} vs packet {p}");
    }
}

#[test]
fn unequal_fifo_transfers_agree() {
    // Sizes 20/40/80 MB: the fluid max-min model predicts the classic
    // staircase completion pattern; chunk round-robin reproduces it.
    let ts = [xfer(0, 20, 0), xfer(1, 40, 0), xfer(2, 80, 0)];
    let fluid = fluid_times(&ts);
    let packet = packet_times(&ts, Qdisc::PfifoFast);
    for (f, p) in fluid.iter().zip(&packet) {
        assert!((f - p).abs() < tolerance(3), "fluid {f} vs packet {p}");
    }
    // And the staircase is the right one: 48, 88, 128 MB-equivalents.
    assert!((fluid[0] - 60e6 / 1.25e9).abs() < 1e-3);
}

#[test]
fn strict_priority_agrees() {
    let ts = [xfer(0, 30, 0), xfer(1, 30, 1), xfer(2, 30, 2)];
    let fluid = fluid_times(&ts);
    let packet = packet_times(&ts, Qdisc::Prio);
    for (f, p) in fluid.iter().zip(&packet) {
        assert!((f - p).abs() < tolerance(3), "fluid {f} vs packet {p}");
    }
    // Serialization order: band 0 at 30 MB, band 1 at 60, band 2 at 90.
    assert!(fluid[0] < fluid[1] && fluid[1] < fluid[2]);
}

#[test]
fn mixed_bands_with_sharing_agree() {
    // Two band-0 transfers share, then a band-1 transfer drains.
    let ts = [xfer(0, 40, 0), xfer(1, 40, 0), xfer(2, 40, 1)];
    let fluid = fluid_times(&ts);
    let packet = packet_times(&ts, Qdisc::Prio);
    for (f, p) in fluid.iter().zip(&packet) {
        assert!((f - p).abs() < tolerance(3), "fluid {f} vs packet {p}");
    }
    let total = 120e6 / 1.25e9;
    assert!((fluid[2] - total).abs() < 1e-3, "low band finishes last");
}

#[test]
fn work_conservation_matches() {
    // Total completion time equals total bytes / link rate in both models,
    // whatever the discipline.
    let ts = [xfer(0, 33, 2), xfer(1, 21, 0), xfer(2, 46, 1)];
    let total = 100e6 / 1.25e9;
    let fluid_last = fluid_times(&ts).into_iter().fold(0.0f64, f64::max);
    assert!((fluid_last - total).abs() < 1e-3);
    for q in [Qdisc::PfifoFast, Qdisc::Prio] {
        let packet_last = packet_times(&ts, q).into_iter().fold(0.0f64, f64::max);
        assert!((packet_last - total).abs() < 1e-3, "{q:?}");
    }
}

// ---------------------------------------------------------------------------
// Multi-host cross-validation: the fluid model vs the store-and-forward
// chunk engine (`tl_net::PacketNet`) on topology-wide scenarios, including
// the paper's PS fan-out/fan-in pattern.

use tl_net::pnet::{DEFAULT_CHUNK_BYTES, DEFAULT_WINDOW};
use tl_net::{CompletedFlow, EgressDiscipline, FlowId, PacketNet};

/// Record each completion's finish time (seconds) at its flow's input
/// position.
fn record(done: &mut [f64], ids: &[FlowId], completions: Vec<CompletedFlow>) {
    for c in completions {
        let k = ids.iter().position(|&i| i == c.id).expect("known flow");
        done[k] = c.finished.as_secs_f64();
    }
}

/// A flow and its start instant; drivers start flows in input order, so
/// starts must not decrease.
type Timed = (SimTime, FlowSpec);

fn fluid_multi(hosts: usize, flows: &[Timed]) -> Vec<f64> {
    let mut net = FluidNet::new(Topology::uniform(hosts, Bandwidth::from_gbps(LINK_GBPS)));
    let ids: Vec<_> = flows.iter().map(|&(at, f)| net.start_flow(at, f)).collect();
    let mut done = vec![0.0; flows.len()];
    while let Some(t) = net.next_event_time() {
        record(&mut done, &ids, net.take_completions(t));
    }
    done
}

fn packet_multi(hosts: usize, d: EgressDiscipline, flows: &[Timed]) -> Vec<f64> {
    let mut net = PacketNet::with_chunking(
        Topology::uniform(hosts, Bandwidth::from_gbps(LINK_GBPS)),
        DEFAULT_CHUNK_BYTES,
        DEFAULT_WINDOW,
        d,
    );
    let ids: Vec<_> = flows.iter().map(|&(at, f)| net.start_flow(at, f)).collect();
    let mut done = vec![0.0; flows.len()];
    while let Some(t) = net.next_event_time() {
        record(&mut done, &ids, net.take_completions(t));
    }
    done
}

/// A flow of `mb` megabytes starting at t = 0.
fn nf(src: u32, dst: u32, mb: u64, band: u8, tag: u64) -> Timed {
    let spec = FlowSpec {
        src: HostId(src),
        dst: HostId(dst),
        bytes: (mb * 1_000_000) as f64,
        band: Band(band),
        weight: 1.0,
        tag,
    };
    (SimTime::ZERO, spec)
}

#[test]
fn ps_fanout_agrees_across_models() {
    // One PS (host 0) sends a model update to each of 6 workers — the
    // paper's per-iteration egress burst.
    let flows: Vec<Timed> = (1..=6).map(|w| nf(0, w, 20, 0, w as u64)).collect();
    let fluid = fluid_multi(7, &flows);
    let packet = packet_multi(7, EgressDiscipline::FifoFair, &flows);
    let total = 120e6 / 1.25e9;
    for (f, &pt) in fluid.iter().zip(&packet) {
        assert!((f - pt).abs() < 0.01, "fanout: fluid {f} vs packet {pt}");
        assert!((pt - total).abs() < 0.01, "all finish near the burst end");
    }
}

#[test]
fn gradient_fanin_agrees_across_models() {
    // Six workers send gradients into the PS host — the fan-in direction,
    // bottlenecked at the PS ingress.
    let flows: Vec<Timed> = (1..=6).map(|w| nf(w, 0, 20, 0, w as u64)).collect();
    let fluid = fluid_multi(7, &flows);
    let packet = packet_multi(7, EgressDiscipline::FifoFair, &flows);
    for (f, &pt) in fluid.iter().zip(&packet) {
        assert!((f - pt).abs() < 0.01, "fanin: fluid {f} vs packet {pt}");
    }
}

#[test]
fn two_colocated_ps_priority_agrees_across_models() {
    // The paper's Figure 4 scenario at topology scale: two PSes on host 0,
    // three workers each, TLs-One bands.
    let mut flows = Vec::new();
    for w in 0..3u32 {
        flows.push(nf(0, 1 + w, 20, 0, 1)); // job 1, high band
        flows.push(nf(0, 4 + w, 20, 1, 2)); // job 2, yields
    }
    let fluid = fluid_multi(7, &flows);
    let packet = packet_multi(7, EgressDiscipline::Priority, &flows);
    for (k, (f, &pt)) in fluid.iter().zip(&packet).enumerate() {
        assert!((f - pt).abs() < 0.015, "flow {k}: fluid {f} vs packet {pt}");
    }
    // And the job-level story holds in both: job 1's last delivery is at
    // about half of job 2's.
    let job_last = |times: &[f64], job: usize| -> f64 {
        times
            .iter()
            .enumerate()
            .filter(|(k, _)| k % 2 == job)
            .map(|(_, &t)| t)
            .fold(0.0f64, f64::max)
    };
    let j1 = job_last(&fluid, 0);
    let j2 = job_last(&fluid, 1);
    assert!((j1 / j2 - 0.5).abs() < 0.05, "j1 {j1} vs j2 {j2}");
}

#[test]
fn cross_traffic_pattern_agrees_across_models() {
    // A mixed pattern exercising simultaneous egress and ingress
    // constraints on several hosts.
    let flows = vec![
        nf(0, 1, 30, 0, 1),
        nf(0, 2, 15, 0, 2),
        nf(3, 1, 30, 0, 3),
        nf(2, 0, 10, 0, 4),
    ];
    let fluid = fluid_multi(4, &flows);
    let packet = packet_multi(4, EgressDiscipline::FifoFair, &flows);
    for (k, (f, &pt)) in fluid.iter().zip(&packet).enumerate() {
        assert!((f - pt).abs() < 0.02, "flow {k}: fluid {f} vs packet {pt}");
    }
}

#[test]
fn staggered_fanout_agrees_across_models() {
    // The PS's model updates leave one by one, 5 ms apart, so the egress
    // share changes at every arrival: both models must track the
    // changing fair share, not just a static one.
    let flows: Vec<Timed> = (1..=4u32)
        .map(|w| {
            let (_, spec) = nf(0, w, 20, 0, u64::from(w));
            (SimTime::from_millis(5 * u64::from(w - 1)), spec)
        })
        .collect();
    let fluid = fluid_multi(5, &flows);
    let packet = packet_multi(5, EgressDiscipline::FifoFair, &flows);
    for (k, (f, &pt)) in fluid.iter().zip(&packet).enumerate() {
        assert!((f - pt).abs() < 0.01, "flow {k}: fluid {f} vs packet {pt}");
    }
    // Work conservation: the last update leaves at total / link rate.
    let last = packet.iter().fold(0.0f64, |a, &b| a.max(b));
    assert!((last - 80e6 / 1.25e9).abs() < 0.01, "last finish {last}");
}
