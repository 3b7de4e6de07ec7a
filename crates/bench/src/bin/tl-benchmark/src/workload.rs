//! The four benchmark workloads, built only from the repository's public
//! constructors. The seed is the only input: it becomes the
//! `ExperimentConfig` seed, which drives compute noise, per-flow weight
//! noise and the TensorLights priority ordering.

use simcore::{SimDuration, SimTime};
use tensorlights::PriorityPolicy;
use tl_cluster::{grouped_placement, table1_group_sizes, table1_placement, JobPlacement};
use tl_cluster::{Placement, Table1Index};
use tl_dl::{JobSetup, SimConfig, TopologySpec};
use tl_experiments::{ExperimentConfig, PolicyKind};
use tl_net::HostId;
use tl_workloads::GridSearchConfig;

/// The `ExperimentConfig` seed; the benchmark's default seed.
pub const DEFAULT_SEED: u64 = 20190520;

/// Workers per job in the flagship cells (the paper's job shape).
const FLAGSHIP_WORKERS: u32 = 20;
/// Jobs dealt to each rack of the leaf-spine cell.
const JOBS_PER_RACK: u32 = 20;
/// Hosts per rack of the leaf-spine cell.
const HOSTS_PER_RACK: u32 = 40;
/// Workers per job of the leaf-spine cell.
const RACK_WORKERS: u32 = 4;

/// How a workload's cluster and jobs are shaped.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// Single switch, jobs of 1 PS + 20 workers, PSes in three colocated
    /// groups (Table I #4 generalised): the `repro --experiment scale`
    /// grid cell.
    Flagship { hosts: u32, jobs: u32, iters: u64 },
    /// Leaf-spine at 2:1, 40 hosts and 20 rack-local 4-worker jobs per
    /// rack, 5 s TLs-RR rotation: the `scale --xl` cell's structure.
    Racks { racks: u32, iters: u64 },
    /// The paper testbed: 21 hosts, 21 jobs, Table I placement #1, batch
    /// 4, rotation interval scaled with the iteration count.
    Paper { iters: u64 },
}

/// One named workload: a cell at benchmark size and at `--smoke` size.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub policy: PolicyKind,
    pub full: Shape,
    pub smoke: Shape,
    /// `measure::digest` of the benchmark-size cell at the default seed.
    pub digest: u64,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "flagship_fifo",
        policy: PolicyKind::Fifo,
        full: Shape::Flagship {
            hosts: 500,
            jobs: 200,
            iters: 5,
        },
        smoke: Shape::Flagship {
            hosts: 21,
            jobs: 21,
            iters: 2,
        },
        digest: 0xcba0_8531_4265_8029,
    },
    Workload {
        name: "flagship_tls_one",
        policy: PolicyKind::TlsOne,
        full: Shape::Flagship {
            hosts: 500,
            jobs: 200,
            iters: 5,
        },
        smoke: Shape::Flagship {
            hosts: 21,
            jobs: 21,
            iters: 2,
        },
        digest: 0xc992_e4a0_add0_90e8,
    },
    Workload {
        name: "xl80_tls_rr",
        policy: PolicyKind::TlsRr,
        full: Shape::Racks {
            racks: 80,
            iters: 3,
        },
        smoke: Shape::Racks { racks: 2, iters: 1 },
        digest: 0xd902_4047_e8ac_e595,
    },
    Workload {
        name: "paper_p1_tls_rr",
        policy: PolicyKind::TlsRr,
        full: Shape::Paper { iters: 300 },
        smoke: Shape::Paper { iters: 5 },
        digest: 0x1471_7bbd_ebcf_cdb4,
    },
];

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Everything one simulation needs, freshly built.
pub struct Scenario {
    pub cfg: SimConfig,
    pub setups: Vec<JobSetup>,
    pub policy: Box<dyn PriorityPolicy + Send>,
}

impl Shape {
    /// Build the scenario: placement, job setups, policy and engine config.
    pub fn scenario(self, policy: PolicyKind, seed: u64) -> Scenario {
        let (exp, placement, wl) = match self {
            Shape::Flagship { hosts, jobs, iters } => {
                let exp = ExperimentConfig {
                    iterations: iters,
                    rr_interval: SimDuration::from_secs(5),
                    seed,
                    ..ExperimentConfig::default()
                };
                let placement = grouped_placement(
                    hosts,
                    FLAGSHIP_WORKERS,
                    &table1_group_sizes(Table1Index(4), jobs),
                );
                let mut wl = GridSearchConfig::paper_scaled(iters);
                wl.num_jobs = jobs;
                wl.workers_per_job = FLAGSHIP_WORKERS;
                (exp, placement, wl)
            }
            Shape::Racks { racks, iters } => {
                let exp = ExperimentConfig {
                    iterations: iters,
                    rr_interval: SimDuration::from_secs(5),
                    topology: TopologySpec::LeafSpine {
                        racks,
                        hosts_per_rack: HOSTS_PER_RACK,
                        oversub: 2.0,
                    },
                    seed,
                    ..ExperimentConfig::default()
                };
                let mut wl = GridSearchConfig::paper_scaled(iters);
                wl.num_jobs = racks * JOBS_PER_RACK;
                wl.workers_per_job = RACK_WORKERS;
                (exp, rack_local_placement(racks), wl)
            }
            Shape::Paper { iters } => {
                let exp = ExperimentConfig {
                    seed,
                    ..ExperimentConfig::scaled(iters)
                };
                let mut wl = GridSearchConfig::paper_scaled(iters);
                wl.local_batch_size = 4;
                (exp, table1_placement(Table1Index(1), 21, 21), wl)
            }
        };
        Scenario {
            setups: wl.build(&placement),
            policy: policy.build(&exp),
            cfg: exp.sim_config(),
        }
    }
}

impl Scenario {
    /// The same scenario with a horizon of zero: running it performs the
    /// engine's set-up and the events at time zero, and nothing after.
    pub fn horizon_zero(mut self) -> Scenario {
        self.cfg.max_sim_time = SimTime::ZERO;
        self
    }
}

/// The `scale --xl` placement at any rack count: each rack pins two jobs'
/// PSes to each of its ten even hosts and runs their workers on the
/// following hosts of the same rack, so no flow leaves its rack.
fn rack_local_placement(racks: u32) -> Placement {
    let jobs = (0..racks * JOBS_PER_RACK)
        .map(|i| {
            let base = (i / JOBS_PER_RACK) * HOSTS_PER_RACK;
            let slot = i % JOBS_PER_RACK;
            let ps_off = (slot % (JOBS_PER_RACK / 2)) * 4 % HOSTS_PER_RACK;
            let workers = (0..RACK_WORKERS)
                .map(|w| HostId(base + (ps_off + 1 + slot + w) % HOSTS_PER_RACK))
                .collect();
            JobPlacement::new(HostId(base + ps_off), workers)
        })
        .collect();
    Placement { jobs }
}
