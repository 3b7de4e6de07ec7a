//! # tl-cluster — testbed/cluster substrate
//!
//! Models the compute side of the paper's 21-server testbed:
//!
//! * [`host::HostSpec`] — host hardware (the paper's 6-core×2HT, 128 GB
//!   machines);
//! * [`cpu::CpuEngine`] — event-driven processor-sharing of each host's
//!   cores among runnable tasks (21 colocated workers on 12 hardware
//!   threads contend, exactly as in §III);
//! * [`placement`] — Table I placement generation plus general strategies
//!   (colocated / spread / random);
//! * [`monitor`] — Table II's active-window utilization measurement over
//!   simulator counters instead of vmstat/ifstat.

#![warn(missing_docs)]

pub mod cpu;
pub mod host;
pub mod monitor;
pub mod placement;

pub use cpu::{CompletedTask, CpuEngine, CpuTaskId};
pub use host::HostSpec;
pub use monitor::{
    mean_utilization, record_utilization, snapshot, utilization_between, HostUtilization,
    ResourceSnapshot,
};
pub use placement::{
    grouped_placement, make_placement, table1_group_sizes, table1_placement, JobPlacement,
    Placement, PlacementStrategy, PsShards, Table1Index,
};
