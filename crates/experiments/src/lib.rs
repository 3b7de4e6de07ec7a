//! # tl-experiments — the reproduction harness
//!
//! One module per table/figure of the TensorLights paper, plus shared
//! plumbing. Each module exposes `run(...)` producing a serializable result
//! with paper-style `table()` rendering and a `summary()` quoting the
//! paper's headline number next to the measured one. The `repro` binary
//! drives them; see DESIGN.md §4 for the experiment index and
//! EXPERIMENTS.md for measured-vs-paper results.

#![warn(missing_docs)]

pub mod ablations;
pub mod charts;
pub mod config;
pub mod explain;
pub mod fabric;
pub mod faults;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod orchestrator;
pub mod report;
pub mod runner;
pub mod scale;
pub mod table1;
pub mod table2;
pub mod validate;

pub use config::ExperimentConfig;
pub use orchestrator::{
    install_sigint_handler, interrupted, run_isolated, run_sweep, write_atomic, CellRecord,
    SweepOptions, SweepOutcome,
};
pub use runner::{run_grid_search, run_grid_search_telemetry, run_table1, PolicyKind};
