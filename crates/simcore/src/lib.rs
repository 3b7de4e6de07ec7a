//! # simcore — deterministic discrete-event simulation kernel
//!
//! The foundation of the TensorLights reproduction suite: simulated time,
//! an event queue with deterministic tie-breaking, named RNG streams derived
//! from a single master seed, and the statistics containers used by the
//! paper's measurements (means, variances, medians, CDFs).
//!
//! Everything here is domain-agnostic: no networking or deep-learning
//! concepts. Higher layers (`tl-net`, `tl-dl`, `tl-cluster`) build on it.
//!
//! ## Determinism contract
//!
//! * [`EventQueue`] breaks simultaneous-event ties by insertion order.
//! * [`RngFactory`] derives per-component streams from `(master seed, label)`
//!   only — creation order is irrelevant.
//!
//! Together these guarantee that a simulation configured identically twice
//! produces bit-identical results, which the integration tests assert.
//!
//! ```
//! use simcore::{EventQueue, SimTime};
//!
//! let mut queue = EventQueue::new();
//! queue.schedule(SimTime::from_secs(2), "later");
//! queue.schedule(SimTime::from_secs(1), "sooner");
//! assert_eq!(queue.pop(), Some((SimTime::from_secs(1), "sooner")));
//! ```

#![warn(missing_docs)]

pub mod dirty;
pub mod event;
pub mod invariant;
pub mod outcome;
pub mod profile;
pub mod rng;
pub mod stats;
pub mod time;

pub use dirty::DirtySet;
pub use event::{EventHandle, EventQueue};
pub use invariant::{InvariantChecker, InvariantViolation};
pub use outcome::CellOutcome;
pub use profile::{ProfileReport, Profiler, SubsystemProfile};
pub use rng::{RngFactory, UnitLogNormal};
pub use stats::{Histogram, OnlineStats, SampleSet, Summary};
pub use time::{MonotonicTimer, SimDuration, SimTime};
