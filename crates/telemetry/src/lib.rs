//! # tl-telemetry — structured observability for the simulation suite
//!
//! Three typed layers:
//!
//! * [`SimEvent`] — a closed enum of everything the simulators can report
//!   (flow lifecycle, priority rotations, barrier enter/exit, job
//!   arrival/completion, allocator re-solves), timestamped as
//!   [`TimedEvent`]s;
//! * [`MetricsRegistry`] — named counters/gauges/histograms sampled on a
//!   configurable cadence into per-metric timeseries;
//! * exporters — a JSONL event log ([`export::events_to_jsonl`]) and a
//!   Chrome `trace_event` JSON file ([`export::chrome_trace`]) loadable in
//!   Perfetto / `chrome://tracing`, with one track per job and per host.
//!
//! Emission goes through the [`Telemetry`] handle (or the [`EventSink`]
//! trait for engines that own their sink): a cheaply clonable reference
//! shared by every engine in a single-threaded simulation. When disabled
//! the handle is `None` inside and [`Telemetry::emit`] is a branch on a
//! bool — the hot loop keeps its performance (guarded by the
//! `telemetry` criterion bench).
//!
//! Determinism: events are stored in emission order, metrics in
//! registration order, and both exporters format from those orders alone,
//! so two identically-seeded runs export byte-identical files (asserted
//! by the determinism integration tests).

#![warn(missing_docs)]

pub mod event;
pub mod export;
pub mod metrics;
pub mod sink;

pub use event::{ShareChangeCause, SimEvent, TimedEvent};
pub use metrics::{MetricId, MetricKind, MetricsRegistry};
pub use sink::{EventSink, NullSink, Telemetry, TelemetryConfig, TelemetryOutput};
