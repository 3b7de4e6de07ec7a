//! Typed simulation events.
//!
//! Every observable state change in the simulators is one [`SimEvent`]
//! variant. Events carry plain integer identifiers (job tag, host index,
//! flow id) rather than the domain newtypes so this crate sits below
//! `tl-net`/`tl-dl` in the dependency graph; the emitting engine owns the
//! id scheme.

use serde::{Serialize, Value};
use simcore::SimTime;

/// Why the allocator handed a flow a new share — the mutation that
/// dirtied its max-min component. Carried on every
/// [`SimEvent::FlowShareChange`] so attribution (who slowed this flow
/// down, and why) never has to reverse-engineer causes from event
/// ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShareChangeCause {
    /// A new flow joined the component (flow arrival).
    NewCompetitor,
    /// A competing flow delivered its last byte and freed capacity.
    CompetitorFinished,
    /// A fault or recovery changed link capacity or aborted flows.
    Fault,
    /// A policy band change (TLs rotation / reconfiguration) moved flows
    /// between strict-priority bands.
    Rotation,
}

impl ShareChangeCause {
    /// Stable machine-readable label, used in exports.
    pub fn label(self) -> &'static str {
        match self {
            ShareChangeCause::NewCompetitor => "new_competitor",
            ShareChangeCause::CompetitorFinished => "competitor_finished",
            ShareChangeCause::Fault => "fault",
            ShareChangeCause::Rotation => "rotation",
        }
    }
}

/// One simulation event.
#[derive(Debug, Clone, PartialEq)]
pub enum SimEvent {
    /// A network flow entered the fluid engine.
    FlowStart {
        /// Engine-assigned flow id.
        flow: u64,
        /// Caller-defined grouping tag (the owning job).
        tag: u64,
        /// Sending host index.
        src: u32,
        /// Receiving host index.
        dst: u32,
        /// Transfer size in bytes.
        bytes: f64,
        /// Initial strict-priority band.
        band: u8,
    },
    /// A network flow delivered its last byte.
    FlowFinish {
        /// Engine-assigned flow id.
        flow: u64,
        /// Caller-defined grouping tag.
        tag: u64,
        /// Sending host index.
        src: u32,
        /// Receiving host index.
        dst: u32,
        /// Transfer size in bytes.
        bytes: f64,
        /// When the flow started (service span start for the trace view).
        started: SimTime,
    },
    /// An in-flight flow was aborted by a fault; its bytes were lost, so
    /// no `FlowFinish` follows (the retry restarts from scratch as a new
    /// flow).
    FlowAbort {
        /// Engine-assigned flow id.
        flow: u64,
        /// Caller-defined grouping tag.
        tag: u64,
    },
    /// The allocator assigned a flow a new rate (emitted only for flows
    /// whose rate actually changed, and only while telemetry is enabled),
    /// tagged with the mutation that caused the re-solve.
    FlowShareChange {
        /// Engine-assigned flow id.
        flow: u64,
        /// Caller-defined grouping tag.
        tag: u64,
        /// New rate in bytes/sec.
        rate: f64,
        /// What dirtied this flow's component.
        cause: ShareChangeCause,
    },
    /// A compute task started on a host's processor-sharing engine.
    TaskStart {
        /// Engine-assigned task id.
        task: u64,
        /// Owning job index.
        job: u64,
        /// Host it runs on.
        host: u32,
        /// Task kind label ("worker_step", "ps_aggregate",
        /// "ps_async_apply").
        kind: &'static str,
        /// Worker or shard index within the job (0 for PS aggregation).
        unit: u32,
    },
    /// A compute task's demand was fully served.
    TaskFinish {
        /// Engine-assigned task id.
        task: u64,
        /// Owning job index.
        job: u64,
        /// Host it ran on.
        host: u32,
        /// Task kind label, matching the `TaskStart` event.
        kind: &'static str,
        /// Worker or shard index within the job (0 for PS aggregation).
        unit: u32,
        /// When the task was submitted (service span start).
        started: SimTime,
    },
    /// An in-flight compute task was aborted by a fault; no `TaskFinish`
    /// follows (the retry re-submits the work as a new task).
    TaskAbort {
        /// Engine-assigned task id.
        task: u64,
        /// Owning job index.
        job: u64,
    },
    /// A tag's flows moved to a different priority band (TLs-RR rotation
    /// or TLs-One reconfiguration at job arrival/departure).
    PriorityRotation {
        /// The retagged flow group (job).
        tag: u64,
        /// The new band.
        band: u8,
        /// Number of in-flight flows that changed band.
        flows: u32,
    },
    /// The incremental max-min allocator re-solved dirty components.
    /// Counter fields are deltas for this solve, not cumulative totals.
    AllocSolve {
        /// Connected components re-solved.
        components_solved: u64,
        /// Components whose cached rates were kept.
        components_retained: u64,
        /// Water-filling rounds run.
        rounds: u64,
        /// Flows touched by the solve.
        flows_touched: u64,
    },
    /// A job launched (its first model updates left the PS).
    JobArrival {
        /// Job index.
        job: u64,
    },
    /// A job reached its target step count.
    JobCompletion {
        /// Job index.
        job: u64,
        /// Iterations fully aggregated.
        iterations: u64,
    },
    /// A worker entered a synchronization barrier (finished computing its
    /// local step and began sending gradients).
    BarrierEnter {
        /// Job index.
        job: u64,
        /// Worker index within the job.
        worker: u32,
        /// Barrier (iteration) index.
        barrier: u64,
    },
    /// A worker exited a barrier (received the full next model update).
    BarrierExit {
        /// Job index.
        job: u64,
        /// Worker index within the job.
        worker: u32,
        /// Barrier (iteration) index.
        barrier: u64,
    },
    /// A fault fired: a host crashed, a NIC degraded, a PS process died,
    /// or the control plane went dark.
    FaultInjected {
        /// Fault kind label (e.g. "host_crash", "nic_degrade",
        /// "ps_failure", "ctrl_outage").
        fault: &'static str,
        /// The affected entity: host index, job index, or 0 for
        /// cluster-wide control-plane faults.
        target: u64,
    },
    /// A previously injected fault healed (host restarted, NIC capacity
    /// restored, PS back up, control plane reachable again).
    FaultRecovered {
        /// Fault kind label, matching the `FaultInjected` event.
        fault: &'static str,
        /// The recovered entity.
        target: u64,
    },
    /// Blocked work (a model-update or gradient transfer, or a PS-side
    /// compute task) retried after a timeout or backoff delay.
    RetryAttempt {
        /// Owning job index.
        job: u64,
        /// What retried: "flow" or "task".
        work: &'static str,
        /// Retry number for this piece of work (1-based).
        attempt: u64,
        /// True if the retry went through; false if it backed off again.
        resumed: bool,
    },
    /// The stale-band-map guard tripped: every job's traffic fell back
    /// to the default (FIFO) band until the control plane recovers.
    DegradedToFifo {
        /// Number of jobs whose bands were reset.
        jobs: u64,
    },
    /// A synchronous job dropped a worker from its barrier
    /// (drop-and-continue policy) after the worker's host crashed.
    WorkerLost {
        /// Job index.
        job: u64,
        /// Worker index within the job.
        worker: u32,
    },
    /// Free-text escape hatch for one-off annotations; the scope is an
    /// interned static label.
    Mark {
        /// Subsystem label (e.g. "net", "job").
        scope: &'static str,
        /// Human-readable description.
        message: String,
    },
}

impl SimEvent {
    /// Stable machine-readable kind tag, used as the `kind` field of the
    /// JSONL export and by filters.
    pub fn kind(&self) -> &'static str {
        match self {
            SimEvent::FlowStart { .. } => "flow_start",
            SimEvent::FlowFinish { .. } => "flow_finish",
            SimEvent::FlowAbort { .. } => "flow_abort",
            SimEvent::FlowShareChange { .. } => "flow_share_change",
            SimEvent::TaskStart { .. } => "task_start",
            SimEvent::TaskFinish { .. } => "task_finish",
            SimEvent::TaskAbort { .. } => "task_abort",
            SimEvent::PriorityRotation { .. } => "priority_rotation",
            SimEvent::AllocSolve { .. } => "alloc_solve",
            SimEvent::JobArrival { .. } => "job_arrival",
            SimEvent::JobCompletion { .. } => "job_completion",
            SimEvent::BarrierEnter { .. } => "barrier_enter",
            SimEvent::BarrierExit { .. } => "barrier_exit",
            SimEvent::FaultInjected { .. } => "fault_injected",
            SimEvent::FaultRecovered { .. } => "fault_recovered",
            SimEvent::RetryAttempt { .. } => "retry_attempt",
            SimEvent::DegradedToFifo { .. } => "degraded_to_fifo",
            SimEvent::WorkerLost { .. } => "worker_lost",
            SimEvent::Mark { .. } => "mark",
        }
    }

    /// Interned subsystem label (the legacy trace "scope").
    pub fn scope(&self) -> &'static str {
        match self {
            SimEvent::FlowStart { .. }
            | SimEvent::FlowFinish { .. }
            | SimEvent::FlowAbort { .. }
            | SimEvent::FlowShareChange { .. } => "net",
            SimEvent::TaskStart { .. }
            | SimEvent::TaskFinish { .. }
            | SimEvent::TaskAbort { .. } => "cpu",
            SimEvent::PriorityRotation { .. } => "policy",
            SimEvent::AllocSolve { .. } => "alloc",
            SimEvent::JobArrival { .. } | SimEvent::JobCompletion { .. } => "job",
            SimEvent::BarrierEnter { .. } | SimEvent::BarrierExit { .. } => "barrier",
            SimEvent::FaultInjected { .. }
            | SimEvent::FaultRecovered { .. }
            | SimEvent::RetryAttempt { .. }
            | SimEvent::DegradedToFifo { .. }
            | SimEvent::WorkerLost { .. } => "fault",
            SimEvent::Mark { scope, .. } => scope,
        }
    }

    /// Human-readable one-line description (the legacy trace "message").
    pub fn describe(&self) -> String {
        match self {
            SimEvent::FlowStart {
                flow, tag, src, dst, ..
            } => format!("flow {flow} start tag={tag} {src}->{dst}"),
            SimEvent::FlowFinish {
                flow, tag, src, dst, ..
            } => format!("flow {flow} finish tag={tag} {src}->{dst}"),
            SimEvent::FlowAbort { flow, tag } => format!("flow {flow} aborted tag={tag}"),
            SimEvent::FlowShareChange {
                flow, rate, cause, ..
            } => {
                format!("flow {flow} rate {rate:.0} B/s ({})", cause.label())
            }
            SimEvent::TaskStart {
                task,
                job,
                host,
                kind,
                unit,
            } => format!("task {task} start job{job} {kind}[{unit}] on host {host}"),
            SimEvent::TaskFinish {
                task,
                job,
                host,
                kind,
                unit,
                ..
            } => format!("task {task} finish job{job} {kind}[{unit}] on host {host}"),
            SimEvent::TaskAbort { task, job } => format!("task {task} aborted job{job}"),
            SimEvent::PriorityRotation { tag, band, flows } => {
                format!("tag {tag} -> band {band} ({flows} flows)")
            }
            SimEvent::AllocSolve {
                components_solved,
                components_retained,
                ..
            } => format!("solved {components_solved} components, retained {components_retained}"),
            SimEvent::JobArrival { job } => format!("job{job} launched"),
            SimEvent::JobCompletion { job, .. } => format!("job{job} completed"),
            SimEvent::BarrierEnter {
                job,
                worker,
                barrier,
            } => format!("job{job} worker {worker} entered barrier {barrier}"),
            SimEvent::BarrierExit {
                job,
                worker,
                barrier,
            } => format!("job{job} worker {worker} exited barrier {barrier}"),
            SimEvent::FaultInjected { fault, target } => {
                format!("fault {fault} hit target {target}")
            }
            SimEvent::FaultRecovered { fault, target } => {
                format!("fault {fault} on target {target} recovered")
            }
            SimEvent::RetryAttempt {
                job,
                work,
                attempt,
                resumed,
            } => {
                let outcome = if *resumed { "resumed" } else { "backed off" };
                format!("job{job} {work} retry #{attempt} {outcome}")
            }
            SimEvent::DegradedToFifo { jobs } => {
                format!("stale band map: {jobs} jobs degraded to FIFO")
            }
            SimEvent::WorkerLost { job, worker } => {
                format!("job{job} dropped worker {worker} from barrier")
            }
            SimEvent::Mark { message, .. } => message.clone(),
        }
    }

    /// Event payload as ordered `(field, value)` pairs — the JSONL schema
    /// minus the envelope (`t`, `kind`).
    pub fn fields(&self) -> Vec<(&'static str, Value)> {
        match *self {
            SimEvent::FlowStart {
                flow,
                tag,
                src,
                dst,
                bytes,
                band,
            } => vec![
                ("flow", Value::UInt(flow)),
                ("tag", Value::UInt(tag)),
                ("src", Value::UInt(src as u64)),
                ("dst", Value::UInt(dst as u64)),
                ("bytes", Value::Float(bytes)),
                ("band", Value::UInt(band as u64)),
            ],
            SimEvent::FlowFinish {
                flow,
                tag,
                src,
                dst,
                bytes,
                started,
            } => vec![
                ("flow", Value::UInt(flow)),
                ("tag", Value::UInt(tag)),
                ("src", Value::UInt(src as u64)),
                ("dst", Value::UInt(dst as u64)),
                ("bytes", Value::Float(bytes)),
                ("started", Value::Float(started.as_secs_f64())),
            ],
            SimEvent::FlowAbort { flow, tag } => {
                vec![("flow", Value::UInt(flow)), ("tag", Value::UInt(tag))]
            }
            SimEvent::FlowShareChange {
                flow,
                tag,
                rate,
                cause,
            } => vec![
                ("flow", Value::UInt(flow)),
                ("tag", Value::UInt(tag)),
                ("rate", Value::Float(rate)),
                ("cause", Value::Str(cause.label().to_string())),
            ],
            SimEvent::TaskStart {
                task,
                job,
                host,
                kind,
                unit,
            } => vec![
                ("task", Value::UInt(task)),
                ("job", Value::UInt(job)),
                ("host", Value::UInt(host as u64)),
                ("task_kind", Value::Str(kind.to_string())),
                ("unit", Value::UInt(unit as u64)),
            ],
            SimEvent::TaskFinish {
                task,
                job,
                host,
                kind,
                unit,
                started,
            } => vec![
                ("task", Value::UInt(task)),
                ("job", Value::UInt(job)),
                ("host", Value::UInt(host as u64)),
                ("task_kind", Value::Str(kind.to_string())),
                ("unit", Value::UInt(unit as u64)),
                ("started", Value::Float(started.as_secs_f64())),
            ],
            SimEvent::TaskAbort { task, job } => {
                vec![("task", Value::UInt(task)), ("job", Value::UInt(job))]
            }
            SimEvent::PriorityRotation { tag, band, flows } => vec![
                ("tag", Value::UInt(tag)),
                ("band", Value::UInt(band as u64)),
                ("flows", Value::UInt(flows as u64)),
            ],
            SimEvent::AllocSolve {
                components_solved,
                components_retained,
                rounds,
                flows_touched,
            } => vec![
                ("components_solved", Value::UInt(components_solved)),
                ("components_retained", Value::UInt(components_retained)),
                ("rounds", Value::UInt(rounds)),
                ("flows_touched", Value::UInt(flows_touched)),
            ],
            SimEvent::JobArrival { job } => vec![("job", Value::UInt(job))],
            SimEvent::JobCompletion { job, iterations } => vec![
                ("job", Value::UInt(job)),
                ("iterations", Value::UInt(iterations)),
            ],
            SimEvent::BarrierEnter {
                job,
                worker,
                barrier,
            }
            | SimEvent::BarrierExit {
                job,
                worker,
                barrier,
            } => vec![
                ("job", Value::UInt(job)),
                ("worker", Value::UInt(worker as u64)),
                ("barrier", Value::UInt(barrier)),
            ],
            SimEvent::FaultInjected { fault, target }
            | SimEvent::FaultRecovered { fault, target } => vec![
                ("fault", Value::Str(fault.to_string())),
                ("target", Value::UInt(target)),
            ],
            SimEvent::RetryAttempt {
                job,
                work,
                attempt,
                resumed,
            } => vec![
                ("job", Value::UInt(job)),
                ("work", Value::Str(work.to_string())),
                ("attempt", Value::UInt(attempt)),
                ("resumed", Value::Bool(resumed)),
            ],
            SimEvent::DegradedToFifo { jobs } => vec![("jobs", Value::UInt(jobs))],
            SimEvent::WorkerLost { job, worker } => vec![
                ("job", Value::UInt(job)),
                ("worker", Value::UInt(worker as u64)),
            ],
            SimEvent::Mark {
                scope,
                ref message,
            } => vec![
                ("scope", Value::Str(scope.to_string())),
                ("message", Value::Str(message.clone())),
            ],
        }
    }
}

/// A [`SimEvent`] plus when it happened.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedEvent {
    /// Simulation time of the event.
    pub at: SimTime,
    /// The event itself.
    pub event: SimEvent,
}

impl Serialize for TimedEvent {
    /// Flat JSONL record: `{"t": <secs>, "kind": "...", <payload...>}`.
    fn to_value(&self) -> Value {
        let mut fields = Vec::with_capacity(2 + 6);
        fields.push(("t".to_string(), Value::Float(self.at.as_secs_f64())));
        fields.push(("kind".to_string(), Value::Str(self.event.kind().to_string())));
        for (k, v) in self.event.fields() {
            fields.push((k.to_string(), v));
        }
        Value::Object(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_and_scopes_are_stable() {
        let e = SimEvent::JobArrival { job: 3 };
        assert_eq!(e.kind(), "job_arrival");
        assert_eq!(e.scope(), "job");
        assert_eq!(e.describe(), "job3 launched");
        let r = SimEvent::PriorityRotation {
            tag: 1,
            band: 2,
            flows: 5,
        };
        assert_eq!(r.kind(), "priority_rotation");
        assert_eq!(r.scope(), "policy");
    }

    #[test]
    fn jsonl_record_is_flat() {
        let ev = TimedEvent {
            at: SimTime::from_millis(1500),
            event: SimEvent::FlowStart {
                flow: 9,
                tag: 2,
                src: 0,
                dst: 3,
                bytes: 1e6,
                band: 1,
            },
        };
        let line = serde_json::to_string(&ev).unwrap();
        assert_eq!(
            line,
            r#"{"t":1.5,"kind":"flow_start","flow":9,"tag":2,"src":0,"dst":3,"bytes":1000000.0,"band":1}"#
        );
    }

    #[test]
    fn mark_keeps_interned_scope() {
        let ev = SimEvent::Mark {
            scope: "ps",
            message: "rebalanced".into(),
        };
        assert_eq!(ev.scope(), "ps");
        assert_eq!(ev.kind(), "mark");
    }
}
