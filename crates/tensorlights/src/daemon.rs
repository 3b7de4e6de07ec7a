//! The `tlsd` planning core: job registry in, `tc` commands out.
//!
//! A real deployment runs a tiny agent on each host with colocated PSes
//! (or one planner for the cluster). The agent's inputs are exactly what
//! local configuration can know: which jobs have PSes where, on which TCP
//! ports. This module parses that registry from JSON and plans the `tc`
//! command sequences for a policy — full setup from scratch, or the minimal
//! diff from a previous registry state and/or an elapsed rotation interval.
//!
//! The `tlsd` binary is a thin CLI over [`plan`].

use crate::band_map::JobOrdering;
use crate::controller::{Controller, HostCommands, JobNetInfo};
use crate::policy::{JobTrafficInfo, PriorityPolicy};
use crate::tls_one::TlsOne;
use crate::tls_rr::TlsRr;
use crate::FifoPolicy;
use serde::{Deserialize, Serialize};
use simcore::{SimDuration, SimTime};
use tl_net::{Band, Bandwidth, HostId};

/// One job in the registry file.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegistryJob {
    /// Unique job tag.
    pub tag: u64,
    /// Host index carrying the job's PS.
    pub ps_host: u32,
    /// The PS's TCP port (the tc classification key).
    pub ps_port: u16,
    /// Model update size in bytes (for size-aware orderings); 0 if unknown.
    #[serde(default)]
    pub update_bytes: u64,
    /// Arrival sequence; defaults to the tag.
    #[serde(default)]
    pub arrival_seq: Option<u64>,
}

/// The registry file: the set of currently active jobs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct Registry {
    /// Active jobs.
    pub jobs: Vec<RegistryJob>,
}

/// Why a registry was rejected.
#[derive(Debug)]
pub enum RegistryError {
    /// The JSON itself is malformed.
    Json(serde_json::Error),
    /// Two jobs carry the same tag — band assignment and tc filter
    /// classification would silently collide.
    DuplicateTag {
        /// The repeated tag.
        tag: u64,
    },
    /// Two jobs' PSes share a host and a TCP port. The host's tc filters
    /// classify by port, so one job's band would silently replace the
    /// other's.
    DuplicatePort {
        /// The shared PS host.
        ps_host: u32,
        /// The shared port.
        ps_port: u16,
    },
    /// A job names a PS host outside the cluster.
    PsHostOutOfRange {
        /// The offending job's tag.
        tag: u64,
        /// The out-of-range host index.
        ps_host: u32,
        /// The cluster size the registry was validated against.
        num_hosts: u32,
    },
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::Json(e) => write!(f, "malformed registry JSON: {e}"),
            RegistryError::DuplicateTag { tag } => {
                write!(f, "duplicate job tag {tag} in registry")
            }
            RegistryError::DuplicatePort { ps_host, ps_port } => {
                write!(f, "two PSes on host {ps_host} share port {ps_port}")
            }
            RegistryError::PsHostOutOfRange {
                tag,
                ps_host,
                num_hosts,
            } => write!(
                f,
                "job {tag}: ps_host {ps_host} out of range (cluster has {num_hosts} hosts)"
            ),
        }
    }
}

impl std::error::Error for RegistryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RegistryError::Json(e) => Some(e),
            _ => None,
        }
    }
}

impl From<serde_json::Error> for RegistryError {
    fn from(e: serde_json::Error) -> Self {
        RegistryError::Json(e)
    }
}

impl Registry {
    /// Parse a registry from JSON and validate it (unique tags and PS
    /// host/port pairs; host indices are unchecked because the cluster size is unknown here —
    /// use [`Registry::validate`] with a host count for that).
    pub fn from_json(json: &str) -> Result<Registry, RegistryError> {
        let reg: Registry = serde_json::from_str(json)?;
        reg.validate(None)?;
        Ok(reg)
    }

    /// Check registry invariants: job tags must be unique, no two PSes
    /// may share a host and port, and — when the cluster size is known —
    /// every `ps_host` must be a valid host index.
    pub fn validate(&self, num_hosts: Option<u32>) -> Result<(), RegistryError> {
        let mut seen = std::collections::HashSet::new();
        let mut ports = std::collections::HashSet::new();
        for j in &self.jobs {
            if !seen.insert(j.tag) {
                return Err(RegistryError::DuplicateTag { tag: j.tag });
            }
            if !ports.insert((j.ps_host, j.ps_port)) {
                return Err(RegistryError::DuplicatePort {
                    ps_host: j.ps_host,
                    ps_port: j.ps_port,
                });
            }
            if let Some(n) = num_hosts {
                if j.ps_host >= n {
                    return Err(RegistryError::PsHostOutOfRange {
                        tag: j.tag,
                        ps_host: j.ps_host,
                        num_hosts: n,
                    });
                }
            }
        }
        Ok(())
    }

    fn traffic_infos(&self) -> Vec<JobTrafficInfo> {
        self.jobs
            .iter()
            .map(|j| JobTrafficInfo {
                tag: j.tag,
                ps_host: HostId(j.ps_host),
                update_bytes: j.update_bytes,
                arrival_seq: j.arrival_seq.unwrap_or(j.tag),
            })
            .collect()
    }

    fn net_infos(&self) -> Vec<JobNetInfo> {
        self.jobs
            .iter()
            .map(|j| JobNetInfo {
                tag: j.tag,
                ps_host: HostId(j.ps_host),
                ps_port: j.ps_port,
            })
            .collect()
    }
}

/// Which TensorLights variant to plan for.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PlanMode {
    /// No prioritization: plan removes any existing configuration.
    Fifo,
    /// TLs-One (static priorities).
    One,
    /// TLs-RR with the given rotation interval in seconds.
    Rr {
        /// Rotation interval T, seconds.
        interval_secs: f64,
    },
}

/// Planner configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DaemonConfig {
    /// NIC device name.
    pub dev: String,
    /// Link speed in Gbit/s.
    pub link_gbps: f64,
    /// Number of priority bands.
    pub num_bands: u8,
    /// Policy variant.
    pub mode: PlanMode,
    /// Ordering of colocated jobs.
    pub ordering: JobOrdering,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            dev: "eth0".into(),
            link_gbps: 10.0,
            num_bands: 6,
            mode: PlanMode::Rr {
                interval_secs: 20.0,
            },
            ordering: JobOrdering::ByArrival,
        }
    }
}

impl DaemonConfig {
    /// Check the settings [`plan`] relies on: a positive, finite link
    /// speed, a band count the tc hierarchy accepts, and a TLs-RR
    /// interval that is finite and at least one nanosecond.
    pub fn validate(&self) -> Result<(), String> {
        let bytes_per_sec = self.link_gbps * 1e9 / 8.0;
        if !(bytes_per_sec > 0.0 && bytes_per_sec.is_finite()) {
            return Err(format!(
                "link speed {} Gbps must be positive and finite",
                self.link_gbps
            ));
        }
        if !Band::valid_band_count(self.num_bands) {
            return Err(format!(
                "band count {} outside tc budget 1..={}",
                self.num_bands,
                Band::MAX_TC_BANDS
            ));
        }
        if let PlanMode::Rr { interval_secs } = self.mode {
            if !(interval_secs.is_finite() && (interval_secs * 1e9).round() >= 1.0) {
                return Err(format!(
                    "rotation interval {interval_secs} s must be finite and at least 1 ns"
                ));
            }
        }
        Ok(())
    }
}

fn build_policy(cfg: &DaemonConfig) -> Box<dyn PriorityPolicy> {
    match cfg.mode {
        PlanMode::Fifo => Box::new(FifoPolicy),
        PlanMode::One => Box::new(TlsOne::new(cfg.ordering).with_bands(cfg.num_bands)),
        PlanMode::Rr { interval_secs } => Box::new(
            TlsRr::new(cfg.ordering)
                .with_bands(cfg.num_bands)
                .with_interval(SimDuration::from_secs_f64(interval_secs)),
        ),
    }
}

/// Plan the commands that move the deployed state from `prev` — the
/// registry applied at wall-clock offset `prev_at_secs` (empty state if
/// `None`) — to `cur` at offset `now_secs` (the offsets drive the TLs-RR
/// rotation phase). Returns per-host command lists; hosts with nothing to
/// change are omitted.
pub fn plan(
    cfg: &DaemonConfig,
    prev: Option<(&Registry, f64)>,
    cur: &Registry,
    now_secs: f64,
) -> Vec<HostCommands> {
    let mut policy = build_policy(cfg);
    let link = Bandwidth::from_gbps(cfg.link_gbps);
    let mut controller = Controller::new(cfg.dev.clone(), link, cfg.num_bands);
    if let Some((prev, prev_at)) = prev {
        // Bring the controller to the previously deployed state silently.
        let a = policy.assign(SimTime::from_secs_f64(prev_at), &prev.traffic_infos());
        let _ = controller.apply(&a, &prev.net_infos());
    }
    let a = policy.assign(SimTime::from_secs_f64(now_secs), &cur.traffic_infos());
    controller.apply(&a, &cur.net_infos())
}

/// The next wall-clock offset (seconds) at which the plan must be refreshed
/// even without registry churn; `None` for static modes.
pub fn next_refresh_secs(cfg: &DaemonConfig, now_secs: f64) -> Option<f64> {
    build_policy(cfg)
        .next_update(SimTime::from_secs_f64(now_secs))
        .map(|t| t.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry(n: u64) -> Registry {
        Registry {
            jobs: (0..n)
                .map(|tag| RegistryJob {
                    tag,
                    ps_host: 0,
                    ps_port: 2222 + tag as u16,
                    update_bytes: 1_900_000,
                    arrival_seq: None,
                })
                .collect(),
        }
    }

    #[test]
    fn parses_minimal_json() {
        let r = Registry::from_json(r#"{"jobs":[{"tag":1,"ps_host":0,"ps_port":2222}]}"#)
            .expect("valid json");
        assert_eq!(r.jobs.len(), 1);
        assert_eq!(r.jobs[0].update_bytes, 0, "defaults applied");
        assert_eq!(r.jobs[0].arrival_seq, None);
    }

    #[test]
    fn rejects_malformed_json() {
        assert!(matches!(
            Registry::from_json("{not json"),
            Err(RegistryError::Json(_))
        ));
        assert!(Registry::from_json(r#"{"jobs":[{"tag":"x"}]}"#).is_err());
    }

    #[test]
    fn rejects_duplicate_tags() {
        let json = r#"{"jobs":[
            {"tag":7,"ps_host":0,"ps_port":2222},
            {"tag":7,"ps_host":1,"ps_port":2223}]}"#;
        match Registry::from_json(json) {
            Err(RegistryError::DuplicateTag { tag }) => assert_eq!(tag, 7),
            other => panic!("expected DuplicateTag, got {other:?}"),
        }
    }

    #[test]
    fn rejects_two_pses_on_one_host_port() {
        let json = r#"{"jobs":[
            {"tag":1,"ps_host":0,"ps_port":2222},
            {"tag":2,"ps_host":1,"ps_port":2222},
            {"tag":3,"ps_host":0,"ps_port":2222}]}"#;
        match Registry::from_json(json) {
            Err(RegistryError::DuplicatePort { ps_host, ps_port }) => {
                assert_eq!((ps_host, ps_port), (0, 2222));
            }
            other => panic!("expected DuplicatePort, got {other:?}"),
        }
        // The same port on different hosts is fine.
        let json = r#"{"jobs":[
            {"tag":1,"ps_host":0,"ps_port":2222},
            {"tag":2,"ps_host":1,"ps_port":2222}]}"#;
        assert!(Registry::from_json(json).is_ok());
    }

    #[test]
    fn rejects_out_of_range_ps_host() {
        let json = r#"{"jobs":[
            {"tag":0,"ps_host":0,"ps_port":2222},
            {"tag":1,"ps_host":21,"ps_port":2223}]}"#;
        // Parse alone cannot check host bounds...
        let reg = Registry::from_json(json).expect("tags are unique");
        // ...but validation against the cluster size does.
        match reg.validate(Some(21)) {
            Err(RegistryError::PsHostOutOfRange {
                tag,
                ps_host,
                num_hosts,
            }) => {
                assert_eq!((tag, ps_host, num_hosts), (1, 21, 21));
            }
            other => panic!("expected PsHostOutOfRange, got {other:?}"),
        }
        assert!(reg.validate(Some(22)).is_ok(), "host 21 valid in 22 hosts");
        assert!(reg.validate(None).is_ok(), "unknown cluster size: no bound");
    }

    #[test]
    fn fresh_plan_is_full_setup() {
        let cfg = DaemonConfig::default();
        let cmds = plan(&cfg, None, &registry(3), 0.0);
        assert_eq!(cmds.len(), 1);
        assert!(cmds[0].commands[0].contains("qdisc add dev eth0"));
        // qdisc + parent + 6 bands + 3 filters.
        assert_eq!(cmds[0].commands.len(), 11);
    }

    #[test]
    fn rotation_plan_is_filter_diff() {
        let cfg = DaemonConfig::default();
        let reg = registry(3);
        // Same registry, one interval later: pure filter diff.
        let cmds = plan(&cfg, Some((&reg, 0.0)), &reg, 20.0);
        assert_eq!(cmds.len(), 1);
        assert!(cmds[0].commands.iter().all(|c| c.contains("filter")));
    }

    #[test]
    fn identical_state_needs_nothing() {
        let cfg = DaemonConfig {
            mode: PlanMode::One,
            ..Default::default()
        };
        let reg = registry(3);
        assert!(plan(&cfg, Some((&reg, 0.0)), &reg, 99.0).is_empty());
    }

    #[test]
    fn departure_plan_tears_down_when_uncontended() {
        let cfg = DaemonConfig {
            mode: PlanMode::One,
            ..Default::default()
        };
        let cmds = plan(&cfg, Some((&registry(2), 0.0)), &registry(1), 5.0);
        assert_eq!(cmds.len(), 1);
        assert_eq!(cmds[0].commands, vec!["tc qdisc del dev eth0 root"]);
    }

    #[test]
    fn fifo_mode_plans_removal_of_existing_config() {
        let one = DaemonConfig {
            mode: PlanMode::One,
            ..Default::default()
        };
        let reg = registry(3);
        // State deployed under TLs-One...
        let mut policy = build_policy(&one);
        let link = Bandwidth::from_gbps(one.link_gbps);
        let mut controller = Controller::new("eth0", link, 6);
        controller.apply(
            &policy.assign(SimTime::ZERO, &reg.traffic_infos()),
            &reg.net_infos(),
        );
        // ...then a FIFO assignment (no configured hosts) tears it down.
        let mut fifo = FifoPolicy;
        let a = fifo.assign(SimTime::ZERO, &reg.traffic_infos());
        let cmds = controller.apply(&a, &reg.net_infos());
        assert_eq!(cmds.len(), 1);
        assert!(cmds[0].commands[0].contains("qdisc del"));
    }

    #[test]
    fn refresh_schedule_follows_mode() {
        let rr = DaemonConfig::default();
        assert_eq!(next_refresh_secs(&rr, 0.0), Some(20.0));
        assert_eq!(next_refresh_secs(&rr, 25.0), Some(40.0));
        let one = DaemonConfig {
            mode: PlanMode::One,
            ..Default::default()
        };
        assert_eq!(next_refresh_secs(&one, 0.0), None);
    }

    #[test]
    fn validate_rejects_settings_plan_cannot_honour() {
        assert_eq!(DaemonConfig::default().validate(), Ok(()));
        let rr = |interval_secs| DaemonConfig {
            mode: PlanMode::Rr { interval_secs },
            ..Default::default()
        };
        assert_eq!(rr(1e-9).validate(), Ok(()));
        let link = |link_gbps| DaemonConfig {
            link_gbps,
            ..Default::default()
        };
        let bands = |num_bands| DaemonConfig {
            num_bands,
            ..Default::default()
        };
        for (cfg, needle) in [
            (link(0.0), "link speed"),
            (link(-1.0), "link speed"),
            (link(f64::INFINITY), "link speed"),
            (link(1e300), "link speed"),
            (bands(0), "band count"),
            (bands(Band::MAX_TC_BANDS + 1), "band count"),
            (rr(0.0), "rotation interval"),
            (rr(1e-300), "rotation interval"),
            (rr(f64::INFINITY), "rotation interval"),
        ] {
            let err = cfg.validate().unwrap_err();
            assert!(err.contains(needle), "{err} (wanted {needle})");
        }
    }

    #[test]
    fn registry_round_trips_through_serde() {
        let reg = registry(2);
        let json = serde_json::to_string(&reg).expect("serialize");
        let back = Registry::from_json(&json).expect("parse");
        assert_eq!(reg, back);
    }
}
