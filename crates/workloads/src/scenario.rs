//! Scenario files: declarative job mixes in JSON.
//!
//! Lets a user describe an arbitrary cluster workload — models, worker
//! counts, batch sizes, training modes, launch times, and (optionally)
//! explicit placements — without writing Rust. The `custom_scenario`
//! example runs such a file under every policy.
//!
//! ```json
//! {
//!   "hosts": 8,
//!   "jobs": [
//!     { "model": "resnet32", "workers": 4, "iterations": 50 },
//!     { "model": "synthetic:100", "workers": 4, "batch": 1,
//!       "ps_host": 0, "launch_secs": 2.5 }
//!   ]
//! }
//! ```

use serde::Deserialize;
use simcore::SimTime;
use std::fmt;
use tl_cluster::JobPlacement;
use tl_dl::{JobId, JobSetup, JobSpec, ModelSpec, TrainingMode};
use tl_net::HostId;

/// A whole scenario file.
#[derive(Debug, Clone, Deserialize)]
pub struct ScenarioFile {
    /// Number of hosts in the cluster.
    pub hosts: u32,
    /// Jobs to run.
    pub jobs: Vec<ScenarioJob>,
}

/// One job in a scenario file.
#[derive(Debug, Clone, Deserialize)]
pub struct ScenarioJob {
    /// Model name: `resnet32`, `resnet50`, `inception_v3`, `vgg16`,
    /// `alexnet`, or `synthetic:<megabytes>`.
    pub model: String,
    /// Number of workers.
    pub workers: u32,
    /// Local batch size (default 4).
    #[serde(default = "default_batch")]
    pub batch: u32,
    /// Synchronous iterations to run (default 100).
    #[serde(default = "default_iterations")]
    pub iterations: u64,
    /// `"sync"` (default) or `"async"`.
    #[serde(default)]
    pub mode: Option<String>,
    /// Launch time in seconds (default: 0.1 s × job index, the paper's
    /// stagger).
    #[serde(default)]
    pub launch_secs: Option<f64>,
    /// Host for the PS (default: job index modulo hosts).
    #[serde(default)]
    pub ps_host: Option<u32>,
    /// Explicit worker hosts (default: the cyclic run after the PS host).
    #[serde(default)]
    pub worker_hosts: Option<Vec<u32>>,
}

fn default_batch() -> u32 {
    4
}
fn default_iterations() -> u64 {
    100
}

/// Why a scenario was rejected.
#[derive(Debug)]
pub enum ScenarioError {
    /// The JSON did not parse.
    Json(serde_json::Error),
    /// A semantic problem, described.
    Invalid(String),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Json(e) => write!(f, "scenario JSON: {e}"),
            ScenarioError::Invalid(m) => write!(f, "invalid scenario: {m}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<serde_json::Error> for ScenarioError {
    fn from(e: serde_json::Error) -> Self {
        ScenarioError::Json(e)
    }
}

fn parse_model(name: &str) -> Result<ModelSpec, ScenarioError> {
    if let Some(mb) = name.strip_prefix("synthetic:") {
        let mb: u64 = mb
            .parse()
            .map_err(|_| ScenarioError::Invalid(format!("bad synthetic size in {name:?}")))?;
        if mb == 0 {
            return Err(ScenarioError::Invalid("synthetic model of 0 MB".into()));
        }
        if mb > u64::MAX / 1_000_000 {
            return Err(ScenarioError::Invalid(format!(
                "synthetic model of {mb} MB overflows the byte count"
            )));
        }
        return Ok(ModelSpec::synthetic_mb(mb));
    }
    match name {
        "resnet32" => Ok(ModelSpec::resnet32()),
        "resnet50" => Ok(ModelSpec::resnet50()),
        "inception_v3" => Ok(ModelSpec::inception_v3()),
        "vgg16" => Ok(ModelSpec::vgg16()),
        "alexnet" => Ok(ModelSpec::alexnet()),
        other => Err(ScenarioError::Invalid(format!("unknown model {other:?}"))),
    }
}

/// Parse and validate a scenario, producing ready-to-run job setups.
pub fn load_scenario(json: &str) -> Result<Vec<JobSetup>, ScenarioError> {
    let file: ScenarioFile = serde_json::from_str(json)?;
    if file.hosts == 0 {
        return Err(ScenarioError::Invalid("scenario needs hosts".into()));
    }
    if file.jobs.is_empty() {
        return Err(ScenarioError::Invalid("scenario needs jobs".into()));
    }
    let mut setups = Vec::with_capacity(file.jobs.len());
    for (i, j) in file.jobs.iter().enumerate() {
        let model = parse_model(&j.model)?;
        if j.workers == 0 {
            return Err(ScenarioError::Invalid(format!("job {i} has no workers")));
        }
        if j.batch == 0 {
            return Err(ScenarioError::Invalid(format!("job {i} has batch size 0")));
        }
        if j.workers >= file.hosts {
            return Err(ScenarioError::Invalid(format!(
                "job {i}: {} workers do not fit {} hosts (PS needs its own host)",
                j.workers, file.hosts
            )));
        }
        let mode = match j.mode.as_deref() {
            None | Some("sync") => TrainingMode::Synchronous,
            Some("async") => TrainingMode::Asynchronous,
            Some(other) => {
                return Err(ScenarioError::Invalid(format!(
                    "job {i}: unknown mode {other:?}"
                )))
            }
        };
        let ps_host = j.ps_host.unwrap_or(i as u32 % file.hosts);
        if ps_host >= file.hosts {
            return Err(ScenarioError::Invalid(format!(
                "job {i}: ps_host {ps_host} out of range"
            )));
        }
        let worker_hosts: Vec<HostId> = match &j.worker_hosts {
            Some(hosts) => {
                if hosts.len() != j.workers as usize {
                    return Err(ScenarioError::Invalid(format!(
                        "job {i}: {} worker_hosts for {} workers",
                        hosts.len(),
                        j.workers
                    )));
                }
                for &h in hosts {
                    if h >= file.hosts {
                        return Err(ScenarioError::Invalid(format!(
                            "job {i}: worker host {h} out of range"
                        )));
                    }
                    if h == ps_host {
                        return Err(ScenarioError::Invalid(format!(
                            "job {i}: worker on its own PS host {h}"
                        )));
                    }
                }
                hosts.iter().map(|&h| HostId(h)).collect()
            }
            None => (0..j.workers)
                .map(|w| HostId((ps_host + 1 + w) % file.hosts))
                .collect(),
        };
        let launch = match j.launch_secs {
            Some(s) if s < 0.0 => {
                return Err(ScenarioError::Invalid(format!(
                    "job {i}: negative launch time {s}"
                )))
            }
            Some(s) if s.is_finite() && s <= SimTime::MAX.as_secs_f64() => {
                SimTime::from_secs_f64(s)
            }
            Some(s) => {
                return Err(ScenarioError::Invalid(format!(
                    "job {i}: launch time {s} s is beyond the simulated clock"
                )))
            }
            None => SimTime::from_secs_f64(0.1 * i as f64),
        };
        let target_global_steps = j.iterations.checked_mul(u64::from(j.workers)).ok_or_else(|| {
            ScenarioError::Invalid(format!(
                "job {i}: {} iterations overflow the step count",
                j.iterations
            ))
        })?;
        setups.push(JobSetup {
            spec: JobSpec {
                id: JobId(i as u32),
                num_workers: j.workers,
                local_batch_size: j.batch,
                target_global_steps,
                mode,
                launch_time: launch,
                ps_port: 2222 + i as u16,
                pattern: None,
                model,
            },
            placement: JobPlacement::new(HostId(ps_host), worker_hosts),
        });
    }
    Ok(setups)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"{
        "hosts": 4,
        "jobs": [
            { "model": "resnet32", "workers": 3 },
            { "model": "synthetic:50", "workers": 2, "batch": 1,
              "iterations": 7, "mode": "async", "ps_host": 0,
              "launch_secs": 2.5 }
        ]
    }"#;

    #[test]
    fn loads_minimal_scenario() {
        let setups = load_scenario(MINIMAL).expect("valid scenario");
        assert_eq!(setups.len(), 2);
        let a = &setups[0];
        assert_eq!(a.spec.num_workers, 3);
        assert_eq!(a.spec.local_batch_size, 4, "defaults");
        assert_eq!(a.spec.target_global_steps, 300);
        assert_eq!(a.spec.mode, TrainingMode::Synchronous);
        assert_eq!(a.placement.ps_host(), HostId(0));
        assert_eq!(a.spec.launch_time, SimTime::ZERO);

        let b = &setups[1];
        assert_eq!(b.spec.model.update_bytes(), 50_000_000);
        assert_eq!(b.spec.mode, TrainingMode::Asynchronous);
        assert_eq!(b.spec.target_global_steps, 14);
        assert_eq!(b.spec.launch_time, SimTime::from_secs_f64(2.5));
        assert_eq!(b.placement.ps_host(), HostId(0));
        // Default worker hosts avoid the PS host.
        assert!(!b.placement.worker_hosts.contains(&b.placement.ps_host()));
    }

    #[test]
    fn explicit_worker_hosts_respected() {
        let json = r#"{"hosts": 5, "jobs": [
            { "model": "alexnet", "workers": 2, "ps_host": 1,
              "worker_hosts": [3, 4] }
        ]}"#;
        let setups = load_scenario(json).expect("valid");
        assert_eq!(setups[0].placement.worker_hosts, vec![HostId(3), HostId(4)]);
    }

    #[test]
    fn rejects_unknown_model() {
        let json = r#"{"hosts": 4, "jobs": [{ "model": "gpt5", "workers": 2 }]}"#;
        let err = load_scenario(json).unwrap_err();
        assert!(err.to_string().contains("unknown model"));
    }

    #[test]
    fn rejects_semantic_errors() {
        for (json, needle) in [
            (r#"{"hosts": 0, "jobs": []}"#, "needs hosts"),
            (r#"{"hosts": 4, "jobs": []}"#, "needs jobs"),
            (
                r#"{"hosts": 3, "jobs": [{"model": "resnet32", "workers": 3}]}"#,
                "do not fit",
            ),
            (
                r#"{"hosts": 4, "jobs": [{"model": "resnet32", "workers": 2, "ps_host": 9}]}"#,
                "out of range",
            ),
            (
                r#"{"hosts": 4, "jobs": [{"model": "resnet32", "workers": 2,
                    "ps_host": 0, "worker_hosts": [0, 1]}]}"#,
                "own PS host",
            ),
            (
                r#"{"hosts": 4, "jobs": [{"model": "resnet32", "workers": 2,
                    "mode": "lockstep"}]}"#,
                "unknown mode",
            ),
            (
                r#"{"hosts": 4, "jobs": [{"model": "synthetic:0", "workers": 2}]}"#,
                "0 MB",
            ),
            (
                r#"{"hosts": 4, "jobs": [{"model": "resnet32", "workers": 2, "batch": 0}]}"#,
                "batch size 0",
            ),
            (
                r#"{"hosts": 4, "jobs": [{"model": "resnet32", "workers": 2,
                    "launch_secs": 1e400}]}"#,
                "beyond the simulated clock",
            ),
            (
                r#"{"hosts": 4, "jobs": [{"model": "resnet32", "workers": 2,
                    "launch_secs": 1e300}]}"#,
                "beyond the simulated clock",
            ),
            (
                r#"{"hosts": 4, "jobs": [{"model": "resnet32", "workers": 2,
                    "launch_secs": -1}]}"#,
                "negative launch time",
            ),
        ] {
            let err = load_scenario(json).unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "{json} -> {err} (wanted {needle})"
            );
        }
    }

    #[test]
    fn rejects_sizes_that_overflow() {
        // Sizes the loader multiplies out: a synthetic model's byte count
        // and a job's total step count must fit in a u64.
        for (json, needle) in [
            (
                r#"{"hosts": 4, "jobs": [{"model": "synthetic:18446744073709551615",
                    "workers": 2}]}"#,
                "overflows the byte count",
            ),
            (
                r#"{"hosts": 4, "jobs": [{"model": "resnet32", "workers": 2,
                    "iterations": 18446744073709551615}]}"#,
                "overflow the step count",
            ),
        ] {
            let err = load_scenario(json).unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "{json} -> {err} (wanted {needle})"
            );
        }
    }

    #[test]
    fn rejects_bad_json() {
        assert!(matches!(
            load_scenario("{nope"),
            Err(ScenarioError::Json(_))
        ));
    }

    /// Field values that sit on or past a boundary: zero, one, the `u32`
    /// and `u64` maxima, a huge float, a negative number, and a literal
    /// that overflows `f64` to infinity.
    const EDGE_VALUES: [&str; 7] = [
        "0",
        "1",
        "4294967295",
        "18446744073709551615",
        "1e300",
        "-1",
        "1e400",
    ];

    /// A valid two-job, one-iteration scenario with `muts` applied: each
    /// `(job, field, value)` overwrites one numeric field of one job (the
    /// synthetic model size counts as a field) with an [`EDGE_VALUES`] entry.
    fn mutated_scenario(muts: &[(usize, usize, usize)]) -> String {
        let mut jobs = [
            ["10", "2", "2", "1", "0", "0.5"],
            ["20", "3", "1", "1", "1", "0"],
        ];
        for &(job, field, value) in muts {
            jobs[job][field] = EDGE_VALUES[value];
        }
        let job = |[mb, workers, batch, iterations, ps_host, launch]: [&str; 6]| {
            format!(
                r#"{{"model": "synthetic:{mb}", "workers": {workers}, "batch": {batch},
                    "iterations": {iterations}, "ps_host": {ps_host}, "launch_secs": {launch}}}"#
            )
        };
        format!(r#"{{"hosts": 4, "jobs": [{}, {}]}}"#, job(jobs[0]), job(jobs[1]))
    }

    proptest::proptest! {
        /// Boundary values in any field never panic the loader, and every
        /// scenario it accepts runs to completion: it loads what the
        /// engine can simulate and rejects the rest.
        fn loader_accepts_only_runnable_scenarios(
            muts in proptest::collection::vec(
                (0usize..2, 0usize..6, 0usize..EDGE_VALUES.len()),
                1..4,
            ),
        ) {
            let json = mutated_scenario(&muts);
            if let Ok(mut setups) = load_scenario(&json) {
                // One iteration per job, however many the file asks for.
                for s in &mut setups {
                    let one = u64::from(s.spec.num_workers);
                    s.spec.target_global_steps = s.spec.target_global_steps.min(one);
                }
                let cfg = tl_dl::SimConfig {
                    max_sim_time: SimTime::MAX,
                    ..Default::default()
                };
                let out = tl_dl::Simulation::new(cfg)
                    .jobs(setups)
                    .policy_ref(&mut tensorlights::FifoPolicy)
                    .run();
                proptest::prop_assert!(out.all_complete(), "accepted but did not finish: {}", json);
            }
        }
    }

    #[test]
    fn scenario_runs_end_to_end() {
        use tensorlights::FifoPolicy;
        let setups = load_scenario(MINIMAL).expect("valid");
        let mut policy = FifoPolicy;
        let out = tl_dl::Simulation::new(tl_dl::SimConfig::default())
            .jobs(setups)
            .policy_ref(&mut policy)
            .run();
        assert!(out.all_complete());
    }
}
