//! `tlsd` — plan TensorLights `tc` configurations from a job registry.
//!
//! ```text
//! tlsd --registry jobs.json [--prev old.json] [--dev eth0]
//!      [--link-gbps 10] [--bands 6] [--mode fifo|one|rr]
//!      [--interval 20] [--ordering arrival|random|smallest]
//!      [--at SECONDS] [--host N]
//! ```
//!
//! Reads the current job registry (JSON: `{"jobs":[{"tag":..,"ps_host":..,
//! "ps_port":..}, ...]}`), plans the `tc` command sequence that brings each
//! host from the previous state (`--prev`, or nothing) to the current one,
//! and prints the commands. `--at` sets the wall-clock offset driving
//! TLs-RR's rotation phase; re-invoke at each interval boundary (the tool
//! prints the next refresh time on stderr).

use tensorlights::daemon::{next_refresh_secs, plan, DaemonConfig, PlanMode, Registry};
use tensorlights::JobOrdering;

fn usage() -> ! {
    eprintln!(
        "tlsd — TensorLights tc planner\n\
         \n\
         --registry FILE   current job registry (required)\n\
         --prev FILE       previously applied registry (default: none)\n\
         --dev DEV         NIC device (default eth0)\n\
         --link-gbps G     link speed (default 10)\n\
         --bands N         priority bands (default 6)\n\
         --mode M          fifo | one | rr (default rr)\n\
         --interval S      TLs-RR rotation interval seconds (default 20)\n\
         --ordering O      arrival | random | smallest (default arrival)\n\
         --seed S          seed for --ordering random (default 0)\n\
         --at S            wall-clock offset seconds (default 0)\n\
         --prev-at S       offset at which --prev was applied (default 0)\n\
         --hosts N         cluster size; rejects registries whose ps_host\n\
                           indices fall outside 0..N (default: unchecked)\n\
         --host N          only print commands for host N"
    );
    std::process::exit(2);
}

/// A wall-clock offset in seconds: finite and non-negative.
fn offset(v: &str) -> f64 {
    match v.parse::<f64>() {
        Ok(s) if s.is_finite() && s >= 0.0 => s,
        _ => usage(),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = DaemonConfig::default();
    let mut registry_path: Option<String> = None;
    let mut prev_path: Option<String> = None;
    let mut at = 0.0f64;
    let mut prev_at = 0.0f64;
    let mut only_host: Option<u32> = None;
    let mut num_hosts: Option<u32> = None;
    let mut interval = 20.0f64;
    let mut ordering_name = "arrival".to_string();
    let mut mode_name = "rr".to_string();
    let mut seed = 0u64;

    let mut i = 0;
    while i < argv.len() {
        let next = |i: &mut usize| -> String {
            *i += 1;
            argv.get(*i).cloned().unwrap_or_else(|| usage())
        };
        match argv[i].as_str() {
            "--registry" => registry_path = Some(next(&mut i)),
            "--prev" => prev_path = Some(next(&mut i)),
            "--prev-at" => prev_at = offset(&next(&mut i)),
            "--dev" => cfg.dev = next(&mut i),
            "--link-gbps" => cfg.link_gbps = next(&mut i).parse().unwrap_or_else(|_| usage()),
            "--bands" => cfg.num_bands = next(&mut i).parse().unwrap_or_else(|_| usage()),
            "--mode" => mode_name = next(&mut i),
            "--interval" => interval = next(&mut i).parse().unwrap_or_else(|_| usage()),
            "--ordering" => ordering_name = next(&mut i),
            "--seed" => seed = next(&mut i).parse().unwrap_or_else(|_| usage()),
            "--at" => at = offset(&next(&mut i)),
            "--hosts" => num_hosts = Some(next(&mut i).parse().unwrap_or_else(|_| usage())),
            "--host" => only_host = Some(next(&mut i).parse().unwrap_or_else(|_| usage())),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
        i += 1;
    }

    cfg.mode = match mode_name.as_str() {
        "fifo" => PlanMode::Fifo,
        "one" => PlanMode::One,
        "rr" => PlanMode::Rr {
            interval_secs: interval,
        },
        _ => usage(),
    };
    cfg.ordering = match ordering_name.as_str() {
        "arrival" => JobOrdering::ByArrival,
        "random" => JobOrdering::Random { seed },
        "smallest" => JobOrdering::SmallestUpdateFirst,
        _ => usage(),
    };

    if let Err(e) = cfg.validate() {
        eprintln!("tlsd: {e}");
        std::process::exit(2);
    }

    let registry_path = registry_path.unwrap_or_else(|| usage());
    let read = |path: &str| -> Registry {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("tlsd: cannot read {path}: {e}");
            std::process::exit(1);
        });
        let reg = Registry::from_json(&text).unwrap_or_else(|e| {
            eprintln!("tlsd: cannot parse {path}: {e}");
            std::process::exit(1);
        });
        reg.validate(num_hosts).unwrap_or_else(|e| {
            eprintln!("tlsd: invalid registry {path}: {e}");
            std::process::exit(1);
        });
        reg
    };
    let cur = read(&registry_path);
    let prev = prev_path.map(|p| read(&p));

    let commands = plan(&cfg, prev.as_ref().map(|r| (r, prev_at)), &cur, at);
    if commands.is_empty() {
        eprintln!("tlsd: nothing to change");
    }
    for hc in &commands {
        if let Some(h) = only_host {
            if hc.host.0 != h {
                continue;
            }
        }
        println!("# host {}", hc.host);
        for c in &hc.commands {
            println!("{c}");
        }
    }
    if let Some(next) = next_refresh_secs(&cfg, at) {
        eprintln!("tlsd: next rotation refresh at t={next}s");
    }
}
