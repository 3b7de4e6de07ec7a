//! The `tlsd` binary: the plan it prints and its exit codes (0 for a
//! plan, 1 for an unreadable or invalid registry, 2 for a bad invocation).

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Two jobs whose PSes share host 0, the contention TensorLights resolves.
const REGISTRY: &str =
    r#"{"jobs":[{"tag":1,"ps_host":0,"ps_port":2222},{"tag":2,"ps_host":0,"ps_port":2223}]}"#;

fn write(name: &str, text: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("tlsd-{name}-{}.json", std::process::id()));
    std::fs::write(&path, text).unwrap();
    path
}

fn tlsd(registry: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tlsd"))
        .arg("--registry")
        .arg(registry)
        .args(args)
        .output()
        .unwrap()
}

#[test]
fn fresh_registry_prints_the_full_setup() {
    let reg = write("plan", REGISTRY);
    let out = tlsd(&reg, &["--mode", "one"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.starts_with("# host h0\n"), "{stdout}");
    assert!(stdout.contains("tc qdisc add dev eth0"), "{stdout}");
    assert!(stdout.contains("sport 2222") && stdout.contains("sport 2223"), "{stdout}");
    // Filtering on a host without contention prints nothing.
    let out = tlsd(&reg, &["--mode", "one", "--host", "1"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(out.stdout.is_empty());
    // Re-planning the state already applied changes nothing.
    let out = tlsd(&reg, &["--mode", "one", "--prev", reg.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0));
    assert!(out.stdout.is_empty());
    assert!(String::from_utf8_lossy(&out.stderr).contains("nothing to change"));
    let _ = std::fs::remove_file(&reg);
}

#[test]
fn unreadable_or_invalid_registries_exit_1() {
    let missing = std::env::temp_dir().join(format!("tlsd-missing-{}.json", std::process::id()));
    let malformed = write("malformed", "{\"jobs\":[");
    let shared_port = write(
        "shared-port",
        r#"{"jobs":[{"tag":1,"ps_host":0,"ps_port":2222},{"tag":2,"ps_host":0,"ps_port":2222}]}"#,
    );
    for (path, needle) in [
        (&missing, "cannot read"),
        (&malformed, "cannot parse"),
        (&shared_port, "share port 2222"),
    ] {
        let out = tlsd(path, &[]);
        assert_eq!(out.status.code(), Some(1), "{}", path.display());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{stderr} (wanted {needle})");
    }
    let _ = std::fs::remove_file(&malformed);
    let _ = std::fs::remove_file(&shared_port);
}

#[test]
fn out_of_range_flag_values_exit_2() {
    // Each value parses as a number, but no plan can honour it; the
    // binary must say so as a usage error instead of panicking.
    let reg = write("flags", REGISTRY);
    for (flag, value) in [
        ("--link-gbps", "0"),
        ("--link-gbps", "inf"),
        ("--link-gbps", "1e300"),
        ("--bands", "0"),
        ("--interval", "0"),
        ("--interval", "1e-300"),
        ("--at", "-1"),
        ("--at", "inf"),
        ("--prev-at", "NaN"),
    ] {
        let out = tlsd(&reg, &[flag, value]);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}");
    }
    let _ = std::fs::remove_file(&reg);
}
