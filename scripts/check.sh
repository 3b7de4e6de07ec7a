#!/usr/bin/env bash
# Tier-1 verification: everything a PR must keep green.
#
#   ./scripts/check.sh         # build + tests + clippy + bench smoke
#   ./scripts/check.sh fast    # build + tests only (the original tier-1)
set -euo pipefail
cd "$(dirname "$0")/.."

# The root manifest's default-members include every crate, so a bare
# build also rebuilds member binaries (./target/release/repro) and a bare
# test runs every crate's tests.
echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

if [[ "${1:-}" != "fast" ]]; then
    echo "==> cargo clippy --workspace --all-targets -- -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings

    # Single-iteration smoke run of every criterion bench so the bench
    # harness can't rot; numbers are meaningless, only compile+run matter.
    echo "==> bench smoke (TL_BENCH_SMOKE=1)"
    TL_BENCH_SMOKE=1 cargo bench -p tl-bench --bench kernel
    TL_BENCH_SMOKE=1 cargo bench -p tl-bench --bench paper_experiments
    TL_BENCH_SMOKE=1 cargo bench -p tl-bench --bench telemetry
    TL_BENCH_SMOKE=1 cargo bench -p tl-bench --bench fault_overhead
    TL_BENCH_SMOKE=1 cargo bench -p tl-bench --bench analysis
    TL_BENCH_SMOKE=1 cargo bench -p tl-bench --bench alloc_single_component

    # Benchmark digest gate: one short run of each repo-benchmark workload
    # (about 4 s each). At the default seed every simulation's result
    # digest must match the one committed with the benchmark, so JCT bits
    # of all four cells are gated, not just timed.
    echo "==> benchmark digest gate (tl-benchmark --seconds 1)"
    CARGO_TARGET_DIR=.bench_build cargo build --release --offline \
        --manifest-path crates/bench/src/bin/tl-benchmark/Cargo.toml
    for w in flagship_fifo flagship_tls_one xl80_tls_rr paper_p1_tls_rr; do
        last="$(./.bench_build/release/tl-benchmark --workload "$w" --seconds 1 | tail -n 1)" || true
        [[ "$last" == '{"correct": true,'* ]] || {
            echo "benchmark workload $w failed its correctness gate: $last"; exit 1
        }
    done

    # Telemetry smoke: emit a Chrome trace from the Figure 4 narrative and
    # validate it — parses as JSON, non-empty traceEvents, and contains the
    # metadata/span/instant phases — using repro's built-in checker (no jq).
    echo "==> telemetry trace smoke"
    tmp="$(mktemp -d)"
    trap 'rm -rf "$tmp"' EXIT
    # Wall-clock budget per trace check, so a parser regression fails the
    # step instead of hanging it (the largest trace, ~10 MB, parses in
    # about a second).
    trace_budget=60
    # Every committed artifact a gate below compares byte for byte, one
    # results/ path a line; the coverage step at the end reads it.
    compared_list="$tmp/compared.txt"
    : > "$compared_list"
    gate() { cmp "$1" "$2" && echo "$2" >> "$compared_list"; }
    ./target/release/repro --experiment fig4 --trace-out "$tmp/trace.json" > /dev/null
    timeout "$trace_budget" ./target/release/repro --check-trace "$tmp/trace.json"

    # Fault smoke: a small faulted sweep runs crash+recover scenarios under
    # all three policies (repro asserts every job completes), the emitted
    # trace validates, and it shows retries plus barrier-loss events.
    echo "==> fault smoke"
    ./target/release/repro --experiment faults --iterations 20 \
        --trace-out "$tmp/faults.json" > /dev/null
    timeout "$trace_budget" ./target/release/repro --check-trace "$tmp/faults.json"
    grep -qE '"retry (flow|task)' "$tmp/faults.json"   # >=1 retry event
    grep -qE '"worker [0-9]+ lost"' "$tmp/faults.json" # >=1 barrier-loss event

    # Differential validation: the full 32-scenario fluid-vs-packet sweep
    # (24 single-switch + 8 leaf-spine multi-tier) through the DL engine
    # with invariant checks on; exits 3 on any divergence beyond tolerance
    # (see EXPERIMENTS.md). Its JSON (every per-scenario JCT and
    # divergence) must match the committed copy byte for byte.
    echo "==> differential validation (fluid vs packet) vs committed results/json/validate.json"
    ./target/release/repro --experiment validate --json "$tmp/validate" > /dev/null
    gate "$tmp/validate/validate.json" results/json/validate.json

    # Scale smoke: the smallest grid cell of the scale sweep under all
    # three policies (repro asserts every job completes).
    echo "==> scale sweep smoke (--quick)"
    ./target/release/repro --experiment scale --quick > /dev/null

    # Committed-artifact oracle: regenerate the full scale sweep and
    # compare its canonical JSON (mean JCTs as IEEE-754 bits, event counts
    # and allocator counters) with the committed copy. The reference was
    # produced by an earlier build, so it does not trust the code under
    # test.
    echo "==> scale sweep vs committed results/json/scale.canonical.json"
    ./target/release/repro --experiment scale --json "$tmp/scale" > /dev/null
    gate "$tmp/scale/scale.canonical.json" results/json/scale.canonical.json

    # Allocator-counter oracle: the engine-driven perf run (~4 s) under
    # FIFO, TLs-One and TLs-RR, with its wall-clock fields and closing
    # timing line stripped, must print all eight allocator counters
    # exactly as committed in results/perf_counters.txt.
    echo "==> allocator counters vs committed results/perf_counters.txt"
    ./target/release/repro --experiment perf \
        | sed -E 's/ sim_wall=[^ ]+ alloc_wall=[^ ]+//' | grep -v '^done in' \
        > "$tmp/perf_counters.txt"
    gate "$tmp/perf_counters.txt" results/perf_counters.txt

    # Paper-artifact oracle: regenerate every paper table and figure at the
    # default 300 iterations and compare each CSV and JSON that has a
    # committed copy in results/ byte for byte. All eight paper CSVs and
    # the six gated paper JSONs must be present.
    # Not compared, with the reason:
    #   fig2.json, fig5a.json — per-job JCTs drift by ~1 ns against their
    #   older committed copies (the CSVs round it away); explaining and
    #   re-baselining them is open in ROADMAP.md ("one artifact gate").
    echo "==> paper CSVs and JSONs vs committed results/"
    ./target/release/repro --experiment all --csv "$tmp/paper" --json "$tmp/paper" > /dev/null
    compared=0
    for f in "$tmp"/paper/*.csv "$tmp"/paper/*.json; do
        name="$(basename "$f")"
        case "$name" in fig2.json | fig5a.json) continue ;; esac
        ref="results/${name##*.}/$name"
        [[ -f "$ref" ]] || continue
        gate "$f" "$ref"
        compared=$((compared + 1))
    done
    [[ "$compared" -ge 14 ]] || {
        echo "expected 8 paper CSVs + 6 JSONs with committed copies, compared $compared"; exit 1
    }

    # Ablation-artifact oracle: regenerate all fifteen ablations (80
    # iterations) and compare their 15 CSVs and 15 JSONs with the
    # committed copies in results/ byte for byte (~100 s on two cores).
    echo "==> ablation CSVs and JSONs vs committed results/"
    ./target/release/repro --experiment ablations --csv "$tmp/ablations" \
        --json "$tmp/ablations" > /dev/null
    compared=0
    for f in "$tmp"/ablations/*.csv "$tmp"/ablations/*.json; do
        name="$(basename "$f")"
        ref="results/${name##*.}/$name"
        [[ -f "$ref" ]] || continue
        gate "$f" "$ref"
        compared=$((compared + 1))
    done
    [[ "$compared" -ge 30 ]] || {
        echo "expected 30 ablation files with committed copies, compared $compared"; exit 1
    }

    # Fabric and explain artifacts: regenerate both at their default size
    # (well under a second together) and compare the three files with
    # committed copies byte for byte.
    echo "==> fabric and explain CSVs and JSONs vs committed results/"
    ./target/release/repro --experiment fabric --csv "$tmp/fe" --json "$tmp/fe" > /dev/null 2>&1
    ./target/release/repro --experiment explain --csv "$tmp/fe" --json "$tmp/fe" > /dev/null 2>&1
    gate "$tmp/fe/fabric.json" results/json/fabric.json
    gate "$tmp/fe/explain.csv" results/csv/explain.csv
    gate "$tmp/fe/explain.json" results/json/explain.json

    # Artifact coverage: every file under results/ is compared by a gate
    # above or excluded here, each exclusion with its reason:
    #   scale.json, profile.json - wall-clock values, different every run;
    #   fig2.json, fig5a.json    - the known ~1 ns JCT drift (paper step);
    #   ABLATIONS.md, *.log      - prose summary and console transcripts,
    #                              not files a repro flag writes.
    echo "==> every committed artifact is compared or excluded"
    uncovered=""
    while IFS= read -r f; do
        case "$f" in
            results/json/scale.json | results/json/profile.json) ;;
            results/json/fig2.json | results/json/fig5a.json) ;;
            results/ABLATIONS.md | results/*.log) ;;
            *) grep -qxF "$f" "$compared_list" || uncovered="$uncovered $f" ;;
        esac
    done < <(find results -type f | sort)
    [[ -z "$uncovered" ]] || {
        echo "committed artifacts neither compared nor excluded:$uncovered"; exit 1
    }

    # Fabric smoke: the full policy x oversubscription x pattern grid on
    # the leaf-spine topology at smoke-test iteration counts (repro asserts
    # every cell completes all jobs).
    echo "==> fabric sweep smoke (--quick)"
    ./target/release/repro --experiment fabric --quick > /dev/null

    # Fabric counter tracks: a leaf-spine perf trace must carry per-rack
    # uplink/downlink utilization counter tracks next to the event spans.
    echo "==> fabric trace smoke"
    ./target/release/repro --experiment perf --iterations 12 \
        --topology leaf-spine:3x7@4 --trace-out "$tmp/fabric_trace.json" > /dev/null
    timeout "$trace_budget" ./target/release/repro --check-trace "$tmp/fabric_trace.json"
    grep -q 'fabric.rack0.up.util' "$tmp/fabric_trace.json"
    grep -q 'fabric.rack2.down.util' "$tmp/fabric_trace.json"

    # Explain smoke: the analysis cells with conservation checks (repro
    # panics on any job whose decomposition fails to sum to its JCT), plus
    # the engine self-profiler; the JSON export must carry the breakdown
    # and blame schema.
    echo "==> explain + profile smoke (--quick)"
    ./target/release/repro --experiment explain --quick --profile \
        --json "$tmp/explain" > /dev/null
    grep -q '"breakdown"' "$tmp/explain/explain.json"
    grep -q '"blame"' "$tmp/explain/explain.json"
    grep -q '"critical_path"' "$tmp/explain/explain.json"
    grep -q '"alloc.solve"' "$tmp/explain/profile.json"

    # One cell executor: the orchestrator owns the only thread pool in the
    # experiments crate, so every grid gets its per-cell isolation,
    # checkpoint ledger and timeouts. No other source file may start
    # threads.
    echo "==> one cell executor check"
    spawners="$(grep -rlE 'thread::(scope|spawn|Builder)' crates/experiments/src \
        | grep -v '^crates/experiments/src/orchestrator\.rs$' || true)"
    [[ -z "$spawners" ]] || {
        echo "threads started outside orchestrator.rs: $spawners"; exit 1
    }

    # Crash-and-resume smoke: inject a panic into one scale cell — repro
    # must drain the sweep, report the cell, and exit 4 with the surviving
    # cells checkpointed; a resume re-runs only the failed cell and exits
    # 0; a second resume is a pure ledger load and the merged JSON must be
    # byte-identical across the two.
    echo "==> crash-and-resume smoke (--quick)"
    status=0
    TL_SWEEP_PANIC_AT=scale:1 ./target/release/repro --experiment scale \
        --quick --json "$tmp/sweep" > /dev/null 2>&1 || status=$?
    [[ "$status" -eq 4 ]] || {
        echo "expected exit 4 after an injected cell failure, got $status"; exit 1
    }
    grep -q '"Panicked"' "$tmp/sweep/scale.cells.jsonl"
    ./target/release/repro --experiment scale --quick --json "$tmp/sweep" \
        --resume > /dev/null 2>&1
    cp "$tmp/sweep/scale.json" "$tmp/sweep/scale.first.json"
    ./target/release/repro --experiment scale --quick --json "$tmp/sweep" \
        --resume > /dev/null 2>&1
    cmp "$tmp/sweep/scale.json" "$tmp/sweep/scale.first.json"
fi

echo "==> all checks passed"
