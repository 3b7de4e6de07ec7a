//! Placement study: sweep the paper's Table I placements under all three
//! policies (a compact Figure 2 + Figure 5a in one run).
//!
//! ```sh
//! cargo run --release --example placement_study -- [iterations]
//! ```

use tl_cluster::Table1Index;
use tl_experiments::{run_sweep, run_table1, ExperimentConfig, PolicyKind, SweepOptions};

fn main() {
    let iterations: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(60);
    let cfg = ExperimentConfig::scaled(iterations);

    println!(
        "placement        FIFO     TLs-One   TLs-RR   (mean JCT seconds; {iterations} iterations)"
    );
    let mut tasks = Vec::new();
    for idx in Table1Index::all() {
        for p in PolicyKind::all() {
            tasks.push((idx, p));
        }
    }
    let context = serde_json::to_string(&cfg).expect("config serializes");
    let outs = run_sweep(
        "placement_study",
        &context,
        &SweepOptions::default(),
        tasks,
        |(idx, p)| format!("placement=#{},policy={}", idx.0, p.label()),
        move |(idx, p)| run_table1(&cfg, idx, p).mean_jct_secs(),
    )
    .expect_complete();
    for (k, idx) in Table1Index::all().into_iter().enumerate() {
        let fifo = outs[3 * k];
        let one = outs[3 * k + 1];
        let rr = outs[3 * k + 2];
        println!(
            "#{:<3}        {:8.1} {:9.1} {:8.1}   (TLs-One {:+.1}%)",
            idx.0,
            fifo,
            one,
            rr,
            (one / fifo - 1.0) * 100.0
        );
    }
}
