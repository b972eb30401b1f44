//! Ablation A: compression rate over the (K, L) grid — the paper's
//! "we generated data for numerous values of K and L" (Section 4).
//!
//! Usage: `cargo run -p evotc-bench --bin sweep --release [-- --full] [circuit]`

use evotc_bench::{ea_average, run_args};
use evotc_workloads::tables::stuck_at_row;
use evotc_workloads::workload_with_limit;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (profile, circuits) = run_args("sweep", &args);
    let circuit = circuits.first().map(|s| s.as_str()).unwrap_or("s444");
    let row = stuck_at_row(circuit).expect("circuit must appear in Table 1");
    let set = workload_with_limit(
        row.circuit,
        row.test_set_bits,
        row.rate_9c,
        1,
        profile.size_limit,
        1,
    );
    println!("# Ablation A — (K, L) sweep on {circuit}\n");
    println!("| K | L | EA rate (%) |");
    println!("|---:|---:|---:|");
    for k in [4usize, 6, 8, 12, 16] {
        for l in [4usize, 9, 16, 32, 64] {
            let rate = ea_average(&set, k, l, &profile);
            println!("| {k} | {l} | {rate:.1} |");
        }
    }
}
