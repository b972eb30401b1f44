//! Baseline F: the classic coders from the paper's related-work section
//! (run-length [1], Golomb [3], FDR [4], selective Huffman [2]) next to 9C
//! and the EA, on the same calibrated workloads.
//!
//! Usage: `cargo run -p evotc-bench --bin baselines --release [-- --full]`

use evotc_bench::{ea_average, run_args};
use evotc_codes::{fdr, golomb, runlength, selective};
use evotc_core::{NineCCompressor, TestCompressor};
use evotc_workloads::tables::TABLE1;
use evotc_workloads::workload_with_limit;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (profile, _) = run_args("baselines", &args);
    println!("# Baseline comparison (zero-filled don't-cares for run-length codes)\n");
    println!("| circuit | RL(b=4) | Golomb(best m) | FDR | SelHuff(8,16) | 9C | EA |");
    println!("|---|---:|---:|---:|---:|---:|---:|");
    for row in TABLE1.iter().take(12) {
        let set = workload_with_limit(
            row.circuit,
            row.test_set_bits,
            row.rate_9c,
            1,
            profile.size_limit,
            1,
        );
        // Classic coders expect fully specified data: zero-fill the Xs.
        let bits: Vec<bool> = set
            .iter()
            .flat_map(|p| {
                p.iter()
                    .map(|t| t.to_bool().unwrap_or(false))
                    .collect::<Vec<_>>()
            })
            .collect();
        let rl = runlength::compress(&bits, 4).rate_percent();
        let m = golomb::best_group_size(&bits, 64);
        let go = golomb::compress(&bits, m).rate_percent();
        let fd = fdr::compress(&bits).rate_percent();
        let sh = selective::compress(&bits, 8, 16).rate_percent();
        let ninec = NineCCompressor::new(8)
            .compress(&set)
            .map(|c| c.rate_percent())
            .unwrap_or(f64::NEG_INFINITY);
        let ea = ea_average(&set, 12, 64, &profile);
        println!(
            "| {} | {rl:.1} | {go:.1} | {fd:.1} | {sh:.1} | {ninec:.1} | {ea:.1} |",
            row.circuit
        );
    }
}
