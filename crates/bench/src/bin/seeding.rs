//! Ablation C: 9C-seeded initial population — the paper's remark that the
//! EA's loss on s838 "could be ruled out by adding the 9C matching vector
//! set to the initial population (which we did not)" (Section 4).
//!
//! Usage: `cargo run -p evotc-bench --bin seeding --release [-- --full]`

use evotc_bench::run_args;
use evotc_core::{EaCompressor, NineCHuffmanCompressor, TestCompressor};
use evotc_workloads::tables::stuck_at_row;
use evotc_workloads::workload_with_limit;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (profile, _) = run_args("seeding", &args);
    println!("# Ablation C — 9C seeding of the initial population\n");
    println!("| circuit | 9C+HC | EA unseeded | EA 9C-seeded |");
    println!("|---|---:|---:|---:|");
    for circuit in ["s838", "s420", "s444"] {
        let row = stuck_at_row(circuit).expect("circuit is in Table 1");
        let set = workload_with_limit(
            row.circuit,
            row.test_set_bits,
            row.rate_9c,
            1,
            profile.size_limit,
            1,
        );
        let hc = NineCHuffmanCompressor::new(8)
            .compress(&set)
            .map(|c| c.rate_percent())
            .unwrap_or(f64::NEG_INFINITY);
        let build = |seeded: bool| {
            EaCompressor::builder(8, 16)
                .seed(1)
                .stagnation_limit(profile.stagnation_limit)
                .max_evaluations(profile.max_evaluations)
                .seed_ninec(seeded)
                .build()
                .compress(&set)
                .map(|c| c.rate_percent())
                .unwrap_or(f64::NEG_INFINITY)
        };
        println!(
            "| {circuit} | {hc:.1} | {:.1} | {:.1} |",
            build(false),
            build(true)
        );
    }
    println!("\nSeeding guarantees the EA starts at least as good as 9C+HC.");
}
