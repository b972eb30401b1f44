//! Ablation B: EA parameter sensitivity — the paper's conclusion that
//! "further improvements are possible by fitting the parameters of the
//! Evolutionary Optimization, such as population size and operator
//! probabilities" (Section 5).
//!
//! Usage: `cargo run -p evotc-bench --bin operators --release [-- --full]`

use evotc_bench::run_args;
use evotc_core::{EaCompressor, TestCompressor};
use evotc_evo::EaConfig;
use evotc_workloads::tables::stuck_at_row;
use evotc_workloads::workload_with_limit;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (profile, _) = run_args("operators", &args);
    let row = stuck_at_row("s444").expect("s444 is in Table 1");
    let set = workload_with_limit(
        row.circuit,
        row.test_set_bits,
        row.rate_9c,
        1,
        profile.size_limit,
        1,
    );

    let variants: &[(&str, f64, f64, f64, usize, usize)] = &[
        ("paper defaults", 0.30, 0.30, 0.10, 10, 5),
        ("mutation-heavy", 0.10, 0.60, 0.10, 10, 5),
        ("crossover-heavy", 0.60, 0.20, 0.10, 10, 5),
        ("no inversion", 0.35, 0.35, 0.00, 10, 5),
        ("large population", 0.30, 0.30, 0.10, 30, 15),
        ("greedy (S=4,C=8)", 0.30, 0.30, 0.10, 4, 8),
    ];

    println!("# Ablation B — EA parameter sensitivity on s444\n");
    println!("| variant | px | pm | pi | S | C | rate (%) |");
    println!("|---|---:|---:|---:|---:|---:|---:|");
    for &(name, px, pm, pi, s, c) in variants {
        let config = EaConfig::builder()
            .population_size(s)
            .children_per_generation(c)
            .crossover_probability(px)
            .mutation_probability(pm)
            .inversion_probability(pi)
            .stagnation_limit(profile.stagnation_limit)
            .max_evaluations(profile.max_evaluations)
            .seed(1)
            .build();
        let rate = EaCompressor::builder(12, 64)
            .config(config)
            .build()
            .compress(&set)
            .map(|r| r.rate_percent())
            .unwrap_or(f64::NEG_INFINITY);
        println!("| {name} | {px:.2} | {pm:.2} | {pi:.2} | {s} | {c} | {rate:.1} |");
    }
}
