//! Regenerates Table 2 (path-delay test sets): 9C vs 9C+HC vs EA1 vs EA2.
//!
//! Usage: `cargo run -p evotc-bench --bin table2 --release [-- --full] [--threads N] [circuit…]`

use evotc_bench::{markdown_table, run_args, run_path_delay_rows};
use evotc_workloads::tables::{TABLE2, TABLE2_AVG};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (profile, filter) = run_args("table2", &args);

    let selected: Vec<_> = TABLE2
        .iter()
        .filter(|row| filter.is_empty() || filter.iter().any(|f| *f == row.circuit))
        .collect();
    for row in &selected {
        eprintln!("queued {} ({} bits)…", row.circuit, row.test_set_bits);
    }
    let rows = run_path_delay_rows(&selected, &profile);
    println!("# Table 2 — path-delay test sets (measured)\n");
    println!("{}", markdown_table(&rows, ("EA1", "EA2")));
    println!(
        "paper averages: 9C {:.1} | 9C+HC {:.1} | EA1 {:.1} | EA2 {:.1}",
        TABLE2_AVG.0, TABLE2_AVG.1, TABLE2_AVG.2, TABLE2_AVG.3
    );
}
