//! Regenerates Table 1 (stuck-at test sets): 9C vs 9C+HC vs EA vs EA-Best.
//!
//! Usage: `cargo run -p evotc-bench --bin table1 --release [-- --full] [--threads N] [circuit…]`

use evotc_bench::{markdown_table, run_args, run_stuck_at_rows};
use evotc_workloads::tables::{TABLE1, TABLE1_AVG};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (profile, filter) = run_args("table1", &args);

    let selected: Vec<_> = TABLE1
        .iter()
        .filter(|row| filter.is_empty() || filter.iter().any(|f| *f == row.circuit))
        .collect();
    for row in &selected {
        eprintln!("queued {} ({} bits)…", row.circuit, row.test_set_bits);
    }
    let rows = run_stuck_at_rows(&selected, &profile);
    println!("# Table 1 — stuck-at test sets (measured)\n");
    println!("{}", markdown_table(&rows, ("EA", "EA-Best")));
    println!(
        "paper averages: 9C {:.1} | 9C+HC {:.1} | EA {:.1} | EA-Best {:.1}",
        TABLE1_AVG.0, TABLE1_AVG.1, TABLE1_AVG.2, TABLE1_AVG.3
    );
}
