//! Scaling of the island workers: the same 4-island EA run (identical
//! seed, identical results — see `tests/island_determinism.rs`) at 1, 2, 4
//! and 8 threads on a calibrated synthetic workload.
//!
//! Island runs are the engine's only fan-out: each worker evolves whole
//! islands between migrations, while every batch is scored in one call on
//! the thread that owns its island. (A panmictic run is one island, so its
//! lines would be identical by construction.) The EA configuration widens
//! the paper's population (`S = 32`, `C = 64`) so each island's epoch is a
//! sizeable unit of work; the fitness kernel (covering + Huffman over the
//! distinct-block histogram) is the paper's. On a multicore machine the
//! 4-thread run should come in at well under the 1-thread wall-clock;
//! eval/s lines make the throughput comparable across thread counts.

use criterion::{criterion_group, criterion_main, Criterion};
use evotc_bits::{BlockHistogram, TestSet, TestSetString};
use evotc_core::EaCompressor;
use evotc_evo::EaConfig;
use evotc_workloads::{tables, workload_with_limit};

const BLOCK_LEN: usize = 12;
const NUM_MVS: usize = 64;

fn calibrated_workload() -> (TestSet, BlockHistogram, usize) {
    let row = tables::stuck_at_row("s953").expect("s953 is a Table 1 row");
    let set = workload_with_limit(row.circuit, row.test_set_bits, row.rate_9c, 1, 1 << 14, 1);
    let string = TestSetString::try_new(&set, BLOCK_LEN).expect("K=12 fits the workload");
    let histogram = BlockHistogram::from_string(&string);
    let payload_bits = string.payload_bits();
    (set, histogram, payload_bits)
}

fn compressor(threads: usize) -> EaCompressor {
    // Four islands of a wide (S + C), migrating every 5 generations;
    // budget-capped so one run is a stable unit of work.
    let config = EaConfig::builder()
        .population_size(32)
        .children_per_generation(64)
        .stagnation_limit(1_000)
        .max_evaluations(4_096)
        .islands(4, 5, 2)
        .seed(1)
        .threads(threads)
        .build();
    EaCompressor::builder(BLOCK_LEN, NUM_MVS)
        .config(config)
        .build()
}

fn bench_ea_parallel(c: &mut Criterion) {
    let (set, histogram, payload_bits) = calibrated_workload();
    for threads in [1usize, 2, 4, 8] {
        let ea = compressor(threads);
        c.bench_function(&format!("ea_parallel_{threads}_threads"), |b| {
            b.iter(|| ea.optimize_histogram(&histogram, payload_bits))
        });
        let summary = ea
            .compress_with_summary(&set)
            .expect("calibrated workload compresses")
            .1;
        println!(
            "ea_parallel_{threads}_threads throughput: {:.0} eval/s ({} evals)",
            summary.evaluations_per_sec(),
            summary.evaluations
        );
    }
}

criterion_group!(benches, bench_ea_parallel);
criterion_main!(benches);
