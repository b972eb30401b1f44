//! Old vs new fitness evaluation: the legacy per-genome path
//! (`MvSet::from_genes` → `Covering::cover` → `huffman_code`) against the
//! allocation-free, bit-sliced scratch kernel
//! (`MvFitness::evaluate_with_objectives`), on the paper-default shape
//! (K=12, L=64) over a calibrated ISCAS-like workload and on a large
//! synthetic set.
//!
//! The kernel must come in at ≥ 3× the legacy throughput on the paper shape
//! (ISSUE 3 acceptance bar); `evotc_bench --bin fitness_smoke` measures the
//! same ratio quickly — over the identical `fitness_fixture` workloads —
//! and writes it to `BENCH_fitness.json`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use evotc_bench::fitness_fixture::{
    paper_histogram, random_genomes, synthetic_histogram, BLOCK_LEN, NUM_MVS,
};
use evotc_bits::BlockHistogram;
use evotc_core::{EvalScratch, MvFitness};
use evotc_evo::FitnessEval;

const BATCH: usize = 64;

fn bench_pair(c: &mut Criterion, label: &str, histogram: &BlockHistogram, payload_bits: f64) {
    let fitness = MvFitness::new(BLOCK_LEN, true, histogram, payload_bits);
    let genomes = random_genomes(BATCH, BLOCK_LEN * NUM_MVS, 42);

    c.bench_function(&format!("fitness_legacy_{label}"), |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for g in &genomes {
                acc += fitness.evaluate(black_box(g));
            }
            acc
        })
    });
    c.bench_function(&format!("fitness_kernel_{label}"), |b| {
        let mut scratch = EvalScratch::new();
        b.iter(|| {
            let mut acc = 0.0;
            for g in &genomes {
                let (score, _) = fitness.evaluate_with_objectives(black_box(g), &mut scratch);
                acc += score;
            }
            acc
        })
    });

    // Sanity: the two paths agree bit-for-bit on this workload.
    let mut scratch = EvalScratch::new();
    for g in &genomes {
        let (score, _) = fitness.evaluate_with_objectives(g, &mut scratch);
        assert_eq!(
            fitness.evaluate(g).to_bits(),
            score.to_bits(),
            "kernel diverged from legacy on {label}"
        );
    }
}

fn bench_fitness_kernel(c: &mut Criterion) {
    let (paper, paper_bits) = paper_histogram();
    bench_pair(c, "paper_k12_l64", &paper, paper_bits);
    let (synthetic, synth_bits) = synthetic_histogram();
    bench_pair(c, "synth_large", &synthetic, synth_bits);
}

criterion_group!(benches, bench_fitness_kernel);
criterion_main!(benches);
