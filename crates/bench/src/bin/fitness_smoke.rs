//! Quick fitness-kernel perf smoke: measures evaluations/second of the
//! legacy fitness path, the allocation-free bit-sliced kernel, and the
//! incremental probe under single-gene, crossover and inversion child
//! streams — all at the paper-default shape (K=12, L=64, shared
//! `fitness_fixture` workload) — plus the whole-run `evals/sec` of a real
//! EA and the engine's own cost per generation, and writes
//! `BENCH_fitness.json` so the repo carries a perf trajectory across
//! changes. The correctness gates cover the objective vector
//! too: kernel side-channel objectives vs the covering oracle on every
//! genome, and the probe's transition and used-MV counts vs the full
//! recompute on every child.
//!
//! The incremental workloads cover the operator mix of the paper's EA in
//! its steady state: streams of children probed read-only against one
//! cached *evolved* parent — exactly how an island's parent cache
//! prices a generation's children. The single-gene stream is the mutation
//! operator (one changed MV chunk per child). The multi-chunk stream mixes
//! crossover and inversion children 3:1 (the paper's 0.30/0.10 operator
//! probabilities) with edit windows spanning 2–5 MV chunks; crossover
//! partners are drawn from a converged population (the evolved individual a
//! few point mutations apart), which is what selection actually breeds from
//! after the first generations. Pure-crossover and pure-inversion streams
//! are measured separately as well — inversion children genuinely rewrite
//! every chunk their window touches, so they bound the patch path's worst
//! case, while crossover children against converged parents bound its best.
//! The timed streams are probed with the cost gate off, so they time the
//! patch itself; a separate gate checks that the engine's gated probe both
//! prices and declines multi-chunk children at this shape.
//!
//! Every comparison runs its two sides in back-to-back pairs, the side that
//! runs first alternating (`evotc_bench::alternating_pairs`), and records
//! the median of the per-pair ratios: `PASS_PAIRS` pairs of passes for
//! the legacy-vs-kernel and stream figures, `PAIRS` pairs of whole EA
//! runs for the whole-run ratios. `engine_ns_per_generation` is the median
//! over `PAIRS` runs of `EaResult::elapsed / generations` for the paper's
//! (S + C) = (10 + 5) on the same genome length with a constant-time
//! closure fitness, so it is the engine's own cost: breeding, selection and
//! bookkeeping.
//!
//! The timed run takes about 20 s. In CI the correctness gate runs gating
//! (`--check-only`, under a second) and the timed run is a separate
//! non-gating step: a slow shared runner must not fail the build, but a
//! bitwise divergence between any two paths must. Locally:
//!
//! ```text
//! cargo run --release -p evotc_bench --bin fitness_smoke
//! ```
//!
//! Exits non-zero only if the paths disagree on any genome or child, the
//! cost gate is stuck one way, the default EA run (survival floor on)
//! differs from the same run with the floor off or prunes nothing, or a
//! covering the run keeps for a probed child differs from a rebuild of that
//! child (a correctness failure, not a perf one). Any argument other than
//! `--check-only` exits with code 2 before anything runs.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

use evotc_bench::fitness_fixture::{paper_histogram, random_genomes, BLOCK_LEN, NUM_MVS};
use evotc_bench::{alternating_pairs, check_only_arg, median};
use evotc_bits::{SlicedHistogram, Trit};
use evotc_core::{
    encoded_size_probe, encoded_size_rebuild, encoded_size_scratch, EvalCache, EvalScratch,
    IncrementalOutcome, MvFitness, MvFitnessState, PatchScratch,
};
use evotc_core::{trit_checkpoint_from_bytes, trit_checkpoint_to_bytes};
use evotc_evo::{
    CacheStats, EaBuilder, EaCheckpoint, EaConfig, EaResult, FitnessEval, Objectives, Provenance,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const GENOMES: usize = 128;
/// Children per stream workload (mutation, inversion, crossover alike).
const STREAM_LEN: usize = 256;
/// Pairs of passes per throughput comparison (a pass takes 0.1–4 ms).
const PASS_PAIRS: usize = 301;
/// Pairs of whole EA runs per ratio, and repeats of the engine-overhead run.
const PAIRS: usize = 31;
/// The fixture's genome length.
const GENOME_LEN: usize = BLOCK_LEN * NUM_MVS;

/// A deterministic stream of single-gene children of one fixed parent —
/// what the mutation operator breeds: the parent with one redrawn gene.
fn mutation_children(parent: &[Trit], steps: usize, seed: u64) -> Vec<(Range<usize>, Vec<Trit>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..steps)
        .map(|_| {
            let pos = rng.gen_range(0..parent.len());
            let mut child = parent.to_vec();
            child[pos] = Trit::from_index(rng.gen_range(0..3u8));
            (pos..pos + 1, child)
        })
        .collect()
}

/// Number of MV chunks whose planes differ between `parent` and `child`
/// (the all-`U` last MV never does).
fn changed_chunks(parent: &[Trit], child: &[Trit]) -> usize {
    parent
        .chunks(BLOCK_LEN)
        .zip(child.chunks(BLOCK_LEN))
        .take(NUM_MVS - 1)
        .filter(|(a, b)| a != b)
        .count()
}

/// A random edit window spanning 2..=5 MV chunks (length `K+1 ..= 4K`
/// genes guarantees at least two chunks are overlapped, aligned or not) —
/// the multi-chunk shape the paper's crossover/inversion operators produce.
fn multichunk_window(rng: &mut StdRng) -> Range<usize> {
    let span = rng.gen_range(BLOCK_LEN + 1..=4 * BLOCK_LEN);
    let start = rng.gen_range(0..=GENOME_LEN - span);
    start..start + span
}

/// The operator of one multi-chunk stream child.
#[derive(Clone, Copy, PartialEq)]
enum MultiOp {
    /// Swap the window's content in from a partner (paper p = 0.30).
    Crossover,
    /// Reverse the window in place (paper p = 0.10).
    Inversion,
}

/// A deterministic stream of multi-chunk children of one fixed parent —
/// the genomes the engine probes read-only against the cached parent in
/// one steady-state generation. `ops` cycles over the operator pattern
/// (e.g. 3 crossovers per inversion, the paper's 0.30/0.10 ratio).
fn multichunk_children(
    parent: &[Trit],
    partners: &[Vec<Trit>],
    ops: &[MultiOp],
    steps: usize,
    seed: u64,
) -> Vec<(Range<usize>, Vec<Trit>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..steps)
        .map(|t| {
            let window = multichunk_window(&mut rng);
            let mut child = parent.to_vec();
            match ops[t % ops.len()] {
                MultiOp::Crossover => {
                    let partner = &partners[t % partners.len()];
                    child[window.clone()].copy_from_slice(&partner[window.clone()]);
                }
                MultiOp::Inversion => child[window.clone()].reverse(),
            }
            (window, child)
        })
        .collect()
}

/// The steady-state fixture: an individual evolved on the workload (a
/// short, deterministic EA run) plus a converged population around it —
/// the evolved genome a few point mutations apart, which is what `(S+C)`
/// truncation selection actually keeps after the first generations.
fn evolved_parent_and_partners(
    histogram: &evotc_bits::BlockHistogram,
    payload_bits: f64,
) -> (Vec<Trit>, Vec<Vec<Trit>>) {
    let fitness = MvFitness::new(BLOCK_LEN, histogram, payload_bits);
    let config = EaConfig::builder()
        .stagnation_limit(usize::MAX)
        .max_evaluations(4_000)
        .seed(5)
        .threads(1)
        .build();
    let evolved = EaBuilder::new(
        GENOME_LEN,
        |rng: &mut StdRng| Trit::from_index(rng.gen_range(0..3u8)),
        fitness,
    )
    .config(config)
    .run()
    .best_genome;
    let mut rng = StdRng::seed_from_u64(99);
    let partners = (0..7)
        .map(|_| {
            let mut g = evolved.clone();
            for _ in 0..6 {
                let pos = rng.gen_range(0..g.len());
                g[pos] = Trit::from_index(rng.gen_range(0..3u8));
            }
            g
        })
        .collect();
    (evolved, partners)
}

/// The wall time of one `pass`, in seconds, timed right after an untimed
/// pass of its own: a pass as short as 20 µs would otherwise time how much
/// of the cache the other side of its pair had just evicted.
fn secs(pass: &mut dyn FnMut() -> f64) -> f64 {
    std::hint::black_box(pass());
    let start = Instant::now();
    std::hint::black_box(pass());
    start.elapsed().as_secs_f64()
}

/// The medians of each side of `pairs` and of the per-pair ratio `a / b`.
fn medians(pairs: Vec<(f64, f64)>) -> (f64, f64, f64) {
    (
        median(pairs.iter().map(|p| p.0)),
        median(pairs.iter().map(|p| p.1)),
        median(pairs.iter().map(|p| p.0 / p.1)),
    )
}

/// Times pass `a` against pass `b` (each `per_pass` evaluations) in
/// `PASS_PAIRS` alternating pairs. Returns the median evaluations/sec of
/// each and the median per-pair speed-up of `b` over `a`.
fn paired_throughput(
    per_pass: u64,
    mut a: impl FnMut() -> f64,
    mut b: impl FnMut() -> f64,
) -> (f64, f64, f64) {
    let (a_secs, b_secs, speedup) = medians(alternating_pairs(
        PASS_PAIRS,
        || secs(&mut a),
        || secs(&mut b),
    ));
    (per_pass as f64 / a_secs, per_pass as f64 / b_secs, speedup)
}

fn fail(message: &str) -> ! {
    eprintln!("FAIL: {message}");
    std::process::exit(1);
}

/// `MvFitness` that checks, after every batch, each child whose covering
/// the island state holds — a covering kept from the child's probe — against
/// a rebuild of the child with the same transition setting.
struct CheckKept<'a> {
    fitness: MvFitness<'a>,
    sliced: &'a SlicedHistogram,
    /// Coverings checked, and those that differed from the rebuild.
    checked: &'a [AtomicU64; 2],
}

impl FitnessEval<Trit> for CheckKept<'_> {
    type State = MvFitnessState;

    fn evaluate(&self, genes: &[Trit]) -> f64 {
        self.fitness.evaluate(genes)
    }

    fn evaluate_batch(
        &self,
        state: &mut MvFitnessState,
        genomes: &[Vec<Trit>],
        provenance: Option<Provenance<'_, Trit>>,
        out: &mut [f64],
        objectives: Option<&mut [Objectives]>,
    ) {
        self.fitness
            .evaluate_batch(state, genomes, provenance, out, objectives);
        let mut rebuilt = EvalCache::new();
        for child in genomes.iter().filter(|_| provenance.is_some()) {
            if let Some(kept) = state.covering(child) {
                encoded_size_rebuild(self.sliced, child, kept.tracks_transitions(), &mut rebuilt);
                let [checked, wrong] = self.checked;
                checked.fetch_add(1, Relaxed);
                wrong.fetch_add(u64::from(*kept != rebuilt), Relaxed);
            }
        }
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        self.fitness.cache_stats()
    }
}

fn main() {
    let check_only = check_only_arg("fitness_smoke");
    let (histogram, payload_bits) = paper_histogram();
    let fitness = MvFitness::new(BLOCK_LEN, &histogram, payload_bits);
    let sliced = SlicedHistogram::from_histogram(&histogram);
    let genomes = random_genomes(GENOMES, GENOME_LEN, 42);

    // Correctness gate 1: bit-identical fitness, kernel vs legacy, on every
    // random genome — and the full objective vector (encoded bits, scan
    // transitions, decoder gate equivalents) must match between the
    // kernel's side-channels and the covering-based oracle.
    let mut scratch = EvalScratch::new();
    for g in &genomes {
        let (legacy, oracle_objectives) = fitness.evaluate_oracle(g);
        let (kernel, kernel_objectives) = fitness.evaluate_with_objectives(g, &mut scratch);
        if legacy.to_bits() != kernel.to_bits() {
            fail(&format!("kernel {kernel} != legacy {legacy}"));
        }
        if oracle_objectives != kernel_objectives {
            fail(&format!(
                "kernel objectives {kernel_objectives:?} != oracle {oracle_objectives:?}"
            ));
        }
    }

    // Correctness gate 2: the probe must match the full kernel bit-for-bit
    // — size, transitions and used MVs — on every child of the steady-state
    // streams: single-gene, mixed crossover/inversion, pure crossover, and
    // pure inversion, priced read-only against the cached evolved parent,
    // exactly as an island's parent cache prices a generation.
    let (evolved, partners) = evolved_parent_and_partners(&histogram, payload_bits);
    let mutation = mutation_children(&evolved, STREAM_LEN, 7);
    let mixed_ops = [
        MultiOp::Crossover,
        MultiOp::Crossover,
        MultiOp::Crossover,
        MultiOp::Inversion,
    ];
    let mixed = multichunk_children(&evolved, &partners, &mixed_ops, STREAM_LEN, 11);
    let crossover = multichunk_children(&evolved, &partners, &[MultiOp::Crossover], STREAM_LEN, 13);
    let inversion = multichunk_children(&evolved, &partners, &[MultiOp::Inversion], STREAM_LEN, 17);
    let mut parent_cache = EvalCache::new();
    encoded_size_rebuild(&sliced, &evolved, true, &mut parent_cache);
    let mut patch = PatchScratch::new();
    let probe = |child: &[Trit], window: &Range<usize>, patch: &mut PatchScratch, gated: bool| {
        encoded_size_probe(&sliced, child, true, window, &parent_cache, patch, gated)
    };
    for (name, stream) in [
        ("mutation", &mutation),
        ("mixed", &mixed),
        ("crossover", &crossover),
        ("inversion", &inversion),
    ] {
        for (step, (window, child)) in stream.iter().enumerate() {
            let probed = probe(child, window, &mut patch, false);
            let full = encoded_size_scratch(&sliced, child, &mut scratch);
            if probed != IncrementalOutcome::Size(full) {
                fail(&format!(
                    "{name} probe {probed:?} != full {full} at child {step} (window {window:?})"
                ));
            }
            if patch.last_scan_transitions() != scratch.last_scan_transitions()
                || patch.last_used_mvs() != scratch.last_used_mvs()
            {
                fail(&format!(
                    "{name} patched objectives (t={}, used={}) != full (t={}, used={}) \
                     at child {step}",
                    patch.last_scan_transitions(),
                    patch.last_used_mvs(),
                    scratch.last_scan_transitions(),
                    scratch.last_used_mvs()
                ));
            }
        }
    }

    // Correctness gate 3: the engine's cost gate is live at the paper
    // shape. Among the mixed and inversion children with two or more
    // changed chunks, the gated probe must price some (equal to the full
    // kernel) and hand others to the full kernel — a gate stuck either way
    // would leave the multi-chunk patch or the fallback unexercised.
    let mut gate_report = Vec::new();
    for (name, stream) in [("mixed", &mixed), ("inversion", &inversion)] {
        let (mut priced, mut declined) = (0, 0);
        for (window, child) in stream.iter() {
            if changed_chunks(&evolved, child) < 2 {
                continue;
            }
            match probe(child, window, &mut patch, true) {
                IncrementalOutcome::Size(size) => {
                    if size != encoded_size_scratch(&sliced, child, &mut scratch) {
                        fail(&format!("{name} gated probe mispriced window {window:?}"));
                    }
                    priced += 1;
                }
                IncrementalOutcome::NeedsFull => declined += 1,
            }
        }
        if priced == 0 || declined == 0 {
            fail(&format!(
                "cost gate stuck on the {name} stream: {priced} multi-chunk children \
                 priced, {declined} handed to the full kernel"
            ));
        }
        gate_report.push(format!("{name} {priced} Size / {declined} NeedsFull"));
    }
    let gate_report = gate_report.join(", ");
    println!("cost gate, children with >= 2 changed chunks: {gate_report}");

    // Correctness gate 4: an island-topology run must be byte-identical for
    // every thread count at a fixed seed — the engine's determinism contract
    // on the paper workload (islands are the only runs that use threads).
    // Each island owns its parent cache, so the cache counters must match
    // too.
    let island_run = |threads: usize| {
        let config = EaConfig::builder()
            .stagnation_limit(usize::MAX)
            .max_evaluations(3_000)
            .islands(4, 5, 2)
            .seed(3)
            .threads(threads)
            .build();
        EaBuilder::new(
            GENOME_LEN,
            |rng: &mut StdRng| Trit::from_index(rng.gen_range(0..3u8)),
            MvFitness::new(BLOCK_LEN, &histogram, payload_bits),
        )
        .config(config)
        .run()
    };
    let island_ref = island_run(1);
    for threads in [2, 4] {
        let other = island_run(threads);
        if other.best_genome != island_ref.best_genome
            || other.best_fitness.to_bits() != island_ref.best_fitness.to_bits()
            || other.generations != island_ref.generations
            || other.evaluations != island_ref.evaluations
        {
            fail(&format!(
                "island run diverged between threads=1 and threads={threads}"
            ));
        }
        if other.cache != island_ref.cache || other.copies != island_ref.copies {
            fail(&format!(
                "island cache counters or copies differ between threads=1 and threads={threads}"
            ));
        }
    }
    let island_cache = island_ref.cache.unwrap_or_default();
    println!(
        "island run cache counters, any thread count: {island_cache}; {} copies",
        island_ref.copies
    );

    // Correctness gate 5: interrupting the island run at any periodic
    // checkpoint and resuming through the serialized trit byte codec must
    // reproduce the uninterrupted run exactly — the robustness contract
    // the engine's proptests gate, re-checked here on the paper workload.
    let ckpt_config = EaConfig::builder()
        .stagnation_limit(usize::MAX)
        .max_evaluations(3_000)
        .islands(4, 5, 2)
        .seed(3)
        .threads(2)
        .build();
    let ckpt_run = |resume: Option<EaCheckpoint<Trit>>, blobs: Option<&mut Vec<Vec<u8>>>| {
        let mut builder = EaBuilder::new(
            GENOME_LEN,
            |rng: &mut StdRng| Trit::from_index(rng.gen_range(0..3u8)),
            MvFitness::new(BLOCK_LEN, &histogram, payload_bits),
        )
        .config(ckpt_config.clone());
        if let Some(checkpoint) = resume {
            builder = builder.resume_from(checkpoint);
        }
        if let Some(blobs) = blobs {
            builder = builder.checkpoint_every(5, move |cp| {
                blobs.push(trit_checkpoint_to_bytes(&cp));
                Ok(())
            });
        }
        builder.run()
    };
    let mut blobs = Vec::new();
    let ckpt_reference = ckpt_run(None, Some(&mut blobs));
    if blobs.is_empty() {
        fail("island run produced no periodic checkpoints");
    }
    for (k, blob) in blobs.iter().enumerate() {
        let checkpoint = match trit_checkpoint_from_bytes(blob) {
            Ok(checkpoint) => checkpoint,
            Err(e) => fail(&format!("checkpoint {k} failed to round-trip: {e}")),
        };
        let resumed = ckpt_run(Some(checkpoint), None);
        if resumed.best_genome != ckpt_reference.best_genome
            || resumed.best_fitness.to_bits() != ckpt_reference.best_fitness.to_bits()
            || resumed.generations != ckpt_reference.generations
            || resumed.evaluations != ckpt_reference.evaluations
        {
            fail(&format!(
                "resume from checkpoint {k} diverged from the uninterrupted run"
            ));
        }
    }

    // Correctness gate 6: the survival floor never changes a run. The
    // default run (the engine offers a floor, fallbacks stop once they
    // prove a child at or below it) must equal the same run with a one-slot
    // Pareto archive, which asks for objectives and so may not clip at the
    // floor — same survivors, history, copies and cache counters, kept
    // coverings included — and it must prune, or the comparison proves
    // nothing.
    let ea_config = EaConfig::builder()
        .population_size(10)
        .children_per_generation(5)
        .stagnation_limit(usize::MAX)
        .max_evaluations(20_000)
        .seed(3)
        .threads(1)
        .build();
    let floor_off_config = EaConfig {
        pareto_capacity: 1,
        ..ea_config.clone()
    };
    let sample = |rng: &mut StdRng| Trit::from_index(rng.gen_range(0..3u8));
    let ea_run = |config: &EaConfig| {
        EaBuilder::new(GENOME_LEN, sample, fitness.clone())
            .config(config.clone())
            .run()
    };
    let floored = ea_run(&ea_config);
    let floor_off = ea_run(&floor_off_config);
    let same_history = floored.history.len() == floor_off.history.len()
        && floored
            .history
            .iter()
            .zip(&floor_off.history)
            .all(|(a, b)| {
                a.best_fitness.to_bits() == b.best_fitness.to_bits()
                    && a.mean_fitness.to_bits() == b.mean_fitness.to_bits()
                    && a.evaluations == b.evaluations
            });
    let (on, off) = (
        floored.cache.unwrap_or_default(),
        floor_off.cache.unwrap_or_default(),
    );
    if floored.best_genome != floor_off.best_genome
        || floored.best_fitness.to_bits() != floor_off.best_fitness.to_bits()
        || floored.generations != floor_off.generations
        || floored.evaluations != floor_off.evaluations
        || !same_history
        || floored.copies != floor_off.copies
        || (on.hits, on.misses, on.kept, on.fallbacks)
            != (off.hits, off.misses, off.kept, off.fallbacks)
    {
        fail("the survival floor changed the EA run (default vs pareto_archive(1))");
    }
    if on.pruned == 0 {
        fail("the default EA run pruned nothing: the floor check is vacuous");
    }
    println!(
        "EA run cache counters, floor on: {on}; {} copies",
        floored.copies
    );

    // Correctness gate 7: every covering the default run keeps for a probed
    // child equals a rebuild of that child, field for field, and the check
    // changes nothing about the run.
    let counts = [AtomicU64::new(0), AtomicU64::new(0)];
    let check_kept = CheckKept {
        fitness: fitness.clone(),
        sliced: &sliced,
        checked: &counts,
    };
    let checked_run = EaBuilder::new(GENOME_LEN, sample, check_kept)
        .config(ea_config.clone())
        .run();
    let [checked, wrong] = counts.map(AtomicU64::into_inner);
    if checked_run.best_genome != floored.best_genome
        || checked_run.evaluations != floored.evaluations
        || checked_run.cache != floored.cache
    {
        fail("checking the kept coverings changed the EA run");
    }
    if wrong > 0 || checked < on.kept || on.kept == 0 {
        fail(&format!(
            "{wrong} of {checked} kept coverings differ from a rebuild ({} kept)",
            on.kept
        ));
    }

    if check_only {
        println!(
            "fitness kernel == legacy on {GENOMES} genomes (objective vectors \
             included); incremental == full on {STREAM_LEN}-child single-gene \
             and multi-chunk crossover/inversion streams, transition and \
             used-MV objectives included; cost gate live; island runs \
             thread-invariant and checkpoint/resume-exact through the byte \
             codec; survival floor exact and live; kept coverings exact \
             (K={BLOCK_LEN}, L={NUM_MVS})"
        );
        return;
    }

    let mut scratch = EvalScratch::new();
    let (legacy_eps, kernel_eps, speedup) = paired_throughput(
        GENOMES as u64,
        || genomes.iter().map(|g| fitness.evaluate(g)).sum(),
        || {
            genomes
                .iter()
                .map(|g| fitness.evaluate_with_objectives(g, &mut scratch).0)
                .sum()
        },
    );

    // The child streams: one parent rebuild, then STREAM_LEN children
    // probed read-only off the cached parent — the parent-cache steady
    // state. The full-kernel reference prices exactly the same children
    // from scratch.
    let per_pass = (STREAM_LEN + 1) as u64;
    let measure_stream = |stream: &[(Range<usize>, Vec<Trit>)]| {
        let mut scratch = EvalScratch::new();
        let full = || {
            let mut acc = encoded_size_scratch(&sliced, &evolved, &mut scratch) as f64;
            for (_, child) in stream {
                acc += encoded_size_scratch(&sliced, child, &mut scratch) as f64;
            }
            acc
        };
        let mut parent_cache = EvalCache::new();
        let mut patch = PatchScratch::new();
        paired_throughput(per_pass, full, || {
            let mut acc = encoded_size_rebuild(&sliced, &evolved, true, &mut parent_cache) as f64;
            for (window, child) in stream {
                if let IncrementalOutcome::Size(size) = encoded_size_probe(
                    &sliced,
                    child,
                    true,
                    window,
                    &parent_cache,
                    &mut patch,
                    false,
                ) {
                    acc += size as f64;
                }
            }
            acc
        })
    };
    let (mutation_full_eps, mutation_eps, mutation_speedup) = measure_stream(&mutation);
    let (mixed_full_eps, mixed_inc_eps, multichunk_speedup) = measure_stream(&mixed);
    let (cross_full_eps, cross_inc_eps, crossover_speedup) = measure_stream(&crossover);
    let (inv_full_eps, inv_inc_eps, inversion_speedup) = measure_stream(&inversion);

    // Whole-run throughput: a real EA over the same histogram, full
    // operator mix, incremental path and parent cache on — against
    // the identical run with the lineage hook disabled (plain batch, full
    // kernel for every child). This is the number the stream microbenches
    // exist to move.
    struct NoLineage<'a>(MvFitness<'a>);
    impl FitnessEval<Trit> for NoLineage<'_> {
        type State = MvFitnessState;

        fn evaluate(&self, genes: &[Trit]) -> f64 {
            self.0.evaluate(genes)
        }
        // Provenance dropped: children take the full kernel.
        fn evaluate_batch(
            &self,
            state: &mut MvFitnessState,
            genomes: &[Vec<Trit>],
            _provenance: Option<Provenance<'_, Trit>>,
            out: &mut [f64],
            objectives: Option<&mut [Objectives]>,
        ) {
            self.0.evaluate_batch(state, genomes, None, out, objectives);
        }
    }
    // Whole runs take 10–150 ms, shorter than the shared host's drift, so
    // a ratio of two separate best-of-N figures does not repeat. Each ratio
    // instead divides the two runs of one back-to-back pair, the side that
    // runs first alternating, and keeps the median over PAIRS pairs; an
    // absolute eval/s figure is the median of its side's runs. The runs are
    // deterministic, so they differ only by the host's interference.
    type Run<'r> = &'r dyn Fn() -> EaResult<Trit>;
    let eps = |run: Run| run().evaluations_per_sec();
    let paired = |a: Run, b: Run| medians(alternating_pairs(PAIRS, || eps(a), || eps(b)));
    let default_run = || ea_run(&ea_config);
    let no_lineage = || {
        EaBuilder::new(GENOME_LEN, sample, NoLineage(fitness.clone()))
            .config(ea_config.clone())
            .run()
    };
    if no_lineage().best_fitness.to_bits() != floored.best_fitness.to_bits() {
        fail("lineage cache changed the EA result");
    }
    let (ea_eps, ea_full_eps, ea_speedup) = paired(&default_run, &no_lineage);
    // The same run with the survival floor off (objectives requested, so
    // every child is priced exactly, side channels included).
    let (_, ea_floor_off_eps, ea_floor_speedup) =
        paired(&default_run, &|| ea_run(&floor_off_config));

    // What the thread count buys, each as a same-config ratio (runs are
    // byte-identical at any thread count, so the ratio isolates the
    // threading cost or gain exactly). Panmictic: the run above at
    // `threads(1)` over auto threads in evals/s, i.e. auto over `threads(1)`
    // wall-clock — a panmictic batch is scored in one call on the run's own
    // thread, so this should sit near 1. Islands: gate 4's island config,
    // auto over `threads(1)` evals/s — the only fan-out the engine has.
    let mut auto_config = ea_config.clone();
    auto_config.threads = 0;
    let auto = ea_run(&auto_config);
    if auto.best_genome != floored.best_genome || auto.evaluations != floored.evaluations {
        fail("auto-threaded EA run diverged from threads(1)");
    }
    let (_, _, ea_default_over_t1) = paired(&default_run, &|| ea_run(&auto_config));
    let (ea_island_eps, ea_island_t1_eps, ea_island_thread_speedup) =
        paired(&|| island_run(0), &|| island_run(1));

    // Engine overhead: the paper's (S + C) = (10 + 5) on the same 768-gene
    // genomes with a constant-time fitness, so breeding, selection and
    // bookkeeping are all that a generation costs. The median over PAIRS
    // runs of the run's own `elapsed / generations`.
    let engine_config = EaConfig::builder()
        .stagnation_limit(usize::MAX)
        .max_generations(20_000)
        .seed(1)
        .threads(1)
        .build();
    let engine_ns_per_generation = median((0..PAIRS).map(|_| {
        let run = EaBuilder::new(GENOME_LEN, sample, |g: &[Trit]| f64::from(g[0].index()))
            .config(engine_config.clone())
            .run();
        run.elapsed.as_secs_f64() * 1e9 / run.generations as f64
    }));

    // Checkpoint cost, on a real mid-run island checkpoint from gate 5:
    // serialize/deserialize latency through the trit byte codec (min-time
    // over repeats), and the steady-state overhead of running the EA with
    // `checkpoint_every(10)` and a serializing sink versus the identical
    // run without one.
    let min_time_us = |f: &mut dyn FnMut()| {
        f(); // warm-up
        let mut best = f64::INFINITY;
        for _ in 0..200 {
            let start = Instant::now();
            f();
            best = best.min(start.elapsed().as_secs_f64() * 1e6);
        }
        best
    };
    let sample_blob = blobs.last().expect("gate 5 checked blobs is non-empty");
    let sample_checkpoint =
        trit_checkpoint_from_bytes(sample_blob).expect("gate 5 round-tripped this blob");
    let checkpoint_save_us = min_time_us(&mut || {
        std::hint::black_box(trit_checkpoint_to_bytes(&sample_checkpoint));
    });
    let checkpoint_resume_us = min_time_us(&mut || {
        std::hint::black_box(trit_checkpoint_from_bytes(sample_blob).unwrap());
    });
    let checkpointed = || {
        EaBuilder::new(GENOME_LEN, sample, fitness.clone())
            .config(ea_config.clone())
            .checkpoint_every(10, |cp| {
                std::hint::black_box(trit_checkpoint_to_bytes(&cp));
                Ok(())
            })
            .run()
    };
    let (_, _, checkpoint_ratio) = paired(&default_run, &checkpointed);
    let checkpoint_overhead_pct = (checkpoint_ratio - 1.0) * 100.0;

    let fields = [
        ("k", BLOCK_LEN as f64, 0),
        ("l", NUM_MVS as f64, 0),
        ("distinct_blocks", histogram.num_distinct() as f64, 0),
        ("genomes", GENOMES as f64, 0),
        ("legacy_evals_per_sec", legacy_eps, 0),
        ("kernel_evals_per_sec", kernel_eps, 0),
        ("speedup", speedup, 2),
        ("stream_len", STREAM_LEN as f64, 0),
        ("mutation_full_evals_per_sec", mutation_full_eps, 0),
        ("mutation_evals_per_sec", mutation_eps, 0),
        ("mutation_speedup", mutation_speedup, 2),
        ("multichunk_full_evals_per_sec", mixed_full_eps, 0),
        ("multichunk_evals_per_sec", mixed_inc_eps, 0),
        ("multichunk_speedup", multichunk_speedup, 2),
        ("crossover_full_evals_per_sec", cross_full_eps, 0),
        ("crossover_evals_per_sec", cross_inc_eps, 0),
        ("crossover_speedup", crossover_speedup, 2),
        ("inversion_full_evals_per_sec", inv_full_eps, 0),
        ("inversion_evals_per_sec", inv_inc_eps, 0),
        ("inversion_speedup", inversion_speedup, 2),
        ("ea_evals_per_sec", ea_eps, 0),
        ("ea_floor_off_evals_per_sec", ea_floor_off_eps, 0),
        ("ea_floor_speedup", ea_floor_speedup, 2),
        ("ea_pruned", on.pruned as f64, 0),
        ("ea_full_evals_per_sec", ea_full_eps, 0),
        ("ea_speedup", ea_speedup, 2),
        ("ea_default_over_t1", ea_default_over_t1, 2),
        ("ea_island_t1_evals_per_sec", ea_island_t1_eps, 0),
        ("ea_island_evals_per_sec", ea_island_eps, 0),
        ("ea_island_thread_speedup", ea_island_thread_speedup, 2),
        ("engine_ns_per_generation", engine_ns_per_generation, 0),
        ("checkpoint_save_us", checkpoint_save_us, 1),
        ("checkpoint_resume_us", checkpoint_resume_us, 1),
        ("checkpoint_overhead_pct", checkpoint_overhead_pct, 2),
        ("ea_cache_hits", on.hits as f64, 0),
        ("ea_cache_misses", on.misses as f64, 0),
        ("ea_cache_kept", on.kept as f64, 0),
        ("ea_cache_fallbacks", on.fallbacks as f64, 0),
        ("ea_copies", floored.copies as f64, 0),
        ("ea_island_cache_hits", island_cache.hits as f64, 0),
        ("ea_island_cache_misses", island_cache.misses as f64, 0),
        ("ea_island_cache_kept", island_cache.kept as f64, 0),
        (
            "ea_island_cache_fallbacks",
            island_cache.fallbacks as f64,
            0,
        ),
        ("ea_island_pruned", island_cache.pruned as f64, 0),
        ("ea_island_copies", island_ref.copies as f64, 0),
    ];
    let mut json = String::from("{\n  \"bench\": \"fitness_kernel\",\n  \"workload\": \"s953\"");
    for (key, value, digits) in fields {
        println!("{key:<30}: {value:.digits$}");
        json += &format!(",\n  \"{key}\": {value:.digits$}");
    }
    json += "\n}\n";
    let path = "BENCH_fitness.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e} (numbers are above)"),
    }
}
