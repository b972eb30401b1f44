//! The multi-objective trade-off table: per circuit, the compression /
//! scan-power / decoder-area front of one lexicographic EA run.
//!
//! Each run ranks individuals lexicographically on the minimized objective
//! vector `(encoded_bits, scan_transitions, decoder_gate_equivalents)` and
//! collects the nondominated archive of everything it evaluated (see
//! `evotc_evo::ParetoArchive`). The table reports, per circuit, the best
//! compression point (the front's head) and the lowest-scan-power point,
//! with each point's full vector — making the compression-vs-power slack
//! the paper's single-objective EA leaves behind directly visible.
//!
//! With `--checkpoint DIR` the runs are resumable: every 25 generations
//! each circuit's EA state is serialized to `DIR/<circuit>.ckpt`, and a
//! later invocation with the same flag resumes from that file instead of
//! starting over — the resumed trajectory is identical to the
//! uninterrupted one (the engine's checkpoint contract), so the printed
//! table does not depend on how often the run was interrupted. A stale
//! checkpoint (different profile, seed, or genome shape) is detected via
//! its configuration fingerprint and ignored with a warning; write
//! failures are counted on the run, not fatal.
//!
//! Usage: `cargo run -p evotc_bench --bin tradeoff --release [-- --full] [--threads N] [--checkpoint DIR] [circuit…]`

use evotc_bench::{run_args, RunProfile};
use evotc_bits::{BlockHistogram, TestSetString, Trit};
use evotc_core::{trit_checkpoint_from_bytes, trit_checkpoint_to_bytes, CombineMode, MvFitness};
use evotc_evo::{
    config_fingerprint, CheckpointError, EaBuilder, EaCheckpoint, EaConfig, ParetoPoint,
};
use evotc_workloads::tables::TABLE1;
use rand::rngs::StdRng;
use rand::Rng;
use std::path::{Path, PathBuf};

/// EA shape for the trade-off runs: the paper's block length with a
/// mid-size MV budget so quick mode stays interactive.
const K: usize = 12;
const L: usize = 32;
/// Reported front bound (the archive keeps the exact front internally).
const FRONT_CAPACITY: usize = 32;

struct TradeoffRow {
    circuit: String,
    bits: usize,
    /// Uncompressed payload bits at block length `K` — the rate denominator.
    payload_bits: f64,
    front: Vec<ParetoPoint<Trit>>,
}

/// Compression rate (%) of an encoded-bits objective value.
fn rate(bits: f64, encoded: f64) -> f64 {
    100.0 * (bits - encoded) / bits
}

/// How often a resumable run snapshots its state (generations).
const CHECKPOINT_EVERY: u64 = 25;

fn run_circuit(
    circuit: &str,
    histogram: &BlockHistogram,
    bits: f64,
    profile: &RunProfile,
    checkpoint_dir: Option<&Path>,
) -> Vec<ParetoPoint<Trit>> {
    let fitness = MvFitness::new(K, true, histogram, bits).combine_mode(CombineMode::Lexicographic);
    let config = EaConfig::builder()
        .stagnation_limit(profile.stagnation_limit)
        .max_evaluations(profile.max_evaluations)
        .seed(1)
        .threads(profile.threads)
        .lexicographic()
        .pareto_archive(FRONT_CAPACITY)
        .build();
    let mut builder = EaBuilder::new(
        K * L,
        |rng: &mut StdRng| Trit::from_index(rng.gen_range(0..3u8)),
        fitness,
    )
    .config(config.clone());
    if let Some(dir) = checkpoint_dir {
        let path = dir.join(format!("{circuit}.ckpt"));
        // Resume only from a checkpoint this exact run shape produced; a
        // stale or foreign file means a fresh start, never a wrong result.
        if let Ok(bytes) = std::fs::read(&path) {
            match trit_checkpoint_from_bytes(&bytes) {
                Ok(cp) if cp.config_fingerprint == config_fingerprint(&config, K * L) => {
                    eprintln!(
                        "  resuming from {} (generation {})",
                        path.display(),
                        cp.generation
                    );
                    builder = builder.resume_from(cp);
                }
                Ok(_) => eprintln!(
                    "  ignoring {}: checkpoint from a different configuration",
                    path.display()
                ),
                Err(e) => eprintln!("  ignoring {}: {e}", path.display()),
            }
        }
        builder = builder.checkpoint_every(CHECKPOINT_EVERY, move |cp: &EaCheckpoint<Trit>| {
            std::fs::write(&path, trit_checkpoint_to_bytes(cp))
                .map_err(|e| CheckpointError::Io(e.to_string()))
        });
    }
    let result = builder.run();
    if result.checkpoint_failures > 0 {
        eprintln!(
            "  warning: {} checkpoint write(s) failed for {circuit}; the run is unaffected",
            result.checkpoint_failures
        );
    }
    assert!(
        !result.pareto_front.is_empty(),
        "{circuit}: a feasible run must archive at least one point"
    );
    result.pareto_front
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut checkpoint_dir: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        if let Some(dir) = args[i].strip_prefix("--checkpoint=") {
            checkpoint_dir = Some(PathBuf::from(dir));
            args.remove(i);
        } else if args[i] == "--checkpoint" {
            args.remove(i);
            if i >= args.len() {
                eprintln!("--checkpoint expects a directory");
                std::process::exit(2);
            }
            checkpoint_dir = Some(PathBuf::from(args.remove(i)));
        } else {
            i += 1;
        }
    }
    if let Some(dir) = &checkpoint_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create checkpoint directory {}: {e}", dir.display());
            std::process::exit(2);
        }
    }
    let (profile, filter) = run_args("tradeoff", &args);

    let selected: Vec<_> = TABLE1
        .iter()
        .filter(|row| filter.is_empty() || filter.iter().any(|f| *f == row.circuit))
        .collect();
    let threads = evotc_evo::parallel::resolve_threads(profile.threads);
    let sets = evotc_workloads::stuck_at_workloads(&selected, 1, profile.size_limit, threads);

    let mut rows = Vec::new();
    for (row, set) in selected.iter().zip(&sets) {
        eprintln!("running {} ({} bits)…", row.circuit, set.total_bits());
        let string = TestSetString::try_new(set, K).expect("K=12 fits every Table 1 workload");
        let bits = string.payload_bits() as f64;
        let histogram = BlockHistogram::from_string(&string);
        rows.push(TradeoffRow {
            circuit: row.circuit.to_string(),
            bits: set.total_bits(),
            payload_bits: bits,
            front: run_circuit(
                row.circuit,
                &histogram,
                bits,
                &profile,
                checkpoint_dir.as_deref(),
            ),
        });
    }

    println!("# Compression / scan-power / decoder-area trade-off (K={K}, L={L})\n");
    println!(
        "| circuit | bits | front | best rate % | transitions | area GE | \
         low-power rate % | transitions | area GE |"
    );
    println!("|---|---:|---:|---:|---:|---:|---:|---:|---:|");
    for row in &rows {
        // The front is sorted by encoded bits first, so its head is the
        // best-compression point; the power extreme minimizes transitions.
        let best = &row.front[0];
        let low_power = row
            .front
            .iter()
            .min_by(|a, b| a.objectives.values()[1].total_cmp(&b.objectives.values()[1]))
            .expect("front is non-empty");
        let [b0, b1, b2] = best.objectives.values();
        let [p0, p1, p2] = low_power.objectives.values();
        println!(
            "| {} | {} | {} | {:.1} | {:.0} | {:.0} | {:.1} | {:.0} | {:.0} |",
            row.circuit,
            row.bits,
            row.front.len(),
            rate(row.payload_bits, b0),
            b1,
            b2,
            rate(row.payload_bits, p0),
            p1,
            p2,
        );
    }
    println!(
        "\nAll runs: lexicographic ranking (compression, then scan power, then \
         decoder area), archive bound {FRONT_CAPACITY}, seed 1. Deterministic \
         for any `--threads` value."
    );
}
