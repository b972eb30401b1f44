//! Experiment harness: regenerates every table and figure of the paper.
//!
//! The binaries in `src/bin/` print markdown tables with the same columns
//! as the paper's Tables 1 and 2, plus the ablations called out in
//! `DESIGN.md`:
//!
//! | binary      | experiment |
//! |-------------|------------|
//! | `table1`    | stuck-at: 9C / 9C+HC / EA / EA-Best |
//! | `table2`    | path-delay: 9C / 9C+HC / EA1 / EA2 |
//! | `sweep`     | Ablation A — compression rate over the (K, L) grid |
//! | `operators` | Ablation B — EA parameter sensitivity |
//! | `seeding`   | Ablation C — 9C-seeded initial population |
//! | `baselines` | Baseline F — run-length / Golomb / FDR / selective Huffman |
//! | `tradeoff`  | Multi-objective compression / scan-power / decoder-area fronts |
//!
//! Every binary in the table accepts `--full` for paper-scale runs,
//! `--threads N` and circuit names, and exits with code 2 on anything else
//! (see [`run_args`]); the default *quick* profile caps test-set sizes and
//! EA budgets so the whole table finishes in minutes (see [`RunProfile`]).
//! `EXPERIMENTS.md` records which profile produced the committed numbers.
//!
//! The `pipeline`, `fitness_smoke`, `netlist_scale` and `service_replay`
//! binaries record the repository's timings in the committed `BENCH_*.json`
//! files. They take only `--check-only` (see [`check_only_arg`]);
//! `pipeline` and `fitness_smoke` time through [`median_secs`],
//! [`alternating_pairs`] and [`median`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Instant;

use evotc_bits::TestSet;
use evotc_core::{EaCompressor, NineCCompressor, NineCHuffmanCompressor, TestCompressor};
use evotc_workloads::tables::{PathDelayRow, StuckAtRow};
use evotc_workloads::workload_with_limit;

/// Execution profile of a harness run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunProfile {
    /// Cap on generated test-set bits (the rates are density-driven and not
    /// size-sensitive; see DESIGN.md §2.5).
    pub size_limit: usize,
    /// EA stagnation limit (paper: 500).
    pub stagnation_limit: usize,
    /// EA evaluation budget per run.
    pub max_evaluations: u64,
    /// Runs to average (paper: 5).
    pub runs: usize,
    /// (K, L) grid searched for the EA-Best column.
    pub grid: &'static [(usize, usize)],
    /// Island-worker threads per EA run (a panmictic run scores every batch
    /// on its own thread whatever the value), and worker threads for batch
    /// workload construction (`0` = auto; results are identical for every
    /// value — see `evotc_evo::parallel`).
    pub threads: usize,
}

impl RunProfile {
    /// The interactive profile used by default.
    pub fn quick() -> Self {
        RunProfile {
            size_limit: 1 << 15,
            stagnation_limit: 25,
            max_evaluations: 1_500,
            runs: 2,
            grid: &[(8, 16), (12, 32)],
            threads: 0,
        }
    }

    /// Paper-scale parameters (hours of compute on the larger circuits).
    pub fn full() -> Self {
        RunProfile {
            size_limit: usize::MAX,
            stagnation_limit: 500,
            max_evaluations: u64::MAX,
            runs: 5,
            grid: &[
                (4, 16),
                (6, 9),
                (8, 9),
                (8, 16),
                (8, 64),
                (12, 32),
                (12, 64),
                (16, 64),
            ],
            threads: 0,
        }
    }
}

/// Parses a table bin's arguments: `--full`, `--threads N` or
/// `--threads=N`, and circuit names (every argument not starting with
/// `--`). Returns the profile and the names, or the reason for rejecting the
/// arguments: any other `--` argument, or a thread count that is not a
/// number.
fn parse_run_args(args: &[String]) -> Result<(RunProfile, Vec<String>), String> {
    let (mut full, mut threads, mut circuits) = (false, 0, Vec::new());
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let count = match arg.strip_prefix("--threads=") {
            Some(v) => Some(v),
            None if arg == "--threads" => Some(iter.next().map_or("", String::as_str)),
            None => None,
        };
        if let Some(v) = count {
            threads = v
                .parse()
                .map_err(|_| format!("--threads expects a number, got `{v}`"))?;
        } else if arg == "--full" {
            full = true;
        } else if arg.starts_with("--") {
            return Err(format!("unknown argument `{arg}`"));
        } else {
            circuits.push(arg.clone());
        }
    }
    let profile = if full {
        RunProfile::full()
    } else {
        RunProfile::quick()
    };
    Ok((RunProfile { threads, ..profile }, circuits))
}

/// The profile and circuit names of a table bin's arguments (see
/// `parse_run_args`). Anything else exits with code 2 and a usage line, so
/// a mistyped flag never runs a profile nobody asked for.
pub fn run_args(bin: &str, args: &[String]) -> (RunProfile, Vec<String>) {
    parse_run_args(args).unwrap_or_else(|reason| {
        eprintln!("{bin}: {reason}\nusage: {bin} [--full] [--threads N] [circuit…]");
        std::process::exit(2)
    })
}

/// Parses the arguments of a bin whose only flag is `--check-only`: `true`
/// with it, `false` without, and the first other argument as the error.
fn parse_check_only<I: IntoIterator<Item = String>>(args: I) -> Result<bool, String> {
    let mut check_only = false;
    for arg in args {
        if arg != "--check-only" {
            return Err(arg);
        }
        check_only = true;
    }
    Ok(check_only)
}

/// Whether the process was started with `--check-only`, its only flag. Any
/// other argument exits with code 2 and a usage line, so a mistyped flag
/// never falls through to the timed mode that rewrites a committed
/// `BENCH_*.json`.
pub fn check_only_arg(bin: &str) -> bool {
    parse_check_only(std::env::args().skip(1)).unwrap_or_else(|arg| {
        eprintln!("{bin}: unknown argument `{arg}`\nusage: {bin} [--check-only]");
        std::process::exit(2)
    })
}

/// The median of `values`: the middle one of an odd count, the mean of the
/// middle two of an even count (`NaN` when empty).
pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut values: Vec<f64> = values.into_iter().collect();
    values.sort_by(f64::total_cmp);
    let n = values.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => values[n / 2],
        _ => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// The median wall time of `repeats` calls of `f`, in seconds.
pub fn median_secs<T>(repeats: usize, mut f: impl FnMut() -> T) -> f64 {
    median((0..repeats).map(|_| {
        let start = Instant::now();
        std::hint::black_box(f());
        start.elapsed().as_secs_f64()
    }))
}

/// Runs the two sides of a comparison in `pairs` back-to-back pairs and
/// returns each pair's `(a, b)` results. Pair 0 runs `a` first, pair 1 `b`
/// first, and so on, so neither side always runs on a warmer or a quieter
/// host; a ratio within one pair compares two runs taken moments apart.
pub fn alternating_pairs<T>(
    pairs: usize,
    mut a: impl FnMut() -> T,
    mut b: impl FnMut() -> T,
) -> Vec<(T, T)> {
    (0..pairs)
        .map(|i| {
            if i % 2 == 0 {
                let x = a();
                (x, b())
            } else {
                let y = b();
                (a(), y)
            }
        })
        .collect()
}

/// One regenerated row of Table 1 or Table 2.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasuredRow {
    /// Circuit name.
    pub circuit: String,
    /// Bits actually compressed (after the profile's size cap).
    pub bits: usize,
    /// Measured 9C rate (%).
    pub rate_9c: f64,
    /// Measured 9C+HC rate (%).
    pub rate_9c_hc: f64,
    /// Measured EA rate (%), averaged over the profile's runs.
    pub rate_ea: f64,
    /// Measured second EA column (% — EA-Best for Table 1, EA2 for Table 2).
    pub rate_ea2: f64,
}

/// Builds an EA compressor with the profile's budget and thread count.
pub fn ea_compressor(k: usize, l: usize, seed: u64, profile: &RunProfile) -> EaCompressor {
    EaCompressor::builder(k, l)
        .seed(seed)
        .stagnation_limit(profile.stagnation_limit)
        .max_evaluations(profile.max_evaluations)
        .threads(profile.threads)
        .build()
}

/// Average EA rate over the profile's run count.
pub fn ea_average(set: &TestSet, k: usize, l: usize, profile: &RunProfile) -> f64 {
    let mut total = 0.0;
    for seed in 0..profile.runs as u64 {
        let rate = ea_compressor(k, l, seed, profile)
            .compress(set)
            .map(|c| c.rate_percent())
            .unwrap_or(f64::NEG_INFINITY);
        total += rate;
    }
    total / profile.runs as f64
}

/// Best single-run EA rate over the profile's (K, L) grid.
pub fn ea_best(set: &TestSet, profile: &RunProfile) -> f64 {
    let mut best = f64::NEG_INFINITY;
    for &(k, l) in profile.grid {
        for seed in 0..profile.runs as u64 {
            let rate = ea_compressor(k, l, seed, profile)
                .compress(set)
                .map(|c| c.rate_percent())
                .unwrap_or(f64::NEG_INFINITY);
            best = best.max(rate);
        }
    }
    best
}

/// Regenerates one Table 1 row: 9C, 9C+HC, EA (K=12, L=64 average) and
/// EA-Best (grid maximum).
pub fn run_stuck_at_row(row: &StuckAtRow, profile: &RunProfile) -> MeasuredRow {
    let set = workload_with_limit(
        row.circuit,
        row.test_set_bits,
        row.rate_9c,
        1,
        profile.size_limit,
        1,
    );
    measure_row(row.circuit, &set, (12, 64), None, profile)
}

/// Regenerates one Table 2 row: 9C, 9C+HC, EA1 (K=8, L=9) and
/// EA2 (K=12, L=64).
pub fn run_path_delay_row(row: &PathDelayRow, profile: &RunProfile) -> MeasuredRow {
    let set = workload_with_limit(
        row.circuit,
        row.test_set_bits,
        row.rate_9c,
        1,
        profile.size_limit,
        2,
    );
    measure_row(row.circuit, &set, (8, 9), Some((12, 64)), profile)
}

/// Regenerates many Table 1 rows, building the calibrated workloads on the
/// profile's worker threads first (see `evotc_workloads::parallel`), then
/// measuring each row. Output order and values match calling
/// [`run_stuck_at_row`] per row.
pub fn run_stuck_at_rows(rows: &[&StuckAtRow], profile: &RunProfile) -> Vec<MeasuredRow> {
    let threads = evotc_evo::parallel::resolve_threads(profile.threads);
    let sets = evotc_workloads::stuck_at_workloads(rows, 1, profile.size_limit, threads);
    rows.iter()
        .zip(&sets)
        .map(|(row, set)| measure_row(row.circuit, set, (12, 64), None, profile))
        .collect()
}

/// Regenerates many Table 2 rows; the path-delay counterpart of
/// [`run_stuck_at_rows`].
pub fn run_path_delay_rows(rows: &[&PathDelayRow], profile: &RunProfile) -> Vec<MeasuredRow> {
    let threads = evotc_evo::parallel::resolve_threads(profile.threads);
    let sets = evotc_workloads::path_delay_workloads(rows, 1, profile.size_limit, threads);
    rows.iter()
        .zip(&sets)
        .map(|(row, set)| measure_row(row.circuit, set, (8, 9), Some((12, 64)), profile))
        .collect()
}

fn measure_row(
    circuit: &str,
    set: &TestSet,
    ea_params: (usize, usize),
    second_ea: Option<(usize, usize)>,
    profile: &RunProfile,
) -> MeasuredRow {
    let rate = |c: &dyn TestCompressor| {
        c.compress(set)
            .map(|r| r.rate_percent())
            .unwrap_or(f64::NEG_INFINITY)
    };
    let rate_9c = rate(&NineCCompressor::new(8));
    let rate_9c_hc = rate(&NineCHuffmanCompressor::new(8));
    let rate_ea = ea_average(set, ea_params.0, ea_params.1, profile);
    let rate_ea2 = match second_ea {
        Some((k, l)) => ea_average(set, k, l, profile),
        None => ea_best(set, profile).max(rate_ea),
    };
    MeasuredRow {
        circuit: circuit.to_string(),
        bits: set.total_bits(),
        rate_9c,
        rate_9c_hc,
        rate_ea,
        rate_ea2,
    }
}

/// Renders measured rows as a markdown table; `headers` names the last two
/// (EA) columns.
pub fn markdown_table(rows: &[MeasuredRow], headers: (&str, &str)) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "| circuit | bits | 9C | 9C+HC | {} | {} |",
        headers.0, headers.1
    );
    let _ = writeln!(out, "|---|---:|---:|---:|---:|---:|");
    for r in rows {
        let _ = writeln!(
            out,
            "| {} | {} | {:.1} | {:.1} | {:.1} | {:.1} |",
            r.circuit, r.bits, r.rate_9c, r.rate_9c_hc, r.rate_ea, r.rate_ea2
        );
    }
    let n = rows.len() as f64;
    let _ = writeln!(
        out,
        "| **average** | | **{:.1}** | **{:.1}** | **{:.1}** | **{:.1}** |",
        rows.iter().map(|r| r.rate_9c).sum::<f64>() / n,
        rows.iter().map(|r| r.rate_9c_hc).sum::<f64>() / n,
        rows.iter().map(|r| r.rate_ea).sum::<f64>() / n,
        rows.iter().map(|r| r.rate_ea2).sum::<f64>() / n,
    );
    out
}

/// The fitness-kernel workload of the `fitness_smoke` binary: the paper
/// shape over the calibrated s953 set, and the random genomes it scores.
pub mod fitness_fixture {
    use evotc_bits::{BlockHistogram, TestSetString, Trit};
    use evotc_workloads::{tables, workload_with_limit};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The paper-default shape: block length `K = 12`.
    pub const BLOCK_LEN: usize = 12;
    /// The paper-default shape: `L = 64` matching vectors.
    pub const NUM_MVS: usize = 64;

    /// Uniformly random genomes over `{0, 1, U}`, seeded — the population
    /// the EA's initial generation scores.
    pub fn random_genomes(n: usize, genome_len: usize, seed: u64) -> Vec<Vec<Trit>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                (0..genome_len)
                    .map(|_| Trit::from_index(rng.gen_range(0..3u8)))
                    .collect()
            })
            .collect()
    }

    /// The calibrated s953 stuck-at workload at `K = 12`: histogram plus
    /// uncompressed payload bits (the fitness denominator).
    pub fn paper_histogram() -> (BlockHistogram, f64) {
        let row = tables::stuck_at_row("s953").expect("s953 is a Table 1 row");
        let set = workload_with_limit(row.circuit, row.test_set_bits, row.rate_9c, 1, 1 << 14, 1);
        let string = TestSetString::try_new(&set, BLOCK_LEN).expect("K=12 fits the workload");
        let bits = string.payload_bits() as f64;
        (BlockHistogram::from_string(&string), bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evotc_workloads::tables;

    fn tiny_profile() -> RunProfile {
        RunProfile {
            size_limit: 2_000,
            stagnation_limit: 10,
            max_evaluations: 300,
            runs: 1,
            grid: &[(8, 9)],
            threads: 0,
        }
    }

    #[test]
    fn stuck_at_row_produces_sane_rates() {
        let row = tables::stuck_at_row("s349").unwrap();
        let m = run_stuck_at_row(row, &tiny_profile());
        assert_eq!(m.circuit, "s349");
        assert!(m.rate_9c > -100.0 && m.rate_9c < 90.0);
        // Huffman can only help over the fixed code.
        assert!(m.rate_9c_hc >= m.rate_9c - 1e-9);
        // EA-Best includes the EA average as a lower bound.
        assert!(m.rate_ea2 >= m.rate_ea - 1e-9);
    }

    #[test]
    fn path_delay_row_runs() {
        let row = tables::path_delay_row("s27").unwrap();
        let m = run_path_delay_row(row, &tiny_profile());
        assert_eq!(m.bits % 14, 0); // width 2*7
    }

    #[test]
    fn markdown_has_header_and_average() {
        let rows = vec![MeasuredRow {
            circuit: "x".into(),
            bits: 100,
            rate_9c: 1.0,
            rate_9c_hc: 2.0,
            rate_ea: 3.0,
            rate_ea2: 4.0,
        }];
        let md = markdown_table(&rows, ("EA", "EA-Best"));
        assert!(md.contains("| circuit |"));
        assert!(md.contains("**average**"));
    }

    #[test]
    fn run_args_accept_the_profile_flags_and_circuit_names() {
        let parse = |a: &[&str]| {
            parse_run_args(&a.iter().map(|s| s.to_string()).collect::<Vec<_>>())
                .expect("valid arguments")
        };
        assert_eq!(parse(&[]), (RunProfile::quick(), Vec::new()));
        assert_eq!(parse(&["--full"]), (RunProfile::full(), Vec::new()));
        assert_eq!(parse(&["--threads", "4"]).0.threads, 4);
        let (profile, circuits) = parse(&["--threads=2", "s349", "--full", "s27"]);
        assert_eq!(profile.threads, 2);
        assert_eq!(
            profile.stagnation_limit,
            RunProfile::full().stagnation_limit
        );
        assert_eq!(circuits, ["s349", "s27"]);
        // A thread count is never read as a circuit name.
        assert!(parse(&["--threads", "8"]).1.is_empty());
    }

    #[test]
    fn run_args_reject_unknown_flags_and_bad_thread_counts() {
        let parse =
            |a: &[&str]| parse_run_args(&a.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        for bad in [
            &["--ful"][..],
            &["--thread", "2"],
            &["--threads", "x"],
            &["--threads=x"],
            &["--threads"],
            &["s27", "--check-only"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
        assert_eq!(
            parse(&["--ful"]),
            Err("unknown argument `--ful`".to_string())
        );
    }

    #[test]
    fn check_only_is_the_only_accepted_argument() {
        let args = |a: &[&str]| parse_check_only(a.iter().map(|s| s.to_string()));
        assert_eq!(args(&[]), Ok(false));
        assert_eq!(args(&["--check-only"]), Ok(true));
        // A mistyped flag must not fall through to the timed mode.
        assert_eq!(args(&["--check_only"]), Err("--check_only".to_string()));
        assert_eq!(args(&["--check-only", "--full"]), Err("--full".to_string()));
    }

    #[test]
    fn pairs_alternate_the_side_that_runs_first() {
        let order = std::cell::RefCell::new(String::new());
        let pairs = alternating_pairs(
            4,
            || order.borrow_mut().push('a'),
            || order.borrow_mut().push('b'),
        );
        assert_eq!(pairs.len(), 4);
        assert_eq!(order.into_inner(), "abbaabba");

        // Each pair keeps its own two results, whichever ran first.
        let (mut a, mut b) = (0, 100);
        let pairs = alternating_pairs(
            3,
            || {
                a += 1;
                a
            },
            || {
                b += 1;
                b
            },
        );
        assert_eq!(pairs, [(1, 101), (2, 102), (3, 103)]);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median([5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median([4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median([7.0]), 7.0);
        assert!(median(Vec::new()).is_nan());
        // The median of per-pair ratios, over odd and even pair counts.
        let paired_median = |a_values: &[f64]| {
            let mut a = a_values.iter().copied();
            let pairs = alternating_pairs(a_values.len(), || a.next().unwrap(), || 2.0);
            median(pairs.iter().map(|&(x, y)| x / y))
        };
        assert_eq!(paired_median(&[6.0, 2.0, 4.0, 10.0, 8.0]), 3.0);
        assert_eq!(paired_median(&[6.0, 2.0, 4.0, 10.0]), 2.5);
    }

    #[test]
    fn batch_row_runner_matches_per_row_runner() {
        let profile = tiny_profile();
        let rows: Vec<&tables::StuckAtRow> = tables::TABLE1[..2].iter().collect();
        let batch = run_stuck_at_rows(&rows, &profile);
        for (row, measured) in rows.iter().zip(&batch) {
            assert_eq!(measured, &run_stuck_at_row(row, &profile));
        }
    }
}
