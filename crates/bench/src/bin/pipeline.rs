//! End-to-end pipeline benchmark: circuit → stuck-at ATPG → EA compression
//! → decode-verify, plus the path-delay ATPG leg, per circuit.
//!
//! For c17, s27, the s208 … s510 stand-ins of the repository benchmark's
//! `atpg_flow` workload, s953 and s1423 it records:
//!
//! * `gates`, `collapsed_faults` — circuit size and the PODEM target count;
//! * `build_ms` — parsing the embedded netlist or generating the stand-in;
//! * `stuck_at_ms` with `tests`, `untestable`, `aborted`, `discarded` — one
//!   `generate_stuck_at_tests` call at the default thread count and its
//!   `StuckAtOutcome` counts;
//! * `stuck_at_t1_ms` — the same call at `threads: 1`;
//! * `path_delay_ms`, `path_delay_tests` — `generate_path_delay_tests` at
//!   the default thread count, and `path_delay_t1_ms` at `threads: 1`;
//! * `compress_ms`, `rate_pct` — the default EA at K=12, L=64 on the
//!   stuck-at set;
//! * `verify_ms` — software decompression, the refinement check and the
//!   decoder-FSM replay.
//!
//! The top-level `threads` is the resolved default thread count. Both ATPG
//! legs must return the same test set and counts at `threads: 1` as at the
//! default; the bin exits non-zero on any difference. Since the outputs are
//! identical, `stuck_at_t1_ms / stuck_at_ms` is the speed-up of the
//! default threads alone.
//!
//! Writes `BENCH_pipeline.json`. With `--check-only` it runs c17 through
//! s953 (s1423 is left out) and exits non-zero if any compression fails
//! decode-verify, if any of the eight `atpg_flow` circuits has an aborted
//! fault, if a thread count changes an ATPG output, or if the run exceeds
//! a 60 s wall budget.
//!
//! ```text
//! cargo run --release -p evotc_bench --bin pipeline [-- --check-only]
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use evotc_atpg::{
    generate_path_delay_tests, generate_stuck_at_tests, PathDelayConfig, PathDelayOutcome,
    StuckAtConfig, StuckAtOutcome,
};
use evotc_bits::TestSet;
use evotc_core::{CompressedTestSet, EaCompressor, TestCompressor};
use evotc_decoder::DecoderFsm;
use evotc_evo::parallel::resolve_threads;
use evotc_netlist::{generate, iscas, parse_bench, GeneratorConfig, Netlist};

/// Every circuit, in the order rows are printed.
const CIRCUITS: [&str; 10] = [
    "c17", "s27", "s208", "s298", "s344", "s386", "s420", "s510", "s953", "s1423",
];
/// The circuits of the repository benchmark's `atpg_flow` workload: none of
/// their faults may abort.
const ATPG_FLOW: [&str; 8] = ["c17", "s27", "s208", "s298", "s344", "s386", "s420", "s510"];
/// `--check-only` wall budget for c17 through s953. Generous for a loaded
/// CI runner: the whole run takes a few seconds on two cores.
const CHECK_BUDGET: Duration = Duration::from_secs(60);

fn fail(msg: &str) -> ! {
    eprintln!("pipeline: FAIL: {msg}");
    std::process::exit(1);
}

fn build(name: &str) -> Netlist {
    match name {
        "c17" => parse_bench(iscas::C17_BENCH).expect("embedded c17 parses"),
        "s27" => parse_bench(iscas::S27_BENCH).expect("embedded s27 parses"),
        other => generate(&GeneratorConfig::from_profile(
            iscas::profile(other).expect("every stand-in has a profile"),
        )),
    }
}

/// Decompresses in software, checks the result refines `set`, and replays
/// the stream through the decoder FSM against the software decoder.
fn decode_verify(set: &TestSet, compressed: &CompressedTestSet) -> Result<(), String> {
    let restored = compressed
        .decompress()
        .map_err(|e| format!("decompress: {e}"))?;
    if !set.is_refined_by(&restored) {
        return Err("decompressed set does not refine its input".to_string());
    }
    catch_unwind(AssertUnwindSafe(|| {
        DecoderFsm::verify_against_reference(compressed)
    }))
    .map_err(|_| "decoder FSM diverged from the software decoder".to_string())
}

struct Row {
    name: &'static str,
    gates: usize,
    collapsed_faults: usize,
    build_ms: f64,
    stuck_at_ms: f64,
    stuck_at_t1_ms: f64,
    tests: usize,
    untestable: usize,
    aborted: usize,
    discarded: usize,
    path_delay_ms: f64,
    path_delay_t1_ms: f64,
    path_delay_tests: usize,
    compress_ms: f64,
    verify_ms: f64,
    rate_pct: f64,
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// Same test set and counts; `discarded` depends on scheduling.
fn same_stuck_at(a: &StuckAtOutcome, b: &StuckAtOutcome) -> bool {
    a.tests == b.tests
        && [a.num_faults, a.detected, a.untestable, a.aborted]
            == [b.num_faults, b.detected, b.untestable, b.aborted]
}

fn same_path_delay(a: &PathDelayOutcome, b: &PathDelayOutcome) -> bool {
    a.tests == b.tests
        && [a.paths_considered, a.robust_tests, a.untestable_or_aborted]
            == [b.paths_considered, b.robust_tests, b.untestable_or_aborted]
}

/// Runs `generate` at `threads: 1`, then at the default thread count, and
/// fails unless the two outcomes are the `same`; returns the default run
/// with its time and the `threads: 1` time.
fn both_ways<O>(
    what: &str,
    generate: impl Fn(usize) -> O,
    same: fn(&O, &O) -> bool,
) -> (O, f64, f64) {
    let t = Instant::now();
    let serial = generate(1);
    let t1_ms = ms(t);
    let t = Instant::now();
    let outcome = generate(0);
    let default_ms = ms(t);
    if !same(&serial, &outcome) {
        fail(&format!("{what}: threads 1 and the default disagree"));
    }
    (outcome, default_ms, t1_ms)
}

fn measure(name: &'static str) -> Row {
    let t = Instant::now();
    let netlist = build(name);
    let build_ms = ms(t);

    let (outcome, stuck_at_ms, stuck_at_t1_ms) = both_ways(
        &format!("{name} stuck-at"),
        |threads| {
            let config = StuckAtConfig {
                threads,
                ..StuckAtConfig::default()
            };
            generate_stuck_at_tests(&netlist, &config)
        },
        same_stuck_at,
    );
    let (pairs, path_delay_ms, path_delay_t1_ms) = both_ways(
        &format!("{name} path-delay"),
        |threads| {
            let config = PathDelayConfig {
                threads,
                ..PathDelayConfig::default()
            };
            generate_path_delay_tests(&netlist, &config)
        },
        same_path_delay,
    );

    let t = Instant::now();
    let compressed = EaCompressor::builder(12, 64)
        .seed(1)
        .build()
        .compress(&outcome.tests)
        .unwrap_or_else(|e| fail(&format!("{name}: compress: {e}")));
    let compress_ms = ms(t);

    let t = Instant::now();
    decode_verify(&outcome.tests, &compressed)
        .unwrap_or_else(|e| fail(&format!("{name}: decode-verify: {e}")));
    let verify_ms = ms(t);

    Row {
        name,
        gates: netlist.num_gates(),
        collapsed_faults: outcome.num_faults,
        build_ms,
        stuck_at_ms,
        stuck_at_t1_ms,
        tests: outcome.tests.num_patterns(),
        untestable: outcome.untestable,
        aborted: outcome.aborted,
        discarded: outcome.discarded,
        path_delay_ms,
        path_delay_t1_ms,
        path_delay_tests: pairs.tests.num_patterns(),
        compress_ms,
        verify_ms,
        rate_pct: compressed.rate_percent(),
    }
}

fn print_row(r: &Row) {
    println!(
        "{:>6}: {:>5} gates {:>5} faults  build {:>5.2} ms  stuck-at {:>9.3} ms \
         (t1 {:>9.3} ms; {} tests, {} untestable, {} aborted, {} discarded)  \
         path-delay {:>7.2} ms (t1 {:>7.2} ms; {} tests)  \
         EA {:>6.1} ms  verify {:>5.2} ms  rate {:.2} %",
        r.name,
        r.gates,
        r.collapsed_faults,
        r.build_ms,
        r.stuck_at_ms,
        r.stuck_at_t1_ms,
        r.tests,
        r.untestable,
        r.aborted,
        r.discarded,
        r.path_delay_ms,
        r.path_delay_t1_ms,
        r.path_delay_tests,
        r.compress_ms,
        r.verify_ms,
        r.rate_pct,
    );
}

fn check_only() {
    let t = Instant::now();
    for &name in &CIRCUITS[..CIRCUITS.len() - 1] {
        let row = measure(name);
        print_row(&row);
        if ATPG_FLOW.contains(&name) && row.aborted > 0 {
            fail(&format!("{name}: {} aborted faults", row.aborted));
        }
    }
    let elapsed = t.elapsed();
    if elapsed > CHECK_BUDGET {
        fail(&format!(
            "c17 through s953 took {elapsed:?} (budget {CHECK_BUDGET:?})"
        ));
    }
    println!(
        "pipeline --check-only: OK ({:.2}s, every set decode-verified, no aborts on the atpg_flow \
         circuits, ATPG outputs identical at threads 1 and {})",
        elapsed.as_secs_f64(),
        resolve_threads(0)
    );
}

fn main() {
    if std::env::args().any(|a| a == "--check-only") {
        check_only();
        return;
    }

    let rows: Vec<Row> = CIRCUITS
        .iter()
        .map(|&name| {
            let row = measure(name);
            print_row(&row);
            row
        })
        .collect();

    let circuits_json = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"circuit\": \"{}\", \"gates\": {}, \"collapsed_faults\": {}, \
                 \"build_ms\": {:.3}, \"stuck_at_ms\": {:.3}, \"stuck_at_t1_ms\": {:.3}, \
                 \"tests\": {}, \"untestable\": {}, \"aborted\": {}, \"discarded\": {}, \
                 \"path_delay_ms\": {:.3}, \"path_delay_t1_ms\": {:.3}, \
                 \"path_delay_tests\": {}, \"compress_ms\": {:.3}, \"verify_ms\": {:.3}, \
                 \"rate_pct\": {:.3}}}",
                r.name,
                r.gates,
                r.collapsed_faults,
                r.build_ms,
                r.stuck_at_ms,
                r.stuck_at_t1_ms,
                r.tests,
                r.untestable,
                r.aborted,
                r.discarded,
                r.path_delay_ms,
                r.path_delay_t1_ms,
                r.path_delay_tests,
                r.compress_ms,
                r.verify_ms,
                r.rate_pct,
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"bench\": \"pipeline\",\n  \"threads\": {},\n  \
         \"ea\": {{\"block_len\": 12, \"num_mvs\": 64, \"seed\": 1}},\n  \
         \"circuits\": [\n{circuits_json}\n  ]\n}}\n",
        resolve_threads(0)
    );
    let path = "BENCH_pipeline.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e} (numbers are above)"),
    }
}
