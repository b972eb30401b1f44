//! End-to-end pipeline benchmark: circuit → stuck-at ATPG → EA compression
//! → decode-verify, plus the path-delay ATPG leg, per circuit.
//!
//! For c17, s27, the s208 … s510 stand-ins of the repository benchmark's
//! `atpg_flow` workload, s953 and s1423 it records:
//!
//! * `gates`, `collapsed_faults` — circuit size and the PODEM target count;
//! * `build_ms` — parsing the embedded netlist or generating the stand-in;
//! * `stuck_at_ms` with `tests`, `untestable`, `aborted` — one
//!   `generate_stuck_at_tests` call and its `StuckAtOutcome` counts;
//! * `path_delay_ms`, `path_delay_tests` — `generate_path_delay_tests`;
//! * `compress_ms`, `rate_pct` — the default EA at K=12, L=64 on the
//!   stuck-at set;
//! * `verify_ms` — software decompression, the refinement check and the
//!   decoder-FSM replay.
//!
//! Writes `BENCH_pipeline.json`. With `--check-only` it runs c17 through
//! s953 (s1423 is left out) and exits non-zero if any compression fails
//! decode-verify, if any of the eight `atpg_flow` circuits has an aborted
//! fault, or if the run exceeds a 60 s wall budget.
//!
//! ```text
//! cargo run --release -p evotc_bench --bin pipeline [-- --check-only]
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use evotc_atpg::{
    generate_path_delay_tests, generate_stuck_at_tests, PathDelayConfig, StuckAtConfig,
};
use evotc_bits::TestSet;
use evotc_core::{CompressedTestSet, EaCompressor, TestCompressor};
use evotc_decoder::DecoderFsm;
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
    tests: usize,
    untestable: usize,
    aborted: usize,
    path_delay_ms: f64,
    path_delay_tests: usize,
    compress_ms: f64,
    verify_ms: f64,
    rate_pct: f64,
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

fn measure(name: &'static str) -> Row {
    let t = Instant::now();
    let netlist = build(name);
    let build_ms = ms(t);

    let t = Instant::now();
    let outcome = generate_stuck_at_tests(&netlist, &StuckAtConfig::default());
    let stuck_at_ms = ms(t);

    let t = Instant::now();
    let pairs = generate_path_delay_tests(&netlist, &PathDelayConfig::default()).tests;
    let path_delay_ms = ms(t);

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
        tests: outcome.tests.num_patterns(),
        untestable: outcome.untestable,
        aborted: outcome.aborted,
        path_delay_ms,
        path_delay_tests: pairs.num_patterns(),
        compress_ms,
        verify_ms,
        rate_pct: compressed.rate_percent(),
    }
}

fn print_row(r: &Row) {
    println!(
        "{:>6}: {:>5} gates {:>5} faults  build {:>7.2} ms  stuck-at {:>10.3} ms \
         ({} tests, {} untestable, {} aborted)  path-delay {:>8.2} ms ({} tests)  \
         EA {:>7.1} ms  verify {:>6.2} ms  rate {:.2} %",
        r.name,
        r.gates,
        r.collapsed_faults,
        r.build_ms,
        r.stuck_at_ms,
        r.tests,
        r.untestable,
        r.aborted,
        r.path_delay_ms,
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
        "pipeline --check-only: OK ({:.2}s, every set decode-verified, no aborts on the atpg_flow circuits)",
        elapsed.as_secs_f64()
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
                 \"build_ms\": {:.3}, \"stuck_at_ms\": {:.3}, \"tests\": {}, \
                 \"untestable\": {}, \"aborted\": {}, \"path_delay_ms\": {:.3}, \
                 \"path_delay_tests\": {}, \"compress_ms\": {:.3}, \"verify_ms\": {:.3}, \
                 \"rate_pct\": {:.3}}}",
                r.name,
                r.gates,
                r.collapsed_faults,
                r.build_ms,
                r.stuck_at_ms,
                r.tests,
                r.untestable,
                r.aborted,
                r.path_delay_ms,
                r.path_delay_tests,
                r.compress_ms,
                r.verify_ms,
                r.rate_pct,
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"bench\": \"pipeline\",\n  \"ea\": {{\"block_len\": 12, \"num_mvs\": 64, \"seed\": 1}},\n  \
         \"circuits\": [\n{circuits_json}\n  ]\n}}\n"
    );
    let path = "BENCH_pipeline.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e} (numbers are above)"),
    }
}
