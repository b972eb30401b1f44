//! End-to-end pipeline benchmark: circuit → stuck-at ATPG → EA compression
//! → decode-verify, plus the path-delay ATPG leg, per circuit.
//!
//! For c17, s27, the s208 … s510 stand-ins of the repository benchmark's
//! `atpg_flow` workload, s953 and s1423 it records:
//!
//! * `gates`, `collapsed_faults` — circuit size and the PODEM target count;
//! * `build_ms` — parsing the embedded netlist or generating the stand-in;
//! * `stuck_at_ms` with `tests`, `untestable`, `aborted`, `backtracks`,
//!   `discarded` — one `generate_stuck_at_tests` call at the default
//!   thread count and its `StuckAtOutcome` counts;
//! * `stuck_at_t1_ms` — the same call at `threads: 1`;
//! * `path_delay_ms`, `path_delay_tests` — `generate_path_delay_tests` at
//!   the default thread count, and `path_delay_t1_ms` at `threads: 1`;
//! * `compress_ms`, `rate_pct` — the default EA at K=12, L=64 on the
//!   stuck-at set, one `compress_with_summary` call, and `ea_ms`, the EA
//!   run's own `EaResult::elapsed` within it;
//! * `histogram_ms` — `BlockHistogram::from_string` over the set at K=12;
//! * `encode_ms` — `encode_with_mvs` with the run's own MVs;
//! * `sim64_us` — one `simulate64` over 64 of the circuit's cubes (zero
//!   filled, repeated cyclically when there are fewer);
//! * `drop_us` — one `detected_faults` sweep of the first cube over the
//!   collapsed faults;
//! * `verify_ms` — software decompression, the refinement check and the
//!   decoder-FSM replay.
//!
//! `histogram_ms`, `encode_ms`, `sim64_us` and `drop_us` are medians of
//! `REPEATS` calls. Every run also checks what those calls return: the
//! re-run encoding is bit for bit the compressor's stream, and for every
//! collapsed fault the sweep's bit equals `detected_mask(..) & 1`.
//!
//! The top-level `threads` is the resolved default thread count. Both ATPG
//! legs must return the same test set and counts at `threads: 1` as at the
//! default; the bin exits non-zero on any difference. Since the outputs are
//! identical, `stuck_at_t1_ms / stuck_at_ms` is the speed-up of the
//! default threads alone.
//!
//! Writes `BENCH_pipeline.json`. With `--check-only` it runs c17 through
//! s953 (s1423 is left out) and exits non-zero if any compression fails
//! decode-verify or either check above, if any of the eight `atpg_flow`
//! circuits has an aborted fault, if a thread count changes an ATPG output,
//! or if the run exceeds a 60 s wall budget. Any other argument exits with
//! code 2.
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
use evotc_bench::{check_only_arg, median_secs};
use evotc_bits::{BlockHistogram, TestSet, TestSetString, Trit};
use evotc_core::{encode_with_mvs, CompressedTestSet, EaCompressor};
use evotc_decoder::DecoderFsm;
use evotc_evo::parallel::resolve_threads;
use evotc_netlist::{generate, iscas, parse_bench, GeneratorConfig, Netlist};
use evotc_sim::{collapse_faults, detected_faults, detected_mask, simulate64};

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
/// Calls per median of the single-call timings.
const REPEATS: usize = 101;

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

/// One circuit's record: its `(key, value, decimals)` fields, in the order
/// they are printed and written.
struct Row {
    name: &'static str,
    aborted: usize,
    fields: Vec<(&'static str, f64, usize)>,
}

impl Row {
    fn print(&self) {
        let fields: Vec<String> = self
            .fields
            .iter()
            .map(|(key, value, digits)| format!("{key} {value:.digits$}"))
            .collect();
        println!("{:>6}: {}", self.name, fields.join(", "));
    }

    fn json(&self) -> String {
        let fields: String = self
            .fields
            .iter()
            .map(|(key, value, digits)| format!(", \"{key}\": {value:.digits$}"))
            .collect();
        format!("    {{\"circuit\": \"{}\"{fields}}}", self.name)
    }
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// Same test set and counts; `discarded` depends on scheduling.
fn same_stuck_at(a: &StuckAtOutcome, b: &StuckAtOutcome) -> bool {
    let counts = |o: &StuckAtOutcome| {
        [
            o.num_faults,
            o.detected,
            o.untestable,
            o.aborted,
            o.backtracks,
        ]
    };
    a.tests == b.tests && counts(a) == counts(b)
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

    let set = &outcome.tests;
    let t = Instant::now();
    let (compressed, summary) = EaCompressor::builder(12, 64)
        .seed(1)
        .build()
        .compress_with_summary(set)
        .unwrap_or_else(|e| fail(&format!("{name}: compress: {e}")));
    let compress_ms = ms(t);

    let string = TestSetString::new(set, 12);
    let histogram_ms = median_secs(REPEATS, || BlockHistogram::from_string(&string)) * 1e3;
    let encode = || {
        encode_with_mvs(&compressed.scheme, set, compressed.mv_set())
            .unwrap_or_else(|e| fail(&format!("{name}: encode: {e}")))
    };
    let encode_ms = median_secs(REPEATS, encode) * 1e3;
    let encoded = encode();
    if encoded.compressed_bits != compressed.compressed_bits
        || !encoded.stream().eq(compressed.stream())
    {
        fail(&format!(
            "{name}: re-encoding differs from the compressor's stream"
        ));
    }

    let cubes = set.patterns();
    let inputs: Vec<u64> = (0..netlist.num_inputs())
        .map(|j| {
            (0..64).fold(0, |w, p| {
                w | u64::from(cubes[p % cubes.len()].trit(j) == Trit::One) << p
            })
        })
        .collect();
    let sim64_us = median_secs(REPEATS, || simulate64(&netlist, &inputs)) * 1e6;
    let faults = collapse_faults(&netlist);
    let pattern: Vec<bool> = cubes[0].iter().map(|t| t == Trit::One).collect();
    let drop_us = median_secs(REPEATS, || detected_faults(&netlist, &pattern, &faults)) * 1e6;
    let words = detected_faults(&netlist, &pattern, &faults);
    for (i, &fault) in faults.iter().enumerate() {
        // Bit 0 of `inputs` is the first cube, zero-filled, like `pattern`.
        if (words[i / 64] >> (i % 64)) & 1 != detected_mask(&netlist, fault, &inputs) & 1 {
            fail(&format!(
                "{name}: detected_faults disagrees with detected_mask on {fault:?}"
            ));
        }
    }

    let t = Instant::now();
    decode_verify(set, &compressed)
        .unwrap_or_else(|e| fail(&format!("{name}: decode-verify: {e}")));
    let verify_ms = ms(t);

    let count = |n: usize| n as f64;
    Row {
        name,
        aborted: outcome.aborted,
        fields: vec![
            ("gates", count(netlist.num_gates()), 0),
            ("collapsed_faults", count(outcome.num_faults), 0),
            ("build_ms", build_ms, 3),
            ("stuck_at_ms", stuck_at_ms, 3),
            ("stuck_at_t1_ms", stuck_at_t1_ms, 3),
            ("tests", count(set.num_patterns()), 0),
            ("untestable", count(outcome.untestable), 0),
            ("aborted", count(outcome.aborted), 0),
            ("backtracks", count(outcome.backtracks), 0),
            ("discarded", count(outcome.discarded), 0),
            ("path_delay_ms", path_delay_ms, 3),
            ("path_delay_t1_ms", path_delay_t1_ms, 3),
            ("path_delay_tests", count(pairs.tests.num_patterns()), 0),
            ("compress_ms", compress_ms, 3),
            ("ea_ms", summary.elapsed.as_secs_f64() * 1e3, 3),
            ("histogram_ms", histogram_ms, 4),
            ("encode_ms", encode_ms, 4),
            ("sim64_us", sim64_us, 3),
            ("drop_us", drop_us, 3),
            ("verify_ms", verify_ms, 3),
            ("rate_pct", compressed.rate_percent(), 3),
        ],
    }
}

fn check_only() {
    let t = Instant::now();
    for &name in &CIRCUITS[..CIRCUITS.len() - 1] {
        let row = measure(name);
        row.print();
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
    if check_only_arg("pipeline") {
        check_only();
        return;
    }

    let rows: Vec<Row> = CIRCUITS
        .iter()
        .map(|&name| {
            let row = measure(name);
            row.print();
            row
        })
        .collect();

    let circuits_json = rows.iter().map(Row::json).collect::<Vec<_>>().join(",\n");
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
