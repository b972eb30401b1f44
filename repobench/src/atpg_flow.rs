//! `atpg_flow`: the paper pipeline on real ATPG output.
//!
//! Set-up writes the embedded `c17`/`s27` netlists and the generated
//! `s208 … s510` stand-ins to `.bench` text. Each pass then runs, per
//! circuit: parse → stuck-at ATPG → EA at K=12, L=64 (default threads) →
//! decompress + decoder-FSM verify, and a path-delay leg: robust
//! path-delay ATPG → EA at Table 2's K=8, L=9 → verify, skipped when the
//! circuit yields no path-delay tests.
//!
//! The stand-ins keep their canonical generator seeds: ATPG time on them is
//! dominated by a handful of aborted faults, so re-generating the circuits
//! per seed would swing a pass several-fold. The workload seed drives the
//! EA seeds.

use std::collections::BTreeMap;
use std::time::Instant;

use evotc_atpg::{
    generate_path_delay_tests, generate_stuck_at_tests, PathDelayConfig, StuckAtConfig,
    StuckAtOutcome,
};
use evotc_core::EaCompressor;
use evotc_netlist::{generate, iscas, parse_bench, write_bench, GeneratorConfig};

use crate::common::{mix, ns_to_ms, timed_setup, Outcome, RunArgs};
use crate::flow::{self, Pass};
use crate::replay::{self, Verdict};
use crate::stats::{max, median};
use crate::trace::{total_time_by_name, Tracer};

const CIRCUITS: &[&str] = &["c17", "s27", "s208", "s298", "s344", "s386", "s420", "s510"];

/// Set-up repetitions whose median is `setup_s`.
const SETUPS: usize = 201;

struct Circuit {
    bench: String,
}

fn setup() -> Vec<Circuit> {
    CIRCUITS
        .iter()
        .map(|&name| {
            let bench = match name {
                "c17" => iscas::C17_BENCH.to_string(),
                "s27" => iscas::S27_BENCH.to_string(),
                other => {
                    let profile = iscas::profile(other).expect("every stand-in has a profile");
                    write_bench(&generate(&GeneratorConfig::from_profile(profile)))
                }
            };
            Circuit { bench }
        })
        .collect()
}

/// What the traced pass learns about the ATPG layers.
#[derive(Debug, Default)]
struct AtpgSplit {
    valid: bool,
    podem_calls: Vec<(u64, Verdict)>,
    drop_calls: u64,
    cubes: u64,
    aborted: u64,
    untestable: u64,
}

/// Stuck-at fault coverage counts of one pass: detected, testable.
#[derive(Debug, Default)]
struct Coverage {
    detected: usize,
    testable: usize,
}

/// One pass. Untraced passes call `generate_stuck_at_tests`; traced ones
/// call the replay and check it against the untraced `reference`.
fn pass(
    circuits: &[Circuit],
    seed: u64,
    tracer: &mut Tracer,
    reference: &mut BTreeMap<usize, StuckAtOutcome>,
    split: &mut AtpgSplit,
    coverage: &mut Coverage,
) -> Pass {
    let mut out = Pass::default();
    let started = Instant::now();
    let whole = tracer.enter("pass", 0);
    for (i, circuit) in circuits.iter().enumerate() {
        let request = i as u64;
        out.attempted += 1;
        let open = tracer.enter("netlist.parse", request);
        let parsed = parse_bench(&circuit.bench);
        tracer.exit(open);
        let netlist = match parsed {
            Ok(netlist) => netlist,
            Err(e) => {
                out.failures.push(format!("{}: parse: {e}", CIRCUITS[i]));
                out.failed += 1;
                continue;
            }
        };

        // Stuck-at leg.
        let config = StuckAtConfig::default();
        let open = tracer.enter("atpg.stuck_at", request);
        let tests = if tracer.enabled() {
            let replayed = replay::stuck_at(&netlist, &config, tracer, request);
            split.drop_calls += replayed.drop_calls;
            split.cubes += replayed.tests.num_patterns() as u64;
            split.aborted += replayed.aborted as u64;
            split.untestable += replayed.untestable as u64;
            split.podem_calls.extend_from_slice(&replayed.podem_calls);
            match reference.get(&i) {
                Some(real) if replayed.matches(real) => replayed.tests,
                // Keep the pipeline on the real cubes; only the split is off.
                Some(real) => {
                    split.valid = false;
                    real.tests.clone()
                }
                None => {
                    split.valid = false;
                    replayed.tests
                }
            }
        } else {
            let real = generate_stuck_at_tests(&netlist, &config);
            let tests = real.tests.clone();
            reference.entry(i).or_insert_with(|| {
                coverage.detected += real.detected;
                coverage.testable += real.num_faults - real.untestable;
                real
            });
            tests
        };
        tracer.exit(open);
        out.digest.test_set(&tests);
        let compressor = EaCompressor::builder(12, 64)
            .seed(mix(seed, 2 * request))
            .build();
        let mut ok = out.compress_and_verify(compressor, &tests, tracer, request);

        // Path-delay leg.
        let open = tracer.enter("atpg.path_delay", request);
        let pairs = generate_path_delay_tests(&netlist, &PathDelayConfig::default()).tests;
        tracer.exit(open);
        out.digest.test_set(&pairs);
        if !pairs.is_empty() {
            let compressor = EaCompressor::builder(8, 9)
                .seed(mix(seed, 2 * request + 1))
                .build();
            ok &= out.compress_and_verify(compressor, &pairs, tracer, request);
        }
        if !ok {
            out.failed += 1;
        }
    }
    tracer.exit(whole);
    out.secs = started.elapsed().as_secs_f64();
    out
}

pub fn run(args: &RunArgs) -> Outcome {
    let (circuits, setup_s) = timed_setup(SETUPS, setup);
    let mut reference = BTreeMap::new();
    let mut coverage = Coverage::default();
    // Only traced passes replay; each one clears this on a mismatch.
    let mut split = AtpgSplit {
        valid: true,
        ..AtpgSplit::default()
    };
    let (mut out, traced) = flow::run(args, "atpg_flow", setup_s, |tracer| {
        pass(
            &circuits,
            args.seed,
            tracer,
            &mut reference,
            &mut split,
            &mut coverage,
        )
    });
    let coverage_pct = 100.0 * coverage.detected as f64 / coverage.testable.max(1) as f64;
    out.note(format!(
        "fault_coverage_pct = {coverage_pct:.4} % ({} of {} testable faults)",
        coverage.detected, coverage.testable
    ));
    let Some((tracer, per)) = traced else {
        return out;
    };

    let totals = total_time_by_name(tracer.spans());
    let total_ms = |name: &str| ns_to_ms(totals.get(name).copied().unwrap_or(0)) / per;
    let podem_us: Vec<f64> = split
        .podem_calls
        .iter()
        .map(|&(ns, _)| ns as f64 / 1e3)
        .collect();
    let podem_ns: u64 = split.podem_calls.iter().map(|&(ns, _)| ns).sum();
    let aborted_ns: u64 = split
        .podem_calls
        .iter()
        .filter(|&&(_, verdict)| verdict == Verdict::Aborted)
        .map(|&(ns, _)| ns)
        .sum();
    out.set("netlist.parse_ms", total_ms("netlist.parse"));
    out.set("sim.collapse_ms", total_ms("sim.collapse"));
    out.set("sim.drop_ms", total_ms("sim.drop"));
    out.set("sim.drop_calls", split.drop_calls as f64 / per);
    out.set("atpg.stuck_at_ms", total_ms("atpg.stuck_at"));
    out.set("atpg.path_delay_ms", total_ms("atpg.path_delay"));
    out.set("atpg.podem_ms", total_ms("atpg.podem"));
    out.set("atpg.podem_calls", podem_us.len() as f64 / per);
    out.set("atpg.podem_fault_p50_us", median(&podem_us).unwrap_or(0.0));
    out.set("atpg.podem_fault_max_us", max(&podem_us));
    out.set("atpg.aborted", split.aborted as f64 / per);
    out.set("atpg.untestable", split.untestable as f64 / per);
    out.set(
        "atpg.cube_yield",
        split.cubes as f64 / podem_us.len().max(1) as f64,
    );
    out.set(
        "atpg.aborted_time_share",
        aborted_ns as f64 / podem_ns.max(1) as f64,
    );
    out.set("atpg.fault_coverage_pct", coverage_pct);
    out.set("atpg.split_valid", if split.valid { 1.0 } else { 0.0 });
    if !split.valid {
        out.note(
            "the PODEM/dropping replay did not reproduce generate_stuck_at_tests: \
             the sim/atpg split is invalid"
                .to_string(),
        );
    }
    out
}
