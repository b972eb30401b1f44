//! Determinism suite for the threaded ATPG generators.
//!
//! `generate_stuck_at_tests` runs PODEM ahead on several threads and
//! commits in fault order; `generate_path_delay_tests` spreads its targets
//! and collects them in target order. Neither may let the thread count
//! show: at `threads` 1, 2, 3 and 4, set through the configs, and at the
//! auto default, both legs must return the byte-identical `TestSet` and
//! the same counts, PODEM backtracks included. Only
//! `StuckAtOutcome::discarded` may differ, and it is 0 at one thread.
//!
//! c17, s27 and the s208 … s386 stand-ins run in every build; s420, s510
//! and s953 only in release builds, where they take about a second. s298
//! and s344 also run at a 5-backtrack budget, so that aborted faults are
//! committed at every thread count.

use evotc::atpg::{
    generate_path_delay_tests, generate_stuck_at_tests, PathDelayConfig, PathDelayOutcome,
    PodemConfig, StuckAtConfig, StuckAtOutcome,
};
use evotc::netlist::{generate, iscas, parse_bench, GeneratorConfig, Netlist};

/// Explicit counts, then the auto default.
const THREADS: [usize; 5] = [1, 2, 3, 4, 0];

fn circuit(name: &str) -> Netlist {
    match name {
        "c17" => parse_bench(iscas::C17_BENCH).unwrap(),
        "s27" => parse_bench(iscas::S27_BENCH).unwrap(),
        other => generate(&GeneratorConfig::from_profile(
            iscas::profile(other).expect("a stand-in profile"),
        )),
    }
}

fn assert_same_stuck_at(label: &str, want: &StuckAtOutcome, got: &StuckAtOutcome) {
    assert_eq!(got.tests, want.tests, "{label}: TestSet");
    assert_eq!(got.num_faults, want.num_faults, "{label}: num_faults");
    assert_eq!(got.detected, want.detected, "{label}: detected");
    assert_eq!(got.untestable, want.untestable, "{label}: untestable");
    assert_eq!(got.aborted, want.aborted, "{label}: aborted");
    assert_eq!(got.backtracks, want.backtracks, "{label}: backtracks");
}

fn assert_same_path_delay(label: &str, want: &PathDelayOutcome, got: &PathDelayOutcome) {
    assert_eq!(got.tests, want.tests, "{label}: TestSet");
    assert_eq!(
        got.paths_considered, want.paths_considered,
        "{label}: paths_considered"
    );
    assert_eq!(got.robust_tests, want.robust_tests, "{label}: robust_tests");
    assert_eq!(
        got.untestable_or_aborted, want.untestable_or_aborted,
        "{label}: untestable_or_aborted"
    );
}

/// Stuck-at at every thread count against `threads: 1`; returns the
/// `threads: 1` outcome.
fn stuck_at(name: &str, podem: PodemConfig) -> StuckAtOutcome {
    let netlist = circuit(name);
    let run = |threads| generate_stuck_at_tests(&netlist, &StuckAtConfig { podem, threads });
    let serial = run(1);
    assert_eq!(serial.discarded, 0, "{name}: one thread never speculates");
    for threads in THREADS {
        assert_same_stuck_at(
            &format!("{name} stuck-at threads {threads}"),
            &serial,
            &run(threads),
        );
    }
    serial
}

/// Both legs at every thread count, default budgets.
fn both_legs(name: &str) {
    let outcome = stuck_at(name, PodemConfig::default());
    assert!(!outcome.tests.is_empty(), "{name}: no cubes");

    let netlist = circuit(name);
    let run = |threads| {
        let config = PathDelayConfig {
            threads,
            ..PathDelayConfig::default()
        };
        generate_path_delay_tests(&netlist, &config)
    };
    let serial = run(1);
    for threads in THREADS {
        assert_same_path_delay(
            &format!("{name} path-delay threads {threads}"),
            &serial,
            &run(threads),
        );
    }
}

/// A budget small enough that some faults abort.
fn with_aborts(name: &str) {
    let outcome = stuck_at(name, PodemConfig { max_backtracks: 5 });
    assert!(
        outcome.aborted > 0,
        "{name}: the budget no longer aborts a fault"
    );
}

#[test]
fn c17_is_thread_invariant() {
    both_legs("c17");
}

#[test]
fn s27_is_thread_invariant() {
    both_legs("s27");
}

#[test]
fn s208_is_thread_invariant() {
    both_legs("s208");
}

#[test]
fn s298_is_thread_invariant() {
    both_legs("s298");
}

#[test]
fn s344_is_thread_invariant() {
    both_legs("s344");
}

#[test]
fn s386_is_thread_invariant() {
    both_legs("s386");
}

#[test]
fn s298_aborts_are_thread_invariant() {
    with_aborts("s298");
}

#[test]
fn s344_aborts_are_thread_invariant() {
    with_aborts("s344");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only")]
fn s420_is_thread_invariant() {
    both_legs("s420");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only")]
fn s510_is_thread_invariant() {
    both_legs("s510");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only")]
fn s953_is_thread_invariant() {
    both_legs("s953");
}
