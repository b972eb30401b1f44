//! Stuck-at test-set generation with don't-care extraction.

use std::sync::atomic::{AtomicBool, Ordering};

use evotc_bits::{TestPattern, TestSet, Trit};
use evotc_netlist::Netlist;
use evotc_sim::{collapse_faults, detected_faults, StuckAtFault};

use crate::fan_out::{self, resolve_threads};
use crate::podem::{Podem, PodemConfig, PodemResult};

/// Configuration for [`generate_stuck_at_tests`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StuckAtConfig {
    /// PODEM search budget per fault.
    pub podem: PodemConfig,
    /// Threads that run PODEM, the calling thread included (`0` = auto:
    /// `EVOTC_TEST_THREADS` when set, else the available parallelism capped
    /// at 8, the rule of `evotc_evo::parallel::resolve_threads`). The
    /// outcome is byte-identical at every count, apart from
    /// [`StuckAtOutcome::discarded`].
    pub threads: usize,
}

/// Outcome of stuck-at test generation.
#[derive(Debug, Clone)]
pub struct StuckAtOutcome {
    /// The uncompacted test set; unassigned inputs are `X` (the don't-cares
    /// the paper's compression pipeline feeds on).
    pub tests: TestSet,
    /// Faults targeted after collapsing.
    pub num_faults: usize,
    /// Faults detected (by generation or by fault dropping).
    pub detected: usize,
    /// Faults proven untestable.
    pub untestable: usize,
    /// Faults aborted (budget exhausted).
    pub aborted: usize,
    /// PODEM backtracks, summed over the committed runs (a run aborted at
    /// the budget counts `max_backtracks + 1`). Runs thrown away as
    /// [`StuckAtOutcome::discarded`] do not count, so the sum is the same
    /// at every thread count.
    pub backtracks: usize,
    /// PODEM results computed ahead of the commit point for faults that an
    /// earlier cube then detected, and so thrown away: the cost of
    /// speculation. Always `0` at one thread. Like a wall-clock time, it
    /// depends on scheduling and lies outside the determinism contract.
    pub discarded: usize,
}

impl StuckAtOutcome {
    /// Fault coverage over testable faults, in `[0, 1]`.
    pub fn fault_coverage(&self) -> f64 {
        let testable = self.num_faults - self.untestable;
        if testable == 0 {
            return 1.0;
        }
        self.detected as f64 / testable as f64
    }
}

/// Generates an uncompacted stuck-at test set in the style of the paper's
/// reference \[30\]: one PODEM cube per undetected fault, don't-cares left
/// in place, **no compaction or reordering** (code-based compression must
/// preserve the set as-is, so we generate it as-is).
///
/// Fault dropping uses word-parallel fault simulation with zero-filled
/// don't-cares, so later faults that happen to be covered by earlier cubes
/// are skipped — this is what makes the sets "uncompacted but not absurdly
/// redundant", matching the sizes the paper reports.
///
/// Fault `i` is targeted iff no earlier cube detects it, and a PODEM run
/// depends only on the circuit, the fault and the budget. So the threads
/// run PODEM ahead on faults not yet dropped, and the calling thread
/// commits the results in fault order, throwing away any result whose
/// fault an earlier commit dropped. The test set and counts are the
/// sequential loop's at every thread count.
///
/// # Example
///
/// See the [crate-level documentation](crate).
pub fn generate_stuck_at_tests(netlist: &Netlist, config: &StuckAtConfig) -> StuckAtOutcome {
    let faults = collapse_faults(netlist);
    let num_faults = faults.len();
    // Written only by the committing thread, which so reads it exactly;
    // the others read it as a hint of what not to start, hence `Relaxed`.
    let dropped: Vec<AtomicBool> = (0..num_faults).map(|_| AtomicBool::new(false)).collect();
    let mut tests = TestSet::new(netlist.num_inputs());
    let mut detected = 0usize;
    let mut untestable = 0usize;
    let mut aborted = 0usize;
    let mut backtracks = 0usize;

    let podem = Podem::new(netlist, config.podem);
    let discarded = fan_out::ordered(
        resolve_threads(config.threads),
        num_faults,
        |i| dropped[i].load(Ordering::Relaxed),
        |i| podem.search(faults[i]),
        |i, (result, spent)| {
            backtracks += spent;
            match result {
                PodemResult::Test(cube) => {
                    let later = (&faults[i + 1..], &dropped[i + 1..]);
                    detected += 1 + drop_detected(netlist, &cube, later.0, later.1);
                    tests.push(cube).expect("cube width equals input count");
                }
                PodemResult::Untestable => untestable += 1,
                PodemResult::Aborted => aborted += 1,
            }
        },
    );

    StuckAtOutcome {
        tests,
        num_faults,
        detected,
        untestable,
        aborted,
        backtracks,
        discarded,
    }
}

/// Marks every fault of `faults` not yet dropped that `cube` (zero-filled)
/// detects as dropped, 64 faults per simulation sweep; returns how many.
fn drop_detected(
    netlist: &Netlist,
    cube: &TestPattern,
    faults: &[StuckAtFault],
    dropped: &[AtomicBool],
) -> usize {
    let pattern: Vec<bool> = cube.iter().map(|t| t == Trit::One).collect();
    let live: Vec<usize> = (0..faults.len())
        .filter(|&j| !dropped[j].load(Ordering::Relaxed))
        .collect();
    let targets: Vec<StuckAtFault> = live.iter().map(|&j| faults[j]).collect();
    let words = detected_faults(netlist, &pattern, &targets);
    let mut count = 0;
    for (k, &j) in live.iter().enumerate() {
        if (words[k / 64] >> (k % 64)) & 1 == 1 {
            dropped[j].store(true, Ordering::Relaxed);
            count += 1;
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use evotc_netlist::{generate, iscas, parse_bench, GeneratorConfig};

    #[test]
    fn c17_reaches_full_coverage() {
        let n = parse_bench(iscas::C17_BENCH).unwrap();
        let outcome = generate_stuck_at_tests(&n, &StuckAtConfig::default());
        assert_eq!(outcome.untestable, 0);
        assert_eq!(outcome.aborted, 0);
        assert!((outcome.fault_coverage() - 1.0).abs() < 1e-12);
        assert!(outcome.tests.num_patterns() >= 4);
        assert!(outcome.tests.num_patterns() <= outcome.num_faults);
    }

    #[test]
    fn s27_combinational_part_is_testable() {
        let n = parse_bench(iscas::S27_BENCH).unwrap();
        let outcome = generate_stuck_at_tests(&n, &StuckAtConfig::default());
        assert!(outcome.fault_coverage() > 0.99);
        assert_eq!(outcome.tests.width(), 7);
    }

    #[test]
    fn test_sets_carry_dont_cares() {
        let n = generate(&GeneratorConfig {
            inputs: 16,
            outputs: 8,
            gates: 120,
            seed: 5,
        });
        let outcome = generate_stuck_at_tests(&n, &StuckAtConfig::default());
        assert!(
            outcome.tests.x_density() > 0.1,
            "expected don't-cares, density {}",
            outcome.tests.x_density()
        );
    }

    #[test]
    fn fault_dropping_shrinks_pattern_count() {
        let n = parse_bench(iscas::C17_BENCH).unwrap();
        let outcome = generate_stuck_at_tests(&n, &StuckAtConfig::default());
        // Without dropping there would be one pattern per collapsed fault.
        assert!(outcome.tests.num_patterns() < outcome.num_faults);
    }
}
