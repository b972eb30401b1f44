//! Robust path-delay test generation.

use evotc_bits::{TestPattern, TestSet, Trit};
use evotc_netlist::{NetId, Netlist};
use evotc_sim::delay::{check_robust, enumerate_paths, Path};
use evotc_sim::simulate;

use crate::fan_out::{self, resolve_threads};
use crate::justify::justify;

/// Configuration for [`generate_path_delay_tests`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathDelayConfig {
    /// Upper bound on enumerated structural paths.
    pub max_paths: usize,
    /// Justification backtrack budget per vector.
    pub max_backtracks: usize,
    /// Threads that generate tests, the calling thread included (`0` =
    /// auto, resolved as for [`StuckAtConfig::threads`]). The outcome is
    /// byte-identical at every count.
    ///
    /// [`StuckAtConfig::threads`]: crate::StuckAtConfig::threads
    pub threads: usize,
}

impl Default for PathDelayConfig {
    fn default() -> Self {
        PathDelayConfig {
            max_paths: 256,
            max_backtracks: 20_000,
            threads: 0,
        }
    }
}

/// Outcome of path-delay test generation.
#[derive(Debug, Clone)]
pub struct PathDelayOutcome {
    /// The two-pattern tests, flattened: each row is `v₁ · v₂` (width `2n`),
    /// matching the shape of the paper's path-delay test sets (note the
    /// Table 2 sizes are roughly twice the circuit's stuck-at row length).
    pub tests: TestSet,
    /// Structural paths considered.
    pub paths_considered: usize,
    /// Path/transition targets robustly tested.
    pub robust_tests: usize,
    /// Targets for which no robust test was found.
    pub untestable_or_aborted: usize,
}

/// Generates robust two-pattern tests for up to `max_paths` structural
/// paths, both rising and falling launch transitions.
///
/// For each target the generator:
/// 1. justifies `v₂` (launch value at the path input, non-controlling side
///    inputs along the path);
/// 2. justifies `v₁` (initial value at the path input, *steady*
///    non-controlling side inputs where the on-path transition goes to the
///    controlling value, stable side inputs at XOR gates);
/// 3. verifies the pair with the independent robust checker from
///    `evotc-sim` and emits it only on success — the generator can be
///    incomplete, never unsound.
///
/// Targets are independent, so the threads work on them in any order and
/// the calling thread collects the pairs in target order: path by path,
/// rising launch before falling.
///
/// # Example
///
/// ```
/// use evotc_netlist::{iscas, parse_bench};
/// use evotc_atpg::generate_path_delay_tests;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let c17 = parse_bench(iscas::C17_BENCH)?;
/// let outcome = generate_path_delay_tests(&c17, &Default::default());
/// assert!(outcome.robust_tests > 0);
/// assert_eq!(outcome.tests.width(), 2 * c17.num_inputs());
/// # Ok(())
/// # }
/// ```
pub fn generate_path_delay_tests(netlist: &Netlist, config: &PathDelayConfig) -> PathDelayOutcome {
    let paths = enumerate_paths(netlist, config.max_paths);
    let mut tests = TestSet::new(2 * netlist.num_inputs());
    let mut robust = 0usize;
    let mut failed = 0usize;

    // Target `t` is path `t / 2` with a rising (even `t`) or falling launch.
    fan_out::ordered(
        resolve_threads(config.threads),
        2 * paths.len(),
        |_| false,
        |t| robust_pair(netlist, &paths[t / 2], t % 2 == 0, config.max_backtracks),
        |_, pair| match pair {
            Some((v1, v2)) => {
                robust += 1;
                let combined: Vec<Trit> = v1.iter().chain(v2.iter()).collect();
                tests
                    .push(TestPattern::from_trits(&combined))
                    .expect("combined width is 2n");
            }
            None => failed += 1,
        },
    );

    PathDelayOutcome {
        tests,
        paths_considered: paths.len(),
        robust_tests: robust,
        untestable_or_aborted: failed,
    }
}

/// Builds a robust `⟨v1, v2⟩` pair for `path` with the given launch-edge
/// final value, or `None` if justification fails.
fn robust_pair(
    netlist: &Netlist,
    path: &Path,
    final_value: bool,
    max_backtracks: usize,
) -> Option<(TestPattern, TestPattern)> {
    // --- v2: launch value + non-controlling side inputs along the path.
    let mut v2_req: Vec<(NetId, bool)> = vec![(path.nets()[0], final_value)];
    for w in path.nets().windows(2) {
        let (on_path, gate) = (w[0], w[1]);
        if let Some(c) = netlist.kind(gate).controlling_value() {
            for &side in netlist.fanins(gate) {
                if side != on_path {
                    v2_req.push((side, !c));
                }
            }
        }
    }
    let v2 = justify(netlist, &v2_req, max_backtracks)?;
    let val2 = simulate(netlist, &v2);

    // --- v1: initial launch value + per-gate stability constraints derived
    // from the (now known) v2 on-path values.
    let mut v1_req: Vec<(NetId, bool)> = vec![(path.nets()[0], !final_value)];
    for w in path.nets().windows(2) {
        let (on_path, gate) = (w[0], w[1]);
        let to_value = val2[on_path.index()].to_bool()?;
        match netlist.kind(gate).controlling_value() {
            Some(c) => {
                if to_value == c {
                    // transition to controlling: steady non-controlling sides
                    for &side in netlist.fanins(gate) {
                        if side != on_path {
                            v1_req.push((side, !c));
                        }
                    }
                }
            }
            None => {
                // XOR/XNOR: stable sides (pin v1 to the v2 value).
                for &side in netlist.fanins(gate) {
                    if side != on_path {
                        if let Some(v) = val2[side.index()].to_bool() {
                            v1_req.push((side, v));
                        }
                    }
                }
            }
        }
    }
    let v1 = justify(netlist, &v1_req, max_backtracks)?;

    // --- Independent verification; reject anything not provably robust.
    check_robust(netlist, path, &v1, &v2).ok()?;
    Some((v1, v2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use evotc_netlist::{generate, iscas, parse_bench, GeneratorConfig};

    #[test]
    fn c17_yields_robust_tests() {
        let n = parse_bench(iscas::C17_BENCH).unwrap();
        let outcome = generate_path_delay_tests(&n, &PathDelayConfig::default());
        assert_eq!(outcome.paths_considered, 11);
        // c17 is the classic robust-testability example: most targets work.
        assert!(outcome.robust_tests >= 11, "{}", outcome.robust_tests);
        assert_eq!(
            outcome.robust_tests + outcome.untestable_or_aborted,
            2 * outcome.paths_considered
        );
    }

    #[test]
    fn every_emitted_pair_is_verified_robust() {
        let n = parse_bench(iscas::S27_BENCH).unwrap();
        let outcome = generate_path_delay_tests(&n, &PathDelayConfig::default());
        // Re-split each row and re-verify against all enumerated paths: at
        // least one path must accept the pair (the generator's target).
        let paths = enumerate_paths(&n, 256);
        let width = n.num_inputs();
        for row in outcome.tests.iter() {
            let v1 = TestPattern::from_trits(&row.iter().take(width).collect::<Vec<_>>());
            let v2 = TestPattern::from_trits(&row.iter().skip(width).collect::<Vec<_>>());
            let ok = paths.iter().any(|p| check_robust(&n, p, &v1, &v2).is_ok());
            assert!(ok, "row is not robust for any path");
        }
    }

    #[test]
    fn pairs_contain_dont_cares() {
        let n = generate(&GeneratorConfig {
            inputs: 12,
            outputs: 6,
            gates: 60,
            seed: 8,
        });
        let outcome = generate_path_delay_tests(
            &n,
            &PathDelayConfig {
                max_paths: 64,
                ..Default::default()
            },
        );
        if !outcome.tests.is_empty() {
            assert!(outcome.tests.x_density() > 0.0);
        }
    }

    #[test]
    fn width_is_twice_the_inputs() {
        let n = parse_bench(iscas::C17_BENCH).unwrap();
        let outcome = generate_path_delay_tests(&n, &PathDelayConfig::default());
        assert_eq!(outcome.tests.width(), 10);
    }
}
