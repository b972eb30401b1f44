//! Multi-objective line justification.
//!
//! Path-delay test generation needs test cubes that set several internal
//! nets to required values simultaneously (the on-path and side-input
//! constraints). This module implements a PODEM-style branch-and-bound over
//! primary inputs for a conjunction of `(net, value)` objectives, after a
//! check that the objectives do not contradict each other.

use evotc_bits::{TestPattern, Trit};
use evotc_netlist::{GateKind, NetId, Netlist};
use evotc_sim::simulate;

use crate::necessary::imply;

/// Finds a test cube satisfying all `(net, value)` requirements, or `None`
/// if the search space is exhausted / the backtrack budget is spent.
///
/// Before it searches, it implies the requirements forward and backward
/// through the circuit to a fixpoint, and returns `None` at once if two
/// implied values contradict each other: then no input vector meets them
/// all, so the search could not succeed either. The search itself is
/// unchanged, so any cube it returns is the one it returned without the
/// check.
///
/// Returned cubes leave unassigned inputs at `X` (don't-cares).
///
/// # Panics
///
/// Panics if a required net id is out of range.
///
/// # Example
///
/// ```
/// use evotc_netlist::{iscas, parse_bench};
/// use evotc_atpg::justify;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let c17 = parse_bench(iscas::C17_BENCH)?;
/// let g22 = c17.find_net("22").unwrap();
/// let cube = justify(&c17, &[(g22, true)], 10_000).expect("justifiable");
/// let values = evotc_sim::simulate(&c17, &cube);
/// assert_eq!(values[g22.index()], evotc_bits::Trit::One);
/// # Ok(())
/// # }
/// ```
pub fn justify(
    netlist: &Netlist,
    required: &[(NetId, bool)],
    max_backtracks: usize,
) -> Option<TestPattern> {
    let mut implied = vec![0; netlist.num_nodes()];
    if !imply(
        netlist,
        &mut implied,
        &mut Vec::new(),
        required.iter().copied(),
    ) {
        return None;
    }
    let mut assignment = vec![Trit::X; netlist.num_inputs()];
    let mut stack: Vec<(usize, bool, bool)> = Vec::new(); // (input, value, flipped)
    let mut backtracks = 0usize;

    loop {
        let values = simulate(netlist, &TestPattern::from_trits(&assignment));
        // Check feasibility and find the first open objective.
        let mut open: Option<(NetId, bool)> = None;
        let mut conflict = false;
        for &(net, want) in required {
            match values[net.index()].to_bool() {
                Some(v) if v == want => {}
                Some(_) => {
                    conflict = true;
                    break;
                }
                None => {
                    if open.is_none() {
                        open = Some((net, want));
                    }
                }
            }
        }
        if !conflict {
            match open {
                None => return Some(TestPattern::from_trits(&assignment)),
                Some((net, want)) => {
                    if let Some((input, value)) = backtrace(netlist, &values, net, want) {
                        assignment[input] = Trit::from_bool(value);
                        stack.push((input, value, false));
                        continue;
                    }
                    // fall through to backtrack
                }
            }
        }
        backtracks += 1;
        if backtracks > max_backtracks {
            return None;
        }
        loop {
            match stack.pop() {
                Some((input, value, false)) => {
                    assignment[input] = Trit::from_bool(!value);
                    stack.push((input, !value, true));
                    break;
                }
                Some((input, _, true)) => {
                    assignment[input] = Trit::X;
                }
                None => return None,
            }
        }
    }
}

fn backtrace(
    netlist: &Netlist,
    values: &[Trit],
    mut net: NetId,
    mut value: bool,
) -> Option<(usize, bool)> {
    loop {
        if netlist.kind(net) == GateKind::Input {
            let pos = netlist.input_position(net).expect("registered input");
            return values[net.index()].is_x().then_some((pos, value));
        }
        if netlist.kind(net).is_inverting() {
            value = !value;
        }
        net = *netlist
            .fanins(net)
            .iter()
            .find(|f| values[f.index()].is_x())?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evotc_netlist::{iscas, parse_bench, NetlistBuilder};

    #[test]
    fn justifies_conjunction() {
        let n = parse_bench(iscas::C17_BENCH).unwrap();
        let g22 = n.find_net("22").unwrap();
        let g23 = n.find_net("23").unwrap();
        for (a, b) in [(true, true), (true, false), (false, true)] {
            let cube = justify(&n, &[(g22, a), (g23, b)], 10_000)
                .unwrap_or_else(|| panic!("({a},{b}) should be justifiable"));
            let values = simulate(&n, &cube);
            assert_eq!(values[g22.index()].to_bool(), Some(a));
            assert_eq!(values[g23.index()].to_bool(), Some(b));
        }
    }

    #[test]
    fn infeasible_conjunction_returns_none() {
        // y = NOT(x): require x=1 and y=1 simultaneously.
        let mut b = NetlistBuilder::new("inv");
        let x = b.input("x");
        let y = b.gate("y", GateKind::Not, vec![x]).unwrap();
        b.output(y);
        let n = b.finish().unwrap();
        assert!(justify(&n, &[(x, true), (y, true)], 1_000).is_none());
    }

    #[test]
    fn empty_requirements_need_no_assignments() {
        let n = parse_bench(iscas::C17_BENCH).unwrap();
        let cube = justify(&n, &[], 10).unwrap();
        assert_eq!(cube.num_x(), n.num_inputs());
    }

    #[test]
    fn leaves_unneeded_inputs_unassigned() {
        let n = parse_bench(iscas::C17_BENCH).unwrap();
        let g10 = n.find_net("10").unwrap(); // NAND(1, 3)
        let cube = justify(&n, &[(g10, false)], 10_000).unwrap();
        // Only inputs 1 and 3 are needed; at least 3 of 5 stay X.
        assert!(cube.num_x() >= 3, "{cube}");
    }
}
