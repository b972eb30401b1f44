//! PODEM test generation for single stuck-at faults.

use evotc_bits::{TestPattern, Trit};
use evotc_netlist::{GateKind, NetId, Netlist};
use evotc_sim::StuckAtFault;

use crate::implication::{Implication, Structure};

/// Configuration of the PODEM search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PodemConfig {
    /// Abort after this many backtracks (the fault is then reported
    /// [`PodemResult::Aborted`]).
    pub max_backtracks: usize,
}

impl Default for PodemConfig {
    fn default() -> Self {
        PodemConfig {
            max_backtracks: 10_000,
        }
    }
}

/// Outcome of a PODEM run for one fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PodemResult {
    /// A test cube: assigned inputs are specified, the rest stay `X` — the
    /// don't-cares later exploited by compression.
    Test(TestPattern),
    /// The fault is proven untestable (search space exhausted).
    Untestable,
    /// The backtrack limit was hit before a decision.
    ///
    /// Only backtracks the search actually makes count against the limit;
    /// a subtree the X-path or necessary-value check cuts off costs one,
    /// and a fault whose necessary values conflict costs none. A fault a
    /// search without those checks would abort may therefore resolve here,
    /// and it resolves to the cube (or the proof) that search would reach
    /// with an unlimited budget.
    Aborted,
}

/// The PODEM (Path-Oriented DEcision Making) algorithm: branch-and-bound
/// over primary-input assignments only, with five-valued implication.
///
/// Three checks cut off parts of the search that contain no test:
///
/// * a fault on a net with no structural path to an output is
///   [`PodemResult::Untestable`] without any search;
/// * after every implication the search backtracks unless a path of nets
///   that are `X` or carry the fault effect leads from the fault site to
///   an output. Implied values only refine as inputs are assigned, so
///   without such a path no extension of the current assignment detects
///   the fault;
/// * before the first decision, the search implies the good values every
///   test must give: the activation value, and the non-controlling value
///   on each side input of each post-dominator of the fault site (a net
///   on every path from the site to an output) that lies outside the
///   site's fanout cone. If they contradict each other, the fault is
///   `Untestable` without any search. Otherwise the search backtracks
///   while any net's good value contradicts one of them, since every
///   extension of that assignment keeps the contradiction.
///
/// No check changes the order in which the search visits assignments, so
/// every cube it returns is the first test in the same depth-first order
/// as without them, and only the backtrack count falls.
/// Implication is event-driven: a decision re-evaluates only the fanout
/// cone of the input it changed, and the D-frontier is kept up to date
/// along the way. Each net's good and faulty values share one byte, two
/// rails per plane, so a gate evaluates both planes in a few bitwise
/// operations.
///
/// # Example
///
/// ```
/// use evotc_netlist::{iscas, parse_bench};
/// use evotc_sim::StuckAtFault;
/// use evotc_atpg::{Podem, PodemResult};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let c17 = parse_bench(iscas::C17_BENCH)?;
/// let fault = StuckAtFault::sa0(c17.outputs()[0]);
/// let result = Podem::new(&c17, Default::default()).run(fault);
/// assert!(matches!(result, PodemResult::Test(_)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Podem<'a> {
    netlist: &'a Netlist,
    config: PodemConfig,
    structure: Structure,
}

struct Decision {
    input: usize,
    value: bool,
    flipped: bool,
}

impl<'a> Podem<'a> {
    /// Creates a PODEM engine for a circuit.
    pub fn new(netlist: &'a Netlist, config: PodemConfig) -> Self {
        Podem {
            netlist,
            config,
            structure: Structure::new(netlist),
        }
    }

    /// Generates a test cube for `fault`.
    pub fn run(&self, fault: StuckAtFault) -> PodemResult {
        self.search(fault).0
    }

    /// [`Podem::run`], with the number of backtracks it took.
    pub(crate) fn search(&self, fault: StuckAtFault) -> (PodemResult, usize) {
        if !self.structure.is_observable(fault.net) {
            return (PodemResult::Untestable, 0);
        }
        let mut state = Implication::new(self.netlist, &self.structure, fault);
        if !state.require_necessary() {
            return (PodemResult::Untestable, 0);
        }
        let mut assignment = vec![Trit::X; self.netlist.num_inputs()];
        let mut stack: Vec<Decision> = Vec::new();
        let mut backtracks = 0usize;

        loop {
            if state.error_at_output() {
                debug_assert_eq!(
                    state.violations(),
                    0,
                    "{fault}: a test contradicts a necessary value"
                );
                let cube = TestPattern::from_trits(&assignment);
                return (PodemResult::Test(cube), backtracks);
            }
            let next = if state.violations() == 0 && state.x_path() {
                self.objective(&state, fault)
                    .and_then(|(net, value)| self.backtrace(&state, net, value))
            } else {
                None
            };
            match next {
                Some((input, value)) => {
                    assignment[input] = Trit::from_bool(value);
                    state.assign(input, assignment[input]);
                    stack.push(Decision {
                        input,
                        value,
                        flipped: false,
                    });
                }
                None => {
                    // Dead end: flip the most recent unflipped decision.
                    backtracks += 1;
                    if backtracks > self.config.max_backtracks {
                        return (PodemResult::Aborted, backtracks);
                    }
                    loop {
                        match stack.pop() {
                            Some(d) if !d.flipped => {
                                assignment[d.input] = Trit::from_bool(!d.value);
                                state.assign(d.input, assignment[d.input]);
                                stack.push(Decision {
                                    input: d.input,
                                    value: !d.value,
                                    flipped: true,
                                });
                                break;
                            }
                            Some(d) => {
                                assignment[d.input] = Trit::X;
                                state.assign(d.input, Trit::X);
                            }
                            None => return (PodemResult::Untestable, backtracks),
                        }
                    }
                }
            }
            state.propagate();
        }
    }

    /// The next objective `(net, value)`:
    /// 1. activate the fault (good value opposite to the stuck value);
    /// 2. otherwise pick the first D-frontier gate, in [`NetId`] order,
    ///    with an unspecified side input and demand the non-controlling
    ///    value on the first such input.
    fn objective(&self, state: &Implication, fault: StuckAtFault) -> Option<(NetId, bool)> {
        if state.good_is_x(fault.net) {
            return Some((fault.net, !fault.stuck_at));
        }
        if !state.is_error(fault.net) {
            return None; // activation failed: good value equals stuck value
        }
        state.frontier().find_map(|id| {
            let want = match self.netlist.kind(id).controlling_value() {
                Some(c) => !c,
                None => true, // XOR-ish: any specified value propagates
            };
            self.netlist
                .fanins(id)
                .iter()
                .find(|&&f| state.good_is_x(f))
                .map(|&side| (side, want))
        })
    }

    /// Walks from an internal objective back to an unassigned primary input,
    /// complementing the target value through inverting gates.
    fn backtrace(
        &self,
        state: &Implication,
        mut net: NetId,
        mut value: bool,
    ) -> Option<(usize, bool)> {
        loop {
            let kind = self.netlist.kind(net);
            if kind == GateKind::Input {
                // `input_position` is an O(1) table lookup, so the
                // backtrace costs one walk from objective to input.
                let pos = self
                    .netlist
                    .input_position(net)
                    .expect("inputs are registered");
                return state.good_is_x(net).then_some((pos, value));
            }
            if kind.is_inverting() {
                value = !value;
            }
            // Follow an X-valued fanin (prefer the first — a simple,
            // deterministic heuristic).
            net = *self
                .netlist
                .fanins(net)
                .iter()
                .find(|&&f| state.good_is_x(f))?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evotc_netlist::{iscas, parse_bench, NetlistBuilder};
    use evotc_sim::{all_faults, simulate_with_forced};

    fn c17() -> Netlist {
        parse_bench(iscas::C17_BENCH).unwrap()
    }

    /// Independently verify a generated cube by three-valued simulation.
    fn verify_detects(netlist: &Netlist, fault: StuckAtFault, cube: &TestPattern) {
        let good = evotc_sim::simulate(netlist, cube);
        let bad = simulate_with_forced(
            netlist,
            cube,
            &[(fault.net, Trit::from_bool(fault.stuck_at))],
        );
        let detected = netlist.outputs().iter().any(|o| {
            let (g, b) = (good[o.index()], bad[o.index()]);
            g.is_specified() && b.is_specified() && g != b
        });
        assert!(detected, "{fault} not detected by {cube}");
    }

    #[test]
    fn detects_every_c17_fault() {
        let n = c17();
        for fault in all_faults(&n) {
            match Podem::new(&n, PodemConfig::default()).run(fault) {
                PodemResult::Test(cube) => verify_detects(&n, fault, &cube),
                other => panic!("{fault}: c17 is fully testable, got {other:?}"),
            }
        }
    }

    #[test]
    fn cubes_contain_dont_cares() {
        let n = c17();
        let g10 = n.find_net("10").unwrap();
        if let PodemResult::Test(cube) =
            Podem::new(&n, PodemConfig::default()).run(StuckAtFault::sa0(g10))
        {
            assert!(cube.num_x() > 0, "expected unassigned inputs in {cube}");
        } else {
            panic!("fault should be testable");
        }
    }

    #[test]
    fn untestable_fault_is_proven() {
        // y = OR(x, NOT(x)) is constant 1: y/sa1 is untestable.
        let mut b = NetlistBuilder::new("const1");
        let x = b.input("x");
        let nx = b.gate("nx", GateKind::Not, vec![x]).unwrap();
        let y = b.gate("y", GateKind::Or, vec![x, nx]).unwrap();
        b.output(y);
        let n = b.finish().unwrap();
        let y = n.find_net("y").unwrap();
        let r = Podem::new(&n, PodemConfig::default()).run(StuckAtFault::sa1(y));
        assert_eq!(r, PodemResult::Untestable);
        // …while y/sa0 is testable by any input.
        let r = Podem::new(&n, PodemConfig::default()).run(StuckAtFault::sa0(y));
        assert!(matches!(r, PodemResult::Test(_)));
    }

    #[test]
    fn works_on_generated_circuits() {
        let n = evotc_netlist::generate(&evotc_netlist::GeneratorConfig {
            inputs: 10,
            outputs: 5,
            gates: 80,
            seed: 11,
        });
        let mut tested = 0;
        for fault in all_faults(&n).into_iter().take(60) {
            if let PodemResult::Test(cube) = Podem::new(&n, PodemConfig::default()).run(fault) {
                verify_detects(&n, fault, &cube);
                tested += 1;
            }
        }
        assert!(tested > 20, "only {tested} faults testable");
    }

    /// `n1 = AND(a, b)`, `y = AND(n1, NOT(a))`: activating `n1/sa0` needs
    /// `a = b = 1`, which drives the side input `NOT(a)` of `y`, the only
    /// gate `n1` feeds, to its controlling 0.
    #[test]
    fn a_fault_blocked_at_its_dominator_is_untestable_without_search() {
        let mut b = NetlistBuilder::new("blocked");
        let a = b.input("a");
        let bb = b.input("b");
        let n1 = b.gate("n1", GateKind::And, vec![a, bb]).unwrap();
        let na = b.gate("na", GateKind::Not, vec![a]).unwrap();
        let y = b.gate("y", GateKind::And, vec![n1, na]).unwrap();
        b.output(y);
        let n = b.finish().unwrap();
        let n1 = n.find_net("n1").unwrap();
        let podem = Podem::new(&n, PodemConfig::default());
        assert_eq!(
            podem.search(StuckAtFault::sa0(n1)),
            (PodemResult::Untestable, 0)
        );
        // n1/sa1 needs n1 = 0 and NOT(a) = 1: a = 0 gives both.
        assert!(matches!(
            podem.run(StuckAtFault::sa1(n1)),
            PodemResult::Test(_)
        ));
    }
}
