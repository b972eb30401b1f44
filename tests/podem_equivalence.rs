//! Equivalence suite: pins the pruned, event-driven PODEM search against
//! the plain search it replaced.
//!
//! The reference embedded here is that search as it was: after every
//! decision it re-simulates the whole circuit with the public
//! `simulate_dv`, rescans the netlist for the D-frontier, and never asks
//! whether the fault effect can still reach an output. Both searches make
//! the same decisions in the same depth-first order; the shipped one only
//! skips subtrees that contain no test. So, per fault:
//!
//! * a fault the reference solves gets the byte-identical cube;
//! * a fault the reference proves untestable stays untestable;
//! * only a fault the reference aborts may change, and a new cube for it
//!   must detect the fault under three-valued simulation.
//!
//! That runs on every collapsed fault of c17, s27 and the s208 … s953
//! stand-ins at the default budget, and on every fault of small generated
//! circuits at a budget low enough that the reference aborts often. On c17
//! through s386 and on s510 the stuck-at flow (dropping included) must also
//! emit the same `TestSet` as a reference flow built from the same loop.
//!
//! s420, s510 and s953 run in release builds only: their reference
//! searches take seconds even there.

use evotc::atpg::dcalc::{simulate_dv, Dv};
use evotc::atpg::{generate_stuck_at_tests, Podem, PodemConfig, PodemResult, StuckAtConfig};
use evotc::bits::{TestPattern, TestSet, Trit};
use evotc::netlist::{generate, iscas, parse_bench, GateKind, GeneratorConfig, NetId, Netlist};
use evotc::sim::{
    all_faults, collapse_faults, detected_mask, simulate, simulate_with_forced, StuckAtFault,
};

// ---------------------------------------------------------------------------
// Reference: the search before X-path pruning and event-driven implication
// ---------------------------------------------------------------------------

fn reference_run(netlist: &Netlist, config: PodemConfig, fault: StuckAtFault) -> PodemResult {
    let mut assignment = vec![Trit::X; netlist.num_inputs()];
    let mut stack: Vec<(usize, bool, bool)> = Vec::new(); // (input, value, flipped)
    let mut backtracks = 0usize;
    loop {
        let values = simulate_dv(netlist, &assignment, fault.net, fault.stuck_at);
        if netlist
            .outputs()
            .iter()
            .any(|o| values[o.index()].is_error())
        {
            return PodemResult::Test(TestPattern::from_trits(&assignment));
        }
        let next = objective(netlist, &values, fault)
            .and_then(|(net, value)| backtrace(netlist, &values, net, value));
        match next {
            Some((input, value)) => {
                assignment[input] = Trit::from_bool(value);
                stack.push((input, value, false));
            }
            None => {
                backtracks += 1;
                if backtracks > config.max_backtracks {
                    return PodemResult::Aborted;
                }
                loop {
                    match stack.pop() {
                        Some((input, value, false)) => {
                            assignment[input] = Trit::from_bool(!value);
                            stack.push((input, !value, true));
                            break;
                        }
                        Some((input, _, true)) => assignment[input] = Trit::X,
                        None => return PodemResult::Untestable,
                    }
                }
            }
        }
    }
}

fn objective(netlist: &Netlist, values: &[Dv], fault: StuckAtFault) -> Option<(NetId, bool)> {
    let at_site = values[fault.net.index()];
    if at_site.good.is_x() {
        return Some((fault.net, !fault.stuck_at));
    }
    if !at_site.is_error() {
        return None;
    }
    for id in netlist.node_ids() {
        let kind = netlist.kind(id);
        if kind == GateKind::Input || !values[id.index()].has_x() {
            continue;
        }
        if !netlist
            .fanins(id)
            .iter()
            .any(|f| values[f.index()].is_error())
        {
            continue;
        }
        let want = kind.controlling_value().map_or(true, |c| !c);
        if let Some(&side) = netlist
            .fanins(id)
            .iter()
            .find(|f| values[f.index()].good.is_x())
        {
            return Some((side, want));
        }
    }
    None
}

fn backtrace(
    netlist: &Netlist,
    values: &[Dv],
    mut net: NetId,
    mut value: bool,
) -> Option<(usize, bool)> {
    loop {
        let kind = netlist.kind(net);
        if kind == GateKind::Input {
            let pos = netlist.input_position(net).expect("registered input");
            return values[net.index()].good.is_x().then_some((pos, value));
        }
        if kind.is_inverting() {
            value = !value;
        }
        net = *netlist
            .fanins(net)
            .iter()
            .find(|f| values[f.index()].good.is_x())?;
    }
}

/// `generate_stuck_at_tests`'s loop over `reference_run`: one cube per
/// fault no earlier cube detects (zero-filled), in collapsed-fault order.
fn reference_flow(netlist: &Netlist) -> TestSet {
    let faults = collapse_faults(netlist);
    let mut dropped = vec![false; faults.len()];
    let mut tests = TestSet::new(netlist.num_inputs());
    for i in 0..faults.len() {
        if dropped[i] {
            continue;
        }
        dropped[i] = true;
        if let PodemResult::Test(cube) = reference_run(netlist, PodemConfig::default(), faults[i]) {
            let filled = cube.fill_x(false);
            let inputs: Vec<u64> = (0..netlist.num_inputs())
                .map(|j| u64::from(filled.try_trit(j).unwrap() == Trit::One))
                .collect();
            for (k, &fault) in faults.iter().enumerate() {
                if !dropped[k] && detected_mask(netlist, fault, &inputs) & 1 == 1 {
                    dropped[k] = true;
                }
            }
            tests.push(cube).unwrap();
        }
    }
    tests
}

// ---------------------------------------------------------------------------
// Checks
// ---------------------------------------------------------------------------

fn circuit(name: &str) -> Netlist {
    match name {
        "c17" => parse_bench(iscas::C17_BENCH).unwrap(),
        "s27" => parse_bench(iscas::S27_BENCH).unwrap(),
        other => generate(&GeneratorConfig::from_profile(
            iscas::profile(other).expect("a stand-in profile"),
        )),
    }
}

fn detects(netlist: &Netlist, fault: StuckAtFault, cube: &TestPattern) -> bool {
    let good = simulate(netlist, cube);
    let bad = simulate_with_forced(
        netlist,
        cube,
        &[(fault.net, Trit::from_bool(fault.stuck_at))],
    );
    netlist.outputs().iter().any(|o| {
        let (g, b) = (good[o.index()], bad[o.index()]);
        g.is_specified() && b.is_specified() && g != b
    })
}

/// Runs both searches on `faults`; returns how many faults the reference
/// aborted that the shipped search resolved.
fn compare(label: &str, netlist: &Netlist, config: PodemConfig, faults: &[StuckAtFault]) -> usize {
    let podem = Podem::new(netlist, config);
    let mut resolved = 0;
    for &fault in faults {
        let got = podem.run(fault);
        match reference_run(netlist, config, fault) {
            PodemResult::Aborted => match got {
                PodemResult::Aborted => {}
                PodemResult::Untestable => resolved += 1,
                PodemResult::Test(cube) => {
                    assert!(
                        detects(netlist, fault, &cube),
                        "{label} {fault}: {cube} does not detect it"
                    );
                    resolved += 1;
                }
            },
            expected => assert_eq!(got, expected, "{label} {fault}"),
        }
    }
    resolved
}

/// [`compare`] on every collapsed fault of a named circuit at the default
/// budget.
fn per_fault(name: &str) -> usize {
    let netlist = circuit(name);
    let faults = collapse_faults(&netlist);
    let resolved = compare(name, &netlist, PodemConfig::default(), &faults);
    println!(
        "{name}: {} faults, {resolved} reference aborts resolved",
        faults.len()
    );
    resolved
}

/// The per-fault check on a circuit where the reference aborts nothing,
/// plus the whole flow against the reference flow.
fn identical(name: &str) {
    assert_eq!(per_fault(name), 0, "{name}: the reference aborted a fault");
    let netlist = circuit(name);
    let outcome = generate_stuck_at_tests(&netlist, &StuckAtConfig::default());
    assert_eq!(outcome.tests, reference_flow(&netlist), "{name}: TestSet");
}

#[test]
fn c17_matches_reference() {
    identical("c17");
}

#[test]
fn s27_matches_reference() {
    identical("s27");
}

#[test]
fn s208_matches_reference() {
    identical("s208");
}

#[test]
fn s298_matches_reference() {
    identical("s298");
}

#[test]
fn s344_matches_reference() {
    identical("s344");
}

#[test]
fn s386_matches_reference() {
    identical("s386");
}

/// Every fault of small generated circuits at a 200-backtrack budget,
/// where the reference aborts often: a fault it solves or proves
/// untestable within the budget must come out the same, which shows the
/// pruned search never needs more backtracks than the reference.
#[test]
fn generated_circuits_match_reference_at_a_small_budget() {
    let config = PodemConfig {
        max_backtracks: 200,
    };
    let mut resolved = 0;
    for seed in 0..24 {
        let netlist = generate(&GeneratorConfig {
            inputs: 6 + seed % 10,
            outputs: 2 + seed % 5,
            gates: 20 + (seed * 7) % 120,
            seed: seed as u64,
        });
        resolved += compare(
            &format!("generated seed {seed}"),
            &netlist,
            config,
            &all_faults(&netlist),
        );
    }
    assert!(
        resolved > 0,
        "the budget no longer makes the reference abort"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: reference takes seconds")]
fn s420_matches_reference_where_it_decides() {
    per_fault("s420");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: reference takes seconds")]
fn s510_matches_reference() {
    // Every s510 fault the reference aborts is untestable, so the flow
    // emits no extra cube and its TestSet is pinned too.
    per_fault("s510");
    let netlist = circuit("s510");
    let outcome = generate_stuck_at_tests(&netlist, &StuckAtConfig::default());
    assert_eq!(outcome.tests, reference_flow(&netlist), "s510: TestSet");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: reference takes seconds")]
fn s953_matches_reference_where_it_decides() {
    per_fault("s953");
}
