//! Event-driven five-valued implication for the PODEM search.
//!
//! A PODEM step changes one primary input (a decision or a flip) or a few
//! (an unwind resets the flipped decisions above the one it flips).
//! Re-simulating the whole circuit after each step costs a full sweep; this
//! state instead re-evaluates only the fanout cone of the inputs that
//! changed, in level order, and stops wherever a gate's value does not
//! move. Next to the values it keeps the D-frontier as a bitset, which the
//! search asks for on every step.
//!
//! After every [`Implication::propagate`], [`Implication::values`] equals
//! [`simulate_dv`](crate::dcalc::simulate_dv) on the same assignment; the
//! unit tests below check that on random decide/flip/unwind sequences.

use evotc_bits::Trit;
use evotc_netlist::{GateKind, NetId, Netlist};
use evotc_sim::StuckAtFault;

use crate::dcalc::Dv;

/// Per-circuit tables the search shares across faults.
#[derive(Debug)]
pub(crate) struct Structure {
    /// `observable[n]`: some structural path leads from net `n` to an output.
    observable: Vec<bool>,
    /// The level queue's layout: gates of level `l` queue in
    /// `slots[level_start[l]..level_start[l + 1]]`.
    level_start: Vec<u32>,
}

impl Structure {
    /// Marks the observable nets in one reverse-topological sweep and lays
    /// out one queue bucket per logic level.
    pub(crate) fn new(netlist: &Netlist) -> Self {
        let n = netlist.num_nodes();
        let mut observable = vec![false; n];
        for i in (0..n).rev() {
            let id = NetId(i as u32);
            observable[i] =
                netlist.is_output(id) || netlist.fanouts(id).iter().any(|g| observable[g.index()]);
        }
        let mut level_start = vec![0u32; netlist.depth() as usize + 2];
        for &level in netlist.levels() {
            level_start[level as usize + 1] += 1;
        }
        for l in 1..level_start.len() {
            level_start[l] += level_start[l - 1];
        }
        Structure {
            observable,
            level_start,
        }
    }

    /// Whether a structural path leads from `net` to an output. A fault on
    /// a net without one can never be observed.
    pub(crate) fn is_observable(&self, net: NetId) -> bool {
        self.observable[net.index()]
    }
}

/// Gates waiting for re-evaluation, one bucket per logic level. A gate's
/// fanouts sit on strictly higher levels, so draining the buckets in level
/// order evaluates every gate after all of its changed fanins.
#[derive(Debug)]
struct LevelQueue<'a> {
    /// Bucket `l` is `slots[start[l]..start[l + 1]]`.
    start: &'a [u32],
    slots: Vec<NetId>,
    /// Queued gates per level.
    len: Vec<u32>,
    queued: Vec<bool>,
    /// Lowest and highest level holding a queued gate.
    lowest: usize,
    highest: usize,
}

impl<'a> LevelQueue<'a> {
    fn new(start: &'a [u32]) -> Self {
        let num_nodes = *start.last().expect("at least one level") as usize;
        LevelQueue {
            start,
            slots: vec![NetId(0); num_nodes],
            len: vec![0; start.len() - 1],
            queued: vec![false; num_nodes],
            lowest: usize::MAX,
            highest: 0,
        }
    }

    fn push(&mut self, gate: NetId, level: usize) {
        if std::mem::replace(&mut self.queued[gate.index()], true) {
            return;
        }
        self.slots[(self.start[level] + self.len[level]) as usize] = gate;
        self.len[level] += 1;
        self.lowest = self.lowest.min(level);
        self.highest = self.highest.max(level);
    }

    fn pop(&mut self, level: usize) -> Option<NetId> {
        let len = self.len[level].checked_sub(1)?;
        self.len[level] = len;
        let gate = self.slots[(self.start[level] + len) as usize];
        self.queued[gate.index()] = false;
        Some(gate)
    }
}

/// The search's view of the circuit under the current partial assignment.
#[derive(Debug)]
pub(crate) struct Implication<'a> {
    netlist: &'a Netlist,
    structure: &'a Structure,
    fault: StuckAtFault,
    /// Good and faulty plane of every net.
    values: Vec<Dv>,
    /// Per gate: fanins carrying a fault effect.
    error_fanins: Vec<u32>,
    /// D-frontier bitset: gates with an `X` output and an error fanin.
    frontier: Vec<u64>,
    queue: LevelQueue<'a>,
    /// X-path search scratch: visit stamps and the DFS stack.
    seen: Vec<u32>,
    stamp: u32,
    stack: Vec<NetId>,
}

impl<'a> Implication<'a> {
    /// The state for `fault` with every input `X`: only the fault site's
    /// faulty plane, and whatever it implies downstream, is specified.
    pub(crate) fn new(netlist: &'a Netlist, structure: &'a Structure, fault: StuckAtFault) -> Self {
        let n = netlist.num_nodes();
        let mut state = Implication {
            netlist,
            structure,
            fault,
            values: vec![Dv::X; n],
            error_fanins: vec![0; n],
            frontier: vec![0; n.div_ceil(64)],
            queue: LevelQueue::new(&structure.level_start),
            seen: vec![0; n],
            stamp: 0,
            stack: Vec::new(),
        };
        let site = Dv {
            good: Trit::X,
            faulty: Trit::from_bool(fault.stuck_at),
        };
        state.set(fault.net, site);
        state.propagate();
        state
    }

    /// Every net's five-valued value, indexed by [`NetId::index`].
    pub(crate) fn values(&self) -> &[Dv] {
        &self.values
    }

    /// Whether some output carries a fault effect.
    pub(crate) fn error_at_output(&self) -> bool {
        self.netlist
            .outputs()
            .iter()
            .any(|o| self.values[o.index()].is_error())
    }

    /// The D-frontier in ascending [`NetId`] order.
    pub(crate) fn frontier(&self) -> impl Iterator<Item = NetId> + '_ {
        self.frontier.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let bit = bits.trailing_zeros();
                    bits &= bits - 1;
                    NetId(w as u32 * 64 + bit)
                })
            })
        })
    }

    /// Drives input `position` to `value` on both planes (the faulty plane
    /// of an input fault site stays stuck). Takes effect downstream at the
    /// next [`Implication::propagate`].
    pub(crate) fn assign(&mut self, position: usize, value: Trit) {
        let net = self.netlist.inputs()[position];
        let faulty = if net == self.fault.net {
            Trit::from_bool(self.fault.stuck_at)
        } else {
            value
        };
        self.set(
            net,
            Dv {
                good: value,
                faulty,
            },
        );
    }

    /// Re-evaluates the fanout cones of every net changed since the last
    /// call, level by level.
    pub(crate) fn propagate(&mut self) {
        let mut level = self.queue.lowest;
        while level <= self.queue.highest {
            while let Some(gate) = self.queue.pop(level) {
                let value = self.evaluate(gate);
                self.set(gate, value);
                self.refresh_frontier(gate);
            }
            level += 1;
        }
        self.queue.lowest = usize::MAX;
        self.queue.highest = 0;
    }

    /// Whether a path of nets that are `X` or carry a fault effect leads
    /// from the fault site to an output. Values only ever refine as inputs
    /// are assigned, so without such a path no extension of the current
    /// assignment detects the fault.
    pub(crate) fn x_path(&mut self) -> bool {
        let open = |v: Dv| v.has_x() || v.is_error();
        let site = self.fault.net;
        if !open(self.values[site.index()]) {
            return false;
        }
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.seen.fill(0);
            self.stamp = 1;
        }
        self.seen[site.index()] = self.stamp;
        self.stack.clear();
        self.stack.push(site);
        while let Some(net) = self.stack.pop() {
            if self.netlist.is_output(net) {
                return true;
            }
            for &g in self.netlist.fanouts(net) {
                let i = g.index();
                if self.seen[i] != self.stamp
                    && self.structure.observable[i]
                    && open(self.values[i])
                {
                    self.seen[i] = self.stamp;
                    self.stack.push(g);
                }
            }
        }
        false
    }

    /// Writes `value` to `net`; if it changed, updates the fanouts'
    /// error-fanin counts and queues them.
    fn set(&mut self, net: NetId, value: Dv) {
        let i = net.index();
        let old = std::mem::replace(&mut self.values[i], value);
        if old == value {
            return;
        }
        let (was, is) = (old.is_error(), value.is_error());
        let levels = self.netlist.levels();
        for &g in self.netlist.fanouts(net) {
            if was != is {
                if is {
                    self.error_fanins[g.index()] += 1;
                } else {
                    self.error_fanins[g.index()] -= 1;
                }
            }
            self.queue.push(g, levels[g.index()] as usize);
        }
    }

    fn refresh_frontier(&mut self, gate: NetId) {
        let i = gate.index();
        let member = self.values[i].has_x() && self.error_fanins[i] > 0;
        let (word, bit) = (i / 64, 1u64 << (i % 64));
        if member {
            self.frontier[word] |= bit;
        } else {
            self.frontier[word] &= !bit;
        }
    }

    /// Both planes of `gate` from its fanins' current values, with the
    /// fault site's faulty plane forced to the stuck value.
    ///
    /// Folds both planes in one pass over the fanins instead of copying
    /// each plane into a buffer for `evotc_sim::eval_gate`, which made the
    /// whole search about a third slower on s953. The unit tests pin the
    /// two to each other through `simulate_dv`, which uses `eval_gate`.
    fn evaluate(&self, gate: NetId) -> Dv {
        let kind = self.netlist.kind(gate);
        let fanins = self.netlist.fanins(gate);
        let v = |f: &NetId| self.values[f.index()];
        let mut out = match kind {
            GateKind::Input => unreachable!("inputs are assigned, never evaluated"),
            GateKind::Buf => v(&fanins[0]),
            GateKind::Not => invert(v(&fanins[0])),
            GateKind::And | GateKind::Nand => fold(fanins.iter().map(v), and),
            GateKind::Or | GateKind::Nor => fold(fanins.iter().map(v), or),
            GateKind::Xor | GateKind::Xnor => fold(fanins.iter().map(v), xor),
        };
        if matches!(kind, GateKind::Nand | GateKind::Nor | GateKind::Xnor) {
            out = invert(out);
        }
        if gate == self.fault.net {
            out.faulty = Trit::from_bool(self.fault.stuck_at);
        }
        out
    }
}

fn fold(mut values: impl Iterator<Item = Dv>, op: fn(Trit, Trit) -> Trit) -> Dv {
    let first = values.next().expect("gates have at least one fanin");
    values.fold(first, |acc, v| Dv {
        good: op(acc.good, v.good),
        faulty: op(acc.faulty, v.faulty),
    })
}

fn invert(v: Dv) -> Dv {
    let not = |t: Trit| t.to_bool().map_or(Trit::X, |b| Trit::from_bool(!b));
    Dv {
        good: not(v.good),
        faulty: not(v.faulty),
    }
}

fn and(a: Trit, b: Trit) -> Trit {
    match (a, b) {
        (Trit::Zero, _) | (_, Trit::Zero) => Trit::Zero,
        (Trit::One, Trit::One) => Trit::One,
        _ => Trit::X,
    }
}

fn or(a: Trit, b: Trit) -> Trit {
    match (a, b) {
        (Trit::One, _) | (_, Trit::One) => Trit::One,
        (Trit::Zero, Trit::Zero) => Trit::Zero,
        _ => Trit::X,
    }
}

fn xor(a: Trit, b: Trit) -> Trit {
    match (a.to_bool(), b.to_bool()) {
        (Some(a), Some(b)) => Trit::from_bool(a != b),
        _ => Trit::X,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dcalc::simulate_dv;
    use evotc_netlist::{generate, iscas, parse_bench, GeneratorConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The D-frontier by full scan, as the search defined it before the
    /// bitset: gates with an `X` output and an error fanin.
    fn scanned_frontier(netlist: &Netlist, values: &[Dv]) -> Vec<NetId> {
        netlist
            .node_ids()
            .filter(|&id| {
                netlist.kind(id) != GateKind::Input
                    && values[id.index()].has_x()
                    && netlist
                        .fanins(id)
                        .iter()
                        .any(|f| values[f.index()].is_error())
            })
            .collect()
    }

    /// Whether an X-path exists, by a forward sweep in topological order:
    /// a net is reached if it is `X` or an error and is the fault site or
    /// has a reached fanin.
    fn swept_x_path(netlist: &Netlist, values: &[Dv], site: NetId) -> bool {
        let mut reached = vec![false; netlist.num_nodes()];
        for id in netlist.node_ids() {
            let v = values[id.index()];
            reached[id.index()] = (v.has_x() || v.is_error())
                && (id == site || netlist.fanins(id).iter().any(|f| reached[f.index()]));
        }
        netlist.outputs().iter().any(|o| reached[o.index()])
    }

    fn check(netlist: &Netlist, state: &mut Implication, assignment: &[Trit], fault: StuckAtFault) {
        let expected = simulate_dv(netlist, assignment, fault.net, fault.stuck_at);
        assert_eq!(state.values(), &expected[..], "{fault} at {assignment:?}");
        assert_eq!(
            state.frontier().collect::<Vec<_>>(),
            scanned_frontier(netlist, &expected),
            "{fault} at {assignment:?}"
        );
        let at_output = netlist
            .outputs()
            .iter()
            .any(|o| expected[o.index()].is_error());
        assert_eq!(state.error_at_output(), at_output);
        assert_eq!(
            state.x_path(),
            swept_x_path(netlist, &expected, fault.net),
            "{fault} at {assignment:?}"
        );
    }

    /// Random decide/flip/unwind walks, checked against a full simulation
    /// and a full X-path sweep after every step.
    fn walk(netlist: &Netlist, fault: StuckAtFault, seed: u64) {
        let structure = Structure::new(netlist);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut state = Implication::new(netlist, &structure, fault);
        let mut assignment = vec![Trit::X; netlist.num_inputs()];
        let mut stack: Vec<(usize, bool)> = Vec::new(); // (input, flipped)
        check(netlist, &mut state, &assignment, fault);
        for _ in 0..200 {
            let open: Vec<usize> = (0..assignment.len())
                .filter(|&j| assignment[j].is_x())
                .collect();
            match rng.gen_range(0..3) {
                // Decide an unassigned input.
                0 if !open.is_empty() => {
                    let input = open[rng.gen_range(0..open.len())];
                    assignment[input] = Trit::from_bool(rng.gen());
                    state.assign(input, assignment[input]);
                    stack.push((input, false));
                }
                // Flip the latest decision, if it has not been flipped.
                1 if stack.last().is_some_and(|&(_, flipped)| !flipped) => {
                    let (input, flipped) = stack.last_mut().unwrap();
                    *flipped = true;
                    let value = !assignment[*input].to_bool().unwrap();
                    assignment[*input] = Trit::from_bool(value);
                    state.assign(*input, assignment[*input]);
                }
                // Unwind: reset flipped decisions, then flip the next one,
                // as a PODEM backtrack does.
                _ => {
                    while let Some((input, flipped)) = stack.pop() {
                        if !flipped {
                            let value = !assignment[input].to_bool().unwrap();
                            assignment[input] = Trit::from_bool(value);
                            state.assign(input, assignment[input]);
                            stack.push((input, true));
                            break;
                        }
                        assignment[input] = Trit::X;
                        state.assign(input, Trit::X);
                    }
                }
            }
            state.propagate();
            check(netlist, &mut state, &assignment, fault);
        }
    }

    /// Fault sites on a primary input, an internal net and an output.
    fn sites(netlist: &Netlist) -> [NetId; 3] {
        let internal = netlist
            .node_ids()
            .find(|&id| netlist.kind(id) != GateKind::Input && !netlist.is_output(id))
            .expect("an internal net");
        [netlist.inputs()[0], internal, netlist.outputs()[0]]
    }

    fn walks(netlist: &Netlist) {
        for (k, net) in sites(netlist).into_iter().enumerate() {
            for stuck_at in [false, true] {
                for seed in 0..4 {
                    walk(
                        netlist,
                        StuckAtFault { net, stuck_at },
                        seed * 6 + 2 * k as u64 + u64::from(stuck_at),
                    );
                }
            }
        }
    }

    #[test]
    fn incremental_values_match_full_simulation_on_c17() {
        walks(&parse_bench(iscas::C17_BENCH).unwrap());
    }

    #[test]
    fn incremental_values_match_full_simulation_on_s27() {
        walks(&parse_bench(iscas::S27_BENCH).unwrap());
    }

    #[test]
    fn incremental_values_match_full_simulation_on_generated_circuits() {
        for seed in [3, 17] {
            walks(&generate(&GeneratorConfig {
                inputs: 24,
                outputs: 10,
                gates: 200,
                seed,
            }));
        }
    }

    #[test]
    fn unobservable_nets_are_found_in_one_sweep() {
        // `dead` feeds nothing, so it has no path to the output.
        let mut b = evotc_netlist::NetlistBuilder::new("dead-end");
        let x = b.input("x");
        let y = b.input("y");
        let dead = b.gate("dead", GateKind::And, vec![x, y]).unwrap();
        let out = b.gate("out", GateKind::Or, vec![x, y]).unwrap();
        b.output(out);
        let n = b.finish().unwrap();
        let s = Structure::new(&n);
        assert!(s.is_observable(x) && s.is_observable(y) && s.is_observable(out));
        assert!(!s.is_observable(dead));
    }
}
