//! Event-driven five-valued implication for the PODEM search.
//!
//! A PODEM step changes one primary input (a decision or a flip) or a few
//! (an unwind resets the flipped decisions above the one it flips).
//! Re-simulating the whole circuit after each step costs a full sweep; this
//! state instead re-evaluates only the fanout cone of the inputs that
//! changed, and stops wherever a gate's value does not move. Next to the
//! values it keeps the D-frontier as a bitset, which the search asks for on
//! every step.
//!
//! Each net's value is one byte with two rails per plane: bit 0 is good = 1,
//! bit 1 good = 0, bit 2 faulty = 1 and bit 3 faulty = 0; a plane is `X`
//! when both of its rails are clear. A gate is then a few bitwise
//! operations over its fanins, on both planes at once. Gates waiting for
//! re-evaluation sit in a bitset in [`NetId`] order: netlists store nodes
//! in topological order, so draining it from the lowest set bit evaluates
//! each queued gate once, after all of its fanins.
//!
//! Next to the values it counts the nets whose good value contradicts a
//! necessary value of the fault ([`Implication::require_necessary`]): a
//! value every test of the fault gives. While that count is nonzero, no
//! extension of the assignment is a test.
//!
//! After every [`Implication::propagate`], the values equal
//! [`simulate_dv`](crate::dcalc::simulate_dv) on the same assignment; the
//! unit tests below check that on random decide/flip/unwind sequences, and
//! the gate evaluation against `evotc_sim::eval_gate` on every combination
//! of fanin values.

use evotc_bits::Trit;
use evotc_netlist::{GateKind, NetId, Netlist};
use evotc_sim::StuckAtFault;

use crate::necessary::imply;

/// The one-rails of both planes; as a value, `1` on both.
const ONE: u8 = 0b0101;
/// The zero-rails of both planes; as a value, `0` on both.
const ZERO: u8 = 0b1010;
/// Both rails of the good plane.
pub(crate) const GOOD: u8 = 0b0011;
/// `D`: good 1, faulty 0.
const D: u8 = 0b1001;
/// `D̄`: good 0, faulty 1.
const DBAR: u8 = 0b0110;

/// The packed value with `good` on the good plane and `faulty` on the
/// faulty one.
fn pack(good: Trit, faulty: Trit) -> u8 {
    let rails = |t: Trit| match t {
        Trit::One => 0b01,
        Trit::Zero => 0b10,
        Trit::X => 0,
    };
    rails(good) | rails(faulty) << 2
}

fn is_error(v: u8) -> bool {
    v == D || v == DBAR
}

fn has_x(v: u8) -> bool {
    v & GOOD == 0 || v & !GOOD == 0
}

/// Both planes of a `kind` gate over its fanins' values. AND takes the AND
/// of the one-rails and the OR of the zero-rails, OR the mirror image, XOR
/// the parity of the one-rails on the planes every fanin specifies, and an
/// inverting gate swaps the rails of the result.
pub(crate) fn gate_value(kind: GateKind, mut fanins: impl Iterator<Item = u8>) -> u8 {
    let out = match kind {
        GateKind::Input => unreachable!("inputs are assigned, never evaluated"),
        GateKind::Buf | GateKind::Not => fanins.next().expect("one fanin"),
        GateKind::And | GateKind::Nand => {
            let (all, any) = fanins.fold((!0, 0), |(all, any), v| (all & v, any | v));
            all & ONE | any & ZERO
        }
        GateKind::Or | GateKind::Nor => {
            let (all, any) = fanins.fold((!0, 0), |(all, any), v| (all & v, any | v));
            any & ONE | all & ZERO
        }
        GateKind::Xor | GateKind::Xnor => {
            let (odd, specified) = fanins.fold((0, ONE), |(odd, specified), v| {
                (odd ^ v, specified & (v | v >> 1))
            });
            let odd = odd & ONE;
            (odd | (odd ^ ONE) << 1) & (specified | specified << 1)
        }
    };
    if kind.is_inverting() {
        (out & ONE) << 1 | (out & ZERO) >> 1
    } else {
        out
    }
}

/// `post_dominator` of a net whose nearest post-dominator is the virtual
/// sink behind the outputs, or that has no path to an output.
const SINK: u32 = u32::MAX;

/// Per-circuit tables the search shares across faults.
#[derive(Debug)]
pub(crate) struct Structure {
    /// `observable[n]`: some structural path leads from net `n` to an output.
    observable: Vec<bool>,
    /// `post_dominator[n]`: the immediate post-dominator of observable net
    /// `n` toward a virtual sink fed by every output, that is, the nearest
    /// net other than `n` on every path from `n` to an output; [`SINK`]
    /// when there is none. It always comes later in topological order.
    post_dominator: Vec<u32>,
}

impl Structure {
    /// Marks the observable nets and builds the post-dominator tree in one
    /// reverse-topological sweep: a net's immediate post-dominator is the
    /// nearest common ancestor, in the tree built so far, of its
    /// observable fanouts (and of the sink, for an output).
    pub(crate) fn new(netlist: &Netlist) -> Self {
        let n = netlist.num_nodes();
        let mut observable = vec![false; n];
        let mut post_dominator = vec![SINK; n];
        // Ancestors have larger indices, so the lower of two walks up.
        let meet = |tree: &[u32], mut a: u32, mut b: u32| {
            while a != b {
                if a < b {
                    a = tree[a as usize];
                } else {
                    b = tree[b as usize];
                }
            }
            a
        };
        for i in (0..n).rev() {
            let id = NetId(i as u32);
            let mut dominator = netlist.is_output(id).then_some(SINK);
            for g in netlist.fanouts(id).iter().filter(|g| observable[g.index()]) {
                dominator = Some(dominator.map_or(g.0, |d| meet(&post_dominator, d, g.0)));
            }
            observable[i] = dominator.is_some();
            post_dominator[i] = dominator.unwrap_or(SINK);
        }
        Structure {
            observable,
            post_dominator,
        }
    }

    /// Whether a structural path leads from `net` to an output. A fault on
    /// a net without one can never be observed.
    pub(crate) fn is_observable(&self, net: NetId) -> bool {
        self.observable[net.index()]
    }

    /// The nets every path from `net` to an output passes through, nearest
    /// first, `net` itself excluded.
    pub(crate) fn post_dominators(&self, net: NetId) -> impl Iterator<Item = NetId> + '_ {
        let up = |d: u32| (d != SINK).then_some(d);
        std::iter::successors(up(self.post_dominator[net.index()]), move |&d| {
            up(self.post_dominator[d as usize])
        })
        .map(NetId)
    }
}

/// The search's view of the circuit under the current partial assignment.
#[derive(Debug)]
pub(crate) struct Implication<'a> {
    netlist: &'a Netlist,
    structure: &'a Structure,
    fault: StuckAtFault,
    /// The fault site's faulty plane: its stuck value's rail.
    stuck: u8,
    /// Every net's packed value, indexed by [`NetId::index`].
    values: Vec<u8>,
    /// Per gate: fanins carrying a fault effect.
    error_fanins: Vec<u32>,
    /// D-frontier bitset: gates with an `X` output and an error fanin.
    frontier: Vec<u64>,
    /// Bitset of the gates waiting for re-evaluation.
    pending: Vec<u64>,
    /// The lowest and highest word of `pending` that may hold a set bit.
    first: usize,
    last: usize,
    /// Per net: the good-plane rail of the value every test of the fault
    /// gives it, or `0` (see [`Implication::require_necessary`]).
    required: Vec<u8>,
    /// Nets whose good value contradicts `required`.
    violations: usize,
    /// Working space of the X-path and fanout-cone walks: visit stamps and
    /// the DFS stack, which [`imply`] also takes as its queue.
    seen: Vec<u32>,
    stamp: u32,
    stack: Vec<NetId>,
}

impl<'a> Implication<'a> {
    /// The state for `fault` with every input `X`: only the fault site's
    /// faulty plane, and whatever it implies downstream, is specified.
    pub(crate) fn new(netlist: &'a Netlist, structure: &'a Structure, fault: StuckAtFault) -> Self {
        let n = netlist.num_nodes();
        let stuck = pack(Trit::X, Trit::from_bool(fault.stuck_at));
        let mut state = Implication {
            netlist,
            structure,
            fault,
            stuck,
            values: vec![0; n],
            error_fanins: vec![0; n],
            frontier: vec![0; n.div_ceil(64)],
            pending: vec![0; n.div_ceil(64)],
            first: usize::MAX,
            last: 0,
            required: vec![0; n],
            violations: 0,
            seen: vec![0; n],
            stamp: 0,
            stack: Vec::new(),
        };
        state.set(fault.net, stuck);
        state.propagate();
        state
    }

    /// Implies the values every test of the fault gives, from the
    /// activation value and the non-controlling value on every side input
    /// of every post-dominator of the fault site that lies outside the
    /// site's fanout cone: the fault effect must pass each post-dominator,
    /// and such a side input carries the same value in both circuits, so a
    /// controlling one would block it. [`imply`] takes them to a fixpoint,
    /// which becomes the values [`Implication::violations`] counts against.
    ///
    /// Returns `false` if they contradict each other: the fault is then
    /// untestable. Call it before the first assignment.
    pub(crate) fn require_necessary(&mut self) -> bool {
        let site = self.fault.net;
        let (netlist, structure) = (self.netlist, self.structure);
        // Only fanins of post-dominators are asked about, and those all
        // come before the last post-dominator.
        let end = structure
            .post_dominators(site)
            .last()
            .map_or(0, |d| d.index());
        let stamp = self.next_stamp();
        self.seen[site.index()] = stamp;
        self.stack.push(site);
        while let Some(net) = self.stack.pop() {
            for &g in netlist.fanouts(net) {
                if g.index() < end && self.seen[g.index()] != stamp {
                    self.seen[g.index()] = stamp;
                    self.stack.push(g);
                }
            }
        }
        let seen = &self.seen;
        let side_inputs = structure
            .post_dominators(site)
            .filter_map(|d| Some((d, netlist.kind(d).controlling_value()?)))
            .flat_map(|(d, c)| {
                netlist
                    .fanins(d)
                    .iter()
                    .filter(|f| seen[f.index()] != stamp)
                    .map(move |&f| (f, !c))
            });
        let activation = (site, !self.fault.stuck_at);
        imply(
            netlist,
            &mut self.required,
            &mut self.stack,
            std::iter::once(activation).chain(side_inputs),
        )
    }

    /// How many nets' good values contradict a necessary value. While it
    /// is nonzero, no extension of the assignment detects the fault.
    pub(crate) fn violations(&self) -> usize {
        self.violations
    }

    /// Whether `net`'s good plane is `X`.
    pub(crate) fn good_is_x(&self, net: NetId) -> bool {
        self.values[net.index()] & GOOD == 0
    }

    /// Whether `net` carries a fault effect (`D` or `D̄`).
    pub(crate) fn is_error(&self, net: NetId) -> bool {
        is_error(self.values[net.index()])
    }

    /// Whether some output carries a fault effect.
    pub(crate) fn error_at_output(&self) -> bool {
        self.netlist.outputs().iter().any(|&o| self.is_error(o))
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
        let mut packed = pack(value, value);
        if net == self.fault.net {
            packed = packed & GOOD | self.stuck;
        }
        self.set(net, packed);
    }

    /// Re-evaluates the fanout cones of every net changed since the last
    /// call, lowest pending gate first.
    pub(crate) fn propagate(&mut self) {
        while self.first <= self.last {
            let word = self.pending[self.first];
            if word == 0 {
                self.first += 1;
                continue;
            }
            self.pending[self.first] = word & (word - 1);
            let gate = NetId(self.first as u32 * 64 + word.trailing_zeros());
            let value = self.evaluate(gate);
            self.set(gate, value);
        }
        (self.first, self.last) = (usize::MAX, 0);
    }

    /// Whether a path of nets that are `X` or carry a fault effect leads
    /// from the fault site to an output. Values only ever refine as inputs
    /// are assigned, so without such a path no extension of the current
    /// assignment detects the fault.
    pub(crate) fn x_path(&mut self) -> bool {
        // Closed: both planes hold the same specified value.
        let open = |v: u8| v != ONE && v != ZERO;
        let site = self.fault.net;
        if !open(self.values[site.index()]) {
            return false;
        }
        let stamp = self.next_stamp();
        self.seen[site.index()] = stamp;
        self.stack.push(site);
        while let Some(net) = self.stack.pop() {
            if self.netlist.is_output(net) {
                return true;
            }
            for &g in self.netlist.fanouts(net) {
                let i = g.index();
                if self.seen[i] != stamp && self.structure.observable[i] && open(self.values[i]) {
                    self.seen[i] = stamp;
                    self.stack.push(g);
                }
            }
        }
        false
    }

    /// A fresh visit stamp, with an empty stack.
    fn next_stamp(&mut self) -> u32 {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.seen.fill(0);
            self.stamp = 1;
        }
        self.stack.clear();
        self.stamp
    }

    /// Writes `value` to `net`; if it changed, updates the violation count
    /// and the fanouts' error-fanin counts and queues them. D-frontier
    /// membership moves only where an `X` comes or goes or an error-fanin
    /// count changes, so only those gates are refreshed. Fanouts come in
    /// topological order, so the first and the last bound the words they
    /// touch.
    fn set(&mut self, net: NetId, value: u8) {
        let i = net.index();
        let old = std::mem::replace(&mut self.values[i], value);
        if old == value {
            return;
        }
        let required = self.required[i];
        if required != 0 {
            let wrong = |v: u8| usize::from(v & (required ^ GOOD) != 0);
            self.violations = self.violations + wrong(value) - wrong(old);
        }
        if has_x(old) != has_x(value) {
            self.refresh_frontier(net);
        }
        let (was, is) = (is_error(old), is_error(value));
        let fanouts = self.netlist.fanouts(net);
        for &g in fanouts {
            let j = g.index();
            if was != is {
                if is {
                    self.error_fanins[j] += 1;
                } else {
                    self.error_fanins[j] -= 1;
                }
                self.refresh_frontier(g);
            }
            self.pending[j / 64] |= 1 << (j % 64);
        }
        if let (Some(lo), Some(hi)) = (fanouts.first(), fanouts.last()) {
            self.first = self.first.min(lo.index() / 64);
            self.last = self.last.max(hi.index() / 64);
        }
    }

    fn refresh_frontier(&mut self, gate: NetId) {
        let i = gate.index();
        let member = has_x(self.values[i]) && self.error_fanins[i] > 0;
        let (word, bit) = (i / 64, 1u64 << (i % 64));
        if member {
            self.frontier[word] |= bit;
        } else {
            self.frontier[word] &= !bit;
        }
    }

    /// Both planes of `gate` from its fanins' current values, with the
    /// fault site's faulty plane forced to the stuck value.
    fn evaluate(&self, gate: NetId) -> u8 {
        let fanins = self.netlist.fanins(gate).iter();
        let out = gate_value(
            self.netlist.kind(gate),
            fanins.map(|f| self.values[f.index()]),
        );
        if gate == self.fault.net {
            out & GOOD | self.stuck
        } else {
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dcalc::{simulate_dv, Dv};
    use evotc_netlist::{generate, iscas, parse_bench, GeneratorConfig, NetlistBuilder};
    use evotc_sim::{all_faults, detected_mask, simulate64};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn unpack(v: u8) -> Dv {
        let trit = |rails: u8| match rails & 0b11 {
            0b01 => Trit::One,
            0b10 => Trit::Zero,
            0b00 => Trit::X,
            _ => panic!("both rails of a plane set in {v:#06b}"),
        };
        Dv {
            good: trit(v),
            faulty: trit(v >> 2),
        }
    }

    fn values(state: &Implication) -> Vec<Dv> {
        state.values.iter().map(|&v| unpack(v)).collect()
    }

    /// The necessary good value of `net`, if it has one.
    fn required(state: &Implication, net: NetId) -> Option<bool> {
        unpack(state.required[net.index()]).good.to_bool()
    }

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
        assert_eq!(values(state), expected, "{fault} at {assignment:?}");
        assert_eq!(
            state.frontier().collect::<Vec<_>>(),
            scanned_frontier(netlist, &expected),
            "{fault} at {assignment:?}"
        );
        for id in netlist.node_ids() {
            let v = expected[id.index()];
            assert_eq!(state.good_is_x(id), v.good.is_x());
            assert_eq!(state.is_error(id), v.is_error());
        }
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
        assert!(state.pending.iter().all(|&w| w == 0), "gates left pending");
        let violations = netlist
            .node_ids()
            .filter(|&id| {
                let good = expected[id.index()].good.to_bool();
                required(state, id).is_some_and(|v| good == Some(!v))
            })
            .count();
        assert_eq!(state.violations(), violations, "{fault} at {assignment:?}");
    }

    /// Random decide/flip/unwind walks, checked against a full simulation,
    /// a full X-path sweep and a count of the nets that contradict their
    /// necessary values after every step.
    fn walk(netlist: &Netlist, fault: StuckAtFault, seed: u64) {
        let structure = Structure::new(netlist);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut state = Implication::new(netlist, &structure, fault);
        // On a conflict the values implied so far stay, which the count
        // must follow all the same.
        state.require_necessary();
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

    /// Every gate kind at every arity up to three, over every combination
    /// of the nine (good, faulty) fanin values, so `D`, `D̄` and `X` meet
    /// on every gate: each plane equals `eval_gate`'s, and at the fault
    /// site the faulty plane is the stuck value.
    #[test]
    fn packed_gates_match_eval_gate_on_every_fanin_combination() {
        let nine: Vec<Dv> = Trit::ALL
            .into_iter()
            .flat_map(|good| Trit::ALL.map(|faulty| Dv { good, faulty }))
            .collect();
        for kind in GateKind::LOGIC {
            let max_arity = if matches!(kind, GateKind::Buf | GateKind::Not) {
                1
            } else {
                3
            };
            for arity in 1..=max_arity {
                let mut b = NetlistBuilder::new("one-gate");
                let inputs = (0..arity).map(|k| b.input(&format!("x{k}"))).collect();
                let g = b.gate("g", kind, inputs).unwrap();
                b.output(g);
                let netlist = b.finish().unwrap();
                let gate = netlist.find_net("g").unwrap();
                let fanins = netlist.fanins(gate).to_vec();
                let structure = Structure::new(&netlist);
                // A fault on an input leaves the gate's evaluation plain.
                let mut states = [
                    StuckAtFault::sa0(fanins[0]),
                    StuckAtFault::sa0(gate),
                    StuckAtFault::sa1(gate),
                ]
                .map(|fault| Implication::new(&netlist, &structure, fault));
                for combination in 0..9usize.pow(arity as u32) {
                    let given: Vec<Dv> = (0..arity)
                        .map(|k| nine[combination / 9usize.pow(k as u32) % 9])
                        .collect();
                    let plane = |plane: fn(&Dv) -> Trit| {
                        evotc_sim::eval_gate(kind, &given.iter().map(plane).collect::<Vec<_>>())
                    };
                    let (good, faulty) = (plane(|v| v.good), plane(|v| v.faulty));
                    for state in &mut states {
                        for (f, v) in fanins.iter().zip(&given) {
                            state.values[f.index()] = pack(v.good, v.faulty);
                        }
                        let fault = state.fault;
                        let faulty = if fault.net == gate {
                            Trit::from_bool(fault.stuck_at)
                        } else {
                            faulty
                        };
                        assert_eq!(
                            unpack(state.evaluate(gate)),
                            Dv { good, faulty },
                            "{kind:?} over {given:?}, {fault}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn unobservable_nets_are_found_in_one_sweep() {
        // `dead` feeds nothing, so it has no path to the output.
        let mut b = NetlistBuilder::new("dead-end");
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

    /// Whether some path from `from` reaches an output without passing
    /// through `avoid`.
    fn reaches_output_avoiding(netlist: &Netlist, from: NetId, avoid: NetId) -> bool {
        let mut seen = vec![false; netlist.num_nodes()];
        let mut stack = vec![from];
        while let Some(net) = stack.pop() {
            if netlist.is_output(net) {
                return true;
            }
            for &g in netlist.fanouts(net) {
                if g != avoid && !std::mem::replace(&mut seen[g.index()], true) {
                    stack.push(g);
                }
            }
        }
        false
    }

    /// The post-dominator chain of every observable net is exactly the set
    /// of nets whose removal cuts it off from every output, nearest first.
    #[test]
    fn post_dominators_match_a_brute_force_cut_search() {
        for seed in 0..12 {
            let netlist = generate(&GeneratorConfig {
                inputs: 3 + seed % 6,
                outputs: 1 + seed % 4,
                gates: 10 + seed * 9,
                seed: seed as u64,
            });
            let structure = Structure::new(&netlist);
            for id in netlist.node_ids().filter(|&id| structure.is_observable(id)) {
                let expected: Vec<NetId> = netlist
                    .node_ids()
                    .filter(|&d| d != id && !reaches_output_avoiding(&netlist, id, d))
                    .collect();
                let chain: Vec<NetId> = structure.post_dominators(id).collect();
                assert_eq!(chain, expected, "seed {seed}: {id:?}");
            }
        }
    }

    /// All `2^inputs` vectors, 64 per word: word `w`, lane `p` is vector
    /// `64 w + p`, and input `j` carries bit `j` of the vector's number.
    fn exhaustive_words(inputs: usize) -> Vec<Vec<u64>> {
        let vectors = 1usize << inputs;
        (0..vectors.div_ceil(64))
            .map(|w| {
                (0..inputs)
                    .map(|j| {
                        (0..64.min(vectors)).fold(0u64, |word, p| {
                            word | u64::from((64 * w + p) >> j & 1 == 1) << p
                        })
                    })
                    .collect()
            })
            .collect()
    }

    /// The lanes of `word` (a good-value word of `simulate64`) where `net`
    /// holds `value`.
    fn lanes_with(good: &[u64], net: NetId, value: bool) -> u64 {
        let word = good[net.index()];
        if value {
            word
        } else {
            !word
        }
    }

    fn circuit(seed: u64) -> Netlist {
        generate(&GeneratorConfig {
            inputs: 4 + seed as usize % 9,
            outputs: 1 + seed as usize % 6,
            gates: 8 + (seed as usize * 13) % 90,
            seed,
        })
    }

    /// On 200 generated circuits with 4 to 12 inputs, for every fault and
    /// every input vector: a fault whose necessary values conflict is
    /// detected by no vector, and every detecting vector gives every net
    /// the value the analysis requires of it. Random requirement lists
    /// that `imply` rejects are met by no vector.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "release only: exhaustive over every vector"
    )]
    fn necessary_values_hold_for_every_test_on_generated_circuits() {
        let (mut faults_seen, mut proven, mut detecting, mut rejected) = (0, 0, 0u64, 0);
        let mut rng = StdRng::seed_from_u64(24);
        for seed in 0..200 {
            let netlist = circuit(seed);
            let structure = Structure::new(&netlist);
            let words = exhaustive_words(netlist.num_inputs());
            let lanes = |w: usize| {
                let vectors = 1usize << netlist.num_inputs();
                if vectors - 64 * w >= 64 {
                    u64::MAX
                } else {
                    (1 << (vectors - 64 * w)) - 1
                }
            };
            let goods: Vec<Vec<u64>> = words.iter().map(|w| simulate64(&netlist, w)).collect();
            for fault in all_faults(&netlist) {
                faults_seen += 1;
                let mut state = Implication::new(&netlist, &structure, fault);
                let consistent = state.require_necessary();
                let required: Vec<(NetId, bool)> = netlist
                    .node_ids()
                    .filter_map(|id| required(&state, id).map(|v| (id, v)))
                    .collect();
                if !consistent {
                    proven += 1;
                }
                for (w, inputs) in words.iter().enumerate() {
                    let detected = detected_mask(&netlist, fault, inputs) & lanes(w);
                    if !consistent || !structure.is_observable(fault.net) {
                        assert_eq!(detected, 0, "seed {seed}: {fault} proven untestable");
                        continue;
                    }
                    detecting += u64::from(detected.count_ones());
                    for &(net, value) in &required {
                        let violated = detected & !lanes_with(&goods[w], net, value);
                        assert_eq!(
                            violated, 0,
                            "seed {seed}: a test of {fault} gives net {net:?} the value {}",
                            !value
                        );
                    }
                }
            }
            // Random requirement lists, as `justify` checks them.
            let mut values = vec![0u8; netlist.num_nodes()];
            let mut queue = Vec::new();
            for _ in 0..40 {
                let list: Vec<(NetId, bool)> = (0..rng.gen_range(1..=6))
                    .map(|_| {
                        let net = NetId(rng.gen_range(0..netlist.num_nodes() as u32));
                        (net, rng.gen())
                    })
                    .collect();
                values.fill(0);
                if imply(&netlist, &mut values, &mut queue, list.iter().copied()) {
                    continue;
                }
                rejected += 1;
                for (w, good) in goods.iter().enumerate() {
                    let meets = list.iter().fold(lanes(w), |m, &(net, value)| {
                        m & lanes_with(good, net, value)
                    });
                    assert_eq!(meets, 0, "seed {seed}: {list:?} is met by a vector");
                }
            }
        }
        println!(
            "{faults_seen} faults, {proven} proven untestable, {detecting} detecting vectors, \
             {rejected} requirement lists rejected"
        );
        assert!(proven > 0 && rejected > 0, "the analysis proved nothing");
    }
}
