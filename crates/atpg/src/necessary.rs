//! Necessary good values: values that every input vector meeting a list of
//! requirements must give, found by implication before any search.
//!
//! Both generators search over primary-input assignments. Before they do,
//! [`imply`] takes the values every solution must have, such as the
//! activation value of a fault or a path's side-input values, and implies
//! them forward and backward through the good circuit to a fixpoint. Each
//! implied value is again one that every solution has. If two of them
//! contradict, no solution exists and the search is skipped. Otherwise
//! PODEM keeps the fixpoint and backtracks from any assignment that
//! contradicts it.
//!
//! Values are the good-plane rails of [`Implication`](crate::implication)'s
//! packed byte: bit 0 is 1, bit 1 is 0, and `X` leaves both clear.

use evotc_netlist::{GateKind, NetId, Netlist};

use crate::implication::{gate_value, GOOD};

/// The good-plane rail of `value`.
fn rail(value: bool) -> u8 {
    if value {
        0b01
    } else {
        0b10
    }
}

/// The opposite good-plane rail.
fn opposite(rail: u8) -> u8 {
    rail ^ GOOD
}

/// Gives each `(net, value)` of `required` its good value in `values`, then
/// implies them forward and backward through every gate kind to a
/// fixpoint. Returns `false` as soon as a net would need both values: then
/// no input vector gives all of `required`.
///
/// `values` holds one good-rail byte per net; nets already specified there
/// count as required too. `queue` is working space; its contents are
/// discarded.
pub(crate) fn imply(
    netlist: &Netlist,
    values: &mut [u8],
    queue: &mut Vec<NetId>,
    required: impl IntoIterator<Item = (NetId, bool)>,
) -> bool {
    queue.clear();
    for (net, value) in required {
        if !assign(values, queue, net, rail(value)) {
            return false;
        }
    }
    while let Some(net) = queue.pop() {
        // The gate driving `net`, then every gate it feeds.
        let source = (netlist.kind(net) != GateKind::Input).then_some(net);
        for gate in source
            .into_iter()
            .chain(netlist.fanouts(net).iter().copied())
        {
            if !imply_gate(netlist, values, queue, gate) {
                return false;
            }
        }
    }
    true
}

/// Sets `net` to `rail`; `false` if it holds the other value.
fn assign(values: &mut [u8], queue: &mut Vec<NetId>, net: NetId, rail: u8) -> bool {
    let old = &mut values[net.index()];
    if *old == 0 {
        *old = rail;
        queue.push(net);
    }
    *old == rail
}

/// Implies what `gate`'s fanins give its output, then what its output
/// gives its fanins.
fn imply_gate(netlist: &Netlist, values: &mut [u8], queue: &mut Vec<NetId>, gate: NetId) -> bool {
    let kind = netlist.kind(gate);
    let fanins = netlist.fanins(gate);
    let forward = gate_value(kind, fanins.iter().map(|f| values[f.index()])) & GOOD;
    if forward != 0 && !assign(values, queue, gate, forward) {
        return false;
    }
    let mut out = values[gate.index()];
    if out == 0 {
        return true;
    }
    if kind.is_inverting() {
        out = opposite(out);
    }
    match kind {
        GateKind::Input => true,
        GateKind::Buf | GateKind::Not => assign(values, queue, fanins[0], out),
        GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
            let controlling = rail(kind == GateKind::Or || kind == GateKind::Nor);
            if out != controlling {
                // Not controlled: every fanin is non-controlling.
                return fanins
                    .iter()
                    .all(|&f| assign(values, queue, f, opposite(controlling)));
            }
            // Controlled: if only one fanin can still be controlling, it is.
            let mut open = fanins
                .iter()
                .filter(|f| values[f.index()] != opposite(controlling));
            match (open.next(), open.next()) {
                (Some(&f), None) => assign(values, queue, f, controlling),
                _ => true,
            }
        }
        GateKind::Xor | GateKind::Xnor => {
            // One `X` fanin left: the parity of the others fixes it.
            let mut open = fanins.iter().filter(|f| values[f.index()] == 0);
            match (open.next(), open.next()) {
                (Some(&f), None) => {
                    let ones = fanins.iter().filter(|g| values[g.index()] == rail(true));
                    let odd = ones.count() % 2 == 1;
                    assign(values, queue, f, rail(odd != (out == rail(true))))
                }
                _ => true,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evotc_netlist::NetlistBuilder;

    /// Each gate kind implies forward from its fanins and backward from
    /// its output.
    #[test]
    fn implies_forward_and_backward_through_every_kind() {
        let mut b = NetlistBuilder::new("kinds");
        let x: Vec<NetId> = (0..3).map(|k| b.input(&format!("x{k}"))).collect();
        let and = b.gate("and", GateKind::And, x.clone()).unwrap();
        let nor = b.gate("nor", GateKind::Nor, x.clone()).unwrap();
        let xor = b.gate("xor", GateKind::Xor, x.clone()).unwrap();
        let not = b.gate("not", GateKind::Not, vec![xor]).unwrap();
        for g in [and, nor, not] {
            b.output(g);
        }
        let n = b.finish().unwrap();
        let net = |name: &str| n.find_net(name).unwrap();
        let run = |required: &[(&str, bool)]| {
            let mut values = vec![0u8; n.num_nodes()];
            let ok = imply(
                &n,
                &mut values,
                &mut Vec::new(),
                required.iter().map(|&(name, v)| (net(name), v)),
            );
            ok.then(|| {
                ["x0", "x1", "x2", "and", "nor", "xor", "not"].map(|name| {
                    match values[net(name).index()] {
                        0b01 => Some(true),
                        0b10 => Some(false),
                        _ => None,
                    }
                })
            })
        };
        let (t, f) = (Some(true), Some(false));
        // AND = 1: every fanin 1, so NOR = 0, XOR = 1 and NOT = 0.
        assert_eq!(run(&[("and", true)]), Some([t, t, t, t, f, t, f]));
        // NOR = 1: every fanin 0.
        assert_eq!(run(&[("nor", true)]), Some([f, f, f, f, t, f, t]));
        // AND = 0 with two fanins 1: the third is 0.
        assert_eq!(
            run(&[("and", false), ("x0", true), ("x1", true)]),
            Some([t, t, f, f, f, f, t])
        );
        // NOT = 1 makes XOR = 0; with two fanins known, the third follows.
        assert_eq!(
            run(&[("not", true), ("x0", true), ("x1", false)]),
            Some([t, f, t, f, f, f, t])
        );
        // Fanins that force AND to 1 contradict NOR = 1.
        assert_eq!(run(&[("and", true), ("nor", true)]), None);
        assert_eq!(
            run(&[("x0", true), ("not", true), ("x1", true), ("x2", true)]),
            None
        );
    }
}
