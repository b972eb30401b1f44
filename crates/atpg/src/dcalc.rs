//! The five-valued D-calculus as good/faulty value pairs.
//!
//! Roth's five values `{0, 1, X, D, D̄}` are represented as a pair of
//! three-valued planes: `D = (good 1, faulty 0)`, `D̄ = (good 0, faulty 1)`.
//! Gate evaluation simply evaluates both planes with the three-valued
//! semantics from `evotc-sim`, which is equivalent to the classic tables
//! and keeps one source of truth for gate behaviour.

use evotc_bits::Trit;
use evotc_netlist::{GateKind, NetId, Netlist};
use evotc_sim::eval_gate;

/// A five-valued circuit value: the good-machine and faulty-machine values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dv {
    /// Value in the fault-free circuit.
    pub good: Trit,
    /// Value in the faulty circuit.
    pub faulty: Trit,
}

impl Dv {
    /// The unknown value `X` (both planes unknown).
    pub const X: Dv = Dv {
        good: Trit::X,
        faulty: Trit::X,
    };

    /// The error value `D` (good 1, faulty 0).
    pub const D: Dv = Dv {
        good: Trit::One,
        faulty: Trit::Zero,
    };

    /// The error value `D̄` (good 0, faulty 1).
    pub const DBAR: Dv = Dv {
        good: Trit::Zero,
        faulty: Trit::One,
    };

    /// A fault-free constant (both planes equal).
    pub fn stable(value: bool) -> Dv {
        let t = Trit::from_bool(value);
        Dv { good: t, faulty: t }
    }

    /// Returns `true` if the value carries a fault effect (`D` or `D̄`).
    pub fn is_error(self) -> bool {
        matches!(
            (self.good.to_bool(), self.faulty.to_bool()),
            (Some(g), Some(f)) if g != f
        )
    }

    /// Returns `true` if either plane is unknown.
    pub fn has_x(self) -> bool {
        self.good.is_x() || self.faulty.is_x()
    }
}

/// Simulates the whole circuit in the five-valued calculus: `assignment[j]`
/// drives input `j` on both planes; the fault site is forced to the stuck
/// value on the faulty plane only.
///
/// Returns one [`Dv`] per net. [`Podem`](crate::Podem) keeps the same
/// values incrementally as it assigns inputs; this full sweep is the
/// oracle its tests compare against.
pub fn simulate_dv(
    netlist: &Netlist,
    assignment: &[Trit],
    fault_net: NetId,
    stuck_at: bool,
) -> Vec<Dv> {
    assert_eq!(
        assignment.len(),
        netlist.num_inputs(),
        "assignment width mismatch"
    );
    let mut values = vec![Dv::X; netlist.num_nodes()];
    for (j, &input) in netlist.inputs().iter().enumerate() {
        values[input.index()] = Dv {
            good: assignment[j],
            faulty: assignment[j],
        };
    }
    let mut good_buf: Vec<Trit> = Vec::with_capacity(8);
    let mut faulty_buf: Vec<Trit> = Vec::with_capacity(8);
    let kinds = netlist.kinds();
    for id in netlist.node_ids() {
        let kind = kinds[id.index()];
        if kind != GateKind::Input {
            good_buf.clear();
            faulty_buf.clear();
            for &f in netlist.fanins(id) {
                good_buf.push(values[f.index()].good);
                faulty_buf.push(values[f.index()].faulty);
            }
            values[id.index()] = Dv {
                good: eval_gate(kind, &good_buf),
                faulty: eval_gate(kind, &faulty_buf),
            };
        }
        if id == fault_net {
            values[id.index()].faulty = Trit::from_bool(stuck_at);
        }
    }
    values
}

#[cfg(test)]
mod tests {
    use super::*;
    use evotc_netlist::{iscas, parse_bench};

    #[test]
    fn constants() {
        assert!(Dv::D.is_error());
        assert!(Dv::DBAR.is_error());
        assert!(!Dv::X.is_error());
        assert!(Dv::X.has_x());
        assert!(!Dv::stable(true).is_error());
    }

    #[test]
    fn fault_site_diverges_when_activated() {
        let n = parse_bench(iscas::C17_BENCH).unwrap();
        let g10 = n.find_net("10").unwrap();
        // all-zero inputs: good 10 = NAND(0,0) = 1; sa0 makes it D.
        let assignment = vec![Trit::Zero; 5];
        let values = simulate_dv(&n, &assignment, g10, false);
        assert_eq!(values[g10.index()], Dv::D);
        // 22 = NAND(10, 16): good NAND(1,1)=0, faulty NAND(0,1)=1 -> DBAR
        let g22 = n.find_net("22").unwrap();
        assert_eq!(values[g22.index()], Dv::DBAR);
    }

    #[test]
    fn unactivated_fault_produces_no_error() {
        let n = parse_bench(iscas::C17_BENCH).unwrap();
        let g10 = n.find_net("10").unwrap();
        // inputs 1=0,3=1 -> 10 = NAND(0,1) = 1... need good = 0 for sa0 to
        // be silent: 1=1, 3=1 gives NAND(1,1)=0 == stuck value.
        let mut assignment = vec![Trit::Zero; 5];
        assignment[0] = Trit::One; // input "1"
        assignment[2] = Trit::One; // input "3"
        let values = simulate_dv(&n, &assignment, g10, false);
        assert!(!values[g10.index()].is_error());
        for id in n.node_ids() {
            assert!(!values[id.index()].is_error());
        }
    }

    #[test]
    fn x_inputs_leave_planes_unknown() {
        let n = parse_bench(iscas::C17_BENCH).unwrap();
        let g10 = n.find_net("10").unwrap();
        let values = simulate_dv(&n, &[Trit::X; 5], g10, false);
        // fault site: good X, faulty 0
        assert_eq!(values[g10.index()].faulty, Trit::Zero);
        assert!(values[g10.index()].good.is_x());
    }
}
