//! 64-way bit-parallel two-valued simulation and fault grading.

use evotc_netlist::{GateKind, NetId, Netlist};

use crate::fault::StuckAtFault;

/// Simulates up to 64 fully specified patterns at once.
///
/// `inputs[j]` carries one bit per pattern for primary input `j` (bit `p` =
/// pattern `p`'s value). Returns one word per net. This is the classic
/// bit-parallel technique that makes fault grading of whole test sets cheap.
///
/// # Panics
///
/// Panics if `inputs.len()` differs from the circuit's input count.
///
/// # Example
///
/// ```
/// use evotc_netlist::{iscas, parse_bench};
/// use evotc_sim::simulate64;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let c17 = parse_bench(iscas::C17_BENCH)?;
/// // Pattern 0: all zeros; pattern 1: all ones.
/// let inputs = vec![0b10u64; 5];
/// let values = simulate64(&c17, &inputs);
/// let out0 = c17.outputs()[0];
/// assert_eq!(values[out0.index()] & 0b11, 0b10);
/// # Ok(())
/// # }
/// ```
pub fn simulate64(netlist: &Netlist, inputs: &[u64]) -> Vec<u64> {
    simulate64_with_fault(netlist, inputs, None)
}

fn simulate64_with_fault(
    netlist: &Netlist,
    inputs: &[u64],
    fault: Option<StuckAtFault>,
) -> Vec<u64> {
    assert_eq!(
        inputs.len(),
        netlist.num_inputs(),
        "input word count {} != inputs {}",
        inputs.len(),
        netlist.num_inputs()
    );
    let mut values = vec![0u64; netlist.num_nodes()];
    for (j, &input) in netlist.inputs().iter().enumerate() {
        values[input.index()] = inputs[j];
    }
    sweep(netlist, &mut values, 0, |net, word| {
        if let Some(f) = fault.filter(|f| f.net.index() == net) {
            *word = if f.stuck_at { u64::MAX } else { 0 };
        }
    });
    values
}

/// Evaluates every net from index `from` on in one forward sweep (nets are
/// stored in topological order), reading inputs from `values` as they
/// stand, and lets `force(net, &mut word)` overwrite each net's word after
/// it is evaluated, which is where faults are injected.
#[inline]
fn sweep(
    netlist: &Netlist,
    values: &mut [u64],
    from: usize,
    mut force: impl FnMut(usize, &mut u64),
) {
    // Sweep the SoA kind array directly: at a million gates the per-node
    // accessor calls are measurable against the two loads per CSR slice.
    for (i, &kind) in netlist.kinds().iter().enumerate().skip(from) {
        if kind != GateKind::Input {
            let fanins = netlist.fanins(NetId(i as u32));
            let mut it = fanins.iter().map(|f| values[f.index()]);
            let first = it.next().expect("gates have fanins");
            values[i] = match kind {
                GateKind::Input => unreachable!(),
                GateKind::Buf => first,
                GateKind::Not => !first,
                GateKind::And => it.fold(first, |a, b| a & b),
                GateKind::Nand => !it.fold(first, |a, b| a & b),
                GateKind::Or => it.fold(first, |a, b| a | b),
                GateKind::Nor => !it.fold(first, |a, b| a | b),
                GateKind::Xor => it.fold(first, |a, b| a ^ b),
                GateKind::Xnor => !it.fold(first, |a, b| a ^ b),
            };
        }
        force(i, &mut values[i]);
    }
}

/// Which of 64 patterns detect `fault`: bit `p` of the result is set iff
/// some primary output differs between the good and faulty circuit under
/// pattern `p`.
///
/// # Panics
///
/// Panics if `inputs.len()` differs from the circuit's input count.
pub fn detected_mask(netlist: &Netlist, fault: StuckAtFault, inputs: &[u64]) -> u64 {
    let good = simulate64(netlist, inputs);
    let bad = simulate64_with_fault(netlist, inputs, Some(fault));
    let mut mask = 0u64;
    for &o in netlist.outputs() {
        mask |= good[o.index()] ^ bad[o.index()];
    }
    mask
}

/// Which of `faults` one fully specified pattern detects, 64 faults per
/// sweep: bit `i % 64` of word `i / 64` is set iff some primary output
/// differs between the good circuit and the circuit with `faults[i]` under
/// `pattern` (`pattern[j]` is primary input `j`'s value).
///
/// This is [`detected_mask`] turned on its side: there every lane is a
/// pattern and the fault is fixed, here every lane is a fault and the
/// pattern is fixed. The good circuit is simulated once; then each group
/// of 64 faults shares one sweep in which lane `k` carries the circuit
/// with the group's `k`-th fault. The sweep starts from the good values at
/// the group's first fault site, since no net before it can differ. For
/// every fault the bit equals `detected_mask(netlist, fault, inputs) & 1`
/// when bit 0 of `inputs[j]` is `pattern[j]`.
///
/// # Panics
///
/// Panics if `pattern.len()` differs from the circuit's input count.
///
/// # Example
///
/// ```
/// use evotc_netlist::{iscas, parse_bench};
/// use evotc_sim::{detected_faults, StuckAtFault};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let c17 = parse_bench(iscas::C17_BENCH)?;
/// let out = c17.outputs()[0];
/// let faults = [StuckAtFault::sa0(out), StuckAtFault::sa1(out)];
/// // An observed output is stuck at exactly one of the two wrong values.
/// let words = detected_faults(&c17, &[true; 5], &faults);
/// assert_eq!(words.len(), 1);
/// assert_eq!(words[0].count_ones(), 1);
/// # Ok(())
/// # }
/// ```
pub fn detected_faults(netlist: &Netlist, pattern: &[bool], faults: &[StuckAtFault]) -> Vec<u64> {
    let inputs: Vec<u64> = pattern
        .iter()
        .map(|&b| if b { u64::MAX } else { 0 })
        .collect();
    let good = simulate64(netlist, &inputs);
    let mut values = vec![0u64; good.len()];
    // (net index, lane bit, stuck value) per fault of a group, by net.
    let mut sites: Vec<(usize, u64, bool)> = Vec::with_capacity(64);
    faults
        .chunks(64)
        .map(|group| {
            sites.clear();
            sites.extend(
                group
                    .iter()
                    .enumerate()
                    .map(|(lane, f)| (f.net.index(), 1u64 << lane, f.stuck_at)),
            );
            sites.sort_unstable_by_key(|&(net, ..)| net);
            values.copy_from_slice(&good);
            let mut next = 0;
            sweep(netlist, &mut values, sites[0].0, |net, word| {
                while let Some(&(_, lane, stuck_at)) = sites.get(next).filter(|s| s.0 == net) {
                    *word = if stuck_at {
                        *word | lane
                    } else {
                        *word & !lane
                    };
                    next += 1;
                }
            });
            netlist
                .outputs()
                .iter()
                .fold(0, |mask, o| mask | (values[o.index()] ^ good[o.index()]))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use evotc_bits::TestPattern;
    use evotc_netlist::Netlist;
    use evotc_netlist::{iscas, parse_bench};

    fn c17() -> Netlist {
        parse_bench(iscas::C17_BENCH).unwrap()
    }

    #[test]
    fn agrees_with_scalar_simulation() {
        let n = c17();
        // 32 arbitrary patterns, packed and simulated both ways.
        let patterns: Vec<TestPattern> = (0..32u32)
            .map(|i| {
                let s: String = (0..5)
                    .map(|j| if (i >> j) & 1 == 1 { '1' } else { '0' })
                    .collect();
                s.parse().unwrap()
            })
            .collect();
        let mut inputs = vec![0u64; 5];
        for (p, pattern) in patterns.iter().enumerate() {
            for (j, word) in inputs.iter_mut().enumerate() {
                if pattern.trit(j).to_bool().unwrap() {
                    *word |= 1 << p;
                }
            }
        }
        let words = simulate64(&n, &inputs);
        for (p, pattern) in patterns.iter().enumerate() {
            let scalar = crate::eval::simulate(&n, pattern);
            for id in n.node_ids() {
                let parallel_bit = (words[id.index()] >> p) & 1 == 1;
                assert_eq!(
                    scalar[id.index()].to_bool(),
                    Some(parallel_bit),
                    "net {id} pattern {p}"
                );
            }
        }
    }

    #[test]
    fn stuck_output_detected_by_some_pattern() {
        let n = c17();
        let out = n.outputs()[0];
        // 16 varied patterns
        let inputs: Vec<u64> = (0..5).map(|j| 0x96C3_u64.rotate_left(j * 7)).collect();
        let m0 = detected_mask(&n, StuckAtFault::sa0(out), &inputs);
        let m1 = detected_mask(&n, StuckAtFault::sa1(out), &inputs);
        // Every pattern detects exactly one of sa0/sa1 at an observed output.
        assert_eq!(m0 | m1, u64::MAX);
        assert_eq!(m0 & m1, 0);
    }

    #[test]
    fn undetectable_without_sensitization() {
        let n = c17();
        let g10 = n.find_net("10").unwrap();
        // Pattern where 16 is 0... choose all-ones: 16=NAND(2=1,11=0)=1.
        // Let's simply check: a fault is not detected when mask bit is 0 for
        // patterns that produce identical outputs.
        let inputs = vec![0u64; 5]; // single pattern 0: all zeros
        let mask = detected_mask(&n, StuckAtFault::sa1(g10), &inputs);
        // good 10 = NAND(0,0) = 1 == forced 1: no difference anywhere
        assert_eq!(mask & 1, 0);
    }

    /// splitmix64: seeded patterns without a dependency.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// `detected_faults` against `detected_mask(..) & 1`, fault by fault,
    /// for 16 seeded random patterns. `faults` is `all_faults` (sa0 and
    /// sa1 of every net, inputs and outputs included, side by side in one
    /// word) in node order and reversed, so groups need not come in net
    /// order and each group's sites arrive unsorted.
    fn agrees_with_detected_mask(n: &Netlist, seed: u64) {
        let forward = crate::fault::all_faults(n);
        let backward: Vec<StuckAtFault> = forward.iter().rev().copied().collect();
        let mut state = seed;
        for _ in 0..16 {
            let pattern: Vec<bool> = (0..n.num_inputs())
                .map(|_| next(&mut state) & 1 == 1)
                .collect();
            let inputs: Vec<u64> = pattern.iter().map(|&b| u64::from(b)).collect();
            for faults in [&forward, &backward] {
                let words = detected_faults(n, &pattern, faults);
                assert_eq!(words.len(), faults.len().div_ceil(64));
                for (i, &fault) in faults.iter().enumerate() {
                    assert_eq!(
                        (words[i / 64] >> (i % 64)) & 1,
                        detected_mask(n, fault, &inputs) & 1,
                        "{fault} under {pattern:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn word_parallel_dropping_matches_detected_mask_on_c17_and_s27() {
        agrees_with_detected_mask(&c17(), 1);
        agrees_with_detected_mask(&parse_bench(iscas::S27_BENCH).unwrap(), 2);
    }

    #[test]
    fn word_parallel_dropping_matches_detected_mask_over_several_words() {
        for seed in [3, 4] {
            let n = evotc_netlist::generate(&evotc_netlist::GeneratorConfig {
                inputs: 12,
                outputs: 6,
                gates: 90 + 40 * seed as usize,
                seed,
            });
            assert!(2 * n.num_nodes() > 3 * 64, "several words per pattern");
            agrees_with_detected_mask(&n, seed);
        }
    }

    #[test]
    fn word_parallel_dropping_sees_input_and_output_sites() {
        let n = c17();
        let input = n.inputs()[0];
        let output = n.outputs()[0];
        let faults = [
            StuckAtFault::sa0(input),
            StuckAtFault::sa1(input),
            StuckAtFault::sa0(output),
            StuckAtFault::sa1(output),
        ];
        let pattern = [true; 5];
        let inputs = [1u64; 5];
        let word = detected_faults(&n, &pattern, &faults)[0];
        for (lane, &fault) in faults.iter().enumerate() {
            assert_eq!((word >> lane) & 1, detected_mask(&n, fault, &inputs) & 1);
        }
        // An input at 1 cannot be exposed by its own sa1, and an output is
        // stuck at exactly one wrong value.
        assert_eq!((word >> 1) & 1, 0);
        assert_eq!(((word >> 2) & 1) + ((word >> 3) & 1), 1);
        assert!(detected_faults(&n, &pattern, &[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "input word count")]
    fn validates_width() {
        let n = c17();
        let _ = simulate64(&n, &[0, 0]);
    }
}
