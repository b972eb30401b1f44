//! Decode trees for prefix codes.

use crate::prefix::PrefixCode;

/// A binary decode tree: walk one edge per received bit, emit a symbol at a
/// leaf, restart at the root. This is the software model of the code part of
/// the on-chip decoder FSM.
///
/// # Example
///
/// ```
/// use evotc_codes::PrefixCode;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let tree = PrefixCode::from_strs(&["0", "10", "11"])?.decode_tree();
/// assert_eq!(tree.decode_str("0110"), vec![0, 2, 0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeTree {
    nodes: Vec<Node>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Node {
    Internal {
        zero: u32,
        one: u32,
    },
    Leaf {
        symbol: u32,
    },
    /// A branch no codeword reaches (incomplete codes only).
    Dead,
}

/// Result of feeding one bit into a [`DecodeTree`] walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// More bits needed.
    Pending,
    /// A full codeword was recognized; the walk has restarted at the root.
    Symbol(usize),
    /// The bit sequence matches no codeword (incomplete code).
    Invalid,
}

impl DecodeTree {
    /// Builds the tree for a prefix code.
    ///
    /// # Panics
    ///
    /// Panics if the code has a single symbol with an empty codeword — such a
    /// degenerate code transmits no bits and has no tree.
    pub fn from_code(code: &PrefixCode) -> Self {
        assert!(
            code.len() > 1 || !code.codeword(0).is_empty(),
            "degenerate single-symbol code with empty codeword has no decode tree"
        );
        let mut nodes = vec![Node::Dead];
        for (symbol, cw) in code.codewords().iter().enumerate() {
            let mut at = 0usize;
            for (i, bit) in cw.iter().enumerate() {
                let last = i + 1 == cw.len();
                // Ensure `at` is an internal node.
                let (zero, one) = match nodes[at] {
                    Node::Internal { zero, one } => (zero, one),
                    Node::Dead => {
                        let z = nodes.len() as u32;
                        nodes.push(Node::Dead);
                        let o = nodes.len() as u32;
                        nodes.push(Node::Dead);
                        nodes[at] = Node::Internal { zero: z, one: o };
                        (z, o)
                    }
                    Node::Leaf { .. } => unreachable!("prefix property violated"),
                };
                let child = if bit { one } else { zero } as usize;
                if last {
                    nodes[child] = Node::Leaf {
                        symbol: symbol as u32,
                    };
                } else {
                    at = child;
                }
            }
        }
        DecodeTree { nodes }
    }

    /// Number of nodes (root, internal, leaf, dead).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of internal (non-leaf, non-dead) nodes — the FSM state count of
    /// the code part of a hardware decoder.
    pub fn num_internal_nodes(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Internal { .. }))
            .count()
    }

    /// Starts a stateful walk at the root.
    pub fn walk(&self) -> Walk<'_> {
        Walk { tree: self, at: 0 }
    }

    /// Advances a walk positioned at node `at` (`0` is the root) by one
    /// bit: [`Walk::step`] for callers that keep the position next to the
    /// tree instead of borrowing it. `at` returns to the root when a
    /// codeword completes or fails.
    pub fn step(&self, at: &mut usize, bit: bool) -> Step {
        match self.nodes[*at] {
            Node::Internal { zero, one } => {
                let child = if bit { one } else { zero } as usize;
                match self.nodes[child] {
                    Node::Leaf { symbol } => {
                        *at = 0;
                        Step::Symbol(symbol as usize)
                    }
                    Node::Dead => {
                        *at = 0;
                        Step::Invalid
                    }
                    Node::Internal { .. } => {
                        *at = child;
                        Step::Pending
                    }
                }
            }
            // Root is Dead only for codes that never got any codeword —
            // impossible by construction — or we are mid-reset.
            _ => Step::Invalid,
        }
    }

    /// Decodes a complete bit sequence into symbols.
    ///
    /// Returns `None` if the stream ends mid-codeword or hits a dead branch.
    pub fn decode<I: IntoIterator<Item = bool>>(&self, bits: I) -> Option<Vec<usize>> {
        let mut out = Vec::new();
        let mut walk = self.walk();
        for bit in bits {
            match walk.step(bit) {
                Step::Pending => {}
                Step::Symbol(s) => out.push(s),
                Step::Invalid => return None,
            }
        }
        walk.at_root().then_some(out)
    }

    /// Decodes a `0`/`1` string (convenience for tests and examples).
    ///
    /// # Panics
    ///
    /// Panics if the string contains non-binary characters or does not decode
    /// cleanly.
    pub fn decode_str(&self, s: &str) -> Vec<usize> {
        self.decode(s.chars().map(|c| match c {
            '0' => false,
            '1' => true,
            other => panic!("invalid bit character {other}"),
        }))
        .expect("string does not decode cleanly")
    }
}

/// A stateful decode walk; feed bits with [`Walk::step`].
#[derive(Debug, Clone)]
pub struct Walk<'a> {
    tree: &'a DecodeTree,
    at: usize,
}

impl Walk<'_> {
    /// Consumes one bit.
    pub fn step(&mut self, bit: bool) -> Step {
        self.tree.step(&mut self.at, bit)
    }

    /// Returns `true` if the walk is at the root (codeword boundary).
    pub fn at_root(&self) -> bool {
        self.at == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prefix::PrefixCode;

    fn tree(words: &[&str]) -> DecodeTree {
        PrefixCode::from_strs(words).unwrap().decode_tree()
    }

    #[test]
    fn decodes_simple_sequences() {
        let t = tree(&["0", "10", "11"]);
        assert_eq!(t.decode_str("0"), vec![0]);
        assert_eq!(t.decode_str("10"), vec![1]);
        assert_eq!(t.decode_str("1011010"), vec![1, 2, 0, 1]);
    }

    #[test]
    fn rejects_truncated_stream() {
        let t = tree(&["0", "10", "11"]);
        assert_eq!(t.decode([true].into_iter()), None);
    }

    #[test]
    fn rejects_dead_branch_of_incomplete_code() {
        let t = tree(&["00", "01"]);
        // '1…' hits a dead branch
        assert_eq!(t.decode([true, false].into_iter()), None);
        assert_eq!(t.decode_str("0001"), vec![0, 1]);
    }

    #[test]
    fn stateful_walk_reports_boundaries() {
        let t = tree(&["0", "10", "11"]);
        let mut w = t.walk();
        assert_eq!(w.step(true), Step::Pending);
        assert!(!w.at_root());
        assert_eq!(w.step(false), Step::Symbol(1));
        assert!(w.at_root());
    }

    #[test]
    fn paper_9c_code_decodes() {
        let t = tree(&[
            "0", "10", "11000", "11001", "11010", "11011", "11100", "11101", "1111",
        ]);
        // C(v1)=0, C(v2)=10, C(v9)=1111 (paper, Section 4)
        assert_eq!(t.decode_str("0101111"), vec![0, 1, 8]);
    }

    #[test]
    fn node_counts_for_known_tree() {
        // code {0,10,11}: root + leaf(0) + internal(1) + leaf(10) + leaf(11)
        let t = tree(&["0", "10", "11"]);
        assert_eq!(t.num_internal_nodes(), 2); // root and node "1"
        assert_eq!(t.num_nodes(), 5);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn degenerate_code_has_no_tree() {
        let code = PrefixCode::from_strs(&[""]).unwrap();
        let _ = code.decode_tree();
    }
}
