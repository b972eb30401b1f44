//! The combinational netlist model.
//!
//! # Memory model
//!
//! The netlist is stored flat, sized for million-gate circuits:
//!
//! * **Struct-of-arrays nodes** — `kinds: Vec<GateKind>` and
//!   `names: Vec<Symbol>` instead of a `Vec<Node>` of structs. Simulation
//!   sweeps touch only `kinds` (1 byte/node); names are interned
//!   [`Symbol`] handles into one [`SymbolTable`] arena and are resolved
//!   lazily, never on the hot path.
//! * **CSR adjacency** — fanins and fanouts each live in one shared edge
//!   pool (`Vec<NetId>`) indexed by a `Vec<u32>` offset array of length
//!   `n + 1`: node `i`'s edges are `edges[offsets[i]..offsets[i + 1]]`.
//!   No per-node `Vec`s, no pointer chasing; [`Netlist::fanins`] and
//!   [`Netlist::fanouts`] are two loads and a slice.
//! * **O(1) side tables** — input position and output membership are
//!   precomputed, so PODEM backtrace and path enumeration never scan the
//!   input/output lists.
//!
//! The CSR invariant: `fanin_offsets.len() == num_nodes() + 1`,
//! `fanin_offsets[0] == 0`, offsets are non-decreasing, and
//! `fanin_offsets[n]` equals the edge-pool length (likewise for fanouts).
//! Edge order within a node is preserved from construction (fanins in
//! declaration order, fanouts in topological order of the consumers).

use std::fmt;

use crate::gate::GateKind;
use crate::symbol::{Symbol, SymbolTable};

/// Identifier of a net (equivalently, of the gate driving it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub u32);

impl NetId {
    /// The index into the netlist's node arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Sentinel for "this node has no name" (Yosys-JSON bits without a
/// `netnames` entry). Kept private: the public surface is
/// [`Netlist::net_name`] (`Option`) and [`Netlist::name_of`] (fallback).
const NO_NAME: Symbol = Symbol::ANON;

/// The display form of a net's name: the interned name when the net has
/// one, otherwise the stable `n{index}` fallback — the same spelling
/// [`NetId`]'s `Display` uses, so error messages, `.bench` round-trips and
/// diagnostics all agree on how an anonymous net is written.
#[derive(Debug, Clone, Copy)]
pub struct NetName<'a> {
    name: Option<&'a str>,
    id: NetId,
}

impl fmt::Display for NetName<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.name {
            Some(name) => f.write_str(name),
            None => write!(f, "{}", self.id),
        }
    }
}

/// An acyclic combinational gate network.
///
/// Nodes are stored in **topological order** (every fanin precedes its
/// fanout), which lets simulators evaluate in a single forward sweep.
/// Construction goes through [`NetlistBuilder`], which validates name
/// uniqueness, fanin arity and acyclicity and performs the topological sort.
///
/// See the `netlist` module documentation for the memory model (interned
/// names, CSR adjacency).
///
/// # Example
///
/// ```
/// use evotc_netlist::{GateKind, NetlistBuilder};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = NetlistBuilder::new("half-adder");
/// let x = b.input("x");
/// let y = b.input("y");
/// let sum = b.gate("sum", GateKind::Xor, vec![x, y])?;
/// let carry = b.gate("carry", GateKind::And, vec![x, y])?;
/// b.output(sum);
/// b.output(carry);
/// let netlist = b.finish()?;
/// assert_eq!(netlist.num_gates(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Netlist {
    name: String,
    symbols: SymbolTable,
    kinds: Vec<GateKind>,
    names: Vec<Symbol>,
    /// Symbol index -> node id (`u32::MAX` = symbol names no node).
    sym_to_net: Vec<u32>,
    fanin_edges: Vec<NetId>,
    fanin_offsets: Vec<u32>,
    fanout_edges: Vec<NetId>,
    fanout_offsets: Vec<u32>,
    inputs: Vec<NetId>,
    outputs: Vec<NetId>,
    levels: Vec<u32>,
    /// Node id -> position in `inputs` (`u32::MAX` = not an input).
    input_pos: Vec<u32>,
    output_flag: Vec<bool>,
}

impl Netlist {
    /// Circuit name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total number of nodes (inputs + gates).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.kinds.len()
    }

    /// Number of primary (and pseudo primary) inputs.
    #[inline]
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of primary (and pseudo primary) outputs.
    #[inline]
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Number of logic gates (non-input nodes).
    #[inline]
    pub fn num_gates(&self) -> usize {
        self.kinds.len() - self.inputs.len()
    }

    /// Number of fanin edges (equals the number of fanout edges).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.fanin_edges.len()
    }

    /// The inputs, in declaration order. Test-pattern bit `j` drives
    /// `inputs()[j]`.
    #[inline]
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// The outputs, in declaration order.
    #[inline]
    pub fn outputs(&self) -> &[NetId] {
        &self.outputs
    }

    /// The gate kind of a node.
    #[inline]
    pub fn kind(&self, id: NetId) -> GateKind {
        self.kinds[id.index()]
    }

    /// All gate kinds, indexed by [`NetId::index`] — the hot-sweep view
    /// simulators iterate instead of calling [`Netlist::kind`] per node.
    #[inline]
    pub fn kinds(&self) -> &[GateKind] {
        &self.kinds
    }

    /// The fanins of a node (empty for inputs), as a CSR slice.
    #[inline]
    pub fn fanins(&self, id: NetId) -> &[NetId] {
        let i = id.index();
        &self.fanin_edges[self.fanin_offsets[i] as usize..self.fanin_offsets[i + 1] as usize]
    }

    /// The fanouts of a node, as a CSR slice (consumers in topological
    /// order).
    #[inline]
    pub fn fanouts(&self, id: NetId) -> &[NetId] {
        let i = id.index();
        &self.fanout_edges[self.fanout_offsets[i] as usize..self.fanout_offsets[i + 1] as usize]
    }

    /// The net's name, if it has one (nets ingested from Yosys JSON may be
    /// anonymous). For a display form with a stable fallback, use
    /// [`Netlist::name_of`].
    #[inline]
    pub fn net_name(&self, id: NetId) -> Option<&str> {
        let sym = self.names[id.index()];
        (sym != NO_NAME).then(|| self.symbols.resolve(sym))
    }

    /// The net's display name: the interned name when present, otherwise
    /// the stable `n{index}` fallback (the same spelling `NetId: Display`
    /// produces). Used by `.bench` serialization and error messages so an
    /// anonymous net is always written the same way.
    #[inline]
    pub fn name_of(&self, id: NetId) -> NetName<'_> {
        NetName {
            name: self.net_name(id),
            id,
        }
    }

    /// Logic level (0 for inputs, `1 + max(fanin levels)` for gates).
    #[inline]
    pub fn level(&self, id: NetId) -> u32 {
        self.levels[id.index()]
    }

    /// All logic levels, indexed by [`NetId::index`].
    #[inline]
    pub fn levels(&self) -> &[u32] {
        &self.levels
    }

    /// Maximum logic level (circuit depth).
    pub fn depth(&self) -> u32 {
        self.levels.iter().copied().max().unwrap_or(0)
    }

    /// Looks up a net by name — one hash probe into the symbol table, no
    /// scan.
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        let sym = self.symbols.lookup(name)?;
        match self.sym_to_net[sym.index()] {
            u32::MAX => None,
            id => Some(NetId(id)),
        }
    }

    /// All node ids in topological order.
    pub fn node_ids(&self) -> impl Iterator<Item = NetId> + '_ {
        (0..self.kinds.len() as u32).map(NetId)
    }

    /// Returns the position of `id` in the input list, if it is an input.
    /// O(1): PODEM backtrace calls this in its inner loop.
    #[inline]
    pub fn input_position(&self, id: NetId) -> Option<usize> {
        match self.input_pos[id.index()] {
            u32::MAX => None,
            pos => Some(pos as usize),
        }
    }

    /// Returns `true` if the node is a primary (or pseudo primary) output.
    /// O(1): path enumeration calls this per visited node.
    #[inline]
    pub fn is_output(&self, id: NetId) -> bool {
        self.output_flag[id.index()]
    }

    /// Heap bytes owned by the netlist representation itself (arrays,
    /// edge pools, interner arena) — the peak-RSS proxy `netlist_scale`
    /// reports as bytes/gate. Excludes simulator value arrays.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.name.capacity()
            + self.symbols.heap_bytes()
            + self.kinds.capacity() * size_of::<GateKind>()
            + self.names.capacity() * size_of::<Symbol>()
            + self.sym_to_net.capacity() * size_of::<u32>()
            + self.fanin_edges.capacity() * size_of::<NetId>()
            + self.fanin_offsets.capacity() * size_of::<u32>()
            + self.fanout_edges.capacity() * size_of::<NetId>()
            + self.fanout_offsets.capacity() * size_of::<u32>()
            + self.inputs.capacity() * size_of::<NetId>()
            + self.outputs.capacity() * size_of::<NetId>()
            + self.levels.capacity() * size_of::<u32>()
            + self.input_pos.capacity() * size_of::<u32>()
            + self.output_flag.capacity() * size_of::<bool>()
    }
}

impl fmt::Display for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} inputs, {} outputs, {} gates, depth {}",
            self.name,
            self.num_inputs(),
            self.num_outputs(),
            self.num_gates(),
            self.depth()
        )
    }
}

/// Builder for [`Netlist`].
///
/// Nodes accumulate in declaration order with the same flat layout the
/// finished netlist uses (SoA kinds/names, CSR fanins); name uniqueness is
/// enforced through the [`SymbolTable`]'s hash probe, so building never
/// allocates a per-node `String` or map entry.
#[derive(Debug, Clone)]
pub struct NetlistBuilder {
    name: String,
    symbols: SymbolTable,
    kinds: Vec<GateKind>,
    names: Vec<Symbol>,
    /// Symbol index -> declared node id (`u32::MAX` = interned but not a
    /// node, e.g. after a failed `gate` call).
    sym_to_net: Vec<u32>,
    fanin_edges: Vec<NetId>,
    fanin_offsets: Vec<u32>,
    inputs: Vec<NetId>,
    outputs: Vec<NetId>,
}

impl NetlistBuilder {
    /// Starts an empty netlist.
    pub fn new(name: &str) -> Self {
        NetlistBuilder {
            name: name.to_string(),
            symbols: SymbolTable::new(),
            kinds: Vec::new(),
            names: Vec::new(),
            sym_to_net: Vec::new(),
            fanin_edges: Vec::new(),
            fanin_offsets: vec![0],
            inputs: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// Interns `name` and returns its symbol plus the node currently
    /// registered under it (if any).
    fn intern(&mut self, name: &str) -> (Symbol, Option<NetId>) {
        let sym = self.symbols.intern(name);
        if sym.index() >= self.sym_to_net.len() {
            self.sym_to_net.resize(self.symbols.len(), u32::MAX);
        }
        let existing = match self.sym_to_net[sym.index()] {
            u32::MAX => None,
            id => Some(NetId(id)),
        };
        (sym, existing)
    }

    fn push_node(&mut self, sym: Symbol, kind: GateKind, fanins: &[NetId]) -> NetId {
        let id = NetId(self.kinds.len() as u32);
        self.kinds.push(kind);
        self.names.push(sym);
        if sym != NO_NAME {
            self.sym_to_net[sym.index()] = id.0;
        }
        self.fanin_edges.extend_from_slice(fanins);
        let end = u32::try_from(self.fanin_edges.len()).expect("edge pool fits in u32");
        self.fanin_offsets.push(end);
        id
    }

    /// Declares a primary input.
    ///
    /// # Panics
    ///
    /// Panics if the name is already taken (inputs are declared before any
    /// gate that could clash; see [`NetlistBuilder::gate`] for the fallible
    /// path used by parsers).
    pub fn input(&mut self, name: &str) -> NetId {
        let (sym, existing) = self.intern(name);
        assert!(existing.is_none(), "net name `{name}` already declared");
        let id = self.push_node(sym, GateKind::Input, &[]);
        self.inputs.push(id);
        id
    }

    /// Declares an anonymous primary input (Yosys-JSON bits without a
    /// `netnames` entry). Its display name is the `n{index}` fallback.
    pub fn input_anon(&mut self) -> NetId {
        let id = self.push_node(NO_NAME, GateKind::Input, &[]);
        self.inputs.push(id);
        id
    }

    /// Declares a gate driving the net `name`.
    ///
    /// # Errors
    ///
    /// Returns [`BuildNetlistError`] on duplicate names, `Input` kind, or
    /// arity violations (no fanins; `Buf`/`Not` with more than one).
    pub fn gate(
        &mut self,
        name: &str,
        kind: GateKind,
        fanins: Vec<NetId>,
    ) -> Result<NetId, BuildNetlistError> {
        let (sym, existing) = self.intern(name);
        if existing.is_some() {
            return Err(BuildNetlistError::DuplicateName {
                name: name.to_string(),
            });
        }
        self.validate_gate(name, kind, &fanins)?;
        Ok(self.push_node(sym, kind, &fanins))
    }

    /// Declares an anonymous gate (same validation as
    /// [`NetlistBuilder::gate`], minus the name). Errors report the net by
    /// its `n{index}` fallback name.
    pub fn gate_anon(
        &mut self,
        kind: GateKind,
        fanins: Vec<NetId>,
    ) -> Result<NetId, BuildNetlistError> {
        let fallback = NetId(self.kinds.len() as u32).to_string();
        self.validate_gate(&fallback, kind, &fanins)?;
        Ok(self.push_node(NO_NAME, kind, &fanins))
    }

    fn validate_gate(
        &self,
        name: &str,
        kind: GateKind,
        fanins: &[NetId],
    ) -> Result<(), BuildNetlistError> {
        if kind == GateKind::Input {
            return Err(BuildNetlistError::GateCannotBeInput {
                name: name.to_string(),
            });
        }
        if fanins.is_empty() {
            return Err(BuildNetlistError::NoFanins {
                name: name.to_string(),
            });
        }
        if matches!(kind, GateKind::Buf | GateKind::Not) && fanins.len() != 1 {
            return Err(BuildNetlistError::BadArity {
                name: name.to_string(),
                kind,
                arity: fanins.len(),
            });
        }
        if let Some(&bad) = fanins.iter().find(|f| f.index() >= self.kinds.len()) {
            return Err(BuildNetlistError::UnknownFanin {
                name: name.to_string(),
                fanin: bad,
            });
        }
        Ok(())
    }

    /// Marks a net as primary output.
    pub fn output(&mut self, id: NetId) {
        if !self.outputs.contains(&id) {
            self.outputs.push(id);
        }
    }

    /// Looks up a declared net by name.
    pub fn find(&self, name: &str) -> Option<NetId> {
        let sym = self.symbols.lookup(name)?;
        match self.sym_to_net.get(sym.index()) {
            Some(&u32::MAX) | None => None,
            Some(&id) => Some(NetId(id)),
        }
    }

    /// Number of declared nodes so far.
    pub fn num_nodes(&self) -> usize {
        self.kinds.len()
    }

    /// Fanins of a declared node (declaration ids, pre-topological-sort).
    fn fanins_of(&self, i: usize) -> &[NetId] {
        &self.fanin_edges[self.fanin_offsets[i] as usize..self.fanin_offsets[i + 1] as usize]
    }

    /// Validates, topologically sorts, levelizes and freezes the netlist.
    ///
    /// # Errors
    ///
    /// Returns [`BuildNetlistError::Cycle`] if the gates form a cycle and
    /// [`BuildNetlistError::NoNodes`] for an empty builder.
    pub fn finish(self) -> Result<Netlist, BuildNetlistError> {
        if self.kinds.is_empty() {
            return Err(BuildNetlistError::NoNodes);
        }
        let n = self.kinds.len();
        // Kahn's algorithm over the declared graph (declaration order is not
        // guaranteed topological when parsers resolve forward references).
        // The declaration-order fanout CSR is built once by counting sort;
        // edge order per source matches consumer declaration order, which
        // keeps the frontier tie-breaking (and therefore the resulting
        // topological order) identical to the historical nested-Vec code.
        let mut indegree: Vec<u32> = (0..n)
            .map(|i| self.fanin_offsets[i + 1] - self.fanin_offsets[i])
            .collect();
        let mut fo_offsets = vec![0u32; n + 1];
        for &f in &self.fanin_edges {
            fo_offsets[f.index() + 1] += 1;
        }
        for i in 0..n {
            fo_offsets[i + 1] += fo_offsets[i];
        }
        let mut fo_edges = vec![NetId(0); self.fanin_edges.len()];
        let mut cursor: Vec<u32> = fo_offsets[..n].to_vec();
        for i in 0..n {
            for &f in self.fanins_of(i) {
                fo_edges[cursor[f.index()] as usize] = NetId(i as u32);
                cursor[f.index()] += 1;
            }
        }
        let fanouts_of = |i: usize| &fo_edges[fo_offsets[i] as usize..fo_offsets[i + 1] as usize];

        let mut order: Vec<usize> = Vec::with_capacity(n);
        let mut ready: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        // Keep declaration order within each frontier for determinism.
        ready.reverse();
        let mut appended = Vec::new();
        while let Some(i) = ready.pop() {
            order.push(i);
            appended.clear();
            for &fo in fanouts_of(i) {
                indegree[fo.index()] -= 1;
                if indegree[fo.index()] == 0 {
                    appended.push(fo.index());
                }
            }
            appended.sort_unstable_by(|a, b| b.cmp(a));
            ready.extend_from_slice(&appended);
        }
        if order.len() != n {
            return Err(BuildNetlistError::Cycle);
        }
        // Remap ids to topological positions and rebuild every array in
        // topological order.
        let mut remap = vec![NetId(0); n];
        for (pos, &old) in order.iter().enumerate() {
            remap[old] = NetId(pos as u32);
        }
        let mut kinds = Vec::with_capacity(n);
        let mut names = Vec::with_capacity(n);
        let mut fanin_edges = Vec::with_capacity(self.fanin_edges.len());
        let mut fanin_offsets = Vec::with_capacity(n + 1);
        fanin_offsets.push(0u32);
        for &old in &order {
            kinds.push(self.kinds[old]);
            names.push(self.names[old]);
            fanin_edges.extend(self.fanins_of(old).iter().map(|f| remap[f.index()]));
            fanin_offsets.push(fanin_edges.len() as u32);
        }
        let inputs: Vec<NetId> = self.inputs.iter().map(|i| remap[i.index()]).collect();
        let outputs: Vec<NetId> = self.outputs.iter().map(|o| remap[o.index()]).collect();

        // Fanout CSR over the topological ids (counting sort again; per
        // source, consumers appear in topological order) and levels in one
        // forward sweep.
        let mut fanout_offsets = vec![0u32; n + 1];
        for &f in &fanin_edges {
            fanout_offsets[f.index() + 1] += 1;
        }
        for i in 0..n {
            fanout_offsets[i + 1] += fanout_offsets[i];
        }
        let mut fanout_edges = vec![NetId(0); fanin_edges.len()];
        let mut cursor: Vec<u32> = fanout_offsets[..n].to_vec();
        let mut levels = vec![0u32; n];
        for i in 0..n {
            let mut level = 0;
            for &f in &fanin_edges[fanin_offsets[i] as usize..fanin_offsets[i + 1] as usize] {
                fanout_edges[cursor[f.index()] as usize] = NetId(i as u32);
                cursor[f.index()] += 1;
                level = level.max(levels[f.index()] + 1);
            }
            levels[i] = level;
        }

        let mut sym_to_net = vec![u32::MAX; self.symbols.len()];
        for (i, &sym) in names.iter().enumerate() {
            if sym != NO_NAME {
                sym_to_net[sym.index()] = i as u32;
            }
        }
        let mut input_pos = vec![u32::MAX; n];
        for (pos, &id) in inputs.iter().enumerate() {
            input_pos[id.index()] = pos as u32;
        }
        let mut output_flag = vec![false; n];
        for &id in &outputs {
            output_flag[id.index()] = true;
        }

        Ok(Netlist {
            name: self.name,
            symbols: self.symbols,
            kinds,
            names,
            sym_to_net,
            fanin_edges,
            fanin_offsets,
            fanout_edges,
            fanout_offsets,
            inputs,
            outputs,
            levels,
            input_pos,
            output_flag,
        })
    }
}

/// Error building a [`Netlist`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildNetlistError {
    /// Two nets share a name.
    DuplicateName {
        /// The clashing name.
        name: String,
    },
    /// `GateKind::Input` passed to [`NetlistBuilder::gate`].
    GateCannotBeInput {
        /// The offending net.
        name: String,
    },
    /// A gate with no fanins.
    NoFanins {
        /// The offending net.
        name: String,
    },
    /// `Buf`/`Not` with more than one fanin.
    BadArity {
        /// The offending net.
        name: String,
        /// Its kind.
        kind: GateKind,
        /// The observed fanin count.
        arity: usize,
    },
    /// A fanin id that was never declared.
    UnknownFanin {
        /// The offending net.
        name: String,
        /// The undeclared fanin.
        fanin: NetId,
    },
    /// The gate graph contains a cycle.
    Cycle,
    /// The builder is empty.
    NoNodes,
}

impl fmt::Display for BuildNetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildNetlistError::DuplicateName { name } => {
                write!(f, "net name `{name}` declared twice")
            }
            BuildNetlistError::GateCannotBeInput { name } => {
                write!(f, "net `{name}`: gates cannot have kind INPUT")
            }
            BuildNetlistError::NoFanins { name } => {
                write!(f, "gate `{name}` has no fanins")
            }
            BuildNetlistError::BadArity { name, kind, arity } => {
                write!(f, "gate `{name}`: {kind} takes one input, got {arity}")
            }
            BuildNetlistError::UnknownFanin { name, fanin } => {
                write!(f, "gate `{name}` references undeclared net {fanin}")
            }
            BuildNetlistError::Cycle => write!(f, "combinational cycle detected"),
            BuildNetlistError::NoNodes => write!(f, "netlist has no nodes"),
        }
    }
}

impl std::error::Error for BuildNetlistError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn half_adder() -> Netlist {
        let mut b = NetlistBuilder::new("ha");
        let x = b.input("x");
        let y = b.input("y");
        let s = b.gate("s", GateKind::Xor, vec![x, y]).unwrap();
        let c = b.gate("c", GateKind::And, vec![x, y]).unwrap();
        b.output(s);
        b.output(c);
        b.finish().unwrap()
    }

    #[test]
    fn counts_and_levels() {
        let n = half_adder();
        assert_eq!(n.num_inputs(), 2);
        assert_eq!(n.num_gates(), 2);
        assert_eq!(n.num_outputs(), 2);
        assert_eq!(n.depth(), 1);
        for &i in n.inputs() {
            assert_eq!(n.level(i), 0);
        }
    }

    #[test]
    fn topological_invariant() {
        let n = half_adder();
        for id in n.node_ids() {
            for &f in n.fanins(id) {
                assert!(f.index() < id.index(), "fanin after fanout");
            }
        }
    }

    #[test]
    fn fanouts_inverse_of_fanins() {
        let n = half_adder();
        for id in n.node_ids() {
            for &f in n.fanins(id) {
                assert!(n.fanouts(f).contains(&id));
            }
        }
    }

    #[test]
    fn csr_offsets_are_well_formed() {
        let n = half_adder();
        let total: usize = n.node_ids().map(|id| n.fanins(id).len()).sum();
        assert_eq!(total, n.num_edges());
        let total_fo: usize = n.node_ids().map(|id| n.fanouts(id).len()).sum();
        assert_eq!(total_fo, n.num_edges());
    }

    #[test]
    fn forward_references_are_sorted_out() {
        // Declare the consumer before the producer via direct builder ids.
        let mut b = NetlistBuilder::new("fwd");
        let x = b.input("x");
        let inv = b.gate("inv", GateKind::Not, vec![x]).unwrap();
        let buf = b.gate("buf", GateKind::Buf, vec![inv]).unwrap();
        b.output(buf);
        let n = b.finish().unwrap();
        assert_eq!(n.depth(), 2);
        assert_eq!(n.find_net("buf").map(|id| n.level(id)), Some(2));
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut b = NetlistBuilder::new("dup");
        let x = b.input("x");
        assert!(matches!(
            b.gate("x", GateKind::Not, vec![x]),
            Err(BuildNetlistError::DuplicateName { .. })
        ));
    }

    #[test]
    fn arity_validated() {
        let mut b = NetlistBuilder::new("bad");
        let x = b.input("x");
        let y = b.input("y");
        assert!(matches!(
            b.gate("n", GateKind::Not, vec![x, y]),
            Err(BuildNetlistError::BadArity { .. })
        ));
        assert!(matches!(
            b.gate("g", GateKind::And, vec![]),
            Err(BuildNetlistError::NoFanins { .. })
        ));
    }

    #[test]
    fn failed_gate_does_not_leak_a_node_or_name() {
        let mut b = NetlistBuilder::new("leak");
        let x = b.input("x");
        let y = b.input("y");
        assert!(b.gate("bad", GateKind::Not, vec![x, y]).is_err());
        assert_eq!(b.num_nodes(), 2);
        assert_eq!(b.find("bad"), None);
        // The name is reusable after the failed attempt.
        assert!(b.gate("bad", GateKind::Not, vec![x]).is_ok());
    }

    #[test]
    fn empty_netlist_rejected() {
        assert!(matches!(
            NetlistBuilder::new("empty").finish(),
            Err(BuildNetlistError::NoNodes)
        ));
    }

    #[test]
    fn anonymous_nodes_fall_back_to_index_names() {
        let mut b = NetlistBuilder::new("anon");
        let x = b.input_anon();
        let y = b.input("named");
        let g = b.gate_anon(GateKind::And, vec![x, y]).unwrap();
        b.output(g);
        let n = b.finish().unwrap();
        let g = n.outputs()[0];
        assert_eq!(n.net_name(g), None);
        assert_eq!(n.name_of(g).to_string(), format!("n{}", g.index()));
        let named = n.find_net("named").unwrap();
        assert_eq!(n.net_name(named), Some("named"));
        assert_eq!(n.name_of(named).to_string(), "named");
        assert_eq!(n.find_net(&n.name_of(g).to_string()), None);
    }

    #[test]
    fn input_position_and_output_flag_are_exact() {
        let n = half_adder();
        for (pos, &id) in n.inputs().iter().enumerate() {
            assert_eq!(n.input_position(id), Some(pos));
        }
        for id in n.node_ids() {
            let expect = n.outputs().contains(&id);
            assert_eq!(n.is_output(id), expect);
            if n.input_position(id).is_some() {
                assert_eq!(n.kind(id), GateKind::Input);
            }
        }
    }

    #[test]
    fn heap_bytes_is_plausible() {
        let n = half_adder();
        let bytes = n.heap_bytes();
        // At minimum the edge pools and offset arrays are counted.
        assert!(bytes >= n.num_edges() * 2 * std::mem::size_of::<NetId>());
        assert!(bytes < 1 << 20, "tiny netlist reports {bytes} bytes");
    }

    #[test]
    fn display_summarizes() {
        let s = half_adder().to_string();
        assert!(s.contains("2 inputs") && s.contains("2 gates"));
    }
}
