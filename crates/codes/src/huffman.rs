//! Huffman and canonical Huffman codes.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::codeword::Codeword;
use crate::prefix::PrefixCode;

/// Computes optimal (minimum-redundancy) codeword lengths for the given
/// symbol frequencies using Huffman's algorithm (the paper's reference
/// \[29\]).
///
/// Zero-frequency symbols get length `0`, meaning *no codeword allocated* —
/// the paper notes that "an MV with a frequency of 0 can be simply left out
/// without allocating a codeword to it" (Section 3.3). A single used symbol
/// also gets length `0` (nothing needs to be transmitted to identify it);
/// callers that require a non-degenerate code should clamp to one bit.
///
/// Ties are broken deterministically (by symbol index) so repeated runs
/// produce identical codes.
///
/// # Example
///
/// ```
/// use evotc_codes::huffman_lengths;
///
/// assert_eq!(huffman_lengths(&[5, 3, 2]), vec![1, 2, 2]);
/// assert_eq!(huffman_lengths(&[4, 0, 1]), vec![1, 0, 1]);
/// ```
pub fn huffman_lengths(freqs: &[u64]) -> Vec<usize> {
    let used: Vec<usize> = freqs
        .iter()
        .enumerate()
        .filter(|(_, &f)| f > 0)
        .map(|(i, _)| i)
        .collect();
    let mut lengths = vec![0usize; freqs.len()];
    match used.len() {
        0 => return lengths,
        1 => return lengths, // single symbol: zero bits suffice
        _ => {}
    }

    // Nodes: leaves are (freq, tiebreak, id); internal nodes get fresh ids.
    #[derive(PartialEq, Eq, PartialOrd, Ord)]
    struct Item {
        freq: u64,
        tiebreak: u64,
        node: usize,
    }
    let mut parent: Vec<Option<usize>> = vec![None; used.len()];
    let mut heap: BinaryHeap<Reverse<Item>> = used
        .iter()
        .enumerate()
        .map(|(node, &sym)| {
            Reverse(Item {
                freq: freqs[sym],
                tiebreak: sym as u64,
                node,
            })
        })
        .collect();
    let mut next_tiebreak = freqs.len() as u64;
    while heap.len() > 1 {
        let a = heap.pop().expect("len > 1").0;
        let b = heap.pop().expect("len > 1").0;
        let merged = parent.len();
        parent.push(None);
        parent[a.node] = Some(merged);
        parent[b.node] = Some(merged);
        heap.push(Reverse(Item {
            freq: a.freq + b.freq,
            tiebreak: next_tiebreak,
            node: merged,
        }));
        next_tiebreak += 1;
    }
    for (leaf, &sym) in used.iter().enumerate() {
        let mut depth = 0usize;
        let mut at = leaf;
        while let Some(p) = parent[at] {
            depth += 1;
            at = p;
        }
        lengths[sym] = depth;
    }
    lengths
}

/// Assigns canonical codewords to the given lengths.
///
/// Symbols with length `0` receive the empty codeword (unused symbols).
/// Canonical assignment orders codewords by `(length, symbol index)` which
/// minimizes decoder table complexity and makes the code reproducible.
///
/// # Panics
///
/// Panics if the lengths violate the Kraft inequality (cannot form a prefix
/// code) or exceed 64 bits.
pub fn canonical_codewords(lengths: &[usize]) -> Vec<Codeword> {
    let mut order: Vec<usize> = (0..lengths.len()).filter(|&i| lengths[i] > 0).collect();
    order.sort_by_key(|&i| (lengths[i], i));
    let mut out = vec![Codeword::empty(); lengths.len()];
    let mut code: u64 = 0;
    let mut prev_len = 0usize;
    for &i in &order {
        let len = lengths[i];
        assert!(len <= Codeword::MAX_LEN, "codeword length {len} too large");
        code <<= len - prev_len;
        out[i] = Codeword::from_bits(code, len);
        // Detect Kraft violation: the incremented code must still fit.
        let fits = if len == 64 {
            code != u64::MAX
        } else {
            code < (1u64 << len)
        };
        assert!(fits, "codeword lengths violate the Kraft inequality");
        code += 1;
        prev_len = len;
    }
    out
}

/// Builds a canonical prefix code from codeword lengths, keeping only the
/// used symbols meaningful (unused symbols share the empty codeword and must
/// not be encoded).
///
/// # Panics
///
/// Panics if the lengths violate the Kraft inequality or exceed 64 bits.
pub fn canonical_code(lengths: &[usize]) -> PrefixCode {
    let words = canonical_codewords(lengths);
    // PrefixCode validation rejects empty codewords in multi-symbol codes, so
    // validate over used symbols only, then re-inflate.
    let used: Vec<Codeword> = words.iter().copied().filter(|c| !c.is_empty()).collect();
    if used.len() >= 2 {
        PrefixCode::new(used).expect("canonical codewords form a prefix code");
    }
    PrefixCode::new_unchecked(words)
}

/// Reusable buffers for [`huffman_weighted_length`].
///
/// The EA fitness kernel computes a Huffman *cost* thousands of times per
/// generation; keeping the two merge queues alive across calls makes the
/// computation allocation-free after the first use.
#[derive(Debug, Clone, Default)]
pub struct HuffmanScratch {
    /// Nonzero frequencies, sorted ascending (the leaf queue).
    leaves: Vec<u64>,
    /// Merge weights in creation order (nondecreasing — the node queue).
    merged: Vec<u64>,
}

impl HuffmanScratch {
    /// Creates empty scratch buffers; they grow on first use and are reused
    /// afterwards.
    pub fn new() -> Self {
        HuffmanScratch::default()
    }
}

/// Computes `Σ fᵢ·lᵢ` — the total codeword bits of an optimal
/// (minimum-redundancy) prefix code for `freqs` — without building a tree,
/// codewords, or a [`PrefixCode`].
///
/// Uses the sum-of-merge-weights identity: the weighted external path length
/// of a Huffman tree equals the sum of the weights of all internal (merged)
/// nodes. The two-queue construction over pre-sorted leaves makes each call
/// `O(n log n)` time and zero allocations once `scratch` has warmed up.
///
/// The result is **bit-identical** to pricing the code built by
/// [`huffman_code`]: all optimal prefix codes share the same weighted total,
/// so tie-breaking differences cannot change the sum, and the degenerate
/// cases match `huffman_code`'s conventions — zero-frequency symbols cost
/// nothing, and a single used symbol is clamped to a one-bit codeword.
///
/// # Example
///
/// ```
/// use evotc_codes::{huffman_weighted_length, HuffmanScratch};
///
/// let mut scratch = HuffmanScratch::new();
/// // freqs 5,3,2 -> lengths 1,2,2 -> 5*1 + 3*2 + 2*2 = 15 bits
/// assert_eq!(huffman_weighted_length(&[5, 3, 2], &mut scratch), 15);
/// // Single used symbol: clamped to one bit, as in `huffman_code`.
/// assert_eq!(huffman_weighted_length(&[0, 42, 0], &mut scratch), 42);
/// ```
pub fn huffman_weighted_length(freqs: &[u64], scratch: &mut HuffmanScratch) -> u64 {
    scratch.leaves.clear();
    scratch
        .leaves
        .extend(freqs.iter().copied().filter(|&f| f > 0));
    scratch.leaves.sort_unstable();
    merge_total(&scratch.leaves, &mut scratch.merged)
}

/// The two-queue Huffman merge over a pre-sorted leaf queue: the smallest
/// unconsumed weight is always at the front of either the sorted leaf queue
/// or the FIFO of merge results (merge weights are produced in nondecreasing
/// order). Shared by [`huffman_weighted_length`] and
/// [`huffman_weighted_length_delta`], so the two paths cannot drift apart.
fn merge_total(leaves: &[u64], merged: &mut Vec<u64>) -> u64 {
    merged.clear();
    match leaves.len() {
        0 => return 0,
        // One used symbol: `huffman_code` clamps its codeword to one bit so
        // the stream stays self-delimiting; price it the same way.
        1 => return leaves[0],
        _ => {}
    }
    let mut li = 0usize; // front of the leaf queue
    let mut mi = 0usize; // front of the merged queue
    let mut total = 0u64;
    let rounds = leaves.len() - 1;
    for _ in 0..rounds {
        let mut take = || {
            let leaf = leaves.get(li).copied();
            let node = merged.get(mi).copied();
            match (leaf, node) {
                // Prefer the leaf on ties: either choice yields an optimal
                // tree, and therefore the same total.
                (Some(l), Some(n)) if l <= n => {
                    li += 1;
                    l
                }
                (Some(l), None) => {
                    li += 1;
                    l
                }
                (_, Some(n)) => {
                    mi += 1;
                    n
                }
                (None, None) => unreachable!("queues exhausted before n-1 merges"),
            }
        };
        let merged_weight = take() + take();
        total += merged_weight;
        merged.push(merged_weight);
    }
    total
}

/// The sorted nonzero-frequency leaf queue of a previous Huffman pricing,
/// kept alive so a later pricing that changes only a few frequencies can be
/// computed from a delta instead of a fresh sort (see
/// [`huffman_weighted_length_delta`]).
#[derive(Debug, Clone, Default)]
pub struct HuffmanDeltaState {
    /// Nonzero frequencies, sorted ascending.
    leaves: Vec<u64>,
    /// Cached `Σ fᵢ·lᵢ` of `leaves` — maintained eagerly by [`reset`], so
    /// an all-no-op delta can be priced without re-running the merge.
    ///
    /// [`reset`]: HuffmanDeltaState::reset
    total: u64,
    /// Merge-weight FIFO (scratch for the two-queue merge).
    merged: Vec<u64>,
    /// Sorted removals of the current batched patch (scratch).
    removals: Vec<u64>,
    /// Sorted insertions of the current batched patch (scratch).
    insertions: Vec<u64>,
}

impl HuffmanDeltaState {
    /// Creates an empty state (no symbols used).
    pub fn new() -> Self {
        HuffmanDeltaState::default()
    }

    /// Rebuilds the leaf queue from a frequency vector, dropping zeros, and
    /// recomputes the cached weighted length.
    pub fn reset(&mut self, freqs: &[u64]) {
        self.leaves.clear();
        self.leaves.extend(freqs.iter().copied().filter(|&f| f > 0));
        self.leaves.sort_unstable();
        self.total = merge_total(&self.leaves, &mut self.merged);
    }

    /// The sorted nonzero frequencies currently held.
    pub fn leaves(&self) -> &[u64] {
        &self.leaves
    }

    /// Total codeword bits of an optimal prefix code for the held
    /// frequencies — [`huffman_weighted_length`] without the sort (cached,
    /// so this is free).
    pub fn weighted_length(&self) -> u64 {
        self.total
    }
}

/// Computes `Σ fᵢ·lᵢ` for a frequency vector that differs from `base` in a
/// few entries, without re-sorting from scratch: `base`'s sorted leaf queue
/// is copied into `scratch`, each `(old, new)` change is applied with a
/// binary-searched remove/insert (a frequency of `0` on either side means
/// the symbol is absent there), and the two-queue merge runs over the
/// patched queue.
///
/// `base` is untouched, so one cached parent state can price many
/// speculative children. The result is **bit-identical** to
/// [`huffman_weighted_length`] over the patched frequency vector — both are
/// the unique optimal weighted total of the same leaf multiset.
///
/// # Panics
///
/// Panics if a change's `old` frequency is not present in `base` — the
/// caller's bookkeeping of what changed is wrong, and pricing a queue that
/// silently drifted from the real frequencies would corrupt every
/// evaluation after it.
///
/// # Example
///
/// ```
/// use evotc_codes::{
///     huffman_weighted_length, huffman_weighted_length_delta, HuffmanDeltaState, HuffmanScratch,
/// };
///
/// let mut base = HuffmanDeltaState::new();
/// base.reset(&[5, 3, 2]);
/// let mut scratch = HuffmanDeltaState::new();
/// // 5,3,2 -> 5,3,4: same total as pricing [5, 3, 4] from scratch.
/// let patched = huffman_weighted_length_delta(&base, &[(2, 4)], &mut scratch);
/// assert_eq!(
///     patched,
///     huffman_weighted_length(&[5, 3, 4], &mut HuffmanScratch::new())
/// );
/// // The base state still prices the original frequencies.
/// assert_eq!(base.leaves(), &[2, 3, 5]);
/// ```
pub fn huffman_weighted_length_delta(
    base: &HuffmanDeltaState,
    changes: &[(u64, u64)],
    scratch: &mut HuffmanDeltaState,
) -> u64 {
    let effective = changes.iter().filter(|(old, new)| old != new).count();
    if effective == 0 {
        // An all-no-op netted delta (every `old == new`, e.g. a crossover
        // window whose frequency changes cancel out): the patched queue IS
        // the base queue, already priced. Skip the patch machinery and the
        // merge entirely — the queue is only mirrored into `scratch`, whose
        // `leaves()` callers read as the patched queue.
        // No-op pairs are never validated against the queue, so phantom
        // `(x, x)` entries cannot panic here regardless of how many there
        // are.
        scratch.leaves.clone_from(&base.leaves);
        return base.weighted_length();
    }
    if effective > BATCH_PATCH_THRESHOLD {
        patch_leaves_batched(base, changes, scratch);
    } else {
        patch_leaves_pointwise(base, changes, scratch);
    }
    let leaves = std::mem::take(&mut scratch.leaves);
    let total = merge_total(&leaves, &mut scratch.merged);
    scratch.leaves = leaves;
    total
}

/// Above this many effective changes the batched merge patch beats repeated
/// `Vec::remove`/`insert` shifts (each `O(n)`); below it, the pointwise
/// binary searches have the smaller constant. Both produce the identical
/// leaf multiset, so the crossover point is pure tuning.
const BATCH_PATCH_THRESHOLD: usize = 3;

/// The single-edit patch: one binary-searched remove/insert per change.
fn patch_leaves_pointwise(
    base: &HuffmanDeltaState,
    changes: &[(u64, u64)],
    scratch: &mut HuffmanDeltaState,
) {
    scratch.leaves.clear();
    scratch.leaves.extend_from_slice(&base.leaves);
    for &(old, new) in changes {
        if old == new {
            continue;
        }
        if old > 0 {
            let at = scratch
                .leaves
                .binary_search(&old)
                .unwrap_or_else(|_| panic!("old frequency {old} not in the leaf queue"));
            scratch.leaves.remove(at);
        }
        if new > 0 {
            let at = scratch.leaves.binary_search(&new).unwrap_or_else(|e| e);
            scratch.leaves.insert(at, new);
        }
    }
}

/// The multi-edit patch: sorts the removals and insertions once, then
/// produces the patched queue in a single three-way merge pass over the base
/// queue — `O(n + c log c)` for `c` changes instead of `O(n · c)` shifting.
/// This is what keeps wide crossover/inversion windows (many MV frequencies
/// changing at once) as cheap to re-price as a point mutation.
fn patch_leaves_batched(
    base: &HuffmanDeltaState,
    changes: &[(u64, u64)],
    scratch: &mut HuffmanDeltaState,
) {
    scratch.removals.clear();
    scratch.insertions.clear();
    for &(old, new) in changes {
        if old == new {
            continue;
        }
        if old > 0 {
            scratch.removals.push(old);
        }
        if new > 0 {
            scratch.insertions.push(new);
        }
    }
    scratch.removals.sort_unstable();
    scratch.insertions.sort_unstable();

    scratch.leaves.clear();
    let mut ri = 0usize; // front of the sorted removal queue
    let mut ii = 0usize; // front of the sorted insertion queue
    for &leaf in &base.leaves {
        // Multiset subtraction: each removal cancels exactly one equal leaf.
        // A removal smaller than the current leaf can no longer match
        // anything (both queues are sorted) — the caller's bookkeeping of
        // what changed is wrong, exactly as in the pointwise path.
        if ri < scratch.removals.len() && scratch.removals[ri] == leaf {
            ri += 1;
            continue;
        }
        assert!(
            ri >= scratch.removals.len() || scratch.removals[ri] > leaf,
            "old frequency {} not in the leaf queue",
            scratch.removals[ri]
        );
        while ii < scratch.insertions.len() && scratch.insertions[ii] <= leaf {
            scratch.leaves.push(scratch.insertions[ii]);
            ii += 1;
        }
        scratch.leaves.push(leaf);
    }
    assert!(
        ri >= scratch.removals.len(),
        "old frequency {} not in the leaf queue",
        scratch.removals[ri]
    );
    while ii < scratch.insertions.len() {
        scratch.leaves.push(scratch.insertions[ii]);
        ii += 1;
    }
}

/// Builds an optimal prefix code directly from frequencies:
/// Huffman lengths + canonical assignment. With exactly one used symbol the
/// codeword is clamped to one bit (`0`) so the stream remains self-delimiting
/// for hardware decoders.
///
/// # Example
///
/// ```
/// use evotc_codes::huffman_code;
///
/// let code = huffman_code(&[8, 1, 1]);
/// assert_eq!(code.codeword(0).len(), 1);
/// assert_eq!(code.codeword(1).len(), 2);
/// ```
pub fn huffman_code(freqs: &[u64]) -> PrefixCode {
    let mut lengths = huffman_lengths(freqs);
    let used = freqs.iter().filter(|&&f| f > 0).count();
    if used == 1 {
        let only = freqs
            .iter()
            .position(|&f| f > 0)
            .expect("one symbol is used");
        lengths[only] = 1;
    }
    canonical_code(&lengths)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn total_bits(freqs: &[u64]) -> u64 {
        let code = huffman_code(freqs);
        code.codewords()
            .iter()
            .zip(freqs)
            .map(|(c, &f)| c.len() as u64 * f)
            .sum()
    }

    #[test]
    fn classic_example() {
        // freqs 5,3,2 -> lengths 1,2,2 -> 5*1+3*2+2*2 = 15 bits
        assert_eq!(total_bits(&[5, 3, 2]), 15);
    }

    #[test]
    fn paper_section_3_3_example() {
        // v1 freq 5, v2 freq 3, v3 freq 2: Huffman gives C(v1)='0',
        // C(v2)/C(v3) two bits each (paper, Section 3.3).
        let code = huffman_code(&[5, 3, 2]);
        assert_eq!(code.codeword(0).len(), 1);
        assert_eq!(code.codeword(1).len(), 2);
        assert_eq!(code.codeword(2).len(), 2);
    }

    #[test]
    fn zero_frequency_symbols_are_skipped() {
        let lengths = huffman_lengths(&[0, 7, 0, 7]);
        assert_eq!(lengths, vec![0, 1, 0, 1]);
        let code = huffman_code(&[0, 7, 0, 7]);
        assert!(code.codeword(0).is_empty());
        assert_eq!(code.codeword(1).len(), 1);
    }

    #[test]
    fn single_used_symbol_clamped_to_one_bit() {
        let code = huffman_code(&[0, 42, 0]);
        assert_eq!(code.codeword(1).len(), 1);
    }

    #[test]
    fn all_zero_frequencies_yield_empty_words() {
        let lengths = huffman_lengths(&[0, 0]);
        assert_eq!(lengths, vec![0, 0]);
    }

    #[test]
    fn equal_frequencies_give_balanced_code() {
        let lengths = huffman_lengths(&[1, 1, 1, 1]);
        assert_eq!(lengths, vec![2, 2, 2, 2]);
    }

    #[test]
    fn huffman_beats_or_ties_fixed_length() {
        // For skewed distributions Huffman must beat ceil(log2(n))-bit codes.
        let freqs = [100, 10, 5, 1];
        let fixed = 2 * freqs.iter().sum::<u64>();
        assert!(total_bits(&freqs) < fixed);
    }

    #[test]
    fn canonical_codewords_are_sorted_and_prefix_free() {
        let lengths = huffman_lengths(&[9, 5, 3, 2, 1]);
        let words = canonical_codewords(&lengths);
        for (i, a) in words.iter().enumerate() {
            for (j, b) in words.iter().enumerate() {
                if i != j && !a.is_empty() && !b.is_empty() {
                    assert!(!a.is_prefix_of(b), "{a} prefixes {b}");
                }
            }
        }
    }

    #[test]
    fn deterministic_under_ties() {
        let a = huffman_code(&[3, 3, 3, 3, 3]);
        let b = huffman_code(&[3, 3, 3, 3, 3]);
        assert_eq!(a, b);
    }

    #[test]
    fn weighted_length_matches_code_pricing() {
        let mut scratch = HuffmanScratch::new();
        let cases: [&[u64]; 10] = [
            &[5, 3, 2],
            &[1, 1, 1, 1],
            &[100, 10, 5, 1],
            &[0, 7, 0, 7],
            &[0, 42, 0],
            &[0, 0],
            &[],
            &[3, 3, 3, 3, 3],
            &[9, 5, 3, 2, 1],
            &[1, 2, 4, 8, 16, 32, 64, 128],
        ];
        for freqs in cases {
            assert_eq!(
                huffman_weighted_length(freqs, &mut scratch),
                total_bits(freqs),
                "freqs {freqs:?}"
            );
        }
    }

    #[test]
    fn weighted_length_scratch_is_reusable_across_shapes() {
        // Alternate large and small inputs through one scratch: stale
        // buffer contents must never leak into a later call.
        let mut scratch = HuffmanScratch::new();
        for _ in 0..3 {
            assert_eq!(huffman_weighted_length(&[5, 3, 2], &mut scratch), 15);
            let big: Vec<u64> = (1..=64).collect();
            assert_eq!(
                huffman_weighted_length(&big, &mut scratch),
                total_bits(&big)
            );
            assert_eq!(huffman_weighted_length(&[0, 0, 9], &mut scratch), 9);
        }
    }

    #[test]
    fn delta_pricing_matches_full_pricing() {
        let mut full = HuffmanScratch::new();
        let mut scratch = HuffmanDeltaState::new();
        type Case = (&'static [u64], &'static [(u64, u64)], &'static [u64]);
        let cases: [Case; 6] = [
            // (base freqs, changes, patched freqs)
            (&[5, 3, 2], &[(2, 4)], &[5, 3, 4]),
            (&[5, 3, 2], &[(5, 0)], &[0, 3, 2]), // removal
            (&[5, 3], &[(0, 9)], &[5, 3, 9]),    // insertion
            (&[7, 7, 7], &[(7, 1), (7, 2)], &[1, 2, 7]), // duplicates
            (&[4], &[(4, 0)], &[]),              // down to no symbols
            (&[], &[(0, 6)], &[6]),              // up from none
        ];
        for (base_freqs, changes, patched) in cases {
            let mut base = HuffmanDeltaState::new();
            base.reset(base_freqs);
            let before = base.leaves().to_vec();
            let delta = huffman_weighted_length_delta(&base, changes, &mut scratch);
            assert_eq!(
                delta,
                huffman_weighted_length(patched, &mut full),
                "base {base_freqs:?} changes {changes:?}"
            );
            // The base state is untouched and still prices the original.
            assert_eq!(base.leaves(), before);
            assert_eq!(
                base.weighted_length(),
                huffman_weighted_length(base_freqs, &mut full)
            );
        }
    }

    #[test]
    fn batched_delta_matches_pointwise_and_full_pricing() {
        // More than BATCH_PATCH_THRESHOLD effective changes routes through
        // the merge-based patch; the result must equal both the pointwise
        // patch and pricing the patched vector from scratch.
        let mut full = HuffmanScratch::new();
        let mut base = HuffmanDeltaState::new();
        base.reset(&[5, 3, 2, 7, 7, 11, 1]);
        let changes: Vec<(u64, u64)> = vec![(5, 6), (3, 0), (0, 4), (7, 2), (7, 7), (11, 1)];
        assert!(changes.iter().filter(|(o, n)| o != n).count() > super::BATCH_PATCH_THRESHOLD);
        let mut scratch = HuffmanDeltaState::new();
        let batched = huffman_weighted_length_delta(&base, &changes, &mut scratch);
        let patched: &[u64] = &[6, 0, 2, 2, 7, 1, 1, 4];
        assert_eq!(batched, huffman_weighted_length(patched, &mut full));
        // Pointwise on the same changes (splitting keeps each call under the
        // threshold) agrees step by step with resetting to the patched
        // frequencies.
        let mut freqs = vec![5, 3, 2, 7, 7, 11, 1];
        let mut state = HuffmanDeltaState::new();
        state.reset(&freqs);
        for &(old, new) in &changes {
            let total = huffman_weighted_length_delta(&state, &[(old, new)], &mut scratch);
            match freqs.iter().position(|&f| f == old && old != 0) {
                Some(i) => freqs[i] = new,
                None => freqs.push(new),
            }
            state.reset(&freqs);
            assert_eq!(state.weighted_length(), total, "change ({old}, {new})");
        }
        assert_eq!(state.weighted_length(), batched);
        // The base is untouched either way.
        assert_eq!(base.leaves(), &[1, 2, 3, 5, 7, 7, 11]);
    }

    #[test]
    fn all_noop_delta_early_returns_without_patching() {
        // Regression: an all-zero netted delta (every old == new) must be
        // priced straight from the base's cached total — no patch, no merge
        // — while still mirroring the queue into the scratch, whose
        // `leaves()` the incremental probe reads as the patched queue.
        let mut full = HuffmanScratch::new();
        let mut base = HuffmanDeltaState::new();
        base.reset(&[5, 3, 2, 7]);
        let mut scratch = HuffmanDeltaState::new();
        // Phantom (x, x) pairs — values absent from the queue — are legal
        // no-ops and must not panic, even with enough of them to exceed the
        // batched-path threshold were they counted as effective.
        let noop = [(5u64, 5u64), (100, 100), (0, 0), (42, 42), (7, 7)];
        assert!(noop.len() > super::BATCH_PATCH_THRESHOLD);
        let total = huffman_weighted_length_delta(&base, &noop, &mut scratch);
        assert_eq!(total, huffman_weighted_length(&[5, 3, 2, 7], &mut full));
        assert_eq!(base.leaves(), &[2, 3, 5, 7]);
        // The scratch mirrors the (unchanged) queue, and resetting to the
        // patched frequencies prices the same total.
        assert_eq!(scratch.leaves(), base.leaves());
        let mut patched = HuffmanDeltaState::new();
        patched.reset(scratch.leaves());
        assert_eq!(patched.weighted_length(), total);
        // The empty change list takes the same early return.
        assert_eq!(
            huffman_weighted_length_delta(&base, &[], &mut scratch),
            total
        );
    }

    #[test]
    #[should_panic(expected = "not in the leaf queue")]
    fn batched_delta_rejects_phantom_old_frequencies() {
        let mut base = HuffmanDeltaState::new();
        base.reset(&[5, 3, 9, 9]);
        // 5 effective changes force the batched path; the (4, _) removal is
        // phantom.
        let changes = [(5, 1), (3, 2), (9, 8), (9, 7), (4, 6)];
        let _ = huffman_weighted_length_delta(&base, &changes, &mut HuffmanDeltaState::new());
    }

    #[test]
    fn delta_state_reset_drops_zeros_and_sorts() {
        let mut state = HuffmanDeltaState::new();
        state.reset(&[0, 9, 0, 2, 5]);
        assert_eq!(state.leaves(), &[2, 5, 9]);
        assert_eq!(
            state.weighted_length(),
            huffman_weighted_length(&[9, 2, 5], &mut HuffmanScratch::new())
        );
    }

    #[test]
    #[should_panic(expected = "not in the leaf queue")]
    fn delta_rejects_phantom_old_frequencies() {
        let mut base = HuffmanDeltaState::new();
        base.reset(&[5, 3]);
        let _ = huffman_weighted_length_delta(&base, &[(4, 1)], &mut HuffmanDeltaState::new());
    }

    #[test]
    fn optimality_vs_exhaustive_small() {
        // Compare against brute force over all monotone length vectors for
        // 3 symbols with small lengths.
        let freqs = [7u64, 2, 1];
        let best_huff = total_bits(&freqs);
        let mut best = u64::MAX;
        for l0 in 1..=3u64 {
            for l1 in 1..=3u64 {
                for l2 in 1..=3u64 {
                    let kraft: f64 = [l0, l1, l2].iter().map(|&l| 2f64.powi(-(l as i32))).sum();
                    if kraft <= 1.0 + 1e-12 {
                        best = best.min(7 * l0 + 2 * l1 + l2);
                    }
                }
            }
        }
        assert_eq!(best_huff, best);
    }
}
