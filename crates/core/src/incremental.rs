//! Incremental fitness re-evaluation via parent→child provenance.
//!
//! The EA's operators edit a gene window, but the scratch kernel
//! ([`crate::encoded_size_scratch`]) re-prices the whole individual — decode
//! all `L` MVs, rescan the covering, rebuild the Huffman cost — on every
//! evaluation. This module keeps the parent's work in an [`EvalCache`]
//! (built once by [`encoded_size_rebuild`]) and re-prices an arbitrary edit
//! window from deltas with [`encoded_size_probe`]:
//!
//! 1. The edited window is decoded into the (sorted) set of MV chunks whose
//!    planes actually changed; every unchanged plane pair is reused. A
//!    point mutation changes at most one chunk; crossover and inversion
//!    windows change several.
//! 2. The covering is *patched*, not rescanned — once per changed chunk.
//!    The cache stores the covering as per-MV **owned-block bitsets** (plus
//!    a per-block owner table), so a single-MV edit is bitset algebra:
//!    blocks move **to** the edited MV (the steal set is its new match set
//!    — one pass over the [`SlicedHistogram`]'s conflict planes — masked by
//!    the blocks of earlier-ranked owners, all word operations) or **away
//!    from** it (orphan candidates are exactly its owned bits, re-flowed to
//!    the first matching MV with the weave point found by one binary search
//!    in the key-sorted covering order). Blocks owned by MVs earlier in
//!    covering order are untouched by construction. The patch only reads
//!    the covering it starts from: the first changed chunk patches the
//!    parent's, and when more chunks follow, its moves are applied to a
//!    working copy that the next chunk patches — each intermediate state is
//!    the consistent covering of an intermediate genome, so the single-MV
//!    invariants hold at every step.
//! 3. The Huffman part is re-priced from **one** accumulated frequency
//!    delta ([`evotc_codes::huffman_weighted_length_delta`]) against the
//!    parent's sorted leaf queue — not one rebuild per chunk: per-MV
//!    frequency changes are netted across all chunks first, and the delta
//!    state patches its queue with a single batched merge.
//!
//! Ownership is tracked by MV (genome index) and compared via the canonical
//! [`covering_key`], so an edit that changes an MV's `N_U` — and therefore
//! its *position* in covering order — is still a patch: the key comparison
//! re-ranks the moved MV without renumbering anything.
//!
//! The probe is **bit-identical** to the full kernel for every edit
//! (enforced by `tests/props_incremental.rs` and the CI equivalence gate).
//! It never writes to the cache — the per-call working memory lives in a
//! caller-owned [`PatchScratch`] — so one cached parent prices all of its
//! children. [`crate::MvFitnessState`] keeps one island's parent caches and
//! its scratch.
//!
//! A probed child that is likely to become a parent itself need not be
//! rebuilt later: [`encoded_size_keep`] replays the probe's block moves,
//! chunk by chunk, on a copy of the parent's covering, which leaves
//! exactly the cache [`encoded_size_rebuild`] would build for the child.
//! It answers [`IncrementalOutcome::NeedsFull`] when the cache is cold, the
//! shapes differ, or — with the cost gate on — a multi-chunk patch is
//! estimated to cost more than a full rescan.

use std::ops::Range;

use evotc_bits::{SlicedHistogram, Trit};
use evotc_codes::{huffman_weighted_length_delta, HuffmanDeltaState};

use crate::kernel::{block_transitions, chunks_of, decode_chunk, trits_equal, MatchMemo};
use crate::mvset::covering_key;

/// A parent genome's fully evaluated covering state, reusable to price
/// lightly edited children in time proportional to the edit.
///
/// Build it with [`encoded_size_rebuild`], then price children against it
/// with [`encoded_size_probe`]. Probing never writes to the cache, so one
/// cache can be shared read-only across threads. One cache holds one
/// genome; buffers are retained across rebuilds, so recycling a cache for a
/// different parent costs no allocations after warm-up.
///
/// # Example
///
/// ```
/// use evotc_bits::{BlockHistogram, SlicedHistogram, TestSet, TestSetString, Trit};
/// use evotc_core::{
///     encoded_size_probe, encoded_size_rebuild, encoded_size_scratch, EvalCache, EvalScratch,
///     IncrementalOutcome, PatchScratch,
/// };
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let set = TestSet::parse(&["110100XX", "110000XX", "11010000"])?;
/// let hist = BlockHistogram::from_string(&TestSetString::new(&set, 4));
/// let sliced = SlicedHistogram::from_histogram(&hist);
/// let parent: Vec<Trit> = evotc_bits::parse_trits("110U0000UUUU")?;
/// let mut cache = EvalCache::new();
/// let full = encoded_size_rebuild(&sliced, &parent, true, &mut cache);
/// let mut scratch = PatchScratch::new();
///
/// // Mutate one gene and re-price incrementally.
/// let mut child = parent.clone();
/// child[5] = Trit::One;
/// let inc = encoded_size_probe(&sliced, &child, true, &(5..6), &cache, &mut scratch, true);
/// let reference = encoded_size_scratch(&sliced, &child, &mut EvalScratch::new());
/// assert_eq!(inc, IncrementalOutcome::Size(reference));
///
/// // An inversion window spanning two MV chunks.
/// let mut child = parent.clone();
/// child[2..7].reverse();
/// let inc = encoded_size_probe(&sliced, &child, true, &(2..7), &cache, &mut scratch, false);
/// let reference = encoded_size_scratch(&sliced, &child, &mut EvalScratch::new());
/// assert_eq!(inc, IncrementalOutcome::Size(reference));
///
/// // The cache still holds the parent: an empty edit returns its size.
/// let cached = encoded_size_probe(&sliced, &parent, true, &(0..0), &cache, &mut scratch, true);
/// assert_eq!(cached, IncrementalOutcome::Size(full));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct EvalCache {
    /// Whether the cache holds a complete evaluation.
    warm: bool,
    /// Shape tag of the held evaluation: `(K, L, distinct blocks, words per
    /// column, transitions)`, where `transitions` says whether the cache
    /// tracks the scan-transition count. Incremental evaluation requires an
    /// exact match, so a probe that wants transitions never reads a cache
    /// built without them.
    shape: (usize, usize, usize, usize, bool),
    /// The exact genome the planes were decoded from, so chunk detection
    /// can skip trit-identical chunks with one byte compare instead of
    /// decoding them (an average crossover window spans dozens of chunks of
    /// which only a few differ).
    genes: Vec<Trit>,
    /// Specified-position plane per MV, genome order; the last MV's is
    /// zero (all-`U`).
    spec: Vec<u64>,
    /// Value plane per MV, genome order.
    value: Vec<u64>,
    /// `N_U` per MV (redundant with `spec`, cached for the key compares).
    nu: Vec<u32>,
    /// Genome indices sorted by [`covering_key`] — covering order.
    order: Vec<u32>,
    /// Frequency of use per MV (genome index, **not** covering position —
    /// the Huffman cost only needs the multiset, and genome indexing
    /// survives order changes).
    freq: Vec<u64>,
    /// Owning MV (genome index) per distinct block.
    owner: Vec<u32>,
    /// Owned-block bitset per MV (`words` words per MV, MV-major): the
    /// inverse of `owner`, kept so the ownership patch is word operations
    /// instead of per-block scans.
    owned: Vec<u64>,
    /// MV-major transposition of the MV planes: for every block position
    /// `p`, a bitmask over MVs (`ceil(L/64)` words) of those specifying `p`
    /// with logic value 1. The orphan re-flow resolves "which MVs match
    /// this block" with one OR per cared position instead of a scan over
    /// the covering order.
    mv_ones: Vec<u64>,
    /// Same layout: MVs specifying `p` with logic value 0.
    mv_zeros: Vec<u64>,
    /// Total fill bits: `Σ freq[j] · N_U(j)`.
    fill_bits: u64,
    /// Scan-in transition count of the held genome (the power objective;
    /// see [`crate::EvalScratch::last_scan_transitions`] for the model).
    /// Zero when the shape tag says the cache does not track transitions.
    scan_transitions: u64,
    /// Sorted nonzero-frequency leaf queue for Huffman delta re-pricing.
    huffman: HuffmanDeltaState,
    /// The held genome's encoded size.
    total: u64,
    /// Rebuild working memory: blocks no MV has taken yet in the covering
    /// scan (all clear once a rebuild ends: the all-`U` MV takes the rest).
    unowned: Vec<u64>,
    /// Rebuild working memory: the conflict set of the MV being scanned.
    mismatch: Vec<u64>,
}

/// Two caches are equal when they hold the same evaluation, field for
/// field: shape tag, genome, MV planes, `N_U`, covering order, frequencies,
/// owners, owned bitsets, MV-major planes, fill bits, transition count,
/// Huffman leaves and total. The rebuild's working memory is not compared.
impl PartialEq for EvalCache {
    fn eq(&self, other: &Self) -> bool {
        self.warm == other.warm
            && self.shape == other.shape
            && self.genes == other.genes
            && self.spec == other.spec
            && self.value == other.value
            && self.nu == other.nu
            && self.order == other.order
            && self.freq == other.freq
            && self.owner == other.owner
            && self.owned == other.owned
            && self.mv_ones == other.mv_ones
            && self.mv_zeros == other.mv_zeros
            && self.fill_bits == other.fill_bits
            && self.scan_transitions == other.scan_transitions
            && self.huffman.leaves() == other.huffman.leaves()
            && self.huffman.weighted_length() == other.huffman.weighted_length()
            && self.total == other.total
    }
}

impl Eq for EvalCache {}

/// Per-call working memory of [`encoded_size_probe`]: the changed chunks
/// and their mismatch planes, the multi-chunk working copy of the covering,
/// the running patch, and the Huffman patch queue. Contents carry no
/// meaning between calls.
///
/// Each island's [`crate::MvFitnessState`] owns one. Buffers grow to the
/// largest shape seen and are reused, so steady-state probes allocate
/// nothing.
#[derive(Debug, Clone, Default)]
pub struct PatchScratch {
    /// Changed chunks of the current edit: `(chunk, new spec, new value)`,
    /// ascending chunk order.
    edited: Vec<(u32, u64, u64)>,
    /// `(spec, value)` planes of the changed chunks, for the batched
    /// conflict-plane query.
    planes: Vec<(u64, u64)>,
    /// Mismatch planes of the changed chunks, `words` words per chunk.
    mismatch: Vec<u64>,
    /// Covering of the parent with the chunks before the current one
    /// applied — copied from the parent only when a second chunk follows.
    work: EvalCache,
    /// The child's net frequency changes and the per-chunk buffers.
    patch: Patch,
    /// `(old, new)` frequency changes handed to the Huffman delta.
    changes: Vec<(u64, u64)>,
    /// Patched leaf queue produced by the Huffman delta.
    huff_scratch: HuffmanDeltaState,
    /// Transition count of the child priced by the last probe (see
    /// [`PatchScratch::last_scan_transitions`]).
    last_transitions: u64,
    /// Used-MV count of the child priced by the last probe.
    last_used: usize,
    /// Fill bits of the child priced by the last probe.
    last_fill: u64,
    /// Whether the last probe answered [`IncrementalOutcome::Size`], so
    /// its edit can be replayed by [`encoded_size_keep`].
    priced: bool,
}

/// What one probe accumulates while it patches its changed chunks in
/// order: its net per-MV frequency changes against the parent, and the
/// per-chunk buffers.
#[derive(Debug, Clone, Default)]
struct Patch {
    /// Net frequency change per MV (genome index) against the parent; zero
    /// for every MV not listed in `touched`.
    net: Vec<i64>,
    /// MVs whose `net` entry left zero, in first-touch order. An MV whose
    /// change cancels and reappears is listed twice; the Huffman pass reads
    /// and clears each entry once.
    touched: Vec<u32>,
    /// `(block, new owner)` moves of every patched chunk, in order: the
    /// working copy applies them for the next chunk, and
    /// [`encoded_size_keep`] replays them all.
    moves: Vec<(u32, u32)>,
    /// End of each patched chunk's moves in `moves`.
    move_ends: Vec<usize>,
    /// Steal set of the current chunk (blocks moving to the edited MV).
    steal: Vec<u64>,
    /// Union buffer for the later-owners mask of the steal set.
    union_buf: Vec<u64>,
    /// Conflict mask over MVs of the orphan being re-flowed (`ceil(L/64)`
    /// words).
    mvmask: Vec<u64>,
}

impl Patch {
    /// Adds `count` (signed) block occurrences to MV `j`'s net change.
    #[inline]
    fn shift(&mut self, j: u32, count: i64) {
        let slot = &mut self.net[j as usize];
        if *slot == 0 {
            self.touched.push(j);
        }
        *slot += count;
    }
}

impl PatchScratch {
    /// Creates empty scratch buffers; they size themselves on first use.
    pub fn new() -> Self {
        PatchScratch::default()
    }

    /// Scan-in transition count of the child priced by the last probe that
    /// answered [`IncrementalOutcome::Size`] through this scratch — the same
    /// model as [`crate::EvalScratch::last_scan_transitions`], bit-identical
    /// to what the full kernel reports for the same genome. Meaningless
    /// after a [`IncrementalOutcome::NeedsFull`] answer.
    #[inline]
    pub fn last_scan_transitions(&self) -> u64 {
        self.last_transitions
    }

    /// Number of MVs with nonzero frequency in the child priced by the last
    /// [`IncrementalOutcome::Size`] answer through this scratch — the
    /// used-symbol count that sizes the decoder.
    #[inline]
    pub fn last_used_mvs(&self) -> usize {
        self.last_used
    }
}

impl EvalCache {
    /// Creates a cold cache; buffers size themselves on first rebuild.
    pub fn new() -> Self {
        EvalCache::default()
    }

    /// `true` when the cache holds the evaluation of exactly `genes`.
    pub(crate) fn holds(&self, genes: &[Trit]) -> bool {
        self.warm && trits_equal(&self.genes, genes)
    }

    /// `true` when the held evaluation tracks the scan-transition count (see
    /// [`encoded_size_rebuild`]).
    pub fn tracks_transitions(&self) -> bool {
        self.shape.4
    }

    /// Copies `src`'s covering — everything a chunk patch reads, not its
    /// genome, totals or Huffman queue — into this cache's reused buffers.
    fn copy_covering_from(&mut self, src: &EvalCache) {
        self.shape = src.shape;
        self.spec.clone_from(&src.spec);
        self.value.clone_from(&src.value);
        self.nu.clone_from(&src.nu);
        self.order.clone_from(&src.order);
        self.freq.clone_from(&src.freq);
        self.owner.clone_from(&src.owner);
        self.owned.clone_from(&src.owned);
        self.mv_ones.clone_from(&src.mv_ones);
        self.mv_zeros.clone_from(&src.mv_zeros);
    }
}

/// Outcome of [`encoded_size_probe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncrementalOutcome {
    /// The child was priced against the cache: its encoded size in bits,
    /// exactly what [`crate::encoded_size_scratch`] returns for the same
    /// genome.
    Size(u64),
    /// The edit was not priced incrementally (cold cache, shape mismatch,
    /// or the cost gate); run the full kernel instead.
    NeedsFull,
}

/// Fully evaluates `genes` and fills `cache` with its covering state.
///
/// Returns the encoded size, **bit-identical** to
/// [`crate::encoded_size_scratch`] over the same inputs (the last MV is
/// all-`U` here too). `transitions` says whether the cache tracks the
/// scan-transition count, as its shape tag then records: a cache built
/// without it serves only probes that do not ask for it (see
/// [`encoded_size_probe`]); `MvFitness` builds those for batches that read
/// no transition count.
///
/// # Panics
///
/// Panics if `genes` is empty or not a multiple of the block length
/// (mirroring the full kernel).
pub fn encoded_size_rebuild(
    sliced: &SlicedHistogram,
    genes: &[Trit],
    transitions: bool,
    cache: &mut EvalCache,
) -> u64 {
    rebuild(sliced, genes, transitions, cache, None)
}

/// [`encoded_size_rebuild`], reading each MV's match set from `memo` when
/// one is given.
pub(crate) fn rebuild(
    sliced: &SlicedHistogram,
    genes: &[Trit],
    transitions: bool,
    cache: &mut EvalCache,
    mut memo: Option<&mut MatchMemo>,
) -> u64 {
    let state = cache;
    let k = sliced.block_len();
    assert!(
        !genes.is_empty() && genes.len() % k == 0,
        "genome length {} is not a positive multiple of K={k}",
        genes.len()
    );
    let l = genes.len() / k;
    let words = sliced.words_per_column();
    let n = sliced.num_distinct();

    state.warm = false;
    state.shape = (k, l, n, words, transitions);
    state.genes.clear();
    state.genes.extend_from_slice(genes);
    state.spec.clear();
    state.value.clear();
    state.nu.clear();
    for chunk in genes.chunks_exact(k) {
        let (spec, value) = decode_chunk(chunk);
        state.spec.push(spec);
        state.value.push(value);
    }
    state.spec[l - 1] = 0;
    state.value[l - 1] = 0;
    state.nu.extend(
        state
            .spec
            .iter()
            .map(|s| (k - s.count_ones() as usize) as u32),
    );
    let wl = l.div_ceil(64);
    state.mv_ones.clear();
    state.mv_ones.resize(k * wl, 0);
    state.mv_zeros.clear();
    state.mv_zeros.resize(k * wl, 0);
    for j in 0..l {
        update_mv_columns(
            &mut state.mv_ones,
            &mut state.mv_zeros,
            wl,
            j,
            0,
            0,
            state.spec[j],
            state.value[j],
        );
    }

    // Covering order: the one canonical key. Keys are unique (index
    // tie-break), so the unstable sort is deterministic.
    state.order.clear();
    state.order.extend(0..l as u32);
    let nu = &state.nu;
    state
        .order
        .sort_unstable_by_key(|&j| covering_key(nu[j as usize] as usize, j as usize));

    // First-match covering scan over the bit planes, recording the owner of
    // every distinct block — as a per-block table *and* as per-MV bitsets
    // (the scratch kernel only needs frequencies; the incremental path
    // needs to know whose blocks an edit can move, in both directions).
    state.freq.clear();
    state.freq.resize(l, 0);
    state.owner.clear();
    state.owner.resize(n, 0);
    state.owned.clear();
    state.owned.resize(l * words, 0);
    state.unowned.clear();
    state.unowned.resize(words, u64::MAX);
    if let Some(last) = state.unowned.last_mut() {
        *last = sliced.last_word_mask();
    }
    if memo.is_none() {
        state.mismatch.clear();
        state.mismatch.resize(words, 0);
    }
    let counts = sliced.counts();
    let mut blocks_left = n;
    let mut fill_bits = 0u64;
    let mut scan_transitions = 0u64;
    for &j in &state.order {
        if blocks_left == 0 {
            break; // every block owned; the rest keep frequency 0
        }
        let j = j as usize;
        let mismatch = match memo.as_deref_mut() {
            Some(memo) => memo.mismatch(sliced, state.spec[j], state.value[j]),
            None => {
                state.mismatch.iter_mut().for_each(|w| *w = 0);
                sliced.accumulate_mismatch(state.spec[j], state.value[j], &mut state.mismatch);
                &state.mismatch
            }
        };
        let mut freq = 0u64;
        for (w, &mis) in mismatch.iter().enumerate() {
            let taken = state.unowned[w] & !mis;
            if taken == 0 {
                continue;
            }
            state.unowned[w] &= mis;
            state.owned[j * words + w] |= taken;
            let mut bits = taken;
            while bits != 0 {
                let d = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                state.owner[d] = j as u32;
                freq += counts[d];
                blocks_left -= 1;
                if transitions {
                    let (_, bv) = sliced.block_planes(d);
                    scan_transitions += counts[d] * block_transitions(state.value[j] | bv, k);
                }
            }
        }
        state.freq[j] = freq;
        fill_bits += freq * state.nu[j] as u64;
    }
    debug_assert_eq!(blocks_left, 0, "the all-U MV covers every block");
    state.fill_bits = fill_bits;
    state.scan_transitions = scan_transitions;
    state.huffman.reset(&state.freq);
    state.total = fill_bits + state.huffman.weighted_length();
    state.warm = true;
    state.total
}

/// Prices `genes` — a copy of the cached genome except inside `edit` — by
/// patching the cache's covering instead of rescanning it. The cache is
/// only read, so any number of children (on any number of threads, each
/// with its own `scratch`) can be probed against one cached parent.
///
/// The contract on `edit` is the engine's lineage contract (see
/// `evotc_evo::Lineage`): every position **outside** the range equals the
/// cached genome's gene; positions inside may or may not differ. An empty
/// range means an exact copy. Any window is priceable — a point mutation, a
/// multi-chunk inversion window, or the whole genome (`0..genes.len()`,
/// used when the only cached parent is a crossover child's window-content
/// donor); the cost is proportional to the number of MV chunks whose
/// planes actually changed.
///
/// Returns [`IncrementalOutcome::NeedsFull`] when the edit is not
/// incrementally priceable: cold cache or mismatched shape (block length,
/// genome length, distinct-block count and word width, or a cache that
/// tracks the scan-transition count other than `transitions` asks — see
/// [`encoded_size_rebuild`]). Untracked, the transition count left in
/// `scratch` is zero. Edits inside the
/// last chunk are inert: the last MV is all-`U` whatever its genes.
/// With `gated`, it also answers `NeedsFull` as soon as the estimated
/// multi-chunk patch work exceeds the estimated cost of a full rescan —
/// the estimate grows with the blocks the changed MVs own, each of which
/// the patch re-flows — so callers fall back to the full kernel exactly
/// when that is the cheaper path; empty and single-chunk edits are never
/// gated. Every `Size` answer is **bit-identical** to
/// [`crate::encoded_size_scratch`] over `genes`, gated or not, and the
/// child's transition and used-MV counts are left in `scratch`.
///
/// The shape tag cannot distinguish two *different* histograms with equal
/// dimensions: passing a `sliced` other than the one the cache was rebuilt
/// against is the caller's bug and silently prices garbage. Keep one cache
/// per histogram, as [`MvFitness`](crate::MvFitness) does.
pub fn encoded_size_probe(
    sliced: &SlicedHistogram,
    genes: &[Trit],
    transitions: bool,
    edit: &Range<usize>,
    cache: &EvalCache,
    scratch: &mut PatchScratch,
    gated: bool,
) -> IncrementalOutcome {
    scratch.priced = false;
    if !shapes_match(sliced, genes, transitions, edit, cache) {
        return IncrementalOutcome::NeedsFull;
    }
    debug_assert!(genome_matches_cache_outside(
        cache,
        genes,
        sliced.block_len(),
        edit
    ));
    // Chunk detection walks the window once: trit-identical chunks are
    // skipped without decoding, and the rest are kept if their planes
    // changed. Gated, the patch-cost estimate accumulates as changed chunks
    // are found and the walk stops the moment a multi-chunk patch is
    // already estimated costlier than a full rescan — the rest of the
    // window (for an inversion child, possibly dozens of chunks) never gets
    // decoded just to confirm a foregone answer.
    let k = sliced.block_len();
    let l = genes.len() / k;
    let bound = full_rescan_cost(cache);
    let mut cost = patch_copy_cost(cache);
    scratch.edited.clear();
    // The last chunk always decodes to the all-`U` MV.
    let chunks = chunks_of(edit, k);
    for i in chunks.start..chunks.end.min(l - 1) {
        if trits_equal(&genes[i * k..(i + 1) * k], &cache.genes[i * k..(i + 1) * k]) {
            continue; // identical trits decode to identical planes
        }
        let (spec, value) = decode_chunk(&genes[i * k..(i + 1) * k]);
        if (spec, value) != (cache.spec[i], cache.value[i]) {
            scratch.edited.push((i as u32, spec, value));
            if gated {
                cost += chunk_patch_cost(cache, i);
                if scratch.edited.len() >= 2 && cost > bound {
                    return IncrementalOutcome::NeedsFull;
                }
            }
        }
    }
    scratch.priced = true;
    if scratch.edited.is_empty() {
        // The child equals the parent: so do its objectives.
        scratch.last_transitions = cache.scan_transitions;
        scratch.last_used = cache.huffman.leaves().len();
        scratch.last_fill = cache.fill_bits;
        return IncrementalOutcome::Size(cache.total);
    }
    IncrementalOutcome::Size(patch_edit(sliced, cache, scratch))
}

/// Builds into `kept` the covering of `genes`, the child that the last
/// [`IncrementalOutcome::Size`] answer through `scratch` priced against
/// `parent`, and returns its encoded size: `parent`'s covering with the
/// probe's block moves replayed chunk by chunk, so `kept` ends up equal,
/// field for field, to what [`encoded_size_rebuild`] builds for
/// `genes` (transitions tracked as in `parent`), at the cost of a copy.
/// The EA keeps the coverings of children likely to survive this way, so a
/// parent is rebuilt only when no probe priced it.
///
/// # Panics
///
/// Panics if the last probe through `scratch` did not answer `Size`.
pub fn encoded_size_keep(
    sliced: &SlicedHistogram,
    genes: &[Trit],
    parent: &EvalCache,
    scratch: &PatchScratch,
    kept: &mut EvalCache,
) -> u64 {
    assert!(scratch.priced, "the last probe priced no child to keep");
    kept.copy_covering_from(parent);
    kept.genes.clear();
    kept.genes.extend_from_slice(genes);
    let mut from = 0;
    for (&(i, spec, value), &end) in scratch.edited.iter().zip(&scratch.patch.move_ends) {
        let moves = &scratch.patch.moves[from..end];
        apply_chunk(sliced, kept, (i as usize, spec, value), moves);
        from = end;
    }
    kept.fill_bits = scratch.last_fill;
    kept.scan_transitions = scratch.last_transitions;
    kept.huffman.reset(&kept.freq);
    kept.total = kept.fill_bits + kept.huffman.weighted_length();
    kept.warm = true;
    kept.total
}

/// Estimated cost of the full kernel over the cached shape: every MV
/// filters every block column, `L · (K + 2) · words` word operations. The
/// unit calibrates the patch-cost estimates below: one full-kernel word op.
fn full_rescan_cost(state: &EvalCache) -> u64 {
    let (k, l, _, words, _) = state.shape;
    (l * (k + 2) * words) as u64
}

/// Estimated cost of copying the covering into the working copy, which a
/// multi-chunk patch pays once per probe, in [`full_rescan_cost`] units.
fn patch_copy_cost(state: &EvalCache) -> u64 {
    let (k, l, _, words, _) = state.shape;
    let wl = l.div_ceil(64);
    (l * words + 2 * k * wl + 5 * l + words) as u64
}

/// Estimated cost of patching one changed chunk, in [`full_rescan_cost`]
/// units: the mismatch/steal plane work plus — the dominant term — one
/// orphan re-flow per block the edited MV currently owns. Each orphan costs
/// a mask OR over `K` MV-major columns, matcher key evaluations, and a
/// rank lookup; measured against the bit-sliced full kernel's word ops that
/// comes to roughly `8 · (K · ceil(L/64) + 8)` units per orphan (the probe
/// runs ~0.8 µs per changed chunk on the paper shape where the full rescan
/// runs ~4.4 µs, so the break-even sits near four changed chunks).
fn chunk_patch_cost(state: &EvalCache, chunk: usize) -> u64 {
    let (k, l, _, words, _) = state.shape;
    let wl = l.div_ceil(64);
    let per_orphan = 8 * (k * wl + 8) as u64;
    let owned: u64 = state.owned[chunk * words..(chunk + 1) * words]
        .iter()
        .map(|w| w.count_ones() as u64)
        .sum();
    ((k + 4) * words) as u64 + owned * per_orphan
}

/// The warm/shape/edit validity gate of [`encoded_size_probe`]: the
/// transition setting must match the shape tag too.
fn shapes_match(
    sliced: &SlicedHistogram,
    genes: &[Trit],
    transitions: bool,
    edit: &Range<usize>,
    state: &EvalCache,
) -> bool {
    let k = sliced.block_len();
    state.warm
        && !genes.is_empty()
        && genes.len() % k == 0
        && state.shape
            == (
                k,
                genes.len() / k.max(1),
                sliced.num_distinct(),
                sliced.words_per_column(),
                transitions,
            )
        && edit.end <= genes.len()
        && edit.start <= edit.end
}

/// Rank of the MV whose (unique) covering key is `key` in the key-sorted
/// `order` — a binary search instead of a linear position scan.
#[inline]
fn rank_of(order: &[u32], nu: &[u32], key: u64) -> usize {
    order.partition_point(|&j| covering_key(nu[j as usize] as usize, j as usize) < key)
}

/// Picks the new owner of an orphaned block of the edited MV `i`: the
/// minimum-covering-key MV (other than `i`) whose planes match the block,
/// competing against `i` at `new_key` when the edited MV's new planes still
/// match. The matching set comes from one OR over the MV-major planes per
/// cared block position — no covering-order scan; MVs ranked before `i`'s
/// old position never match an orphan (that is what made `i` the owner), so
/// the min-key pick over the few matchers *is* first-match covering. Some
/// MV always matches: the all-`U` last one, which is never the edited MV.
#[allow(clippy::too_many_arguments)]
fn reflow_owner(
    bcare: u64,
    bvalue: u64,
    mv_ones: &[u64],
    mv_zeros: &[u64],
    wl: usize,
    l: usize,
    nu: &[u32],
    i: usize,
    new_key: u64,
    still_matched: bool,
    mvmask: &mut Vec<u64>,
) -> u32 {
    mvmask.clear();
    mvmask.resize(wl, 0);
    let mut remaining = bcare;
    while remaining != 0 {
        let p = remaining.trailing_zeros() as usize;
        remaining &= remaining - 1;
        // MVs conflicting at p: those specifying the opposite value.
        let col = if (bvalue >> p) & 1 == 1 {
            &mv_zeros[p * wl..(p + 1) * wl]
        } else {
            &mv_ones[p * wl..(p + 1) * wl]
        };
        for (m, &c) in mvmask.iter_mut().zip(col) {
            *m |= c;
        }
    }
    let mut best = i as u32;
    let mut best_key = if still_matched { new_key } else { u64::MAX };
    for (w, &m) in mvmask.iter().enumerate() {
        let rem = l - w * 64;
        let valid = if rem >= 64 {
            u64::MAX
        } else {
            (1u64 << rem) - 1
        };
        let mut bits = !m & valid;
        if w == i / 64 {
            bits &= !(1u64 << (i % 64));
        }
        while bits != 0 {
            let j = w * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let key = covering_key(nu[j] as usize, j);
            if key < best_key {
                best_key = key;
                best = j as u32;
            }
        }
    }
    best
}

/// Updates the MV-major planes for MV `i` switching from `(old_spec,
/// old_value)` to `(new_spec, new_value)` — `O(K)` word updates.
#[allow(clippy::too_many_arguments)]
fn update_mv_columns(
    mv_ones: &mut [u64],
    mv_zeros: &mut [u64],
    wl: usize,
    i: usize,
    old_spec: u64,
    old_value: u64,
    new_spec: u64,
    new_value: u64,
) {
    let (jw, jbit) = (i / 64, 1u64 << (i % 64));
    let mut remaining = old_spec;
    while remaining != 0 {
        let p = remaining.trailing_zeros() as usize;
        remaining &= remaining - 1;
        if (old_value >> p) & 1 == 1 {
            mv_ones[p * wl + jw] &= !jbit;
        } else {
            mv_zeros[p * wl + jw] &= !jbit;
        }
    }
    let mut remaining = new_spec;
    while remaining != 0 {
        let p = remaining.trailing_zeros() as usize;
        remaining &= remaining - 1;
        if (new_value >> p) & 1 == 1 {
            mv_ones[p * wl + jw] |= jbit;
        } else {
            mv_zeros[p * wl + jw] |= jbit;
        }
    }
}

/// Computes the steal set of an edited MV into `steal`: the blocks its new
/// planes match (`mismatch` is the new planes' conflict set) that are
/// currently owned by an MV ranked *after* `new_key`. Pure
/// bitset algebra — the match set is masked by the owned bits of the
/// earlier-ranked MVs, walking whichever side of the covering order is
/// shorter; the edited MV's own blocks are excluded (the orphan re-flow
/// decides those).
fn steal_candidates(
    sliced: &SlicedHistogram,
    cur: &EvalCache,
    i: usize,
    new_key: u64,
    mismatch: &[u64],
    steal: &mut Vec<u64>,
    union_buf: &mut Vec<u64>,
) {
    let words = sliced.words_per_column();
    let (order, owned) = (&cur.order, &cur.owned);
    steal.clear();
    steal.extend(mismatch.iter().enumerate().map(|(w, &mis)| {
        let valid = if w == words - 1 {
            sliced.last_word_mask()
        } else {
            u64::MAX
        };
        !mis & valid
    }));
    let pos = rank_of(order, &cur.nu, new_key);
    if pos <= order.len() / 2 {
        // Few earlier MVs: mask their owned blocks out directly.
        for &j in &order[..pos] {
            let j = j as usize;
            for (s, &o) in steal.iter_mut().zip(&owned[j * words..(j + 1) * words]) {
                *s &= !o;
            }
        }
    } else {
        // Few later MVs: keep only their blocks.
        union_buf.clear();
        union_buf.resize(words, 0);
        for &j in &order[pos..] {
            let j = j as usize;
            for (u, &o) in union_buf.iter_mut().zip(&owned[j * words..(j + 1) * words]) {
                *u |= o;
            }
        }
        for (s, &u) in steal.iter_mut().zip(union_buf.iter()) {
            *s &= u;
        }
    }
    // The edited MV's current blocks are the re-flow's business either way
    // (it sits on one of the two sides above under its *old* key; this
    // final mask is what takes its blocks out regardless of which).
    for (s, &o) in steal.iter_mut().zip(&owned[i * words..(i + 1) * words]) {
        *s &= !o;
    }
}

/// Prices the changed chunks in `scratch.edited` (at least one) against the
/// parent cache `parent`: one [`patch_chunk`] per chunk, in order — the
/// first against the parent's covering, each later one against the working
/// copy with every earlier chunk applied — then one Huffman re-price from
/// the netted per-MV frequency changes. Leaves the child's transition and
/// used-MV counts in the scratch and returns its encoded size.
fn patch_edit(sliced: &SlicedHistogram, parent: &EvalCache, scratch: &mut PatchScratch) -> u64 {
    let (k, words) = (sliced.block_len(), sliced.words_per_column());
    let PatchScratch {
        edited,
        planes,
        mismatch,
        work,
        patch,
        changes,
        huff_scratch,
        last_transitions,
        last_used,
        last_fill,
        ..
    } = scratch;

    // All changed chunks' match sets in one batched conflict-plane pass.
    planes.clear();
    planes.extend(edited.iter().map(|&(_, spec, value)| (spec, value)));
    mismatch.resize(planes.len() * words, 0);
    sliced.accumulate_mismatch_batch(planes, mismatch);

    // `net` is all-zero between probes except after a probe that unwound
    // mid-patch; `touched` lists exactly the entries to clear.
    for j in patch.touched.drain(..) {
        patch.net[j as usize] = 0;
    }
    patch.net.resize(parent.freq.len(), 0);
    patch.moves.clear();
    patch.move_ends.clear();
    let mut trans = parent.scan_transitions as i64;

    let last = edited.len() - 1;
    for (t, &(i, nspec, nvalue)) in edited.iter().enumerate() {
        let cur = if t == 0 { parent } else { &*work };
        let chunk = (i as usize, nspec, nvalue);
        let chunk_mismatch = &mismatch[t * words..(t + 1) * words];
        let from = patch.moves.len();
        trans += patch_chunk(sliced, cur, chunk, chunk_mismatch, patch);
        patch.move_ends.push(patch.moves.len());
        if t < last {
            if t == 0 {
                work.copy_covering_from(parent);
            }
            apply_chunk(sliced, work, chunk, &patch.moves[from..]);
        }
    }

    // Fill bits and the Huffman cost, once for the whole edit, from the
    // netted frequency changes (an MV bounced through several chunks
    // contributes one change, or none): every MV's net change costs its
    // parent N_U, and an edited MV's final frequency also pays its N_U
    // change.
    let mut fill = parent.fill_bits as i64;
    for &(i, spec, _) in edited.iter() {
        let (i, nnu) = (i as usize, (k - spec.count_ones() as usize) as i64);
        fill += (parent.freq[i] as i64 + patch.net[i]) * (nnu - parent.nu[i] as i64);
    }
    changes.clear();
    for j in patch.touched.drain(..) {
        let net = std::mem::take(&mut patch.net[j as usize]);
        if net != 0 {
            let old = parent.freq[j as usize];
            fill += net * parent.nu[j as usize] as i64;
            changes.push((old, (old as i64 + net) as u64));
        }
    }
    let huffman_bits = huffman_weighted_length_delta(&parent.huffman, changes, huff_scratch);
    *last_transitions = trans as u64;
    *last_used = huff_scratch.leaves().len();
    *last_fill = fill as u64;
    fill as u64 + huffman_bits
}

/// Patches one changed chunk — MV `i` taking the planes `(nspec, nvalue)`,
/// whose conflict set is `mismatch` — into `patch`, reading the covering
/// `cur` without writing to it, and returns the change of the transition
/// count (signed: intermediate sums can dip below the final value). The
/// chunk's block moves are appended to `patch.moves` for [`apply_chunk`].
fn patch_chunk(
    sliced: &SlicedHistogram,
    cur: &EvalCache,
    (i, nspec, nvalue): (usize, u64, u64),
    mismatch: &[u64],
    patch: &mut Patch,
) -> i64 {
    let k = sliced.block_len();
    let words = sliced.words_per_column();
    let counts = sliced.counts();
    let nnu = (k - nspec.count_ones() as usize) as u32;
    let old_key = covering_key(cur.nu[i] as usize, i);
    let new_key = covering_key(nnu as usize, i);
    // Transitions are priced only when the covering tracks them.
    let value_changed = cur.tracks_transitions() && nvalue != cur.value[i];
    let transitions = |count: i64, scan: u64| {
        if cur.tracks_transitions() {
            count * block_transitions(scan, k) as i64
        } else {
            0
        }
    };
    let mut trans = 0i64;

    // Phase 1 — steal: blocks the new MV matches whose owner comes *after*
    // its new covering rank move to i (first-match
    // covering). Blocks owned earlier are untouchable by construction:
    // their owners did not change. The steal set is bitset algebra over the
    // per-MV owned planes; only actual steals are visited.
    steal_candidates(
        sliced,
        cur,
        i,
        new_key,
        mismatch,
        &mut patch.steal,
        &mut patch.union_buf,
    );
    for w in 0..words {
        let mut bits = patch.steal[w];
        while bits != 0 {
            let d = w * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let count = counts[d] as i64;
            let (_, bv) = sliced.block_planes(d);
            let a = cur.owner[d];
            patch.shift(i as u32, count);
            trans += transitions(count, nvalue | bv);
            patch.shift(a, -count);
            trans -= transitions(count, cur.value[a as usize] | bv);
            patch.moves.push((d as u32, i as u32));
        }
    }

    // Phase 2 — re-flow every block the old MV owned (its owned bitset,
    // directly): the new owner is the first MV in the *new* covering order
    // that matches it. MVs before the old rank are unchanged and already
    // failed to match (that is what made i the owner), so the scan covers
    // only the MVs after the old rank, with the edited MV woven in at its
    // new key. The old rank and the weave point are binary searches in the
    // key-sorted order, done once per edit, not once per block — and a
    // block that still matches with no MV ranked in between stays put with
    // no scan at all.
    if cur.freq[i] == 0 {
        return trans;
    }
    let l = cur.shape.1;
    let wl = l.div_ceil(64);
    // O(1) stay test: every competing matcher has a key above the old
    // rank's successor (MVs before the old rank never match an orphan), so
    // when the new key still precedes that successor, a block the new
    // planes match cannot move.
    let old_rank = rank_of(&cur.order, &cur.nu, old_key);
    debug_assert_eq!(cur.order[old_rank] as usize, i);
    let stays_fast = match cur.order.get(old_rank + 1) {
        Some(&j) => new_key < covering_key(cur.nu[j as usize] as usize, j as usize),
        None => true,
    };
    for (w, &ow) in cur.owned[i * words..(i + 1) * words].iter().enumerate() {
        let mut cand = ow;
        while cand != 0 {
            let d = w * 64 + cand.trailing_zeros() as usize;
            cand &= cand - 1;
            let count = counts[d] as i64;
            let still_matched = (mismatch[w] >> (d % 64)) & 1 == 0;
            // A block staying with i still re-prices its transitions when
            // the edit changed i's value plane — its decoded word changed
            // even though ownership did not.
            let stay_delta =
                |bv: u64| transitions(count, nvalue | bv) - transitions(count, cur.value[i] | bv);
            if still_matched && stays_fast {
                if value_changed {
                    trans += stay_delta(sliced.block_planes(d).1);
                }
                continue; // no competitor can rank before i's new key
            }
            let (bcare, bv) = sliced.block_planes(d);
            let new_owner = reflow_owner(
                bcare,
                bv,
                &cur.mv_ones,
                &cur.mv_zeros,
                wl,
                l,
                &cur.nu,
                i,
                new_key,
                still_matched,
                &mut patch.mvmask,
            );
            if new_owner == i as u32 {
                if value_changed {
                    trans += stay_delta(bv);
                }
                continue; // stays put
            }
            patch.shift(i as u32, -count);
            trans -= transitions(count, cur.value[i] | bv);
            patch.shift(new_owner, count);
            trans += transitions(count, cur.value[new_owner as usize] | bv);
            patch.moves.push((d as u32, new_owner));
        }
    }
    trans
}

/// Applies one patched chunk — its new planes and the block moves
/// [`patch_chunk`] recorded — to `work` (the multi-chunk working copy, or a
/// covering being kept), leaving it the consistent covering of the genome
/// with this chunk edited too.
fn apply_chunk(
    sliced: &SlicedHistogram,
    work: &mut EvalCache,
    (i, nspec, nvalue): (usize, u64, u64),
    moves: &[(u32, u32)],
) {
    let words = sliced.words_per_column();
    let counts = sliced.counts();
    for &(d, to) in moves {
        let d = d as usize;
        let (w, bit) = (d / 64, 1u64 << (d % 64));
        let from = work.owner[d] as usize;
        work.owned[from * words + w] &= !bit;
        work.freq[from] -= counts[d];
        work.owned[to as usize * words + w] |= bit;
        work.freq[to as usize] += counts[d];
        work.owner[d] = to;
    }
    let (k, l) = (work.shape.0, work.shape.1);
    let nnu = (k - nspec.count_ones() as usize) as u32;
    let old_key = covering_key(work.nu[i] as usize, i);
    let new_key = covering_key(nnu as usize, i);
    let old_rank = rank_of(&work.order, &work.nu, old_key);
    update_mv_columns(
        &mut work.mv_ones,
        &mut work.mv_zeros,
        l.div_ceil(64),
        i,
        work.spec[i],
        work.value[i],
        nspec,
        nvalue,
    );
    work.spec[i] = nspec;
    work.value[i] = nvalue;
    work.nu[i] = nnu;
    if new_key != old_key {
        work.order.remove(old_rank);
        let at = rank_of(&work.order, &work.nu, new_key);
        work.order.insert(at, i as u32);
    }
}

/// Debug-build check of the lineage contract: outside the edited chunks and
/// the all-`U` last one, the genome must decode to exactly the cached
/// planes. A caller handing a
/// genome with undeclared differences would silently get the wrong fitness;
/// this makes it loud where tests run.
#[cfg(debug_assertions)]
fn genome_matches_cache_outside(
    state: &EvalCache,
    genes: &[Trit],
    k: usize,
    edit: &Range<usize>,
) -> bool {
    let edited = chunks_of(edit, k);
    (0..genes.len() / k - 1)
        .filter(|i| !edited.contains(i))
        .all(|i| decode_chunk(&genes[i * k..(i + 1) * k]) == (state.spec[i], state.value[i]))
}

/// Release builds compile the `debug_assert!` call away to a constant, so
/// the contract check costs nothing on the hot path.
#[cfg(not(debug_assertions))]
#[inline(always)]
fn genome_matches_cache_outside(
    _state: &EvalCache,
    _genes: &[Trit],
    _k: usize,
    _edit: &Range<usize>,
) -> bool {
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{encoded_size_scratch, EvalScratch};
    use evotc_bits::{BlockHistogram, TestSet, TestSetString};

    fn fixtures(rows: &[&str], k: usize) -> SlicedHistogram {
        let set = TestSet::parse(rows).unwrap();
        let hist = BlockHistogram::from_string(&TestSetString::new(&set, k));
        SlicedHistogram::from_histogram(&hist)
    }

    fn genes(s: &str) -> Vec<Trit> {
        evotc_bits::parse_trits(&s.replace(' ', "")).unwrap()
    }

    /// `(size, transitions, used MVs)` — what every pricing path reports.
    type Priced = (u64, u64, usize);

    /// The full kernel's price of `genes`.
    fn full(sliced: &SlicedHistogram, genes: &[Trit]) -> Priced {
        let mut scratch = EvalScratch::new();
        let size = encoded_size_scratch(sliced, genes, &mut scratch);
        (
            size,
            scratch.last_scan_transitions(),
            scratch.last_used_mvs(),
        )
    }

    /// The probe's price of `genes` as an edit of the cached genome, or
    /// `None` when it answers `NeedsFull`.
    fn probed(
        sliced: &SlicedHistogram,
        genes: &[Trit],
        edit: &Range<usize>,
        cache: &EvalCache,
        gated: bool,
    ) -> Option<Priced> {
        let mut scratch = PatchScratch::new();
        match encoded_size_probe(sliced, genes, true, edit, cache, &mut scratch, gated) {
            IncrementalOutcome::Size(size) => Some((
                size,
                scratch.last_scan_transitions(),
                scratch.last_used_mvs(),
            )),
            IncrementalOutcome::NeedsFull => None,
        }
    }

    /// One chain step: the ungated probe of `child` against `cache` must
    /// price it like the full kernel; then `cache` is rebuilt on the child,
    /// whose own empty-edit probe must report the same price.
    fn probe_then_rebuild(
        sliced: &SlicedHistogram,
        cache: &mut EvalCache,
        child: &[Trit],
        edit: &Range<usize>,
    ) {
        let expect = full(sliced, child);
        assert_eq!(
            probed(sliced, child, edit, cache, false),
            Some(expect),
            "probe of {child:?} edit {edit:?}"
        );
        assert_eq!(encoded_size_rebuild(sliced, child, true, cache), expect.0);
        assert_eq!(
            probed(sliced, child, &(0..0), cache, true),
            Some(expect),
            "rebuilt {child:?}"
        );
    }

    /// Applies every single-gene edit to `parent` and checks the probe's
    /// price, and the rebuilt child's, against the full kernel.
    fn exhaustive_single_gene_edits(sliced: &SlicedHistogram, parent: &[Trit]) {
        for pos in 0..parent.len() {
            for g in 0..3u8 {
                let mut cache = EvalCache::new();
                encoded_size_rebuild(sliced, parent, true, &mut cache);
                let mut child = parent.to_vec();
                child[pos] = Trit::from_index(g);
                probe_then_rebuild(sliced, &mut cache, &child, &(pos..pos + 1));
            }
        }
    }

    #[test]
    fn single_gene_edits_match_full_kernel() {
        let sliced = fixtures(
            &["110100XX", "110000XX", "11010000", "110X00XX", "11010011"],
            8,
        );
        for parent in [
            genes("110U00UU 00000000 UUUUUUUU"),
            genes("11010000 110000UU UUUUUUUU"),
            genes("110U00UU 110U00UU UUUUUUUU"), // duplicate MVs
        ] {
            exhaustive_single_gene_edits(&sliced, &parent);
        }
    }

    /// Applies every `width`-gene window rewrite to `parent` and checks the
    /// probe's price, and the rebuilt child's, against the full kernel.
    /// Windows straddle chunk boundaries by construction whenever
    /// `width > 1` and the genome has several chunks.
    fn exhaustive_window_edits(sliced: &SlicedHistogram, parent: &[Trit], width: usize) {
        for start in 0..=parent.len() - width {
            let mut cache = EvalCache::new();
            encoded_size_rebuild(sliced, parent, true, &mut cache);
            let mut child = parent.to_vec();
            for (offset, slot) in child[start..start + width].iter_mut().enumerate() {
                *slot = Trit::from_index(((start + 2 * offset) % 3) as u8);
            }
            probe_then_rebuild(sliced, &mut cache, &child, &(start..start + width));
        }
    }

    #[test]
    fn multi_chunk_window_edits_match_full_kernel() {
        let sliced = fixtures(
            &["110100XX", "110000XX", "11010000", "110X00XX", "11010011"],
            8,
        );
        for parent in [
            genes("110U00UU 00000000 11010011 UUUUUUUU"),
            genes("110U00UU 110U00UU 110U00UU UUUUUUUU"), // duplicate MVs
        ] {
            for width in [7, 12, 19, parent.len()] {
                exhaustive_window_edits(&sliced, &parent, width);
            }
        }
    }

    /// The cost gate is allowed to answer `NeedsFull`, but whenever it
    /// answers `Size` the value must be the full kernel's — over every
    /// window edit of several widths, including whole-genome rewrites. On
    /// the 16-MV parent, whose duplicates own no blocks, the gate must both
    /// price some multi-chunk edits and decline others.
    #[test]
    fn gated_probe_sizes_match_full_kernel() {
        let sliced = fixtures(
            &["110100XX", "110000XX", "11010000", "110X00XX", "11010011"],
            8,
        );
        let (mut multi_priced, mut declined) = (0, 0);
        for parent in [
            genes("110U00UU 00000000 11010011 UUUUUUUU"),
            genes("110U00UU 110U00UU 110U00UU UUUUUUUU"),
            genes(&"110U00UU ".repeat(16)),
        ] {
            let mut cache = EvalCache::new();
            encoded_size_rebuild(&sliced, &parent, true, &mut cache);
            for width in [1, 9, 17, parent.len()] {
                for start in 0..=parent.len() - width {
                    let mut child = parent.clone();
                    for (offset, slot) in child[start..start + width].iter_mut().enumerate() {
                        *slot = Trit::from_index(((start + 2 * offset) % 3) as u8);
                    }
                    let edit = start..start + width;
                    match probed(&sliced, &child, &edit, &cache, true) {
                        Some(got) => {
                            assert_eq!(got, full(&sliced, &child), "start {start} width {width}");
                            // The all-U last chunk never counts as changed.
                            let changed = (0..parent.len() / 8 - 1)
                                .filter(|i| child[i * 8..(i + 1) * 8] != parent[i * 8..(i + 1) * 8])
                                .count();
                            multi_priced += usize::from(changed >= 2);
                        }
                        // Legal: the gate judged the patch more expensive
                        // than a rescan. Only possible on multi-chunk edits.
                        None => {
                            assert!(width > 1, "single-chunk edits are never gated");
                            declined += 1;
                        }
                    }
                }
            }
        }
        assert!(
            multi_priced > 0 && declined > 0,
            "{multi_priced} / {declined}"
        );
    }

    /// Empty and single-chunk edits bypass the gate entirely: gated and
    /// ungated probes agree, `Size` always.
    #[test]
    fn gate_never_trips_on_cheap_edits() {
        let sliced = fixtures(&["110100XX", "110000XX", "11010000"], 8);
        let parent = genes("110U00UU 00000000 UUUUUUUU");
        let mut cache = EvalCache::new();
        let size = encoded_size_rebuild(&sliced, &parent, true, &mut cache);
        assert_eq!(
            probed(&sliced, &parent, &(3..3), &cache, true),
            Some(full(&sliced, &parent)),
        );
        assert_eq!(full(&sliced, &parent).0, size);
        for pos in 0..parent.len() {
            let mut child = parent.clone();
            child[pos] = Trit::from_index(((pos + 1) % 3) as u8);
            let edit = pos..pos + 1;
            let gated = probed(&sliced, &child, &edit, &cache, true);
            assert_eq!(gated, Some(full(&sliced, &child)), "pos {pos}");
            assert_eq!(gated, probed(&sliced, &child, &edit, &cache, false));
        }
    }

    #[test]
    fn probes_leave_the_parent_cache_intact() {
        let sliced = fixtures(&["110100XX", "110000XX", "11010000"], 8);
        let parent = genes("110U00UU 11010000 UUUUUUUU");
        let mut cache = EvalCache::new();
        encoded_size_rebuild(&sliced, &parent, true, &mut cache);
        // Probe many single- and multi-chunk children off the same cache
        // through one scratch; each must match the full kernel.
        let mut scratch = PatchScratch::new();
        let mut probe = |child: &[Trit], edit: Range<usize>| {
            let got = encoded_size_probe(&sliced, child, true, &edit, &cache, &mut scratch, false);
            assert_eq!(got, IncrementalOutcome::Size(full(&sliced, child).0));
        };
        for pos in 0..parent.len() {
            let mut child = parent.clone();
            child[pos] = Trit::from_index((pos % 3) as u8);
            probe(&child, pos..pos + 1);
        }
        for start in 0..parent.len() - 10 {
            let mut child = parent.clone();
            child[start..start + 10].reverse();
            probe(&child, start..start + 10);
        }
        // The parent still prices as itself.
        assert_eq!(
            probed(&sliced, &parent, &(0..0), &cache, false),
            Some(full(&sliced, &parent))
        );
    }

    #[test]
    fn cold_cache_and_shape_mismatches_need_full() {
        let sliced = fixtures(&["1010", "0101"], 4);
        let g = genes("1010 UUUU");
        let mut cache = EvalCache::new();
        for gated in [false, true] {
            assert_eq!(probed(&sliced, &g, &(0..1), &cache, gated), None);
        }
        encoded_size_rebuild(&sliced, &g, true, &mut cache);
        // Different genome length.
        let longer = genes("1010 UUUU 1111");
        assert_eq!(probed(&sliced, &longer, &(8..9), &cache, false), None);
        // A probe that tracks no transitions never reads this cache.
        assert_eq!(
            encoded_size_probe(
                &sliced,
                &g,
                false,
                &(0..1),
                &cache,
                &mut PatchScratch::new(),
                false
            ),
            IncrementalOutcome::NeedsFull
        );
        // An edit spanning two changed chunks is *not* a fallback: the
        // patch prices it chunk by chunk.
        let mut two = genes("1010 1010 UUUU");
        encoded_size_rebuild(&sliced, &two, true, &mut cache);
        two[3] = Trit::X;
        two[4] = Trit::One;
        assert_eq!(
            probed(&sliced, &two, &(3..5), &cache, false),
            Some(full(&sliced, &two))
        );
    }

    #[test]
    fn last_chunk_edits_are_inert() {
        let sliced = fixtures(&["10101010", "01010101"], 8);
        let parent = genes("10101010 00000000");
        let mut cache = EvalCache::new();
        let size = encoded_size_rebuild(&sliced, &parent, true, &mut cache);
        let mut child = parent.clone();
        child[12] = Trit::One; // inside the all-U last chunk
        let got = probed(&sliced, &child, &(12..13), &cache, true);
        assert_eq!(got.map(|p| p.0), Some(size));
    }

    #[test]
    fn rebuild_matches_scratch_kernel() {
        let sliced = fixtures(
            &["110100XX", "110000XX", "11010000", "110X00XX", "11010011"],
            8,
        );
        let mut cache = EvalCache::new();
        for g in [
            genes("110U00UU 00000000 UUUUUUUU"),
            genes("11010000 110000UU UUUUUUUU"),
            genes("UUUUUUUU UUUUUUUU UUUUUUUU"),
            genes("11111111 00000000 11110000"),
        ] {
            assert_eq!(
                encoded_size_rebuild(&sliced, &g, true, &mut cache),
                full(&sliced, &g).0,
                "genome {g:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "not a positive multiple")]
    fn rebuild_rejects_ragged_genomes() {
        let sliced = fixtures(&["1111"], 4);
        let _ = encoded_size_rebuild(&sliced, &genes("111"), true, &mut EvalCache::new());
    }
}
