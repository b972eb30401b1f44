//! The allocation-free, bit-sliced EA fitness kernel.
//!
//! The legacy fitness path ([`MvFitness::evaluate`](crate::MvFitness))
//! materializes an [`MvSet`](crate::MvSet), a [`Covering`](crate::Covering)
//! (two `Vec`s), a Huffman heap, canonical codewords and a
//! [`PrefixCode`](evotc_codes::PrefixCode) — per genome, thousands of times
//! per generation. This module computes the identical encoded size with zero
//! allocations after warm-up:
//!
//! 1. Genes are decoded straight into packed `(spec, value)` plane pairs in
//!    a reusable buffer, branchlessly — no `MatchingVector` vector, no
//!    `MvSet`.
//! 2. Covering order is the one canonical order of [`crate::covering_key`],
//!    realized by a stable counting sort over the tiny `N_U` key space;
//!    exact-duplicate MVs are skipped via a small open-addressing probe (a
//!    duplicate can never cover a block its earlier twin did not).
//! 3. Covering runs over a [`SlicedHistogram`]: one MV is matched against
//!    64 distinct blocks per word operation, uncovered blocks live in a
//!    bitset, and the scan stops as soon as everything is covered.
//! 4. The Huffman part of the size is priced with
//!    [`huffman_weighted_length`] — the sum-of-merge-weights identity — so
//!    no tree, codewords or prefix code ever exist.
//!
//! The result is **bit-identical** to the legacy path for every genome
//! (enforced by `tests/props_fitness_kernel.rs` and the determinism suite).
//!
//! [`encoded_size_bounded`] runs the same scan against a bound and stops as
//! soon as a sound lower bound on the size reaches it — the EA's survival
//! floor (see `evotc_evo::Provenance::floor`) turned into bits.
//!
//! Inside the EA the scan reads each MV's match set from a [`MatchMemo`]:
//! a population shares nearly every MV with the genomes already priced, so
//! the conflict columns are OR-ed once per distinct MV, not once per scan.
//! The public entry points stay memo-free.

use evotc_bits::{SlicedHistogram, Trit};
use evotc_codes::{huffman_weighted_length, HuffmanScratch};

use crate::mvset::covering_key;

/// Reusable buffers for the scratch fitness kernel.
///
/// One `EvalScratch` serves any sequence of evaluations (shapes may vary
/// between calls); buffers grow to the largest shape seen and are reused.
/// Keep one per worker thread — the batch override of
/// [`MvFitness`](crate::MvFitness) does exactly that.
///
/// # Example
///
/// ```
/// use evotc_bits::{BlockHistogram, SlicedHistogram, TestSet, TestSetString, Trit};
/// use evotc_core::{encoded_size, encoded_size_scratch, EvalScratch, MvSet};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let set = TestSet::parse(&["110100XX", "110000XX", "11010000"])?;
/// let hist = BlockHistogram::from_string(&TestSetString::new(&set, 4));
/// let sliced = SlicedHistogram::from_histogram(&hist);
/// let genes: Vec<Trit> = evotc_bits::parse_trits("110U0000UUUU")?;
/// let mut scratch = EvalScratch::new();
/// let fast = encoded_size_scratch(&sliced, &genes, &mut scratch);
/// let slow = encoded_size(&MvSet::from_genes(4, &genes, true)?, &hist);
/// assert_eq!(Some(fast), slow);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct EvalScratch {
    /// Specified-position plane per MV, genome order.
    spec: Vec<u64>,
    /// Value plane per MV, genome order.
    value: Vec<u64>,
    /// MV indices in covering order (the one canonical order, realized by a
    /// stable counting sort on the `U` count — `N_U ≤ K ≤ 64` keys).
    order: Vec<u32>,
    /// Counting-sort buckets, one per possible `N_U` value.
    buckets: Vec<u32>,
    /// Open-addressing table of `(spec, value)` pairs already scanned, used
    /// to skip exact-duplicate MVs without a second sort.
    seen: Vec<(u64, u64)>,
    /// Occupancy bitmask for `seen` (one clear per evaluation).
    seen_used: Vec<u64>,
    /// Frequency of use per covering position.
    freqs: Vec<u64>,
    /// Bitset of distinct blocks not yet covered.
    uncovered: Vec<u64>,
    /// Bitset of blocks conflicting with the current MV.
    mismatch: Vec<u64>,
    /// Buffers for the length-only Huffman cost.
    huffman: HuffmanScratch,
    /// Scan-in transition count of the last evaluation (see
    /// [`EvalScratch::last_scan_transitions`]).
    scan_transitions: u64,
    /// Number of MVs with nonzero frequency in the last evaluation.
    used_mvs: usize,
    /// Entropy lower bounds for [`encoded_size_bounded`], built on first
    /// use for the histogram's total block count.
    entropy: EntropyTable,
}

/// Lower bounds of `g(x) = x·log2(N/x)` for `x` in `0..=N` (`g(0) = 0`),
/// where `N` is a histogram's total block count: the entropy term of one
/// symbol of frequency `x` in a prefix code over `N` symbols. Exact for
/// `x < FINE`; above that, one entry per bucket of `step` values holds the
/// smaller of `g` at the bucket's two ends — a lower bound inside the
/// bucket because `g` is concave — so the table stays at most `2·FINE`
/// entries for any `N`.
#[derive(Debug, Clone, Default)]
struct EntropyTable {
    /// The `N` the table was built for; `0` before the first build.
    total: u64,
    /// `g(x)` for `x < fine.len()`.
    fine: Vec<f64>,
    /// Bucket width of `coarse`.
    step: u64,
    /// `min(g(b·step), g((b+1)·step))` for bucket `b`, clamped to `N`.
    coarse: Vec<f64>,
}

impl EntropyTable {
    /// Exact entries; a larger `N` switches to buckets above them.
    const FINE: u64 = 1 << 13;

    /// Builds the table for `total` blocks unless it already is.
    fn prepare(&mut self, total: u64) {
        if self.total == total {
            return;
        }
        let n = total as f64;
        let g = |x: u64| {
            if x == 0 {
                0.0
            } else {
                x as f64 * log2(n / x as f64)
            }
        };
        self.total = total;
        self.fine.clear();
        self.fine.extend((0..=total.min(Self::FINE)).map(g));
        self.step = total.div_ceil(Self::FINE).max(1);
        self.coarse.clear();
        if total > Self::FINE {
            let step = self.step;
            self.coarse.extend(
                (0..=total / step).map(|b| g(b * step).min(g((b * step + step).min(total)))),
            );
        }
    }

    /// A lower bound on the codeword bits of any prefix code over the
    /// frequencies `scan` has taken plus the `R` blocks still uncovered,
    /// however the later MVs split them: see [`encoded_size_bounded`].
    #[inline]
    fn code_bits(&self, scan: &Scan) -> f64 {
        (scan.entropy + self.at_least(scan.left)).max(self.total as f64)
    }

    /// A lower bound of `g(x)`, for `x ≤ N`.
    #[inline]
    fn at_least(&self, x: u64) -> f64 {
        match self.fine.get(x as usize) {
            Some(&v) => v,
            None => self.coarse[(x / self.step) as usize],
        }
    }
}

/// `log2(x)` for a positive, finite, normal `x`, computed here instead of
/// by `f64::log2` so the kernel links no libm (which would add its pages to
/// every process's resident set for one table). The exponent comes from the
/// bits; the mantissa, folded into `[√½, √2)`, goes through the series
/// `ln m = 2·Σ z^(2i+1)/(2i+1)` with `z = (m−1)/(m+1)`, `|z| < 0.172`, whose
/// twelve terms leave a relative error near 1e-16 — far inside the bound's
/// 1e-9 margin.
fn log2(x: f64) -> f64 {
    let bits = x.to_bits();
    let mut exponent = ((bits >> 52) & 0x7ff) as i64 - 1023;
    let mut m = f64::from_bits((bits & ((1 << 52) - 1)) | (1023 << 52));
    if m > std::f64::consts::SQRT_2 {
        m /= 2.0;
        exponent += 1;
    }
    let z = (m - 1.0) / (m + 1.0);
    let z2 = z * z;
    let (mut term, mut series) = (z, 0.0);
    for i in 0..12 {
        series += term / (2 * i + 1) as f64;
        term *= z2;
    }
    exponent as f64 + 2.0 * series * std::f64::consts::LOG2_E
}

/// Outcome of [`encoded_size_bounded`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundedSize {
    /// The scan ran to the end: exactly what [`encoded_size_scratch`]
    /// returns for the same genome.
    Exact(u64),
    /// The scan stopped early: the encoded size is at least the bound.
    AtLeast,
}

/// Relative slack on the lower bound before it may prune: float rounding in
/// the bound (about 1e-15 per term) can then never cut a genome whose
/// exact size is below the bound.
const BOUND_MARGIN: f64 = 1e-9;

/// A bounded, direct-mapped memo from an MV's exact `(spec, value)` planes
/// to its conflict set over one histogram (the blocks it does **not**
/// match; see [`SlicedHistogram::accumulate_mismatch`]). A slot holds the
/// last MV hashed to it, and a different MV replaces it, so a set is always
/// exactly what the columns give. Its owner sizes it from the run (see
/// [`MatchMemo::fit`]), and it allocates on first use; the sets take at
/// most [`MatchMemo::MAX_WORDS`] words, or two sets where one alone is
/// larger.
///
/// The memo knows its histogram only by the word count: its owner (an
/// island's [`crate::MvFitnessState`]) clears it when it serves a
/// different evaluator.
#[derive(Debug, Clone, Default)]
pub(crate) struct MatchMemo {
    /// Words per set (the histogram's words per column); 0 before first use.
    words: usize,
    /// Slots at most, set by [`MatchMemo::fit`]; 0 means
    /// [`MatchMemo::MAX_SLOTS`].
    cap: usize,
    /// `(spec, value)` per slot; [`MatchMemo::FREE`] marks a free slot.
    keys: Vec<(u64, u64)>,
    /// `words` words per slot.
    sets: Vec<u64>,
    /// `64 − log2(slots)`: the hash keeps the top bits.
    shift: u32,
}

impl MatchMemo {
    /// No decoded MV has a value bit where it specifies nothing.
    const FREE: (u64, u64) = (0, u64::MAX);
    /// Bound on the words all sets take together (32 KiB): on the largest
    /// histograms this costs no measurable speed against 128 KiB.
    const MAX_WORDS: usize = 1 << 12;
    /// Slots at most: a population holds a few hundred distinct MVs.
    const MAX_SLOTS: usize = 1 << 10;

    /// Forgets every set.
    pub(crate) fn clear(&mut self) {
        self.words = 0;
    }

    /// Caps the slots near `mvs`, the number of MVs a population holds:
    /// twice as many, as a power of two. A new cap empties the memo.
    pub(crate) fn fit(&mut self, mvs: usize) {
        let cap = (2 * mvs).next_power_of_two().clamp(2, Self::MAX_SLOTS);
        if cap != self.cap {
            self.cap = cap;
            self.clear();
        }
    }

    /// The conflict set of the MV `(spec, value)` over `sliced`, from its
    /// slot or, on a miss, from the columns into its slot.
    #[inline]
    pub(crate) fn mismatch(&mut self, sliced: &SlicedHistogram, spec: u64, value: u64) -> &[u64] {
        let words = sliced.words_per_column();
        if self.words != words {
            self.reset(words);
        }
        let mix =
            spec.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ value.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
        let slot = (mix >> self.shift) as usize;
        let set = &mut self.sets[slot * words..(slot + 1) * words];
        if self.keys[slot] != (spec, value) {
            self.keys[slot] = (spec, value);
            set.iter_mut().for_each(|w| *w = 0);
            sliced.accumulate_mismatch(spec, value, set);
        }
        set
    }

    /// Empties the memo for sets of `words` words: as many slots (a power
    /// of two, at least 2) as the cap and [`MatchMemo::MAX_WORDS`] allow.
    /// The sets are read only behind a matching key, so they start as fresh
    /// zero pages.
    fn reset(&mut self, words: usize) {
        let cap = if self.cap == 0 {
            Self::MAX_SLOTS
        } else {
            self.cap
        };
        let slots: usize = 1 << (Self::MAX_WORDS / words.max(1)).clamp(2, cap).ilog2();
        self.words = words;
        self.shift = 64 - slots.trailing_zeros();
        self.keys.clear();
        self.keys.resize(slots, Self::FREE);
        self.sets = vec![0; slots * words];
    }
}

impl EvalScratch {
    /// Creates empty scratch buffers; they size themselves on first use.
    pub fn new() -> Self {
        EvalScratch::default()
    }

    /// Scan-in transition count of the last [`encoded_size_scratch`] call:
    /// the number of adjacent bit flips inside each decoded block (the word
    /// the decoder shifts into the scan chain), summed over all blocks with
    /// multiplicity. A block owned by MV `i` decodes to
    /// `value_plane(i) | block_value(d)` — MV values at specified positions,
    /// the transmitted fill bits elsewhere. Block order is not modelled (the
    /// histogram has none), so inter-block boundary flips are not counted.
    #[inline]
    pub fn last_scan_transitions(&self) -> u64 {
        self.scan_transitions
    }

    /// Number of MVs that covered at least one block in the last
    /// [`encoded_size_scratch`] call — the used-symbol count that sizes the
    /// decoder's MV table and FSM.
    #[inline]
    pub fn last_used_mvs(&self) -> usize {
        self.used_mvs
    }
}

/// Transitions of one decoded block: adjacent-bit XOR, masked to the `K-1`
/// in-block bit boundaries, popcounted. `K = 64` still works (`mask` keeps
/// bits `0..63`); `K ≤ 1` has no adjacent pair and counts zero.
#[inline]
pub(crate) fn block_transitions(x: u64, k: usize) -> u64 {
    let mask = if k <= 1 { 0 } else { (1u64 << (k - 1)) - 1 };
    ((x ^ (x >> 1)) & mask).count_ones() as u64
}

/// Eight trits as the bytes of one word, little-endian: byte `j` is the
/// index of trit `j` (0 = `0`, 1 = `1`, 2 = `U`/`X`). One 8-byte load.
///
/// # Panics
///
/// Panics unless `octet` holds exactly eight trits.
#[inline]
fn octet_word(octet: &[Trit]) -> u64 {
    let octet: &[Trit; 8] = octet.try_into().expect("an octet holds eight trits");
    u64::from_le_bytes(octet.map(|t| t as u8))
}

/// [`octet_word`] of fewer than eight trits, padded with `U`.
#[inline]
fn tail_word(tail: &[Trit]) -> u64 {
    let mut bytes = [Trit::X as u8; 8];
    for (byte, &t) in bytes.iter_mut().zip(tail) {
        *byte = t as u8;
    }
    u64::from_le_bytes(bytes)
}

/// Decodes one `K`-trit chunk (`K ≤ 64`) into packed `(spec, value)` planes,
/// eight trits per word (see [`octet_word`]): bit 0 of each byte is the
/// value bit and the inverted bit 1 the spec bit, and one multiply gathers
/// the eight byte-LSBs into a byte. `U` padding decodes to zero in both
/// planes.
#[inline]
pub(crate) fn decode_chunk(chunk: &[Trit]) -> (u64, u64) {
    const LSBS: u64 = 0x0101_0101_0101_0101;
    // Byte i's LSB (bit 8i) times GATHER's bit 7·(8−i) lands on bit 56 + i;
    // no two partial products share a bit, so nothing carries.
    const GATHER: u64 = 0x0102_0408_1020_4080;
    let gather = |bits: u64| (bits & LSBS).wrapping_mul(GATHER) >> 56;
    let octets = chunk.chunks_exact(8);
    let tail = octets.remainder();
    let (mut spec, mut value) = (0u64, 0u64);
    for (i, octet) in octets.enumerate() {
        let word = octet_word(octet);
        value |= gather(word) << (8 * i);
        spec |= gather(!word >> 1) << (8 * i);
    }
    if !tail.is_empty() {
        // A chunk of eight trits or more loads its last eight, overlapping
        // the octets already decoded by `drop` trits; a shorter one pads.
        let (word, drop) = match chunk.len().checked_sub(8) {
            Some(last) => (octet_word(&chunk[last..]), 8 - tail.len()),
            None => (tail_word(tail), 0),
        };
        let at = chunk.len() - tail.len();
        value |= (gather(word) >> drop) << at;
        spec |= (gather(!word >> 1) >> drop) << at;
    }
    (spec, value)
}

/// The MV chunks an edit window overlaps (none for an empty window).
pub(crate) fn chunks_of(edit: &std::ops::Range<usize>, k: usize) -> std::ops::Range<usize> {
    if edit.is_empty() {
        0..0
    } else {
        edit.start / k..edit.end.div_ceil(k)
    }
}

/// Trit-slice equality, eight trits per word compare (a branchless
/// OR-reduction: callers compare chunks that mostly match fully).
#[inline]
pub(crate) fn trits_equal(a: &[Trit], b: &[Trit]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    // The tails compare as the last eight trits when there are that many.
    let mut diff = match a.len().checked_sub(8) {
        Some(last) => octet_word(&a[last..]) ^ octet_word(&b[last..]),
        None => tail_word(a) ^ tail_word(b),
    };
    for (p, q) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        diff |= octet_word(p) ^ octet_word(q);
    }
    diff == 0
}

/// Computes the compressed size, in bits, of the MV set encoded by `genes`
/// over a bit-sliced histogram — the allocation-free equivalent of decoding
/// the genome with [`MvSet::from_genes`](crate::MvSet::from_genes) and
/// pricing it with [`encoded_size`](crate::encoded_size).
///
/// `K` is the histogram's block length; `genes` must hold `K·L` trits for
/// some `L ≥ 1`. The final MV is always replaced by the all-`U` vector, as in
/// the genome decoding of the paper's Section 4, so every block is covered.
/// The returned size is bit-identical to the legacy path (with the same
/// replacement) for every input.
///
/// # Panics
///
/// Panics if `genes` is empty or not a multiple of the block length
/// (mirroring `MvSet::from_genes`).
pub fn encoded_size_scratch(
    sliced: &SlicedHistogram,
    genes: &[Trit],
    scratch: &mut EvalScratch,
) -> u64 {
    match price(sliced, genes, u64::MAX, true, scratch, None) {
        BoundedSize::Exact(size) => size,
        BoundedSize::AtLeast => unreachable!("an unbounded scan runs to the end"),
    }
}

/// [`encoded_size_scratch`] against a `bound`: answers
/// [`BoundedSize::AtLeast`] as soon as the covering scan proves the encoded
/// size at least `bound`, and the exact answer otherwise. `u64::MAX` means
/// no bound.
///
/// Before scanning the MV at covering position `p` the scan knows the fill
/// bits so far, the frequencies `f` of the MVs scanned, and `R`, the blocks
/// still uncovered (with multiplicity) out of `N` in total. Then
///
/// ```text
/// size ≥ fill_so_far + R·N_U(p) + C,   C ≥ E = Σ_scanned f·log2(N/f) + R·log2(N/R)
/// ```
///
/// because every later MV has at least `N_U(p)` unspecified positions (the
/// canonical covering order ascends in `N_U`), and `C`, the codeword bits,
/// are those of a prefix code over the scanned frequencies and however the
/// later MVs split `R`. Merging those later symbols into one can only make
/// the cheapest such code cheaper, so `C` is bounded over the frequencies
/// known so far plus `R` as one symbol. A prefix code costs at least the
/// entropy `E`, and the Huffman code of this crate spends at least one bit
/// per block (a lone symbol is clamped to one bit), so `C ≥ max(E, N)`.
///
/// The scan stops once that bound, less a relative margin of 1e-9 against
/// float rounding, reaches `bound`. The `x·log2(N/x)` terms come from a
/// table built once per histogram (per scratch), never from a per-step
/// `log2`.
///
/// The scan-transition side channel is not computed:
/// [`EvalScratch::last_scan_transitions`] is meaningless afterwards, while
/// [`EvalScratch::last_used_mvs`] holds after an `Exact` answer.
///
/// # Panics
///
/// Panics where [`encoded_size_scratch`] does.
pub fn encoded_size_bounded(
    sliced: &SlicedHistogram,
    genes: &[Trit],
    bound: u64,
    scratch: &mut EvalScratch,
) -> BoundedSize {
    price(sliced, genes, bound, false, scratch, None)
}

/// The one full kernel behind [`encoded_size_scratch`] and
/// [`encoded_size_bounded`]: `bound == u64::MAX` never prunes,
/// `transitions` switches the scan-transition side channel on, and `memo`
/// (the EA's) serves the MVs' match sets.
pub(crate) fn price(
    sliced: &SlicedHistogram,
    genes: &[Trit],
    bound: u64,
    transitions: bool,
    scratch: &mut EvalScratch,
    memo: Option<&mut MatchMemo>,
) -> BoundedSize {
    let k = sliced.block_len();
    assert!(
        !genes.is_empty() && genes.len() % k == 0,
        "genome length {} is not a positive multiple of K={k}",
        genes.len()
    );
    let l = genes.len() / k;

    // Decode genes into packed planes, genome order, eight trits per word
    // (see `decode_chunk`); the last MV is all-`U`.
    scratch.spec.clear();
    scratch.value.clear();
    for chunk in genes.chunks_exact(k) {
        let (spec, value) = decode_chunk(chunk);
        scratch.spec.push(spec);
        scratch.value.push(value);
    }
    scratch.spec[l - 1] = 0;
    scratch.value[l - 1] = 0;
    sort_and_reset(sliced, bound, scratch);
    if transitions {
        cover::<true>(sliced, bound, scratch, memo)
    } else {
        cover::<false>(sliced, bound, scratch, memo)
    }
}

/// Puts the decoded MVs into the one canonical covering order (see
/// `MvSet`'s invariant and `covering_key`): ascending N_U, ties by genome
/// index. Keys are tiny (N_U ≤ K ≤ 64), so a stable counting sort realizes
/// the exact same order as the comparison sort in `MvSet::new` at
/// O(L + K). Then the scan buffers are reset for the decoded planes.
fn sort_and_reset(sliced: &SlicedHistogram, bound: u64, scratch: &mut EvalScratch) {
    let k = sliced.block_len();
    let l = scratch.spec.len();
    let num_u = |spec: u64| k - spec.count_ones() as usize;
    scratch.buckets.clear();
    scratch.buckets.resize(k + 1, 0);
    for &spec in scratch.spec.iter() {
        scratch.buckets[num_u(spec)] += 1;
    }
    let mut start = 0u32;
    for bucket in scratch.buckets.iter_mut() {
        let here = *bucket;
        *bucket = start;
        start += here;
    }
    scratch.order.clear();
    scratch.order.resize(l, 0);
    for (i, &spec) in scratch.spec.iter().enumerate() {
        let slot = &mut scratch.buckets[num_u(spec)];
        scratch.order[*slot as usize] = i as u32;
        *slot += 1;
    }
    debug_assert!(scratch.order.windows(2).all(|w| covering_key(
        num_u(scratch.spec[w[0] as usize]),
        w[0] as usize
    ) < covering_key(
        num_u(scratch.spec[w[1] as usize]),
        w[1] as usize
    )));

    let words = sliced.words_per_column();
    scratch.uncovered.clear();
    scratch.uncovered.resize(words, u64::MAX);
    if let Some(last) = scratch.uncovered.last_mut() {
        *last = sliced.last_word_mask();
    }
    scratch.mismatch.clear();
    scratch.mismatch.resize(words, 0);
    scratch.freqs.clear();
    scratch.freqs.resize(l, 0);
    // The probe table only grows (len stays a power of two); resetting it is
    // one memset of the occupancy bitmask — slots are never read while their
    // `seen_used` bit is clear, so stale pairs can stay in place.
    let needed = (2 * l).next_power_of_two();
    if scratch.seen.len() < needed {
        scratch.seen.resize(needed, (0, 0));
        scratch.seen_used.resize(needed.div_ceil(64), 0);
    }
    scratch.seen_used.iter_mut().for_each(|w| *w = 0);
    if bound != u64::MAX {
        scratch.entropy.prepare(sliced.total_blocks());
    }
    scratch.scan_transitions = 0;
    scratch.used_mvs = 0;
}

/// The running totals of a covering scan.
struct Scan {
    /// Distinct blocks not yet covered.
    blocks_left: usize,
    /// `R`: blocks not yet covered, with multiplicity.
    left: u64,
    /// `Σ f·log2(N/f)` over the MVs taken so far (bounded scans only).
    entropy: f64,
    /// Fill bits so far.
    fill_bits: u64,
    /// MVs with a nonzero frequency so far.
    used: usize,
}

impl Scan {
    /// Nothing covered yet.
    fn new(sliced: &SlicedHistogram) -> Self {
        Scan {
            blocks_left: sliced.num_distinct(),
            left: sliced.total_blocks(),
            entropy: 0.0,
            fill_bits: 0,
            used: 0,
        }
    }

    /// Accounts for an MV with `nu` unspecified positions that covered
    /// `freq` blocks; `entropy` is the table of a bounded scan.
    #[inline]
    fn take(&mut self, freq: u64, nu: u64, entropy: Option<&EntropyTable>) {
        self.fill_bits += freq * nu;
        if freq > 0 {
            self.used += 1;
            self.left -= freq;
            if let Some(table) = entropy {
                self.entropy += table.at_least(freq);
            }
        }
    }
}

/// The bit-sliced covering scan with inline duplicate skipping: an MV whose exact (spec, value) pair was
/// already scanned can never cover a block (its twin took them all), so it
/// keeps frequency 0 without touching the histogram — precisely what the
/// sequential first-match rule assigns it. Duplicates are found with a
/// small open-addressing probe instead of a second sort. Under a bound
/// (`bound < u64::MAX`) every fresh MV first checks the lower bound of
/// [`encoded_size_bounded`]. `TRANSITIONS` switches the scan-transition
/// side channel on; a `memo` serves each fresh MV's conflict set.
fn cover<const TRANSITIONS: bool>(
    sliced: &SlicedHistogram,
    bound: u64,
    scratch: &mut EvalScratch,
    mut memo: Option<&mut MatchMemo>,
) -> BoundedSize {
    let k = sliced.block_len();
    let num_u = |spec: u64| k - spec.count_ones() as usize;
    let counts = sliced.counts();
    let bounded = bound != u64::MAX;
    let threshold = bound as f64 * (1.0 + BOUND_MARGIN);
    let mut scan = Scan::new(sliced);
    for pos in 0..scratch.order.len() {
        if scan.blocks_left == 0 {
            // Everything is covered; the remaining MVs keep frequency 0.
            break;
        }
        let i = scratch.order[pos] as usize;
        let (spec, value) = (scratch.spec[i], scratch.value[i]);
        if probe_seen(spec, value, &mut scratch.seen, &mut scratch.seen_used) {
            continue; // exact duplicate of an earlier-in-covering-order MV
        }
        let nu = num_u(spec) as u64;
        if bounded {
            let lower = (scan.fill_bits + scan.left * nu) as f64 + scratch.entropy.code_bits(&scan);
            if lower >= threshold {
                return BoundedSize::AtLeast;
            }
        }
        let mismatch = match memo.as_deref_mut() {
            Some(memo) => memo.mismatch(sliced, spec, value),
            None => {
                scratch.mismatch.iter_mut().for_each(|w| *w = 0);
                sliced.accumulate_mismatch(spec, value, &mut scratch.mismatch);
                &scratch.mismatch
            }
        };
        let mut freq = 0u64;
        for (w, (unc, &mis)) in scratch.uncovered.iter_mut().zip(mismatch).enumerate() {
            let mut matched = *unc & !mis;
            if matched != 0 {
                *unc &= mis;
                while matched != 0 {
                    let b = matched.trailing_zeros() as usize;
                    matched &= matched - 1;
                    let d = w * 64 + b;
                    freq += counts[d];
                    scan.blocks_left -= 1;
                    if TRANSITIONS {
                        // The decoded scan-in word of block `d`: MV values
                        // at specified positions (value ⊆ spec by
                        // construction), the block's fill bits at its `U`s.
                        let (_, bv) = sliced.block_planes(d);
                        scratch.scan_transitions += counts[d] * block_transitions(value | bv, k);
                    }
                }
            }
        }
        scratch.freqs[pos] = freq;
        scan.take(freq, nu, bounded.then_some(&scratch.entropy));
    }
    scratch.used_mvs = scan.used;
    debug_assert_eq!(scan.blocks_left, 0, "the all-U MV covers every block");

    // Length-only Huffman pricing of the codeword part.
    BoundedSize::Exact(
        scan.fill_bits + huffman_weighted_length(&scratch.freqs, &mut scratch.huffman),
    )
}

/// Returns `true` if `(spec, value)` is already in the table; inserts it
/// otherwise. Linear probing over a power-of-two table at most half full,
/// with occupancy in a separate bitmask so the table resets with one memset.
///
/// The sizing contract is enforced, not assumed: a non-power-of-two table
/// would probe a wrong (aliased) slot sequence, and a full table of
/// non-matching entries would loop forever — both fail loudly instead
/// (`debug_assert!` and a guaranteed-free-slot guard respectively).
#[inline]
fn probe_seen(spec: u64, value: u64, seen: &mut [(u64, u64)], used: &mut [u64]) -> bool {
    debug_assert!(
        seen.len().is_power_of_two(),
        "probe table length {} is not a power of two",
        seen.len()
    );
    let mask = seen.len() - 1;
    // Cheap two-word mix (SplitMix64-style odd constants); collisions only
    // cost probes, never correctness — slots are compared exactly.
    let mut h = (spec
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(value.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        >> 32) as usize
        & mask;
    for _ in 0..seen.len() {
        if used[h / 64] >> (h % 64) & 1 == 0 {
            used[h / 64] |= 1 << (h % 64);
            seen[h] = (spec, value);
            return false;
        }
        if seen[h] == (spec, value) {
            return true;
        }
        h = (h + 1) & mask;
    }
    panic!(
        "probe table has no free slot for a fresh pair (len {}): \
         the at-most-half-full sizing contract was violated",
        seen.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::encoded_size;
    use crate::mvset::MvSet;
    use evotc_bits::{BlockHistogram, TestSet, TestSetString};

    fn fixtures(rows: &[&str], k: usize) -> (BlockHistogram, SlicedHistogram) {
        let set = TestSet::parse(rows).unwrap();
        let hist = BlockHistogram::from_string(&TestSetString::new(&set, k));
        let sliced = SlicedHistogram::from_histogram(&hist);
        (hist, sliced)
    }

    fn genes(s: &str) -> Vec<Trit> {
        evotc_bits::parse_trits(&s.replace(' ', "")).unwrap()
    }

    /// The kernel's size of `g` and the legacy path's, last MV all-`U`.
    fn both(
        hist: &BlockHistogram,
        sliced: &SlicedHistogram,
        g: &[Trit],
        scratch: &mut EvalScratch,
    ) -> (u64, u64) {
        let k = sliced.block_len();
        let fast = encoded_size_scratch(sliced, g, scratch);
        let mvs = MvSet::from_genes(k, g, true).unwrap();
        (fast, encoded_size(&mvs, hist).expect("the all-U MV covers"))
    }

    #[test]
    fn matches_legacy_on_clustered_data() {
        let (hist, sliced) = fixtures(
            &["110100XX", "110000XX", "11010000", "110X00XX", "11010011"],
            8,
        );
        let mut scratch = EvalScratch::new();
        for g in [
            genes("110U00UU 00000000 UUUUUUUU"),
            genes("11010000 110000UU UUUUUUUU"),
            genes("UUUUUUUU UUUUUUUU UUUUUUUU"),
            genes("110U00UU 110U00UU UUUUUUUU"), // exact duplicate MVs
        ] {
            let (fast, slow) = both(&hist, &sliced, &g, &mut scratch);
            assert_eq!(fast, slow, "genome {g:?}");
        }
    }

    #[test]
    fn the_last_vector_is_always_all_u() {
        // Left as genes, `00000000` would match neither block.
        let (hist, sliced) = fixtures(&["10101010", "01010101"], 8);
        let mut scratch = EvalScratch::new();
        let g = genes("10101010 00000000");
        let (fast, slow) = both(&hist, &sliced, &g, &mut scratch);
        assert_eq!(fast, slow);
        assert_eq!(
            fast,
            encoded_size_scratch(&sliced, &genes("10101010 UUUUUUUU"), &mut scratch)
        );
    }

    #[test]
    fn scratch_is_reusable_across_shapes() {
        let (hist_a, sliced_a) = fixtures(&["110100XX", "11000000"], 8);
        let (hist_b, sliced_b) = fixtures(&["1010", "0101", "1111", "10X0"], 4);
        let mut scratch = EvalScratch::new();
        for _ in 0..3 {
            let g = genes("110U00UU UUUUUUUU");
            let (fast, slow) = both(&hist_a, &sliced_a, &g, &mut scratch);
            assert_eq!(fast, slow);
            let g = genes("1010 UUUU");
            let (fast, slow) = both(&hist_b, &sliced_b, &g, &mut scratch);
            assert_eq!(fast, slow);
        }
    }

    #[test]
    fn many_distinct_blocks_cross_word_boundaries() {
        // 96 distinct K=8 blocks: two words per column, partial last word.
        let rows: Vec<String> = (0..96u32).map(|i| format!("{i:08b}")).collect();
        let refs: Vec<&str> = rows.iter().map(String::as_str).collect();
        let (hist, sliced) = fixtures(&refs, 8);
        assert!(sliced.words_per_column() >= 2);
        let mut scratch = EvalScratch::new();
        for g in [
            genes("0000UUUU 0101UUUU UUUUUUUU"),
            genes("00000000 UUUUUUU0 UUUUUUUU"),
            genes("0U0U0U0U 1U1U1U1U UUUUUUUU"),
        ] {
            let (fast, slow) = both(&hist, &sliced, &g, &mut scratch);
            assert_eq!(fast, slow, "genome {g:?}");
        }
    }

    /// A deterministic word stream (SplitMix64) for exhaustive-ish sweeps.
    fn words(seed: u64, n: usize) -> Vec<u64> {
        let mut z = seed;
        (0..n)
            .map(|_| {
                z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut x = z;
                x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                x ^ (x >> 31)
            })
            .collect()
    }

    #[test]
    fn block_transitions_counts_adjacent_flips_bit_by_bit() {
        // The kernel and the covering oracle share this helper, so the
        // objective-matching property cannot catch a broken one; this pins
        // it to the definition: flips between bits j and j+1 for j < K-1.
        let mut inputs = vec![0, u64::MAX, 0x5555_5555_5555_5555, 1, 1 << 63];
        inputs.extend(words(5, 200));
        for k in 1..=64usize {
            for &x in &inputs {
                let bit = |j: usize| (x >> j) & 1;
                let naive = (0..k - 1).filter(|&j| bit(j) != bit(j + 1)).count() as u64;
                assert_eq!(block_transitions(x, k), naive, "x={x:#x} k={k}");
            }
        }
    }

    #[test]
    fn word_decode_matches_the_per_trit_mapping() {
        let pool = words(9, 64);
        for len in 1..=64usize {
            for (n, &w) in pool.iter().enumerate() {
                let chunk: Vec<Trit> = (0..len)
                    .map(|j| {
                        Trit::from_index(((w >> (2 * (j % 32))).wrapping_add(n as u64) % 3) as u8)
                    })
                    .collect();
                let (mut spec, mut value) = (0u64, 0u64);
                for (j, &t) in chunk.iter().enumerate() {
                    spec |= (t.is_specified() as u64) << j;
                    value |= ((t == Trit::One) as u64) << j;
                }
                assert_eq!(decode_chunk(&chunk), (spec, value), "len {len}: {chunk:?}");
                assert!(trits_equal(&chunk, &chunk));
                for j in 0..len {
                    let mut other = chunk.clone();
                    other[j] = Trit::from_index((other[j].index() + 1) % 3);
                    assert!(!trits_equal(&chunk, &other), "len {len}, trit {j}");
                }
                assert!(!trits_equal(&chunk, &chunk[..len - 1]));
            }
        }
    }

    #[test]
    fn entropy_table_bounds_x_log_n_over_x_from_below() {
        // Exact below FINE; bucketed above it, never above the true value.
        for total in [
            1u64,
            7,
            300,
            EntropyTable::FINE,
            3 * EntropyTable::FINE + 5,
            1 << 20,
        ] {
            let mut table = EntropyTable::default();
            table.prepare(total);
            assert!(table.fine.len() + table.coarse.len() <= 2 * EntropyTable::FINE as usize + 2);
            let n = total as f64;
            let mut xs: Vec<u64> = (0..=total.min(300)).collect();
            xs.extend(words(total, 300).iter().map(|w| w % (total + 1)));
            xs.push(total);
            for x in xs {
                let exact = if x == 0 {
                    0.0
                } else {
                    x as f64 * (n / x as f64).log2()
                };
                let bound = table.at_least(x);
                assert!(bound <= exact * (1.0 + 1e-12) + 1e-9, "N={total} x={x}");
                if x < EntropyTable::FINE.min(total + 1) {
                    assert!(
                        (bound - exact).abs() <= exact * 1e-12 + 1e-12,
                        "N={total} x={x}"
                    );
                }
            }
        }
    }

    #[test]
    fn series_log2_matches_the_library_log2() {
        let mut xs = vec![
            1.0,
            1.5,
            std::f64::consts::SQRT_2,
            2.0,
            3.0,
            1e-3,
            1e300,
            8191.0,
        ];
        xs.extend(
            words(3, 2000)
                .iter()
                .map(|&w| (w >> 11) as f64 / (1u64 << 40) as f64 + 1e-6),
        );
        xs.extend((1..5000).map(|i| 5000.0 / i as f64));
        for x in xs {
            let (ours, libm) = (log2(x), x.log2());
            assert!(
                (ours - libm).abs() <= 4e-16 * libm.abs().max(1.0),
                "log2({x}): {ours} vs {libm}"
            );
        }
    }

    #[test]
    fn code_bound_never_exceeds_the_huffman_length() {
        // Any split of the frequencies into the MVs scanned so far and a
        // remainder R (which later MVs may split any way) must bound the
        // Huffman length of the whole from below — skewed distributions,
        // where one symbol holds over half the blocks, included.
        let mut huffman = HuffmanScratch::default();
        for (trial, &w) in words(17, 400).iter().enumerate() {
            let symbols = 1 + (w % 12) as usize;
            let skew = trial % 3 == 0;
            let freqs: Vec<u64> = words(w, symbols)
                .iter()
                .enumerate()
                .map(|(i, &x)| {
                    if skew && i == 0 {
                        500 + x % 3000
                    } else {
                        x % 60
                    }
                })
                .collect();
            let total: u64 = freqs.iter().sum();
            if total == 0 {
                continue;
            }
            let exact = huffman_weighted_length(&freqs, &mut huffman) as f64;
            let mut table = EntropyTable::default();
            table.prepare(total);
            for split in 0..=symbols {
                let scanned = &freqs[..split];
                let scan = Scan {
                    blocks_left: 0,
                    left: freqs[split..].iter().sum(),
                    entropy: scanned.iter().map(|&f| table.at_least(f)).sum(),
                    fill_bits: 0,
                    used: 0,
                };
                let bound = table.code_bits(&scan);
                assert!(
                    bound <= exact * (1.0 + 1e-12) + 1e-9,
                    "{freqs:?} split {split}: bound {bound} > Huffman {exact}"
                );
            }
        }
    }

    #[test]
    fn bounded_kernel_is_exact_below_the_bound_and_stops_at_it() {
        let (hist, sliced) = fixtures(
            &["110100XX", "110000XX", "11010000", "110X00XX", "11010011"],
            8,
        );
        let mut scratch = EvalScratch::new();
        for g in [
            genes("110U00UU 00000000 UUUUUUUU"),
            genes("11010000 110000UU UUUUUUUU"),
            genes("UUUUUUUU UUUUUUUU UUUUUUUU"),
        ] {
            let (exact, _) = both(&hist, &sliced, &g, &mut scratch);
            for bound in [exact + 1, exact + 100, u64::MAX] {
                let got = encoded_size_bounded(&sliced, &g, bound, &mut scratch);
                assert_eq!(got, BoundedSize::Exact(exact), "bound {bound}");
            }
            // Every lower bound starts at zero or more, so a zero bound stops
            // at the first MV.
            let got = encoded_size_bounded(&sliced, &g, 0, &mut scratch);
            assert_eq!(got, BoundedSize::AtLeast);
            for bound in [exact / 2, exact] {
                let got = encoded_size_bounded(&sliced, &g, bound, &mut scratch);
                if let BoundedSize::Exact(size) = got {
                    assert_eq!(size, exact);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "not a positive multiple")]
    fn rejects_ragged_genomes() {
        let (_, sliced) = fixtures(&["1111"], 4);
        let _ = encoded_size_scratch(&sliced, &genes("111"), &mut EvalScratch::new());
    }

    #[test]
    #[should_panic(expected = "no free slot")]
    fn undersized_probe_table_fails_loudly_instead_of_hanging() {
        // A 2-slot table fed 3 distinct pairs must not spin forever hunting
        // for a free slot that does not exist.
        let mut seen = vec![(0u64, 0u64); 2];
        let mut used = vec![0u64; 1];
        for pair in 1..=3u64 {
            let fresh = !probe_seen(pair, pair, &mut seen, &mut used);
            assert!(fresh, "pair {pair} was never inserted before");
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not a power of two")]
    fn non_power_of_two_probe_table_is_rejected_in_debug() {
        let mut seen = vec![(0u64, 0u64); 3];
        let mut used = vec![0u64; 1];
        let _ = probe_seen(1, 1, &mut seen, &mut used);
    }

    #[test]
    fn match_memo_serves_exact_sets_within_its_cap() {
        // 70 distinct 8-bit rows: two words per set. A population of 3 MVs
        // gets 8 slots, so the 81 MVs below collide and replace each other.
        let rows: Vec<String> = (0..70u32).map(|i| format!("{:08b}", i * 3)).collect();
        let refs: Vec<&str> = rows.iter().map(String::as_str).collect();
        let (_, sliced) = fixtures(&refs, 8);
        assert_eq!(sliced.words_per_column(), 2);
        let mut memo = MatchMemo::default();
        memo.fit(3);
        for round in 0..2 {
            for m in 0..81u64 {
                let spec = (m * 37) & 0xFF;
                let value = (m * 101) & spec;
                let mut fresh = vec![0u64; 2];
                sliced.accumulate_mismatch(spec, value, &mut fresh);
                assert_eq!(
                    memo.mismatch(&sliced, spec, value),
                    fresh,
                    "round {round}, MV {m}"
                );
            }
        }
        assert_eq!(memo.keys.len(), 8);
        memo.fit(1000);
        let _ = memo.mismatch(&sliced, 0, 0);
        assert_eq!(memo.keys.len(), MatchMemo::MAX_SLOTS);
    }
}
