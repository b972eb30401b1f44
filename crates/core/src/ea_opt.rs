//! Evolutionary matching-vector determination (paper, Section 3.1).

use evotc_bits::{BlockHistogram, TestSet, TestSetString, Trit};
use evotc_evo::{
    CacheStats, CheckpointError, EaBuilder, EaCheckpoint, EaConfig, EaResult, FitnessEval,
    Individual, Lineage, Objectives, Provenance, Topology,
};
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::hash::content_hash;
use crate::incremental::IncrementalOutcome;
use crate::kernel::{block_transitions, BoundedSize, MatchMemo};

use crate::compressed::CompressedTestSet;
use crate::covering::Covering;
use crate::encoding::{encode_with_mvs, size_of_covering};
use crate::error::CompressError;
use crate::mvset::MvSet;
use crate::ninec::ninec_matching_vectors;
use crate::TestCompressor;

/// The paper's contribution: a compressor that searches the `3^{K·L}` space
/// of matching-vector sets with an evolutionary algorithm.
///
/// An *individual* is a string of `K·L` genes over `{0, 1, U}`; its fitness
/// is the compression rate achieved by the corresponding MV set (computed
/// over the distinct-block histogram, which is exact). The last MV is always
/// forced to all-`U` "such that there were no insolvable instances" (paper,
/// Section 4), so every individual covers every block.
///
/// # Example
///
/// ```
/// use evotc_bits::TestSet;
/// use evotc_core::{EaCompressor, TestCompressor};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let set = TestSet::parse(&["110100XX", "110000XX", "1101XXXX"])?;
/// let compressor = EaCompressor::builder(8, 4)
///     .seed(3)
///     .stagnation_limit(50)
///     .build();
/// let compressed = compressor.compress(&set)?;
/// assert!(compressed.rate_percent() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EaCompressor {
    k: usize,
    l: usize,
    config: EaConfig,
    seed_ninec: bool,
}

impl EaCompressor {
    /// Starts building a compressor for `l` MVs of length `k`.
    ///
    /// The paper's default experiment uses `K = 12`, `L = 64` with the EA
    /// defaults of [`EaConfig`].
    pub fn builder(k: usize, l: usize) -> EaCompressorBuilder {
        EaCompressorBuilder {
            k,
            l,
            config: EaConfig::default(),
            seed_ninec: false,
        }
    }

    /// The paper's default Table 1 configuration: `K = 12`, `L = 64`.
    pub fn paper_default() -> Self {
        EaCompressor::builder(12, 64).build()
    }

    /// Block length `K`.
    pub fn block_len(&self) -> usize {
        self.k
    }

    /// Number of matching vectors `L`.
    pub fn num_mvs(&self) -> usize {
        self.l
    }

    /// The EA configuration in use.
    pub fn config(&self) -> &EaConfig {
        &self.config
    }

    /// Compresses and also returns the EA run's record (generations,
    /// evaluations, fitness trajectory, time and cache counters; see
    /// [`EaResult`]) for convergence studies.
    ///
    /// # Errors
    ///
    /// As for [`TestCompressor::compress`].
    pub fn compress_with_summary(
        &self,
        set: &TestSet,
    ) -> Result<(CompressedTestSet, EaResult<Trit>), CompressError> {
        if set.total_bits() == 0 {
            return Err(CompressError::EmptyTestSet);
        }
        let string = TestSetString::try_new(set, self.k)?;
        let histogram = BlockHistogram::from_string(&string);
        let result = self
            .ea_builder(&histogram, string.payload_bits() as f64)
            .run();
        let mvs = MvSet::from_genes(self.k, &result.best_genome, true)
            .expect("k was validated when the histogram was built");
        let compressed = encode_with_mvs(&self.name(), set, &mvs)?;
        Ok((compressed, result))
    }

    /// The EA this compressor runs over `histogram`, ready to run: genomes
    /// of `K·L` random trits, scored by [`MvFitness`] against the
    /// uncompressed payload of `original_bits`, under the compressor's
    /// [`EaConfig`], with the 9C seed when [`EaCompressorBuilder::seed_ninec`]
    /// asked for it. Callers add what only they need: a cancel token, a
    /// checkpoint sink, a resume point.
    ///
    /// # Panics
    ///
    /// The run panics if `histogram`'s block length is not `K`.
    pub fn ea_builder<'a, 's>(
        &self,
        histogram: &'a BlockHistogram,
        original_bits: f64,
    ) -> EaBuilder<'s, Trit, impl Fn(&mut StdRng) -> Trit + Sync, MvFitness<'a>> {
        // One immutable evaluator borrows the histogram; every island worker
        // shares it instead of re-borrowing mutable closure state.
        let fitness = MvFitness::new(self.k, histogram, original_bits);
        let sample = |rng: &mut StdRng| Trit::from_index(rng.gen_range(0..3u8));
        let ea = EaBuilder::new(self.k * self.l, sample, fitness).config(self.config.clone());
        if self.seed_ninec {
            ea.seed_population([self.ninec_genome()])
        } else {
            ea
        }
    }

    /// The genome embedding the nine 9C vectors, padded with all-`U` MVs.
    ///
    /// # Panics
    ///
    /// Panics if `L < 9` or `K` is odd (the 9C set requires an even `K`).
    fn ninec_genome(&self) -> Vec<Trit> {
        assert!(self.l >= 9, "9C seeding requires L >= 9");
        let mut genes = Vec::with_capacity(self.k * self.l);
        for mv in ninec_matching_vectors(self.k) {
            for j in 0..self.k {
                genes.push(mv.try_trit(j).expect("j < K by construction"));
            }
        }
        genes.resize(self.k * self.l, Trit::X);
        genes
    }
}

impl TestCompressor for EaCompressor {
    fn name(&self) -> String {
        format!("EA(K={},L={})", self.k, self.l)
    }

    fn compress(&self, set: &TestSet) -> Result<CompressedTestSet, CompressError> {
        Ok(self.compress_with_summary(set)?.0)
    }
}

/// The paper's fitness function (Section 3.1) as a batch evaluator: the
/// compression rate of the MV set a genome encodes, computed over the
/// distinct-block histogram.
///
/// The evaluator is immutable — it borrows one [`BlockHistogram`] and owns
/// the bit-sliced transposition built from it — so every island worker of
/// an island run shares the same instance. What changes while scoring
/// lives in an [`MvFitnessState`], one per island, owned by the engine (see
/// [`FitnessEval::State`]). The last MV of every genome is all-`U` (paper,
/// Section 4), so every genome covers every block.
///
/// Two single-genome entry points exist:
///
/// * [`MvFitness::evaluate_oracle`] (behind [`FitnessEval::evaluate`]) —
///   the reference path: decode an [`MvSet`], cover, price a Huffman code.
///   Kept as the oracle the kernel and the incremental path are tested
///   against.
/// * [`MvFitness::evaluate_with_objectives`] — the allocation-free,
///   bit-sliced kernel (see [`crate::EvalScratch`]); what
///   [`FitnessEval::evaluate_batch`] uses for genomes without provenance
///   (the initial population) and for children the incremental path does
///   not price.
///
/// Engine children that carry provenance are priced incrementally (see
/// [`crate::EvalCache`]): one ownership patch per changed MV chunk against
/// a parent covering cached in the island's state — keyed by genome
/// content, so it survives the population reshuffling between generations,
/// and probed read-only ([`crate::encoded_size_probe`], cost gate on), so
/// one covering prices every sibling. Crossover children are priced against
/// whichever parent is cached: the outside-the-window parent through the
/// recorded edit window, or the window-content donor through a
/// whole-genome diff (see [`evotc_evo::Lineage::second_parent`]). A
/// migrant brings its covering to the island it joins
/// ([`FitnessEval::migrate`]).
///
/// The engine never hands over a child that equals a parent (a copy takes
/// the parent's score; see [`FitnessEval`]), and nothing is priced twice
/// here either:
///
/// * A probed child that scores above the worst parent
///   ([`Provenance::floor`]) may be a parent next generation, so the
///   covering its probe patched is kept ([`crate::encoded_size_keep`]):
///   the parent then costs a lookup, not a rebuild.
/// * The full kernel and the parent rebuild read each MV's match set from
///   a bounded memo in the island's state, keyed by the MV's exact planes,
///   instead of OR-ing its conflict columns again.
///
/// Cache effectiveness is observable: hit/miss/kept/fallback counters
/// accumulate on the evaluator and surface through
/// [`FitnessEval::cache_stats`] on [`EaResult::cache`].
/// Each island's lookups follow from its own trajectory, so the counters are
/// the same at any thread count.
///
/// Work whose result nobody reads is skipped. The scan-transition side
/// channel is computed only when the batch asks for objectives. And a
/// batch with a survival floor ([`Provenance::floor`]) and no objectives
/// runs its fallbacks through [`crate::encoded_size_bounded`]: a child
/// proven at or below the floor is reported as the floor and counted as
/// [`CacheStats::pruned`].
///
/// All paths return bit-identical `f64` fitness for every genome — enforced
/// by `tests/props_fitness_kernel.rs` and `tests/props_incremental.rs` —
/// except that pruned children score the floor, as the floor contract
/// allows (enforced by `tests/survival_floor.rs`).
#[derive(Debug)]
pub struct MvFitness<'a> {
    /// Identifies the histogram to the island states (see
    /// [`MvFitnessState::serve`]); clones share it.
    id: u64,
    k: usize,
    histogram: &'a BlockHistogram,
    sliced: evotc_bits::SlicedHistogram,
    original_bits: f64,
    /// Children priced off a cached parent covering.
    hits: AtomicU64,
    /// Parent coverings built from scratch.
    misses: AtomicU64,
    /// Coverings kept from a probe for a child likely to survive.
    kept: AtomicU64,
    /// Children with lineage that the full kernel priced.
    fallbacks: AtomicU64,
    /// Fallbacks the survival floor cut short.
    pruned: AtomicU64,
}

impl Clone for MvFitness<'_> {
    /// Clones the evaluator configuration; the clone's counters start at
    /// zero.
    fn clone(&self) -> Self {
        MvFitness {
            sliced: self.sliced.clone(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            kept: AtomicU64::new(0),
            fallbacks: AtomicU64::new(0),
            pruned: AtomicU64::new(0),
            ..*self
        }
    }
}

/// One island's working state for [`MvFitness`]: the kernel and patch
/// scratch, the parent coverings the island's children are priced against,
/// and the MV match-set memo. The engine creates one per island and drops
/// it with the island (see [`FitnessEval::State`]); its contents never
/// change a score, only what a score costs. A state that moves to an
/// evaluator of another histogram starts over.
///
/// The coverings are keyed by genome content — each [`crate::EvalCache`]
/// holds its genome — and bounded at the latest batch's parent population
/// plus the larger of that population and the batch's children: a batch
/// looks up at most one covering per parent and keeps at most one per
/// child, so it never evicts a covering it uses. A full state rebuilds its
/// least recently used covering in place, so a long run's footprint stays
/// flat.
#[derive(Debug, Default)]
pub struct MvFitnessState {
    /// [`MvFitness`] identity the coverings and match sets were built for;
    /// 0 before the first batch.
    evaluator: u64,
    scratch: crate::EvalScratch,
    patch: crate::PatchScratch,
    /// Match sets of the MVs the island priced lately.
    match_sets: MatchMemo,
    parents: Vec<CachedParent>,
    /// Covering bound: the latest batch's parent population plus the larger
    /// of that population and its children (twice the parents at the
    /// paper's `S = 10`, `C = 5`).
    capacity: usize,
    /// Use counter ordering the coverings for eviction.
    tick: u64,
    /// Per-batch lookup memo by parent index: `None` = not looked up yet,
    /// `Some(found)` = the settled index into `parents`. One hash and
    /// content check per distinct parent serves all of its children.
    memo: Vec<Option<Option<usize>>>,
    /// The covering each parent index settled on in earlier batches. Most
    /// parents keep their index from one generation to the next, so one
    /// content compare confirms the covering without hashing the genome.
    /// Never trusted without that compare: slots are rebuilt in place and
    /// the engine recycles gene buffers.
    hints: Vec<Option<usize>>,
    /// Whether the current batch prices scan transitions. A covering built
    /// the other way does not serve it (see the shape tag of
    /// [`crate::EvalCache`]).
    transitions: bool,
    /// The current batch's survival floor where it may prune, and the
    /// smallest encoded size whose rate is at or below it (see
    /// [`MvFitness::size_floor`]).
    floor: Option<(f64, u64)>,
    /// The current batch's survival floor, pruning or not: a probed child
    /// above it keeps its covering.
    keep_above: Option<f64>,
}

/// One cached parent covering.
#[derive(Debug, Default)]
struct CachedParent {
    /// [`content_hash`] of the genome the covering was built from.
    hash: u64,
    /// Tick of the latest lookup that returned this covering.
    used: u64,
    cache: crate::EvalCache,
}

impl MvFitnessState {
    /// The covering this state holds for exactly `genome`, built for the
    /// latest batch's transition setting, if any: a parent's, or a child's
    /// kept from its probe. Equal, field for field, to what
    /// [`crate::encoded_size_rebuild`] builds for `genome` with that
    /// setting ([`crate::EvalCache::tracks_transitions`]).
    pub fn covering(&self, genome: &[Trit]) -> Option<&crate::EvalCache> {
        let hash = content_hash(genome);
        self.parents
            .iter()
            .find(|p| p.hash == hash && serves(p, genome, self.transitions))
            .map(|p| &p.cache)
    }

    /// Starts serving evaluator `id`: coverings and match sets built for
    /// another histogram are dropped.
    fn serve(&mut self, id: u64) {
        if self.evaluator != id {
            self.evaluator = id;
            self.parents.clear();
            self.hints.clear();
            self.match_sets.clear();
        }
    }

    /// Index of the first covering built from exactly `genome` (for this
    /// batch's transition setting), marked as used. The content hash
    /// prefilters, so a non-matching covering costs one `u64` compare.
    fn find(&mut self, genome: &[Trit]) -> Option<usize> {
        self.find_hashed(genome, content_hash(genome))
    }

    /// [`MvFitnessState::find`] with the genome's content hash at hand.
    fn find_hashed(&mut self, genome: &[Trit], hash: u64) -> Option<usize> {
        let transitions = self.transitions;
        let i = self
            .parents
            .iter()
            .position(|p| p.hash == hash && serves(p, genome, transitions))?;
        Some(self.touch(i))
    }

    /// [`MvFitnessState::find`] through a hinted slot: when the slot holds
    /// `genome`, its stored hash is the genome's, so the first covering
    /// holding it — the one `find` answers; two parent indices with equal
    /// genomes can each have built one — is found without hashing.
    fn find_hinted(&mut self, genome: &[Trit], slot: usize) -> Option<usize> {
        let transitions = self.transitions;
        let Some(hinted) = self
            .parents
            .get(slot)
            .filter(|p| serves(p, genome, transitions))
        else {
            return self.find(genome);
        };
        let hash = hinted.hash;
        let first = self.parents[..slot]
            .iter()
            .position(|p| p.hash == hash && serves(p, genome, transitions))
            .unwrap_or(slot);
        Some(self.touch(first))
    }

    /// Marks covering `i` as just used and returns it.
    fn touch(&mut self, i: usize) -> usize {
        self.tick += 1;
        self.parents[i].used = self.tick;
        i
    }

    /// [`MvFitnessState::find`] for `parents[idx]`, through the memo and the
    /// slot the index settled on before.
    fn find_memo(&mut self, parents: &[Individual<Trit>], idx: usize) -> Option<usize> {
        if let Some(settled) = self.memo[idx] {
            return settled;
        }
        let found = match self.hints.get(idx).copied().flatten() {
            Some(slot) => self.find_hinted(&parents[idx].genes, slot),
            None => self.find(&parents[idx].genes),
        };
        self.memo[idx] = Some(found);
        found
    }

    /// Ends a batch: the slots it settled on become the next batch's hints
    /// (an index it never looked up keeps its older hint), and the memo is
    /// cleared.
    fn settle(&mut self) {
        self.hints.resize(self.memo.len(), None);
        for (hint, settled) in self.hints.iter_mut().zip(&self.memo) {
            if let Some(found) = settled {
                *hint = *found;
            }
        }
        self.memo.clear();
    }

    /// Claims the slot for a new covering of a genome with content hash
    /// `hash`: a fresh one below capacity, otherwise the least recently used
    /// one, whose buffers the new covering reuses.
    fn claim(&mut self, hash: u64) -> usize {
        self.tick += 1;
        let i = if self.parents.len() < self.capacity.max(1) {
            self.parents.push(CachedParent::default());
            self.parents.len() - 1
        } else {
            let lru = (0..self.parents.len())
                .min_by_key(|&i| self.parents[i].used)
                .expect("a full state holds a covering");
            // A batch uses at most one covering per parent and keeps at
            // most one per child, and a full state holds as many as both
            // together, so no memoized lookup points at the least recently
            // used one.
            debug_assert!(!self.memo.contains(&Some(Some(lru))));
            lru
        };
        self.parents[i].hash = hash;
        self.parents[i].used = self.tick;
        i
    }
}

/// Whether `parent` holds the covering of exactly `genome`, built with the
/// given transition setting.
fn serves(parent: &CachedParent, genome: &[Trit], transitions: bool) -> bool {
    parent.cache.tracks_transitions() == transitions && parent.cache.holds(genome)
}

impl<'a> MvFitness<'a> {
    /// Creates the evaluator for genomes of `L · k` trits over `histogram`;
    /// `original_bits` is the uncompressed payload size the rate is
    /// relative to. The bit-sliced transposition of the histogram is built
    /// here, once per run.
    pub fn new(k: usize, histogram: &'a BlockHistogram, original_bits: f64) -> Self {
        static EVALUATORS: AtomicU64 = AtomicU64::new(1);
        MvFitness {
            id: EVALUATORS.fetch_add(1, Ordering::Relaxed),
            k,
            histogram,
            sliced: evotc_bits::SlicedHistogram::from_histogram(histogram),
            original_bits,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            kept: AtomicU64::new(0),
            fallbacks: AtomicU64::new(0),
            pruned: AtomicU64::new(0),
        }
    }

    /// Scores one genome through the allocation-free kernel, reusing
    /// `scratch` across calls: the scalar fitness, bit-identical to
    /// [`MvFitness::evaluate`], and the full minimized objective vector
    /// `(encoded_bits, scan_transitions, decoder_gate_equivalents)` — the
    /// kernel computes the extra objectives as side-channels of the same
    /// pass, so they cost no second evaluation.
    pub fn evaluate_with_objectives(
        &self,
        genes: &[Trit],
        scratch: &mut crate::EvalScratch,
    ) -> (f64, Objectives) {
        self.exact(genes, scratch, None)
    }

    /// [`MvFitness::evaluate_with_objectives`], with the MVs' match sets
    /// read from `memo` when one is given.
    fn exact(
        &self,
        genes: &[Trit],
        scratch: &mut crate::EvalScratch,
        memo: Option<&mut MatchMemo>,
    ) -> (f64, Objectives) {
        match self.kernel(genes, u64::MAX, true, scratch, memo) {
            BoundedSize::Exact(size) => self.score(
                size,
                scratch.last_scan_transitions(),
                scratch.last_used_mvs(),
            ),
            BoundedSize::AtLeast => unreachable!("an unbounded scan runs to the end"),
        }
    }

    /// The full kernel over this evaluator's histogram, against `bound`
    /// (`u64::MAX` = none), with or without the transition side channel and
    /// the match-set memo (see [`crate::kernel::price`]).
    fn kernel(
        &self,
        genes: &[Trit],
        bound: u64,
        transitions: bool,
        scratch: &mut crate::EvalScratch,
        memo: Option<&mut MatchMemo>,
    ) -> BoundedSize {
        // Mirror the legacy path exactly: both panic on a misconstructed
        // evaluator. An out-of-range K panics in `MvSet::from_genes` (the
        // per-chunk decode rejects chunks longer than a word, and K = 0 is a
        // division by zero); a K that disagrees with the histogram panics in
        // `Covering::cover`.
        assert!(
            self.k > 0 && self.k <= evotc_bits::MAX_BLOCK_LEN,
            "block length K must be in 1..=64"
        );
        assert_eq!(
            self.k,
            self.sliced.block_len(),
            "MV and histogram block lengths differ"
        );
        crate::kernel::price(&self.sliced, genes, bound, transitions, scratch, memo)
    }

    /// Scores one engine child against a cached parent covering, read-only,
    /// so every sibling reuses the covering.
    ///
    /// Parent preference: the primary parent (child equals it outside the
    /// edit window) through the recorded window; failing that, a cached
    /// crossover donor (child equals it *inside* the window) through a
    /// whole-genome diff — the incremental engine re-patches only the
    /// chunks that actually differ. Only when neither is cached is the
    /// primary parent's covering built (one full evaluation).
    fn evaluate_lineage_child(
        &self,
        state: &mut MvFitnessState,
        genes: &[Trit],
        parents: &[Individual<Trit>],
        lineage: &Lineage,
    ) -> (f64, Objectives) {
        let parent = &parents[lineage.parent_idx].genes;
        // A parent the rebuild would reject (or whose length differs from
        // the child's) cannot seed a cache; score the child standalone.
        if parent.is_empty() || parent.len() % self.k != 0 || parent.len() != genes.len() {
            return self.fallback(state, genes);
        }
        let primary = state.find_memo(parents, lineage.parent_idx);
        if let Some(scored) = primary.and_then(|i| self.probe(state, i, genes, &lineage.edit)) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return scored;
        }
        // The crossover donor path: the child equals the donor inside the
        // window and `parent` outside, so relative to a cached donor the
        // edit is conservatively the whole genome — the probe diffs it
        // chunk-wise and patches only real differences (which is why it can
        // pass the cost gate even when the primary's window did not).
        let donor = lineage
            .second_parent
            .filter(|&i| i < parents.len() && parents[i].genes.len() == genes.len());
        if let Some(scored) = donor
            .and_then(|i| state.find_memo(parents, i))
            .and_then(|i| self.probe(state, i, genes, &(0..genes.len())))
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return scored;
        }
        // The primary parent is cached but its patch was judged more
        // expensive than a rescan (the cost gate): run the full kernel
        // directly — rebuilding the parent again would only repeat work.
        if primary.is_some() {
            return self.fallback(state, genes);
        }
        // Neither parent cached: build the primary parent's covering once,
        // for this child and every sibling that follows.
        let i = self.build(state, parent);
        state.memo[lineage.parent_idx] = Some(Some(i));
        self.probe(state, i, genes, &lineage.edit)
            .unwrap_or_else(|| self.fallback(state, genes))
    }

    /// Prices `genes` as an edit of the state's covering `i` through the
    /// read-only, cost-gated probe; `None` when the gate hands it to the
    /// full kernel. A child scoring above the batch's worst parent keeps the
    /// covering the probe patched.
    fn probe(
        &self,
        state: &mut MvFitnessState,
        i: usize,
        genes: &[Trit],
        edit: &std::ops::Range<usize>,
    ) -> Option<(f64, Objectives)> {
        let patch = &mut state.patch;
        let cache = &state.parents[i].cache;
        let size = match crate::encoded_size_probe(
            &self.sliced,
            genes,
            state.transitions,
            edit,
            cache,
            patch,
            true,
        ) {
            IncrementalOutcome::Size(size) => size,
            IncrementalOutcome::NeedsFull => return None,
        };
        let scored = self.score(size, patch.last_scan_transitions(), patch.last_used_mvs());
        if state.keep_above.is_some_and(|worst| scored.0 > worst) {
            self.keep(state, i, genes);
        }
        Some(scored)
    }

    /// Keeps the covering of `genes`, just priced by a probe of covering
    /// `i`, unless the state holds one already: the parent's covering with
    /// the probe's moves replayed, in a claimed slot.
    fn keep(&self, state: &mut MvFitnessState, i: usize, genes: &[Trit]) {
        let hash = content_hash(genes);
        if state.find_hashed(genes, hash).is_some() {
            return;
        }
        let slot = state.claim(hash);
        // `i` was looked up in this batch, so it is not the least recently
        // used slot the claim may reuse.
        debug_assert_ne!(slot, i);
        let (parent, kept) = if i < slot {
            let (head, tail) = state.parents.split_at_mut(slot);
            (&head[i], &mut tail[0])
        } else {
            let (head, tail) = state.parents.split_at_mut(i);
            (&tail[0], &mut head[slot])
        };
        crate::incremental::encoded_size_keep(
            &self.sliced,
            genes,
            &parent.cache,
            &state.patch,
            &mut kept.cache,
        );
        self.kept.fetch_add(1, Ordering::Relaxed);
    }

    /// Scores a child with lineage through the full kernel: a fallback.
    /// Under a survival floor the kernel stops as soon as it proves the
    /// child at or below it, and the child scores the floor (pruned).
    fn fallback(&self, state: &mut MvFitnessState, genes: &[Trit]) -> (f64, Objectives) {
        let bound = state.floor.map_or(u64::MAX, |(_, bound)| bound);
        self.fallbacks.fetch_add(1, Ordering::Relaxed);
        let memo = Some(&mut state.match_sets);
        match self.kernel(genes, bound, state.transitions, &mut state.scratch, memo) {
            BoundedSize::Exact(size) => self.score(
                size,
                state.scratch.last_scan_transitions(),
                state.scratch.last_used_mvs(),
            ),
            BoundedSize::AtLeast => {
                self.pruned.fetch_add(1, Ordering::Relaxed);
                let (floor, _) = state.floor.expect("only a bounded scan stops early");
                (floor, Objectives::NAN)
            }
        }
    }

    /// Builds `genome`'s covering into a claimed slot of `state` (a miss)
    /// and returns the slot.
    fn build(&self, state: &mut MvFitnessState, genome: &[Trit]) -> usize {
        self.misses.fetch_add(1, Ordering::Relaxed);
        let i = state.claim(content_hash(genome));
        crate::incremental::rebuild(
            &self.sliced,
            genome,
            state.transitions,
            &mut state.parents[i].cache,
            Some(&mut state.match_sets),
        );
        i
    }

    /// The smallest encoded size whose [`MvFitness::rate`] is at or below
    /// `floor` — every larger size rates at or below it too, since the rate
    /// never rises with the size — or `u64::MAX`, which bounds nothing, if
    /// no smaller size does. A binary search through the same `rate` the
    /// scores use, so the conversion is exact whatever the rounding.
    fn size_floor(&self, floor: f64) -> u64 {
        let (mut lo, mut hi) = (0u64, u64::MAX);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.rate(mid) <= floor {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }

    /// Compression rate, the EA's fitness (paper, Section 3.1). Shared by
    /// every evaluation path so they stay bit-identical by construction.
    #[inline]
    fn rate(&self, size: u64) -> f64 {
        100.0 * (self.original_bits - size as f64) / self.original_bits
    }

    /// Decoder gate equivalents of a genome using `used` MVs — the closed
    /// form of [`evotc_codes::decoder_area`] for the optimal (Huffman)
    /// codes the EA emits, priced from the used-MV count alone.
    #[inline]
    fn area_gates(&self, used: usize) -> f64 {
        evotc_codes::decoder_area(self.k, used, evotc_codes::huffman_fsm_states(used))
            .gate_equivalents as f64
    }

    /// A genome's scalar fitness, the compression rate of its encoded size,
    /// and its objective vector from the raw objectives. The one definition
    /// every evaluation path funnels through, so the paths stay
    /// bit-identical by construction.
    #[inline]
    fn score(&self, size: u64, transitions: u64, used: usize) -> (f64, Objectives) {
        let objectives = Objectives::new(size as f64, transitions as f64, self.area_gates(used));
        (self.rate(size), objectives)
    }

    /// The legacy reference path lifted to the full objective vector:
    /// decode an [`MvSet`], cover greedily in covering order, price the
    /// covering under a Huffman code — and count scan transitions per
    /// covered block directly from the owner MV's value plane fused with
    /// the block's fill bits, without touching the bit-sliced kernel or
    /// its side-channels. This is the oracle the property tests gate the
    /// kernel's and the incremental path's objectives against.
    ///
    /// # Panics
    ///
    /// Panics where the kernel does: on a genome that is not a positive
    /// multiple of `K` or a `K` the histogram does not share.
    pub fn evaluate_oracle(&self, genes: &[Trit]) -> (f64, Objectives) {
        let mvs = MvSet::from_genes(self.k, genes, true).expect("block length K must be in 1..=64");
        let covering =
            Covering::cover(&mvs, self.histogram).expect("the all-U MV covers every block");
        let size = size_of_covering(&mvs, &covering);
        // The decoded scan-in word of each block is the owner MV's values
        // at specified positions plus the block's transmitted fill bits at
        // the MV's `U`s (value ⊆ spec on both sides, so OR fuses them).
        let transitions: u64 = self
            .histogram
            .iter()
            .zip(covering.assignments())
            .map(|(&(block, count), &owner)| {
                let scan = mvs.vector(owner).value_plane() | block.value_plane();
                count * block_transitions(scan, self.k)
            })
            .sum();
        self.score(size, transitions, covering.num_used())
    }
}

impl FitnessEval<Trit> for MvFitness<'_> {
    type State = MvFitnessState;

    fn evaluate(&self, genes: &[Trit]) -> f64 {
        self.evaluate_oracle(genes).0
    }

    /// Children carrying provenance are priced as an edit of a parent
    /// covering cached in the island's `state`: a covering is built once
    /// (full rebuild) and then probed read-only by every sibling — and,
    /// being keyed by genome *content*, it keeps serving the same
    /// individual across generations no matter how selection reorders the
    /// population. Genomes without provenance (the initial population) take
    /// the full kernel and are not counted as cache fallbacks; children
    /// whose lineage is unusable take it too and are.
    ///
    /// Every score is bit-identical to [`MvFitness::evaluate`]; the cache
    /// only changes how much work a score costs (and the counters reported
    /// by [`FitnessEval::cache_stats`]). The objective vector
    /// `(encoded_bits, scan_transitions, decoder_gate_equivalents)` falls
    /// out of the same pass (full kernel or incremental patch), so
    /// multi-objective batches cost exactly what scalar batches do.
    fn evaluate_batch(
        &self,
        state: &mut MvFitnessState,
        genomes: &[Vec<Trit>],
        provenance: Option<Provenance<'_, Trit>>,
        out: &mut [f64],
        mut objectives: Option<&mut [Objectives]>,
    ) {
        state.serve(self.id);
        let parents = provenance.map_or(&[][..], |p| p.parents);
        if provenance.is_some() {
            state.capacity = parents.len() + parents.len().max(genomes.len());
        }
        if let Some(genome) = genomes.first() {
            // The population holds `S · L` MVs; the initial batch is its own.
            let mvs = parents.len().max(genomes.len()) * (genome.len() / self.k.max(1));
            state.match_sets.fit(mvs);
        }
        state.memo.clear();
        state.memo.resize(parents.len(), None);
        state.transitions = objectives.is_some();
        state.keep_above = provenance.and_then(|p| p.floor);
        // The floor prunes only where no objective vector is read back (the
        // license of `Provenance::floor`). It changes only when selection
        // does, so the last conversion usually still holds.
        let floor = provenance
            .and_then(|p| p.floor)
            .filter(|_| objectives.is_none());
        state.floor = match (floor, state.floor) {
            (Some(floor), Some((last, bound))) if floor.to_bits() == last.to_bits() => {
                Some((floor, bound))
            }
            (floor, _) => floor.map(|floor| (floor, self.size_floor(floor))),
        };
        for (i, genes) in genomes.iter().enumerate() {
            let (score, vector) = match provenance.and_then(|p| p.lineage[i].as_ref()) {
                Some(lineage) if lineage.parent_idx < parents.len() => {
                    self.evaluate_lineage_child(state, genes, parents, lineage)
                }
                Some(_) => self.fallback(state, genes),
                None => self.exact(genes, &mut state.scratch, Some(&mut state.match_sets)),
            };
            out[i] = score;
            if let Some(objectives) = objectives.as_deref_mut() {
                objectives[i] = vector;
            }
        }
        state.settle();
    }

    /// Builds the migrant's covering on its source island if that island
    /// has none, then copies it to the destination. A copy costs a small
    /// fraction of the rebuild the destination would otherwise run the
    /// first time it breeds from the migrant.
    fn migrate(&self, genome: &[Trit], from: &mut MvFitnessState, to: &mut MvFitnessState) {
        from.serve(self.id);
        to.serve(self.id);
        if genome.is_empty() || genome.len() % self.k != 0 || to.find(genome).is_some() {
            return;
        }
        let src = match from.find(genome) {
            Some(i) => i,
            None => self.build(from, genome),
        };
        let dst = to.claim(content_hash(genome));
        to.parents[dst].cache.clone_from(&from.parents[src].cache);
    }

    /// Hit/miss/fallback counters of the island parent caches — surfaced
    /// by the engine once per run, on [`evotc_evo::EaResult::cache`] (see
    /// [`evotc_evo::CacheStats`]).
    fn cache_stats(&self) -> Option<CacheStats> {
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        Some(CacheStats {
            hits: load(&self.hits),
            misses: load(&self.misses),
            kept: load(&self.kept),
            fallbacks: load(&self.fallbacks),
            pruned: load(&self.pruned),
        })
    }
}

/// Serializes a [`Trit`]-genome [`EaCheckpoint`] into the engine's
/// versioned byte format, one byte per trit (the trit index `0`/`1`/`2`).
///
/// [`Trit`] lives in `evotc_bits` and the checkpoint format in `evotc_evo`,
/// which takes its gene codec as a pair of closures; this pair is the
/// canonical trit codec harnesses should share.
pub fn trit_checkpoint_to_bytes(checkpoint: &EaCheckpoint<Trit>) -> Vec<u8> {
    checkpoint.to_bytes_with(|trit, out| out.push(trit.index()))
}

/// Parses a checkpoint serialized by [`trit_checkpoint_to_bytes`].
///
/// # Errors
///
/// As for [`EaCheckpoint::from_bytes_with`]; additionally rejects gene
/// bytes outside `0..3` as [`CheckpointError::Malformed`] — a corrupted
/// file never panics.
pub fn trit_checkpoint_from_bytes(bytes: &[u8]) -> Result<EaCheckpoint<Trit>, CheckpointError> {
    EaCheckpoint::from_bytes_with(bytes, |input| {
        let (&byte, rest) = input.split_first().ok_or(CheckpointError::Truncated)?;
        *input = rest;
        if byte < 3 {
            Ok(Trit::from_index(byte))
        } else {
            Err(CheckpointError::Malformed("trit gene out of range"))
        }
    })
}

/// Builder for [`EaCompressor`].
#[derive(Debug, Clone)]
pub struct EaCompressorBuilder {
    k: usize,
    l: usize,
    config: EaConfig,
    seed_ninec: bool,
}

impl EaCompressorBuilder {
    /// Replaces the whole EA configuration.
    pub fn config(mut self, config: EaConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the RNG seed (the paper averages over 5 runs; use 5 seeds).
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the stagnation termination limit (the paper's Table 2 runs use
    /// 500 populations without improvement).
    pub fn stagnation_limit(mut self, generations: usize) -> Self {
        self.config.stagnation_limit = generations;
        self
    }

    /// Sets the fitness-evaluation budget.
    pub fn max_evaluations(mut self, evaluations: u64) -> Self {
        self.config.max_evaluations = evaluations;
        self
    }

    /// Sets the island-worker thread count (`0` = auto; see
    /// [`evotc_evo::parallel::resolve_threads`]). Only island topologies
    /// fan out — a panmictic run scores each batch in one call on the
    /// calling thread whatever the value. Compression results are
    /// bit-identical for every value — this knob only trades wall-clock.
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Sets the population structure (see [`Topology`]): panmictic (the
    /// default) or an island model. Island runs, like panmictic ones, are
    /// bit-identical for every thread count at a fixed seed.
    pub fn topology(mut self, topology: Topology) -> Self {
        self.config.topology = topology;
        self
    }

    /// Shorthand for an island topology: `count` islands migrating their
    /// `migrants` rank-best individuals along a ring every `interval`
    /// generations.
    pub fn islands(self, count: usize, interval: u64, migrants: usize) -> Self {
        self.topology(Topology::Islands {
            count,
            interval,
            migrants,
        })
    }

    /// Seeds the initial population with the 9C MV set (the improvement the
    /// paper suggests for circuits like s838; default `false`, as the paper
    /// did not enable it).
    pub fn seed_ninec(mut self, yes: bool) -> Self {
        self.seed_ninec = yes;
        self
    }

    /// Finishes the builder.
    ///
    /// # Panics
    ///
    /// Panics if `K` is out of `1..=64`, `L` is zero, the EA configuration
    /// is invalid, or 9C seeding is requested with `L < 9` or an odd `K`.
    pub fn build(self) -> EaCompressor {
        assert!(
            self.k > 0 && self.k <= evotc_bits::MAX_BLOCK_LEN,
            "block length K must be in 1..=64"
        );
        assert!(self.l > 0, "at least one MV is required");
        if self.seed_ninec {
            assert!(self.l >= 9, "9C seeding requires L >= 9");
            assert!(self.k % 2 == 0, "9C seeding requires an even K");
        }
        self.config.validate();
        EaCompressor {
            k: self.k,
            l: self.l,
            config: self.config,
            seed_ninec: self.seed_ninec,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ninec::NineCCompressor;

    fn small_set() -> TestSet {
        TestSet::parse(&[
            "110100XX", "110000XX", "11010000", "110X00XX", "11010011", "110100XX",
        ])
        .unwrap()
    }

    /// `genes` as a member of a hand-built parent population: evaluators
    /// read only its genes.
    fn unscored(genes: &[Trit]) -> Individual<Trit> {
        Individual {
            genes: genes.to_vec(),
            fitness: f64::NAN,
            objectives: Objectives::NAN,
        }
    }

    fn quick(k: usize, l: usize, seed: u64) -> EaCompressor {
        EaCompressor::builder(k, l)
            .seed(seed)
            .stagnation_limit(60)
            .build()
    }

    #[test]
    fn beats_or_ties_ninec_on_clustered_data() {
        let set = small_set();
        let ninec = NineCCompressor::new(8).compress(&set).unwrap();
        let ea = quick(8, 6, 1).compress(&set).unwrap();
        assert!(
            ea.compressed_bits <= ninec.compressed_bits,
            "EA {} vs 9C {}",
            ea.compressed_bits,
            ninec.compressed_bits
        );
    }

    #[test]
    fn result_is_lossless_modulo_x() {
        let set = small_set();
        let c = quick(8, 4, 2).compress(&set).unwrap();
        let restored = c.decompress().unwrap();
        assert!(set.is_refined_by(&restored));
    }

    #[test]
    fn deterministic_per_seed() {
        let set = small_set();
        let a = quick(8, 4, 5).compress(&set).unwrap();
        let b = quick(8, 4, 5).compress(&set).unwrap();
        assert_eq!(a.compressed_bits, b.compressed_bits);
        assert_eq!(a.mv_set(), b.mv_set());
    }

    #[test]
    fn all_u_guarantees_feasibility() {
        // Random-ish data, tiny L: every individual must still be feasible.
        let set = TestSet::parse(&["10110100", "01001011", "11100010"]).unwrap();
        let c = quick(8, 2, 0).compress(&set).unwrap();
        assert!(c.mv_set().has_all_u());
    }

    #[test]
    fn a_set_without_bits_is_an_error_not_a_panic() {
        // Zero-width patterns leave the histogram without a block, which
        // no EA run can price.
        for set in [TestSet::new(8), TestSet::parse(&["", ""]).unwrap()] {
            assert_eq!(
                quick(8, 4, 1).compress(&set).unwrap_err(),
                CompressError::EmptyTestSet,
                "{} patterns",
                set.num_patterns()
            );
        }
    }

    #[test]
    fn summary_reports_positive_work() {
        let set = small_set();
        let (c, summary) = quick(8, 4, 1).compress_with_summary(&set).unwrap();
        assert!(summary.evaluations > 0);
        assert!(!summary.history.is_empty());
        assert!((summary.best_fitness - c.rate_percent()).abs() < 1e-9);
    }

    #[test]
    fn ninec_seeding_never_loses_to_ninec_mvs() {
        let set = small_set();
        let seeded = EaCompressor::builder(8, 9)
            .seed(4)
            .stagnation_limit(30)
            .seed_ninec(true)
            .build()
            .compress(&set)
            .unwrap();
        // The seeded EA starts from the 9C MV set with Huffman codewords, so
        // it can only improve on 9C+HC.
        let ninec_hc = crate::ninec::NineCHuffmanCompressor::new(8)
            .compress(&set)
            .unwrap();
        assert!(seeded.compressed_bits <= ninec_hc.compressed_bits);
    }

    #[test]
    fn name_encodes_parameters() {
        assert_eq!(quick(12, 64, 0).name(), "EA(K=12,L=64)");
    }

    #[test]
    fn thread_count_never_changes_compression() {
        let set = small_set();
        let compress = |threads: usize| {
            EaCompressor::builder(8, 4)
                .seed(6)
                .stagnation_limit(40)
                .threads(threads)
                .build()
                .compress(&set)
                .unwrap()
        };
        let reference = compress(1);
        for threads in [2, 4] {
            let other = compress(threads);
            assert_eq!(other.compressed_bits, reference.compressed_bits);
            assert_eq!(other.mv_set(), reference.mv_set());
        }
    }

    #[test]
    fn mv_fitness_matches_achieved_rate() {
        let set = small_set();
        let string = TestSetString::try_new(&set, 8).unwrap();
        let histogram = BlockHistogram::from_string(&string);
        let (c, _) = quick(8, 4, 1).compress_with_summary(&set).unwrap();
        let fitness = MvFitness::new(8, &histogram, string.payload_bits() as f64);
        let mvs = c.mv_set();
        let genes: Vec<Trit> = (0..mvs.len())
            .flat_map(|i| (0..8).map(move |j| mvs.vector(i).trit(j)))
            .collect();
        assert!((fitness.evaluate(&genes) - c.rate_percent()).abs() < 1e-9);
    }

    #[test]
    fn summary_reports_cache_counters() {
        let set = small_set();
        let (_, summary) = quick(8, 4, 1).compress_with_summary(&set).unwrap();
        let cache = summary.cache.expect("MvFitness reports cache stats");
        assert!(
            cache.hits > 0,
            "steady-state children should hit the parent cache: {cache}"
        );
        assert!(cache.misses > 0, "first sightings build caches: {cache}");
    }

    #[test]
    fn summary_reports_throughput() {
        let set = small_set();
        let (_, summary) = quick(8, 4, 3).compress_with_summary(&set).unwrap();
        assert!(summary.evaluations_per_sec() > 0.0);
        let last = summary.history.last().unwrap();
        assert_eq!(last.evaluations, summary.evaluations);
    }

    #[test]
    #[should_panic(expected = "L >= 9")]
    fn seeding_requires_enough_mvs() {
        let _ = EaCompressor::builder(8, 4).seed_ninec(true).build();
    }

    #[test]
    fn island_compression_is_thread_invariant_and_lossless() {
        let set = small_set();
        let compress = |threads: usize| {
            EaCompressor::builder(8, 4)
                .seed(2)
                .stagnation_limit(25)
                .islands(3, 4, 1)
                .threads(threads)
                .build()
                .compress(&set)
                .unwrap()
        };
        let reference = compress(1);
        let restored = reference.decompress().unwrap();
        assert!(set.is_refined_by(&restored));
        for threads in [2, 4] {
            let other = compress(threads);
            assert_eq!(
                other.compressed_bits, reference.compressed_bits,
                "t={threads}"
            );
            assert_eq!(other.mv_set(), reference.mv_set());
        }
    }

    /// A few deterministic genomes over the `small_set` histogram shape,
    /// value-carrying MVs with `U`s mixed in.
    fn probe_genomes(k: usize, l: usize) -> Vec<Vec<Trit>> {
        let mut genomes = Vec::new();
        for variant in 0..4u8 {
            let genes: Vec<Trit> = (0..k * l)
                .map(
                    |i| match (i as u8).wrapping_mul(7).wrapping_add(variant) % 5 {
                        0 => Trit::Zero,
                        1 | 3 => Trit::One,
                        _ => Trit::X,
                    },
                )
                .collect();
            genomes.push(genes);
        }
        genomes
    }

    #[test]
    fn every_path_agrees_on_scalar_and_objectives() {
        let set = small_set();
        let string = TestSetString::try_new(&set, 8).unwrap();
        let histogram = BlockHistogram::from_string(&string);
        let fitness = MvFitness::new(8, &histogram, string.payload_bits() as f64);
        let mut scratch = crate::EvalScratch::new();
        for genes in probe_genomes(8, 4) {
            let oracle = fitness.evaluate_oracle(&genes);
            let kernel = fitness.evaluate_with_objectives(&genes, &mut scratch);
            assert_eq!(oracle, kernel, "oracle vs kernel");
            assert_eq!(fitness.evaluate(&genes).to_bits(), oracle.0.to_bits());
            // A copy of itself: the genome is rebuilt into the parent cache
            // and priced by an empty-edit probe.
            let (mut score, mut objectives) = ([f64::NAN], [Objectives::NAN]);
            let provenance = Provenance {
                lineage: &[Some(evotc_evo::Lineage::new(0, 0..0))],
                parents: &[unscored(&genes)],
                floor: None,
            };
            fitness.evaluate_batch(
                &mut MvFitnessState::default(),
                std::slice::from_ref(&genes),
                Some(provenance),
                &mut score,
                Some(&mut objectives),
            );
            assert_eq!(
                score[0].to_bits(),
                oracle.0.to_bits(),
                "cached rebuild scalar"
            );
            assert_eq!(objectives[0], oracle.1, "cached rebuild objectives");
        }
    }

    #[test]
    fn the_scalar_is_the_rate_of_the_encoded_bits() {
        let set = small_set();
        let string = TestSetString::try_new(&set, 8).unwrap();
        let histogram = BlockHistogram::from_string(&string);
        let fitness = MvFitness::new(8, &histogram, string.payload_bits() as f64);
        for genes in probe_genomes(8, 4) {
            let (scalar, objectives) = fitness.evaluate_oracle(&genes);
            let size = objectives.values()[0];
            assert_eq!(fitness.rate(size as u64).to_bits(), scalar.to_bits());
        }
    }

    #[test]
    fn summary_reports_a_stop_reason() {
        let (_, summary) = quick(8, 4, 1).compress_with_summary(&small_set()).unwrap();
        assert_eq!(summary.stop_reason, evotc_evo::StopReason::Converged);
    }

    #[test]
    fn trit_checkpoints_round_trip_and_never_panic_on_corruption() {
        use evotc_evo::{GenerationStats, IslandCheckpoint};
        let member = |genes: Vec<Trit>| Individual {
            genes,
            fitness: 42.5,
            objectives: Objectives([1.0, 2.0, 3.0]),
        };
        let checkpoint = EaCheckpoint {
            config_fingerprint: 7,
            genome_len: 4,
            generation: 0,
            stagnant: 0,
            best_so_far: 42.5,
            history: vec![GenerationStats {
                generation: 0,
                best_fitness: 42.5,
                mean_fitness: 40.0,
                evaluations: 2,
            }],
            islands: vec![IslandCheckpoint {
                rng_state: [1, 2, 3, 4],
                evaluations: 2,
                population: vec![
                    member(vec![Trit::Zero, Trit::One, Trit::X, Trit::One]),
                    member(vec![Trit::X; 4]),
                ],
                archive: vec![member(vec![Trit::One; 4])],
            }],
        };
        let bytes = trit_checkpoint_to_bytes(&checkpoint);
        assert_eq!(trit_checkpoint_from_bytes(&bytes).unwrap(), checkpoint);
        // Single-byte corruption anywhere must produce an error or a
        // different checkpoint — never a panic — and clobbering a gene
        // byte specifically must be caught by the trit range check.
        let mut out_of_range_seen = false;
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] = 0xFF;
            if let Err(CheckpointError::Malformed(msg)) = trit_checkpoint_from_bytes(&corrupt) {
                out_of_range_seen |= msg.contains("trit");
            }
        }
        assert!(out_of_range_seen, "no corruption hit the gene range check");
        // And truncation at every length is an error, not a panic.
        for len in 0..bytes.len() {
            assert!(trit_checkpoint_from_bytes(&bytes[..len]).is_err());
        }
    }

    #[test]
    fn trit_ea_resumes_byte_identically_through_the_byte_codec() {
        let set = small_set();
        let string = TestSetString::try_new(&set, 8).unwrap();
        let histogram = BlockHistogram::from_string(&string);
        let bits = string.payload_bits() as f64;
        let config = EaConfig::builder()
            .population_size(8)
            .children_per_generation(4)
            .stagnation_limit(15)
            .seed(3)
            .build();
        let sample = |rng: &mut rand::rngs::StdRng| Trit::from_index(rng.gen_range(0..3u8));
        let mut blobs = Vec::new();
        let reference = EaBuilder::new(8 * 4, sample, MvFitness::new(8, &histogram, bits))
            .config(config.clone())
            .checkpoint_every(5, |cp| {
                blobs.push(trit_checkpoint_to_bytes(&cp));
                Ok(())
            })
            .run();
        assert!(!blobs.is_empty(), "run never checkpointed");
        for blob in &blobs {
            let checkpoint = trit_checkpoint_from_bytes(blob).unwrap();
            let resumed = EaBuilder::new(8 * 4, sample, MvFitness::new(8, &histogram, bits))
                .config(config.clone())
                .resume_from(checkpoint)
                .run();
            assert_eq!(resumed.best_genome, reference.best_genome);
            assert_eq!(
                resumed.best_fitness.to_bits(),
                reference.best_fitness.to_bits()
            );
            assert_eq!(resumed.generations, reference.generations);
            assert_eq!(resumed.evaluations, reference.evaluations);
        }
    }

    #[test]
    fn topology_survives_the_builder_round_trip() {
        let compressor = EaCompressor::builder(8, 4).islands(4, 10, 2).build();
        assert_eq!(
            compressor.config().topology,
            Topology::Islands {
                count: 4,
                interval: 10,
                migrants: 2
            }
        );
    }

    /// Genome `n` of a family of distinct `len`-trit genomes: `n` in base 3.
    fn numbered_genome(n: usize, len: usize) -> Vec<Trit> {
        (0..len)
            .map(|j| Trit::from_index((n / 3usize.pow(j as u32) % 3) as u8))
            .collect()
    }

    /// Scores one exact copy of each parent as a lineage batch on `state`.
    fn copy_batch(fitness: &MvFitness<'_>, state: &mut MvFitnessState, parents: &[Vec<Trit>]) {
        let population: Vec<_> = parents.iter().map(|genes| unscored(genes)).collect();
        let lineage: Vec<_> = (0..parents.len())
            .map(|p| Some(evotc_evo::Lineage::new(p, 0..0)))
            .collect();
        let provenance = Provenance {
            lineage: &lineage,
            parents: &population,
            floor: None,
        };
        let mut scores = vec![f64::NAN; parents.len()];
        fitness.evaluate_batch(state, parents, Some(provenance), &mut scores, None);
        for (score, genes) in scores.iter().zip(parents) {
            assert_eq!(score.to_bits(), fitness.evaluate(genes).to_bits());
        }
    }

    #[test]
    fn footprint_stays_flat_over_a_long_run() {
        // Hundreds of distinct parents churn through one island's state; it
        // never holds more than twice the parent population, and a parent
        // carried over from the previous generation is still cached.
        let set = small_set();
        let string = TestSetString::try_new(&set, 8).unwrap();
        let histogram = BlockHistogram::from_string(&string);
        let fitness = MvFitness::new(8, &histogram, string.payload_bits() as f64);
        let mut state = MvFitnessState::default();
        let population = 4;
        for generation in 0..100 {
            // Consecutive generations share exactly one parent.
            let parents: Vec<Vec<Trit>> = (0..population)
                .map(|c| numbered_genome(3 * generation + c + 1, 16))
                .collect();
            copy_batch(&fitness, &mut state, &parents);
            assert!(
                state.parents.len() <= 2 * population,
                "generation {generation}: {} coverings for {population} parents",
                state.parents.len()
            );
        }
        let stats = fitness.cache_stats().unwrap();
        assert_eq!((stats.hits, stats.misses, stats.fallbacks), (99, 301, 0));
    }

    #[test]
    fn probed_children_above_the_worst_parent_keep_their_covering() {
        let set = small_set();
        let string = TestSetString::try_new(&set, 8).unwrap();
        let histogram = BlockHistogram::from_string(&string);
        let fitness = MvFitness::new(8, &histogram, string.payload_bits() as f64);
        let parent = numbered_genome(29, 16);
        let children: Vec<Vec<Trit>> = (0..8)
            .map(|g| {
                let mut child = parent.clone();
                child[g] = Trit::from_index((parent[g].index() + 1) % 3);
                child
            })
            .collect();
        let lineage: Vec<_> = (0..8)
            .map(|g| Some(evotc_evo::Lineage::new(0, g..g + 1)))
            .collect();
        let exact: Vec<f64> = children.iter().map(|c| fitness.evaluate(c)).collect();
        let worst = exact.iter().copied().fold(f64::INFINITY, f64::min);
        let mut state = MvFitnessState::default();
        for transitions in [false, true] {
            let provenance = Provenance {
                lineage: &lineage,
                parents: &[unscored(&parent)],
                floor: Some(worst),
            };
            let mut scores = vec![f64::NAN; children.len()];
            let mut objectives = vec![Objectives::NAN; children.len()];
            fitness.evaluate_batch(
                &mut state,
                &children,
                Some(provenance),
                &mut scores,
                transitions.then_some(&mut objectives[..]),
            );
            // Exactly the children above the worst parent are kept, each
            // equal to a rebuild of its genome.
            for (child, &score) in children.iter().zip(&exact) {
                let kept = state.covering(child);
                assert_eq!(kept.is_some(), score > worst, "transitions {transitions}");
                if let Some(kept) = kept {
                    let mut rebuilt = crate::EvalCache::new();
                    crate::encoded_size_rebuild(&fitness.sliced, child, transitions, &mut rebuilt);
                    assert!(*kept == rebuilt, "transitions {transitions}");
                }
            }
        }
        let above = exact.iter().filter(|&&e| e > worst).count() as u64;
        assert!(above > 0, "no child above the worst parent");
        let stats = fitness.cache_stats().unwrap();
        assert_eq!((stats.misses, stats.kept), (2, 2 * above));
    }

    #[test]
    fn a_state_serving_another_histogram_starts_over() {
        let set = small_set();
        let string = TestSetString::try_new(&set, 8).unwrap();
        let histogram = BlockHistogram::from_string(&string);
        let bits = string.payload_bits() as f64;
        let other_set = TestSet::parse(&["0000000011111111", "01X0XX10XXXX0000"]).unwrap();
        let other_string = TestSetString::try_new(&other_set, 8).unwrap();
        let other = BlockHistogram::from_string(&other_string);
        let (a, b) = (
            MvFitness::new(8, &histogram, bits),
            MvFitness::new(8, &other, other_string.payload_bits() as f64),
        );
        let parent = numbered_genome(40, 16);
        let mut state = MvFitnessState::default();
        copy_batch(&a, &mut state, std::slice::from_ref(&parent));
        // The covering built over `histogram` never prices a child over
        // `other`, and a clone of the evaluator shares its coverings.
        copy_batch(&b, &mut state, std::slice::from_ref(&parent));
        copy_batch(&b.clone(), &mut state, std::slice::from_ref(&parent));
        let (sa, sb) = (a.cache_stats().unwrap(), b.cache_stats().unwrap());
        assert_eq!((sa.misses, sb.misses, sb.hits), (1, 1, 0));
    }

    #[test]
    fn eviction_discards_the_least_recently_used_covering() {
        let set = small_set();
        let string = TestSetString::try_new(&set, 8).unwrap();
        let histogram = BlockHistogram::from_string(&string);
        let fitness = MvFitness::new(8, &histogram, string.payload_bits() as f64);
        let mut state = MvFitnessState::default();
        // One parent per batch: the state holds two coverings, and the one
        // untouched for longest is evicted first.
        let (old, hot, new) = (
            numbered_genome(11, 16),
            numbered_genome(22, 16),
            numbered_genome(33, 16),
        );
        for parent in [&old, &hot, &hot, &new] {
            copy_batch(&fitness, &mut state, std::slice::from_ref(parent));
        }
        assert!(
            state.find(&old).is_none(),
            "stale covering should be evicted"
        );
        assert!(state.find(&hot).is_some());
        assert!(state.find(&new).is_some());
        let stats = fitness.cache_stats().unwrap();
        assert_eq!((stats.hits, stats.misses), (1, 3));
    }

    #[test]
    fn size_floor_is_the_smallest_size_rated_at_or_below_the_floor() {
        let set = small_set();
        let string = TestSetString::try_new(&set, 8).unwrap();
        let histogram = BlockHistogram::from_string(&string);
        let fitness = MvFitness::new(8, &histogram, string.payload_bits() as f64);
        for size in [0u64, 1, 7, 40, 41, 1_000, 1 << 40] {
            let rate = fitness.rate(size);
            for floor in [
                rate,
                rate + 1e-9,
                rate - 1e-9,
                f64::from_bits(rate.to_bits() + 1),
            ] {
                let bound = fitness.size_floor(floor);
                assert!(fitness.rate(bound) <= floor, "floor {floor}");
                assert!(
                    bound == 0 || fitness.rate(bound - 1) > floor,
                    "floor {floor}"
                );
            }
        }
        // Nothing rates at or below the lowest float: no bound.
        assert_eq!(fitness.size_floor(f64::MIN), u64::MAX);
    }

    #[test]
    fn a_floor_prunes_fallbacks_to_the_floor_and_nothing_else() {
        let set = small_set();
        let string = TestSetString::try_new(&set, 8).unwrap();
        let histogram = BlockHistogram::from_string(&string);
        let fitness = MvFitness::new(8, &histogram, string.payload_bits() as f64);
        let genomes: Vec<Vec<Trit>> = (0..40).map(|n| numbered_genome(7 * n + 3, 16)).collect();
        let exact: Vec<f64> = genomes.iter().map(|g| fitness.evaluate(g)).collect();
        // The best genome's score: every child is at or below it, and the
        // clearly worse ones are provably so.
        let floor = exact.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        // A lineage naming a missing parent is unusable: every child is a
        // fallback, so every child meets the bounded kernel.
        let lineage = vec![Some(evotc_evo::Lineage::new(1, 0..0)); genomes.len()];
        let parent = numbered_genome(1, 16);
        let provenance = Provenance {
            lineage: &lineage,
            parents: &[unscored(&parent)],
            floor: Some(floor),
        };
        let mut scores = vec![f64::NAN; genomes.len()];
        let mut state = MvFitnessState::default();
        fitness.evaluate_batch(&mut state, &genomes, Some(provenance), &mut scores, None);
        for (&got, &want) in scores.iter().zip(&exact) {
            if got.to_bits() != want.to_bits() {
                assert!(got == floor && want <= floor, "{got} for exact {want}");
            }
        }
        let stats = fitness.cache_stats().unwrap();
        assert_eq!(stats.fallbacks, genomes.len() as u64);
        assert!(stats.pruned > 0 && stats.pruned <= stats.fallbacks);
        // With objectives requested, every score is exact again.
        let mut objectives = vec![Objectives::NAN; genomes.len()];
        fitness.evaluate_batch(
            &mut state,
            &genomes,
            Some(provenance),
            &mut scores,
            Some(&mut objectives),
        );
        for ((&got, &want), (genes, vector)) in scores
            .iter()
            .zip(&exact)
            .zip(genomes.iter().zip(&objectives))
        {
            assert_eq!(got.to_bits(), want.to_bits());
            assert_eq!(*vector, fitness.evaluate_oracle(genes).1);
        }
        assert_eq!(fitness.cache_stats().unwrap().pruned, stats.pruned);
    }

    #[test]
    fn a_batch_wanting_transitions_never_reads_a_covering_built_without_them() {
        let set = small_set();
        let string = TestSetString::try_new(&set, 8).unwrap();
        let histogram = BlockHistogram::from_string(&string);
        let fitness = MvFitness::new(8, &histogram, string.payload_bits() as f64);
        let mut state = MvFitnessState::default();
        let parent = numbered_genome(29, 16);
        // Built for a scalar batch: no transition count.
        copy_batch(&fitness, &mut state, std::slice::from_ref(&parent));
        let lineage = [Some(evotc_evo::Lineage::new(0, 0..0))];
        let provenance = Provenance {
            lineage: &lineage,
            parents: &[unscored(&parent)],
            floor: None,
        };
        let (mut score, mut objectives) = ([f64::NAN], [Objectives::NAN]);
        fitness.evaluate_batch(
            &mut state,
            std::slice::from_ref(&parent),
            Some(provenance),
            &mut score,
            Some(&mut objectives),
        );
        assert_eq!(objectives[0], fitness.evaluate_oracle(&parent).1);
        let stats = fitness.cache_stats().unwrap();
        assert_eq!(
            (stats.hits, stats.misses),
            (0, 2),
            "rebuilt with transitions"
        );
        // The rebuilt covering serves the next such batch.
        fitness.evaluate_batch(
            &mut state,
            std::slice::from_ref(&parent),
            Some(provenance),
            &mut score,
            Some(&mut objectives),
        );
        assert_eq!(objectives[0], fitness.evaluate_oracle(&parent).1);
        let stats = fitness.cache_stats().unwrap();
        assert_eq!((stats.hits, stats.misses), (1, 2));
    }

    #[test]
    fn migrants_bring_their_covering_to_the_destination() {
        let set = small_set();
        let string = TestSetString::try_new(&set, 8).unwrap();
        let histogram = BlockHistogram::from_string(&string);
        let fitness = MvFitness::new(8, &histogram, string.payload_bits() as f64);
        let (mut from, mut to) = (MvFitnessState::default(), MvFitnessState::default());
        let migrant = numbered_genome(5, 16);
        // Missing on the source: built there once, then copied.
        fitness.migrate(&migrant, &mut from, &mut to);
        fitness.migrate(&migrant, &mut from, &mut to);
        assert!(from.find(&migrant).is_some() && to.find(&migrant).is_some());
        // The destination prices the migrant's children without a rebuild.
        copy_batch(&fitness, &mut to, std::slice::from_ref(&migrant));
        let stats = fitness.cache_stats().unwrap();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }
}
