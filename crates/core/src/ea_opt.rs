//! Evolutionary matching-vector determination (paper, Section 3.1).

use evotc_bits::{BlockHistogram, TestSet, TestSetString, Trit};
use evotc_evo::{
    CacheStats, CheckpointError, EaBuilder, EaCheckpoint, EaConfig, FitnessEval, GenerationStats,
    Objectives, Provenance, StopReason, Topology,
};
use rand::Rng;
use std::sync::Arc;

use crate::incremental::{encoded_size_probe, encoded_size_rebuild, IncrementalOutcome};
use crate::kernel::block_transitions;
use crate::shared_cache::{content_hash, ParentEntry, SharedParentCache};

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
/// over the distinct-block histogram, which is exact). Individuals for which
/// covering is impossible receive a fitness below every feasible value; by
/// default one MV is forced to all-`U` "such that there were no insolvable
/// instances" (paper, Section 4).
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
    force_all_u: bool,
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
            force_all_u: true,
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

    /// Compresses and also returns the EA run summary (generations,
    /// evaluations, fitness trajectory) for convergence studies.
    ///
    /// # Errors
    ///
    /// As for [`TestCompressor::compress`].
    pub fn compress_with_summary(
        &self,
        set: &TestSet,
    ) -> Result<(CompressedTestSet, EaRunSummary), CompressError> {
        if set.is_empty() {
            return Err(CompressError::EmptyTestSet);
        }
        let string = TestSetString::try_new(set, self.k)?;
        let histogram = BlockHistogram::from_string(&string);
        let original_bits = string.payload_bits() as f64;

        let mvs = self.optimize(&histogram, original_bits);
        let compressed = encode_with_mvs(&self.name(), set, &mvs.0)?;
        Ok((compressed, mvs.1))
    }

    /// Runs the EA over a prebuilt histogram and returns the best MV set.
    /// Exposed so harnesses can share one histogram across parameter sweeps.
    pub fn optimize_histogram(&self, histogram: &BlockHistogram, original_bits: usize) -> MvSet {
        self.optimize(histogram, original_bits as f64).0
    }

    fn optimize(&self, histogram: &BlockHistogram, original_bits: f64) -> (MvSet, EaRunSummary) {
        // One immutable evaluator borrows the histogram; every island worker
        // shares it instead of re-borrowing mutable closure state.
        let fitness = MvFitness::new(self.k, self.force_all_u, histogram, original_bits);
        let mut ea = EaBuilder::new(
            self.k * self.l,
            |rng| Trit::from_index(rng.gen_range(0..3u8)),
            fitness,
        )
        .config(self.config.clone());
        if self.seed_ninec {
            ea = ea.seed_population([self.ninec_genome()]);
        }
        let result = ea.run();
        let mvs = MvSet::from_genes(self.k, &result.best_genome, self.force_all_u)
            .expect("k was validated when the histogram was built");
        let summary = EaRunSummary {
            best_fitness: result.best_fitness,
            generations: result.generations,
            evaluations: result.evaluations,
            history: result.history,
            elapsed: result.elapsed,
            cache: result.cache,
            stop_reason: result.stop_reason,
            checkpoint_failures: result.checkpoint_failures,
        };
        (mvs, summary)
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

/// How [`MvFitness`] combines the minimized objective vector
/// `(encoded_bits, scan_transitions, decoder_area)` into the scalar fitness
/// the engine's default ranking selects on.
///
/// The default, `Weighted { weights: [1.0, 0.0, 0.0] }`, is the paper's
/// single-objective fitness: the weights `[1, 0, 0]` are detected exactly
/// and short-circuit to the plain compression rate, so default-mode scores
/// are **bit-identical** to the pre-multi-objective evaluator (a literal
/// `1.0·rate − 0.0·t − 0.0·a` would not be — `x + 0.0·y` is not a bitwise
/// no-op for every `x`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CombineMode {
    /// Scalarize as `w₀·rate − w₁·transitions − w₂·gate_equivalents`
    /// (rate is maximized, the penalties are minimized).
    Weighted {
        /// The weights `[w₀, w₁, w₂]` on rate, scan transitions and
        /// decoder gate equivalents.
        weights: [f64; 3],
    },
    /// Report the plain compression rate as the scalar (for stats and
    /// stagnation tracking) and let the engine rank individuals
    /// lexicographically on the objective vector
    /// ([`evotc_evo::Ranking::Lexicographic`]): compression first, then
    /// scan power, then decoder area.
    Lexicographic,
}

impl Default for CombineMode {
    fn default() -> Self {
        CombineMode::Weighted {
            weights: [1.0, 0.0, 0.0],
        }
    }
}

impl CombineMode {
    /// Checks that the mode is usable: `Weighted` weights must be finite,
    /// non-negative, and not all zero (an all-zero vector would score every
    /// genome identically, silently degenerating the search to drift).
    /// `Lexicographic` is always valid.
    pub fn validate(&self) -> Result<(), WeightError> {
        let CombineMode::Weighted { weights } = self else {
            return Ok(());
        };
        if weights.iter().any(|w| !w.is_finite()) {
            return Err(WeightError::NotFinite(*weights));
        }
        if weights.iter().any(|&w| w < 0.0) {
            return Err(WeightError::Negative(*weights));
        }
        if weights.iter().all(|&w| w == 0.0) {
            return Err(WeightError::AllZero);
        }
        Ok(())
    }
}

/// A rejected [`CombineMode::Weighted`] weight vector (see
/// [`CombineMode::validate`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WeightError {
    /// A weight is NaN or infinite.
    NotFinite([f64; 3]),
    /// A weight is negative (the scalarization already subtracts the
    /// penalty terms; a negative weight would reward them).
    Negative([f64; 3]),
    /// Every weight is zero.
    AllZero,
}

impl std::fmt::Display for WeightError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WeightError::NotFinite(w) => write!(f, "weights {w:?} contain a non-finite value"),
            WeightError::Negative(w) => write!(f, "weights {w:?} contain a negative value"),
            WeightError::AllZero => write!(f, "weights are all zero"),
        }
    }
}

impl std::error::Error for WeightError {}

/// The paper's fitness function (Section 3.1) as a shareable batch
/// evaluator: the compression rate of the MV set a genome encodes, computed
/// over the distinct-block histogram.
///
/// The evaluator is immutable — it borrows one [`BlockHistogram`] and owns
/// the bit-sliced transposition built from it — so every island worker of
/// an island run can share the same instance. Genomes whose MV set is
/// malformed or cannot cover every block score [`MvFitness::INFEASIBLE`],
/// which ranks strictly below every feasible compression rate.
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
/// a parent cache held in one **shared** [`SharedParentCache`] —
/// content-keyed, so it survives the population reshuffling between
/// generations, and probed read-only ([`crate::encoded_size_probe`], cost
/// gate on) so every island worker patches the same cached elite parent
/// without per-thread copies. Crossover children are priced against
/// whichever parent is cached: the outside-the-window parent through the
/// recorded edit window, or the window-content donor through a
/// whole-genome diff (see [`evotc_evo::Lineage::second_parent`]).
///
/// Cache effectiveness is observable: hit/miss/fallback counters accumulate
/// on the shared cache and surface through [`FitnessEval::cache_stats`] on
/// [`GenerationStats`] and [`EaRunSummary`].
///
/// All paths return bit-identical `f64` fitness for every genome — enforced
/// by `tests/props_fitness_kernel.rs` and `tests/props_incremental.rs`.
#[derive(Debug)]
pub struct MvFitness<'a> {
    k: usize,
    force_all_u: bool,
    histogram: &'a BlockHistogram,
    sliced: evotc_bits::SlicedHistogram,
    original_bits: f64,
    mode: CombineMode,
    /// Warmed-up batch states returned by previous batch calls. Each
    /// [`FitnessEval::evaluate_batch`] call checks one out and returns it
    /// afterwards, so kernel and patch buffers persist across generations
    /// instead of being rebuilt every batch. State contents never affect
    /// results (the kernel fully re-initializes what it reads, and every
    /// score is bit-identical with or without a cache hit), so the pool is
    /// invisible to the determinism contract.
    pool: std::sync::Mutex<Vec<BatchState>>,
    /// The cross-thread parent-cache store: one rebuild per distinct parent
    /// serves every island (see [`SharedParentCache`]). Bounded at
    /// `SHARED_CACHE_SHARDS × SHARED_SHARD_CAPACITY` entries.
    shared: SharedParentCache,
}

/// One batch call's evaluation state: the full kernel's scratch, the patch
/// scratch the read-only probes write into, and a few *hot slots* pinning
/// recently used shared entries so repeat children of the same (elite)
/// parent skip even the shard's read lock.
#[derive(Debug, Default)]
struct BatchState {
    scratch: crate::EvalScratch,
    patch: crate::PatchScratch,
    /// `(entry, last-use tick)` — content-checked before use, so a stale
    /// (evicted) entry is still exactly the parent it claims to be.
    hot: Vec<(Arc<ParentEntry>, u64)>,
    /// Monotone use counter driving hot-slot replacement.
    tick: u64,
    /// Per-batch lookup memo, indexed by parent position: `None` = not yet
    /// looked up, `Some(result)` = the settled outcome. Parent slices are
    /// immutable for the whole batch, so one hash + content check per
    /// *distinct* parent serves every child that breeds from it.
    memo: Vec<Option<Option<Arc<ParentEntry>>>>,
}

/// Hot-slot count per batch state: enough for the handful of parents one
/// generation draws children from.
const MAX_HOT_SLOTS: usize = 8;

/// Shard count of the shared parent cache. Lookups only lock one shard, so
/// more shards mean less writer interference between island workers.
const SHARED_CACHE_SHARDS: usize = 8;

/// Retained entries per shard. The population holds `S` individuals (the
/// paper's default `S = 10`); `8 × 8 = 64` entries fit several generations
/// of churn, and eviction discards the stalest generation beyond that.
const SHARED_SHARD_CAPACITY: usize = 8;

impl Clone for MvFitness<'_> {
    /// Clones the evaluator configuration; the clone starts with an empty
    /// state pool and an empty shared cache (buffers and cached parents
    /// are warm-up state, not semantics).
    fn clone(&self) -> Self {
        MvFitness {
            k: self.k,
            force_all_u: self.force_all_u,
            histogram: self.histogram,
            sliced: self.sliced.clone(),
            original_bits: self.original_bits,
            mode: self.mode,
            pool: std::sync::Mutex::new(Vec::new()),
            shared: SharedParentCache::new(SHARED_CACHE_SHARDS, SHARED_SHARD_CAPACITY),
        }
    }
}

impl<'a> MvFitness<'a> {
    /// "Fitness of an individual for which covering is impossible is set to
    /// a sufficiently small number" (paper, Section 3.1).
    pub const INFEASIBLE: f64 = f64::MIN;

    /// Creates the evaluator for genomes of `L · k` trits over `histogram`;
    /// `original_bits` is the uncompressed payload size the rate is
    /// relative to. The bit-sliced transposition of the histogram is built
    /// here, once per run.
    pub fn new(
        k: usize,
        force_all_u: bool,
        histogram: &'a BlockHistogram,
        original_bits: f64,
    ) -> Self {
        MvFitness {
            k,
            force_all_u,
            histogram,
            sliced: evotc_bits::SlicedHistogram::from_histogram(histogram),
            original_bits,
            mode: CombineMode::default(),
            pool: std::sync::Mutex::new(Vec::new()),
            shared: SharedParentCache::new(SHARED_CACHE_SHARDS, SHARED_SHARD_CAPACITY),
        }
    }

    /// Sets how the objective vector is combined into the scalar fitness
    /// (see [`CombineMode`]). The default weighted `[1, 0, 0]` mode keeps
    /// every score bit-identical to the single-objective evaluator.
    ///
    /// # Panics
    ///
    /// Panics if the mode fails [`CombineMode::validate`] (NaN, negative,
    /// or all-zero `Weighted` weights). Use [`MvFitness::try_combine_mode`]
    /// to handle the rejection as a value.
    pub fn combine_mode(self, mode: CombineMode) -> Self {
        match self.try_combine_mode(mode) {
            Ok(fitness) => fitness,
            Err(err) => panic!("invalid combine mode: {err}"),
        }
    }

    /// Like [`MvFitness::combine_mode`], but returning the
    /// [`WeightError`] instead of panicking — the config-build-time check
    /// for weights that arrive from user input.
    pub fn try_combine_mode(mut self, mode: CombineMode) -> Result<Self, WeightError> {
        mode.validate()?;
        self.mode = mode;
        Ok(self)
    }

    /// The combine mode in use.
    pub fn mode(&self) -> CombineMode {
        self.mode
    }

    /// Scores one genome through the allocation-free kernel, reusing
    /// `scratch` across calls: the scalar fitness, bit-identical to
    /// [`MvFitness::evaluate`], and the full minimized objective vector
    /// `(encoded_bits, scan_transitions, decoder_gate_equivalents)` — the
    /// kernel computes the extra objectives as side-channels of the same
    /// pass, so they cost no second evaluation. Infeasible genomes return
    /// ([`MvFitness::INFEASIBLE`], [`Objectives::INFEASIBLE`]).
    pub fn evaluate_with_objectives(
        &self,
        genes: &[Trit],
        scratch: &mut crate::EvalScratch,
    ) -> (f64, Objectives) {
        // Mirror the legacy path exactly: both panic on a misconstructed
        // evaluator. An out-of-range K panics in `MvSet::from_genes` (the
        // per-chunk decode rejects chunks longer than a word, and K = 0 is a
        // division by zero); a K that disagrees with the histogram panics in
        // `Covering::cover`. Neither is a per-genome condition, so neither
        // may score INFEASIBLE.
        assert!(
            self.k > 0 && self.k <= evotc_bits::MAX_BLOCK_LEN,
            "block length K must be in 1..=64"
        );
        assert_eq!(
            self.k,
            self.sliced.block_len(),
            "MV and histogram block lengths differ"
        );
        let size =
            crate::kernel::encoded_size_scratch(&self.sliced, genes, self.force_all_u, scratch);
        self.price(
            size,
            scratch.last_scan_transitions(),
            scratch.last_used_mvs(),
        )
    }

    /// Scores one engine child against a cached parent covering. Read-only
    /// probe: the shared parent entry is immutable, so any number of
    /// siblings — across every island worker — reuse it concurrently.
    ///
    /// Parent preference: the primary parent (child equals it outside
    /// `edit`) through the recorded window; failing that, a cached
    /// crossover donor (child equals it *inside* the window) through a
    /// whole-genome diff — the incremental engine re-patches only the
    /// chunks that actually differ. Only when neither is cached is the
    /// primary parent rebuilt (one full evaluation) and shared.
    fn evaluate_lineage_child(
        &self,
        genes: &[Trit],
        parents: &[&[Trit]],
        parent_idx: usize,
        second_idx: Option<usize>,
        edit: &std::ops::Range<usize>,
        state: &mut BatchState,
    ) -> (f64, Objectives) {
        let parent = parents[parent_idx];
        // A parent the rebuild would reject (or whose length differs from
        // the child's) cannot seed a cache; score the child standalone.
        if parent.is_empty() || parent.len() % self.k != 0 || parent.len() != genes.len() {
            self.shared.record_fallback();
            return self.evaluate_with_objectives(genes, &mut state.scratch);
        }
        let primary = self.lookup_memo(parents, parent_idx, state);
        if let Some(scored) = primary
            .as_deref()
            .and_then(|entry| self.probe(genes, edit, entry, &mut state.patch))
        {
            self.shared.record_hit();
            return scored;
        }
        // The crossover donor path: the child equals `second` inside the
        // window and `parent` outside, so relative to a cached donor the
        // edit is conservatively the whole genome — the probe diffs it
        // chunk-wise and patches only real differences (which is why it can
        // pass the cost gate even when the primary's window did not).
        if let Some(donor_idx) = second_idx.filter(|&i| parents[i].len() == genes.len()) {
            if let Some(entry) = self.lookup_memo(parents, donor_idx, state) {
                if let Some(scored) = self.probe(genes, &(0..genes.len()), &entry, &mut state.patch)
                {
                    self.shared.record_hit();
                    return scored;
                }
            }
        }
        // The primary parent is cached but its patch was judged more
        // expensive than a rescan (the cost gate): run the full kernel
        // directly — rebuilding the parent again would only repeat work.
        if primary.is_some() {
            self.shared.record_fallback();
            return self.evaluate_with_objectives(genes, &mut state.scratch);
        }
        // Neither parent cached: build the primary parent once (outside any
        // lock) and share it for every sibling and thread that follows.
        self.shared.record_miss();
        let mut cache = crate::EvalCache::new();
        encoded_size_rebuild(&self.sliced, parent, self.force_all_u, &mut cache);
        let entry = self.shared.insert(parent, cache);
        if let Some(slot) = state.memo.get_mut(parent_idx) {
            *slot = Some(Some(Arc::clone(&entry)));
        }
        let scored = self.probe(genes, edit, &entry, &mut state.patch);
        Self::remember(state, entry);
        scored.unwrap_or_else(|| {
            self.shared.record_fallback();
            self.evaluate_with_objectives(genes, &mut state.scratch)
        })
    }

    /// Prices `genes` as an edit of a cached parent through the read-only,
    /// cost-gated probe; `None` when the gate hands it to the full kernel.
    fn probe(
        &self,
        genes: &[Trit],
        edit: &std::ops::Range<usize>,
        entry: &ParentEntry,
        patch: &mut crate::PatchScratch,
    ) -> Option<(f64, Objectives)> {
        match encoded_size_probe(
            &self.sliced,
            genes,
            self.force_all_u,
            edit,
            entry.cache(),
            patch,
            true,
        ) {
            IncrementalOutcome::Size(size) => {
                Some(self.price(size, patch.last_scan_transitions(), patch.last_used_mvs()))
            }
            IncrementalOutcome::NeedsFull => None,
        }
    }

    /// Finds the shared entry for an exact genome: the batch state's hot slots
    /// first (no locking at all — entries are immutable and content-checked,
    /// so even an evicted one is still exactly the parent it claims to be),
    /// then the shared store (one shard read lock). The genome's content
    /// hash is computed once here and prefilters both tiers, so non-matching
    /// candidates cost one `u64` compare instead of a genome compare.
    /// [`MvFitness::lookup`] through the per-batch memo: one hash + content
    /// check per distinct parent index, every sibling after that reuses the
    /// settled `Arc` (or the settled miss) for free.
    fn lookup_memo(
        &self,
        parents: &[&[Trit]],
        idx: usize,
        state: &mut BatchState,
    ) -> Option<Arc<ParentEntry>> {
        if let Some(Some(settled)) = state.memo.get(idx) {
            return settled.clone();
        }
        let result = self.lookup(parents[idx], state);
        if let Some(slot) = state.memo.get_mut(idx) {
            *slot = Some(result.clone());
        }
        result
    }

    fn lookup(&self, genome: &[Trit], state: &mut BatchState) -> Option<Arc<ParentEntry>> {
        state.tick += 1;
        let tick = state.tick;
        let hash = content_hash(genome);
        if let Some((entry, last)) = state
            .hot
            .iter_mut()
            .find(|(entry, _)| entry.matches(hash, genome))
        {
            *last = tick;
            return Some(Arc::clone(entry));
        }
        let entry = self.shared.get_hashed(hash, genome)?;
        Self::remember(state, Arc::clone(&entry));
        Some(entry)
    }

    /// Pins an entry in the batch state's hot slots, replacing the least
    /// recently used one at capacity.
    fn remember(state: &mut BatchState, entry: Arc<ParentEntry>) {
        state.tick += 1;
        let slot = (entry, state.tick);
        if state.hot.len() < MAX_HOT_SLOTS {
            state.hot.push(slot);
        } else {
            let stalest = state
                .hot
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, last))| *last)
                .map(|(i, _)| i)
                .expect("hot slots are non-empty at capacity");
            state.hot[stalest] = slot;
        }
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

    /// Combines a feasible genome's raw objectives into the scalar fitness
    /// and the objective vector. The one definition every evaluation path
    /// funnels through, so the paths stay bit-identical by construction.
    #[inline]
    fn score(&self, size: u64, transitions: u64, used: usize) -> (f64, Objectives) {
        let area = self.area_gates(used);
        let objectives = Objectives::new(size as f64, transitions as f64, area);
        let scalar = match self.mode {
            CombineMode::Weighted { weights } => {
                if weights == [1.0, 0.0, 0.0] {
                    self.rate(size)
                } else {
                    weights[0] * self.rate(size)
                        - weights[1] * transitions as f64
                        - weights[2] * area
                }
            }
            CombineMode::Lexicographic => self.rate(size),
        };
        (scalar, objectives)
    }

    /// [`MvFitness::score`] lifted over feasibility: `None` (covering
    /// impossible) scores [`MvFitness::INFEASIBLE`] with an all-infinite
    /// objective vector, in every mode.
    #[inline]
    fn price(&self, size: Option<u64>, transitions: u64, used: usize) -> (f64, Objectives) {
        match size {
            Some(s) => self.score(s, transitions, used),
            None => (Self::INFEASIBLE, Objectives::INFEASIBLE),
        }
    }

    /// The legacy reference path lifted to the full objective vector:
    /// decode an [`MvSet`], cover greedily in covering order, price the
    /// covering under a Huffman code — and count scan transitions per
    /// covered block directly from the owner MV's value plane fused with
    /// the block's fill bits, without touching the bit-sliced kernel or
    /// its side-channels. This is the oracle the property tests gate the
    /// kernel's and the incremental path's objectives against.
    pub fn evaluate_oracle(&self, genes: &[Trit]) -> (f64, Objectives) {
        let mvs = match MvSet::from_genes(self.k, genes, self.force_all_u) {
            Ok(m) => m,
            Err(_) => return (Self::INFEASIBLE, Objectives::INFEASIBLE),
        };
        let covering = match Covering::cover(&mvs, self.histogram) {
            Ok(c) => c,
            Err(_) => return (Self::INFEASIBLE, Objectives::INFEASIBLE),
        };
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
    fn evaluate(&self, genes: &[Trit]) -> f64 {
        self.evaluate_oracle(genes).0
    }

    /// One pooled batch state per call, so kernel and patch buffers
    /// survive from generation to generation. Children carrying provenance
    /// are priced as an edit of a cached parent covering; a parent cache is
    /// built once (full rebuild) into the **shared** store and then probed
    /// read-only by every sibling on every island worker — and, being keyed
    /// by genome *content*, it keeps serving the same individual across
    /// generations no matter how selection reorders the population.
    /// Genomes without provenance (the initial population) take the full
    /// kernel and are not counted as cache fallbacks; children whose
    /// lineage is unusable take it too and are.
    ///
    /// Every score is bit-identical to [`MvFitness::evaluate`]; the cache
    /// only changes how much work a score costs (and the counters reported
    /// by [`FitnessEval::cache_stats`]). The objective vector
    /// `(encoded_bits, scan_transitions, decoder_gate_equivalents)` falls
    /// out of the same pass (full kernel or incremental patch), so
    /// multi-objective batches cost exactly what scalar batches do.
    fn evaluate_batch(
        &self,
        genomes: &[Vec<Trit>],
        provenance: Option<Provenance<'_, Trit>>,
        out: &mut [f64],
        mut objectives: Option<&mut [Objectives]>,
    ) {
        // Fault injection: a poisoned evaluator panicking mid-batch, once
        // per batch call.
        #[cfg(feature = "failpoints")]
        if evotc_evo::failpoints::hit(evotc_evo::failpoints::site::CORE_EVALUATE) {
            panic!("injected evaluator fault");
        }
        // A poisoned pool (a panicking island worker) degrades to a fresh
        // state; results are unaffected either way.
        let mut state = self
            .pool
            .lock()
            .ok()
            .and_then(|mut pool| pool.pop())
            .unwrap_or_default();
        let parents = provenance.map_or(&[][..], |p| p.parents);
        if provenance.is_some() {
            self.shared.bump_generation();
        }
        state.memo.clear();
        state.memo.resize(parents.len(), None);
        for (i, genes) in genomes.iter().enumerate() {
            let (score, vector) = match provenance.and_then(|p| p.lineage[i].as_ref()) {
                Some(lin) if lin.parent_idx < parents.len() => {
                    let second = lin.second_parent.filter(|&i| i < parents.len());
                    self.evaluate_lineage_child(
                        genes,
                        parents,
                        lin.parent_idx,
                        second,
                        &lin.edit,
                        &mut state,
                    )
                }
                Some(_) => {
                    self.shared.record_fallback();
                    self.evaluate_with_objectives(genes, &mut state.scratch)
                }
                None => self.evaluate_with_objectives(genes, &mut state.scratch),
            };
            out[i] = score;
            if let Some(objectives) = objectives.as_deref_mut() {
                objectives[i] = vector;
            }
        }
        if let Ok(mut pool) = self.pool.lock() {
            pool.push(state);
        }
    }

    /// Hit/miss/fallback counters of the shared parent cache — surfaced by
    /// the engine on every [`GenerationStats`] (see
    /// [`evotc_evo::CacheStats`]).
    fn cache_stats(&self) -> Option<CacheStats> {
        Some(self.shared.stats())
    }
}

/// Statistics of one EA optimization run.
#[derive(Debug, Clone)]
pub struct EaRunSummary {
    /// Best fitness (compression rate, %) reached.
    pub best_fitness: f64,
    /// Generations executed.
    pub generations: u64,
    /// Fitness evaluations spent.
    pub evaluations: u64,
    /// Per-generation fitness trajectory.
    pub history: Vec<GenerationStats>,
    /// Wall-clock duration of the optimization.
    pub elapsed: std::time::Duration,
    /// Final shared-parent-cache counters (hits / misses / full-kernel
    /// fallbacks) of the incremental evaluation path. Observability only —
    /// like [`EaRunSummary::elapsed`], excluded from the determinism
    /// contract (concurrent workers can race to build the same parent).
    pub cache: Option<CacheStats>,
    /// Why the optimization stopped (see [`StopReason`]); the paper's
    /// stagnation termination reports [`StopReason::Converged`].
    pub stop_reason: StopReason,
    /// Checkpoint captures whose sink returned an error (see
    /// [`EaBuilder::checkpoint_every`]); `0` for runs without
    /// checkpointing. Sink failures never stop a run, so a nonzero count
    /// next to a finished summary means exactly "the run is fine but its
    /// persisted checkpoints have gaps".
    pub checkpoint_failures: u64,
}

impl EaRunSummary {
    /// Fitness-evaluation throughput (evaluations per second); `0.0` before
    /// any time has elapsed.
    pub fn evaluations_per_sec(&self) -> f64 {
        evotc_evo::evals_per_sec(self.evaluations, self.elapsed)
    }
}

impl std::fmt::Display for EaRunSummary {
    /// The one-line human-readable run report harnesses print. Always
    /// names the stop reason; mentions checkpoint-sink failures only when
    /// there were any, so healthy runs stay terse.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "best {:.2}% after {} generations / {} evaluations in {:.2?} (stopped: {})",
            self.best_fitness, self.generations, self.evaluations, self.elapsed, self.stop_reason,
        )?;
        if self.checkpoint_failures > 0 {
            write!(
                f,
                " [{} checkpoint sink failure(s)]",
                self.checkpoint_failures
            )?;
        }
        Ok(())
    }
}

/// Serializes a [`Trit`]-genome [`EaCheckpoint`] into the engine's
/// versioned byte format, one byte per trit (the trit index `0`/`1`/`2`).
///
/// [`Trit`] lives in `evotc_bits` and the checkpoint format in `evotc_evo`,
/// so neither crate can implement the other's codec trait; the closure-based
/// codec hooks exist for exactly this case, and this pair is the canonical
/// codec harnesses should share.
pub fn trit_checkpoint_to_bytes(checkpoint: &EaCheckpoint<Trit>) -> Vec<u8> {
    checkpoint.to_bytes_with(|trit, out| out.push(trit.index()))
}

/// Parses a checkpoint serialized by [`trit_checkpoint_to_bytes`].
///
/// # Errors
///
/// As for [`EaCheckpoint::from_bytes`]; additionally rejects gene bytes
/// outside `0..3` as [`CheckpointError::Malformed`] — a corrupted file
/// never panics.
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
    force_all_u: bool,
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

    /// Controls whether one MV is forced to all-`U` (default `true`,
    /// as in the paper's experiments).
    pub fn force_all_u(mut self, yes: bool) -> Self {
        self.force_all_u = yes;
        self
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
        // Round-trip through the builder to reuse its validation.
        let config = EaConfig::builder()
            .population_size(self.config.population_size)
            .children_per_generation(self.config.children_per_generation)
            .crossover_probability(self.config.crossover_probability)
            .mutation_probability(self.config.mutation_probability)
            .inversion_probability(self.config.inversion_probability)
            .stagnation_limit(self.config.stagnation_limit)
            .max_evaluations(self.config.max_evaluations)
            .max_generations(self.config.max_generations)
            .seed(self.config.seed)
            .threads(self.config.threads)
            .topology(self.config.topology)
            .build();
        let _ = config;
        EaCompressor {
            k: self.k,
            l: self.l,
            config: self.config,
            force_all_u: self.force_all_u,
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
        let fitness = MvFitness::new(8, true, &histogram, string.payload_bits() as f64);
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
            "steady-state children should hit the shared parent cache: {cache}"
        );
        assert!(cache.misses > 0, "first sightings build caches: {cache}");
        // The last generation's snapshot equals the final summary (all
        // workers have joined by the time either is read).
        let last = summary.history.last().unwrap();
        assert_eq!(last.cache, Some(cache));
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

    /// A few deterministic genomes over the `small_set` histogram shape:
    /// the all-U safety net plus some value-carrying MVs, and one genome
    /// without any all-U MV (feasibility depends on `force_all_u`).
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
        let fitness = MvFitness::new(8, true, &histogram, string.payload_bits() as f64);
        let mut scratch = crate::EvalScratch::new();
        for genes in probe_genomes(8, 4) {
            let oracle = fitness.evaluate_oracle(&genes);
            let kernel = fitness.evaluate_with_objectives(&genes, &mut scratch);
            assert_eq!(oracle, kernel, "oracle vs kernel");
            assert_eq!(fitness.evaluate(&genes).to_bits(), oracle.0.to_bits());
            // A copy of itself: the genome is rebuilt into the parent cache
            // and priced by an empty-edit probe.
            let (mut score, mut objectives) = ([f64::NAN], [Objectives::INFEASIBLE]);
            let provenance = Provenance {
                lineage: &[Some(evotc_evo::Lineage::new(0, 0..0))],
                parents: &[genes.as_slice()],
            };
            fitness.evaluate_batch(
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
    fn default_weights_are_bit_identical_to_the_plain_rate() {
        let set = small_set();
        let string = TestSetString::try_new(&set, 8).unwrap();
        let histogram = BlockHistogram::from_string(&string);
        let bits = string.payload_bits() as f64;
        let default_mode = MvFitness::new(8, true, &histogram, bits);
        let explicit =
            MvFitness::new(8, true, &histogram, bits).combine_mode(CombineMode::Weighted {
                weights: [1.0, 0.0, 0.0],
            });
        let lex =
            MvFitness::new(8, true, &histogram, bits).combine_mode(CombineMode::Lexicographic);
        for genes in probe_genomes(8, 4) {
            let (scalar, objectives) = default_mode.evaluate_oracle(&genes);
            // Explicit (1,0,0) and lexicographic both report the plain rate.
            assert_eq!(explicit.evaluate(&genes).to_bits(), scalar.to_bits());
            assert_eq!(lex.evaluate(&genes).to_bits(), scalar.to_bits());
            // The scalar is the rate of the encoded-bits objective.
            let size = objectives.values()[0];
            assert_eq!(default_mode.rate(size as u64).to_bits(), scalar.to_bits());
        }
    }

    #[test]
    fn nonzero_penalty_weights_change_the_scalar_but_not_the_objectives() {
        let set = small_set();
        let string = TestSetString::try_new(&set, 8).unwrap();
        let histogram = BlockHistogram::from_string(&string);
        let bits = string.payload_bits() as f64;
        let plain = MvFitness::new(8, true, &histogram, bits);
        let weighted =
            MvFitness::new(8, true, &histogram, bits).combine_mode(CombineMode::Weighted {
                weights: [1.0, 0.25, 0.001],
            });
        let mut scratch = crate::EvalScratch::new();
        for genes in probe_genomes(8, 4) {
            let (base, objectives) = plain.evaluate_with_objectives(&genes, &mut scratch);
            let (penalized, same) = weighted.evaluate_with_objectives(&genes, &mut scratch);
            assert_eq!(objectives, same, "mode never changes the vector");
            let [_, transitions, area] = objectives.values();
            let expected = 1.0 * base - 0.25 * transitions - 0.001 * area;
            assert_eq!(penalized.to_bits(), expected.to_bits());
            assert!(penalized <= base);
        }
    }

    #[test]
    fn infeasible_genomes_price_infinite_objectives_in_every_mode() {
        let set = TestSet::parse(&["10110100", "01001011", "11100010"]).unwrap();
        let string = TestSetString::try_new(&set, 8).unwrap();
        let histogram = BlockHistogram::from_string(&string);
        let bits = string.payload_bits() as f64;
        // Without the all-U safety net, a single all-0 MV covers nothing.
        let genes = vec![Trit::Zero; 8];
        for mode in [
            CombineMode::default(),
            CombineMode::Weighted {
                weights: [1.0, 0.5, 0.5],
            },
            CombineMode::Lexicographic,
        ] {
            let fitness = MvFitness::new(8, false, &histogram, bits).combine_mode(mode);
            let (scalar, objectives) = fitness.evaluate_oracle(&genes);
            assert_eq!(scalar, MvFitness::INFEASIBLE);
            assert_eq!(objectives, Objectives::INFEASIBLE);
            let mut scratch = crate::EvalScratch::new();
            assert_eq!(
                fitness.evaluate_with_objectives(&genes, &mut scratch),
                (MvFitness::INFEASIBLE, Objectives::INFEASIBLE)
            );
        }
    }

    #[test]
    fn lexicographic_compressor_still_compresses_losslessly() {
        let set = small_set();
        let string = TestSetString::try_new(&set, 8).unwrap();
        let histogram = BlockHistogram::from_string(&string);
        let fitness = MvFitness::new(8, true, &histogram, string.payload_bits() as f64)
            .combine_mode(CombineMode::Lexicographic);
        assert_eq!(fitness.mode(), CombineMode::Lexicographic);
        // The scalar surface is the rate either way; a quick sanity check
        // that batches still fill every slot under the objectives override.
        let genomes = probe_genomes(8, 4);
        let mut scores = vec![f64::NAN; genomes.len()];
        let mut objectives = vec![Objectives::NAN; genomes.len()];
        fitness.evaluate_batch(&genomes, None, &mut scores, Some(&mut objectives));
        for (score, vector) in scores.iter().zip(&objectives) {
            assert!(score.is_finite());
            assert!(vector.is_finite());
        }
    }

    #[test]
    fn combine_mode_weights_are_validated() {
        assert_eq!(CombineMode::default().validate(), Ok(()));
        assert_eq!(CombineMode::Lexicographic.validate(), Ok(()));
        let bad = |weights: [f64; 3]| CombineMode::Weighted { weights }.validate().unwrap_err();
        assert!(matches!(
            bad([f64::NAN, 0.0, 1.0]),
            WeightError::NotFinite(_)
        ));
        assert!(matches!(
            bad([1.0, f64::INFINITY, 0.0]),
            WeightError::NotFinite(_)
        ));
        assert!(matches!(bad([1.0, -0.5, 0.0]), WeightError::Negative(_)));
        assert_eq!(bad([0.0; 3]), WeightError::AllZero);

        let set = small_set();
        let string = TestSetString::try_new(&set, 8).unwrap();
        let histogram = BlockHistogram::from_string(&string);
        let bits = string.payload_bits() as f64;
        let err = MvFitness::new(8, true, &histogram, bits)
            .try_combine_mode(CombineMode::Weighted { weights: [0.0; 3] })
            .unwrap_err();
        assert_eq!(err, WeightError::AllZero);
        assert!(err.to_string().contains("all zero"));
    }

    #[test]
    #[should_panic(expected = "invalid combine mode")]
    fn combine_mode_panics_on_rejected_weights() {
        let set = small_set();
        let string = TestSetString::try_new(&set, 8).unwrap();
        let histogram = BlockHistogram::from_string(&string);
        let bits = string.payload_bits() as f64;
        let _ = MvFitness::new(8, true, &histogram, bits).combine_mode(CombineMode::Weighted {
            weights: [f64::NAN, 1.0, 1.0],
        });
    }

    #[test]
    fn summary_reports_a_stop_reason() {
        let (_, summary) = quick(8, 4, 1).compress_with_summary(&small_set()).unwrap();
        assert_eq!(summary.stop_reason, StopReason::Converged);
    }

    #[test]
    fn summary_display_surfaces_stop_reason_and_checkpoint_failures() {
        let (_, mut summary) = quick(8, 4, 1).compress_with_summary(&small_set()).unwrap();
        assert_eq!(summary.checkpoint_failures, 0, "no checkpointing, no sink");
        let healthy = summary.to_string();
        assert!(
            healthy.contains("stopped: converged"),
            "stop reason missing from {healthy:?}"
        );
        assert!(
            !healthy.contains("checkpoint sink"),
            "healthy runs must not mention sink failures: {healthy:?}"
        );
        summary.checkpoint_failures = 3;
        let degraded = summary.to_string();
        assert!(
            degraded.contains("3 checkpoint sink failure(s)"),
            "failure count missing from {degraded:?}"
        );
    }

    #[test]
    fn trit_checkpoints_round_trip_and_never_panic_on_corruption() {
        use evotc_evo::{CheckpointMember, IslandCheckpoint};
        let member = |genes: Vec<Trit>| CheckpointMember {
            genes,
            fitness: 42.5,
            objectives: [1.0, 2.0, 3.0],
        };
        let checkpoint = EaCheckpoint {
            config_fingerprint: 7,
            genome_len: 4,
            generation: 0,
            stagnant: 0,
            best_so_far: 42.5,
            history: vec![evotc_evo::HistoryRecord {
                generation: 0,
                best_fitness: 42.5,
                mean_fitness: 40.0,
                evaluations: 2,
            }],
            islands: vec![IslandCheckpoint {
                rng_state: [1, 2, 3, 4],
                evaluations: 2,
                quarantined: false,
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
        let blobs = std::cell::RefCell::new(Vec::new());
        let reference = EaBuilder::new(8 * 4, sample, MvFitness::new(8, true, &histogram, bits))
            .config(config.clone())
            .checkpoint_every(5, |cp: &EaCheckpoint<Trit>| {
                blobs.borrow_mut().push(trit_checkpoint_to_bytes(cp));
                Ok(())
            })
            .run();
        let blobs = blobs.into_inner();
        assert!(!blobs.is_empty(), "run never checkpointed");
        for blob in &blobs {
            let checkpoint = trit_checkpoint_from_bytes(blob).unwrap();
            let resumed = EaBuilder::new(8 * 4, sample, MvFitness::new(8, true, &histogram, bits))
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
}
