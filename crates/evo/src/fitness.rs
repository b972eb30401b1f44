//! Batch-oriented fitness evaluation.

use crate::objective::{Individual, Objectives};
use crate::operators::GeneRange;
use crate::stats::CacheStats;

/// Parent→child provenance of one genome in a batch: which parent it was
/// derived from and which gene window the deriving operator may have edited.
///
/// The engine records a lineage for every child it breeds — crossover
/// children point at the parent that contributed the genes *outside* the
/// swapped window (with the window's *content donor* recorded as
/// [`Lineage::second_parent`]), mutation and inversion children at their
/// single parent, and reproduction children carry an **empty** edit range
/// (the child is a verbatim copy). The contract mirrors the operators' (see
/// [`crate::operators`]): every position outside `edit` equals the primary
/// parent's gene; positions inside may or may not differ.
///
/// Relative to the **second** parent the contract is the mirror image: the
/// child equals it at every position *inside* `edit` and may differ
/// anywhere outside. An evaluator holding only the second parent's partial
/// results can therefore still price the child — the edit window relative
/// to that parent is the window's complement (conservatively, the whole
/// genome, diffed at whatever granularity the evaluator patches at).
///
/// Evaluators that can reuse a parent's partial results (see
/// [`FitnessEval::evaluate_batch`]) use this to make a child's evaluation
/// proportional to the edit instead of the genome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lineage {
    /// Index of the primary parent in [`Provenance::parents`] — the parent
    /// the child equals outside [`Lineage::edit`].
    pub parent_idx: usize,
    /// Gene window possibly differing from that parent (`start..end`,
    /// half-open). Empty means the child is an exact copy.
    pub edit: GeneRange,
    /// For crossover children, the index of the other parent — the one that
    /// contributed the genes **inside** [`Lineage::edit`]. `None` for
    /// single-parent operators (mutation, inversion, reproduction).
    pub second_parent: Option<usize>,
}

impl Lineage {
    /// Provenance of a single-parent child: equals `parents[parent_idx]`
    /// outside `edit`.
    pub fn new(parent_idx: usize, edit: GeneRange) -> Self {
        Lineage {
            parent_idx,
            edit,
            second_parent: None,
        }
    }

    /// Provenance of a crossover child: equals `parents[parent_idx]`
    /// outside `edit` and `parents[second_parent]` inside it.
    pub fn crossover(parent_idx: usize, edit: GeneRange, second_parent: usize) -> Self {
        Lineage {
            parent_idx,
            edit,
            second_parent: Some(second_parent),
        }
    }
}

/// Parent→child provenance of one batch: a [`Lineage`] slot per genome,
/// the parent population the lineages index into, and the batch's survival
/// floor. The engine hands it over with every generation's children that
/// are not copies of a parent (see [`FitnessEval`]) and passes `None` for
/// the initial population, which has no parents.
#[derive(Debug, Clone, Copy)]
pub struct Provenance<'a, G> {
    /// `lineage[i]` describes how `genomes[i]` relates to
    /// [`Provenance::parents`]; `None` means the provenance is unknown.
    pub lineage: &'a [Option<Lineage>],
    /// The parent population, indexed by [`Lineage::parent_idx`] and
    /// [`Lineage::second_parent`]; evaluators read each parent's `genes`.
    pub parents: &'a [Individual<G>],
    /// The survival floor: the fitness of the worst parent, in every batch
    /// of a run that ranks by fitness ([`crate::Ranking::Fitness`]) and has
    /// no NaN parent. The stable `(S + C)` truncation keeps every parent
    /// ahead of an equally scored child, so a child at or below the floor is
    /// dropped whatever its exact score, and one above it may be a parent of
    /// the next batch: evaluators may use it to decide which children's
    /// partial results are worth keeping.
    ///
    /// When the batch also asks for no objective vector (`objectives` is
    /// `None`: no Pareto archive), selection is the sole reader of a child's
    /// score — history and stats are taken after selection, and checkpoints
    /// hold only the population — and an evaluator may then report any
    /// score at or below the floor as the floor itself (see
    /// [`FitnessEval`]), so it need not finish pricing a child that cannot
    /// survive. `None` under lexicographic ranking or with a NaN parent.
    pub floor: Option<f64>,
}

/// Fitness of fixed-length genomes over gene type `G`; higher is better.
///
/// The engine hands whole batches to [`FitnessEval::evaluate_batch`] — the
/// initial population first, then every generation's children that are not
/// copies (see below) — in one call on the thread that owns the
/// (sub)population. Scores are written
/// into a caller-provided slice, so the engine can reuse one output buffer
/// across generations.
///
/// Each island of a run owns one [`FitnessEval::State`]: the engine creates
/// it when the island is initialized or restored from a checkpoint, passes
/// it to every batch the island scores, and drops it with the island. An
/// evaluator keeps its working memory there (scratch buffers, partial
/// results of parents to price children against), so the evaluator itself
/// stays shared and immutable, and no state is ever touched by two threads.
///
/// Implementations must be *pure*: the fitness of a genome may depend only
/// on the genes (plus immutable shared state such as a precomputed
/// histogram), never on the contents of the state, evaluation order, or
/// randomness. That purity is what lets the engine guarantee bit-identical
/// results for every thread count.
///
/// **Copies.** Purity also lets the engine skip every child that equals a
/// parent gene for gene: a reproduction, a mutation that redrew the old
/// gene, an inversion of a palindromic window, or a crossover child whose
/// parents agree inside (or outside) the swapped window. Such a copy takes
/// its parent's score and objective vector and never reaches
/// [`FitnessEval::evaluate_batch`]; a generation made only of copies makes
/// no call at all.
///
/// **The survival floor.** Purity has one sanctioned exception. When a
/// batch's [`Provenance::floor`] is `Some(floor)` and its `objectives` are
/// `None`, an evaluator may write `floor` instead of any score at or below
/// it: a child that scores at most the worst parent is dropped by selection
/// whatever its exact score, so the work of pricing it exactly is wasted.
/// Scores above the floor must stay exact, and so must every score of a
/// batch without a floor or with objectives. Only a batch with a floor and
/// no objectives has selection as the sole reader of its children's scores
/// (see [`Provenance::floor`]), which keeps every survivor, history entry
/// and checkpoint byte-identical. Closures and the default
/// [`FitnessEval::evaluate_batch`] ignore the floor.
///
/// Any `Fn(&[G]) -> f64` closure implements this trait with `State = ()`,
/// so simple callers never need to name it:
///
/// ```
/// use evotc_evo::FitnessEval;
///
/// let one_max = |genes: &[bool]| genes.iter().filter(|&&g| g).count() as f64;
/// assert_eq!(one_max.evaluate(&[true, false, true]), 2.0);
/// let mut scores = [0.0; 2];
/// one_max.evaluate_batch(&mut (), &[vec![true], vec![false]], None, &mut scores, None);
/// assert_eq!(scores, [1.0, 0.0]);
/// ```
pub trait FitnessEval<G> {
    /// One island's working state. It carries only what saves work, never
    /// what changes a score: a fresh state must give the same scores.
    type State: Default + Send;

    /// Scores a single genome.
    fn evaluate(&self, genes: &[G]) -> f64;

    /// Scores a batch of genomes with the scoring island's `state`, writing
    /// the fitness of `genomes[i]` into `out[i]` and, when `objectives` is
    /// given, its minimized objective vector into `objectives[i]` (see
    /// [`Objectives`]). Callers guarantee that `out`, `objectives` and
    /// `provenance.lineage` all have `genomes.len()` entries, and that every
    /// lineage index is in range of `provenance.parents`.
    ///
    /// The default implementation maps [`FitnessEval::evaluate`] over the
    /// batch in order, ignores the provenance, and embeds each score via
    /// [`Objectives::from_fitness`], under which lexicographic ranking
    /// reproduces descending-fitness ranking exactly. Override it when
    /// per-batch work can be amortized (reusable scratch buffers,
    /// vectorized kernels), when a parent's partial results can price a
    /// lightly edited child (see [`Lineage`]), or to report real objective
    /// vectors. Provenance is purely an optimization hint: an override must
    /// fill every slot, and its scores must be **bit-identical** with or
    /// without provenance and with or without `objectives` — the objective
    /// vector is additional output, never a change of the fitness
    /// semantics.
    fn evaluate_batch(
        &self,
        state: &mut Self::State,
        genomes: &[Vec<G>],
        provenance: Option<Provenance<'_, G>>,
        out: &mut [f64],
        objectives: Option<&mut [Objectives]>,
    ) {
        debug_assert_eq!(genomes.len(), out.len(), "scores slice length");
        let _ = (state, provenance);
        for (genes, slot) in genomes.iter().zip(out.iter_mut()) {
            *slot = self.evaluate(genes);
        }
        for (slot, &score) in objectives.into_iter().flatten().zip(out.iter()) {
            *slot = Objectives::from_fitness(score);
        }
    }

    /// Hands a migrant's partial results from its source island to its
    /// destination: the engine calls this for every migrant between
    /// epochs, on the coordinating thread, in a deterministic order. The
    /// default does nothing: the destination then works out whatever it
    /// needs the first time it breeds from the migrant.
    fn migrate(&self, genome: &[G], from: &mut Self::State, to: &mut Self::State) {
        let _ = (genome, from, to);
    }

    /// Cumulative evaluation-cache counters, when this evaluator keeps a
    /// lineage cache (see [`CacheStats`]). The engine reads this once, when
    /// the run ends, into [`crate::EaResult::cache`], so cache
    /// effectiveness is observable per run, not just in micro-benchmarks.
    ///
    /// The default (evaluators without a cache) reports `None`. Counters
    /// must be monotone non-decreasing and must never influence scores —
    /// they are observability, like wall-clock time.
    fn cache_stats(&self) -> Option<CacheStats> {
        None
    }
}

/// Every plain fitness closure is a batch evaluator.
impl<G, F> FitnessEval<G> for F
where
    F: Fn(&[G]) -> f64,
{
    type State = ();

    fn evaluate(&self, genes: &[G]) -> f64 {
        self(genes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct SumLen;

    impl FitnessEval<u8> for SumLen {
        type State = ();

        fn evaluate(&self, genes: &[u8]) -> f64 {
            genes.iter().map(|&g| g as f64).sum()
        }
    }

    #[test]
    fn default_batch_maps_in_order() {
        let genomes = vec![vec![1u8, 2], vec![10], vec![]];
        let mut scores = vec![f64::NAN; genomes.len()];
        SumLen.evaluate_batch(&mut (), &genomes, None, &mut scores, None);
        assert_eq!(scores, vec![3.0, 10.0, 0.0]);
    }

    #[test]
    fn default_batch_ignores_provenance() {
        let genomes = vec![vec![1u8, 2], vec![1, 3]];
        let parents = [Individual {
            genes: vec![1u8, 2],
            fitness: 3.0,
            objectives: Objectives::from_fitness(3.0),
        }];
        let lineage = vec![
            Some(Lineage::new(0, 0..0)),
            Some(Lineage::crossover(0, 1..2, 0)),
        ];
        let provenance = Provenance {
            lineage: &lineage,
            parents: &parents,
            floor: None,
        };
        let mut with = vec![f64::NAN; 2];
        SumLen.evaluate_batch(&mut (), &genomes, Some(provenance), &mut with, None);
        let mut without = vec![f64::NAN; 2];
        SumLen.evaluate_batch(&mut (), &genomes, None, &mut without, None);
        assert_eq!(with, without);
    }

    #[test]
    fn default_objectives_embed_the_scalar_score() {
        let genomes = vec![vec![1u8, 2], vec![10]];
        let mut scores = vec![f64::NAN; 2];
        let mut objectives = vec![Objectives::NAN; 2];
        SumLen.evaluate_batch(&mut (), &genomes, None, &mut scores, Some(&mut objectives));
        assert_eq!(scores, vec![3.0, 10.0]);
        assert_eq!(objectives[0], Objectives::from_fitness(3.0));
        assert_eq!(objectives[1], Objectives::from_fitness(10.0));
    }

    #[test]
    fn closures_implement_the_trait() {
        let f = |genes: &[bool]| genes.len() as f64;
        assert_eq!(f.evaluate(&[true, true]), 2.0);
        let mut scores = [f64::NAN; 2];
        f.evaluate_batch(&mut (), &[vec![], vec![false]], None, &mut scores, None);
        assert_eq!(scores, [0.0, 1.0]);
    }
}
