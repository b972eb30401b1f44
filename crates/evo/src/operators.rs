//! The paper's three evolutionary operators (Section 3.1).
//!
//! * **Crossover** takes two parents and produces two children by exchanging
//!   genes: each position keeps one parent's gene in one child and the other
//!   parent's gene in the other child (two-point exchange).
//! * **Mutation** replaces one randomly selected gene by a random value.
//! * **Inversion** reverses the gene order between two random positions.
//!
//! Every operator is generic in the gene type, writes into child buffers it
//! clears first (the engine recycles them across generations), and draws
//! randomness only from the supplied RNG: runs reproduce from the seed.
//!
//! # Provenance
//!
//! Each operator returns the [`GeneRange`] it may have edited: every
//! position **outside** it equals the parent's gene (positions inside may or
//! may not differ — mutation can redraw the old value). The engine records
//! it as [`Lineage`](crate::Lineage), so an incremental fitness evaluator
//! re-prices only what changed.
//!
//! # Degenerate genomes
//!
//! Empty parents are **no-ops**: every operator returns empty children and
//! the range `0..0` without drawing from the RNG. Single-gene parents are
//! well-defined too: crossover and inversion can only swap or reverse one
//! position, and mutation redraws the one gene. Nothing panics on either.

use rand::Rng;

/// Half-open range of gene positions an operator may have changed; see the
/// [module docs](self) for the exact guarantee.
pub type GeneRange = std::ops::Range<usize>;

/// Two-point crossover: positions inside the randomly chosen window
/// `[a, b)` are swapped between the parents, producing two children with
/// "genes of one parent in several positions and the genes of the other
/// parent in others" (paper, Section 3.1).
///
/// Returns the swapped window: both children equal their respective parent
/// outside it.
///
/// # Panics
///
/// Panics if the parents have different lengths.
///
/// # Example
///
/// ```
/// use evotc_evo::operators::crossover_into;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let (mut a, mut b) = (Vec::new(), Vec::new());
/// let window = crossover_into(&[0, 0, 0, 0], &[1, 1, 1, 1], &mut rng, &mut a, &mut b);
/// // Every position holds a gene from one of the parents.
/// assert!(a.iter().chain(b.iter()).all(|&g| g == 0 || g == 1));
/// // Together the children carry exactly the parents' genes per position.
/// for i in 0..4 {
///     assert_eq!(a[i] + b[i], 1);
/// }
/// // Outside the window each child keeps its own parent's genes.
/// assert!((0..4).all(|i| window.contains(&i) || (a[i], b[i]) == (0, 1)));
/// ```
pub fn crossover_into<G: Copy, R: Rng + ?Sized>(
    parent_a: &[G],
    parent_b: &[G],
    rng: &mut R,
    child_a: &mut Vec<G>,
    child_b: &mut Vec<G>,
) -> GeneRange {
    assert_eq!(parent_a.len(), parent_b.len(), "parent lengths differ");
    child_a.clear();
    child_a.extend_from_slice(parent_a);
    child_b.clear();
    child_b.extend_from_slice(parent_b);
    let n = parent_a.len();
    if n == 0 {
        return 0..0;
    }
    let mut i = rng.gen_range(0..=n);
    let mut j = rng.gen_range(0..=n);
    if i > j {
        std::mem::swap(&mut i, &mut j);
    }
    for k in i..j {
        std::mem::swap(&mut child_a[k], &mut child_b[k]);
    }
    i..j
}

/// Point mutation: replaces one randomly selected gene by a value drawn from
/// `sample_gene` (paper, Section 3.1).
///
/// The fresh value may equal the old one: as in the paper, mutation is
/// "replace by a random value", which keeps the gene distribution unbiased.
/// Returns the one-gene window that was redrawn, `pos..pos + 1`.
pub fn mutate_into<G: Copy, R: Rng + ?Sized>(
    parent: &[G],
    rng: &mut R,
    mut sample_gene: impl FnMut(&mut R) -> G,
    child: &mut Vec<G>,
) -> GeneRange {
    child.clear();
    child.extend_from_slice(parent);
    if parent.is_empty() {
        return 0..0;
    }
    let pos = rng.gen_range(0..child.len());
    child[pos] = sample_gene(rng);
    pos..pos + 1
}

/// Inversion: reverses the ordering of the genes between two random
/// positions of a parent (paper, Section 3.1).
///
/// Returns the reversed window, collapsed to an empty range when the window
/// holds fewer than two genes (reversal changes nothing then).
pub fn invert_into<G: Copy, R: Rng + ?Sized>(
    parent: &[G],
    rng: &mut R,
    child: &mut Vec<G>,
) -> GeneRange {
    child.clear();
    child.extend_from_slice(parent);
    let n = parent.len();
    if n == 0 {
        return 0..0;
    }
    let mut i = rng.gen_range(0..=n);
    let mut j = rng.gen_range(0..=n);
    if i > j {
        std::mem::swap(&mut i, &mut j);
    }
    child[i..j].reverse();
    if j - i < 2 {
        i..i
    } else {
        i..j
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    /// `crossover_into` with fresh buffers: the children and the window.
    fn crossover<G: Copy>(a: &[G], b: &[G], seed: u64) -> (Vec<G>, Vec<G>, GeneRange) {
        let (mut ca, mut cb) = (Vec::new(), Vec::new());
        let window = crossover_into(a, b, &mut rng(seed), &mut ca, &mut cb);
        (ca, cb, window)
    }

    /// `mutate_into` with a fresh buffer, redrawing from `0..3`.
    fn mutate(parent: &[u8], seed: u64) -> Vec<u8> {
        let mut child = Vec::new();
        mutate_into(parent, &mut rng(seed), |r| r.gen_range(0..3u8), &mut child);
        child
    }

    /// `invert_into` with a fresh buffer: the child and the window.
    fn invert<G: Copy>(parent: &[G], seed: u64) -> (Vec<G>, GeneRange) {
        let mut child = Vec::new();
        let window = invert_into(parent, &mut rng(seed), &mut child);
        (child, window)
    }

    #[test]
    fn crossover_preserves_multiset_per_position() {
        let a = [1, 2, 3, 4, 5];
        let b = [6, 7, 8, 9, 10];
        for seed in 0..50 {
            let (ca, cb, _) = crossover(&a, &b, seed);
            for k in 0..a.len() {
                let pair = (ca[k], cb[k]);
                assert!(pair == (a[k], b[k]) || pair == (b[k], a[k]));
            }
        }
    }

    #[test]
    fn crossover_sometimes_mixes() {
        let a = [0u8; 16];
        let b = [1u8; 16];
        let mixed = (0..50).any(|seed| {
            let (ca, _, _) = crossover(&a, &b, seed);
            ca.contains(&0) && ca.contains(&1)
        });
        assert!(mixed, "two-point crossover never exchanged a proper window");
    }

    #[test]
    fn mutation_changes_at_most_one_gene() {
        let parent = [0u8; 32];
        for seed in 0..30 {
            let child = mutate(&parent, seed);
            let diff = parent.iter().zip(&child).filter(|(a, b)| a != b).count();
            assert!(diff <= 1, "mutation changed {diff} genes");
        }
    }

    #[test]
    fn inversion_is_a_permutation() {
        let parent = [1, 2, 3, 4, 5, 6, 7];
        for seed in 0..30 {
            let (child, _) = invert(&parent, seed);
            let mut sorted = child.clone();
            sorted.sort();
            assert_eq!(sorted, parent.to_vec());
        }
    }

    #[test]
    fn inversion_reverses_some_window() {
        // With a full-range window the child is the exact reverse.
        let parent = [1, 2, 3];
        let reversed = (0..200).any(|seed| invert(&parent, seed).0 == [3, 2, 1]);
        assert!(reversed, "full inversion never sampled");
    }

    #[test]
    fn operators_are_deterministic_per_seed() {
        let a = [1, 2, 3, 4, 5];
        let b = [9, 8, 7, 6, 5];
        assert_eq!(crossover(&a, &b, 7), crossover(&a, &b, 7));
        assert_eq!(invert(&a, 7), invert(&a, 7));
    }

    #[test]
    #[should_panic(expected = "lengths differ")]
    fn crossover_rejects_ragged_parents() {
        let _ = crossover(&[1, 2], &[1], 0);
    }

    #[test]
    fn edit_ranges_bound_every_difference() {
        let a = [1, 2, 3, 4, 5, 6];
        let b = [9, 8, 7, 6, 5, 4];
        for seed in 0..100 {
            let (ca, cb, window) = crossover(&a, &b, seed);
            for k in 0..a.len() {
                if !window.contains(&k) {
                    assert_eq!(ca[k], a[k], "seed {seed} pos {k} outside {window:?}");
                    assert_eq!(cb[k], b[k], "seed {seed} pos {k} outside {window:?}");
                }
            }
            let mut child = Vec::new();
            let edit = mutate_into(&a, &mut rng(seed), |r| r.gen_range(0..9), &mut child);
            assert_eq!(edit.len(), 1);
            for k in 0..a.len() {
                if !edit.contains(&k) {
                    assert_eq!(child[k], a[k]);
                }
            }
            let edit = invert_into(&a, &mut rng(seed), &mut child);
            for k in 0..a.len() {
                if !edit.contains(&k) {
                    assert_eq!(child[k], a[k]);
                }
            }
        }
    }

    #[test]
    fn empty_parents_are_no_ops_without_rng_draws() {
        let empty: [u8; 0] = [];
        let mut r = rng(5);
        let before = r.gen::<u64>();
        let mut r = rng(5);

        let (mut ca, mut cb) = (vec![1u8], vec![2u8]);
        assert_eq!(
            crossover_into(&empty, &empty, &mut r, &mut ca, &mut cb),
            0..0
        );
        assert!(ca.is_empty() && cb.is_empty());

        let mut child = vec![3u8];
        assert_eq!(
            mutate_into(
                &empty,
                &mut r,
                |_| unreachable!("no gene to redraw"),
                &mut child
            ),
            0..0
        );
        assert!(child.is_empty());

        child.push(4);
        assert_eq!(invert_into(&empty, &mut r, &mut child), 0..0);
        assert!(child.is_empty());

        // None of the operators consumed randomness.
        assert_eq!(r.gen::<u64>(), before);
    }

    #[test]
    fn single_gene_parents_are_well_defined() {
        for seed in 0..20 {
            let parent = [7u8];
            let (ca, cb, _) = crossover(&parent, &[9], seed);
            assert!(ca == [7] && cb == [9] || ca == [9] && cb == [7]);
            assert_eq!(mutate(&parent, seed).len(), 1);
            let (child, window) = invert(&parent, seed);
            assert_eq!(child, [7]);
            // A one-gene window cannot change anything: the edit range is
            // advertised as empty.
            assert!(window.is_empty());
        }
    }
}
