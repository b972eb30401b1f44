//! Multi-objective score vectors and the bounded nondominated archive.
//!
//! The paper optimizes a single scalar (the compression rate), but the
//! power-aware extension scores every genome on a *vector* of minimized
//! objectives — encoded bits, scan-in transitions, decoder area — and the
//! engine can keep the nondominated (Pareto) front of everything it
//! evaluated. The archive is *observational*: it never influences
//! selection, so switching it on cannot change a run's trajectory.

use std::cmp::Ordering;

/// A minimized objective vector: `[encoded_bits, scan_transitions,
/// decoder_area]` for the test-compression problem, but the engine treats
/// the components as opaque "smaller is better" values.
///
/// Scalar-only evaluators are embedded via [`Objectives::from_fitness`],
/// which maps a (maximized) fitness `f` to `[-f, 0, 0]` — lexicographic
/// order over that embedding reproduces descending-fitness order exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Objectives(
    /// The minimized components, most significant first (lexicographic
    /// ranking compares them in index order).
    pub [f64; 3],
);

impl Objectives {
    /// The "not yet evaluated" filler the parallel evaluator prefills
    /// output slots with (mirrors the `NaN` score prefill).
    pub const NAN: Objectives = Objectives([f64::NAN; 3]);

    /// An objective vector from its three minimized components.
    pub fn new(encoded_bits: f64, scan_transitions: f64, decoder_area: f64) -> Self {
        Objectives([encoded_bits, scan_transitions, decoder_area])
    }

    /// Embeds a scalar (maximized) fitness as `[-fitness, 0, 0]`, so
    /// lexicographic order over the embedding equals descending-fitness
    /// order and domination degenerates to fitness comparison.
    pub fn from_fitness(fitness: f64) -> Self {
        Objectives([-fitness, 0.0, 0.0])
    }

    /// The minimized components, most significant first.
    pub fn values(&self) -> [f64; 3] {
        self.0
    }

    /// Whether every component is finite (neither infinite nor `NaN`).
    /// The unevaluated filler [`Objectives::NAN`] is non-finite by
    /// construction.
    pub fn is_finite(&self) -> bool {
        self.0.iter().all(|v| v.is_finite())
    }

    /// Pareto domination: `self` is no worse in every component and
    /// strictly better in at least one. Any `NaN` component makes both
    /// directions false (incomparable).
    pub fn dominates(&self, other: &Objectives) -> bool {
        let mut strictly = false;
        for (a, b) in self.0.iter().zip(&other.0) {
            if a > b || a.is_nan() || b.is_nan() {
                return false;
            }
            strictly |= a < b;
        }
        strictly
    }

    /// Lexicographic total order over the components (most significant
    /// first), using [`f64::total_cmp`] so `NaN`s order deterministically.
    pub fn lex_cmp(&self, other: &Objectives) -> Ordering {
        for (a, b) in self.0.iter().zip(&other.0) {
            match a.total_cmp(b) {
                Ordering::Equal => continue,
                unequal => return unequal,
            }
        }
        Ordering::Equal
    }
}

/// One entry of a [`ParetoArchive`]: a genome together with its scalar
/// fitness and objective vector at evaluation time.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoPoint<G> {
    /// The genome.
    pub genome: Vec<G>,
    /// Its scalar (combined) fitness, as the evaluator reported it.
    pub fitness: f64,
    /// Its minimized objective vector.
    pub objectives: Objectives,
}

/// A nondominated archive over everything inserted into it.
///
/// The archive keeps the *exact* Pareto front of the inserted set — a pure
/// function of that set, so the front is invariant under insertion order —
/// internally sorted by [`Objectives::lex_cmp`]. `capacity` bounds only
/// what [`ParetoArchive::reported`] returns (the lexicographically smallest
/// `capacity` entries), never which points are retained: evicting
/// nondominated points on insert would make the archive order-dependent.
///
/// Duplicate objective vectors are rejected (the first genome to reach a
/// vector keeps it), as are non-finite vectors (infinities, `NaN` fillers)
/// and anything dominated by a retained point.
#[derive(Debug, Clone)]
pub struct ParetoArchive<G> {
    points: Vec<ParetoPoint<G>>,
    capacity: usize,
}

impl<G: Clone> ParetoArchive<G> {
    /// An empty archive reporting at most `capacity` points (`0` means
    /// unbounded reporting).
    pub fn new(capacity: usize) -> Self {
        ParetoArchive {
            points: Vec::new(),
            capacity,
        }
    }

    /// The configured reporting bound (`0` = unbounded).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of nondominated points currently retained.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the archive holds no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The full nondominated front, sorted by [`Objectives::lex_cmp`].
    pub fn points(&self) -> &[ParetoPoint<G>] {
        &self.points
    }

    /// The reported front: the lexicographically smallest
    /// `min(len, capacity)` points (all of them when `capacity == 0`).
    pub fn reported(&self) -> &[ParetoPoint<G>] {
        match self.capacity {
            0 => &self.points,
            cap => &self.points[..self.points.len().min(cap)],
        }
    }

    /// Offers a point to the archive. Returns `true` if it joined the
    /// front (evicting any points it dominates), `false` if it was
    /// non-finite, dominated, or an exact duplicate of a retained vector.
    /// The genome is cloned only on acceptance.
    pub fn insert(&mut self, genome: &[G], fitness: f64, objectives: Objectives) -> bool {
        if !objectives.is_finite() {
            return false;
        }
        if self
            .points
            .iter()
            .any(|p| p.objectives == objectives || p.objectives.dominates(&objectives))
        {
            return false;
        }
        self.points.retain(|p| !objectives.dominates(&p.objectives));
        let at = self
            .points
            .partition_point(|p| p.objectives.lex_cmp(&objectives) == Ordering::Less);
        self.points.insert(
            at,
            ParetoPoint {
                genome: genome.to_vec(),
                fitness,
                objectives,
            },
        );
        true
    }

    /// Offers every retained point of `other` to this archive (used to
    /// merge per-island archives, in island order, into the run's front).
    pub fn merge_from(&mut self, other: &ParetoArchive<G>) {
        for p in &other.points {
            self.insert(&p.genome, p.fitness, p.objectives);
        }
    }

    /// Rebuilds an archive from previously retained points (checkpoint
    /// resume). Each point is re-offered through [`ParetoArchive::insert`];
    /// because the retained front is a pure function of the inserted set,
    /// feeding back a front reproduces it exactly — same points, same
    /// order — and later insertions behave as if the archive had never been
    /// serialized (any genome dominated by a discarded historical point is
    /// also dominated by a retained one, by transitivity of domination).
    pub fn from_points<'a, I>(capacity: usize, points: I) -> Self
    where
        I: IntoIterator<Item = &'a ParetoPoint<G>>,
        G: 'a,
    {
        let mut archive = ParetoArchive::new(capacity);
        for p in points {
            archive.insert(&p.genome, p.fitness, p.objectives);
        }
        archive
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(a: f64, b: f64, c: f64) -> Objectives {
        Objectives::new(a, b, c)
    }

    #[test]
    fn domination_requires_no_worse_everywhere_and_better_somewhere() {
        assert!(obj(1.0, 2.0, 3.0).dominates(&obj(1.0, 2.0, 4.0)));
        assert!(obj(0.0, 0.0, 0.0).dominates(&obj(1.0, 1.0, 1.0)));
        assert!(!obj(1.0, 2.0, 3.0).dominates(&obj(1.0, 2.0, 3.0)), "equal");
        assert!(!obj(0.0, 5.0, 0.0).dominates(&obj(1.0, 1.0, 1.0)), "trade");
        assert!(!obj(1.0, 1.0, 1.0).dominates(&obj(0.0, 5.0, 0.0)));
    }

    #[test]
    fn nan_vectors_are_incomparable() {
        let nan = obj(f64::NAN, 0.0, 0.0);
        let fine = obj(0.0, 0.0, 0.0);
        assert!(!nan.dominates(&fine));
        assert!(!fine.dominates(&nan));
        assert!(!nan.is_finite());
        assert!(!Objectives([1.0, f64::INFINITY, 0.0]).is_finite());
        assert!(fine.is_finite());
    }

    #[test]
    fn lex_order_compares_most_significant_first() {
        assert_eq!(
            obj(1.0, 9.0, 9.0).lex_cmp(&obj(2.0, 0.0, 0.0)),
            Ordering::Less
        );
        assert_eq!(
            obj(1.0, 2.0, 3.0).lex_cmp(&obj(1.0, 2.0, 3.0)),
            Ordering::Equal
        );
        assert_eq!(
            obj(1.0, 2.0, 4.0).lex_cmp(&obj(1.0, 2.0, 3.0)),
            Ordering::Greater
        );
    }

    #[test]
    fn fitness_embedding_orders_like_descending_fitness() {
        let hi = Objectives::from_fitness(10.0);
        let lo = Objectives::from_fitness(3.0);
        assert_eq!(hi.lex_cmp(&lo), Ordering::Less);
        assert!(hi.dominates(&lo));
    }

    #[test]
    fn archive_keeps_only_nondominated_points() {
        let mut a: ParetoArchive<u8> = ParetoArchive::new(0);
        assert!(a.insert(&[1], 0.0, obj(2.0, 2.0, 0.0)));
        assert!(a.insert(&[2], 0.0, obj(1.0, 3.0, 0.0)), "trade-off joins");
        assert!(!a.insert(&[3], 0.0, obj(3.0, 3.0, 0.0)), "dominated");
        assert!(!a.insert(&[4], 0.0, obj(2.0, 2.0, 0.0)), "duplicate vector");
        assert!(a.insert(&[5], 0.0, obj(1.0, 1.0, 0.0)), "dominates both");
        assert_eq!(a.len(), 1);
        assert_eq!(a.points()[0].genome, vec![5]);
        for p in a.points() {
            for q in a.points() {
                assert!(!p.objectives.dominates(&q.objectives));
            }
        }
    }

    #[test]
    fn archive_front_is_insertion_order_invariant() {
        let vectors = [
            obj(1.0, 5.0, 0.0),
            obj(2.0, 4.0, 0.0),
            obj(3.0, 3.0, 1.0),
            obj(2.0, 4.0, 0.0), // duplicate
            obj(1.0, 4.0, 0.0), // dominates (1,5,0) and (2,4,0)
            obj(9.0, 9.0, 9.0), // dominated
        ];
        let front = |order: &[usize]| {
            let mut a: ParetoArchive<u8> = ParetoArchive::new(0);
            for &i in order {
                a.insert(&[i as u8], 0.0, vectors[i]);
            }
            a.points().iter().map(|p| p.objectives).collect::<Vec<_>>()
        };
        let reference = front(&[0, 1, 2, 3, 4, 5]);
        assert_eq!(front(&[5, 4, 3, 2, 1, 0]), reference);
        assert_eq!(front(&[2, 0, 5, 1, 4, 3]), reference);
        // The front is sorted lexicographically.
        for w in reference.windows(2) {
            assert_eq!(w[0].lex_cmp(&w[1]), Ordering::Less);
        }
    }

    #[test]
    fn capacity_bounds_reporting_not_retention() {
        let mut a: ParetoArchive<u8> = ParetoArchive::new(2);
        for i in 0..5 {
            // A pure trade-off chain: all five are mutually nondominated.
            a.insert(&[i], 0.0, obj(i as f64, (5 - i) as f64, 0.0));
        }
        assert_eq!(a.len(), 5, "retention is exact");
        assert_eq!(a.reported().len(), 2, "reporting is bounded");
        assert_eq!(a.reported()[0].objectives, obj(0.0, 5.0, 0.0));
        assert_eq!(a.capacity(), 2);
    }

    #[test]
    fn non_finite_vectors_are_rejected() {
        let mut a: ParetoArchive<u8> = ParetoArchive::new(0);
        assert!(!a.insert(&[0], f64::MIN, Objectives([f64::INFINITY; 3])));
        assert!(!a.insert(&[1], f64::NAN, Objectives::NAN));
        assert!(a.is_empty());
    }

    #[test]
    fn from_points_reproduces_the_front_exactly() {
        let mut a: ParetoArchive<u8> = ParetoArchive::new(3);
        for i in 0..6 {
            a.insert(&[i], i as f64, obj(i as f64, (6 - i) as f64, 0.0));
        }
        let rebuilt = ParetoArchive::from_points(a.capacity(), a.points());
        assert_eq!(rebuilt.capacity(), a.capacity());
        assert_eq!(rebuilt.points(), a.points());
        // Continuing to insert behaves identically on both.
        let mut rebuilt = rebuilt;
        assert_eq!(
            a.insert(&[9], 0.0, obj(-1.0, 9.0, 0.0)),
            rebuilt.insert(&[9], 0.0, obj(-1.0, 9.0, 0.0))
        );
        assert_eq!(rebuilt.points(), a.points());
    }

    #[test]
    fn merge_is_equivalent_to_inserting_everything() {
        let mut left: ParetoArchive<u8> = ParetoArchive::new(0);
        let mut right: ParetoArchive<u8> = ParetoArchive::new(0);
        left.insert(&[0], 0.0, obj(1.0, 5.0, 0.0));
        left.insert(&[1], 0.0, obj(4.0, 2.0, 0.0));
        right.insert(&[2], 0.0, obj(2.0, 3.0, 0.0));
        right.insert(&[3], 0.0, obj(0.0, 9.0, 0.0));
        let mut merged = left.clone();
        merged.merge_from(&right);
        let mut all: ParetoArchive<u8> = ParetoArchive::new(0);
        for p in left.points().iter().chain(right.points()) {
            all.insert(&p.genome, p.fitness, p.objectives);
        }
        let objs =
            |a: &ParetoArchive<u8>| a.points().iter().map(|p| p.objectives).collect::<Vec<_>>();
        assert_eq!(objs(&merged), objs(&all));
    }
}
