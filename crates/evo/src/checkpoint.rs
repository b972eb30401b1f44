//! Versioned, serializable run checkpoints.
//!
//! An [`EaCheckpoint`] captures everything a run's trajectory depends on at
//! a generation boundary: per-island populations with their scores and
//! objective vectors, per-island RNG stream state, the Pareto archive, the
//! stagnation and generation counters, and the deterministic part of the
//! run history. Feeding it back through `EaBuilder::resume_from` continues
//! the run **byte-identically** to the uninterrupted one at any thread
//! count — the checkpoint is a point on the deterministic trajectory, and
//! the trajectory is a pure function of (seed, config, genome length).
//!
//! Two result fields are explicitly *outside* the determinism contract and
//! are not captured: wall-clock (`elapsed` restarts from the resume) and
//! evaluator cache counters (`cache` — a resumed run starts with a cold
//! cache, so its counters differ from the uninterrupted run's; scores never
//! do). Neither is part of a history entry, so the captured history is the
//! run's own.
//!
//! # Serialization
//!
//! The byte format is versioned (magic `EVTC`, then a format version —
//! currently [`CHECKPOINT_FORMAT_VERSION`]), little-endian, with floats
//! stored as IEEE-754 bit patterns so round-trips are exact. Genes are
//! serialized through a caller-supplied closure pair
//! ([`EaCheckpoint::to_bytes_with`]/[`EaCheckpoint::from_bytes_with`]), so
//! gene types defined in other crates need no trait impl here: `evotc_core`
//! writes one byte per trit.
//!
//! A checkpoint also records a fingerprint of the deterministic
//! configuration fields (see [`config_fingerprint`]); resuming validates it
//! so a checkpoint can never silently continue under a different seed,
//! topology, ranking, or budget.

use std::fmt;

use crate::config::{EaConfig, Ranking, Topology};
use crate::objective::{Individual, Objectives};
use crate::stats::GenerationStats;

/// The current checkpoint byte-format version. Bumped whenever the layout
/// or the meaning of a field changes; readers reject other versions with
/// [`CheckpointError::UnsupportedVersion`] instead of misinterpreting
/// bytes.
pub const CHECKPOINT_FORMAT_VERSION: u32 = 2;

const MAGIC: &[u8; 4] = b"EVTC";

/// Why a checkpoint could not be serialized, parsed, or used to resume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The bytes do not start with the checkpoint magic — not a checkpoint.
    BadMagic,
    /// The checkpoint was written by an unknown (newer or retired) format
    /// version.
    UnsupportedVersion(
        /// The version found in the header.
        u32,
    ),
    /// The bytes end mid-field.
    Truncated,
    /// A field holds a value that cannot be valid (a zero-member
    /// population, a gene count contradicting the genome length, an
    /// all-zero RNG state, …). The payload names the offending field.
    Malformed(&'static str),
    /// The checkpoint's configuration fingerprint does not match the run it
    /// was offered to: different seed, topology, ranking, budgets, operator
    /// probabilities, or genome length.
    ConfigMismatch,
    /// A checkpoint sink failed (an IO error writing the bytes out). The
    /// engine never produces this; it is for sink implementations, which
    /// the engine counts on `EaResult::checkpoint_failures` without
    /// stopping the run.
    Io(
        /// The sink's own description of the failure.
        String,
    ),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not a checkpoint (bad magic)"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported checkpoint format version {v} (supported: {CHECKPOINT_FORMAT_VERSION})"
                )
            }
            CheckpointError::Truncated => write!(f, "checkpoint truncated"),
            CheckpointError::Malformed(what) => write!(f, "malformed checkpoint: {what}"),
            CheckpointError::ConfigMismatch => {
                write!(f, "checkpoint does not match the run configuration")
            }
            CheckpointError::Io(msg) => write!(f, "checkpoint sink error: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// One island's complete evolutionary state at a generation boundary.
/// Panmictic runs checkpoint exactly one of these.
#[derive(Debug, Clone, PartialEq)]
pub struct IslandCheckpoint<G> {
    /// The island's RNG stream state (xoshiro256++ words, captured via
    /// `StdRng::to_state`).
    pub rng_state: [u64; 4],
    /// The island's own cumulative evaluation count.
    pub evaluations: u64,
    /// The post-selection population, best first (the engine's selection
    /// order), with the scores and objective vectors it had at capture
    /// time. Scores are restored verbatim on resume — genomes are **not**
    /// re-evaluated, which is both what makes resume cheap and what keeps
    /// cache counters honest.
    pub population: Vec<Individual<G>>,
    /// The island's retained Pareto front, in `lex_cmp` order. Empty when
    /// the run keeps no archive.
    pub archive: Vec<Individual<G>>,
}

/// A run checkpoint: a point on the deterministic trajectory, captured at a
/// generation boundary (epoch boundary for island runs).
///
/// Produced by `EaBuilder::checkpoint_every`, consumed by
/// `EaBuilder::resume_from`. See the [module docs](self) for the
/// determinism contract and the byte format.
#[derive(Debug, Clone, PartialEq)]
pub struct EaCheckpoint<G> {
    /// Fingerprint of the deterministic configuration fields the checkpoint
    /// was captured under (see [`config_fingerprint`]). Validated on
    /// resume.
    pub config_fingerprint: u64,
    /// Genome length of the run.
    pub genome_len: usize,
    /// Generations completed when the checkpoint was captured (the resumed
    /// run continues from `generation + 1`).
    pub generation: u64,
    /// Consecutive generations without improvement of the best fitness at
    /// capture time (the stagnation counter).
    pub stagnant: u64,
    /// Best fitness seen so far across the whole run.
    pub best_so_far: f64,
    /// The merged per-generation history up to and including `generation`
    /// (index 0 is the initial population).
    pub history: Vec<GenerationStats>,
    /// Per-island state, in island order. Exactly one entry for panmictic
    /// runs.
    pub islands: Vec<IslandCheckpoint<G>>,
}

impl<G> EaCheckpoint<G> {
    /// Serializes the checkpoint, encoding each gene with `encode`. The
    /// closure must append a self-delimiting (in practice: fixed-size)
    /// encoding of the gene; [`EaCheckpoint::from_bytes_with`] with the
    /// matching decoder inverts it exactly.
    pub fn to_bytes_with(&self, mut encode: impl FnMut(&G, &mut Vec<u8>)) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        write_u32(&mut out, CHECKPOINT_FORMAT_VERSION);
        write_u64(&mut out, self.config_fingerprint);
        write_u64(&mut out, self.genome_len as u64);
        write_u64(&mut out, self.generation);
        write_u64(&mut out, self.stagnant);
        write_f64(&mut out, self.best_so_far);
        write_u64(&mut out, self.history.len() as u64);
        for record in &self.history {
            write_u64(&mut out, record.generation);
            write_f64(&mut out, record.best_fitness);
            write_f64(&mut out, record.mean_fitness);
            write_u64(&mut out, record.evaluations);
        }
        write_u64(&mut out, self.islands.len() as u64);
        for island in &self.islands {
            for word in island.rng_state {
                write_u64(&mut out, word);
            }
            write_u64(&mut out, island.evaluations);
            for members in [&island.population, &island.archive] {
                write_u64(&mut out, members.len() as u64);
                for member in members.iter() {
                    write_u64(&mut out, member.genes.len() as u64);
                    for gene in &member.genes {
                        encode(gene, &mut out);
                    }
                    write_f64(&mut out, member.fitness);
                    for component in member.objectives.0 {
                        write_f64(&mut out, component);
                    }
                }
            }
        }
        out
    }

    /// Parses a checkpoint serialized by [`EaCheckpoint::to_bytes_with`],
    /// decoding each gene with `decode`. Rejects foreign bytes
    /// ([`CheckpointError::BadMagic`]), other format versions, truncation,
    /// and structurally impossible values (an all-zero RNG state among
    /// them) — it never panics on malformed input.
    pub fn from_bytes_with(
        bytes: &[u8],
        mut decode: impl FnMut(&mut &[u8]) -> Result<G, CheckpointError>,
    ) -> Result<Self, CheckpointError> {
        let input = &mut &bytes[..];
        if take(input, MAGIC.len())? != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = read_u32(input)?;
        if version != CHECKPOINT_FORMAT_VERSION {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        let config_fingerprint = read_u64(input)?;
        let genome_len = read_len(input, "genome length")?;
        let generation = read_u64(input)?;
        let stagnant = read_u64(input)?;
        let best_so_far = read_f64(input)?;
        let history_len = read_len(input, "history length")?;
        let mut history = Vec::new();
        for _ in 0..history_len {
            history.push(GenerationStats {
                generation: read_u64(input)?,
                best_fitness: read_f64(input)?,
                mean_fitness: read_f64(input)?,
                evaluations: read_u64(input)?,
            });
        }
        let island_count = read_len(input, "island count")?;
        let mut islands = Vec::new();
        for _ in 0..island_count {
            let rng_state = [
                read_u64(input)?,
                read_u64(input)?,
                read_u64(input)?,
                read_u64(input)?,
            ];
            if rng_state == [0; 4] {
                // Zero is the generator's fixed point: every draw would be
                // 0, and a range draw that rejects 0 would never return.
                return Err(CheckpointError::Malformed("all-zero RNG state"));
            }
            let evaluations = read_u64(input)?;
            let mut sections: [Vec<Individual<G>>; 2] = [Vec::new(), Vec::new()];
            for section in sections.iter_mut() {
                let count = read_len(input, "member count")?;
                for _ in 0..count {
                    let gene_count = read_len(input, "gene count")?;
                    if gene_count != genome_len {
                        return Err(CheckpointError::Malformed(
                            "gene count contradicts genome length",
                        ));
                    }
                    let mut genes = Vec::with_capacity(gene_count.min(bytes.len()));
                    for _ in 0..gene_count {
                        genes.push(decode(input)?);
                    }
                    section.push(Individual {
                        genes,
                        fitness: read_f64(input)?,
                        objectives: Objectives([
                            read_f64(input)?,
                            read_f64(input)?,
                            read_f64(input)?,
                        ]),
                    });
                }
            }
            let [population, archive] = sections;
            if population.is_empty() {
                return Err(CheckpointError::Malformed("empty island population"));
            }
            islands.push(IslandCheckpoint {
                rng_state,
                evaluations,
                population,
                archive,
            });
        }
        if islands.is_empty() {
            return Err(CheckpointError::Malformed("checkpoint holds no islands"));
        }
        if !input.is_empty() {
            return Err(CheckpointError::Malformed("trailing bytes"));
        }
        Ok(EaCheckpoint {
            config_fingerprint,
            genome_len,
            generation,
            stagnant,
            best_so_far,
            history,
            islands,
        })
    }
}

/// Fingerprint of the configuration fields a run's trajectory depends on:
/// population sizes, operator probabilities, termination knobs, seed,
/// topology, ranking, Pareto capacity, and the genome length. `threads`
/// and `deadline` are deliberately **excluded** — they never change a
/// trajectory, so a checkpoint may be resumed under a different thread
/// count or deadline; everything fingerprinted must match exactly, or
/// resume fails with [`CheckpointError::ConfigMismatch`].
pub fn config_fingerprint(config: &EaConfig, genome_len: usize) -> u64 {
    let mut h: u64 = 0x45_56_54_43; // "EVTC"
    let mut mix = |v: u64| {
        h ^= v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
    };
    mix(config.population_size as u64);
    mix(config.children_per_generation as u64);
    mix(config.crossover_probability.to_bits());
    mix(config.mutation_probability.to_bits());
    mix(config.inversion_probability.to_bits());
    mix(config.stagnation_limit as u64);
    mix(config.max_evaluations);
    mix(config.max_generations);
    mix(config.seed);
    match config.topology {
        Topology::Panmictic => mix(1),
        Topology::Islands {
            count,
            interval,
            migrants,
        } => {
            mix(2);
            mix(count as u64);
            mix(interval);
            mix(migrants as u64);
        }
    }
    mix(match config.ranking {
        Ranking::Fitness => 1,
        Ranking::Lexicographic => 2,
    });
    mix(config.pareto_capacity as u64);
    mix(genome_len as u64);
    h
}

fn write_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn write_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn write_f64(out: &mut Vec<u8>, v: f64) {
    write_u64(out, v.to_bits());
}

fn take<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8], CheckpointError> {
    if input.len() < n {
        return Err(CheckpointError::Truncated);
    }
    let (head, tail) = input.split_at(n);
    *input = tail;
    Ok(head)
}

fn read_u32(input: &mut &[u8]) -> Result<u32, CheckpointError> {
    Ok(u32::from_le_bytes(take(input, 4)?.try_into().expect("4")))
}

fn read_u64(input: &mut &[u8]) -> Result<u64, CheckpointError> {
    Ok(u64::from_le_bytes(take(input, 8)?.try_into().expect("8")))
}

fn read_f64(input: &mut &[u8]) -> Result<f64, CheckpointError> {
    Ok(f64::from_bits(read_u64(input)?))
}

fn read_len(input: &mut &[u8], what: &'static str) -> Result<usize, CheckpointError> {
    usize::try_from(read_u64(input)?).map_err(|_| CheckpointError::Malformed(what))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn member(genes: Vec<bool>, fitness: f64, objectives: [f64; 3]) -> Individual<bool> {
        Individual {
            genes,
            fitness,
            objectives: Objectives(objectives),
        }
    }

    fn sample() -> EaCheckpoint<bool> {
        EaCheckpoint {
            config_fingerprint: 0xDEAD_BEEF,
            genome_len: 3,
            generation: 42,
            stagnant: 7,
            best_so_far: 2.5,
            history: vec![
                GenerationStats {
                    generation: 0,
                    best_fitness: 1.0,
                    mean_fitness: 0.5,
                    evaluations: 10,
                },
                GenerationStats {
                    generation: 42,
                    best_fitness: 2.5,
                    mean_fitness: 2.0,
                    evaluations: 220,
                },
            ],
            islands: vec![IslandCheckpoint {
                rng_state: [1, 2, 3, u64::MAX],
                evaluations: 220,
                population: vec![
                    member(vec![true, false, true], 2.5, [-2.5, 0.0, 0.0]),
                    member(
                        vec![false, false, true],
                        1.0,
                        [-1.0, f64::NAN, f64::INFINITY],
                    ),
                ],
                archive: vec![member(vec![true, true, true], 3.0, [-3.0, 0.0, 0.0])],
            }],
        }
    }

    /// The one-byte `bool` gene codec.
    fn to_bytes(cp: &EaCheckpoint<bool>) -> Vec<u8> {
        cp.to_bytes_with(|&gene, out| out.push(gene as u8))
    }

    fn from_bytes(bytes: &[u8]) -> Result<EaCheckpoint<bool>, CheckpointError> {
        EaCheckpoint::from_bytes_with(bytes, |input| match take(input, 1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CheckpointError::Malformed("bool gene out of range")),
        })
    }

    #[test]
    fn round_trip_is_exact_including_nonfinite_floats() {
        // `PartialEq` over `f64::NAN` is false, so compare via bytes: two
        // checkpoints are "the same" iff they serialize identically.
        let bytes = to_bytes(&sample());
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(to_bytes(&back), bytes, "re-serialization is byte-identical");
        assert_eq!(back.generation, 42);
        let objectives = back.islands[0].population[1].objectives.0;
        assert_eq!(objectives[2], f64::INFINITY);
        assert!(objectives[1].is_nan());
    }

    #[test]
    fn sample_bytes_are_pinned() {
        // The layout of format version 2: a change here strands every
        // stored checkpoint, so it must come with a version bump.
        let bytes = to_bytes(&sample());
        let fnv = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        assert_eq!((bytes.len(), fnv), (313, 0xc1cc_6b57_0c6a_7824));
    }

    #[test]
    fn rejects_bad_magic_and_versions() {
        let mut bytes = to_bytes(&sample());
        bytes[0] = b'X';
        assert_eq!(from_bytes(&bytes), Err(CheckpointError::BadMagic));
        let mut bytes = to_bytes(&sample());
        bytes[4] = 99;
        assert_eq!(
            from_bytes(&bytes),
            Err(CheckpointError::UnsupportedVersion(99))
        );
        // The retired version 1 is rejected, not misparsed.
        bytes[4] = 1;
        assert_eq!(
            from_bytes(&bytes),
            Err(CheckpointError::UnsupportedVersion(1))
        );
    }

    #[test]
    fn any_truncation_is_detected_not_panicking() {
        let bytes = to_bytes(&sample());
        for n in 0..bytes.len() {
            let err = from_bytes(&bytes[..n]).expect_err("truncated parse must fail");
            assert!(
                matches!(
                    err,
                    CheckpointError::Truncated
                        | CheckpointError::BadMagic
                        | CheckpointError::Malformed(_)
                ),
                "prefix {n}: {err:?}"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = to_bytes(&sample());
        bytes.push(0);
        assert_eq!(
            from_bytes(&bytes),
            Err(CheckpointError::Malformed("trailing bytes"))
        );
    }

    #[test]
    fn bogus_gene_values_are_rejected() {
        let cp = sample();
        // The first gene byte follows the fixed-size header + history +
        // island preamble + member gene count; find it by serializing with
        // a marker codec instead of offset arithmetic.
        let marked = cp.to_bytes_with(|_, out| out.push(7));
        assert!(matches!(
            from_bytes(&marked),
            Err(CheckpointError::Malformed("bool gene out of range"))
        ));
        assert!(from_bytes(&to_bytes(&cp)).is_ok());
    }

    #[test]
    fn an_all_zero_rng_state_is_rejected() {
        let mut cp = sample();
        cp.islands[0].rng_state = [0; 4];
        assert_eq!(
            from_bytes(&to_bytes(&cp)),
            Err(CheckpointError::Malformed("all-zero RNG state"))
        );
        // One nonzero word is a valid state.
        cp.islands[0].rng_state = [0, 0, 0, 1];
        assert!(from_bytes(&to_bytes(&cp)).is_ok());
    }

    #[test]
    fn fingerprint_tracks_deterministic_fields_only() {
        let base = EaConfig::default();
        let fp = config_fingerprint(&base, 10);
        // Every deterministic knob moves the fingerprint…
        let mut seeded = base.clone();
        seeded.seed = 1;
        assert_ne!(config_fingerprint(&seeded, 10), fp);
        let mut island = base.clone();
        island.topology = Topology::Islands {
            count: 2,
            interval: 5,
            migrants: 1,
        };
        assert_ne!(config_fingerprint(&island, 10), fp);
        let mut budget = base.clone();
        budget.max_evaluations = 99;
        assert_ne!(config_fingerprint(&budget, 10), fp);
        assert_ne!(config_fingerprint(&base, 11), fp, "genome length");
        // …while the non-semantic knobs do not.
        let mut threaded = base.clone();
        threaded.threads = 8;
        assert_eq!(config_fingerprint(&threaded, 10), fp);
        let mut with_deadline = base;
        with_deadline.deadline = Some(std::time::Duration::from_secs(1));
        assert_eq!(config_fingerprint(&with_deadline, 10), fp);
    }
}
