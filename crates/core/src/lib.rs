//! Code-based test compression with evolutionary matching-vector
//! optimization.
//!
//! This crate implements the primary contribution of Polian, Czutro, Becker,
//! *Evolutionary Optimization in Code-Based Test Compression* (DATE 2005):
//! fixed-length input-block compression where the `L` *matching vectors*
//! (MVs) may carry `0`, `1` and `U` (unspecified) values at **arbitrary**
//! positions, and the MV set is found by an evolutionary algorithm.
//!
//! The pipeline mirrors the paper's Section 3:
//!
//! 1. **Matching-vector determination** — [`EaCompressor`] encodes a set of
//!    `L` MVs of length `K` as a genome over `{0,1,U}` and maximizes the
//!    compression rate with the engine from [`evotc_evo`].
//! 2. **Covering** — [`Covering`] assigns each input block the first
//!    matching MV in order of increasing number of `U`s and counts
//!    frequencies of use.
//! 3. **Encoding** — [`encode_with_mvs`] allocates Huffman codewords to the
//!    used MVs and emits `C(v) · fill-bits` per block.
//!
//! The 9C baseline of Tehranipour/Nourani/Chakrabarty (DATE 2004) — the
//! special case `L = 9` with a fixed MV set and fixed codewords — is
//! provided by [`NineCCompressor`], with Huffman-coded codewords in
//! [`NineCHuffmanCompressor`]. The subsumption-aware improvement sketched in
//! the paper's Section 3.3 example is implemented in [`subsume`], and the
//! "multiple scan chain environment" extension from the conclusions in
//! [`multiscan`].
//!
//! # Example
//!
//! ```
//! use evotc_bits::TestSet;
//! use evotc_core::{EaCompressor, NineCCompressor, TestCompressor};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let set = TestSet::parse(&[
//!     "110100XX", "110000XX", "11010000", "110X00XX",
//! ])?;
//! let baseline = NineCCompressor::new(8).compress(&set)?;
//! let ea = EaCompressor::builder(8, 4).seed(1).build().compress(&set)?;
//! assert!(ea.compressed_bits <= baseline.compressed_bits);
//! // Decompression reproduces every specified bit.
//! let restored = ea.decompress()?;
//! assert!(set.is_refined_by(&restored));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compressed;
mod covering;
mod ea_opt;
mod encoding;
mod error;
mod hash;
mod incremental;
mod kernel;
pub mod multiscan;
mod mv;
mod mvset;
mod ninec;
pub mod subsume;

pub use compressed::CompressedTestSet;
pub use covering::Covering;
pub use ea_opt::{
    trit_checkpoint_from_bytes, trit_checkpoint_to_bytes, EaCompressor, EaCompressorBuilder,
    EaRunSummary, MvFitness, MvFitnessState, WeightError,
};
pub use encoding::{encode_with_code, encode_with_mvs, encoded_size};
pub use error::CompressError;
pub use hash::{content_hash, test_set_content_hash};
pub use incremental::{
    encoded_size_keep, encoded_size_probe, encoded_size_probe_with, encoded_size_rebuild,
    encoded_size_rebuild_with, EvalCache, IncrementalOutcome, PatchScratch,
};
pub use kernel::{encoded_size_bounded, encoded_size_scratch, BoundedSize, EvalScratch};
pub use mv::{MatchingVector, ParseMvError};
pub use mvset::{covering_key, MvSet};
pub use ninec::{ninec_codewords, ninec_matching_vectors, NineCCompressor, NineCHuffmanCompressor};

use evotc_bits::TestSet;

/// A code-based test compressor: maps a test set to a self-contained
/// [`CompressedTestSet`].
///
/// Implementations never reorder the test set or add vectors to it — the
/// defining property of code-based schemes (paper, Section 1).
pub trait TestCompressor {
    /// Human-readable scheme name (used in experiment tables).
    fn name(&self) -> String;

    /// Compresses a test set.
    ///
    /// # Errors
    ///
    /// Returns [`CompressError`] if the test set is empty, the block length
    /// is unsupported, or some input block cannot be covered by any MV.
    fn compress(&self, set: &TestSet) -> Result<CompressedTestSet, CompressError>;
}
