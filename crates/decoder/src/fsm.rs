//! The decoder finite-state machine.

use evotc_bits::InputBlock;
use evotc_codes::{DecodeTree, Step};
use evotc_core::{CompressedTestSet, MvSet};

/// A cycle-accurate model of the on-chip decoder: each call to
/// [`DecoderFsm::clock`] consumes one compressed bit and may emit a fully
/// specified input block (`K` test bits ready to shift into the scan chain).
///
/// The machine has two phases, exactly like the hardware it models:
/// walking the prefix-code tree (one state per internal tree node) and
/// shifting fill bits into the `U` positions of the recognized matching
/// vector (a counter + the MV's position mask).
///
/// # Example
///
/// ```
/// use evotc_bits::TestSet;
/// use evotc_core::{NineCCompressor, TestCompressor};
/// use evotc_decoder::DecoderFsm;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let set = TestSet::parse(&["111100", "000000"])?;
/// let compressed = NineCCompressor::new(6).compress(&set)?;
/// let mut fsm = DecoderFsm::new(compressed.mv_set().clone(), compressed.code().clone());
/// let mut blocks = Vec::new();
/// for bit in compressed.stream() {
///     if let Some(block) = fsm.clock(bit) {
///         blocks.push(block);
///     }
/// }
/// assert_eq!(blocks.len(), 2);
/// assert_eq!(blocks[0].to_string(), "111100");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DecoderFsm {
    mvs: MvSet,
    tree: DecodeTree,
    walk_state: WalkState,
    cycles: u64,
    blocks_emitted: u64,
}

#[derive(Debug, Clone)]
enum WalkState {
    /// Walking the prefix-code tree, at this node of it.
    Code(usize),
    /// Shifting fill bits for MV `mv`, `received` of `needed` collected.
    Fill {
        mv: usize,
        fill: Vec<bool>,
        needed: usize,
    },
}

impl DecoderFsm {
    /// Builds the decoder for a code/MV table pair.
    ///
    /// # Panics
    ///
    /// Panics if `code` and `mvs` have different symbol counts.
    pub fn new(mvs: MvSet, code: evotc_codes::PrefixCode) -> Self {
        assert_eq!(code.len(), mvs.len(), "code/MV table size mismatch");
        DecoderFsm {
            tree: code.decode_tree(),
            mvs,
            walk_state: WalkState::Code(0),
            cycles: 0,
            blocks_emitted: 0,
        }
    }

    /// Convenience constructor from a compressed test set.
    pub fn for_compressed(compressed: &CompressedTestSet) -> Self {
        DecoderFsm::new(compressed.mv_set().clone(), compressed.code().clone())
    }

    /// Feeds one compressed bit; returns a decompressed block when one
    /// completes this cycle.
    ///
    /// # Panics
    ///
    /// Panics if the bit sequence is not a valid codeword stream (hardware
    /// would shift garbage; the model fails loudly instead).
    pub fn clock(&mut self, bit: bool) -> Option<InputBlock> {
        self.cycles += 1;
        match &mut self.walk_state {
            WalkState::Code(at) => match self.tree.step(at, bit) {
                Step::Pending => None,
                Step::Invalid => panic!("invalid codeword prefix reached the decoder"),
                Step::Symbol(mv) => {
                    let needed = self.mvs.vector(mv).num_unspecified();
                    if needed == 0 {
                        self.blocks_emitted += 1;
                        Some(self.mvs.vector(mv).expand(&[]))
                    } else {
                        self.walk_state = WalkState::Fill {
                            mv,
                            fill: Vec::with_capacity(needed),
                            needed,
                        };
                        None
                    }
                }
            },
            WalkState::Fill { mv, fill, needed } => {
                fill.push(bit);
                if fill.len() == *needed {
                    let block = self.mvs.vector(*mv).expand(fill);
                    self.walk_state = WalkState::Code(0);
                    self.blocks_emitted += 1;
                    Some(block)
                } else {
                    None
                }
            }
        }
    }

    /// Cycles elapsed (bits consumed).
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Blocks emitted so far.
    pub fn blocks_emitted(&self) -> u64 {
        self.blocks_emitted
    }

    /// The MV table driving the fill phase.
    pub fn mv_set(&self) -> &MvSet {
        &self.mvs
    }

    /// The decode tree driving the code phase.
    pub fn decode_tree(&self) -> &DecodeTree {
        &self.tree
    }

    /// Decompresses a whole compressed set through the FSM and checks the
    /// result bit-for-bit against the reference software decoder — the
    /// model-equivalence check used by the integration tests.
    ///
    /// # Panics
    ///
    /// Panics on any divergence.
    pub fn verify_against_reference(compressed: &CompressedTestSet) {
        let mut fsm = DecoderFsm::for_compressed(compressed);
        let mut blocks = Vec::new();
        for bit in compressed.stream() {
            if let Some(b) = fsm.clock(bit) {
                blocks.push(b);
            }
        }
        let reference = compressed.decompress().expect("reference decode succeeds");
        let k = compressed.mv_set().block_len();
        let rebuilt = evotc_bits::TestSetString::reassemble(
            &blocks,
            k,
            compressed.width,
            compressed.original_bits,
        );
        assert_eq!(rebuilt, reference, "FSM diverged from reference decoder");
        assert_eq!(fsm.cycles(), compressed.compressed_bits as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evotc_bits::TestSet;
    use evotc_core::{EaCompressor, NineCCompressor, NineCHuffmanCompressor, TestCompressor};

    fn sample_set() -> TestSet {
        TestSet::parse(&["110100XX", "11000000", "1101XXXX", "00001111", "11110000"]).unwrap()
    }

    #[test]
    fn fsm_matches_reference_for_all_compressors() {
        let set = sample_set();
        let compressors: Vec<Box<dyn TestCompressor>> = vec![
            Box::new(NineCCompressor::new(8)),
            Box::new(NineCHuffmanCompressor::new(8)),
            Box::new(
                EaCompressor::builder(8, 4)
                    .seed(2)
                    .stagnation_limit(40)
                    .build(),
            ),
        ];
        for c in compressors {
            let compressed = c.compress(&set).unwrap();
            DecoderFsm::verify_against_reference(&compressed);
        }
    }

    #[test]
    fn one_bit_per_cycle() {
        let set = sample_set();
        let compressed = NineCCompressor::new(8).compress(&set).unwrap();
        let mut fsm = DecoderFsm::for_compressed(&compressed);
        for bit in compressed.stream() {
            let _ = fsm.clock(bit);
        }
        assert_eq!(fsm.cycles(), compressed.compressed_bits as u64);
        assert_eq!(fsm.blocks_emitted(), compressed.num_blocks() as u64);
    }

    #[test]
    fn emitted_blocks_are_fully_specified() {
        let set = sample_set();
        let compressed = NineCHuffmanCompressor::new(8).compress(&set).unwrap();
        let mut fsm = DecoderFsm::for_compressed(&compressed);
        for bit in compressed.stream() {
            if let Some(block) = fsm.clock(bit) {
                assert_eq!(block.num_x(), 0, "decoder must emit specified bits");
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid codeword")]
    fn garbage_stream_fails_loudly() {
        // An incomplete code: only "00" and "01" are codewords; feeding '1'
        // first drives the walk into a dead branch.
        let mvs = evotc_core::MvSet::parse(4, &["1111", "0000"]).unwrap();
        let code = evotc_codes::PrefixCode::from_strs(&["00", "01"]).unwrap();
        let mut fsm = DecoderFsm::new(mvs, code);
        let _ = fsm.clock(true);
        let _ = fsm.clock(true);
    }
}
