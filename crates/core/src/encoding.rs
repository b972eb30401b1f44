//! Encoding input blocks with matching vectors and prefix codes.

use evotc_bits::{BitWriter, BlockHistogram, TestSet, TestSetString};
use evotc_codes::{huffman_code, PrefixCode};

use crate::compressed::CompressedTestSet;
use crate::covering::Covering;
use crate::error::CompressError;
use crate::mvset::MvSet;

/// Computes the compressed size, in bits, of a block histogram under an MV
/// set with Huffman-coded codewords — without materializing the stream.
///
/// This is the EA fitness kernel: `Σ_i F_i · (|C(v⁽ⁱ⁾)| + N_U(v⁽ⁱ⁾))`
/// (paper, Section 2, definition of the encoding length).
///
/// Returns `None` if some block is uncoverable.
pub fn encoded_size(mvs: &MvSet, histogram: &BlockHistogram) -> Option<u64> {
    let covering = Covering::cover(mvs, histogram).ok()?;
    Some(size_of_covering(mvs, &covering))
}

/// Compressed size of an existing covering under Huffman codewords.
pub(crate) fn size_of_covering(mvs: &MvSet, covering: &Covering) -> u64 {
    let code = huffman_code(covering.frequencies());
    size_with_code(mvs, covering.frequencies(), &code)
}

/// Compressed size under an explicit prefix code (e.g. the fixed 9C table).
pub(crate) fn size_with_code(mvs: &MvSet, frequencies: &[u64], code: &PrefixCode) -> u64 {
    frequencies
        .iter()
        .enumerate()
        .map(|(i, &f)| f * (code.codeword(i).len() as u64 + mvs.vector(i).num_unspecified() as u64))
        .sum()
}

/// Encodes a test set with a given MV set and Huffman-assigned codewords,
/// producing a self-contained [`CompressedTestSet`].
///
/// This is steps 2 and 3 of the paper's solution approach (Section 3):
/// covering followed by Huffman encoding of the frequency-of-use data.
///
/// # Errors
///
/// Returns [`CompressError::EmptyTestSet`] for inputs without bits and
/// [`CompressError::Uncoverable`] if some block matches no MV.
///
/// # Example
///
/// ```
/// use evotc_bits::TestSet;
/// use evotc_core::{encode_with_mvs, MvSet};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let set = TestSet::parse(&["11110000", "1111UUUU"])?;
/// let mvs = MvSet::parse(8, &["1111UUUU"])?;
/// let compressed = encode_with_mvs("example", &set, &mvs)?;
/// assert_eq!(compressed.compressed_bits, 2 * (1 + 4)); // 1-bit code + 4 fills
/// # Ok(())
/// # }
/// ```
pub fn encode_with_mvs(
    scheme: &str,
    set: &TestSet,
    mvs: &MvSet,
) -> Result<CompressedTestSet, CompressError> {
    encode_with_optional_code(scheme, set, mvs, None)
}

/// Like [`encode_with_mvs`] but with a caller-supplied prefix code instead
/// of Huffman assignment (used by the fixed-code 9C baseline).
///
/// # Errors
///
/// As for [`encode_with_mvs`].
///
/// # Panics
///
/// Panics if `code` has a different symbol count than `mvs`.
pub fn encode_with_code(
    scheme: &str,
    set: &TestSet,
    mvs: &MvSet,
    code: PrefixCode,
) -> Result<CompressedTestSet, CompressError> {
    assert_eq!(code.len(), mvs.len(), "code/MV table size mismatch");
    encode_with_optional_code(scheme, set, mvs, Some(code))
}

fn encode_with_optional_code(
    scheme: &str,
    set: &TestSet,
    mvs: &MvSet,
    code: Option<PrefixCode>,
) -> Result<CompressedTestSet, CompressError> {
    if set.total_bits() == 0 {
        return Err(CompressError::EmptyTestSet);
    }
    let string = TestSetString::try_new(set, mvs.block_len())?;
    let histogram = BlockHistogram::from_string(&string);
    let covering = Covering::cover(mvs, &histogram)?;
    let code = code.unwrap_or_else(|| huffman_code(covering.frequencies()));

    // Precompute block -> MV assignment for O(1) lookup during emission.
    let lookup: std::collections::HashMap<evotc_bits::InputBlock, usize> = histogram
        .iter()
        .zip(covering.assignments())
        .map(|(&(block, _), &mv)| (block, mv))
        .collect();

    let mut stream = BitWriter::with_capacity(set.total_bits());
    for block in string.iter() {
        let mv_index = lookup[block];
        let mv = mvs.vector(mv_index);
        stream.extend_bits(code.codeword(mv_index).iter());
        stream.extend_bits(mv.fill_bits(block));
    }

    Ok(CompressedTestSet::from_parts(
        scheme.to_string(),
        set.width(),
        set.num_patterns(),
        string.payload_bits(),
        mvs.clone(),
        covering.frequencies().to_vec(),
        code,
        stream,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use evotc_bits::TestSet;

    fn set(rows: &[&str]) -> TestSet {
        TestSet::parse(rows).unwrap()
    }

    #[test]
    fn size_matches_stream_length() {
        let s = set(&["110100XX", "11000000", "1101XXXX", "00001111"]);
        let mvs = MvSet::parse(8, &["110U00UU", "00001111"])
            .unwrap()
            .with_all_u();
        let string = TestSetString::new(&s, 8);
        let hist = BlockHistogram::from_string(&string);
        let predicted = encoded_size(&mvs, &hist).unwrap();
        let compressed = encode_with_mvs("t", &s, &mvs).unwrap();
        assert_eq!(predicted, compressed.compressed_bits as u64);
    }

    #[test]
    fn empty_set_is_an_error() {
        let mvs = MvSet::parse(8, &["UUUUUUUU"]).unwrap();
        // Zero-width patterns would encode to an empty stream under an
        // empty codeword, which no decode tree can read back.
        for s in [TestSet::new(8), TestSet::parse(&["", ""]).unwrap()] {
            assert!(matches!(
                encode_with_mvs("t", &s, &mvs),
                Err(CompressError::EmptyTestSet)
            ));
        }
    }

    #[test]
    fn uncoverable_propagates() {
        let s = set(&["1111"]);
        let mvs = MvSet::parse(4, &["0000"]).unwrap();
        assert!(matches!(
            encode_with_mvs("t", &s, &mvs),
            Err(CompressError::Uncoverable { .. })
        ));
    }

    #[test]
    fn single_mv_single_bit_codewords() {
        // One MV used for everything: codeword clamps to 1 bit, plus fills.
        let s = set(&["10101010", "01010101"]);
        let mvs = MvSet::parse(8, &["UUUUUUUU"]).unwrap();
        let c = encode_with_mvs("t", &s, &mvs).unwrap();
        assert_eq!(c.compressed_bits, 2 * (1 + 8));
        // All-U encoding cannot compress: rate is negative.
        assert!(c.rate_percent() < 0.0);
    }

    #[test]
    fn fully_specified_mvs_compress_hard() {
        // Two distinct patterns, two exact MVs: 1 bit per 8-bit block.
        let s = set(&["11110000", "00001111", "11110000", "11110000"]);
        let mvs = MvSet::parse(8, &["11110000", "00001111"]).unwrap();
        let c = encode_with_mvs("t", &s, &mvs).unwrap();
        assert_eq!(c.compressed_bits, 4);
        assert!((c.rate_percent() - 87.5).abs() < 1e-9);
    }

    #[test]
    fn explicit_code_is_respected() {
        let s = set(&["11110000"]);
        let mvs = MvSet::parse(8, &["11110000", "UUUUUUUU"]).unwrap();
        let code = evotc_codes::PrefixCode::from_strs(&["10", "0"]).unwrap();
        let c = encode_with_code("t", &s, &mvs, code).unwrap();
        assert_eq!(c.compressed_bits, 2); // "10", no fills
    }
}
