//! Compression errors.

use std::fmt;

use evotc_bits::{BlockLenError, InputBlock};

/// Error raised by a [`crate::TestCompressor`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompressError {
    /// The test set holds no bits: no patterns, or only zero-width ones.
    EmptyTestSet,
    /// The block length `K` is unsupported.
    BlockLen(BlockLenError),
    /// An input block is matched by none of the MVs — encoding is impossible
    /// with this MV set (paper, Section 3). Ruled out by including the all-U
    /// vector.
    Uncoverable {
        /// The first block no MV matched.
        block: InputBlock,
    },
    /// The compressed payload failed to decode (corrupt stream or wrong
    /// metadata); produced only by decompression.
    CorruptStream {
        /// Bit offset at which decoding failed.
        bit_offset: usize,
    },
}

impl fmt::Display for CompressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompressError::EmptyTestSet => {
                write!(
                    f,
                    "test set holds no bits: no patterns or only zero-width ones"
                )
            }
            CompressError::BlockLen(e) => e.fmt(f),
            CompressError::Uncoverable { block } => {
                write!(f, "input block {block} is matched by no matching vector")
            }
            CompressError::CorruptStream { bit_offset } => {
                write!(f, "compressed stream failed to decode at bit {bit_offset}")
            }
        }
    }
}

impl std::error::Error for CompressError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CompressError::BlockLen(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BlockLenError> for CompressError {
    fn from(e: BlockLenError) -> Self {
        CompressError::BlockLen(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let b: InputBlock = "1X0".parse().unwrap();
        let e = CompressError::Uncoverable { block: b };
        assert!(e.to_string().contains("1X0"));
        assert!(CompressError::EmptyTestSet
            .to_string()
            .contains("no patterns"));
        let e = CompressError::CorruptStream { bit_offset: 17 };
        assert!(e.to_string().contains("17"));
    }

    #[test]
    fn from_block_len() {
        let e: CompressError = BlockLenError { requested: 99 }.into();
        assert!(matches!(e, CompressError::BlockLen(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
