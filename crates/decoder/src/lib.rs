//! On-chip decompressor models.
//!
//! Code-based compression needs a small on-chip decoder that turns the
//! serial codeword stream back into test data (paper, Section 1). This
//! crate models that hardware:
//!
//! * [`DecoderFsm`] — a cycle-accurate finite-state machine built from a
//!   compressed set's prefix code and MV table: one bit in per cycle,
//!   decompressed test bits out.
//! * [`HardwareCost`] — a state/storage/gate-count estimate, making the
//!   paper's "compact on-chip decoders" claim measurable.
//! * [`ReconfigurableDecoder`] — the conclusion's suggestion: a decoder
//!   whose codeword/MV tables are loaded at run time, so a test-set change
//!   needs no decoder redesign.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cost;
mod fsm;
mod reconfig;

pub use cost::HardwareCost;
pub use fsm::DecoderFsm;
pub use reconfig::{LoadError, ReconfigurableDecoder};
