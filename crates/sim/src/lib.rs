//! Logic and fault simulation over `evotc-netlist` circuits.
//!
//! Substrate for reproducing the paper's test-set generation flow:
//!
//! * [`simulate`] — three-valued (`0`/`1`/`X`) full-circuit simulation, the
//!   engine behind PODEM implication in `evotc-atpg`.
//! * [`simulate64`] — 64-way bit-parallel two-valued simulation for fast
//!   fault grading.
//! * [`StuckAtFault`], [`all_faults`], [`collapse_faults`] — the single
//!   stuck-at fault model with structural equivalence collapsing.
//! * [`detected_mask`] — bit-parallel stuck-at fault simulation (which of 64
//!   patterns detect a fault).
//! * [`detected_faults`] — word-parallel stuck-at fault simulation (which of
//!   any number of faults one pattern detects, 64 faults per sweep), used
//!   for fault dropping during ATPG.
//! * [`delay`] — structural paths and the robust path-delay sensitization
//!   check used by the two-pattern test generator.
//!
//! # Example
//!
//! ```
//! use evotc_bits::TestPattern;
//! use evotc_netlist::{iscas, parse_bench};
//! use evotc_sim::simulate;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let c17 = parse_bench(iscas::C17_BENCH)?;
//! let pattern: TestPattern = "10110".parse()?;
//! let values = simulate(&c17, &pattern);
//! let out = c17.outputs()[0];
//! assert!(values[out.index()].is_specified());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod delay;
mod eval;
mod fault;
mod logic;
mod parallel;

pub use eval::{simulate, simulate_with_forced};
pub use fault::{all_faults, collapse_faults, StuckAtFault};
pub use logic::eval_gate;
pub use parallel::{detected_faults, detected_mask, simulate64};
