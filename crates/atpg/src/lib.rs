//! Automatic test pattern generation with don't-care extraction.
//!
//! The paper's experiments run on *uncompacted test sets with don't-cares*:
//! stuck-at sets in the style of Kajihara/Miyase (reference \[30\]) and robust
//! path-delay sets in the style of TIP (references [31, 32]). This crate
//! rebuilds that flow:
//!
//! * [`Podem`] — the classic PODEM algorithm over a five-valued D-calculus
//!   ([`dcalc`]), producing one test *cube* per fault: assigned inputs carry
//!   `0`/`1`, all other inputs stay `X`. Those `X`s are exactly the
//!   don't-cares the compression pipeline exploits. The search skips
//!   faults with no structural path to an output and backtracks as soon as
//!   no X-path leads from the fault site to an output; implication is
//!   event-driven. Neither changes a cube the search would find without
//!   the checks, but a fault that search aborts may now resolve (see
//!   [`PodemResult::Aborted`]).
//! * [`generate_stuck_at_tests`] — test-set generation over the collapsed
//!   fault list with word-parallel fault dropping (64 faults per
//!   simulation sweep).
//! * [`generate_path_delay_tests`] — robust two-pattern tests for structural
//!   paths; each test is the 2n-bit concatenation `v₁ · v₂`, matching the
//!   shape of the paper's path-delay test sets.
//!
//! Both generators spread their work over `threads` threads (the `threads`
//! field of their configs, `0` = auto) and commit results in the order a
//! single thread would, so their output is byte-identical at every thread
//! count.
//!
//! # Example
//!
//! ```
//! use evotc_netlist::{iscas, parse_bench};
//! use evotc_atpg::generate_stuck_at_tests;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let c17 = parse_bench(iscas::C17_BENCH)?;
//! let outcome = generate_stuck_at_tests(&c17, &Default::default());
//! assert!(outcome.fault_coverage() > 0.99); // c17 is fully testable
//! assert!(outcome.tests.x_density() > 0.0); // don't-cares extracted
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dcalc;
mod fan_out;
mod implication;
mod justify;
mod path_delay;
mod podem;
mod stuck_at;

pub use justify::justify;
pub use path_delay::{generate_path_delay_tests, PathDelayConfig, PathDelayOutcome};
pub use podem::{Podem, PodemConfig, PodemResult};
pub use stuck_at::{generate_stuck_at_tests, StuckAtConfig, StuckAtOutcome};
