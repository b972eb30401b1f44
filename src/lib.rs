//! # evotc — Evolutionary Optimization in Code-Based Test Compression
//!
//! A full reproduction of Polian, Czutro, Becker, *Evolutionary Optimization
//! in Code-Based Test Compression* (DATE 2005), including every substrate
//! the paper depends on: the tri-state test-data model, Huffman/prefix
//! coding, a GAME-style evolutionary-algorithm engine, the 9C baseline, an
//! ISCAS netlist/simulation/ATPG stack for producing uncompacted test sets
//! with don't-cares, on-chip decoder models, and the calibrated workloads
//! used to regenerate the paper's tables.
//!
//! This crate is a facade: it re-exports the workspace crates under stable
//! module names so applications can depend on a single crate.
//!
//! ```
//! use evotc::bits::TestSet;
//! use evotc::core::{EaCompressor, NineCCompressor, TestCompressor};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let set = TestSet::parse(&["110X10XX", "1101XXXX", "000011XX", "0000XXXX"])?;
//! let ninec = NineCCompressor::new(8).compress(&set)?;
//! let ea = EaCompressor::builder(8, 4).seed(7).build().compress(&set)?;
//! assert!(ea.compressed_bits <= ninec.compressed_bits);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

/// Tri-state test data model: patterns, test sets, input blocks, bit streams.
pub use evotc_bits as bits;

/// Prefix/Huffman coding and classic baseline coders.
pub use evotc_codes as codes;

/// Generic evolutionary-algorithm engine (GAME-style).
pub use evotc_evo as evo;

/// Gate-level netlists, `.bench` parsing, circuit generation.
pub use evotc_netlist as netlist;

/// Logic and fault simulation.
pub use evotc_sim as sim;

/// PODEM ATPG with don't-care extraction and path-delay generation.
pub use evotc_atpg as atpg;

/// The paper's contribution: matching-vector compression with EA search.
pub use evotc_core as core;

/// On-chip decoder models and hardware-cost estimation.
pub use evotc_decoder as decoder;

/// ISCAS workload metadata, ground-truth tables, calibrated generators.
pub use evotc_workloads as workloads;

/// Multi-tenant compression-as-a-service job runtime: bounded FIFO job
/// queue with admission control, worker pool, retry/backoff, circuit
/// breakers, overload shedding, cross-run result cache.
pub use evotc_service as service;
