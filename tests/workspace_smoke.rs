//! Pins the facade's public API surface: every `evotc::*` re-export that the
//! README quickstart, the examples and downstream users rely on must keep
//! resolving, and the core compress/decompress contract must keep holding.
//!
//! If a refactor renames or moves any of these items, this test is the CI
//! signal that the facade (and with it the documented API) broke.

use evotc::bits::{BlockHistogram, TestSet, TestSetString, Trit};
use evotc::codes::huffman_code;
use evotc::core::{EaCompressor, NineCCompressor, NineCHuffmanCompressor, TestCompressor};
use evotc::decoder::DecoderFsm;
use evotc::evo::{parallel, EaBuilder, EaConfig, FitnessEval};
use evotc::netlist::{iscas, parse_bench};

fn small_set() -> TestSet {
    TestSet::parse(&[
        "110X10XX", "1101XXXX", "000011XX", "0000XXXX", "110100XX", "11010000",
    ])
    .expect("valid tri-state patterns")
}

#[test]
fn facade_ninec_vs_ea_round_trip() {
    let set = small_set();
    let ninec = NineCCompressor::new(8)
        .compress(&set)
        .expect("9C compresses any even-K set");
    let ea = EaCompressor::builder(8, 4)
        .seed(7)
        .build()
        .compress(&set)
        .expect("EA compresses any set");

    // The EA searches a superset of the 9C code space, so it never loses.
    assert!(ea.compressed_bits <= ninec.compressed_bits);

    for compressed in [&ninec, &ea] {
        assert!(compressed.original_bits >= compressed.compressed_bits);
        let restored = compressed.decompress().expect("stream decodes");
        assert!(set.is_refined_by(&restored), "lost specified bits");
        let expected_rate = 100.0
            * (compressed.original_bits as f64 - compressed.compressed_bits as f64)
            / compressed.original_bits as f64;
        assert!((compressed.rate_percent() - expected_rate).abs() < 1e-9);
    }
}

#[test]
fn facade_huffman_baseline_and_decoder_resolve() {
    let set = small_set();
    let huff = NineCHuffmanCompressor::new(8)
        .compress(&set)
        .expect("9C+HC compresses any even-K set");
    // The cycle-accurate decoder model must accept the Huffman stream.
    DecoderFsm::verify_against_reference(&huff);

    // The coding substrate is re-exported and usable directly.
    let code = huffman_code(&[5, 3, 1, 1]);
    let lens: Vec<usize> = (0..4).map(|i| code.codeword(i).len()).collect();
    assert!(
        lens[0] <= lens[2],
        "a higher-frequency symbol must get a shorter-or-equal codeword"
    );
}

#[test]
fn facade_bits_substrate_resolves() {
    let set = small_set();
    assert_eq!(set.width(), 8);
    assert_eq!(set.num_patterns(), 6);
    assert!(set.x_density() > 0.0);
    assert!(Trit::X.matches(Trit::One));

    let string = TestSetString::new(&set, 4);
    let hist = BlockHistogram::from_string(&string);
    assert_eq!(
        hist.total_count(),
        (set.width() * set.num_patterns() / 4) as u64
    );
}

#[test]
fn facade_evo_engine_resolves() {
    let config = EaConfig::builder()
        .population_size(8)
        .children_per_generation(4)
        .stagnation_limit(30)
        .seed(5)
        .build();
    let result = EaBuilder::new(16, rand::Rng::gen::<bool>, |genes: &[bool]| {
        genes.iter().filter(|&&g| g).count() as f64
    })
    .config(config)
    .run();
    assert!(result.best_fitness >= 12.0, "one-max barely optimized");
    assert!(result.evaluations_per_sec() >= 0.0);
}

#[test]
fn facade_parallel_evaluator_resolves() {
    // The batched fitness API: closures implement FitnessEval, and the EA
    // compressor's threads knob is reachable through the facade.
    let one_max = |genes: &[bool]| genes.iter().filter(|&&g| g).count() as f64;
    assert_eq!(one_max.evaluate(&[true, false]), 1.0);
    assert!(parallel::resolve_threads(0) >= 1);

    let threaded = EaCompressor::builder(8, 4)
        .seed(7)
        .threads(2)
        .build()
        .compress(&small_set())
        .expect("threaded EA compresses");
    let serial = EaCompressor::builder(8, 4)
        .seed(7)
        .threads(1)
        .build()
        .compress(&small_set())
        .expect("serial EA compresses");
    assert_eq!(threaded.compressed_bits, serial.compressed_bits);
}

#[test]
fn facade_netlist_and_atpg_resolve() {
    let circuit = parse_bench(iscas::C17_BENCH).expect("bundled ISCAS netlist parses");
    let outcome =
        evotc::atpg::generate_stuck_at_tests(&circuit, &evotc::atpg::StuckAtConfig::default());
    assert!(outcome.fault_coverage() > 0.99, "c17 is fully testable");
    assert!(outcome.tests.num_patterns() > 0);

    // ATPG output feeds compression end to end.
    let compressed = NineCCompressor::new(2)
        .compress(&outcome.tests)
        .expect("ATPG set compresses");
    assert!(compressed.decompress().is_ok());
}

#[test]
fn facade_workloads_resolve() {
    let spec = evotc::workloads::synth::SyntheticSpec::new(16, 512, 3);
    let set = evotc::workloads::synth::generate(&spec);
    assert_eq!(set.width(), 16);
    assert_eq!(set.num_patterns(), 32);
}
