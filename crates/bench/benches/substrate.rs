//! Criterion benchmarks of the substrates: Huffman coding, bit-parallel
//! fault simulation and the decoder FSM. PODEM is timed end to end by the
//! `pipeline` bin.

use criterion::{criterion_group, criterion_main, Criterion};
use evotc_codes::huffman_code;
use evotc_core::{NineCHuffmanCompressor, TestCompressor};
use evotc_decoder::DecoderFsm;
use evotc_netlist::{generate, GeneratorConfig};
use evotc_sim::{all_faults, detected_mask, simulate64};

fn bench_huffman(c: &mut Criterion) {
    let freqs: Vec<u64> = (1..=64).map(|i| i * i).collect();
    c.bench_function("huffman_64_symbols", |b| b.iter(|| huffman_code(&freqs)));
}

fn bench_fault_sim(c: &mut Criterion) {
    let n = generate(&GeneratorConfig {
        inputs: 32,
        outputs: 16,
        gates: 500,
        seed: 2,
    });
    let inputs: Vec<u64> = (0..32)
        .map(|j| 0x9E37_79B9_7F4A_7C15u64.rotate_left(j))
        .collect();
    c.bench_function("simulate64_500_gates", |b| {
        b.iter(|| simulate64(&n, &inputs))
    });
    let fault = all_faults(&n)[100];
    c.bench_function("fault_sim_500_gates", |b| {
        b.iter(|| detected_mask(&n, fault, &inputs))
    });
}

fn bench_decoder(c: &mut Criterion) {
    let set = evotc_workloads::synth::generate(&evotc_workloads::synth::SyntheticSpec {
        width: 24,
        total_bits: 24 * 200,
        specified_density: 0.4,
        one_bias: 0.35,
        seed: 9,
    });
    let compressed = NineCHuffmanCompressor::new(8).compress(&set).unwrap();
    c.bench_function("decoder_fsm_stream", |b| {
        b.iter(|| {
            let mut fsm = DecoderFsm::for_compressed(&compressed);
            let mut blocks = 0u64;
            for bit in compressed.stream() {
                if fsm.clock(bit).is_some() {
                    blocks += 1;
                }
            }
            blocks
        })
    });
}

criterion_group!(benches, bench_huffman, bench_fault_sim, bench_decoder);
criterion_main!(benches);
