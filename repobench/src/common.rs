//! Pieces every workload shares: the run report, output checks, digests,
//! seed mixing and peak memory.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use evotc_bits::{TestSet, TestSetString};
use evotc_core::{CompressedTestSet, EaCompressor};
use evotc_decoder::DecoderFsm;
use evotc_evo::CacheStats;

use crate::trace::Tracer;

/// What one workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// An outcome whose checks have all passed so far.
    pub fn new() -> Self {
        Outcome {
            correct: true,
            ..Outcome::default()
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records a failed check: the run's outputs are not correct.
    pub fn wrong(&mut self, what: String) {
        self.correct = false;
        self.notes.push(format!("CHECK FAILED: {what}"));
    }
}

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Runs `setup` `times` times and returns the last result with the median
/// set-up time in seconds.
pub fn timed_setup<T>(times: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        let started = Instant::now();
        last = Some(std::hint::black_box(setup()));
        secs.push(started.elapsed().as_secs_f64());
    }
    let median = crate::stats::median(&secs).expect("at least one set-up ran");
    (last.expect("at least one set-up ran"), median)
}

/// splitmix64: derives independent sub-seeds from the workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over 64-bit words: the output digest two commits compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn test_set(&mut self, set: &TestSet) {
        self.word(set.width() as u64);
        self.word(set.num_patterns() as u64);
        for pattern in set.iter() {
            for trit in pattern.iter() {
                self.word(u64::from(trit.index()));
            }
        }
    }

    pub fn compressed(&mut self, compressed: &CompressedTestSet) {
        self.word(compressed.original_bits as u64);
        self.word(compressed.compressed_bits as u64);
        for &count in compressed.frequencies() {
            self.word(count);
        }
        let mut packed = 0u64;
        for (i, bit) in compressed.stream().enumerate() {
            packed |= u64::from(bit) << (i % 64);
            if i % 64 == 63 {
                self.word(packed);
                packed = 0;
            }
        }
        self.word(packed);
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Decompresses `compressed`, checks the result refines `set`, then clocks
/// the stream through the decoder FSM and checks it rebuilds the same set
/// in exactly `compressed_bits` cycles. Returns the cycle count. A panic
/// anywhere in the check is caught and reported as a failure.
pub fn verify(
    set: &TestSet,
    compressed: &CompressedTestSet,
    tracer: &mut Tracer,
    request: u64,
) -> Result<u64, String> {
    let checked = catch_unwind(AssertUnwindSafe(|| {
        let open = tracer.enter("core.decompress", request);
        let restored = compressed.decompress();
        tracer.exit(open);
        let restored = restored.map_err(|e| format!("decompress: {e}"))?;
        if !set.is_refined_by(&restored) {
            return Err("decompressed set does not refine its input".to_string());
        }
        let open = tracer.enter("decoder.verify", request);
        let mut fsm = DecoderFsm::for_compressed(compressed);
        let mut blocks = Vec::with_capacity(compressed.num_blocks());
        for bit in compressed.stream() {
            if let Some(block) = fsm.clock(bit) {
                blocks.push(block);
            }
        }
        let rebuilt = TestSetString::reassemble(
            &blocks,
            compressed.mv_set().block_len(),
            compressed.width,
            compressed.original_bits,
        );
        tracer.exit(open);
        if rebuilt != restored {
            return Err("decoder FSM output differs from the software decoder".to_string());
        }
        if fsm.cycles() != compressed.compressed_bits as u64 {
            return Err(format!(
                "decoder took {} cycles for {} compressed bits",
                fsm.cycles(),
                compressed.compressed_bits
            ));
        }
        Ok(fsm.cycles())
    }));
    checked.unwrap_or_else(|panic| {
        let message = panic
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic".to_string());
        Err(format!("verify panicked: {message}"))
    })
}

/// Layer counters of one traced compression, from the program's own run
/// summary.
#[derive(Debug, Clone, Default)]
pub struct EaCounters {
    pub evaluations: u64,
    pub generations: u64,
    pub ea_ns: u64,
    pub cache: CacheStats,
}

/// One compression through `compress_with_summary`, the call `compress`
/// itself makes. Traced, a `core.compress` span wraps the call and the EA
/// time from its summary is recorded inside it as an `evo.run` span; the
/// rest of `core.compress` is histogram and encode, which
/// [`crate::flow`] splits after the pass.
pub fn compress(
    compressor: &EaCompressor,
    set: &TestSet,
    tracer: &mut Tracer,
    request: u64,
) -> Result<(CompressedTestSet, EaCounters), String> {
    let open = tracer.enter("core.compress", request);
    let result = compressor.compress_with_summary(set);
    let ended = Instant::now();
    let (compressed, summary) = result.map_err(|e| e.to_string())?;
    // The summary gives the EA's length, not its place inside the call;
    // it is placed at the end, which leaves every self time unchanged.
    tracer.record(
        "evo.run",
        request,
        ended.checked_sub(summary.elapsed).unwrap_or(ended),
        ended,
    );
    tracer.exit(open);
    let counters = EaCounters {
        evaluations: summary.evaluations,
        generations: summary.generations,
        ea_ns: summary.elapsed.as_nanos() as u64,
        cache: summary.cache.unwrap_or_default(),
    };
    Ok((compressed, counters))
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

pub fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_separates_salts_and_seeds() {
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_ne!(mix(1, 0), mix(2, 0));
        assert_eq!(mix(7, 3), mix(7, 3));
    }

    #[test]
    fn verify_accepts_a_real_compression_and_catches_a_bad_pairing() {
        let set = TestSet::parse(&["110100XX", "110000XX", "11010000", "0000XXXX"]).unwrap();
        let compressor = EaCompressor::builder(4, 4)
            .seed(1)
            .stagnation_limit(20)
            .build();
        let mut tracer = Tracer::new(true);
        let (compressed, counters) = compress(&compressor, &set, &mut tracer, 0).unwrap();
        assert!(counters.evaluations > 0);
        let cycles = verify(&set, &compressed, &mut tracer, 0).unwrap();
        assert_eq!(cycles, compressed.compressed_bits as u64);
        let spans = tracer.spans();
        assert_eq!(spans[0].name, "core.compress");
        assert_eq!(spans[1].name, "evo.run");
        assert_eq!(spans[1].parent, Some(0));
        // The traced call gives the same bytes as the public one.
        let plain = evotc_core::TestCompressor::compress(&compressor, &set).unwrap();
        let (mut a, mut b) = (Digest::default(), Digest::default());
        a.compressed(&plain);
        b.compressed(&compressed);
        assert_eq!(a, b);

        let other = TestSet::parse(&["11111111", "11111111", "11111111", "11111111"]).unwrap();
        assert!(verify(&other, &compressed, &mut Tracer::new(false), 0).is_err());
    }

    #[test]
    fn digest_sees_every_trit() {
        let a = TestSet::parse(&["10X"]).unwrap();
        let b = TestSet::parse(&["100"]).unwrap();
        let (mut da, mut db) = (Digest::default(), Digest::default());
        da.test_set(&a);
        db.test_set(&b);
        assert_ne!(da, db);
    }
}
