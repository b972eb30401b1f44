//! `table_ea`: the paper-table EA sweep without ATPG.
//!
//! Set-up builds the calibrated Table 1 sets (compressed at K=12, L=64)
//! and Table 2 sets (K=8, L=9) at the quick profile's size cap. Each pass
//! compresses every set with the default `EaCompressor` and
//! decode-verifies every result. The workload seed drives the
//! calibrated-set seed and the EA seeds.

use std::time::Instant;

use evotc_bits::TestSet;
use evotc_core::EaCompressor;
use evotc_workloads::tables::{TABLE1, TABLE2};
use evotc_workloads::{path_delay_workloads, stuck_at_workloads};

use crate::common::{mix, timed_setup, Outcome, RunArgs};
use crate::flow::{self, Pass};
use crate::trace::Tracer;

/// The quick profile's size cap on each set, in bits.
const SIZE_LIMIT: usize = 1 << 15;
/// Set-up repetitions whose median is `setup_s`.
const SETUPS: usize = 5;

struct Job {
    set: TestSet,
    k: usize,
    l: usize,
}

fn setup(seed: u64) -> Vec<Job> {
    let threads = evotc_evo::parallel::resolve_threads(0);
    let set_seed = mix(seed, 0x7AB1E);
    let stuck_at = stuck_at_workloads(TABLE1, set_seed, SIZE_LIMIT, threads);
    let path_delay = path_delay_workloads(TABLE2, set_seed, SIZE_LIMIT, threads);
    stuck_at
        .into_iter()
        .map(|set| Job { set, k: 12, l: 64 })
        .chain(path_delay.into_iter().map(|set| Job { set, k: 8, l: 9 }))
        .collect()
}

fn pass(jobs: &[Job], seed: u64, tracer: &mut Tracer) -> Pass {
    let mut out = Pass::default();
    let started = Instant::now();
    let whole = tracer.enter("pass", 0);
    for (i, job) in jobs.iter().enumerate() {
        let request = i as u64;
        out.attempted += 1;
        let compressor = EaCompressor::builder(job.k, job.l)
            .seed(mix(seed, request))
            .build();
        if !out.compress_and_verify(compressor, &job.set, tracer, request) {
            out.failed += 1;
        }
    }
    tracer.exit(whole);
    out.secs = started.elapsed().as_secs_f64();
    out
}

pub fn run(args: &RunArgs) -> Outcome {
    let (jobs, setup_s) = timed_setup(SETUPS, || setup(args.seed));
    let bits: usize = jobs.iter().map(|j| j.set.total_bits()).sum();
    let (mut out, _) = flow::run(args, "table_ea", setup_s, |tracer| {
        pass(&jobs, args.seed, tracer)
    });
    out.note(format!("{} sets, {bits} bits in total", jobs.len()));
    out
}
