//! The pass driver every workload runs through, and the pass machinery the
//! two compression workloads share: compress and verify one set, fold the
//! result into a pass, and turn passes and spans into metrics.

use std::time::Instant;

use evotc_bits::{BlockHistogram, TestSet, TestSetString};
use evotc_core::{CompressedTestSet, EaCompressor};

use crate::common::{
    compress, ms, ns_to_ms, peak_rss_mb, verify, Digest, EaCounters, Outcome, RunArgs,
};
use crate::stats::median;
use crate::trace::{self_time_by_name, total_time_by_name, Tracer};

/// A traced compression kept for the checks after the pass.
#[derive(Debug)]
pub struct Rerun {
    pub compressor: EaCompressor,
    pub set: TestSet,
    pub compressed: CompressedTestSet,
    pub default_ns: u64,
    pub digest: u64,
}

/// Everything one pass produced.
#[derive(Debug, Default)]
pub struct Pass {
    pub secs: f64,
    /// Operations attempted (one per circuit flow or compression).
    pub attempted: u64,
    /// Operations with at least one failure.
    pub failed: u64,
    pub failures: Vec<String>,
    pub rates: Vec<f64>,
    pub cycles: u64,
    pub digest: Digest,
    pub ea: Vec<EaCounters>,
    pub reruns: Vec<Rerun>,
}

impl Pass {
    /// Compresses `set`, verifies the result, and records rate, decoder
    /// cycles and the stream digest. Failures are recorded, never raised.
    pub fn compress_and_verify(
        &mut self,
        compressor: EaCompressor,
        set: &TestSet,
        tracer: &mut Tracer,
        request: u64,
    ) -> bool {
        let (compressed, counters) = match compress(&compressor, set, tracer, request) {
            Ok(done) => done,
            Err(e) => {
                self.failures
                    .push(format!("request {request}: compress: {e}"));
                return false;
            }
        };
        match verify(set, &compressed, tracer, request) {
            Ok(cycles) => self.cycles += cycles,
            Err(e) => {
                self.failures.push(format!("request {request}: {e}"));
                return false;
            }
        }
        self.rates.push(compressed.rate_percent());
        let digest = digest_of(&compressed);
        self.digest.word(digest);
        if tracer.enabled() {
            self.reruns.push(Rerun {
                compressor,
                set: set.clone(),
                compressed,
                default_ns: counters.ea_ns,
                digest,
            });
            self.ea.push(counters);
        }
        true
    }
}

/// The passes of one run and the tracer they recorded into.
#[derive(Debug)]
pub struct Passes<P> {
    /// A traced run's untraced first pass: its time against the traced
    /// ones is the tracing overhead.
    pub reference: Option<P>,
    /// The passes run until the measuring time was up (at least one).
    pub timed: Vec<P>,
    pub tracer: Tracer,
}

impl<P> Passes<P> {
    /// The reference pass, if any, then the timed ones.
    pub fn all(&self) -> impl Iterator<Item = &P> {
        self.reference.iter().chain(&self.timed)
    }
}

/// The one pass loop of every workload. Untraced: passes until `seconds`
/// are up. Traced: one untraced reference pass, then traced passes until
/// `seconds` are up.
pub fn drive<P>(args: &RunArgs, mut pass: impl FnMut(&mut Tracer) -> P) -> Passes<P> {
    let reference = args.trace.then(|| pass(&mut Tracer::new(false)));
    let mut tracer = Tracer::new(args.trace);
    let started = Instant::now();
    let mut timed = Vec::new();
    loop {
        timed.push(pass(&mut tracer));
        if started.elapsed().as_secs_f64() >= args.seconds {
            return Passes {
                reference,
                timed,
                tracer,
            };
        }
    }
}

/// Drives a compression workload. Untraced: the end-to-end metrics.
/// Traced: the layer metrics every compression workload shares; the tracer
/// and the traced pass count are returned for the workload's own layers.
pub fn run(
    args: &RunArgs,
    workload: &str,
    setup_s: f64,
    pass: impl FnMut(&mut Tracer) -> Pass,
) -> (Outcome, Option<(Tracer, f64)>) {
    let mut out = Outcome::new();
    let passes = drive(args, pass);
    settle(&mut out, &passes.all().collect::<Vec<_>>());
    let Passes {
        reference,
        timed,
        tracer,
    } = passes;
    let Some(reference) = reference else {
        end_to_end(&mut out, &timed, setup_s);
        out.set("peak_rss_mb", peak_rss_mb());
        return (out, None);
    };
    if let Err(e) = rerun_layers(&mut out, &timed[0]) {
        out.wrong(e);
    }
    ea_layers(&mut out, &timed, &tracer);
    let traced_secs: Vec<f64> = timed.iter().map(|p| p.secs).collect();
    trace_layers(&mut out, &traced_secs, reference.secs, &tracer);
    crate::write_trace(&tracer, workload, args.seed, &mut out);
    (out, Some((tracer, timed.len() as f64)))
}

/// Folds passes into the run outcome: failures, attempted counts, and the
/// check that every pass over the same inputs produced the same bytes.
fn settle(out: &mut Outcome, passes: &[&Pass]) {
    for pass in passes {
        out.attempted += pass.attempted;
        out.failed += pass.failed;
        for failure in &pass.failures {
            out.note(format!("failure: {failure}"));
        }
    }
    if let Some(first) = passes.first() {
        if passes.iter().any(|p| p.digest != first.digest) {
            out.wrong("passes over the same inputs produced different outputs".to_string());
        }
        out.note(format!("output_digest = {:016x}", first.digest.value()));
    }
}

/// The end-to-end metrics both compression workloads report. A user of a
/// batch workload submits the whole pass, so a pass is its job: the job
/// rate and latency restate the pass time in those units.
fn end_to_end(out: &mut Outcome, passes: &[Pass], setup_s: f64) {
    let secs: Vec<f64> = passes.iter().map(|p| p.secs).collect();
    let pass_s = median(&secs).unwrap_or(0.0);
    let rates = &passes[0].rates;
    out.set("setup_s", setup_s);
    out.set("pass_s", pass_s);
    out.set(
        "rate_pct",
        rates.iter().sum::<f64>() / rates.len().max(1) as f64,
    );
    out.set("jobs_per_s", passes.len() as f64 / secs.iter().sum::<f64>());
    out.set("latency_p50_ms", pass_s * 1e3);
    out.note(format!(
        "passes = {}, pass_s = {secs:.3?}, {} operations per pass",
        passes.len(),
        passes[0].attempted
    ));
}

/// Checks on the first traced pass, after it ended, that split its
/// compressions further than the spans can:
///
/// * `evo.default_over_t1`: each compression again at `threads(1)`, through
///   the same `compress_with_summary` call; the EA times of both come from
///   their run summaries, and both must give the same bytes;
/// * `bits.histogram_ms`, `bits.distinct_blocks` and `core.encode_ms`: the
///   two public steps around the EA, called again on the same set and the
///   program's own matching vectors; the encode must give the same bytes.
fn rerun_layers(out: &mut Outcome, pass: &Pass) -> Result<(), String> {
    let (mut default_ns, mut t1_ns) = (0u64, 0u64);
    let (mut histogram_ms, mut encode_ms, mut distinct) = (0.0, 0.0, 0usize);
    for rerun in &pass.reruns {
        let single = EaCompressor::builder(rerun.compressor.block_len(), rerun.compressor.num_mvs())
            .config(rerun.compressor.config().clone())
            .threads(1)
            .build();
        let (compressed, summary) = single
            .compress_with_summary(&rerun.set)
            .map_err(|e| e.to_string())?;
        if digest_of(&compressed) != rerun.digest {
            return Err("threads(1) re-run differs from the default-threads run".to_string());
        }
        default_ns += rerun.default_ns;
        t1_ns += summary.elapsed.as_nanos() as u64;

        let started = Instant::now();
        let string = TestSetString::try_new(&rerun.set, rerun.compressor.block_len())
            .map_err(|e| e.to_string())?;
        let histogram = BlockHistogram::from_string(&string);
        histogram_ms += ms(started.elapsed());
        distinct += histogram.num_distinct();
        let started = Instant::now();
        let encoded = evotc_core::encode_with_mvs(
            &evotc_core::TestCompressor::name(&rerun.compressor),
            &rerun.set,
            rerun.compressed.mv_set(),
        )
        .map_err(|e| e.to_string())?;
        encode_ms += ms(started.elapsed());
        if digest_of(&encoded) != rerun.digest {
            return Err("re-encoding with the EA's vectors differs from the compression".to_string());
        }
    }
    out.set("evo.default_over_t1", default_ns as f64 / t1_ns.max(1) as f64);
    out.set("bits.histogram_ms", histogram_ms);
    out.set("bits.distinct_blocks", distinct as f64);
    out.set("core.encode_ms", encode_ms);
    Ok(())
}

fn digest_of(compressed: &CompressedTestSet) -> u64 {
    let mut digest = Digest::default();
    digest.compressed(compressed);
    digest.value()
}

/// Per-layer metrics of the EA, core and decoder layers, per traced pass.
fn ea_layers(out: &mut Outcome, traced: &[Pass], tracer: &Tracer) {
    let per = traced.len().max(1) as f64;
    let totals = total_time_by_name(tracer.spans());
    let ms = |name: &str| ns_to_ms(totals.get(name).copied().unwrap_or(0)) / per;
    let sum = |f: fn(&EaCounters) -> u64| {
        traced.iter().flat_map(|p| p.ea.iter()).map(f).sum::<u64>() as f64
    };
    let (hits, misses, fallbacks) = (
        sum(|c| c.cache.hits),
        sum(|c| c.cache.misses),
        sum(|c| c.cache.fallbacks),
    );
    let evaluations = sum(|c| c.evaluations);
    out.set("evo.run_ms", ms("evo.run"));
    out.set("evo.evaluations", evaluations / per);
    out.set("evo.generations", sum(|c| c.generations) / per);
    out.set(
        "evo.evals_per_s",
        evaluations / (sum(|c| c.ea_ns) / 1e9).max(1e-9),
    );
    out.set(
        "core.cache_hit_ratio",
        hits / (hits + misses + fallbacks).max(1.0),
    );
    out.set("core.cache_fallbacks", fallbacks / per);
    out.set("core.decompress_ms", ms("core.decompress"));
    out.set("decoder.verify_ms", ms("decoder.verify"));
    out.set(
        "decoder.cycles",
        traced.iter().map(|p| p.cycles).sum::<u64>() as f64 / per,
    );
}

/// Tracing bookkeeping: traced vs untraced pass time, the unattributed
/// remainder (self time of the `pass` spans), and the self-time table
/// whose sum is the traced pass time.
pub fn trace_layers(out: &mut Outcome, traced_secs: &[f64], untraced_secs: f64, tracer: &Tracer) {
    let per = traced_secs.len().max(1) as f64;
    let traced = median(traced_secs).unwrap_or(0.0);
    let self_ns = self_time_by_name(tracer.spans(), "pass");
    let unattributed = ns_to_ms(self_ns.get("pass").copied().unwrap_or(0)) / per;
    out.set("trace.pass_s", traced);
    out.set("trace.untraced_pass_s", untraced_secs);
    out.set(
        "trace.overhead_pct",
        (traced - untraced_secs) / untraced_secs.max(1e-9) * 100.0,
    );
    out.set("trace.unattributed_ms", unattributed);
    out.set("trace.spans", tracer.spans().len() as f64);
    let mut table = String::from("self time per traced pass (ms):");
    let mut sum_ms = 0.0;
    for (name, ns) in &self_ns {
        let value = ns_to_ms(*ns) / per;
        sum_ms += value;
        table.push_str(&format!(" {name}={value:.3}"));
    }
    out.note(table);
    out.note(format!(
        "self times sum to {sum_ms:.3} ms per pass; traced pass_s (mean) = {:.3} ms",
        traced_secs.iter().sum::<f64>() / per * 1e3
    ));
}
