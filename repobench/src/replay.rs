//! A benchmark-side replay of stuck-at test generation that times PODEM
//! and fault dropping separately.
//!
//! `generate_stuck_at_tests` is one call; to split its time between the
//! PODEM search and the fault-simulation dropping loop, the replay repeats
//! the same loop through the public `collapse_faults`, `Podem` and
//! `detected_mask` items with a span around each piece. The split is only
//! valid when the replay yields exactly the `TestSet` and counts the real
//! call returns; the caller checks that.

use std::time::Instant;

use evotc_atpg::{Podem, PodemResult, StuckAtConfig, StuckAtOutcome};
use evotc_bits::{TestPattern, TestSet};
use evotc_netlist::Netlist;
use evotc_sim::{collapse_faults, detected_mask, StuckAtFault};

use crate::trace::Tracer;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Test,
    Untestable,
    Aborted,
}

/// The replay's output plus the per-call timings of its PODEM searches.
#[derive(Debug)]
pub struct Replay {
    pub tests: TestSet,
    pub num_faults: usize,
    pub detected: usize,
    pub untestable: usize,
    pub aborted: usize,
    /// `(nanoseconds, verdict)` of every PODEM call, in call order.
    pub podem_calls: Vec<(u64, Verdict)>,
    /// `detected_mask` calls made while dropping.
    pub drop_calls: u64,
}

impl Replay {
    /// Whether the replay reproduced the real call exactly.
    pub fn matches(&self, real: &StuckAtOutcome) -> bool {
        self.tests == real.tests
            && self.num_faults == real.num_faults
            && self.detected == real.detected
            && self.untestable == real.untestable
            && self.aborted == real.aborted
    }
}

/// Replays `generate_stuck_at_tests(netlist, config)` under spans
/// `sim.collapse`, `atpg.podem` (one per targeted fault) and `sim.drop`
/// (one per emitted cube).
pub fn stuck_at(
    netlist: &Netlist,
    config: &StuckAtConfig,
    tracer: &mut Tracer,
    request: u64,
) -> Replay {
    let open = tracer.enter("sim.collapse", request);
    let faults = collapse_faults(netlist);
    tracer.exit(open);

    let num_faults = faults.len();
    let mut dropped = vec![false; num_faults];
    let mut replay = Replay {
        tests: TestSet::new(netlist.num_inputs()),
        num_faults,
        detected: 0,
        untestable: 0,
        aborted: 0,
        podem_calls: Vec::new(),
        drop_calls: 0,
    };
    let podem = Podem::new(netlist, config.podem);
    for i in 0..num_faults {
        if dropped[i] {
            continue;
        }
        let open = tracer.enter("atpg.podem", request);
        let started = Instant::now();
        let result = podem.run(faults[i]);
        let ns = started.elapsed().as_nanos() as u64;
        tracer.exit(open);
        dropped[i] = true;
        let verdict = match result {
            PodemResult::Test(cube) => {
                replay.detected += 1;
                let open = tracer.enter("sim.drop", request);
                drop_faults(netlist, &cube, &faults, &mut dropped, &mut replay);
                tracer.exit(open);
                replay
                    .tests
                    .push(cube)
                    .expect("cube width equals input count");
                Verdict::Test
            }
            PodemResult::Untestable => {
                replay.untestable += 1;
                Verdict::Untestable
            }
            PodemResult::Aborted => {
                replay.aborted += 1;
                Verdict::Aborted
            }
        };
        replay.podem_calls.push((ns, verdict));
    }
    replay
}

/// The dropping loop: every remaining fault the zero-filled cube detects
/// is dropped and counted as detected.
fn drop_faults(
    netlist: &Netlist,
    cube: &TestPattern,
    faults: &[StuckAtFault],
    dropped: &mut [bool],
    replay: &mut Replay,
) {
    let filled = cube.fill_x(false);
    let inputs: Vec<u64> = (0..netlist.num_inputs())
        .map(|j| {
            let trit = filled.try_trit(j).expect("width matches input count");
            u64::from(trit.to_bool().expect("filled"))
        })
        .collect();
    for (i, &fault) in faults.iter().enumerate() {
        if dropped[i] {
            continue;
        }
        replay.drop_calls += 1;
        if detected_mask(netlist, fault, &inputs) & 1 == 1 {
            dropped[i] = true;
            replay.detected += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evotc_atpg::generate_stuck_at_tests;
    use evotc_netlist::{generate, iscas, parse_bench, GeneratorConfig};

    #[test]
    fn replay_reproduces_the_real_generator() {
        let circuits = [
            parse_bench(iscas::C17_BENCH).unwrap(),
            parse_bench(iscas::S27_BENCH).unwrap(),
            generate(&GeneratorConfig {
                inputs: 12,
                outputs: 6,
                gates: 80,
                seed: 4,
            }),
        ];
        for netlist in &circuits {
            let config = StuckAtConfig::default();
            let real = generate_stuck_at_tests(netlist, &config);
            let mut tracer = Tracer::new(true);
            let replay = stuck_at(netlist, &config, &mut tracer, 0);
            assert!(replay.matches(&real));
            let podem_spans = tracer
                .spans()
                .iter()
                .filter(|s| s.name == "atpg.podem")
                .count();
            assert_eq!(podem_spans, replay.podem_calls.len());
            assert!(replay.drop_calls > 0);
        }
    }
}
