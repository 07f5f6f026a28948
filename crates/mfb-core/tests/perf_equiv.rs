//! Thread-count determinism golden suite.
//!
//! The deterministic fan-out in `mfb_model::par` promises that every
//! parallel sweep (placement retry attempts, recovery-ladder reseeds) folds
//! its results in input order, so the synthesized [`Solution`] must be
//! **byte-identical** no matter how many worker threads ran. This test pins
//! that contract: it runs the full paper flow with `MFB_THREADS=1` (the
//! plain serial loop) and `MFB_THREADS=8` and compares the serialized
//! solutions character for character.
//!
//! The flow's retry loop and the recovery ladder's reseed rung run the same
//! pipeline through the same speculative attempt runner, so on a pristine
//! chip the ladder must return exactly the flow's solution — attempt count
//! included — at every thread count, including on benchmarks that need
//! more than one attempt.
//!
//! Everything lives in a single `#[test]` because the thread limit is read
//! from a process-global environment variable: parallel test functions
//! mutating it would race.

use mfb_bench_suite::benchmark_by_name;
use mfb_core::prelude::*;
use mfb_model::prelude::*;

fn wash() -> LogLinearWash {
    LogLinearWash::paper_calibrated()
}

/// Serialized solutions for `bench` under the paper DCSA flow and under
/// the standard recovery ladder, with the given thread limit.
fn solve_json(threads: &str, bench: &str) -> (String, String) {
    std::env::set_var("MFB_THREADS", threads);
    let b = benchmark_by_name(bench).expect("Table-I benchmark must exist");
    let comps = b.components(&ComponentLibrary::default());
    let synth = Synthesizer::paper_dcsa();
    let flow = synth
        .synthesize(&b.graph, &comps, &wash())
        .expect("paper flow must synthesize its own Table-I benchmark");
    let ladder = synth.synthesize_resilient(
        &b.graph,
        &comps,
        &wash(),
        &DefectMap::pristine(),
        &RecoveryPolicy::standard(),
    );
    let ladder = ladder
        .result
        .expect("the ladder must synthesize what the flow does");
    let json = |s: &Solution| serde_json::to_string(s).expect("Solution serializes");
    (json(&flow), json(&ladder))
}

/// Debug-formatted resilient outcome for a damaged IVD chip under the given
/// thread limit. Debug output covers the solution, the recovery trace and
/// any degraded artifacts, so a divergence anywhere in the ladder shows up.
fn resilient_debug(threads: &str) -> String {
    std::env::set_var("MFB_THREADS", threads);
    let b = benchmark_by_name("IVD").expect("IVD exists");
    let comps = b.components(&ComponentLibrary::default());
    let mut defects = DefectMap::pristine();
    // A blocked stripe forces at least one failed attempt so the ladder
    // (whose reseed rung is the parallel one) actually runs.
    for x in 0..6 {
        defects.block_cell(CellPos::new(x, 3));
    }
    let out = Synthesizer::paper_dcsa().synthesize_resilient(
        &b.graph,
        &comps,
        &wash(),
        &defects,
        &RecoveryPolicy::default(),
    );
    format!("{out:?}")
}

#[test]
fn solution_is_byte_identical_across_thread_counts() {
    // Two real and two synthetic benchmarks keep runtime modest while
    // exercising the placement retry loop: Synthetic4 routes on its third
    // attempt, so the speculative batches after attempt 0 decide it.
    for bench in ["PCR", "IVD", "Synthetic1", "Synthetic4"] {
        let (serial, serial_ladder) = solve_json("1", bench);
        let (parallel, parallel_ladder) = solve_json("8", bench);
        assert_eq!(
            serial, parallel,
            "{bench}: Solution must not depend on MFB_THREADS"
        );
        assert_eq!(
            serial, serial_ladder,
            "{bench}: ladder must equal the flow at MFB_THREADS=1"
        );
        assert_eq!(
            parallel, parallel_ladder,
            "{bench}: ladder must equal the flow at MFB_THREADS=8"
        );
    }

    let serial = resilient_debug("1");
    let parallel = resilient_debug("8");
    assert_eq!(
        serial, parallel,
        "resilient outcome must not depend on MFB_THREADS"
    );

    std::env::remove_var("MFB_THREADS");
}
