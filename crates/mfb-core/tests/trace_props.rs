//! Property-based observability tests: random synthetic assays always emit
//! **well-formed** traces — every span closes, durations are non-negative
//! and bounded by wall time, exports pass the schema checks — and the
//! `cache.<stage>.<hit|miss>` instants mirror the [`StageCache`]'s own
//! counters exactly.

#![cfg(feature = "obs-trace")]

use mfb_bench_suite::synth::SyntheticSpec;
use mfb_core::prelude::*;
use mfb_model::prelude::*;
use proptest::prelude::*;

fn wash() -> LogLinearWash {
    LogLinearWash::paper_calibrated()
}

fn instance(n: usize, seed: u64) -> (SequencingGraph, ComponentSet) {
    let g = SyntheticSpec::new(n, seed).generate();
    let comps = Allocation::new(2, 2, 2, 2).instantiate(&ComponentLibrary::default());
    (g, comps)
}

/// Count of `cache.<stage>.<outcome>` instants in `trace`.
fn cache_instants(trace: &mfb_obs::Trace, stage: &str, outcome: &str) -> u64 {
    trace.instant_count(&format!("cache.{stage}.{outcome}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every span closes, the event log passes both export schema checks,
    /// and stage spans sum to no more than the trace's wall time per
    /// nesting level (children are contained in `flow.synthesize`).
    #[test]
    fn random_assays_emit_well_formed_traces(
        n in 2usize..18,
        seed in any::<u64>(),
    ) {
        let (g, comps) = instance(n, seed);
        let collector = mfb_obs::TraceCollector::new();
        let result = {
            let _guard = mfb_obs::install(&collector);
            Synthesizer::paper_dcsa().synthesize(&g, &comps, &wash())
        };
        prop_assert!(result.is_ok(), "{result:?}");
        let trace = collector.finish();

        prop_assert_eq!(trace.open_spans, 0, "every span closes");
        prop_assert!(!trace.events.is_empty());
        mfb_obs::export::check_events(&trace.events).map_err(TestCaseError::fail)?;
        mfb_obs::export::check_jsonl(&mfb_obs::export::to_jsonl(&trace.events))
            .map_err(TestCaseError::fail)?;
        mfb_obs::export::check_chrome(&mfb_obs::export::to_chrome(&trace.events))
            .map_err(TestCaseError::fail)?;

        // Spans nest inside the wall clock: each span individually, and —
        // because same-thread stage spans at one nesting level run
        // back-to-back — the per-thread sum of `stage.*` spans fits inside
        // the enclosing `flow.synthesize` span. (Placement attempts can
        // fan out across threads, so the sum is per-tid, not global.)
        let root = trace.spans_named("flow.synthesize").next().expect("root span");
        prop_assert!(root.dur_ns <= trace.wall_ns);
        let mut per_tid: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
        for e in &trace.events {
            if e.kind == mfb_obs::EventKind::Span {
                prop_assert!(e.t_ns + e.dur_ns <= trace.wall_ns, "{} escapes wall time", e.name);
                if e.name.starts_with("stage.") {
                    *per_tid.entry(e.tid).or_default() += e.dur_ns;
                }
            }
        }
        for (tid, stage_sum) in per_tid {
            prop_assert!(
                stage_sum <= root.dur_ns,
                "tid {tid}: sequential stage spans ({stage_sum} ns) exceed flow.synthesize ({} ns)",
                root.dur_ns
            );
        }
    }

    /// The `cache.<stage>.<hit|miss>` instants in the trace agree with the
    /// [`StageCache`]'s own hit/miss counters, stage by stage, across a
    /// cold run followed by a warm re-run of the same assay.
    #[test]
    fn cache_instants_match_stage_cache_counters(
        n in 2usize..14,
        seed in any::<u64>(),
    ) {
        let (g, comps) = instance(n, seed);
        let cache = StageCache::new();
        let collector = mfb_obs::TraceCollector::new();
        {
            let _guard = mfb_obs::install(&collector);
            let cold = Synthesizer::paper_dcsa().synthesize_with(
                &g, &comps, &wash(), &DefectMap::pristine(), Some(&cache), &Budget::unlimited(),
            );
            prop_assert!(cold.is_ok(), "{cold:?}");
            let warm = Synthesizer::paper_dcsa().synthesize_with(
                &g, &comps, &wash(), &DefectMap::pristine(), Some(&cache), &Budget::unlimited(),
            );
            prop_assert!(warm.is_ok(), "{warm:?}");
        }
        let trace = collector.finish();
        let stats = cache.stats();

        for (stage, hits, misses) in [
            ("schedule", stats.schedule_hits, stats.schedule_misses),
            ("netlist", stats.netlist_hits, stats.netlist_misses),
            ("placement", stats.placement_hits, stats.placement_misses),
            ("routing", stats.routing_hits, stats.routing_misses),
            ("optimize", stats.optimize_hits, stats.optimize_misses),
        ] {
            prop_assert_eq!(
                cache_instants(&trace, stage, "hit"),
                hits,
                "{} hit instants vs CacheStats",
                stage
            );
            prop_assert_eq!(
                cache_instants(&trace, stage, "miss"),
                misses,
                "{} miss instants vs CacheStats",
                stage
            );
        }
        // The warm run hits at least the schedule stage.
        prop_assert!(stats.hits() > 0, "warm re-run must hit the cache");
    }
}
