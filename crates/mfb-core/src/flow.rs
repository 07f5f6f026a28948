//! The top-down synthesis flow: scheduling → placement → routing, with
//! routing-feedback placement retries.

use crate::cache::{BaseKeys, StageCache};
use crate::config::SynthesisConfig;
use crate::error::SynthesisError;
use crate::pipeline::{grown_grid, scheduler_config, speculate, Stages};
use mfb_analyze::prelude::{AnalysisInput, Analyzer};
use mfb_model::hash::ContentHash;
use mfb_model::prelude::*;
use mfb_place::prelude::*;
use mfb_route::prelude::*;
use mfb_sched::prelude::*;
use mfb_sim::prelude::{replay, SimReport};
use mfb_verify::prelude::{RuleRegistry, VerifyInput, VerifyReport};
use std::ops::ControlFlow;

/// A complete flow-layer physical design for one bioassay.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Solution {
    /// The binding and scheduling scheme.
    pub schedule: Schedule,
    /// The routing netlist with its connection priorities.
    pub netlist: NetList,
    /// Component locations.
    pub placement: Placement,
    /// Flow channels and realized times.
    pub routing: Routing,
    /// How many placements were tried before routing succeeded.
    pub attempts: u32,
}

impl Solution {
    /// Replays the solution through the independent validator.
    pub fn verify(
        &self,
        graph: &SequencingGraph,
        components: &ComponentSet,
        wash: &dyn WashModel,
    ) -> SimReport {
        replay(
            graph,
            components,
            &self.schedule,
            &self.placement,
            &self.routing,
            wash,
        )
    }

    /// Runs the full design-rule checker over the solution with every rule
    /// enabled and the paper's router configuration. Use
    /// [`drc_with`](Solution::drc_with) to toggle rules or match a custom
    /// router setup.
    pub fn drc(
        &self,
        graph: &SequencingGraph,
        components: &ComponentSet,
        wash: &dyn WashModel,
    ) -> VerifyReport {
        self.drc_with(
            graph,
            components,
            wash,
            RouterConfig::paper(),
            &RuleRegistry::with_all_rules(),
        )
    }

    /// Runs the design-rule checker with an explicit router configuration
    /// (consulted when the wash plan must be rebuilt) and rule registry.
    pub fn drc_with(
        &self,
        graph: &SequencingGraph,
        components: &ComponentSet,
        wash: &dyn WashModel,
        router: RouterConfig,
        registry: &RuleRegistry,
    ) -> VerifyReport {
        let input = VerifyInput::new(
            graph,
            components,
            &self.schedule,
            &self.placement,
            &self.routing,
            wash,
            router,
        );
        registry.run(&input)
    }

    /// Runs the cross-stage dataflow analyses (contamination taint,
    /// storage liveness, valve conflicts) with every `ANA-*` rule enabled
    /// and the paper's router configuration. Use
    /// [`analyze_with`](Solution::analyze_with) to toggle rules.
    pub fn analyze(
        &self,
        graph: &SequencingGraph,
        components: &ComponentSet,
        wash: &dyn WashModel,
    ) -> VerifyReport {
        self.analyze_with(
            graph,
            components,
            wash,
            RouterConfig::paper(),
            &Analyzer::with_all_rules(),
        )
    }

    /// Runs the dataflow analyses with an explicit router configuration
    /// (consulted for wash-plan feasibility) and analyzer rule set.
    pub fn analyze_with(
        &self,
        graph: &SequencingGraph,
        components: &ComponentSet,
        wash: &dyn WashModel,
        router: RouterConfig,
        analyzer: &Analyzer,
    ) -> VerifyReport {
        let input = AnalysisInput::new(
            graph,
            components,
            &self.schedule,
            &self.placement,
            &self.routing,
            wash,
            router,
        );
        analyzer.run(&input)
    }
}

/// The top-down synthesizer. Owns a [`SynthesisConfig`] and runs the full
/// pipeline on any (assay, component set) pair.
///
/// # Examples
///
/// ```
/// use mfb_core::prelude::*;
/// use mfb_model::prelude::*;
///
/// let mut b = SequencingGraph::builder();
/// let wash = LogLinearWash::paper_calibrated();
/// let d = DiffusionCoefficient::PROTEIN;
/// let mix = b.operation(OperationKind::Mix, Duration::from_secs(5), d);
/// let det = b.operation(OperationKind::Detect, Duration::from_secs(4), d);
/// b.edge(mix, det).unwrap();
/// let assay = b.build().unwrap();
/// let chip = Allocation::new(1, 0, 0, 1).instantiate(&ComponentLibrary::default());
///
/// let solution = Synthesizer::paper_dcsa()
///     .synthesize(&assay, &chip, &wash)
///     .unwrap();
/// assert!(solution.verify(&assay, &chip, &wash).is_valid());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Synthesizer {
    config: SynthesisConfig,
}

impl Synthesizer {
    /// A synthesizer with an explicit configuration.
    pub fn new(config: SynthesisConfig) -> Self {
        Synthesizer { config }
    }

    /// The paper's flow (storage-aware scheduling, SA placement,
    /// conflict-aware routing).
    pub fn paper_dcsa() -> Self {
        Synthesizer::new(SynthesisConfig::paper_dcsa())
    }

    /// The paper's baseline flow (BA).
    pub fn paper_baseline() -> Self {
        Synthesizer::new(SynthesisConfig::paper_baseline())
    }

    /// The active configuration.
    pub fn config(&self) -> &SynthesisConfig {
        &self.config
    }

    /// Runs the complete flow.
    ///
    /// Scheduling and netlist construction run once; placement and routing
    /// iterate — when routing fails on a placement, the flow re-places with
    /// a fresh annealing seed, growing the grid every eighth attempt, up to
    /// [`SynthesisConfig::max_placement_attempts`].
    ///
    /// # Errors
    ///
    /// Any stage error; see [`SynthesisError`].
    pub fn synthesize(
        &self,
        graph: &SequencingGraph,
        components: &ComponentSet,
        wash: &dyn WashModel,
    ) -> Result<Solution, SynthesisError> {
        self.synthesize_with_defects(graph, components, wash, &DefectMap::pristine())
    }

    /// [`synthesize`](Synthesizer::synthesize) on a damaged chip: dead
    /// components are excluded from binding, blocked cells from placement
    /// footprints and from every routed or parked path, and degraded cells
    /// pay their extra wash weight in the router's Eq. (5) cost. With a
    /// pristine map this is exactly the plain flow.
    ///
    /// The retry loop **fails fast** on errors that re-placing cannot fix
    /// (see [`SynthesisError::is_deterministic`]) instead of burning the
    /// whole attempt budget; for escalation beyond fresh seeds — larger
    /// grids, relaxed `t_c`, rebinding around broken components — see
    /// [`synthesize_resilient`](Synthesizer::synthesize_resilient).
    ///
    /// # Errors
    ///
    /// Any stage error; see [`SynthesisError`].
    pub fn synthesize_with_defects(
        &self,
        graph: &SequencingGraph,
        components: &ComponentSet,
        wash: &dyn WashModel,
        defects: &DefectMap,
    ) -> Result<Solution, SynthesisError> {
        self.synthesize_with(graph, components, wash, defects, None, &Budget::unlimited())
    }

    /// The fully general entry point: any defect map, an optional shared
    /// [`StageCache`], and an execution [`Budget`].
    ///
    /// Through a cache, every stage result is looked up by the content hash
    /// of its inputs (the defect map included) before being computed, so
    /// repeated synthesis of related jobs — the same assay with a perturbed
    /// seed, ladder rungs reusing a schedule, a warm batch — skips unchanged
    /// stages. Cached results, and cached errors, are byte-identical to
    /// uncached synthesis.
    ///
    /// The budget is polled at stage boundaries and inside the placement
    /// and routing inner loops (the annealer once per temperature epoch,
    /// the router every few thousand A* expansions), so an expired
    /// deadline or a flipped [`CancelToken`] stops the run promptly. A
    /// checkpoint only ever *aborts*: a run that finishes within its
    /// budget is byte-identical to an unlimited run, and interrupted
    /// stage results are never stored in the cache.
    ///
    /// # Errors
    ///
    /// Any stage error, plus [`SynthesisError::DeadlineExceeded`] /
    /// [`SynthesisError::Cancelled`] when the budget trips first.
    pub fn synthesize_with(
        &self,
        graph: &SequencingGraph,
        components: &ComponentSet,
        wash: &dyn WashModel,
        defects: &DefectMap,
        cache: Option<&StageCache>,
        budget: &Budget,
    ) -> Result<Solution, SynthesisError> {
        let _flow_span = mfb_obs::obs_span!(
            "flow.synthesize",
            ops = graph.ops().count() as u64,
            components = components.len() as u64,
            cached = cache.is_some(),
        );
        let cfg = &self.config;
        let stages = Stages::new(cfg, graph, components, wash, defects, cache, budget);
        budget.check().map_err(SynthesisError::from)?;
        let (schedule, schedule_h) = {
            let _span = mfb_obs::obs_span!("stage.schedule");
            stages.schedule(cfg.t_c)?
        };
        budget.check().map_err(SynthesisError::from)?;
        let (netlist, netlist_key) = {
            let _span = mfb_obs::obs_span!("stage.netlist");
            stages.netlist(&schedule, schedule_h)
        };

        let base_grid = cfg.grid.unwrap_or_else(|| auto_grid(components));
        let attempts = cfg.max_placement_attempts.max(1);

        // One place-and-route attempt: a pure function of the attempt index
        // (the SA seed and grid growth derive from it), so attempts can run
        // in any order — or concurrently — without changing any result.
        let attempt_once =
            |attempt: u32| -> Result<(Placement, Routing, ContentHash), AttemptError> {
                // Grow the grid every eighth attempt.
                let grid = grown_grid(base_grid, attempt / 8);
                budget.check().map_err(AttemptError::Interrupt)?;
                let seed = cfg.sa.seed.wrapping_add(u64::from(attempt));
                let (placement, place_h) = {
                    let _span = mfb_obs::obs_span!("stage.place", attempt = attempt, seed = seed);
                    stages
                        .place(&netlist, netlist_key, grid, seed)
                        .map_err(AttemptError::Place)?
                };
                let _route_span = mfb_obs::obs_span!("stage.route", attempt = attempt);
                let (routed, route_key) = stages.route(&schedule, schedule_h, &placement, place_h);
                match routed {
                    Ok(routing) => Ok((placement, routing, route_key)),
                    Err(e) => Err(AttemptError::Route(e)),
                }
            };

        // The first success in attempt order wins; results are consumed in
        // that order, so which attempt wins, which error surfaces and the
        // exact `attempts` count are independent of `MFB_THREADS`.
        let mut last_route_err = None;
        let stop = speculate(
            attempts,
            budget,
            attempt_once,
            |attempt, result| match result {
                Ok(won) => ControlFlow::Break(Ok((attempt, won))),
                // A budget interrupt in any stage of any attempt ends the whole
                // run with the flow-level typed error — later attempts would
                // only trip the same checkpoint.
                Err(AttemptError::Interrupt(why))
                | Err(AttemptError::Place(PlaceError::Interrupted(why)))
                | Err(AttemptError::Route(RouteError::Interrupted(why))) => {
                    ControlFlow::Break(Err(why.into()))
                }
                Err(AttemptError::Place(e)) => ControlFlow::Break(Err(e.into())),
                // A placement-independent routing error (e.g. a schedule the
                // router cannot account for) reproduces identically on every
                // placement — return it now instead of burning the remaining
                // attempt budget on a foregone conclusion.
                Err(AttemptError::Route(e)) if route_error_is_placement_independent(&e) => {
                    ControlFlow::Break(Err(SynthesisError::Route {
                        last: e,
                        attempts: attempt + 1,
                    }))
                }
                Err(AttemptError::Route(e)) => {
                    last_route_err = Some(e);
                    ControlFlow::Continue(())
                }
            },
        )?;
        let (attempt, (placement, mut routing, route_key)) = match (stop, last_route_err) {
            (Some(stop), _) => stop?,
            (None, Some(last)) => return Err(SynthesisError::Route { last, attempts }),
            (None, None) => unreachable!("attempts >= 1 and every attempt records or stops"),
        };
        budget.check().map_err(SynthesisError::from)?;
        if cfg.optimize_channels {
            let _span = mfb_obs::obs_span!("stage.optimize");
            routing = stages.optimize(&routing, &schedule, &placement, route_key);
        }
        Ok(Solution {
            schedule,
            netlist,
            placement,
            routing,
            attempts: attempt + 1,
        })
    }

    /// Runs only the scheduling and netlist stages, leaving their results
    /// in `cache` for a later cached [`synthesize_with`](Synthesizer::synthesize_with)
    /// to pick up warm. This is the "stage A" of the pipelined batch
    /// executor: scheduling of job *i+1* overlaps placement and routing of
    /// job *i*.
    ///
    /// # Errors
    ///
    /// [`SynthesisError::Sched`] when the assay cannot be bound; the error
    /// is cached, so the later full run replays it cheaply.
    pub fn prepare_cached(
        &self,
        graph: &SequencingGraph,
        components: &ComponentSet,
        wash: &dyn WashModel,
        defects: &DefectMap,
        cache: &StageCache,
    ) -> Result<(), SynthesisError> {
        let budget = Budget::unlimited();
        let stages = Stages::new(
            &self.config,
            graph,
            components,
            wash,
            defects,
            Some(cache),
            &budget,
        );
        let (schedule, schedule_h) = stages.schedule(self.config.t_c)?;
        stages.netlist(&schedule, schedule_h);
        Ok(())
    }

    /// The cache key under which this synthesizer's schedule for
    /// `(graph, components, wash, defects)` is stored. Useful with
    /// [`StageCache::contains_schedule`] to attribute warm hits
    /// deterministically before launching a batch.
    pub fn schedule_cache_key(
        &self,
        graph: &SequencingGraph,
        components: &ComponentSet,
        wash: &dyn WashModel,
        defects: &DefectMap,
    ) -> ContentHash {
        BaseKeys::new(graph, components, wash, defects)
            .schedule_key(&scheduler_config(&self.config, self.config.t_c))
    }
}

/// One retry-loop attempt's failure: a placement error aborts the whole
/// flow, a routing error is retried (unless placement-independent), and a
/// budget interrupt — whether caught at the attempt's own checkpoint or
/// inside a stage — aborts with the flow-level typed error.
enum AttemptError {
    Place(PlaceError),
    Route(RouteError),
    Interrupt(BudgetExceeded),
}

/// True when re-placing with a different seed or grid cannot change the
/// routing outcome: the error is a property of the schedule, not the layout.
pub(crate) fn route_error_is_placement_independent(e: &RouteError) -> bool {
    matches!(e, RouteError::InconsistentSchedule { .. })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wash() -> LogLinearWash {
        LogLinearWash::paper_calibrated()
    }

    fn tiny() -> (SequencingGraph, ComponentSet) {
        let mut b = SequencingGraph::builder();
        let d = DiffusionCoefficient::PROTEIN;
        let m0 = b.operation(OperationKind::Mix, Duration::from_secs(5), d);
        let m1 = b.operation(OperationKind::Mix, Duration::from_secs(5), d);
        let m2 = b.operation(OperationKind::Mix, Duration::from_secs(4), d);
        let dt = b.operation(OperationKind::Detect, Duration::from_secs(3), d);
        b.edge(m0, m2).unwrap();
        b.edge(m1, m2).unwrap();
        b.edge(m2, dt).unwrap();
        let g = b.build().unwrap();
        let comps = Allocation::new(2, 0, 0, 1).instantiate(&ComponentLibrary::default());
        (g, comps)
    }

    #[test]
    fn paper_flow_produces_verified_solution() {
        let (g, comps) = tiny();
        let s = Synthesizer::paper_dcsa()
            .synthesize(&g, &comps, &wash())
            .unwrap();
        let report = s.verify(&g, &comps, &wash());
        assert!(report.is_valid(), "{:?}", report.violations);
        assert_eq!(s.routing.completion(), s.schedule.completion_time());
        assert!(s.attempts >= 1);
    }

    #[test]
    fn baseline_flow_produces_verified_solution() {
        let (g, comps) = tiny();
        let s = Synthesizer::paper_baseline()
            .synthesize(&g, &comps, &wash())
            .unwrap();
        let report = s.verify(&g, &comps, &wash());
        assert!(report.is_valid(), "{:?}", report.violations);
        assert!(s.routing.completion() >= s.schedule.completion_time());
    }

    #[test]
    fn synthesis_is_deterministic() {
        let (g, comps) = tiny();
        let a = Synthesizer::paper_dcsa()
            .synthesize(&g, &comps, &wash())
            .unwrap();
        let b = Synthesizer::paper_dcsa()
            .synthesize(&g, &comps, &wash())
            .unwrap();
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.placement, b.placement);
        assert_eq!(a.routing, b.routing);
    }

    #[test]
    fn missing_component_kind_fails_cleanly() {
        let mut b = SequencingGraph::builder();
        b.operation(
            OperationKind::Filter,
            Duration::from_secs(2),
            DiffusionCoefficient::PROTEIN,
        );
        let g = b.build().unwrap();
        let comps = Allocation::new(1, 0, 0, 0).instantiate(&ComponentLibrary::default());
        let err = Synthesizer::paper_dcsa()
            .synthesize(&g, &comps, &wash())
            .unwrap_err();
        assert!(matches!(err, SynthesisError::Sched(_)));
    }

    #[test]
    fn explicit_grid_is_respected() {
        let (g, comps) = tiny();
        let mut cfg = SynthesisConfig::paper_dcsa();
        cfg.grid = Some(GridSpec::new(30, 20, 10.0));
        let s = Synthesizer::new(cfg)
            .synthesize(&g, &comps, &wash())
            .unwrap();
        assert_eq!(s.placement.grid().width, 30);
        assert_eq!(s.placement.grid().height, 20);
    }
}
