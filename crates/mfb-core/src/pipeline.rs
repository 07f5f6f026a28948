//! The one synthesis pipeline the flow and the ladder run: the schedule →
//! netlist front half, the placement and routing dispatch, and the
//! speculative attempt runner.
//!
//! [`Synthesizer::synthesize`](crate::flow::Synthesizer::synthesize) calls
//! these stages directly, inside its trace spans; the recovery ladder
//! ([`crate::recovery`]) wraps each in its panic guard. Both feed their
//! retry attempts through [`speculate`], each with its own seed/grid plan
//! and stop rule.

use crate::cache::{StageCache, StageCtx};
use crate::config::{PlacementStrategy, RoutingStrategy, SynthesisConfig};
use mfb_model::hash::ContentHash;
use mfb_model::prelude::*;
use mfb_place::prelude::*;
use mfb_route::prelude::*;
use mfb_sched::prelude::*;
use std::ops::ControlFlow;

/// The scheduler configuration of Algorithm 1 under `cfg` at constant
/// transport time `t_c` (the ladder's relax rung varies it).
pub(crate) fn scheduler_config(cfg: &SynthesisConfig, t_c: Duration) -> SchedulerConfig {
    SchedulerConfig {
        t_c,
        rule: cfg.binding,
    }
}

/// `base` grown `steps` times by 4/3 linear, with the step count capped so
/// the factor arithmetic cannot overflow however far a caller escalates.
pub(crate) fn grown_grid(base: GridSpec, steps: u32) -> GridSpec {
    let steps = steps.min(8);
    let side = |s: u32| {
        let grown = u64::from(s) * 4u64.pow(steps) / 3u64.pow(steps);
        (grown.min(u64::from(u32::MAX)) as u32).max(s)
    };
    GridSpec::new(side(base.width), side(base.height), base.pitch_mm)
}

/// The stages of one synthesis run on fixed inputs, each computed through
/// the optional [`StageCache`] and polling `budget` in its inner loops.
pub(crate) struct Stages<'a> {
    cfg: &'a SynthesisConfig,
    graph: &'a SequencingGraph,
    components: &'a ComponentSet,
    wash: &'a dyn WashModel,
    defects: &'a DefectMap,
    budget: &'a Budget,
    ctx: StageCtx<'a>,
}

impl<'a> Stages<'a> {
    pub(crate) fn new(
        cfg: &'a SynthesisConfig,
        graph: &'a SequencingGraph,
        components: &'a ComponentSet,
        wash: &'a dyn WashModel,
        defects: &'a DefectMap,
        cache: Option<&'a StageCache>,
        budget: &'a Budget,
    ) -> Self {
        Stages {
            cfg,
            graph,
            components,
            wash,
            defects,
            budget,
            ctx: StageCtx::new(cache, graph, components, wash, defects),
        }
    }

    /// Front half, step 1: bind and schedule (Algorithm 1) at transport
    /// time `t_c`. Returns the schedule and its cache hash.
    pub(crate) fn schedule(&self, t_c: Duration) -> Result<(Schedule, ContentHash), SchedError> {
        let sched_cfg = scheduler_config(self.cfg, t_c);
        self.ctx
            .schedule(&sched_cfg, self.graph, self.components, || {
                schedule_with_defects(
                    self.graph,
                    self.components,
                    self.wash,
                    &sched_cfg,
                    self.defects,
                )
            })
    }

    /// Front half, step 2: the routing netlist with its Eq. (4) connection
    /// priorities. Returns the netlist and its cache key.
    pub(crate) fn netlist(
        &self,
        schedule: &Schedule,
        schedule_h: ContentHash,
    ) -> (NetList, ContentHash) {
        let cfg = self.cfg;
        self.ctx.netlist(schedule_h, cfg.beta, cfg.gamma, || {
            NetList::build(schedule, self.graph, self.wash, cfg.beta, cfg.gamma)
        })
    }

    /// Places the components on `grid`; `seed` is the attempt's annealing
    /// seed (ignored by the seedless constructive placer).
    pub(crate) fn place(
        &self,
        netlist: &NetList,
        netlist_key: ContentHash,
        grid: GridSpec,
        seed: u64,
    ) -> Result<(Placement, ContentHash), PlaceError> {
        let cfg = self.cfg;
        self.ctx
            .place(netlist_key, grid, cfg, seed, || match cfg.placement {
                PlacementStrategy::SimulatedAnnealing => {
                    // Delegates to the plain single-chain loop when
                    // `cfg.sa.chains <= 1` (the paper configuration).
                    let sa = SaConfig { seed, ..cfg.sa };
                    place_sa_tempered_budgeted(
                        self.components,
                        netlist,
                        grid,
                        &sa,
                        self.defects,
                        self.budget,
                    )
                    .map(|(p, _)| p)
                }
                PlacementStrategy::Constructive => place_constructive_with_defects(
                    self.components,
                    netlist,
                    grid,
                    SpacingParams::default_routing(),
                    self.defects,
                ),
            })
    }

    /// Routes every transport of `schedule` on `placement`. Returns the
    /// result (errors carry no attempt number — the caller stamps its own)
    /// and the routing cache key for [`optimize`](Stages::optimize).
    pub(crate) fn route(
        &self,
        schedule: &Schedule,
        schedule_h: ContentHash,
        placement: &Placement,
        place_h: ContentHash,
    ) -> (Result<Routing, RouteError>, ContentHash) {
        let cfg = self.cfg;
        self.ctx
            .route(schedule_h, place_h, cfg, || match cfg.routing {
                RoutingStrategy::ConflictAware => route_dcsa_budgeted(
                    schedule,
                    self.graph,
                    placement,
                    self.wash,
                    &cfg.router,
                    self.defects,
                    &mut SearchScratch::new(),
                    self.budget,
                ),
                RoutingStrategy::ConstructionByCorrection => route_corrected_with_defects(
                    schedule,
                    self.graph,
                    placement,
                    self.wash,
                    &cfg.router,
                    self.defects,
                ),
            })
    }

    /// The post-routing channel-length cleanup of `routing`, keyed off its
    /// routing key. Callers run it only when `optimize_channels` is set.
    pub(crate) fn optimize(
        &self,
        routing: &Routing,
        schedule: &Schedule,
        placement: &Placement,
        route_key: ContentHash,
    ) -> Routing {
        self.ctx.optimize(route_key, || {
            optimize_channel_length_with_defects(
                routing,
                schedule,
                self.graph,
                placement,
                self.wash,
                &self.cfg.router,
                self.defects,
            )
        })
    }
}

/// Runs `attempt` for the indices `0..attempts` and hands each result to
/// `consume` in index order until it breaks.
///
/// Attempt 0 runs alone (the common case succeeds first try, and a caller
/// may need to react to a failure after exactly one try); later attempts
/// run speculatively in batches of [`worker_limit`](mfb_model::par::worker_limit)
/// through [`par_map_ordered`](mfb_model::par::par_map_ordered). `attempt`
/// must be a pure function of its index, so `consume` sees the same
/// sequence — and the caller decides the same outcome — for any
/// `MFB_THREADS`; only the attempts computed past the stopping one are
/// wasted.
///
/// Returns what `consume` broke with, `None` when every attempt was
/// consumed, or the budget error when `budget` trips before a batch.
pub(crate) fn speculate<R: Send, B>(
    attempts: u32,
    budget: &Budget,
    attempt: impl Fn(u32) -> R + Sync,
    mut consume: impl FnMut(u32, R) -> ControlFlow<B>,
) -> Result<Option<B>, BudgetExceeded> {
    let batch = mfb_model::par::worker_limit() as u32;
    let mut start = 0u32;
    while start < attempts {
        budget.check()?;
        let chunk = if start == 0 {
            1
        } else {
            (attempts - start).min(batch)
        };
        let results =
            mfb_model::par::par_map_ordered(chunk as usize, |k| attempt(start + k as u32));
        for (k, result) in results.into_iter().enumerate() {
            if let ControlFlow::Break(stop) = consume(start + k as u32, result) {
                return Ok(Some(stop));
            }
        }
        start += chunk;
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn speculation_runs_at_most_one_worker_batch_past_the_winner() {
        let workers = mfb_model::par::worker_limit() as u32;
        let ran = AtomicU32::new(0);
        let mut consumed = Vec::new();
        let stop = speculate(
            24,
            &Budget::unlimited(),
            |i| {
                ran.fetch_add(1, Ordering::Relaxed);
                i
            },
            |i, r| {
                assert_eq!(i, r);
                consumed.push(i);
                if i == 2 {
                    ControlFlow::Break(i)
                } else {
                    ControlFlow::Continue(())
                }
            },
        );
        assert_eq!(stop, Ok(Some(2)));
        assert_eq!(consumed, [0, 1, 2], "results are consumed in order");
        // Attempt 0 alone, then batches of `workers` until attempt 2.
        let batches = 2u32.div_ceil(workers);
        assert_eq!(ran.load(Ordering::Relaxed), 1 + batches * workers);
    }
}
