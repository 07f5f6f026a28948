//! The resilient synthesis driver: an explicit escalation ladder.
//!
//! [`Synthesizer::synthesize`] retries failed routings with fresh annealing
//! seeds and an occasional larger grid, but it has a single lever and no
//! memory of *why* an attempt failed. This module replaces that flat loop
//! with a typed ladder of recovery rungs, climbed in order:
//!
//! 1. **Reseed** — re-anneal the same problem with fresh seeds. Cheap, and
//!    sufficient when a destination was merely boxed in by wash shadows at
//!    exactly the wrong moment.
//! 2. **Grow grid** — enlarge the chip (4/3 linear per step). Recovers
//!    placements that are infeasible by area — including chips whose defect
//!    map has consumed too many cells, since defect coordinates are
//!    absolute and growth only adds pristine area.
//! 3. **Relax `t_c`** — lengthen the constant transport time and re-run
//!    Algorithm 1. Slower schedules overlap less, easing congestion the
//!    router could not untangle geometrically.
//! 4. **Rebind** — mark the component implicated in the failure as dead
//!    and re-run Algorithm 1 on the reduced allocation, routing the assay
//!    around the broken resource entirely.
//!
//! Every attempt is bounded by the per-rung budgets of a
//! [`RecoveryPolicy`], deterministically seeded, and wrapped in panic
//! containment: a stage that panics surfaces as
//! [`SynthesisError::StagePanic`] and the ladder climbs on. Errors that are
//! deterministic properties of the inputs (see
//! [`SynthesisError::is_deterministic`]) skip the remaining attempts of a
//! rung whose lever cannot affect them, and infeasibility proofs that no
//! rung can fix abort the ladder immediately. When every rung is
//! exhausted, the caller still receives the best partial artifacts as a
//! [`DegradedSolution`].

use crate::cache::StageCache;
use crate::config::SynthesisConfig;
use crate::error::SynthesisError;
use crate::flow::{route_error_is_placement_independent, Solution, Synthesizer};
use crate::pipeline::{grown_grid, speculate, Stages};
use mfb_model::prelude::*;
use mfb_place::prelude::*;
use mfb_route::prelude::*;
use mfb_sched::prelude::*;
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One rung of the escalation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rung {
    /// Re-anneal with a fresh seed on the original grid.
    Reseed,
    /// Enlarge the chip grid.
    GrowGrid,
    /// Lengthen the constant transport time `t_c` and reschedule.
    RelaxTc,
    /// Mark the implicated component dead and rebind around it.
    Rebind,
}

impl std::fmt::Display for Rung {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Rung::Reseed => "reseed",
            Rung::GrowGrid => "grow-grid",
            Rung::RelaxTc => "relax-tc",
            Rung::Rebind => "rebind",
        })
    }
}

/// Per-rung budgets for the escalation ladder. Every budget is an exact
/// attempt count, so a policy fully determines the ladder's behavior on a
/// given input — there is no wall-clock or randomized cutoff anywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Fresh-seed attempts on the original grid (rung 1).
    pub reseed_attempts: u32,
    /// Grid-growth steps, 4/3 linear each (rung 2).
    pub grow_steps: u32,
    /// `t_c` relaxation steps, +1 s each (rung 3).
    pub relax_tc_steps: u32,
    /// Rebind-around-failure attempts (rung 4).
    pub rebind_attempts: u32,
    /// Contain stage panics as [`SynthesisError::StagePanic`] instead of
    /// unwinding through the caller.
    pub catch_panics: bool,
}

impl RecoveryPolicy {
    /// The default ladder: 8 reseeds, 3 grid growths, 2 `t_c` relaxations,
    /// 2 rebinds, panics contained.
    pub fn standard() -> Self {
        RecoveryPolicy {
            reseed_attempts: 8,
            grow_steps: 3,
            relax_tc_steps: 2,
            rebind_attempts: 2,
            catch_panics: true,
        }
    }

    /// A policy equivalent to the flat retry loop: reseeding only, no
    /// escalation. Useful as the control arm in resilience experiments.
    pub fn reseed_only(attempts: u32) -> Self {
        RecoveryPolicy {
            reseed_attempts: attempts,
            grow_steps: 0,
            relax_tc_steps: 0,
            rebind_attempts: 0,
            catch_panics: true,
        }
    }
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy::standard()
    }
}

/// One recorded ladder attempt: which rung, with what parameters, and how
/// it failed (successful attempts end the ladder and are not recorded).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RungAttempt {
    /// The rung that made the attempt.
    pub rung: Rung,
    /// 1-based global attempt number across the whole ladder.
    pub attempt: u32,
    /// Human-readable parameters of the attempt (seed, grid, `t_c`, …).
    pub detail: String,
    /// Display form of the error the attempt produced.
    pub error: String,
}

/// The full failure history of one ladder run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecoveryTrace {
    /// Every failed attempt, in execution order.
    pub attempts: Vec<RungAttempt>,
}

impl RecoveryTrace {
    /// Number of failed attempts recorded.
    pub fn len(&self) -> usize {
        self.attempts.len()
    }

    /// True when the first attempt succeeded outright.
    pub fn is_empty(&self) -> bool {
        self.attempts.is_empty()
    }

    /// The distinct rungs that were tried, in first-use order.
    pub fn rungs_tried(&self) -> Vec<Rung> {
        let mut out = Vec::new();
        for a in &self.attempts {
            if !out.contains(&a.rung) {
                out.push(a.rung);
            }
        }
        out
    }
}

/// Best-effort artifacts from an exhausted ladder: whatever stages did
/// succeed on some attempt, for post-mortem inspection or manual repair.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedSolution {
    /// The last schedule that bound successfully, if any attempt got that
    /// far.
    pub schedule: Option<Schedule>,
    /// The last placement that legalized successfully, if any attempt got
    /// that far.
    pub placement: Option<Placement>,
}

/// The complete result of a resilient synthesis run.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilientOutcome {
    /// The solution, or the last error once every rung was exhausted.
    pub result: Result<Solution, SynthesisError>,
    /// Every failed attempt along the way.
    pub trace: RecoveryTrace,
    /// Best partial artifacts when `result` is an error; `None` on
    /// success.
    pub degraded: Option<DegradedSolution>,
}

impl ResilientOutcome {
    /// The solution, when synthesis succeeded.
    pub fn solution(&self) -> Option<&Solution> {
        self.result.as_ref().ok()
    }

    /// True when synthesis succeeded on some rung.
    pub fn is_success(&self) -> bool {
        self.result.is_ok()
    }
}

/// Latest per-stage artifacts across all attempts, feeding the
/// [`DegradedSolution`] report.
#[derive(Default)]
struct Partial {
    schedule: Option<Schedule>,
    placement: Option<Placement>,
}

impl Partial {
    /// Folds one attempt's artifacts in: a stage that ran overwrites the
    /// stored artifact, a stage that was never reached leaves it alone —
    /// consumed in attempt order, this reproduces the serial ladder's
    /// "latest artifact wins" bookkeeping exactly.
    fn absorb(&mut self, other: Partial) {
        if other.schedule.is_some() {
            self.schedule = other.schedule;
        }
        if other.placement.is_some() {
            self.placement = other.placement;
        }
    }
}

impl Synthesizer {
    /// Runs the full flow under the escalation ladder described in the
    /// [module docs](self), honoring `defects` in every stage.
    ///
    /// Unlike [`synthesize`](Synthesizer::synthesize) this never panics on
    /// a stage bug (with `catch_panics` set) and never returns empty-handed:
    /// an exhausted ladder still reports its failure history and best
    /// partial artifacts.
    pub fn synthesize_resilient(
        &self,
        graph: &SequencingGraph,
        components: &ComponentSet,
        wash: &dyn WashModel,
        defects: &DefectMap,
        policy: &RecoveryPolicy,
    ) -> ResilientOutcome {
        // The ladder always climbs through a stage cache: rungs that vary
        // only one lever (a fresh SA seed, a grown grid) reuse the bound
        // schedule and netlist of earlier rungs instead of recomputing
        // them, and validation runs once per distinct schedule.
        self.synthesize_resilient_budgeted(
            graph,
            components,
            wash,
            defects,
            policy,
            &StageCache::new(),
            &Budget::unlimited(),
        )
    }

    /// [`synthesize_resilient`](Synthesizer::synthesize_resilient) through
    /// a caller-owned [`StageCache`] and under an execution [`Budget`].
    ///
    /// A shared cache lets batch executors reuse warm stage results across
    /// ladder runs; the ladder's behavior — which rungs climb, the recorded
    /// trace, the result — is byte-identical with any cache state, only
    /// the work skipped differs. The budget is polled at every rung
    /// boundary and inside each attempt's stages; when it trips, the ladder
    /// stops climbing and the outcome carries
    /// [`SynthesisError::DeadlineExceeded`] or
    /// [`SynthesisError::Cancelled`] **plus** the trace and best partial
    /// artifacts accumulated so far — an expired job still reports how far
    /// it got. A run that finishes within its budget is byte-identical to
    /// an unlimited run.
    #[allow(clippy::too_many_arguments)]
    pub fn synthesize_resilient_budgeted(
        &self,
        graph: &SequencingGraph,
        components: &ComponentSet,
        wash: &dyn WashModel,
        defects: &DefectMap,
        policy: &RecoveryPolicy,
        cache: &StageCache,
        budget: &Budget,
    ) -> ResilientOutcome {
        let _span = mfb_obs::obs_span!(
            "flow.resilient",
            ops = graph.ops().count() as u64,
            components = components.len() as u64,
        );
        let cfg = self.config();
        let ladder = Ladder {
            cfg,
            graph,
            components,
            wash,
            cache,
            catch: policy.catch_panics,
            budget,
        };
        let base_grid = cfg.grid.unwrap_or_else(|| auto_grid(components));
        let max_grid = grown_grid(base_grid, policy.grow_steps);

        let mut climb = Climb::default();
        let mut defects_now = defects.clone();

        // Each rung records failures and decides whether climbing further
        // can possibly help; `break 'ladder` is the "provably hopeless"
        // exit, falling off the block end the "budgets exhausted" one.
        'ladder: {
            // ---- Rung 1: fresh seeds on the original grid. ----
            // Each attempt is a pure function of its seed and results are
            // consumed in seed order, so the outcome and the recorded trace
            // are byte-identical to the serial rung for any `MFB_THREADS`.
            let seed_of = |i: u32| cfg.sa.seed.wrapping_add(u64::from(i));
            let reseeds = speculate(
                policy.reseed_attempts.max(1),
                budget,
                |i| ladder.attempt(base_grid, seed_of(i), cfg.t_c, &defects_now, i + 1),
                |i, outcome| {
                    climb.attempt_no = i + 1;
                    let detail = || {
                        format!(
                            "seed {} on {}x{} grid",
                            seed_of(i),
                            base_grid.width,
                            base_grid.height
                        )
                    };
                    match climb.settle(Rung::Reseed, detail, outcome) {
                        Some(solution) => ControlFlow::Break(Some(solution)),
                        // The seed is the only thing this rung varies: an
                        // error that does not depend on it escalates
                        // without burning the rest of the budget.
                        None if climb.hopeless() || climb.deterministic() => {
                            ControlFlow::Break(None)
                        }
                        None => ControlFlow::Continue(()),
                    }
                },
            );
            match reseeds {
                Ok(stop) => {
                    if let Some(solution) = stop.flatten() {
                        return success(solution, climb.trace, Rung::Reseed, climb.attempt_no);
                    }
                }
                Err(why) => climb.last_err = Some(why.into()),
            }
            if climb.hopeless() {
                break 'ladder;
            }

            // ---- Rung 2: grow the grid. ----
            for g in 1..=policy.grow_steps {
                if climb.interrupted(budget) {
                    break 'ladder;
                }
                climb.attempt_no += 1;
                let grid = grown_grid(base_grid, g);
                let seed = cfg
                    .sa
                    .seed
                    .wrapping_add(u64::from(policy.reseed_attempts.max(1) + g));
                let outcome = ladder.attempt(grid, seed, cfg.t_c, &defects_now, climb.attempt_no);
                let detail = || format!("grown to {}x{} grid", grid.width, grid.height);
                if let Some(solution) = climb.settle(Rung::GrowGrid, detail, outcome) {
                    return success(solution, climb.trace, Rung::GrowGrid, climb.attempt_no);
                }
                if climb.hopeless() {
                    break 'ladder;
                }
            }

            // ---- Rung 3: relax t_c and reschedule. ----
            for k in 1..=policy.relax_tc_steps {
                if climb.interrupted(budget) {
                    break 'ladder;
                }
                climb.attempt_no += 1;
                let t_c = cfg.t_c + Duration::from_secs(u64::from(k));
                let outcome =
                    ladder.attempt(max_grid, cfg.sa.seed, t_c, &defects_now, climb.attempt_no);
                let detail = || format!("t_c relaxed to {t_c}");
                if let Some(solution) = climb.settle(Rung::RelaxTc, detail, outcome) {
                    return success(solution, climb.trace, Rung::RelaxTc, climb.attempt_no);
                }
                if climb.hopeless() {
                    break 'ladder;
                }
            }

            // ---- Rung 4: rebind around the implicated component. ----
            for _ in 0..policy.rebind_attempts {
                if climb.interrupted(budget) {
                    break 'ladder;
                }
                let Some(victim) = implicated_component(
                    climb.last_err.as_ref(),
                    climb.partial.schedule.as_ref(),
                    components,
                    &defects_now,
                ) else {
                    break;
                };
                defects_now.kill_component(victim);
                climb.attempt_no += 1;
                let outcome = ladder.attempt(
                    max_grid,
                    cfg.sa.seed,
                    cfg.t_c,
                    &defects_now,
                    climb.attempt_no,
                );
                let detail = || format!("component {victim} marked dead, rebound");
                if let Some(solution) = climb.settle(Rung::Rebind, detail, outcome) {
                    return success(solution, climb.trace, Rung::Rebind, climb.attempt_no);
                }
                if climb.hopeless() {
                    break 'ladder;
                }
            }
        }

        let last = climb.last_err.unwrap_or(SynthesisError::StagePanic {
            stage: "ladder",
            message: "no attempt was made".to_string(),
        });
        ResilientOutcome {
            result: Err(last),
            trace: climb.trace,
            degraded: Some(DegradedSolution {
                schedule: climb.partial.schedule,
                placement: climb.partial.placement,
            }),
        }
    }
}

/// The ladder's running state: the failure history, the latest partial
/// artifacts, the last error and the 1-based number of the latest attempt.
#[derive(Default)]
struct Climb {
    trace: RecoveryTrace,
    partial: Partial,
    last_err: Option<SynthesisError>,
    attempt_no: u32,
}

impl Climb {
    /// Folds attempt `attempt_no`'s outcome in: its artifacts always, its
    /// failure (described by `detail`) into the trace and `last_err`.
    /// Returns the solution when the attempt succeeded.
    fn settle(
        &mut self,
        rung: Rung,
        detail: impl FnOnce() -> String,
        (result, artifacts): (Result<Solution, SynthesisError>, Partial),
    ) -> Option<Solution> {
        self.partial.absorb(artifacts);
        let e = match result {
            Ok(solution) => return Some(solution),
            Err(e) => e,
        };
        record_attempt(
            &mut self.trace,
            RungAttempt {
                rung,
                attempt: self.attempt_no,
                detail: detail(),
                error: e.to_string(),
            },
        );
        self.last_err = Some(e);
        None
    }

    /// True when the last error is an infeasibility proof no rung can fix.
    fn hopeless(&self) -> bool {
        self.last_err.as_ref().is_some_and(globally_fatal)
    }

    /// True when the last error does not depend on the annealing seed.
    fn deterministic(&self) -> bool {
        self.last_err
            .as_ref()
            .is_some_and(SynthesisError::is_deterministic)
    }

    /// Polls `budget` at a rung boundary, recording a trip as the last
    /// error.
    fn interrupted(&mut self, budget: &Budget) -> bool {
        match budget.check() {
            Ok(()) => false,
            Err(why) => {
                self.last_err = Some(why.into());
                true
            }
        }
    }
}

fn success(solution: Solution, trace: RecoveryTrace, rung: Rung, attempt: u32) -> ResilientOutcome {
    mfb_obs::obs_instant!(
        "recovery.rung",
        rung = rung.to_string(),
        attempt = attempt,
        outcome = "recovered",
    );
    ResilientOutcome {
        result: Ok(solution),
        trace,
        degraded: None,
    }
}

/// Records one failed rung attempt in the trace and mirrors it as a
/// `recovery.rung` instant event.
fn record_attempt(trace: &mut RecoveryTrace, attempt: RungAttempt) {
    mfb_obs::obs_instant!(
        "recovery.rung",
        rung = attempt.rung.to_string(),
        attempt = attempt.attempt,
        outcome = "failed",
        error = attempt.error.clone(),
    );
    trace.attempts.push(attempt);
}

/// True when no rung of the ladder can change the outcome: the error is an
/// infeasibility proof for the inputs themselves.
fn globally_fatal(e: &SynthesisError) -> bool {
    match e {
        // Scheduling failures are about the allocation: no grid, seed, or
        // t_c adds components, and rebinding only removes them.
        SynthesisError::Sched(_) => true,
        SynthesisError::Route { last, .. } => route_error_is_placement_independent(last),
        // A tripped budget can only trip again: every further rung attempt
        // would abort at its first checkpoint.
        SynthesisError::DeadlineExceeded | SynthesisError::Cancelled => true,
        _ => false,
    }
}

/// The component most plausibly responsible for `err`, when one can be
/// named and killing it leaves at least one live component of its kind.
fn implicated_component(
    err: Option<&SynthesisError>,
    schedule: Option<&Schedule>,
    components: &ComponentSet,
    defects: &DefectMap,
) -> Option<ComponentId> {
    let candidate = match err? {
        SynthesisError::Route { last, .. } => match last {
            RouteError::NoPorts { component } => Some(*component),
            // An unroutable transport most often cannot *reach* its
            // destination; retire the destination so rebinding moves the
            // consuming operation elsewhere.
            RouteError::Unroutable { task } | RouteError::CorrectionDiverged { task } => {
                schedule.map(|s| s.transport(*task).dst)
            }
            _ => None,
        },
        _ => None,
    }?;
    if defects.is_dead(candidate) {
        return None;
    }
    let kind = components.component(candidate).kind();
    let live_peers = components
        .of_kind(kind)
        .filter(|&c| c != candidate && !defects.is_dead(c))
        .count();
    (live_peers >= 1).then_some(candidate)
}

/// The inputs every ladder attempt shares.
struct Ladder<'a> {
    cfg: &'a SynthesisConfig,
    graph: &'a SequencingGraph,
    components: &'a ComponentSet,
    wash: &'a dyn WashModel,
    cache: &'a StageCache,
    catch: bool,
    budget: &'a Budget,
}

impl Ladder<'_> {
    /// One full pipeline run at fixed parameters, each stage individually
    /// panic-guarded. Returns the attempt's own artifacts alongside the
    /// result (instead of mutating shared state) so attempts can run
    /// concurrently and be folded into [`Partial`] in attempt order.
    fn attempt(
        &self,
        grid: GridSpec,
        seed: u64,
        t_c: Duration,
        defects: &DefectMap,
        attempt_no: u32,
    ) -> (Result<Solution, SynthesisError>, Partial) {
        let mut partial = Partial::default();
        let result = self.attempt_inner(grid, seed, t_c, defects, attempt_no, &mut partial);
        // Normalize stage-level interrupts (`PlaceError::Interrupted`,
        // `RouteError::Interrupted`) to the flow-level typed error so the
        // ladder and the trace see one canonical shape.
        let result = result.map_err(|e| match e.interrupt() {
            Some(why) => why.into(),
            None => e,
        });
        (result, partial)
    }

    /// The `?`-friendly body of [`attempt`](Ladder::attempt).
    fn attempt_inner(
        &self,
        grid: GridSpec,
        seed: u64,
        t_c: Duration,
        defects: &DefectMap,
        attempt_no: u32,
        partial: &mut Partial,
    ) -> Result<Solution, SynthesisError> {
        let catch = self.catch;
        self.budget.check().map_err(SynthesisError::from)?;
        // Rebuilt per attempt because the rebind rung mutates the defect
        // map, which participates in every stage key.
        let stages = Stages::new(
            self.cfg,
            self.graph,
            self.components,
            self.wash,
            defects,
            Some(self.cache),
            self.budget,
        );
        let (schedule, schedule_h) = guard("schedule", catch, || {
            stages.schedule(t_c).map_err(Into::into)
        })?;
        partial.schedule = Some(schedule.clone());
        let (netlist, netlist_key) = stages.netlist(&schedule, schedule_h);

        let (placement, place_h) = guard("place", catch, || {
            stages
                .place(&netlist, netlist_key, grid, seed)
                .map_err(Into::into)
        })?;
        partial.placement = Some(placement.clone());

        let routing = guard("route", catch, || {
            let (routed, route_key) = stages.route(&schedule, schedule_h, &placement, place_h);
            let routing = routed.map_err(|e| SynthesisError::Route {
                last: e,
                attempts: attempt_no,
            })?;
            Ok(if self.cfg.optimize_channels {
                stages.optimize(&routing, &schedule, &placement, route_key)
            } else {
                routing
            })
        })?;

        Ok(Solution {
            schedule,
            netlist,
            placement,
            routing,
            attempts: attempt_no,
        })
    }
}

/// Runs `f`, converting a panic into [`SynthesisError::StagePanic`] when
/// `catch` is set.
fn guard<T>(
    stage: &'static str,
    catch: bool,
    f: impl FnOnce() -> Result<T, SynthesisError>,
) -> Result<T, SynthesisError> {
    if !catch {
        return f();
    }
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(SynthesisError::StagePanic { stage, message })
        }
    }
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
        let dt = b.operation(OperationKind::Detect, Duration::from_secs(3), d);
        b.edge(m0, m1).unwrap();
        b.edge(m1, dt).unwrap();
        let g = b.build().unwrap();
        let comps = Allocation::new(2, 0, 0, 1).instantiate(&ComponentLibrary::default());
        (g, comps)
    }

    #[test]
    fn first_attempt_success_leaves_an_empty_trace() {
        let (g, comps) = tiny();
        let out = Synthesizer::paper_dcsa().synthesize_resilient(
            &g,
            &comps,
            &wash(),
            &DefectMap::pristine(),
            &RecoveryPolicy::standard(),
        );
        assert!(out.is_success());
        assert!(out.trace.is_empty());
        assert!(out.degraded.is_none());
        let plain = Synthesizer::paper_dcsa()
            .synthesize(&g, &comps, &wash())
            .unwrap();
        assert_eq!(out.solution().unwrap().placement, plain.placement);
        assert_eq!(out.solution().unwrap().routing, plain.routing);
    }

    #[test]
    fn grow_grid_rung_recovers_a_too_small_chip() {
        let (g, comps) = tiny();
        // A 6x6 grid cannot hold two 4x3 mixers and a detector with
        // clearance: the flat loop dies instantly on the placement error...
        let mut cfg = SynthesisConfig::paper_dcsa();
        cfg.grid = Some(GridSpec::new(6, 6, 10.0));
        let flat = Synthesizer::new(cfg.clone()).synthesize(&g, &comps, &wash());
        assert!(matches!(flat, Err(SynthesisError::Place(_))));
        // ...and reseeding alone cannot help either...
        let reseed_only = Synthesizer::new(cfg.clone()).synthesize_resilient(
            &g,
            &comps,
            &wash(),
            &DefectMap::pristine(),
            &RecoveryPolicy::reseed_only(8),
        );
        assert!(!reseed_only.is_success());
        // ...but the grid-growth rung does.
        let out = Synthesizer::new(cfg).synthesize_resilient(
            &g,
            &comps,
            &wash(),
            &DefectMap::pristine(),
            &RecoveryPolicy::standard(),
        );
        assert!(out.is_success(), "{:?}", out.result);
        assert!(out.trace.rungs_tried().contains(&Rung::GrowGrid));
        // The deterministic placement error must not have burnt the whole
        // reseed budget: one attempt, then escalate.
        let reseeds = out
            .trace
            .attempts
            .iter()
            .filter(|a| a.rung == Rung::Reseed)
            .count();
        assert_eq!(reseeds, 1);
    }

    #[test]
    fn infeasible_allocation_fails_fast_with_degraded_report() {
        let mut b = SequencingGraph::builder();
        b.operation(
            OperationKind::Filter,
            Duration::from_secs(2),
            DiffusionCoefficient::PROTEIN,
        );
        let g = b.build().unwrap();
        let comps = Allocation::new(1, 0, 0, 0).instantiate(&ComponentLibrary::default());
        let out = Synthesizer::paper_dcsa().synthesize_resilient(
            &g,
            &comps,
            &wash(),
            &DefectMap::pristine(),
            &RecoveryPolicy::standard(),
        );
        assert!(matches!(out.result, Err(SynthesisError::Sched(_))));
        // A scheduling infeasibility proof aborts the ladder after one
        // attempt — no rung adds components.
        assert_eq!(out.trace.len(), 1);
        let degraded = out.degraded.unwrap();
        assert!(degraded.schedule.is_none());
        assert!(degraded.placement.is_none());
    }

    #[test]
    fn fully_dead_allocation_is_a_structured_error() {
        let (g, comps) = tiny();
        let mut defects = DefectMap::pristine();
        for c in comps.ids() {
            defects.kill_component(c);
        }
        let out = Synthesizer::paper_dcsa().synthesize_resilient(
            &g,
            &comps,
            &wash(),
            &defects,
            &RecoveryPolicy::standard(),
        );
        assert!(matches!(out.result, Err(SynthesisError::Sched(_))));
    }

    #[test]
    fn panic_guard_produces_stage_panic() {
        let r: Result<(), SynthesisError> = guard("test-stage", true, || panic!("boom"));
        match r {
            Err(SynthesisError::StagePanic { stage, message }) => {
                assert_eq!(stage, "test-stage");
                assert!(message.contains("boom"));
            }
            other => panic!("expected StagePanic, got {other:?}"),
        }
    }

    #[test]
    fn panic_guard_disabled_lets_panics_through() {
        let caught = std::panic::catch_unwind(|| {
            let _ = guard::<()>("test-stage", false, || panic!("boom"));
        });
        assert!(caught.is_err());
    }

    #[test]
    fn implicated_component_respects_last_live_guard() {
        let (_g, comps) = tiny();
        // Two mixers c0, c1: killing one is allowed while the other lives.
        let err = SynthesisError::Route {
            last: RouteError::NoPorts {
                component: ComponentId::new(0),
            },
            attempts: 1,
        };
        let defects = DefectMap::pristine();
        assert_eq!(
            implicated_component(Some(&err), None, &comps, &defects),
            Some(ComponentId::new(0))
        );
        let mut one_dead = DefectMap::pristine();
        one_dead.kill_component(ComponentId::new(1));
        assert_eq!(
            implicated_component(Some(&err), None, &comps, &one_dead),
            None,
            "must refuse to kill the last live component of a kind"
        );
    }
}
