//! The replay engine: rebuilds the chip's cell-level activity timeline from
//! a complete solution and checks every physical rule against it.

use crate::stats::SimStats;
use crate::violation::SimViolation;
use mfb_model::prelude::*;
use mfb_place::prelude::Placement;
use mfb_route::prelude::Routing;
use mfb_sched::prelude::{FluidDelivery, Schedule};

/// The outcome of replaying a solution.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Everything that went wrong; empty means the solution is physically
    /// executable.
    pub violations: Vec<SimViolation>,
    /// Activity statistics gathered during the replay.
    pub stats: SimStats,
}

impl SimReport {
    /// `true` when the replay found no violations.
    pub fn is_valid(&self) -> bool {
        self.violations.is_empty()
    }
}

/// One cell-occupancy event on the replay timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Occupancy {
    pub(crate) task: TaskId,
    pub(crate) fluid: OpId,
    pub(crate) window: Interval,
}

/// Replays the complete solution `(schedule, placement, routing)` for
/// `graph` on `components` and checks, independently of how the solution
/// was produced:
///
/// * placement legality;
/// * path integrity (contiguity, endpoints on the right component
///   boundaries, no traversal of component interiors);
/// * the three transportation-conflict classes of §II-C.2, cell by cell;
/// * fluid lifetimes (channel occupancy between producer end and consumer
///   start, under the routing's *realized* times);
/// * operation precedence and component exclusivity under realized times.
///
/// The checks share no code with the schedulers or routers — this is the
/// cross-check that catches bugs in either.
pub fn replay(
    graph: &SequencingGraph,
    components: &ComponentSet,
    schedule: &Schedule,
    placement: &Placement,
    routing: &Routing,
    wash: &dyn WashModel,
) -> SimReport {
    let mut violations = Vec::new();

    // Dimensional sanity first: replaying an archived solution against the
    // wrong assay or chip must report cleanly, not panic on an index.
    let shape = |what: &'static str| SimViolation::ShapeMismatch { what };
    if schedule.ops().len() != graph.len() {
        violations.push(shape("operation count"));
    }
    if routing.realized.start.len() != graph.len() || routing.realized.end.len() != graph.len() {
        violations.push(shape("realized-time vector length"));
    }
    if placement.len() != components.len() {
        violations.push(shape("component count"));
    }
    if routing.paths.len() != schedule.transports().len() {
        violations.push(shape("transport count"));
    }
    if schedule
        .ops()
        .any(|s| s.op.index() >= graph.len() || s.component.index() >= components.len())
        || schedule
            .transports()
            .any(|t| t.fluid.index() >= graph.len() || t.consumer.index() >= graph.len())
        || schedule
            .deliveries()
            .any(|&(p, c, _)| p.index() >= graph.len() || c.index() >= graph.len())
    {
        violations.push(shape("id out of range"));
    }
    if !violations.is_empty() {
        return SimReport {
            violations,
            stats: SimStats {
                makespan: Duration::ZERO,
                peak_parallel_transports: 0,
                realized_cache_time: Duration::ZERO,
                channel_occupancy: Duration::ZERO,
                used_cells: 0,
            },
        };
    }

    if !placement.is_legal() {
        violations.push(SimViolation::IllegalPlacement);
    }

    check_paths(schedule, placement, routing, &mut violations);
    let timeline = build_timeline(routing, placement.grid());
    check_conflicts(&timeline, placement.grid(), graph, wash, &mut violations);
    check_lifetimes(schedule, routing, &mut violations);
    check_operations(graph, components, schedule, routing, &mut violations);

    let stats = SimStats::collect(schedule, routing, &timeline, placement.grid());
    SimReport { violations, stats }
}

/// Path integrity: every transport has a contiguous path from its source
/// component's boundary to its destination's, avoiding all interiors.
fn check_paths(
    schedule: &Schedule,
    placement: &Placement,
    routing: &Routing,
    violations: &mut Vec<SimViolation>,
) {
    for t in schedule.transports() {
        let Some(path) = routing.paths.get(t.id.index()) else {
            violations.push(SimViolation::MissingPath { task: t.id });
            continue;
        };
        if path.is_empty() || path.cells.len() != path.windows.len() {
            violations.push(SimViolation::MissingPath { task: t.id });
            continue;
        }
        for w in path.cells.windows(2) {
            // Remote parking splices two legs; a repeated cell (distance 0)
            // at the splice is physically a U-turn and acceptable.
            if w[0].manhattan(w[1]) > 1 {
                violations.push(SimViolation::PathDiscontiguous { task: t.id });
                break;
            }
        }
        let grid = placement.grid();
        for &cell in &path.cells {
            if !grid.contains(cell) {
                violations.push(SimViolation::PathDiscontiguous { task: t.id });
                break;
            }
            for (i, &rect) in placement.rects().iter().enumerate() {
                if rect.contains(cell) {
                    violations.push(SimViolation::PathThroughComponent {
                        task: t.id,
                        cell,
                        component: ComponentId::new(i as u32),
                    });
                }
            }
        }
        // Endpoints must be orthogonally adjacent to their component
        // (a diagonal corner cell is not a port connection).
        let touches = |c: ComponentId, cell: CellPos| {
            let rect = placement.rect(c);
            !rect.contains(cell)
                && cell
                    .neighbours(grid.width, grid.height)
                    .any(|nb| rect.contains(nb))
        };
        let first = path.cells[0];
        let last = *path.cells.last().expect("non-empty");
        if !touches(t.src, first) || !touches(t.dst, last) {
            violations.push(SimViolation::BadEndpoint { task: t.id });
        }
    }
}

/// Groups occupancies per cell, sorted by window start.
fn build_timeline(routing: &Routing, grid: GridSpec) -> Vec<Vec<Occupancy>> {
    let mut timeline: Vec<Vec<Occupancy>> = vec![Vec::new(); grid.cell_count() as usize];
    for path in &routing.paths {
        for (cell, window) in path.occupancies() {
            if grid.contains(cell) {
                timeline[grid.index(cell)].push(Occupancy {
                    task: path.task,
                    fluid: path.fluid,
                    window,
                });
            }
        }
    }
    for cell in &mut timeline {
        cell.sort_by_key(|o| (o.window.start, o.window.end, o.task));
        // A task may book a cell twice (remote parking legs); merge exact
        // duplicates to avoid self-reports.
        cell.dedup();
    }
    timeline
}

/// Conflict classes 1–3 on every cell.
fn check_conflicts(
    timeline: &[Vec<Occupancy>],
    grid: GridSpec,
    graph: &SequencingGraph,
    wash: &dyn WashModel,
    violations: &mut Vec<SimViolation>,
) {
    for (idx, occs) in timeline.iter().enumerate() {
        let cell = CellPos::new(idx as u32 % grid.width, idx as u32 / grid.width);
        for i in 0..occs.len() {
            for j in (i + 1)..occs.len() {
                let (a, b) = (&occs[i], &occs[j]);
                if a.fluid == b.fluid {
                    continue; // same fluid: splitting plug, no contamination
                }
                if a.window.overlaps(b.window) {
                    violations.push(SimViolation::CellConflict {
                        cell,
                        a: a.task,
                        b: b.task,
                    });
                } else {
                    // Ordered pair: the earlier residue must wash out
                    // before the later fluid arrives.
                    let (first, second) = if a.window.end <= b.window.start {
                        (a, b)
                    } else {
                        (b, a)
                    };
                    // Only adjacent-in-time pairs matter, but checking all
                    // ordered pairs is sound: an intermediate occupancy
                    // implies an intermediate wash, which only relaxes the
                    // requirement. Restrict to consecutive pairs to avoid
                    // false positives.
                    if j == i + 1 {
                        let wash_time = wash.wash_time(graph.op(first.fluid).output_diffusion());
                        if first.window.end + wash_time > second.window.start {
                            violations.push(SimViolation::WashGap {
                                cell,
                                previous: first.task,
                                next: second.task,
                            });
                        }
                    }
                }
            }
        }
    }
}

/// Channel occupancies stay within each fluid's lifetime.
fn check_lifetimes(schedule: &Schedule, routing: &Routing, violations: &mut Vec<SimViolation>) {
    for t in schedule.transports() {
        let Some(path) = routing.paths.get(t.id.index()) else {
            continue;
        };
        if path.is_empty() {
            continue;
        }
        let hull = path.window_hull();
        let produced = routing.realized.end[t.fluid.index()];
        let consumed = routing.realized.start[t.consumer.index()];
        if hull.start < produced || hull.end > consumed {
            violations.push(SimViolation::WindowOutsideLifetime { task: t.id });
        }
    }
}

/// Precedence and component exclusivity under realized times.
fn check_operations(
    graph: &SequencingGraph,
    components: &ComponentSet,
    schedule: &Schedule,
    routing: &Routing,
    violations: &mut Vec<SimViolation>,
) {
    let start = &routing.realized.start;
    let end = &routing.realized.end;
    for &(parent, child, delivery) in schedule.deliveries() {
        let earliest = match delivery {
            FluidDelivery::InPlace => end[parent.index()],
            FluidDelivery::Transported(_) => end[parent.index()] + schedule.t_c,
        };
        if start[child.index()] < earliest {
            violations.push(SimViolation::PrecedenceViolation { parent, child });
        }
    }
    for c in components.ids() {
        let mut on_c: Vec<OpId> = graph
            .op_ids()
            .filter(|&o| schedule.binding(o) == c)
            .collect();
        on_c.sort_by_key(|&o| start[o.index()]);
        for pair in on_c.windows(2) {
            let a = Interval::new(start[pair[0].index()], end[pair[0].index()]);
            let b = Interval::new(start[pair[1].index()], end[pair[1].index()]);
            if a.overlaps(b) {
                violations.push(SimViolation::ComponentOverlap {
                    a: pair[0],
                    b: pair[1],
                    component: c,
                });
            }
        }
    }
}

/// Convenience alias used by tests and examples.
pub fn validate_solution(
    graph: &SequencingGraph,
    components: &ComponentSet,
    schedule: &Schedule,
    placement: &Placement,
    routing: &Routing,
    wash: &dyn WashModel,
) -> Vec<SimViolation> {
    replay(graph, components, schedule, placement, routing, wash).violations
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use mfb_place::prelude::*;
    use mfb_route::prelude::*;
    use mfb_sched::prelude::*;

    /// A small but non-trivial solved instance: two mix chains joining in a
    /// detect, solved end to end with the paper flow.
    pub fn solved_instance() -> (
        SequencingGraph,
        ComponentSet,
        Schedule,
        Placement,
        Routing,
        LogLinearWash,
    ) {
        let wash = LogLinearWash::paper_calibrated();
        let d = |s: f64| wash.coefficient_for(Duration::from_secs_f64(s));
        let mut b = SequencingGraph::builder();
        let m0 = b.operation(OperationKind::Mix, Duration::from_secs(5), d(6.0));
        let m1 = b.operation(OperationKind::Mix, Duration::from_secs(4), d(2.0));
        let m2 = b.operation(OperationKind::Mix, Duration::from_secs(4), d(3.0));
        let dt = b.operation(OperationKind::Detect, Duration::from_secs(4), d(0.2));
        b.edge(m0, m2).unwrap();
        b.edge(m1, m2).unwrap();
        b.edge(m2, dt).unwrap();
        let g = b.build().unwrap();
        let comps = Allocation::new(2, 0, 0, 1).instantiate(&ComponentLibrary::default());
        let s = mfb_sched::list::schedule(
            &g,
            &comps,
            &wash,
            &SchedulerConfig::paper_dcsa(),
            &DefectMap::pristine(),
        )
        .unwrap();
        let nets = NetList::build(&s, &g, &wash, 0.6, 0.4);
        let (placement, _) = place_sa(
            &comps,
            &nets,
            auto_grid(&comps),
            &SaConfig::paper(),
            &DefectMap::pristine(),
            &Budget::unlimited(),
        )
        .unwrap();
        let routing = route_dcsa(
            &s,
            &g,
            &placement,
            &wash,
            &RouterConfig::paper(),
            &DefectMap::pristine(),
            &Budget::unlimited(),
            &mut SearchScratch::new(),
        )
        .unwrap();
        (g, comps, s, placement, routing, wash)
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::solved_instance;
    use super::*;

    #[test]
    fn valid_solution_replays_cleanly() {
        let (g, comps, s, p, r, wash) = solved_instance();
        let report = replay(&g, &comps, &s, &p, &r, &wash);
        assert!(report.is_valid(), "{:?}", report.violations);
        assert!(report.stats.makespan > Duration::ZERO);
    }

    #[test]
    fn detects_broken_path() {
        let (g, comps, s, p, mut r, wash) = solved_instance();
        // Teleport the middle of the first path.
        let path = &mut r.paths[0];
        if path.cells.len() >= 3 {
            let mid = path.cells.len() / 2;
            path.cells[mid] = CellPos::new(0, 0);
        } else {
            path.cells[0] = CellPos::new(0, 0);
        }
        let report = replay(&g, &comps, &s, &p, &r, &wash);
        assert!(!report.is_valid());
    }

    #[test]
    fn detects_missing_path() {
        let (g, comps, s, p, mut r, wash) = solved_instance();
        r.paths[0].cells.clear();
        r.paths[0].windows.clear();
        let report = replay(&g, &comps, &s, &p, &r, &wash);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, SimViolation::MissingPath { .. })));
    }

    #[test]
    fn detects_cell_conflict() {
        let (g, comps, s, p, mut r, wash) = solved_instance();
        // Force two different-fluid paths onto the same cell and time.
        let donor_cell = r.paths[0].cells[0];
        let donor_window = r.paths[0].windows[0];
        let victim = r
            .paths
            .iter()
            .position(|pp| pp.fluid != r.paths[0].fluid)
            .expect("instance has two fluids");
        r.paths[victim].cells.push(donor_cell);
        r.paths[victim].windows.push(donor_window);
        let report = replay(&g, &comps, &s, &p, &r, &wash);
        assert!(
            report.violations.iter().any(|v| matches!(
                v,
                SimViolation::CellConflict { .. } | SimViolation::WashGap { .. }
            )),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn detects_lifetime_escape() {
        let (g, comps, s, p, mut r, wash) = solved_instance();
        // Stretch a window past the consumer's start.
        let w = r.paths[0].windows.last_mut().unwrap();
        *w = Interval::new(w.start, w.end + Duration::from_secs(1000));
        let report = replay(&g, &comps, &s, &p, &r, &wash);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, SimViolation::WindowOutsideLifetime { .. })));
    }

    #[test]
    fn detects_retimed_precedence_break() {
        let (g, comps, s, p, mut r, wash) = solved_instance();
        // Claim the sink op starts at time zero.
        let sink = g.sinks().next().unwrap();
        r.realized.start[sink.index()] = Instant::ZERO;
        r.realized.end[sink.index()] = Instant::from_secs(1);
        let report = replay(&g, &comps, &s, &p, &r, &wash);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, SimViolation::PrecedenceViolation { .. })));
    }

    #[test]
    fn wrong_benchmark_reports_shape_mismatch_instead_of_panicking() {
        let (_g, _comps, s, p, r, wash) = solved_instance();
        // A different, smaller assay and chip.
        let mut b = SequencingGraph::builder();
        let d = DiffusionCoefficient::PROTEIN;
        b.operation(OperationKind::Mix, Duration::from_secs(1), d);
        let other = b.build().unwrap();
        let other_comps = Allocation::new(1, 0, 0, 0).instantiate(&ComponentLibrary::default());
        let report = replay(&other, &other_comps, &s, &p, &r, &wash);
        assert!(!report.is_valid());
        assert!(report
            .violations
            .iter()
            .all(|v| matches!(v, SimViolation::ShapeMismatch { .. })));
    }

    #[test]
    fn detects_illegal_placement() {
        let (g, comps, s, mut p, r, wash) = solved_instance();
        let r0 = p.rect(ComponentId::new(0));
        p.set_rect(ComponentId::new(1), r0);
        let report = replay(&g, &comps, &s, &p, &r, &wash);
        assert!(report.violations.contains(&SimViolation::IllegalPlacement));
    }
}
