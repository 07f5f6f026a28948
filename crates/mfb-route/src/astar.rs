//! Time-windowed, wash-weighted A* path search (paper Eq. (5)).
//!
//! The search runs over the routable cells of a [`RoutingGrid`]; a cell is
//! expandable only if the task's occupancy window fits the cell's time slots
//! and wash gaps ([`RoutingGrid::feasible`]), which makes the three conflict
//! classes of §II-C.2 unrepresentable in any returned path. The cost of a
//! path is its length plus the accumulated cell weights `w(i)` — wash times
//! of current residues — so the search prefers sharing cheap-to-wash
//! channels over breaking fresh ground, exactly the bias the paper uses to
//! shorten total channel length.
//!
//! Components expose several port cells (every routable cell adjacent to
//! their rectangle), so the search is multi-source / multi-target.

use crate::grid::RoutingGrid;
use mfb_model::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Cost units per cell of path length. Weights are measured in ticks
/// (0.1 s), so with `LENGTH_COST = 10` one grid cell trades against one
/// second of wash time.
const LENGTH_COST: u64 = 10;

/// Extra cost for traversing a component's access ring
/// ([`RoutingGrid::is_ring`]). Keeps through-traffic away from ports so
/// transit paths do not wall components in with wash shadows; endpoints pay
/// it a constant number of times, so path comparisons are unaffected.
const RING_TAX: u64 = 3 * LENGTH_COST;

/// Search options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AstarOptions {
    /// Add the per-cell weights `w(i)` to the cost (Eq. (5)). Disable to get
    /// plain shortest-feasible-path search (used by the baseline router and
    /// the weight ablation).
    pub use_weights: bool,
}

impl Default for AstarOptions {
    fn default() -> Self {
        AstarOptions { use_weights: true }
    }
}

/// Search counters, accumulated across every query run on one
/// [`SearchScratch`]; `mfb bench` reports expansions/sec from these.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Queries started (`find_path` + `dijkstra_map` calls).
    pub queries: u64,
    /// Heap pops that survived the stale-entry check and were expanded.
    pub expansions: u64,
    /// Heap pushes.
    pub heap_pushes: u64,
    /// Parked-path window retries: banning iterations in
    /// `find_parked_path` after the first attempt.
    pub window_retries: u64,
    /// Rip-up-and-reroute evictions performed by the conflict-aware router
    /// (each blocker torn out of the grid counts once).
    pub rips: u64,
}

/// Reusable search arena: one per router, shared by every net.
///
/// All per-query state lives in flat arrays validated by a generation
/// stamp: [`SearchScratch::begin`] bumps a `u32` epoch instead of
/// refilling, so starting a query is O(1) and a whole routing run performs
/// no per-net allocation once the arrays have grown to the grid size. The
/// heuristic and feasibility of a cell are each computed at most once per
/// query (they are pure within one query) and memoized under the same
/// epoch; the heuristic memo keeps the exact min-over-targets Manhattan
/// value — with a bounding-box lower bound used only to stop the target
/// scan early — so f-values, heap order and tie-breaking are bit-identical
/// to the historical per-expansion scan.
#[derive(Debug, Default)]
pub struct SearchScratch {
    epoch: u32,
    /// Stamp validating `dist`/`prev` for the current query.
    visit_stamp: Vec<u32>,
    dist: Vec<u64>,
    prev: Vec<Option<CellPos>>,
    /// Stamp marking target cells for the current query.
    target_stamp: Vec<u32>,
    /// Memoized heuristic (`h_stamp` validates `h_val`).
    h_stamp: Vec<u32>,
    h_val: Vec<u64>,
    /// Memoized feasibility (`feas_stamp` validates `feas_val`).
    feas_stamp: Vec<u32>,
    feas_val: Vec<bool>,
    /// Memoized per-cell step cost (`cost_stamp` validates `cost_val`) —
    /// constant within a query, and probed up to once per incoming edge.
    cost_stamp: Vec<u32>,
    cost_val: Vec<u64>,
    /// A* heap, cleared (not reallocated) between queries. Entries are
    /// `(f, g·2³² | y·2¹⁶ | x)` — see [`pack`].
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    /// Dijkstra heap for [`dijkstra_map_with`]; entries are [`pack`]ed.
    dheap: BinaryHeap<Reverse<u64>>,
    /// Execution budget polled every [`BUDGET_CHECK_MASK`]+1 expansions.
    /// `None` (the default, and any unlimited budget) skips the poll
    /// entirely, keeping the hot loop identical to the unbudgeted search.
    budget: Option<Budget>,
    /// Set when a query stopped at a budget checkpoint; the searches then
    /// return "no path" / partial maps and the router surfaces
    /// [`crate::error::RouteError::Interrupted`].
    interrupted: Option<BudgetExceeded>,
    /// Counters across all queries since construction.
    pub stats: SearchStats,
}

/// Budget poll cadence: every `BUDGET_CHECK_MASK + 1` expansions. A few
/// thousand expansions take well under a millisecond, so deadlines are
/// honored promptly while the per-expansion overhead stays one masked
/// compare.
const BUDGET_CHECK_MASK: u64 = 0xFFF;

impl SearchScratch {
    /// An empty arena; arrays grow on first use.
    #[must_use]
    pub fn new() -> Self {
        SearchScratch::default()
    }

    /// Installs an execution budget: subsequent queries poll it periodically
    /// and stop early when it trips (see
    /// [`interrupted`](Self::interrupted)). An unlimited budget uninstalls
    /// the poll. Clears any previous interrupt flag.
    pub fn set_budget(&mut self, budget: &Budget) {
        self.budget = if budget.is_unlimited() {
            None
        } else {
            Some(budget.clone())
        };
        self.interrupted = None;
    }

    /// Why the last query stopped early, if it did. The flag persists until
    /// the next [`set_budget`](Self::set_budget), so drivers can run a whole
    /// routing pass and ask once at the end.
    pub fn interrupted(&self) -> Option<BudgetExceeded> {
        self.interrupted
    }

    /// Polls the installed budget between queries (the in-query poll only
    /// fires every few thousand expansions, so cheap queries could otherwise
    /// outrun the deadline). Latches and returns the interrupt, if any.
    pub fn poll_budget(&mut self) -> Option<BudgetExceeded> {
        if self.interrupted.is_none() {
            if let Some(b) = &self.budget {
                if let Err(why) = b.check() {
                    self.interrupted = Some(why);
                }
            }
        }
        self.interrupted
    }

    /// Starts a query over `n` cells: grows the arrays if needed and bumps
    /// the epoch, invalidating every stamped entry at once.
    fn begin(&mut self, n: usize) {
        if self.visit_stamp.len() < n {
            self.visit_stamp.resize(n, 0);
            self.dist.resize(n, u64::MAX);
            self.prev.resize(n, None);
            self.target_stamp.resize(n, 0);
            self.h_stamp.resize(n, 0);
            self.h_val.resize(n, 0);
            self.feas_stamp.resize(n, 0);
            self.feas_val.resize(n, false);
            self.cost_stamp.resize(n, 0);
            self.cost_val.resize(n, 0);
        }
        if self.epoch == u32::MAX {
            // Epoch wrap: degrade gracefully by resetting every stamp.
            self.visit_stamp.fill(0);
            self.target_stamp.fill(0);
            self.h_stamp.fill(0);
            self.feas_stamp.fill(0);
            self.cost_stamp.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
        self.heap.clear();
        self.dheap.clear();
        self.stats.queries += 1;
    }
}

/// Packs `(g, y, x)` into one `u64` whose natural order **is** the
/// `(g, y, x)` lexicographic order of the historical heap tuples: `g` is
/// bounded by grid area times the per-cell cost (≪ 2³²) and coordinates by
/// the grid dimensions (≪ 2¹⁶), so the fields never carry.
#[inline]
fn pack(g: u64, cell: CellPos) -> u64 {
    debug_assert!(g < 1 << 32 && cell.x < 1 << 16 && cell.y < 1 << 16);
    (g << 32) | u64::from(cell.y) << 16 | u64::from(cell.x)
}

/// Inverse of [`pack`].
#[inline]
fn unpack(key: u64) -> (u64, CellPos) {
    (
        key >> 32,
        CellPos::new((key & 0xFFFF) as u32, ((key >> 16) & 0xFFFF) as u32),
    )
}

/// Finds a feasible path from any cell of `sources` to any cell of
/// `targets`, for a fluid occupying each visited cell during
/// `window_of(cell)`.
///
/// The per-cell window lets callers model *where the fluid parks*: cells
/// near the destination carry the full transport-plus-cache window, cells
/// merely passed through carry only the transport window (see
/// [`crate::router::RouterConfig::plug_cells`]).
///
/// Returns the cell sequence (source first), or `None` when no feasible
/// path exists. Source and target sets may intersect; the path then is a
/// single cell.
pub fn find_path(
    grid: &RoutingGrid,
    sources: &[CellPos],
    targets: &[CellPos],
    window_of: impl Fn(CellPos) -> Interval + Copy,
    fluid: OpId,
    wash_of: impl Fn(OpId) -> Duration + Copy,
    options: AstarOptions,
) -> Option<Vec<CellPos>> {
    let mut scratch = SearchScratch::new();
    find_path_with(
        &mut scratch,
        grid,
        sources,
        targets,
        window_of,
        fluid,
        wash_of,
        options,
    )
}

/// [`find_path`] on a caller-owned [`SearchScratch`] — the hot-path entry
/// the router uses, allocation-free once the arena has grown to the grid.
#[allow(clippy::too_many_arguments)]
pub fn find_path_with(
    scratch: &mut SearchScratch,
    grid: &RoutingGrid,
    sources: &[CellPos],
    targets: &[CellPos],
    window_of: impl Fn(CellPos) -> Interval + Copy,
    fluid: OpId,
    wash_of: impl Fn(OpId) -> Duration + Copy,
    options: AstarOptions,
) -> Option<Vec<CellPos>> {
    if sources.is_empty() || targets.is_empty() {
        return None;
    }
    let spec = grid.spec();
    // Every target off the grid: unreachable, and the historical search
    // would only have exhausted the heap to conclude the same.
    if !targets.iter().any(|&t| spec.contains(t)) {
        return None;
    }
    let n = spec.cell_count() as usize;
    scratch.begin(n);
    let SearchScratch {
        epoch,
        visit_stamp,
        dist,
        prev,
        target_stamp,
        h_stamp,
        h_val,
        feas_stamp,
        feas_val,
        cost_stamp,
        cost_val,
        heap,
        budget,
        interrupted,
        stats,
        ..
    } = scratch;
    let epoch = *epoch;
    for &t in targets {
        if spec.contains(t) {
            target_stamp[spec.index(t)] = epoch;
        }
    }
    // Bounding box over *all* targets (off-grid included — they shape the
    // historical heuristic too): a lower bound that lets the memoized exact
    // min-over-targets scan stop early without changing its value.
    let bx0 = targets.iter().map(|t| t.x).min().unwrap_or(0);
    let bx1 = targets.iter().map(|t| t.x).max().unwrap_or(0);
    let by0 = targets.iter().map(|t| t.y).min().unwrap_or(0);
    let by1 = targets.iter().map(|t| t.y).max().unwrap_or(0);

    let mut h = |cell: CellPos, idx: usize| -> u64 {
        if h_stamp[idx] == epoch {
            return h_val[idx];
        }
        let dx = u64::from(cell.x.clamp(bx0, bx1).abs_diff(cell.x));
        let dy = u64::from(cell.y.clamp(by0, by1).abs_diff(cell.y));
        let bound = dx + dy;
        let mut min = u64::MAX;
        for &t in targets {
            min = min.min(u64::from(cell.manhattan(t)));
            if min == bound {
                break; // cannot get below the bounding-box distance
            }
        }
        let v = min * LENGTH_COST;
        h_stamp[idx] = epoch;
        h_val[idx] = v;
        v
    };
    let mut cell_cost = |cell: CellPos, idx: usize| -> u64 {
        if cost_stamp[idx] == epoch {
            return cost_val[idx];
        }
        let c = LENGTH_COST
            + if grid.is_ring(cell) { RING_TAX } else { 0 }
            + if options.use_weights {
                grid.weight(cell).as_ticks()
            } else {
                0
            };
        cost_stamp[idx] = epoch;
        cost_val[idx] = c;
        c
    };
    let mut feasible = |cell: CellPos, idx: usize| -> bool {
        if feas_stamp[idx] == epoch {
            return feas_val[idx];
        }
        let f = grid.feasible(cell, window_of(cell), fluid, wash_of);
        feas_stamp[idx] = epoch;
        feas_val[idx] = f;
        f
    };

    for &s in sources {
        let idx = spec.index(s);
        if !feasible(s, idx) {
            continue;
        }
        let g = cell_cost(s, idx);
        let known = if visit_stamp[idx] == epoch {
            dist[idx]
        } else {
            u64::MAX
        };
        if g < known {
            visit_stamp[idx] = epoch;
            dist[idx] = g;
            prev[idx] = None;
            heap.push(Reverse((g + h(s, idx), pack(g, s))));
            stats.heap_pushes += 1;
        }
    }

    while let Some(Reverse((_, key))) = heap.pop() {
        let (g, cell) = unpack(key);
        let idx = spec.index(cell);
        if g > dist[idx] {
            continue; // stale entry — the cell was finalized cheaper
        }
        stats.expansions += 1;
        if stats.expansions & BUDGET_CHECK_MASK == 0 {
            if let Some(b) = budget {
                if let Err(why) = b.check() {
                    *interrupted = Some(why);
                    return None;
                }
            }
        }
        if target_stamp[idx] == epoch {
            // Reconstruct.
            let mut path = vec![cell];
            let mut cur = cell;
            while let Some(p) = prev[spec.index(cur)] {
                path.push(p);
                cur = p;
            }
            path.reverse();
            return Some(path);
        }
        for nb in cell.neighbours(spec.width, spec.height) {
            let nidx = spec.index(nb);
            // Cost test first: it is cheap, and a cell that cannot improve
            // was either never feasible (dist = MAX, test passes) or
            // already relaxed cheaper — skipping the feasibility probe and
            // the heap push either way is outcome-identical.
            let ng = g + cell_cost(nb, nidx);
            let known = if visit_stamp[nidx] == epoch {
                dist[nidx]
            } else {
                u64::MAX
            };
            if ng >= known || !feasible(nb, nidx) {
                continue;
            }
            visit_stamp[nidx] = epoch;
            dist[nidx] = ng;
            prev[nidx] = Some(cell);
            heap.push(Reverse((ng + h(nb, nidx), pack(ng, nb))));
            stats.heap_pushes += 1;
        }
    }
    None
}

/// Single-source(-set) shortest-path map under a fixed occupancy window:
/// Dijkstra over all cells feasible for `window`, returning per-cell cost
/// (`u64::MAX` where unreachable) and predecessor maps.
///
/// Used by the remote-parking fallback, which needs distances from the
/// source ports *and* from the destination ports to every candidate parking
/// cell.
pub fn dijkstra_map(
    grid: &RoutingGrid,
    sources: &[CellPos],
    window: Interval,
    fluid: OpId,
    wash_of: impl Fn(OpId) -> Duration + Copy,
    options: AstarOptions,
) -> (Vec<u64>, Vec<Option<CellPos>>) {
    let mut scratch = SearchScratch::new();
    dijkstra_map_with(&mut scratch, grid, sources, window, fluid, wash_of, options)
}

/// [`dijkstra_map`] on a caller-owned [`SearchScratch`]: the heap is reused
/// and feasibility is memoized per cell, but the returned maps are freshly
/// allocated (they outlive the query).
pub fn dijkstra_map_with(
    scratch: &mut SearchScratch,
    grid: &RoutingGrid,
    sources: &[CellPos],
    window: Interval,
    fluid: OpId,
    wash_of: impl Fn(OpId) -> Duration + Copy,
    options: AstarOptions,
) -> (Vec<u64>, Vec<Option<CellPos>>) {
    let spec = grid.spec();
    let n = spec.cell_count() as usize;
    scratch.begin(n);
    let SearchScratch {
        epoch,
        feas_stamp,
        feas_val,
        cost_stamp,
        cost_val,
        dheap: heap,
        budget,
        interrupted,
        stats,
        ..
    } = scratch;
    let epoch = *epoch;
    let mut cell_cost = |cell: CellPos, idx: usize| -> u64 {
        if cost_stamp[idx] == epoch {
            return cost_val[idx];
        }
        let c = LENGTH_COST
            + if grid.is_ring(cell) { RING_TAX } else { 0 }
            + if options.use_weights {
                grid.weight(cell).as_ticks()
            } else {
                0
            };
        cost_stamp[idx] = epoch;
        cost_val[idx] = c;
        c
    };
    let mut feasible = |cell: CellPos, idx: usize| -> bool {
        if feas_stamp[idx] == epoch {
            return feas_val[idx];
        }
        let f = grid.feasible(cell, window, fluid, wash_of);
        feas_stamp[idx] = epoch;
        feas_val[idx] = f;
        f
    };
    let mut dist = vec![u64::MAX; n];
    let mut prev: Vec<Option<CellPos>> = vec![None; n];
    for &s in sources {
        let idx = spec.index(s);
        if !feasible(s, idx) {
            continue;
        }
        let g = cell_cost(s, idx);
        if g < dist[idx] {
            dist[idx] = g;
            heap.push(Reverse(pack(g, s)));
            stats.heap_pushes += 1;
        }
    }
    while let Some(Reverse(key)) = heap.pop() {
        let (g, cell) = unpack(key);
        let idx = spec.index(cell);
        if g > dist[idx] {
            continue;
        }
        stats.expansions += 1;
        if stats.expansions & BUDGET_CHECK_MASK == 0 {
            if let Some(b) = budget {
                if let Err(why) = b.check() {
                    *interrupted = Some(why);
                    // Abandon the sweep: callers see the interrupt flag and
                    // discard the (partial) maps.
                    break;
                }
            }
        }
        for nb in cell.neighbours(spec.width, spec.height) {
            let nidx = spec.index(nb);
            let ng = g + cell_cost(nb, nidx);
            if ng >= dist[nidx] || !feasible(nb, nidx) {
                continue;
            }
            dist[nidx] = ng;
            prev[nidx] = Some(cell);
            heap.push(Reverse(pack(ng, nb)));
            stats.heap_pushes += 1;
        }
    }
    (dist, prev)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfb_place::prelude::Placement;

    fn wash2(_: OpId) -> Duration {
        Duration::from_secs(2)
    }

    fn iv(a: u64, b: u64) -> Interval {
        Interval::new(Instant::from_secs(a), Instant::from_secs(b))
    }

    fn open_grid() -> RoutingGrid {
        let p = Placement::new(GridSpec::square(10), vec![]);
        RoutingGrid::new(&p, Duration::from_secs(10))
    }

    #[test]
    fn straight_line_on_empty_grid() {
        let g = open_grid();
        let path = find_path(
            &g,
            &[CellPos::new(0, 5)],
            &[CellPos::new(9, 5)],
            |_| iv(0, 10),
            OpId::new(0),
            wash2,
            AstarOptions::default(),
        )
        .unwrap();
        assert_eq!(path.len(), 10);
        assert_eq!(path[0], CellPos::new(0, 5));
        assert_eq!(path[9], CellPos::new(9, 5));
        // Consecutive cells are neighbours.
        for w in path.windows(2) {
            assert_eq!(w[0].manhattan(w[1]), 1);
        }
    }

    #[test]
    fn single_cell_when_source_is_target() {
        let g = open_grid();
        let path = find_path(
            &g,
            &[CellPos::new(3, 3)],
            &[CellPos::new(3, 3)],
            |_| iv(0, 5),
            OpId::new(0),
            wash2,
            AstarOptions::default(),
        )
        .unwrap();
        assert_eq!(path, vec![CellPos::new(3, 3)]);
    }

    #[test]
    fn routes_around_components() {
        // A wall of component cells with one gap.
        let p = Placement::new(
            GridSpec::square(10),
            vec![
                CellRect::new(CellPos::new(4, 0), 2, 4),
                CellRect::new(CellPos::new(4, 5), 2, 5),
            ],
        );
        let g = RoutingGrid::new(&p, Duration::from_secs(10));
        let path = find_path(
            &g,
            &[CellPos::new(0, 0)],
            &[CellPos::new(9, 0)],
            |_| iv(0, 10),
            OpId::new(0),
            wash2,
            AstarOptions::default(),
        )
        .unwrap();
        // Must pass through the gap row y = 4.
        assert!(path.contains(&CellPos::new(4, 4)) && path.contains(&CellPos::new(5, 4)));
    }

    #[test]
    fn avoids_time_conflicts() {
        let mut g = open_grid();
        // Reserve the entire middle column for an overlapping window.
        for y in 0..10 {
            g.reserve(
                CellPos::new(5, y),
                TaskId::new(0),
                OpId::new(7),
                iv(0, 100),
                wash2,
            );
        }
        let path = find_path(
            &g,
            &[CellPos::new(0, 5)],
            &[CellPos::new(9, 5)],
            |_| iv(0, 10),
            OpId::new(1),
            wash2,
            AstarOptions::default(),
        );
        assert!(path.is_none(), "column blocks every crossing");

        // A later window clears the wash gap (100 + 2 s) and is feasible.
        let later = find_path(
            &g,
            &[CellPos::new(0, 5)],
            &[CellPos::new(9, 5)],
            |_| iv(102, 110),
            OpId::new(1),
            wash2,
            AstarOptions::default(),
        );
        assert!(later.is_some());
    }

    #[test]
    fn weights_attract_reuse() {
        let mut g = open_grid();
        // A previously-routed straight channel with cheap residue (2 s wash
        // vs w_e = 10 s): rerouting the same endpoints later should ride it.
        let fluid = OpId::new(0);
        for x in 0..10 {
            g.reserve(CellPos::new(x, 5), TaskId::new(0), fluid, iv(0, 5), wash2);
        }
        let path = find_path(
            &g,
            &[CellPos::new(0, 5)],
            &[CellPos::new(9, 5)],
            |_| iv(10, 20),
            OpId::new(1),
            wash2,
            AstarOptions::default(),
        )
        .unwrap();
        assert!(
            path.iter().all(|c| c.y == 5),
            "expected the washed channel to be reused: {path:?}"
        );
    }

    #[test]
    fn without_weights_any_shortest_path_wins() {
        let g = open_grid();
        let path = find_path(
            &g,
            &[CellPos::new(0, 0)],
            &[CellPos::new(3, 3)],
            |_| iv(0, 5),
            OpId::new(0),
            wash2,
            AstarOptions { use_weights: false },
        )
        .unwrap();
        assert_eq!(path.len(), 7); // manhattan 6 + start cell
    }

    #[test]
    fn multi_target_prefers_nearest() {
        let g = open_grid();
        let path = find_path(
            &g,
            &[CellPos::new(0, 0)],
            &[CellPos::new(9, 9), CellPos::new(2, 0)],
            |_| iv(0, 5),
            OpId::new(0),
            wash2,
            AstarOptions::default(),
        )
        .unwrap();
        assert_eq!(*path.last().unwrap(), CellPos::new(2, 0));
        assert_eq!(path.len(), 3);
    }

    #[test]
    fn empty_sets_yield_none() {
        let g = open_grid();
        assert!(find_path(
            &g,
            &[],
            &[CellPos::new(1, 1)],
            |_| iv(0, 5),
            OpId::new(0),
            wash2,
            AstarOptions::default()
        )
        .is_none());
        assert!(find_path(
            &g,
            &[CellPos::new(1, 1)],
            &[],
            |_| iv(0, 5),
            OpId::new(0),
            wash2,
            AstarOptions::default()
        )
        .is_none());
    }
}
