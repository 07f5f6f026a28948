//! Property-based tests for the routing grid and path search.

use mfb_model::prelude::*;
use mfb_place::prelude::Placement;
use mfb_route::prelude::*;
use proptest::prelude::*;

fn wash_secs(secs: u64) -> impl Fn(OpId) -> Duration + Copy {
    move |_| Duration::from_secs(secs)
}

fn arb_interval() -> impl Strategy<Value = Interval> {
    (0u64..500, 1u64..60)
        .prop_map(|(s, l)| Interval::new(Instant::from_secs(s), Instant::from_secs(s + l)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Whatever sequence of reservations is accepted cell-by-cell, no two
    /// different fluids may end up with overlapping windows.
    #[test]
    fn accepted_reservations_never_overlap(
        reservations in proptest::collection::vec(
            (arb_interval(), 0u32..6), 0..40
        )
    ) {
        let placement = Placement::new(GridSpec::square(4), vec![]);
        let mut grid = RoutingGrid::new(&placement, Duration::from_secs(10));
        let cell = CellPos::new(1, 1);
        let wash = wash_secs(2);
        for (i, (window, fluid_idx)) in reservations.into_iter().enumerate() {
            let fluid = OpId::new(fluid_idx);
            if grid.feasible(cell, window, fluid, wash) {
                grid.reserve(cell, TaskId::new(i as u32), fluid, window, wash);
            }
        }
        let booked = grid.reservations(cell);
        for i in 0..booked.len() {
            for j in (i + 1)..booked.len() {
                let (a, b) = (&booked[i], &booked[j]);
                if a.fluid != b.fluid {
                    prop_assert!(
                        !a.window.overlaps(b.window),
                        "{:?} vs {:?}", a, b
                    );
                }
            }
        }
    }

    /// Wash gaps hold between consecutive different-fluid uses of a cell.
    #[test]
    fn accepted_reservations_respect_wash_gaps(
        reservations in proptest::collection::vec(
            (arb_interval(), 0u32..6), 0..40
        ),
        wash_time in 1u64..8,
    ) {
        let placement = Placement::new(GridSpec::square(4), vec![]);
        let mut grid = RoutingGrid::new(&placement, Duration::from_secs(10));
        let cell = CellPos::new(2, 2);
        let wash = wash_secs(wash_time);
        for (i, (window, fluid_idx)) in reservations.into_iter().enumerate() {
            let fluid = OpId::new(fluid_idx);
            if grid.feasible(cell, window, fluid, wash) {
                grid.reserve(cell, TaskId::new(i as u32), fluid, window, wash);
            }
        }
        let mut booked: Vec<_> = grid.reservations(cell).to_vec();
        booked.sort_by_key(|r| r.window.start);
        for pair in booked.windows(2) {
            if pair[0].fluid != pair[1].fluid {
                prop_assert!(
                    pair[0].window.end + Duration::from_secs(wash_time)
                        <= pair[1].window.start,
                    "wash gap violated: {:?} then {:?}", pair[0], pair[1]
                );
            }
        }
    }

    /// Paths returned by the search are contiguous, routable, within the
    /// grid, and feasible on every cell.
    #[test]
    fn found_paths_are_well_formed(
        sx in 0u32..12, sy in 0u32..12,
        tx in 0u32..12, ty in 0u32..12,
        obstacle_x in 0u32..9, obstacle_y in 0u32..9,
        start in 0u64..100, len in 1u64..40,
    ) {
        let rect = CellRect::new(CellPos::new(obstacle_x, obstacle_y), 3, 3);
        let placement = Placement::new(GridSpec::square(12), vec![rect]);
        let grid = RoutingGrid::new(&placement, Duration::from_secs(10));
        let src = CellPos::new(sx, sy);
        let dst = CellPos::new(tx, ty);
        prop_assume!(grid.is_routable(src) && grid.is_routable(dst));
        let window = Interval::new(
            Instant::from_secs(start),
            Instant::from_secs(start + len),
        );
        let wash = wash_secs(2);
        if let Some(path) = find_path(
            &grid, &[src], &[dst], |_| window, OpId::new(0), wash,
            AstarOptions::default(),
        ) {
            prop_assert_eq!(path[0], src);
            prop_assert_eq!(*path.last().unwrap(), dst);
            for w in path.windows(2) {
                prop_assert_eq!(w[0].manhattan(w[1]), 1);
            }
            for &c in &path {
                prop_assert!(grid.is_routable(c));
                prop_assert!(grid.feasible(c, window, OpId::new(0), wash));
            }
            // No repeated cells on a single-window search.
            let mut seen = std::collections::BTreeSet::new();
            for &c in &path {
                prop_assert!(seen.insert(c), "cell {} repeated", c);
            }
        } else {
            // With a single 3x3 obstacle on a 12x12 grid, src and dst are
            // always connected: failure would be a search bug.
            prop_assert!(false, "disconnected despite open grid");
        }
    }

    /// Unreserving a task restores exactly the pre-reservation feasibility.
    #[test]
    fn unreserve_restores_feasibility(
        windows in proptest::collection::vec(arb_interval(), 1..12),
    ) {
        let placement = Placement::new(GridSpec::square(4), vec![]);
        let mut grid = RoutingGrid::new(&placement, Duration::from_secs(10));
        let cell = CellPos::new(0, 0);
        let wash = wash_secs(3);
        let probe = Interval::new(Instant::from_secs(1000), Instant::from_secs(1010));

        // Reserve a batch under one task id, then remove it.
        for (i, w) in windows.iter().enumerate() {
            if grid.feasible(cell, *w, OpId::new(0), wash) {
                grid.reserve(cell, TaskId::new(7), OpId::new(0), *w, wash);
            }
            let _ = i;
        }
        grid.unreserve(TaskId::new(7), wash);
        prop_assert!(grid.reservations(cell).is_empty());
        prop_assert!(grid.feasible(cell, probe, OpId::new(1), wash));
        prop_assert_eq!(grid.weight(cell), Duration::from_secs(10), "weight reset to w_e");
        prop_assert_eq!(grid.residue(cell), None);
    }
}
