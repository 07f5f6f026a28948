//! Component placement for DCSA-based biochips.
//!
//! Implements the placement half of the paper's **Algorithm 2**: simulated
//! annealing ([`sa`]) over component rectangles on the chip grid, guided by
//! the energy of Eq. (3) — Manhattan distance weighted by the *connection
//! priorities* of Eq. (4), which pull together components whose transports
//! run concurrently with many others or leave slow-washing residues. The
//! baseline's greedy constructive placer lives in [`baseline`].
//!
//! # Quick start
//!
//! ```
//! use mfb_model::prelude::*;
//! use mfb_sched::prelude::*;
//! use mfb_place::prelude::*;
//!
//! // Schedule a tiny assay, derive nets, place.
//! let mut b = SequencingGraph::builder();
//! let d = DiffusionCoefficient::PROTEIN;
//! let m = b.operation(OperationKind::Mix, Duration::from_secs(5), d);
//! let h = b.operation(OperationKind::Heat, Duration::from_secs(3), d);
//! b.edge(m, h).unwrap();
//! let g = b.build().unwrap();
//! let comps = Allocation::new(1, 1, 0, 0).instantiate(&ComponentLibrary::default());
//! let wash = LogLinearWash::paper_calibrated();
//! let sched = schedule(&g, &comps, &wash, &SchedulerConfig::paper_dcsa()).unwrap();
//!
//! let nets = NetList::build(&sched, &g, &wash, 0.6, 0.4);
//! let placement = place_sa_auto(&comps, &nets, &SaConfig::paper()).unwrap();
//! assert!(placement.is_legal());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod baseline;
pub mod error;
pub mod floorplan;
pub mod nets;
pub mod reference;
pub mod sa;
pub mod tempering;

/// One-stop import of the placement API.
pub mod prelude {
    pub use crate::baseline::{
        place_constructive, place_constructive_spaced, place_constructive_with_defects,
    };
    pub use crate::error::PlaceError;
    pub use crate::floorplan::{
        auto_grid, rect_avoids_defects, rect_gap, Placement, PlacementViolation, CLEARANCE,
    };
    pub use crate::nets::{energy, energy_with_spacing, Net, NetList, SpacingParams};
    pub use crate::sa::{
        place_sa, place_sa_auto, place_sa_budgeted, place_sa_with_defects, place_sa_with_stats,
        place_sa_with_stats_and_defects, Move, SaConfig, SaStats,
    };
    pub use crate::tempering::{place_sa_tempered, place_sa_tempered_budgeted};
}
