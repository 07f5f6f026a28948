//! Whole-flow configuration.

use mfb_model::prelude::*;
use mfb_place::prelude::SaConfig;
use mfb_route::prelude::RouterConfig;
use mfb_sched::prelude::BindingRule;

/// Which placement algorithm the flow uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementStrategy {
    /// Simulated annealing guided by the connection priorities of Eq. (4)
    /// (the paper's algorithm).
    SimulatedAnnealing,
    /// Greedy constructive placement (the baseline's construction step).
    Constructive,
}

/// Which routing algorithm the flow uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingStrategy {
    /// Transportation-conflict-aware, wash-weighted A* (the paper's
    /// algorithm; never delays the schedule).
    ConflictAware,
    /// Construction-by-correction (the baseline: route blind, then fix by
    /// re-routing or postponing, possibly delaying the assay).
    ConstructionByCorrection,
}

/// Configuration of the complete top-down synthesis flow.
///
/// [`SynthesisConfig::paper_dcsa`] and [`SynthesisConfig::paper_baseline`]
/// reproduce the two columns of the paper's Table I, including the
/// published parameter values `α = 0.9`, `β = 0.6`, `γ = 0.4`,
/// `T_0 = 10000`, `I_max = 150`, `T_min = 1.0`, `t_c = 2.0`, `w_e = 10`.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthesisConfig {
    /// Constant inter-component transport time `t_c`.
    pub t_c: Duration,
    /// Binding rule for the scheduler.
    pub binding: BindingRule,
    /// Placement algorithm.
    pub placement: PlacementStrategy,
    /// Routing algorithm.
    pub routing: RoutingStrategy,
    /// Simulated-annealing parameters (used by
    /// [`PlacementStrategy::SimulatedAnnealing`]).
    pub sa: SaConfig,
    /// Router parameters.
    pub router: RouterConfig,
    /// Eq. (4) weighting factor β (transport concurrency).
    pub beta: f64,
    /// Eq. (4) weighting factor γ (wash time).
    pub gamma: f64,
    /// Chip grid; `None` sizes the grid automatically from the allocation.
    pub grid: Option<GridSpec>,
    /// Placement attempts before giving up: when routing fails on a
    /// placement (a destination boxed in by wash shadows at exactly the
    /// wrong moment), the flow re-places with a fresh annealing seed and,
    /// periodically, a larger grid.
    pub max_placement_attempts: u32,
    /// Run the post-routing channel-length cleanup (iterative re-routing;
    /// extension beyond the paper, off by default for paper fidelity).
    pub optimize_channels: bool,
}

impl SynthesisConfig {
    /// The paper's own flow and parameters.
    pub fn paper_dcsa() -> Self {
        SynthesisConfig {
            t_c: Duration::from_secs(2),
            binding: BindingRule::StorageAware,
            placement: PlacementStrategy::SimulatedAnnealing,
            routing: RoutingStrategy::ConflictAware,
            sa: SaConfig::paper(),
            router: RouterConfig::paper(),
            beta: 0.6,
            gamma: 0.4,
            grid: None,
            max_placement_attempts: 24,
            optimize_channels: false,
        }
    }

    /// The paper's baseline (BA): earliest-ready binding, constructive
    /// placement, construction-by-correction routing.
    pub fn paper_baseline() -> Self {
        SynthesisConfig {
            binding: BindingRule::EarliestReady,
            placement: PlacementStrategy::Constructive,
            routing: RoutingStrategy::ConstructionByCorrection,
            ..SynthesisConfig::paper_dcsa()
        }
    }

    /// Replaces the annealing seed (useful for reproducibility studies).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.sa = self.sa.with_seed(seed);
        self
    }
}

impl Default for SynthesisConfig {
    fn default() -> Self {
        SynthesisConfig::paper_dcsa()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configs_match_published_parameters() {
        let ours = SynthesisConfig::paper_dcsa();
        assert_eq!(ours.t_c, Duration::from_secs(2));
        assert_eq!(ours.sa.alpha, 0.9);
        assert_eq!(ours.sa.t0, 10_000.0);
        assert_eq!(ours.sa.t_min, 1.0);
        assert_eq!(ours.sa.i_max, 150);
        assert_eq!(ours.beta, 0.6);
        assert_eq!(ours.gamma, 0.4);
        assert_eq!(ours.router.w_e, Duration::from_secs(10));
        assert_eq!(ours.binding, BindingRule::StorageAware);

        let ba = SynthesisConfig::paper_baseline();
        assert_eq!(ba.binding, BindingRule::EarliestReady);
        assert_eq!(ba.placement, PlacementStrategy::Constructive);
        assert_eq!(ba.routing, RoutingStrategy::ConstructionByCorrection);
        assert_eq!(ba.t_c, ours.t_c);
    }
}
