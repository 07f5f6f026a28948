//! One program as the flow sees it, and the independent checks every
//! returned chip must pass.

use crate::stats::geomean;
use mfb_batch::prelude::BatchJob;
use mfb_core::prelude::*;
use mfb_model::prelude::*;
use mfb_model::text::parse_assay;
use mfb_verify::prelude::VerifyInput;
use std::time::Instant;

/// Everything `Synthesizer` needs for one program.
#[derive(Debug, Clone)]
pub struct Lowered {
    pub graph: SequencingGraph,
    pub comps: ComponentSet,
    pub config: SynthesisConfig,
    pub defects: DefectMap,
}

impl Lowered {
    /// A bench-suite graph on the paper's flow with annealing seed `seed`
    /// (`None` keeps the default, as `mfb run` does).
    pub fn from_graph(graph: SequencingGraph, alloc: Allocation, seed: Option<u64>) -> Self {
        let config = SynthesisConfig::paper_dcsa();
        Lowered {
            graph,
            comps: alloc.instantiate(&ComponentLibrary::default()),
            config: seed.map_or(config.clone(), |s| config.with_seed(s)),
            defects: DefectMap::pristine(),
        }
    }

    /// A job as `mfb-batch` lowers a manifest entry, which is how the
    /// daemon lowers a submit. Manifest jobs carry the paper-calibrated
    /// wash model, the one [`Lowered::wash`] returns.
    pub fn from_job(job: BatchJob) -> Self {
        Lowered {
            graph: job.graph,
            comps: job.components,
            config: job.config,
            defects: job.defects,
        }
    }

    /// The paper-calibrated wash model every workload synthesizes with.
    pub fn wash() -> LogLinearWash {
        LogLinearWash::paper_calibrated()
    }

    /// Synthesizes uncached, as `mfb run` / `run-file` do.
    pub fn synthesize(&self) -> Result<Solution, SynthesisError> {
        Synthesizer::new(self.config.clone()).synthesize_with_defects(
            &self.graph,
            &self.comps,
            &Lowered::wash(),
            &self.defects,
        )
    }
}

/// Lowers assay DSL text the way `mfb run-file` does without flags: the
/// file's `flow` statement picks the base flow and its `t_c=`/`seed=`
/// overlay it; `defect` statements carry through.
pub fn lower_text(text: &str) -> Result<Lowered, String> {
    let file = parse_assay(text).map_err(|e| e.to_string())?;
    let alloc = file.allocation.ok_or("the assay has no `alloc` line")?;
    let mut config = match file.flow.kind {
        Some(FlowKind::Baseline) => SynthesisConfig::paper_baseline(),
        _ => SynthesisConfig::paper_dcsa(),
    };
    if let Some(t_c) = file.flow.t_c {
        config.t_c = t_c;
    }
    if let Some(seed) = file.flow.seed {
        config = config.with_seed(seed);
    }
    Ok(Lowered {
        graph: file.graph,
        comps: alloc.instantiate(&ComponentLibrary::default()),
        config,
        defects: file.defects,
    })
}

/// What the checkers said about one chip, and how long each took.
#[derive(Debug, Clone)]
pub struct Verdict {
    pub replay_ms: f64,
    pub drc_ms: f64,
    pub analyze_ms: f64,
    /// Empty when the chip passed; otherwise which checker refused it.
    pub problems: Vec<String>,
}

impl Verdict {
    pub fn total_ms(&self) -> f64 {
        self.replay_ms + self.drc_ms + self.analyze_ms
    }

    pub fn passed(&self) -> bool {
        self.problems.is_empty()
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Replays `solution` through `mfb-sim`, runs every `mfb-verify` DRC rule
/// (with the program's defect map) and every `mfb-analyze` analysis. A
/// chip passes when the replay is valid and neither report has an
/// error-severity finding.
pub fn check(solution: &Solution, low: &Lowered) -> Verdict {
    let wash = Lowered::wash();
    let mut problems = Vec::new();

    let t = Instant::now();
    let sim = solution.verify(&low.graph, &low.comps, &wash);
    let replay_ms = ms_since(t);
    if !sim.is_valid() {
        problems.push(format!("replay: {} violations", sim.violations.len()));
    }

    let t = Instant::now();
    let input = VerifyInput::new(
        &low.graph,
        &low.comps,
        &solution.schedule,
        &solution.placement,
        &solution.routing,
        &wash,
        low.config.router,
    )
    .with_defects(&low.defects);
    let drc = RuleRegistry::with_all_rules().run(&input);
    let drc_ms = ms_since(t);
    if !drc.is_clean() {
        problems.push(format!("drc: {} errors", drc.diagnostics.len()));
    }

    let t = Instant::now();
    let ana = solution.analyze_with(
        &low.graph,
        &low.comps,
        &wash,
        low.config.router,
        &Analyzer::with_all_rules(),
    );
    let analyze_ms = ms_since(t);
    if !ana.is_clean() {
        problems.push(format!("analyze: {} errors", ana.diagnostics.len()));
    }

    Verdict {
        replay_ms,
        drc_ms,
        analyze_ms,
        problems,
    }
}

/// The chip-quality figures of a solution: Table-I execution time in
/// seconds; that time over the assay's critical path with `t_c` per edge
/// (a fixed per-program normalizer, so on a fixed program set the ratio
/// moves exactly with execution time; in-place Case-I bindings skip the
/// transport, so it can fall below 1); channel length in mm; transports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    pub exec_s: f64,
    pub exec_ratio: f64,
    pub channel_mm: f64,
    pub transports: usize,
}

impl Quality {
    pub fn of(solution: &Solution, low: &Lowered) -> Quality {
        let m = SolutionMetrics::of(solution, &low.comps);
        let exec_s = m.execution_time.as_secs_f64();
        let bound = low.graph.critical_path(low.config.t_c).as_secs_f64();
        Quality {
            exec_s,
            exec_ratio: exec_s / bound,
            channel_mm: m.channel_length_mm,
            transports: m.transports,
        }
    }
}

/// Chip quality over a fixed program set, as (`chip_exec_ratio`,
/// `channel_mm`): geometric means over the members that returned a chip,
/// doubled once for each member that did not. The set does not follow
/// what routes, so a program newly routed outside it cannot move the
/// figures, and a member that stops routing always reads as a regression.
pub fn quality_over(set: &[Option<Quality>]) -> (f64, f64) {
    let got: Vec<&Quality> = set.iter().flatten().collect();
    let penalty = 2f64.powi((set.len() - got.len()) as i32);
    let over = |f: fn(&Quality) -> f64| {
        geomean(&got.iter().map(|q| f(q)).collect::<Vec<_>>()).unwrap_or(1.0) * penalty
    };
    (over(|q| q.exec_ratio), over(|q| q.channel_mm))
}

/// FNV-1a 64 of the serialized solution: the digest `GOLDEN.json` pins.
pub fn digest(solution: &Solution) -> String {
    let json = serde_json::to_string(solution).unwrap_or_default();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in json.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(exec_ratio: f64, channel_mm: f64) -> Option<Quality> {
        Some(Quality {
            exec_s: 1.0,
            exec_ratio,
            channel_mm,
            transports: 1,
        })
    }

    #[test]
    fn quality_is_a_geomean_over_the_set_with_missing_members_doubled() {
        let (r, c) = quality_over(&[q(1.0, 100.0), q(4.0, 400.0)]);
        assert!((r - 2.0).abs() < 1e-12 && (c - 200.0).abs() < 1e-9);
        let (r, c) = quality_over(&[q(1.0, 100.0), q(4.0, 400.0), None]);
        assert!((r - 4.0).abs() < 1e-12 && (c - 400.0).abs() < 1e-9);
        assert_eq!(quality_over(&[None]), (2.0, 2.0));
    }
}
