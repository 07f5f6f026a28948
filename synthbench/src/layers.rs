//! Per-layer figures of the traced run. Stages that `Synthesizer` runs
//! internally are read from the stage-boundary spans and counters
//! `mfb-obs` already records; the benchmark's own calls into a crate
//! (parse, replay, DRC, analyze, the daemon's verbs) are timed here.

use mfb_obs::{EventKind, TraceEvent};

/// Sums over every traced synthesis (or daemon job) of a run.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    pub parse_calls: u64,
    pub parse_us: f64,
    /// Synthesis calls (batch) or traced jobs (serve) the trace sums cover.
    pub runs: u64,
    pub sched_ms: f64,
    pub place_ms: f64,
    pub route_ms: f64,
    pub flow_ms: f64,
    pub sa_proposals: u64,
    pub expansions: u64,
    pub heap_pushes: u64,
    pub window_retries: u64,
    pub rips: u64,
    /// Router invocations (`route.dcsa` spans): cache hits do not route.
    pub route_passes: u64,
    /// Router invocations that completed; `route.rips` is recorded once
    /// per routing pass that realizes every transport.
    pub route_ok: u64,
    /// Placement attempts run, speculative ones included.
    pub attempts_run: u64,
    /// Attempts the flow reports as consumed (`Solution::attempts`, or
    /// the attempt budget on failure).
    pub attempts_used: u64,
    pub checks: u64,
    pub replay_ms: f64,
    pub drc_ms: f64,
    pub analyze_ms: f64,
    /// Per stage (schedule, netlist, place, route): hits and misses.
    pub cache: [(u64, u64); 4],
    pub cache_entries: u64,
    pub rtt_ms: f64,
    pub queue_wait_ms: Vec<f64>,
    pub snapshot_ms: f64,
    pub snapshot_bytes: u64,
    pub rejects: u64,
}

fn ms(e: &TraceEvent) -> f64 {
    e.dur_ns as f64 / 1e6
}

impl Layers {
    /// Folds one synthesis' trace events in.
    pub fn add_trace(&mut self, events: &[TraceEvent]) {
        self.runs += 1;
        for e in events {
            match (e.kind, e.name.as_str()) {
                (EventKind::Span, "flow.synthesize") => self.flow_ms += ms(e),
                (EventKind::Span, "stage.schedule") => self.sched_ms += ms(e),
                (EventKind::Span, "stage.place") => {
                    self.place_ms += ms(e);
                    self.attempts_run += 1;
                }
                (EventKind::Span, "stage.route") => self.route_ms += ms(e),
                (EventKind::Span, "route.dcsa") => self.route_passes += 1,
                (EventKind::Counter, "sa.proposals") => self.sa_proposals += e.value,
                (EventKind::Counter, "astar.expansions") => self.expansions += e.value,
                (EventKind::Counter, "astar.heap_pushes") => self.heap_pushes += e.value,
                (EventKind::Counter, "route.window_retries") => self.window_retries += e.value,
                (EventKind::Counter, "route.rips") => {
                    self.rips += e.value;
                    self.route_ok += 1;
                }
                _ => {}
            }
        }
    }

    /// Every per-layer metric, by the names `BENCHMARK.json` declares.
    /// A layer the workload does not exercise reads 0.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let per = |x: f64, n: u64| if n == 0 { 0.0 } else { x / n as f64 };
        let rate = |count: u64, ms: f64| {
            if ms > 0.0 {
                count as f64 / (ms / 1e3)
            } else {
                0.0
            }
        };
        let runs = self.runs;
        let hit_ratio = |(h, m): (u64, u64)| per(h as f64, h + m);
        let queue_wait = per(
            self.queue_wait_ms.iter().sum(),
            self.queue_wait_ms.len() as u64,
        );
        vec![
            ("dsl.parse_us", per(self.parse_us, self.parse_calls)),
            ("sched.ms", per(self.sched_ms, runs)),
            ("place.ms", per(self.place_ms, runs)),
            ("place.sa_proposals", per(self.sa_proposals as f64, runs)),
            (
                "place.proposals_per_s",
                rate(self.sa_proposals, self.place_ms),
            ),
            ("route.ms", per(self.route_ms, runs)),
            ("route.astar_expansions", per(self.expansions as f64, runs)),
            ("route.heap_pushes", per(self.heap_pushes as f64, runs)),
            (
                "route.expansions_per_s",
                rate(self.expansions, self.route_ms),
            ),
            (
                "route.window_retries",
                per(self.window_retries as f64, runs),
            ),
            ("route.rips", per(self.rips as f64, runs)),
            (
                "route.ok_share",
                per(self.route_ok as f64, self.route_passes),
            ),
            ("flow.attempts_run", per(self.attempts_run as f64, runs)),
            ("flow.attempts_used", per(self.attempts_used as f64, runs)),
            (
                "flow.useful_ratio",
                per(self.attempts_used as f64, self.attempts_run),
            ),
            ("cache.schedule.hit_ratio", hit_ratio(self.cache[0])),
            ("cache.netlist.hit_ratio", hit_ratio(self.cache[1])),
            ("cache.place.hit_ratio", hit_ratio(self.cache[2])),
            ("cache.route.hit_ratio", hit_ratio(self.cache[3])),
            ("cache.entries", self.cache_entries as f64),
            ("replay.ms", per(self.replay_ms, self.checks)),
            ("drc.ms", per(self.drc_ms, self.checks)),
            ("analyze.ms", per(self.analyze_ms, self.checks)),
            ("serve.rtt_ms", self.rtt_ms),
            ("serve.queue_wait_ms", queue_wait),
            ("serve.run_ms", per(self.flow_ms, runs)),
            ("serve.snapshot_ms", self.snapshot_ms),
            ("serve.snapshot_bytes", self.snapshot_bytes as f64),
            ("serve.rejects", self.rejects as f64),
        ]
    }
}
