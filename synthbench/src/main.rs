//! End-to-end benchmark of the DCSA synthesis flow: the time from assay
//! to a checked chip, on three seeded workloads, with per-layer figures
//! from a separate traced run. See `README.md` beside this crate.
//!
//! ```sh
//! cargo run --release --offline --manifest-path synthbench/Cargo.toml -- \
//!     --workload paper-cold --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the lines before it record the
//! environment and the per-program or per-class rows.

mod batch;
mod chip;
mod layers;
mod serve;
mod stats;

use layers::Layers;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// The end-to-end metrics every workload reports with `--trace 0`, with
/// their units, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 11] = [
    ("synth_ms", "ms"),
    ("synth_total_ms", "ms"),
    ("verify_ms", "ms"),
    ("ok_share", "share"),
    ("chip_exec_ratio", "x"),
    ("channel_mm", "mm"),
    ("mean_ms", "ms"),
    ("tail_ms", "ms"),
    ("goodput", "1/s"),
    ("rss_mb", "MB"),
    ("setup_s", "s"),
];

/// The per-layer metrics every workload reports with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("dsl.parse_us", "us"),
    ("sched.ms", "ms"),
    ("place.ms", "ms"),
    ("place.sa_proposals", "count"),
    ("place.proposals_per_s", "1/s"),
    ("route.ms", "ms"),
    ("route.astar_expansions", "count"),
    ("route.heap_pushes", "count"),
    ("route.expansions_per_s", "1/s"),
    ("route.window_retries", "count"),
    ("route.rips", "count"),
    ("route.ok_share", "share"),
    ("flow.attempts_run", "count"),
    ("flow.attempts_used", "count"),
    ("flow.useful_ratio", "share"),
    ("cache.schedule.hit_ratio", "share"),
    ("cache.netlist.hit_ratio", "share"),
    ("cache.place.hit_ratio", "share"),
    ("cache.route.hit_ratio", "share"),
    ("cache.entries", "count"),
    ("replay.ms", "ms"),
    ("drc.ms", "ms"),
    ("analyze.ms", "ms"),
    ("serve.rtt_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.run_ms", "ms"),
    ("serve.snapshot_ms", "ms"),
    ("serve.snapshot_bytes", "bytes"),
    ("serve.rejects", "count"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperCold,
    DenseRetry,
    ServeMixed,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "paper-cold" => Some(Workload::PaperCold),
            "dense-retry" => Some(Workload::DenseRetry),
            "serve-mixed" => Some(Workload::ServeMixed),
            _ => None,
        }
    }
}

/// The run's settings and the machine it runs on.
#[derive(Debug, Clone)]
pub struct Env {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub nproc: usize,
    /// `MFB_THREADS` for the run; the daemon's worker count on serve.
    pub threads: usize,
    /// The repository checkout the benchmark reads its inputs from.
    pub root: PathBuf,
    /// `serve-mixed`'s offered rate, jobs per second.
    pub rate: f64,
}

/// Named figures of one tracing mode, plus notes on how they were taken.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    pub values: BTreeMap<&'static str, f64>,
    pub notes: Vec<String>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }
}

/// What a workload measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Checker violations, golden mismatches and identity failures: any
    /// entry makes the run incorrect.
    pub problems: Vec<String>,
    /// Per-program or per-class rows.
    pub rows: Vec<String>,
    pub e2e: Metrics,
    pub layers: Layers,
}

fn parse_args() -> Result<Env, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut rate = serve::RATE;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            // Not part of the benchmark's command: re-measures the daemon's
            // capacity by offering other rates (see `serve::RATE`).
            "--rate" => {
                rate = value.parse().map_err(|e| format!("--rate: {e}"))?;
                if !(rate.is_finite() && rate > 0.0 && rate <= 100.0) {
                    return Err("--rate must be in (0, 100]".into());
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = match workload {
        Workload::PaperCold => 1,
        Workload::DenseRetry | Workload::ServeMixed => nproc,
    };
    // Load beyond the machine's cores measures oversubscription, not the
    // flow: refuse it rather than report it. Threads and workers are 1 or
    // nproc by construction; the client's connections are fixed.
    if workload == Workload::ServeMixed && serve::CONNECTIONS > nproc {
        return Err(format!(
            "serve-mixed needs {} connections but nproc={nproc}",
            serve::CONNECTIONS
        ));
    }
    Ok(Env {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        nproc,
        threads,
        root: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".."),
        rate,
    })
}

/// The checkout's commit, read from `.git` without running git; a
/// checkout without history reports `unknown`.
fn commit(root: &std::path::Path) -> String {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.into()
        };
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().into();
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).unwrap_or_default();
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_owned()))
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let env = match parse_args() {
        Ok(env) => env,
        Err(e) => {
            eprintln!("synthbench: {e}");
            return ExitCode::from(2);
        }
    };
    std::env::set_var("MFB_THREADS", env.threads.to_string());
    let result = match env.workload {
        Workload::PaperCold | Workload::DenseRetry => batch::run(env.workload, &env),
        Workload::ServeMixed => serve::run(&env),
    };
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("synthbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    out.e2e.set("rss_mb", peak_rss_mb());

    let serve = env.workload == Workload::ServeMixed;
    println!(
        "env seed={} nproc={} MFB_THREADS={} serve_workers={} serve_connections={} serve_rate={} commit={} trace={} seconds={}",
        env.seed,
        env.nproc,
        env.threads,
        if serve { env.threads.to_string() } else { "-".into() },
        if serve { serve::CONNECTIONS.to_string() } else { "-".into() },
        if serve { env.rate.to_string() } else { "-".into() },
        commit(&env.root),
        u8::from(env.trace),
        env.seconds,
    );
    for row in &out.rows {
        println!("row {row}");
    }
    for note in &out.e2e.notes {
        println!("note {note}");
    }
    for p in &out.problems {
        println!("problem {p}");
    }

    let (table, values): (&[(&str, &str)], BTreeMap<&str, f64>) = if env.trace {
        (&PER_LAYER, out.layers.metrics().into_iter().collect())
    } else {
        (&END_TO_END, out.e2e.values.clone())
    };
    let mut fields = Vec::new();
    for (name, unit) in table {
        let Some(v) = values.get(name) else {
            eprintln!("synthbench: metric {name} was not measured");
            return ExitCode::FAILURE;
        };
        println!("metric {name} = {} {unit}", json_number(*v));
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*v)
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.problems.is_empty(),
        out.attempted,
        out.failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables here and in `BENCHMARK.json` must agree, name
    /// for name and unit for unit.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json reads");
        let doc: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let declared: Vec<(String, String)> = doc
                .get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap().to_owned();
                    (s("name"), s("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, ours, "{key}");
        }
    }

    #[test]
    fn every_layer_metric_is_produced() {
        let names: Vec<&str> = Layers::default().metrics().iter().map(|m| m.0).collect();
        let table: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names, table);
    }
}
