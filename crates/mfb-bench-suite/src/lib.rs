//! Benchmark bioassays for DCSA flow-layer physical synthesis.
//!
//! The paper evaluates on three real-life assays — **PCR** (polymerase chain
//! reaction, 7 operations), **IVD** (in-vitro diagnostics, 12 operations) and
//! **CPA** (colorimetric protein assay, 55 operations) — plus four synthetic
//! assays of 20/30/40/50 operations, with the component allocations listed in
//! Table I. The original benchmark files (inherited from Liu et al., DAC'17)
//! were never published, so this crate *reconstructs* them:
//!
//! * the real-life assays follow their well-known published structure
//!   (mixing trees, mix-then-detect chains, serial dilution ladders);
//! * the synthetic assays come from a **seeded** layered-DAG generator
//!   ([`synth`]) configured to the paper's operation counts and allocation
//!   vectors, so every run of the suite sees bit-identical workloads.
//!
//! Entry points: [`table1_benchmarks`] returns the seven Table-I workloads in
//! paper order; [`motivating_example`] returns the Fig. 2(a) running example
//! used throughout the paper's exposition.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod assays;
pub mod families;
pub mod synth;

use mfb_model::prelude::*;

/// A named synthesis workload: the sequencing graph plus the component
/// allocation the paper pairs it with.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// Benchmark name as it appears in Table I (`"PCR"`, `"Synthetic3"`, …).
    pub name: &'static str,
    /// The bioassay.
    pub graph: SequencingGraph,
    /// Allocated components, Table I column 3.
    pub allocation: Allocation,
}

impl Benchmark {
    /// Instantiates the allocation against `library` and checks it covers
    /// every operation kind the assay uses.
    pub fn components(&self, library: &ComponentLibrary) -> ComponentSet {
        let set = self.allocation.instantiate(library);
        debug_assert!(
            set.covers(self.graph.ops().map(|o| o.kind())),
            "allocation {} does not cover benchmark {}",
            self.allocation,
            self.name
        );
        set
    }
}

/// The seven benchmarks of the paper's Table I, in row order.
pub fn table1_benchmarks() -> Vec<Benchmark> {
    vec![
        Benchmark {
            name: "PCR",
            graph: assays::pcr(),
            allocation: Allocation::new(3, 0, 0, 0),
        },
        Benchmark {
            name: "IVD",
            graph: assays::ivd(),
            allocation: Allocation::new(3, 0, 0, 2),
        },
        Benchmark {
            name: "CPA",
            graph: assays::cpa(),
            allocation: Allocation::new(8, 0, 0, 2),
        },
        Benchmark {
            name: "Synthetic1",
            graph: synth::table1_synthetic(1),
            allocation: Allocation::new(3, 3, 2, 1),
        },
        Benchmark {
            name: "Synthetic2",
            graph: synth::table1_synthetic(2),
            allocation: Allocation::new(5, 2, 2, 2),
        },
        Benchmark {
            name: "Synthetic3",
            graph: synth::table1_synthetic(3),
            allocation: Allocation::new(6, 4, 4, 2),
        },
        Benchmark {
            name: "Synthetic4",
            graph: synth::table1_synthetic(4),
            allocation: Allocation::new(7, 4, 4, 3),
        },
    ]
}

/// The dense stress workload **Synthetic5**: 100 operations on a
/// 10/5/5/4 allocation — twice the paper's largest rung. Deliberately not
/// part of [`table1_benchmarks`] (Table I stops at 50 operations); `mfb
/// bench` runs it as a separate congestion axis where the router's
/// routability matters.
pub fn dense_benchmark() -> Benchmark {
    Benchmark {
        name: "Synthetic5",
        graph: synth::synthetic5(),
        allocation: Allocation::new(10, 5, 5, 4),
    }
}

/// The benchmark with the given name, if any (case-insensitive;
/// `"synth3"` is accepted for `"Synthetic3"`). Resolves the seven Table-I
/// workloads plus the dense [`dense_benchmark`] rung `"Synthetic5"`.
pub fn benchmark_by_name(name: &str) -> Option<Benchmark> {
    let needle = name.to_ascii_lowercase();
    table1_benchmarks()
        .into_iter()
        .chain(std::iter::once(dense_benchmark()))
        .find(|b| {
            let full = b.name.to_ascii_lowercase();
            full == needle || full.replace("synthetic", "synth") == needle
        })
}

/// The Fig. 2(a) running example: a 10-operation assay on five components
/// (3 mixers, 1 heater, 1 detector).
///
/// The reconstruction preserves the paper's two stated facts: with
/// `t_c = 2 s` the priority value of `o1` is 21 s along the path
/// `o1 → o5 → o7 → o10 → sink`, and the assay fits five components.
pub fn motivating_example() -> Benchmark {
    Benchmark {
        name: "Fig2a",
        graph: assays::motivating(),
        allocation: Allocation::new(3, 1, 0, 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper_op_counts() {
        let expected = [
            ("PCR", 7usize),
            ("IVD", 12),
            ("CPA", 55),
            ("Synthetic1", 20),
            ("Synthetic2", 30),
            ("Synthetic3", 40),
            ("Synthetic4", 50),
        ];
        let benches = table1_benchmarks();
        assert_eq!(benches.len(), expected.len());
        for (b, (name, ops)) in benches.iter().zip(expected) {
            assert_eq!(b.name, name);
            assert_eq!(b.graph.len(), ops, "op count mismatch for {name}");
        }
    }

    #[test]
    fn allocations_match_table1() {
        let expected = [
            Allocation::new(3, 0, 0, 0),
            Allocation::new(3, 0, 0, 2),
            Allocation::new(8, 0, 0, 2),
            Allocation::new(3, 3, 2, 1),
            Allocation::new(5, 2, 2, 2),
            Allocation::new(6, 4, 4, 2),
            Allocation::new(7, 4, 4, 3),
        ];
        for (b, a) in table1_benchmarks().iter().zip(expected) {
            assert_eq!(b.allocation, a, "allocation mismatch for {}", b.name);
        }
    }

    #[test]
    fn every_allocation_covers_its_assay() {
        let lib = ComponentLibrary::default();
        for b in table1_benchmarks() {
            let set = b.allocation.instantiate(&lib);
            assert!(
                set.covers(b.graph.ops().map(|o| o.kind())),
                "{} allocation does not cover its operations",
                b.name
            );
        }
    }

    #[test]
    fn benchmarks_are_deterministic() {
        let a = table1_benchmarks();
        let b = table1_benchmarks();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.graph, y.graph, "benchmark {} not deterministic", x.name);
        }
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(benchmark_by_name("pcr").unwrap().name, "PCR");
        assert_eq!(benchmark_by_name("Synthetic2").unwrap().name, "Synthetic2");
        assert_eq!(benchmark_by_name("synth4").unwrap().name, "Synthetic4");
        assert_eq!(benchmark_by_name("synth5").unwrap().name, "Synthetic5");
        assert!(benchmark_by_name("nope").is_none());
    }

    #[test]
    fn dense_benchmark_covers_its_assay_and_stays_out_of_table1() {
        let b = dense_benchmark();
        assert_eq!(b.graph.len(), 100);
        let set = b.allocation.instantiate(&ComponentLibrary::default());
        assert!(set.covers(b.graph.ops().map(|o| o.kind())));
        assert!(table1_benchmarks().iter().all(|t| t.name != b.name));
    }

    #[test]
    fn motivating_example_priority_is_21() {
        let b = motivating_example();
        let prio = b.graph.priority_values(Duration::from_secs(2));
        // o1 is the first operation (index 0 in our reconstruction).
        assert_eq!(prio[0], Duration::from_secs(21));
        assert_eq!(b.allocation.total(), 5);
    }
}
