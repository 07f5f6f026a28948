//! Per-stage timings of the paper flow on CPA (the largest real assay):
//! scheduling (Algorithm 1), netlist construction (Eq. (4)), placement
//! (Algorithm 2, SA), routing (Algorithm 2, time-windowed A*).

use criterion::{criterion_group, criterion_main, Criterion};
use mfb_bench::wash;
use mfb_bench_suite::table1_benchmarks;
use mfb_model::prelude::*;
use mfb_place::prelude::*;
use mfb_route::prelude::*;
use mfb_sched::prelude::*;

fn bench_stages(c: &mut Criterion) {
    let wash = wash();
    let b = table1_benchmarks()
        .into_iter()
        .find(|b| b.name == "CPA")
        .expect("CPA present");
    let comps = b.allocation.instantiate(&ComponentLibrary::default());

    let mut group = c.benchmark_group("stages_cpa");
    group.sample_size(20);

    group.bench_function("schedule_dcsa", |bench| {
        bench.iter(|| {
            schedule(
                &b.graph,
                &comps,
                &wash,
                &SchedulerConfig::paper_dcsa(),
                &DefectMap::pristine(),
            )
            .unwrap()
        })
    });
    group.bench_function("schedule_baseline", |bench| {
        bench.iter(|| {
            schedule(
                &b.graph,
                &comps,
                &wash,
                &SchedulerConfig::paper_baseline(),
                &DefectMap::pristine(),
            )
            .unwrap()
        })
    });

    let sched = schedule(
        &b.graph,
        &comps,
        &wash,
        &SchedulerConfig::paper_dcsa(),
        &DefectMap::pristine(),
    )
    .unwrap();
    group.bench_function("netlist", |bench| {
        bench.iter(|| NetList::build(&sched, &b.graph, &wash, 0.6, 0.4))
    });

    let nets = NetList::build(&sched, &b.graph, &wash, 0.6, 0.4);
    group.bench_function("place_sa", |bench| {
        bench.iter(|| {
            place_sa(
                &comps,
                &nets,
                auto_grid(&comps),
                &SaConfig::paper(),
                &DefectMap::pristine(),
                &Budget::unlimited(),
            )
            .unwrap()
            .0
        })
    });
    group.bench_function("place_constructive", |bench| {
        bench.iter(|| {
            place_constructive(&comps, &nets, auto_grid(&comps), &DefectMap::pristine()).unwrap()
        })
    });

    let (placement, _) = place_sa(
        &comps,
        &nets,
        auto_grid(&comps),
        &SaConfig::paper(),
        &DefectMap::pristine(),
        &Budget::unlimited(),
    )
    .unwrap();
    group.bench_function("route_dcsa", |bench| {
        bench.iter(|| {
            route_dcsa(
                &sched,
                &b.graph,
                &placement,
                &wash,
                &RouterConfig::paper(),
                &DefectMap::pristine(),
                &Budget::unlimited(),
                &mut SearchScratch::new(),
            )
            .unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_stages);
criterion_main!(benches);
