//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * cascade stratum skipping ON/OFF (the paper's stated while-loop
//!   improvement),
//! * cascade pre-saturation ON/OFF (reconstruction note 1),
//! * dynamic-multi support minimality pruning ON/OFF and the per-fact pair
//!   cap (bookkeeping vs migration).
//!
//! ```text
//! cargo bench -p strata-bench --bench ablation
//! ```

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;
use strata_core::strategy::{CascadeConfig, CascadeEngine, DynamicMultiEngine};
use strata_core::support::MultiConfig;
use strata_core::{MaintenanceEngine, Update};
use strata_workload::script::{random_fact_script, ScriptConfig};
use strata_workload::synth;

fn replay(engine: &mut dyn MaintenanceEngine, script: &[Update]) {
    for u in script {
        black_box(engine.apply(u).expect("valid update"));
    }
}

fn bench_cascade_ablation(c: &mut Criterion) {
    // Many strata, updates touching only the bottom: skipping pays off.
    let program = synth::conference(60, 10, 3);
    let script = random_fact_script(&program, &ScriptConfig { len: 20, insert_prob: 0.5 }, 9);

    let mut group = c.benchmark_group("ablation/cascade");
    group.sample_size(10);
    for (name, config) in [
        ("skip+presat", CascadeConfig { skip_unaffected: true, presaturate: true }),
        ("noskip", CascadeConfig { skip_unaffected: false, presaturate: true }),
        ("nopresat", CascadeConfig { skip_unaffected: true, presaturate: false }),
    ] {
        group.bench_function(name, |b| {
            b.iter_batched_ref(
                || CascadeEngine::with_config(program.clone(), config).expect("stratified"),
                |e| replay(e, &script),
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_multi_support_ablation(c: &mut Criterion) {
    // MEET-style double derivations stress the set-of-sets bookkeeping.
    let program = strata_workload::paper::meet(40, 12);
    let script = random_fact_script(&program, &ScriptConfig { len: 20, insert_prob: 0.5 }, 17);

    let mut group = c.benchmark_group("ablation/dynamic-multi");
    group.sample_size(10);
    for (name, config) in [
        ("minimize/cap64", MultiConfig { minimize: true, max_pairs: 64 }),
        ("nominimize/cap64", MultiConfig { minimize: false, max_pairs: 64 }),
        ("minimize/cap4", MultiConfig { minimize: true, max_pairs: 4 }),
    ] {
        group.bench_function(name, |b| {
            b.iter_batched_ref(
                || DynamicMultiEngine::with_config(program.clone(), config).expect("stratified"),
                |e| replay(e, &script),
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_cascade_ablation, bench_multi_support_ablation);
criterion_main!(benches);
