//! All engines must agree with the recomputed ground truth after arbitrary
//! valid update scripts — the reproduction's central correctness property
//! (paper §2 Theorem + §4/§5 lemmas rolled together).

use stratamaint::core::registry::EngineRegistry;
use stratamaint::core::strategy::{CascadeConfig, CascadeEngine, FactLevelEngine};
use stratamaint::core::verify::check_against_ground_truth;
use stratamaint::core::{EngineBox, MaintenanceEngine};
use stratamaint::workload::paper;
use stratamaint::workload::script::{random_fact_script, ScriptConfig};
use stratamaint::workload::synth::{self, RandomConfig};

/// The six standard strategies plus two configured variants, all built
/// through the registry (the variants exercise its extension seam).
fn engines(program: &stratamaint::datalog::Program) -> Vec<EngineBox> {
    let mut registry = EngineRegistry::standard();
    registry.register(
        "cascade-literal",
        "§5.1 cascade without stratum skipping or pre-saturation",
        true,
        |p| {
            Ok(Box::new(CascadeEngine::with_config(
                p,
                CascadeConfig { skip_unaffected: false, presaturate: false },
            )?))
        },
    );
    registry.register(
        "fact-level-cap2",
        "§5.2 fact-level supports with the per-fact entry cap at 2",
        true,
        |p| Ok(Box::new(FactLevelEngine::with_cap(p, 2)?)),
    );
    registry.build_all(program)
}

fn replay_and_check(program: &stratamaint::datalog::Program, seed: u64, len: usize) {
    let script = random_fact_script(program, &ScriptConfig { len, insert_prob: 0.5 }, seed);
    for mut e in engines(program) {
        for (i, u) in script.iter().enumerate() {
            e.apply(u).unwrap_or_else(|err| panic!("[{}] step {i} {u}: {err}", e.name()));
            if let Err(msg) = check_against_ground_truth(e.as_ref()) {
                panic!("[{}] diverged at step {i} ({u}), seed {seed}:\n{msg}", e.name());
            }
        }
    }
}

#[test]
fn random_scripts_on_paper_workloads() {
    replay_and_check(&paper::pods(3, 8), 1, 40);
    replay_and_check(&paper::conf(5), 2, 40);
    replay_and_check(&paper::congress(5), 3, 40);
    replay_and_check(&paper::meet(4, 2), 4, 40);
}

#[test]
fn random_scripts_on_conference_pipeline() {
    let program = synth::conference(15, 4, 7);
    replay_and_check(&program, 5, 30);
}

#[test]
fn random_scripts_on_tc_complement() {
    let program = synth::tc_complement(6, 9, 11);
    replay_and_check(&program, 6, 25);
}

#[test]
fn random_scripts_on_bom() {
    let program = synth::bom(2, 2, 13);
    replay_and_check(&program, 7, 25);
}

#[test]
fn random_scripts_on_random_programs() {
    // Several random stratified programs, several seeds each.
    for pseed in 0..4 {
        let cfg = RandomConfig {
            edb_rels: 3,
            idb_rels: 5,
            rules_per_rel: 2,
            facts_per_rel: 8,
            domain: 6,
            neg_prob: 0.4,
        };
        let program = synth::random_stratified(&cfg, pseed);
        replay_and_check(&program, 100 + pseed, 30);
    }
}

#[test]
fn deep_negation_chain_scripts() {
    // chain(6) has no EDB facts initially; drive p0 in and out repeatedly.
    let program = paper::chain(6);
    for mut e in engines(&program) {
        for round in 0..3 {
            e.insert_fact(stratamaint::datalog::Fact::parse("p0").unwrap()).unwrap();
            check_against_ground_truth(e.as_ref())
                .unwrap_or_else(|m| panic!("[{}] round {round} insert: {m}", e.name()));
            e.delete_fact(stratamaint::datalog::Fact::parse("p0").unwrap()).unwrap();
            check_against_ground_truth(e.as_ref())
                .unwrap_or_else(|m| panic!("[{}] round {round} delete: {m}", e.name()));
        }
    }
}
