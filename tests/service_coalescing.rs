//! Coalescing correctness: for random interleaved insert/delete streams,
//! draining the queue and applying coalesced groups yields the same final
//! model, the same support dump, and the same per-request accept/reject
//! outcomes (error values included) as applying the stream one update at a
//! time — for every engine, durable engines included, across a
//! kill-and-reopen.

use proptest::prelude::*;
use stratamaint::core::registry::EngineRegistry;
use stratamaint::core::{EngineBox, MaintenanceEngine, StorageSpec, SupportDump, Update};
use stratamaint::datalog::{Fact, Program, Rule};
use stratamaint::service::{Coalescer, Decision};
use stratamaint::workload::script::{random_fact_script, ScriptConfig};
use stratamaint::workload::synth::{self, random_stratified, RandomConfig};

fn fact(s: &str) -> Fact {
    Fact::parse(s).unwrap()
}

fn ins(s: &str) -> Update {
    Update::InsertFact(fact(s))
}

fn del(s: &str) -> Update {
    Update::DeleteFact(fact(s))
}

fn state(e: &dyn MaintenanceEngine) -> (Vec<Fact>, SupportDump) {
    (e.model().sorted_facts(), e.support_dump())
}

/// The per-update oracle: apply one at a time, each its own transaction,
/// rejections leaving the engine unchanged.
fn oracle_run(engine: &mut EngineBox, stream: &[Update]) -> Vec<Decision> {
    stream
        .iter()
        .map(|u| match engine.apply(u) {
            Ok(_) => Decision::Accepted,
            Err(e) => Decision::Rejected(e),
        })
        .collect()
}

/// The service path, minus the threads: cut the stream into groups of
/// `group` updates, rule updates acting as barriers exactly as the ingest
/// queue would cut them, plan each group through the coalescer, and commit
/// each non-empty net batch with one `apply_all`.
fn grouped_run(engine: &mut EngineBox, stream: &[Update], group: usize) -> Vec<Decision> {
    let mut coalescer = Coalescer::new();
    let mut decisions = Vec::with_capacity(stream.len());
    let mut pending: Vec<Update> = Vec::new();
    let flush_group = |engine: &mut EngineBox,
                       coalescer: &mut Coalescer,
                       pending: &mut Vec<Update>,
                       decisions: &mut Vec<Decision>| {
        if pending.is_empty() {
            return;
        }
        let plan = coalescer.plan_group(engine.program(), pending.iter());
        if !plan.batch.is_empty() {
            engine.apply_all(&plan.batch).expect("planned net batch must apply");
        }
        decisions.extend(plan.decisions);
        pending.clear();
    };
    for u in stream {
        let is_barrier = matches!(
            stratamaint::core::engine::normalize(u),
            Update::InsertRule(_) | Update::DeleteRule(_)
        );
        if is_barrier {
            flush_group(engine, &mut coalescer, &mut pending, &mut decisions);
            let precheck = match stratamaint::core::engine::normalize(u) {
                Update::InsertRule(rule) => coalescer.precheck_rule(engine.program(), &rule),
                _ => Ok(()),
            };
            decisions.push(match precheck.and_then(|()| engine.apply(u).map(|_| ())) {
                Ok(()) => Decision::Accepted,
                Err(e) => Decision::Rejected(e),
            });
            continue;
        }
        pending.push(u.clone());
        if pending.len() >= group {
            flush_group(engine, &mut coalescer, &mut pending, &mut decisions);
        }
    }
    flush_group(engine, &mut coalescer, &mut pending, &mut decisions);
    decisions
}

/// A fresh store directory, unique per call: tests run concurrently and
/// reach the same strategy/group pair, so name and pid alone collide.
fn scratch(name: &str) -> std::path::PathBuf {
    static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("strata_svc_coal_{name}_{}_{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The canonical support dump for a belief state: what a fresh engine
/// rebuilt from the final program believes. Support *content* is a sound
/// approximation whose exact shape is update-path-dependent for the
/// support-bearing engines (e.g. the cascade only attaches a rule pointer
/// when a firing first derives the fact, and §4.2 keeps one arbitrary
/// valid witness pair), so two paths to the same belief state may hold
/// different — equally sound — dumps. Canonicalization is the store's own
/// normal form (`compact` rebuilds before snapshotting), which makes it
/// the right equality for comparing states reached along different paths.
fn canonical_dump(name: &str, program: &Program) -> SupportDump {
    EngineRegistry::standard().build(name, program.clone()).unwrap().support_dump()
}

/// Runs the oracle and the grouped path over the same stream for one
/// strategy and storage config, asserting decision + model + program +
/// canonical-support equality (and exact kill-and-reopen equality when
/// durable).
fn differential(
    name: &str,
    program: &Program,
    stream: &[Update],
    group: usize,
    storage: &StorageSpec,
) {
    let registry = EngineRegistry::standard();
    let mut oracle = registry.build(name, program.clone()).unwrap();
    let oracle_decisions = oracle_run(&mut oracle, stream);
    let grouped_state = {
        let mut grouped = registry.build_with_storage(name, program.clone(), storage).unwrap();
        let grouped_decisions = grouped_run(&mut grouped, stream, group);
        assert_eq!(
            grouped_decisions, oracle_decisions,
            "[{name}/g{group}/{storage}] decisions diverged"
        );
        assert_eq!(
            grouped.model().sorted_facts(),
            oracle.model().sorted_facts(),
            "[{name}/g{group}/{storage}] model diverged"
        );
        // The programs (asserted EDB + rules) must agree exactly — and
        // with them the canonical belief state, supports included.
        let (gp, op) = (grouped.program(), oracle.program());
        let facts = |p: &Program| {
            let mut fs: Vec<Fact> = p.facts().cloned().collect();
            fs.sort();
            fs
        };
        assert_eq!(facts(gp), facts(op), "[{name}/g{group}/{storage}] EDB diverged");
        let rules = |p: &Program| p.rules().map(|(_, r)| r.to_string()).collect::<Vec<_>>();
        assert_eq!(rules(gp), rules(op), "[{name}/g{group}/{storage}] rules diverged");
        assert_eq!(
            canonical_dump(name, gp),
            canonical_dump(name, op),
            "[{name}/g{group}/{storage}] canonical support dump diverged"
        );
        state(grouped.as_ref())
    }; // durable: dropped = simulated process kill after the last commit
    if let Some(dir) = storage.wal_dir() {
        let reopened = registry.build_with_storage(name, Program::new(), storage).unwrap();
        // Recovery replays the grouped transactions through the same entry
        // points, so it must land on the grouped engine's exact pre-kill
        // state — model *and* support dump, byte for byte.
        assert_eq!(
            state(reopened.as_ref()),
            grouped_state,
            "[{name}/g{group}] kill-and-reopen diverged from the live state"
        );
        assert_eq!(
            reopened.model().sorted_facts(),
            oracle.model().sorted_facts(),
            "[{name}/g{group}] kill-and-reopen diverged from the oracle"
        );
        let _ = std::fs::remove_dir_all(dir);
    }
}

fn every_engine(program: &Program, stream: &[Update], group: usize) {
    let registry = EngineRegistry::standard();
    for name in registry.names() {
        differential(name, program, stream, group, &StorageSpec::Mem);
    }
    // The durable leg: cascade (batch-override path) and dynamic-single
    // (sequential batch default) cover both apply_all code shapes.
    for name in ["cascade", "dynamic-single"] {
        let dir = scratch(&format!("{name}_{group}"));
        differential(name, program, stream, group, &StorageSpec::wal(dir));
    }
}

#[test]
fn handcrafted_hostile_stream_all_engines() {
    let program = synth::conference(20, 5, 3);
    // Transients, duplicates, unasserted deletes, arity mismatches, and a
    // couple of rule barriers — everything the decision layer must mirror.
    let stream = vec![
        ins("ghost(1)"),
        del("ghost(1)"),    // cancels: the engine never sees ghost/1
        ins("ghost(1, 2)"), // arity mismatch vs the *coalesced-away* ghost/1
        del("phantom(9)"),  // NotAsserted
        ins("extra(1)"),
        ins("extra(1)"), // duplicate insert, accepted no-op
        del("extra(1)"),
        del("extra(1)"), // second delete rejected
        Update::InsertRule(Rule::parse("odd(X) :- extra(X), !ghost(X).").unwrap()),
        ins("extra(2)"),
        del("extra(2)"),
        Update::DeleteRule(Rule::parse("odd(X) :- extra(X), !ghost(X).").unwrap()),
        Update::DeleteRule(Rule::parse("no_such(X) :- extra(X).").unwrap()), // UnknownRule
        Update::InsertRule(Rule::parse("bad(X) :- ghost(X, X, X).").unwrap()), // arity vs ghost/1
    ];
    for group in [1, 3, 64] {
        every_engine(&program, &stream, group);
    }
}

#[test]
fn conference_random_scripts_all_engines() {
    let program = synth::conference(30, 6, 11);
    let stream = random_fact_script(&program, &ScriptConfig { len: 60, insert_prob: 0.5 }, 23);
    for group in [1, 7, 16] {
        every_engine(&program, &stream, group);
    }
}

#[test]
fn unstratifiable_rule_barrier_rejects_identically() {
    let program = Program::parse(
        "submitted(1). submitted(2). accepted(2).
         rejected(X) :- submitted(X), !accepted(X).",
    )
    .unwrap();
    let stream = vec![
        ins("submitted(3)"),
        Update::InsertRule(Rule::parse("accepted(X) :- submitted(X), !rejected(X).").unwrap()),
        ins("submitted(4)"),
    ];
    every_engine(&program, &stream, 8);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random stratified programs × random interleaved insert/delete
    /// streams × random group sizes: grouped-coalesced ingestion is
    /// indistinguishable from the per-update oracle on every engine,
    /// durable engines included.
    #[test]
    fn random_streams_group_to_the_oracle(
        seed in 0u64..500,
        group in 1usize..12,
    ) {
        let cfg = RandomConfig {
            edb_rels: 3,
            idb_rels: 4,
            rules_per_rel: 2,
            facts_per_rel: 6,
            domain: 5,
            neg_prob: 0.35,
        };
        let program = random_stratified(&cfg, seed);
        let stream = random_fact_script(
            &program,
            &ScriptConfig { len: 40, insert_prob: 0.55 },
            seed ^ 0x5eed,
        );
        every_engine(&program, &stream, group);
    }
}
