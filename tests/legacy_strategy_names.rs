//! Stores and command lines that name a strategy the registry no longer
//! carries.
//!
//! `cascade-parallel` was once a registered strategy: the cascade engine
//! with per-stratum parallel saturation. Its stores hold that name in their
//! snapshot metadata, but the state inside is the plain cascade engine's,
//! so they must reopen under `cascade` with nothing lost. A server asked to
//! run the old name must refuse it with the registry's list of names.

use std::path::PathBuf;
use std::process::Command;

use stratamaint::core::durable::DurableEngine;
use stratamaint::core::registry::EngineRegistry;
use stratamaint::core::{MaintenanceEngine, StorageSpec, Update};
use stratamaint::datalog::{Fact, Program, Rule};
use stratamaint::store::{Durability, Snapshot, SNAPSHOT_FILE};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("strata_legacy_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn program() -> Program {
    Program::parse(
        "edge(1, 2). edge(2, 3). edge(3, 4). blocked(3).
         reach(X, Y) :- edge(X, Y).
         reach(X, Z) :- reach(X, Y), edge(Y, Z).
         open(X, Y) :- reach(X, Y), !blocked(Y).",
    )
    .unwrap()
}

fn fact(src: &str) -> Fact {
    Fact::parse(src).unwrap()
}

#[test]
fn a_store_written_as_cascade_parallel_reopens_as_cascade() {
    let dir = scratch("cascade_parallel");
    let registry = EngineRegistry::standard();
    let cascade = registry.ctor("cascade").unwrap();
    let before = {
        let mut old =
            DurableEngine::open(&dir, "cascade-parallel", cascade, program(), Durability::Fsync)
                .unwrap();
        old.apply(&Update::InsertFact(fact("edge(4, 5)"))).unwrap();
        old.apply(&Update::DeleteFact(fact("blocked(3)"))).unwrap();
        // Checkpoint so the snapshot carries the old name, then leave a
        // WAL suffix behind it for recovery to replay.
        assert!(old.checkpoint().unwrap());
        old.apply(&Update::InsertFact(fact("blocked(5)"))).unwrap();
        old.apply(&Update::InsertRule(Rule::parse("hub(X) :- open(X, 4).").unwrap())).unwrap();
        (old.model().sorted_facts(), old.support_dump())
    };
    let snapshot = Snapshot::decode(&std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap()).unwrap();
    assert_eq!(snapshot.meta, "cascade-parallel");

    let reopened =
        registry.build_with_storage("cascade", Program::new(), &StorageSpec::wal(&dir)).unwrap();
    assert_eq!(reopened.name(), "cascade");
    assert_eq!(reopened.durability().unwrap().recovered_txns, 2, "the WAL suffix replayed");
    assert_eq!(reopened.model().sorted_facts(), before.0, "model");
    assert_eq!(reopened.support_dump(), before.1, "canonical support dump");
    assert!(reopened.model().contains_parsed("hub(1)"));
    assert!(!reopened.model().contains_parsed("open(1, 5)"));
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn strata_serve_refuses_the_removed_strategy_names() {
    for name in ["cascade-parallel", "recompute-parallel"] {
        let out = Command::new(env!("CARGO_BIN_EXE_strata-serve"))
            .args(["127.0.0.1:0", "--strategy", name])
            .output()
            .unwrap();
        assert!(!out.status.success(), "[{name}] must not start");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("unknown strategy `{name}`")), "{stderr}");
        let known = "(recompute | static | dynamic-single | dynamic-multi | cascade | fact-level)";
        assert!(stderr.contains(known), "the six registered names: {stderr}");
    }
    let out = Command::new(env!("CARGO_BIN_EXE_strata-serve"))
        .args(["127.0.0.1:0", "--threads", "4"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag --threads"));
}
