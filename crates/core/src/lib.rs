//! # strata-core
//!
//! Incremental maintenance of stratified deductive databases, viewed as a
//! belief revision system — a full implementation of
//! *Apt & Pugin, PODS 1987*.
//!
//! A stratified database `P` has a standard model `M(P)`. Because rules may
//! contain negative hypotheses, maintenance is **non-monotonic**: inserting
//! a fact can force deletions from the model and vice versa. Every strategy
//! here keeps an *explicit representation* — the model, enriched with
//! per-fact bookkeeping (supports) — and updates it in place.
//!
//! ## The strategies
//!
//! | engine | name | paper § | support attached to each fact |
//! |--------|------|---------|-------------------------------|
//! | [`strategy::RecomputeEngine`] | `recompute` | baseline | none (recompute from scratch) |
//! | [`strategy::StaticEngine`] | `static` | 4.1 | none (uses static `Pos`/`Neg` relation sets) |
//! | [`strategy::DynamicSingleEngine`] | `dynamic-single` | 4.2 | one `Pos`/`Neg` pair with signed relations |
//! | [`strategy::DynamicMultiEngine`] | `dynamic-multi` | 4.3 | a set of support pairs, one per derivation |
//! | [`strategy::CascadeEngine`] | `cascade` | 5.1 | one-level rule pointers, strata cascaded |
//! | [`strategy::FactLevelEngine`] | `fact-level` | 5.2 | full fact-level supports (zero migration) |
//!
//! All of them implement [`engine::MaintenanceEngine`] and agree on the
//! resulting model (checked extensively by tests); they differ in how much
//! **migration** (erroneous removal followed by re-derivation) and
//! bookkeeping each update costs — the trade-off the paper studies.
//!
//! The **name** column is the key in [`registry::EngineRegistry`], the one
//! place strategy names map to constructors: runtime strategy selection
//! (the `strata` shell, the bench harness, the equivalence tests) builds
//! `Box<dyn MaintenanceEngine>` through the registry instead of matching on
//! names locally. Updates are applied one at a time with
//! [`engine::MaintenanceEngine::apply`] or as an atomic batch with
//! [`engine::MaintenanceEngine::apply_all`], whose rejection semantics
//! (reject leaves the engine unchanged) every engine shares.
//!
//! ## Quick example
//!
//! ```
//! use strata_core::engine::MaintenanceEngine;
//! use strata_core::strategy::CascadeEngine;
//! use strata_datalog::{Fact, Program};
//!
//! let program = Program::parse(
//!     "submitted(1). submitted(2). accepted(2).
//!      rejected(X) :- submitted(X), !accepted(X).",
//! ).unwrap();
//! let mut engine = CascadeEngine::new(program).unwrap();
//! assert!(engine.model().contains_parsed("rejected(1)"));
//!
//! // Inserting accepted(1) *deletes* rejected(1) from the model.
//! engine.insert_fact(Fact::parse("accepted(1)").unwrap()).unwrap();
//! assert!(!engine.model().contains_parsed("rejected(1)"));
//! ```

pub mod analysis;
pub mod constraints;
pub mod durable;
pub mod engine;
pub mod explain;
pub mod registry;
pub mod stats;
pub mod strategy;
pub mod support;
pub mod verify;

pub use durable::{DurableEngine, ReplayMode, SnapshotMode, StorageSpec, WalSpec};
pub use engine::{DurabilityStats, EngineBox, MaintenanceEngine, MaintenanceError, Update};
pub use registry::{EngineRegistry, RegistryError};
// Fault injection is defined next to the I/O it fails (`strata_store`);
// re-exported here so service-layer crates arm plans without a direct
// store dependency.
pub use stats::UpdateStats;
pub use strata_store::{faults, FaultInjector, FaultPlan, FaultPoint, ShardManifest};
pub use support::SupportDump;
