//! The uniform maintenance interface shared by all strategies.

use std::fmt;

use strata_datalog::error::{DatalogError, StratificationError};
use strata_datalog::{Database, Fact, Program, Rule};

use crate::stats::UpdateStats;

/// An update to a stratified database (paper §3: "given P' obtained by a
/// fact or rule insertion or deletion, compute its intended meaning M(P')
/// making use of the already existing model M(P)").
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Update {
    /// Assert a ground fact (a unit clause).
    InsertFact(Fact),
    /// Retract an asserted fact. Only asserted facts may be deleted — the
    /// paper allows "deletions only for the relations defined in the
    /// extensional part".
    DeleteFact(Fact),
    /// Add a rule. The result must remain stratified.
    InsertRule(Rule),
    /// Remove a (structurally equal) rule.
    DeleteRule(Rule),
}

impl fmt::Display for Update {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Update::InsertFact(fact) => write!(f, "INSERT({fact})"),
            Update::DeleteFact(fact) => write!(f, "DELETE({fact})"),
            Update::InsertRule(rule) => write!(f, "INSERT({rule})"),
            Update::DeleteRule(rule) => write!(f, "DELETE({rule})"),
        }
    }
}

/// Why an update was rejected. Rejected updates leave the engine unchanged.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MaintenanceError {
    /// Deleting a fact that is not asserted (it may be *derived*, but the
    /// paper's update language cannot delete derived facts).
    NotAsserted(Fact),
    /// Deleting a rule the program does not contain.
    UnknownRule(Rule),
    /// Inserting a rule would create recursion through negation. "We require
    /// that, in the case of a rule insertion, the resulting program remains
    /// stratified" (§4).
    WouldUnstratify(StratificationError),
    /// A language-level error (arity mismatch, unsafe rule, …).
    Datalog(DatalogError),
    /// The durable backing store failed (I/O error, corrupt file). Only
    /// raised by storage-backed engines ([`crate::durable::DurableEngine`]).
    Storage(String),
    /// The service worker applying this update panicked; the update's
    /// outcome is unknown (it may or may not have committed) and the
    /// request is safe to retry idempotently.
    Panicked(String),
    /// The service has degraded to read-only mode after persistent storage
    /// failures: snapshot reads and stats keep serving, updates are
    /// rejected until a write probe succeeds. Retryable.
    ReadOnly,
    /// The service was shut down before deciding this request.
    Shutdown,
}

impl fmt::Display for MaintenanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MaintenanceError::NotAsserted(fact) => {
                write!(f, "cannot delete `{fact}`: not an asserted fact")
            }
            MaintenanceError::UnknownRule(rule) => {
                write!(f, "cannot delete `{rule}`: no such rule")
            }
            MaintenanceError::WouldUnstratify(e) => {
                write!(f, "rule insertion rejected: {e}")
            }
            MaintenanceError::Datalog(e) => write!(f, "{e}"),
            MaintenanceError::Storage(msg) => write!(f, "storage error: {msg}"),
            MaintenanceError::Panicked(msg) => {
                write!(f, "worker panicked while applying this request: {msg}")
            }
            MaintenanceError::ReadOnly => {
                write!(f, "service is in read-only mode (storage is failing); retry later")
            }
            MaintenanceError::Shutdown => {
                write!(f, "service shut down before deciding this request")
            }
        }
    }
}

impl MaintenanceError {
    /// A short, stable, machine-readable code for each failure class — the
    /// wire currency (`err code=<code> …`) clients branch on.
    pub fn code(&self) -> &'static str {
        match self {
            MaintenanceError::NotAsserted(_) => "not-asserted",
            MaintenanceError::UnknownRule(_) => "unknown-rule",
            MaintenanceError::WouldUnstratify(_) => "unstratified",
            MaintenanceError::Datalog(_) => "datalog",
            MaintenanceError::Storage(_) => "storage",
            MaintenanceError::Panicked(_) => "panicked",
            MaintenanceError::ReadOnly => "read-only",
            MaintenanceError::Shutdown => "shutdown",
        }
    }

    /// Whether a client may retry the identical request and hope for a
    /// different outcome. Semantic rejections (the paper's update-language
    /// errors) are deterministic — retrying them is pointless — while
    /// infrastructure failures are transient by design: the service heals
    /// workers, re-probes read-only mode, and another process may replace a
    /// shut-down one. Paired with the dedup window (`client`/`seq`), a
    /// retry of an *ambiguous* failure is also safe: an already-committed
    /// first attempt is replayed, never re-applied.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            MaintenanceError::Storage(_)
                | MaintenanceError::Panicked(_)
                | MaintenanceError::ReadOnly
                | MaintenanceError::Shutdown
        )
    }
}

impl std::error::Error for MaintenanceError {}

impl From<DatalogError> for MaintenanceError {
    fn from(e: DatalogError) -> Self {
        MaintenanceError::Datalog(e)
    }
}

/// The workspace's boxed-engine currency: every registry-built engine is
/// `Send`, so it can be handed to a service worker thread (the concurrent
/// ingest layer) or parked behind a shared `Mutex` for readers.
pub type EngineBox = Box<dyn MaintenanceEngine + Send>;

/// Durability counters reported by storage-backed engines
/// ([`crate::durable::DurableEngine`]); `None` for in-memory engines.
///
/// `recovered_*` describe what `open` replayed — they make restart metrics
/// honest: a session that recovered 10k transactions from the WAL did real
/// work before its first update, and `:stats`/service dashboards should say
/// so instead of starting from zero.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DurabilityStats {
    /// Committed WAL transactions replayed at open (after the snapshot).
    pub recovered_txns: u64,
    /// Individual updates carried by those replayed transactions.
    pub recovered_updates: u64,
    /// Whether open found (and truncated) a torn WAL tail — crash evidence.
    pub recovered_torn_tail: bool,
    /// Terminated transactions currently in the WAL. Under group commit
    /// this grows by one per *group*, not per update.
    pub wal_txns: u64,
    /// Bytes of terminated transactions currently in the WAL.
    pub wal_bytes: u64,
    /// Whether open found mid-file WAL corruption (damage *before* the
    /// committed suffix — not a torn tail) and quarantined the damaged
    /// image as `wal.corrupt-<seq>` beside the log. Committed transactions
    /// after the damage were lost; the quarantine file preserves them for
    /// manual recovery.
    pub recovered_quarantined: bool,
    /// Wall-clock milliseconds the last open spent recovering (snapshot
    /// chain rebuild + WAL replay + integrity checks).
    pub recovery_ms: u64,
    /// Incremental snapshots currently chained on the base snapshot; 0
    /// right after a full checkpoint or under full-snapshot mode.
    pub snapshot_chain_len: u64,
    /// Transaction sequence the snapshot chain covers through.
    pub snapshot_seq: u64,
    /// How the last open consumed the WAL suffix (engine-exact or bulk).
    pub replay_mode: crate::durable::ReplayMode,
}

/// A maintenance strategy: an explicit representation of `M(P)` kept
/// up to date under updates.
pub trait MaintenanceEngine {
    /// A short stable name for reports ("static", "cascade", …).
    fn name(&self) -> &'static str;

    /// The current program `P`.
    fn program(&self) -> &Program;

    /// The current model `M(P)`.
    fn model(&self) -> &Database;

    /// Approximate bytes of per-fact bookkeeping currently held.
    fn support_bytes(&self) -> usize;

    /// A symbolic dump of the per-fact support state, in canonical order.
    ///
    /// The default (engines with no per-fact bookkeeping: `recompute`,
    /// `static`) is empty. Dumps are the comparison currency of the
    /// persistence layer: a recovered engine must reproduce its
    /// predecessor's dump exactly, and snapshots embed the dump for audit.
    fn support_dump(&self) -> crate::support::SupportDump {
        crate::support::SupportDump::default()
    }

    /// Durability hook: if this engine is backed by a durable store,
    /// snapshot the current state and compact the log, returning
    /// `Ok(true)`. The default — a purely in-memory engine — does nothing
    /// and returns `Ok(false)`.
    fn checkpoint(&mut self) -> Result<bool, MaintenanceError> {
        Ok(false)
    }

    /// Policy-gated durability hook: checkpoint only if the engine's
    /// auto-compaction policy says one is due (WAL size, transaction
    /// count, or estimated recovery time over threshold), returning
    /// whether a checkpoint ran. The default — in-memory engines and
    /// durable engines with compaction off — does nothing and returns
    /// `Ok(false)`. The ingest service calls this after every
    /// successfully processed group.
    fn auto_checkpoint(&mut self) -> Result<bool, MaintenanceError> {
        Ok(false)
    }

    /// Durability counters: what recovery replayed at open and what the WAL
    /// holds now. `None` (the default) for purely in-memory engines.
    fn durability(&self) -> Option<DurabilityStats> {
        None
    }

    /// Applies one update, returning what it did.
    fn apply(&mut self, update: &Update) -> Result<UpdateStats, MaintenanceError>;

    /// The batch-update transaction entry point: applies `updates` as one
    /// atomic group, returning aggregate statistics. On the first rejected
    /// update the already-applied prefix is rolled back (by inverse
    /// updates) and the error returned — a rejected batch leaves the
    /// engine exactly as it was.
    ///
    /// The default implementation is sequential; engines may override it
    /// with a single removal/saturation pass (see `CascadeEngine`, which
    /// walks the strata once for the whole batch).
    fn apply_all(&mut self, updates: &[Update]) -> Result<UpdateStats, MaintenanceError> {
        apply_all_sequential(self, updates)
    }

    /// Convenience: [`Update::InsertFact`].
    fn insert_fact(&mut self, fact: Fact) -> Result<UpdateStats, MaintenanceError> {
        self.apply(&Update::InsertFact(fact))
    }

    /// Convenience: [`Update::DeleteFact`].
    fn delete_fact(&mut self, fact: Fact) -> Result<UpdateStats, MaintenanceError> {
        self.apply(&Update::DeleteFact(fact))
    }

    /// Convenience: [`Update::InsertRule`].
    fn insert_rule(&mut self, rule: Rule) -> Result<UpdateStats, MaintenanceError> {
        self.apply(&Update::InsertRule(rule))
    }

    /// Convenience: [`Update::DeleteRule`].
    fn delete_rule(&mut self, rule: Rule) -> Result<UpdateStats, MaintenanceError> {
        self.apply(&Update::DeleteRule(rule))
    }
}

/// The sequential batch transaction: apply one by one, accumulating, and
/// roll back the applied prefix on the first rejection. This is the
/// [`MaintenanceEngine::apply_all`] default, shared as a free function so
/// overrides (e.g. the cascade's mixed-batch fallback) reuse it instead of
/// duplicating the rollback-trail logic.
pub(crate) fn apply_all_sequential<E: MaintenanceEngine + ?Sized>(
    engine: &mut E,
    updates: &[Update],
) -> Result<UpdateStats, MaintenanceError> {
    let mut total = UpdateStats::default();
    let mut applied: Vec<Update> = Vec::new();
    for u in updates {
        // Inserting an already-asserted fact is a no-op whose inverse
        // would wrongly retract a pre-existing fact: exclude from the
        // rollback trail.
        let noop = matches!(
            &normalize(u), Update::InsertFact(f) if engine.program().is_asserted(f)
        );
        match engine.apply(u) {
            Ok(stats) => {
                total.accumulate(&stats);
                if !noop {
                    applied.push(u.clone());
                }
            }
            Err(e) => {
                for done in applied.iter().rev() {
                    engine.apply(&invert(done)).expect("inverse of applied update");
                }
                return Err(e);
            }
        }
    }
    Ok(total)
}

impl fmt::Debug for dyn MaintenanceEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MaintenanceEngine")
            .field("name", &self.name())
            .field("model_facts", &self.model().len())
            .finish_non_exhaustive()
    }
}

impl fmt::Debug for dyn MaintenanceEngine + Send {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MaintenanceEngine")
            .field("name", &self.name())
            .field("model_facts", &self.model().len())
            .finish_non_exhaustive()
    }
}

/// The inverse of an update (prefix rollback for [`MaintenanceEngine::apply_all`]).
pub(crate) fn invert(update: &Update) -> Update {
    match update {
        Update::InsertFact(f) => Update::DeleteFact(f.clone()),
        Update::DeleteFact(f) => Update::InsertFact(f.clone()),
        Update::InsertRule(r) => Update::DeleteRule(r.clone()),
        Update::DeleteRule(r) => Update::InsertRule(r.clone()),
    }
}

// One generic impl covers `Box<dyn MaintenanceEngine>`, [`EngineBox`], and
// boxed concrete engines alike.
impl<E: MaintenanceEngine + ?Sized> MaintenanceEngine for Box<E> {
    fn name(&self) -> &'static str {
        self.as_ref().name()
    }

    fn program(&self) -> &Program {
        self.as_ref().program()
    }

    fn model(&self) -> &Database {
        self.as_ref().model()
    }

    fn support_bytes(&self) -> usize {
        self.as_ref().support_bytes()
    }

    // Forwarded so a boxed engine reports its concrete dump / durability
    // behavior instead of the trait defaults.
    fn support_dump(&self) -> crate::support::SupportDump {
        self.as_ref().support_dump()
    }

    fn checkpoint(&mut self) -> Result<bool, MaintenanceError> {
        self.as_mut().checkpoint()
    }

    fn auto_checkpoint(&mut self) -> Result<bool, MaintenanceError> {
        self.as_mut().auto_checkpoint()
    }

    fn durability(&self) -> Option<DurabilityStats> {
        self.as_ref().durability()
    }

    fn apply(&mut self, update: &Update) -> Result<UpdateStats, MaintenanceError> {
        self.as_mut().apply(update)
    }

    // Forwarded explicitly so a boxed engine keeps its concrete batch
    // override (e.g. the cascade's single stratum walk) instead of the
    // sequential default.
    fn apply_all(&mut self, updates: &[Update]) -> Result<UpdateStats, MaintenanceError> {
        self.as_mut().apply_all(updates)
    }
}

/// Rewrites rule updates whose rule is a ground unit clause into the
/// corresponding fact updates, so every engine treats `p(a).` uniformly.
/// Public because ingest front-ends (the `strata-service` coalescing queue)
/// must classify updates exactly the way the engines will.
pub fn normalize(update: &Update) -> Update {
    match update {
        Update::InsertRule(r) if r.is_fact_clause() => {
            Update::InsertFact(r.head.to_fact().expect("ground head"))
        }
        Update::DeleteRule(r) if r.is_fact_clause() => {
            Update::DeleteFact(r.head.to_fact().expect("ground head"))
        }
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_updates() {
        let u = Update::InsertFact(Fact::parse("p(1)").unwrap());
        assert_eq!(u.to_string(), "INSERT(p(1))");
        let u = Update::DeleteRule(Rule::parse("p(X) :- q(X).").unwrap());
        assert_eq!(u.to_string(), "DELETE(p(X) :- q(X).)");
    }

    #[test]
    fn normalize_rewrites_fact_clauses() {
        let u = normalize(&Update::InsertRule(Rule::parse("p(1).").unwrap()));
        assert_eq!(u, Update::InsertFact(Fact::parse("p(1)").unwrap()));
        let u = normalize(&Update::DeleteRule(Rule::parse("p(1).").unwrap()));
        assert_eq!(u, Update::DeleteFact(Fact::parse("p(1)").unwrap()));
        let real_rule = Update::InsertRule(Rule::parse("p(X) :- q(X).").unwrap());
        assert_eq!(normalize(&real_rule), real_rule);
    }

    #[test]
    fn error_display() {
        let e = MaintenanceError::NotAsserted(Fact::parse("p(1)").unwrap());
        assert!(e.to_string().contains("not an asserted fact"));
        let e = MaintenanceError::UnknownRule(Rule::parse("p(X) :- q(X).").unwrap());
        assert!(e.to_string().contains("no such rule"));
    }
}
