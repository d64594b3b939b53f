//! Durable maintenance: [`DurableEngine`] makes any engine's belief state —
//! the model *and* the supports that justify it — survive restart.
//!
//! ## Write path
//!
//! Every [`MaintenanceEngine::apply_all`] batch becomes one WAL transaction,
//! logged **before** the in-memory engine sees it:
//!
//! ```text
//! BEGIN(seq)  DATA(update)*            buffered
//! … inner.apply_all(batch) …           in memory
//! COMMIT(seq) | ABORT(seq)             fsync — the batch's commit point
//! ```
//!
//! A batch the engine rejects writes `ABORT`, so the durable history
//! records the decision; a crash mid-batch leaves an unterminated
//! transaction that recovery discards — either way the store replays to the
//! exact pre-batch state, which is the `apply_all` contract ("reject leaves
//! the engine unchanged") extended to disk.
//!
//! ## Recovery
//!
//! `open` = reconstruct (program, model) from the snapshot **chain** — the
//! base snapshot plus any incremental delta patches (see
//! [`strata_store`]'s chain docs) — then consume the committed WAL suffix
//! per the configured [`ReplayMode`]:
//!
//! * [`ReplayMode::Engine`] (default): rebuild the engine from the chain's
//!   program, verify the rebuilt model against the chain's model, then
//!   replay each committed transaction through the engine's own decision
//!   path. Engines are deterministic functions of (program, update
//!   sequence), so replay reproduces the supports as well as the model.
//! * [`ReplayMode::Bulk`]: fold the suffix directly into the program and
//!   build the engine once — one saturation instead of per-transaction
//!   incremental maintenance; lands the canonical belief state.
//!
//! ## Checkpoints and compaction
//!
//! [`DurableEngine::compact`] writes a fresh full snapshot and empties the
//! WAL. It first **canonicalizes** the live engine — rebuilds it from its
//! current program — so that the live support state and the
//! recovered-from-snapshot support state are the same object by
//! construction. (Support sets are sound approximations either way; the
//! canonical form is what a fresh engine would believe, which is the
//! natural normal form for a belief state checkpoint.)
//!
//! Under [`SnapshotMode::Incremental`] a checkpoint instead appends a
//! *delta* — the relations that changed since the last checkpoint (stamp
//! diff on the model side, update-touched relations on the program side)
//! plus the full rule list — and falls back to a full snapshot once the
//! chain reaches its length bound. Delta checkpoints skip canonicalization
//! (the live engine is untouched); recovery still lands the canonical
//! state because it reconstructs the program and builds fresh.
//!
//! [`MaintenanceEngine::auto_checkpoint`] consults the configured
//! [`CompactionPolicy`] (WAL bytes / txn count / estimated replay time)
//! and checkpoints when a threshold is crossed — the service worker calls
//! it after every successfully processed group.

use std::fmt;
use std::path::{Path, PathBuf};

use rustc_hash::{FxHashMap, FxHashSet};
use strata_datalog::wire::{self, Reader, WireError};
use strata_datalog::{Database, Fact, Program, RelStamp, Rule, Symbol};
use strata_store::{CompactionPolicy, Durability, FaultInjector, Store};

use crate::engine::{DurabilityStats, EngineBox, MaintenanceEngine, MaintenanceError, Update};
use crate::stats::UpdateStats;
use crate::support::{FactSupport, PairDump, SupportDump, WitnessDump};

/// How recovery rebuilds the in-memory engine from the WAL suffix.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ReplayMode {
    /// Replay every committed transaction through the engine's own
    /// decision path (`apply`/`apply_all`), exactly as it originally ran.
    /// Reproduces the live engine's support state byte for byte — the
    /// [`WalSpec`] default, and the mode every exactness test pins: it is
    /// the oracle side of `tests/durable_differential.rs`, which checks
    /// [`ReplayMode::Bulk`] against it.
    #[default]
    Engine,
    /// Fold the committed WAL suffix directly into the recovered
    /// *program* and build the engine once from the result. One
    /// saturation instead of per-transaction incremental maintenance —
    /// the production fast path (see `BENCH_recovery.json`). Lands the
    /// **canonical** belief state (what a fresh engine would believe):
    /// the model is always identical to engine replay; support sets are
    /// the canonical form, which for the cascade strategy can be a
    /// different (equally sound) approximation than the live engine's
    /// incremental one.
    Bulk,
}

impl ReplayMode {
    /// The name used in spec strings and on the stats wire line.
    pub fn name(self) -> &'static str {
        match self {
            ReplayMode::Engine => "engine",
            ReplayMode::Bulk => "bulk",
        }
    }
}

impl fmt::Display for ReplayMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for ReplayMode {
    type Err = String;

    fn from_str(s: &str) -> Result<ReplayMode, String> {
        match s {
            "engine" => Ok(ReplayMode::Engine),
            "bulk" => Ok(ReplayMode::Bulk),
            other => Err(format!("invalid replay mode `{other}` (expected `engine` or `bulk`)")),
        }
    }
}

/// Default chain-length bound of [`SnapshotMode::Incremental`]: the
/// `delta` spelling without an explicit bound.
pub const DEFAULT_MAX_CHAIN: u32 = 8;

/// What a checkpoint writes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SnapshotMode {
    /// Every checkpoint writes a full snapshot (the default). The live
    /// engine is canonicalized first, so post-checkpoint live state is
    /// byte-identical to recovered state.
    #[default]
    Full,
    /// Checkpoints append a delta to the snapshot chain — only relations
    /// that changed since the previous link (per-relation [`RelStamp`]s
    /// plus the update-touched set) are carried. Once the chain reaches
    /// `max_chain` links, the next checkpoint falls back to a full
    /// snapshot and resets the chain. Incremental checkpoints do **not**
    /// canonicalize the live engine (a rebuild would invalidate every
    /// stamp baseline).
    Incremental {
        /// Chain links after which the next checkpoint goes full.
        max_chain: u32,
    },
}

/// The durable half of a [`StorageSpec`]: where the store lives and every
/// knob of its lifecycle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalSpec {
    /// The store directory (WAL + snapshot chain).
    pub dir: PathBuf,
    /// Whether commits fsync ([`Durability::Fsync`], the default) or
    /// leave flushing to the OS.
    pub fsync: Durability,
    /// When to checkpoint automatically (disabled by default; evaluated
    /// via [`MaintenanceEngine::auto_checkpoint`]).
    pub compaction: CompactionPolicy,
    /// What a checkpoint writes (full snapshots by default).
    pub snapshot: SnapshotMode,
    /// How recovery replays the WAL suffix (engine-exact by default).
    pub replay: ReplayMode,
}

impl WalSpec {
    /// A durable spec at `dir` with every knob at its default.
    pub fn new(dir: impl Into<PathBuf>) -> WalSpec {
        WalSpec {
            dir: dir.into(),
            fsync: Durability::Fsync,
            compaction: CompactionPolicy::disabled(),
            snapshot: SnapshotMode::Full,
            replay: ReplayMode::Engine,
        }
    }
}

/// Where a registry-built engine keeps its state — the typed storage API.
///
/// Build with [`StorageSpec::mem`] or [`StorageSpec::wal`] plus the
/// builder knobs; parse CLI strings through `FromStr`:
///
/// ```
/// use strata_core::durable::{ReplayMode, SnapshotMode, StorageSpec};
/// use strata_store::CompactionPolicy;
///
/// let spec = StorageSpec::wal("/tmp/db")
///     .compaction(CompactionPolicy::default_auto())
///     .snapshot_mode(SnapshotMode::Incremental { max_chain: 8 })
///     .replay(ReplayMode::Bulk);
/// let parsed: StorageSpec =
///     "wal:/tmp/db;compact=auto;snapshot=delta:8;replay=bulk".parse().unwrap();
/// assert_eq!(parsed, spec);
/// ```
///
/// ## String form
///
/// ```text
/// spec   ::= "mem" | "wal:" dir (";" option)*
/// option ::= "fsync="    ("always" | "buffered")
///          | "compact="  policy            (see strata_store::CompactionPolicy)
///          | "snapshot=" ("full" | "delta" [":" max_chain])
///          | "replay="   ("engine" | "bulk")
/// ```
///
/// The bare legacy forms `mem` and `wal:<dir>` still parse (as
/// all-defaults specs); new code should build specs with the typed
/// constructors instead of strings.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub enum StorageSpec {
    /// Purely in-memory (the default): state dies with the process.
    #[default]
    Mem,
    /// Durable: WAL + snapshot chain per the spec.
    Wal(WalSpec),
}

impl StorageSpec {
    /// The in-memory spec.
    pub fn mem() -> StorageSpec {
        StorageSpec::Mem
    }

    /// A durable spec at `dir` with default knobs (fsync on commit, full
    /// snapshots, engine-exact replay, no auto-compaction).
    pub fn wal(dir: impl Into<PathBuf>) -> StorageSpec {
        StorageSpec::Wal(WalSpec::new(dir))
    }

    /// Sets the auto-compaction policy (no-op on `Mem`).
    pub fn compaction(self, policy: CompactionPolicy) -> StorageSpec {
        self.map_wal(|w| w.compaction = policy)
    }

    /// Sets the checkpoint mode (no-op on `Mem`).
    pub fn snapshot_mode(self, mode: SnapshotMode) -> StorageSpec {
        self.map_wal(|w| w.snapshot = mode)
    }

    /// Sets the commit durability (no-op on `Mem`).
    pub fn fsync(self, durability: Durability) -> StorageSpec {
        self.map_wal(|w| w.fsync = durability)
    }

    /// Sets the recovery replay mode (no-op on `Mem`).
    pub fn replay(self, mode: ReplayMode) -> StorageSpec {
        self.map_wal(|w| w.replay = mode)
    }

    fn map_wal(mut self, f: impl FnOnce(&mut WalSpec)) -> StorageSpec {
        if let StorageSpec::Wal(w) = &mut self {
            f(w);
        }
        self
    }

    /// Whether this spec persists anything.
    pub fn is_durable(&self) -> bool {
        matches!(self, StorageSpec::Wal(_))
    }

    /// The store directory, if durable.
    pub fn wal_dir(&self) -> Option<&Path> {
        match self {
            StorageSpec::Mem => None,
            StorageSpec::Wal(w) => Some(&w.dir),
        }
    }

    /// Parses the string form.
    #[deprecated(
        note = "build specs with StorageSpec::mem()/StorageSpec::wal(dir) and the builder \
                knobs; for CLI strings, use FromStr (`s.parse::<StorageSpec>()`)"
    )]
    pub fn parse(s: &str) -> Result<StorageSpec, String> {
        s.parse()
    }
}

impl std::str::FromStr for SnapshotMode {
    type Err = String;

    fn from_str(s: &str) -> Result<SnapshotMode, String> {
        parse_snapshot_mode(s)
    }
}

fn parse_snapshot_mode(s: &str) -> Result<SnapshotMode, String> {
    if s == "full" {
        return Ok(SnapshotMode::Full);
    }
    let Some(rest) = s.strip_prefix("delta") else {
        return Err(format!("invalid snapshot mode `{s}` (expected `full` or `delta[:<max>]`)"));
    };
    let max_chain = match rest.strip_prefix(':') {
        None if rest.is_empty() => DEFAULT_MAX_CHAIN,
        Some(n) => match n.parse::<u32>() {
            Ok(n) if n > 0 => n,
            _ => return Err(format!("invalid chain bound `{n}` (expected a positive integer)")),
        },
        _ => return Err(format!("invalid snapshot mode `{s}`")),
    };
    Ok(SnapshotMode::Incremental { max_chain })
}

impl std::str::FromStr for StorageSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<StorageSpec, String> {
        if s == "mem" {
            return Ok(StorageSpec::Mem);
        }
        let Some(rest) = s.strip_prefix("wal:") else {
            return Err(format!(
                "invalid storage spec `{s}` (expected `mem` or `wal:<dir>[;option]*`)"
            ));
        };
        let mut parts = rest.split(';');
        let dir = parts.next().unwrap_or_default();
        if dir.is_empty() {
            return Err(format!("invalid storage spec `{s}` (empty directory)"));
        }
        let mut wal = WalSpec::new(dir);
        for opt in parts {
            let (key, value) = opt
                .split_once('=')
                .ok_or_else(|| format!("invalid storage option `{opt}` (expected key=value)"))?;
            match key {
                "fsync" => {
                    wal.fsync = match value {
                        "always" => Durability::Fsync,
                        "buffered" => Durability::Buffered,
                        other => {
                            return Err(format!(
                                "invalid fsync policy `{other}` (expected `always` or `buffered`)"
                            ))
                        }
                    }
                }
                "compact" => {
                    wal.compaction = value.parse::<CompactionPolicy>().map_err(|e| e.to_string())?
                }
                "snapshot" => wal.snapshot = parse_snapshot_mode(value)?,
                "replay" => {
                    wal.replay = match value {
                        "engine" => ReplayMode::Engine,
                        "bulk" => ReplayMode::Bulk,
                        other => {
                            return Err(format!(
                                "invalid replay mode `{other}` (expected `engine` or `bulk`)"
                            ))
                        }
                    }
                }
                other => {
                    return Err(format!(
                        "unknown storage option `{other}` (fsync | compact | snapshot | replay)"
                    ))
                }
            }
        }
        Ok(StorageSpec::Wal(wal))
    }
}

impl fmt::Display for StorageSpec {
    /// The canonical string form: defaults are omitted, so the legacy
    /// spellings (`mem`, `wal:<dir>`) come back out for all-default
    /// specs, and `parse(display(x)) == x` always.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let StorageSpec::Wal(w) = self else {
            return f.write_str("mem");
        };
        write!(f, "wal:{}", w.dir.display())?;
        if w.fsync == Durability::Buffered {
            f.write_str(";fsync=buffered")?;
        }
        if w.compaction.is_enabled() {
            write!(f, ";compact={}", w.compaction)?;
        }
        if let SnapshotMode::Incremental { max_chain } = w.snapshot {
            write!(f, ";snapshot=delta:{max_chain}")?;
        }
        if w.replay == ReplayMode::Bulk {
            f.write_str(";replay=bulk")?;
        }
        Ok(())
    }
}

fn storage_err(e: impl fmt::Display) -> MaintenanceError {
    MaintenanceError::Storage(e.to_string())
}

// ---------------------------------------------------------------------------
// Update codec (WAL data records).
// ---------------------------------------------------------------------------

/// Transaction kind byte: logged by [`MaintenanceEngine::apply`].
const TXN_APPLY: u8 = 0;
/// Transaction kind byte: logged by [`MaintenanceEngine::apply_all`].
const TXN_APPLY_ALL: u8 = 1;

const UPD_INSERT_FACT: u8 = 0;
const UPD_DELETE_FACT: u8 = 1;
const UPD_INSERT_RULE: u8 = 2;
const UPD_DELETE_RULE: u8 = 3;

/// Encodes one update as a WAL data record. Facts are structural; rules go
/// through their display form, which round-trips by construction.
pub fn encode_update(u: &Update) -> Vec<u8> {
    let mut buf = Vec::new();
    match u {
        Update::InsertFact(f) => {
            buf.push(UPD_INSERT_FACT);
            wire::put_fact(&mut buf, f);
        }
        Update::DeleteFact(f) => {
            buf.push(UPD_DELETE_FACT);
            wire::put_fact(&mut buf, f);
        }
        Update::InsertRule(r) => {
            buf.push(UPD_INSERT_RULE);
            wire::put_str(&mut buf, &r.to_string());
        }
        Update::DeleteRule(r) => {
            buf.push(UPD_DELETE_RULE);
            wire::put_str(&mut buf, &r.to_string());
        }
    }
    buf
}

/// Decodes one WAL data record.
pub fn decode_update(bytes: &[u8]) -> Result<Update, MaintenanceError> {
    let mut r = Reader::new(bytes);
    let tag = r.get_u8().map_err(storage_err)?;
    let update = match tag {
        UPD_INSERT_FACT => Update::InsertFact(r.get_fact().map_err(storage_err)?),
        UPD_DELETE_FACT => Update::DeleteFact(r.get_fact().map_err(storage_err)?),
        UPD_INSERT_RULE | UPD_DELETE_RULE => {
            let text = r.get_str().map_err(storage_err)?;
            let rule = Rule::parse(&text)
                .map_err(|e| storage_err(format!("unparseable rule in WAL: {e}")))?;
            if tag == UPD_INSERT_RULE {
                Update::InsertRule(rule)
            } else {
                Update::DeleteRule(rule)
            }
        }
        other => return Err(storage_err(format!("unknown update tag {other}"))),
    };
    if !r.is_at_end() {
        return Err(storage_err("trailing bytes in update record"));
    }
    Ok(update)
}

// ---------------------------------------------------------------------------
// Snapshot payload codec: program + model + support dump.
// ---------------------------------------------------------------------------

fn put_program(buf: &mut Vec<u8>, program: &Program) {
    let mut facts: Vec<Fact> = program.facts().cloned().collect();
    facts.sort_by(wire::fact_wire_cmp);
    wire::put_u32(buf, facts.len() as u32);
    for f in &facts {
        wire::put_fact(buf, f);
    }
    // Rules in slot order: recovery re-adds them in sequence, so rule ids
    // come out dense and deterministic.
    let rules: Vec<String> = program.rules().map(|(_, r)| r.to_string()).collect();
    wire::put_u32(buf, rules.len() as u32);
    for r in &rules {
        wire::put_str(buf, r);
    }
}

fn get_program(r: &mut Reader<'_>) -> Result<Program, MaintenanceError> {
    let mut program = Program::new();
    let nfacts = r.get_u32().map_err(storage_err)?;
    for _ in 0..nfacts {
        let f = r.get_fact().map_err(storage_err)?;
        program.assert_fact(f).map_err(|e| storage_err(format!("snapshot fact: {e}")))?;
    }
    let nrules = r.get_u32().map_err(storage_err)?;
    for _ in 0..nrules {
        let text = r.get_str().map_err(storage_err)?;
        let rule = Rule::parse(&text)
            .map_err(|e| storage_err(format!("unparseable rule in snapshot: {e}")))?;
        program.add_rule(rule).map_err(|e| storage_err(format!("snapshot rule: {e}")))?;
    }
    Ok(program)
}

fn put_string_list(buf: &mut Vec<u8>, items: &[String]) {
    wire::put_u32(buf, items.len() as u32);
    for s in items {
        wire::put_str(buf, s);
    }
}

fn get_string_list(r: &mut Reader<'_>) -> Result<Vec<String>, WireError> {
    let n = r.get_u32()?;
    (0..n).map(|_| r.get_str()).collect()
}

fn put_pair_dump(buf: &mut Vec<u8>, p: &PairDump) {
    put_string_list(buf, &p.pos);
    put_string_list(buf, &p.pos_signed);
    put_string_list(buf, &p.neg);
    put_string_list(buf, &p.neg_signed);
}

fn get_pair_dump(r: &mut Reader<'_>) -> Result<PairDump, WireError> {
    Ok(PairDump {
        pos: get_string_list(r)?,
        pos_signed: get_string_list(r)?,
        neg: get_string_list(r)?,
        neg_signed: get_string_list(r)?,
    })
}

const SUP_SINGLE: u8 = 0;
const SUP_MULTI: u8 = 1;
const SUP_RULES: u8 = 2;
const SUP_ENTRIES: u8 = 3;

fn put_support_dump(buf: &mut Vec<u8>, dump: &SupportDump) {
    wire::put_u32(buf, dump.entries.len() as u32);
    for (fact, support) in &dump.entries {
        wire::put_fact(buf, fact);
        match support {
            FactSupport::Single(p) => {
                buf.push(SUP_SINGLE);
                put_pair_dump(buf, p);
            }
            FactSupport::Multi { asserted, pairs } => {
                buf.push(SUP_MULTI);
                buf.push(u8::from(*asserted));
                wire::put_u32(buf, pairs.len() as u32);
                for p in pairs {
                    put_pair_dump(buf, p);
                }
            }
            FactSupport::Rules { asserted, rules } => {
                buf.push(SUP_RULES);
                buf.push(u8::from(*asserted));
                put_string_list(buf, rules);
            }
            FactSupport::Entries(entries) => {
                buf.push(SUP_ENTRIES);
                wire::put_u32(buf, entries.len() as u32);
                for e in entries {
                    put_string_list(buf, &e.pos);
                    put_string_list(buf, &e.neg);
                }
            }
        }
    }
}

fn get_support_dump(r: &mut Reader<'_>) -> Result<SupportDump, WireError> {
    let n = r.get_u32()?;
    let mut entries = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let fact = r.get_fact()?;
        let support = match r.get_u8()? {
            SUP_SINGLE => FactSupport::Single(get_pair_dump(r)?),
            SUP_MULTI => {
                let asserted = r.get_u8()? != 0;
                let k = r.get_u32()?;
                let pairs = (0..k).map(|_| get_pair_dump(r)).collect::<Result<_, _>>()?;
                FactSupport::Multi { asserted, pairs }
            }
            SUP_RULES => {
                let asserted = r.get_u8()? != 0;
                FactSupport::Rules { asserted, rules: get_string_list(r)? }
            }
            SUP_ENTRIES => {
                let k = r.get_u32()?;
                let entries = (0..k)
                    .map(|_| Ok(WitnessDump { pos: get_string_list(r)?, neg: get_string_list(r)? }))
                    .collect::<Result<_, WireError>>()?;
                FactSupport::Entries(entries)
            }
            _ => {
                return Err(WireError { at: r.pos(), msg: "unknown support tag" });
            }
        };
        entries.push((fact, support));
    }
    Ok(SupportDump { entries })
}

/// The decoded contents of a snapshot payload.
pub struct SnapshotState {
    /// The program (asserted EDB + rules) — the authoritative recovery base.
    pub program: Program,
    /// The model at snapshot time, used as a recovery integrity check.
    pub model: Database,
    /// The per-fact support dump (audit; recovery rebuilds supports).
    pub supports: SupportDump,
}

/// Encodes the full belief state of `engine` into a snapshot payload.
pub fn encode_state(engine: &dyn MaintenanceEngine) -> Vec<u8> {
    let mut buf = Vec::new();
    put_program(&mut buf, engine.program());
    wire::put_store(&mut buf, engine.model());
    put_support_dump(&mut buf, &engine.support_dump());
    buf
}

/// Decodes a snapshot payload.
pub fn decode_state(bytes: &[u8]) -> Result<SnapshotState, MaintenanceError> {
    let mut r = Reader::new(bytes);
    let program = get_program(&mut r)?;
    let mut model = Database::new();
    r.get_store(&mut model).map_err(storage_err)?;
    let supports = get_support_dump(&mut r).map_err(storage_err)?;
    if !r.is_at_end() {
        return Err(storage_err("trailing bytes in snapshot payload"));
    }
    Ok(SnapshotState { program, model, supports })
}

// ---------------------------------------------------------------------------
// Delta snapshot payload codec: per-relation patches on the chain state.
// ---------------------------------------------------------------------------

/// The decoded contents of one delta-snapshot payload: a patch that
/// transforms the previous chain state into the next.
///
/// Each patch section carries **full replacements** for the relations that
/// changed since the previous link (an empty fact list removes the
/// relation's contents); unchanged relations are simply absent, which is
/// the whole saving. Rules are always carried in full — they are few, and
/// rule-set changes don't map onto per-relation stamps. Deltas carry **no
/// support section**: recovery rebuilds supports from the program (the
/// dump in full snapshots is an audit artifact, not a recovery input).
pub struct DeltaState {
    /// Per-relation replacement of the program's asserted facts.
    pub program_rels: Vec<(Symbol, Vec<Fact>)>,
    /// The complete rule list after this delta, in slot order.
    pub rules: Vec<String>,
    /// Per-relation replacement of the model's extension.
    pub model_rels: Vec<(Symbol, Vec<Fact>)>,
}

fn put_rel_sections(buf: &mut Vec<u8>, sections: &[(Symbol, Vec<Fact>)]) {
    wire::put_u32(buf, sections.len() as u32);
    for (rel, facts) in sections {
        wire::put_str(buf, rel.as_str());
        wire::put_u32(buf, facts.len() as u32);
        for f in facts {
            wire::put_fact(buf, f);
        }
    }
}

fn get_rel_sections(r: &mut Reader<'_>) -> Result<Vec<(Symbol, Vec<Fact>)>, MaintenanceError> {
    let n = r.get_u32().map_err(storage_err)?;
    let mut sections = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let rel = Symbol::new(&r.get_str().map_err(storage_err)?);
        let k = r.get_u32().map_err(storage_err)?;
        let facts =
            (0..k).map(|_| r.get_fact().map_err(storage_err)).collect::<Result<Vec<_>, _>>()?;
        sections.push((rel, facts));
    }
    Ok(sections)
}

/// Encodes a delta payload.
pub fn encode_delta(delta: &DeltaState) -> Vec<u8> {
    let mut buf = Vec::new();
    put_rel_sections(&mut buf, &delta.program_rels);
    put_string_list(&mut buf, &delta.rules);
    put_rel_sections(&mut buf, &delta.model_rels);
    buf
}

/// Decodes a delta payload.
pub fn decode_delta(bytes: &[u8]) -> Result<DeltaState, MaintenanceError> {
    let mut r = Reader::new(bytes);
    let program_rels = get_rel_sections(&mut r)?;
    let rules = get_string_list(&mut r).map_err(storage_err)?;
    let model_rels = get_rel_sections(&mut r)?;
    if !r.is_at_end() {
        return Err(storage_err("trailing bytes in delta payload"));
    }
    Ok(DeltaState { program_rels, rules, model_rels })
}

/// Applies a delta's program patch: each carried relation's asserted facts
/// are replaced wholesale, then the rule list is replaced.
fn apply_delta_to_program(
    program: &mut Program,
    delta: &DeltaState,
) -> Result<(), MaintenanceError> {
    for (rel, facts) in &delta.program_rels {
        let old: Vec<Fact> = program.facts().filter(|f| f.rel == *rel).cloned().collect();
        for f in &old {
            program.retract_fact(f);
        }
        for f in facts {
            program
                .assert_fact(f.clone())
                .map_err(|e| storage_err(format!("delta program fact: {e}")))?;
        }
    }
    let old_rules: Vec<_> = program.rules().map(|(id, _)| id).collect();
    for id in old_rules {
        program.remove_rule(id);
    }
    for text in &delta.rules {
        let rule = Rule::parse(text)
            .map_err(|e| storage_err(format!("unparseable rule in delta: {e}")))?;
        program.add_rule(rule).map_err(|e| storage_err(format!("delta rule: {e}")))?;
    }
    Ok(())
}

/// Applies a delta's model patch: each carried relation's extension is
/// replaced wholesale.
fn apply_delta_to_model(model: &mut Database, delta: &DeltaState) {
    for (rel, facts) in &delta.model_rels {
        let old: Vec<Fact> = model.facts_of(*rel).collect();
        for f in &old {
            model.remove(f);
        }
        for f in facts {
            model.insert(f.clone());
        }
    }
}

// ---------------------------------------------------------------------------
// The durable engine.
// ---------------------------------------------------------------------------

/// A shared engine constructor — the one alias for it in the workspace
/// (re-exported by `registry`). `Arc` rather than `Box` so the registry can
/// hand a clone to a [`DurableEngine`], which needs the constructor again
/// at recovery and compaction time. Constructors produce [`EngineBox`]
/// (`Send`) engines so registry-built engines can be moved onto service
/// worker threads.
pub type EngineCtor =
    std::sync::Arc<dyn Fn(Program) -> Result<EngineBox, MaintenanceError> + Send + Sync>;

/// A [`MaintenanceEngine`] whose belief state survives restart.
///
/// Wraps any engine built by `ctor`; all reads and the maintenance
/// semantics are the inner engine's. See the module docs for the write,
/// recovery, and compaction protocols.
pub struct DurableEngine {
    strategy: String,
    ctor: EngineCtor,
    inner: EngineBox,
    store: Store,
    compaction: CompactionPolicy,
    snapshot_mode: SnapshotMode,
    replay_mode: ReplayMode,
    /// What `open` replayed, frozen for the engine's lifetime — restart
    /// metrics (`:stats`, the ingest service's `stats` verb) report it.
    recovered_txns: u64,
    recovered_updates: u64,
    recovered_torn_tail: bool,
    recovered_quarantined: bool,
    /// Wall-clock milliseconds `open` spent recovering, frozen.
    recovery_ms: u64,
    /// Replay throughput (bytes of WAL records per ms), measured at open
    /// when the replayed suffix was big enough to time, else a
    /// conservative default. Feeds the recovery-time estimate the
    /// auto-compaction policy thresholds on.
    replay_bytes_per_ms: u64,
    /// Per-relation model stamps recorded at the last checkpoint — the
    /// stamp side of delta change detection.
    last_stamps: FxHashMap<Symbol, RelStamp>,
    /// Relations named by fact updates since the last checkpoint — the
    /// program side of delta change detection. Stamps alone are not
    /// enough: asserting an already-derived fact changes the program
    /// without moving the model.
    dirty_rels: FxHashSet<Symbol>,
}

/// Replay throughput assumed before any measurement (conservative: the
/// engine-mode rate observed on the e15 workload).
const DEFAULT_REPLAY_BYTES_PER_MS: u64 = 100;

/// Replayed suffixes smaller than this are too noisy to time; keep the
/// default (or previous) throughput estimate.
const MIN_MEASURED_REPLAY_BYTES: u64 = 16 * 1024;

/// Folds one committed update directly into `program`, bypassing the
/// engine's decision path — sound for *committed* history only: every
/// update in it was accepted by the engine once, and acceptance is a
/// deterministic function of the program state, so the fold cannot fail
/// where the original apply succeeded.
fn bulk_fold(program: &mut Program, update: &Update) -> Result<(), MaintenanceError> {
    match crate::engine::normalize(update) {
        Update::InsertFact(f) => {
            program.assert_fact(f).map_err(MaintenanceError::Datalog)?;
        }
        Update::DeleteFact(f) => {
            if !program.retract_fact(&f) {
                return Err(MaintenanceError::NotAsserted(f));
            }
        }
        Update::InsertRule(r) => {
            // Ground unit clauses were normalized away above; a real rule
            // lands in the rule set (add_rule re-checks stratification,
            // which passed when the insert originally committed).
            program.add_rule(r).map_err(MaintenanceError::Datalog)?;
        }
        Update::DeleteRule(r) => {
            let id = program.find_rule(&r).ok_or(MaintenanceError::UnknownRule(r))?;
            program.remove_rule(id);
        }
    }
    Ok(())
}

impl DurableEngine {
    /// Opens (or creates) the durable engine stored at `path` with default
    /// knobs (full snapshots, engine-exact replay, no auto-compaction).
    ///
    /// * Fresh directory: the engine is built from `initial` under
    ///   `strategy` and an initial snapshot is written immediately, so the
    ///   store is recoverable from its first moment.
    /// * Existing store: the state is recovered (snapshot chain +
    ///   committed WAL suffix) and **`initial` is ignored** — what was
    ///   persisted wins. `strategy` selects the engine that interprets the
    ///   recovered program; all strategies agree on the model, so
    ///   reopening under a different strategy is sound (the supports take
    ///   that strategy's form).
    pub fn open(
        path: impl AsRef<Path>,
        strategy: &str,
        ctor: EngineCtor,
        initial: Program,
        durability: Durability,
    ) -> Result<DurableEngine, MaintenanceError> {
        Self::open_with(path, strategy, ctor, initial, durability, None)
    }

    /// [`DurableEngine::open`] with an optional armed fault injector
    /// threaded into the store's WAL and snapshot I/O
    /// (see [`strata_store::faults`]).
    pub fn open_with(
        path: impl AsRef<Path>,
        strategy: &str,
        ctor: EngineCtor,
        initial: Program,
        durability: Durability,
        faults: Option<std::sync::Arc<FaultInjector>>,
    ) -> Result<DurableEngine, MaintenanceError> {
        let mut spec = WalSpec::new(path.as_ref());
        spec.fsync = durability;
        Self::open_spec(&spec, strategy, ctor, initial, faults)
    }

    /// The full-spec entry point: opens (or creates) the durable engine
    /// per `spec` — directory, fsync policy, checkpoint mode, replay mode,
    /// and auto-compaction policy. [`DurableEngine::open`] is the
    /// all-defaults shorthand.
    pub fn open_spec(
        spec: &WalSpec,
        strategy: &str,
        ctor: EngineCtor,
        initial: Program,
        faults: Option<std::sync::Arc<FaultInjector>>,
    ) -> Result<DurableEngine, MaintenanceError> {
        let recovery_start = std::time::Instant::now();
        let (store, recovered) =
            Store::open_with(&spec.dir, spec.fsync, faults).map_err(storage_err)?;
        let fresh = recovered.snapshot.is_none();
        // Reconstruct the chain state — base snapshot plus delta patches —
        // as pure data. `model_check` tracks what the chain claims the
        // model is; the rebuilt engine is verified against it.
        let (mut program, mut model_check) = match recovered.snapshot {
            Some(snap) => {
                let state = decode_state(&snap.payload)?;
                (state.program, Some(state.model))
            }
            None => (initial, None),
        };
        for delta in &recovered.deltas {
            let patch = decode_delta(&delta.payload)?;
            apply_delta_to_program(&mut program, &patch)?;
            if let Some(model) = &mut model_check {
                apply_delta_to_model(model, &patch);
            }
        }
        let committed_bytes: u64 =
            recovered.committed.iter().flat_map(|t| t.records.iter()).map(|r| r.len() as u64).sum();
        let replay_start = std::time::Instant::now();
        let mut recovered_updates = 0u64;
        let inner = match spec.replay {
            ReplayMode::Engine => {
                let mut inner = ctor(program)?;
                if let Some(model) = &model_check {
                    if inner.model() != model {
                        return Err(storage_err(
                            "snapshot integrity check failed: rebuilt model differs from the \
                             snapshot chain's model",
                        ));
                    }
                }
                for txn in &recovered.committed {
                    let updates: Vec<Update> =
                        txn.records.iter().map(|r| decode_update(r)).collect::<Result<_, _>>()?;
                    recovered_updates += updates.len() as u64;
                    // Replay through the entry point that produced the
                    // transaction: engines may override `apply_all` with a
                    // distinct batch path, and exact support reproduction
                    // requires the same code path.
                    let result = match txn.kind {
                        TXN_APPLY => {
                            updates.iter().try_fold(UpdateStats::default(), |mut acc, u| {
                                acc.accumulate(&inner.apply(u)?);
                                Ok(acc)
                            })
                        }
                        _ => inner.apply_all(&updates),
                    };
                    result.map_err(|e| {
                        storage_err(format!(
                            "committed WAL transaction {} failed to replay: {e}",
                            txn.seq
                        ))
                    })?;
                }
                inner
            }
            ReplayMode::Bulk => {
                // Fold the committed suffix into the program first, build
                // the engine exactly once, and let its constructor compute
                // the model in a single saturation. The chain's model is
                // checkable only when there was no suffix (otherwise it
                // describes a strictly earlier state); the WAL's CRCs
                // cover the suffix itself.
                for txn in &recovered.committed {
                    for record in &txn.records {
                        let update = decode_update(record)?;
                        recovered_updates += 1;
                        bulk_fold(&mut program, &update).map_err(|e| {
                            storage_err(format!(
                                "committed WAL transaction {} failed bulk fold: {e}",
                                txn.seq
                            ))
                        })?;
                    }
                }
                let inner = ctor(program)?;
                if recovered.committed.is_empty() {
                    if let Some(model) = &model_check {
                        if inner.model() != model {
                            return Err(storage_err(
                                "snapshot integrity check failed: rebuilt model differs from \
                                 the snapshot chain's model",
                            ));
                        }
                    }
                }
                inner
            }
        };
        let replay_ms = replay_start.elapsed().as_millis() as u64;
        let mut engine = DurableEngine {
            strategy: strategy.to_string(),
            ctor,
            inner,
            store,
            compaction: spec.compaction,
            snapshot_mode: spec.snapshot,
            replay_mode: spec.replay,
            recovered_txns: recovered.committed.len() as u64,
            recovered_updates,
            recovered_torn_tail: recovered.torn_tail,
            recovered_quarantined: recovered.quarantined.is_some(),
            recovery_ms: 0,
            replay_bytes_per_ms: DEFAULT_REPLAY_BYTES_PER_MS,
            last_stamps: FxHashMap::default(),
            dirty_rels: FxHashSet::default(),
        };
        if committed_bytes >= MIN_MEASURED_REPLAY_BYTES && replay_ms >= 1 {
            engine.replay_bytes_per_ms = (committed_bytes / replay_ms).max(1);
        }
        engine.rebaseline();
        if fresh {
            engine.write_snapshot()?;
        }
        let recovery_us = recovery_start.elapsed().as_micros() as u64;
        engine.recovery_ms = recovery_us / 1000;
        let obs = strata_obs::global();
        obs.histogram("strata_recovery_us").record(recovery_us);
        obs.counter("strata_recovered_txns_total").add(engine.recovered_txns);
        obs.counter("strata_recovered_updates_total").add(engine.recovered_updates);
        strata_obs::trace::event(
            strata_obs::EventKind::Recovery,
            format!(
                "us={recovery_us} mode={} txns={} updates={} chain={} torn_tail={} \
                 quarantined={}",
                engine.replay_mode,
                engine.recovered_txns,
                engine.recovered_updates,
                engine.store.chain_len(),
                engine.recovered_torn_tail,
                engine.recovered_quarantined,
            ),
        );
        Ok(engine)
    }

    fn write_snapshot(&mut self) -> Result<(), MaintenanceError> {
        let payload = encode_state(self.inner.as_ref());
        self.store.write_snapshot(&self.strategy, payload).map_err(storage_err)?;
        self.rebaseline();
        Ok(())
    }

    /// Re-records the delta baselines against the current live state:
    /// called after every checkpoint (full or delta) and at open.
    fn rebaseline(&mut self) {
        self.last_stamps =
            self.inner.model().relations().map(|(sym, rel)| (sym, rel.stamp())).collect();
        self.dirty_rels.clear();
    }

    /// Collects the patch since the last checkpoint: model relations whose
    /// stamp moved, program relations an update touched, and the full rule
    /// list.
    fn collect_delta(&self) -> DeltaState {
        let model = self.inner.model();
        let mut model_rels: Vec<(Symbol, Vec<Fact>)> = model
            .relations()
            .filter(|(sym, rel)| self.last_stamps.get(sym) != Some(&rel.stamp()))
            .map(|(sym, _)| {
                let mut facts: Vec<Fact> = model.facts_of(sym).collect();
                facts.sort_by(wire::fact_wire_cmp);
                (sym, facts)
            })
            .collect();
        model_rels.sort_by_key(|(sym, _)| sym.as_str());
        let program = self.inner.program();
        let mut program_rels: Vec<(Symbol, Vec<Fact>)> = self
            .dirty_rels
            .iter()
            .map(|&sym| {
                let mut facts: Vec<Fact> =
                    program.facts().filter(|f| f.rel == sym).cloned().collect();
                facts.sort_by(wire::fact_wire_cmp);
                (sym, facts)
            })
            .collect();
        program_rels.sort_by_key(|(sym, _)| sym.as_str());
        let rules: Vec<String> = program.rules().map(|(_, r)| r.to_string()).collect();
        DeltaState { program_rels, rules, model_rels }
    }

    /// Appends an incremental snapshot to the chain and empties the WAL.
    /// The live engine is **not** canonicalized (a rebuild would
    /// invalidate every stamp baseline); recovery still lands the
    /// canonical state by reconstructing the program and building fresh.
    fn write_delta(&mut self) -> Result<(), MaintenanceError> {
        let payload = encode_delta(&self.collect_delta());
        self.store.write_delta_snapshot(&self.strategy, payload).map_err(storage_err)?;
        self.rebaseline();
        Ok(())
    }

    /// Snapshots the current state in full and empties the WAL.
    ///
    /// The live engine is first rebuilt from its current program
    /// (*canonicalized*), so the post-compaction live state is identical —
    /// supports included — to what [`DurableEngine::open`] reconstructs.
    pub fn compact(&mut self) -> Result<(), MaintenanceError> {
        let program = self.inner.program().clone();
        self.inner = (self.ctor)(program)?;
        self.write_snapshot()
    }

    /// One checkpoint, honoring the configured [`SnapshotMode`]: full, or
    /// a chain delta with full-snapshot fallback once the chain hits its
    /// length bound.
    fn checkpoint_now(&mut self) -> Result<(), MaintenanceError> {
        match self.snapshot_mode {
            SnapshotMode::Full => self.compact()?,
            SnapshotMode::Incremental { max_chain } => {
                if self.store.chain_len() >= u64::from(max_chain) {
                    self.compact()?;
                } else {
                    self.write_delta()?;
                }
            }
        }
        strata_obs::global().counter("strata_store_compactions_total").add(1);
        Ok(())
    }

    /// Estimated milliseconds a restart would spend replaying the current
    /// WAL, from the throughput measured at open. What the
    /// auto-compaction policy's `max_recovery_ms` threshold compares
    /// against.
    pub fn estimated_recovery_ms(&self) -> u64 {
        self.store.wal_bytes() / self.replay_bytes_per_ms.max(1)
    }

    /// The strategy name this engine logs into snapshots.
    pub fn strategy(&self) -> &str {
        &self.strategy
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        self.store.dir()
    }

    /// Bytes of terminated transactions currently in the WAL.
    pub fn wal_bytes(&self) -> u64 {
        self.store.wal_bytes()
    }

    /// Terminated transactions currently in the WAL. A coalesced group
    /// committed via one `apply_all` counts once, however many updates it
    /// carried — the group-commit observable.
    pub fn wal_txns(&self) -> u64 {
        self.store.wal_txns()
    }

    fn log_and_apply<T>(
        &mut self,
        updates: &[Update],
        kind: u8,
        apply: impl FnOnce(&mut EngineBox, &[Update]) -> Result<T, MaintenanceError>,
    ) -> Result<T, MaintenanceError> {
        // Rollback trail, computed against the pre-batch program: if the
        // COMMIT write fails after the engine applied the batch, the
        // in-memory state must be unwound to match the disk (which, with
        // no terminator record, replays to the pre-batch state). Inserts
        // of facts already asserted at that point are no-ops whose inverse
        // would wrongly retract a pre-existing fact — excluded, as in the
        // sequential batch rollback.
        let mut overlay: rustc_hash::FxHashMap<Fact, bool> = rustc_hash::FxHashMap::default();
        let mut trail: Vec<Update> = Vec::with_capacity(updates.len());
        for u in updates {
            match crate::engine::normalize(u) {
                Update::InsertFact(f) => {
                    // Mark for delta change detection regardless of commit
                    // outcome — a superset of touched relations only makes
                    // the next delta carry an unchanged section.
                    self.dirty_rels.insert(f.rel);
                    let already = overlay
                        .get(&f)
                        .copied()
                        .unwrap_or_else(|| self.inner.program().is_asserted(&f));
                    if !already {
                        overlay.insert(f.clone(), true);
                        trail.push(Update::InsertFact(f));
                    }
                }
                Update::DeleteFact(f) => {
                    self.dirty_rels.insert(f.rel);
                    overlay.insert(f.clone(), false);
                    trail.push(Update::DeleteFact(f));
                }
                other => trail.push(other),
            }
        }
        let records: Vec<Vec<u8>> = updates.iter().map(encode_update).collect();
        let seq = self.store.begin(&records, kind);
        match apply(&mut self.inner, updates) {
            Ok(out) => {
                // In-memory apply done; the WAL commit below stamps fsync.
                strata_obs::trace::stage(strata_obs::Stage::Apply);
                // The commit point: the batch is durable once this returns.
                if let Err(e) = self.store.commit(seq) {
                    // Applied in memory but not durable: unwind so memory
                    // and disk agree on the pre-batch state instead of
                    // silently diverging until the next checkpoint.
                    for done in trail.iter().rev() {
                        self.inner
                            .apply(&crate::engine::invert(done))
                            .expect("inverse of an applied update must apply");
                    }
                    return Err(storage_err(format!(
                        "commit failed, batch rolled back in memory: {e}"
                    )));
                }
                Ok(out)
            }
            Err(e) => {
                // The engine rejected the batch and (per the apply_all
                // contract) rolled itself back; record the decision.
                self.store.abort(seq).map_err(storage_err)?;
                Err(e)
            }
        }
    }
}

impl MaintenanceEngine for DurableEngine {
    fn name(&self) -> &'static str {
        // Transparent wrapper: report the inner strategy, as every
        // comparative harness keys on it.
        self.inner.name()
    }

    fn program(&self) -> &Program {
        self.inner.program()
    }

    fn model(&self) -> &Database {
        self.inner.model()
    }

    fn support_bytes(&self) -> usize {
        self.inner.support_bytes()
    }

    fn support_dump(&self) -> SupportDump {
        self.inner.support_dump()
    }

    fn apply(&mut self, update: &Update) -> Result<UpdateStats, MaintenanceError> {
        self.log_and_apply(std::slice::from_ref(update), TXN_APPLY, |inner, u| inner.apply(&u[0]))
    }

    fn apply_all(&mut self, updates: &[Update]) -> Result<UpdateStats, MaintenanceError> {
        self.log_and_apply(updates, TXN_APPLY_ALL, |inner, u| inner.apply_all(u))
    }

    fn checkpoint(&mut self) -> Result<bool, MaintenanceError> {
        self.checkpoint_now()?;
        Ok(true)
    }

    fn auto_checkpoint(&mut self) -> Result<bool, MaintenanceError> {
        if !self.compaction.due(
            self.store.wal_bytes(),
            self.store.wal_txns(),
            self.estimated_recovery_ms(),
        ) {
            return Ok(false);
        }
        self.checkpoint_now()?;
        Ok(true)
    }

    fn durability(&self) -> Option<DurabilityStats> {
        Some(DurabilityStats {
            recovered_txns: self.recovered_txns,
            recovered_updates: self.recovered_updates,
            recovered_torn_tail: self.recovered_torn_tail,
            wal_txns: self.store.wal_txns(),
            wal_bytes: self.store.wal_bytes(),
            recovered_quarantined: self.recovered_quarantined,
            recovery_ms: self.recovery_ms,
            snapshot_chain_len: self.store.chain_len(),
            snapshot_seq: self.store.snapshot_seq(),
            replay_mode: self.replay_mode,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::CascadeEngine;

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("strata_durable_test_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn cascade_ctor() -> EngineCtor {
        std::sync::Arc::new(|p| Ok(Box::new(CascadeEngine::new(p)?) as EngineBox))
    }

    fn pods() -> Program {
        Program::parse(
            "submitted(1). submitted(2). accepted(2).
             rejected(X) :- submitted(X), !accepted(X).",
        )
        .unwrap()
    }

    #[test]
    fn storage_spec_parse_and_display() {
        // Legacy spellings parse to all-default specs and round-trip.
        assert_eq!("mem".parse::<StorageSpec>().unwrap(), StorageSpec::Mem);
        let basic = "wal:/tmp/x".parse::<StorageSpec>().unwrap();
        assert_eq!(basic, StorageSpec::wal("/tmp/x"));
        assert_eq!(basic.to_string(), "wal:/tmp/x");
        assert_eq!(basic.wal_dir(), Some(Path::new("/tmp/x")));
        assert!(basic.is_durable() && !StorageSpec::Mem.is_durable());
        // Every knob, spelled out.
        let full = "wal:/tmp/x;fsync=buffered;compact=auto;snapshot=delta:4;replay=bulk"
            .parse::<StorageSpec>()
            .unwrap();
        assert_eq!(
            full,
            StorageSpec::wal("/tmp/x")
                .fsync(Durability::Buffered)
                .compaction(CompactionPolicy::default_auto())
                .snapshot_mode(SnapshotMode::Incremental { max_chain: 4 })
                .replay(ReplayMode::Bulk)
        );
        assert_eq!(full.to_string().parse::<StorageSpec>().unwrap(), full, "display round-trips");
        // `delta` without a bound gets the default chain length.
        assert_eq!(
            "wal:/x;snapshot=delta".parse::<StorageSpec>().unwrap(),
            StorageSpec::wal("/x")
                .snapshot_mode(SnapshotMode::Incremental { max_chain: DEFAULT_MAX_CHAIN })
        );
        // Custom compaction policies ride through.
        let tuned = "wal:/x;compact=wal=4m,txns=10".parse::<StorageSpec>().unwrap();
        match &tuned {
            StorageSpec::Wal(spec) => {
                assert_eq!(spec.compaction.max_wal_bytes, Some(4 * 1024 * 1024));
                assert_eq!(spec.compaction.min_wal_txns, 10);
            }
            StorageSpec::Mem => panic!("expected wal"),
        }
        assert_eq!(tuned.to_string().parse::<StorageSpec>().unwrap(), tuned);
        // Rejections name the problem.
        for bad in [
            "wal:",
            "nvram:/x",
            "wal:/x;snapshot=delta:0",
            "wal:/x;replay=psychic",
            "wal:/x;fsync=sometimes",
            "wal:/x;compact=wal=",
            "wal:/x;turbo=on",
        ] {
            assert!(bad.parse::<StorageSpec>().is_err(), "{bad} must be rejected");
        }
        #[allow(deprecated)]
        {
            assert_eq!(StorageSpec::parse("mem").unwrap(), StorageSpec::Mem);
        }
    }

    #[test]
    fn update_codec_round_trips() {
        let updates = [
            Update::InsertFact(Fact::parse("p(\"weird value.\")").unwrap()),
            Update::DeleteFact(Fact::parse("\"weird rel\"(1, x)").unwrap()),
            Update::InsertRule(Rule::parse("p(X) :- q(X), !r(X).").unwrap()),
            Update::DeleteRule(Rule::parse("p(X) :- q(X).").unwrap()),
        ];
        for u in &updates {
            assert_eq!(&decode_update(&encode_update(u)).unwrap(), u);
        }
        assert!(decode_update(&[99]).is_err());
        assert!(decode_update(&[]).is_err());
        let mut extra = encode_update(&updates[0]);
        extra.push(0);
        assert!(decode_update(&extra).is_err(), "trailing bytes rejected");
    }

    #[test]
    fn state_codec_round_trips() {
        let engine = CascadeEngine::new(pods()).unwrap();
        let bytes = encode_state(&engine);
        let state = decode_state(&bytes).unwrap();
        assert_eq!(&state.model, engine.model());
        assert_eq!(state.supports, engine.support_dump());
        assert_eq!(state.program.num_facts(), engine.program().num_facts());
        assert_eq!(state.program.num_rules(), engine.program().num_rules());
        // Truncations are rejected, never misread.
        for cut in [0, 1, 5, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_state(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn fresh_open_apply_reopen_round_trip() {
        let dir = tmpdir("roundtrip");
        let expected = {
            let mut e =
                DurableEngine::open(&dir, "cascade", cascade_ctor(), pods(), Durability::Fsync)
                    .unwrap();
            assert!(e.model().contains_parsed("rejected(1)"));
            e.insert_fact(Fact::parse("accepted(1)").unwrap()).unwrap();
            e.apply_all(&[
                Update::InsertFact(Fact::parse("submitted(3)").unwrap()),
                Update::InsertFact(Fact::parse("submitted(4)").unwrap()),
            ])
            .unwrap();
            (e.model().sorted_facts(), e.support_dump())
        }; // dropped = simulated process exit
        let e =
            DurableEngine::open(&dir, "cascade", cascade_ctor(), Program::new(), Durability::Fsync)
                .unwrap();
        assert_eq!(e.model().sorted_facts(), expected.0);
        assert_eq!(e.support_dump(), expected.1);
        assert!(!e.model().contains_parsed("rejected(1)"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejected_batch_aborts_and_recovers_clean() {
        let dir = tmpdir("abort");
        let before;
        {
            let mut e =
                DurableEngine::open(&dir, "cascade", cascade_ctor(), pods(), Durability::Fsync)
                    .unwrap();
            before = (e.model().sorted_facts(), e.support_dump());
            // Second update deletes an unasserted fact: engine rejects, the
            // whole batch rolls back, an ABORT lands in the WAL.
            let err = e
                .apply_all(&[
                    Update::InsertFact(Fact::parse("submitted(9)").unwrap()),
                    Update::DeleteFact(Fact::parse("ghost(1)").unwrap()),
                ])
                .unwrap_err();
            assert!(matches!(err, MaintenanceError::NotAsserted(_)));
            assert_eq!((e.model().sorted_facts(), e.support_dump()), before);
        }
        let e =
            DurableEngine::open(&dir, "cascade", cascade_ctor(), Program::new(), Durability::Fsync)
                .unwrap();
        assert_eq!((e.model().sorted_facts(), e.support_dump()), before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compact_empties_wal_and_preserves_state() {
        let dir = tmpdir("compact");
        let mut e = DurableEngine::open(&dir, "cascade", cascade_ctor(), pods(), Durability::Fsync)
            .unwrap();
        e.insert_fact(Fact::parse("accepted(1)").unwrap()).unwrap();
        assert!(e.wal_bytes() > 0);
        let model = e.model().sorted_facts();
        assert!(e.checkpoint().unwrap());
        assert_eq!(e.wal_bytes(), 0);
        assert_eq!(e.model().sorted_facts(), model);
        // Post-compaction live state ≡ recovered state, supports included.
        let dump = e.support_dump();
        drop(e);
        let e =
            DurableEngine::open(&dir, "cascade", cascade_ctor(), Program::new(), Durability::Fsync)
                .unwrap();
        assert_eq!(e.model().sorted_facts(), model);
        assert_eq!(e.support_dump(), dump);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rule_updates_are_durable() {
        let dir = tmpdir("rules");
        {
            let mut e =
                DurableEngine::open(&dir, "cascade", cascade_ctor(), pods(), Durability::Fsync)
                    .unwrap();
            e.insert_rule(Rule::parse("late(X) :- submitted(X), !reviewed(X).").unwrap()).unwrap();
            e.delete_rule(Rule::parse("late(X) :- submitted(X), !reviewed(X).").unwrap()).unwrap();
            e.insert_rule(Rule::parse("flagged(X) :- rejected(X).").unwrap()).unwrap();
        }
        let e =
            DurableEngine::open(&dir, "cascade", cascade_ctor(), Program::new(), Durability::Fsync)
                .unwrap();
        assert!(e.model().contains_parsed("flagged(1)"));
        assert_eq!(e.program().num_rules(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The canonical support dump for an engine's current program: what a
    /// fresh engine built from it would believe. Recovery through a delta
    /// chain or bulk replay lands exactly this form.
    fn canonical_dump(e: &DurableEngine) -> SupportDump {
        cascade_ctor()(e.program().clone()).unwrap().support_dump()
    }

    #[test]
    fn delta_codec_round_trips() {
        let delta = DeltaState {
            program_rels: vec![
                (
                    Symbol::new("p"),
                    vec![Fact::parse("p(1)").unwrap(), Fact::parse("p(\"odd val\")").unwrap()],
                ),
                (Symbol::new("q"), vec![]),
            ],
            rules: vec!["r(X) :- p(X), !q(X).".to_string()],
            model_rels: vec![(Symbol::new("r"), vec![Fact::parse("r(1)").unwrap()])],
        };
        let bytes = encode_delta(&delta);
        let back = decode_delta(&bytes).unwrap();
        assert_eq!(back.program_rels, delta.program_rels);
        assert_eq!(back.rules, delta.rules);
        assert_eq!(back.model_rels, delta.model_rels);
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_delta(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let mut extra = bytes;
        extra.push(0);
        assert!(decode_delta(&extra).is_err(), "trailing bytes rejected");
    }

    #[test]
    fn incremental_checkpoints_chain_and_recover_exactly() {
        let dir = tmpdir("inc_chain");
        let mut spec = WalSpec::new(&dir);
        spec.snapshot = SnapshotMode::Incremental { max_chain: 8 };
        let (model, canonical) = {
            let mut e =
                DurableEngine::open_spec(&spec, "cascade", cascade_ctor(), pods(), None).unwrap();
            // Checkpoint 1: fact churn, including a retraction.
            e.insert_fact(Fact::parse("accepted(1)").unwrap()).unwrap();
            e.delete_fact(Fact::parse("accepted(2)").unwrap()).unwrap();
            assert!(e.checkpoint().unwrap());
            assert_eq!(e.wal_bytes(), 0, "delta checkpoint empties the WAL");
            assert_eq!(e.durability().unwrap().snapshot_chain_len, 1);
            // Checkpoint 2: rule churn rides the chain too.
            e.insert_rule(Rule::parse("flagged(X) :- rejected(X).").unwrap()).unwrap();
            e.insert_fact(Fact::parse("submitted(9)").unwrap()).unwrap();
            assert!(e.checkpoint().unwrap());
            assert_eq!(e.durability().unwrap().snapshot_chain_len, 2);
            // Plus an uncheckpointed WAL suffix on top of the chain.
            e.insert_fact(Fact::parse("accepted(9)").unwrap()).unwrap();
            assert!(e.wal_bytes() > 0);
            (e.model().sorted_facts(), canonical_dump(&e))
        };
        let e = DurableEngine::open_spec(&spec, "cascade", cascade_ctor(), Program::new(), None)
            .unwrap();
        assert_eq!(e.model().sorted_facts(), model, "chain + suffix recovery is exact");
        assert_eq!(e.support_dump(), canonical, "recovered supports are the canonical form");
        assert!(e.model().contains_parsed("flagged(2)"));
        assert!(!e.model().contains_parsed("rejected(9)"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chain_bound_falls_back_to_full_snapshot() {
        let dir = tmpdir("inc_bound");
        let mut spec = WalSpec::new(&dir);
        spec.snapshot = SnapshotMode::Incremental { max_chain: 2 };
        let mut e =
            DurableEngine::open_spec(&spec, "cascade", cascade_ctor(), pods(), None).unwrap();
        for (i, expected_chain) in [(0u32, 1u64), (1, 2), (2, 0), (3, 1)] {
            e.insert_fact(Fact::parse(&format!("submitted({})", 100 + i)).unwrap()).unwrap();
            assert!(e.checkpoint().unwrap());
            assert_eq!(
                e.durability().unwrap().snapshot_chain_len,
                expected_chain,
                "checkpoint {i}: chain grows to the bound, then a full snapshot resets it"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bulk_replay_matches_engine_replay() {
        let dir = tmpdir("bulk_eq");
        let model = {
            let mut e =
                DurableEngine::open(&dir, "cascade", cascade_ctor(), pods(), Durability::Fsync)
                    .unwrap();
            e.insert_fact(Fact::parse("accepted(1)").unwrap()).unwrap();
            e.apply_all(&[
                Update::InsertFact(Fact::parse("submitted(3)").unwrap()),
                Update::DeleteFact(Fact::parse("accepted(1)").unwrap()),
                Update::InsertRule(Rule::parse("flagged(X) :- rejected(X).").unwrap()),
            ])
            .unwrap();
            e.delete_rule(Rule::parse("flagged(X) :- rejected(X).").unwrap()).unwrap();
            e.insert_rule(Rule::parse("late(X) :- submitted(X), !accepted(X).").unwrap()).unwrap();
            e.model().sorted_facts()
        };
        let mut spec = WalSpec::new(&dir);
        spec.replay = ReplayMode::Bulk;
        let bulk = DurableEngine::open_spec(&spec, "cascade", cascade_ctor(), Program::new(), None)
            .unwrap();
        assert_eq!(bulk.model().sorted_facts(), model, "bulk replay lands the same model");
        assert_eq!(bulk.durability().unwrap().replay_mode, ReplayMode::Bulk);
        assert_eq!(
            bulk.support_dump(),
            canonical_dump(&bulk),
            "bulk replay lands the canonical support form"
        );
        // Engine-mode reopen of the same store agrees on the model.
        drop(bulk);
        let e =
            DurableEngine::open(&dir, "cascade", cascade_ctor(), Program::new(), Durability::Fsync)
                .unwrap();
        assert_eq!(e.model().sorted_facts(), model);
        assert_eq!(e.durability().unwrap().replay_mode, ReplayMode::Engine);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn auto_checkpoint_honors_policy() {
        let dir = tmpdir("auto_ckpt");
        let mut spec = WalSpec::new(&dir);
        spec.compaction =
            CompactionPolicy { max_wal_bytes: Some(1), max_recovery_ms: None, min_wal_txns: 2 };
        spec.snapshot = SnapshotMode::Incremental { max_chain: 8 };
        let mut e =
            DurableEngine::open_spec(&spec, "cascade", cascade_ctor(), pods(), None).unwrap();
        e.insert_fact(Fact::parse("submitted(50)").unwrap()).unwrap();
        assert!(!e.auto_checkpoint().unwrap(), "below the txn floor: not due");
        e.insert_fact(Fact::parse("submitted(51)").unwrap()).unwrap();
        assert!(e.auto_checkpoint().unwrap(), "over every threshold: checkpoints");
        assert_eq!(e.wal_bytes(), 0);
        assert_eq!(e.durability().unwrap().snapshot_chain_len, 1);
        // A disabled policy never fires (the default `open` path).
        drop(e);
        let mut e =
            DurableEngine::open(&dir, "cascade", cascade_ctor(), Program::new(), Durability::Fsync)
                .unwrap();
        e.insert_fact(Fact::parse("submitted(52)").unwrap()).unwrap();
        assert!(!e.auto_checkpoint().unwrap(), "compaction off: never due");
        assert!(e.wal_bytes() > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
