//! `strata-serve` — the standalone ingest server.
//!
//! Binds a TCP listener and serves the line protocol of
//! `strata_service::protocol` (submit / query / flush / stats / quit)
//! against one maintained stratified database. Many clients share one
//! coalescing queue, so concurrent submissions group-commit: one engine
//! transaction — and, with `--store`, one WAL fsync — per group.
//!
//! ```text
//! strata-serve 127.0.0.1:7171 --strategy cascade --store ./db \
//!              --program seed.strata --group 64 --delay-ms 2
//! ```
//!
//! * `--strategy <name>`   any of the six registered strategies (default
//!   `cascade`); an unknown name fails with the registry's list
//! * `--store <dir>`       durable WAL + snapshot chain (default in-memory).
//!   A durable server gets the production storage profile unless
//!   overridden: auto-compaction (`compact=auto`), incremental
//!   checkpoints (`snapshot=delta:8`), and bulk replay (`replay=bulk`)
//! * `--compact <policy>`  auto-compaction policy: `off`, `auto`, or
//!   `[wal=<bytes>][,ms=<n>][,txns=<n>]` (see
//!   `strata_store::CompactionPolicy`)
//! * `--snapshot <mode>`   checkpoint mode: `full` or `delta[:<max>]`
//! * `--replay <mode>`     recovery replay: `bulk` (fast, canonical
//!   supports) or `engine` (exact per-transaction replay)
//! * `--program <file>`    seed program for a fresh database (an existing
//!   store's recovered state wins, as with `:open`)
//! * `--group <n>`         group-size watermark (default 64)
//! * `--delay-ms <n>`      latency watermark in milliseconds (default 2)
//! * `--max-pending <n>`   backpressure bound (default 8192)
//! * `--slow-group-ms <n>` log any group whose cut-to-publish time exceeds
//!   `n` milliseconds to stderr, with its full per-stage span breakdown
//! * `--fault-plan <spec>` deterministic fault injection for chaos drills
//!   (e.g. `wal-fsync@3`, `panic-pre-apply@1+`; see
//!   `strata_store::faults`)
//!
//! ## Multi-tenancy and sharding
//!
//! Any of the following flags switch the front-end to a cluster serving
//! named databases (`use <db>`, `db create|list|drop` on the wire). The
//! default database keeps the legacy layout — a `--store` directory from
//! a single-database server opens unchanged:
//!
//! * `--data-root <dir>`   durable home for named databases
//!   (`<dir>/<name>`); without `--store`, the default database lives at
//!   `<dir>/default`
//! * `--db <name>[,<name>…]` precreate (or reopen) named databases at
//!   startup; repeatable
//! * `--shards <n>`        partition every database into up to `n` shard
//!   workers along its stratum dependency components (rule updates are
//!   global barriers that re-partition)
//! * `--worker-budget <n>` bound how many shard workers across all
//!   databases commit concurrently (threads stay idle without a permit)
//!
//! ## Supervision and shutdown
//!
//! With `--store`, the worker runs supervised: a panic or storage fault
//! fails only the in-flight group (typed, retryable errors on the wire),
//! then the supervisor rebuilds the engine from the WAL and re-publishes
//! a fresh snapshot. If restarts are exhausted the service degrades to
//! read-only — queries and stats keep serving — and periodically probes
//! the store to re-arm writes. In-memory engines get no rebuild (a replay
//! source is required to reconstruct state), so persistent failure goes
//! straight to read-only.
//!
//! Ctrl-C (SIGINT/SIGTERM) or the wire's `shutdown` verb triggers a
//! graceful exit: stop accepting, drain and decide every queued request,
//! checkpoint a durable store, then exit 0.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use stratamaint::core::durable::DEFAULT_MAX_CHAIN;
use stratamaint::core::registry::EngineRegistry;
use stratamaint::core::{
    FaultPlan, MaintenanceEngine, MaintenanceError, ReplayMode, SnapshotMode, StorageSpec, WalSpec,
};
use stratamaint::datalog::Program;
use stratamaint::service::{
    net, Cluster, DbOptions, EngineRebuild, IngestConfig, Service, SupervisorConfig, WorkerBudget,
};
use stratamaint::store::CompactionPolicy;

struct Args {
    addr: String,
    strategy: String,
    store: Option<String>,
    compact: Option<CompactionPolicy>,
    snapshot: Option<SnapshotMode>,
    replay: Option<ReplayMode>,
    program: Option<String>,
    cfg: IngestConfig,
    slow_group_ms: Option<u64>,
    fault_plan: Option<FaultPlan>,
    data_root: Option<String>,
    dbs: Vec<String>,
    shards: u32,
    worker_budget: Option<usize>,
}

impl Args {
    /// The production-profile WAL spec for `dir` (auto-compaction,
    /// incremental checkpoints, bulk replay), each knob individually
    /// overridable.
    fn wal_profile(&self, dir: &str) -> WalSpec {
        let mut spec = WalSpec::new(dir);
        spec.compaction = self.compact.unwrap_or_else(CompactionPolicy::default_auto);
        spec.snapshot =
            self.snapshot.unwrap_or(SnapshotMode::Incremental { max_chain: DEFAULT_MAX_CHAIN });
        spec.replay = self.replay.unwrap_or(ReplayMode::Bulk);
        spec
    }

    /// The resolved storage spec for the (default) database: in-memory
    /// without `--store`/`--data-root`; `--store` keeps the legacy flat
    /// layout byte-compatible, `--data-root` alone puts the default
    /// database under `<root>/default` like any other tenant.
    fn storage(&self) -> StorageSpec {
        match (&self.store, &self.data_root) {
            (Some(dir), _) => StorageSpec::Wal(self.wal_profile(dir)),
            (None, Some(root)) => {
                let dir = std::path::Path::new(root).join("default");
                StorageSpec::Wal(self.wal_profile(&dir.to_string_lossy()))
            }
            (None, None) => StorageSpec::Mem,
        }
    }

    /// Whether any multi-tenant/sharding flag was given: those are served
    /// by a [`Cluster`] front-end; without them the classic single-service
    /// path runs unchanged.
    fn cluster_mode(&self) -> bool {
        self.data_root.is_some()
            || !self.dbs.is_empty()
            || self.shards > 1
            || self.worker_budget.is_some()
    }
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        addr: String::new(),
        strategy: "cascade".into(),
        store: None,
        compact: None,
        snapshot: None,
        replay: None,
        program: None,
        cfg: IngestConfig::default(),
        slow_group_ms: None,
        fault_plan: None,
        data_root: None,
        dbs: Vec::new(),
        shards: 1,
        worker_budget: None,
    };
    let mut it = args.iter();
    let mut positional = Vec::new();
    while let Some(arg) = it.next() {
        let mut value =
            |flag: &str| it.next().cloned().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--strategy" => out.strategy = value("--strategy")?,
            "--store" => out.store = Some(value("--store")?),
            "--compact" => {
                out.compact = Some(value("--compact")?.parse().map_err(
                    |e: stratamaint::store::PolicyParseError| format!("--compact: {e}"),
                )?);
            }
            "--snapshot" => {
                out.snapshot =
                    Some(value("--snapshot")?.parse().map_err(|e| format!("--snapshot: {e}"))?);
            }
            "--replay" => {
                out.replay =
                    Some(value("--replay")?.parse().map_err(|e| format!("--replay: {e}"))?);
            }
            "--program" => out.program = Some(value("--program")?),
            "--group" => {
                out.cfg.max_group =
                    value("--group")?.parse().map_err(|e| format!("--group: {e}"))?;
            }
            "--delay-ms" => {
                let ms: u64 =
                    value("--delay-ms")?.parse().map_err(|e| format!("--delay-ms: {e}"))?;
                out.cfg.max_delay = Duration::from_millis(ms);
            }
            "--max-pending" => {
                out.cfg.max_pending =
                    value("--max-pending")?.parse().map_err(|e| format!("--max-pending: {e}"))?;
            }
            "--slow-group-ms" => {
                out.slow_group_ms = Some(
                    value("--slow-group-ms")?
                        .parse()
                        .map_err(|e| format!("--slow-group-ms: {e}"))?,
                );
            }
            "--fault-plan" => {
                out.fault_plan =
                    Some(value("--fault-plan")?.parse().map_err(|e| format!("--fault-plan: {e}"))?);
            }
            "--data-root" => out.data_root = Some(value("--data-root")?),
            "--db" => {
                for name in value("--db")?.split(',').filter(|n| !n.is_empty()) {
                    out.dbs.push(name.to_string());
                }
            }
            "--shards" => {
                out.shards = value("--shards")?.parse().map_err(|e| format!("--shards: {e}"))?;
            }
            "--worker-budget" => {
                out.worker_budget = Some(
                    value("--worker-budget")?
                        .parse()
                        .map_err(|e| format!("--worker-budget: {e}"))?,
                );
            }
            other if other.starts_with('-') => return Err(format!("unknown flag {other}")),
            other => positional.push(other.to_string()),
        }
    }
    match positional.as_slice() {
        [addr] => out.addr = addr.clone(),
        _ => {
            return Err("usage: strata-serve <addr> [--strategy NAME] [--store DIR] \
                        [--compact POLICY] [--snapshot MODE] [--replay MODE] \
                        [--program FILE] [--group N] [--delay-ms N] [--max-pending N] \
                        [--slow-group-ms N] [--fault-plan SPEC] \
                        [--data-root DIR] [--db NAME[,NAME...]] [--shards N] \
                        [--worker-budget N]"
                .into())
        }
    }
    if out.cfg.max_group == 0 || out.cfg.max_pending < out.cfg.max_group {
        return Err("--group must be >= 1 and --max-pending >= --group".into());
    }
    if out.store.is_none()
        && out.data_root.is_none()
        && (out.compact.is_some() || out.snapshot.is_some() || out.replay.is_some())
    {
        return Err("--compact/--snapshot/--replay require --store or --data-root".into());
    }
    if out.shards == 0 {
        return Err("--shards must be >= 1".into());
    }
    if out.worker_budget == Some(0) {
        return Err("--worker-budget must be >= 1".into());
    }
    if !out.dbs.is_empty() && out.data_root.is_none() {
        eprintln!("note: --db without --data-root keeps the named databases in memory");
    }
    Ok(out)
}

/// The SIGINT/SIGTERM latch. A signal handler may only do async-signal-safe
/// work, so it sets this flag; the main loop polls it between bounded waits
/// on the wire-initiated [`net::ShutdownFlag`].
static SIGNALLED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" fn on_signal(_sig: i32) {
        SIGNALLED.store(true, Ordering::SeqCst);
    }
    extern "C" {
        // libc's classic `signal(2)`: always linked with std on unix, so no
        // extra dependency is needed for a store-a-flag handler.
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

fn run(args: Args) -> Result<(), String> {
    let program = match &args.program {
        Some(path) => {
            let src =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            Program::parse(&src).map_err(|e| format!("cannot parse {path}: {e}"))?
        }
        None => Program::new(),
    };
    let storage = args.storage();
    if let Some(ms) = args.slow_group_ms {
        // 0 in the registry means "disabled"; clamp to 1us so passing the
        // flag always arms logging (`--slow-group-ms 0` = log every group).
        stratamaint::obs::trace::set_slow_group_us(ms.saturating_mul(1000).max(1));
        eprintln!("slow-group logging armed: >= {ms} ms cut-to-publish");
    }
    let faults =
        args.fault_plan.as_ref().filter(|plan| !plan.is_empty()).map(|plan| Arc::new(plan.arm()));
    if let Some(plan) = args.fault_plan.as_ref().filter(|plan| !plan.is_empty()) {
        eprintln!("fault injection armed: {plan}");
    }
    if args.cluster_mode() {
        return run_cluster(&args, program, faults);
    }
    let registry = EngineRegistry::standard();
    let engine = registry
        .build_with_storage_faults(&args.strategy, program.clone(), &storage, faults.clone())
        .map_err(|e| e.to_string())?;
    if let Some(d) = engine.durability() {
        eprintln!(
            "recovered {} transactions ({} updates) in {} ms ({} replay, chain {}) from {}",
            d.recovered_txns,
            d.recovered_updates,
            d.recovery_ms,
            d.replay_mode,
            d.snapshot_chain_len,
            args.store.as_deref().unwrap_or("?"),
        );
    }
    eprintln!(
        "serving {} ({} facts) — group <= {}, delay {:?}, storage {}",
        args.strategy,
        engine.model().len(),
        args.cfg.max_group,
        args.cfg.max_delay,
        storage,
    );
    // A durable store is its own replay source: the supervisor can heal a
    // crashed worker by rebuilding from the WAL. In-memory engines have
    // nothing to rebuild from — a fresh build would silently drop every
    // committed update — so they get no rebuild and degrade to read-only
    // on persistent failure instead.
    let rebuild: Option<EngineRebuild> = match &storage {
        StorageSpec::Mem => None,
        StorageSpec::Wal(_) => {
            let strategy = args.strategy.clone();
            let program = program.clone();
            let storage = storage.clone();
            let faults = faults.clone();
            Some(Arc::new(move || {
                EngineRegistry::standard()
                    .build_with_storage_faults(&strategy, program.clone(), &storage, faults.clone())
                    .map_err(|e| MaintenanceError::Storage(format!("rebuild failed: {e}")))
            }))
        }
    };
    let service = Arc::new(Service::start_supervised(
        engine,
        args.cfg,
        SupervisorConfig::default(),
        rebuild,
        faults,
    ));
    let handle = net::serve(Arc::clone(&service), &args.addr).map_err(|e| e.to_string())?;
    eprintln!(
        "listening on {} (client | submit | query | flush | compact | stats | metrics | trace | \
         shutdown | quit)",
        handle.addr()
    );
    install_signal_handlers();
    // Serve until asked to stop: either a connection's `shutdown` verb
    // raises the server flag, or SIGINT/SIGTERM sets the latch. The
    // bounded wait interleaves the two — a signal handler cannot safely
    // notify a condvar, so it must be polled.
    let requests = handle.shutdown_requests();
    loop {
        if requests.wait_timeout(Duration::from_millis(200)) {
            eprintln!("shutdown requested over the wire");
            break;
        }
        if SIGNALLED.load(Ordering::SeqCst) {
            eprintln!("signal received");
            break;
        }
    }
    // Graceful teardown: stop accepting, decide everything already queued
    // (every ack implies durability for a WAL store), checkpoint, exit.
    // Connections still open die with the process — their clients have
    // their acks.
    handle.stop();
    service.flush();
    match service.with_engine_mut(|e| e.checkpoint()) {
        Ok(true) => eprintln!("checkpointed store; bye"),
        Ok(false) => eprintln!("bye"),
        Err(e) => eprintln!("checkpoint failed (WAL remains authoritative): {e}"),
    }
    Ok(())
}

/// The multi-tenant/sharded server path: a [`Cluster`] front-end whose
/// default database keeps the legacy storage layout, with named tenants
/// precreated from `--db` under `--data-root`, each database sharded to
/// `--shards` and every shard worker drawing from one `--worker-budget`.
fn run_cluster(
    args: &Args,
    program: Program,
    faults: Option<Arc<stratamaint::core::FaultInjector>>,
) -> Result<(), String> {
    let storage = args.storage();
    let mut opts = DbOptions::new(&args.strategy);
    opts.shards = args.shards;
    opts.cfg = args.cfg;
    opts.sup = SupervisorConfig::default();
    opts.faults = faults;
    opts.budget = args.worker_budget.map(WorkerBudget::new);
    let data_root = args.data_root.as_ref().map(std::path::PathBuf::from);
    let cluster = Cluster::new(program, storage.clone(), data_root, opts)
        .map_err(|e| format!("cannot open the default database: {e}"))?;
    for name in &args.dbs {
        cluster.create(name).map_err(|e| format!("--db {name}: {e}"))?;
    }
    eprintln!(
        "serving {} ({} databases, {} shards each) — group <= {}, delay {:?}, storage {}",
        args.strategy,
        cluster.list().len(),
        args.shards,
        args.cfg.max_group,
        args.cfg.max_delay,
        storage,
    );
    if let Some(budget) = args.worker_budget {
        eprintln!("worker budget: {budget} concurrently active shard workers");
    }
    let handle = net::serve_cluster(Arc::clone(&cluster), &args.addr).map_err(|e| e.to_string())?;
    eprintln!(
        "listening on {} (client | submit | query | use | db | flush | compact | stats | \
         metrics | trace | shutdown | quit)",
        handle.addr()
    );
    install_signal_handlers();
    let requests = handle.shutdown_requests();
    loop {
        if requests.wait_timeout(Duration::from_millis(200)) {
            eprintln!("shutdown requested over the wire");
            break;
        }
        if SIGNALLED.load(Ordering::SeqCst) {
            eprintln!("signal received");
            break;
        }
    }
    // Graceful teardown mirrors the single-database path, tenant by
    // tenant: decide everything queued, then checkpoint each durable
    // store so the next open recovers from snapshots instead of the WAL.
    handle.stop();
    for info in cluster.list() {
        let Some(db) = cluster.get(&info.name) else { continue };
        db.flush();
        match db.compact() {
            Ok(Some(seq)) => eprintln!("checkpointed {} through seq {seq}", info.name),
            Ok(None) => {}
            Err(e) => {
                eprintln!("checkpoint of {} failed (WAL remains authoritative): {e}", info.name)
            }
        }
    }
    eprintln!("bye");
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(args) => {
            if let Err(e) = run(args) {
                eprintln!("strata-serve: {e}");
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("strata-serve: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_full_flag_set() {
        let a = args(&[
            "127.0.0.1:7171",
            "--strategy",
            "cascade",
            "--store",
            "/tmp/db",
            "--group",
            "128",
            "--delay-ms",
            "5",
            "--max-pending",
            "256",
            "--slow-group-ms",
            "25",
        ])
        .unwrap();
        assert_eq!(a.addr, "127.0.0.1:7171");
        assert_eq!(a.strategy, "cascade");
        assert_eq!(a.store.as_deref(), Some("/tmp/db"));
        assert_eq!(a.cfg.max_group, 128);
        assert_eq!(a.cfg.max_delay, Duration::from_millis(5));
        assert_eq!(a.cfg.max_pending, 256);
        assert_eq!(a.slow_group_ms, Some(25));
    }

    #[test]
    fn parses_fault_plans() {
        let a = args(&["127.0.0.1:0", "--fault-plan", "wal-fsync@2,panic-pre-apply@1+"]).unwrap();
        let plan = a.fault_plan.expect("plan parsed");
        assert_eq!(plan.specs().len(), 2);
        assert!(args(&["127.0.0.1:0", "--fault-plan", "not-a-point@1"]).is_err());
        assert!(args(&["127.0.0.1:0", "--fault-plan"]).is_err(), "flag needs a value");
    }

    #[test]
    fn storage_flags_resolve_the_production_profile() {
        // Without --store: in-memory, and the storage knobs are refused.
        assert_eq!(args(&["x:0"]).unwrap().storage(), StorageSpec::Mem);
        for flag in [
            ["x:0", "--compact", "auto"],
            ["x:0", "--snapshot", "full"],
            ["x:0", "--replay", "bulk"],
        ] {
            let Err(err) = args(&flag) else { panic!("{flag:?} must require --store") };
            assert!(err.contains("require --store"), "{err}");
        }

        // With --store alone: the production profile.
        let StorageSpec::Wal(spec) = args(&["x:0", "--store", "/tmp/db"]).unwrap().storage() else {
            panic!("--store must resolve durable")
        };
        assert_eq!(spec.compaction, CompactionPolicy::default_auto());
        assert_eq!(spec.snapshot, SnapshotMode::Incremental { max_chain: DEFAULT_MAX_CHAIN });
        assert_eq!(spec.replay, ReplayMode::Bulk);

        // Each knob is individually overridable, typed at parse time.
        let a = args(&[
            "x:0",
            "--store",
            "/tmp/db",
            "--compact",
            "wal=4k,txns=16",
            "--snapshot",
            "delta:3",
            "--replay",
            "engine",
        ])
        .unwrap();
        let StorageSpec::Wal(spec) = a.storage() else { panic!("durable") };
        assert_eq!(spec.compaction, "wal=4k,txns=16".parse().unwrap());
        assert_eq!(spec.snapshot, SnapshotMode::Incremental { max_chain: 3 });
        assert_eq!(spec.replay, ReplayMode::Engine);
        let a =
            args(&["x:0", "--store", "/tmp/db", "--compact", "off", "--snapshot", "full"]).unwrap();
        let StorageSpec::Wal(spec) = a.storage() else { panic!("durable") };
        assert_eq!(spec.compaction, CompactionPolicy::disabled());
        assert_eq!(spec.snapshot, SnapshotMode::Full);

        // Bad values are parse errors that name the flag.
        for (flag, v) in [("--compact", "wal="), ("--snapshot", "delta:0"), ("--replay", "psychic")]
        {
            let Err(err) = args(&["x:0", "--store", "/tmp/db", flag, v]) else {
                panic!("{flag} {v} must be rejected")
            };
            assert!(err.contains(flag), "{err}");
        }
    }

    #[test]
    fn parses_cluster_flags() {
        let a = args(&[
            "127.0.0.1:0",
            "--data-root",
            "/tmp/cluster",
            "--db",
            "alpha,beta",
            "--db",
            "gamma",
            "--shards",
            "4",
            "--worker-budget",
            "2",
        ])
        .unwrap();
        assert!(a.cluster_mode());
        assert_eq!(a.data_root.as_deref(), Some("/tmp/cluster"));
        assert_eq!(a.dbs, ["alpha", "beta", "gamma"]);
        assert_eq!(a.shards, 4);
        assert_eq!(a.worker_budget, Some(2));
        // Without --store the default database lives under the data root.
        let StorageSpec::Wal(spec) = a.storage() else { panic!("data root is durable") };
        assert_eq!(spec.dir, std::path::Path::new("/tmp/cluster/default"));
        assert_eq!(spec.replay, ReplayMode::Bulk, "production profile applies");
        // --store wins for the default database (legacy flat layout).
        let a = args(&["x:0", "--store", "/tmp/db", "--data-root", "/tmp/cluster"]).unwrap();
        let StorageSpec::Wal(spec) = a.storage() else { panic!("durable") };
        assert_eq!(spec.dir, std::path::Path::new("/tmp/db"));
        // The storage knobs work with --data-root alone.
        let a = args(&["x:0", "--data-root", "/tmp/c", "--replay", "engine"]).unwrap();
        let StorageSpec::Wal(spec) = a.storage() else { panic!("durable") };
        assert_eq!(spec.replay, ReplayMode::Engine);
        // Validation.
        assert!(!args(&["x:0"]).unwrap().cluster_mode());
        assert!(args(&["x:0", "--shards", "0"]).is_err());
        assert!(args(&["x:0", "--worker-budget", "0"]).is_err());
    }

    #[test]
    fn defaults_and_errors() {
        let a = args(&["0.0.0.0:0"]).unwrap();
        assert_eq!(a.strategy, "cascade");
        assert!(a.store.is_none() && a.program.is_none());
        assert!(a.slow_group_ms.is_none());
        assert!(args(&[]).is_err(), "address is required");
        assert!(args(&["a", "b"]).is_err(), "one address only");
        assert!(args(&["x", "--group"]).is_err(), "flag needs a value");
        assert!(args(&["x", "--frob"]).is_err(), "unknown flag");
        assert!(args(&["x", "--group", "0"]).is_err(), "zero group");
        assert!(args(&["x", "--group", "10", "--max-pending", "5"]).is_err());
        assert!(args(&["x", "--slow-group-ms", "soon"]).is_err(), "numeric only");
    }
}
