//! `strata` — an interactive shell for maintained stratified databases.
//!
//! ```text
//! cargo run --bin strata                 # empty database
//! cargo run --bin strata -- db.strata    # load a program file
//! ```
//!
//! Commands:
//!
//! ```text
//! + <fact|rule>       insert (e.g. `+ accepted(4)` or `+ p(X) :- q(X).`)
//! - <fact|rule>       delete
//! ? <query>           query the model (`? rejected(X), !late(X)`)
//! :why <fact>         why-provenance (proof tree)
//! :constrain <body>   add a denial constraint (`:constrain a(X), b(X)`)
//! :constraints        list constraints
//! :model              print the maintained model
//! :program            print the current program
//! :stats              statistics of the last update
//! :strategy <name>    switch engine (recompute | static | dynamic-single |
//!                     dynamic-multi | cascade | fact-level)
//! :strategies         list the six registered engines (from the EngineRegistry)
//! :open <path>        make the session durable: WAL + snapshots at <path>
//!                     (recovers the stored state if the path already holds one)
//! :save <path>        export the current program as text
//! :compact            snapshot the durable store and empty its WAL
//! :serve <addr>       start a TCP ingest server over the current program
//! :connect <addr> [--timeout-ms <n>]
//!                     turn the shell into a client of a running server
//!                     (with an optional connect/read timeout)
//! :disconnect         leave remote mode
//! :flush              wait until everything submitted so far is decided
//! :metrics            metrics registry (Prometheus text exposition);
//!                     remote mode asks the server
//! :trace [n]          last n sealed group spans (default 16), per-stage
//! :help               this text
//! :quit               exit
//! ```

use std::io::{self, BufRead, Write};
use std::sync::Arc;

use stratamaint::core::constraints::{Constraint, GuardedEngine};
use stratamaint::core::explain::Explainer;
use stratamaint::core::registry::EngineRegistry;
use stratamaint::core::{EngineBox, MaintenanceEngine, StorageSpec, Update, UpdateStats};
use stratamaint::datalog::{Fact, Program, Query, Rule};
use stratamaint::service::net::{Client, QueryReply, ServerHandle};
use stratamaint::service::{net, IngestConfig, Service};

/// A parsed REPL command.
#[derive(Clone, Debug)]
enum Command {
    Insert(Update),
    Delete(Update),
    Query(Query),
    Why(Fact),
    Constrain(Constraint),
    Constraints,
    Strategies,
    Model,
    ProgramText,
    Stats,
    Strategy(String),
    Open(String),
    Save(String),
    Compact,
    Serve(String),
    Connect { addr: String, timeout_ms: Option<u64> },
    Disconnect,
    UseDb(String),
    Dbs,
    Flush,
    Metrics,
    Trace(usize),
    Help,
    Quit,
    Nothing,
}

/// Parses one input line. Pure, so it is unit-testable.
fn parse_command(line: &str) -> Result<Command, String> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('%') {
        return Ok(Command::Nothing);
    }
    if let Some(rest) = line.strip_prefix('+') {
        return parse_update(rest.trim(), true).map(Command::Insert);
    }
    if let Some(rest) = line.strip_prefix('-') {
        return parse_update(rest.trim(), false).map(Command::Delete);
    }
    if let Some(rest) = line.strip_prefix('?') {
        return Query::parse(rest.trim().trim_end_matches('.'))
            .map(Command::Query)
            .map_err(|e| format!("cannot parse query: {e}"));
    }
    match line.split_whitespace().next().unwrap_or("") {
        ":why" => parse_fact(line[4..].trim()).map(Command::Why),
        ":constrain" => Constraint::parse(line[10..].trim())
            .map(Command::Constrain)
            .map_err(|e| format!("cannot parse constraint: {e}")),
        ":constraints" => Ok(Command::Constraints),
        ":strategies" => Ok(Command::Strategies),
        ":model" => Ok(Command::Model),
        ":program" => Ok(Command::ProgramText),
        ":stats" => Ok(Command::Stats),
        ":strategy" => {
            let name = line[9..].trim();
            if name.is_empty() {
                Err("usage: :strategy <name>".into())
            } else {
                Ok(Command::Strategy(name.to_string()))
            }
        }
        ":open" => {
            let path = line[5..].trim();
            if path.is_empty() {
                Err("usage: :open <path>".into())
            } else {
                Ok(Command::Open(path.to_string()))
            }
        }
        ":save" => {
            let path = line[5..].trim();
            if path.is_empty() {
                Err("usage: :save <path>".into())
            } else {
                Ok(Command::Save(path.to_string()))
            }
        }
        ":compact" => Ok(Command::Compact),
        ":serve" => {
            let addr = line[6..].trim();
            if addr.is_empty() {
                Err("usage: :serve <addr>  (e.g. :serve 127.0.0.1:7171)".into())
            } else {
                Ok(Command::Serve(addr.to_string()))
            }
        }
        ":connect" => {
            let mut addr = None;
            let mut timeout_ms = None;
            let mut words = line[8..].split_whitespace();
            while let Some(word) = words.next() {
                if word == "--timeout-ms" {
                    timeout_ms = match words.next().map(str::parse) {
                        Some(Ok(ms)) => Some(ms),
                        _ => return Err("usage: :connect <addr> [--timeout-ms <n>]".into()),
                    };
                } else if addr.is_none() {
                    addr = Some(word.to_string());
                } else {
                    return Err("usage: :connect <addr> [--timeout-ms <n>]".into());
                }
            }
            match addr {
                Some(addr) => Ok(Command::Connect { addr, timeout_ms }),
                None => Err("usage: :connect <addr> [--timeout-ms <n>]".into()),
            }
        }
        ":disconnect" => Ok(Command::Disconnect),
        ":use" => {
            let name = line[4..].trim();
            if name.is_empty() || name.contains(char::is_whitespace) {
                Err("usage: :use <db>".into())
            } else {
                Ok(Command::UseDb(name.to_string()))
            }
        }
        ":dbs" => Ok(Command::Dbs),
        ":flush" => Ok(Command::Flush),
        ":metrics" => Ok(Command::Metrics),
        ":trace" => {
            let rest = line[6..].trim();
            if rest.is_empty() {
                Ok(Command::Trace(16))
            } else {
                rest.parse().map(Command::Trace).map_err(|_| "usage: :trace [n]".to_string())
            }
        }
        ":help" => Ok(Command::Help),
        ":quit" | ":q" | ":exit" => Ok(Command::Quit),
        other if other.starts_with(':') => Err(format!("unknown command `{other}` (try :help)")),
        _ => Err("updates start with + or -, queries with ? (try :help)".into()),
    }
}

fn parse_update(src: &str, insert: bool) -> Result<Update, String> {
    let src = src.trim_end_matches('.');
    // A bare fact first; otherwise a rule.
    if let Ok(f) = Fact::parse(src) {
        return Ok(if insert { Update::InsertFact(f) } else { Update::DeleteFact(f) });
    }
    match Rule::parse(&format!("{src}.")) {
        Ok(r) => Ok(if insert { Update::InsertRule(r) } else { Update::DeleteRule(r) }),
        Err(e) => Err(format!("cannot parse `{src}` as fact or rule: {e}")),
    }
}

fn parse_fact(src: &str) -> Result<Fact, String> {
    Fact::parse(src.trim_end_matches('.')).map_err(|e| format!("cannot parse fact: {e}"))
}

struct Repl {
    /// The one name → constructor mapping; `:strategy` and `:open` go
    /// through here.
    registry: EngineRegistry,
    engine: GuardedEngine<EngineBox>,
    /// Directory of the durable store, once `:open` has been issued.
    /// `:strategy` reopens the store under the new engine when set.
    durable_path: Option<String>,
    last_stats: Option<UpdateStats>,
    /// Ingest servers started with `:serve`, kept alive for the session.
    servers: Vec<(Arc<Service>, ServerHandle)>,
    /// When `Some`, the shell is a client of a remote server: updates,
    /// queries, `:stats`, and `:flush` travel over the wire.
    remote: Option<Client>,
}

impl Repl {
    fn new(program: Program) -> Result<Repl, String> {
        let registry = EngineRegistry::standard();
        let engine = registry.build("cascade", program).map_err(|e| e.to_string())?;
        Ok(Repl {
            registry,
            engine: GuardedEngine::unconstrained(engine),
            durable_path: None,
            last_stats: None,
            servers: Vec::new(),
            remote: None,
        })
    }

    /// Builds the current (or a new) strategy over `program` under the
    /// session's storage spec: durable when a store is open.
    fn build_engine(&self, name: &str, program: Program) -> Result<EngineBox, String> {
        let storage = match &self.durable_path {
            Some(path) => StorageSpec::wal(path),
            None => StorageSpec::Mem,
        };
        self.registry.build_with_storage(name, program, &storage).map_err(|e| e.to_string())
    }

    /// Executes one command, writing human-readable output. Returns `false`
    /// when the session should end.
    fn execute(&mut self, cmd: Command, out: &mut impl Write) -> io::Result<bool> {
        if self.remote.is_some() {
            return self.execute_remote(cmd, out);
        }
        match cmd {
            Command::Nothing => {}
            Command::Quit => return Ok(false),
            Command::Help => writeln!(out, "{HELP}")?,
            Command::Model => {
                for f in self.engine.model().sorted_facts() {
                    writeln!(out, "  {f}")?;
                }
                writeln!(out, "  ({} facts)", self.engine.model().len())?;
            }
            Command::ProgramText => writeln!(out, "{}", self.engine.program())?,
            Command::Stats => {
                match &self.last_stats {
                    Some(s) => {
                        writeln!(
                    out,
                    "  removed {} (migrated {}), net +{} -{}, {} derivations, {} support bytes",
                    s.removed, s.migrated, s.net_added, s.net_removed, s.derivations,
                    s.support_bytes
                )?
                    }
                    None => writeln!(out, "  no update applied yet")?,
                }
                // A durable session's history does not start at :open —
                // surface what recovery replayed so restart metrics are
                // honest.
                if let Some(d) = self.engine.inner().durability() {
                    writeln!(
                        out,
                        "  durable: recovered {} txns ({} updates{}) at open, \
                         wal now {} txns / {} bytes",
                        d.recovered_txns,
                        d.recovered_updates,
                        if d.recovered_torn_tail { ", torn tail truncated" } else { "" },
                        d.wal_txns,
                        d.wal_bytes
                    )?;
                }
            }
            Command::Query(q) => {
                if q.is_boolean() {
                    writeln!(out, "  {}", q.holds(self.engine.model()))?;
                } else {
                    let rows = q.eval(self.engine.model());
                    for row in &rows {
                        writeln!(out, "  {}", stratamaint::datalog::query::render_row(&q, row))?;
                    }
                    writeln!(out, "  ({} answers)", rows.len())?;
                }
            }
            Command::Why(f) => match Explainer::new(self.engine.program()) {
                Ok(ex) => match ex.explain(&f) {
                    Some(proof) => writeln!(out, "{proof}")?,
                    None => writeln!(out, "  {f} is not in the model")?,
                },
                Err(e) => writeln!(out, "  error: {e}")?,
            },
            Command::Constrain(c) => match self.engine.add_constraint(c) {
                Ok(()) => writeln!(out, "  constraint installed")?,
                Err(e) => writeln!(out, "  rejected: {e}")?,
            },
            Command::Constraints => {
                for c in self.engine.constraints().iter() {
                    writeln!(out, "  {c}")?;
                }
                writeln!(out, "  ({} constraints)", self.engine.constraints().len())?;
            }
            Command::Strategies => {
                for entry in self.registry.entries() {
                    let marker = if entry.name == self.engine.inner().name() { "*" } else { " " };
                    writeln!(out, "  {marker} {:<18} {}", entry.name, entry.summary)?;
                }
            }
            Command::Strategy(name) => {
                // When a durable store is open, the switch reopens it: the
                // recovered program is replayed under the new strategy (all
                // strategies agree on the model, so this is sound).
                match self.build_engine(&name, self.engine.program().clone()) {
                    Ok(engine) => {
                        self.engine.replace_inner(engine);
                        writeln!(out, "  strategy: {}", self.engine.inner().name())?;
                    }
                    Err(e) => writeln!(out, "  error: {e}")?,
                }
            }
            Command::Open(path) => {
                let name = self.engine.inner().name().to_string();
                let program = self.engine.program().clone();
                let storage = StorageSpec::wal(&path);
                match self.registry.build_with_storage(&name, program, &storage) {
                    Ok(engine) => {
                        self.engine.replace_inner(engine);
                        self.durable_path = Some(path.clone());
                        let recovered = self
                            .engine
                            .inner()
                            .durability()
                            .map(|d| (d.recovered_txns, d.recovered_updates))
                            .unwrap_or_default();
                        writeln!(
                            out,
                            "  durable at {path} ({} facts in model, recovered {} txns / {} \
                             updates from the WAL)",
                            self.engine.model().len(),
                            recovered.0,
                            recovered.1
                        )?;
                    }
                    Err(e) => writeln!(out, "  error: {e}")?,
                }
            }
            Command::Save(path) => match std::fs::write(&path, self.engine.program().to_string()) {
                Ok(()) => writeln!(
                    out,
                    "  saved {} facts, {} rules to {path}",
                    self.engine.program().num_facts(),
                    self.engine.program().num_rules()
                )?,
                Err(e) => writeln!(out, "  error: cannot write {path}: {e}")?,
            },
            Command::Compact => match self.engine.inner_mut().checkpoint() {
                Ok(true) => writeln!(out, "  compacted (snapshot written, WAL emptied)")?,
                Ok(false) => writeln!(out, "  not a durable session (use :open <path> first)")?,
                Err(e) => writeln!(out, "  error: {e}")?,
            },
            Command::Serve(addr) => {
                // An independent in-memory copy of the current program
                // under the current strategy: the server owns its engine
                // (drive it with :connect or the strata-serve client).
                let name = self.engine.inner().name();
                match self.registry.build(name, self.engine.program().clone()) {
                    Ok(engine) => {
                        let service = Arc::new(Service::start(engine, IngestConfig::default()));
                        match net::serve(Arc::clone(&service), &addr) {
                            Ok(handle) => {
                                writeln!(
                                    out,
                                    "  serving {name} on {} (a detached in-memory copy of the \
                                     current program; :connect {0} to drive it)",
                                    handle.addr()
                                )?;
                                self.servers.push((service, handle));
                            }
                            Err(e) => writeln!(out, "  error: cannot bind {addr}: {e}")?,
                        }
                    }
                    Err(e) => writeln!(out, "  error: {e}")?,
                }
            }
            Command::Connect { addr, timeout_ms } => match connect(&addr, timeout_ms) {
                Ok(client) => {
                    self.remote = Some(client);
                    writeln!(
                        out,
                        "  connected to {addr} — updates, queries, :stats and :flush now go \
                         to the server (:disconnect to return to the local engine)"
                    )?;
                }
                Err(e) => writeln!(out, "  error: cannot connect to {addr}: {e}")?,
            },
            Command::Disconnect => writeln!(out, "  not connected")?,
            Command::UseDb(_) | Command::Dbs => {
                writeln!(out, "  databases live on a server (:connect first)")?
            }
            Command::Flush => {
                writeln!(out, "  local updates apply synchronously (use :flush after :connect)")?
            }
            Command::Metrics => {
                // Sync each local server's service gauges first, so the
                // exposition agrees with what their `stats` verbs report.
                for (service, _) in &self.servers {
                    service.fill_registry();
                }
                let text = stratamaint::obs::render();
                if text.is_empty() {
                    writeln!(out, "  (no metrics recorded yet)")?;
                }
                for line in text.lines() {
                    writeln!(out, "  {line}")?;
                }
            }
            Command::Trace(n) => {
                let spans = stratamaint::obs::trace::recent_spans(n);
                for span in &spans {
                    writeln!(out, "  {}", span.render())?;
                }
                writeln!(out, "  ({} spans)", spans.len())?;
            }
            Command::Insert(u) | Command::Delete(u) => match self.engine.apply(&u) {
                Ok(stats) => {
                    writeln!(
                        out,
                        "  ok: removed {} (migrated {}), net +{} -{}",
                        stats.removed, stats.migrated, stats.net_added, stats.net_removed
                    )?;
                    self.last_stats = Some(stats);
                }
                Err(e) => writeln!(out, "  rejected: {e}")?,
            },
        }
        Ok(true)
    }

    /// Remote mode: the shell is a protocol client. Updates, queries,
    /// `:stats`, and `:flush` travel over the wire; engine-local commands
    /// ask for `:disconnect` first. A transport error drops back to local
    /// mode.
    fn execute_remote(&mut self, cmd: Command, out: &mut impl Write) -> io::Result<bool> {
        let client = self.remote.as_mut().expect("remote mode");
        match cmd {
            Command::Nothing => {}
            Command::Quit => return Ok(false),
            Command::Help => writeln!(out, "{HELP}")?,
            Command::Disconnect => {
                self.remote = None;
                writeln!(out, "  disconnected (back to the local engine)")?;
            }
            Command::Insert(u) | Command::Delete(u) => match client.submit(&u) {
                Ok(Ok(ack)) => writeln!(
                    out,
                    "  ok: committed with group {} at version {}",
                    ack.group, ack.version
                )?,
                Ok(Err(reason)) => writeln!(out, "  rejected: {reason}")?,
                Err(e) => self.drop_connection(e, out)?,
            },
            Command::Query(q) => match client.query(&q.to_string()) {
                Ok(Ok(QueryReply::Boolean(b))) => writeln!(out, "  {b}")?,
                Ok(Ok(QueryReply::Rows(rows))) => {
                    for row in &rows {
                        writeln!(out, "  {row}")?;
                    }
                    writeln!(out, "  ({} answers)", rows.len())?;
                }
                Ok(Err(reason)) => writeln!(out, "  error: {reason}")?,
                Err(e) => self.drop_connection(e, out)?,
            },
            Command::Stats => match client.stats() {
                Ok(Ok(line)) => {
                    writeln!(out, "  {line}")?;
                    // The legacy stats line and the metrics registry carry
                    // the same service-level values; surface any drift.
                    if let Ok(Ok(metrics)) = client.metrics() {
                        for drift in stats_registry_divergence(&line, &metrics) {
                            writeln!(out, "  warning: stats/registry divergence: {drift}")?;
                        }
                    }
                }
                Ok(Err(reason)) => writeln!(out, "  error: {reason}")?,
                Err(e) => self.drop_connection(e, out)?,
            },
            Command::Metrics => match client.metrics() {
                Ok(Ok(text)) => {
                    for line in text.lines() {
                        writeln!(out, "  {line}")?;
                    }
                }
                Ok(Err(reason)) => writeln!(out, "  error: {reason}")?,
                Err(e) => self.drop_connection(e, out)?,
            },
            Command::Trace(n) => match client.trace(n) {
                Ok(Ok(spans)) => {
                    for span in &spans {
                        writeln!(out, "  {span}")?;
                    }
                    writeln!(out, "  ({} spans)", spans.len())?;
                }
                Ok(Err(reason)) => writeln!(out, "  error: {reason}")?,
                Err(e) => self.drop_connection(e, out)?,
            },
            Command::Flush => match client.flush() {
                Ok(Ok(version)) => writeln!(out, "  flushed at version {version}")?,
                Ok(Err(reason)) => writeln!(out, "  error: {reason}")?,
                Err(e) => self.drop_connection(e, out)?,
            },
            Command::UseDb(name) => match client.use_db(&name) {
                Ok(Ok(())) => writeln!(out, "  using {name}")?,
                Ok(Err(reason)) => writeln!(out, "  error: {reason}")?,
                Err(e) => self.drop_connection(e, out)?,
            },
            Command::Dbs => match client.db_list() {
                Ok(Ok(dbs)) => {
                    for db in &dbs {
                        writeln!(out, "  {db}")?;
                    }
                    writeln!(out, "  ({} databases)", dbs.len())?;
                }
                Ok(Err(reason)) => writeln!(out, "  error: {reason}")?,
                Err(e) => self.drop_connection(e, out)?,
            },
            Command::Compact => match client.compact() {
                Ok(Ok(seq)) => {
                    writeln!(out, "  compacted (server snapshot chain covers seq {seq})")?
                }
                Ok(Err(reason)) => writeln!(out, "  error: {reason}")?,
                Err(e) => self.drop_connection(e, out)?,
            },
            Command::Connect { addr, timeout_ms } => match connect(&addr, timeout_ms) {
                Ok(client) => {
                    self.remote = Some(client);
                    writeln!(out, "  reconnected to {addr}")?;
                }
                Err(e) => writeln!(out, "  error: cannot connect to {addr}: {e}")?,
            },
            _ => writeln!(out, "  not available while connected (:disconnect first)")?,
        }
        Ok(true)
    }

    fn drop_connection(&mut self, e: io::Error, out: &mut impl Write) -> io::Result<()> {
        self.remote = None;
        writeln!(out, "  connection lost: {e} (back to the local engine)")
    }
}

/// Compares the service-level fields of a `stats` line against the same
/// values in a metrics exposition (the `strata_service_*` gauges the
/// server syncs via `Service::fill_registry` before rendering). Returns
/// one description per disagreement — empty means the legacy line and the
/// registry agree.
fn stats_registry_divergence(stats_line: &str, metrics_text: &str) -> Vec<String> {
    const PAIRS: [(&str, &str); 4] = [
        ("worker_restarts", "strata_service_worker_restarts"),
        ("read_only", "strata_service_read_only"),
        ("blocked", "strata_service_blocked"),
        ("snapshot_reads", "strata_service_snapshot_reads"),
    ];
    let stat = |key: &str| -> Option<u64> {
        stats_line
            .split_whitespace()
            .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('=')?.parse().ok())
    };
    let metric = |name: &str| -> Option<u64> {
        metrics_text
            .lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
    };
    let mut drift = Vec::new();
    for (skey, mname) in PAIRS {
        if let (Some(s), Some(m)) = (stat(skey), metric(mname)) {
            if s != m {
                drift.push(format!("{skey}={s} but {mname}={m}"));
            }
        }
    }
    drift
}

/// Opens a protocol client, bounded when `--timeout-ms` was given — the
/// bound covers the connection attempt and every later read, so a hung
/// server cannot wedge the shell.
fn connect(addr: &str, timeout_ms: Option<u64>) -> io::Result<Client> {
    match timeout_ms {
        Some(ms) => Client::connect_timeout(addr, std::time::Duration::from_millis(ms)),
        None => Client::connect(addr),
    }
}

const HELP: &str = "  + <fact|rule>     insert        - <fact|rule>   delete
  ? <query>         query         :why <fact>     proof tree
  :constrain <body> add denial    :constraints    list denials
  :model  :program  :stats        :strategy <name>
  :strategies       list engines
  :open <path>      durable (WAL) :save <path>    text export
  :compact          snapshot + empty WAL
  :serve <addr>     TCP ingest server over the current program
  :connect <addr> [--timeout-ms <n>]   become a client of a server
  :disconnect       leave remote mode
  :use <db>         bind to a database on a multi-tenant server (remote mode)
  :dbs              list the server's databases (remote mode)
  :flush            wait for all submitted updates (remote mode)
  :metrics          metrics registry (Prometheus text; remote asks the server)
  :trace [n]        last n sealed group spans (default 16)
  :help  :quit";

fn main() -> io::Result<()> {
    let mut program = Program::new();
    if let Some(path) = std::env::args().nth(1) {
        let src =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
        program = Program::parse(&src).unwrap_or_else(|e| panic!("cannot parse {path}: {e}"));
        eprintln!("loaded {path}");
    }
    let mut repl = Repl::new(program).expect("initial engine");
    let stdin = io::stdin();
    let mut stdout = io::stdout();
    eprintln!("strata — stratified database shell (:help for commands)");
    loop {
        eprint!("strata> ");
        io::stderr().flush()?;
        let mut line = String::new();
        if stdin.lock().read_line(&mut line)? == 0 {
            break; // EOF
        }
        match parse_command(&line) {
            Ok(cmd) => {
                if !repl.execute(cmd, &mut stdout)? {
                    break;
                }
            }
            Err(e) => eprintln!("  error: {e}"),
        }
        stdout.flush()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(repl: &mut Repl, line: &str) -> String {
        let mut out = Vec::new();
        let cmd = parse_command(line).expect("parses");
        repl.execute(cmd, &mut out).expect("io");
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn parses_fact_updates() {
        let Command::Insert(Update::InsertFact(f)) = parse_command("+ accepted(1)").unwrap() else {
            panic!("expected fact insert")
        };
        assert_eq!(f, Fact::parse("accepted(1)").unwrap());
        let Command::Delete(Update::DeleteFact(f)) = parse_command("- accepted(1).").unwrap()
        else {
            panic!("expected fact delete")
        };
        assert_eq!(f, Fact::parse("accepted(1)").unwrap());
    }

    #[test]
    fn parses_rule_updates() {
        let cmd = parse_command("+ p(X) :- q(X), !r(X).").unwrap();
        let Command::Insert(Update::InsertRule(rule)) = cmd else {
            panic!("expected rule insert, got {cmd:?}")
        };
        assert_eq!(rule.to_string(), "p(X) :- q(X), !r(X).");
    }

    #[test]
    fn parses_queries_and_meta() {
        assert!(matches!(parse_command("? rejected(2)").unwrap(), Command::Query(_)));
        assert!(matches!(parse_command("? rejected(X), !late(X)").unwrap(), Command::Query(_)));
        assert!(matches!(parse_command(":model").unwrap(), Command::Model));
        assert!(matches!(parse_command(":strategy static").unwrap(), Command::Strategy(_)));
        assert!(matches!(parse_command(":q").unwrap(), Command::Quit));
        assert!(matches!(parse_command("").unwrap(), Command::Nothing));
        assert!(matches!(parse_command("% comment").unwrap(), Command::Nothing));
        assert!(matches!(parse_command(":constrain a(X), b(X)").unwrap(), Command::Constrain(_)));
        assert!(parse_command(":frobnicate").is_err());
        assert!(parse_command("bare words").is_err());
        assert!(parse_command("+ 123 456").is_err());
        assert!(parse_command("? !unsafe(X)").is_err());
    }

    fn pods_repl() -> Repl {
        let program = Program::parse(
            "submitted(1). submitted(2). accepted(2).
             rejected(X) :- submitted(X), !accepted(X).",
        )
        .unwrap();
        Repl::new(program).unwrap()
    }

    #[test]
    fn session_updates_and_queries() {
        let mut repl = pods_repl();
        assert!(run(&mut repl, "? rejected(1)").contains("true"));
        let out = run(&mut repl, "+ accepted(1)");
        assert!(out.contains("ok:"), "{out}");
        assert!(run(&mut repl, "? rejected(1)").contains("false"));
        assert!(run(&mut repl, ":stats").contains("removed"));
        let out = run(&mut repl, ":model");
        assert!(out.contains("accepted(1)") && out.contains("facts)"));
    }

    #[test]
    fn session_binding_queries() {
        let mut repl = pods_repl();
        let out = run(&mut repl, "? rejected(X)");
        assert!(out.contains("X = 1"), "{out}");
        assert!(out.contains("(1 answers)"), "{out}");
        let out = run(&mut repl, "? submitted(X), !rejected(X)");
        assert!(out.contains("X = 2"), "{out}");
    }

    #[test]
    fn session_constraints_guard_updates() {
        let mut repl = pods_repl();
        let out = run(&mut repl, ":constrain accepted(X), rejected(X)");
        assert!(out.contains("installed"), "{out}");
        let out = run(&mut repl, ":constraints");
        assert!(out.contains(":- accepted(X), rejected(X)."), "{out}");
        // Asserting rejected(2) would make paper 2 both accepted and
        // rejected: rejected and rolled back.
        let out = run(&mut repl, "+ rejected(2)");
        assert!(out.contains("rejected: update violates"), "{out}");
        assert!(run(&mut repl, "? rejected(2)").contains("false"));
    }

    #[test]
    fn parses_strategy_for_every_registered_name() {
        for name in EngineRegistry::standard().names() {
            let cmd = parse_command(&format!(":strategy {name}")).unwrap();
            let Command::Strategy(parsed) = cmd else {
                panic!(":strategy {name} must parse as a strategy switch")
            };
            assert_eq!(parsed, name);
        }
        assert!(parse_command(":strategy").is_err(), "missing name is an error");
        assert!(matches!(parse_command(":strategies").unwrap(), Command::Strategies));
    }

    #[test]
    fn session_switches_through_every_strategy() {
        let mut repl = pods_repl();
        for name in EngineRegistry::standard().names() {
            let out = run(&mut repl, &format!(":strategy {name}"));
            assert!(out.contains(name), "switch to {name}: {out}");
            // The model is preserved across the switch.
            assert!(run(&mut repl, "? rejected(1)").contains("true"), "[{name}]");
        }
    }

    #[test]
    fn session_lists_strategies_with_current_marked() {
        let mut repl = pods_repl();
        let out = run(&mut repl, ":strategies");
        for name in EngineRegistry::standard().names() {
            assert!(out.contains(name), "{out}");
        }
        assert!(out.contains("* cascade"), "current strategy marked: {out}");
    }

    #[test]
    fn session_strategy_switch_preserves_program_and_constraints() {
        let mut repl = pods_repl();
        run(&mut repl, ":constrain accepted(X), rejected(X)");
        let out = run(&mut repl, ":strategy static");
        assert!(out.contains("static"), "{out}");
        let out = run(&mut repl, "+ rejected(2)");
        assert!(out.contains("violates"), "constraints survive the switch: {out}");
        let out = run(&mut repl, ":strategy nonsense");
        assert!(out.contains("unknown strategy"));
    }

    #[test]
    fn session_rejects_bad_updates() {
        let program = Program::parse("e(1). p(X) :- e(X), !q(X).").unwrap();
        let mut repl = Repl::new(program).unwrap();
        let out = run(&mut repl, "- p(1)");
        assert!(out.contains("rejected"), "{out}");
        let out = run(&mut repl, "+ q(X) :- e(X), !p(X).");
        assert!(out.contains("rejected"), "{out}");
    }

    #[test]
    fn session_why_prints_proof() {
        let program = Program::parse("e(1). p(X) :- e(X).").unwrap();
        let mut repl = Repl::new(program).unwrap();
        let out = run(&mut repl, ":why p(1)");
        assert!(out.contains("[by p(X) :- e(X).]"), "{out}");
        let out = run(&mut repl, ":why p(9)");
        assert!(out.contains("not in the model"));
    }

    #[test]
    fn parses_persistence_commands() {
        assert!(
            matches!(parse_command(":open /tmp/db").unwrap(), Command::Open(p) if p == "/tmp/db")
        );
        assert!(
            matches!(parse_command(":save out.strata").unwrap(), Command::Save(p) if p == "out.strata")
        );
        assert!(matches!(parse_command(":compact").unwrap(), Command::Compact));
        assert!(parse_command(":open").is_err());
        assert!(parse_command(":save").is_err());
    }

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("strata_repl_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn session_durable_open_survives_restart() {
        let dir = scratch("open");
        let store = dir.join("db");
        {
            let mut repl = pods_repl();
            let out = run(&mut repl, &format!(":open {}", store.display()));
            assert!(out.contains("durable at"), "{out}");
            run(&mut repl, "+ accepted(1)");
            let out = run(&mut repl, ":compact");
            assert!(out.contains("compacted"), "{out}");
            run(&mut repl, "+ submitted(9)");
        } // simulated exit
        let mut repl = Repl::new(Program::new()).unwrap();
        run(&mut repl, &format!(":open {}", store.display()));
        assert!(run(&mut repl, "? accepted(1)").contains("true"));
        assert!(run(&mut repl, "? submitted(9)").contains("true"));
        assert!(run(&mut repl, "? rejected(1)").contains("false"));
        // Strategy switches stay durable: the reopened engine still
        // checkpoints.
        let out = run(&mut repl, ":strategy dynamic-multi");
        assert!(out.contains("dynamic-multi"), "{out}");
        assert!(run(&mut repl, ":compact").contains("compacted"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn session_compact_without_open_reports() {
        let mut repl = pods_repl();
        let out = run(&mut repl, ":compact");
        assert!(out.contains("not a durable session"), "{out}");
    }

    #[test]
    fn session_save_exports_reparseable_text() {
        let dir = scratch("save");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("export.strata");
        let mut repl = pods_repl();
        // A symbol that breaks naive text export without quote-on-write.
        run(&mut repl, "+ submitted(\"tricky. name\")");
        let out = run(&mut repl, &format!(":save {}", file.display()));
        assert!(out.contains("saved"), "{out}");
        let text = std::fs::read_to_string(&file).unwrap();
        let reloaded = Program::parse(&text).unwrap();
        assert_eq!(reloaded.num_facts(), repl.engine.program().num_facts());
        assert_eq!(reloaded.num_rules(), repl.engine.program().num_rules());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parses_service_commands() {
        assert!(
            matches!(parse_command(":serve 127.0.0.1:0").unwrap(), Command::Serve(a) if a == "127.0.0.1:0")
        );
        assert!(matches!(
            parse_command(":connect 127.0.0.1:7171").unwrap(),
            Command::Connect { addr, timeout_ms: None } if addr == "127.0.0.1:7171"
        ));
        assert!(matches!(
            parse_command(":connect 127.0.0.1:7171 --timeout-ms 250").unwrap(),
            Command::Connect { addr, timeout_ms: Some(250) } if addr == "127.0.0.1:7171"
        ));
        assert!(matches!(parse_command(":disconnect").unwrap(), Command::Disconnect));
        assert!(matches!(parse_command(":flush").unwrap(), Command::Flush));
        assert!(
            matches!(parse_command(":use tenant1").unwrap(), Command::UseDb(n) if n == "tenant1")
        );
        assert!(matches!(parse_command(":dbs").unwrap(), Command::Dbs));
        assert!(parse_command(":use").is_err());
        assert!(parse_command(":use two words").is_err());
        assert!(parse_command(":serve").is_err());
        assert!(parse_command(":connect").is_err());
        assert!(parse_command(":connect 127.0.0.1:1 --timeout-ms").is_err());
        assert!(parse_command(":connect 127.0.0.1:1 --timeout-ms x").is_err());
        assert!(parse_command(":connect a b").is_err());
    }

    #[test]
    fn session_serve_connect_roundtrip() {
        let mut repl = pods_repl();
        let out = run(&mut repl, ":serve 127.0.0.1:0");
        assert!(out.contains("serving cascade on"), "{out}");
        let addr = repl.servers[0].1.addr().to_string();
        let out = run(&mut repl, &format!(":connect {addr}"));
        assert!(out.contains("connected"), "{out}");
        // Remote updates and queries hit the server's copy.
        assert!(run(&mut repl, "? rejected(1)").contains("true"));
        let out = run(&mut repl, "+ accepted(1)");
        assert!(out.contains("ok: committed with group"), "{out}");
        assert!(run(&mut repl, "? rejected(1)").contains("false"));
        let out = run(&mut repl, "- ghost(1)");
        assert!(out.contains("rejected:"), "{out}");
        assert!(run(&mut repl, ":flush").contains("flushed"));
        let out = run(&mut repl, ":stats");
        assert!(out.contains("accepted=1") && out.contains("rejected=1"), "{out}");
        // Engine-local commands are guarded while connected.
        assert!(run(&mut repl, ":model").contains(":disconnect"));
        let out = run(&mut repl, ":disconnect");
        assert!(out.contains("disconnected"), "{out}");
        // The local engine never saw the remote update.
        assert!(run(&mut repl, "? rejected(1)").contains("true"));
    }

    #[test]
    fn session_multi_tenant_roundtrip() {
        use stratamaint::service::{net, Cluster, DbOptions};
        let program = Program::parse(
            "submitted(1). submitted(2). accepted(2).
             rejected(X) :- submitted(X), !accepted(X).",
        )
        .unwrap();
        let cluster = Cluster::new(
            program,
            stratamaint::core::StorageSpec::Mem,
            None,
            DbOptions::new("cascade"),
        )
        .unwrap();
        cluster.create("tenant1").unwrap();
        let handle = net::serve_cluster(std::sync::Arc::clone(&cluster), "127.0.0.1:0").unwrap();
        let mut repl = pods_repl();
        // :use and :dbs are remote-mode commands.
        assert!(run(&mut repl, ":dbs").contains(":connect"));
        run(&mut repl, &format!(":connect {}", handle.addr()));
        let out = run(&mut repl, ":dbs");
        assert!(out.contains("default ") && out.contains("tenant1 "), "{out}");
        assert!(out.contains("(2 databases)"), "{out}");
        let out = run(&mut repl, ":use tenant1");
        assert!(out.contains("using tenant1"), "{out}");
        assert!(run(&mut repl, "? rejected(1)").contains("false"), "tenant1 is empty");
        let out = run(&mut repl, ":use ghost");
        assert!(out.contains("error: no database named ghost"), "{out}");
        let out = run(&mut repl, ":stats");
        assert!(out.contains("db=tenant1"), "{out}");
        run(&mut repl, ":disconnect");
        handle.stop();
    }

    #[test]
    fn parses_observability_commands() {
        assert!(matches!(parse_command(":metrics").unwrap(), Command::Metrics));
        assert!(matches!(parse_command(":trace").unwrap(), Command::Trace(16)));
        assert!(matches!(parse_command(":trace 5").unwrap(), Command::Trace(5)));
        assert!(parse_command(":trace lots").is_err());
    }

    #[test]
    fn stats_registry_divergence_flags_disagreements() {
        let stats = "submitted=9 blocked=2 snapshot_reads=5 worker_restarts=1 read_only=0";
        let metrics = "strata_service_blocked 2\nstrata_service_read_only 0\n\
                       strata_service_snapshot_reads 5\nstrata_service_worker_restarts 1\n";
        assert!(stats_registry_divergence(stats, metrics).is_empty());
        let skewed = metrics.replace("strata_service_blocked 2", "strata_service_blocked 7");
        let drift = stats_registry_divergence(stats, &skewed);
        assert_eq!(drift, ["blocked=2 but strata_service_blocked=7"]);
        // A metric missing from the exposition is not a divergence (the
        // server may predate the registry).
        assert!(stats_registry_divergence(stats, "").is_empty());
    }

    #[test]
    fn session_observability_roundtrip() {
        let mut repl = pods_repl();
        run(&mut repl, ":serve 127.0.0.1:0");
        let addr = repl.servers[0].1.addr().to_string();
        run(&mut repl, &format!(":connect {addr}"));
        let out = run(&mut repl, "+ accepted(1)");
        assert!(out.contains("ok: committed"), "{out}");
        // The legacy stats line and the registry agree — no drift warning.
        let out = run(&mut repl, ":stats");
        assert!(out.contains("accepted=1"), "{out}");
        assert!(!out.contains("divergence"), "{out}");
        // The exposition carries the group pipeline histograms and the
        // service gauges.
        let out = run(&mut repl, ":metrics");
        assert!(out.contains("# TYPE strata_group_commit_us histogram"), "{out}");
        assert!(out.contains("strata_service_worker_restarts 0"), "{out}");
        // The trace ring holds the committed group's span.
        let out = run(&mut repl, ":trace 8");
        assert!(out.contains("kind=facts committed=true"), "{out}");
        run(&mut repl, ":disconnect");
        // Local mode renders the same registry without a server.
        let out = run(&mut repl, ":metrics");
        assert!(out.contains("strata_group_commit_us_count"), "{out}");
        let out = run(&mut repl, ":trace 1");
        assert!(out.contains("(1 spans)"), "{out}");
    }

    #[test]
    fn session_stats_surfaces_recovered_wal_txns() {
        let dir = scratch("stats_recovered");
        let store = dir.join("db");
        {
            let mut repl = pods_repl();
            run(&mut repl, &format!(":open {}", store.display()));
            run(&mut repl, "+ accepted(1)");
            run(&mut repl, "+ submitted(9)");
        } // simulated exit: two committed txns in the WAL
        let mut repl = Repl::new(Program::new()).unwrap();
        let out = run(&mut repl, &format!(":open {}", store.display()));
        assert!(out.contains("recovered 2 txns / 2 updates"), "{out}");
        let out = run(&mut repl, ":stats");
        assert!(out.contains("no update applied yet"), "{out}");
        assert!(out.contains("recovered 2 txns (2 updates)"), "restart metrics: {out}");
        run(&mut repl, "+ submitted(11)");
        let out = run(&mut repl, ":stats");
        assert!(out.contains("recovered 2 txns") && out.contains("wal now 3 txns"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quit_ends_session() {
        let program = Program::new();
        let mut repl = Repl::new(program).unwrap();
        let mut out = Vec::new();
        assert!(!repl.execute(Command::Quit, &mut out).unwrap());
        assert!(repl.execute(Command::Help, &mut out).unwrap());
    }
}
