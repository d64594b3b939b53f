//! The `std::net` TCP front-end and its blocking client.
//!
//! [`serve`] binds a listener and spawns one acceptor thread plus threads
//! per connection; every connection speaks the [`crate::protocol`] line
//! protocol against a shared [`Service`]. Group commit happens across
//! connections: ten clients submitting concurrently land in the same
//! coalescing queue and share fsyncs.
//!
//! [`serve_cluster`] is the multi-tenant flavor of the same front-end: it
//! serves a [`Cluster`] of named databases instead of one [`Service`].
//! Each connection is bound to one database at a time — [`DEFAULT_DB`]
//! until it issues `use <db>` — and `db create|list|drop` manage the
//! registry. Submits route through the bound database's shard router, so
//! a multi-shard tenant commits disjoint strata in parallel while the
//! wire surface stays the single-database protocol.
//!
//! ## Pipelining
//!
//! A connection is served by three threads — reader, completion, writer —
//! so the reader never blocks on an in-flight group commit:
//!
//! * **queries and stats** are answered from the published snapshot the
//!   moment they are read (no engine access at all);
//! * **submits and flushes** enqueue into the service and park their
//!   completion handles on the completion thread, which delivers each ack
//!   (with its commit version) as the worker decides it.
//!
//! Ordering: **untagged** requests keep the classic strict
//! request-response order — their responses are threaded through the
//! completion queue behind any earlier acks. **Tagged** requests
//! (`#<tag> verb`) opt into out-of-order responses: a tagged query's
//! answer may overtake the ack of an earlier in-flight submit, which is
//! the whole point — readers are not serialized behind writers even on
//! one connection.
//!
//! [`Client`] is the matching blocking client: one request line out, read
//! lines until the `ok`/`err` terminator. Connect/read timeouts
//! ([`Client::connect_timeout`], [`Client::set_read_timeout`]) keep a hung
//! server from wedging a reader forever; [`Client::send_raw`] /
//! [`Client::recv_raw`] expose the tagged wire for pipelined use.
//!
//! [`RetryClient`] layers idempotent at-most-once submission on top:
//! it declares a client id (`client <id>`), stamps every submit with a
//! sequence number, and retries ambiguous failures — dropped connections,
//! `code=panicked`, `code=read-only` — with exponential backoff and
//! jitter. The server's dedup window makes the retry safe: an update
//! acked by a lost response is *replayed*, never applied twice.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use strata_core::{MaintenanceError, Update};
use strata_datalog::query::render_row;
use strata_datalog::RelSource;

use crate::protocol::{self, Request};
use crate::queue::{Outcome, SubmitHandle};
use crate::service::Service;
use crate::shard::{ShardHandle, ShardedDb};
use crate::tenant::{Cluster, DEFAULT_DB};

/// A latched one-way signal: any connection's `shutdown` verb (or the
/// process's signal handler) raises it; the server's owner blocks on
/// [`ShutdownFlag::wait_timeout`] and runs the graceful teardown.
#[derive(Debug, Default)]
pub struct ShutdownFlag {
    raised: Mutex<bool>,
    cv: Condvar,
}

impl ShutdownFlag {
    /// Raises the flag and wakes every waiter. Idempotent.
    pub fn request(&self) {
        let mut raised = self.raised.lock().unwrap_or_else(|p| p.into_inner());
        *raised = true;
        self.cv.notify_all();
    }

    /// Whether shutdown has been requested.
    pub fn requested(&self) -> bool {
        *self.raised.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Blocks until the flag is raised, up to `wait`; returns whether it
    /// was raised. A bounded wait lets the caller interleave polls of
    /// signal-handler state (which cannot safely notify a condvar).
    pub fn wait_timeout(&self, wait: Duration) -> bool {
        let mut raised = self.raised.lock().unwrap_or_else(|p| p.into_inner());
        if !*raised {
            let (guard, _timeout) =
                self.cv.wait_timeout(raised, wait).unwrap_or_else(|p| p.into_inner());
            raised = guard;
        }
        *raised
    }
}

/// A running TCP front-end. Dropping (or [`ServerHandle::stop`]) unbinds
/// the listener; connections already accepted finish their current
/// request-response exchange on their own threads.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    shutdown_requests: Arc<ShutdownFlag>,
    acceptor: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with a `:0` bind).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The flag a client's `shutdown` verb raises — the server's owner
    /// waits on it to run its graceful teardown (stop accepting, flush the
    /// queue, checkpoint, exit).
    pub fn shutdown_requests(&self) -> Arc<ShutdownFlag> {
        Arc::clone(&self.shutdown_requests)
    }

    /// Stops accepting connections and joins the acceptor thread.
    pub fn stop(mut self) {
        self.shutdown_acceptor();
    }

    fn shutdown_acceptor(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the acceptor's `accept` with a throwaway connection. A
        // wildcard bind (0.0.0.0 / ::) is not a connectable destination
        // everywhere, so aim the poke at loopback on the bound port.
        let mut target = self.addr;
        if target.ip().is_unspecified() {
            target.set_ip(match target {
                SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect(target);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_acceptor();
    }
}

/// What the listener hands each connection: one database, or the whole
/// tenant registry.
#[derive(Clone)]
enum Backend {
    /// The classic single-database server.
    Single(Arc<Service>),
    /// A multi-tenant server; connections start bound to [`DEFAULT_DB`]
    /// and rebind with `use <db>`.
    Cluster(Arc<Cluster>),
}

/// Binds `addr` (e.g. `127.0.0.1:7171`, or port `0` for an ephemeral one)
/// and serves `service` until the handle is stopped or dropped.
pub fn serve(service: Arc<Service>, addr: &str) -> io::Result<ServerHandle> {
    serve_backend(Backend::Single(service), addr)
}

/// Binds `addr` and serves a whole [`Cluster`]: every connection starts
/// bound to the `default` database, rebinds with `use <db>`, and manages
/// tenants with `db create|list|drop`. A connection's binding holds its
/// database open, so `db drop` refuses a database any connection is still
/// using.
pub fn serve_cluster(cluster: Arc<Cluster>, addr: &str) -> io::Result<ServerHandle> {
    serve_backend(Backend::Cluster(cluster), addr)
}

fn serve_backend(backend: Backend, addr: &str) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let shutdown_requests = Arc::new(ShutdownFlag::default());
    let acceptor = {
        let shutdown = Arc::clone(&shutdown);
        let shutdown_requests = Arc::clone(&shutdown_requests);
        std::thread::Builder::new().name("strata-accept".into()).spawn(move || {
            for stream in listener.incoming() {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let backend = backend.clone();
                let shutdown_requests = Arc::clone(&shutdown_requests);
                let _ = std::thread::Builder::new()
                    .name("strata-conn".into())
                    .spawn(move || serve_connection(stream, backend, &shutdown_requests));
            }
        })?
    };
    Ok(ServerHandle { addr, shutdown, shutdown_requests, acceptor: Some(acceptor) })
}

/// A pending submit decision from either front-end flavor.
enum AnyHandle {
    /// Straight from a single service's queue.
    Direct(SubmitHandle),
    /// Routed through a sharded database (version already re-encoded).
    Routed(ShardHandle),
}

impl AnyHandle {
    fn wait(&self) -> Outcome {
        match self {
            AnyHandle::Direct(h) => h.wait(),
            AnyHandle::Routed(h) => h.wait(),
        }
    }
}

/// One unit of response work, in request-arrival order.
enum Job {
    /// Park on a submit/flush handle; render and emit its ack when the
    /// worker decides it. `flush` switches the ack's surface form.
    Wait { tag: Option<String>, handle: AnyHandle, flush: bool },
    /// Barrier-flush a sharded database (every shard) and ack with the
    /// composite watermark. Runs on the completion thread so the reader
    /// keeps pipelining behind it.
    FlushDb { tag: Option<String>, db: Arc<ShardedDb> },
    /// An already-rendered response (untagged query/stats/parse errors):
    /// emitted here to stay behind earlier untagged acks.
    Lines(Vec<String>),
    /// Emit the goodbye line and stop.
    Quit(String),
}

/// Renders a submit/flush decision, tag applied.
fn render_ack(tag: Option<&str>, outcome: &Outcome, flush: bool) -> String {
    let line = match (flush, outcome) {
        (true, Outcome::Accepted { version, .. }) => format!("ok flushed version={version}"),
        _ => protocol::render_outcome(outcome),
    };
    protocol::render_tagged(tag, &line)
}

/// The `query @<version>` timeout line.
fn version_unpublished(tag: Option<&str>, version: u64, published: u64) -> Vec<String> {
    vec![protocol::render_tagged(
        tag,
        &format!(
            "err version {version} not published within the read wait (published: {published})"
        ),
    )]
}

/// Renders a query's full response (rows + terminator) against any fact
/// source, tag applied to every line.
fn render_query<S: RelSource + ?Sized>(
    src: &S,
    tag: Option<&str>,
    query: &strata_datalog::Query,
) -> Vec<String> {
    if query.is_boolean() {
        vec![protocol::render_tagged(tag, &format!("ok {}", query.holds(src)))]
    } else {
        let rows = query.eval(src);
        let mut out = Vec::with_capacity(rows.len() + 1);
        for row in &rows {
            out.push(protocol::render_tagged(tag, &format!("row {}", render_row(query, row))));
        }
        out.push(protocol::render_tagged(tag, &format!("ok {}", rows.len())));
        out
    }
}

/// What this connection's requests currently run against: the single
/// service of a classic server, or the database a cluster connection is
/// bound to. The held [`Arc<ShardedDb>`] keeps the binding's database
/// alive — [`Cluster::drop_db`] counts it as "in use".
enum Bound {
    Single(Arc<Service>),
    Db { name: String, db: Arc<ShardedDb> },
}

impl Bound {
    fn submit(&self, update: Update) -> AnyHandle {
        match self {
            Bound::Single(s) => AnyHandle::Direct(s.submit(update)),
            Bound::Db { db, .. } => AnyHandle::Routed(db.submit(update)),
        }
    }

    fn submit_dedup(&self, client: &str, seq: u64, update: Update) -> AnyHandle {
        match self {
            Bound::Single(s) => AnyHandle::Direct(s.submit_dedup(client, seq, update)),
            Bound::Db { db, .. } => AnyHandle::Routed(db.submit_dedup(client, seq, update)),
        }
    }

    fn flush_job(&self, tag: Option<String>) -> Job {
        match self {
            Bound::Single(s) => {
                Job::Wait { tag, handle: AnyHandle::Direct(s.submit_flush()), flush: true }
            }
            Bound::Db { db, .. } => Job::FlushDb { tag, db: Arc::clone(db) },
        }
    }

    fn compact(&self) -> Result<Option<u64>, MaintenanceError> {
        match self {
            Bound::Single(s) => s.compact(),
            Bound::Db { db, .. } => db.compact(),
        }
    }

    fn stats_line(&self) -> String {
        match self {
            Bound::Single(s) => protocol::render_stats(&s.stats()),
            Bound::Db { name, db } => protocol::render_stats_for(&db.stats(), name, db.shards()),
        }
    }

    fn query_lines(
        &self,
        tag: Option<&str>,
        query: &strata_datalog::Query,
        at: Option<u64>,
    ) -> Vec<String> {
        match self {
            Bound::Single(service) => {
                let snap = match at {
                    None => service.snapshot(),
                    Some(version) => match service.snapshot_at(version) {
                        Ok(snap) => snap,
                        Err(published) => return version_unpublished(tag, version, published),
                    },
                };
                render_query(&snap.model, tag, query)
            }
            Bound::Db { db, .. } => {
                let snap = match at {
                    None => db.snapshot(),
                    Some(version) => match db.snapshot_at(version) {
                        Ok(snap) => snap,
                        Err(published) => return version_unpublished(tag, version, published),
                    },
                };
                render_query(&snap, tag, query)
            }
        }
    }
}

/// The longest request line a connection may send, newline included. A
/// longer line is answered `err code=too-long …` and the connection is
/// closed, so one client cannot make the server buffer without limit.
pub const MAX_REQUEST_LINE: usize = 1 << 20;

/// The answer every `use`/`db` verb gets on a single-database server.
const NO_CLUSTER: &str =
    "err this is a single-database server: `use` and `db` need a cluster front-end";

/// One connection's request loop — the reader of the three-thread pipeline
/// described in the module docs. Returns on `quit`, EOF, or any I/O error.
fn serve_connection(
    stream: TcpStream,
    backend: Backend,
    shutdown_requests: &ShutdownFlag,
) -> io::Result<()> {
    let cluster = match &backend {
        Backend::Single(_) => None,
        Backend::Cluster(c) => Some(Arc::clone(c)),
    };
    let mut bound = match backend {
        Backend::Single(service) => Bound::Single(service),
        Backend::Cluster(cluster) => {
            Bound::Db { name: DEFAULT_DB.to_string(), db: cluster.default_db() }
        }
    };
    let mut reader = BufReader::new(stream.try_clone()?);
    let (write_tx, write_rx) = mpsc::channel::<Vec<String>>();
    let (job_tx, job_rx) = mpsc::channel::<Job>();

    // Writer: the single owner of the outbound stream.
    let writer_thread = {
        let mut writer = stream;
        std::thread::Builder::new().name("strata-conn-write".into()).spawn(move || {
            while let Ok(lines) = write_rx.recv() {
                for line in &lines {
                    if writeln!(writer, "{line}").is_err() {
                        return;
                    }
                }
                if writer.flush().is_err() {
                    return;
                }
            }
        })?
    };

    // Completion: drains jobs in request order, parking on handles.
    let completion_thread = {
        let write_tx = write_tx.clone();
        std::thread::Builder::new().name("strata-conn-ack".into()).spawn(move || {
            while let Ok(job) = job_rx.recv() {
                let done = matches!(job, Job::Quit(_));
                let lines = match job {
                    Job::Wait { tag, handle, flush } => {
                        vec![render_ack(tag.as_deref(), &handle.wait(), flush)]
                    }
                    Job::FlushDb { tag, db } => {
                        let version = db.flush();
                        vec![protocol::render_tagged(
                            tag.as_deref(),
                            &format!("ok flushed version={version}"),
                        )]
                    }
                    Job::Lines(lines) => lines,
                    Job::Quit(line) => vec![line],
                };
                if write_tx.send(lines).is_err() || done {
                    return;
                }
            }
        })?
    };

    // The client id declared by this connection's `client` verb, if any.
    // Sequenced submits (`submit seq=<n>`) route through the service's
    // idempotency window keyed on it.
    let mut client_id: Option<String> = None;
    let mut line = String::new();
    loop {
        line.clear();
        let n = (&mut reader).take(MAX_REQUEST_LINE as u64 + 1).read_line(&mut line)?;
        if n == 0 {
            break; // EOF: client hung up
        }
        if n > MAX_REQUEST_LINE {
            // Answered behind any pending acks; the rest of the line is
            // never read, so the connection cannot continue.
            let refusal =
                format!("err code=too-long request line exceeds {MAX_REQUEST_LINE} bytes");
            let _ = job_tx.send(Job::Quit(refusal));
            break;
        }
        if line.trim().is_empty() {
            continue;
        }
        let (tag, rest) = protocol::split_tag(line.trim());
        let tag = tag.map(str::to_string);
        // Tagged responses may overtake pending acks (direct to writer);
        // untagged ones queue behind them to keep the classic ordering.
        let respond = |lines: Vec<String>| -> Result<(), ()> {
            if tag.is_some() {
                write_tx.send(lines).map_err(|_| ())
            } else {
                job_tx.send(Job::Lines(lines)).map_err(|_| ())
            }
        };
        let sent = match protocol::parse_request(rest) {
            Err(e) => respond(vec![protocol::render_tagged(tag.as_deref(), &format!("err {e}"))]),
            Ok(Request::Quit) => {
                let bye = protocol::render_tagged(tag.as_deref(), "ok bye");
                let _ = job_tx.send(Job::Quit(bye));
                break;
            }
            Ok(Request::Submit { update, seq }) => {
                // Blocks only on queue backpressure; the ack is delivered
                // by the completion thread once the group commits.
                match (seq, client_id.as_deref()) {
                    (None, _) => {
                        let handle = bound.submit(update);
                        job_tx
                            .send(Job::Wait { tag: tag.clone(), handle, flush: false })
                            .map_err(|_| ())
                    }
                    (Some(seq), Some(client)) => {
                        let handle = bound.submit_dedup(client, seq, update);
                        job_tx
                            .send(Job::Wait { tag: tag.clone(), handle, flush: false })
                            .map_err(|_| ())
                    }
                    (Some(_), None) => respond(vec![protocol::render_tagged(
                        tag.as_deref(),
                        "err seq= requires a client id: send `client <id>` first",
                    )]),
                }
            }
            Ok(Request::Hello { client }) => {
                let line = format!("ok client={client}");
                client_id = Some(client);
                respond(vec![protocol::render_tagged(tag.as_deref(), &line)])
            }
            Ok(Request::Shutdown) => {
                shutdown_requests.request();
                respond(vec![protocol::render_tagged(tag.as_deref(), "ok shutting down")])
            }
            Ok(Request::Flush) => job_tx.send(bound.flush_job(tag.clone())).map_err(|_| ()),
            Ok(Request::Compact) => {
                let line = match bound.compact() {
                    Ok(Some(seq)) => format!("ok compacted seq={seq}"),
                    Ok(None) => "err nothing to compact: engine is in-memory".to_string(),
                    Err(e) => format!("err code={} {e}", e.code()),
                };
                respond(vec![protocol::render_tagged(tag.as_deref(), &line)])
            }
            Ok(Request::Stats) => {
                let line = bound.stats_line();
                respond(vec![protocol::render_tagged(tag.as_deref(), &line)])
            }
            Ok(Request::Metrics) => {
                // Sync the service-level gauges into the registry first so
                // the exposition always agrees with the `stats` line. A
                // cluster syncs every tenant — the registry is global.
                match (&cluster, &bound) {
                    (Some(c), _) => c.fill_registry(),
                    (None, Bound::Single(s)) => s.fill_registry(),
                    (None, Bound::Db { .. }) => unreachable!("cluster bindings imply a cluster"),
                }
                let text = strata_obs::render();
                let mut lines: Vec<String> =
                    text.lines().map(|l| protocol::render_tagged(tag.as_deref(), l)).collect();
                let count = lines.len();
                lines.push(protocol::render_tagged(tag.as_deref(), &format!("ok {count}")));
                respond(lines)
            }
            Ok(Request::Trace { n }) => {
                let spans = strata_obs::trace::recent_spans(n);
                let mut lines: Vec<String> = spans
                    .iter()
                    .map(|s| {
                        protocol::render_tagged(tag.as_deref(), &format!("span {}", s.render()))
                    })
                    .collect();
                lines.push(protocol::render_tagged(tag.as_deref(), &format!("ok {}", spans.len())));
                respond(lines)
            }
            Ok(Request::Query { query, at }) => {
                respond(bound.query_lines(tag.as_deref(), &query, at))
            }
            Ok(Request::Use { db }) => {
                let line = match &cluster {
                    None => NO_CLUSTER.to_string(),
                    Some(c) => match c.get(&db) {
                        Some(handle) => {
                            bound = Bound::Db { name: db.clone(), db: handle };
                            format!("ok db={db}")
                        }
                        None => {
                            format!("err no database named {db} (create it with `db create {db}`)")
                        }
                    },
                };
                respond(vec![protocol::render_tagged(tag.as_deref(), &line)])
            }
            Ok(Request::DbCreate { db }) => {
                let line = match &cluster {
                    None => NO_CLUSTER.to_string(),
                    Some(c) => match c.create(&db) {
                        Ok(_) => format!("ok created db={db}"),
                        Err(e) => format!("err {e}"),
                    },
                };
                respond(vec![protocol::render_tagged(tag.as_deref(), &line)])
            }
            Ok(Request::DbDrop { db }) => {
                let line = match &cluster {
                    None => NO_CLUSTER.to_string(),
                    Some(c) => match c.drop_db(&db) {
                        Ok(()) => format!("ok dropped db={db}"),
                        Err(e) => format!("err {e}"),
                    },
                };
                respond(vec![protocol::render_tagged(tag.as_deref(), &line)])
            }
            Ok(Request::DbList) => match &cluster {
                None => respond(vec![protocol::render_tagged(tag.as_deref(), NO_CLUSTER)]),
                Some(c) => {
                    let infos = c.list();
                    let mut lines: Vec<String> = infos
                        .iter()
                        .map(|i| {
                            protocol::render_tagged(
                                tag.as_deref(),
                                &format!(
                                    "db {} shards={} facts={}",
                                    i.name, i.shards, i.model_facts
                                ),
                            )
                        })
                        .collect();
                    lines.push(protocol::render_tagged(
                        tag.as_deref(),
                        &format!("ok {}", infos.len()),
                    ));
                    respond(lines)
                }
            },
        };
        if sent.is_err() {
            break; // a downstream thread died (broken pipe): stop reading
        }
    }
    drop(job_tx);
    let _ = completion_thread.join();
    drop(write_tx);
    let _ = writer_thread.join();
    Ok(())
}

/// What a query returned.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryReply {
    /// A boolean query's truth value.
    Boolean(bool),
    /// A binding query's rendered rows.
    Rows(Vec<String>),
}

/// An accepted submit's acknowledgment: the group that carried it and the
/// commit version whose published snapshot includes it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ack {
    /// Drain ordinal of the group.
    pub group: u64,
    /// Commit version — pin it with [`Client::query_at`] for
    /// read-your-writes on any connection.
    pub version: u64,
}

fn parse_ack(tail: &str) -> Ack {
    let mut ack = Ack { group: 0, version: 0 };
    for kv in tail.split_whitespace() {
        if let Some(v) = kv.strip_prefix("group=") {
            ack.group = v.parse().unwrap_or(0);
        } else if let Some(v) = kv.strip_prefix("version=") {
            ack.version = v.parse().unwrap_or(0);
        }
    }
    ack
}

/// The blocking client for the line protocol.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a server.
    pub fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        Client::from_stream(stream)
    }

    /// Connects with a bound on both the connection attempt and every
    /// subsequent read ([`Client::set_read_timeout`] with the same
    /// duration), so a hung or unreachable server surfaces as a timed-out
    /// `Err` instead of wedging the caller forever.
    pub fn connect_timeout(addr: &str, timeout: Duration) -> io::Result<Client> {
        let resolved = addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, format!("cannot resolve `{addr}`"))
        })?;
        let stream = TcpStream::connect_timeout(&resolved, timeout)?;
        let client = Client::from_stream(stream)?;
        client.set_read_timeout(Some(timeout))?;
        Ok(client)
    }

    fn from_stream(stream: TcpStream) -> io::Result<Client> {
        stream.set_nodelay(true)?;
        Ok(Client { reader: BufReader::new(stream.try_clone()?), writer: stream })
    }

    /// Bounds every subsequent read; `None` restores blocking reads. A
    /// read that times out surfaces as an `Err` of kind `WouldBlock` or
    /// `TimedOut` (platform-dependent).
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Sends one raw request line (the pipelined path: prefix a `#tag`
    /// yourself and pair responses by tag via [`Client::recv_raw`]).
    pub fn send_raw(&mut self, line: &str) -> io::Result<()> {
        writeln!(self.writer, "{line}")?;
        self.writer.flush()
    }

    /// Receives one response line, split into `(tag, payload)`.
    pub fn recv_raw(&mut self) -> io::Result<(Option<String>, String)> {
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        let (tag, rest) = protocol::split_tag(reply.trim_end());
        Ok((tag.map(str::to_string), rest.to_string()))
    }

    /// Sends one request line, collecting `row` lines until the
    /// terminator. Returns `(rows, terminator-without-prefix)`; an `err`
    /// terminator becomes `Err(reason)` in the outer protocol result.
    fn roundtrip(&mut self, line: &str) -> io::Result<Result<(Vec<String>, String), String>> {
        self.send_raw(line)?;
        let mut rows = Vec::new();
        loop {
            let (_tag, reply) = self.recv_raw()?;
            if let Some(rest) = reply.strip_prefix("row ") {
                rows.push(rest.to_string());
            } else if let Some(rest) = reply.strip_prefix("ok") {
                return Ok(Ok((rows, rest.trim().to_string())));
            } else if let Some(rest) = reply.strip_prefix("err") {
                return Ok(Err(rest.trim().to_string()));
            } else {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("malformed response line: {reply}"),
                ));
            }
        }
    }

    /// Submits one update; `Ok(ack)` on acceptance, `Err(reason)` on
    /// rejection.
    pub fn submit(&mut self, update: &Update) -> io::Result<Result<Ack, String>> {
        self.submit_text(&protocol::render_update(update))
    }

    /// Submits raw update text (`+ p(1)`).
    pub fn submit_text(&mut self, update: &str) -> io::Result<Result<Ack, String>> {
        Ok(self.roundtrip(&format!("submit {update}"))?.map(|(_, tail)| parse_ack(&tail)))
    }

    /// Evaluates a query against the server's latest published snapshot.
    pub fn query(&mut self, body: &str) -> io::Result<Result<QueryReply, String>> {
        self.query_line(&format!("query {body}"))
    }

    /// Evaluates a query pinned at a commit version: the server waits
    /// (bounded) until its published snapshot reaches `version`, so a
    /// client passing its own [`Ack::version`] observes its own write —
    /// on this or any other connection.
    pub fn query_at(&mut self, version: u64, body: &str) -> io::Result<Result<QueryReply, String>> {
        self.query_line(&format!("query @{version} {body}"))
    }

    fn query_line(&mut self, line: &str) -> io::Result<Result<QueryReply, String>> {
        Ok(self.roundtrip(line)?.map(|(rows, tail)| match tail.as_str() {
            "true" => QueryReply::Boolean(true),
            "false" => QueryReply::Boolean(false),
            _ => QueryReply::Rows(rows),
        }))
    }

    /// Blocks until everything submitted before (on any connection) is
    /// decided; returns the commit version current at the flush point.
    pub fn flush(&mut self) -> io::Result<Result<u64, String>> {
        Ok(self.roundtrip("flush")?.map(|(_, tail)| parse_ack(&tail).version))
    }

    /// The server's stats line (`key=value` pairs).
    pub fn stats(&mut self) -> io::Result<Result<String, String>> {
        Ok(self.roundtrip("stats")?.map(|(_, tail)| tail))
    }

    /// Checkpoints the server's durable store now (snapshot + empty the
    /// WAL). `Ok(seq)` is the transaction sequence the snapshot chain
    /// covers through; `Err(reason)` for an in-memory server or a failed
    /// checkpoint.
    pub fn compact(&mut self) -> io::Result<Result<u64, String>> {
        Ok(self.roundtrip("compact")?.map(|(_, tail)| {
            tail.split_whitespace()
                .find_map(|kv| kv.strip_prefix("seq="))
                .and_then(|v| v.parse().ok())
                .unwrap_or(0)
        }))
    }

    /// Sends a request whose response streams arbitrary payload lines
    /// (`metrics`, `trace`) before the `ok <count>` terminator — unlike
    /// [`Client::roundtrip`], which only accepts `row ` lines.
    fn roundtrip_lines(&mut self, line: &str) -> io::Result<Result<Vec<String>, String>> {
        self.send_raw(line)?;
        let mut lines = Vec::new();
        loop {
            let (_tag, reply) = self.recv_raw()?;
            if reply.strip_prefix("ok").is_some_and(|r| r.is_empty() || r.starts_with(' ')) {
                return Ok(Ok(lines));
            }
            if let Some(rest) = reply.strip_prefix("err") {
                return Ok(Err(rest.trim().to_string()));
            }
            lines.push(reply);
        }
    }

    /// The server's metrics registry in Prometheus text exposition format
    /// (`# TYPE` comments and `name{label} value` samples, sorted by
    /// metric name), rejoined with newlines.
    pub fn metrics(&mut self) -> io::Result<Result<String, String>> {
        Ok(self.roundtrip_lines("metrics")?.map(|lines| lines.join("\n")))
    }

    /// One metric's value from the exposition — counters and gauges only
    /// (histograms expose `_bucket`/`_sum`/`_count` series instead).
    pub fn metrics_value(&mut self, name: &str) -> io::Result<Option<u64>> {
        let text = match self.metrics()? {
            Ok(text) => text,
            Err(_) => return Ok(None),
        };
        Ok(text.lines().find_map(|line| {
            let rest = line.strip_prefix(name)?;
            let value = rest.strip_prefix(' ')?;
            value.parse().ok()
        }))
    }

    /// The server's last `n` sealed group spans, oldest first, one
    /// rendered span per element (without the `span ` prefix).
    pub fn trace(&mut self, n: usize) -> io::Result<Result<Vec<String>, String>> {
        Ok(self.roundtrip_lines(&format!("trace {n}"))?.map(|lines| {
            lines.into_iter().filter_map(|l| l.strip_prefix("span ").map(str::to_string)).collect()
        }))
    }

    /// One stats field, parsed.
    pub fn stats_field(&mut self, key: &str) -> io::Result<Option<u64>> {
        let line = match self.stats()? {
            Ok(line) => line,
            Err(_) => return Ok(None),
        };
        Ok(line.split_whitespace().find_map(|kv| {
            kv.strip_prefix(key)
                .and_then(|rest| rest.strip_prefix('='))
                .and_then(|v| v.parse().ok())
        }))
    }

    /// Declares this connection's client id, enabling sequenced
    /// (`seq=<n>`) idempotent submits.
    pub fn hello(&mut self, id: &str) -> io::Result<Result<(), String>> {
        Ok(self.roundtrip(&format!("client {id}"))?.map(|_| ()))
    }

    /// Binds this connection to a database on a multi-tenant server
    /// ([`serve_cluster`]); every subsequent submit/query/stats runs
    /// against it.
    pub fn use_db(&mut self, name: &str) -> io::Result<Result<(), String>> {
        Ok(self.roundtrip(&format!("use {name}"))?.map(|_| ()))
    }

    /// Creates a database on a multi-tenant server.
    pub fn db_create(&mut self, name: &str) -> io::Result<Result<(), String>> {
        Ok(self.roundtrip(&format!("db create {name}"))?.map(|_| ()))
    }

    /// Drops a database on a multi-tenant server. Fails while any
    /// connection (including this one) is still bound to it.
    pub fn db_drop(&mut self, name: &str) -> io::Result<Result<(), String>> {
        Ok(self.roundtrip(&format!("db drop {name}"))?.map(|_| ()))
    }

    /// Lists the server's databases, sorted by name: one
    /// `<name> shards=<n> facts=<m>` entry per database.
    pub fn db_list(&mut self) -> io::Result<Result<Vec<String>, String>> {
        Ok(self.roundtrip_lines("db list")?.map(|lines| {
            lines.into_iter().filter_map(|l| l.strip_prefix("db ").map(str::to_string)).collect()
        }))
    }

    /// Asks the server's owner to shut down gracefully: raises the
    /// server's [`ShutdownFlag`]. The server acknowledges before its
    /// owner begins the drain, so the ack always arrives.
    pub fn request_shutdown(&mut self) -> io::Result<Result<(), String>> {
        Ok(self.roundtrip("shutdown")?.map(|_| ()))
    }

    /// Says goodbye and closes the connection.
    pub fn quit(mut self) -> io::Result<()> {
        let _ = self.roundtrip("quit")?;
        Ok(())
    }
}

/// Whether a wire rejection is worth retrying: the server marks its
/// transient failure surface with `code=` prefixes whose
/// [`strata_core::MaintenanceError::is_retryable`] is true.
fn is_retryable_rejection(reason: &str) -> bool {
    let Some(code) = reason.split_whitespace().next().and_then(|t| t.strip_prefix("code=")) else {
        return false;
    };
    matches!(code, "storage" | "panicked" | "read-only" | "shutdown")
}

/// An idempotent, self-reconnecting client for at-most-once submission.
///
/// Every submit carries a fresh sequence number under the client's
/// declared id. On an ambiguous failure — the connection died before the
/// ack arrived, or the server rejected with a retryable `code=` (worker
/// panicked mid-group, read-only degradation, storage fault) — the client
/// reconnects and **resends the same sequence number** after an
/// exponentially backed-off, jittered pause. The server's dedup window
/// guarantees the retry is safe: if the first attempt was in fact decided,
/// the recorded outcome is replayed verbatim; the update is never applied
/// twice.
#[derive(Debug)]
pub struct RetryClient {
    addr: String,
    id: String,
    seq: u64,
    attempts: u32,
    base_backoff: Duration,
    client: Option<Client>,
    rng: SmallRng,
}

impl RetryClient {
    /// A retrying client with the default policy: 8 attempts, 5 ms base
    /// backoff (doubling, jittered). The id must be stable across the
    /// client's lifetime — it keys the server's dedup window.
    pub fn new(addr: &str, id: &str) -> RetryClient {
        RetryClient::with_policy(addr, id, 8, Duration::from_millis(5))
    }

    /// A retrying client with an explicit attempt budget and base backoff.
    pub fn with_policy(addr: &str, id: &str, attempts: u32, base_backoff: Duration) -> RetryClient {
        // Seed the jitter from the id so two clients with distinct ids
        // desynchronize their retry storms deterministically.
        let seed =
            id.bytes().fold(0xcafe_f00d_u64, |h, b| h.wrapping_mul(31).wrapping_add(b as u64));
        RetryClient {
            addr: addr.to_string(),
            id: id.to_string(),
            seq: 0,
            attempts: attempts.max(1),
            base_backoff,
            client: None,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// The highest sequence number issued so far.
    pub fn last_seq(&self) -> u64 {
        self.seq
    }

    /// The live connection, (re)established and handshaken on demand.
    fn connected(&mut self) -> io::Result<&mut Client> {
        if self.client.is_none() {
            let mut client = Client::connect(&self.addr)?;
            match client.roundtrip(&format!("client {}", self.id))? {
                Ok(_) => {}
                Err(reason) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("client handshake rejected: {reason}"),
                    ));
                }
            }
            self.client = Some(client);
        }
        Ok(self.client.as_mut().expect("just connected"))
    }

    /// Sleeps `base * 2^(attempt-1)` plus uniform jitter of up to one base
    /// interval, so concurrent retriers spread out instead of stampeding.
    fn backoff(&mut self, attempt: u32) {
        let base = self.base_backoff.as_millis() as u64;
        let pause = base.saturating_mul(1_u64 << (attempt - 1).min(10));
        let jitter = if base > 0 { self.rng.gen_range(0..=base) } else { 0 };
        std::thread::sleep(Duration::from_millis(pause + jitter));
    }

    /// Submits one update idempotently; retries ambiguous failures.
    pub fn submit(&mut self, update: &Update) -> io::Result<Result<Ack, String>> {
        self.submit_text(&protocol::render_update(update))
    }

    /// Submits raw update text (`+ p(1)`) idempotently under a fresh
    /// sequence number. `Ok(ack)` on acceptance; `Err(reason)` only for
    /// *deterministic* rejections (semantic errors the engine would repeat
    /// on any retry). Transient failures are retried until the attempt
    /// budget runs out, then surface as an `io::Error`.
    pub fn submit_text(&mut self, update: &str) -> io::Result<Result<Ack, String>> {
        self.seq += 1;
        let line = format!("submit seq={} {update}", self.seq);
        self.retry_roundtrip(&line).map(|r| r.map(|(_, tail)| parse_ack(&tail)))
    }

    /// Evaluates a query, reconnecting and retrying on connection loss
    /// (reads are naturally idempotent).
    pub fn query(&mut self, body: &str) -> io::Result<Result<QueryReply, String>> {
        self.retry_roundtrip(&format!("query {body}")).map(|r| {
            r.map(|(rows, tail)| match tail.as_str() {
                "true" => QueryReply::Boolean(true),
                "false" => QueryReply::Boolean(false),
                _ => QueryReply::Rows(rows),
            })
        })
    }

    /// Flushes (idempotent barrier), reconnecting and retrying on
    /// connection loss; returns the commit version at the flush point.
    pub fn flush(&mut self) -> io::Result<Result<u64, String>> {
        self.retry_roundtrip("flush").map(|r| r.map(|(_, tail)| parse_ack(&tail).version))
    }

    /// The shared retry loop: resend `line` verbatim until it yields a
    /// terminal answer or the attempt budget is exhausted.
    fn retry_roundtrip(&mut self, line: &str) -> io::Result<Result<(Vec<String>, String), String>> {
        let mut last = String::from("no attempts made");
        for attempt in 0..self.attempts {
            if attempt > 0 {
                self.backoff(attempt);
            }
            let outcome = match self.connected() {
                Ok(client) => client.roundtrip(line),
                Err(e) => Err(e),
            };
            match outcome {
                Err(e) => {
                    // Connection-level failure: ambiguous (the request may
                    // have committed). Reconnect and resend the same seq.
                    self.client = None;
                    last = format!("i/o: {e}");
                }
                Ok(Ok(done)) => return Ok(Ok(done)),
                Ok(Err(reason)) => {
                    if is_retryable_rejection(&reason) {
                        last = reason;
                    } else {
                        return Ok(Err(reason));
                    }
                }
            }
        }
        Err(io::Error::new(
            io::ErrorKind::TimedOut,
            format!("retries exhausted after {} attempts; last failure: {last}", self.attempts),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IngestConfig;
    use strata_core::registry::EngineRegistry;
    use strata_datalog::{Fact, Program};

    fn pods_server() -> (Arc<Service>, ServerHandle) {
        let program = Program::parse(
            "submitted(1). submitted(2). accepted(2).
             rejected(X) :- submitted(X), !accepted(X).",
        )
        .unwrap();
        let engine = EngineRegistry::standard().build("cascade", program).unwrap();
        let service = Arc::new(Service::start(engine, IngestConfig::default()));
        let handle = serve(Arc::clone(&service), "127.0.0.1:0").expect("bind");
        (service, handle)
    }

    #[test]
    fn oversized_request_line_is_refused_and_the_server_keeps_serving() {
        let (_service, handle) = pods_server();
        let addr = handle.addr().to_string();
        let mut stream = TcpStream::connect(&addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        stream.write_all(&vec![b'x'; MAX_REQUEST_LINE + 1]).unwrap();
        let mut reader = BufReader::new(stream);
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert!(reply.starts_with("err code=too-long "), "{reply}");
        reply.clear();
        assert_eq!(reader.read_line(&mut reply).unwrap(), 0, "closed after the refusal: {reply}");

        // A line of exactly the limit is read whole and parsed as usual,
        // and other connections are unaffected.
        let mut client = Client::connect(&addr).unwrap();
        client.send_raw(&"x".repeat(MAX_REQUEST_LINE - 1)).unwrap();
        let (_, reply) = client.recv_raw().unwrap();
        assert!(reply.starts_with("err ") && !reply.contains("too-long"), "{reply}");
        assert_eq!(client.query("rejected(1)").unwrap().unwrap(), QueryReply::Boolean(true));
        client.quit().unwrap();
        handle.stop();
    }

    #[test]
    fn submit_query_flush_stats_roundtrip() {
        let (_service, handle) = pods_server();
        let mut client = Client::connect(&handle.addr().to_string()).unwrap();
        assert_eq!(client.query("rejected(1)").unwrap().unwrap(), QueryReply::Boolean(true));
        let ack = client
            .submit(&Update::InsertFact(Fact::parse("accepted(1)").unwrap()))
            .unwrap()
            .unwrap();
        assert!(ack.group >= 1);
        assert!(ack.version >= 1, "a committing submit must carry its version");
        assert_eq!(client.query("rejected(1)").unwrap().unwrap(), QueryReply::Boolean(false));
        let reply = client.query("rejected(X)").unwrap().unwrap();
        assert_eq!(reply, QueryReply::Rows(vec![]), "everyone is accepted or rejected(2)? no");
        let flushed_at = client.flush().unwrap().unwrap();
        assert!(flushed_at >= ack.version);
        assert_eq!(client.stats_field("accepted").unwrap(), Some(1));
        assert_eq!(client.stats_field("snapshot_version").unwrap(), Some(flushed_at));
        client.quit().unwrap();
        handle.stop();
    }

    #[test]
    fn rejections_travel_as_err_lines() {
        let (_service, handle) = pods_server();
        let mut client = Client::connect(&handle.addr().to_string()).unwrap();
        let err = client.submit_text("- ghost(1)").unwrap().unwrap_err();
        assert!(err.contains("not an asserted fact"), "{err}");
        let err = client.submit_text("nonsense").unwrap().unwrap_err();
        assert!(err.contains("+"), "{err}");
        client.quit().unwrap();
        handle.stop();
    }

    #[test]
    fn two_clients_share_one_database() {
        let (_service, handle) = pods_server();
        let addr = handle.addr().to_string();
        let mut a = Client::connect(&addr).unwrap();
        let mut b = Client::connect(&addr).unwrap();
        a.submit_text("+ submitted(9)").unwrap().unwrap();
        assert_eq!(b.query("rejected(9)").unwrap().unwrap(), QueryReply::Boolean(true));
        b.submit_text("+ accepted(9)").unwrap().unwrap();
        assert_eq!(a.query("rejected(9)").unwrap().unwrap(), QueryReply::Boolean(false));
        handle.stop();
    }

    #[test]
    fn read_your_writes_across_connections() {
        let (_service, handle) = pods_server();
        let addr = handle.addr().to_string();
        let mut writer = Client::connect(&addr).unwrap();
        let mut reader = Client::connect(&addr).unwrap();
        let ack = writer.submit_text("+ accepted(1)").unwrap().unwrap();
        // The other connection pins the writer's version: guaranteed view.
        assert_eq!(
            reader.query_at(ack.version, "rejected(1)").unwrap().unwrap(),
            QueryReply::Boolean(false),
        );
        handle.stop();
    }

    #[test]
    fn versioned_query_for_future_version_errors() {
        let program = Program::parse("p(1).").unwrap();
        let engine = EngineRegistry::standard().build("cascade", program).unwrap();
        let cfg = IngestConfig { read_wait: Duration::from_millis(30), ..IngestConfig::default() };
        let service = Arc::new(Service::start(engine, cfg));
        let handle = serve(Arc::clone(&service), "127.0.0.1:0").expect("bind");
        let mut client = Client::connect(&handle.addr().to_string()).unwrap();
        let err = client.query_at(1_000_000, "p(X)").unwrap().unwrap_err();
        assert!(err.contains("not published"), "{err}");
        // The connection stays usable after the versioned-read timeout.
        assert_eq!(client.query("p(1)").unwrap().unwrap(), QueryReply::Boolean(true));
        handle.stop();
    }

    #[test]
    fn tagged_requests_interleave_on_one_connection() {
        let (_service, handle) = pods_server();
        let mut client = Client::connect(&handle.addr().to_string()).unwrap();
        // Fire three tagged requests back to back without reading.
        client.send_raw("#a submit + submitted(70)").unwrap();
        client.send_raw("#b query rejected(2)").unwrap();
        client.send_raw("#c stats").unwrap();
        let mut seen = std::collections::HashMap::new();
        for _ in 0..3 {
            let (tag, line) = client.recv_raw().unwrap();
            seen.insert(tag.expect("tagged responses"), line);
        }
        assert!(seen["a"].starts_with("ok group="), "{:?}", seen["a"]);
        assert!(seen["a"].contains("version="), "{:?}", seen["a"]);
        assert_eq!(seen["b"], "ok false");
        assert!(seen["c"].contains("snapshot_version="), "{:?}", seen["c"]);
        client.quit().unwrap();
        handle.stop();
    }

    #[test]
    fn sequenced_submits_replay_instead_of_reapplying() {
        let (service, handle) = pods_server();
        let mut client = Client::connect(&handle.addr().to_string()).unwrap();
        client.hello("alice").unwrap().unwrap();
        let first = client.roundtrip("submit seq=1 + submitted(41)").unwrap().unwrap();
        // A retry of the same sequence number replays the recorded ack —
        // same group, same version — rather than re-running the update.
        let retry = client.roundtrip("submit seq=1 + submitted(41)").unwrap().unwrap();
        assert_eq!(first, retry, "replayed ack must be byte-identical");
        assert_eq!(client.stats_field("deduped").unwrap(), Some(1));
        // A deterministic rejection replays too, as the same error.
        let e1 = client.roundtrip("submit seq=2 - ghost(1)").unwrap().unwrap_err();
        let e2 = client.roundtrip("submit seq=2 - ghost(1)").unwrap().unwrap_err();
        assert_eq!(e1, e2);
        assert!(e1.starts_with("code=not-asserted"), "{e1}");
        let _ = service.stats();
        client.quit().unwrap();
        handle.stop();
    }

    #[test]
    fn sequenced_submit_without_client_id_is_refused() {
        let (_service, handle) = pods_server();
        let mut client = Client::connect(&handle.addr().to_string()).unwrap();
        let err = client.roundtrip("submit seq=1 + submitted(50)").unwrap().unwrap_err();
        assert!(err.contains("client"), "{err}");
        // Unsequenced submits still work without a client id.
        client.submit_text("+ submitted(50)").unwrap().unwrap();
        client.quit().unwrap();
        handle.stop();
    }

    #[test]
    fn shutdown_verb_raises_the_server_flag() {
        let (_service, handle) = pods_server();
        let flag = handle.shutdown_requests();
        assert!(!flag.requested());
        let mut client = Client::connect(&handle.addr().to_string()).unwrap();
        client.request_shutdown().unwrap().unwrap();
        assert!(flag.wait_timeout(Duration::from_secs(5)), "verb must raise the flag");
        // The connection stays live until the owner actually tears down.
        assert_eq!(client.query("rejected(1)").unwrap().unwrap(), QueryReply::Boolean(true));
        handle.stop();
    }

    #[test]
    fn retry_client_reconnects_across_a_server_restart() {
        let (service, handle) = pods_server();
        let addr = handle.addr().to_string();
        let mut rc = RetryClient::new(&addr, "riley");
        let ack = rc.submit_text("+ submitted(77)").unwrap().unwrap();
        assert!(ack.version >= 1);
        assert_eq!(rc.query("rejected(77)").unwrap().unwrap(), QueryReply::Boolean(true));
        // Kill the listener out from under the client; rebind on the same
        // port and make sure the client re-handshakes and keeps its seq.
        handle.stop();
        let handle = serve(Arc::clone(&service), &addr).expect("rebind same port");
        let ack2 = rc.submit_text("+ accepted(77)").unwrap().unwrap();
        assert!(ack2.version > ack.version);
        assert_eq!(rc.last_seq(), 2, "each submit takes exactly one sequence number");
        assert_eq!(rc.query("rejected(77)").unwrap().unwrap(), QueryReply::Boolean(false));
        // Deterministic rejections surface immediately, not as retries.
        let reason = rc.submit_text("- ghost(9)").unwrap().unwrap_err();
        assert!(reason.starts_with("code=not-asserted"), "{reason}");
        handle.stop();
    }

    #[test]
    fn retryable_code_classification() {
        assert!(is_retryable_rejection("code=read-only service degraded"));
        assert!(is_retryable_rejection("code=panicked worker lost"));
        assert!(is_retryable_rejection("code=storage fsync failed"));
        assert!(is_retryable_rejection("code=shutdown closing"));
        assert!(!is_retryable_rejection("code=not-asserted cannot delete"));
        assert!(!is_retryable_rejection("code=unstratified rule"));
        assert!(!is_retryable_rejection("plain parse error"));
    }

    fn pods_cluster(shards: u32) -> (Arc<crate::tenant::Cluster>, ServerHandle) {
        let program = Program::parse(
            "submitted(1). submitted(2). accepted(2).
             rejected(X) :- submitted(X), !accepted(X).",
        )
        .unwrap();
        let mut opts = crate::shard::DbOptions::new("cascade");
        opts.shards = shards;
        let cluster =
            crate::tenant::Cluster::new(program, strata_core::StorageSpec::Mem, None, opts)
                .unwrap();
        let handle = serve_cluster(Arc::clone(&cluster), "127.0.0.1:0").expect("bind");
        (cluster, handle)
    }

    #[test]
    fn cluster_connections_bind_and_isolate_databases() {
        let (_cluster, handle) = pods_cluster(1);
        let addr = handle.addr().to_string();
        let mut a = Client::connect(&addr).unwrap();
        // Fresh connections serve the default database.
        assert_eq!(a.query("rejected(1)").unwrap().unwrap(), QueryReply::Boolean(true));
        let stats = a.stats().unwrap().unwrap();
        assert!(stats.contains("db=default"), "{stats}");
        // Create and bind a tenant; its writes never touch default.
        a.db_create("tenant1").unwrap().unwrap();
        a.use_db("tenant1").unwrap().unwrap();
        assert!(a.use_db("ghost").unwrap().is_err(), "unknown database");
        a.submit_text("+ item(1)").unwrap().unwrap();
        a.flush().unwrap().unwrap();
        assert_eq!(a.query("item(1)").unwrap().unwrap(), QueryReply::Boolean(true));
        let stats = a.stats().unwrap().unwrap();
        assert!(stats.contains("db=tenant1"), "{stats}");
        let mut b = Client::connect(&addr).unwrap();
        assert_eq!(b.query("item(1)").unwrap().unwrap(), QueryReply::Boolean(false));
        let listing = b.db_list().unwrap().unwrap();
        assert_eq!(listing.len(), 2, "{listing:?}");
        assert!(listing[0].starts_with("default "), "{listing:?}");
        assert!(listing[1].starts_with("tenant1 "), "{listing:?}");
        // Drop: refused while a is bound, fine once it rebinds away.
        assert!(b.db_drop("tenant1").unwrap().is_err(), "still bound by a");
        a.use_db("default").unwrap().unwrap();
        b.db_drop("tenant1").unwrap().unwrap();
        assert!(b.db_drop("default").unwrap().is_err(), "default is permanent");
        handle.stop();
    }

    #[test]
    fn cluster_serves_sharded_databases_over_the_wire() {
        let (_cluster, handle) = pods_cluster(2);
        let mut client = Client::connect(&handle.addr().to_string()).unwrap();
        let stats = client.stats().unwrap().unwrap();
        assert!(stats.ends_with("db=default shards=2"), "{stats}");
        // Writes to both components, read-your-writes via the encoded
        // version token.
        let ack = client.submit_text("+ accepted(1)").unwrap().unwrap();
        assert_eq!(
            client.query_at(ack.version, "rejected(1)").unwrap().unwrap(),
            QueryReply::Boolean(false)
        );
        // Sequenced submits dedup per shard.
        client.hello("carol").unwrap().unwrap();
        let first = client.roundtrip("submit seq=1 + submitted(9)").unwrap().unwrap();
        let retry = client.roundtrip("submit seq=1 + submitted(9)").unwrap().unwrap();
        assert_eq!(first, retry, "replayed ack must be byte-identical");
        // A rule update is a global barrier; the database keeps answering.
        client.submit_text("+ flagged(X) :- rejected(X)").unwrap().unwrap();
        let v = client.flush().unwrap().unwrap();
        assert_eq!(client.query_at(v, "flagged(9)").unwrap().unwrap(), QueryReply::Boolean(true));
        // Deterministic rejections travel with their codes intact.
        let err = client.submit_text("- ghost(1)").unwrap().unwrap_err();
        assert!(err.starts_with("code=not-asserted"), "{err}");
        client.quit().unwrap();
        handle.stop();
    }

    #[test]
    fn single_server_refuses_database_verbs() {
        let (_service, handle) = pods_server();
        let mut client = Client::connect(&handle.addr().to_string()).unwrap();
        for reply in [
            client.use_db("other").unwrap(),
            client.db_create("other").unwrap(),
            client.db_drop("other").unwrap(),
        ] {
            let err = reply.unwrap_err();
            assert!(err.contains("single-database"), "{err}");
        }
        assert!(client.db_list().unwrap().is_err());
        client.quit().unwrap();
        handle.stop();
    }

    #[test]
    fn read_timeout_unwedges_a_hung_server() {
        // A listener that accepts and then never answers: the classic hung
        // server. A bounded client must surface a timed-out read instead
        // of blocking forever.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let hold = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            std::thread::sleep(Duration::from_millis(500));
            drop(stream);
        });
        let t0 = std::time::Instant::now();
        let mut client = Client::connect_timeout(&addr.to_string(), Duration::from_millis(50))
            .expect("connect succeeds; it is the reads that hang");
        let err = client.query("p(X)").expect_err("read must time out");
        assert!(matches!(err.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut), "{err}");
        assert!(t0.elapsed() < Duration::from_millis(450), "must not wait out the server");
        hold.join().unwrap();
        // Against a live server the timeout client works normally.
        let (_service, handle) = pods_server();
        let mut client =
            Client::connect_timeout(&handle.addr().to_string(), Duration::from_secs(5)).unwrap();
        assert_eq!(client.query("rejected(1)").unwrap().unwrap(), QueryReply::Boolean(true));
        client.quit().unwrap();
        handle.stop();
    }
}
