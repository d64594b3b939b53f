//! Per-layer timing in process: the traced run replays the updates and
//! queries its wire phase sent through each layer's public functions, with
//! a span around every call.

use std::collections::VecDeque;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use stratamaint::core::durable::DEFAULT_MAX_CHAIN;
use stratamaint::core::registry::EngineRegistry;
use stratamaint::core::{ReplayMode, SnapshotMode, StorageSpec, Update, UpdateStats, WalSpec};
use stratamaint::datalog::query::render_row;
use stratamaint::datalog::{Program, Query};
use stratamaint::service::coalesce::Decision;
use stratamaint::service::protocol::{self, render_update};
use stratamaint::service::{Coalescer, DbOptions, IngestConfig, Outcome, Service, ShardedDb};
use stratamaint::store::CompactionPolicy;

use crate::stats::{mean, median};
use crate::trace::Recorder;

/// What the in-process replay works on.
pub struct Replay<'a> {
    /// The database state before `updates`.
    pub program: &'a Program,
    /// The updates the traced wire phase sent, in send order.
    pub updates: &'a [Update],
    /// The query bodies the traced wire phase sent.
    pub queries: &'a [String],
    /// Group size for the offline layer replay (the server's median).
    pub group: usize,
    /// Submits in flight when driving a service (window × writers).
    pub inflight: usize,
    /// Shards for the in-process sharded database.
    pub shards: u32,
    /// Scratch directory for the replay's stores.
    pub dir: &'a Path,
    /// A crashed store to time recovery on, instead of the replay's own.
    pub crashed_store: Option<&'a Path>,
    /// Time allowed per replay stage.
    pub budget: Duration,
}

/// A per-layer metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// The per-layer metrics, plus the two in-process medians the wire
/// overheads are computed against.
pub struct Layers {
    /// Every per-layer metric measured here.
    pub metrics: Vec<Metric>,
    /// Median in-process submit→ack through a service, µs.
    pub service_ack_us: f64,
    /// Median in-process submit→ack through the shard router, µs.
    pub shard_ack_us: f64,
    /// Median in-process query (snapshot wait + eval + render), µs.
    pub query_us: f64,
}

/// The storage profile `strata-serve --store` runs with: auto-compaction,
/// incremental checkpoints, bulk replay, fsync on every group commit.
pub fn production_storage(dir: &Path) -> StorageSpec {
    let mut spec = WalSpec::new(dir);
    spec.compaction = CompactionPolicy::default_auto();
    spec.snapshot = SnapshotMode::Incremental { max_chain: DEFAULT_MAX_CHAIN };
    spec.replay = ReplayMode::Bulk;
    StorageSpec::Wal(spec)
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Runs every in-process stage and derives the per-layer metrics.
pub fn measure(r: &Replay<'_>, rec: &mut Recorder) -> Result<Layers, String> {
    let mut metrics = Vec::new();
    replay_layers(r, rec, &mut metrics)?;
    let (service_ack_us, query_us) = service_layers(r, rec, &mut metrics)?;
    let shard_ack_us = shard_layers(r, rec, &mut metrics)?;
    Ok(Layers { metrics, service_ack_us, shard_ack_us, query_us })
}

/// Offline, single-threaded: each group through protocol parse, coalesce,
/// in-memory apply, durable apply, snapshot publish and ack render; then
/// recovery of a store.
fn replay_layers(r: &Replay<'_>, rec: &mut Recorder, out: &mut Vec<Metric>) -> Result<(), String> {
    let registry = EngineRegistry::standard();
    let mut mem = registry.build("cascade", r.program.clone()).map_err(err)?;
    let store = r.dir.join("replay");
    let mut wal = registry
        .build_with_storage("cascade", r.program.clone(), &production_storage(&store))
        .map_err(err)?;
    let mut coalescer = Coalescer::new();
    let mut prev = mem.model().snapshot(None);
    let obs = stratamaint::obs::global();
    let fsyncs0 = obs.value("strata_wal_fsync_total").unwrap_or(0);
    let bytes0 = obs.value("strata_wal_bytes_written_total").unwrap_or(0);
    let (mut plan_us, mut apply_us, mut commit_us, mut publish_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut parse_ns, mut parsed, mut render_ns, mut rendered) = (0u128, 0usize, 0u128, 0usize);
    let (mut batched, mut planned) = (0usize, 0usize);
    let mut totals = UpdateStats::default();
    let start = Instant::now();
    for (g, group) in r.updates.chunks(r.group.max(1)).enumerate() {
        if start.elapsed() > r.budget {
            break;
        }
        let g = g as u64 + 1;
        let t_group = Instant::now();
        for (i, u) in group.iter().enumerate() {
            let line = format!("#{i} submit {}", render_update(u));
            let t = Instant::now();
            let (_, body) = protocol::split_tag(&line);
            black_box(protocol::parse_request(body).map_err(err)?);
            parse_ns += t.elapsed().as_nanos();
            parsed += 1;
        }
        let t0 = Instant::now();
        let plan = coalescer.plan_group(mem.program(), group.iter());
        let t1 = Instant::now();
        let stats = mem.apply_all(&plan.batch).map_err(err)?;
        let t2 = Instant::now();
        wal.apply_all(&plan.batch).map_err(err)?;
        wal.auto_checkpoint().map_err(err)?;
        let t3 = Instant::now();
        let snap = mem.model().snapshot(Some(&prev));
        let t4 = Instant::now();
        prev = snap;
        for d in &plan.decisions {
            let outcome = match d {
                Decision::Accepted => Outcome::Accepted { group: g, version: g },
                Decision::Rejected(e) => Outcome::Rejected(e.clone()),
            };
            let t = Instant::now();
            black_box(protocol::render_tagged(Some("0"), &protocol::render_outcome(&outcome)));
            render_ns += t.elapsed().as_nanos();
            rendered += 1;
        }
        let parent = rec.reserve();
        rec.record("coalesce.plan", parent, g, t0, t1);
        rec.record("core.apply", parent, g, t1, t2);
        rec.record("store.apply", parent, g, t2, t3);
        rec.record("storage.publish", parent, g, t3, t4);
        rec.record_as(parent, "layer.group", 0, g, t_group, Instant::now());
        plan_us.push(us(t1 - t0));
        apply_us.push(us(t2 - t1));
        // The durable engine does the same in-memory work plus the WAL.
        commit_us.push(us(t3 - t2) - us(t2 - t1));
        publish_us.push(us(t4 - t3));
        batched += plan.batch.len();
        planned += group.len();
        totals.accumulate(&stats);
    }
    let n = planned.max(1) as f64;
    let fsyncs = obs.value("strata_wal_fsync_total").unwrap_or(0) - fsyncs0;
    let bytes = obs.value("strata_wal_bytes_written_total").unwrap_or(0) - bytes0;
    drop(wal);

    // Recovery: the crashed store the wire run restarted from, or the
    // store this replay just left without a checkpoint.
    let recover_dir = match r.crashed_store {
        Some(crashed) => {
            let copy = r.dir.join("recover");
            crate::wire::copy_dir(crashed, &copy).map_err(err)?;
            copy
        }
        None => store,
    };
    let t = Instant::now();
    let recovered = registry
        .build_with_storage("cascade", r.program.clone(), &production_storage(&recover_dir))
        .map_err(err)?;
    let recovery = t.elapsed();
    rec.record("store.recovery", 0, 0, t, t + recovery);
    black_box(recovered.model().len());

    let queries = parse_queries(r.queries)?;
    for (i, q) in r.queries.iter().enumerate() {
        let line = format!("#q{i} query @1 {q}");
        let t = Instant::now();
        let (_, body) = protocol::split_tag(&line);
        black_box(protocol::parse_request(body).map_err(err)?);
        parse_ns += t.elapsed().as_nanos();
        parsed += 1;
    }
    // Row rendering, on the model the replay ended with.
    for (i, q) in queries.iter().enumerate() {
        let t = Instant::now();
        let lines = render_answer(q, &prev, i);
        render_ns += t.elapsed().as_nanos();
        rendered += black_box(lines).len();
    }

    out.extend([
        ("protocol.parse_us", parse_ns as f64 / 1e3 / parsed.max(1) as f64, "us"),
        ("protocol.render_us", render_ns as f64 / 1e3 / rendered.max(1) as f64, "us"),
        ("coalesce.plan_us", median(&plan_us), "us"),
        ("coalesce.net_frac", batched as f64 / n, "ratio"),
        ("core.apply_us", median(&apply_us), "us"),
        ("core.derivations", totals.derivations as f64 / n, "count"),
        ("core.removed", totals.removed as f64 / n, "count"),
        ("core.migrated", totals.migrated as f64 / n, "count"),
        ("store.commit_us", median(&commit_us), "us"),
        ("store.fsyncs_per_update", fsyncs as f64 / n, "count"),
        ("store.wal_bytes_per_update", bytes as f64 / n, "B"),
        ("store.recovery_ms", recovery.as_secs_f64() * 1e3, "ms"),
        ("storage.publish_us", median(&publish_us), "us"),
    ]);
    Ok(())
}

fn parse_queries(bodies: &[String]) -> Result<Vec<Query>, String> {
    bodies.iter().map(|b| Query::parse(b).map_err(|e| format!("query `{b}`: {e}"))).collect()
}

/// The wire answer's lines, as the server renders them.
fn render_answer<S: stratamaint::datalog::RelSource + ?Sized>(
    q: &Query,
    src: &S,
    i: usize,
) -> Vec<String> {
    let tag = format!("q{i}");
    if q.is_boolean() {
        return vec![protocol::render_tagged(Some(&tag), &format!("ok {}", q.holds(src)))];
    }
    let rows = q.eval(src);
    let mut lines: Vec<String> = rows
        .iter()
        .map(|row| protocol::render_tagged(Some(&tag), &format!("row {}", render_row(q, row))))
        .collect();
    lines.push(protocol::render_tagged(Some(&tag), &format!("ok {}", rows.len())));
    lines
}

/// Submits `updates` keeping `inflight` decisions outstanding, until the
/// budget runs out. Returns submit→decision latencies (µs) and the last
/// accepted version.
fn drive<H>(
    r: &Replay<'_>,
    name: &'static str,
    rec: &mut Recorder,
    submit: impl Fn(&Update) -> H,
    wait: impl Fn(&H) -> Outcome,
) -> Result<(Vec<f64>, u64), String> {
    let mut pending: VecDeque<(usize, H, Instant)> = VecDeque::new();
    let mut lat = Vec::new();
    let mut version = 0;
    let start = Instant::now();
    let parent = rec.reserve();
    let mut next = 0;
    loop {
        while pending.len() < r.inflight.max(1)
            && next < r.updates.len()
            && start.elapsed() < r.budget
        {
            pending.push_back((next, submit(&r.updates[next]), Instant::now()));
            next += 1;
        }
        let Some((i, handle, t)) = pending.pop_front() else { break };
        match wait(&handle) {
            Outcome::Accepted { version: v, .. } => version = v,
            Outcome::Rejected(e) => return Err(format!("{name}: update {i} rejected: {e}")),
        }
        let now = Instant::now();
        rec.record(name, parent, i as u64, t, now);
        lat.push(us(now - t));
    }
    rec.record_as(parent, "layer.drive", 0, 0, start, Instant::now());
    Ok((lat, version))
}

/// The ingest service in process: submit→ack, queue wait and group size
/// from its own spans, then versioned snapshot reads and query evaluation.
fn service_layers(
    r: &Replay<'_>,
    rec: &mut Recorder,
    out: &mut Vec<Metric>,
) -> Result<(f64, f64), String> {
    let engine = EngineRegistry::standard()
        .build_with_storage("cascade", r.program.clone(), &production_storage(&r.dir.join("svc")))
        .map_err(err)?;
    let service = Service::start(engine, IngestConfig::default());
    let (lat, version) = drive(r, "service.ack", rec, |u| service.submit(u.clone()), |h| h.wait())?;
    let worker = service.worker_ordinal();
    let spans: Vec<_> = stratamaint::obs::trace::recent_spans(1024)
        .into_iter()
        .filter(|s| s.worker == worker && s.committed && s.size > 0)
        .collect();
    let waits: Vec<f64> = spans.iter().map(|s| s.wait_us() as f64).collect();
    let sizes: Vec<f64> = spans.iter().map(|s| s.size as f64).collect();

    let queries = parse_queries(r.queries)?;
    let (mut wait_us, mut eval_us, mut total_us, mut rows) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    for (i, q) in queries.iter().enumerate() {
        if start.elapsed() > r.budget {
            break;
        }
        let t0 = Instant::now();
        let snap = service.snapshot_at(version).map_err(|v| format!("version {v} unpublished"))?;
        let t1 = Instant::now();
        let n = if q.is_boolean() {
            usize::from(black_box(q.holds(&snap.model)))
        } else {
            black_box(q.eval(&snap.model)).len()
        };
        let t2 = Instant::now();
        black_box(render_answer(q, &snap.model, i));
        let t3 = Instant::now();
        let parent = rec.reserve();
        rec.record("service.snapshot_at", parent, i as u64, t0, t1);
        rec.record("query.eval", parent, i as u64, t1, t2);
        rec.record("protocol.render_rows", parent, i as u64, t2, t3);
        rec.record_as(parent, "query.inproc", 0, i as u64, t0, t3);
        wait_us.push(us(t1 - t0));
        eval_us.push(us(t2 - t1));
        total_us.push(us(t3 - t0));
        rows.push(n as f64);
    }
    drop(service.shutdown());
    let ack = median(&lat);
    out.extend([
        ("service.ack_us", ack, "us"),
        ("queue.wait_us", mean(&waits), "us"),
        ("queue.group_size", mean(&sizes), "count"),
        ("service.snapshot_wait_us", median(&wait_us), "us"),
        ("query.eval_us", median(&eval_us), "us"),
        ("query.rows", mean(&rows), "count"),
    ]);
    Ok((ack, median(&total_us)))
}

/// The shard router in process: submit→ack and how evenly commits spread.
fn shard_layers(r: &Replay<'_>, rec: &mut Recorder, out: &mut Vec<Metric>) -> Result<f64, String> {
    let mut opts = DbOptions::new("cascade");
    opts.shards = r.shards;
    let db = ShardedDb::open(r.program.clone(), &production_storage(&r.dir.join("shard")), &opts)
        .map_err(err)?;
    let versions =
        |db: &ShardedDb| -> Vec<u64> { db.snapshot().parts().iter().map(|p| p.version).collect() };
    let before = versions(&db);
    let (lat, _) = drive(r, "shard.ack", rec, |u| db.submit(u.clone()), |h| h.wait())?;
    let commits: Vec<f64> =
        versions(&db).iter().zip(&before).map(|(a, b)| (a - b) as f64).collect();
    let avg = mean(&commits);
    let max = commits.iter().copied().fold(0.0, f64::max);
    drop(db.shutdown());
    let ack = median(&lat);
    out.extend([
        ("shard.ack_us", ack, "us"),
        ("shard.balance", if avg > 0.0 { max / avg } else { 1.0 }, "ratio"),
    ]);
    Ok(ack)
}
