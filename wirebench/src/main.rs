//! `wirebench` — the end-to-end benchmark of `strata-serve`.
//!
//! ```text
//! cargo run --release --offline --manifest-path wirebench/Cargo.toml -- \
//!     --workload ingest_serial --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Run from the repository root. It builds `strata-serve` from source,
//! spawns it on loopback, drives the workload from at most two connections
//! and two threads, checks every output, and prints each metric with its
//! unit and sample count. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` — end-to-end metrics
//! with `--trace 0`, per-layer metrics with `--trace 1`. Exits non-zero if
//! any check fails. See `README.md` beside this file.

mod check;
mod gen;
mod layers;
mod stats;
mod trace;
mod wire;

use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use stratamaint::core::durable::DEFAULT_MAX_CHAIN;
use stratamaint::core::Update;
use stratamaint::datalog::Program;

use gen::{Inputs, Workload};
use stats::{summarize, Schedule, Summary};
use trace::Recorder;
use wire::{Conn, LastAck, Pin, Reads, Server, Writes};

/// Server starts per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Share of an ingest phase spent writing; the rest reads.
const WRITE_SHARE: f64 = 0.6;
/// Every this many `read_mixed` reader slots is a read-your-writes check.
const CHECK_EVERY: usize = 4;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(i + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    Ok(Args {
        workload: Workload::parse(workload).ok_or(format!("unknown workload {workload}"))?,
        seed: num("--seed")?,
        seconds: num("--seconds")?.max(1),
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "wirebench: {e}\nusage: wirebench --workload <ingest_serial|ingest_bulk|\
                       read_mixed> --seed <n> --seconds <n> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            report.print();
            if !report.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("wirebench: {e}");
            std::process::exit(1);
        }
    }
}

/// One printed metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Sample count behind the value, with the tail percentile if any.
    note: String,
}

struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
    problems: Vec<String>,
}

impl Report {
    fn print(&self) {
        for p in &self.problems {
            println!("CHECK FAILED: {p}");
        }
        for m in &self.metrics {
            println!("{:<28} {:>14.4} {:<8} {}", m.name, m.value, m.unit, m.note);
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!("\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", m.name, m.unit)
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// Builds `strata-serve` from the checkout and returns its path.
fn build_server() -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet", "--bin", "strata-serve"])
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building strata-serve failed: {status}"));
    }
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let bin = Path::new(&target).join("release").join("strata-serve");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("no server binary at {}", bin.display()))
    }
}

/// Removes the run's scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Ctx {
    w: Workload,
    seed: u64,
    bin: PathBuf,
    work: PathBuf,
    program_file: PathBuf,
    inputs: Inputs,
}

impl Ctx {
    fn server_args(&self, store: &Path) -> Vec<String> {
        let store = store.display().to_string();
        let program = self.program_file.display().to_string();
        if self.w.shards() > 1 {
            let shards = self.w.shards().to_string();
            vec![
                "--data-root".into(),
                store,
                "--shards".into(),
                shards,
                "--program".into(),
                program,
            ]
        } else {
            vec!["--store".into(), store, "--program".into(), program]
        }
    }
}

fn io_err(e: io::Error) -> String {
    e.to_string()
}

fn run(args: &Args) -> Result<Report, String> {
    let w = args.workload;
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "workload={} seed={} seconds={} trace={} host_cpus={host_cpus} connections={} \
         threads={} window={} shards={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        w.connections(),
        w.threads(),
        w.window(),
        w.shards()
    );
    if w.connections() > host_cpus || w.threads() > host_cpus {
        return Err(format!(
            "refusing to run: {} needs {} connections and {} threads, host has {host_cpus} CPUs",
            w.name(),
            w.connections(),
            w.threads()
        ));
    }
    let bin = build_server()?;
    let root = PathBuf::from(".bench_work");
    let work = root.join(format!("{}-s{}-p{}", w.name(), args.seed, std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(io_err)?;
    let guard = WorkDir(work.clone());
    let inputs = gen::generate(w, args.seed, args.seconds);
    let program_file = work.join("program.strata");
    std::fs::write(&program_file, inputs.program.to_string()).map_err(io_err)?;
    let ctx = Ctx { w, seed: args.seed, bin, work, program_file, inputs };
    let seconds = args.seconds as f64;
    let report = if args.trace { traced(&ctx, seconds, &root)? } else { untraced(&ctx, seconds)? };
    drop(guard);
    Ok(report)
}

/// Everything one timed phase produced.
struct Phase {
    /// Per writer: the stream slice it sent from, and what it saw.
    writes: Vec<(usize, Writes)>,
    reads: Reads,
    write_secs: f64,
    cpu_ns: u64,
}

impl Phase {
    fn submit_latencies(&self) -> Vec<f64> {
        self.writes.iter().flat_map(|(_, w)| w.latency_ms.iter().copied()).collect()
    }

    fn submit_per_s(&self) -> f64 {
        self.writes.iter().map(|(_, w)| w.acked_in_phase).sum::<usize>() as f64 / self.write_secs
    }

    /// Answers over the time from the reader's first due query to its last
    /// answer: the schedule's rate unless the server falls behind.
    fn query_per_s(&self) -> f64 {
        self.reads.lines.len() as f64 / self.reads.elapsed_secs.max(1e-9)
    }

    fn attempted(&self) -> usize {
        self.writes.iter().map(|(_, w)| w.sent_at.len()).sum::<usize>() + self.reads.sent
    }

    fn ops(&self) -> usize {
        self.writes.iter().map(|(_, w)| w.outcomes.len()).sum::<usize>() + self.reads.lines.len()
    }
}

/// Where each writer and the reader resume in their inputs.
#[derive(Clone, Default)]
struct Cursor {
    streams: Vec<usize>,
    queries: usize,
}

/// One timed phase of `secs` on a running server. `conn` is the first
/// writer's connection.
fn phase(
    ctx: &Ctx,
    server: &Server,
    conn: &mut Conn,
    cursor: &mut Cursor,
    secs: f64,
    rec: &mut Recorder,
) -> Result<Phase, String> {
    let w = ctx.w;
    let streams = &ctx.inputs.streams;
    let queries = &ctx.inputs.queries[cursor.queries..];
    let mut extra =
        if w.connections() > 1 { Some(Conn::connect(&server.addr).map_err(io_err)?) } else { None };
    // Per-connection jitter seeds, different in each phase.
    let base = ctx.seed ^ (cursor.queries as u64).rotate_left(32);
    let seeds = [base ^ 0x1, base ^ 0x2, base ^ 0x3];
    let cpu0 = server.cpu_ns().map_err(io_err)?;
    let t0 = Instant::now();
    let mut rec1 = rec.fork(1 << 48);
    let (writes, reads, write_secs) = if w == Workload::ReadMixed {
        let end = t0 + Duration::from_secs_f64(secs);
        let last = LastAck::default();
        let stream = &streams[0][cursor.streams[0]..];
        let reader = extra.as_mut().expect("read_mixed has a reader connection");
        let (writes, reads) = std::thread::scope(|s| {
            let r = s.spawn(|| {
                let pin = Pin::Live { last: &last, stream, check_every: CHECK_EVERY };
                let sched = Schedule::new(t0, w.read_rate(), Some(seeds[2]));
                wire::read_open_loop(reader, queries, sched, end, pin, &mut rec1)
            });
            let writes = wire::write_closed_loop(
                conn,
                stream,
                w.window(),
                Some(end),
                Some(&last),
                seeds[0],
                rec,
            );
            (writes, r.join().expect("reader thread"))
        });
        (vec![(cursor.streams[0], writes.map_err(io_err)?)], reads.map_err(io_err)?, secs)
    } else {
        let write_end = t0 + Duration::from_secs_f64(secs * WRITE_SHARE);
        let (first, second) = std::thread::scope(|s| {
            let other = extra.as_mut().map(|c| {
                let stream = &streams[1][cursor.streams[1]..];
                let rec1 = &mut rec1;
                s.spawn(move || {
                    wire::write_closed_loop(
                        c,
                        stream,
                        w.window(),
                        Some(write_end),
                        None,
                        seeds[1],
                        rec1,
                    )
                })
            });
            let stream = &streams[0][cursor.streams[0]..];
            let first = wire::write_closed_loop(
                conn,
                stream,
                w.window(),
                Some(write_end),
                None,
                seeds[0],
                rec,
            );
            (first, other.map(|h| h.join().expect("writer thread")))
        });
        let mut writes = vec![(cursor.streams[0], first.map_err(io_err)?)];
        if let Some(second) = second {
            writes.push((cursor.streams[1], second.map_err(io_err)?));
        }
        drop(extra.take());
        let version =
            writes[0].1.outcomes.iter().rev().find_map(|o| o.as_ref().ok().copied()).unwrap_or(0);
        let read_start = Instant::now();
        let read_secs = secs * (1.0 - WRITE_SHARE);
        let end = read_start + Duration::from_secs_f64(read_secs);
        let sched = Schedule::new(read_start, w.read_rate(), Some(seeds[2]));
        let reads = wire::read_open_loop(conn, queries, sched, end, Pin::Fixed(version), rec)
            .map_err(io_err)?;
        (writes, reads, secs * WRITE_SHARE)
    };
    let cpu_ns = server.cpu_ns().map_err(io_err)?.saturating_sub(cpu0);
    rec.merge(rec1);
    for (k, (_, wr)) in writes.iter().enumerate() {
        cursor.streams[k] += wr.sent_at.len();
    }
    cursor.queries += reads.sent;
    Ok(Phase { writes, reads, write_secs, cpu_ns })
}

/// `read_mixed`'s set-up input: a store that a load phase filled, every
/// update acked, and then SIGKILLed. Returns the store and the state it
/// must hold.
fn crashed_store(ctx: &Ctx) -> Result<(PathBuf, Program), String> {
    let dir = ctx.work.join("loaded");
    let (server, mut conn, _) = Server::start(&ctx.bin, &ctx.server_args(&dir)).map_err(io_err)?;
    let mut off = Recorder::new(Instant::now(), false, 0);
    let w = wire::write_closed_loop(
        &mut conn,
        &ctx.inputs.load,
        ctx.w.window(),
        None,
        None,
        ctx.seed,
        &mut off,
    )
    .map_err(io_err)?;
    if let Some(e) = w.outcomes.iter().find_map(|o| o.as_ref().err()) {
        return Err(format!("load phase update rejected: {e}"));
    }
    server.kill();
    let mut state = ctx.inputs.program.clone();
    check::apply_accepted(&mut state, &ctx.inputs.load, &w.outcomes);
    Ok((dir, state))
}

/// Starts the server `n` times, each on a fresh store (or a fresh copy of
/// `base`), and keeps the last one. Returns it with the set-up times.
fn start_servers(
    ctx: &Ctx,
    n: usize,
    base: Option<&Path>,
) -> Result<(Server, Conn, PathBuf, Vec<f64>), String> {
    let mut setups = Vec::new();
    let mut kept = None;
    for i in 0..n {
        let dir = ctx.work.join(format!("store-{i}"));
        if let Some(base) = base {
            wire::copy_dir(base, &dir).map_err(io_err)?;
        }
        let (server, conn, secs) =
            Server::start(&ctx.bin, &ctx.server_args(&dir)).map_err(io_err)?;
        setups.push(secs);
        if i + 1 == n {
            kept = Some((server, conn, dir));
        } else {
            server.kill();
        }
    }
    let (server, conn, dir) = kept.expect("at least one start");
    Ok((server, conn, dir, setups))
}

/// Start-up of a run: (for `read_mixed`) the crashed store and its
/// durability check, then the server starts. Returns the server, its
/// connection, its store, set-up times, the state it holds, and the crashed
/// store if any.
#[allow(clippy::type_complexity)]
fn start(
    ctx: &Ctx,
    starts: usize,
    problems: &mut Vec<String>,
) -> Result<(Server, Conn, PathBuf, Vec<f64>, Program, Option<PathBuf>), String> {
    if ctx.w != Workload::ReadMixed {
        let (server, conn, dir, setups) = start_servers(ctx, starts, None)?;
        return Ok((server, conn, dir, setups, ctx.inputs.program.clone(), None));
    }
    let (crashed, state) = crashed_store(ctx)?;
    let (server, mut conn, dir, setups) = start_servers(ctx, starts, Some(&crashed))?;
    // Durability: every update acked before the SIGKILL survived it.
    if let Err(e) = check::check_edb(&mut conn, &state).map_err(io_err)? {
        problems.push(format!("durability after SIGKILL: {e}"));
    }
    Ok((server, conn, dir, setups, state, Some(crashed)))
}

/// The checks after the timed phases, and the storage and memory figures.
struct Finish {
    model_facts: usize,
    store_bytes: u64,
    peak_rss_kib: u64,
    /// Wire rejections the oracle did not predict.
    unpredicted: usize,
}

/// Verifies every output of the run and measures the store.
fn finish(
    ctx: &Ctx,
    server: Server,
    conn: &mut Conn,
    store: &Path,
    initial: &Program,
    phases: &[&Phase],
    problems: &mut Vec<String>,
) -> Result<Finish, String> {
    conn.expect_ok("flush").map_err(io_err)?;
    println!("server {}", conn.expect_ok("stats").map_err(io_err)?);
    let mut expected = initial.clone();
    let mut unpredicted = 0;
    for (k, stream) in ctx.inputs.streams.iter().enumerate() {
        let mut sent: Vec<Update> = Vec::new();
        let mut writes = Writes::default();
        for p in phases {
            let (from, w) = &p.writes[k];
            sent.extend_from_slice(&stream[*from..*from + w.sent_at.len()]);
            writes.sent_at.extend_from_slice(&w.sent_at);
            writes.outcomes.extend(w.outcomes.iter().cloned());
        }
        if ctx.w == Workload::IngestSerial {
            // Per-update decisions against the oracle engine.
            match check::check_oracle(&expected, &sent, &writes) {
                Ok(predicted) if predicted > 0 => {
                    println!("oracle-predicted rejections: {predicted}")
                }
                Ok(_) => {}
                Err(e) => {
                    problems.push(format!("decisions: {e}"));
                    unpredicted += writes.outcomes.iter().filter(|o| o.is_err()).count();
                }
            }
        } else {
            // Generated streams are valid: the oracle accepts every update.
            unpredicted += writes.outcomes.iter().filter(|o| o.is_err()).count();
        }
        check::apply_accepted(&mut expected, &sent, &writes.outcomes);
    }
    if ctx.w == Workload::ReadMixed {
        for p in phases {
            let (from, w) = &p.writes[0];
            let stream = &ctx.inputs.streams[0][*from..];
            if let Err(e) = check::check_ryw(stream, w, &p.reads.checks) {
                problems.push(e);
            }
        }
        let checks: usize = phases.iter().map(|p| p.reads.checks.len()).sum();
        println!("read-your-writes checks: {checks}");
    }
    let model_facts = match check::check_model(conn, &expected).map_err(io_err)? {
        Ok(n) => n,
        Err(e) => {
            problems.push(e);
            0
        }
    };
    let peak_rss_kib = server.peak_rss_kib().map_err(io_err)?;
    // Fold the store into one full snapshot per shard and an empty WAL, so
    // its size does not depend on where in the delta-checkpoint cycle the
    // run ended. A `compact` with nothing changed writes no delta, so each
    // round first inserts and deletes a probe rule. On a sharded store each
    // rule update is also a barrier that writes every shard into a fresh
    // epoch as a full snapshot, which realigns shards whose own checkpoint
    // schedules differ.
    let live_bytes = wire::dir_bytes(store).map_err(io_err)?;
    let mut folded = false;
    for _ in 0..=DEFAULT_MAX_CHAIN + 1 {
        let stats = conn.expect_ok("stats").map_err(io_err)?;
        folded =
            ["snapshot_chain_len", "wal_txns"].iter().all(|k| wire::field(&stats, k) == Some(0));
        if folded {
            break;
        }
        conn.expect_ok(&format!("submit + {}", ctx.w.probe_rule())).map_err(io_err)?;
        conn.expect_ok(&format!("submit - {}", ctx.w.probe_rule())).map_err(io_err)?;
        conn.expect_ok("compact").map_err(io_err)?;
    }
    if !folded {
        problems.push("store did not fold into full snapshots".into());
    }
    let store_bytes = wire::dir_bytes(store).map_err(io_err)?;
    println!("store: {live_bytes} B live, {store_bytes} B folded");
    server.kill();
    Ok(Finish { model_facts, store_bytes, peak_rss_kib, unpredicted })
}

fn latency_metric(name: &'static str, s: Option<Summary>, tail: bool) -> Metric {
    let s = s.unwrap_or(Summary { n: 0, p50: 0.0, tail: 0.0, tail_pct: 0.0 });
    let (value, note) = if tail {
        (s.tail, format!("n={} read at p{:.1}", s.n, s.tail_pct))
    } else {
        (s.p50, format!("n={}", s.n))
    };
    Metric { name, value, unit: "ms", note }
}

/// The end-to-end metrics of one phase.
fn end_to_end(p: &Phase) -> Vec<Metric> {
    let submit = summarize(&p.submit_latencies());
    let query = summarize(&p.reads.latency_ms);
    let acked: usize = p.writes.iter().map(|(_, w)| w.acked_in_phase).sum();
    vec![
        Metric {
            name: "submit_per_s",
            value: p.submit_per_s(),
            unit: "1/s",
            note: format!("n={acked} in {:.1}s", p.write_secs),
        },
        latency_metric("submit_p50_ms", submit, false),
        latency_metric("submit_p99_ms", submit, true),
        Metric {
            name: "query_per_s",
            value: p.query_per_s(),
            unit: "1/s",
            note: format!("n={} in {:.2}s", p.reads.lines.len(), p.reads.elapsed_secs),
        },
        latency_metric("query_p50_ms", query, false),
        latency_metric("query_p99_ms", query, true),
    ]
}

fn untraced(ctx: &Ctx, secs: f64) -> Result<Report, String> {
    let mut problems = Vec::new();
    let (server, mut conn, store, setups, initial, _) = start(ctx, SETUPS, &mut problems)?;
    let mut cursor = Cursor { streams: vec![0; ctx.w.writers()], queries: 0 };
    let mut off = Recorder::new(Instant::now(), false, 0);
    let p = phase(ctx, &server, &mut conn, &mut cursor, secs, &mut off)?;
    let failed_reads = p.reads.errors.len();
    let f = finish(ctx, server, &mut conn, &store, &initial, &[&p], &mut problems)?;
    let attempted = p.attempted();
    let failed = f.unpredicted + failed_reads;
    let mut metrics = vec![Metric {
        name: "setup_s",
        value: stats::median(&setups),
        unit: "s",
        note: format!("n={} starts", setups.len()),
    }];
    metrics.extend(end_to_end(&p));
    let ops = p.ops().max(1);
    metrics.extend([
        Metric {
            name: "ops_ok_frac",
            value: (attempted - failed) as f64 / attempted.max(1) as f64,
            unit: "ratio",
            note: format!("n={attempted} attempted, {failed} failed"),
        },
        Metric {
            name: "server_rss_mb",
            value: f.peak_rss_kib as f64 / 1024.0,
            unit: "MiB",
            note: "VmHWM".into(),
        },
        Metric {
            name: "server_cpu_us_per_op",
            value: p.cpu_ns as f64 / 1e3 / ops as f64,
            unit: "us",
            note: format!("n={ops} ops"),
        },
        Metric {
            name: "store_bytes_per_fact",
            value: f.store_bytes as f64 / f.model_facts.max(1) as f64,
            unit: "B",
            note: format!("{} B / {} facts", f.store_bytes, f.model_facts),
        },
    ]);
    Ok(Report { correct: problems.is_empty() && failed == 0, attempted, failed, metrics, problems })
}

/// The server's own per-group spans (`trace` verb) as stage means, keyed
/// `(worker, group)` so spans from before a phase can be excluded.
/// A server group span: `(worker, group)` and its wait, apply, fsync and
/// publish times (µs) and size.
type ServerSpan = ((u64, u64), [f64; 5]);

fn server_spans(conn: &mut Conn) -> Result<Vec<ServerSpan>, String> {
    let lines = conn.request("trace 1024").map_err(io_err)?;
    Ok(lines
        .iter()
        .filter(|l| l.starts_with("span ") && l.contains(" committed=true"))
        .filter_map(|l| {
            let f = |k: &str| wire::field(l, k);
            let stage = |a: &str, b: &str| Some(f(b)?.saturating_sub(f(a)?) as f64);
            Some((
                (f("worker")?, f("group")?),
                [
                    f("wait_us")? as f64,
                    stage("coalesce_us", "apply_us")?,
                    stage("apply_us", "fsync_us")?,
                    stage("fsync_us", "publish_us")?,
                    f("size")? as f64,
                ],
            ))
        })
        .collect())
}

fn traced(ctx: &Ctx, secs: f64, root: &Path) -> Result<Report, String> {
    let mut problems = Vec::new();
    let (server, mut conn, store, _, initial, crashed) = start(ctx, 1, &mut problems)?;
    let mut cursor = Cursor { streams: vec![0; ctx.w.writers()], queries: 0 };
    let epoch = Instant::now();
    let mut off = Recorder::new(epoch, false, 0);
    let mut rec = Recorder::new(epoch, true, 0);
    let half = secs / 2.0;
    let a = phase(ctx, &server, &mut conn, &mut cursor, half, &mut off)?;
    let before = server_spans(&mut conn)?;
    let at_b = cursor.clone();
    let b = phase(ctx, &server, &mut conn, &mut cursor, half, &mut rec)?;
    let seen: std::collections::HashSet<(u64, u64)> = before.iter().map(|(k, _)| *k).collect();
    let during: Vec<[f64; 5]> = server_spans(&mut conn)?
        .into_iter()
        .filter(|(k, _)| !seen.contains(k))
        .map(|(_, v)| v)
        .collect();
    let stage = |i: usize| stats::mean(&during.iter().map(|s| s[i]).collect::<Vec<_>>());
    let failed_reads = a.reads.errors.len() + b.reads.errors.len();
    let f = finish(ctx, server, &mut conn, &store, &initial, &[&a, &b], &mut problems)?;

    // The in-process replay starts from the state phase B started from and
    // sends phase B's inputs.
    let mut state = initial.clone();
    for (k, (from, w)) in a.writes.iter().enumerate() {
        check::apply_accepted(&mut state, &ctx.inputs.streams[k][*from..], &w.outcomes);
    }
    let mut updates: Vec<Update> = Vec::new();
    let slices: Vec<&[Update]> = b
        .writes
        .iter()
        .enumerate()
        .map(|(k, (from, w))| &ctx.inputs.streams[k][*from..*from + w.sent_at.len()])
        .collect();
    for i in 0..slices.iter().map(|s| s.len()).max().unwrap_or(0) {
        updates.extend(slices.iter().filter_map(|s| s.get(i)).cloned());
    }
    let queries: Vec<String> =
        ctx.inputs.queries[at_b.queries..at_b.queries + b.reads.sent].to_vec();
    let group =
        stats::median(&during.iter().map(|s| s[4]).collect::<Vec<_>>()).round().max(1.0) as usize;
    let layer_dir = ctx.work.join("layers");
    std::fs::create_dir_all(&layer_dir).map_err(io_err)?;
    let replay = layers::Replay {
        program: &state,
        updates: &updates,
        queries: &queries,
        group,
        inflight: ctx.w.window() * ctx.w.writers(),
        shards: ctx.w.shards(),
        dir: &layer_dir,
        crashed_store: crashed.as_deref(),
        budget: Duration::from_secs_f64(secs / 4.0),
    };
    let l = layers::measure(&replay, &mut rec)?;

    let (ua, ub) = (end_to_end(&a), end_to_end(&b));
    let value =
        |ms: &[Metric], name: &str| ms.iter().find(|m| m.name == name).map_or(0.0, |m| m.value);
    let wire_submit_us = value(&ub, "submit_p50_ms") * 1e3;
    let wire_query_us = value(&ub, "query_p50_ms") * 1e3;
    let idle_frac = idle_fraction(&rec);
    // The in-process path the server's front-end takes: one service, or
    // the shard router over several.
    let inproc_ack_us = if ctx.w.shards() > 1 { l.shard_ack_us } else { l.service_ack_us };
    let mut metrics: Vec<Metric> = l
        .metrics
        .iter()
        .map(|&(name, value, unit)| Metric { name, value, unit, note: String::new() })
        .collect();
    let lines = &b.reads.lines;
    metrics.extend([
        Metric {
            name: "net.submit_overhead_us",
            value: wire_submit_us - inproc_ack_us,
            unit: "us",
            note: format!("wire p50 {wire_submit_us:.0} - in-process {inproc_ack_us:.0}"),
        },
        Metric {
            name: "net.query_overhead_us",
            value: wire_query_us - l.query_us,
            unit: "us",
            note: format!("wire p50 {wire_query_us:.0} - in-process {:.0}", l.query_us),
        },
        Metric {
            name: "net.lines_per_query",
            value: stats::mean(&lines.iter().map(|&n| n as f64).collect::<Vec<_>>()),
            unit: "count",
            note: format!("n={}", lines.len()),
        },
        Metric {
            name: "client.late_ms",
            value: summarize(&b.reads.late_ms).map_or(0.0, |s| s.tail),
            unit: "ms",
            note: format!("tail, n={}", b.reads.late_ms.len()),
        },
        Metric {
            name: "client.idle_frac",
            value: idle_frac,
            unit: "ratio",
            note: "writer self time / writer span".into(),
        },
        Metric {
            name: "server.wait_us",
            value: stage(0),
            unit: "us",
            note: format!("n={} spans", during.len()),
        },
        Metric { name: "server.apply_us", value: stage(1), unit: "us", note: String::new() },
        Metric { name: "server.fsync_us", value: stage(2), unit: "us", note: String::new() },
        Metric { name: "server.publish_us", value: stage(3), unit: "us", note: String::new() },
        Metric { name: "server.group_size", value: stage(4), unit: "count", note: String::new() },
    ]);
    for (name, traced_name, unit) in [
        ("submit_per_s", "trace_overhead.submit_per_s", "1/s"),
        ("submit_p50_ms", "trace_overhead.submit_p50_ms", "ms"),
        ("query_per_s", "trace_overhead.query_per_s", "1/s"),
        ("query_p50_ms", "trace_overhead.query_p50_ms", "ms"),
    ] {
        let (traced, untraced) = (value(&ub, name), value(&ua, name));
        metrics.push(Metric {
            name: traced_name,
            value: traced - untraced,
            unit,
            note: format!("traced {traced:.3} - untraced {untraced:.3}"),
        });
    }
    let spans_file = root.join(format!("spans-{}-seed{}.jsonl", ctx.w.name(), ctx.seed));
    rec.write_jsonl(
        &spans_file,
        &format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"host_cpus\":{}}}",
            ctx.w.name(),
            ctx.seed,
            std::thread::available_parallelism().map_or(1, |n| n.get())
        ),
    )
    .map_err(io_err)?;
    println!("spans: {} written to {}", rec.spans().len(), spans_file.display());
    let attempted = a.attempted() + b.attempted();
    let failed = f.unpredicted + failed_reads;
    Ok(Report { correct: problems.is_empty() && failed == 0, attempted, failed, metrics, problems })
}

/// The share of the writer connections' spans not covered by any request
/// span: time the generator, not the server, held the next request back.
fn idle_fraction(rec: &Recorder) -> f64 {
    let spans = rec.spans();
    let (mut idle, mut total) = (0u64, 0u64);
    for parent in spans.iter().filter(|s| s.name == "wire.writer") {
        let children: Vec<(u64, u64)> =
            spans.iter().filter(|s| s.parent == parent.id).map(|s| (s.start, s.end)).collect();
        idle += stats::self_time(parent.start, parent.end, &children);
        total += parent.end - parent.start;
    }
    if total == 0 {
        0.0
    } else {
        idle as f64 / total as f64
    }
}
