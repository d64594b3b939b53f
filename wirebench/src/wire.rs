//! The program as seen from outside: a spawned `strata-serve`, its
//! `/proc/<pid>` counters, and line-protocol connections over loopback.

use std::collections::{HashMap, VecDeque};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use stratamaint::core::Update;
use stratamaint::service::protocol::render_update;

use crate::stats::{jitter, Schedule};
use crate::trace::Recorder;

/// How long any single response may take before the request counts as
/// failed and the run stops.
pub const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// A running `strata-serve` child. Dropping it kills the process and waits
/// for it, so no server outlives the benchmark, even on an error path.
pub struct Server {
    child: Child,
    // Held open so the server's later stderr lines never hit a closed pipe.
    _stderr: BufReader<ChildStderr>,
    /// The address it listens on.
    pub addr: String,
}

impl Server {
    /// Spawns `bin` on an ephemeral loopback port and waits for its first
    /// `ok` reply. Returns the server, the connection that got the reply,
    /// and the seconds from spawn to that reply (set-up time).
    pub fn start(bin: &Path, args: &[String]) -> io::Result<(Server, Conn, f64)> {
        let t0 = Instant::now();
        let mut child = Command::new(bin)
            .arg("127.0.0.1:0")
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut log = String::new();
        let addr = loop {
            let mut line = String::new();
            if stderr.read_line(&mut line)? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::other(format!("strata-serve exited early:\n{log}")));
            }
            if let Some(rest) = line.split("listening on ").nth(1) {
                break rest.split_whitespace().next().unwrap_or_default().to_string();
            }
            log.push_str(&line);
        };
        let server = Server { child, _stderr: stderr, addr };
        let mut conn = Conn::connect(&server.addr)?;
        let reply = conn.request("stats")?;
        let setup = t0.elapsed().as_secs_f64();
        if !reply.last().is_some_and(|l| l.starts_with("ok ")) {
            return Err(io::Error::other(format!("first reply was not ok: {reply:?}")));
        }
        Ok((server, conn, setup))
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// SIGKILLs the server and reaps it: a crash with no shutdown path.
    pub fn kill(mut self) {
        self.reap();
    }

    fn reap(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// CPU time of all the server's live threads, in nanoseconds
    /// (`/proc/<pid>/task/*/schedstat`, nanosecond resolution).
    pub fn cpu_ns(&self) -> io::Result<u64> {
        let mut total = 0;
        for task in std::fs::read_dir(format!("/proc/{}/task", self.pid()))? {
            let path = task?.path().join("schedstat");
            // A thread may exit between listing and reading.
            if let Ok(text) = std::fs::read_to_string(path) {
                total += text.split_whitespace().next().and_then(|v| v.parse().ok()).unwrap_or(0);
            }
        }
        Ok(total)
    }

    /// Peak resident set (`VmHWM`), in KiB.
    pub fn peak_rss_kib(&self) -> io::Result<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.reap();
    }
}

/// One client connection: whole request lines out (one write each, no
/// Nagle delay on the client side), response lines in.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    scanned: usize,
}

impl Conn {
    /// Connects to `addr`.
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        Ok(Conn { stream, buf: Vec::with_capacity(1 << 16), scanned: 0 })
    }

    /// Sends one request line.
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        self.send_all(&[line])
    }

    /// Sends request lines in one write, as a pipelining client does.
    pub fn send_all(&mut self, lines: &[impl AsRef<str>]) -> io::Result<()> {
        let mut bytes = Vec::with_capacity(lines.iter().map(|l| l.as_ref().len() + 1).sum());
        for line in lines {
            bytes.extend_from_slice(line.as_ref().as_bytes());
            bytes.push(b'\n');
        }
        self.stream.write_all(&bytes)
    }

    /// A response line already received, without waiting for more.
    fn buffered(&mut self) -> Option<String> {
        let pos = self.buf[self.scanned..].iter().position(|&b| b == b'\n')?;
        let end = self.scanned + pos;
        let line = String::from_utf8_lossy(&self.buf[..end]).into_owned();
        self.buf.drain(..=end);
        self.scanned = 0;
        Some(line)
    }

    /// The next response line. With `until`, returns `Ok(None)` if no whole
    /// line arrived by then; without it, waits up to [`IO_TIMEOUT`] and
    /// errors after that.
    pub fn recv(&mut self, until: Option<Instant>) -> io::Result<Option<String>> {
        loop {
            if let Some(line) = self.buffered() {
                return Ok(Some(line));
            }
            self.scanned = self.buf.len();
            if let Some(t) = until {
                let left = t.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Ok(None);
                }
                if !readable_within(&self.stream, left)? {
                    continue;
                }
            }
            let mut chunk = [0u8; 1 << 16];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
                {
                    return Err(io::Error::new(io::ErrorKind::TimedOut, "response timed out"));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Sends one untagged request and collects its response up to and
    /// including the `ok`/`err` terminator.
    pub fn request(&mut self, line: &str) -> io::Result<Vec<String>> {
        self.send(line)?;
        let mut lines = Vec::new();
        loop {
            let l = self.recv(None)?.expect("recv without a deadline yields a line");
            let done = is_terminator(&l);
            lines.push(l);
            if done {
                return Ok(lines);
            }
        }
    }

    /// Sends a request whose response must be a single `ok …` line.
    pub fn expect_ok(&mut self, line: &str) -> io::Result<String> {
        let reply = self.request(line)?;
        match reply.last() {
            Some(l) if l.starts_with("ok") => Ok(l.clone()),
            _ => Err(io::Error::other(format!("`{line}` failed: {reply:?}"))),
        }
    }
}

/// Waits until `stream` has data to read or `wait` passes; `true` if
/// readable. Uses `ppoll(2)`, whose high-resolution timeout keeps the
/// open-loop reader on schedule (a socket read timeout wakes on the
/// kernel's coarser tick and would make the generator itself late).
fn readable_within(stream: &TcpStream, wait: Duration) -> io::Result<bool> {
    use std::os::fd::AsRawFd;

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        // libc's `ppoll`, always linked with std on Linux.
        fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    }
    const POLLIN: i16 = 0x1;
    let mut fd = PollFd { fd: stream.as_raw_fd(), events: POLLIN, revents: 0 };
    let timeout = Timespec {
        tv_sec: i64::try_from(wait.as_secs()).unwrap_or(i64::MAX),
        tv_nsec: i64::from(wait.subsec_nanos()),
    };
    // SAFETY: `fd` and `timeout` are live, properly laid-out `struct pollfd`
    // and `struct timespec` values for the duration of the call, `nfds` is
    // 1 to match the single `pollfd`, and a null signal mask is allowed.
    let ready = unsafe { ppoll(&mut fd, 1, &timeout, std::ptr::null()) };
    match ready {
        n if n > 0 => Ok(true),
        0 => Ok(false),
        _ => {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                Ok(false)
            } else {
                Err(e)
            }
        }
    }
}

fn is_terminator(line: &str) -> bool {
    line == "ok" || line.starts_with("ok ") || line == "err" || line.starts_with("err ")
}

/// Splits `#tag rest` into its parts.
fn split_tag(line: &str) -> (Option<&str>, &str) {
    match line.strip_prefix('#') {
        Some(after) => match after.split_once(' ') {
            Some((tag, rest)) => (Some(tag), rest),
            None => (Some(after), ""),
        },
        None => (None, line),
    }
}

/// The `key=<u64>` field of a response line.
pub fn field(line: &str, key: &str) -> Option<u64> {
    line.split_whitespace().find_map(|kv| kv.strip_prefix(key)?.strip_prefix('=')?.parse().ok())
}

/// The last acked update of a writer and its commit version, shared with
/// the reader for `query @<version>`.
#[derive(Default)]
pub struct LastAck {
    /// `(index into the stream, version)`, if anything was acked yet.
    pub inner: Mutex<Option<(usize, u64)>>,
}

/// What one writer connection saw.
#[derive(Default)]
pub struct Writes {
    /// Send instant of each sent update, in stream order.
    pub sent_at: Vec<Instant>,
    /// The decision for each sent update: `Ok(version)` or the `err` text.
    pub outcomes: Vec<Result<u64, String>>,
    /// Send-to-ack latencies, ms.
    pub latency_ms: Vec<f64>,
    /// Acks received before the phase deadline.
    pub acked_in_phase: usize,
}

/// Longest pause a writer takes after its window drains, before it sends
/// again. The seeded pause keeps requests from locking onto the phase of a
/// kernel timer tick (delayed ACKs), which would otherwise pick one latency
/// mode for a whole run.
pub const THINK_MAX: Duration = Duration::from_millis(4);

/// A closed-loop writer: keeps `window` tagged submits in flight on `conn`
/// until `deadline`, then stops sending and drains. `None` as deadline
/// sends the whole stream. Acks that have already arrived are all taken
/// before the window is refilled in one write, as a pipelining client
/// does; a window that drained completely is refilled after a think time
/// below [`THINK_MAX`], drawn from `seed`.
pub fn write_closed_loop(
    conn: &mut Conn,
    stream: &[Update],
    window: usize,
    deadline: Option<Instant>,
    last: Option<&LastAck>,
    seed: u64,
    rec: &mut Recorder,
) -> io::Result<Writes> {
    let mut w = Writes::default();
    let mut inflight: VecDeque<usize> = VecDeque::with_capacity(window);
    let parent = rec.reserve();
    let start = Instant::now();
    let mut batch: Vec<String> = Vec::with_capacity(window);
    loop {
        while inflight.len() + batch.len() < window
            && w.sent_at.len() + batch.len() < stream.len()
            && deadline.is_none_or(|d| Instant::now() < d)
        {
            let i = w.sent_at.len() + batch.len();
            batch.push(format!("#{i} submit {}", render_update(&stream[i])));
        }
        if !batch.is_empty() {
            if inflight.is_empty() {
                std::thread::sleep(jitter(seed, w.sent_at.len() as u64, THINK_MAX));
            }
            conn.send_all(&batch)?;
            let at = Instant::now();
            for _ in batch.drain(..) {
                inflight.push_back(w.sent_at.len());
                w.sent_at.push(at);
            }
        }
        if inflight.is_empty() {
            break;
        }
        // Take every ack that has arrived before refilling.
        let mut line = conn.recv(None)?.expect("recv without a deadline yields a line");
        loop {
            let now = Instant::now();
            let front = inflight.pop_front().expect("an ack answers an in-flight submit");
            let (tag, rest) = split_tag(&line);
            if tag != Some(front.to_string().as_str()) {
                return Err(io::Error::other(format!(
                    "ack out of order: expected #{front}, got {line}"
                )));
            }
            rec.record("wire.submit", parent, front as u64, w.sent_at[front], now);
            w.latency_ms.push(now.duration_since(w.sent_at[front]).as_secs_f64() * 1e3);
            if deadline.is_none_or(|d| now <= d) {
                w.acked_in_phase += 1;
            }
            let outcome = match (rest.starts_with("ok "), field(rest, "version")) {
                (true, Some(v)) => Ok(v),
                _ => Err(rest.to_string()),
            };
            if let (Ok(v), Some(last)) = (&outcome, last) {
                *last.inner.lock().expect("last-ack lock") = Some((front, *v));
            }
            w.outcomes.push(outcome);
            match conn.buffered() {
                Some(next) if !inflight.is_empty() => line = next,
                Some(stray) => return Err(io::Error::other(format!("unexpected line: {stray}"))),
                None => break,
            }
        }
    }
    rec.record_as(parent, "wire.writer", 0, 0, start, Instant::now());
    Ok(w)
}

/// Where the reader takes its `@<version>` pin from.
pub enum Pin<'a> {
    /// A fixed version (reads after the writers finished).
    Fixed(u64),
    /// The live writer's last ack; every `check_every`-th query becomes a
    /// read-your-writes check of that acked update.
    Live { last: &'a LastAck, stream: &'a [Update], check_every: usize },
}

/// A read-your-writes probe: `query @v <fact>` right after the ack of
/// update `update` carried version `v`.
pub struct Check {
    /// Index of the checked update in the writer's stream.
    pub update: usize,
    /// Whether the fact held in the answer.
    pub holds: bool,
    /// When the answer arrived.
    pub answered: Instant,
}

/// What the open-loop reader saw.
#[derive(Default)]
pub struct Reads {
    /// Due-to-answer latencies, ms.
    pub latency_ms: Vec<f64>,
    /// How late each query was sent versus its schedule, ms.
    pub late_ms: Vec<f64>,
    /// Response lines per answered query.
    pub lines: Vec<usize>,
    /// Queries sent.
    pub sent: usize,
    /// From the schedule's start to the last answer, seconds.
    pub elapsed_secs: f64,
    /// `err` answers.
    pub errors: Vec<String>,
    /// Read-your-writes checks.
    pub checks: Vec<Check>,
}

/// An open-loop reader: sends `query @<pin> <body>` on `sched` until
/// `deadline`, whatever the answers do, and times each query from when it
/// was due.
pub fn read_open_loop(
    conn: &mut Conn,
    queries: &[String],
    sched: Schedule,
    deadline: Instant,
    pin: Pin<'_>,
    rec: &mut Recorder,
) -> io::Result<Reads> {
    let start = sched.start();
    let mut r = Reads::default();
    // tag -> (slot, lines so far, checked update)
    let mut pending: HashMap<String, (usize, usize, Option<usize>)> = HashMap::new();
    let mut sent_at: Vec<Instant> = Vec::new();
    let parent = rec.reserve();
    let drain_until = deadline + IO_TIMEOUT;
    loop {
        let now = Instant::now();
        let slot = r.sent;
        let sending = slot < queries.len() && sched.due(slot) < deadline;
        if sending && sched.due(slot) <= now {
            let (version, check) = match &pin {
                Pin::Fixed(v) => (*v, None),
                Pin::Live { last, stream, check_every } => {
                    match *last.inner.lock().expect("last-ack lock") {
                        Some((k, v)) if slot % check_every == check_every - 1 => {
                            (v, Some((k, fact_text(&stream[k]))))
                        }
                        Some((_, v)) => (v, None),
                        None => (0, None),
                    }
                }
            };
            let body = check.as_ref().map_or(queries[slot].as_str(), |(_, f)| f.as_str());
            conn.send(&format!("#q{slot} query @{version} {body}"))?;
            let at = Instant::now();
            r.late_ms.push(sched.lateness(slot, at).as_secs_f64() * 1e3);
            sent_at.push(at);
            pending.insert(format!("q{slot}"), (slot, 0, check.map(|(k, _)| k)));
            r.sent += 1;
            continue;
        }
        if !sending && pending.is_empty() {
            break;
        }
        let until = if sending { sched.due(slot) } else { drain_until };
        let Some(line) = conn.recv(Some(until))? else {
            if !sending {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "query answers timed out"));
            }
            continue;
        };
        let now = Instant::now();
        let (tag, rest) = split_tag(&line);
        let Some(entry) = tag.and_then(|t| pending.get_mut(t)) else {
            return Err(io::Error::other(format!("unexpected reader line: {line}")));
        };
        entry.1 += 1;
        if !is_terminator(rest) {
            continue;
        }
        let (slot, lines, check) = pending.remove(tag.expect("tag matched")).expect("pending");
        rec.record("wire.query", parent, slot as u64, sent_at[slot], now);
        r.latency_ms.push(sched.latency(slot, now).as_secs_f64() * 1e3);
        r.lines.push(lines);
        r.elapsed_secs = now.duration_since(start).as_secs_f64();
        match (rest.strip_prefix("ok "), check) {
            (Some(answer), Some(update)) => {
                r.checks.push(Check { update, holds: answer == "true", answered: now })
            }
            (Some(_), None) => {}
            (None, _) => r.errors.push(rest.to_string()),
        }
    }
    rec.record_as(parent, "wire.reader", 0, 0, start, Instant::now());
    Ok(r)
}

/// The fact an update touches, as query text.
pub fn fact_text(u: &Update) -> String {
    match u {
        Update::InsertFact(f) | Update::DeleteFact(f) => f.to_string(),
        other => panic!("fact updates only, got {other:?}"),
    }
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    let mut stack: Vec<PathBuf> = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d)? {
            let entry = entry?;
            let meta = entry.metadata()?;
            if meta.is_dir() {
                stack.push(entry.path());
            } else {
                total += meta.len();
            }
        }
    }
    Ok(total)
}

/// Copies the directory tree `from` to `to`.
pub fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.metadata()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_tags_and_fields() {
        assert_eq!(split_tag("#12 ok group=3 version=9"), (Some("12"), "ok group=3 version=9"));
        assert_eq!(split_tag("ok 3"), (None, "ok 3"));
        assert_eq!(field("ok group=3 version=9", "version"), Some(9));
        assert_eq!(field("ok submitted=1 model_facts=50", "model_facts"), Some(50));
        assert_eq!(field("ok group=3", "version"), None);
        assert!(
            is_terminator("ok") && is_terminator("err code=x y") && !is_terminator("row X = 1")
        );
    }
}
