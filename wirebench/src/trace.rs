//! In-memory spans recorded around the benchmark's own calls: name, start,
//! end, parent, and request id. They are written out as JSON lines when
//! the run ends, never while it measures.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the recorder's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique within the run.
    pub id: u64,
    /// The enclosing span, 0 for none.
    pub parent: u64,
    /// Layer-qualified name, e.g. `wire.submit` or `core.apply`.
    pub name: &'static str,
    /// The request (or group) this span belongs to.
    pub req: u64,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
}

/// A span sink. Disabled recorders drop everything, so untraced code
/// paths pay one branch per call.
pub struct Recorder {
    epoch: Instant,
    on: bool,
    next_id: u64,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder with ids starting at `id_base + 1`; give each thread its
    /// own base so merged spans keep unique ids.
    pub fn new(epoch: Instant, on: bool, id_base: u64) -> Recorder {
        Recorder { epoch, on, next_id: id_base, spans: Vec::new() }
    }

    /// An empty recorder with this one's epoch and switch, for another thread.
    pub fn fork(&self, id_base: u64) -> Recorder {
        Recorder::new(self.epoch, self.on, id_base)
    }

    /// A fresh span id, for a parent whose end is not known yet.
    pub fn reserve(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records `[start, end)` under a reserved id.
    pub fn record_as(
        &mut self,
        id: u64,
        name: &'static str,
        parent: u64,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        if self.on {
            let (start, end) = (self.ns(start), self.ns(end));
            self.spans.push(Span { id, parent, name, req, start, end });
        }
    }

    /// Records `[start, end)` under a new id and returns it.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.reserve();
        self.record_as(id, name, parent, req, start, end);
        id
    }

    /// Takes over another recorder's spans.
    pub fn merge(&mut self, other: Recorder) {
        self.spans.extend(other.spans);
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.req, s.start, s.end
            )?;
        }
        out.flush()
    }
}
