//! Seeded workload inputs: the program file, each connection's update
//! stream, and the reader's queries. Everything is a pure function of the
//! workload and the seed; the server sees only the program file and the
//! wire lines rendered from these values.

use stratamaint::core::Update;
use stratamaint::datalog::{Fact, Program};

use stratamaint::workload::synth;

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One connection, window 1, small transitive-closure complement.
    IngestSerial,
    /// Two connections (one per department), window 128, two shards.
    IngestBulk,
    /// A recovered store, one writer at window 8 beside an open-loop reader.
    ReadMixed,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "ingest_serial" => Some(Workload::IngestSerial),
            "ingest_bulk" => Some(Workload::IngestBulk),
            "read_mixed" => Some(Workload::ReadMixed),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::IngestSerial => "ingest_serial",
            Workload::IngestBulk => "ingest_bulk",
            Workload::ReadMixed => "read_mixed",
        }
    }

    /// Writer connections.
    pub fn writers(self) -> usize {
        match self {
            Workload::IngestBulk => 2,
            _ => 1,
        }
    }

    /// Connections open at once: the writers, plus the reader in
    /// `read_mixed` (the ingest workloads read after writing, on the first
    /// writer's connection).
    pub fn connections(self) -> usize {
        match self {
            Workload::ReadMixed => 2,
            w => w.writers(),
        }
    }

    /// Generator threads: one per open connection.
    pub fn threads(self) -> usize {
        self.connections()
    }

    /// Pipelined submits in flight per writer connection. `ingest_bulk`
    /// keeps two of the server's default group watermark (64) in flight, so
    /// a full group is queued whenever a shard worker frees up.
    pub fn window(self) -> usize {
        match self {
            Workload::IngestSerial => 1,
            Workload::IngestBulk => 128,
            Workload::ReadMixed => 8,
        }
    }

    /// `--shards` for the server; more than 1 selects the cluster front-end.
    pub fn shards(self) -> u32 {
        match self {
            Workload::IngestBulk => 2,
            _ => 1,
        }
    }

    /// Open-loop reader rate, queries per second: far below what the
    /// server sustains, so the reader's queue stays bounded. At a higher
    /// rate answers take a few ms, and their tail swings with scheduling
    /// noise of the same size from run to run.
    pub fn read_rate(self) -> f64 {
        100.0
    }

    /// Updates the `read_mixed` load phase commits before the crash.
    pub fn load_len(self) -> usize {
        match self {
            Workload::ReadMixed => 240,
            _ => 0,
        }
    }

    /// A rule over the workload's model that the final checkpoint inserts
    /// and deletes again (see `finish` in `main.rs`).
    pub fn probe_rule(self) -> &'static str {
        match self {
            Workload::IngestBulk => "wirebench_probe(P) :- eligible_d0(P).",
            _ => "wirebench_probe(X) :- node(X).",
        }
    }

    /// Upper bound on writer throughput used to size the update streams,
    /// per connection: far above what the server does today, so a faster
    /// server never runs out of input.
    fn max_rate(self) -> usize {
        match self {
            Workload::IngestSerial => 5_000,
            Workload::IngestBulk => 10_000,
            Workload::ReadMixed => 2_000,
        }
    }
}

/// Everything a run sends.
pub struct Inputs {
    /// The seed program the server starts from (`--program`).
    pub program: Program,
    /// `read_mixed`: updates committed (then crashed) before set-up.
    pub load: Vec<Update>,
    /// One update stream per writer connection. Streams touch disjoint
    /// facts, so the final state does not depend on their interleaving.
    pub streams: Vec<Vec<Update>>,
    /// Query bodies for the open-loop reader, in send order.
    pub queries: Vec<String>,
}

/// A small deterministic generator (SplitMix64), independent of any
/// library's stream so inputs never change under a dependency.
pub struct Rng(u64);

impl Rng {
    /// Seeds the generator.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Node and edge counts of the small (`ingest_serial`, ~5×10³ facts) and
/// medium (`read_mixed`, ~10⁴ facts) reachability-complement models.
/// Half an edge per node keeps the graph below the giant-component
/// threshold: many small components whose merging shrinks `unreachable`.
const SMALL_TC: (usize, usize) = (70, 35);
const MEDIUM_TC: (usize, usize) = (100, 50);
/// Papers per department in `ingest_bulk` (~1.2×10⁴ facts over two).
const PAPERS: usize = 2_000;

/// Generates a run's inputs for `seconds` of measurement.
pub fn generate(workload: Workload, seed: u64, seconds: u64) -> Inputs {
    let mut rng = Rng::new(seed);
    let program_seed = rng.next_u64();
    let stream_seed = rng.next_u64();
    let per_conn = workload.max_rate() * seconds as usize;
    let n_queries = (workload.read_rate() * seconds as f64) as usize * 2 + 64;
    match workload {
        Workload::IngestSerial | Workload::ReadMixed => {
            let (nodes, edges) =
                if workload == Workload::IngestSerial { SMALL_TC } else { MEDIUM_TC };
            let program = synth::tc_complement(nodes, edges, program_seed);
            let load_len = workload.load_len();
            let mut stream = edge_churn(&program, nodes, load_len + per_conn, stream_seed);
            let rest = stream.split_off(load_len);
            // `read_mixed` reads rows (tens per answer); `ingest_serial`
            // reads single facts.
            let queries = (0..n_queries)
                .map(|i| {
                    let rel = if i % 2 == 0 { "unreachable" } else { "path" };
                    let to = if workload == Workload::ReadMixed {
                        "Y".to_string()
                    } else {
                        rng.below(nodes).to_string()
                    };
                    format!("{rel}({}, {to})", rng.below(nodes))
                })
                .collect();
            Inputs { program, load: stream, streams: vec![rest], queries }
        }
        Workload::IngestBulk => {
            let program = synth::departments(2, PAPERS, program_seed);
            let streams = (0..2)
                .map(|d| toggles(&program, d, per_conn, stream_seed ^ (d as u64 + 1)))
                .collect();
            let queries = (0..n_queries)
                .map(|i| {
                    let rel = if i % 2 == 0 { "accepted" } else { "eligible" };
                    format!("{rel}_d{}(p{})", rng.below(2), 1 + rng.below(PAPERS))
                })
                .collect();
            Inputs { program, load: Vec::new(), streams, queries }
        }
    }
}

/// `len` edge updates over the program's fixed node set, alternating
/// between inserting an absent edge and deleting a present one. The edge
/// count, and with it the model's size, stays put while reachability
/// churns, so every stretch of a run costs about the same. (A script that
/// also deletes `node` facts shrinks the model by a seed-dependent amount
/// as it runs.)
fn edge_churn(program: &Program, nodes: usize, len: usize, seed: u64) -> Vec<Update> {
    let mut rng = Rng::new(seed);
    let mut present: Vec<Fact> =
        program.facts().filter(|f| f.rel.as_str() == "edge").cloned().collect();
    present.sort();
    let mut set: std::collections::HashSet<Fact> = present.iter().cloned().collect();
    (0..len)
        .map(|i| {
            if i % 2 == 1 && !present.is_empty() {
                let fact = present.swap_remove(rng.below(present.len()));
                set.remove(&fact);
                return Update::DeleteFact(fact);
            }
            loop {
                let fact =
                    Fact::parse(&format!("edge({}, {})", rng.below(nodes), rng.below(nodes)))
                        .expect("generated edge parses");
                if set.insert(fact.clone()) {
                    present.push(fact.clone());
                    return Update::InsertFact(fact);
                }
            }
        })
        .collect()
}

/// `len` updates that each toggle one `withdrawn_d<d>` / `strong_d<d>`
/// fact of department `d`: a delete if the fact is asserted at that point
/// of the stream, an insert otherwise, so every update is valid.
fn toggles(program: &Program, d: usize, len: usize, seed: u64) -> Vec<Update> {
    let mut rng = Rng::new(seed);
    let mut asserted: std::collections::HashSet<Fact> = program.facts().cloned().collect();
    (0..len)
        .map(|_| {
            let rel = if rng.below(2) == 0 { "withdrawn" } else { "strong" };
            let fact = Fact::parse(&format!("{rel}_d{d}(p{})", 1 + rng.below(PAPERS)))
                .expect("generated fact parses");
            if asserted.remove(&fact) {
                Update::DeleteFact(fact)
            } else {
                asserted.insert(fact.clone());
                Update::InsertFact(fact)
            }
        })
        .collect()
}

#[cfg(test)]
impl Inputs {
    /// Every byte the inputs put on disk or on the wire, in order: the
    /// program file, then each stream's submit lines, then the queries.
    pub fn render(&self) -> String {
        use stratamaint::service::protocol::render_update;
        let mut out = self.program.to_string();
        for u in self.load.iter().chain(self.streams.iter().flatten()) {
            out.push_str(&render_update(u));
            out.push('\n');
        }
        for q in &self.queries {
            out.push_str(q);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        for w in [Workload::IngestSerial, Workload::IngestBulk, Workload::ReadMixed] {
            let a = generate(w, 7, 1).render();
            let b = generate(w, 7, 1).render();
            assert_eq!(a, b, "{w:?}");
            assert_ne!(a, generate(w, 8, 1).render(), "{w:?}: the seed must matter");
        }
    }

    #[test]
    fn program_file_round_trips() {
        for w in [Workload::IngestSerial, Workload::IngestBulk, Workload::ReadMixed] {
            let p = generate(w, 3, 1).program;
            let back = Program::parse(&p.to_string()).unwrap();
            assert_eq!(back.to_string(), p.to_string(), "{w:?}");
        }
    }

    #[test]
    fn bulk_streams_touch_disjoint_facts() {
        let inputs = generate(Workload::IngestBulk, 5, 1);
        let rels = |s: &[Update]| -> std::collections::HashSet<String> {
            s.iter()
                .map(|u| match u {
                    Update::InsertFact(f) | Update::DeleteFact(f) => f.rel.as_str().to_string(),
                    _ => panic!("fact updates only"),
                })
                .collect()
        };
        let (a, b) = (rels(&inputs.streams[0]), rels(&inputs.streams[1]));
        assert!(a.is_disjoint(&b), "{a:?} vs {b:?}");
    }
}
