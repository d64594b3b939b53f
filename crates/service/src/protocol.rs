//! The line-oriented text protocol of the TCP front-end.
//!
//! Requests and responses are single lines of UTF-8, newline-terminated;
//! fact, rule, and query text rides the crate's existing `Display`/parse
//! round-trip (symbols are quoted on write, so arbitrary names survive
//! the wire). A request line longer than [`crate::net::MAX_REQUEST_LINE`]
//! (1 MiB, newline included) is answered `err code=too-long <reason>` and
//! the connection is closed.
//!
//! ## Grammar
//!
//! ```text
//! request  ::= tag? verb
//! tag      ::= "#" token SP                   -- client-chosen request id
//! verb     ::= "submit" SP seq? update
//!            | "query" SP at? body
//!            | "client" SP token              -- declare a client id
//!            | "trace" (SP n)?                -- last n group spans (16)
//!            | "use" SP name                  -- bind this connection to a database
//!            | "db" SP ("create" SP name | "drop" SP name | "list")
//!            | "flush" | "compact" | "stats" | "metrics" | "quit" | "shutdown"
//! seq      ::= "seq=" n SP                    -- idempotency token
//! at       ::= "@" version SP                 -- read-your-writes pin
//! update   ::= ("+" | "-") SP? clause        -- insert | delete
//! clause   ::= fact | rule                    -- `p(1)` or `p(X) :- q(X).`
//! body     ::= literal ("," literal)*         -- `rejected(X), !late(X)`
//! ```
//!
//! ## Responses
//!
//! Every request ends with exactly one terminator line starting `ok` or
//! `err`; a `query` may stream `row <bindings>` lines before it. When the
//! request carried a tag, **every** line of its response is prefixed with
//! the same `#tag ` — and responses to differently-tagged requests may
//! interleave in any order (pipelining). Untagged requests are answered in
//! order, untagged.
//!
//! ```text
//! submit → "ok group=<n> version=<v>"  accepted (durable once delivered;
//!        |                             the published snapshot already
//!        |                             carries version <v>)
//!        | "err code=<code> <reason>"  rejected, database unchanged
//! query  → ("row <bindings>")* then "ok <count>"   -- binding queries
//!        | "ok true" | "ok false"                  -- boolean queries
//! client → "ok client=<id>"
//! flush  → "ok flushed version=<v>"
//! compact → "ok compacted seq=<n>"     -- checkpoint the durable store
//!         | "err <reason>"             -- in-memory engine: nothing to compact
//! stats  → "ok <key>=<value> ..."
//! metrics → (exposition line)* then "ok <count>"   -- Prometheus text
//! trace  → ("span <fields>")* then "ok <count>"    -- recent group spans
//! use    → "ok db=<name>"
//! db create → "ok created db=<name>"
//! db drop   → "ok dropped db=<name>"
//! db list   → ("db <name> shards=<n> facts=<m>")* then "ok <count>"
//! quit   → "ok bye"
//! shutdown → "ok shutting down"
//! ```
//!
//! The `use` / `db` verbs exist only on a multi-tenant front-end
//! ([`crate::net::serve_cluster`]); a single-database server answers them
//! with an `err` line. Every connection starts bound to the `default`
//! database; `use <name>` rebinds it, and the binding holds the database
//! open — `db drop` refuses a database any connection is still bound to.
//! On a tenant-bound connection `stats` appends ` db=<name> shards=<n>`
//! after the fixed key sequence (appended, never inserted, so the legacy
//! prefix keeps its wire contract).
//!
//! `metrics` streams the global registry in Prometheus text exposition
//! format (`# TYPE` comments and `name{label} value` samples, sorted by
//! metric name — see [`strata_obs`]); `# TYPE` lines never collide with
//! response tags because a tag is `#token` with **no** space after the
//! hash. `trace <n>` streams the last `n` (default 16) sealed group
//! spans, oldest first, one `span ` line each
//! ([`strata_obs::GroupSpan::render`]).
//!
//! ## Failure surface
//!
//! A rejected submit's `err` line leads with a stable machine-readable
//! `code=<code>` token ([`strata_core::MaintenanceError::code`]). Semantic
//! codes (`not-asserted`, `unknown-rule`, `unstratified`, `datalog`) are
//! deterministic — retrying is pointless. Infrastructure codes (`storage`,
//! `panicked`, `read-only`, `shutdown`) are **retryable**
//! ([`strata_core::MaintenanceError::is_retryable`]); paired with
//! `client <id>` + `submit seq=<n>` the retry is also **idempotent**: the
//! server's dedup window replays an already-decided `(client, seq)` rather
//! than re-applying it.
//!
//! ## Idempotent submission
//!
//! `client <id>` declares the connection's client identity; after it,
//! `submit seq=<n> <update>` routes through the service's dedup window
//! keyed by `(id, n)`. Retries of the same `seq` — after a dropped
//! connection, a worker panic, a read-only window — are safe: an
//! already-acked update is never applied twice.
//!
//! Queries and stats are answered from the published snapshot — they never
//! wait on an in-flight commit. `query @<version> body` first waits
//! (bounded by [`crate::IngestConfig::read_wait`]) until the published
//! snapshot reaches `version`; pinning the version from one's own `submit`
//! ack is read-your-writes on any connection.

use strata_core::Update;
use strata_datalog::{Fact, Query, Rule};

use crate::queue::Outcome;
use crate::service::ServiceStats;

/// A parsed client request.
#[derive(Clone, Debug)]
pub enum Request {
    /// Enqueue one update; `seq` (with a declared client id) routes it
    /// through the idempotent dedup window.
    Submit {
        /// The update to enqueue.
        update: Update,
        /// Idempotency token (`submit seq=<n> …`).
        seq: Option<u64>,
    },
    /// Evaluate a query against the published snapshot; `at` pins a
    /// minimum commit version (read-your-writes).
    Query {
        /// The compiled query body.
        query: Query,
        /// Wait until the published snapshot reaches this version first.
        at: Option<u64>,
    },
    /// Declare this connection's client identity for idempotent submits.
    Hello {
        /// The client-chosen id (`client <id>`).
        client: String,
    },
    /// Wait until everything submitted before this point is decided.
    Flush,
    /// Checkpoint the durable store (snapshot + empty the WAL), honoring
    /// the engine's configured snapshot mode.
    Compact,
    /// A stats snapshot.
    Stats,
    /// The global metrics registry in Prometheus text exposition format.
    Metrics,
    /// The last `n` sealed group spans from the trace ring.
    Trace {
        /// How many spans to return (`trace <n>`, default 16).
        n: usize,
    },
    /// Bind this connection to a database (`use <name>`).
    Use {
        /// The database name.
        db: String,
    },
    /// Create a database (`db create <name>`).
    DbCreate {
        /// The database name.
        db: String,
    },
    /// List every database (`db list`).
    DbList,
    /// Drop a database (`db drop <name>`).
    DbDrop {
        /// The database name.
        db: String,
    },
    /// Close the connection.
    Quit,
    /// Ask the server to shut down gracefully (stop accepting, drain the
    /// queue, checkpoint, exit).
    Shutdown,
}

/// Splits an optional `#tag ` prefix off a request or response line.
/// A tag is `#` followed by one non-empty whitespace-free token; the rest
/// of the line follows after whitespace. A lone `#token` with no payload
/// yields an empty rest (an error for requests, caught downstream).
pub fn split_tag(line: &str) -> (Option<&str>, &str) {
    let trimmed = line.trim_start();
    let Some(after_hash) = trimmed.strip_prefix('#') else {
        return (None, line);
    };
    let end = after_hash.find(char::is_whitespace).unwrap_or(after_hash.len());
    if end == 0 {
        return (None, line); // `# ...`: empty tag is no tag
    }
    (Some(&after_hash[..end]), after_hash[end..].trim_start())
}

/// Prefixes `line` with `#tag ` when a tag is present (the response-side
/// inverse of [`split_tag`]).
pub fn render_tagged(tag: Option<&str>, line: &str) -> String {
    match tag {
        Some(t) => format!("#{t} {line}"),
        None => line.to_string(),
    }
}

/// Parses `("+" | "-") clause` into an update — the same surface grammar
/// as the `strata` shell.
pub fn parse_update(line: &str) -> Result<Update, String> {
    let line = line.trim();
    let (insert, rest) = if let Some(rest) = line.strip_prefix('+') {
        (true, rest)
    } else if let Some(rest) = line.strip_prefix('-') {
        (false, rest)
    } else {
        return Err("update must start with `+` (insert) or `-` (delete)".into());
    };
    let src = rest.trim().trim_end_matches('.');
    if let Ok(f) = Fact::parse(src) {
        return Ok(if insert { Update::InsertFact(f) } else { Update::DeleteFact(f) });
    }
    match Rule::parse(&format!("{src}.")) {
        Ok(r) => Ok(if insert { Update::InsertRule(r) } else { Update::DeleteRule(r) }),
        Err(e) => Err(format!("cannot parse `{src}` as fact or rule: {e}")),
    }
}

/// Renders an update back into the `submit` surface form.
pub fn render_update(update: &Update) -> String {
    match update {
        Update::InsertFact(f) => format!("+ {f}"),
        Update::DeleteFact(f) => format!("- {f}"),
        Update::InsertRule(r) => format!("+ {r}"),
        Update::DeleteRule(r) => format!("- {r}"),
    }
}

/// Parses one request line.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let line = line.trim();
    let (verb, rest) = match line.find(char::is_whitespace) {
        Some(i) => (&line[..i], line[i..].trim()),
        None => (line, ""),
    };
    match verb {
        "submit" => {
            let (seq, rest) = match rest.strip_prefix("seq=") {
                Some(after) => {
                    let end = after.find(char::is_whitespace).unwrap_or(after.len());
                    let seq: u64 = after[..end]
                        .parse()
                        .map_err(|_| format!("bad sequence `seq={}`", &after[..end]))?;
                    (Some(seq), after[end..].trim_start())
                }
                None => (None, rest),
            };
            parse_update(rest).map(|update| Request::Submit { update, seq })
        }
        "client" => {
            if rest.is_empty() || rest.contains(char::is_whitespace) {
                Err("client needs one whitespace-free id (`client <id>`)".into())
            } else {
                Ok(Request::Hello { client: rest.to_string() })
            }
        }
        "query" => {
            let (at, body) = match rest.strip_prefix('@') {
                Some(after) => {
                    let end = after.find(char::is_whitespace).unwrap_or(after.len());
                    let version: u64 = after[..end]
                        .parse()
                        .map_err(|_| format!("bad version `@{}`", &after[..end]))?;
                    (Some(version), after[end..].trim_start())
                }
                None => (None, rest),
            };
            Query::parse(body.trim_end_matches('.'))
                .map(|query| Request::Query { query, at })
                .map_err(|e| format!("cannot parse query: {e}"))
        }
        "flush" if rest.is_empty() => Ok(Request::Flush),
        "compact" if rest.is_empty() => Ok(Request::Compact),
        "stats" if rest.is_empty() => Ok(Request::Stats),
        "metrics" if rest.is_empty() => Ok(Request::Metrics),
        "trace" => {
            if rest.is_empty() {
                Ok(Request::Trace { n: 16 })
            } else {
                rest.parse()
                    .map(|n| Request::Trace { n })
                    .map_err(|_| format!("bad span count `trace {rest}`"))
            }
        }
        "use" => {
            if rest.is_empty() || rest.contains(char::is_whitespace) {
                Err("use needs one database name (`use <db>`)".into())
            } else {
                Ok(Request::Use { db: rest.to_string() })
            }
        }
        "db" => {
            let (sub, name) = match rest.find(char::is_whitespace) {
                Some(i) => (&rest[..i], rest[i..].trim()),
                None => (rest, ""),
            };
            match sub {
                "list" if name.is_empty() => Ok(Request::DbList),
                "create" | "drop" => {
                    if name.is_empty() || name.contains(char::is_whitespace) {
                        Err(format!("db {sub} needs one database name (`db {sub} <name>`)"))
                    } else if sub == "create" {
                        Ok(Request::DbCreate { db: name.to_string() })
                    } else {
                        Ok(Request::DbDrop { db: name.to_string() })
                    }
                }
                other => Err(format!("unknown db subcommand `{other}` (create | list | drop)")),
            }
        }
        "quit" if rest.is_empty() => Ok(Request::Quit),
        "shutdown" if rest.is_empty() => Ok(Request::Shutdown),
        "" => Err("empty request".into()),
        other => Err(format!(
            "unknown verb `{other}` (submit | query | client | use | db | flush | compact | \
             stats | metrics | trace | quit | shutdown)"
        )),
    }
}

/// Renders a submit decision as its terminator line. Rejections lead with
/// the stable machine-readable `code=` token so clients can classify
/// (retryable vs deterministic) without parsing prose.
pub fn render_outcome(outcome: &Outcome) -> String {
    match outcome {
        Outcome::Accepted { group, version } => format!("ok group={group} version={version}"),
        Outcome::Rejected(e) => format!("err code={} {e}", e.code()),
    }
}

/// Renders the stats snapshot as its terminator line.
///
/// The key order is **fixed** — part of the wire contract, so scripted
/// consumers (and diffs of captured output) stay stable across releases:
///
/// ```text
/// submitted accepted rejected groups commits committed_updates coalesced
/// flushes pending blocked snapshot_version snapshot_reads model_facts
/// worker_restarts deduped read_only
/// ```
///
/// followed, for storage-backed engines only, by
///
/// ```text
/// wal_txns wal_bytes recovered_txns recovered_updates recovered_torn_tail
/// recovered_quarantined recovery_ms snapshot_chain_len snapshot_seq
/// replay_mode
/// ```
///
/// New keys are only ever appended, never inserted or reordered.
pub fn render_stats(s: &ServiceStats) -> String {
    let mut line = format!(
        "ok submitted={} accepted={} rejected={} groups={} commits={} committed_updates={} \
         coalesced={} flushes={} pending={} blocked={} snapshot_version={} snapshot_reads={} \
         model_facts={} worker_restarts={} deduped={} read_only={}",
        s.submitted,
        s.accepted,
        s.rejected,
        s.groups,
        s.commits,
        s.committed_updates,
        s.coalesced,
        s.flushes,
        s.pending,
        s.blocked,
        s.snapshot_version,
        s.snapshot_reads,
        s.model_facts,
        s.worker_restarts,
        s.deduped,
        u8::from(s.read_only),
    );
    if let Some(d) = &s.durability {
        line.push_str(&format!(
            " wal_txns={} wal_bytes={} recovered_txns={} recovered_updates={} \
             recovered_torn_tail={} recovered_quarantined={}",
            d.wal_txns,
            d.wal_bytes,
            d.recovered_txns,
            d.recovered_updates,
            d.recovered_torn_tail,
            u8::from(d.recovered_quarantined),
        ));
        line.push_str(&format!(
            " recovery_ms={} snapshot_chain_len={} snapshot_seq={} replay_mode={}",
            d.recovery_ms,
            d.snapshot_chain_len,
            d.snapshot_seq,
            d.replay_mode.name(),
        ));
    }
    line
}

/// Renders the stats line for a tenant-bound connection: the fixed
/// [`render_stats`] sequence with ` db=<name> shards=<n>` **appended** at
/// the end — the legacy prefix never changes, so scripted consumers that
/// only know the single-database keys keep working against a cluster.
pub fn render_stats_for(s: &ServiceStats, db: &str, shards: u32) -> String {
    let mut line = render_stats(s);
    line.push_str(&format!(" db={db} shards={shards}"));
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use strata_core::MaintenanceError;

    #[test]
    fn parses_submit_updates() {
        let Request::Submit { update: Update::InsertFact(f), seq: None } =
            parse_request("submit + p(1)").unwrap()
        else {
            panic!("expected fact insert")
        };
        assert_eq!(f, Fact::parse("p(1)").unwrap());
        let Request::Submit { update: Update::DeleteFact(_), seq: None } =
            parse_request("submit - p(1).").unwrap()
        else {
            panic!("expected fact delete")
        };
        let Request::Submit { update: Update::InsertRule(r), .. } =
            parse_request("submit + a(X) :- b(X), !c(X).").unwrap()
        else {
            panic!("expected rule insert")
        };
        assert_eq!(r.to_string(), "a(X) :- b(X), !c(X).");
    }

    #[test]
    fn parses_sequenced_submits_and_client_ids() {
        let Request::Submit { update: Update::InsertFact(f), seq: Some(42) } =
            parse_request("submit seq=42 + p(1)").unwrap()
        else {
            panic!("expected sequenced insert")
        };
        assert_eq!(f, Fact::parse("p(1)").unwrap());
        assert!(parse_request("submit seq=x + p(1)").is_err(), "non-numeric seq");
        let Request::Hello { client } = parse_request("client alice-7").unwrap() else {
            panic!("expected hello")
        };
        assert_eq!(client, "alice-7");
        assert!(parse_request("client").is_err(), "id required");
        assert!(parse_request("client two words").is_err(), "one token only");
        assert!(matches!(parse_request("shutdown").unwrap(), Request::Shutdown));
        assert!(parse_request("shutdown now").is_err());
    }

    #[test]
    fn parses_meta_verbs_strictly() {
        assert!(matches!(parse_request("flush").unwrap(), Request::Flush));
        assert!(matches!(parse_request("compact").unwrap(), Request::Compact));
        assert!(parse_request("compact now").is_err());
        assert!(matches!(parse_request("stats").unwrap(), Request::Stats));
        assert!(matches!(parse_request("quit").unwrap(), Request::Quit));
        assert!(matches!(
            parse_request("query rejected(X)").unwrap(),
            Request::Query { at: None, .. }
        ));
        assert!(parse_request("flush now").is_err());
        assert!(parse_request("submit p(1)").is_err(), "missing +/-");
        assert!(parse_request("frobnicate").is_err());
        assert!(parse_request("").is_err());
        assert!(parse_request("query !unsafe(X)").is_err());
    }

    #[test]
    fn parses_versioned_queries() {
        let Request::Query { query, at } = parse_request("query @42 rejected(X)").unwrap() else {
            panic!("expected query")
        };
        assert_eq!(at, Some(42));
        assert_eq!(query.to_string(), "rejected(X)");
        assert!(parse_request("query @x p(X)").is_err(), "non-numeric version");
        assert!(parse_request("query @42").is_err(), "version with no body");
    }

    #[test]
    fn tags_split_and_render() {
        assert_eq!(split_tag("#7 query p(X)"), (Some("7"), "query p(X)"));
        assert_eq!(split_tag("#req-1 flush"), (Some("req-1"), "flush"));
        assert_eq!(split_tag("query p(X)"), (None, "query p(X)"));
        // `#` alone is not a tag; neither is `# ` (empty token).
        assert_eq!(split_tag("# query p(X)"), (None, "# query p(X)"));
        assert_eq!(render_tagged(Some("7"), "ok group=1 version=1"), "#7 ok group=1 version=1");
        assert_eq!(render_tagged(None, "ok bye"), "ok bye");
        // Round-trip: a rendered tagged line splits back.
        let line = render_tagged(Some("a-b_c"), "row X = 1");
        assert_eq!(split_tag(&line), (Some("a-b_c"), "row X = 1"));
    }

    #[test]
    fn update_round_trips_through_render() {
        for line in ["+ p(1)", "- p(1)", "+ a(X) :- b(X).", "- a(X) :- b(X)."] {
            let u = parse_update(line).unwrap();
            assert_eq!(parse_update(&render_update(&u)).unwrap(), u, "{line}");
        }
        // Hostile symbols survive via quote-on-write.
        let u = parse_update("+ p(\"tricky. name\")").unwrap();
        assert_eq!(parse_update(&render_update(&u)).unwrap(), u);
    }

    #[test]
    fn outcome_lines() {
        assert_eq!(
            render_outcome(&Outcome::Accepted { group: 7, version: 3 }),
            "ok group=7 version=3"
        );
        let e = MaintenanceError::NotAsserted(Fact::parse("p(1)").unwrap());
        assert_eq!(
            render_outcome(&Outcome::Rejected(e)),
            "err code=not-asserted cannot delete `p(1)`: not an asserted fact"
        );
        // Infrastructure rejections surface their retryable codes.
        assert!(render_outcome(&Outcome::Rejected(MaintenanceError::ReadOnly))
            .starts_with("err code=read-only "));
        assert!(render_outcome(&Outcome::Rejected(MaintenanceError::Shutdown))
            .starts_with("err code=shutdown "));
        assert!(render_outcome(&Outcome::Rejected(MaintenanceError::Panicked("boom".into())))
            .starts_with("err code=panicked "));
    }

    #[test]
    fn parses_metrics_and_trace_verbs() {
        assert!(matches!(parse_request("metrics").unwrap(), Request::Metrics));
        assert!(parse_request("metrics all").is_err(), "metrics takes no argument");
        assert!(matches!(parse_request("trace").unwrap(), Request::Trace { n: 16 }));
        assert!(matches!(parse_request("trace 3").unwrap(), Request::Trace { n: 3 }));
        assert!(parse_request("trace many").is_err(), "span count must be numeric");
    }

    #[test]
    fn stats_key_order_is_fixed() {
        let s = ServiceStats {
            durability: Some(strata_core::DurabilityStats::default()),
            ..Default::default()
        };
        let line = render_stats(&s);
        let keys: Vec<&str> = line
            .trim_start_matches("ok ")
            .split(' ')
            .map(|kv| kv.split('=').next().unwrap())
            .collect();
        assert_eq!(
            keys,
            [
                "submitted",
                "accepted",
                "rejected",
                "groups",
                "commits",
                "committed_updates",
                "coalesced",
                "flushes",
                "pending",
                "blocked",
                "snapshot_version",
                "snapshot_reads",
                "model_facts",
                "worker_restarts",
                "deduped",
                "read_only",
                "wal_txns",
                "wal_bytes",
                "recovered_txns",
                "recovered_updates",
                "recovered_torn_tail",
                "recovered_quarantined",
                "recovery_ms",
                "snapshot_chain_len",
                "snapshot_seq",
                "replay_mode",
            ]
        );
    }

    #[test]
    fn parses_database_verbs() {
        let Request::Use { db } = parse_request("use tenant1").unwrap() else {
            panic!("expected use")
        };
        assert_eq!(db, "tenant1");
        assert!(parse_request("use").is_err(), "name required");
        assert!(parse_request("use two words").is_err(), "one token only");
        let Request::DbCreate { db } = parse_request("db create t2").unwrap() else {
            panic!("expected db create")
        };
        assert_eq!(db, "t2");
        let Request::DbDrop { db } = parse_request("db drop t2").unwrap() else {
            panic!("expected db drop")
        };
        assert_eq!(db, "t2");
        assert!(matches!(parse_request("db list").unwrap(), Request::DbList));
        assert!(parse_request("db").is_err());
        assert!(parse_request("db create").is_err());
        assert!(parse_request("db drop a b").is_err());
        assert!(parse_request("db list all").is_err());
        assert!(parse_request("db frobnicate x").is_err());
    }

    #[test]
    fn tenant_stats_suffix_is_appended_after_the_fixed_keys() {
        let s = ServiceStats {
            durability: Some(strata_core::DurabilityStats::default()),
            ..Default::default()
        };
        let legacy = render_stats(&s);
        let bound = render_stats_for(&s, "tenant1", 4);
        // The legacy line is a strict prefix: nothing inserted or reordered.
        assert!(bound.starts_with(&legacy), "{bound}");
        assert!(bound.ends_with(" db=tenant1 shards=4"), "{bound}");
    }

    #[test]
    fn stats_line_includes_durability_only_when_present() {
        let mut s = ServiceStats { submitted: 3, accepted: 2, rejected: 1, ..Default::default() };
        let line = render_stats(&s);
        assert!(line.starts_with("ok submitted=3 accepted=2 rejected=1"), "{line}");
        assert!(!line.contains("wal_txns"), "{line}");
        s.durability = Some(strata_core::DurabilityStats {
            recovered_txns: 4,
            wal_txns: 2,
            ..Default::default()
        });
        let line = render_stats(&s);
        assert!(line.contains("wal_txns=2") && line.contains("recovered_txns=4"), "{line}");
    }
}
