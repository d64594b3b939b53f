//! The MVCC read path, end to end: snapshot reads never block behind the
//! engine mutex, acknowledged writes are already readable
//! (read-your-writes via commit-version tokens), and — the acceptance
//! bar — snapshot query results are **identical** to engine-mutex query
//! results after every commit, for all registry strategies.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use strata_core::registry::EngineRegistry;
use strata_core::Update;
use strata_datalog::{Fact, Program, Query};
use strata_service::net::{self, Client, QueryReply};
use strata_service::{IngestConfig, Outcome, Service};

const STRATEGIES: [&str; 6] =
    ["recompute", "static", "dynamic-single", "dynamic-multi", "cascade", "fact-level"];

fn program() -> Program {
    Program::parse(
        "edge(0, 1). edge(1, 2).
         reach(X, Y) :- edge(X, Y).
         reach(X, Z) :- reach(X, Y), edge(Y, Z).
         isolated(X) :- edge(X, X), !reach(0, X).",
    )
    .unwrap()
}

fn ins(s: &str) -> Update {
    Update::InsertFact(Fact::parse(s).unwrap())
}

/// The acceptance-criteria equivalence check: for every strategy, after
/// every single commit, the published snapshot answers queries exactly as
/// the engine behind the mutex does.
#[test]
fn snapshot_queries_equal_engine_queries_after_every_commit() {
    let queries = [
        Query::parse("reach(0, X)").unwrap(),
        Query::parse("reach(X, Y)").unwrap(),
        Query::parse("edge(X, Y), !reach(Y, X)").unwrap(),
        Query::parse("reach(0, 5)").unwrap(),
    ];
    // Serial groups (max_group 1) so *every* update is its own commit and
    // the snapshot is compared at every intermediate version.
    let cfg = IngestConfig { max_group: 1, ..IngestConfig::default() };
    for strategy in STRATEGIES {
        let engine = EngineRegistry::standard().build(strategy, program()).unwrap();
        let service = Service::start(engine, cfg);
        let script = [
            ins("edge(2, 3)"),
            ins("edge(3, 4)"),
            Update::DeleteFact(Fact::parse("edge(1, 2)").unwrap()),
            ins("edge(4, 5)"),
            ins("edge(1, 2)"),
            Update::DeleteFact(Fact::parse("edge(0, 1)").unwrap()),
        ];
        for update in script {
            let Outcome::Accepted { version, .. } = service.apply(update) else {
                panic!("{strategy}: scripted update must be accepted")
            };
            let snap = service.snapshot_at(version).expect("acked version is published");
            // The full model agrees fact for fact...
            let engine_facts = service.with_engine(|e| e.model().sorted_facts());
            assert_eq!(
                snap.model.sorted_facts(),
                engine_facts,
                "{strategy}: snapshot v{version} diverges from the engine model"
            );
            // ...and so does every query, through both read paths.
            for q in &queries {
                let via_snapshot = q.eval(&snap.model);
                let via_engine = service.with_engine(|e| q.eval(e.model()));
                assert_eq!(
                    via_snapshot, via_engine,
                    "{strategy}: query `{q}` diverges at v{version}"
                );
            }
        }
        service.shutdown();
    }
}

/// Deterministic non-blocking proof: reads complete while the engine
/// mutex is *held* — not merely busy — so a snapshot read provably never
/// acquires it.
#[test]
fn reads_complete_while_the_engine_mutex_is_held() {
    let engine = EngineRegistry::standard().build("cascade", program()).unwrap();
    let service = Arc::new(Service::start(engine, IngestConfig::default()));
    let Outcome::Accepted { version, .. } = service.apply(ins("edge(2, 3)")) else {
        panic!("insert must be accepted")
    };
    let (tx, rx) = std::sync::mpsc::channel::<()>();
    std::thread::scope(|s| {
        let svc = Arc::clone(&service);
        s.spawn(move || {
            svc.with_engine(|_| {
                rx.recv().expect("release signal");
            });
        });
        // Give the holder time to acquire, then prove the point:
        // latest-snapshot read, versioned read, and stats all complete
        // while the mutex is hostage. (Any engine access would deadlock.)
        std::thread::sleep(Duration::from_millis(30));
        let q = Query::parse("reach(0, X)").unwrap();
        let snap = service.snapshot();
        assert!(!q.eval(&snap.model).is_empty());
        let pinned = service.snapshot_at(version).expect("published");
        assert!(pinned.model.contains_parsed("edge(2, 3)"));
        let stats = service.stats();
        assert!(stats.snapshot_version >= version);
        tx.send(()).expect("holder alive");
    });
}

/// Reader/writer stress over TCP: while writer clients saturate large
/// group commits, reader clients' snapshot queries all complete with
/// bounded latency and consistent results.
#[test]
fn readers_proceed_while_writers_saturate_group_commits() {
    const WRITERS: usize = 2;
    const READERS: usize = 2;
    const WRITES_PER_WRITER: usize = 200;
    const READS_PER_READER: usize = 60;
    let engine = EngineRegistry::standard().build("cascade", program()).unwrap();
    let service = Arc::new(Service::start(
        engine,
        IngestConfig { max_group: 256, max_delay: Duration::from_millis(1), ..Default::default() },
    ));
    let server = net::serve(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let addr = server.addr().to_string();
    let writers_done = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        for w in 0..WRITERS {
            let addr = addr.clone();
            s.spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                for i in 0..WRITES_PER_WRITER {
                    // Disjoint edges: plenty of commit pressure without the
                    // transitive closure growing quadratically.
                    let n = 10 + 2 * (w * WRITES_PER_WRITER + i);
                    client
                        .submit_text(&format!("+ edge({n}, {})", n + 1))
                        .expect("io")
                        .expect("accepted");
                }
            });
        }
        let done = Arc::clone(&writers_done);
        for _ in 0..READERS {
            let addr = addr.clone();
            let done = Arc::clone(&done);
            s.spawn(move || {
                let mut client =
                    Client::connect_timeout(&addr, Duration::from_secs(10)).expect("connect");
                let mut reads = 0usize;
                while reads < READS_PER_READER && !done.load(Ordering::Relaxed) {
                    let t0 = Instant::now();
                    let reply = client.query("reach(0, X)").expect("io").expect("query ok");
                    assert!(matches!(reply, QueryReply::Rows(_)));
                    // Generous bound — the point is "milliseconds, not
                    // stuck behind a commit", while staying robust on a
                    // loaded 1-CPU CI host.
                    assert!(
                        t0.elapsed() < Duration::from_secs(5),
                        "a snapshot read stalled behind the writers"
                    );
                    reads += 1;
                }
                assert!(reads > 0, "readers must get reads in while writers run");
            });
        }
        // Scope joins writers and readers; flag stops readers early if the
        // writers finish first (keeps the test fast).
        s.spawn(move || {
            // This thread just flips the flag after the writers' share of
            // work is visibly done.
            loop {
                std::thread::sleep(Duration::from_millis(20));
                let stats = service.stats();
                if stats.accepted >= (WRITERS * WRITES_PER_WRITER) as u64 {
                    done.store(true, Ordering::Relaxed);
                    break;
                }
            }
        });
    });
    server.stop();
}

/// Read-your-writes across connections: any acked version, queried
/// `@version` from a *different* connection, observes the write.
#[test]
fn query_at_observes_own_commit_across_connections() {
    let engine = EngineRegistry::standard().build("cascade", program()).unwrap();
    let service = Arc::new(Service::start(engine, IngestConfig::default()));
    let server = net::serve(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let addr = server.addr().to_string();
    let mut writer = Client::connect(&addr).expect("connect");
    for i in 0..20 {
        let n = 100 + i;
        let ack =
            writer.submit_text(&format!("+ edge({n}, {})", n + 1)).expect("io").expect("accepted");
        // A brand-new connection pins the ack's version: the write must be
        // there, every time.
        let mut reader = Client::connect(&addr).expect("connect");
        let reply =
            reader.query_at(ack.version, &format!("edge({n}, Y)")).expect("io").expect("query ok");
        assert_eq!(
            reply,
            QueryReply::Rows(vec![format!("Y = {}", n + 1)]),
            "acked write invisible at its own version"
        );
    }
    server.stop();
}
