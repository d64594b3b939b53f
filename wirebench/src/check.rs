//! Output checks: per-update decisions against an in-process oracle, the
//! final model read back over the wire against the perfect model of its
//! own EDB, read-your-writes, and durability across a SIGKILL.

use std::io;

use stratamaint::core::registry::EngineRegistry;
use stratamaint::core::Update;
use stratamaint::datalog::model::StandardModel;
use stratamaint::datalog::{Fact, Program, Symbol};

use crate::wire::{Check, Conn, Writes};

/// Applies each accepted update of `stream` to `program`'s asserted facts.
pub fn apply_accepted(program: &mut Program, stream: &[Update], outcomes: &[Result<u64, String>]) {
    for (u, outcome) in stream.iter().zip(outcomes) {
        if outcome.is_ok() {
            apply(program, u);
        }
    }
}

/// Applies one fact update to `program`.
pub fn apply(program: &mut Program, u: &Update) {
    match u {
        Update::InsertFact(f) => {
            program.assert_fact(f.clone()).expect("generated facts keep their arity");
        }
        Update::DeleteFact(f) => {
            program.retract_fact(f);
        }
        other => panic!("fact updates only, got {other:?}"),
    }
}

/// Reads every tuple of `rel` over the wire.
fn read_relation(conn: &mut Conn, rel: Symbol, arity: usize) -> io::Result<Vec<Fact>> {
    let vars: Vec<String> = (0..arity).map(|i| format!("V{i}")).collect();
    let reply = conn.request(&format!("query {}({})", rel.as_str(), vars.join(", ")))?;
    let (rows, end) = reply.split_at(reply.len() - 1);
    if !end[0].starts_with("ok ") {
        return Err(io::Error::other(format!("reading {}: {}", rel.as_str(), end[0])));
    }
    rows.iter()
        .map(|row| {
            let values: Vec<&str> = row
                .strip_prefix("row ")
                .unwrap_or(row)
                .split(", ")
                .map(|b| b.split_once(" = ").map_or(b, |(_, v)| v))
                .collect();
            Fact::parse(&format!("{}({})", rel.as_str(), values.join(", ")))
                .map_err(|e| io::Error::other(format!("bad row `{row}`: {e}")))
        })
        .collect()
}

/// Reads the relations of `program` selected by `keep` over the wire,
/// sorted.
fn read_facts(
    conn: &mut Conn,
    program: &Program,
    keep: impl Fn(Symbol) -> bool,
) -> io::Result<Vec<Fact>> {
    let mut facts = Vec::new();
    for rel in program.relations().into_iter().filter(|&r| keep(r)) {
        let arity = program.arity_of(rel).expect("listed relations have an arity");
        facts.extend(read_relation(conn, rel, arity)?);
    }
    facts.sort();
    Ok(facts)
}

fn sorted_asserted(program: &Program) -> Vec<Fact> {
    let mut facts: Vec<Fact> = program.facts().cloned().collect();
    facts.sort();
    facts
}

fn diff(what: &str, got: &[Fact], want: &[Fact]) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    let missing = want.iter().find(|f| got.binary_search(f).is_err());
    let extra = got.iter().find(|f| want.binary_search(f).is_err());
    Err(format!(
        "{what}: {} facts read, {} expected; first missing {missing:?}, first extra {extra:?}",
        got.len(),
        want.len()
    ))
}

/// Durability: the extensional relations read over the wire equal
/// `expected`'s asserted facts.
pub fn check_edb(conn: &mut Conn, expected: &Program) -> io::Result<Result<(), String>> {
    let got = read_facts(conn, expected, |r| expected.is_extensional(r))?;
    Ok(diff("EDB", &got, &sorted_asserted(expected)))
}

/// The final model: the whole model read over the wire must have exactly
/// `expected`'s EDB, and must equal the perfect model of `expected`'s
/// rules over the EDB that was read. Returns the model's size.
pub fn check_model(conn: &mut Conn, expected: &Program) -> io::Result<Result<usize, String>> {
    let model = read_facts(conn, expected, |_| true)?;
    let edb: Vec<Fact> = model.iter().filter(|f| expected.is_extensional(f.rel)).cloned().collect();
    if let Err(e) = diff("final EDB", &edb, &sorted_asserted(expected)) {
        return Ok(Err(e));
    }
    let mut rebuilt = Program::new();
    for (_, rule) in expected.rules() {
        rebuilt.add_rule(rule.clone()).expect("rules of a valid program re-add");
    }
    for f in edb {
        rebuilt.assert_fact(f).expect("read facts keep their arity");
    }
    let perfect = match StandardModel::compute(&rebuilt) {
        Ok(m) => m.db().sorted_facts(),
        Err(e) => return Ok(Err(format!("perfect model: {e}"))),
    };
    Ok(diff("final model", &model, &perfect).map(|()| model.len()))
}

/// Per-update decisions: every wire accept/reject must equal what an
/// in-process per-update oracle engine decides for the same update, error
/// text included. Returns how many rejections the oracle predicted.
pub fn check_oracle(program: &Program, stream: &[Update], w: &Writes) -> Result<usize, String> {
    let mut oracle = EngineRegistry::standard()
        .build("cascade", program.clone())
        .map_err(|e| format!("oracle: {e}"))?;
    let mut predicted = 0;
    for (i, (u, wire)) in stream.iter().zip(&w.outcomes).enumerate() {
        match (oracle.apply(u), wire) {
            (Ok(_), Ok(_)) => {}
            (Err(e), Err(text)) if *text == format!("err code={} {e}", e.code()) => predicted += 1,
            (mine, theirs) => {
                return Err(format!("update {i} `{u:?}`: oracle {mine:?}, wire {theirs:?}"))
            }
        }
    }
    Ok(predicted)
}

/// Read-your-writes: each check asked `query @v <fact>` with the version of
/// the ack of update `k`. The answer must show update `k`'s effect, or that
/// of a later update to the same fact sent before the answer arrived.
pub fn check_ryw(stream: &[Update], w: &Writes, checks: &[Check]) -> Result<(), String> {
    let touches = |u: &Update| match u {
        Update::InsertFact(f) | Update::DeleteFact(f) => f.clone(),
        other => panic!("fact updates only, got {other:?}"),
    };
    for c in checks {
        let fact = touches(&stream[c.update]);
        let mut allowed = vec![matches!(stream[c.update], Update::InsertFact(_))];
        for (j, u) in stream.iter().enumerate().take(w.sent_at.len()).skip(c.update + 1) {
            if w.sent_at[j] < c.answered && touches(u) == fact {
                allowed.push(matches!(u, Update::InsertFact(_)));
            }
        }
        if !allowed.contains(&c.holds) {
            return Err(format!(
                "read-your-writes: `{fact}` after update {} answered {}",
                c.update, c.holds
            ));
        }
    }
    Ok(())
}
