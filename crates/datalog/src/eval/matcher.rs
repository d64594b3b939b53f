//! Rule-body matching: enumerate the ground instances of a rule over a
//! database.
//!
//! The matcher orders positive literals greedily (most already-bound
//! variables first), seeks through per-column indexes when a column is
//! bound, and checks the negative literals — ground by rule safety — once
//! their variables are bound. One body literal may be designated the *delta*
//! literal and enumerated from a caller-supplied relation instead of the
//! database, which is the primitive underlying both semi-naive evaluation
//! and incremental (removed-tuple) firing.
//!
//! Two implementations share this contract:
//!
//! * the **compiled** path ([`super::plan`]) — plans built once per
//!   `(rule, delta_position)` and executed with a flat slot register file;
//!   the engines hold [`super::plan::CompiledRule`]s and call it directly,
//!   and one-shot callers compile a [`super::plan::CompiledPlan`] on the
//!   spot;
//! * the **interpreted** path ([`for_each_match_interpreted`]) — the
//!   original tuple-at-a-time interpreter with hash-map bindings, kept as
//!   the executable reference: `tests/matcher_differential.rs` checks the
//!   compiled matcher against it, and the plan-cache benchmark
//!   (`exp_e9_plancache`) measures what compilation buys.

use rustc_hash::FxHashMap;

use crate::atom::{Atom, Fact};
use crate::rule::Rule;
use crate::storage::{Database, Relation};
use crate::symbol::Symbol;
use crate::term::{Term, Value};

use super::plan::greedy_order;

// ---------------------------------------------------------------------------
// The interpreted reference implementation.
// ---------------------------------------------------------------------------

/// A variable assignment under construction (interpreted path).
#[derive(Default, Debug)]
pub struct Bindings {
    vals: FxHashMap<Symbol, Value>,
}

impl Bindings {
    /// Current value of a variable.
    pub fn get(&self, v: Symbol) -> Option<Value> {
        self.vals.get(&v).copied()
    }

    fn bind(&mut self, v: Symbol, val: Value) {
        self.vals.insert(v, val);
    }

    fn unbind(&mut self, v: Symbol) {
        self.vals.remove(&v);
    }

    /// Instantiates an atom; `None` if any variable is unbound.
    pub fn substitute(&self, atom: &Atom) -> Option<Fact> {
        let args: Option<Box<[Value]>> = atom
            .terms
            .iter()
            .map(|t| match t {
                Term::Const(v) => Some(*v),
                Term::Var(v) => self.get(*v),
            })
            .collect();
        args.map(|args| Fact { rel: atom.rel, args })
    }
}

/// The evaluation order for one rule / delta-position combination.
struct Plan {
    /// Positions (into `rule.body`) of literals to enumerate, in order.
    /// The delta literal, if any, comes first; the rest are the positive
    /// non-delta literals, greedily ordered ([`greedy_order`]).
    order: Vec<usize>,
}

/// Enumerates ground instances of `rule` over `db` with the original
/// interpreter: the literal order is re-derived per call and bindings live
/// in a hash map.
///
/// * `delta` — optionally `(body_position, relation)`: the literal at that
///   position is enumerated from the given relation instead of `db`. The
///   position may name a **negative** literal (incremental firing over
///   removed tuples); its absence from `db` is still checked.
/// * `seed` — initial variable bindings (used for targeted re-derivation).
/// * `callback(head, pos_body, neg_body)` — invoked per match; return
///   `false` to stop the enumeration early.
///
/// [`super::plan::CompiledPlan::for_each_derivation`] honours the same
/// contract. This path is kept as its reference:
/// `tests/matcher_differential.rs` checks the two agree, and
/// `exp_e9_plancache` uses it as the benchmark baseline.
pub fn for_each_match_interpreted<F>(
    db: &Database,
    rule: &Rule,
    delta: Option<(usize, &Relation)>,
    seed: &[(Symbol, Value)],
    mut callback: F,
) where
    F: FnMut(Fact, &[Fact], &[Fact]) -> bool,
{
    let plan = Plan { order: greedy_order(rule, delta.map(|(i, _)| i)) };
    let mut bindings = Bindings::default();
    for &(v, val) in seed {
        bindings.bind(v, val);
    }
    let mut pos_facts: Vec<Fact> = Vec::with_capacity(plan.order.len());
    let mut trail: Vec<Symbol> = Vec::new();
    step(db, rule, &plan, delta, 0, &mut bindings, &mut pos_facts, &mut trail, &mut callback);
}

/// Binds `atom`'s variables against `tuple`; pushes fresh bindings on
/// `trail`. On mismatch, rolls back to `mark` and returns `false`.
fn try_bind(
    atom: &Atom,
    tuple: &[Value],
    b: &mut Bindings,
    trail: &mut Vec<Symbol>,
    mark: usize,
) -> bool {
    for (term, &val) in atom.terms.iter().zip(tuple) {
        let ok = match term {
            Term::Const(c) => *c == val,
            Term::Var(v) => match b.get(*v) {
                Some(bound) => bound == val,
                None => {
                    b.bind(*v, val);
                    trail.push(*v);
                    true
                }
            },
        };
        if !ok {
            rollback(b, trail, mark);
            return false;
        }
    }
    true
}

fn rollback(b: &mut Bindings, trail: &mut Vec<Symbol>, mark: usize) {
    while trail.len() > mark {
        b.unbind(trail.pop().expect("trail underflow"));
    }
}

/// Picks the cheapest access path for `atom` over `rel` given current
/// bindings, and iterates candidate tuples through `f`. Returns `false` if
/// `f` requested an early stop.
fn scan_candidates<F>(rel: &Relation, atom: &Atom, b: &Bindings, mut f: F) -> bool
where
    F: FnMut(&[Value]) -> bool,
{
    // Find the most selective bound column.
    let mut best: Option<(usize, Value, usize)> = None;
    for (c, term) in atom.terms.iter().enumerate() {
        let val = match term {
            Term::Const(v) => Some(*v),
            Term::Var(v) => b.get(*v),
        };
        if let Some(v) = val {
            let est = rel.estimate_bound(c, v);
            // (`match` rather than `Option::is_none_or`: MSRV 1.75.)
            let better = match best {
                Some((_, _, e)) => est < e,
                None => true,
            };
            if better {
                best = Some((c, v, est));
            }
        }
    }
    match best {
        Some((c, v, _)) => {
            for t in rel.scan_bound(c, v) {
                if !f(t) {
                    return false;
                }
            }
        }
        None => {
            for t in rel.iter() {
                if !f(t) {
                    return false;
                }
            }
        }
    }
    true
}

#[allow(clippy::too_many_arguments)]
fn step<F>(
    db: &Database,
    rule: &Rule,
    plan: &Plan,
    delta: Option<(usize, &Relation)>,
    oi: usize,
    bindings: &mut Bindings,
    pos_facts: &mut Vec<Fact>,
    trail: &mut Vec<Symbol>,
    callback: &mut F,
) -> bool
where
    F: FnMut(Fact, &[Fact], &[Fact]) -> bool,
{
    if oi == plan.order.len() {
        return finish(db, rule, bindings, pos_facts, callback);
    }
    let li = plan.order[oi];
    let lit = &rule.body[li];
    let source: &Relation = match delta {
        Some((d, rel)) if d == li => rel,
        _ => match db.relation(lit.atom.rel) {
            Some(r) => r,
            None => return true, // empty relation: no matches, keep going
        },
    };
    // Collect candidate tuples first: the recursive step may consult `db`
    // again, and we must not hold `source`'s iterator across the callback
    // when source aliases db. Tuples are cheap to buffer per level.
    let mut keep_going = true;
    let mut candidates: Vec<TupleBuf> = Vec::new();
    scan_candidates(source, &lit.atom, bindings, |t| {
        candidates.push(t.into());
        true
    });
    for tuple in candidates {
        let mark = trail.len();
        if !try_bind(&lit.atom, &tuple, bindings, trail, mark) {
            continue;
        }
        if lit.positive {
            pos_facts.push(Fact { rel: lit.atom.rel, args: tuple });
        }
        keep_going = step(db, rule, plan, delta, oi + 1, bindings, pos_facts, trail, callback);
        if lit.positive {
            pos_facts.pop();
        }
        rollback(bindings, trail, mark);
        if !keep_going {
            break;
        }
    }
    keep_going
}

type TupleBuf = Box<[Value]>;

fn finish<F>(
    db: &Database,
    rule: &Rule,
    bindings: &Bindings,
    pos_facts: &[Fact],
    callback: &mut F,
) -> bool
where
    F: FnMut(Fact, &[Fact], &[Fact]) -> bool,
{
    let mut neg_facts: Vec<Fact> = Vec::new();
    for lit in rule.body.iter().filter(|l| !l.positive) {
        let fact = bindings
            .substitute(&lit.atom)
            .expect("negative literal not ground at finish; rule safety violated");
        if db.contains(&fact) {
            return true; // this match fails; continue enumeration
        }
        neg_facts.push(fact);
    }
    let head =
        bindings.substitute(&rule.head).expect("head not ground at finish; rule safety violated");
    callback(head, pos_facts, &neg_facts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::plan::{CompiledPlan, MatchScratch};
    use crate::storage::parse_facts;

    fn db(src: &str) -> Database {
        Database::from_facts(parse_facts(src))
    }

    /// The compiled path: one plan per call, as one-shot callers use it.
    fn for_each_compiled(
        db: &Database,
        rule: &Rule,
        delta: Option<(usize, &Relation)>,
        seed: &[(Symbol, Value)],
        callback: impl FnMut(Fact, &[Fact], &[Fact]) -> bool,
    ) {
        let plan = CompiledPlan::compile(rule, delta.map(|(i, _)| i));
        let mut scratch = MatchScratch::new();
        plan.for_each_derivation(db, delta.map(|(_, r)| r), seed, &mut scratch, callback);
    }

    /// Both implementations, under one test body.
    fn for_both(
        db: &Database,
        rule: &Rule,
        delta: Option<(usize, &Relation)>,
        seed: &[(Symbol, Value)],
        mut check: impl FnMut(&str, Vec<(String, usize, usize)>),
    ) {
        let mut compiled = Vec::new();
        for_each_compiled(db, rule, delta, seed, |h, p, n| {
            compiled.push((h.to_string(), p.len(), n.len()));
            true
        });
        check("compiled", compiled);
        let mut interpreted = Vec::new();
        for_each_match_interpreted(db, rule, delta, seed, |h, p, n| {
            interpreted.push((h.to_string(), p.len(), n.len()));
            true
        });
        check("interpreted", interpreted);
    }

    fn all_heads(db: &Database, rule: &str) -> Vec<String> {
        let rule = Rule::parse(rule).unwrap();
        let mut out = Vec::new();
        for_each_compiled(db, &rule, None, &[], |h, _, _| {
            out.push(h.to_string());
            true
        });
        out.sort();
        out.dedup();
        out
    }

    #[test]
    fn single_literal_match() {
        let db = db("e(1, 2). e(2, 3).");
        assert_eq!(all_heads(&db, "p(X, Y) :- e(X, Y)."), vec!["p(1, 2)", "p(2, 3)"]);
    }

    #[test]
    fn join_two_literals() {
        let db = db("e(1, 2). e(2, 3). e(3, 4).");
        assert_eq!(all_heads(&db, "p(X, Z) :- e(X, Y), e(Y, Z)."), vec!["p(1, 3)", "p(2, 4)"]);
    }

    #[test]
    fn constants_in_body_filter() {
        let db = db("e(1, 2). e(2, 3).");
        assert_eq!(all_heads(&db, "p(Y) :- e(1, Y)."), vec!["p(2)"]);
    }

    #[test]
    fn repeated_variable_within_literal() {
        let db = db("e(1, 1). e(1, 2).");
        assert_eq!(all_heads(&db, "p(X) :- e(X, X)."), vec!["p(1)"]);
    }

    #[test]
    fn negative_literal_filters() {
        let db = db("s(1). s(2). a(1).");
        assert_eq!(all_heads(&db, "r(X) :- s(X), !a(X)."), vec!["r(2)"]);
    }

    #[test]
    fn negative_literal_on_missing_relation_always_holds() {
        let db = db("s(1).");
        assert_eq!(all_heads(&db, "r(X) :- s(X), !ghost(X)."), vec!["r(1)"]);
    }

    #[test]
    fn empty_positive_relation_yields_nothing() {
        let db = db("a(1).");
        assert!(all_heads(&db, "p(X) :- zzz(X).").is_empty());
    }

    #[test]
    fn ground_rule_with_no_positive_body() {
        let db = db("a(1).");
        assert_eq!(all_heads(&db, "q :- !p."), vec!["q"]);
        let db2 = db_with_p();
        assert!(all_heads(&db2, "q :- !p.").is_empty());
    }

    fn db_with_p() -> Database {
        db("p.")
    }

    #[test]
    fn delta_restricts_enumeration() {
        let dbase = db("e(1, 2). e(2, 3).");
        let rule = Rule::parse("p(X, Y) :- e(X, Y).").unwrap();
        let mut delta_rel = Relation::new(2);
        delta_rel.insert(vec![Value::int(2), Value::int(3)].into());
        for_both(&dbase, &rule, Some((0, &delta_rel)), &[], |path, out| {
            assert_eq!(out.len(), 1, "[{path}]");
            assert_eq!(out[0].0, "p(2, 3)", "[{path}]");
        });
    }

    #[test]
    fn delta_on_negative_literal_enumerates_removed_tuples() {
        // r(X) :- s(X), !a(X): fire for tuples recently REMOVED from `a`.
        let dbase = db("s(1). s(2).");
        let rule = Rule::parse("r(X) :- s(X), !a(X).").unwrap();
        let mut removed = Relation::new(1);
        removed.insert(vec![Value::int(1)].into());
        for_both(&dbase, &rule, Some((1, &removed)), &[], |path, out| {
            assert_eq!(out, vec![("r(1)".to_string(), 1, 1)], "[{path}]");
        });
    }

    #[test]
    fn delta_on_negative_literal_still_checks_absence() {
        // If the tuple is (still or again) present in db, the match fails.
        let dbase = db("s(1). a(1).");
        let rule = Rule::parse("r(X) :- s(X), !a(X).").unwrap();
        let mut removed = Relation::new(1);
        removed.insert(vec![Value::int(1)].into());
        for_both(&dbase, &rule, Some((1, &removed)), &[], |path, out| {
            assert!(out.is_empty(), "[{path}]");
        });
    }

    #[test]
    fn seeded_match_restricts_bindings() {
        let dbase = db("e(1, 2). e(2, 3).");
        let rule = Rule::parse("p(X, Y) :- e(X, Y).").unwrap();
        let seed = [(Symbol::new("X"), Value::int(2))];
        for_both(&dbase, &rule, None, &seed, |path, out| {
            assert_eq!(out.len(), 1, "[{path}]");
            assert_eq!(out[0].0, "p(2, 3)", "[{path}]");
        });
    }

    #[test]
    fn early_stop_halts_enumeration() {
        let dbase = db("e(1). e(2). e(3).");
        let rule = Rule::parse("p(X) :- e(X).").unwrap();
        let mut count = 0;
        for_each_compiled(&dbase, &rule, None, &[], |_, _, _| {
            count += 1;
            false
        });
        assert_eq!(count, 1);
    }

    #[test]
    fn body_facts_reported_in_order() {
        let dbase = db("e(1, 2). f(2, 7). a(9).");
        let rule = Rule::parse("p(X, Z) :- e(X, Y), f(Y, Z), !a(Z).").unwrap();
        for_both(&dbase, &rule, None, &[], |path, seen| {
            assert_eq!(seen, vec![("p(1, 7)".to_string(), 2, 1)], "[{path}]");
        });
    }

    #[test]
    fn cartesian_product_when_no_shared_vars() {
        let dbase = db("a(1). a(2). b(7). b(8).");
        assert_eq!(
            all_heads(&dbase, "p(X, Y) :- a(X), b(Y)."),
            vec!["p(1, 7)", "p(1, 8)", "p(2, 7)", "p(2, 8)"]
        );
    }

    #[test]
    fn self_join_same_relation() {
        let dbase = db("e(1, 2). e(2, 1).");
        assert_eq!(all_heads(&dbase, "p(X) :- e(X, Y), e(Y, X)."), vec!["p(1)", "p(2)"]);
    }
}
