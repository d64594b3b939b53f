//! The delta-driven saturation mechanism (paper §5.2).
//!
//! "Each rule when fired produces an increase (delta) of the relation in the
//! conclusion of the rule. When this increase is non-empty all rules using
//! this relation in a hypothesis can be fired. The process stops when all
//! increases are empty." — a rule is *helpful* when some positive hypothesis
//! relation has a non-empty increase.
//!
//! All facts produced in one delta are deduced by the same rule, so the
//! one-level rule-pointer supports of §5.1 can be updated per chunk; this is
//! why the paper prefers that support form for implementation.

use rustc_hash::FxHashMap;

use crate::atom::Fact;
use crate::storage::{Database, Relation, TupleData};
use crate::symbol::Symbol;

use super::plan::{CompiledRule, MatchScratch};
use super::NewFactSink;

/// Statistics from one delta-driven run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Rule firings (rule × delta-position evaluations).
    pub firings: u64,
    /// Delta rounds executed (excluding the initial full round).
    pub rounds: u64,
}

/// Groups facts into per-relation delta stores.
fn group_deltas(facts: &[Fact]) -> FxHashMap<Symbol, Relation> {
    let mut by_rel: FxHashMap<Symbol, Relation> = FxHashMap::default();
    for f in facts {
        by_rel.entry(f.rel).or_insert_with(|| Relation::new(f.arity())).insert(f.args.clone());
    }
    by_rel
}

/// Closes `db` under `rules`, delta-driven.
///
/// The first round fires every rule in full (this also covers rules with no
/// positive hypotheses, whose value cannot change afterwards within the
/// stratum); subsequent rounds fire only helpful rules restricted to the
/// current increases. `sink` receives each new fact with the rule that
/// produced it. Returns the facts added.
pub fn saturate<S: NewFactSink>(
    db: &mut Database,
    rules: &[CompiledRule],
    sink: &mut S,
    stats: &mut DeltaStats,
) -> Vec<Fact> {
    let mut scratch = MatchScratch::new();
    let delta = full_round(db, rules, sink, stats, &mut scratch);
    let mut added = delta.clone();
    drive_with(db, rules, delta, sink, stats, &mut added, &mut scratch);
    added
}

/// The initial full round: fires every rule once over the whole database
/// (covering rules with no positive hypotheses, whose value cannot change
/// afterwards within the stratum) and returns the facts added — the first
/// increase. Rules fire in order with immediate insertion, so each rule
/// sees its predecessors' new facts.
fn full_round<S: NewFactSink>(
    db: &mut Database,
    rules: &[CompiledRule],
    sink: &mut S,
    stats: &mut DeltaStats,
    scratch: &mut MatchScratch,
) -> Vec<Fact> {
    let mut delta: Vec<Fact> = Vec::new();
    for cr in rules {
        stats.firings += 1;
        let rid = cr.id();
        let mut out: Vec<Fact> = Vec::new();
        cr.plan().for_each_head(db, None, &[], scratch, |head| {
            if db.contains(&head) {
                sink.on_existing_fact(rid, &head);
            } else {
                out.push(head);
            }
            true
        });
        for f in out {
            if db.insert(f.clone()) {
                sink.on_new_fact(rid, &f);
                delta.push(f);
            }
        }
    }
    delta
}

/// Runs delta rounds from an initial increase until all increases are empty.
pub(crate) fn drive<S: NewFactSink>(
    db: &mut Database,
    rules: &[CompiledRule],
    delta: Vec<Fact>,
    sink: &mut S,
    stats: &mut DeltaStats,
    added: &mut Vec<Fact>,
) {
    drive_with(db, rules, delta, sink, stats, added, &mut MatchScratch::new());
}

/// [`drive`] with caller-owned scratch buffers (saturation reuses the ones
/// warmed by its first full round).
fn drive_with<S: NewFactSink>(
    db: &mut Database,
    rules: &[CompiledRule],
    mut delta: Vec<Fact>,
    sink: &mut S,
    stats: &mut DeltaStats,
    added: &mut Vec<Fact>,
    scratch: &mut MatchScratch,
) {
    while !delta.is_empty() {
        stats.rounds += 1;
        let by_rel = group_deltas(&delta);
        let mut next: Vec<Fact> = Vec::new();
        for cr in rules {
            let rid = cr.id();
            for (li, lit) in cr.rule().body.iter().enumerate() {
                if !lit.positive {
                    continue;
                }
                let Some(drel) = by_rel.get(&lit.atom.rel) else { continue };
                stats.firings += 1;
                let mut out: Vec<Fact> = Vec::new();
                cr.delta_plan(li).for_each_head(db, Some(drel), &[], scratch, |head| {
                    if db.contains(&head) {
                        sink.on_existing_fact(rid, &head);
                    } else {
                        out.push(head);
                    }
                    true
                });
                for f in out {
                    if db.insert(f.clone()) {
                        sink.on_new_fact(rid, &f);
                        next.push(f.clone());
                        added.push(f);
                    }
                }
            }
        }
        delta = next;
    }
}

/// Converts per-relation tuple lists into delta [`Fact`]s.
pub fn facts_from_tuples(map: &FxHashMap<Symbol, Vec<TupleData>>) -> Vec<Fact> {
    map.iter()
        .flat_map(|(&rel, ts)| ts.iter().map(move |t| Fact { rel, args: t.clone() }))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::naive;
    use crate::eval::{NullNewFact, NullSink};
    use crate::program::{Program, RuleId};

    fn setup(src: &str) -> (Database, Vec<CompiledRule>) {
        let p = Program::parse(src).unwrap();
        let db = Database::from_facts(p.facts().cloned());
        let rules = crate::eval::plan::compile_rules(p.rules().map(|(id, r)| (id, r.clone())));
        (db, rules)
    }

    #[test]
    fn agrees_with_naive_on_transitive_closure() {
        let src = "e(1, 2). e(2, 3). e(3, 4). e(4, 1).
                   p(X, Y) :- e(X, Y). p(X, Z) :- p(X, Y), e(Y, Z).";
        let (mut db_n, rules) = setup(src);
        let (mut db_s, _) = setup(src);
        naive::saturate(&mut db_n, &rules, &mut NullSink, &mut Default::default());
        saturate(&mut db_s, &rules, &mut NullNewFact, &mut Default::default());
        assert_eq!(db_n, db_s);
        assert_eq!(db_s.count(Symbol::new("p")), 16);
    }

    #[test]
    fn fires_rules_without_positive_body_once() {
        let (mut db, rules) = setup("q :- !p.");
        saturate(&mut db, &rules, &mut NullNewFact, &mut Default::default());
        assert!(db.contains_parsed("q"));
    }

    #[test]
    fn sink_reports_rule_pointers() {
        struct Collect(Vec<(RuleId, String)>);
        impl NewFactSink for Collect {
            fn on_new_fact(&mut self, rule: RuleId, fact: &Fact) {
                self.0.push((rule, fact.to_string()));
            }
        }
        let (mut db, rules) = setup("a(1). p(X) :- a(X). q(X) :- p(X).");
        let mut sink = Collect(Vec::new());
        saturate(&mut db, &rules, &mut sink, &mut Default::default());
        let p_rule = rules[0].id();
        let q_rule = rules[1].id();
        assert!(sink.0.contains(&(p_rule, "p(1)".to_string())));
        assert!(sink.0.contains(&(q_rule, "q(1)".to_string())));
        assert_eq!(sink.0.len(), 2);
    }

    #[test]
    fn drive_continues_from_seed() {
        let (mut db, rules) = setup("p(X, Z) :- p(X, Y), e(Y, Z). e(2, 3). e(3, 4).");
        db.insert(Fact::parse("p(1, 2)").unwrap());
        let seed = vec![Fact::parse("p(1, 2)").unwrap()];
        let mut added = Vec::new();
        drive(&mut db, &rules, seed, &mut NullNewFact, &mut Default::default(), &mut added);
        assert!(db.contains_parsed("p(1, 3)"));
        assert!(db.contains_parsed("p(1, 4)"));
        assert_eq!(added.len(), 2);
    }

    #[test]
    fn helpful_rule_definition_matches_paper() {
        // A rule is fired in delta rounds only when a positive hypothesis
        // has a non-empty increase: the `b`-rule never refires.
        let (mut db, rules) = setup("a(1). b(X) :- a(X). c(X) :- b(X).");
        let mut stats = DeltaStats::default();
        saturate(&mut db, &rules, &mut NullNewFact, &mut stats);
        assert!(db.contains_parsed("c(1)"));
        // Round 0 fires both rules with immediate insertion, so b(1) and
        // c(1) both appear there. Round 1 (delta = {b(1), c(1)}) fires only
        // the helpful c-rule, which adds nothing; no round 2 occurs.
        assert_eq!(stats.rounds, 1);
    }

    #[test]
    fn random_graph_agrees_with_naive() {
        // Deterministic pseudo-random edges; checks the two engines agree.
        let mut edges = String::new();
        let mut x: u64 = 7;
        for _ in 0..60 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let a = (x >> 33) % 12;
            let b = (x >> 12) % 12;
            edges.push_str(&format!("e({a}, {b}). "));
        }
        let src = format!("{edges} p(X, Y) :- e(X, Y). p(X, Z) :- p(X, Y), e(Y, Z).");
        let (mut db_n, rules) = setup(&src);
        let (mut db_s, _) = setup(&src);
        naive::saturate(&mut db_n, &rules, &mut NullSink, &mut Default::default());
        saturate(&mut db_s, &rules, &mut NullNewFact, &mut Default::default());
        assert_eq!(db_n, db_s);
    }
}
