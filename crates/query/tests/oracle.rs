//! `evaluate` and `LineageStream` against a nested-loop reference: no
//! index, no plan, every atom's rows scanned in written order.
//!
//! Answer sets and lineages must be bit-identical to the reference, and
//! answers must come out in ascending head-tuple order, whatever join
//! order the planner picks for the data. The endogenous lineages of both,
//! built by dropping exogenous facts during the join, must equal the
//! reference's derivations projected onto the endogenous facts and
//! minimized, and `OutputTuple::endo_lineage` of the full lineages.
//!
//! Each query runs three times over the hash indexes its database keeps:
//! cold (every extraction on a fresh clone, which has none), warm (all on
//! one database that already built them), and after inserts that add an
//! answer, which must drop the stale indexes of the relations they touch.

use proptest::prelude::*;
use shapdb_circuit::{Dnf, VarId};
use shapdb_data::FactId;
use shapdb_data::{Database, Value};
use shapdb_query::{
    evaluate, evaluate_with, CmpOp, ConjunctiveQuery, CqBuilder, LineageKind, LineageStream,
    OutputTuple, Term, Ucq,
};
use shapdb_workloads::{
    imdb_database, imdb_queries, job_database, job_ranking_query, tpch_database, tpch_queries,
    ImdbConfig, JobConfig, TpchConfig,
};
use std::collections::BTreeMap;

type Derivations = BTreeMap<Vec<Value>, Vec<Vec<VarId>>>;

fn value(t: &Term, binding: &[Option<Value>]) -> Option<Value> {
    match t {
        Term::Const(c) => Some(c.clone()),
        Term::Var(v) => binding[v.index()].clone(),
    }
}

/// Joins `cq.atoms[i..]` by scanning each relation in full. `witness`
/// receives the first full binding that satisfies the predicates.
fn nested_loops(
    cq: &ConjunctiveQuery,
    db: &Database,
    i: usize,
    binding: &mut Vec<Option<Value>>,
    used: &mut Vec<VarId>,
    out: &mut Derivations,
    witness: &mut Option<Vec<Option<Value>>>,
) {
    let Some(atom) = cq.atoms.get(i) else {
        let holds =
            cq.predicates
                .iter()
                .all(|p| match (value(&p.lhs, binding), value(&p.rhs, binding)) {
                    (Some(l), Some(r)) => p.op.apply(&l, &r),
                    _ => false,
                });
        if holds {
            let tuple = cq.head.iter().map(|t| value(t, binding).unwrap()).collect();
            out.entry(tuple).or_default().push(used.clone());
            witness.get_or_insert_with(|| binding.clone());
        }
        return;
    };
    let Some(rel) = db.relation(&atom.relation) else {
        return;
    };
    for fact in rel.facts() {
        let saved = binding.clone();
        let mut ok = true;
        for (t, v) in atom.terms.iter().zip(fact.values.iter()) {
            match t {
                Term::Const(c) => ok &= c == v,
                Term::Var(x) => match &binding[x.index()] {
                    Some(b) => ok &= b == v,
                    None => binding[x.index()] = Some(v.clone()),
                },
            }
        }
        if ok {
            used.push(VarId(fact.id.0));
            nested_loops(cq, db, i + 1, binding, used, out, witness);
            used.pop();
        }
        *binding = saved;
    }
}

/// Every answer with its minimized lineage, in ascending tuple order;
/// with `endogenous_only`, each derivation keeps its endogenous facts
/// only, before minimizing.
fn reference(q: &Ucq, db: &Database, endogenous_only: bool) -> Vec<(Vec<Value>, Dnf)> {
    let mut out = Derivations::new();
    for cq in q.disjuncts() {
        let mut binding = vec![None; cq.num_vars()];
        nested_loops(
            cq,
            db,
            0,
            &mut binding,
            &mut Vec::new(),
            &mut out,
            &mut None,
        );
    }
    out.into_iter()
        .map(|(tuple, conjuncts)| {
            let mut lineage = Dnf::new();
            for mut c in conjuncts {
                if endogenous_only {
                    c.retain(|v| db.is_endogenous(FactId(v.0)));
                }
                lineage.add_conjunct(c);
            }
            lineage.minimize();
            (tuple, lineage)
        })
        .collect()
}

/// One of the four extractions: `evaluate` or the stream, of `kind`.
fn extract(q: &Ucq, db: &Database, kind: LineageKind, streamed: bool) -> Vec<OutputTuple> {
    match (kind, streamed) {
        (LineageKind::Full, false) => evaluate(q, db).outputs,
        (LineageKind::Full, true) => LineageStream::new(q, db).collect(),
        (_, false) => evaluate_with(q, db, kind).outputs,
        (_, true) => LineageStream::with_kind(q, db, kind).collect(),
    }
}

/// The reference's full and endogenous answers.
struct Want {
    full: Vec<(Vec<Value>, Dnf)>,
    endo: Vec<(Vec<Value>, Dnf)>,
}

impl Want {
    fn of(q: &Ucq, db: &Database) -> Want {
        Want {
            full: reference(q, db, false),
            endo: reference(q, db, true),
        }
    }
}

/// Checks all four extractions against `want`; `fresh` gives the database
/// each one runs on.
fn assert_extractions_match<'d>(
    q: &Ucq,
    want: &Want,
    mut fresh: impl FnMut() -> &'d Database,
    tag: &str,
) {
    let (want, want_endo) = (&want.full, &want.endo);
    let db = fresh();
    let evaluated = extract(q, fresh(), LineageKind::Full, false);
    for streamed in [false, true] {
        let how = if streamed { "stream" } else { "evaluate" };
        let got = match streamed {
            false => evaluated.clone(),
            true => extract(q, fresh(), LineageKind::Full, true),
        };
        assert_eq!(got.len(), want.len(), "{tag}: {how} answer count");
        for (g, (tuple, lineage)) in got.iter().zip(want) {
            assert_eq!(&g.tuple, tuple, "{tag}: {how} answer order");
            assert_eq!(&g.lineage, lineage, "{tag}: {how} lineage of {tuple:?}");
        }

        let got = extract(q, fresh(), LineageKind::Endogenous, streamed);
        assert_eq!(
            got.len(),
            want_endo.len(),
            "{tag}: endogenous {how} answer count"
        );
        for ((g, (tuple, lineage)), full) in got.iter().zip(want_endo).zip(&evaluated) {
            assert_eq!(&g.tuple, tuple, "{tag}: endogenous {how} answer order");
            assert_eq!(&g.lineage, lineage, "{tag}: endogenous {how} of {tuple:?}");
            assert_eq!(
                g.lineage,
                full.endo_lineage(db),
                "{tag}: {how} ≠ endo_lineage"
            );
        }
    }
}

/// A value no generated database holds, of `like`'s type.
fn fresh_value(like: &Value, salt: usize) -> Value {
    match like {
        Value::Int(_) => Value::int(1_000_000_007 + salt as i64),
        Value::Str(_) => Value::str(&format!("~fresh{salt}")),
    }
}

/// Facts whose insertion adds an answer to `q`: one per atom of the first
/// disjunct with a derivation, under that derivation's binding with every
/// variable that no predicate mentions renamed to a fresh value. `None`
/// when no disjunct derives anything or every head variable is in a
/// predicate (then the inserts would not make a new answer).
fn answer_adding_facts(q: &Ucq, db: &Database) -> Option<Vec<(String, Vec<Value>)>> {
    q.disjuncts().iter().find_map(|cq| {
        let mut witness = None;
        let mut binding = vec![None; cq.num_vars()];
        let mut out = Derivations::new();
        nested_loops(
            cq,
            db,
            0,
            &mut binding,
            &mut Vec::new(),
            &mut out,
            &mut witness,
        );
        let mut binding = witness?;
        let in_pred = |x: usize| {
            cq.predicates.iter().any(|p| {
                [&p.lhs, &p.rhs]
                    .iter()
                    .any(|t| matches!(t, Term::Var(v) if v.index() == x))
            })
        };
        let head_renamed = cq.head_vars().iter().any(|v| !in_pred(v.index()));
        if !head_renamed {
            return None;
        }
        for (x, v) in binding.iter_mut().enumerate() {
            if let Some(v) = v.as_mut().filter(|_| !in_pred(x)) {
                *v = fresh_value(v, x);
            }
        }
        let facts = cq
            .atoms
            .iter()
            .map(|atom| {
                let values = atom
                    .terms
                    .iter()
                    .map(|t| value(t, &binding).unwrap())
                    .collect();
                (atom.relation.clone(), values)
            })
            .collect();
        Some(facts)
    })
}

/// [`assert_extractions_match`] cold, warm, and after inserts that add an
/// answer (when [`answer_adding_facts`] finds them). Returns whether the
/// inserts ran.
fn assert_matches_reference(q: &Ucq, db: &Database, tag: &str) -> bool {
    let want = Want::of(q, db);
    let clones: Vec<Database> = (0..5).map(|_| db.clone()).collect();
    assert!(clones.iter().all(|c| c.index_bytes() == 0));
    let mut cold = clones.iter();
    let tagged = |phase: &str| format!("{tag} ({phase})");
    assert_extractions_match(q, &want, || cold.next().unwrap(), &tagged("cold"));

    let mut db = db.clone();
    assert_extractions_match(q, &want, || &db, &tagged("warming"));
    let built = db.index_bytes();
    assert_extractions_match(q, &want, || &db, &tagged("warm"));
    assert_eq!(db.index_bytes(), built, "{tag}: a warm call builds nothing");

    let Some(facts) = answer_adding_facts(q, &db) else {
        return false;
    };
    for (relation, values) in facts {
        db.insert(&relation, values, true);
    }
    let after = Want::of(q, &db);
    assert!(
        after.full.len() > want.full.len(),
        "{tag}: the inserts add an answer"
    );
    assert_extractions_match(q, &after, || &db, &tagged("after insert"));
    true
}

#[test]
fn paper_queries_match_the_reference() {
    let tpch = tpch_database(&TpchConfig {
        scale: 0.25,
        ..Default::default()
    });
    let mut inserted = 0;
    for q in tpch_queries() {
        inserted += usize::from(assert_matches_reference(&q.ucq, &tpch, &q.name));
    }
    let imdb = imdb_database(&ImdbConfig {
        movies: 250,
        ..Default::default()
    });
    for q in imdb_queries() {
        inserted += usize::from(assert_matches_reference(&q.ucq, &imdb, &q.name));
    }
    assert!(inserted >= 12, "{inserted} queries gained an answer");
}

#[test]
fn job_smoke_corpus_matches_the_reference() {
    let db = job_database(&JobConfig::smoke());
    assert!(assert_matches_reference(&job_ranking_query(), &db, "job"));
}

/// Reads a random query off a stream of choices.
struct Choices<'c>(std::slice::Iter<'c, u8>);

impl Choices<'_> {
    fn pick(&mut self, n: usize) -> usize {
        self.0.next().map_or(0, |&c| c as usize % n)
    }
}

const RELATIONS: [(&str, usize); 3] = [("R", 2), ("S", 2), ("T", 1)];
const OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

/// A disjunct of 1–3 atoms over `RELATIONS` (relations may repeat), terms
/// drawn from four variables and three constants, at most one comparison,
/// and a head of `arity` terms over the variables the atoms use.
fn random_disjunct(c: &mut Choices, arity: usize) -> ConjunctiveQuery {
    let mut b = CqBuilder::new();
    let vars = [b.var("x"), b.var("y"), b.var("z"), b.var("w")];
    let mut used = Vec::new();
    for _ in 0..1 + c.pick(3) {
        let (name, n) = RELATIONS[c.pick(RELATIONS.len())];
        let terms: Vec<Term> = (0..n)
            .map(|_| match c.pick(5) {
                0 => Term::int(c.pick(3) as i64),
                _ => {
                    let v = vars[c.pick(vars.len())];
                    used.push(v);
                    Term::Var(v)
                }
            })
            .collect();
        b.atom(name, terms);
    }
    // Sometimes over a variable no atom binds: then nothing derives.
    if c.pick(3) == 0 {
        let lhs = Term::Var(vars[c.pick(vars.len())]);
        let rhs = match c.pick(2) {
            0 => Term::int(c.pick(4) as i64),
            _ => Term::Var(vars[c.pick(vars.len())]),
        };
        b.filter(lhs, OPS[c.pick(OPS.len())], rhs);
    }
    let head: Vec<Term> = (0..arity)
        .map(|_| match used.is_empty() || c.pick(4) == 0 {
            true => Term::int(c.pick(2) as i64),
            false => Term::Var(used[c.pick(used.len())]),
        })
        .collect();
    b.head(head).build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]
    #[test]
    fn prop_random_ucqs_match_the_reference(
        r in proptest::collection::vec((0i64..4, 0i64..4, any::<bool>()), 0..14),
        s in proptest::collection::vec((0i64..4, 0i64..4, any::<bool>()), 0..10),
        t in proptest::collection::vec((0i64..4, any::<bool>()), 0..5),
        shape in proptest::collection::vec(any::<u8>(), 64),
    ) {
        let mut db = Database::new();
        db.create_relation("R", &["a", "b"]);
        db.create_relation("S", &["a", "b"]);
        db.create_relation("T", &["a"]);
        let rows = r.iter().map(|&(a, b, e)| ("R", vec![a, b], e))
            .chain(s.iter().map(|&(a, b, e)| ("S", vec![a, b], e)))
            .chain(t.iter().map(|&(a, e)| ("T", vec![a], e)));
        for (rel, values, endo) in rows {
            db.insert(rel, values.into_iter().map(Value::int).collect(), endo);
        }
        let mut c = Choices(shape.iter());
        let arity = c.pick(3);
        let disjuncts = (0..1 + c.pick(3)).map(|_| random_disjunct(&mut c, arity)).collect();
        assert_matches_reference(&Ucq::new(disjuncts), &db, "random");
    }
}
