//! `evaluate` and `LineageStream` against a nested-loop reference: no
//! index, no plan, every atom's rows scanned in written order.
//!
//! Answer sets and lineages must be bit-identical to the reference, and
//! answers must come out in ascending head-tuple order, whatever join
//! order the planner picks for the data. The endogenous lineages of both,
//! built by dropping exogenous facts during the join, must equal the
//! reference's derivations projected onto the endogenous facts and
//! minimized, and `OutputTuple::endo_lineage` of the full lineages.

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

/// Joins `cq.atoms[i..]` by scanning each relation in full.
fn nested_loops(
    cq: &ConjunctiveQuery,
    db: &Database,
    i: usize,
    binding: &mut Vec<Option<Value>>,
    used: &mut Vec<VarId>,
    out: &mut Derivations,
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
            nested_loops(cq, db, i + 1, binding, used, out);
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
        nested_loops(cq, db, 0, &mut binding, &mut Vec::new(), &mut out);
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

fn assert_matches_reference(q: &Ucq, db: &Database, tag: &str) {
    let want = reference(q, db, false);
    let evaluated = evaluate(q, db).outputs;
    let streamed: Vec<OutputTuple> = LineageStream::new(q, db).collect();
    for (how, got) in [("evaluate", &evaluated), ("stream", &streamed)] {
        assert_eq!(got.len(), want.len(), "{tag}: {how} answer count");
        for (g, (tuple, lineage)) in got.iter().zip(&want) {
            assert_eq!(&g.tuple, tuple, "{tag}: {how} answer order");
            assert_eq!(&g.lineage, lineage, "{tag}: {how} lineage of {tuple:?}");
        }
    }

    let want_endo = reference(q, db, true);
    let kind = LineageKind::Endogenous;
    let evaluated_endo = evaluate_with(q, db, kind).outputs;
    let streamed_endo: Vec<OutputTuple> = LineageStream::with_kind(q, db, kind).collect();
    for (how, got) in [("evaluate", evaluated_endo), ("stream", streamed_endo)] {
        assert_eq!(
            got.len(),
            want_endo.len(),
            "{tag}: endogenous {how} answer count"
        );
        for ((g, (tuple, lineage)), full) in got.iter().zip(&want_endo).zip(&evaluated) {
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

#[test]
fn paper_queries_match_the_reference() {
    let tpch = tpch_database(&TpchConfig {
        scale: 0.25,
        ..Default::default()
    });
    for q in tpch_queries() {
        assert_matches_reference(&q.ucq, &tpch, &q.name);
    }
    let imdb = imdb_database(&ImdbConfig {
        movies: 250,
        ..Default::default()
    });
    for q in imdb_queries() {
        assert_matches_reference(&q.ucq, &imdb, &q.name);
    }
}

#[test]
fn job_smoke_corpus_matches_the_reference() {
    let db = job_database(&JobConfig::smoke());
    assert_matches_reference(&job_ranking_query(), &db, "job");
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
