//! Provenance-capturing query evaluation.
//!
//! Enumerates all derivations of a UCQ over a database. Each derivation is
//! the set of facts it uses; grouping derivations by output tuple yields
//! the monotone DNF lineage `Lin(q[x̄/t̄], D)` of Figure 1d.
//!
//! One evaluator serves one call. It plans each disjunct once per set of
//! initially bound variables (module `plan`: a cost-ordered join that
//! avoids cross products), probes the database's hash indexes
//! ([`Database::index`]: built on first use, then shared by every call
//! over the database until an insert drops them), and runs the same
//! allocation-free backtracking search for every plan: all derivations
//! for [`evaluate`] and the negation evaluator, one answer's derivations
//! per seeded call for the stream, and one match per answer for the
//! stream's answer pass. There the search backtracks to the depth where
//! the plan has bound every head variable as soon as a match completes,
//! and skips a row whose head binding is an answer already found, in this
//! disjunct or an earlier one.
//!
//! The search builds either lineage a [`LineageKind`] names. In
//! [`LineageKind::Endogenous`] mode it leaves each exogenous fact out of a
//! derivation as the fact is joined, so the evaluation yields Figure 3's
//! `ELin` with one minimize per answer: absorption commutes with setting
//! facts to true, so `minimize(project(derivations))` equals
//! [`OutputTuple::endo_lineage`] of the minimized full lineage bit for bit.
//!
//! Answers come out in ascending head-tuple order (the total order on
//! [`Value`]). The contract does not depend on the join order, which
//! changes with the data.

mod plan;

use crate::ast::{Atom, ConjunctiveQuery, Predicate, Term, Ucq, MAX_ATOM_TERMS};
pub(crate) use plan::Plan;
use plan::{positions, Src, Step};
use shapdb_circuit::{Circuit, Dnf, NodeId, VarId};
use shapdb_data::{Database, FactId, Index, Relation, StoredFact, Value};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;

/// Which lineage an evaluation builds for each answer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum LineageKind {
    /// `Lin`: every fact of every derivation.
    #[default]
    Full,
    /// `ELin`: the lineage with every exogenous fact set to true, which is
    /// [`OutputTuple::endo_lineage`] of the full lineage. An answer with an
    /// all-exogenous derivation gets `⊤` (one empty conjunct).
    Endogenous,
}

impl LineageKind {
    pub(crate) fn emit(self) -> Emit {
        match self {
            LineageKind::Full => Emit::Facts,
            LineageKind::Endogenous => Emit::EndogenousFacts,
        }
    }
}

/// What a search hands its callback per match.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Emit {
    /// Every match, with every fact it joins.
    Facts,
    /// Every match, with its endogenous facts only.
    EndogenousFacts,
}

/// One output tuple with its lineage.
#[derive(Clone, Debug)]
pub struct OutputTuple {
    /// The head values (empty for Boolean queries).
    pub tuple: Vec<Value>,
    /// Monotone DNF over fact ids: one conjunct per derivation, minimized.
    /// Over every fact for [`LineageKind::Full`] (what [`evaluate`] and
    /// [`LineageStream::new`](crate::LineageStream::new) build), over the
    /// endogenous facts only for [`LineageKind::Endogenous`].
    pub lineage: Dnf,
}

impl OutputTuple {
    /// Facts mentioned by the lineage.
    pub fn facts(&self) -> Vec<FactId> {
        self.lineage
            .vars()
            .into_iter()
            .map(|v| FactId(v.0))
            .collect()
    }

    /// Builds the lineage as a circuit over fact-id variables.
    pub fn lineage_circuit(&self) -> (Circuit, NodeId) {
        let mut c = Circuit::new();
        let root = self.lineage.to_circuit(&mut c);
        (c, root)
    }

    /// The *endogenous* lineage `ELin` (Figure 3's partial-eval step): the
    /// DNF with exogenous facts fixed to true. An empty conjunct means the
    /// tuple is certain (`ELin ≡ ⊤`).
    pub fn endo_lineage(&self, db: &Database) -> Dnf {
        let mut out = Dnf::new();
        for conj in self.lineage.conjuncts() {
            let endo: Vec<VarId> = conj
                .iter()
                .copied()
                .filter(|v| db.is_endogenous(FactId(v.0)))
                .collect();
            out.add_conjunct(endo);
        }
        out.minimize();
        out
    }
}

/// The result of evaluating a query: output tuples in ascending head-tuple
/// order.
#[derive(Clone, Debug, Default)]
pub struct QueryResult {
    pub outputs: Vec<OutputTuple>,
}

impl QueryResult {
    /// Number of output tuples.
    pub fn len(&self) -> usize {
        self.outputs.len()
    }

    /// True iff the query returned nothing.
    pub fn is_empty(&self) -> bool {
        self.outputs.is_empty()
    }

    /// For Boolean queries: whether the query holds on the full database.
    pub fn boolean_answer(&self) -> bool {
        !self.outputs.is_empty()
    }

    /// Finds an output by tuple value.
    pub fn get(&self, tuple: &[Value]) -> Option<&OutputTuple> {
        self.outputs.iter().find(|o| o.tuple == tuple)
    }
}

/// Evaluates a UCQ, returning every output tuple with its DNF lineage.
pub fn evaluate(q: &Ucq, db: &Database) -> QueryResult {
    evaluate_with(q, db, LineageKind::Full)
}

/// [`evaluate`], building the lineage `kind` names for every answer.
pub fn evaluate_with(q: &Ucq, db: &Database, kind: LineageKind) -> QueryResult {
    Evaluator::new(db).evaluate(q, kind)
}

/// Evaluates a single conjunctive query.
pub fn evaluate_cq(cq: &ConjunctiveQuery, db: &Database) -> QueryResult {
    evaluate(&Ucq::new(vec![cq.clone()]), db)
}

/// The state of one evaluation call over a database, whose indexes its
/// plans probe.
pub(crate) struct Evaluator<'a> {
    db: &'a Database,
    /// Rows the searches of this call have visited, matching or not.
    rows_visited: Cell<u64>,
    /// Full matches the searches of this call have found.
    matches: Cell<u64>,
}

impl<'a> Evaluator<'a> {
    pub(crate) fn new(db: &'a Database) -> Evaluator<'a> {
        Evaluator {
            db,
            rows_visited: Cell::new(0),
            matches: Cell::new(0),
        }
    }

    /// Plans `cq` with no variable bound up front.
    pub(crate) fn plan(&self, cq: &ConjunctiveQuery) -> Plan {
        Plan::new(cq, &vec![false; cq.num_vars()], self.db)
    }

    /// Plans `cq` for calls seeded by [`seed_binding`]: head variables bound.
    pub(crate) fn plan_seeded(&self, cq: &ConjunctiveQuery) -> Plan {
        let mut seeded = vec![false; cq.num_vars()];
        for v in cq.head_vars() {
            seeded[v.index()] = true;
        }
        Plan::new(cq, &seeded, self.db)
    }

    /// Enumerates the derivations of `plan` consistent with `seed` (one
    /// entry per variable), calling `on_match` with the full binding and
    /// the facts `emit` keeps, in plan order and possibly repeated.
    pub(crate) fn run<'b, F>(
        &self,
        plan: &Plan,
        seed: Vec<Option<&'b Value>>,
        emit: Emit,
        mut on_match: F,
    ) where
        'a: 'b,
        F: FnMut(&[Option<&'b Value>], &[FactId]),
    {
        let keep_exogenous = emit != Emit::EndogenousFacts;
        self.search(plan, seed, keep_exogenous, None, &mut on_match);
    }

    /// The distinct head tuples of `q`, in ascending order, from one match
    /// per answer: each disjunct's search backtracks to the plan's
    /// [`Plan::head_depth`] after a match, and skips a head binding found
    /// before, in this disjunct or an earlier one.
    pub(crate) fn answer_pass<'b>(&self, q: &'b Ucq) -> Vec<Vec<Value>>
    where
        'a: 'b,
    {
        let mut found = Answers::default();
        for cq in q.disjuncts() {
            let plan = self.plan(cq);
            let seed = vec![None; cq.num_vars()];
            let cut = Cut {
                depth: plan.head_depth,
                head: &cq.head,
                found: &mut found,
            };
            self.search(&plan, seed, true, Some(cut), &mut |_, _| {});
        }
        found.sorted().into_iter().map(|(t, _)| t).collect()
    }

    fn search<'b, F>(
        &self,
        plan: &Plan,
        seed: Vec<Option<&'b Value>>,
        keep_exogenous: bool,
        cut: Option<Cut<'_, 'b>>,
        on_match: &mut F,
    ) where
        'a: 'b,
        F: FnMut(&[Option<&'b Value>], &[FactId]),
    {
        let Some(steps) = &plan.steps else {
            return;
        };
        if !plan.pre.iter().all(|p| holds(p, &seed)) {
            return;
        }
        let mut search = Search {
            steps,
            relations: self.db.relations(),
            binding: seed,
            used: Vec::with_capacity(steps.len()),
            keep_exogenous,
            cut,
            unwinding: false,
            visited: 0,
            matches: 0,
            on_match,
        };
        search.descend(0);
        self.rows_visited
            .set(self.rows_visited.get() + search.visited);
        self.matches.set(self.matches.get() + search.matches);
    }

    /// Rows visited so far by this evaluator's searches.
    #[cfg(test)]
    pub(crate) fn rows_visited(&self) -> u64 {
        self.rows_visited.get()
    }

    /// Full matches found so far by this evaluator's searches.
    #[cfg(test)]
    pub(crate) fn matches(&self) -> u64 {
        self.matches.get()
    }

    /// The index keyed by every position of the relation `atom` names, for
    /// ground lookups by [`Evaluator::matching`]; `None` when no fact can
    /// match (missing relation or different arity).
    pub(crate) fn exact_index(&self, atom: &Atom) -> Option<(usize, Arc<Index>)> {
        let rel = self.db.relation_id(&atom.relation)?;
        let arity = self.db.relations()[rel].schema().arity();
        if arity != atom.terms.len() || arity > MAX_ATOM_TERMS {
            return None;
        }
        Some((rel, self.db.index(rel, positions(0..arity))))
    }

    /// Facts whose values equal `ground`, from a lookup made by
    /// [`Evaluator::exact_index`].
    pub(crate) fn matching<'s>(
        &'s self,
        (rel, index): &'s (usize, Arc<Index>),
        ground: &'s [&Value],
    ) -> impl Iterator<Item = FactId> + 's {
        let facts = self.db.relations()[*rel].facts();
        index
            .probe(ground.iter().copied())
            .iter()
            .map(move |&row| &facts[row as usize])
            .filter(move |f| f.values.iter().eq(ground.iter().copied()))
            .map(|f| f.id)
    }

    /// [`evaluate_with`] on this evaluator's database.
    pub(crate) fn evaluate(&self, q: &Ucq, kind: LineageKind) -> QueryResult {
        let mut answers = Answers::default();
        for cq in q.disjuncts() {
            let plan = self.plan(cq);
            let seed = vec![None; cq.num_vars()];
            self.run(&plan, seed, kind.emit(), |binding, used| {
                answers.add(&cq.head, binding, used.iter().map(|f| VarId(f.0)).collect());
            });
        }
        let outputs = answers
            .sorted()
            .into_iter()
            .map(|(tuple, conjuncts)| {
                let mut lineage = Dnf::from_conjuncts(conjuncts);
                lineage.minimize();
                OutputTuple { tuple, lineage }
            })
            .collect();
        QueryResult { outputs }
    }
}

/// Builds an initial binding that pins `cq`'s head terms to `tuple`, so a
/// run of [`Evaluator::plan_seeded`]'s plan enumerates exactly the
/// derivations of that one answer. Returns `None` when the tuple cannot be
/// an answer of this disjunct at all: a head constant differs, or a
/// repeated head variable would need two different values.
pub(crate) fn seed_binding<'v>(
    cq: &ConjunctiveQuery,
    tuple: &'v [Value],
) -> Option<Vec<Option<&'v Value>>> {
    debug_assert_eq!(cq.head.len(), tuple.len(), "head/tuple arity");
    let mut binding: Vec<Option<&Value>> = vec![None; cq.num_vars()];
    for (term, value) in cq.head.iter().zip(tuple) {
        match term {
            Term::Const(c) => {
                if c != value {
                    return None;
                }
            }
            Term::Var(v) => match binding[v.index()] {
                Some(existing) => {
                    if existing != value {
                        return None;
                    }
                }
                None => binding[v.index()] = Some(value),
            },
        }
    }
    Some(binding)
}

/// Per-derivation items grouped by answer (head tuple).
pub(crate) struct Answers<'v, T> {
    ids: HashMap<Vec<&'v Value>, usize>,
    groups: Vec<Vec<T>>,
    scratch: Vec<&'v Value>,
}

impl<T> Default for Answers<'_, T> {
    fn default() -> Self {
        Answers {
            ids: HashMap::default(),
            groups: Vec::new(),
            scratch: Vec::new(),
        }
    }
}

impl<'v, T> Answers<'v, T> {
    /// Files `item` under the answer `head` evaluates to under `binding`.
    pub(crate) fn add(&mut self, head: &'v [Term], binding: &[Option<&'v Value>], item: T) {
        self.scratch.clear();
        self.scratch
            .extend(head.iter().map(|t| term_value(t, binding)));
        let id = match self.ids.get(self.scratch.as_slice()) {
            Some(&id) => id,
            None => {
                self.ids.insert(self.scratch.clone(), self.groups.len());
                self.groups.push(Vec::new());
                self.groups.len() - 1
            }
        };
        self.groups[id].push(item);
    }

    /// True iff an item was filed under the answer `head` evaluates to
    /// under `binding`.
    fn contains(&mut self, head: &'v [Term], binding: &[Option<&'v Value>]) -> bool {
        self.scratch.clear();
        self.scratch
            .extend(head.iter().map(|t| term_value(t, binding)));
        self.ids.contains_key(self.scratch.as_slice())
    }

    /// Every answer's tuple with its items, in ascending tuple order.
    pub(crate) fn sorted(mut self) -> Vec<(Vec<Value>, Vec<T>)> {
        let mut ids: Vec<(Vec<&Value>, usize)> = self.ids.into_iter().collect();
        ids.sort_unstable();
        ids.into_iter()
            .map(|(tuple, id)| {
                let items = std::mem::take(&mut self.groups[id]);
                (tuple.into_iter().cloned().collect(), items)
            })
            .collect()
    }
}

/// A term's value under a binding that binds its variable.
fn term_value<'v>(t: &'v Term, binding: &[Option<&'v Value>]) -> &'v Value {
    match t {
        Term::Const(c) => c,
        Term::Var(v) => binding[v.index()].expect("variable bound by the plan"),
    }
}

fn holds(p: &Predicate, binding: &[Option<&Value>]) -> bool {
    p.op.apply(term_value(&p.lhs, binding), term_value(&p.rhs, binding))
}

/// The answer pass's cut: after a match the search backtracks to `depth`,
/// where the plan has bound every head variable, and does not descend
/// below it for a head binding already in `found`.
struct Cut<'p, 'b> {
    depth: usize,
    head: &'b [Term],
    found: &'p mut Answers<'b, ()>,
}

/// The backtracking join over one plan. A plan binds the same variables
/// at every depth, so nothing is unbound on the way back up.
struct Search<'p, 'b, F> {
    steps: &'p [Step],
    relations: &'b [Relation],
    binding: Vec<Option<&'b Value>>,
    /// The facts joined on the way down, exogenous ones only if
    /// `keep_exogenous`.
    used: Vec<FactId>,
    keep_exogenous: bool,
    /// The answer pass's cut ([`Evaluator::answer_pass`] only).
    cut: Option<Cut<'p, 'b>>,
    /// Set by a match under a cut, cleared on reaching the cut depth.
    unwinding: bool,
    visited: u64,
    matches: u64,
    on_match: &'p mut F,
}

impl<'p, 'b, F> Search<'p, 'b, F>
where
    F: FnMut(&[Option<&'b Value>], &[FactId]),
{
    fn descend(&mut self, depth: usize) {
        if let Some(cut) = &mut self.cut {
            if depth == cut.depth && cut.found.contains(cut.head, &self.binding) {
                return;
            }
        }
        let steps = self.steps;
        let Some(step) = steps.get(depth) else {
            self.matches += 1;
            (self.on_match)(&self.binding, &self.used);
            if let Some(cut) = &mut self.cut {
                cut.found.add(cut.head, &self.binding, ());
                self.unwinding = true;
            }
            return;
        };
        let facts = self.relations[step.rel].facts();
        match &step.index {
            None => {
                for fact in facts {
                    self.visit(depth, step, fact);
                    if self.unwinding {
                        return;
                    }
                }
            }
            Some(index) => {
                let rows = index.probe(step.bound.iter().map(|(_, src)| self.value(src)));
                for &row in rows {
                    self.visit(depth, step, &facts[row as usize]);
                    if self.unwinding {
                        return;
                    }
                }
            }
        }
    }

    fn value<'s>(&'s self, src: &'s Src) -> &'s Value {
        match src {
            Src::Const(c) => c,
            Src::Var(x) => self.binding[*x].expect("variable bound by the plan"),
        }
    }

    fn visit(&mut self, depth: usize, step: &'p Step, fact: &'b StoredFact) {
        self.visited += 1;
        let values: &'b [Value] = &fact.values;
        if !step
            .bound
            .iter()
            .all(|(i, src)| values[*i] == *self.value(src))
        {
            return;
        }
        for &(i, x) in &step.binds {
            self.binding[x] = Some(&values[i]);
        }
        if !step
            .repeats
            .iter()
            .all(|&(i, x)| self.binding[x] == Some(&values[i]))
        {
            return;
        }
        if !step.preds.iter().all(|p| holds(p, &self.binding)) {
            return;
        }
        let keep = fact.endogenous || self.keep_exogenous;
        if keep {
            self.used.push(fact.id);
        }
        self.descend(depth + 1);
        if keep {
            self.used.pop();
        }
        // Every match below this depth repeats the answer just found.
        if self.cut.as_ref().is_some_and(|cut| cut.depth == depth + 1) {
            self.unwinding = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{flights_query, CmpOp, CqBuilder};
    use shapdb_data::flights_example;

    #[test]
    fn flights_lineage_matches_figure_1d() {
        let (db, a) = flights_example();
        let q = flights_query();
        let res = evaluate(&q, &db);
        assert_eq!(res.len(), 1, "Boolean query: single (empty) output tuple");
        let out = &res.outputs[0];
        assert!(out.tuple.is_empty());
        // Figure 1d: 6 derivations.
        assert_eq!(out.lineage.len(), 6);
        // Endogenous lineage (Example 4.2): a1 ∨ (a2∧a4) ∨ (a2∧a5) ∨ (a3∧a4) ∨ (a3∧a5) ∨ (a6∧a7).
        let elin = out.endo_lineage(&db);
        let expect: Vec<Vec<VarId>> = vec![
            vec![VarId(a[0].0)],
            vec![VarId(a[1].0), VarId(a[3].0)],
            vec![VarId(a[1].0), VarId(a[4].0)],
            vec![VarId(a[2].0), VarId(a[3].0)],
            vec![VarId(a[2].0), VarId(a[4].0)],
            vec![VarId(a[5].0), VarId(a[6].0)],
        ];
        let mut got: Vec<Vec<VarId>> = elin.conjuncts().to_vec();
        got.sort();
        let mut want = expect;
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn non_boolean_projection_groups_derivations() {
        // q(c) :- Airports(x, c), Flights(x, y): destination countries per source.
        let (db, _) = flights_example();
        let mut b = CqBuilder::new();
        let x = b.var("x");
        let y = b.var("y");
        let c = b.var("c");
        b.atom("Airports", [x.into(), c.into()]);
        b.atom("Flights", [x.into(), y.into()]);
        let q = b.head([c.into()]).build();
        let res = evaluate_cq(&q, &db);
        // Source countries: USA (JFK,EWR,BOS,LAX), EN (LHR x3), GR (MUC).
        assert_eq!(res.len(), 3);
        let usa = res.get(&[Value::str("USA")]).unwrap();
        assert_eq!(usa.lineage.len(), 4);
        let en = res.get(&[Value::str("EN")]).unwrap();
        assert_eq!(en.lineage.len(), 3);
    }

    #[test]
    fn predicates_filter_rows() {
        let mut db = Database::new();
        db.create_relation("R", &["a", "b"]);
        for i in 0..10 {
            db.insert_endo("R", vec![Value::int(i), Value::int(i * i)]);
        }
        let mut b = CqBuilder::new();
        let x = b.var("x");
        let y = b.var("y");
        b.atom("R", [x.into(), y.into()]);
        b.filter(x.into(), CmpOp::Ge, Term::int(3));
        b.filter(y.into(), CmpOp::Lt, Term::int(50));
        let q = b.head([x.into()]).build();
        let res = evaluate_cq(&q, &db);
        // x in {3,...,7} since 7^2=49 < 50 but 8^2=64 >= 50.
        assert_eq!(res.len(), 5);
    }

    #[test]
    fn self_join_uses_one_variable_per_fact() {
        // q() :- R(x,y), R(y,z): paths of length 2, incl. through the same fact.
        let mut db = Database::new();
        db.create_relation("R", &["a", "b"]);
        let f0 = db.insert_endo("R", vec![Value::int(1), Value::int(1)]); // self-loop
        let f1 = db.insert_endo("R", vec![Value::int(1), Value::int(2)]);
        let mut b = CqBuilder::new();
        let x = b.var("x");
        let y = b.var("y");
        let z = b.var("z");
        b.atom("R", [x.into(), y.into()]);
        b.atom("R", [y.into(), z.into()]);
        let q = b.build();
        let res = evaluate_cq(&q, &db);
        let out = &res.outputs[0];
        // Derivations: (f0,f0) → {f0}; (f0,f1) → {f0,f1}. After minimize:
        // {f0} absorbs {f0,f1}.
        let conjs = out.lineage.conjuncts();
        assert_eq!(conjs.len(), 1);
        assert_eq!(conjs[0], vec![VarId(f0.0)]);
        let _ = f1;
    }

    #[test]
    fn empty_result_for_unsatisfied_query() {
        let (db, _) = flights_example();
        let mut b = CqBuilder::new();
        let x = b.var("x");
        b.atom("Airports", [x.into(), "MARS".into()]);
        let q = b.build();
        let res = evaluate_cq(&q, &db);
        assert!(res.is_empty());
        assert!(!res.boolean_answer());
    }

    #[test]
    fn unknown_relation_yields_empty() {
        let (db, _) = flights_example();
        let mut b = CqBuilder::new();
        let x = b.var("x");
        b.atom("NoSuchTable", [x.into()]);
        let q = b.build();
        assert!(evaluate_cq(&q, &db).is_empty());
    }

    #[test]
    fn constant_only_atom() {
        let (db, _) = flights_example();
        let mut b = CqBuilder::new();
        b.atom("Airports", ["JFK".into(), "USA".into()]);
        let q = b.build();
        let res = evaluate_cq(&q, &db);
        assert!(res.boolean_answer());
        assert_eq!(res.outputs[0].lineage.len(), 1);
        assert_eq!(res.outputs[0].lineage.conjuncts()[0].len(), 1);
    }

    #[test]
    fn certain_tuple_has_tautological_endo_lineage() {
        // All facts exogenous: the endo lineage must be ⊤ (one empty conjunct).
        let mut db = Database::new();
        db.create_relation("R", &["a"]);
        db.insert_exo("R", vec![Value::int(1)]);
        let mut b = CqBuilder::new();
        let x = b.var("x");
        b.atom("R", [x.into()]);
        let q = b.build();
        let res = evaluate_cq(&q, &db);
        let elin = res.outputs[0].endo_lineage(&db);
        assert_eq!(elin.len(), 1);
        assert!(elin.conjuncts()[0].is_empty());
        assert!(elin.eval_set(&shapdb_num::Bitset::new(1)));
    }

    /// A skewed triangle: hub company 0 makes `hub` movies and tags `hub`
    /// keywords; movie `i` carries keyword `i`, so each movie has exactly
    /// one derivation. Filler rows make `company_keyword` and
    /// `movie_companies` smaller than `movie_keyword`, so a size-greedy
    /// order goes keyword → company_keyword → movie_companies and fans out
    /// over every hub movie for every hub keyword.
    fn skewed_triangle(hub: i64) -> (Database, Ucq) {
        let mut db = Database::new();
        db.create_relation("keyword", &["id", "tag"]);
        db.create_relation("movie_keyword", &["movie_id", "keyword_id"]);
        db.create_relation("company_keyword", &["company_id", "keyword_id"]);
        db.create_relation("movie_companies", &["movie_id", "company_id"]);
        let ints = |a: i64, b: i64| vec![Value::int(a), Value::int(b)];
        for i in 0..hub {
            db.insert_exo("keyword", ints(i, i % 3));
            db.insert_endo("movie_keyword", ints(i, i));
            db.insert_endo("company_keyword", ints(0, i));
            db.insert_endo("movie_companies", ints(i, 0));
        }
        db.insert_endo("company_keyword", ints(1, hub));
        db.insert_endo("movie_companies", ints(hub, 1));
        for i in hub + 1..3 * hub {
            db.insert_endo("movie_keyword", ints(i, i));
        }
        let mut b = CqBuilder::new();
        let m = b.var("m");
        let k = b.var("k");
        let c = b.var("c");
        let t = b.var("t");
        b.atom("keyword", [k.into(), t.into()]);
        b.atom("movie_keyword", [m.into(), k.into()]);
        b.atom("company_keyword", [c.into(), k.into()]);
        b.atom("movie_companies", [m.into(), c.into()]);
        (db, b.head([m.into()]).build().into())
    }

    #[test]
    fn skewed_hub_keeps_rows_visited_linear_in_derivations() {
        let hub = 200;
        let (db, q) = skewed_triangle(hub);
        let ev = Evaluator::new(&db);
        let mut derivations = 0u64;
        for cq in q.disjuncts() {
            let plan = ev.plan(cq);
            let seed = vec![None; cq.num_vars()];
            ev.run(&plan, seed, Emit::Facts, |_, _| derivations += 1);
        }
        assert_eq!(derivations, hub as u64);
        assert!(
            ev.rows_visited() <= 8 * derivations,
            "{} rows visited for {derivations} derivations",
            ev.rows_visited()
        );
        // The per-answer plan stays linear too.
        let mut stream = crate::LineageStream::new(&q, &db);
        assert_eq!(stream.by_ref().count(), hub as usize);
        assert!(stream.rows_visited() <= 16 * derivations);
    }

    #[test]
    fn answer_pass_visits_rows_linear_in_answers_on_a_star() {
        // q(m) :- T(m), C(m, p), K(m, k): 30 × 30 derivations per answer.
        let answers = 50;
        let mut db = Database::new();
        db.create_relation("T", &["m"]);
        db.create_relation("C", &["m", "p"]);
        db.create_relation("K", &["m", "k"]);
        for m in 0..answers {
            db.insert_endo("T", vec![Value::int(m)]);
            for i in 0..30 {
                db.insert_endo("C", vec![Value::int(m), Value::int(i)]);
                db.insert_exo("K", vec![Value::int(m), Value::int(i)]);
            }
        }
        let mut b = CqBuilder::new();
        let (m, p, k) = (b.var("m"), b.var("p"), b.var("k"));
        b.atom("T", [m.into()]);
        b.atom("C", [m.into(), p.into()]);
        b.atom("K", [m.into(), k.into()]);
        let q: Ucq = b.head([m.into()]).build().into();
        let stream = crate::LineageStream::new(&q, &db);
        let answer_pass = stream.rows_visited();
        assert_eq!(stream.len(), answers as usize);
        assert!(
            answer_pass <= 4 * answers as u64,
            "{answer_pass} rows visited for {answers} answers"
        );
    }

    #[test]
    fn answer_pass_with_the_head_bound_at_the_last_step_finds_every_answer() {
        // q(h) :- A(k), B(h, k): the small A goes first, so the plan binds
        // h only at its last step and the cut never skips a row.
        let mut db = Database::new();
        db.create_relation("A", &["k"]);
        db.create_relation("B", &["h", "k"]);
        for k in 0..3 {
            db.insert_endo("A", vec![Value::int(k)]);
        }
        for h in 0..60 {
            for k in [h % 5, (h + 1) % 5] {
                db.insert_endo("B", vec![Value::int(h), Value::int(k)]);
            }
        }
        let mut b = CqBuilder::new();
        let (h, k) = (b.var("h"), b.var("k"));
        b.atom("A", [k.into()]);
        b.atom("B", [h.into(), k.into()]);
        let q: Ucq = b.head([h.into()]).build().into();
        let ev = Evaluator::new(&db);
        let plan = ev.plan(&q.disjuncts()[0]);
        assert_eq!(plan.head_depth, 2, "h is bound by the last step");
        assert_eq!(
            db.relations()[plan.steps.as_ref().unwrap()[1].rel].len(),
            120
        );
        let streamed: Vec<Vec<Value>> = crate::LineageStream::new(&q, &db)
            .map(|o| o.tuple)
            .collect();
        let evaluated: Vec<Vec<Value>> = evaluate(&q, &db)
            .outputs
            .into_iter()
            .map(|o| o.tuple)
            .collect();
        assert_eq!(streamed, evaluated);
        assert!(evaluated.len() > 30);
    }

    #[test]
    fn answers_come_out_in_ascending_head_order() {
        let (db, q) = skewed_triangle(30);
        let res = evaluate(&q, &db);
        let tuples: Vec<&Vec<Value>> = res.outputs.iter().map(|o| &o.tuple).collect();
        assert_eq!(tuples.len(), 30);
        assert!(tuples.windows(2).all(|w| w[0] < w[1]));
    }

    use shapdb_data::Database;
}
