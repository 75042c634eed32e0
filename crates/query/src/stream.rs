//! Streaming lineage extraction: one answer's provenance at a time.
//!
//! [`evaluate`](crate::evaluate) materializes the full provenance of a query
//! — every answer's DNF, all at once — which is fine at hundreds of answers
//! and hopeless at JOB scale (10⁴+ answers × hundreds of literals each).
//! This module extracts the same lineages *per answer*:
//!
//! 1. **Answer pass** — one sweep that records only the distinct head
//!    tuples. Once the plan has bound every head variable, the search stops
//!    at the first full match and backtracks to that depth, so an answer
//!    with many derivations costs one. Answers are then yielded in
//!    ascending head-tuple order, the order [`evaluate`](crate::evaluate)
//!    reports.
//! 2. **Per-answer pass** — for each answer, each disjunct's head is pinned
//!    to the tuple via a seeded binding and the join re-runs from that
//!    binding, so only this answer's derivations are enumerated, and
//!    minimized once. Each disjunct is planned once for its head variables
//!    bound, and every answer reuses that plan; both passes probe the
//!    database's indexes, which outlive the stream.
//!
//! The stream builds the lineage its [`LineageKind`] names: the full one
//! ([`LineageStream::new`]), or the endogenous one, with exogenous facts
//! dropped as each derivation is produced ([`LineageStream::with_kind`]).
//! Because [`Dnf::minimize`] produces the *unique* canonical minimal form,
//! the streamed lineage of every answer is **bit-identical** to the
//! materialized one of the same kind — a property the test-suite pins
//! query-by-query and by property test.
//!
//! Downstream, [`with_channeled_lineages`] (and [`with_streamed_lineages`],
//! its full-lineage form) runs the stream on a producer thread and pushes it
//! through a bounded channel with backpressure, so the consumer overlaps
//! with extraction and peak provenance memory is governed by the chunk
//! size rather than the answer count; [`with_inline_lineages`] pulls the
//! stream on the caller's thread, one answer in flight. Both return the
//! observed [`StreamStats`].

use crate::ast::Ucq;
use crate::eval::{seed_binding, Emit, Evaluator, LineageKind, OutputTuple, Plan};
use shapdb_circuit::{Dnf, VarId};
use shapdb_data::{Database, Value};
use shapdb_metrics::Profile;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Iterator over a query's answers, yielding each answer's tuple and
/// canonical minimized lineage lazily. See the module docs.
pub struct LineageStream<'a> {
    q: &'a Ucq,
    evaluator: Evaluator<'a>,
    /// One plan per disjunct, head variables bound.
    seeded: Vec<Plan>,
    /// What the per-answer passes keep of each derivation.
    emit: Emit,
    answers: std::vec::IntoIter<Vec<Value>>,
}

impl<'a> LineageStream<'a> {
    /// Runs the answer pass and returns the lazy per-answer stream of full
    /// lineages.
    pub fn new(q: &'a Ucq, db: &'a Database) -> LineageStream<'a> {
        LineageStream::with_kind(q, db, LineageKind::Full)
    }

    /// Runs the answer pass and returns the lazy per-answer stream of the
    /// lineages `kind` names.
    pub fn with_kind(q: &'a Ucq, db: &'a Database, kind: LineageKind) -> LineageStream<'a> {
        let evaluator = Evaluator::new(db);
        let answers = evaluator.answer_pass(q);
        let seeded = q
            .disjuncts()
            .iter()
            .map(|cq| evaluator.plan_seeded(cq))
            .collect();
        LineageStream {
            q,
            evaluator,
            seeded,
            emit: kind.emit(),
            answers: answers.into_iter(),
        }
    }

    /// Rows the answer pass and the per-answer passes so far have visited.
    #[cfg(test)]
    pub(crate) fn rows_visited(&self) -> u64 {
        self.evaluator.rows_visited()
    }
}

impl Iterator for LineageStream<'_> {
    type Item = OutputTuple;

    fn next(&mut self) -> Option<OutputTuple> {
        let tuple = self.answers.next()?;
        let mut conjuncts: Vec<Vec<VarId>> = Vec::new();
        for (cq, plan) in self.q.disjuncts().iter().zip(&self.seeded) {
            let Some(seed) = seed_binding(cq, &tuple) else {
                continue;
            };
            self.evaluator.run(plan, seed, self.emit, |_, used| {
                conjuncts.push(used.iter().map(|f| VarId(f.0)).collect());
            });
        }
        let mut lineage = Dnf::from_conjuncts(conjuncts);
        lineage.minimize();
        Some(OutputTuple { tuple, lineage })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.answers.size_hint()
    }
}

impl ExactSizeIterator for LineageStream<'_> {}

/// What a streaming run observed; the memory regression guard asserts on
/// `peak_in_flight_literals`.
#[derive(Clone, Copy, Debug, Default)]
pub struct StreamStats {
    /// Answers produced by the stream.
    pub answers: usize,
    /// Total lineage literals produced across all answers — what a
    /// materializing evaluation would have held at once.
    pub total_literals: usize,
    /// Largest single answer's literal count.
    pub max_answer_literals: usize,
    /// Peak literals produced but not yet taken by the consumer, the answer
    /// being handed over included. Through the channel, backpressure bounds
    /// this by `(chunk + 1) · max_answer_literals` regardless of the answer
    /// count; on the caller's thread one answer is in flight, so it equals
    /// `max_answer_literals`.
    pub peak_in_flight_literals: usize,
}

impl StreamStats {
    /// Counts one produced answer of `literals` literals.
    fn record(&mut self, literals: usize) {
        self.answers += 1;
        self.total_literals += literals;
        self.max_answer_literals = self.max_answer_literals.max(literals);
    }
}

fn literals(lineage: &Dnf) -> usize {
    lineage.conjuncts().iter().map(Vec::len).sum()
}

/// Runs `consume` over the query's full lineages, streamed through the
/// bounded channel of [`with_channeled_lineages`].
pub fn with_streamed_lineages<R>(
    q: &Ucq,
    db: &Database,
    chunk: usize,
    consume: impl FnOnce(&mut dyn Iterator<Item = OutputTuple>) -> R,
) -> (R, StreamStats) {
    with_channeled_lineages(q, db, LineageKind::Full, chunk, consume)
}

/// Runs `consume` over the query's streamed `kind` lineages, produced by a
/// worker thread through a bounded channel: the producer blocks
/// (backpressure) whenever `chunk + 1` answers are in flight (buffered,
/// waiting to be sent, or just received), so full provenance never
/// materializes. The producer records its counters (index builds,
/// minimize passes) into the caller's active [`Profile`]. Returns the
/// consumer's result plus the observed [`StreamStats`].
pub fn with_channeled_lineages<R>(
    q: &Ucq,
    db: &Database,
    kind: LineageKind,
    chunk: usize,
    consume: impl FnOnce(&mut dyn Iterator<Item = OutputTuple>) -> R,
) -> (R, StreamStats) {
    let chunk = chunk.max(1);
    let in_flight = AtomicUsize::new(0);
    let peak = AtomicUsize::new(0);
    let (result, mut stats) = std::thread::scope(|s| {
        // Besides the buffered answers, the producer holds one it waits to
        // send and the consumer one it has just received: a buffer of
        // `chunk - 1` keeps at most `chunk + 1` answers in flight.
        let (tx, rx) = mpsc::sync_channel::<(OutputTuple, usize)>(chunk - 1);
        let (in_flight, peak) = (&in_flight, &peak);
        let profile = Profile::current();
        let producer = s.spawn(move || {
            let _scope = profile.as_ref().map(Profile::enter);
            let mut stats = StreamStats::default();
            for out in LineageStream::with_kind(q, db, kind) {
                let lits = literals(&out.lineage);
                let now = in_flight.fetch_add(lits, Ordering::SeqCst) + lits;
                peak.fetch_max(now, Ordering::SeqCst);
                stats.record(lits);
                if tx.send((out, lits)).is_err() {
                    // Consumer stopped early: abandon the remaining answers.
                    break;
                }
            }
            stats
        });
        let result = {
            let mut iter = rx.into_iter().map(|(out, lits)| {
                in_flight.fetch_sub(lits, Ordering::SeqCst);
                out
            });
            consume(&mut iter)
        };
        // The receiver is gone: a still-running producer sees the hang-up
        // on its next send and exits.
        let stats = producer
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        (result, stats)
    });
    stats.peak_in_flight_literals = peak.into_inner();
    (result, stats)
}

/// Runs `consume` over the query's streamed `kind` lineages on the
/// caller's thread: each answer is extracted when the consumer asks for
/// it, so one answer is in flight at a time. Returns the consumer's result
/// plus the observed [`StreamStats`].
pub fn with_inline_lineages<R>(
    q: &Ucq,
    db: &Database,
    kind: LineageKind,
    consume: impl FnOnce(&mut dyn Iterator<Item = OutputTuple>) -> R,
) -> (R, StreamStats) {
    let mut stats = StreamStats::default();
    let mut answers =
        LineageStream::with_kind(q, db, kind).inspect(|out| stats.record(literals(&out.lineage)));
    let result = consume(&mut answers);
    drop(answers);
    stats.peak_in_flight_literals = stats.max_answer_literals;
    (result, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{flights_query, CqBuilder};
    use crate::{evaluate, evaluate_with};
    use shapdb_circuit::fingerprint;
    use shapdb_data::{flights_example, Database};

    fn assert_stream_matches_materialized(q: &Ucq, db: &Database) {
        let materialized = evaluate(q, db);
        let streamed: Vec<OutputTuple> = LineageStream::new(q, db).collect();
        assert_eq!(streamed.len(), materialized.outputs.len());
        for (s, m) in streamed.iter().zip(&materialized.outputs) {
            assert_eq!(s.tuple, m.tuple, "answer order must match evaluate()");
            assert_eq!(s.lineage, m.lineage, "lineage for {:?}", s.tuple);
            let (se, me) = (s.endo_lineage(db), m.endo_lineage(db));
            assert_eq!(se, me);
            if !se.is_empty() {
                assert_eq!(fingerprint(&se).shared_key(), fingerprint(&me).shared_key());
            }
        }
        assert_endogenous_matches_full(q, db);
    }

    /// Streamed and materialized endogenous lineages both equal
    /// `endo_lineage` of the full path, answer by answer.
    fn assert_endogenous_matches_full(q: &Ucq, db: &Database) {
        let full = evaluate(q, db).outputs;
        let kind = LineageKind::Endogenous;
        let materialized = evaluate_with(q, db, kind).outputs;
        let streamed: Vec<OutputTuple> = LineageStream::with_kind(q, db, kind).collect();
        assert_eq!(materialized.len(), full.len());
        assert_eq!(streamed.len(), full.len());
        for ((s, m), f) in streamed.iter().zip(&materialized).zip(&full) {
            assert_eq!((&s.tuple, &m.tuple), (&f.tuple, &f.tuple));
            let want = f.endo_lineage(db);
            assert_eq!(m.lineage, want, "materialized ELin of {:?}", f.tuple);
            assert_eq!(s.lineage, want, "streamed ELin of {:?}", f.tuple);
        }
    }

    /// The tuples of the stream's answer pass.
    fn answer_pass(q: &Ucq, db: &Database) -> Vec<Vec<Value>> {
        LineageStream::new(q, db).answers.collect()
    }

    fn evaluated_tuples(q: &Ucq, db: &Database) -> Vec<Vec<Value>> {
        evaluate(q, db)
            .outputs
            .into_iter()
            .map(|o| o.tuple)
            .collect()
    }

    #[test]
    fn answer_pass_matches_each_job_smoke_answer_once() {
        // Disjunct 2 of the JOB ranking query reaches a movie through
        // every company–keyword pattern, and disjunct 1 finds most movies
        // first: a head binding already found is not searched again.
        use shapdb_workloads::{job_database, job_ranking_query, JobConfig};
        let db = job_database(&JobConfig::smoke());
        // The workloads crate links its own build of this crate: rebuild
        // the query from its disjuncts' text.
        let text: Vec<String> = job_ranking_query()
            .disjuncts()
            .iter()
            .map(|cq| cq.to_string())
            .collect();
        let q = crate::parse_ucq(&text.join(" ; ")).unwrap();
        assert_eq!(q.disjuncts().len(), 2);
        let stream = LineageStream::new(&q, &db);
        let answers = stream.len() as u64;
        assert!(answers > 10);
        assert_eq!(
            stream.answers.as_slice(),
            evaluated_tuples(&q, &db).as_slice()
        );
        assert!(
            stream.evaluator.matches() <= answers,
            "{} matches for {answers} answers",
            stream.evaluator.matches()
        );
    }

    #[test]
    fn flights_stream_is_bit_identical() {
        let (db, _) = flights_example();
        assert_stream_matches_materialized(&flights_query(), &db);
    }

    #[test]
    fn projection_and_union_stream_identically() {
        // Multi-answer, multi-disjunct: destinations reachable in one hop
        // from the USA plus all airports in EN — overlapping answer sets.
        let (db, _) = flights_example();
        let mut b = CqBuilder::new();
        let x = b.var("x");
        let y = b.var("y");
        let c = b.var("c");
        b.atom("Airports", [x.into(), c.into()]);
        b.atom("Flights", [x.into(), y.into()]);
        let hop = b.head([y.into()]).build();
        let mut b = CqBuilder::new();
        let a = b.var("a");
        b.atom("Airports", [a.into(), "EN".into()]);
        let en = b.head([a.into()]).build();
        assert_stream_matches_materialized(&Ucq::new(vec![hop, en]), &db);
    }

    #[test]
    fn constant_and_repeated_head_terms_seed_correctly() {
        let mut db = Database::new();
        db.create_relation("R", &["a", "b"]);
        db.insert_endo("R", vec![Value::int(1), Value::int(1)]);
        db.insert_endo("R", vec![Value::int(1), Value::int(2)]);
        db.insert_endo("R", vec![Value::int(2), Value::int(2)]);
        // Head repeats x and carries a constant: q(x, x, 7) :- R(x, x).
        let mut b = CqBuilder::new();
        let x = b.var("x");
        let y = b.var("y");
        b.atom("R", [x.into(), y.into()]);
        let q = b.head([x.into(), y.into(), Term::int(7)]).build();
        assert_stream_matches_materialized(&q.into(), &db);
    }

    #[test]
    fn endogenous_mode_handles_certain_answers_self_joins_and_head_terms() {
        // R(1, ·) rows are exogenous; R(2, 2) is endogenous, R(2, 3) not.
        let mut db = Database::new();
        db.create_relation("R", &["a", "b"]);
        db.create_relation("S", &["a"]);
        let r11 = db.insert_exo("R", vec![Value::int(1), Value::int(1)]);
        db.insert_exo("R", vec![Value::int(1), Value::int(2)]);
        let r22 = db.insert_endo("R", vec![Value::int(2), Value::int(2)]);
        db.insert_exo("R", vec![Value::int(2), Value::int(3)]);
        let s1 = db.insert_endo("S", vec![Value::int(1)]);
        let s2 = db.insert_endo("S", vec![Value::int(2)]);
        let endo = |ids: &[shapdb_data::FactId]| -> Vec<VarId> {
            ids.iter().map(|f| VarId(f.0)).collect()
        };
        let elin = |q: &Ucq| -> Vec<(Vec<Value>, Vec<Vec<VarId>>)> {
            assert_endogenous_matches_full(q, &db);
            LineageStream::with_kind(q, &db, LineageKind::Endogenous)
                .map(|o| (o.tuple, o.lineage.conjuncts().to_vec()))
                .collect()
        };

        // q(x) :- R(x, y): x = 1 has only exogenous derivations (⊤); for
        // x = 2, the exogenous R(2, 3) is ⊤ and absorbs R(2, 2).
        let mut b = CqBuilder::new();
        let (x, y) = (b.var("x"), b.var("y"));
        b.atom("R", [x.into(), y.into()]);
        let q: Ucq = b.head([x.into()]).build().into();
        let top = vec![Vec::new()];
        assert_eq!(
            elin(&q),
            vec![
                (vec![Value::int(1)], top.clone()),
                (vec![Value::int(2)], top)
            ]
        );

        // Self-join with a repeated head variable and a head constant:
        // q(x, x, 7) :- R(x, y), R(y, y), S(x). R(1, 1) joins itself.
        let mut b = CqBuilder::new();
        let (x, y) = (b.var("x"), b.var("y"));
        b.atom("R", [x.into(), y.into()]);
        b.atom("R", [y.into(), y.into()]);
        b.atom("S", [x.into()]);
        let q: Ucq = b.head([x.into(), x.into(), Term::int(7)]).build().into();
        let got = elin(&q);
        assert_eq!(got.len(), 2);
        assert_eq!(
            got[0].1,
            vec![endo(&[s1])],
            "R(1,1)·R(1,1) and R(1,2)·R(2,2)"
        );
        assert_eq!(got[1].1, vec![endo(&[r22, s2])]);
        let _ = r11;
    }

    #[test]
    fn answer_pass_matches_evaluate_on_boolean_constant_and_repeated_heads() {
        let mut db = Database::new();
        db.create_relation("R", &["a", "b"]);
        db.create_relation("S", &["a"]);
        for (a, b) in [(1, 1), (1, 2), (2, 2), (2, 3), (3, 1)] {
            db.insert_endo("R", vec![Value::int(a), Value::int(b)]);
        }
        for a in [1, 2] {
            db.insert_exo("S", vec![Value::int(a)]);
        }
        let heads: [&dyn Fn(Term, Term) -> Vec<Term>; 4] = [
            &|_, _| vec![],
            &|_, _| vec![Term::int(7)],
            &|x, _| vec![x.clone(), x, Term::int(0)],
            &|x, y| vec![y, x],
        ];
        for head in heads {
            let mut b = CqBuilder::new();
            let (x, y, z) = (b.var("x"), b.var("y"), b.var("z"));
            b.atom("R", [x.into(), y.into()]);
            b.atom("R", [y.into(), z.into()]);
            b.atom("S", [x.into()]);
            let q: Ucq = b.head(head(x.into(), y.into())).build().into();
            assert_eq!(answer_pass(&q, &db), evaluated_tuples(&q, &db));
            assert_stream_matches_materialized(&q, &db);
        }
    }

    #[test]
    fn early_drop_stops_the_producer() {
        let (db, _) = flights_example();
        let q = flights_query();
        let (first, stats) = with_streamed_lineages(&q, &db, 2, |it| it.next());
        assert!(first.is_some());
        // Producer may have raced ahead by the chunk bound, no further.
        assert!(stats.answers <= 3);
    }

    #[test]
    fn backpressure_bounds_peak_literals() {
        // Many answers: one per R-row pair via a join, streamed with a tiny
        // chunk. The peak must track the chunk bound, not the answer count.
        let mut db = Database::new();
        db.create_relation("R", &["a", "b"]);
        for i in 0..40 {
            db.insert_endo("R", vec![Value::int(i), Value::int(i % 5)]);
        }
        let mut b = CqBuilder::new();
        let x = b.var("x");
        let g = b.var("g");
        let y = b.var("y");
        b.atom("R", [x.into(), g.into()]);
        b.atom("R", [y.into(), g.into()]);
        let q: Ucq = b.head([x.into()]).build().into();
        let chunk = 2;
        let (n, stats) = with_streamed_lineages(&q, &db, chunk, |it| it.count());
        assert_eq!(n, 40);
        assert_eq!(stats.answers, 40);
        assert!(
            stats.peak_in_flight_literals <= (chunk + 1) * stats.max_answer_literals,
            "peak {} exceeds chunk bound ({} × {})",
            stats.peak_in_flight_literals,
            chunk + 1,
            stats.max_answer_literals
        );
        assert!(stats.peak_in_flight_literals < stats.total_literals);
    }

    #[test]
    fn inline_stream_holds_one_answer_in_flight() {
        let (db, _) = flights_example();
        let mut b = CqBuilder::new();
        let (x, y, c) = (b.var("x"), b.var("y"), b.var("c"));
        b.atom("Airports", [x.into(), c.into()]);
        b.atom("Flights", [x.into(), y.into()]);
        let q: Ucq = b.head([c.into()]).build().into();
        for kind in [LineageKind::Full, LineageKind::Endogenous] {
            let (lineages, stats) = with_inline_lineages(&q, &db, kind, |it| {
                it.map(|o| o.lineage).collect::<Vec<Dnf>>()
            });
            let (_, channeled) = with_channeled_lineages(&q, &db, kind, 1, |it| it.count());
            let want: Vec<Dnf> = evaluate_with(&q, &db, kind)
                .outputs
                .into_iter()
                .map(|o| o.lineage)
                .collect();
            assert_eq!(lineages, want);
            assert_eq!(stats.answers, want.len());
            assert_eq!(stats.peak_in_flight_literals, stats.max_answer_literals);
            assert_eq!(
                (
                    stats.answers,
                    stats.total_literals,
                    stats.max_answer_literals
                ),
                (
                    channeled.answers,
                    channeled.total_literals,
                    channeled.max_answer_literals
                )
            );
        }
        let (first, stats) = with_inline_lineages(&q, &db, LineageKind::Full, |it| it.next());
        assert!(first.is_some());
        assert_eq!(
            stats.answers, 1,
            "nothing is extracted ahead of the consumer"
        );
    }

    use crate::ast::Term;
    use proptest::prelude::*;
    use shapdb_data::Value;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_stream_equals_materialized(
            rows in proptest::collection::vec((0i64..6, 0i64..6, any::<bool>()), 1..20),
            srows in proptest::collection::vec((0i64..6, 0i64..6), 0..12),
        ) {
            // Random two-table instance; a two-disjunct UCQ with a join, a
            // projection, and a cross-disjunct overlap in answers.
            let mut db = Database::new();
            db.create_relation("R", &["a", "b"]);
            db.create_relation("S", &["a", "b"]);
            for &(a, b, endo) in &rows {
                if endo {
                    db.insert_endo("R", vec![Value::int(a), Value::int(b)]);
                } else {
                    db.insert_exo("R", vec![Value::int(a), Value::int(b)]);
                }
            }
            for &(a, b) in &srows {
                db.insert_endo("S", vec![Value::int(a), Value::int(b)]);
            }
            let mut b = CqBuilder::new();
            let x = b.var("x");
            let y = b.var("y");
            let z = b.var("z");
            b.atom("R", [x.into(), y.into()]);
            b.atom("S", [y.into(), z.into()]);
            let joined = b.head([x.into()]).build();
            let mut b = CqBuilder::new();
            let x = b.var("x");
            b.atom("R", [x.into(), x.into()]);
            let diag = b.head([x.into()]).build();
            // A self-join: R-paths of length two back to their start.
            let mut b = CqBuilder::new();
            let x = b.var("x");
            let y = b.var("y");
            b.atom("R", [x.into(), y.into()]);
            b.atom("R", [y.into(), x.into()]);
            let cycle = b.head([x.into()]).build();
            let q = Ucq::new(vec![joined, diag, cycle]);

            let materialized = evaluate(&q, &db);
            let streamed: Vec<OutputTuple> = LineageStream::new(&q, &db).collect();
            prop_assert_eq!(streamed.len(), materialized.outputs.len());
            for (s, m) in streamed.iter().zip(&materialized.outputs) {
                prop_assert_eq!(&s.tuple, &m.tuple);
                prop_assert_eq!(&s.lineage, &m.lineage);
            }

            // Endogenous mode, streamed and materialized, against the full
            // path's `endo_lineage`.
            let kind = LineageKind::Endogenous;
            let endo_materialized = evaluate_with(&q, &db, kind).outputs;
            let endo_streamed: Vec<OutputTuple> = LineageStream::with_kind(&q, &db, kind).collect();
            prop_assert_eq!(endo_materialized.len(), materialized.outputs.len());
            prop_assert_eq!(endo_streamed.len(), materialized.outputs.len());
            for ((s, e), m) in endo_streamed.iter().zip(&endo_materialized).zip(&materialized.outputs) {
                let want = m.endo_lineage(&db);
                prop_assert_eq!(&s.tuple, &m.tuple);
                prop_assert_eq!(&e.tuple, &m.tuple);
                prop_assert_eq!(&s.lineage, &want);
                prop_assert_eq!(&e.lineage, &want);
            }
        }
    }
}
