//! Streaming lineage extraction: one answer's provenance at a time.
//!
//! [`evaluate`](crate::evaluate) materializes the full provenance of a query
//! — every answer's DNF, all at once — which is fine at hundreds of answers
//! and hopeless at JOB scale (10⁴+ answers × hundreds of literals each).
//! This module extracts the same lineages *per answer*:
//!
//! 1. **Answer pass** — one derivation sweep that records only the distinct
//!    head tuples, discarding the derivations themselves. Answers are then
//!    yielded in ascending head-tuple order, the order
//!    [`evaluate`](crate::evaluate) reports.
//! 2. **Per-answer pass** — for each answer, each disjunct's head is pinned
//!    to the tuple via a seeded binding and the join re-runs from that
//!    binding, so only this answer's derivations are enumerated. Each
//!    disjunct is planned once for its head variables bound, and every
//!    answer reuses that plan; both passes share one call's indexes.
//!
//! Because [`Dnf::minimize`] produces the *unique* canonical minimal form,
//! the streamed lineage of every answer is **bit-identical** to the
//! materialized one — a property the test-suite pins query-by-query and by
//! property test. Downstream, [`with_streamed_lineages`] pushes the stream
//! through a bounded channel with backpressure, so peak provenance memory
//! is governed by the chunk size rather than the answer count; the returned
//! [`StreamStats`] expose the observed peak for regression tests.

use crate::ast::Ucq;
use crate::eval::{seed_binding, Answers, Evaluator, OutputTuple, Plan};
use shapdb_circuit::{Dnf, VarId};
use shapdb_data::{Database, Value};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Iterator over a query's answers, yielding each answer's tuple and
/// canonical minimized lineage lazily. See the module docs.
pub struct LineageStream<'a> {
    q: &'a Ucq,
    evaluator: Evaluator<'a>,
    /// One plan per disjunct, head variables bound.
    seeded: Vec<Plan>,
    answers: std::vec::IntoIter<Vec<Value>>,
}

impl<'a> LineageStream<'a> {
    /// Runs the answer pass and returns the lazy per-answer stream.
    pub fn new(q: &'a Ucq, db: &'a Database) -> LineageStream<'a> {
        let mut evaluator = Evaluator::new(db);
        let mut answers = Answers::default();
        for cq in q.disjuncts() {
            let plan = evaluator.plan(cq);
            evaluator.run(&plan, vec![None; cq.num_vars()], |binding, _| {
                answers.add(&cq.head, binding, ());
            });
        }
        let answers: Vec<Vec<Value>> = answers.sorted().into_iter().map(|(t, _)| t).collect();
        let seeded = q
            .disjuncts()
            .iter()
            .map(|cq| evaluator.plan_seeded(cq))
            .collect();
        LineageStream {
            q,
            evaluator,
            seeded,
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
            self.evaluator.run(plan, seed, |_, used| {
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

/// What a bounded streaming run observed; the memory regression guard
/// asserts on `peak_in_flight_literals`.
#[derive(Clone, Copy, Debug, Default)]
pub struct StreamStats {
    /// Answers produced by the stream.
    pub answers: usize,
    /// Total lineage literals produced across all answers — what a
    /// materializing evaluation would have held at once.
    pub total_literals: usize,
    /// Largest single answer's literal count.
    pub max_answer_literals: usize,
    /// Peak literals buffered in the channel at any moment. Backpressure
    /// bounds this by `(chunk + 1) · max_answer_literals` regardless of the
    /// answer count.
    pub peak_in_flight_literals: usize,
}

/// Runs `consume` over the query's streamed answers, produced by a worker
/// thread through a bounded channel: the producer blocks (backpressure)
/// whenever `chunk + 1` answers are in flight (buffered, waiting to be
/// sent, or just received), so full provenance never materializes. Returns
/// the consumer's result plus the observed [`StreamStats`].
pub fn with_streamed_lineages<R>(
    q: &Ucq,
    db: &Database,
    chunk: usize,
    consume: impl FnOnce(&mut dyn Iterator<Item = OutputTuple>) -> R,
) -> (R, StreamStats) {
    let chunk = chunk.max(1);
    let in_flight = AtomicUsize::new(0);
    let peak = AtomicUsize::new(0);
    let total = AtomicUsize::new(0);
    let max_single = AtomicUsize::new(0);
    let answers = AtomicUsize::new(0);
    let result = std::thread::scope(|s| {
        // Besides the buffered answers, the producer holds one it waits to
        // send and the consumer one it has just received: a buffer of
        // `chunk - 1` keeps at most `chunk + 1` answers in flight.
        let (tx, rx) = mpsc::sync_channel::<(OutputTuple, usize)>(chunk - 1);
        let (in_flight, peak) = (&in_flight, &peak);
        let (total, max_single, answers) = (&total, &max_single, &answers);
        s.spawn(move || {
            for out in LineageStream::new(q, db) {
                let lits: usize = out.lineage.conjuncts().iter().map(|c| c.len()).sum();
                let now = in_flight.fetch_add(lits, Ordering::SeqCst) + lits;
                peak.fetch_max(now, Ordering::SeqCst);
                total.fetch_add(lits, Ordering::SeqCst);
                max_single.fetch_max(lits, Ordering::SeqCst);
                answers.fetch_add(1, Ordering::SeqCst);
                if tx.send((out, lits)).is_err() {
                    // Consumer stopped early: abandon the remaining answers.
                    break;
                }
            }
        });
        let mut iter = rx.iter().map(|(out, lits)| {
            in_flight.fetch_sub(lits, Ordering::SeqCst);
            out
        });
        consume(&mut iter)
        // `iter` (and `rx`) drop here; a still-running producer sees the
        // hang-up on its next send and exits, then the scope joins it.
    });
    let stats = StreamStats {
        answers: answers.into_inner(),
        total_literals: total.into_inner(),
        max_answer_literals: max_single.into_inner(),
        peak_in_flight_literals: peak.into_inner(),
    };
    (result, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{flights_query, CqBuilder};
    use crate::evaluate;
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
            let q = Ucq::new(vec![joined, diag]);

            let materialized = evaluate(&q, &db);
            let streamed: Vec<OutputTuple> = LineageStream::new(&q, &db).collect();
            prop_assert_eq!(streamed.len(), materialized.outputs.len());
            for (s, m) in streamed.iter().zip(&materialized.outputs) {
                prop_assert_eq!(&s.tuple, &m.tuple);
                prop_assert_eq!(&s.lineage, &m.lineage);
            }
        }
    }
}
