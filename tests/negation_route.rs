//! The KC engine compiles a monotone DNF lineage `F` as its negation CNF
//! over the facts and negates Algorithm 1's values on `¬F`. This suite
//! checks that route bit for bit against the paper's path — Tseytin →
//! `compile_circuit_topdown` → project (Lemma 4.6) → Algorithm 1 — for the
//! Shapley value, the Banzhaf value and the SHAP-score, with the engine
//! compiling against a cache it owns and against a planner's shared cache:
//!
//! * random monotone DNFs (proptest);
//! * disjoint-majority and random sparse lineages at the widths where
//!   Algorithm 1's coefficient tier changes (67, 131, 260, 516 facts);
//! * every answer of the JOB smoke corpus through `explain_batch`, and
//!   (ignored in the default run) every answer of the 2,000-movie JOB
//!   database;
//! * ⊥, ⊤, a single fact and a single conjunct through `KcEngine.solve`.

use proptest::prelude::*;
use rand::prelude::*;
use shapdb::circuit::{factor, Circuit, Dnf, VarId};
use shapdb::core::engine::{
    EngineValues, KcEngine, LineageTask, PlanReason, Planner, PlannerConfig, ShapleyEngine,
};
use shapdb::core::exact::{power_index_all_facts, ExactConfig};
use shapdb::core::shap_score::shap_scores;
use shapdb::kc::{compile_circuit_topdown, Budget, ComponentCache};
use shapdb::num::Rational;
use shapdb::query::evaluate;
use shapdb::workloads::{job_database, job_ranking_query, JobConfig};
use shapdb::{Measure, ShapleyAnalyzer};
use std::sync::Arc;

/// The measures a compiled circuit answers (responsibility is DNF-level).
const MEASURES: [Measure; 3] = [Measure::Shapley, Measure::Banzhaf, Measure::ShapScore];

/// The measures Algorithm 1 computes, on its fixed-limb coefficient tiers.
/// The SHAP-score's rational β-DP has no tiers and costs seconds per
/// solve past 60 facts, so the wide lineages check these two only.
const POWER_INDICES: [Measure; 2] = [Measure::Shapley, Measure::Banzhaf];

type Values = Vec<(VarId, Rational)>;

/// Values sorted the way engine results are: decreasing value, then fact.
fn sorted(mut pairs: Values) -> Values {
    pairs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    pairs
}

/// The paper's path on the minimized lineage: Tseytin → compile → project
/// → Algorithm 1 (the β-DP for the SHAP-score).
fn tseytin_values(d: &Dnf, n_endo: usize, measure: Measure) -> Values {
    let mut m = d.clone();
    m.minimize();
    let mut c = Circuit::new();
    let root = m.to_circuit(&mut c);
    let compiled =
        compile_circuit_topdown(&c, root, &Budget::unlimited(), None).expect("unlimited budget");
    let values = match measure {
        Measure::Shapley | Measure::Banzhaf => {
            power_index_all_facts(&compiled.ddnnf, n_endo, &ExactConfig::default(), measure)
                .expect("no deadline")
        }
        Measure::ShapScore => {
            let half = vec![Rational::from_ratio(1, 2); compiled.ddnnf.num_vars()];
            shap_scores(&compiled.ddnnf, &half)
        }
        Measure::Responsibility => unreachable!("not a circuit measure"),
    };
    sorted(compiled.fact_vars.into_iter().zip(values).collect())
}

fn exact(values: EngineValues) -> Values {
    match values {
        EngineValues::Exact(v) => v,
        EngineValues::Approx(_) => panic!("exact route returned estimates"),
    }
}

/// The engine's plain route: `KcEngine::solve` compiles `¬F` with a cache
/// owned by the compile.
fn owned_cache_values(d: &Dnf, n_endo: usize, measure: Measure) -> Values {
    let task = LineageTask::new(d, n_endo).with_measure(measure);
    exact(KcEngine.solve(&task).expect("unlimited budget").values)
}

/// A planner that sends every non-read-once lineage to the KC route,
/// sharing one component cache across its solves.
fn shared_cache_planner() -> Planner {
    Planner::new(PlannerConfig {
        max_naive_vars: 0,
        ..Default::default()
    })
    .with_component_cache(Arc::new(ComponentCache::new()))
}

/// The planner's KC route with its shared cache, or `None` when the
/// lineage is read-once (the planner then never compiles it).
fn shared_cache_values(
    planner: &Planner,
    d: &Dnf,
    n_endo: usize,
    measure: Measure,
) -> Option<Values> {
    if planner.plan(d).reason != PlanReason::KcWideTopDown {
        return None;
    }
    let task = LineageTask::new(d, n_endo).with_measure(measure);
    Some(exact(
        planner.solve(&task).expect("unlimited budget").values,
    ))
}

/// Both engine routes against the Tseytin reference, on each measure.
/// Returns how many measures ran the planner's shared-cache route.
fn check_routes(planner: &Planner, d: &Dnf, n_endo: usize, measures: &[Measure]) -> usize {
    let mut shared_runs = 0;
    for &measure in measures {
        let want = tseytin_values(d, n_endo, measure);
        assert_eq!(
            owned_cache_values(d, n_endo, measure),
            want,
            "{measure} owned cache"
        );
        if let Some(got) = shared_cache_values(planner, d, n_endo, measure) {
            assert_eq!(got, want, "{measure} shared cache");
            shared_runs += 1;
        }
    }
    shared_runs
}

fn dnf_of<I: IntoIterator<Item = Vec<u32>>>(conjuncts: I) -> Dnf {
    let mut d = Dnf::new();
    for c in conjuncts {
        d.add_conjunct(c.into_iter().map(VarId).collect());
    }
    d
}

/// Facts `0..width` split into `3·blocks` near-equal groups; each block is
/// the majority of its three groups (one conjunct per pair of groups).
/// Non-read-once, and the blocks share no fact.
fn disjoint_majority(width: u32, blocks: u32) -> Dnf {
    let groups = 3 * blocks;
    let group = |g: u32| (g * width / groups..(g + 1) * width / groups).collect::<Vec<u32>>();
    dnf_of((0..blocks).flat_map(|b| {
        let (x, y, z) = (group(3 * b), group(3 * b + 1), group(3 * b + 2));
        [
            [x.clone(), y.clone()].concat(),
            [x, z.clone()].concat(),
            [y, z].concat(),
        ]
    }))
}

/// `conjuncts` random conjuncts over facts `0..width`: every fact joins
/// one random conjunct, and one in sixteen joins a second.
fn random_sparse(rng: &mut StdRng, width: u32, conjuncts: usize) -> Dnf {
    let mut sets = vec![Vec::new(); conjuncts];
    for f in 0..width {
        sets[rng.random_range(0..conjuncts)].push(f);
        if rng.random_range(0..16u32) == 0 {
            sets[rng.random_range(0..conjuncts)].push(f);
        }
    }
    dnf_of(sets.into_iter().filter(|s| !s.is_empty()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn prop_negation_route_matches_the_tseytin_path(
        conjuncts in proptest::collection::vec(
            proptest::collection::vec(0u32..10, 1..4),
            1..8,
        )
    ) {
        let d = dnf_of(conjuncts);
        let planner = shared_cache_planner();
        // Both engine routes match the Tseytin path.
        let shared_runs = check_routes(&planner, &d, 12, &MEASURES);
        let mut minimized = d.clone();
        minimized.minimize();
        let read_once = factor(&minimized).is_some();
        prop_assert_eq!(shared_runs, if read_once { 0 } else { MEASURES.len() });
    }
}

/// Disjoint-majority and random sparse lineages `width` facts wide against
/// the Tseytin reference.
fn check_wide(planner: &Planner, rng: &mut StdRng, width: u32) {
    let blocks = disjoint_majority(width, 2);
    assert_eq!(blocks.vars().len(), width as usize);
    assert_eq!(
        check_routes(planner, &blocks, width as usize + 3, &POWER_INDICES),
        POWER_INDICES.len(),
        "disjoint majority at {width} facts routes top-down"
    );
    let sparse = random_sparse(rng, width, 3);
    assert_eq!(sparse.vars().len(), width as usize);
    check_routes(planner, &sparse, width as usize, &POWER_INDICES);
}

#[test]
fn wide_lineages_at_the_two_and_three_limb_tiers_match_the_tseytin_path() {
    // 67 and 131 facts: the widths at which Algorithm 1's coefficient cap
    // C(m, ⌊m/2⌋) first needs 2 and 3 limbs.
    let planner = shared_cache_planner();
    let mut rng = StdRng::seed_from_u64(0x5eed);
    for width in [67, 131] {
        check_wide(&planner, &mut rng, width);
    }
    // The kc_wide bench's three-fact blocks: 22 blocks plus one
    // single-fact conjunct.
    let mut three = disjoint_majority(66, 22);
    three.add_conjunct(vec![VarId(66)]);
    assert_eq!(
        check_routes(&planner, &three, 67, &POWER_INDICES),
        POWER_INDICES.len()
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "Algorithm 1 at 9 limbs takes minutes unoptimized: cargo test --release --test negation_route"
)]
fn wide_lineages_at_the_five_and_nine_limb_tiers_match_the_tseytin_path() {
    // 260 and 516 facts: the 5- and 9-limb coefficient tiers.
    let planner = shared_cache_planner();
    let mut rng = StdRng::seed_from_u64(0x5eed ^ 1);
    for width in [260, 516] {
        check_wide(&planner, &mut rng, width);
    }
}

#[test]
fn job_smoke_explanations_match_the_tseytin_path() {
    let db = job_database(&JobConfig::smoke());
    let q = job_ranking_query();
    let n_endo = db.num_endogenous();
    let lineages: Vec<Dnf> = evaluate(&q, &db)
        .outputs
        .iter()
        .map(|t| t.endo_lineage(&db))
        .collect();
    let analyzer = ShapleyAnalyzer::new(&db).with_threads(1);
    let mut kc_answers = 0;
    for measure in MEASURES {
        let batch = analyzer.explain_measure_batch(&q, measure).unwrap();
        assert_eq!(batch.explanations.len(), lineages.len());
        for (e, d) in batch.explanations.iter().zip(&lineages) {
            let got: Values = e
                .attributions
                .iter()
                .map(|(f, x)| (VarId(f.0), x.clone()))
                .collect();
            assert_eq!(
                got,
                tseytin_values(d, n_endo, measure),
                "{measure} {:?}",
                e.tuple
            );
        }
        kc_answers += batch
            .profile
            .get(&shapdb::metrics::counters::PLANNER_KC_ROUTES);
    }
    assert!(kc_answers > 0, "the smoke corpus reaches the KC route");
}

#[test]
#[ignore = "~2,000 Tseytin compiles; run with make test-release-wide"]
fn job_explain_scale_explanations_match_the_tseytin_path() {
    // The `job-explain` benchmark's database: ~1,370 KC structures of 8–39
    // facts, every one compiled as its negation CNF, checked answer by
    // answer against Tseytin → compile → project → Algorithm 1.
    let db = job_database(&JobConfig {
        movies: 2_000,
        ..JobConfig::default()
    });
    let q = job_ranking_query();
    let n_endo = db.num_endogenous();
    let lineages: Vec<Dnf> = evaluate(&q, &db)
        .outputs
        .iter()
        .map(|t| t.endo_lineage(&db))
        .collect();
    let batch = ShapleyAnalyzer::new(&db)
        .with_threads(2)
        .explain_batch(&q)
        .unwrap();
    assert_eq!(batch.explanations.len(), lineages.len());
    for (e, d) in batch.explanations.iter().zip(&lineages) {
        let got: Values = e
            .attributions
            .iter()
            .map(|(f, x)| (VarId(f.0), x.clone()))
            .collect();
        assert_eq!(
            got,
            tseytin_values(d, n_endo, Measure::Shapley),
            "{:?}",
            e.tuple
        );
    }
    let kc_routes = batch
        .profile
        .get(&shapdb::metrics::counters::PLANNER_KC_ROUTES);
    assert!(kc_routes > 1_000, "{kc_routes} KC routes");
}

#[test]
fn constants_single_fact_and_single_conjunct_through_the_engine() {
    let planner = shared_cache_planner();
    let mut top = Dnf::new();
    top.add_conjunct(vec![]);
    for (name, d) in [
        ("⊥", Dnf::new()),
        ("⊤", top),
        ("one fact", dnf_of([vec![4]])),
        ("one conjunct", dnf_of([vec![1, 5, 9]])),
    ] {
        for measure in MEASURES {
            let want = tseytin_values(&d, 10, measure);
            assert_eq!(
                owned_cache_values(&d, 10, measure),
                want,
                "{name} {measure}"
            );
        }
        // Read-once lineages never reach the planner's KC route.
        assert_eq!(check_routes(&planner, &d, 10, &MEASURES), 0, "{name}");
    }
    // The closed forms: constants have no players; a lone fact is worth the
    // whole game; a k-fact conjunct splits it evenly.
    assert!(owned_cache_values(&Dnf::new(), 10, Measure::Shapley).is_empty());
    assert_eq!(
        owned_cache_values(&dnf_of([vec![4]]), 10, Measure::Shapley),
        vec![(VarId(4), Rational::one())]
    );
    let third = Rational::from_ratio(1, 3);
    assert_eq!(
        owned_cache_values(&dnf_of([vec![1, 5, 9]]), 10, Measure::Shapley),
        [1, 5, 9].map(|f| (VarId(f), third.clone())).to_vec()
    );
}
