//! Golden output of the one-shot CLI: every report `run` renders, pinned
//! byte for byte on the paper's running example (Figure 1) plus a
//! gate-count relation for the SUM game. One worker thread keeps the
//! batch line deterministic; the one field that depends on thread timing,
//! `--top-k`'s streamed-literal peak, is checked against its documented
//! bound instead of a value.

use shapdb_cli::{load_database, run_cli};
use shapdb_query::{evaluate, parse_ucq};
use std::path::PathBuf;

const FLIGHTS: &str = "q() :- Airports(x, 'USA'), Airports(y, 'FR'), Flights(x, y) ; \
                       q() :- Airports(x, 'USA'), Airports(z, 'FR'), Flights(x, y), Flights(y, z)";

const FLIGHTS_HEADER: &str = "20 fact(s), 8 endogenous; 1 answer(s) for \
    q() :- Airports(x, \"USA\"), Airports(y, \"FR\"), Flights(x, y)  ∪  \
    q() :- Airports(x, \"USA\"), Airports(z, \"FR\"), Flights(x, y), Flights(y, z)\n";

/// The running example's CSVs plus `Hubs(name, gates)`, in a fresh temp
/// dir; removed on drop.
struct Db(PathBuf);

impl Db {
    fn new(tag: &str) -> Db {
        let dir =
            std::env::temp_dir().join(format!("shapdb-cli-golden-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let files = [
            (
                "Flights.csv",
                "src,dest\nJFK,CDG\nEWR,LHR\nBOS,LHR\nLHR,CDG\nLHR,ORY\nLAX,MUC\nMUC,ORY\nLHR,MUC\n",
            ),
            (
                "Airports.csv",
                "name,country\nJFK,USA\nEWR,USA\nBOS,USA\nLAX,USA\nLHR,EN\nMUC,GR\nORY,FR\nCDG,FR\n",
            ),
            ("Hubs.csv", "name,gates\nCDG,3\nLHR,5\nORY,0\nMUC,4\n"),
        ];
        for (name, text) in files {
            std::fs::write(dir.join(name), text).unwrap();
        }
        Db(dir)
    }

    /// `shapdb --db <dir> --endo Flights --threads 1 --query <q> <extra…>`.
    fn run(&self, query: &str, extra: &[&str]) -> String {
        let args: Vec<String> = [
            "--db",
            self.0.to_str().unwrap(),
            "--endo",
            "Flights",
            "--threads",
            "1",
            "--query",
            query,
        ]
        .iter()
        .chain(extra)
        .map(|s| s.to_string())
        .collect();
        run_cli(&args).unwrap()
    }
}

impl Drop for Db {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const EXACT_BODY: &str = "\
q() = true
  1. Flights(JFK, CDG)  43/105  (≈0.4095)
  2. Flights(EWR, LHR)  23/210  (≈0.1095)
  3. Flights(BOS, LHR)  23/210  (≈0.1095)
  4. Flights(LHR, CDG)  23/210  (≈0.1095)
  5. Flights(LHR, ORY)  23/210  (≈0.1095)
";

const ONE_MISS: &str = "1 distinct lineage structure(s); dedup hit rate 0%; 1 thread(s); \
    cache 0 hit(s) / 1 miss(es); arithmetic 0 fixed-limb / 0 bignum pass(es), \
    0 NTT convolution(s)\n";

#[test]
fn auto_and_exact_engines_render_example_2_1() {
    let db = Db::new("exact");
    let expected = format!("{FLIGHTS_HEADER}{ONE_MISS}{EXACT_BODY}");
    assert_eq!(db.run(FLIGHTS, &["--engine", "auto"]), expected);
    assert_eq!(db.run(FLIGHTS, &["--engine", "exact"]), expected);
}

#[test]
fn proxy_engine_renders_scores() {
    let db = Db::new("proxy");
    let expected = format!(
        "{FLIGHTS_HEADER}\
         1 distinct lineage structure(s); dedup hit rate 0%; 1 thread(s); \
         cache 0 hit(s) / 0 miss(es); arithmetic 0 fixed-limb / 0 bignum pass(es), \
         0 NTT convolution(s)\n\
         q() = true\n  \
         1. Flights(EWR, LHR)  score 0.028986\n  \
         2. Flights(BOS, LHR)  score 0.028986\n  \
         3. Flights(LHR, CDG)  score 0.028986\n  \
         4. Flights(LHR, ORY)  score 0.028986\n  \
         5. Flights(LAX, MUC)  score 0.014493\n"
    );
    assert_eq!(db.run(FLIGHTS, &["--engine", "proxy"]), expected);
}

#[test]
fn banzhaf_measure_renders_its_label() {
    let db = Db::new("banzhaf");
    let expected = format!(
        "{FLIGHTS_HEADER}measure: banzhaf\n{ONE_MISS}\
         q() = true\n  \
         1. Flights(JFK, CDG)  21/64  (≈0.3281)\n  \
         2. Flights(EWR, LHR)  9/64  (≈0.1406)\n  \
         3. Flights(BOS, LHR)  9/64  (≈0.1406)\n  \
         4. Flights(LHR, CDG)  9/64  (≈0.1406)\n  \
         5. Flights(LHR, ORY)  9/64  (≈0.1406)\n"
    );
    assert_eq!(db.run(FLIGHTS, &["--measure", "banzhaf"]), expected);
}

#[test]
fn isomorphic_answers_share_one_structure() {
    let db = Db::new("dedup");
    let expected = "\
20 fact(s), 8 endogenous; 4 answer(s) for q(y) :- Flights(x, y)
1 distinct lineage structure(s); dedup hit rate 75%; 1 thread(s); cache 0 hit(s) / 1 miss(es); \
arithmetic 0 fixed-limb / 0 bignum pass(es), 0 NTT convolution(s)
(CDG)
  1. Flights(JFK, CDG)  1/2  (≈0.5000)
  2. Flights(LHR, CDG)  1/2  (≈0.5000)
(LHR)
  1. Flights(EWR, LHR)  1/2  (≈0.5000)
  2. Flights(BOS, LHR)  1/2  (≈0.5000)
(MUC)
  1. Flights(LAX, MUC)  1/2  (≈0.5000)
  2. Flights(LHR, MUC)  1/2  (≈0.5000)
(ORY)
  1. Flights(LHR, ORY)  1/2  (≈0.5000)
  2. Flights(MUC, ORY)  1/2  (≈0.5000)
";
    assert_eq!(db.run("q(y) :- Flights(x, y)", &[]), expected);
}

#[test]
fn top_k_renders_the_best_answers_and_a_bounded_peak() {
    let db = Db::new("topk");
    let query = "q(y) :- Flights(x, y), Flights(y, z)";
    let report = db.run(query, &["--top-k", "2", "--top", "3"]);
    // The peak depends on how far the producer ran ahead of the ranking:
    // check it against the stream's documented bounds, then pin the rest.
    let (before, rest) = report.split_once("; peak ").unwrap();
    let (peak, after) = rest.split_once(' ').unwrap();
    let peak: usize = peak.parse().unwrap();
    let database = load_database(&db.0, Some(&["Flights".to_string()])).unwrap();
    let answer_literals: Vec<usize> = evaluate(&parse_ucq(query).unwrap(), &database)
        .outputs
        .iter()
        .map(|t| t.lineage.conjuncts().iter().map(|c| c.len()).sum())
        .collect();
    let max = *answer_literals.iter().max().unwrap();
    let total: usize = answer_literals.iter().sum();
    // Every answer is in flight on its own at some point, and backpressure
    // keeps at most `chunk + 1` answers (chunk 256) in flight.
    assert!(max <= peak && peak <= total.min(257 * max), "{report}");
    let expected_before = "\
20 fact(s), 8 endogenous; 2 answer(s) for q(y) :- Flights(x, y), Flights(y, z)
top-2: solved 2 answer(s) (2 structure(s)), pruned 0 answer(s) (0 structure(s)) unsolved";
    let expected_after = "\
streamed literal(s)
#1 (MUC)  best fact value 2/3  (≈0.6667)
  1. Flights(MUC, ORY)  2/3  (≈0.6667)
  2. Flights(LAX, MUC)  1/6  (≈0.1667)
  3. Flights(LHR, MUC)  1/6  (≈0.1667)
#2 (LHR)  best fact value 3/10  (≈0.3000)
  1. Flights(EWR, LHR)  3/10  (≈0.3000)
  2. Flights(BOS, LHR)  3/10  (≈0.3000)
  3. Flights(LHR, CDG)  2/15  (≈0.1333)
";
    assert_eq!(before, expected_before);
    assert_eq!(after, expected_after);
}

#[test]
fn count_aggregate_renders_the_attribution() {
    let db = Db::new("count");
    let expected = "\
20 fact(s), 8 endogenous; 4 answer(s) for q(y) :- Flights(x, y)
COUNT(*) attribution:
  1. Flights(JFK, CDG)  1/2  (≈0.5000)
  2. Flights(EWR, LHR)  1/2  (≈0.5000)
  3. Flights(BOS, LHR)  1/2  (≈0.5000)
  4. Flights(LHR, CDG)  1/2  (≈0.5000)
  5. Flights(LHR, ORY)  1/2  (≈0.5000)
  6. Flights(LAX, MUC)  1/2  (≈0.5000)
  7. Flights(MUC, ORY)  1/2  (≈0.5000)
  8. Flights(LHR, MUC)  1/2  (≈0.5000)
";
    assert_eq!(
        db.run("q(y) :- Flights(x, y)", &["--agg", "count", "--top", "8"]),
        expected
    );
}

#[test]
fn sum_aggregate_renders_the_attribution() {
    // ORY has zero gates: its answer weighs nothing, so LHR→ORY and
    // MUC→ORY are null players of the SUM game.
    let db = Db::new("sum");
    let expected = "\
20 fact(s), 8 endogenous; 4 answer(s) for q(y, g) :- Flights(x, y), Hubs(y, g)
SUM attribution:
  1. Flights(EWR, LHR)  5/2  (≈2.5000)
  2. Flights(BOS, LHR)  5/2  (≈2.5000)
  3. Flights(LAX, MUC)  2  (≈2.0000)
  4. Flights(LHR, MUC)  2  (≈2.0000)
  5. Flights(JFK, CDG)  3/2  (≈1.5000)
  6. Flights(LHR, CDG)  3/2  (≈1.5000)
";
    assert_eq!(
        db.run(
            "q(y, g) :- Flights(x, y), Hubs(y, g)",
            &["--agg", "sum:1", "--top", "8"]
        ),
        expected
    );
}
