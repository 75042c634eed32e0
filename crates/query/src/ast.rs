//! Query abstract syntax: unions of conjunctive queries with comparisons.

use shapdb_data::Value;
use std::fmt;

/// A query variable (index local to one conjunctive query).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Variable(pub u32);

impl Variable {
    /// The variable as a usize index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A term: a variable or a constant.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Term {
    Var(Variable),
    Const(Value),
}

impl Term {
    /// Shorthand for a constant string term.
    pub fn str(s: &str) -> Term {
        Term::Const(Value::str(s))
    }

    /// Shorthand for a constant integer term.
    pub fn int(v: i64) -> Term {
        Term::Const(Value::int(v))
    }
}

impl From<Variable> for Term {
    fn from(v: Variable) -> Term {
        Term::Var(v)
    }
}

impl From<i64> for Term {
    fn from(v: i64) -> Term {
        Term::int(v)
    }
}

impl From<&str> for Term {
    fn from(s: &str) -> Term {
        Term::str(s)
    }
}

/// A relational atom `R(t₁, …, t_k)`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Atom {
    pub relation: String,
    pub terms: Vec<Term>,
}

/// Most terms an atom may have: the evaluator keys its indexes by a `u64`
/// bitmask of positions.
pub const MAX_ATOM_TERMS: usize = 64;

/// Comparison operators for selection predicates.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// Applies the comparison to two values (total order on [`Value`]).
    pub fn apply(self, a: &Value, b: &Value) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

/// A selection predicate `lhs op rhs`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Predicate {
    pub lhs: Term,
    pub op: CmpOp,
    pub rhs: Term,
}

/// A conjunctive query (select-project-join with comparisons).
///
/// `head` lists the output terms; an empty head makes the query Boolean
/// (§2: a Boolean query outputs 0 or 1).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ConjunctiveQuery {
    pub head: Vec<Term>,
    pub atoms: Vec<Atom>,
    pub predicates: Vec<Predicate>,
    /// Variable display names, indexed by [`Variable`].
    pub var_names: Vec<String>,
}

impl ConjunctiveQuery {
    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.var_names.len()
    }

    /// True iff the head is empty.
    pub fn is_boolean(&self) -> bool {
        self.head.is_empty()
    }

    /// Variables appearing in the head.
    pub fn head_vars(&self) -> Vec<Variable> {
        let mut vs: Vec<Variable> = self
            .head
            .iter()
            .filter_map(|t| match t {
                Term::Var(v) => Some(*v),
                Term::Const(_) => None,
            })
            .collect();
        vs.sort_unstable();
        vs.dedup();
        vs
    }

    /// Checks that all head variables occur in some atom (safety / domain
    /// independence in the classical sense).
    pub fn is_safe_range(&self) -> bool {
        let head = self.head_vars();
        head.iter().all(|hv| {
            self.atoms
                .iter()
                .any(|a| a.terms.iter().any(|t| matches!(t, Term::Var(v) if v == hv)))
        })
    }

    /// Number of distinct relations joined (Table 1's "#Joined tables").
    pub fn num_joined_tables(&self) -> usize {
        self.atoms.len()
    }

    /// Number of filter conditions: comparison predicates plus constants
    /// embedded in atom positions (Table 1's "#Filter conditions").
    pub fn num_filters(&self) -> usize {
        self.predicates.len()
            + self
                .atoms
                .iter()
                .flat_map(|a| &a.terms)
                .filter(|t| matches!(t, Term::Const(_)))
                .count()
    }
}

impl fmt::Display for ConjunctiveQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let term = |t: &Term| match t {
            Term::Var(v) => self
                .var_names
                .get(v.index())
                .cloned()
                .unwrap_or_else(|| format!("v{}", v.0)),
            Term::Const(c) => format!("{c:?}"),
        };
        write!(f, "q(")?;
        for (i, t) in self.head.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", term(t))?;
        }
        write!(f, ") :- ")?;
        for (i, a) in self.atoms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}(", a.relation)?;
            for (j, t) in a.terms.iter().enumerate() {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", term(t))?;
            }
            write!(f, ")")?;
        }
        for p in &self.predicates {
            write!(f, ", {} {} {}", term(&p.lhs), p.op, term(&p.rhs))?;
        }
        Ok(())
    }
}

/// A union of conjunctive queries (all disjuncts share the head arity).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Ucq {
    disjuncts: Vec<ConjunctiveQuery>,
}

impl Ucq {
    /// Builds a UCQ; panics if head arities differ or the list is empty.
    pub fn new(disjuncts: Vec<ConjunctiveQuery>) -> Ucq {
        assert!(!disjuncts.is_empty(), "UCQ needs at least one disjunct");
        let arity = disjuncts[0].head.len();
        assert!(
            disjuncts.iter().all(|d| d.head.len() == arity),
            "UCQ disjuncts must share head arity"
        );
        Ucq { disjuncts }
    }

    /// The disjuncts.
    pub fn disjuncts(&self) -> &[ConjunctiveQuery] {
        &self.disjuncts
    }

    /// Output arity.
    pub fn arity(&self) -> usize {
        self.disjuncts[0].head.len()
    }

    /// True iff every disjunct is Boolean.
    pub fn is_boolean(&self) -> bool {
        self.arity() == 0
    }

    /// Maximum joined-table count across disjuncts.
    pub fn num_joined_tables(&self) -> usize {
        self.disjuncts
            .iter()
            .map(|d| d.num_joined_tables())
            .max()
            .unwrap_or(0)
    }

    /// Total filter count across disjuncts.
    pub fn num_filters(&self) -> usize {
        self.disjuncts.iter().map(|d| d.num_filters()).sum()
    }
}

impl From<ConjunctiveQuery> for Ucq {
    fn from(cq: ConjunctiveQuery) -> Ucq {
        Ucq::new(vec![cq])
    }
}

impl fmt::Display for Ucq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, d) in self.disjuncts.iter().enumerate() {
            if i > 0 {
                write!(f, "  ∪  ")?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

/// Fluent builder for [`ConjunctiveQuery`].
///
/// ```
/// use shapdb_query::{CqBuilder, CmpOp};
/// let mut b = CqBuilder::new();
/// let x = b.var("x");
/// let y = b.var("y");
/// b.atom("Airports", [x.into(), "USA".into()]);
/// b.atom("Flights", [x.into(), y.into()]);
/// b.filter(x.into(), CmpOp::Ne, "LHR".into());
/// let q = b.head([y.into()]).build();
/// assert_eq!(q.num_joined_tables(), 2);
/// ```
#[derive(Default)]
pub struct CqBuilder {
    head: Vec<Term>,
    atoms: Vec<Atom>,
    predicates: Vec<Predicate>,
    var_names: Vec<String>,
}

impl CqBuilder {
    /// A fresh builder.
    pub fn new() -> CqBuilder {
        CqBuilder::default()
    }

    /// Declares a fresh variable with a display name.
    pub fn var(&mut self, name: &str) -> Variable {
        let v = Variable(self.var_names.len() as u32);
        self.var_names.push(name.to_string());
        v
    }

    /// Adds an atom.
    pub fn atom(&mut self, relation: &str, terms: impl IntoIterator<Item = Term>) -> &mut Self {
        self.atoms.push(Atom {
            relation: relation.to_string(),
            terms: terms.into_iter().collect(),
        });
        self
    }

    /// Adds a comparison predicate.
    pub fn filter(&mut self, lhs: Term, op: CmpOp, rhs: Term) -> &mut Self {
        self.predicates.push(Predicate { lhs, op, rhs });
        self
    }

    /// Sets the head (output) terms.
    pub fn head(&mut self, terms: impl IntoIterator<Item = Term>) -> &mut Self {
        self.head = terms.into_iter().collect();
        self
    }

    /// Finalizes the query.
    pub fn build(&mut self) -> ConjunctiveQuery {
        let q = ConjunctiveQuery {
            head: std::mem::take(&mut self.head),
            atoms: std::mem::take(&mut self.atoms),
            predicates: std::mem::take(&mut self.predicates),
            var_names: std::mem::take(&mut self.var_names),
        };
        assert!(q.is_safe_range(), "head variable missing from atoms: {q}");
        q
    }
}

/// The running example's query `q = q1 ∨ q2` (Figure 1c): routes from "USA"
/// to "FR" with at most one connection.
pub fn flights_query() -> Ucq {
    // q1 = ∃x,y: Airports(x,"USA") ∧ Airports(y,"FR") ∧ Flights(x,y)
    let mut b1 = CqBuilder::new();
    let x = b1.var("x");
    let y = b1.var("y");
    b1.atom("Airports", [x.into(), "USA".into()]);
    b1.atom("Airports", [y.into(), "FR".into()]);
    b1.atom("Flights", [x.into(), y.into()]);
    let q1 = b1.build();
    // q2 = ∃x,y,z: Airports(x,"USA") ∧ Airports(z,"FR") ∧ Flights(x,y) ∧ Flights(y,z)
    let mut b2 = CqBuilder::new();
    let x = b2.var("x");
    let y = b2.var("y");
    let z = b2.var("z");
    b2.atom("Airports", [x.into(), "USA".into()]);
    b2.atom("Airports", [z.into(), "FR".into()]);
    b2.atom("Flights", [x.into(), y.into()]);
    b2.atom("Flights", [y.into(), z.into()]);
    let q2 = b2.build();
    Ucq::new(vec![q1, q2])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_query() {
        let mut b = CqBuilder::new();
        let x = b.var("x");
        b.atom("R", [x.into(), Term::int(5)]);
        b.filter(x.into(), CmpOp::Gt, Term::int(0));
        let q = b.head([x.into()]).build();
        assert_eq!(q.num_vars(), 1);
        assert_eq!(q.num_joined_tables(), 1);
        assert_eq!(q.num_filters(), 2); // one predicate + one embedded const
        assert!(!q.is_boolean());
        assert!(q.is_safe_range());
    }

    #[test]
    #[should_panic(expected = "head variable missing")]
    fn unsafe_head_rejected() {
        let mut b = CqBuilder::new();
        let x = b.var("x");
        let y = b.var("y");
        b.atom("R", [x.into()]);
        b.head([y.into()]).build();
    }

    #[test]
    fn flights_query_shape() {
        let q = flights_query();
        assert_eq!(q.disjuncts().len(), 2);
        assert!(q.is_boolean());
        assert_eq!(q.disjuncts()[0].atoms.len(), 3);
        assert_eq!(q.disjuncts()[1].atoms.len(), 4);
        // Self-join on Flights in q2.
        let rels: Vec<&str> = q.disjuncts()[1]
            .atoms
            .iter()
            .map(|a| a.relation.as_str())
            .collect();
        assert_eq!(rels, vec!["Airports", "Airports", "Flights", "Flights"]);
    }

    #[test]
    #[should_panic(expected = "share head arity")]
    fn ucq_arity_mismatch() {
        let mut b1 = CqBuilder::new();
        let x = b1.var("x");
        b1.atom("R", [x.into()]);
        let q1 = b1.head([x.into()]).build();
        let mut b2 = CqBuilder::new();
        let y = b2.var("y");
        b2.atom("R", [y.into()]);
        let q2 = b2.build();
        Ucq::new(vec![q1, q2]);
    }

    #[test]
    fn display_is_readable() {
        let mut b = CqBuilder::new();
        let x = b.var("x");
        b.atom("R", [x.into(), "a".into()]);
        let q = b.head([x.into()]).build();
        assert_eq!(q.to_string(), "q(x) :- R(x, \"a\")");
    }

    #[test]
    fn cmp_op_semantics() {
        let a = Value::int(1);
        let b = Value::int(2);
        assert!(CmpOp::Lt.apply(&a, &b));
        assert!(CmpOp::Le.apply(&a, &a));
        assert!(CmpOp::Ne.apply(&a, &b));
        assert!(CmpOp::Eq.apply(&a, &a));
        assert!(CmpOp::Gt.apply(&b, &a));
        assert!(CmpOp::Ge.apply(&b, &b));
    }
}
