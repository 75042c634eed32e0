//! A Datalog-style text syntax for UCQs.
//!
//! ```text
//! q(c) :- Airports(x, c), Flights(x, y), y != 'LHR' ; q(c) :- Hubs(c)
//! ```
//!
//! * disjuncts are separated by `;` or `∪` (all must share the head arity),
//!   so a UCQ's `Display` output parses back;
//! * lower-case identifiers in term position are variables;
//! * `'quoted'` or `"quoted"` tokens are string constants, bare (possibly
//!   negative) integers are integer constants;
//! * comparisons (`=`, `!=`, `<`, `<=`, `>`, `>=`) may appear in the body.
//!
//! The parser exists so examples and the experiment harness can state
//! workload queries declaratively; the builder API remains the primary
//! programmatic interface.

use crate::ast::{CmpOp, ConjunctiveQuery, CqBuilder, Term, Ucq, MAX_ATOM_TERMS};
use std::collections::HashMap;
use std::fmt;

/// A parse failure with a human-readable message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    pub message: String,
    pub position: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for ParseError {}

#[derive(Clone, Debug, PartialEq)]
enum Tok {
    Ident(String),
    Str(String),
    Int(i64),
    LParen,
    RParen,
    Comma,
    Semi,
    Turnstile,
    Op(CmpOp),
}

fn tokenize(src: &str) -> Result<Vec<(Tok, usize)>, ParseError> {
    let err = |message: String, position: usize| ParseError { message, position };
    let mut toks = Vec::new();
    let mut chars = src.char_indices().peekable();
    while let Some((i, c)) = chars.next() {
        let mut then = |want: char| chars.next_if(|&(_, d)| d == want).is_some();
        let tok = match c {
            ' ' | '\t' | '\n' | '\r' => continue,
            '(' => Tok::LParen,
            ')' => Tok::RParen,
            ',' => Tok::Comma,
            // `∪` is how `Ucq`'s `Display` joins disjuncts.
            ';' | '∪' => Tok::Semi,
            ':' if then('-') => Tok::Turnstile,
            ':' => return Err(err("expected `:-`".into(), i)),
            '\'' | '"' => {
                let Some((end, _)) = chars.find(|&(_, d)| d == c) else {
                    return Err(err("unterminated string".into(), i));
                };
                Tok::Str(src[i + 1..end].to_string())
            }
            '<' | '>' | '=' | '!' => Tok::Op(match (c, then('=')) {
                ('<', true) => CmpOp::Le,
                ('<', false) => CmpOp::Lt,
                ('>', true) => CmpOp::Ge,
                ('>', false) => CmpOp::Gt,
                // `==` is also accepted for equality.
                ('=', _) => CmpOp::Eq,
                ('!', true) => CmpOp::Ne,
                _ => return Err(err("bad operator".into(), i)),
            }),
            '-' | '0'..='9' => {
                let mut end = i + 1;
                while let Some((j, _)) = chars.next_if(|(_, d)| d.is_ascii_digit()) {
                    end = j + 1;
                }
                let text = &src[i..end];
                Tok::Int(
                    text.parse()
                        .map_err(|_| err(format!("bad integer `{text}`"), i))?,
                )
            }
            _ if c.is_alphabetic() || c == '_' => {
                let mut end = i + c.len_utf8();
                while let Some((j, d)) = chars.next_if(|(_, d)| d.is_alphanumeric() || *d == '_') {
                    end = j + d.len_utf8();
                }
                Tok::Ident(src[i..end].to_string())
            }
            _ => return Err(err(format!("unexpected character `{c}`"), i)),
        };
        toks.push((tok, i));
    }
    Ok(toks)
}

struct Parser {
    toks: Vec<(Tok, usize)>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(t, _)| t)
    }

    fn position(&self) -> usize {
        self.toks.get(self.pos).map_or(usize::MAX, |(_, p)| *p)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|(t, _)| t.clone());
        self.pos += 1;
        t
    }

    fn expect(&mut self, want: &Tok, what: &str) -> Result<(), ParseError> {
        if self.peek() == Some(want) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {what}")))
        }
    }

    fn err(&self, message: String) -> ParseError {
        ParseError {
            message,
            position: self.position(),
        }
    }

    fn parse_cq(&mut self) -> Result<ConjunctiveQuery, ParseError> {
        let mut b = CqBuilder::new();
        let mut vars: HashMap<String, crate::ast::Variable> = HashMap::new();
        // Head: ident ( terms? )
        let _head_name = match self.bump() {
            Some(Tok::Ident(n)) => n,
            _ => return Err(self.err("expected head predicate name".into())),
        };
        self.expect(&Tok::LParen, "`(` after head name")?;
        let mut head_terms = Vec::new();
        if self.peek() != Some(&Tok::RParen) {
            loop {
                head_terms.push(self.parse_term(&mut b, &mut vars)?);
                if self.peek() == Some(&Tok::Comma) {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }
        self.expect(&Tok::RParen, "`)` after head terms")?;
        self.expect(&Tok::Turnstile, "`:-`")?;
        // Body items.
        loop {
            match self.peek().cloned() {
                Some(Tok::Ident(name))
                    if self.toks.get(self.pos + 1).map(|(t, _)| t) == Some(&Tok::LParen) =>
                {
                    self.pos += 2;
                    let mut terms = Vec::new();
                    if self.peek() != Some(&Tok::RParen) {
                        loop {
                            terms.push(self.parse_term(&mut b, &mut vars)?);
                            if self.peek() == Some(&Tok::Comma) {
                                self.pos += 1;
                            } else {
                                break;
                            }
                        }
                    }
                    if terms.len() > MAX_ATOM_TERMS {
                        return Err(self.err(format!(
                            "atom `{name}` has {} terms; at most {MAX_ATOM_TERMS} are supported",
                            terms.len()
                        )));
                    }
                    self.expect(&Tok::RParen, "`)` after atom terms")?;
                    b.atom(&name, terms);
                }
                Some(_) => {
                    // comparison: term op term
                    let lhs = self.parse_term(&mut b, &mut vars)?;
                    let op = match self.bump() {
                        Some(Tok::Op(op)) => op,
                        _ => return Err(self.err("expected comparison operator".into())),
                    };
                    let rhs = self.parse_term(&mut b, &mut vars)?;
                    b.filter(lhs, op, rhs);
                }
                None => return Err(self.err("unexpected end of body".into())),
            }
            if self.peek() == Some(&Tok::Comma) {
                self.pos += 1;
            } else {
                break;
            }
        }
        b.head(head_terms);
        Ok(b.build())
    }

    fn parse_term(
        &mut self,
        b: &mut CqBuilder,
        vars: &mut HashMap<String, crate::ast::Variable>,
    ) -> Result<Term, ParseError> {
        match self.bump() {
            Some(Tok::Ident(name)) => {
                let v = *vars.entry(name.clone()).or_insert_with(|| b.var(&name));
                Ok(Term::Var(v))
            }
            Some(Tok::Str(s)) => Ok(Term::str(&s)),
            Some(Tok::Int(v)) => Ok(Term::int(v)),
            _ => Err(self.err("expected term".into())),
        }
    }
}

/// Parses a UCQ from the Datalog-style syntax.
pub fn parse_ucq(src: &str) -> Result<Ucq, ParseError> {
    let toks = tokenize(src)?;
    let mut p = Parser { toks, pos: 0 };
    let mut disjuncts = vec![p.parse_cq()?];
    while p.peek() == Some(&Tok::Semi) {
        p.pos += 1;
        disjuncts.push(p.parse_cq()?);
    }
    if p.pos != p.toks.len() {
        return Err(p.err("trailing input".into()));
    }
    let arity = disjuncts[0].head.len();
    if disjuncts.iter().any(|d| d.head.len() != arity) {
        return Err(ParseError {
            message: "disjuncts must share head arity".into(),
            position: 0,
        });
    }
    Ok(Ucq::new(disjuncts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate;
    use shapdb_data::flights_example;

    #[test]
    fn parses_running_example() {
        let q = parse_ucq(
            "q() :- Airports(x, 'USA'), Airports(y, 'FR'), Flights(x, y) ; \
             q() :- Airports(x, 'USA'), Airports(z, 'FR'), Flights(x, y), Flights(y, z)",
        )
        .unwrap();
        assert_eq!(q.disjuncts().len(), 2);
        let (db, _) = flights_example();
        let res = evaluate(&q, &db);
        assert_eq!(res.outputs[0].lineage.len(), 6);
    }

    #[test]
    fn parses_comparisons_and_ints() {
        let q = parse_ucq("q(x) :- R(x, y), x >= 3, y != 'z', y < 10").unwrap();
        let cq = &q.disjuncts()[0];
        assert_eq!(cq.predicates.len(), 3);
        assert_eq!(cq.head.len(), 1);
    }

    #[test]
    fn shared_variables_unify() {
        let q = parse_ucq("q(x) :- R(x, y), S(y, x)").unwrap();
        let cq = &q.disjuncts()[0];
        assert_eq!(cq.num_vars(), 2);
    }

    #[test]
    fn negative_integers() {
        let q = parse_ucq("q() :- R(x), x > -5").unwrap();
        assert_eq!(q.disjuncts()[0].predicates.len(), 1);
    }

    #[test]
    fn error_positions_reported() {
        let e = parse_ucq("q() :- R(x), x $ 3").unwrap_err();
        assert!(e.message.contains("unexpected character"));
        let e2 = parse_ucq("q( :- R(x)").unwrap_err();
        assert!(!e2.message.is_empty());
        let e3 = parse_ucq("q() :- 'str'").unwrap_err();
        assert!(e3.message.contains("comparison"));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let e = parse_ucq("q(x) :- R(x) ; q() :- S(y)").unwrap_err();
        assert!(e.message.contains("arity"));
    }

    #[test]
    fn non_ascii_input_parses_or_fails_at_its_byte_offset() {
        let q = parse_ucq("q(stadt) :- Städte(stadt, 'Zürich'), Flüge(stadt, ziel)").unwrap();
        let cq = &q.disjuncts()[0];
        assert_eq!(cq.atoms[0].relation, "Städte");
        assert_eq!(cq.atoms[1].relation, "Flüge");
        assert_eq!(cq.num_vars(), 2);
        let src = "q() :- R(x), x € 3";
        let e = parse_ucq(src).unwrap_err();
        assert_eq!(e.message, "unexpected character `€`");
        assert_eq!(e.position, src.find('€').unwrap());
        let src = "q() :- R(x) ∩ S(x)";
        assert_eq!(parse_ucq(src).unwrap_err().position, src.find('∩').unwrap());
        let e = parse_ucq("q() :- R('ünterminated").unwrap_err();
        assert_eq!((e.message.as_str(), e.position), ("unterminated string", 9));
    }

    #[test]
    fn union_sign_separates_disjuncts() {
        let q = parse_ucq("q(x) :- R(x)  ∪  q(y) :- S(y)").unwrap();
        assert_eq!(q.disjuncts().len(), 2);
        assert_eq!(
            parse_ucq(&q.to_string()).unwrap().to_string(),
            q.to_string()
        );
    }

    #[test]
    fn round_trips_through_display() {
        let q = parse_ucq("q(x) :- R(x, 'a'), x > 1").unwrap();
        let shown = q.to_string();
        assert!(shown.contains("R(x"));
        assert!(shown.contains("> 1"));
    }
}
