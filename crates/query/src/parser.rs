//! A Datalog-style text syntax for UCQs.
//!
//! ```text
//! q(c) :- Airports(x, c), Flights(x, y), y != 'LHR' ; q(c) :- Hubs(c)
//! ```
//!
//! * disjuncts are separated by `;` (all must share the head arity);
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
    let bytes = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '(' => {
                toks.push((Tok::LParen, i));
                i += 1;
            }
            ')' => {
                toks.push((Tok::RParen, i));
                i += 1;
            }
            ',' => {
                toks.push((Tok::Comma, i));
                i += 1;
            }
            ';' => {
                toks.push((Tok::Semi, i));
                i += 1;
            }
            ':' => {
                if bytes.get(i + 1) == Some(&b'-') {
                    toks.push((Tok::Turnstile, i));
                    i += 2;
                } else {
                    return Err(ParseError {
                        message: "expected `:-`".into(),
                        position: i,
                    });
                }
            }
            '\'' | '"' => {
                let quote = c;
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] as char != quote {
                    j += 1;
                }
                if j == bytes.len() {
                    return Err(ParseError {
                        message: "unterminated string".into(),
                        position: i,
                    });
                }
                toks.push((Tok::Str(src[start..j].to_string()), i));
                i = j + 1;
            }
            '<' | '>' | '=' | '!' => {
                let two = bytes.get(i + 1) == Some(&b'=');
                let op = match (c, two) {
                    ('<', true) => CmpOp::Le,
                    ('<', false) => CmpOp::Lt,
                    ('>', true) => CmpOp::Ge,
                    ('>', false) => CmpOp::Gt,
                    ('=', _) => CmpOp::Eq,
                    ('!', true) => CmpOp::Ne,
                    _ => {
                        return Err(ParseError {
                            message: "bad operator".into(),
                            position: i,
                        });
                    }
                };
                toks.push((Tok::Op(op), i));
                // `==` is also accepted for equality, consuming both bytes.
                i += if two { 2 } else { 1 };
            }
            '-' | '0'..='9' => {
                let start = i;
                if c == '-' {
                    i += 1;
                }
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let text = &src[start..i];
                let v: i64 = text.parse().map_err(|_| ParseError {
                    message: format!("bad integer `{text}`"),
                    position: start,
                })?;
                toks.push((Tok::Int(v), start));
            }
            _ if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() && ((bytes[i] as char).is_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                toks.push((Tok::Ident(src[start..i].to_string()), start));
            }
            _ => {
                return Err(ParseError {
                    message: format!("unexpected character `{c}`"),
                    position: i,
                })
            }
        }
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
    fn round_trips_through_display() {
        let q = parse_ucq("q(x) :- R(x, 'a'), x > 1").unwrap();
        let shown = q.to_string();
        assert!(shown.contains("R(x"));
        assert!(shown.contains("> 1"));
    }
}
