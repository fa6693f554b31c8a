//! A recursive-descent parser for HoTTSQL concrete syntax.
//!
//! The grammar follows the paper's examples (Sec. 3.2, Sec. 5):
//!
//! ```text
//! query    := unionq
//! unionq   := exceptq ("UNION" "ALL" exceptq)*
//! exceptq  := atomq ("EXCEPT" atomq)*
//! atomq    := "DISTINCT" atomq
//!           | "SELECT" proj "FROM" fromlist ["WHERE" pred]
//!           | ident
//!           | "(" query ")"
//! fromlist := atomq ("," atomq)*            (left-associated products)
//! pred     := orp;  orp := andp ("OR" andp)*;  andp := notp ("AND" notp)*
//! notp     := "NOT" notp | "TRUE" | "FALSE"
//!           | "EXISTS" atomq
//!           | "CASTPRED" proj "(" pred ")"
//!           | expr "=" expr
//!           | ident "(" expr,* ")"          (uninterpreted predicate)
//!           | ident                          (predicate meta-variable)
//! expr     := "CASTEXPR" proj "(" expr ")"
//!           | AGGNAME "(" query ")"
//!           | ident "(" expr,* ")"          (uninterpreted function)
//!           | integer | string | "TRUE" | "FALSE" constants
//!           | proj                           (implicit P2E)
//! proj     := projatom ("." projatom)*
//! projatom := "*" | "Left" | "Right" | "Empty" | ident
//!           | "(" proj "," proj ")"
//! ```
//!
//! Identifiers in query position are tables; in predicate position,
//! meta-variables; in projection position, attribute meta-variables.
//!
//! Nesting is capped at 256 levels: at most that many parentheses open
//! at once, and at most that many levels in the tree the parser builds.
//! `DISTINCT`, `NOT`, `EXISTS`, subqueries, aggregates, calls, casts,
//! pairs and `=` each put their operands a level down, and each link of
//! a left-associated `UNION ALL`, `EXCEPT`, `AND`, `OR`, `FROM`-list,
//! `WHERE` or projection-path chain adds a level on top.

use crate::ast::{Expr, Predicate, Proj, Query};
use crate::error::{HottsqlError, Result};
use relalg::ops::Aggregate;
use relalg::Value;

/// Parses a HoTTSQL query.
///
/// # Errors
///
/// Returns [`HottsqlError::Parse`] with a byte offset on malformed input.
///
/// # Example
///
/// ```
/// use hottsql::parse::parse_query;
/// let q = parse_query("DISTINCT SELECT Right.a FROM R WHERE Right.a = Right.b").unwrap();
/// assert!(matches!(q, hottsql::Query::Distinct(_)));
/// ```
pub fn parse_query(input: &str) -> Result<Query> {
    let mut p = Parser::new(input)?;
    let q = p.query()?;
    p.expect_eof()?;
    Ok(q)
}

/// Parses a HoTTSQL predicate (useful in tests and examples).
///
/// # Errors
///
/// Returns [`HottsqlError::Parse`] on malformed input.
pub fn parse_pred(input: &str) -> Result<Predicate> {
    let mut p = Parser::new(input)?;
    let b = p.pred()?;
    p.expect_eof()?;
    Ok(b)
}

/// The deepest a query may nest, in open parentheses and in tree
/// levels. Deeper input is a parse error instead of a stack overflow,
/// here or in the recursive passes that walk the tree afterwards
/// (typing, denotation, printing, dropping).
const MAX_DEPTH: usize = 256;

#[derive(Clone, Debug, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Str(String),
    Star,
    Dot,
    Comma,
    Eq,
    LParen,
    RParen,
    Eof,
}

struct Parser {
    toks: Vec<(Tok, usize)>,
    pos: usize,
    /// Tree level of the node being parsed; the root is level 0.
    depth: usize,
    /// Deepest tree level the subtree being parsed reaches, counting
    /// the chain links built so far (see [`Parser::start_chain`]).
    peak: usize,
}

/// The error for input nested past [`MAX_DEPTH`] at byte `offset`.
fn too_deep<T>(offset: usize) -> Result<T> {
    Err(HottsqlError::Parse {
        message: format!("nesting deeper than {MAX_DEPTH} levels"),
        offset,
    })
}

impl Parser {
    /// Lexes `input`. Parentheses are counted here, before any
    /// recursion, so a hostile run of `(` costs no stack.
    fn new(input: &str) -> Result<Parser> {
        let toks = lex(input)?;
        let mut open = 0usize;
        for (tok, offset) in &toks {
            match tok {
                Tok::LParen if open == MAX_DEPTH => return too_deep(*offset),
                Tok::LParen => open += 1,
                Tok::RParen => open = open.saturating_sub(1),
                _ => {}
            }
        }
        Ok(Parser {
            toks,
            pos: 0,
            depth: 0,
            peak: 0,
        })
    }

    /// Records that the tree reaches `level`, failing past the cap.
    fn reach(&mut self, level: usize) -> Result<()> {
        if level > MAX_DEPTH {
            return too_deep(self.offset());
        }
        self.peak = self.peak.max(level);
        Ok(())
    }

    /// Parses a node's children, one tree level down. Checking on the
    /// way down bounds the recursion before it happens.
    fn child<T>(&mut self, f: impl FnOnce(&mut Parser) -> Result<T>) -> Result<T> {
        self.reach(self.depth + 1)?;
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        out
    }

    /// Starts a left-associated chain `a op b op c …` at the current
    /// level: `peak` restarts here, so its height above this level is
    /// the chain's. Each link puts a new node on top of everything
    /// parsed so far, so the caller calls [`Parser::link`] after
    /// building one, and [`Parser::end_chain`] with the returned value
    /// at the end. (An error abandons the whole parse, so it needs no
    /// `end_chain`.)
    fn start_chain(&mut self) -> usize {
        std::mem::replace(&mut self.peak, self.depth)
    }

    /// Accounts for one more link of the chain being parsed.
    fn link(&mut self) -> Result<()> {
        self.reach(self.peak + 1)
    }

    /// Ends the chain [`Parser::start_chain`] began.
    fn end_chain(&mut self, outer: usize) {
        self.peak = self.peak.max(outer);
    }

    fn peek(&self) -> &Tok {
        &self.toks[self.pos].0
    }

    fn offset(&self) -> usize {
        self.toks[self.pos].1
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].0.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T> {
        Err(HottsqlError::Parse {
            message: msg.into(),
            offset: self.offset(),
        })
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if let Tok::Ident(s) = self.peek() {
            if s.eq_ignore_ascii_case(kw) {
                self.bump();
                return true;
            }
        }
        false
    }

    fn peek_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if s.eq_ignore_ascii_case(kw))
    }

    fn expect(&mut self, t: Tok) -> Result<()> {
        if *self.peek() == t {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected {t:?}, found {:?}", self.peek()))
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            self.err(format!("expected {kw}, found {:?}", self.peek()))
        }
    }

    fn expect_eof(&mut self) -> Result<()> {
        if *self.peek() == Tok::Eof {
            Ok(())
        } else {
            self.err(format!("unexpected trailing input {:?}", self.peek()))
        }
    }

    fn query(&mut self) -> Result<Query> {
        let outer = self.start_chain();
        let mut q = self.commaq()?;
        while self.peek_kw("UNION") {
            self.bump();
            self.expect_kw("ALL")?;
            let rhs = self.commaq()?;
            q = Query::union_all(q, rhs);
            self.link()?;
        }
        self.end_chain(outer);
        Ok(q)
    }

    /// Comma-products `q₁, q₂, …` (left-associated) with an optional
    /// postfix bare selection `… WHERE b` — so the `Display` output of
    /// [`Query::Product`] and [`Query::Where`] re-parses. `SELECT`'s own
    /// FROM/WHERE handling bypasses this level, so a `WHERE` after a
    /// FROM-list still binds to the whole list there.
    fn commaq(&mut self) -> Result<Query> {
        let outer = self.start_chain();
        let mut q = self.exceptq()?;
        loop {
            if *self.peek() == Tok::Comma {
                self.bump();
                q = Query::product(q, self.exceptq()?);
            } else if self.eat_kw("WHERE") {
                let b = self.pred()?;
                q = Query::where_(q, b);
            } else {
                self.end_chain(outer);
                return Ok(q);
            }
            self.link()?;
        }
    }

    fn exceptq(&mut self) -> Result<Query> {
        let outer = self.start_chain();
        let mut q = self.atomq()?;
        while self.eat_kw("EXCEPT") {
            let rhs = self.atomq()?;
            q = Query::except(q, rhs);
            self.link()?;
        }
        self.end_chain(outer);
        Ok(q)
    }

    /// `operand ("," operand)* ["WHERE" pred]`: a left-associated
    /// product with an optional selection on top.
    fn fromlist(&mut self, operand: fn(&mut Parser) -> Result<Query>) -> Result<Query> {
        let outer = self.start_chain();
        let mut q = operand(self)?;
        while *self.peek() == Tok::Comma {
            self.bump();
            q = Query::product(q, operand(self)?);
            self.link()?;
        }
        if self.eat_kw("WHERE") {
            let b = self.pred()?;
            q = Query::where_(q, b);
            self.link()?;
        }
        self.end_chain(outer);
        Ok(q)
    }

    fn atomq(&mut self) -> Result<Query> {
        if self.eat_kw("DISTINCT") {
            return Ok(Query::distinct(self.child(Self::atomq)?));
        }
        if self.eat_kw("SELECT") {
            return self.child(|p| {
                let proj = p.proj()?;
                p.expect_kw("FROM")?;
                let from = p.fromlist(Self::atomq)?;
                Ok(Query::select(proj, from))
            });
        }
        match self.bump() {
            Tok::Ident(name) => Ok(Query::table(name)),
            Tok::LParen => {
                // Parenthesized query, a parenthesized FROM-list
                // `(q₁, q₂, …)` denoting their product (the paper writes
                // `FROM (FROM R1, R1), R2`; we accept `(R1, R1), R2`),
                // or a parenthesized bare selection `(q WHERE b)` as
                // emitted by `Query`'s `Display`.
                let q = self.fromlist(Self::query)?;
                self.expect(Tok::RParen)?;
                Ok(q)
            }
            other => {
                self.pos = self.pos.saturating_sub(1);
                self.err(format!("expected a query, found {other:?}"))
            }
        }
    }

    fn pred(&mut self) -> Result<Predicate> {
        let outer = self.start_chain();
        let mut b = self.andp()?;
        while self.eat_kw("OR") {
            b = Predicate::or(b, self.andp()?);
            self.link()?;
        }
        self.end_chain(outer);
        Ok(b)
    }

    fn andp(&mut self) -> Result<Predicate> {
        let outer = self.start_chain();
        let mut b = self.notp()?;
        while self.eat_kw("AND") {
            b = Predicate::and(b, self.notp()?);
            self.link()?;
        }
        self.end_chain(outer);
        Ok(b)
    }

    fn notp(&mut self) -> Result<Predicate> {
        if self.eat_kw("NOT") {
            return Ok(Predicate::not(self.child(Self::notp)?));
        }
        if self.eat_kw("TRUE") {
            return Ok(Predicate::True);
        }
        if self.eat_kw("FALSE") {
            return Ok(Predicate::False);
        }
        if self.eat_kw("EXISTS") {
            return Ok(Predicate::exists(self.child(Self::atomq)?));
        }
        if self.eat_kw("CASTPRED") {
            return self.child(|p| {
                let proj = p.proj()?;
                p.expect(Tok::LParen)?;
                let b = p.pred()?;
                p.expect(Tok::RParen)?;
                Ok(Predicate::cast(proj, b))
            });
        }
        if *self.peek() == Tok::LParen {
            self.bump();
            let b = self.pred()?;
            self.expect(Tok::RParen)?;
            return Ok(b);
        }
        // Either `expr = expr` (a one-link chain: the node comes after
        // both sides), an uninterpreted predicate call, or a bare
        // predicate meta-variable.
        let start = self.pos;
        let outer = self.start_chain();
        let e = self.expr()?;
        if *self.peek() == Tok::Eq {
            self.bump();
            let rhs = self.expr()?;
            self.link()?;
            self.end_chain(outer);
            return Ok(Predicate::eq(e, rhs));
        }
        self.end_chain(outer);
        match e {
            // A bare call that is not followed by `=` is an
            // uninterpreted predicate.
            Expr::Fn(name, args) => Ok(Predicate::Uninterp(name, args)),
            // A bare identifier parsed as a projection meta-variable is
            // really a predicate meta-variable here.
            Expr::P2E(Proj::Var(name)) => Ok(Predicate::Var(name)),
            _ => {
                self.pos = start;
                self.err("expected a predicate")
            }
        }
    }

    fn expr(&mut self) -> Result<Expr> {
        if self.eat_kw("CASTEXPR") {
            return self.child(|p| {
                let proj = p.proj()?;
                p.expect(Tok::LParen)?;
                let e = p.expr()?;
                p.expect(Tok::RParen)?;
                Ok(Expr::cast(proj, e))
            });
        }
        match self.peek().clone() {
            Tok::Int(n) => {
                self.bump();
                Ok(Expr::int(n))
            }
            Tok::Str(s) => {
                self.bump();
                Ok(Expr::Const(Value::str(s)))
            }
            Tok::Ident(name) => {
                // Aggregate or function call?
                if self.toks[self.pos + 1].0 == Tok::LParen {
                    self.bump();
                    self.bump(); // (
                    if Aggregate::parse(&name).is_some() {
                        let q = self.child(Self::query)?;
                        self.expect(Tok::RParen)?;
                        return Ok(Expr::agg(name.to_ascii_uppercase(), q));
                    }
                    return self.child(|p| {
                        let mut args = Vec::new();
                        if *p.peek() != Tok::RParen {
                            loop {
                                args.push(p.expr()?);
                                if *p.peek() == Tok::Comma {
                                    p.bump();
                                } else {
                                    break;
                                }
                            }
                        }
                        p.expect(Tok::RParen)?;
                        Ok(Expr::func(name, args))
                    });
                }
                // Otherwise a projection path used as an expression.
                Ok(Expr::p2e(self.proj()?))
            }
            _ => Ok(Expr::p2e(self.proj()?)),
        }
    }

    fn proj(&mut self) -> Result<Proj> {
        let outer = self.start_chain();
        let mut p = self.projatom()?;
        while *self.peek() == Tok::Dot {
            self.bump();
            let rhs = self.projatom()?;
            p = Proj::dot(p, rhs);
            self.link()?;
        }
        self.end_chain(outer);
        Ok(p)
    }

    fn projatom(&mut self) -> Result<Proj> {
        match self.bump() {
            Tok::Star => Ok(Proj::Star),
            Tok::Ident(s) if s.eq_ignore_ascii_case("Left") => Ok(Proj::Left),
            Tok::Ident(s) if s.eq_ignore_ascii_case("Right") => Ok(Proj::Right),
            Tok::Ident(s) if s.eq_ignore_ascii_case("Empty") => Ok(Proj::Empty),
            Tok::Ident(s) if s.eq_ignore_ascii_case("E2P") => self.child(|p| {
                p.expect(Tok::LParen)?;
                let e = p.expr()?;
                p.expect(Tok::RParen)?;
                Ok(Proj::e2p(e))
            }),
            Tok::Ident(s) => Ok(Proj::var(s)),
            Tok::LParen => self.child(|p| {
                let a = p.proj()?;
                p.expect(Tok::Comma)?;
                let b = p.proj()?;
                p.expect(Tok::RParen)?;
                Ok(Proj::pair(a, b))
            }),
            other => {
                self.pos = self.pos.saturating_sub(1);
                self.err(format!("expected a projection, found {other:?}"))
            }
        }
    }
}

/// The error for malformed input at byte `offset`.
fn lex_error<T>(message: String, offset: usize) -> Result<T> {
    Err(HottsqlError::Parse { message, offset })
}

/// Splits `input` into tokens tagged with their byte offsets. Every
/// byte belongs to a token or to whitespace: an unknown character, an
/// unterminated string, a `-` without digits and an integer outside the
/// `i64` range are errors, so the parser never sees part of a query.
fn lex(input: &str) -> Result<Vec<(Tok, usize)>> {
    let bytes = input.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '*' => {
                out.push((Tok::Star, i));
                i += 1;
            }
            '.' => {
                out.push((Tok::Dot, i));
                i += 1;
            }
            ',' => {
                out.push((Tok::Comma, i));
                i += 1;
            }
            '=' => {
                out.push((Tok::Eq, i));
                i += 1;
            }
            '(' => {
                out.push((Tok::LParen, i));
                i += 1;
            }
            ')' => {
                out.push((Tok::RParen, i));
                i += 1;
            }
            '\'' | '"' => {
                // The quote is ASCII, so the text between the quotes is
                // whole UTF-8 characters.
                let start = i;
                let Some(len) = input[i + 1..].find(c) else {
                    return lex_error("unterminated string literal".into(), start);
                };
                out.push((Tok::Str(input[i + 1..i + 1 + len].to_owned()), start));
                i += len + 2;
            }
            '-' | '0'..='9' => {
                let start = i;
                let neg = c == '-';
                if neg {
                    i += 1;
                }
                let digits = i;
                // Accumulated with the literal's sign, so i64::MIN fits.
                let mut n: Option<i64> = Some(0);
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    let d = i64::from(bytes[i] - b'0');
                    n = n.and_then(|n| n.checked_mul(10)).and_then(|n| {
                        if neg {
                            n.checked_sub(d)
                        } else {
                            n.checked_add(d)
                        }
                    });
                    i += 1;
                }
                if i == digits {
                    return lex_error("`-` without digits".into(), start);
                }
                let Some(n) = n else {
                    return lex_error(format!("integer {} out of range", &input[start..i]), start);
                };
                out.push((Tok::Int(n), start));
            }
            _ if c.is_ascii_alphabetic() || c == '_' || c == '$' => {
                let start = i;
                let mut s = String::new();
                while i < bytes.len() {
                    let c = bytes[i] as char;
                    if c.is_ascii_alphanumeric() || c == '_' || c == '$' {
                        s.push(c);
                        i += 1;
                    } else {
                        break;
                    }
                }
                out.push((Tok::Ident(s), start));
            }
            _ => {
                // Every token before this one ended on a character
                // boundary, so `i` starts a whole character.
                let ch = input[i..].chars().next().expect("i < input.len()");
                return lex_error(format!("unexpected character {ch:?}"), i);
            }
        }
    }
    out.push((Tok::Eof, input.len()));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_tables_and_products() {
        let q = parse_query("SELECT * FROM R, S, T").unwrap();
        match q {
            Query::Select(Proj::Star, from) => match *from {
                Query::Product(ab, c) => {
                    assert_eq!(*c, Query::table("T"));
                    assert!(matches!(*ab, Query::Product(_, _)));
                }
                other => panic!("expected product, got {other}"),
            },
            other => panic!("expected select, got {other}"),
        }
    }

    #[test]
    fn parses_fig1_rule_sides() {
        let lhs = parse_query("SELECT * FROM (R UNION ALL S) WHERE b").unwrap();
        let rhs =
            parse_query("(SELECT * FROM R WHERE b) UNION ALL (SELECT * FROM S WHERE b)").unwrap();
        assert!(matches!(lhs, Query::Select(_, _)));
        assert!(matches!(rhs, Query::UnionAll(_, _)));
    }

    #[test]
    fn parses_distinct_and_paths() {
        let q = parse_query(
            "DISTINCT SELECT Right.Left.a FROM R, R WHERE Right.Left.a = Right.Right.a",
        )
        .unwrap();
        match &q {
            Query::Distinct(inner) => match &**inner {
                Query::Select(p, _) => {
                    assert_eq!(p.to_string(), "Right.Left.a");
                }
                other => panic!("expected select, got {other}"),
            },
            other => panic!("expected distinct, got {other}"),
        }
    }

    #[test]
    fn parses_except_and_union_precedence() {
        let q = parse_query("R EXCEPT S UNION ALL T").unwrap();
        // EXCEPT binds tighter: (R EXCEPT S) UNION ALL T.
        assert!(matches!(q, Query::UnionAll(_, _)));
    }

    #[test]
    fn parses_exists_and_castpred() {
        let b = parse_pred("EXISTS (SELECT * FROM S WHERE CASTPRED Right (b))").unwrap();
        assert!(matches!(b, Predicate::Exists(_)));
        let b = parse_pred("CASTPRED Right (b)").unwrap();
        assert_eq!(b, Predicate::cast(Proj::Right, Predicate::var("b")));
    }

    #[test]
    fn parses_predicates() {
        let b = parse_pred("NOT (x = y) AND TRUE OR lt(Left, 30)").unwrap();
        assert!(matches!(b, Predicate::Or(_, _)));
        let b = parse_pred("b1 AND b2").unwrap();
        assert_eq!(
            b,
            Predicate::and(Predicate::var("b1"), Predicate::var("b2"))
        );
    }

    #[test]
    fn parses_aggregates_and_functions() {
        let b = parse_pred("SUM(SELECT Right.g FROM R) = add(1, 2)").unwrap();
        match b {
            Predicate::Eq(Expr::Agg(name, _), Expr::Fn(f, args)) => {
                assert_eq!(name, "SUM");
                assert_eq!(f, "add");
                assert_eq!(args.len(), 2);
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn parses_constants() {
        let b = parse_pred("Left.name = 'bob'").unwrap();
        assert!(matches!(b, Predicate::Eq(_, Expr::Const(Value::Str(_)))));
        let b = parse_pred("Left.age = -3").unwrap();
        assert!(matches!(b, Predicate::Eq(_, Expr::Const(Value::Int(-3)))));
    }

    #[test]
    fn parses_pair_projections() {
        let q = parse_query("SELECT (Left.p1, Right.p2) FROM R, S").unwrap();
        match q {
            Query::Select(Proj::Pair(_, _), _) => {}
            other => panic!("expected pair projection, got {other}"),
        }
    }

    #[test]
    fn reports_parse_errors_with_offsets() {
        let err = parse_query("SELECT FROM").unwrap_err();
        match err {
            HottsqlError::Parse { offset, .. } => assert!(offset > 0),
            other => panic!("expected parse error, got {other}"),
        }
        assert!(parse_query("SELECT * FROM R extra garbage ^^^").is_err());
    }

    #[test]
    fn parses_nested_parens() {
        let q = parse_query("((R))").unwrap();
        assert_eq!(q, Query::table("R"));
        // Unoptimized builds spend up to ~18 KiB of stack per level at
        // the cap (optimized ones under 5 KiB), more than a test
        // thread's default 2 MiB holds.
        std::thread::Builder::new()
            .stack_size(32 << 20)
            .spawn(nesting_is_capped_in_every_shape)
            .expect("spawn")
            .join()
            .expect("every shape is capped");
    }

    /// Each shape nests `k` steps deep. The most steps that stay within
    /// the cap parse; one more step is a parse error, and so is the
    /// hostile size a client could send.
    fn nesting_is_capped_in_every_shape() {
        type Shape = (&'static str, usize, fn(usize) -> String);
        let queries: [Shape; 9] = [
            ("parens", 256, |k| {
                format!("{}R{}", "(".repeat(k), ")".repeat(k))
            }),
            ("DISTINCT", 256, |k| format!("{}R", "DISTINCT ".repeat(k))),
            ("subquery", 256, |k| {
                format!("{}R{}", "SELECT * FROM (".repeat(k), ")".repeat(k))
            }),
            ("UNION ALL", 256, |k| {
                format!("R{}", " UNION ALL R".repeat(k))
            }),
            ("EXCEPT", 256, |k| format!("R{}", " EXCEPT R".repeat(k))),
            // SELECT itself takes the first level.
            ("FROM", 255, |k| {
                format!("SELECT * FROM R{}", ", R".repeat(k))
            }),
            ("path", 255, |k| {
                format!("SELECT Left{} FROM R", ".Left".repeat(k))
            }),
            ("pair", 255, |k| {
                format!("SELECT {}Left{} FROM R", "(".repeat(k), ", Left)".repeat(k))
            }),
            ("WHERE", 256, |k| format!("R{}", " WHERE b".repeat(k))),
        ];
        let preds: [Shape; 6] = [
            ("NOT", 256, |k| format!("{}TRUE", "NOT ".repeat(k))),
            ("AND", 256, |k| format!("TRUE{}", " AND TRUE".repeat(k))),
            ("OR", 256, |k| format!("TRUE{}", " OR TRUE".repeat(k))),
            // Three levels a step: EXISTS, SELECT and WHERE.
            ("EXISTS", 85, |k| {
                let step = "EXISTS (SELECT * FROM R WHERE ";
                format!("{}TRUE{}", step.repeat(k), ")".repeat(k))
            }),
            // Four levels a step: `=`, SUM, SELECT and WHERE.
            ("aggregate", 64, |k| {
                let step = "SUM(SELECT * FROM R WHERE ";
                format!("{}TRUE{}", step.repeat(k), ") = 1".repeat(k))
            }),
            // `=` takes the first level.
            ("call", 255, |k| {
                format!("{}1{} = 1", "f(".repeat(k), ")".repeat(k))
            }),
        ];
        let check = |shapes: &[Shape], parse: fn(&str) -> Result<()>| {
            let too_deep = format!("nesting deeper than {MAX_DEPTH} levels");
            for (shape, cap, build) in shapes {
                assert!(parse(&build(*cap)).is_ok(), "{shape} at the cap");
                for k in [cap + 1, 4_000] {
                    match parse(&build(k)) {
                        Err(HottsqlError::Parse { message, .. }) if message == too_deep => {}
                        other => panic!("{shape} at {k} steps: {other:?}"),
                    }
                }
            }
        };
        check(&queries, |s| parse_query(s).map(drop));
        check(&preds, |s| parse_pred(s).map(drop));
    }

    /// The parse error for `input`, as `(offset, message)`.
    fn parse_error(input: &str) -> (usize, String) {
        match parse_query(input) {
            Err(HottsqlError::Parse { message, offset }) => (offset, message),
            other => panic!("{input:?} should not parse: {other:?}"),
        }
    }

    /// The right side of the `=` in the query's `WHERE` clause.
    fn where_rhs(input: &str) -> Expr {
        let q = parse_query(input).unwrap();
        let Query::Select(_, from) = q else {
            panic!("expected select: {q}");
        };
        let Query::Where(_, pred) = *from else {
            panic!("expected where: {from}");
        };
        let Predicate::Eq(_, rhs) = pred else {
            panic!("expected `=`: {pred}");
        };
        rhs
    }

    #[test]
    fn integers_outside_i64_are_errors() {
        let q = "SELECT Right FROM R WHERE Right = 18446744073709551616";
        let (offset, message) = parse_error(q);
        assert_eq!(offset, 34, "{message}");
        assert!(message.contains("out of range"), "{message}");
        let (offset, _) = parse_error("SELECT Right FROM R WHERE Right = 9223372036854775808");
        assert_eq!(offset, 34);
        assert_eq!(
            where_rhs("SELECT Right FROM R WHERE Right = -9223372036854775808"),
            Expr::int(i64::MIN)
        );
        assert_eq!(
            where_rhs("SELECT Right FROM R WHERE Right = 9223372036854775807"),
            Expr::int(i64::MAX)
        );
    }

    #[test]
    fn a_minus_without_digits_is_an_error() {
        let (offset, message) = parse_error("SELECT Right FROM R WHERE Right = -");
        assert_eq!(offset, 34, "{message}");
        assert!(message.contains("without digits"), "{message}");
    }

    #[test]
    fn an_unknown_character_is_an_error() {
        let (offset, message) = parse_error("SELECT Right FROM R WHERE Right = 1 ! OR Right = 2");
        assert_eq!(offset, 36, "{message}");
        assert!(message.contains("'!'"), "{message}");
        let (offset, message) = parse_error("SELECT Right FROM R WHERE Right = é");
        assert_eq!(offset, 34, "{message}");
        assert!(message.contains("'é'"), "{message}");
    }

    #[test]
    fn an_unterminated_string_is_an_error() {
        let (offset, message) = parse_error("SELECT Right FROM R WHERE Right = 'abc");
        assert_eq!(offset, 34, "{message}");
        assert!(message.contains("unterminated"), "{message}");
    }

    #[test]
    fn string_literals_are_utf8_text() {
        for q in [
            "SELECT Right FROM R WHERE Right = 'é'",
            "SELECT Right FROM R WHERE Right = \"é\"",
        ] {
            assert_eq!(where_rhs(q), Expr::value("é"), "{q}");
        }
    }

    #[test]
    fn keywords_case_insensitive() {
        let q = parse_query("select * from r where true").unwrap();
        assert!(matches!(q, Query::Select(_, _)));
    }
}
