//! A hand-written SQL front-end for the paper's query form.
//!
//! Supported grammar (keywords case-insensitive):
//!
//! ```text
//! query   := SELECT agg '(' (ident | '*') ')' FROM ident [WHERE expr]
//!            [GROUP BY ident]
//! agg     := SUM | COUNT | AVG | MIN | MAX
//! expr    := and_expr (OR and_expr)*
//! and_expr:= not_expr (AND not_expr)*
//! not_expr:= NOT not_expr | primary
//! primary := '(' expr ')' | ident op literal
//! op      := '=' | '!=' | '<>' | '<' | '<=' | '>' | '>='
//! literal := number | 'string' | NULL
//! ```
//!
//! [`parse`] and [`crate::query::AggregateQuery`]'s `Display` round-trip
//! (property-tested in the integration suite).
//!
//! The parser is total on hostile input: a `WHERE` clause may nest
//! parentheses and `NOT` at most [`MAX_PREDICATE_NESTING`] levels deep and
//! build at most [`MAX_PREDICATE_NODES`] predicate nodes, so neither the
//! recursive descent nor the recursive predicate tree can exhaust the stack.

use std::fmt;

use crate::predicate::{CmpOp, Predicate};
use crate::query::{AggregateFunction, AggregateQuery};
use crate::value::Value;

/// Deepest nesting of parentheses plus `NOT` a `WHERE` clause may use.
pub const MAX_PREDICATE_NESTING: usize = 64;

/// Most predicate nodes (comparisons, `TRUE`, `AND`, `OR`, `NOT`) a `WHERE`
/// clause may build. Left-folded `AND`/`OR` chains grow the tree one level
/// per term without recursing in the parser, so depth alone cannot bound it.
pub const MAX_PREDICATE_NODES: usize = 1024;

/// A parse failure with byte position context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input where the problem was detected.
    pub position: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SQL parse error at byte {}: {}",
            self.position, self.message
        )
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Ident(String),
    Number(f64),
    Str(String),
    Star,
    LParen,
    RParen,
    Op(CmpOp),
}

struct Lexer<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn new(input: &'a str) -> Self {
        Lexer {
            input,
            bytes: input.as_bytes(),
            pos: 0,
        }
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            position: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn next_token(&mut self) -> Result<Option<(Token, usize)>, ParseError> {
        self.skip_ws();
        let start = self.pos;
        let Some(&b) = self.bytes.get(self.pos) else {
            return Ok(None);
        };
        let token = match b {
            b'(' => {
                self.pos += 1;
                Token::LParen
            }
            b')' => {
                self.pos += 1;
                Token::RParen
            }
            b'*' => {
                self.pos += 1;
                Token::Star
            }
            b'=' => {
                self.pos += 1;
                Token::Op(CmpOp::Eq)
            }
            b'!' => {
                if self.bytes.get(self.pos + 1) == Some(&b'=') {
                    self.pos += 2;
                    Token::Op(CmpOp::Ne)
                } else {
                    return Err(self.error("expected '=' after '!'"));
                }
            }
            b'<' => match self.bytes.get(self.pos + 1) {
                Some(&b'=') => {
                    self.pos += 2;
                    Token::Op(CmpOp::Le)
                }
                Some(&b'>') => {
                    self.pos += 2;
                    Token::Op(CmpOp::Ne)
                }
                _ => {
                    self.pos += 1;
                    Token::Op(CmpOp::Lt)
                }
            },
            b'>' => {
                if self.bytes.get(self.pos + 1) == Some(&b'=') {
                    self.pos += 2;
                    Token::Op(CmpOp::Ge)
                } else {
                    self.pos += 1;
                    Token::Op(CmpOp::Gt)
                }
            }
            b'\'' => {
                self.pos += 1;
                let mut out = String::new();
                loop {
                    match self.bytes.get(self.pos) {
                        None => return Err(self.error("unterminated string literal")),
                        Some(b'\'') => {
                            // '' escapes a quote.
                            if self.bytes.get(self.pos + 1) == Some(&b'\'') {
                                out.push('\'');
                                self.pos += 2;
                            } else {
                                self.pos += 1;
                                break;
                            }
                        }
                        Some(_) => {
                            // Advance over one UTF-8 scalar.
                            let rest = &self.input[self.pos..];
                            let ch = rest.chars().next().expect("in-bounds char");
                            out.push(ch);
                            self.pos += ch.len_utf8();
                        }
                    }
                }
                Token::Str(out)
            }
            b'-' | b'0'..=b'9' | b'.' => {
                let num_start = self.pos;
                if b == b'-' {
                    self.pos += 1;
                }
                let mut seen_digit = false;
                let mut seen_dot = false;
                while let Some(&c) = self.bytes.get(self.pos) {
                    match c {
                        b'0'..=b'9' => {
                            seen_digit = true;
                            self.pos += 1;
                        }
                        b'.' if !seen_dot => {
                            seen_dot = true;
                            self.pos += 1;
                        }
                        b'e' | b'E' if seen_digit => {
                            self.pos += 1;
                            if matches!(self.bytes.get(self.pos), Some(b'+') | Some(b'-')) {
                                self.pos += 1;
                            }
                        }
                        b'_' => self.pos += 1, // numeric separator, e.g. 10_000
                        _ => break,
                    }
                }
                if !seen_digit {
                    return Err(self.error("malformed number"));
                }
                let text: String = self.input[num_start..self.pos]
                    .chars()
                    .filter(|&c| c != '_')
                    .collect();
                let value: f64 = text
                    .parse()
                    .map_err(|_| self.error(format!("malformed number {text:?}")))?;
                Token::Number(value)
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                while let Some(&c) = self.bytes.get(self.pos) {
                    if c.is_ascii_alphanumeric() || c == b'_' {
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                Token::Ident(self.input[start..self.pos].to_string())
            }
            other => {
                return Err(self.error(format!("unexpected character {:?}", other as char)));
            }
        };
        Ok(Some((token, start)))
    }
}

struct Parser {
    tokens: Vec<(Token, usize)>,
    cursor: usize,
    end: usize,
    /// Parentheses and `NOT`s currently open around `cursor`.
    depth: usize,
    /// Predicate nodes built so far.
    nodes: usize,
}

impl Parser {
    fn new(input: &str) -> Result<Self, ParseError> {
        let mut lexer = Lexer::new(input);
        let mut tokens = Vec::new();
        while let Some(tok) = lexer.next_token()? {
            tokens.push(tok);
        }
        Ok(Parser {
            tokens,
            cursor: 0,
            end: input.len(),
            depth: 0,
            nodes: 0,
        })
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.cursor).map(|(t, _)| t)
    }

    fn position(&self) -> usize {
        self.tokens
            .get(self.cursor)
            .map(|&(_, p)| p)
            .unwrap_or(self.end)
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            position: self.position(),
        }
    }

    fn advance(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.cursor).map(|(t, _)| t.clone());
        if t.is_some() {
            self.cursor += 1;
        }
        t
    }

    /// Consumes an identifier token and returns it.
    fn expect_ident(&mut self, what: &str) -> Result<String, ParseError> {
        match self.advance() {
            Some(Token::Ident(s)) => Ok(s),
            _ => {
                self.cursor = self.cursor.saturating_sub(1);
                Err(self.error(format!("expected {what}")))
            }
        }
    }

    /// Consumes a keyword (case-insensitive identifier match).
    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.peek() {
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw) => {
                self.cursor += 1;
                Ok(())
            }
            _ => Err(self.error(format!("expected keyword {kw}"))),
        }
    }

    fn keyword_is(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn expect_token(&mut self, want: &Token, what: &str) -> Result<(), ParseError> {
        if self.peek() == Some(want) {
            self.cursor += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected {what}")))
        }
    }

    fn parse_query(&mut self) -> Result<AggregateQuery, ParseError> {
        self.expect_keyword("SELECT")?;
        let agg_name = self.expect_ident("aggregate function")?;
        let agg = match agg_name.to_ascii_uppercase().as_str() {
            "SUM" => AggregateFunction::Sum,
            "COUNT" => AggregateFunction::Count,
            "AVG" => AggregateFunction::Avg,
            "MIN" => AggregateFunction::Min,
            "MAX" => AggregateFunction::Max,
            other => {
                return Err(self.error(format!(
                    "unknown aggregate {other:?} (expected SUM/COUNT/AVG/MIN/MAX)"
                )))
            }
        };
        self.expect_token(&Token::LParen, "'('")?;
        let column = match self.peek() {
            Some(Token::Star) => {
                if agg != AggregateFunction::Count {
                    return Err(self.error("'*' is only valid in COUNT(*)"));
                }
                self.cursor += 1;
                None
            }
            _ => Some(self.expect_ident("column name")?),
        };
        self.expect_token(&Token::RParen, "')'")?;
        self.expect_keyword("FROM")?;
        let table = self.expect_ident("table name")?;
        let predicate = if self.keyword_is("WHERE") {
            self.cursor += 1;
            self.parse_or()?
        } else {
            Predicate::True
        };
        let group_by = if self.keyword_is("GROUP") {
            self.cursor += 1;
            self.expect_keyword("BY")?;
            Some(self.expect_ident("grouping column")?)
        } else {
            None
        };
        if self.peek().is_some() {
            return Err(self.error("unexpected trailing input"));
        }
        Ok(AggregateQuery {
            agg,
            column,
            table,
            predicate,
            group_by,
        })
    }

    /// Counts one built predicate node against [`MAX_PREDICATE_NODES`].
    fn node(&mut self, predicate: Predicate) -> Result<Predicate, ParseError> {
        if self.nodes == MAX_PREDICATE_NODES {
            return Err(self.error(format!(
                "predicate has more than {MAX_PREDICATE_NODES} nodes"
            )));
        }
        self.nodes += 1;
        Ok(predicate)
    }

    /// Parses `body` one nesting level deeper, refusing to pass
    /// [`MAX_PREDICATE_NESTING`].
    fn nested(
        &mut self,
        body: fn(&mut Self) -> Result<Predicate, ParseError>,
    ) -> Result<Predicate, ParseError> {
        if self.depth == MAX_PREDICATE_NESTING {
            return Err(self.error(format!(
                "predicate nested deeper than {MAX_PREDICATE_NESTING} levels"
            )));
        }
        self.depth += 1;
        let inner = body(self);
        self.depth -= 1;
        inner
    }

    fn parse_or(&mut self) -> Result<Predicate, ParseError> {
        let mut lhs = self.parse_and()?;
        while self.keyword_is("OR") {
            self.cursor += 1;
            let rhs = self.parse_and()?;
            lhs = self.node(lhs.or(rhs))?;
        }
        Ok(lhs)
    }

    fn parse_and(&mut self) -> Result<Predicate, ParseError> {
        let mut lhs = self.parse_not()?;
        while self.keyword_is("AND") {
            self.cursor += 1;
            let rhs = self.parse_not()?;
            lhs = self.node(lhs.and(rhs))?;
        }
        Ok(lhs)
    }

    fn parse_not(&mut self) -> Result<Predicate, ParseError> {
        if self.keyword_is("NOT") {
            self.cursor += 1;
            let inner = self.nested(Self::parse_not)?;
            return self.node(inner.not());
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<Predicate, ParseError> {
        if self.peek() == Some(&Token::LParen) {
            self.cursor += 1;
            let inner = self.nested(Self::parse_or)?;
            self.expect_token(&Token::RParen, "')'")?;
            return Ok(inner);
        }
        if self.keyword_is("TRUE") {
            self.cursor += 1;
            return self.node(Predicate::True);
        }
        let column = self.expect_ident("column name in predicate")?;
        let op = match self.advance() {
            Some(Token::Op(op)) => op,
            _ => {
                self.cursor = self.cursor.saturating_sub(1);
                return Err(self.error("expected comparison operator"));
            }
        };
        let value = match self.advance() {
            Some(Token::Number(x)) => {
                // Keep integers as Int for clean round-tripping.
                if x.fract() == 0.0 && x.abs() < 9.0e15 {
                    Value::Int(x as i64)
                } else {
                    Value::Float(x)
                }
            }
            Some(Token::Str(s)) => Value::Str(s),
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case("NULL") => Value::Null,
            _ => {
                self.cursor = self.cursor.saturating_sub(1);
                return Err(self.error("expected literal (number, 'string' or NULL)"));
            }
        };
        self.node(Predicate::cmp(column, op, value))
    }
}

/// Parses `SELECT AGG(attr) FROM table [WHERE predicate]`.
///
/// # Examples
///
/// ```
/// use uu_query::sql::parse;
/// use uu_query::query::AggregateFunction;
///
/// let q = parse("SELECT SUM(employees) FROM us_tech_companies \
///                WHERE state = 'CA' AND employees >= 100").unwrap();
/// assert_eq!(q.agg, AggregateFunction::Sum);
/// assert_eq!(q.table, "us_tech_companies");
/// ```
pub fn parse(input: &str) -> Result<AggregateQuery, ParseError> {
    Parser::new(input)?.parse_query()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_papers_queries() {
        for (sql, agg) in [
            (
                "SELECT SUM(employees) FROM us_tech_companies",
                AggregateFunction::Sum,
            ),
            (
                "SELECT SUM(revenue) FROM us_tech_companies",
                AggregateFunction::Sum,
            ),
            ("SELECT SUM(gdp) FROM us_states", AggregateFunction::Sum),
            (
                "SELECT SUM(participants) FROM proton_beam_studies",
                AggregateFunction::Sum,
            ),
            ("SELECT AVG(attr) FROM t", AggregateFunction::Avg),
            ("SELECT COUNT(*) FROM t", AggregateFunction::Count),
            ("SELECT MIN(attr) FROM t", AggregateFunction::Min),
            ("SELECT MAX(attr) FROM t", AggregateFunction::Max),
        ] {
            let q = parse(sql).expect(sql);
            assert_eq!(q.agg, agg, "{sql}");
        }
    }

    #[test]
    fn keywords_are_case_insensitive() {
        let q = parse("select sum(x) from t where a = 1").unwrap();
        assert_eq!(q.to_string(), "SELECT SUM(x) FROM t WHERE a = 1");
    }

    #[test]
    fn where_clause_precedence() {
        let q = parse("SELECT SUM(x) FROM t WHERE a = 1 OR b = 2 AND c = 3").unwrap();
        // AND binds tighter than OR.
        assert_eq!(q.predicate.to_string(), "(a = 1 OR (b = 2 AND c = 3))");
    }

    #[test]
    fn parentheses_override_precedence() {
        let q = parse("SELECT SUM(x) FROM t WHERE (a = 1 OR b = 2) AND c = 3").unwrap();
        assert_eq!(q.predicate.to_string(), "((a = 1 OR b = 2) AND c = 3)");
    }

    #[test]
    fn not_and_operators() {
        let q = parse("SELECT SUM(x) FROM t WHERE NOT a != 1 AND b <> 2").unwrap();
        assert_eq!(q.predicate.to_string(), "((NOT a != 1) AND b != 2)");
        let q = parse("SELECT SUM(x) FROM t WHERE a <= 1 AND b >= 2 AND c < 3 AND d > 4").unwrap();
        assert_eq!(
            q.predicate.to_string(),
            "(((a <= 1 AND b >= 2) AND c < 3) AND d > 4)"
        );
    }

    #[test]
    fn literals() {
        let q = parse(
            "SELECT SUM(x) FROM t WHERE s = 'O''Brien' AND f = -1.5e2 AND n = NULL AND big = 10_000",
        )
        .unwrap();
        let s = q.predicate.to_string();
        assert!(s.contains("s = 'O''Brien'"), "{s}");
        assert!(s.contains("f = -150"), "{s}");
        assert!(s.contains("n = NULL"), "{s}");
        assert!(s.contains("big = 10000"), "{s}");
    }

    #[test]
    fn count_star_only() {
        assert!(parse("SELECT COUNT(*) FROM t").is_ok());
        let err = parse("SELECT SUM(*) FROM t").unwrap_err();
        assert!(err.message.contains("COUNT(*)"), "{err}");
    }

    #[test]
    fn error_positions_are_reported() {
        let err = parse("SELECT SUM(x) FROM t WHERE a ==").unwrap_err();
        assert!(err.position >= 29, "{err:?}");
        let err = parse("SELECT FOO(x) FROM t").unwrap_err();
        assert!(err.message.contains("unknown aggregate"), "{err}");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("SELECT").is_err());
        assert!(parse("SELECT SUM(x)").is_err());
        assert!(parse("SELECT SUM(x) FROM").is_err());
        assert!(parse("SELECT SUM(x) FROM t garbage").is_err());
        assert!(parse("SELECT SUM(x) FROM t WHERE").is_err());
        assert!(parse("SELECT SUM(x) FROM t WHERE 'str' = a").is_err());
        assert!(parse("SELECT SUM(x) FROM t WHERE a = 'unterminated").is_err());
        assert!(parse("SELECT SUM(x) FROM t WHERE a # 1").is_err());
    }

    #[test]
    fn hostile_predicates_are_errors_not_crashes() {
        let select = "SELECT SUM(v) FROM t WHERE ";
        let parens = format!("{select}{}v > 1{}", "(".repeat(50_000), ")".repeat(50_000));
        let chain = |joiner: &str| {
            let terms = vec!["v > 1"; 50_000];
            format!("{select}{}", terms.join(joiner))
        };
        let nots = format!("{select}{}v > 1", "NOT ".repeat(50_000));
        for (what, sql) in [
            ("parentheses", parens),
            ("AND chain", chain(" AND ")),
            ("OR chain", chain(" OR ")),
            ("NOT chain", nots),
        ] {
            let err = parse(&sql).unwrap_err();
            assert!(
                err.message.contains("nested deeper") || err.message.contains("nodes"),
                "{what}: {err}"
            );
        }
    }

    #[test]
    fn predicates_up_to_the_limits_still_parse() {
        let depth = MAX_PREDICATE_NESTING;
        let select = "SELECT SUM(v) FROM t WHERE ";
        let parens = format!("{select}{}v > 1{}", "(".repeat(depth), ")".repeat(depth));
        let nots = format!("{select}{}v > 1", "NOT ".repeat(depth));
        let half = depth / 2;
        let mixed = format!("{select}{}v > 1{}", "(NOT ".repeat(half), ")".repeat(half));
        for sql in [&parens, &nots, &mixed] {
            assert!(parse(sql).is_ok(), "{sql}");
        }
        // One level more fails.
        assert!(parse(&format!("{select}NOT {}", &nots[select.len()..])).is_err());
        assert!(parse(&format!("{select}({})", &parens[select.len()..])).is_err());
        // `n` terms joined by `n - 1` ANDs build `2n - 1` nodes.
        let terms = |n: usize| vec!["v > 1"; n].join(" AND ");
        let fits = MAX_PREDICATE_NODES.div_ceil(2);
        assert!(parse(&format!("{select}{}", terms(fits))).is_ok());
        assert!(parse(&format!("{select}{}", terms(fits + 1))).is_err());
    }

    #[test]
    fn group_by_parses() {
        let q = parse("SELECT SUM(employees) FROM t WHERE employees > 10 GROUP BY state").unwrap();
        assert_eq!(q.group_by.as_deref(), Some("state"));
        let q = parse("select count(*) from t group by region").unwrap();
        assert_eq!(q.group_by.as_deref(), Some("region"));
        assert!(parse("SELECT SUM(x) FROM t GROUP state").is_err());
        assert!(parse("SELECT SUM(x) FROM t GROUP BY").is_err());
    }

    #[test]
    fn display_parse_roundtrip() {
        let inputs = [
            "SELECT SUM(employees) FROM companies",
            "SELECT COUNT(*) FROM t WHERE a = 1",
            "SELECT AVG(x) FROM t WHERE (a > 1 AND b < 2)",
            "SELECT MAX(x) FROM t WHERE (NOT a = 'z')",
            "SELECT SUM(x) FROM t WHERE a = 1 GROUP BY g",
        ];
        for sql in inputs {
            let q1 = parse(sql).unwrap();
            let q2 = parse(&q1.to_string()).unwrap();
            assert_eq!(q1, q2, "{sql}");
        }
    }
}
