//! The DOPCERT script language: a small declarative front end for
//! checking query pairs, in the spirit of the Cosette web tool the
//! paper's artifact shipped (<http://dopcert.cs.washington.edu>).
//!
//! A script declares tables, optional statistics, and poses
//! verification goals:
//!
//! ```text
//! -- comments run to end of line
//! table R(a int, b int);      -- column names are optional
//! table S(int);
//!
//! rows R 1e6;                 -- declared cardinality for `optimize`
//! distinct R.a 100;           -- per-column distinct-value estimate
//! distinct S.1 50;            -- …columns also addressable by position
//!
//! budget iters 40;            -- saturation-budget directives; knobs
//! budget nodes 20000;         --   are iters, nodes, oracle-calls.
//!                             --   Explicit CLI/request knobs override
//!                             --   the script's.
//!
//! verify SELECT Right.Left FROM R
//!     == SELECT Right.Left FROM R;
//!
//! refute DISTINCT (R UNION ALL R) == R;   -- expect a counterexample
//! ```
//!
//! A string literal runs from `'` or `"` to the next matching quote,
//! as in a query, and a `--`, `;` or `==` inside one is literal text.
//!
//! Each `verify` goal is checked with the full pipeline: conjunctive-
//! query decision procedure first, then denotation + tactics; on failure
//! a counterexample search runs. `refute` goals assert the pair is
//! *inequivalent* and must produce a counterexample. A goal's queries
//! must lex completely: an unknown character, an unterminated string,
//! a `-` without digits or an integer outside `i64` is a parse error,
//! never a shorter query. A script's goals run one after another on one
//! [`Workspace`]'s prove session ([`Workspace::run_script`]).

use crate::api::{BudgetSpec, Workspace};
use crate::prove::{verify_instance, VerifyMethod};
use crate::rule::RuleInstance;
use hottsql::ast::Query;
use hottsql::env::QueryEnv;
use hottsql::error::HottsqlError;
use hottsql::parse::parse_query;
use relalg::stats::Statistics;
use relalg::{BaseType, Schema};
use std::collections::BTreeMap;
use std::fmt;

/// A parsed script.
#[derive(Clone, Debug, Default)]
pub struct Script {
    /// Declared tables.
    pub env: QueryEnv,
    /// Goals in declaration order.
    pub goals: Vec<Goal>,
    /// Declared statistics (`rows R 1e6;`, `distinct R.a 100;`) for the
    /// cost-based optimizer.
    pub stats: Statistics,
    /// Declared column names per table (empty when a table was declared
    /// with bare types).
    pub columns: BTreeMap<String, Vec<String>>,
    /// Saturation-budget directives (`budget iters 40;`), resolved
    /// against the defaults by the caller — explicit CLI flags and
    /// serve-request knobs take precedence over these.
    pub budget: BudgetSpec,
}

/// One goal.
#[derive(Clone, Debug)]
pub struct Goal {
    /// `verify` (must be equivalent) or `refute` (must differ).
    pub expect_equivalent: bool,
    /// Left query.
    pub lhs: Query,
    /// Right query.
    pub rhs: Query,
}

/// Result of checking one goal.
#[derive(Clone, Debug)]
pub enum GoalOutcome {
    /// Proved equivalent.
    Proved {
        /// Which prover closed it.
        method: VerifyMethod,
        /// Proof-trace length.
        steps: usize,
    },
    /// Refuted with a counterexample.
    Refuted {
        /// Rendered counterexample.
        counterexample: String,
    },
    /// Neither proved nor refuted (equivalence is undecidable in
    /// general — Fig. 9 last row).
    Unknown {
        /// The prover's diagnostics.
        diagnostics: String,
    },
}

impl GoalOutcome {
    /// Whether the outcome satisfies the goal's expectation.
    pub fn satisfies(&self, expect_equivalent: bool) -> bool {
        match self {
            GoalOutcome::Proved { .. } => expect_equivalent,
            GoalOutcome::Refuted { .. } => !expect_equivalent,
            GoalOutcome::Unknown { .. } => false,
        }
    }
}

impl fmt::Display for GoalOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GoalOutcome::Proved { method, steps } => {
                write!(f, "proved by {method} in {steps} steps")
            }
            GoalOutcome::Refuted { counterexample } => {
                write!(f, "refuted: {counterexample}")
            }
            GoalOutcome::Unknown { diagnostics } => write!(f, "unknown: {diagnostics}"),
        }
    }
}

/// Parses a script.
///
/// # Errors
///
/// Returns a [`HottsqlError::Parse`] describing the first problem.
pub fn parse_script(input: &str) -> Result<Script, HottsqlError> {
    let mut script = Script::default();
    let text = blank_comments(input);
    for (i, (start, piece)) in statements(&text).enumerate() {
        // `at` is the trimmed statement's byte offset in `input`.
        let at = start + leading_whitespace(piece);
        let stmt = piece.trim();
        if stmt.is_empty() {
            continue;
        }
        let err = |m: String| HottsqlError::Parse {
            message: format!("statement {}: {m}", i + 1),
            offset: at,
        };
        if let Some(rest) = stmt.strip_prefix("table") {
            let (name, cols, col_names) = parse_table_decl(rest).map_err(&err)?;
            script.env = script.env.with_table(&name, Schema::flat(cols));
            if !col_names.is_empty() {
                script.columns.insert(name, col_names);
            }
        } else if let Some(rest) = stmt.strip_prefix("rows ") {
            let (name, value) = parse_rows_decl(rest).map_err(&err)?;
            if script.env.table(&name).is_none() {
                return Err(err(format!(
                    "rows declaration for undeclared table {name:?}"
                )));
            }
            script.stats = std::mem::take(&mut script.stats).with_rows(name, value);
        } else if let Some(rest) = stmt.strip_prefix("distinct ") {
            let (name, col, value) = parse_distinct_decl(rest, &script).map_err(&err)?;
            let width = script.env.table(&name).map(|s| s.width()).ok_or_else(|| {
                err(format!(
                    "distinct declaration for undeclared table {name:?}"
                ))
            })?;
            script.stats =
                std::mem::take(&mut script.stats).with_column_distinct(name, width, col, value);
        } else if let Some(rest) = stmt.strip_prefix("budget ") {
            budget_directive(rest, &mut script.budget).map_err(&err)?;
        } else if let Some(rest) = stmt
            .strip_prefix("verify")
            .map(|r| (true, r))
            .or_else(|| stmt.strip_prefix("refute").map(|r| (false, r)))
        {
            let (expect_equivalent, body) = rest;
            let lhs_at = at + stmt.len() - body.len();
            let Some((l, r)) = split_goal(body) else {
                // Without an `==`, the body's own parse error comes
                // first: a literal left open runs to the end of the
                // script, hiding any `==` after it, and the lexer names
                // it at its byte.
                parse_side(body, lhs_at)?;
                return Err(err("goal needs `==`".into()));
            };
            script.goals.push(Goal {
                expect_equivalent,
                lhs: parse_side(l, lhs_at)?,
                rhs: parse_side(r, lhs_at + l.len() + "==".len())?,
            });
        } else {
            return Err(err(
                "expected `table`, `rows`, `distinct`, `verify`, or `refute`".into(),
            ));
        }
    }
    Ok(script)
}

/// What a byte of a script belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Part {
    /// Statement text.
    Code,
    /// A string literal, its quotes included.
    Literal,
    /// A `--` comment, up to its newline.
    Comment,
}

/// Tags each byte of `text` with the [`Part`] it belongs to, the one
/// scan every statement and goal split goes through. A literal follows
/// the HoTTSQL lexer's rule (`hottsql::parse::lex`): it opens at `'` or
/// `"` and ends at the next matching quote, even across a newline, with
/// no escapes, so an unclosed one runs to the end of `text`. A `--`
/// outside a literal comments out the rest of its line. Reading bytes
/// is exact: quotes, `-`, `;`, `=` and the newline are ASCII, and no
/// byte of a multi-byte UTF-8 character is.
fn scan(text: &str) -> impl Iterator<Item = (usize, u8, Part)> + '_ {
    let bytes = text.as_bytes();
    let mut quote = None;
    let mut comment = false;
    bytes.iter().enumerate().map(move |(i, &b)| {
        let part = if comment {
            comment = b != b'\n';
            if comment {
                Part::Comment
            } else {
                Part::Code
            }
        } else if let Some(q) = quote {
            if b == q {
                quote = None;
            }
            Part::Literal
        } else if b == b'\'' || b == b'"' {
            quote = Some(b);
            Part::Literal
        } else if b == b'-' && bytes.get(i + 1) == Some(&b'-') {
            comment = true;
            Part::Comment
        } else {
            Part::Code
        };
        (i, b, part)
    })
}

/// The script with each `--` comment blanked to spaces of the same
/// byte length, so every byte after it keeps its offset.
fn blank_comments(input: &str) -> String {
    let bytes = scan(input)
        .map(|(_, b, part)| if part == Part::Comment { b' ' } else { b })
        .collect();
    // A comment runs from an ASCII `-` to a newline or the end.
    String::from_utf8(bytes).expect("a comment covers whole characters")
}

/// The statements of `text` (comments already blanked): the pieces
/// between the `;`s outside string literals, each with its byte offset.
fn statements(text: &str) -> impl Iterator<Item = (usize, &str)> {
    let ends = scan(text)
        .filter(|&(_, b, part)| b == b';' && part == Part::Code)
        .map(|(i, _, _)| i)
        .chain([text.len()]);
    let mut start = 0;
    ends.map(move |end| {
        let piece = (start, &text[start..end]);
        start = end + 1;
        piece
    })
}

/// Splits a goal at its first `==` outside string literals.
fn split_goal(body: &str) -> Option<(&str, &str)> {
    let mut after_eq = false;
    for (i, b, part) in scan(body) {
        let eq = b == b'=' && part == Part::Code;
        if eq && after_eq {
            return Some((&body[..i - 1], &body[i + 1..]));
        }
        after_eq = eq;
    }
    None
}

/// Bytes of whitespace before `s`'s first non-whitespace character.
fn leading_whitespace(s: &str) -> usize {
    s.len() - s.trim_start().len()
}

/// Parses one goal side, `side`, found at byte `at` of the script: a
/// parse error's offset counts from the start of the script, not of
/// the side.
fn parse_side(side: &str, at: usize) -> Result<Query, HottsqlError> {
    parse_query(side.trim()).map_err(|e| match e {
        HottsqlError::Parse { message, offset } => HottsqlError::Parse {
            message,
            offset: at + leading_whitespace(side) + offset,
        },
        other => other,
    })
}

/// Applies one `budget <knob> <value>` directive to `spec`.
fn budget_directive(rest: &str, spec: &mut BudgetSpec) -> Result<(), String> {
    let mut parts = rest.split_whitespace();
    let (Some(knob), Some(value), None) = (parts.next(), parts.next(), parts.next()) else {
        return Err("budget directive needs `budget <knob> <value>`".into());
    };
    // BudgetSpec is the single parse/validate point for budget knobs —
    // scripts share it with CLI flags and serve requests.
    spec.parse_set(knob, value)
}

/// A script's `budget` directives, read without parsing its other
/// statements: what `dopcert serve` charges a request before it runs.
/// Equal to [`parse_script`]'s [`Script::budget`] whenever the script
/// parses; a malformed directive is skipped, since such a script fails
/// to parse when it runs.
pub fn budget_directives(input: &str) -> BudgetSpec {
    let mut spec = BudgetSpec::default();
    for (_, stmt) in statements(&blank_comments(input)) {
        if let Some(rest) = stmt.trim().strip_prefix("budget ") {
            let _ = budget_directive(rest, &mut spec);
        }
    }
    spec
}

/// Parses `R(int, int)` or `R(a int, b int)` — column names optional,
/// but all-or-nothing per table.
fn parse_table_decl(rest: &str) -> Result<(String, Vec<BaseType>, Vec<String>), String> {
    let rest = rest.trim();
    let open = rest.find('(').ok_or("missing ( in table declaration")?;
    let close = rest.rfind(')').ok_or("missing ) in table declaration")?;
    let name = rest[..open].trim();
    if name.is_empty() {
        return Err("missing table name".into());
    }
    let mut cols = Vec::new();
    let mut names: Vec<String> = Vec::new();
    for c in rest[open + 1..close].split(',') {
        let mut parts = c.split_whitespace();
        let (first, second) = (parts.next(), parts.next());
        if parts.next().is_some() {
            return Err(format!("malformed column declaration {:?}", c.trim()));
        }
        let (col_name, ty) = match (first, second) {
            (Some(ty), None) => (None, ty),
            (Some(name), Some(ty)) => (Some(name), ty),
            _ => return Err("empty column declaration".into()),
        };
        match ty {
            "int" => cols.push(BaseType::Int),
            "bool" => cols.push(BaseType::Bool),
            "string" => cols.push(BaseType::Str),
            other => return Err(format!("unknown column type {other:?}")),
        }
        if let Some(n) = col_name {
            names.push(n.to_owned());
        }
    }
    if cols.is_empty() {
        return Err("table needs at least one column".into());
    }
    if !names.is_empty() && names.len() != cols.len() {
        return Err("either all columns are named or none".into());
    }
    Ok((name.to_owned(), cols, names))
}

/// Parses `R 1e6` (a table name and a row-count estimate).
fn parse_rows_decl(rest: &str) -> Result<(String, f64), String> {
    let mut parts = rest.split_whitespace();
    let (Some(name), Some(value), None) = (parts.next(), parts.next(), parts.next()) else {
        return Err("rows declaration needs `rows <table> <count>`".into());
    };
    let value: f64 = value
        .parse()
        .map_err(|_| format!("invalid row count {value:?}"))?;
    if !value.is_finite() || value < 0.0 {
        return Err(format!(
            "row count must be finite and non-negative, got {value}"
        ));
    }
    Ok((name.to_owned(), value))
}

/// Parses `R.a 100` (a column reference and a distinct-value estimate).
/// Columns are addressed by declared name (`table R(a int, …)`) or by
/// 1-based position (`R.1`).
fn parse_distinct_decl(rest: &str, script: &Script) -> Result<(String, usize, f64), String> {
    let mut parts = rest.split_whitespace();
    let (Some(colref), Some(value), None) = (parts.next(), parts.next(), parts.next()) else {
        return Err("distinct declaration needs `distinct <table>.<column> <count>`".into());
    };
    let (table, col) = colref
        .split_once('.')
        .ok_or_else(|| format!("column reference {colref:?} needs the form table.column"))?;
    let value: f64 = value
        .parse()
        .map_err(|_| format!("invalid distinct count {value:?}"))?;
    if !value.is_finite() || value < 0.0 {
        return Err(format!(
            "distinct count must be finite and non-negative, got {value}"
        ));
    }
    let index = if let Ok(pos) = col.parse::<usize>() {
        if pos == 0 {
            return Err("column positions are 1-based".into());
        }
        pos - 1
    } else {
        let names = script
            .columns
            .get(table)
            .ok_or_else(|| format!("table {table:?} declares no column names"))?;
        names
            .iter()
            .position(|n| n == col)
            .ok_or_else(|| format!("table {table:?} has no column named {col:?}"))?
    };
    let width = script
        .env
        .table(table)
        .map(|s| s.width())
        .ok_or_else(|| format!("distinct declaration for undeclared table {table:?}"))?;
    if index >= width {
        return Err(format!(
            "column {} is out of range for {table:?} ({width} columns)",
            index + 1
        ));
    }
    Ok((table.to_owned(), index, value))
}

/// Checks one goal with the full pipeline: its CQ decision (already
/// computed in the script's batch), else the general prover on the
/// workspace's persistent session, then a counterexample hunt.
fn goal_outcome(
    env: &QueryEnv,
    goal: &Goal,
    cq_decision: Option<bool>,
    ws: &mut Workspace,
) -> GoalOutcome {
    // 1. Decision procedure for the conjunctive fragment.
    if let Some(decided) = cq_decision {
        if decided {
            return GoalOutcome::Proved {
                method: VerifyMethod::CqDecision,
                steps: 1,
            };
        }
        // CQ-decidable and NOT equivalent: hunt a witness instance.
        if let Some(cex) = hunt_counterexample(env, goal) {
            return GoalOutcome::Refuted {
                counterexample: cex,
            };
        }
        return GoalOutcome::Unknown {
            diagnostics: "decision procedure says inequivalent, \
                          but no small counterexample found"
                .into(),
        };
    }
    // 2. General prover (tactics and/or saturation per its options).
    let inst = RuleInstance::plain(env.clone(), goal.lhs.clone(), goal.rhs.clone());
    match verify_instance(&inst, &mut ws.prove) {
        Ok((method, steps, _)) => GoalOutcome::Proved { method, steps },
        Err((diag, _)) => match hunt_counterexample(env, goal) {
            Some(cex) => GoalOutcome::Refuted {
                counterexample: cex,
            },
            None => GoalOutcome::Unknown { diagnostics: diag },
        },
    }
}

#[cfg(test)]
thread_local! {
    /// Counterexample hunts started on this thread, so a test can tell
    /// an answer replayed from a memo from a recomputed one.
    pub(crate) static HUNTS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Random-instance counterexample search (script schemas are concrete,
/// so instances are built directly from the environment).
fn hunt_counterexample(env: &QueryEnv, goal: &Goal) -> Option<String> {
    #[cfg(test)]
    HUNTS.with(|hunts| hunts.set(hunts.get() + 1));
    let rule_inst = RuleInstance::plain(env.clone(), goal.lhs.clone(), goal.rhs.clone());
    for seed in 0..400u64 {
        let instance = crate::difftest::build_instance(&rule_inst, seed);
        let l = hottsql::eval::eval_query(
            &goal.lhs,
            env,
            &instance,
            &Schema::Empty,
            &relalg::Tuple::Unit,
        )
        .ok()?;
        let r = hottsql::eval::eval_query(
            &goal.rhs,
            env,
            &instance,
            &Schema::Empty,
            &relalg::Tuple::Unit,
        )
        .ok()?;
        if !l.bag_eq(&r) {
            let tables: Vec<String> = instance
                .tables
                .iter()
                .map(|(n, rel)| format!("{n} = {rel:?}"))
                .collect();
            return Some(format!(
                "on {} the sides give {l:?} vs {r:?}",
                tables.join(", ")
            ));
        }
    }
    None
}

/// Runs a script's goals on `ws`, whose prove session persists across
/// goals and scripts; returns per-goal outcomes. Outcomes are identical
/// on a fresh workspace and a warm one (the session-identity guarantee).
///
/// The conjunctive-query fragment is decided in one batch: every
/// CQ-translatable side across all goals is indexed once
/// ([`cq::containment::equivalent_set_batch`]), so a script with many
/// goals over the same tables pays the homomorphism-target indexing per
/// query, not per goal. Non-CQ goals go to the prover under the
/// workspace's options — the CLI's `prove --saturate` mode routes every
/// such goal through equality saturation alone.
pub(crate) fn run_script_in(script: &Script, ws: &mut Workspace) -> Vec<GoalOutcome> {
    // Translate every goal side once; collect the CQ-decidable goals.
    let mut queries = Vec::new();
    let mut pair_of_goal: Vec<Option<(usize, usize)>> = Vec::new();
    for goal in &script.goals {
        let l = cq::translate::from_query(&goal.lhs, &script.env);
        let r = cq::translate::from_query(&goal.rhs, &script.env);
        pair_of_goal.push(match (l, r) {
            (Some(l), Some(r)) => {
                queries.push(l);
                queries.push(r);
                Some((queries.len() - 2, queries.len() - 1))
            }
            _ => None,
        });
    }
    let pairs: Vec<(usize, usize)> = pair_of_goal.iter().flatten().copied().collect();
    let mut decisions = cq::containment::equivalent_set_batch(&queries, &pairs).into_iter();
    script
        .goals
        .iter()
        .zip(&pair_of_goal)
        .map(|(goal, cq_pair)| {
            let decision = cq_pair.map(|_| decisions.next().expect("one decision per CQ goal"));
            goal_outcome(&script.env, goal, decision, ws)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::RequestOptions;

    /// Runs a script on a fresh workspace at the default options.
    fn run_script(script: &Script) -> Vec<GoalOutcome> {
        Workspace::new(RequestOptions::default()).run_script(script)
    }

    const SCRIPT: &str = "\
-- the Sec. 2 example
table R(int, int);

verify DISTINCT SELECT Right.Left FROM R
    == DISTINCT SELECT Right.Left.Left FROM R, R
       WHERE Right.Left.Left = Right.Right.Left;

refute DISTINCT SELECT Right.Left FROM R
    == SELECT Right.Left FROM R;
";

    #[test]
    fn parses_tables_and_goals() {
        let s = parse_script(SCRIPT).unwrap();
        assert!(s.env.table("R").is_some());
        assert_eq!(s.goals.len(), 2);
        assert!(s.goals[0].expect_equivalent);
        assert!(!s.goals[1].expect_equivalent);
    }

    #[test]
    fn runs_the_sec2_script() {
        let s = parse_script(SCRIPT).unwrap();
        let outcomes = run_script(&s);
        assert!(
            matches!(outcomes[0], GoalOutcome::Proved { .. }),
            "{}",
            outcomes[0]
        );
        assert!(
            matches!(outcomes[1], GoalOutcome::Refuted { .. }),
            "{}",
            outcomes[1]
        );
        assert!(outcomes[0].satisfies(true));
        assert!(outcomes[1].satisfies(false));
    }

    #[test]
    fn general_prover_reached_for_non_cq_goals() {
        let s = parse_script("table R(int);\nverify (R UNION ALL R) == (R UNION ALL R);").unwrap();
        let outcomes = run_script(&s);
        match &outcomes[0] {
            GoalOutcome::Proved { method, .. } => {
                assert!(matches!(method, VerifyMethod::Tactic(_)));
            }
            other => panic!("expected tactic proof, got {other}"),
        }
    }

    #[test]
    fn unknown_for_unprovable_but_true_goals_is_honest() {
        // Two different tables: inequivalent; refuted by search.
        let s = parse_script("table R(int);\ntable S(int);\nrefute R == S;").unwrap();
        let outcomes = run_script(&s);
        assert!(outcomes[0].satisfies(false), "{}", outcomes[0]);
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(parse_script("tble R(int);").is_err());
        assert!(parse_script("table R();").is_err());
        assert!(parse_script("table R(int); verify R;").is_err());
        assert!(parse_script("table R(float);").is_err());
    }

    #[test]
    fn an_integer_past_i64_is_a_parse_error_not_a_proof() {
        // Read as 0 (2^64 wrapped), the goal below would be proved equal
        // to its `= 0` twin.
        let src = "table R(int);\n\
                   verify SELECT Right FROM R WHERE Right = 18446744073709551616\n\
                   == SELECT Right FROM R WHERE Right = 0;";
        match parse_script(src) {
            Err(HottsqlError::Parse { message, .. }) => {
                assert!(message.contains("out of range"), "{message}")
            }
            other => panic!("expected a parse error, got {other:?}"),
        }
        let resp = crate::api::execute(&crate::api::Request::Prove {
            script: src.into(),
            opts: crate::api::RequestOptions::default(),
        });
        let lines = resp.render();
        assert!(!resp.ok(), "{lines:?}");
        assert!(lines[0].starts_with("error: parse error"), "{lines:?}");
    }

    /// The byte offset of `src`'s parse error.
    fn error_offset(src: &str) -> usize {
        match parse_script(src) {
            Err(HottsqlError::Parse { offset, .. }) => offset,
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn a_goal_side_error_offset_counts_from_the_script_start() {
        let src = "table R(int);\n\
                   verify SELECT Right FROM R WHERE Right = 18446744073709551616 \
                   == SELECT Right FROM R;";
        assert_eq!(src.find("1844"), Some(55));
        assert_eq!(error_offset(src), 55);
    }

    #[test]
    fn comments_do_not_shift_later_error_offsets() {
        let src = "-- a comment here\n\
                   table R(int);\n\
                   -- the bang below must not end a query\n\
                   verify SELECT Right FROM R WHERE Right = 1 ! OR Right = 2\n    \
                   == SELECT Right FROM R;";
        assert_eq!(src.find('!'), Some(114));
        assert_eq!(error_offset(src), 114);
    }

    #[test]
    fn a_statement_error_points_at_its_statement() {
        let src = "table R(int);\nrows Q 5;";
        assert_eq!(src.find("rows"), Some(14));
        assert_eq!(error_offset(src), 14);
    }

    /// `verify <q> == <q>;` over a one-string-column table, where `q`
    /// selects the rows equal to `literal`.
    fn literal_goal(literal: &str) -> String {
        let q = format!("SELECT Right FROM R WHERE Right = {literal}");
        format!("table R(string);\nverify {q} == {q};")
    }

    /// Parses `src`, checks that its one goal compares against
    /// `expected`, and proves it.
    fn proves_with_literal(src: &str, expected: &str) {
        let s = parse_script(src).unwrap_or_else(|e| panic!("{src:?}: {e}"));
        assert_eq!(s.goals.len(), 1, "{src:?}");
        assert!(s.goals[0].lhs.to_string().contains(expected), "{src:?}");
        let outcomes = run_script(&s);
        assert!(outcomes[0].satisfies(true), "{src:?}: {}", outcomes[0]);
    }

    #[test]
    fn a_double_dash_inside_a_literal_is_not_a_comment() {
        proves_with_literal(&literal_goal("\"a--b\""), "a--b");
    }

    #[test]
    fn a_semicolon_inside_a_literal_does_not_end_the_statement() {
        proves_with_literal(&literal_goal("\"a;b\""), "a;b");
    }

    #[test]
    fn a_literal_with_a_comment_marker_before_a_real_comment() {
        let src = literal_goal("'x -- y'") + " -- comment; with a semicolon";
        proves_with_literal(&src, "x -- y");
    }

    #[test]
    fn a_double_equals_inside_a_literal_does_not_split_the_goal() {
        proves_with_literal(&literal_goal("\"a==b\""), "a==b");
    }

    #[test]
    fn budget_directives_inside_a_literal_are_ignored() {
        let src = literal_goal("\"a; budget iters 1; b\"");
        assert_eq!(budget_directives(&src), BudgetSpec::default());
        assert_eq!(parse_script(&src).unwrap().budget, BudgetSpec::default());
    }

    #[test]
    fn an_unterminated_literal_is_reported_at_its_quote() {
        for src in [
            "table R(string);\nverify SELECT Right FROM R WHERE Right = 'x == R;",
            "table R(string);\nverify SELECT Right FROM R WHERE Right = 'x -- y \
             == SELECT Right FROM R; -- comment; with a semicolon",
        ] {
            assert_eq!(src.find('\''), Some(58));
            match parse_script(src) {
                Err(HottsqlError::Parse { message, offset }) => {
                    assert_eq!(message, "unterminated string literal", "{src:?}");
                    assert_eq!(offset, 58, "{src:?}");
                }
                other => panic!("expected a parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn statistics_declarations_feed_the_catalog() {
        let s = parse_script(
            "table R(a int, b int);\n\
             table S(int);\n\
             rows R 1e6;\n\
             distinct R.a 100;\n\
             distinct S.1 50;\n",
        )
        .unwrap();
        assert_eq!(s.stats.rows("R"), 1e6);
        assert_eq!(s.stats.table("R").unwrap().distinct, Some(vec![100.0, 0.0]));
        assert_eq!(s.stats.table("S").unwrap().distinct, Some(vec![50.0]));
        assert_eq!(s.columns["R"], vec!["a", "b"]);
    }

    #[test]
    fn statistics_declaration_errors() {
        // Undeclared table.
        assert!(parse_script("rows R 10;").is_err());
        assert!(parse_script("table R(int);\ndistinct S.1 5;").is_err());
        // Unnamed columns cannot be addressed by name.
        assert!(parse_script("table R(int);\ndistinct R.a 5;").is_err());
        // Out-of-range / 0-based positions.
        assert!(parse_script("table R(int);\ndistinct R.2 5;").is_err());
        assert!(parse_script("table R(int);\ndistinct R.0 5;").is_err());
        // Malformed values.
        assert!(parse_script("table R(int);\nrows R many;").is_err());
        assert!(parse_script("table R(int);\nrows R -3;").is_err());
        // Partial column naming is rejected.
        assert!(parse_script("table R(a int, int);").is_err());
    }

    #[test]
    fn budget_directives_parse_through_the_shared_spec() {
        let s = parse_script(
            "table R(int);\n\
             budget iters 40;\n\
             budget nodes 20000;\n\
             budget oracle-calls 8;\n\
             verify R == R;",
        )
        .unwrap();
        assert_eq!(s.budget.iters, Some(40));
        assert_eq!(s.budget.nodes, Some(20000));
        assert_eq!(s.budget.oracle_calls, Some(8));
        // Admission reads the same directives without parsing the rest.
        let text = "table R(int);\nbudget iters 40; -- budget iters 9;\nverify R == R;";
        assert_eq!(budget_directives(text), parse_script(text).unwrap().budget);
        // Same validation as CLI flags and serve requests.
        assert!(parse_script("budget iters 0;").is_err());
        assert!(parse_script("budget bogus 5;").is_err());
        assert!(parse_script("budget iters many;").is_err());
        assert!(parse_script("budget iters;").is_err());
        assert!(parse_script("budget iters 1 2;").is_err());
    }

    #[test]
    fn comments_and_whitespace_ignored() {
        let s = parse_script("-- nothing\n  \ntable R(int); -- trailing\n").unwrap();
        assert_eq!(s.goals.len(), 0);
        assert!(s.env.table("R").is_some());
    }
}
