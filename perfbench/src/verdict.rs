//! Reading verdicts and plans back out of rendered output lines, and
//! judging them against the references.

use hottsql::ast::Query;

/// How a goal's rendered outcome compares with its reference.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Judgement {
    /// Proved or refuted as the reference says.
    Decided,
    /// `unknown`: lowers the decided ratio, not a failure.
    Undecided,
    /// Disagrees with the reference, or the request failed.
    Failed,
}

/// Judges the rendered lines of a single-goal prove response.
pub fn judge_goal(lines: &[String], equivalent: bool) -> Judgement {
    let [line] = lines else {
        return Judgement::Failed;
    };
    if line.contains("\n    unknown: ") {
        Judgement::Undecided
    } else if line.contains("\n    proved by ") {
        if equivalent {
            Judgement::Decided
        } else {
            Judgement::Failed
        }
    } else if line.contains("\n    refuted: ") {
        if equivalent {
            Judgement::Failed
        } else {
            Judgement::Decided
        }
    } else {
        Judgement::Failed
    }
}

/// One plan read back from its rendered `[ok] cost A -> B via …` line.
#[derive(Clone, Debug)]
pub struct RenderedPlan {
    pub sound: bool,
    pub cost_before: f64,
    pub cost_after: f64,
    pub input: String,
    pub output: String,
}

/// Parses the rendered lines of an optimize response; `None` when a
/// line does not have the plan shape.
pub fn parse_plans(lines: &[String]) -> Option<Vec<RenderedPlan>> {
    lines.iter().map(|l| parse_plan(l)).collect()
}

fn parse_plan(line: &str) -> Option<RenderedPlan> {
    let mut parts = line.split('\n');
    let head = parts.next()?;
    let input = parts
        .next()?
        .trim_start()
        .strip_prefix("in:")?
        .trim()
        .to_owned();
    let output = parts
        .next()?
        .trim_start()
        .strip_prefix("out:")?
        .trim()
        .to_owned();
    let (tag, rest) = head.split_once(' ')?;
    let rest = rest.strip_prefix("cost ")?;
    let (before, rest) = rest.split_once(" -> ")?;
    let (after, _) = rest.split_once(' ')?;
    Some(RenderedPlan {
        sound: tag == "[ok]",
        cost_before: before.parse().ok()?,
        cost_after: after.parse().ok()?,
        input,
        output,
    })
}

/// Checks one shipped plan: certified, no costlier than its input, and
/// bag-equal to it under list semantics on the seeded check databases.
pub fn plan_ok(plan: &RenderedPlan, expected_input: &Query, seed: u64) -> bool {
    if !plan.sound || plan.cost_after > plan.cost_before {
        return false;
    }
    if plan.input != expected_input.to_string() {
        return false;
    }
    let Ok(output) = hottsql::parse::parse_query(&plan.output) else {
        return false;
    };
    crate::corpus::plan_matches(expected_input, &output, &crate::corpus::env(), seed)
}
