//! Seeded input generators and the references outputs are checked
//! against.
//!
//! Every query is over three binary integer tables `R`, `S`, `T`. The
//! references never come from the prover under test:
//!
//! - an equivalence goal is equivalent by construction (an α-renamed,
//!   atom-shuffled copy is set- and bag-equivalent to its original);
//! - a refute goal enters a corpus only after set-up has found a
//!   concrete witness database on which the list-semantics evaluator
//!   (`listsem`) gives the two sides different bags;
//! - a shipped plan is checked bag-equal to its input under `listsem` on
//!   seeded databases built here, not by the program's own generators.

use cq::Cq;
use hottsql::ast::Query;
use hottsql::env::QueryEnv;
use hottsql::eval::Instance;
use relalg::{BaseType, Relation, Schema, Tuple};
use std::collections::HashSet;

/// The `table` declarations every generated script starts with.
pub const TABLES: &str = "table R(int, int);\ntable S(int, int);\ntable T(int, int);\n";

const RELS: [&str; 3] = ["R", "S", "T"];

/// The environment the `TABLES` header declares.
pub fn env() -> QueryEnv {
    let binary = Schema::flat([BaseType::Int, BaseType::Int]);
    QueryEnv::new()
        .with_table("R", binary.clone())
        .with_table("S", binary.clone())
        .with_table("T", binary)
}

/// SplitMix64: a small seeded generator, so inputs depend only on the seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_F42D_4C95_7F2D)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.range(0, i as u64) as usize;
            items.swap(i, j);
        }
    }
}

/// Which part of the prover a goal exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GoalKind {
    /// DISTINCT CQ pair, decided by the `cq` decision procedure.
    Set,
    /// Bag-semantics shuffled-copy pair, proved by tactics or saturation.
    Bag,
    /// A bag query against its strictly smaller CQ core: inequivalent,
    /// refuted by the witness hunt.
    Refute,
}

impl GoalKind {
    pub fn name(self) -> &'static str {
        match self {
            GoalKind::Set => "set",
            GoalKind::Bag => "bag",
            GoalKind::Refute => "refute",
        }
    }
}

/// One single-goal `.dop` script and its reference verdict.
#[derive(Clone, Debug)]
pub struct ProveGoal {
    pub kind: GoalKind,
    /// Whether the reference says the sides are equivalent.
    pub equivalent: bool,
    /// The request script: the table header plus one goal.
    pub script: String,
}

/// Renders a query, asserting that it reads back to itself, so the
/// program sees exactly the query the reference was built for.
pub fn text(q: &Query) -> String {
    let text = q.to_string();
    let back = hottsql::parse::parse_query(&text).expect("generated query parses");
    assert_eq!(&back, q, "generated query does not read back: {text}");
    text
}

/// How many goals of each kind a block of fifty holds. The kinds are
/// shuffled within a block, so every prefix of the stream has the same
/// mix up to one block whatever the seed. Bag goals are the majority, so
/// the median request is a tactic proof, not a CQ decision; refutes are
/// one in fifty, so the 99th percentile falls near their median.
pub const BLOCK: [(GoalKind, usize); 3] = [
    (GoalKind::Set, 20),
    (GoalKind::Bag, 29),
    (GoalKind::Refute, 1),
];

/// Goals per block.
pub const BLOCK_LEN: usize = 50;

/// Largest atom count of a refute goal's larger side. Larger refutes are
/// left out as outliers of the witness hunt, whose time grows with the
/// atom count: three- and four-atom refutes take 3 ms at the median and
/// 40 ms at most, five-atom ones reach 290 ms, six-atom ones 1.1–1.6 s,
/// and seven-atom ones 12–15 s.
pub const MAX_REFUTE_ATOMS: usize = 4;

/// Databases set-up may try when looking for a refute goal's witness.
const WITNESS_TRIES: u64 = 48;

/// The `prove_distinct` goal stream, generated a block at a time: no two
/// goals alike, in blocks of the fixed [`BLOCK`] mix.
pub struct ProveStream {
    env: QueryEnv,
    rng: Rng,
    seen: HashSet<String>,
    /// Refute candidates discarded because no witness database turned up.
    pub dropped: usize,
}

impl ProveStream {
    pub fn new(seed: u64) -> ProveStream {
        ProveStream {
            env: env(),
            rng: Rng::new(seed),
            seen: HashSet::new(),
            dropped: 0,
        }
    }

    /// Appends the next block of [`BLOCK_LEN`] goals to `out`.
    pub fn block(&mut self, out: &mut Vec<ProveGoal>) {
        let mut block: Vec<GoalKind> = BLOCK
            .iter()
            .flat_map(|&(k, c)| std::iter::repeat_n(k, c))
            .collect();
        self.rng.shuffle(&mut block);
        for kind in block {
            out.push(self.goal(kind));
        }
    }

    /// The next goal of `kind`, unlike every goal before it.
    pub fn goal(&mut self, kind: GoalKind) -> ProveGoal {
        loop {
            let (rng, env) = (&mut self.rng, &self.env);
            let goal = match kind {
                GoalKind::Set => equivalent_goal(rng, env, true),
                GoalKind::Bag => equivalent_goal(rng, env, false),
                GoalKind::Refute => match refute_goal(rng, env) {
                    Some(Ok(goal)) => Some(goal),
                    Some(Err(())) => {
                        self.dropped += 1;
                        None
                    }
                    None => None,
                },
            };
            if let Some(goal) = goal {
                if self.seen.insert(goal.script.clone()) {
                    return goal;
                }
            }
        }
    }
}

/// A random CQ with its head variable bound in the body.
fn random_cq(rng: &mut Rng, atoms: u32, vars: u32) -> Cq {
    cq::generate::random_cq(rng.next_u64() >> 1, atoms, vars, &RELS)
}

/// Renders a CQ as a query; `None` when the head is not bound.
fn render(q: &Cq, env: &QueryEnv, distinct: bool) -> Option<Query> {
    let query = cq::translate::to_query(q, env)?;
    Some(if distinct {
        query
    } else {
        strip_distinct(query)
    })
}

fn strip_distinct(q: Query) -> Query {
    match q {
        Query::Distinct(inner) => *inner,
        other => other,
    }
}

fn goal_script(expect_equivalent: bool, lhs: &Query, rhs: &Query) -> String {
    let verb = if expect_equivalent {
        "verify"
    } else {
        "refute"
    };
    format!("{TABLES}{verb} {}\n    == {};\n", text(lhs), text(rhs))
}

fn equivalent_goal(rng: &mut Rng, env: &QueryEnv, distinct: bool) -> Option<ProveGoal> {
    // Bag goals stay within 4–6 atoms: their proof time grows steeply with
    // the atom count, and the upper latency percentiles fall among them.
    let atoms = if distinct {
        rng.range(3, 7)
    } else {
        rng.range(4, 6)
    } as u32;
    let vars = rng.range(2, 4) as u32;
    let q = random_cq(rng, atoms, vars);
    let copy = cq::generate::shuffled_copy(&q, rng.next_u64());
    let lhs = render(&q, env, distinct)?;
    let rhs = render(&copy, env, distinct)?;
    if lhs == rhs {
        return None;
    }
    Some(ProveGoal {
        kind: if distinct {
            GoalKind::Set
        } else {
            GoalKind::Bag
        },
        equivalent: true,
        script: goal_script(true, &lhs, &rhs),
    })
}

/// `None` when the candidate has no smaller core; `Some(Err)` when no
/// witness database turned up (the candidate is dropped).
fn refute_goal(rng: &mut Rng, env: &QueryEnv) -> Option<Result<ProveGoal, ()>> {
    let atoms = rng.range(3, MAX_REFUTE_ATOMS as u64) as u32;
    let vars = rng.range(2, 3) as u32;
    let q = random_cq(rng, atoms, vars);
    let core = cq::minimize::minimize(&q);
    if core.atoms.len() >= q.atoms.len() {
        return None;
    }
    let lhs = render(&q, env, false)?;
    let rhs = render(&core, env, false)?;
    let base = rng.next_u64();
    let witness = (0..WITNESS_TRIES)
        .any(|i| !bag_equal_on(&lhs, &rhs, env, &database(base.wrapping_add(i), 2..=3)));
    if !witness {
        return Some(Err(()));
    }
    Some(Ok(ProveGoal {
        kind: GoalKind::Refute,
        equivalent: false,
        script: goal_script(false, &lhs, &rhs),
    }))
}

/// A seeded database over `R`, `S`, `T` with `rows` rows per table and
/// values in 0..=1, so joins match often and duplicate rows (bag
/// multiplicities above one) are common.
pub fn database(seed: u64, rows: std::ops::RangeInclusive<u64>) -> Instance {
    let mut rng = Rng::new(seed.wrapping_mul(0x2545_F491_4F6C_DD1D));
    let schema = Schema::flat([BaseType::Int, BaseType::Int]);
    let mut inst = Instance::new();
    for rel in RELS {
        let rows = rng.range(*rows.start(), *rows.end());
        let tuples: Vec<Tuple> = (0..rows)
            .map(|_| {
                Tuple::pair(
                    Tuple::int(rng.range(0, 1) as i64),
                    Tuple::int(rng.range(0, 1) as i64),
                )
            })
            .collect();
        let r = Relation::from_tuples(schema.clone(), tuples).expect("rows fit the schema");
        inst = inst.with_table(rel, r);
    }
    inst
}

/// Whether both queries give the same bag under list semantics on a
/// database of [`database`]. An evaluation error counts as a difference.
pub fn bag_equal_on(a: &Query, b: &Query, env: &QueryEnv, db: &Instance) -> bool {
    let eval = |q: &Query| listsem::eval_query_list(q, env, db, &Schema::Empty, &Tuple::Unit);
    match (eval(a), eval(b)) {
        (Ok(x), Ok(y)) => listsem::bag_equal_lists(&x, &y),
        _ => false,
    }
}

/// Databases a changed plan is checked on.
pub const PLAN_CHECK_DATABASES: u64 = 4;

/// Whether a shipped plan is bag-equal to its input on the check
/// databases (a plan identical to its input trivially is). Plans are
/// checked on one-to-two-row tables: the inputs have up to six atoms,
/// list semantics materializes the whole product, and a 30 s run ships
/// thousands of plans.
pub fn plan_matches(input: &Query, plan: &Query, env: &QueryEnv, seed: u64) -> bool {
    input == plan
        || (0..PLAN_CHECK_DATABASES)
            .all(|i| bag_equal_on(input, plan, env, &database(seed.wrapping_add(i), 1..=2)))
}

/// Statistics declared by every optimize script.
pub const STATS: &str =
    "rows R 1000;\nrows S 200;\nrows T 5000;\ndistinct R.1 50;\ndistinct T.2 500;\n";

/// An optimize script with `queries` distinct DISTINCT CQ queries (as
/// `queries / 2` goals), none already in `seen`.
pub fn optimize_script(
    rng: &mut Rng,
    env: &QueryEnv,
    queries: usize,
    seen: &mut HashSet<String>,
) -> (String, Vec<Query>) {
    let mut qs: Vec<Query> = Vec::with_capacity(queries);
    while qs.len() < queries {
        let atoms = rng.range(3, 6) as u32;
        let vars = rng.range(2, 4) as u32;
        let q = random_cq(rng, atoms, vars);
        if let Some(query) = render(&q, env, true) {
            if seen.insert(text(&query)) {
                qs.push(query);
            }
        }
    }
    let mut script = format!("{TABLES}{STATS}");
    for pair in qs.chunks(2) {
        let rhs = pair.get(1).unwrap_or(&pair[0]);
        script.push_str(&format!("verify {}\n    == {};\n", pair[0], rhs));
    }
    (script, qs)
}
