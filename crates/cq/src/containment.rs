//! Homomorphism-based containment and equivalence of conjunctive queries.
//!
//! The Chandra–Merlin theorem: `q₁ ⊆ q₂` (set semantics) iff there is a
//! *homomorphism* `h : vars(q₂) → terms(q₁)` with `h(head₂) = head₁`
//! mapping every atom of `q₂` onto an atom of `q₁`. Deciding this is
//! NP-complete (Fig. 9); the implementation is a backtracking search over
//! atom images with forward-checking on the variable assignment.
//!
//! Two layers keep the search fast without changing a single verdict:
//!
//! * **Bitset candidate indexes** — [`prepare`] builds, per relation, a
//!   bitset over that relation's body atoms for every arity and for every
//!   `(position, constant)` occurrence. A containment check intersects
//!   those words once per goal atom, so the backtracking loop only ever
//!   visits candidates that could possibly match, instead of re-scanning
//!   (and arity-checking) the full atom list at every search node. The
//!   filters only remove candidates the old scan would have rejected
//!   anyway, so the first witness found — and therefore the returned
//!   [`Homomorphism`] — is bit-identical to the plain scan's.
//! * **Trail-based backtracking** — variable bindings live in a dense
//!   slot array with an undo trail; backtracking pops the trail instead
//!   of cloning the whole assignment map per candidate.
//!
//! The homomorphism witness is returned explicitly: printed, it is the
//! arrow diagram of Fig. 10. [`SearchStats`] reports how much work the
//! bitsets saved (the `containment_scale` BENCH series plots it).

use crate::{Cq, CqAtom, CqTerm};
use relalg::Value;
use std::collections::BTreeMap;
use std::fmt;

/// A homomorphism witness: a mapping from the contained-in query's
/// variables to terms of the containing query.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Homomorphism {
    /// Variable assignment.
    pub map: BTreeMap<u32, CqTerm>,
}

impl Homomorphism {
    /// Applies the mapping to a term.
    pub fn apply(&self, t: &CqTerm) -> CqTerm {
        match t {
            CqTerm::Var(v) => self.map.get(v).cloned().unwrap_or_else(|| t.clone()),
            c => c.clone(),
        }
    }
}

impl fmt::Display for Homomorphism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (v, t)) in self.map.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "x{v} ↦ {t}")?;
        }
        Ok(())
    }
}

/// Deterministic work counters for the homomorphism search. Candidate
/// accounting is static per (goal, target) pair — the bitsets are built
/// before the search runs — so repeated runs over the same corpus report
/// the same numbers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Containment checks that got past the head-width guard.
    pub checks: u64,
    /// Candidate atoms a full per-goal-atom scan would have visited
    /// (sum of same-relation body atom counts over all goal atoms).
    pub candidates_total: u64,
    /// Candidates the bitset intersection excluded before the search
    /// (arity mismatch or constant-position mismatch).
    pub bitset_pruned: u64,
    /// Candidates the backtracking search actually attempted.
    pub candidates_scanned: u64,
}

impl SearchStats {
    /// Accumulates another stats bag into this one.
    pub fn merge(&mut self, other: &SearchStats) {
        self.checks += other.checks;
        self.candidates_total += other.candidates_total;
        self.bitset_pruned += other.bitset_pruned;
        self.candidates_scanned += other.candidates_scanned;
    }
}

/// A bitset over one relation's candidate atoms. Up to 64 candidates —
/// effectively every real query — live inline in one word; larger
/// bodies spill into a vector. Cloning/intersecting the inline form is
/// allocation-free, which keeps [`prepare`] cheap on small queries.
#[derive(Clone, Debug, Default)]
struct Mask {
    head: u64,
    spill: Vec<u64>,
}

impl Mask {
    fn empty(len: usize) -> Mask {
        Mask {
            head: 0,
            spill: vec![0; len.div_ceil(64).saturating_sub(1)],
        }
    }

    /// All candidates live: the identity of [`Mask::intersect`].
    fn all(len: usize) -> Mask {
        let mut m = Mask::empty(len);
        m.head = ones_below(len.min(64));
        for (w, chunk) in m.spill.iter_mut().zip((64..len).step_by(64)) {
            *w = ones_below((len - chunk).min(64));
        }
        m
    }

    fn set(&mut self, i: usize) {
        if i < 64 {
            self.head |= 1u64 << i;
        } else {
            self.spill[i / 64 - 1] |= 1u64 << (i % 64);
        }
    }

    fn intersect(&mut self, other: &Mask) {
        self.head &= other.head;
        for (a, b) in self.spill.iter_mut().zip(&other.spill) {
            *a &= b;
        }
    }

    fn count(&self) -> u64 {
        u64::from(self.head.count_ones())
            + self
                .spill
                .iter()
                .map(|w| u64::from(w.count_ones()))
                .sum::<u64>()
    }
}

/// The low `n` bits set (`n ≤ 64`).
fn ones_below(n: usize) -> u64 {
    match n {
        64 => u64::MAX,
        n => (1u64 << n) - 1,
    }
}

/// One relation's candidate group inside a [`PreparedCq`]: a contiguous
/// run of the flat candidate-atom array plus the static bitset filters a
/// goal atom intersects before searching. The filter tables are built
/// lazily — `None` when they could never prune (all candidates share one
/// arity / carry no constants), which is the common case and keeps
/// [`prepare`] allocation-light.
#[derive(Clone, Debug)]
struct RelGroup<'a> {
    rel: &'a str,
    /// Offset of this group's run in `PreparedCq::atoms`.
    start: u32,
    /// Number of candidate atoms in the run.
    len: u32,
    /// The uniform arity when `arity_masks` is `None`.
    arity: u32,
    /// Candidates disagree on arity (tracked while grouping, so the
    /// common uniform case skips mask building entirely).
    mixed: bool,
    /// Some candidate carries a constant.
    any_const: bool,
    /// `(arity, candidates with that arity)`; `None` when uniform.
    arity_masks: Option<Vec<(usize, Mask)>>,
    /// `(position, constant, candidates with that constant there)`;
    /// `None` when no candidate carries a constant.
    const_masks: Option<Vec<(u32, &'a Value, Mask)>>,
}

impl<'a> RelGroup<'a> {
    /// Builds the lazy filter tables over this group's candidate run
    /// (bit indexes are group-relative). Only called for groups whose
    /// grouping-time flags say a filter could prune.
    fn build_masks(&mut self, atoms: &[&'a CqAtom]) {
        let n = atoms.len();
        self.arity_masks = self.mixed.then(|| {
            let mut masks: Vec<(usize, Mask)> = Vec::new();
            for (i, atom) in atoms.iter().enumerate() {
                let k = atom.terms.len();
                match masks.iter_mut().find(|(a, _)| *a == k) {
                    Some((_, mask)) => mask.set(i),
                    None => {
                        let mut mask = Mask::empty(n);
                        mask.set(i);
                        masks.push((k, mask));
                    }
                }
            }
            masks
        });
        self.const_masks = self.any_const.then(|| {
            let mut masks: Vec<(u32, &'a Value, Mask)> = Vec::new();
            for (i, atom) in atoms.iter().enumerate() {
                for (p, t) in atom.terms.iter().enumerate() {
                    if let CqTerm::Const(c) = t {
                        let p = p as u32;
                        match masks.iter_mut().find(|(q, v, _)| *q == p && *v == c) {
                            Some((_, _, mask)) => mask.set(i),
                            None => {
                                let mut mask = Mask::empty(n);
                                mask.set(i);
                                masks.push((p, c, mask));
                            }
                        }
                    }
                }
            }
            masks
        });
    }

    /// Candidate set for one goal atom: arity filter ∩ constant
    /// filters. Every candidate removed here is one the term matcher
    /// would have rejected (arity mismatch, or a Const/Const or
    /// Const/Var mismatch independent of any variable bindings). The
    /// common no-filter case (uniform arity, no constants anywhere)
    /// costs no mask construction at all.
    fn candidates(&self, atom: &CqAtom) -> Candidates {
        let goal_consts = atom.terms.iter().any(|t| matches!(t, CqTerm::Const(_)));
        let mut mask = match &self.arity_masks {
            Some(masks) => match masks.iter().find(|(a, _)| *a == atom.terms.len()) {
                Some((_, m)) => m.clone(),
                None => return Candidates::None,
            },
            None if atom.terms.len() as u32 != self.arity => return Candidates::None,
            None if self.const_masks.is_none() && !goal_consts => {
                // Nothing can prune: every body atom is a candidate.
                return Candidates::All(self.len);
            }
            None => Mask::all(self.len as usize),
        };
        if let Some(masks) = &self.const_masks {
            for (p, t) in atom.terms.iter().enumerate() {
                if let CqTerm::Const(c) = t {
                    match masks.iter().find(|(q, v, _)| *q == p as u32 && *v == c) {
                        Some((_, _, m)) => mask.intersect(m),
                        None => return Candidates::None,
                    }
                }
            }
        } else if goal_consts {
            // Goal demands a constant no candidate carries.
            return Candidates::None;
        }
        Candidates::Mask(mask)
    }
}

/// A goal atom's candidate set, with the no-filter case kept symbolic
/// so the hot path never touches bitset words.
enum Candidates {
    /// Every body atom of the relation is live.
    All(u32),
    /// The bitset intersection pruned some candidates.
    Mask(Mask),
    /// No candidate can match (dead goal atom).
    None,
}

impl Candidates {
    #[inline]
    fn live(&self) -> u64 {
        match self {
            Candidates::All(n) => u64::from(*n),
            Candidates::Mask(m) => m.count(),
            Candidates::None => 0,
        }
    }
}

/// Borrow-free iteration state over one [`Candidates`] set, so the
/// iterative search can keep a reusable stack of these in [`Scratch`]
/// without tying lifetimes to the plan slice. Candidates come out in
/// increasing body-atom order, so the first witness found matches the
/// unindexed scan's.
enum Cursor {
    Range { pos: u32, n: u32 },
    Bits { word: u64, spill_pos: u32 },
}

impl Cursor {
    fn start(c: &Candidates) -> Cursor {
        match c {
            Candidates::All(n) => Cursor::Range { pos: 0, n: *n },
            Candidates::Mask(m) => Cursor::Bits {
                word: m.head,
                spill_pos: 0,
            },
            Candidates::None => Cursor::Range { pos: 0, n: 0 },
        }
    }

    /// Next candidate index in body order, refilling spill words from
    /// the candidate set this cursor was started on.
    #[inline]
    fn next(&mut self, c: &Candidates) -> Option<usize> {
        match self {
            Cursor::Range { pos, n } => {
                if pos < n {
                    let i = *pos as usize;
                    *pos += 1;
                    Some(i)
                } else {
                    None
                }
            }
            Cursor::Bits { word, spill_pos } => {
                let spill: &[u64] = match c {
                    Candidates::Mask(m) => &m.spill,
                    _ => &[],
                };
                loop {
                    if *word != 0 {
                        let bit = word.trailing_zeros() as usize;
                        *word &= *word - 1;
                        return Some(*spill_pos as usize * 64 + bit);
                    }
                    if *spill_pos as usize >= spill.len() {
                        return None;
                    }
                    *word = spill[*spill_pos as usize];
                    *spill_pos += 1;
                }
            }
        }
    }
}

/// A conjunctive query with its homomorphism-target side index built:
/// body atoms grouped by relation name with per-arity and per-constant
/// candidate bitsets, so the backtracking search intersects words
/// instead of scanning the whole body per goal atom.
///
/// Preparing is the batching primitive: when one query participates in
/// many containment checks (catalog proving, script goals, UCQ
/// disjuncts), [`prepare`] it once and reuse it for every check.
#[derive(Clone, Debug)]
pub struct PreparedCq<'a> {
    /// The underlying query.
    pub cq: &'a Cq,
    /// All body atoms, grouped into contiguous same-relation runs
    /// (within a run, body order is preserved).
    atoms: Vec<&'a CqAtom>,
    /// Relation groups in first-occurrence order; queries touch a
    /// handful of relations, so a linear scan beats a tree here.
    groups: Vec<RelGroup<'a>>,
}

/// Builds the containment-target index of a query.
pub fn prepare(cq: &Cq) -> PreparedCq<'_> {
    let mut atoms: Vec<&CqAtom> = Vec::with_capacity(cq.atoms.len());
    let mut groups: Vec<RelGroup<'_>> = Vec::new();
    for atom in &cq.atoms {
        let has_const = atom.terms.iter().any(|t| matches!(t, CqTerm::Const(_)));
        match groups.iter().position(|g| g.rel == atom.rel) {
            Some(g) => {
                // Insert at the end of the group's run; later runs (all
                // groups appear in first-occurrence order) shift right.
                let at = (groups[g].start + groups[g].len) as usize;
                atoms.insert(at, atom);
                groups[g].len += 1;
                groups[g].mixed |= atom.terms.len() as u32 != groups[g].arity;
                groups[g].any_const |= has_const;
                for h in &mut groups[g + 1..] {
                    h.start += 1;
                }
            }
            None => {
                groups.push(RelGroup {
                    rel: atom.rel.as_str(),
                    start: atoms.len() as u32,
                    len: 1,
                    arity: atom.terms.len() as u32,
                    mixed: false,
                    any_const: has_const,
                    arity_masks: None,
                    const_masks: None,
                });
                atoms.push(atom);
            }
        }
    }
    for g in &mut groups {
        if g.mixed || g.any_const {
            let run = &atoms[g.start as usize..(g.start + g.len) as usize];
            g.build_masks(run);
        }
    }
    PreparedCq { cq, atoms, groups }
}

impl<'q> PreparedCq<'q> {
    fn group<'p>(&'p self, rel: &str) -> Option<&'p RelGroup<'q>> {
        self.groups.iter().find(|g| g.rel == rel)
    }

    fn run<'p>(&'p self, g: &RelGroup<'q>) -> &'p [&'q CqAtom] {
        &self.atoms[g.start as usize..(g.start + g.len) as usize]
    }
}

/// Decides `sub ⊆ sup` under set semantics, returning a homomorphism
/// `sup → sub` on success (Chandra–Merlin).
pub fn containment_witness(sub: &Cq, sup: &Cq) -> Option<Homomorphism> {
    containment_witness_prepared(&prepare(sub), sup)
}

/// [`containment_witness`] against a pre-indexed `sub` side.
pub fn containment_witness_prepared(sub: &PreparedCq<'_>, sup: &Cq) -> Option<Homomorphism> {
    containment_witness_stats(sub, sup, &mut SearchStats::default())
}

/// [`containment_witness_prepared`] that also accumulates search work
/// counters into `stats`.
pub fn containment_witness_stats(
    sub: &PreparedCq<'_>,
    sup: &Cq,
    stats: &mut SearchStats,
) -> Option<Homomorphism> {
    let mut scratch = Scratch::default();
    if !contained_core(sub, sup, stats, &mut scratch) {
        return None;
    }
    let mut map = BTreeMap::new();
    for (s, v) in scratch.slots.iter().enumerate() {
        if let Some(t) = scratch.bind[s] {
            map.insert(*v, t.clone());
        }
    }
    Some(Homomorphism { map })
}

/// A goal-atom term, compiled against the slot table once per check so
/// the candidate loop never re-resolves variables.
#[derive(Clone, Copy)]
enum TermPlan<'q> {
    /// Goal constant: the candidate term must be this exact constant.
    Const(&'q Value),
    /// Goal variable, resolved to its dense slot.
    Slot(u32),
}

/// Reusable search state: one instance serves a whole batch, so the
/// per-check cost is clearing lengths, not reallocating. All bound
/// terms borrow from the batch's query slice (`'q`); plans borrow the
/// prepared indexes (`'p`).
#[derive(Default)]
struct Scratch<'q, 'p> {
    slots: Vec<u32>,
    bind: Vec<Option<&'q CqTerm>>,
    trail: Vec<u32>,
    plans: Vec<(&'p [&'q CqAtom], Candidates, u32)>,
    tplans: Vec<TermPlan<'q>>,
    cursors: Vec<(Cursor, u32)>,
}

/// The containment check proper. On success the witness is readable
/// from `scratch` (`slots[i]` bound to `bind[i]`); the boolean batch
/// path never materializes it.
fn contained_core<'q, 'p>(
    sub: &'p PreparedCq<'q>,
    sup: &'q Cq,
    stats: &mut SearchStats,
    scratch: &mut Scratch<'q, 'p>,
) -> bool {
    if sub.cq.head.len() != sup.head.len() {
        return false;
    }
    stats.checks += 1;
    let Scratch {
        slots,
        bind,
        trail,
        plans,
        tplans,
        cursors,
    } = scratch;
    // Dense slots for the goal side's variables, in first-occurrence
    // order (head first, then body). Goal queries hold a handful of
    // variables, so a linear-probed list beats a map.
    slots.clear();
    for t in sup
        .head
        .iter()
        .chain(sup.atoms.iter().flat_map(|a| a.terms.iter()))
    {
        if let CqTerm::Var(v) = t {
            if !slots.contains(v) {
                slots.push(*v);
            }
        }
    }
    bind.clear();
    bind.resize(slots.len(), None);
    trail.clear();
    // The head must map exactly.
    for (hsup, hsub) in sup.head.iter().zip(&sub.cq.head) {
        if !extend(slots, bind, trail, hsup, hsub) {
            return false;
        }
    }
    // Intersect each goal atom's candidate bitset up front, and compile
    // the atom's terms against the slot table. A dead atom (no
    // candidates survive) fails the whole check immediately.
    plans.clear();
    tplans.clear();
    for atom in &sup.atoms {
        let Some(group) = sub.group(&atom.rel) else {
            return false;
        };
        let total = u64::from(group.len);
        let cands = group.candidates(atom);
        let live = cands.live();
        stats.candidates_total += total;
        stats.bitset_pruned += total - live;
        if live == 0 {
            return false;
        }
        let tstart = tplans.len() as u32;
        for t in &atom.terms {
            tplans.push(match t {
                CqTerm::Const(c) => TermPlan::Const(c),
                CqTerm::Var(v) => TermPlan::Slot(
                    slots
                        .iter()
                        .position(|x| x == v)
                        .expect("every goal variable has a slot") as u32,
                ),
            });
        }
        plans.push((sub.run(group), cands, tstart));
    }
    search(plans, tplans, bind, trail, cursors, stats)
}

/// Decides `sub ⊆ sup` under set semantics.
pub fn contained_in(sub: &Cq, sup: &Cq) -> bool {
    containment_witness(sub, sup).is_some()
}

/// [`contained_in`] against a pre-indexed `sub` side.
pub fn contained_in_prepared(sub: &PreparedCq<'_>, sup: &Cq) -> bool {
    containment_witness_prepared(sub, sup).is_some()
}

/// Decides set equivalence (containment both ways), returning both
/// witnesses — the two mapping families of Fig. 10.
pub fn equivalent_set_witness(a: &Cq, b: &Cq) -> Option<(Homomorphism, Homomorphism)> {
    let fwd = containment_witness(a, b)?;
    let bwd = containment_witness(b, a)?;
    Some((fwd, bwd))
}

/// Decides set equivalence.
pub fn equivalent_set(a: &Cq, b: &Cq) -> bool {
    contained_in(a, b) && contained_in(b, a)
}

/// Batch set-equivalence: decides every `(i, j)` pair over a slice of
/// queries, indexing each query **once** no matter how many pairs it
/// participates in. This is the API the proving engine and the script
/// runner use for multi-goal workloads.
///
/// # Panics
///
/// Panics when a pair index is out of bounds.
pub fn equivalent_set_batch(queries: &[Cq], pairs: &[(usize, usize)]) -> Vec<bool> {
    equivalent_set_batch_stats(queries, pairs).0
}

/// [`equivalent_set_batch`] that also reports the aggregate
/// [`SearchStats`] across every containment check in the batch — the
/// numbers behind the `containment_scale` BENCH series.
///
/// # Panics
///
/// Panics when a pair index is out of bounds.
pub fn equivalent_set_batch_stats(
    queries: &[Cq],
    pairs: &[(usize, usize)],
) -> (Vec<bool>, SearchStats) {
    let refs: Vec<&Cq> = queries.iter().collect();
    equivalent_set_batch_stats_ref(&refs, pairs)
}

/// [`equivalent_set_batch_stats`] over borrowed queries — batch callers
/// that already own their corpus elsewhere skip cloning it into a
/// contiguous slice.
///
/// # Panics
///
/// Panics when a pair index is out of bounds.
pub fn equivalent_set_batch_stats_ref(
    queries: &[&Cq],
    pairs: &[(usize, usize)],
) -> (Vec<bool>, SearchStats) {
    let prepared: Vec<PreparedCq<'_>> = queries.iter().map(|q| prepare(q)).collect();
    let mut stats = SearchStats::default();
    let mut scratch = Scratch::default();
    let verdicts = pairs
        .iter()
        .map(|&(i, j)| {
            contained_core(&prepared[i], prepared[j].cq, &mut stats, &mut scratch)
                && contained_core(&prepared[j], prepared[i].cq, &mut stats, &mut scratch)
        })
        .collect();
    (verdicts, stats)
}

fn extend<'s>(
    slots: &[u32],
    bind: &mut [Option<&'s CqTerm>],
    trail: &mut Vec<u32>,
    from: &CqTerm,
    to: &'s CqTerm,
) -> bool {
    match from {
        CqTerm::Const(c) => matches!(to, CqTerm::Const(d) if c == d),
        CqTerm::Var(v) => {
            let s = slots
                .iter()
                .position(|x| x == v)
                .expect("every goal variable has a slot") as u32;
            match bind[s as usize] {
                Some(existing) => existing == to,
                None => {
                    bind[s as usize] = Some(to);
                    trail.push(s);
                    true
                }
            }
        }
    }
}

/// The backtracking loop, iterative with an explicit cursor stack: one
/// `(cursor, trail mark)` frame per goal atom. Candidates are explored
/// in exactly the order the recursive formulation would — cursor
/// advancement is depth-first with in-body-order candidates — so the
/// first witness (left in `bind` on success) is unchanged.
fn search<'q>(
    plans: &[(&[&'q CqAtom], Candidates, u32)],
    tplans: &[TermPlan<'q>],
    bind: &mut [Option<&'q CqTerm>],
    trail: &mut Vec<u32>,
    cursors: &mut Vec<(Cursor, u32)>,
    stats: &mut SearchStats,
) -> bool {
    if plans.is_empty() {
        return true;
    }
    cursors.clear();
    cursors.push((Cursor::start(&plans[0].1), trail.len() as u32));
    let mut depth = 0;
    'descend: loop {
        // Everything depth-dependent is loaded once per depth change,
        // not once per candidate.
        let (run, cands, tstart) = &plans[depth];
        let tplan = &tplans[*tstart as usize..];
        let (cursor, mark) = cursors.last_mut().expect("stack is non-empty");
        let mark = *mark as usize;
        loop {
            // Undo whatever the previous candidate at this depth bound.
            while trail.len() > mark {
                let s = trail.pop().expect("trail entries above mark");
                bind[s as usize] = None;
            }
            let Some(cand) = cursor.next(cands) else {
                cursors.pop();
                if cursors.is_empty() {
                    return false;
                }
                depth -= 1;
                continue 'descend;
            };
            stats.candidates_scanned += 1;
            let target = run[cand];
            // The arity filter guarantees every candidate's term count
            // equals the goal atom's, so the zip pairs them exactly.
            let ok = target
                .terms
                .iter()
                .zip(tplan)
                .all(|(to, &plan)| match plan {
                    TermPlan::Const(c) => matches!(to, CqTerm::Const(d) if d == c),
                    TermPlan::Slot(s) => match bind[s as usize] {
                        Some(existing) => existing == to,
                        None => {
                            bind[s as usize] = Some(to);
                            trail.push(s);
                            true
                        }
                    },
                });
            if ok {
                if depth + 1 == plans.len() {
                    return true;
                }
                depth += 1;
                cursors.push((Cursor::start(&plans[depth].1), trail.len() as u32));
                continue 'descend;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relalg::Value;

    fn v(n: u32) -> CqTerm {
        CqTerm::Var(n)
    }

    /// ans(x) :- R(x, y)
    fn simple() -> Cq {
        Cq::new(vec![v(0)], vec![CqAtom::new("R", vec![v(0), v(1)])])
    }

    /// ans(x) :- R(x, y), R(x, z)   (redundant self-join)
    fn self_join() -> Cq {
        Cq::new(
            vec![v(0)],
            vec![
                CqAtom::new("R", vec![v(0), v(1)]),
                CqAtom::new("R", vec![v(0), v(2)]),
            ],
        )
    }

    #[test]
    fn reflexive_containment() {
        let q = simple();
        assert!(contained_in(&q, &q));
        assert!(equivalent_set(&q, &q));
    }

    #[test]
    fn redundant_self_join_is_equivalent() {
        // The Q2 ≡ Q3 example (Sec. 2): a redundant self-join collapses.
        let q2 = simple();
        let q3 = self_join();
        assert!(equivalent_set(&q2, &q3));
    }

    #[test]
    fn chain_containment_is_one_directional() {
        // ans() :- R(x,y)            (some edge)
        // ans() :- R(x,y), R(y,z)    (some path of length 2)
        let edge = Cq::new(vec![], vec![CqAtom::new("R", vec![v(0), v(1)])]);
        let path2 = Cq::new(
            vec![],
            vec![
                CqAtom::new("R", vec![v(0), v(1)]),
                CqAtom::new("R", vec![v(1), v(2)]),
            ],
        );
        // Any instance with a 2-path has an edge: path2 ⊆ edge.
        assert!(contained_in(&path2, &edge));
        // But not conversely.
        assert!(!contained_in(&edge, &path2));
    }

    #[test]
    fn head_must_be_preserved() {
        // ans(x) :- R(x, y)  vs  ans(y) :- R(x, y): not equivalent.
        let q1 = Cq::new(vec![v(0)], vec![CqAtom::new("R", vec![v(0), v(1)])]);
        let q2 = Cq::new(vec![v(1)], vec![CqAtom::new("R", vec![v(0), v(1)])]);
        assert!(!equivalent_set(&q1, &q2));
    }

    #[test]
    fn constants_must_match() {
        let q_const = Cq::new(
            vec![v(0)],
            vec![CqAtom::new("R", vec![v(0), CqTerm::Const(Value::Int(5))])],
        );
        let q_var = simple();
        // q_const ⊆ q_var (drop the constant restriction)…
        assert!(contained_in(&q_const, &q_var));
        // …but not conversely.
        assert!(!contained_in(&q_var, &q_const));
    }

    #[test]
    fn fig10_example() {
        // SELECT DISTINCT x.c1 FROM R1 x, R2 y WHERE x.c2 = y.c3
        //   ≡ SELECT DISTINCT x.c1 FROM R1 x, R1 y, R2 z
        //     WHERE x.c1 = y.c1 AND x.c2 = z.c3              (Sec. 5.2)
        // As CQs over R1(c1, c2), R2(c3):
        //   q1: ans(a) :- R1(a, b), R2(b)
        //   q2: ans(a) :- R1(a, b), R1(a, c), R2(b)
        let q1 = Cq::new(
            vec![v(0)],
            vec![
                CqAtom::new("R1", vec![v(0), v(1)]),
                CqAtom::new("R2", vec![v(1)]),
            ],
        );
        let q2 = Cq::new(
            vec![v(0)],
            vec![
                CqAtom::new("R1", vec![v(0), v(1)]),
                CqAtom::new("R1", vec![v(0), v(2)]),
                CqAtom::new("R2", vec![v(1)]),
            ],
        );
        let (fwd, bwd) = equivalent_set_witness(&q1, &q2).expect("Fig. 10 equivalence");
        // `fwd` witnesses q1 ⊆ q2: a homomorphism q2 → q1 that must fold
        // both R1 atoms onto the single one (the red arrows of Fig. 10).
        assert_eq!(fwd.apply(&v(1)), fwd.apply(&v(2)));
        assert_eq!(fwd.apply(&v(0)), v(0));
        // `bwd` witnesses q2 ⊆ q1: the identity-like embedding (blue).
        assert_eq!(bwd.apply(&v(0)), v(0));
        assert_eq!(bwd.apply(&v(1)), v(1));
        // Set-equivalent but not bag-equivalent: q2's extra R1 atom
        // multiplies each answer's multiplicity.
        assert!(!crate::bag::bag_equivalent(&q1, &q2));
    }

    #[test]
    fn different_relation_names_not_contained() {
        let q1 = Cq::new(vec![], vec![CqAtom::new("R", vec![v(0)])]);
        let q2 = Cq::new(vec![], vec![CqAtom::new("S", vec![v(0)])]);
        assert!(!contained_in(&q1, &q2));
    }

    #[test]
    fn arity_mismatch_not_contained() {
        let q1 = Cq::new(vec![], vec![CqAtom::new("R", vec![v(0)])]);
        let q2 = Cq::new(vec![], vec![CqAtom::new("R", vec![v(0), v(1)])]);
        assert!(!contained_in(&q1, &q2));
    }

    #[test]
    fn head_width_mismatch() {
        let q1 = Cq::new(vec![v(0)], vec![CqAtom::new("R", vec![v(0)])]);
        let q2 = Cq::new(vec![v(0), v(0)], vec![CqAtom::new("R", vec![v(0)])]);
        assert!(!contained_in(&q1, &q2));
    }

    #[test]
    fn batch_matches_pairwise_decisions() {
        let queries = vec![
            simple(),
            self_join(),
            Cq::new(vec![v(0)], vec![CqAtom::new("S", vec![v(0), v(1)])]),
        ];
        let pairs = vec![(0, 1), (0, 2), (1, 1), (2, 0)];
        let batch = equivalent_set_batch(&queries, &pairs);
        let pairwise: Vec<bool> = pairs
            .iter()
            .map(|&(i, j)| equivalent_set(&queries[i], &queries[j]))
            .collect();
        assert_eq!(batch, pairwise);
        assert_eq!(batch, vec![true, false, true, false]);
    }

    #[test]
    fn prepared_containment_matches_unprepared() {
        let queries = [simple(), self_join()];
        for a in &queries {
            let pa = prepare(a);
            for b in &queries {
                assert_eq!(contained_in_prepared(&pa, b), contained_in(a, b));
            }
        }
    }

    #[test]
    fn witness_display() {
        let q2 = simple();
        let q3 = self_join();
        let (_, bwd) = equivalent_set_witness(&q2, &q3).unwrap();
        let shown = bwd.to_string();
        assert!(shown.contains("↦"), "{shown}");
    }

    #[test]
    fn batch_stats_are_deterministic_and_prune() {
        // Constants in distinct positions give the bitset filters
        // something to cut: only one of the three R atoms can ever host
        // the goal's `R(x, 5)`.
        let q_const = Cq::new(
            vec![v(0)],
            vec![CqAtom::new("R", vec![v(0), CqTerm::Const(Value::Int(5))])],
        );
        let wide = Cq::new(
            vec![v(0)],
            vec![
                CqAtom::new("R", vec![v(0), CqTerm::Const(Value::Int(7))]),
                CqAtom::new("R", vec![v(0), CqTerm::Const(Value::Int(5))]),
                CqAtom::new("R", vec![v(0), v(1)]),
            ],
        );
        let queries = vec![q_const, wide];
        let pairs = vec![(0, 1), (1, 0)];
        let (verdicts, stats) = equivalent_set_batch_stats(&queries, &pairs);
        let (again, stats2) = equivalent_set_batch_stats(&queries, &pairs);
        assert_eq!(verdicts, again);
        assert_eq!(stats, stats2, "stats must be deterministic");
        assert!(stats.bitset_pruned > 0, "{stats:?}");
        // Pruned candidates are never scanned; the search may revisit a
        // live candidate while backtracking, but here the masks leave a
        // single live candidate per goal atom, so scanned ≤ live.
        assert!(
            stats.bitset_pruned + stats.candidates_scanned <= stats.candidates_total,
            "{stats:?}"
        );
        assert!(stats.checks >= pairs.len() as u64, "{stats:?}");
    }

    #[test]
    fn bitset_search_matches_generated_corpus_decisions() {
        // Cross-check the indexed search against fresh pairwise calls
        // (which rebuild indexes per call) on a generated corpus.
        let pairs = crate::generate::equivalent_pairs(0xC0FFEE, 24);
        for (a, b) in &pairs {
            assert!(equivalent_set(a, b), "generated pair must stay equivalent");
            let (fwd, bwd) = equivalent_set_witness(a, b).expect("witness");
            // Witnesses respect the head exactly.
            for (hb, ha) in b.head.iter().zip(&a.head) {
                assert_eq!(&fwd.apply(hb), ha);
            }
            for (ha, hb) in a.head.iter().zip(&b.head) {
                assert_eq!(&bwd.apply(ha), hb);
            }
        }
    }
}
