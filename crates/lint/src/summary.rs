//! The summary engine behind the interprocedural proofs: per-function
//! facts → call-graph fixpoint → witness chain.
//!
//! Each proof states its direct facts per function and hands them to
//! one of two call-graph walks:
//!
//! * [`Summary::lift`] — a monotone fixpoint over
//!   [`crate::callgraph`] for a finite join-semilattice ([`Fact`]).
//!   R004 lifts a `may_block` bit, R005 a three-point allocation
//!   lattice, R003 one acquisition bit per registered lock. Each fn
//!   raised by a callee records the `via` hop `(callee, line)` that
//!   raised it.
//! * [`reachable`] — breadth-first reachability from entry points with
//!   parent pointers (R001's `[reach]` and R005's `[hot]` entries).
//!
//! Witnesses render one way ([`render`]): down the `via` hops to a
//! concrete leaf site ([`Summary::path_down`]) or up the parent
//! pointers to the entry ([`path_up`]). Scoped obligations — "nothing
//! inside this guard scope blocks", "nothing inside this hot loop
//! allocates" — share one walker, [`Summary::scope_hits`].
//!
//! Test functions are never summarized, never raise a caller, and are
//! never reached: the contracts are about product code.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::callgraph::Call;
use crate::rules::Workspace;

/// A per-function fact on a finite join-semilattice: `Ord` is the
/// lattice order, `Default` its bottom.
pub trait Fact: Copy + Ord + Default {
    /// The absorbing top: a fn at `TOP` needs no further callees, and
    /// only `TOP` sites and callees are findings.
    const TOP: Self;
    /// Which of several equally raising callees of one call becomes
    /// the `via` hop: the first in resolution order, or the last.
    const LAST_WINS: bool = false;
}

impl Fact for bool {
    const TOP: bool = true;
}

/// One direct fact site inside a function body.
#[derive(Clone, Debug)]
pub struct Site<F> {
    /// Token index of the site (for scope containment).
    pub pos: usize,
    /// 1-based source line.
    pub line: usize,
    /// Human description, e.g. `std::fs::rename` or `.to_string()`.
    pub desc: String,
    /// What this site contributes to its fn's fact.
    pub fact: F,
}

/// Direct sites plus their call-graph fixpoint.
pub struct Summary<F> {
    /// `direct[fn]` = that fn's own sites, in token order.
    pub direct: Vec<Vec<Site<F>>>,
    /// `effect[fn]` = the lifted fact (join over the fn's own sites and
    /// everything it may call).
    pub effect: Vec<F>,
    /// For fns raised by a callee: the hop `(callee, line of the call)`
    /// that last raised them.
    pub via: BTreeMap<usize, (usize, usize)>,
}

/// One unproven obligation inside a scope.
pub enum Hit<'a, F> {
    /// A direct `TOP` site.
    Site(&'a Site<F>),
    /// A call, and its first callee whose lifted fact is `TOP`.
    Call(&'a Call, usize),
}

/// Obligations examined and proven (the bench counters), plus the
/// unproven ones already reported.
#[derive(Debug, Default)]
pub struct Tally {
    /// Sites and calls examined.
    pub obligations: usize,
    /// Of those, how many stay below `TOP`.
    pub proven: usize,
    seen: BTreeSet<(usize, usize, usize)>,
}

impl<F: Fact> Summary<F> {
    /// Joins each fn's direct sites, then lifts the facts over the
    /// call graph to a fixpoint. Calls that `skip` rejects for their
    /// caller are not propagation edges.
    pub fn lift(
        ws: &Workspace<'_>,
        direct: Vec<Vec<Site<F>>>,
        skip: impl Fn(usize, &Call) -> bool,
    ) -> Summary<F> {
        let mut effect: Vec<F> = direct
            .iter()
            .map(|d| d.iter().map(|s| s.fact).max().unwrap_or_default())
            .collect();
        let n = effect.len();
        let mut via = BTreeMap::new();
        let mut changed = true;
        let mut rounds = 0usize;
        while changed && rounds <= n {
            changed = false;
            rounds += 1;
            for id in (0..n).filter(|&id| ws.non_test(id)) {
                for call in ws.calls_of(id) {
                    if effect[id] == F::TOP {
                        break;
                    }
                    if skip(id, call) {
                        continue;
                    }
                    let mut best: Option<(F, usize)> = None;
                    for &c in call.callees.iter().filter(|&&c| ws.non_test(c)) {
                        let f = effect[c];
                        if best.is_none_or(|(b, _)| f > b || (F::LAST_WINS && f == b)) {
                            best = Some((f, c));
                        }
                    }
                    if let Some((f, c)) = best.filter(|&(f, _)| f > effect[id]) {
                        effect[id] = f;
                        via.insert(id, (c, call.line));
                        changed = true;
                    }
                }
            }
        }
        Summary {
            direct,
            effect,
            via,
        }
    }

    /// Follows `via` hops from `id` to the first fn with a direct `TOP`
    /// site: the fns passed (both ends included) and that fn's site.
    pub fn path_down(&self, ws: &Workspace<'_>, mut id: usize) -> (Vec<usize>, Option<&Site<F>>) {
        let mut hops = Vec::new();
        for _ in 0..=ws.symbols.fns.len() {
            hops.push(id);
            let mut direct = self.direct.get(id).into_iter().flatten();
            if let Some(site) = direct.find(|s| s.fact == F::TOP) {
                return (hops, Some(site));
            }
            match self.via.get(&id) {
                Some(&(next, _)) => id = next,
                None => break,
            }
        }
        (hops, None)
    }

    /// Renders `callee → … → leaf fn → site (file:line)` and the leaf
    /// description, or `fallback` when no leaf is found.
    pub fn witness(&self, ws: &Workspace<'_>, id: usize, fallback: &str) -> (String, String) {
        let (hops, site) = self.path_down(ws, id);
        let path = render(ws, &hops);
        let rel = ws.rel_of(hops.last().copied().unwrap_or(id));
        match site {
            Some(s) => (
                format!("{path} → {} ({rel}:{})", s.desc, s.line),
                s.desc.clone(),
            ),
            None => (path, fallback.to_string()),
        }
    }

    /// The scope-obligation walker shared by R004 (guard scopes) and
    /// R005 (loop scopes). Inside the open token range `(lo, hi)` of fn
    /// `id`, every direct site is an obligation, and so is every call
    /// `skip` does not reject that has a workspace callee; a site below
    /// `TOP`, or a call whose callees all stay below `TOP`, is proven.
    /// Unproven obligations come back once per `(id, key, position)`.
    pub fn scope_hits<'s>(
        &'s self,
        ws: &'s Workspace<'_>,
        id: usize,
        (lo, hi): (usize, usize),
        key: usize,
        skip: impl Fn(&Call) -> bool,
        tally: &mut Tally,
    ) -> Vec<Hit<'s, F>> {
        let inside = |pos: usize| pos > lo && pos < hi;
        let mut out = Vec::new();
        for site in self.direct.get(id).into_iter().flatten() {
            if !inside(site.pos) {
                continue;
            }
            tally.obligations += 1;
            if site.fact != F::TOP {
                tally.proven += 1;
            } else if tally.seen.insert((id, key, site.pos)) {
                out.push(Hit::Site(site));
            }
        }
        for call in ws.calls_of(id) {
            if !inside(call.paren) || skip(call) || !call.callees.iter().any(|&c| ws.non_test(c)) {
                continue;
            }
            tally.obligations += 1;
            let top = call
                .callees
                .iter()
                .copied()
                .find(|&c| ws.non_test(c) && self.effect.get(c) == Some(&F::TOP));
            match top {
                None => tally.proven += 1,
                Some(c) if tally.seen.insert((id, key, call.paren)) => out.push(Hit::Call(call, c)),
                Some(_) => {}
            }
        }
        out
    }
}

/// Breadth-first reachability over non-test fns from `roots`, seeded
/// in order: maps every reached fn to its BFS parent (`None` for a
/// root).
pub fn reachable(
    ws: &Workspace<'_>,
    roots: impl IntoIterator<Item = usize>,
) -> BTreeMap<usize, Option<usize>> {
    let mut parent = BTreeMap::new();
    let mut queue = VecDeque::new();
    for id in roots {
        if ws.non_test(id) && !parent.contains_key(&id) {
            parent.insert(id, None);
            queue.push_back(id);
        }
    }
    while let Some(cur) = queue.pop_front() {
        for (callee, _, _) in ws.calls.edges(cur) {
            if ws.non_test(callee) && !parent.contains_key(&callee) {
                parent.insert(callee, Some(cur));
                queue.push_back(callee);
            }
        }
    }
    parent
}

/// The fns from the root down to `id` along BFS parent pointers.
pub fn path_up(parent: &BTreeMap<usize, Option<usize>>, mut id: usize) -> Vec<usize> {
    let mut path = vec![id];
    // The parent map is a BFS tree, but cap the walk anyway so a
    // future bug cannot loop forever.
    for _ in 0..parent.len() {
        match parent.get(&id) {
            Some(&Some(up)) => {
                path.push(up);
                id = up;
            }
            _ => break,
        }
    }
    path.reverse();
    path
}

/// Renders fn ids as a witness chain: `a::f → b::g → …`.
pub fn render(ws: &Workspace<'_>, ids: &[usize]) -> String {
    let names: Vec<&str> = ids
        .iter()
        .map(|&id| ws.symbols.fns.get(id).map_or("", |f| f.qname.as_str()))
        .collect();
    names.join(" → ")
}
