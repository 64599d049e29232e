//! The whole-workspace call graph every transitive analysis runs on.
//!
//! One node per non-test `fn` with a body, across every crate. Edges come
//! from a qualified-name resolution heuristic over the parse layer —
//! deliberately type-free, so it over-approximates (a `.get(` method call
//! edges to *every* `get` method in the workspace) and under-approximates
//! only where Rust itself hides the callee (trait objects named through a
//! generic, function pointers). Over-approximation is the right failure
//! mode for reachability lints: a false edge can at worst ask for a
//! pragma with a proof; a missed edge would silently hide a panic.
//!
//! Resolution discipline, in order:
//! - `Qual::name(...)` — defs named `name` whose impl owner is `Qual`
//!   (`Self` maps to the caller's own owner). When no owner matches,
//!   `Qual` was a module path (`codec::read_batch`), so fall back to free
//!   fns named `name`.
//! - `recv.name(...)` — every impl-owned def named `name`, any owner.
//! - `name(...)` — free (un-owned) fns named `name`.
//! - No def found → the callee is external (std, a dependency); the edge
//!   is dropped.
//!
//! Recursion can't blow the analyses up: the graph is condensed into
//! strongly connected components (iterative Tarjan — source files are
//! adversarially deep from the lint's point of view, so no call-stack
//! recursion anywhere), and reachability is precomputed bottom-up over
//! the condensed DAG, one set union per SCC, memoized by construction.
//! Tarjan emits SCCs callees-first, which is exactly the order the taint
//! pass wants for return summaries.

use crate::parser::Call;
use crate::SourceFile;
use std::collections::{BTreeMap, BTreeSet};

/// One non-test function with a body, anywhere in the workspace.
pub struct FnNode {
    /// Index into the `files` slice the graph was built from.
    pub file: usize,
    /// Body token range (brace pair, inclusive).
    pub body: (usize, usize),
    /// The function's name.
    pub name: String,
    /// Impl self type, if the fn is a method / associated fn.
    pub owner: Option<String>,
}

/// The workspace call graph: every non-test function with a body, the
/// calls it makes, resolved cross-crate edges, and the SCC condensation
/// with memoized reachability.
pub struct CallGraph {
    /// All nodes, in (file, body-start) order.
    pub nodes: Vec<FnNode>,
    /// Every call expression in each node's body, in token order — parsed
    /// once here, reused by every downstream pass.
    pub calls: Vec<Vec<Call>>,
    /// Deduplicated callee node ids per node.
    pub edges: Vec<Vec<usize>>,
    /// SCC id per node. SCC ids are in Tarjan emission order: every SCC's
    /// callee SCCs have smaller ids (callees-first / reverse topological).
    scc_of: Vec<usize>,
    /// Node ids per SCC.
    scc_members: Vec<Vec<usize>>,
    /// Node ids reachable from each SCC (including its own members).
    scc_reach: Vec<BTreeSet<usize>>,
    /// name → ids of impl-owned defs.
    owned: BTreeMap<String, Vec<usize>>,
    /// name → ids of free defs.
    free: BTreeMap<String, Vec<usize>>,
    /// (owner, name) → ids.
    by_owner: BTreeMap<(String, String), Vec<usize>>,
}

impl CallGraph {
    /// Builds the graph: collect nodes, resolve every call in every body,
    /// condense with Tarjan, precompute reachability bottom-up.
    pub fn build(files: &[SourceFile]) -> CallGraph {
        let mut nodes = Vec::new();
        for (fi, f) in files.iter().enumerate() {
            for def in f.parsed.fns.iter().filter(|d| !d.in_test) {
                let Some(body) = def.body else { continue };
                nodes.push(FnNode {
                    file: fi,
                    body,
                    name: def.name.clone(),
                    owner: def.owner.clone(),
                });
            }
        }

        let mut owned: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut free: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut by_owner: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        for (id, n) in nodes.iter().enumerate() {
            match &n.owner {
                Some(o) => {
                    owned.entry(n.name.clone()).or_default().push(id);
                    by_owner
                        .entry((o.clone(), n.name.clone()))
                        .or_default()
                        .push(id);
                }
                None => free.entry(n.name.clone()).or_default().push(id),
            }
        }

        let mut g = CallGraph {
            calls: Vec::new(),
            edges: vec![Vec::new(); nodes.len()],
            scc_of: Vec::new(),
            scc_members: Vec::new(),
            scc_reach: Vec::new(),
            owned,
            free,
            by_owner,
            nodes,
        };

        for id in 0..g.nodes.len() {
            let n = &g.nodes[id];
            let calls = crate::parser::calls_in(files[n.file].tokens(), n.body);
            let mut targets = BTreeSet::new();
            for c in &calls {
                for t in g.resolve(id, c) {
                    if t != id {
                        targets.insert(t);
                    }
                }
            }
            g.edges[id] = targets.into_iter().collect();
            g.calls.push(calls);
        }

        let (scc_of, scc_members) = tarjan(g.nodes.len(), &g.edges);

        // Condensed DAG successors, then reachability bottom-up. Edges go
        // caller-SCC → callee-SCC and callee SCC ids are smaller, so by
        // the time an SCC is processed every successor set already exists.
        let mut scc_succ: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); scc_members.len()];
        for (v, outs) in g.edges.iter().enumerate() {
            for &w in outs {
                if scc_of[v] != scc_of[w] {
                    scc_succ[scc_of[v]].insert(scc_of[w]);
                }
            }
        }
        let mut scc_reach: Vec<BTreeSet<usize>> = Vec::with_capacity(scc_members.len());
        for (s, members) in scc_members.iter().enumerate() {
            let mut reach: BTreeSet<usize> = members.iter().copied().collect();
            for &t in &scc_succ[s] {
                reach.extend(scc_reach[t].iter().copied());
            }
            scc_reach.push(reach);
        }

        g.scc_of = scc_of;
        g.scc_members = scc_members;
        g.scc_reach = scc_reach;
        g
    }

    /// Resolves one call made from `caller` to its candidate defs.
    pub fn resolve(&self, caller: usize, c: &Call) -> Vec<usize> {
        let none = Vec::new();
        if c.is_method {
            return self.owned.get(&c.name).unwrap_or(&none).clone();
        }
        if let Some(q) = &c.qualifier {
            let owner = if q == "Self" {
                match &self.nodes[caller].owner {
                    Some(o) => o.clone(),
                    None => return Vec::new(),
                }
            } else {
                q.clone()
            };
            if let Some(ids) = self.by_owner.get(&(owner, c.name.clone())) {
                return ids.clone();
            }
            // Qualifier was a module path, not a type: fall back to free
            // fns of that name anywhere.
            return self.free.get(&c.name).unwrap_or(&none).clone();
        }
        self.free.get(&c.name).unwrap_or(&none).clone()
    }

    /// Every node reachable from any of `starts` (inclusive), via the
    /// precomputed per-SCC sets.
    pub fn reachable(&self, starts: impl IntoIterator<Item = usize>) -> BTreeSet<usize> {
        let mut out = BTreeSet::new();
        for s in starts {
            out.extend(self.scc_reach[self.scc_of[s]].iter().copied());
        }
        out
    }

    /// SCCs in callees-first order, each as its member node ids. A taint
    /// pass walking this order sees every callee's summary before any of
    /// its callers.
    pub fn sccs_bottom_up(&self) -> &[Vec<usize>] {
        &self.scc_members
    }
}

/// Iterative Tarjan SCC. Returns (scc id per node, members per SCC), with
/// SCCs numbered in emission order: callees before callers.
fn tarjan(n: usize, edges: &[Vec<usize>]) -> (Vec<usize>, Vec<Vec<usize>>) {
    const UNSEEN: usize = usize::MAX;
    let mut index = vec![UNSEEN; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut scc_of = vec![0usize; n];
    let mut members: Vec<Vec<usize>> = Vec::new();
    let mut next = 0usize;
    // Explicit DFS frames: (node, next edge position).
    let mut frames: Vec<(usize, usize)> = Vec::new();

    for start in 0..n {
        if index[start] != UNSEEN {
            continue;
        }
        index[start] = next;
        low[start] = next;
        next += 1;
        stack.push(start);
        on_stack[start] = true;
        frames.push((start, 0));

        while let Some(top) = frames.last().copied() {
            let (v, ei) = top;
            if ei < edges[v].len() {
                if let Some(f) = frames.last_mut() {
                    f.1 += 1;
                }
                let w = edges[v][ei];
                if index[w] == UNSEEN {
                    index[w] = next;
                    low[w] = next;
                    next += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&(p, _)) = frames.last() {
                    low[p] = low[p].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        scc_of[w] = members.len();
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    members.push(comp);
                }
            }
        }
    }
    (scc_of, members)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn files(srcs: &[(&str, &str)]) -> Vec<SourceFile> {
        srcs.iter()
            .map(|(rel, src)| SourceFile::new(rel, src))
            .collect()
    }

    fn node(g: &CallGraph, name: &str) -> usize {
        g.nodes
            .iter()
            .position(|n| n.name == name)
            .unwrap_or_else(|| panic!("no node {name}"))
    }

    #[test]
    fn free_calls_resolve_across_crates() {
        let fs = files(&[
            ("crates/a/src/lib.rs", "pub fn top() { helper(); }"),
            (
                "crates/b/src/lib.rs",
                "pub fn helper() { leaf(); } pub fn leaf() {}",
            ),
        ]);
        let g = CallGraph::build(&fs);
        let reach = g.reachable([node(&g, "top")]);
        assert!(reach.contains(&node(&g, "leaf")), "transitive cross-crate");
    }

    #[test]
    fn qualified_calls_prefer_the_owner_then_fall_back_to_free() {
        let fs = files(&[(
            "crates/a/src/lib.rs",
            "impl Reader { fn take(&self) {} }\n\
                 impl Writer { fn take(&self) { other(); } }\n\
                 fn caller() { Reader::take(r); mod_path::free_take(); }\n\
                 fn free_take() {}\nfn other() {}",
        )]);
        let g = CallGraph::build(&fs);
        let caller = node(&g, "caller");
        let reach = g.reachable([caller]);
        assert!(
            reach.contains(&node(&g, "free_take")),
            "module-path fallback"
        );
        assert!(
            !reach.contains(&node(&g, "other")),
            "Writer::take not taken"
        );
    }

    #[test]
    fn self_maps_to_the_callers_owner() {
        let fs = files(&[(
            "crates/a/src/lib.rs",
            "impl Reader { fn new() { Self::init(); } fn init(&self) { leaf(); } }\n\
                 impl Writer { fn init(&self) {} }\nfn leaf() {}",
        )]);
        let g = CallGraph::build(&fs);
        let reach = g.reachable([node(&g, "new")]);
        assert!(reach.contains(&node(&g, "leaf")));
        let writer_init = g
            .nodes
            .iter()
            .position(|n| n.name == "init" && n.owner.as_deref() == Some("Writer"))
            .unwrap();
        assert!(!reach.contains(&writer_init));
    }

    #[test]
    fn method_calls_fan_out_to_every_owner() {
        let fs = files(&[(
            "crates/a/src/lib.rs",
            "impl A { fn go(&self) { a_leaf(); } }\nimpl B { fn go(&self) { b_leaf(); } }\n\
                 fn caller(x: &A) { x.go(); }\nfn a_leaf() {}\nfn b_leaf() {}",
        )]);
        let g = CallGraph::build(&fs);
        let reach = g.reachable([node(&g, "caller")]);
        assert!(reach.contains(&node(&g, "a_leaf")));
        assert!(reach.contains(&node(&g, "b_leaf")), "over-approximates");
    }

    #[test]
    fn recursion_condenses_into_one_scc() {
        let fs = files(&[(
            "crates/a/src/lib.rs",
            "fn even(n: u8) { odd(n); }\nfn odd(n: u8) { even(n); leaf(); }\nfn leaf() {}",
        )]);
        let g = CallGraph::build(&fs);
        let (e, o) = (node(&g, "even"), node(&g, "odd"));
        assert_eq!(g.scc_of[e], g.scc_of[o], "mutual recursion is one SCC");
        let reach = g.reachable([e]);
        assert!(reach.contains(&node(&g, "leaf")));
        // Bottom-up order: leaf's SCC precedes the recursive pair's.
        assert!(g.scc_of[node(&g, "leaf")] < g.scc_of[e]);
    }

    #[test]
    fn test_fns_are_not_nodes() {
        let fs = files(&[(
            "crates/a/src/lib.rs",
            "fn lib() {}\n#[cfg(test)]\nmod t { fn helper() { lib(); } }",
        )]);
        let g = CallGraph::build(&fs);
        assert_eq!(g.nodes.len(), 1);
        assert_eq!(g.nodes[0].name, "lib");
    }
}
