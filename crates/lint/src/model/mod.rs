//! The workspace model: pass 1 of the interprocedural analyzer.
//!
//! [`build`] turns every scanned source file into a [`WorkspaceModel`]:
//! a symbol table of function definitions, a heuristically-resolved call
//! graph, per-function effect summaries (intrinsic and transitive), a
//! lock-ordering edge set, and per-file pre-sizing evidence. Pass 2 (the
//! `check_model` rules in [`crate::rules`]) runs over this model.
//!
//! Everything is stored in `BTreeMap`s keyed by [`FnId`] so the model is
//! bit-identical regardless of the order files were walked in — a
//! property test in `crates/lint/tests` shuffles the input ordering and
//! compares JSON dumps byte-for-byte.
//!
//! ## Name-resolution heuristic (and its known limits)
//!
//! There is no type information here; resolution is name-based with
//! scope preference:
//!
//! - `Type::assoc(...)` resolves among methods whose surrounding `impl`
//!   names `Type`.
//! - `module::f(...)` resolves among functions whose file is `module.rs`
//!   or lives under a `module/` directory; `holoar_x::f` maps to
//!   `crates/x/`. `self::`/`super::`/`crate::` fall back to same-crate
//!   preference.
//! - `self.m(...)` prefers methods of the caller's own impl type.
//! - Bare and method calls prefer same-file, then same-crate, then a
//!   workspace-unique definition. Method names that collide with
//!   ubiquitous std methods (`unwrap`, `len`, `clone`, ...) are never
//!   resolved — see [`METHOD_BLOCKLIST`].
//! - Ambiguity inside the narrowest matching scope links the call to
//!   *all* candidates (a sound over-approximation for may-effects).
//!
//! Consequences: calls through function pointers, closures, trait
//! objects, and macro bodies are invisible; a workspace method named
//! like a std method is not traversed. DESIGN.md ("Static analysis")
//! documents these limits next to the rules that depend on them.

pub mod extract;

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::collections::VecDeque;

use holoar_telemetry::jsonlite::Json;

use crate::config::Config;
use crate::source::SourceFile;
use extract::{FnFacts, RawCall};

/// Unique key for one function definition.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct FnId {
    /// Workspace-relative file path.
    pub path: String,
    /// Function name (unqualified).
    pub name: String,
    /// 1-based line of the definition (disambiguates same-name fns in
    /// one file, e.g. methods of two impl blocks).
    pub line: usize,
}

impl FnId {
    /// `path::name`, the form diagnostics print chains in.
    pub fn display(&self) -> String {
        format!("{}::{}", self.path, self.name)
    }
}

/// One resolved call-graph edge.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ResolvedCall {
    /// The callee.
    pub callee: FnId,
    /// 1-based line of the call site.
    pub line: usize,
    /// Whether the call site sits inside a loop body.
    pub in_loop: bool,
    /// Lock names held at the call.
    pub held_locks: Vec<String>,
}

/// May-effect summary bits for one function.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Effects {
    /// May panic (`unwrap`, `panic!`, panic-prone indexing, ...).
    pub panics: bool,
    /// May heap-allocate (`Vec::new`, `format!`, `clone`, ...).
    pub allocates: bool,
    /// May block (lock acquisition, `recv`, `join`).
    pub blocks: bool,
    /// Calls transcendental math (`sin`/`cos`/`exp`/`powf`/...).
    pub transcendental: bool,
    /// Fans out on scoped threads (`std::thread::scope`).
    pub fans_out: bool,
    /// Sends on a channel.
    pub sends: bool,
}

impl Effects {
    fn union(self, other: Effects) -> Effects {
        Effects {
            panics: self.panics || other.panics,
            allocates: self.allocates || other.allocates,
            blocks: self.blocks || other.blocks,
            transcendental: self.transcendental || other.transcendental,
            fans_out: self.fans_out || other.fans_out,
            sends: self.sends || other.sends,
        }
    }
}

/// One edge of the lock-ordering graph: `to` acquired while `from` held.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct LockEdge {
    /// The function whose body (or whose callee) produced the edge.
    pub path: String,
    /// 1-based line of the acquisition or the call that reaches it.
    pub line: usize,
    /// For interprocedural edges, the callee that transitively acquires
    /// `to`; empty for direct acquisitions.
    pub via: String,
}

/// The pass-1 workspace model.
#[derive(Debug, Clone, Default)]
pub struct WorkspaceModel {
    /// Every function definition, with its extracted facts.
    pub fns: BTreeMap<FnId, FnFacts>,
    /// Resolved call edges per function, in source order.
    pub calls: BTreeMap<FnId, Vec<ResolvedCall>>,
    /// Intrinsic (own-body) effects per function.
    pub intrinsic: BTreeMap<FnId, Effects>,
    /// Transitive effects (own body plus everything reachable through
    /// the resolved call graph, stopping at rule-exempt paths).
    pub closure: BTreeMap<FnId, Effects>,
    /// Lock names transitively acquired per function.
    pub locks_acquired: BTreeMap<FnId, BTreeSet<String>>,
    /// Lock-ordering graph: `(held, acquired) -> first witnessing site`.
    pub lock_edges: BTreeMap<(String, String), LockEdge>,
    /// Per-file identifiers with pre-sizing evidence (`with_capacity`,
    /// `reserve`, `resize`), consulted by `hot-loop-alloc`.
    pub presized: BTreeMap<String, Vec<String>>,
}

/// Method names never resolved as workspace calls: ubiquitous std
/// methods a name-only heuristic would mis-link.
pub const METHOD_BLOCKLIST: &[&str] = &[
    "abs", "all", "and_then", "any", "as_bytes", "as_mut", "as_ref", "as_slice", "as_str",
    "atan2", "bytes", "ceil", "chain", "chars", "checked_add", "checked_mul", "checked_sub",
    "chunks", "chunks_exact", "chunks_exact_mut", "chunks_mut", "clamp", "clear", "clone",
    "cloned", "cmp", "collect", "contains", "contains_key", "copied", "copy_from_slice",
    "cos", "count", "dedup", "display", "drain", "drop", "end", "ends_with", "entry",
    "enumerate", "eq", "err", "exp", "extend", "extend_from_slice", "filter", "filter_map",
    "find", "first", "flat_map", "flatten", "floor", "fold", "for_each", "from_bits", "get",
    "get_mut", "get_or_insert_with", "hash", "hypot", "insert", "into", "into_iter",
    "is_empty", "is_err", "is_finite", "is_nan", "is_none", "is_ok", "is_some", "iter",
    "iter_mut", "join", "keys", "last", "len", "ln", "lock", "log10", "log2", "map",
    "map_err", "max", "max_by", "max_by_key", "min", "min_by", "min_by_key", "mul_add",
    "next", "nth", "ok", "ok_or", "ok_or_else", "or_else", "or_insert", "or_insert_with",
    "parse", "partial_cmp", "peek", "pop", "position", "powf", "powi", "push", "push_str",
    "read", "recv", "rem_euclid", "remove", "replace", "reserve", "resize", "retain", "rev",
    "round", "rsplit", "saturating_add", "saturating_sub", "send", "signum", "sin",
    "sin_cos", "skip", "sort", "sort_by", "sort_by_key", "sort_unstable", "split",
    "split_at", "split_at_mut", "split_once", "split_whitespace", "sqrt", "start",
    "starts_with", "step_by", "sum", "swap", "swap_remove", "take", "take_while", "tan",
    "to_bits", "to_owned", "to_string", "to_vec", "trim", "trim_end", "trim_start",
    "truncate", "try_into", "unwrap", "unwrap_err", "unwrap_or", "unwrap_or_default",
    "unwrap_or_else", "values", "values_mut", "windows", "wrapping_add", "wrapping_sub",
    "write", "zip",
];

/// Builds the workspace model from pre-scanned sources. Output is
/// independent of the order of `sources`.
pub fn build(sources: &[SourceFile], cfg: &Config) -> WorkspaceModel {
    let mut model = WorkspaceModel::default();

    // Symbol table + per-file facts.
    for file in sources {
        if file.rel.starts_with("crates/lint/") {
            // The analyzer's own sources are full of effect-pattern
            // literals; modeling them would be self-referential noise.
            continue;
        }
        for facts in extract::extract_file(file, cfg) {
            let id =
                FnId { path: facts.path.clone(), name: facts.name.clone(), line: facts.line };
            model.fns.insert(id, facts);
        }
        let presized = extract::presized_idents(file);
        if !presized.is_empty() {
            model.presized.insert(file.rel.clone(), presized);
        }
    }

    // Resolution indices over non-test definitions.
    let mut by_name: BTreeMap<&str, Vec<FnId>> = BTreeMap::new();
    let mut methods_by_name: BTreeMap<&str, Vec<FnId>> = BTreeMap::new();
    for (id, facts) in &model.fns {
        if facts.in_test {
            continue;
        }
        by_name.entry(facts.name.as_str()).or_default().push(id.clone());
        if facts.owner.is_some() {
            methods_by_name.entry(facts.name.as_str()).or_default().push(id.clone());
        }
    }

    // Resolve calls.
    for (id, facts) in &model.fns {
        if facts.in_test {
            continue;
        }
        let mut resolved: Vec<ResolvedCall> = Vec::new();
        for call in &facts.calls {
            for callee in resolve(call, id, facts, &model.fns, &by_name, &methods_by_name) {
                if callee == *id {
                    continue; // direct recursion adds nothing to may-effects
                }
                resolved.push(ResolvedCall {
                    callee,
                    line: call.line,
                    in_loop: call.in_loop,
                    held_locks: call.held_locks.clone(),
                });
            }
        }
        model.calls.insert(id.clone(), resolved);
    }

    // Intrinsic effects.
    for (id, facts) in &model.fns {
        model.intrinsic.insert(
            id.clone(),
            Effects {
                panics: !facts.panic_sites.is_empty(),
                allocates: !facts.alloc_sites.is_empty(),
                blocks: !facts.block_sites.is_empty(),
                transcendental: !facts.transcendental_sites.is_empty(),
                fans_out: !facts.fanout_sites.is_empty(),
                sends: !facts.send_sites.is_empty(),
            },
        );
    }

    // Transitive effects and lock sets, by fixpoint. Traversal stops at
    // rule-exempt paths (telemetry instrumentation, vendored shims) and
    // never enters test code (test fns have no resolved calls).
    for (id, facts) in &model.fns {
        let mut locks: BTreeSet<String> = BTreeSet::new();
        for l in &facts.locks {
            locks.insert(l.lock.clone());
        }
        model.locks_acquired.insert(id.clone(), locks);
    }
    model.closure = model.intrinsic.clone();
    loop {
        let mut changed = false;
        for (id, calls) in &model.calls {
            let mut eff = model.closure[id];
            let mut locks = model.locks_acquired[id].clone();
            for c in calls {
                if cfg.is_rule_exempt(&c.callee.path) {
                    continue;
                }
                if let Some(callee_eff) = model.closure.get(&c.callee) {
                    eff = eff.union(*callee_eff);
                }
                if let Some(callee_locks) = model.locks_acquired.get(&c.callee) {
                    locks.extend(callee_locks.iter().cloned());
                }
            }
            if eff != model.closure[id] {
                model.closure.insert(id.clone(), eff);
                changed = true;
            }
            if locks.len() != model.locks_acquired[id].len() {
                model.locks_acquired.insert(id.clone(), locks);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Lock-ordering edges: direct (acquire b while a held) and
    // interprocedural (call, while a held, a fn that transitively
    // acquires b).
    for (id, facts) in &model.fns {
        for site in &facts.locks {
            for held in &site.held {
                if *held == site.lock {
                    continue; // self-edge handled as reacquisition below
                }
                edge(&mut model.lock_edges, held, &site.lock, &id.path, site.line, "");
            }
        }
        for c in model.calls.get(id).map(Vec::as_slice).unwrap_or(&[]) {
            if c.held_locks.is_empty() {
                continue;
            }
            let Some(acquired) = model.locks_acquired.get(&c.callee) else { continue };
            for held in &c.held_locks {
                for lock in acquired {
                    if lock != held {
                        edge(
                            &mut model.lock_edges,
                            held,
                            lock,
                            &id.path,
                            c.line,
                            &c.callee.display(),
                        );
                    }
                }
            }
        }
    }

    model
}

fn edge(
    edges: &mut BTreeMap<(String, String), LockEdge>,
    from: &str,
    to: &str,
    path: &str,
    line: usize,
    via: &str,
) {
    edges.entry((from.to_string(), to.to_string())).or_insert_with(|| LockEdge {
        path: path.to_string(),
        line,
        via: via.to_string(),
    });
}

impl WorkspaceModel {
    /// Facts for `id`.
    pub fn facts(&self, id: &FnId) -> &FnFacts {
        &self.fns[id]
    }

    /// Resolved callees of `id` (empty slice if none).
    pub fn callees(&self, id: &FnId) -> &[ResolvedCall] {
        self.calls.get(id).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Designated hot entry points, sorted.
    pub fn entries(&self) -> Vec<FnId> {
        self.fns
            .iter()
            .filter(|(_, f)| f.is_entry && !f.in_test)
            .map(|(id, _)| id.clone())
            .collect()
    }

    /// Designated per-frame loop functions, sorted.
    pub fn frame_loop_fns(&self) -> Vec<FnId> {
        self.fns
            .iter()
            .filter(|(_, f)| f.is_frame_loop && !f.in_test)
            .map(|(id, _)| id.clone())
            .collect()
    }

    /// BFS from `from`, returning the set of reachable functions and the
    /// parent pointers of a shortest call chain to each. Traversal skips
    /// rule-exempt callees.
    pub fn reach(&self, from: &FnId, cfg: &Config) -> BTreeMap<FnId, Option<FnId>> {
        let mut parents: BTreeMap<FnId, Option<FnId>> = BTreeMap::new();
        parents.insert(from.clone(), None);
        let mut queue: VecDeque<FnId> = VecDeque::new();
        queue.push_back(from.clone());
        while let Some(cur) = queue.pop_front() {
            for call in self.callees(&cur) {
                if cfg.is_rule_exempt(&call.callee.path) {
                    continue;
                }
                if !parents.contains_key(&call.callee) {
                    parents.insert(call.callee.clone(), Some(cur.clone()));
                    queue.push_back(call.callee.clone());
                }
            }
        }
        parents
    }

    /// Reconstructs the chain `from → ... → to` out of [`WorkspaceModel::reach`]'s parent
    /// map, as `path::name` strings.
    pub fn chain(parents: &BTreeMap<FnId, Option<FnId>>, to: &FnId) -> Vec<String> {
        let mut chain = Vec::new();
        let mut cur = Some(to.clone());
        while let Some(id) = cur {
            chain.push(id.display());
            cur = parents.get(&id).cloned().flatten();
        }
        chain.reverse();
        chain
    }

    /// The model as a `jsonlite` value (the `--graph-out` payload).
    pub fn to_json(&self) -> Json {
        let functions: Vec<Json> = self
            .fns
            .iter()
            .map(|(id, facts)| {
                let calls: Vec<Json> = self
                    .callees(id)
                    .iter()
                    .map(|c| {
                        Json::Object(vec![
                            ("path".into(), Json::String(c.callee.path.clone())),
                            ("name".into(), Json::String(c.callee.name.clone())),
                            ("line".into(), Json::Number(c.callee.line as f64)),
                            ("at".into(), Json::Number(c.line as f64)),
                            ("in_loop".into(), Json::Bool(c.in_loop)),
                            (
                                "held_locks".into(),
                                Json::Array(
                                    c.held_locks
                                        .iter()
                                        .map(|l| Json::String(l.clone()))
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect();
                let locks: Vec<Json> = self.locks_acquired[id]
                    .iter()
                    .map(|l| Json::String(l.clone()))
                    .collect();
                Json::Object(vec![
                    ("path".into(), Json::String(id.path.clone())),
                    ("name".into(), Json::String(id.name.clone())),
                    ("line".into(), Json::Number(id.line as f64)),
                    ("end_line".into(), Json::Number(facts.end_line as f64)),
                    (
                        "owner".into(),
                        facts
                            .owner
                            .as_ref()
                            .map(|o| Json::String(o.clone()))
                            .unwrap_or(Json::Null),
                    ),
                    ("in_test".into(), Json::Bool(facts.in_test)),
                    ("hot_entry".into(), Json::Bool(facts.is_entry)),
                    ("frame_loop".into(), Json::Bool(facts.is_frame_loop)),
                    ("effects".into(), effects_json(self.intrinsic[id])),
                    ("transitive".into(), effects_json(self.closure[id])),
                    ("calls".into(), Json::Array(calls)),
                    ("locks_acquired".into(), Json::Array(locks)),
                ])
            })
            .collect();
        let lock_edges: Vec<Json> = self
            .lock_edges
            .iter()
            .map(|((from, to), site)| {
                Json::Object(vec![
                    ("held".into(), Json::String(from.clone())),
                    ("acquired".into(), Json::String(to.clone())),
                    ("path".into(), Json::String(site.path.clone())),
                    ("line".into(), Json::Number(site.line as f64)),
                    ("via".into(), Json::String(site.via.clone())),
                ])
            })
            .collect();
        Json::Object(vec![
            ("version".into(), Json::Number(1.0)),
            ("functions".into(), Json::Array(functions)),
            ("lock_edges".into(), Json::Array(lock_edges)),
        ])
    }
}

fn effects_json(e: Effects) -> Json {
    Json::Object(vec![
        ("panics".into(), Json::Bool(e.panics)),
        ("allocates".into(), Json::Bool(e.allocates)),
        ("blocks".into(), Json::Bool(e.blocks)),
        ("transcendental".into(), Json::Bool(e.transcendental)),
        ("fans_out".into(), Json::Bool(e.fans_out)),
        ("sends".into(), Json::Bool(e.sends)),
    ])
}

/// The crate-scope prefix of a workspace path (`crates/fft/src/a.rs` →
/// `crates/fft/`).
fn crate_prefix(rel: &str) -> String {
    let parts: Vec<&str> = rel.split('/').collect();
    if parts.len() >= 2 && parts[0] == "crates" {
        format!("{}/{}/", parts[0], parts[1])
    } else {
        format!("{}/", parts.first().copied().unwrap_or(""))
    }
}

/// Resolves one raw call to zero or more definitions (see the module docs
/// for the heuristic).
fn resolve(
    call: &RawCall,
    caller: &FnId,
    caller_facts: &FnFacts,
    fns: &BTreeMap<FnId, FnFacts>,
    by_name: &BTreeMap<&str, Vec<FnId>>,
    methods_by_name: &BTreeMap<&str, Vec<FnId>>,
) -> Vec<FnId> {
    if call.is_method && METHOD_BLOCKLIST.contains(&call.name.as_str()) {
        return Vec::new();
    }
    let empty: Vec<FnId> = Vec::new();
    let pool: &Vec<FnId> = if call.is_method {
        methods_by_name.get(call.name.as_str()).unwrap_or(&empty)
    } else {
        by_name.get(call.name.as_str()).unwrap_or(&empty)
    };
    if pool.is_empty() {
        return Vec::new();
    }

    if !call.qualifier.is_empty() {
        let q = call.qualifier.as_str();
        if q.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
            // `Type::assoc` — owner must match.
            return pool
                .iter()
                .filter(|id| fns[id].owner.as_deref() == Some(q))
                .cloned()
                .collect();
        }
        if q == "self" || q == "super" || q == "crate" {
            return prefer_scopes(pool, caller);
        }
        // Module path: `module.rs`, a `module/` dir, or `holoar_x` crate.
        let crate_dir = q.strip_prefix("holoar_").map(|c| format!("crates/{c}/"));
        let file_suffix = format!("/{q}.rs");
        let dir_infix = format!("/{q}/");
        let matched: Vec<FnId> = pool
            .iter()
            .filter(|id| {
                id.path.ends_with(&file_suffix)
                    || id.path.contains(&dir_infix)
                    || crate_dir.as_ref().is_some_and(|p| id.path.starts_with(p.as_str()))
            })
            .cloned()
            .collect();
        return if matched.is_empty() { prefer_scopes(pool, caller) } else { matched };
    }

    if call.is_method && call.on_self {
        if let Some(owner) = &caller_facts.owner {
            let own: Vec<FnId> = pool
                .iter()
                .filter(|id| fns[id].owner.as_ref() == Some(owner))
                .cloned()
                .collect();
            if !own.is_empty() {
                return own;
            }
        }
    }
    prefer_scopes(pool, caller)
}

/// Same-file, then same-crate, then workspace-unique. Multiple candidates
/// in the narrowest non-empty file/crate scope all link (sound
/// over-approximation); global ambiguity stays unresolved.
fn prefer_scopes(pool: &[FnId], caller: &FnId) -> Vec<FnId> {
    let same_file: Vec<FnId> =
        pool.iter().filter(|id| id.path == caller.path).cloned().collect();
    if !same_file.is_empty() {
        return same_file;
    }
    let prefix = crate_prefix(&caller.path);
    let same_crate: Vec<FnId> =
        pool.iter().filter(|id| id.path.starts_with(&prefix)).cloned().collect();
    if !same_crate.is_empty() {
        return same_crate;
    }
    if pool.len() == 1 {
        return pool.to_vec();
    }
    Vec::new()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model_of(files: &[(&str, &str)]) -> WorkspaceModel {
        let sources: Vec<SourceFile> =
            files.iter().map(|(rel, src)| SourceFile::scan(rel, src)).collect();
        let cfg = Config::new(std::path::PathBuf::from("/nonexistent"));
        build(&sources, &cfg)
    }

    #[test]
    fn transitive_panic_crosses_files() {
        let m = model_of(&[
            (
                "crates/a/src/lib.rs",
                "pub fn entry() { holoar_b::helper(); }\n",
            ),
            (
                "crates/b/src/lib.rs",
                "pub fn helper() { inner(); }\nfn inner(x: Option<u32>) { x.unwrap(); }\n",
            ),
        ]);
        let entry = FnId { path: "crates/a/src/lib.rs".into(), name: "entry".into(), line: 1 };
        assert!(m.closure[&entry].panics, "closure: {:?}", m.closure);
        assert!(!m.intrinsic[&entry].panics);
        let cfg = Config::new(std::path::PathBuf::from("/nonexistent"));
        let parents = m.reach(&entry, &cfg);
        let inner = FnId { path: "crates/b/src/lib.rs".into(), name: "inner".into(), line: 2 };
        let chain = WorkspaceModel::chain(&parents, &inner);
        assert_eq!(
            chain,
            vec![
                "crates/a/src/lib.rs::entry",
                "crates/b/src/lib.rs::helper",
                "crates/b/src/lib.rs::inner",
            ]
        );
    }

    #[test]
    fn method_blocklist_stops_false_links() {
        let m = model_of(&[(
            "crates/a/src/lib.rs",
            "impl W {\n\
             \x20   fn unwrap(&self) { panic!(\"boom\"); }\n\
             \x20   fn caller(&self, r: Result<u32, ()>) { r.unwrap(); }\n\
             }\n",
        )]);
        let caller = FnId { path: "crates/a/src/lib.rs".into(), name: "caller".into(), line: 3 };
        assert!(m.callees(&caller).is_empty());
        // The call *is* still an intrinsic panic site on the caller's line.
        assert!(m.intrinsic[&caller].panics);
    }

    #[test]
    fn type_qualified_resolution() {
        let m = model_of(&[(
            "crates/a/src/lib.rs",
            "impl A {\n\
             \x20   pub fn build() {}\n\
             }\n\
             impl B {\n\
             \x20   pub fn build() { loop_forever(); }\n\
             }\n\
             fn loop_forever() {}\n\
             fn caller() { B::build(); }\n",
        )]);
        let caller = FnId { path: "crates/a/src/lib.rs".into(), name: "caller".into(), line: 8 };
        let callees = m.callees(&caller);
        assert_eq!(callees.len(), 1);
        assert_eq!(callees[0].callee.line, 5);
    }

    #[test]
    fn lock_edges_direct_and_interprocedural() {
        let m = model_of(&[(
            "crates/a/src/lib.rs",
            "fn f(&self) {\n\
             \x20   let g = self.alpha.lock();\n\
             \x20   let h = self.beta.lock();\n\
             \x20   helper();\n\
             }\n\
             fn helper(&self) { let k = self.gamma.lock(); }\n",
        )]);
        assert!(m
            .lock_edges
            .contains_key(&("crates/a/alpha".to_string(), "crates/a/beta".to_string())));
        let inter = m
            .lock_edges
            .get(&("crates/a/alpha".to_string(), "crates/a/gamma".to_string()))
            .expect("interprocedural edge");
        assert!(inter.via.contains("helper"));
    }

    #[test]
    fn json_dump_is_deterministic_under_shuffle() {
        let files = [
            ("crates/a/src/lib.rs", "pub fn one() { two(); }\nfn two() {}\n"),
            ("crates/b/src/lib.rs", "pub fn three(x: Option<u32>) { x.unwrap(); }\n"),
            ("crates/c/src/lib.rs", "pub fn four() { holoar_b::three(None); }\n"),
        ];
        let forward = model_of(&files);
        let mut reversed_files = files;
        reversed_files.reverse();
        let reversed = model_of(&reversed_files);
        assert_eq!(
            forward.to_json().render_pretty(),
            reversed.to_json().render_pretty()
        );
    }
}
