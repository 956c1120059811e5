//! `lock-order`: the cross-crate lock-ordering graph must be acyclic, and
//! no lock may be held across a thread fan-out, a channel send, or a
//! re-acquisition of itself.
//!
//! The workspace model records every guard-creation site, which locks are
//! live at each acquisition, and which calls happen under a guard
//! (including what those callees *transitively* acquire). From that this
//! rule checks:
//!
//! 1. **Cycles**: if lock B is ever acquired while A is held *and* A is
//!    ever acquired while B is held (possibly through longer chains, and
//!    possibly in different crates), two threads can deadlock. Each cycle
//!    is reported once, anchored at one witnessing edge.
//! 2. **Re-acquisition**: acquiring a lock already held by the same
//!    thread self-deadlocks on `std::sync::Mutex`; reported directly and
//!    through calls whose closure re-acquires.
//! 3. **Fan-out / sends under a guard**: holding a lock across
//!    `std::thread::scope` (which `Parallelism::map` runs on) or a channel
//!    `.send(` serializes the workers (or deadlocks a bounded channel) —
//!    reported directly and through calls whose closure fans out or sends.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::config::Config;
use crate::diag::Finding;
use crate::model::WorkspaceModel;
use crate::source::SourceFile;

use super::Rule;

#[derive(Default)]
/// Rule: nested lock acquisitions follow the single global lock order,
/// so no interleaving can deadlock.
pub struct LockOrder;

impl Rule for LockOrder {
    fn id(&self) -> &'static str {
        "lock-order"
    }

    fn check_file(&mut self, _file: &SourceFile, _cfg: &Config, _out: &mut Vec<Finding>) {}

    fn check_model(&mut self, model: &WorkspaceModel, cfg: &Config, out: &mut Vec<Finding>) {
        cycles(model, out);

        for (id, facts) in &model.fns {
            if facts.in_test || cfg.is_rule_exempt(&id.path) {
                continue;
            }
            // Direct re-acquisition.
            for site in &facts.locks {
                if site.held.contains(&site.lock) {
                    out.push(Finding::active(
                        "lock-order",
                        id.path.clone(),
                        site.line,
                        format!(
                            "lock `{}` acquired while already held by `{}`; \
                             `std::sync::Mutex` is not reentrant — this self-deadlocks",
                            site.lock, id.name
                        ),
                    ));
                }
            }
            // Direct fan-out / sends under a guard.
            for (line, held) in &facts.fanout_under_lock {
                out.push(Finding::active(
                    "lock-order",
                    id.path.clone(),
                    *line,
                    format!(
                        "thread fan-out in `{}` while holding {}; release the guard \
                         before fanning out or the workers serialize on it",
                        id.name,
                        lock_list(held)
                    ),
                ));
            }
            for (line, held) in &facts.sends_under_lock {
                out.push(Finding::active(
                    "lock-order",
                    id.path.clone(),
                    *line,
                    format!(
                        "channel send in `{}` while holding {}; a full bounded channel \
                         would block with the lock held",
                        id.name,
                        lock_list(held)
                    ),
                ));
            }
            // Interprocedural: a call made under a guard whose callee
            // transitively re-acquires a held lock, fans out, or sends.
            for call in model.callees(id) {
                if call.held_locks.is_empty() || cfg.is_rule_exempt(&call.callee.path) {
                    continue;
                }
                let chain = vec![id.display(), call.callee.display()];
                if let Some(acquired) = model.locks_acquired.get(&call.callee) {
                    for held in &call.held_locks {
                        if acquired.contains(held) {
                            out.push(
                                Finding::active(
                                    "lock-order",
                                    id.path.clone(),
                                    call.line,
                                    format!(
                                        "`{}` calls `{}` while holding `{}`, and the callee \
                                         transitively re-acquires it; self-deadlock",
                                        id.name, call.callee.name, held
                                    ),
                                )
                                .with_chain(chain.clone()),
                            );
                        }
                    }
                }
                if let Some(eff) = model.closure.get(&call.callee) {
                    if eff.fans_out {
                        out.push(
                            Finding::active(
                                "lock-order",
                                id.path.clone(),
                                call.line,
                                format!(
                                    "`{}` calls `{}` while holding {}, and the callee \
                                     transitively fans out on scoped threads",
                                    id.name,
                                    call.callee.name,
                                    lock_list(&call.held_locks)
                                ),
                            )
                            .with_chain(chain.clone()),
                        );
                    }
                }
            }
        }
    }
}

fn lock_list(locks: &[String]) -> String {
    let quoted: Vec<String> = locks.iter().map(|l| format!("`{l}`")).collect();
    format!("lock{} {}", if locks.len() == 1 { "" } else { "s" }, quoted.join(", "))
}

/// Finds and reports each cycle in the lock-ordering graph once.
fn cycles(model: &WorkspaceModel, out: &mut Vec<Finding>) {
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (from, to) in model.lock_edges.keys() {
        adj.entry(from.as_str()).or_default().insert(to.as_str());
    }
    let mut seen_cycles: BTreeSet<Vec<String>> = BTreeSet::new();
    for ((a, b), site) in &model.lock_edges {
        // Edge a→b closes a cycle iff b reaches a.
        let Some(path_back) = bfs_path(&adj, b, a) else { continue };
        // Ring: a → b → ... → a; canonical form is the sorted node set.
        let mut ring: Vec<String> = vec![a.clone()];
        ring.extend(path_back.iter().map(|s| s.to_string()));
        let mut key = ring.clone();
        key.sort();
        key.dedup();
        if !seen_cycles.insert(key) {
            continue;
        }
        out.push(
            Finding::active(
                "lock-order",
                site.path.clone(),
                site.line,
                format!(
                    "lock-order cycle: {}; two threads taking these locks in opposite \
                     orders deadlock (witness: `{}` acquired here while `{}` held{})",
                    ring.join(" -> "),
                    b,
                    a,
                    if site.via.is_empty() {
                        String::new()
                    } else {
                        format!(", via call to `{}`", site.via)
                    },
                ),
            )
            .with_chain(ring),
        );
    }
}

/// Shortest path `from → ... → to` in the lock graph (node list including
/// both endpoints), or `None`.
fn bfs_path<'a>(
    adj: &BTreeMap<&'a str, BTreeSet<&'a str>>,
    from: &'a str,
    to: &str,
) -> Option<Vec<&'a str>> {
    let mut parents: BTreeMap<&str, &str> = BTreeMap::new();
    let mut queue: VecDeque<&str> = VecDeque::new();
    queue.push_back(from);
    while let Some(cur) = queue.pop_front() {
        if cur == to {
            let mut path = vec![cur];
            let mut node = cur;
            while let Some(&p) = parents.get(node) {
                path.push(p);
                node = p;
            }
            path.reverse();
            return Some(path);
        }
        for next in adj.get(cur).into_iter().flatten() {
            if *next != from && !parents.contains_key(next) {
                parents.insert(next, cur);
                queue.push_back(next);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::lint_sources;

    fn findings_for(src: &str) -> Vec<Finding> {
        let sources = vec![SourceFile::scan("crates/a/src/locks.rs", src)];
        let cfg = Config::new(std::path::PathBuf::from("/nonexistent"));
        lint_sources(&sources, &cfg, "")
            .findings
            .into_iter()
            .filter(|f| f.rule == "lock-order")
            .collect()
    }

    #[test]
    fn opposite_order_acquisition_is_a_cycle() {
        let found = findings_for(
            "fn one(&self) {\n\
             \x20   let a = self.alpha.lock();\n\
             \x20   let b = self.beta.lock();\n\
             }\n\
             fn two(&self) {\n\
             \x20   let b = self.beta.lock();\n\
             \x20   let a = self.alpha.lock();\n\
             }\n",
        );
        let cycle = found.iter().find(|f| f.message.contains("cycle")).expect("cycle finding");
        assert!(cycle.message.contains("alpha"), "{}", cycle.message);
        assert!(cycle.message.contains("beta"), "{}", cycle.message);
        // One cycle, reported once.
        assert_eq!(found.iter().filter(|f| f.message.contains("cycle")).count(), 1);
    }

    #[test]
    fn consistent_order_is_clean() {
        let found = findings_for(
            "fn one(&self) {\n\
             \x20   let a = self.alpha.lock();\n\
             \x20   let b = self.beta.lock();\n\
             }\n\
             fn two(&self) {\n\
             \x20   let a = self.alpha.lock();\n\
             \x20   let b = self.beta.lock();\n\
             }\n",
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn fanout_under_guard_direct_and_transitive() {
        let found = findings_for(
            "fn direct(&self, data: &mut [u32]) {\n\
             \x20   let g = lock_unpoisoned(&self.state);\n\
             \x20   std::thread::scope(|s| work(s, data));\n\
             }\n\
             fn indirect(&self, data: &mut [u32]) {\n\
             \x20   let g = lock_unpoisoned(&self.state);\n\
             \x20   fan(data);\n\
             }\n\
             fn fan(data: &mut [u32]) { std::thread::scope(|s| work(s, data)); }\n",
        );
        assert!(found.iter().any(|f| f.line == 3 && f.message.contains("fan-out")), "{found:?}");
        assert!(
            found.iter().any(|f| f.line == 7 && f.message.contains("transitively fans out")),
            "{found:?}"
        );
    }

    #[test]
    fn transitive_reacquisition() {
        let found = findings_for(
            "fn outer(&self) {\n\
             \x20   let g = self.state.lock();\n\
             \x20   inner_helper(self);\n\
             }\n\
             fn inner_helper(&self) {\n\
             \x20   let g = self.state.lock();\n\
             }\n",
        );
        assert!(
            found.iter().any(|f| f.message.contains("re-acquires")),
            "{found:?}"
        );
    }
}
