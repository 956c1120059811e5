//! Span-tree aggregation: critical-path attribution and per-name self
//! time.
//!
//! Works over any slice of [`SpanRecord`]s — the live collector snapshot or
//! a synthesized per-frame tree (the serving layer builds one from simulated
//! stage timings so the analysis stays deterministic). Two questions are
//! answered:
//!
//! 1. **Critical path** — for a given root span, which chain of child spans
//!    dominated its duration? A missed deadline then *names* the stage that
//!    caused it instead of reporting a bare number.
//! 2. **Self time** — per span name, how much duration is the span's own
//!    (total minus children)? The heaviest stage is then visible without a
//!    trace viewer.

use std::collections::BTreeMap;

use crate::collector::SpanRecord;

/// Aggregated timing for one span name.
#[derive(Debug, Clone, PartialEq)]
pub struct StageAgg {
    /// Span name the row aggregates.
    pub name: String,
    /// Number of spans with this name.
    pub count: u64,
    /// Total duration across those spans, nanoseconds.
    pub total_ns: u64,
    /// Self time (duration minus child durations), nanoseconds.
    pub self_ns: u64,
}

/// An index over a span slice supporting tree queries.
///
/// # Examples
///
/// ```
/// use std::borrow::Cow;
/// use holoar_telemetry::{SpanRecord, SpanTreeAnalysis};
///
/// let spans = vec![
///     SpanRecord { name: Cow::Borrowed("frame"), cat: "demo", tid: 0, id: 1,
///                  parent: None, start_ns: 0, dur_ns: 100 },
///     SpanRecord { name: Cow::Borrowed("heavy"), cat: "demo", tid: 0, id: 2,
///                  parent: Some(1), start_ns: 0, dur_ns: 80 },
/// ];
/// let tree = SpanTreeAnalysis::new(&spans);
/// let path = tree.critical_path(1);
/// assert_eq!(path.last().unwrap().name, "heavy");
/// ```
#[derive(Debug)]
pub struct SpanTreeAnalysis<'a> {
    spans: &'a [SpanRecord],
    /// Span id → index in `spans`.
    by_id: BTreeMap<u32, usize>,
    /// Parent id → child indices, sorted by (start, id) for determinism.
    children: BTreeMap<u32, Vec<usize>>,
}

impl<'a> SpanTreeAnalysis<'a> {
    /// Indexes `spans` for tree queries. Duplicate ids keep the first
    /// occurrence; orphan parents (id not in the slice) make their spans
    /// roots.
    pub fn new(spans: &'a [SpanRecord]) -> Self {
        let mut by_id = BTreeMap::new();
        let mut children: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            by_id.entry(s.id).or_insert(i);
        }
        for (i, s) in spans.iter().enumerate() {
            if let Some(parent) = s.parent {
                if by_id.contains_key(&parent) {
                    children.entry(parent).or_default().push(i);
                }
            }
        }
        for kids in children.values_mut() {
            kids.sort_by_key(|&i| (spans[i].start_ns, spans[i].id));
        }
        SpanTreeAnalysis { spans, by_id, children }
    }

    /// Indices of root spans (no parent, or a parent outside the slice),
    /// in slice order.
    pub fn roots(&self) -> Vec<&SpanRecord> {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none_or(|p| !self.by_id.contains_key(&p)))
            .collect()
    }

    /// The longest-duration root span named `name` (ties broken toward the
    /// smaller id for determinism).
    pub fn worst_root(&self, name: &str) -> Option<&SpanRecord> {
        self.roots()
            .into_iter()
            .filter(|s| s.name == name)
            .max_by(|a, b| a.dur_ns.cmp(&b.dur_ns).then(b.id.cmp(&a.id)))
    }

    /// The critical path from the span with id `root_id`: the chain formed
    /// by repeatedly descending into the longest-duration child (ties
    /// toward the smaller id). Returns an empty vector for unknown ids.
    pub fn critical_path(&self, root_id: u32) -> Vec<&SpanRecord> {
        let mut path = Vec::new();
        let mut current = match self.by_id.get(&root_id) {
            Some(&i) => i,
            None => return path,
        };
        loop {
            let span = &self.spans[current];
            path.push(span);
            let next = self
                .children
                .get(&span.id)
                .and_then(|kids| {
                    kids.iter()
                        .copied()
                        .max_by(|&a, &b| {
                            self.spans[a]
                                .dur_ns
                                .cmp(&self.spans[b].dur_ns)
                                .then(self.spans[b].id.cmp(&self.spans[a].id))
                        })
                });
            match next {
                Some(i) => current = i,
                None => break,
            }
        }
        path
    }

    /// Self time of the span at `id`: duration minus the summed durations
    /// of its direct children, clamped at zero (children overlapping or
    /// exceeding the parent — possible with coarse clocks — never go
    /// negative).
    pub fn self_ns(&self, id: u32) -> u64 {
        let Some(&i) = self.by_id.get(&id) else { return 0 };
        let span = &self.spans[i];
        let child_total: u64 = self
            .children
            .get(&id)
            .map(|kids| kids.iter().map(|&k| self.spans[k].dur_ns).sum())
            .unwrap_or(0);
        span.dur_ns.saturating_sub(child_total)
    }

    /// Per-name aggregation (count, total, self time), sorted by self time
    /// descending, name ascending on ties.
    pub fn self_time_by_name(&self) -> Vec<StageAgg> {
        let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for s in self.spans {
            let entry = by_name.entry(&s.name).or_insert((0, 0, 0));
            entry.0 += 1;
            entry.1 += s.dur_ns;
            entry.2 += self.self_ns(s.id);
        }
        let mut rows: Vec<StageAgg> = by_name
            .into_iter()
            .map(|(name, (count, total_ns, self_ns))| StageAgg {
                name: name.to_string(),
                count,
                total_ns,
                self_ns,
            })
            .collect();
        rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(&b.name)));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, dur: u64) -> SpanRecord {
        SpanRecord {
            name: Cow::Borrowed(name),
            cat: "test",
            tid: 0,
            id,
            parent,
            start_ns: start,
            dur_ns: dur,
        }
    }

    fn demo_tree() -> Vec<SpanRecord> {
        vec![
            span(1, None, "frame", 0, 100),
            span(2, Some(1), "fft", 0, 30),
            span(3, Some(1), "optics", 30, 60),
            span(4, Some(3), "kernel", 30, 50),
        ]
    }

    #[test]
    fn critical_path_descends_into_the_longest_child() {
        let spans = demo_tree();
        let tree = SpanTreeAnalysis::new(&spans);
        let names: Vec<&str> =
            tree.critical_path(1).iter().map(|s| s.name.as_ref()).collect();
        assert_eq!(names, vec!["frame", "optics", "kernel"]);
    }

    #[test]
    fn self_time_subtracts_children_and_clamps() {
        let spans = demo_tree();
        let tree = SpanTreeAnalysis::new(&spans);
        assert_eq!(tree.self_ns(1), 10); // 100 − (30 + 60)
        assert_eq!(tree.self_ns(3), 10); // 60 − 50
        assert_eq!(tree.self_ns(4), 50); // leaf
        // A child longer than its parent clamps to zero self time.
        let odd = vec![span(1, None, "p", 0, 10), span(2, Some(1), "c", 0, 25)];
        let tree = SpanTreeAnalysis::new(&odd);
        assert_eq!(tree.self_ns(1), 0);
    }

    #[test]
    fn aggregation_sorts_by_self_time() {
        let spans = demo_tree();
        let tree = SpanTreeAnalysis::new(&spans);
        let rows = tree.self_time_by_name();
        assert_eq!(rows[0].name, "kernel");
        assert_eq!(rows[0].self_ns, 50);
        let total: u64 = rows.iter().map(|r| r.self_ns).sum();
        assert_eq!(total, 100); // self times partition the root duration
    }

    #[test]
    fn roots_and_worst_root_handle_orphans() {
        let mut spans = demo_tree();
        spans.push(span(9, Some(77), "frame", 200, 300)); // orphan parent
        let tree = SpanTreeAnalysis::new(&spans);
        assert_eq!(tree.roots().len(), 2);
        assert_eq!(tree.worst_root("frame").unwrap().id, 9);
        assert!(tree.worst_root("absent").is_none());
        assert!(tree.critical_path(12345).is_empty());
    }
}
