//! Pass-1 extraction: turns scanned source lines into per-function facts.
//!
//! This walks each file's scanned lines once, tracking brace depth, open
//! `fn` bodies, `impl` blocks, loop nesting, and live lock guards, and
//! records for every function definition:
//!
//! - its extent (`line..=end_line`), impl owner, and test-ness;
//! - intrinsic effect sites (may-panic, may-allocate, may-block,
//!   calls-transcendental), each with the line and the matched pattern;
//! - raw call sites (bare, `path::qualified`, and `.method(...)` calls,
//!   plus function paths passed as values) with loop nesting and the set
//!   of locks held at the call — recorded in test code too, so test and
//!   example roots have outgoing edges;
//! - lock acquisitions with the set of locks already held (the intra-
//!   procedural half of the lock-ordering graph), plus channel sends and
//!   `std::thread::scope` fan-out performed while a guard is live.
//!
//! The extraction is heuristic in the same spirit as the per-line rules:
//! the scanner has already separated code from comments and blanked
//! string contents, so substring matching here is sound against real
//! token text. Known limits are documented in DESIGN.md ("Static
//! analysis" — the model build).

use crate::config::Config;
use crate::source::{Line, SourceFile};

/// One effect site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Site {
    /// 1-based line number.
    pub line: usize,
    /// The matched pattern (e.g. `.unwrap()`, `Vec::new(`, `.sin()`).
    pub what: String,
    /// Whether the site sits inside a `for`/`while`/`loop` body.
    pub in_loop: bool,
}

/// One raw (unresolved) call site.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct RawCall {
    /// Callee name (last path segment / method name).
    pub name: String,
    /// For `a::b::name(...)`, the segment right before the name (`b`);
    /// empty for bare and method calls.
    pub qualifier: String,
    /// Whether this is `.name(...)` method-call syntax.
    pub is_method: bool,
    /// Whether the receiver chain starts with `self`.
    pub on_self: bool,
    /// Whether the function is named as a value (`.map(Json::from)`)
    /// rather than called.
    pub by_value: bool,
    /// 1-based line number.
    pub line: usize,
    /// Whether the call sits inside a loop body.
    pub in_loop: bool,
    /// Lock names held when the call happens.
    pub held_locks: Vec<String>,
}

impl RawCall {
    /// A bare or `qualifier::name` call with no line context yet.
    fn bare(name: &str, qualifier: String) -> RawCall {
        RawCall {
            name: name.to_string(),
            qualifier,
            is_method: false,
            on_self: false,
            by_value: false,
            line: 0,
            in_loop: false,
            held_locks: Vec::new(),
        }
    }
}

/// One `.push(...)` site (tracked separately for the pre-sizing check).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct PushSite {
    /// Last identifier of the receiver chain (`st.rels.push` → `rels`).
    pub receiver: String,
    /// 1-based line number.
    pub line: usize,
    /// Whether the push sits inside a loop body.
    pub in_loop: bool,
}

/// One lock acquisition.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct LockSite {
    /// Heuristic lock identity: `crate-dir/field-name`.
    pub lock: String,
    /// 1-based line number.
    pub line: usize,
    /// Lock names already held at this acquisition.
    pub held: Vec<String>,
}

/// Everything extracted about one function definition.
#[derive(Debug, Clone, Default)]
pub struct FnFacts {
    /// Function name (unqualified).
    pub name: String,
    /// Workspace-relative file path.
    pub path: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// 1-based last line of the body.
    pub end_line: usize,
    /// Surrounding `impl` type name, if any.
    pub owner: Option<String>,
    /// Whether the function is a trait method: a default method in a
    /// `trait` block, or a method of an `impl Trait for Type` block.
    pub trait_method: bool,
    /// Whether the definition sits in test code.
    pub in_test: bool,
    /// Designated hot entry (config list or `hot-entry` marker).
    pub is_entry: bool,
    /// Designated per-frame loop fn (config list or `frame-loop` marker).
    pub is_frame_loop: bool,
    /// Panic-capable sites (`.unwrap()`, `panic!`, panicky indexing, ...).
    pub panic_sites: Vec<Site>,
    /// Allocation sites (`Vec::new`, `format!`, `.clone()`, ...).
    pub alloc_sites: Vec<Site>,
    /// Blocking sites (lock acquisition, `.recv()`, `.join()`, ...).
    pub block_sites: Vec<Site>,
    /// Transcendental-math sites (`.sin()`, `.powf(`, ...).
    pub transcendental_sites: Vec<Site>,
    /// Raw call sites, in source order.
    pub calls: Vec<RawCall>,
    /// `.push(...)` sites, in source order.
    pub pushes: Vec<PushSite>,
    /// Lock acquisitions, in source order.
    pub locks: Vec<LockSite>,
    /// Channel sends while a lock guard is live: `(line, held locks)`.
    pub sends_under_lock: Vec<(usize, Vec<String>)>,
    /// Scoped-thread fan-out while a guard is live: `(line, held locks)`.
    pub fanout_under_lock: Vec<(usize, Vec<String>)>,
    /// All channel-send sites (held or not), for the transitive check.
    pub send_sites: Vec<Site>,
    /// All scoped-thread fan-out sites, for the transitive check.
    pub fanout_sites: Vec<Site>,
}

/// Allocation patterns shared by the effect summaries and `hot-loop-alloc`.
pub const ALLOC_PATTERNS: &[&str] = &[
    "Vec::new(",
    "vec![",
    "Box::new(",
    "format!(",
    ".to_string()",
    ".to_owned()",
    ".to_vec()",
    "String::new(",
    "String::from(",
    ".collect(",
    ".clone()",
];

/// Blocking patterns for the may-block effect summary.
const BLOCK_PATTERNS: &[&str] = &["lock_unpoisoned(", ".lock()", ".recv()", ".join()", ".wait("];

/// Transcendental-call patterns for `float-determinism`. `.exp()` is
/// matched with both parens so `.expect(...)` can never collide.
pub const TRANSCENDENTAL_PATTERNS: &[&str] =
    &[".sin()", ".cos()", ".sin_cos()", ".tan()", ".exp()", ".powf(", ".atan2("];

/// Keywords that look like calls when followed by `(`.
const CALL_KEYWORDS: &[&str] =
    &["if", "while", "for", "match", "loop", "return", "fn", "in", "as", "move", "else"];

/// Name of the per-file pseudo-function (at line 0) that holds the calls
/// made outside every function body: `const` and `static` initializers.
pub const ITEMS: &str = "<items>";

/// Marker directives (parsed here, ignored by the waiver parser).
pub const MARKER_HOT_ENTRY: &str = "hot-entry";
/// Marker comment tag that declares the next loop a per-frame hot loop
/// for the `hot-loop-alloc` rule.
pub const MARKER_FRAME_LOOP: &str = "frame-loop";

struct OpenFn {
    facts: FnFacts,
    start_depth: i64,
    loop_depths: Vec<i64>,
    // (binding name, lock name, depth at acquisition)
    guards: Vec<(String, String, i64)>,
}

/// Extracts per-function facts for every function defined in `file`, plus
/// an [`ITEMS`] pseudo-function when calls occur outside every body.
///
/// Whole-file facts (the pre-sized identifier set for the push check) are
/// returned alongside so the rules can consult them.
pub fn extract_file(file: &SourceFile, cfg: &Config) -> Vec<FnFacts> {
    let crate_dir = crate_dir(&file.rel);
    let rwlocks = rwlock_names(file);
    let mut done: Vec<FnFacts> = Vec::new();
    let mut open: Vec<OpenFn> = Vec::new();
    let mut pending_fn: Option<FnFacts> = None;
    // (type or trait, holds trait methods, depth at the opening brace)
    let mut impl_stack: Vec<(String, bool, i64)> = Vec::new();
    let mut pending_impl: Option<(String, bool)> = None;
    let mut depth: i64 = 0;
    let mut marker_entry = false;
    let mut marker_frame = false;
    let mut items: Option<FnFacts> = None;
    let mut in_use = false;

    for (line_no, line) in file.numbered() {
        let code = line.code.as_str();
        if let Some(pos) = line.comment.find("holoar-lint:") {
            let directive = line.comment[pos + "holoar-lint:".len()..].trim();
            if directive == MARKER_HOT_ENTRY {
                marker_entry = true;
            } else if directive == MARKER_FRAME_LOOP {
                marker_frame = true;
            }
        }

        if pending_fn.is_none() {
            if let Some(name) = fn_def_name(code) {
                let is_entry = marker_entry || cfg.is_hot_entry(&file.rel, &name);
                let is_frame_loop = marker_frame || cfg.is_frame_loop_fn(&file.rel, &name);
                marker_entry = false;
                marker_frame = false;
                pending_fn = Some(FnFacts {
                    name,
                    path: file.rel.clone(),
                    line: line_no,
                    owner: impl_stack.last().map(|(t, _, _)| t.clone()),
                    trait_method: impl_stack.last().is_some_and(|&(_, t, _)| t),
                    in_test: line.in_test,
                    is_entry,
                    is_frame_loop,
                    ..FnFacts::default()
                });
            } else if pending_impl.is_none() && !code.contains("fn ") {
                if let Some(ty) = impl_type(code) {
                    pending_impl = Some(ty);
                }
            }
        }

        let opens = code.matches('{').count() as i64;
        let closes = code.matches('}').count() as i64;

        if let Some(p) = pending_fn.take() {
            if opens > 0 {
                open.push(OpenFn {
                    facts: p,
                    start_depth: depth,
                    loop_depths: Vec::new(),
                    guards: Vec::new(),
                });
            } else if !code.contains(';') {
                pending_fn = Some(p); // multi-line signature, keep waiting
            } // `;` before `{`: trait method declaration — drop it
        } else if let Some((ty, is_trait)) = pending_impl.take() {
            if opens > 0 {
                impl_stack.push((ty, is_trait, depth));
            } else if !code.contains(';') {
                pending_impl = Some((ty, is_trait));
            }
        }

        // Attach events to the innermost open fn. Effects describe shipping
        // code only; calls are recorded in test code too, so reachability
        // can start from examples and integration tests.
        if let Some(top) = open.last_mut() {
            let in_loop = !top.loop_depths.is_empty();
            let held: Vec<String> = top.guards.iter().map(|(_, lock, _)| lock.clone()).collect();
            if !line.in_test {
                record_line_events(top, line, line_no, &crate_dir, &rwlocks, depth);
            }
            for mut call in extract_calls(code) {
                call.line = line_no;
                call.in_loop = in_loop;
                call.held_locks = held.clone();
                top.facts.calls.push(call);
            }
            if opens > 0 && is_loop_header(code) {
                top.loop_depths.push(depth);
            }
        } else if in_use || !crate::rules::find_token(code, "use").is_empty() {
            in_use = !code.contains(';'); // a `use` names paths, it calls nothing
        } else if pending_fn.is_none() && !line.in_test {
            for mut call in extract_calls(code) {
                call.line = line_no;
                let items = items.get_or_insert_with(|| FnFacts {
                    name: ITEMS.to_string(),
                    path: file.rel.clone(),
                    ..FnFacts::default()
                });
                items.calls.push(call);
            }
        }

        depth += opens - closes;

        // Close loops, guards, fns, and impl blocks whose block ended.
        if let Some(top) = open.last_mut() {
            top.loop_depths.retain(|&d| depth > d);
            top.guards.retain(|&(_, _, d)| depth >= d);
        }
        while open.last().is_some_and(|f| depth <= f.start_depth) {
            let mut f = open.pop().expect("non-empty");
            f.facts.end_line = line_no;
            done.push(f.facts);
        }
        while impl_stack.last().is_some_and(|&(_, _, d)| depth <= d) {
            impl_stack.pop();
        }
    }
    // Unclosed function at EOF (truncated file): close it at the last line.
    while let Some(mut f) = open.pop() {
        f.facts.end_line = file.lines.len();
        done.push(f.facts);
    }
    done.extend(items);
    done.sort_by_key(|a| a.line);
    done
}

/// Identifiers in `file` with pre-sizing evidence: any identifier bound or
/// addressed on a line that calls `with_capacity`, `reserve`, or `resize`.
/// Used by `hot-loop-alloc` to allow `.push(...)` onto pre-sized buffers.
pub fn presized_idents(file: &SourceFile) -> Vec<String> {
    let mut names = Vec::new();
    for line in &file.lines {
        let code = line.code.as_str();
        if !(code.contains("with_capacity") || code.contains(".reserve(") || code.contains(".resize("))
        {
            continue;
        }
        // `let mut xs = Vec::with_capacity(n)` / `rels: Vec::with_capacity(n)`
        // / `xs.reserve(n)` — harvest the identifier left of `=`, `:`, or `.`.
        for sep in ['=', ':'] {
            if let Some(pos) = code.find(sep) {
                if let Some(name) = last_ident(&code[..pos]) {
                    push_unique(&mut names, name);
                }
            }
        }
        for pat in [".reserve(", ".resize("] {
            if let Some(pos) = code.find(pat) {
                if let Some(name) = last_ident(&code[..pos]) {
                    push_unique(&mut names, name);
                }
            }
        }
    }
    names.sort();
    names
}

fn push_unique(names: &mut Vec<String>, name: String) {
    if !name.is_empty() && !names.contains(&name) {
        names.push(name);
    }
}

fn record_line_events(
    top: &mut OpenFn,
    line: &Line,
    line_no: usize,
    crate_dir: &str,
    rwlocks: &[String],
    depth: i64,
) {
    let code = line.code.as_str();
    let in_loop = !top.loop_depths.is_empty();
    let held: Vec<String> =
        top.guards.iter().map(|(_, lock, _)| lock.clone()).collect();

    // Effect sites.
    for (pat, why) in crate::rules::no_panic::CALLS {
        if code.contains(pat) {
            top.facts.panic_sites.push(Site { line: line_no, what: (*why).to_string(), in_loop });
        }
    }
    for mac in crate::rules::no_panic::MACROS {
        if !crate::rules::find_token(code, mac.trim_end_matches('!')).is_empty()
            && code.contains(mac)
        {
            top.facts.panic_sites.push(Site {
                line: line_no,
                what: format!("`{mac}`"),
                in_loop,
            });
        }
    }
    for idx in crate::rules::no_panic::panicky_indexing(code) {
        top.facts.panic_sites.push(Site {
            line: line_no,
            what: format!("panic-prone index `[{idx}]`"),
            in_loop,
        });
    }
    for pat in ALLOC_PATTERNS {
        if code.contains(pat) {
            top.facts.alloc_sites.push(Site {
                line: line_no,
                what: pat.trim_end_matches('(').to_string(),
                in_loop,
            });
        }
    }
    for pat in BLOCK_PATTERNS {
        if code.contains(pat) {
            top.facts.block_sites.push(Site {
                line: line_no,
                what: pat.trim_end_matches('(').to_string(),
                in_loop,
            });
        }
    }
    for pat in TRANSCENDENTAL_PATTERNS {
        if code.contains(pat) {
            top.facts.transcendental_sites.push(Site {
                line: line_no,
                what: pat.trim_end_matches('(').to_string(),
                in_loop,
            });
        }
    }

    // Lock acquisitions: `lock_unpoisoned(&x.y)`, `x.lock()`, and
    // `.read()`/`.write()` on identifiers declared as RwLock in this file.
    let mut acquired: Vec<String> = Vec::new();
    let mut start = 0;
    while let Some(pos) = code[start..].find("lock_unpoisoned(") {
        let at = start + pos + "lock_unpoisoned(".len();
        let arg: String = code[at..]
            .chars()
            .take_while(|&c| c != ')' && c != ',')
            .collect();
        if let Some(name) = last_ident(&arg) {
            acquired.push(format!("{crate_dir}/{name}"));
        }
        start = at;
    }
    for pat in [".lock()"] {
        let mut from = 0;
        while let Some(pos) = code[from..].find(pat) {
            let at = from + pos;
            if let Some(name) = last_ident(&code[..at]) {
                acquired.push(format!("{crate_dir}/{name}"));
            }
            from = at + pat.len();
        }
    }
    for pat in [".read()", ".write()"] {
        let mut from = 0;
        while let Some(pos) = code[from..].find(pat) {
            let at = from + pos;
            if let Some(name) = last_ident(&code[..at]) {
                if rwlocks.contains(&name) {
                    acquired.push(format!("{crate_dir}/{name}"));
                }
            }
            from = at + pat.len();
        }
    }
    let is_binding = code.trim_start().starts_with("let ");
    for lock in acquired {
        top.facts.locks.push(LockSite { lock: lock.clone(), line: line_no, held: held.clone() });
        if is_binding {
            let binding = code
                .trim_start()
                .trim_start_matches("let ")
                .trim_start_matches("mut ")
                .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .next()
                .unwrap_or("")
                .to_string();
            top.guards.push((binding, lock, depth));
        }
    }

    // Explicit `drop(guard)` releases.
    let mut from = 0;
    while let Some(pos) = code[from..].find("drop(") {
        let at = from + pos + "drop(".len();
        let name: String = code[at..]
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        top.guards.retain(|(binding, _, _)| *binding != name);
        from = at;
    }

    // Sends and fan-out (and whether a guard was live at the time).
    if code.contains(".send(") {
        top.facts.send_sites.push(Site { line: line_no, what: ".send".to_string(), in_loop });
        if !held.is_empty() {
            top.facts.sends_under_lock.push((line_no, held.clone()));
        }
    }
    if code.contains("thread::scope(") {
        top.facts
            .fanout_sites
            .push(Site { line: line_no, what: "thread::scope".to_string(), in_loop });
        if !held.is_empty() {
            top.facts.fanout_under_lock.push((line_no, held.clone()));
        }
    }

    let mut from = 0;
    while let Some(pos) = code[from..].find(".push(") {
        let at = from + pos;
        if let Some(receiver) = last_ident(&code[..at]) {
            top.facts.pushes.push(PushSite { receiver, line: line_no, in_loop });
        }
        from = at + ".push(".len();
    }
}

/// The `crates/<name>` (or top-level dir) prefix used to namespace locks.
fn crate_dir(rel: &str) -> String {
    let parts: Vec<&str> = rel.split('/').collect();
    if parts.len() >= 2 && parts[0] == "crates" {
        format!("{}/{}", parts[0], parts[1])
    } else {
        parts.first().copied().unwrap_or("").to_string()
    }
}

/// Identifiers declared as `RwLock` somewhere in this file.
fn rwlock_names(file: &SourceFile) -> Vec<String> {
    let mut names = Vec::new();
    for line in &file.lines {
        let code = line.code.as_str();
        let Some(pos) =
            ["RwLock<", "RwLock::new"].iter().filter_map(|p| code.find(p)).min()
        else {
            continue;
        };
        let before = &code[..pos];
        let name = if let Some(let_pos) = before.rfind("let ") {
            before[let_pos + 4..]
                .trim_start()
                .trim_start_matches("mut ")
                .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .next()
                .unwrap_or("")
                .to_string()
        } else if let Some(colon) = before.rfind(':') {
            last_ident(&before[..colon]).unwrap_or_default()
        } else {
            String::new()
        };
        push_unique(&mut names, name);
    }
    names
}

/// The trailing identifier of an expression fragment (`&self.pool` → `pool`,
/// `st.rels` → `rels`). Returns `None` when the fragment ends elsewhere.
fn last_ident(fragment: &str) -> Option<String> {
    let trimmed = fragment.trim_end();
    let tail: String = trimmed
        .chars()
        .rev()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
        .collect();
    if tail.is_empty() || tail.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        None
    } else {
        Some(tail)
    }
}

/// If `code` defines a function, its name.
fn fn_def_name(code: &str) -> Option<String> {
    for pos in crate::rules::find_token(code, "fn") {
        let rest = code[pos + 2..].trim_start();
        let name: String = rest
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        if !name.is_empty() {
            return Some(name);
        }
    }
    None
}

/// If `code` opens an `impl` or `trait` block, the implemented type's (or
/// the trait's) last path segment (`impl<T> Fft2d<T>` → `Fft2d`,
/// `impl Default for Foo` → `Foo`, `trait Rule` → `Rule`) and whether the
/// block's methods are trait methods.
fn impl_type(code: &str) -> Option<(String, bool)> {
    let Some(&pos) = crate::rules::find_token(code, "impl").first() else {
        let pos = *crate::rules::find_token(code, "trait").first()?;
        let name: String = code[pos + 5..]
            .trim_start()
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        return (!name.is_empty()).then_some((name, true));
    };
    let mut rest = &code[pos + 4..];
    // Skip a generic parameter list directly after `impl`.
    if rest.starts_with('<') {
        let mut depth = 0usize;
        let mut end = 0;
        for (i, c) in rest.char_indices() {
            match c {
                '<' => depth += 1,
                '>' => {
                    depth -= 1;
                    if depth == 0 {
                        end = i + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        rest = &rest[end..];
    }
    let rest = rest.trim_start();
    let for_pos = rest.find(" for ");
    let mut target = for_pos.map_or(rest, |p| &rest[p + 5..]);
    // `for &'a mut Type`: skip the reference, lifetime and mutability.
    loop {
        target = target.trim_start().trim_start_matches('&');
        if target.starts_with('\'') {
            target = target.split_once(' ').map_or("", |(_, r)| r);
        } else if let Some(r) = target.strip_prefix("mut ") {
            target = r;
        } else {
            break;
        }
    }
    let head: &str = target
        .split(|c: char| c == '<' || c == '{' || c.is_whitespace())
        .next()
        .unwrap_or("");
    let name = head.rsplit("::").next().unwrap_or("");
    // A trait may be implemented for a primitive (`impl Mul<C> for f64`).
    let type_like = name.chars().next().is_some_and(|c| c.is_ascii_uppercase());
    if type_like || (for_pos.is_some() && !name.is_empty()) {
        Some((name.to_string(), for_pos.is_some()))
    } else {
        None
    }
}

/// Whether this line opens a loop body.
fn is_loop_header(code: &str) -> bool {
    !crate::rules::find_token(code, "for").is_empty()
        || !crate::rules::find_token(code, "while").is_empty()
        || !crate::rules::find_token(code, "loop").is_empty()
}

/// Extracts raw call sites from one code line.
fn extract_calls(code: &str) -> Vec<RawCall> {
    let bytes = code.as_bytes();
    let mut calls = Vec::new();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'(' {
            continue;
        }
        // Scan the identifier directly before the paren.
        let mut start = i;
        while start > 0
            && (bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_')
        {
            start -= 1;
        }
        if start == i {
            continue; // no identifier: grouping paren, tuple, closure call
        }
        let name = &code[start..i];
        if CALL_KEYWORDS.contains(&name) {
            continue;
        }
        let before = &code[..start];
        // `fn name(` is a definition, not a call.
        if before.trim_end().ends_with("fn") {
            continue;
        }
        if before.ends_with("::") {
            // Qualified call: harvest the segment before the `::`.
            let path_part = before.trim_end_matches("::");
            let qualifier = last_ident(path_part).unwrap_or_default();
            calls.push(RawCall::bare(name, qualifier));
        } else if before.ends_with('.') {
            // Method call: note whether the receiver chain starts at self.
            let chain: String = before
                .trim_end_matches('.')
                .chars()
                .rev()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_' || *c == '.')
                .collect::<Vec<_>>()
                .into_iter()
                .rev()
                .collect();
            let on_self = chain == "self" || chain.starts_with("self.");
            calls.push(RawCall {
                is_method: true,
                on_self,
                ..RawCall::bare(name, String::new())
            });
        } else {
            // Bare call. Uppercase-initial bare names are tuple-struct or
            // enum constructors (`Some(`, `FnId(`) — never workspace fns.
            if name.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
                continue;
            }
            calls.push(RawCall::bare(name, String::new()));
        }
    }
    calls.extend(value_paths(code));
    calls
}

/// Function paths passed as values: a whole argument that is a bare path
/// with a lowercase last segment (`.map(Json::from)`, `sort_by(cmp)`).
/// Local variables match too, so a resolved reference can be spurious;
/// the model keeps these edges out of the effect summaries.
fn value_paths(code: &str) -> Vec<RawCall> {
    let is_ident = |s: &str| {
        s.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
            && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
    };
    code.match_indices(['(', ','])
        .filter_map(|(start, _)| {
            let arg = &code[start + 1..];
            let end = arg
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == ':' || c == ' '))
                .unwrap_or(arg.len());
            if !arg[end..].starts_with([')', ',']) {
                return None;
            }
            let mut segments: Vec<&str> = arg[..end].trim().split("::").collect();
            let name = segments.pop()?;
            let keep = is_ident(name)
                && segments.iter().all(|s| is_ident(s))
                && !name.starts_with(|c: char| c.is_ascii_uppercase())
                && !matches!(name, "self" | "true" | "false" | "_");
            let qualifier = segments.last().copied().unwrap_or("").to_string();
            keep.then(|| RawCall { by_value: true, ..RawCall::bare(name, qualifier) })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn extract(src: &str) -> Vec<FnFacts> {
        let file = SourceFile::scan("crates/x/src/a.rs", src);
        let cfg = Config::new(std::path::PathBuf::from("/nonexistent"));
        extract_file(&file, &cfg)
    }

    #[test]
    fn fn_extents_and_owner() {
        let facts = extract(
            "impl<T: Real> Fft2d<T> {\n\
             \x20   pub fn forward(&self) {\n\
             \x20       self.pass();\n\
             \x20   }\n\
             }\n\
             fn free(\n\
             \x20   x: usize,\n\
             ) -> usize {\n\
             \x20   x\n\
             }\n",
        );
        assert_eq!(facts.len(), 2);
        assert_eq!(facts[0].name, "forward");
        assert_eq!(facts[0].owner.as_deref(), Some("Fft2d"));
        assert_eq!((facts[0].line, facts[0].end_line), (2, 4));
        assert_eq!(facts[1].name, "free");
        assert_eq!((facts[1].line, facts[1].end_line), (6, 10));
        assert!(facts[1].owner.is_none());
    }

    #[test]
    fn effect_sites_and_loops() {
        let facts = extract(
            "fn f(v: &[u32]) {\n\
             \x20   let a = v.first().unwrap();\n\
             \x20   for i in 0..4 {\n\
             \x20       let s = format!(\"x\");\n\
             \x20       let t = (0.5f64).sin();\n\
             \x20   }\n\
             \x20   let b = Vec::new();\n\
             }\n",
        );
        let f = &facts[0];
        assert_eq!(f.panic_sites.len(), 1);
        assert!(!f.panic_sites[0].in_loop);
        let fmt = f.alloc_sites.iter().find(|s| s.what == "format!").unwrap();
        assert!(fmt.in_loop);
        let vecnew = f.alloc_sites.iter().find(|s| s.what == "Vec::new").unwrap();
        assert!(!vecnew.in_loop);
        assert_eq!(f.transcendental_sites.len(), 1);
        assert!(f.transcendental_sites[0].in_loop);
    }

    #[test]
    fn call_kinds() {
        let facts = extract(
            "fn f() {\n\
             \x20   helper();\n\
             \x20   module::qualified();\n\
             \x20   Type::assoc();\n\
             \x20   self.method();\n\
             \x20   value.other();\n\
             \x20   mac!(arg);\n\
             \x20   Some(3);\n\
             \x20   if !negated() {}\n\
             \x20   xs.map(Json::from);\n\
             }\n",
        );
        let (values, calls): (Vec<&RawCall>, Vec<&RawCall>) =
            facts[0].calls.iter().partition(|c| c.by_value);
        let names: Vec<&str> = calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["helper", "qualified", "assoc", "method", "other", "negated", "map"]);
        assert_eq!(calls[1].qualifier, "module");
        assert_eq!(calls[2].qualifier, "Type");
        assert!(calls[3].is_method && calls[3].on_self);
        assert!(calls[4].is_method && !calls[4].on_self);
        // A whole argument that is a path is a value; `arg` is one too, a
        // local that resolves only if some fn shares its name.
        let values: Vec<(&str, &str)> =
            values.iter().map(|c| (c.qualifier.as_str(), c.name.as_str())).collect();
        assert_eq!(values, vec![("", "arg"), ("Json", "from")]);
    }

    #[test]
    fn trait_methods_and_item_level_calls() {
        let facts = extract(
            "use crate::rows::{row, other};\n\
             trait Rule {\n\
             \x20   fn check(&self) {}\n\
             }\n\
             impl Rule for &'a mut f64 {\n\
             \x20   fn check(&self) {}\n\
             }\n\
             impl Plain {\n\
             \x20   fn own(&self) {}\n\
             }\n\
             const ROWS: &[Row] = &[row(1)];\n",
        );
        let shape: Vec<(&str, Option<&str>, bool)> =
            facts.iter().map(|f| (f.name.as_str(), f.owner.as_deref(), f.trait_method)).collect();
        assert_eq!(
            shape,
            vec![
                (ITEMS, None, false),
                ("check", Some("Rule"), true),
                ("check", Some("f64"), true),
                ("own", Some("Plain"), false),
            ]
        );
        let item_calls: Vec<&str> = facts[0].calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(item_calls, vec!["row"], "a `use` names paths but calls nothing");
    }

    #[test]
    fn lock_liveness_and_ordering() {
        let facts = extract(
            "fn f(&self) {\n\
             \x20   let a = lock_unpoisoned(&self.pool);\n\
             \x20   let b = self.cache.lock();\n\
             \x20   helper();\n\
             \x20   drop(a);\n\
             \x20   other();\n\
             }\n",
        );
        let f = &facts[0];
        assert_eq!(f.locks.len(), 2);
        assert_eq!(f.locks[0].lock, "crates/x/pool");
        assert!(f.locks[0].held.is_empty());
        assert_eq!(f.locks[1].held, vec!["crates/x/pool".to_string()]);
        let helper = f.calls.iter().find(|c| c.name == "helper").unwrap();
        assert_eq!(helper.held_locks.len(), 2);
        let other = f.calls.iter().find(|c| c.name == "other").unwrap();
        assert_eq!(other.held_locks, vec!["crates/x/cache".to_string()]);
    }

    #[test]
    fn guard_scope_ends_with_block() {
        let facts = extract(
            "fn f(&self) {\n\
             \x20   {\n\
             \x20       let g = self.m.lock();\n\
             \x20   }\n\
             \x20   after();\n\
             }\n",
        );
        let after = facts[0].calls.iter().find(|c| c.name == "after").unwrap();
        assert!(after.held_locks.is_empty(), "{:?}", after.held_locks);
    }

    #[test]
    fn presized_evidence() {
        let file = SourceFile::scan(
            "crates/x/src/a.rs",
            "let mut xs = Vec::with_capacity(8);\n\
             rels: Vec::with_capacity(cap),\n\
             ys.reserve(16);\n",
        );
        let names = presized_idents(&file);
        assert!(names.contains(&"xs".to_string()));
        assert!(names.contains(&"rels".to_string()));
        assert!(names.contains(&"ys".to_string()));
    }

    #[test]
    fn markers_designate_fns() {
        let facts = extract(
            "// holoar-lint: hot-entry\n\
             pub fn entry() { helper(); }\n\
             // holoar-lint: frame-loop\n\
             fn frame() {}\n\
             fn plain() {}\n",
        );
        assert!(facts[0].is_entry && !facts[0].is_frame_loop);
        assert!(facts[1].is_frame_loop && !facts[1].is_entry);
        assert!(!facts[2].is_entry && !facts[2].is_frame_loop);
    }

    #[test]
    fn test_code_is_opaque() {
        let facts = extract(
            "fn hot() { x.unwrap(); }\n\
             #[cfg(test)]\n\
             mod tests {\n\
             \x20   fn t() { y.unwrap(); }\n\
             }\n",
        );
        assert_eq!(facts.len(), 2);
        assert_eq!(facts[0].panic_sites.len(), 1);
        assert!(facts[1].in_test);
        assert!(facts[1].panic_sites.is_empty());
    }
}
