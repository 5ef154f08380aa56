//! Lint rules. Each rule is a cheap token-level scan over stripped source
//! (comments and string bodies already blanked by [`crate::lexer`]), so a
//! hazard hidden in prose or a doc example never fires, and one written in
//! code always does.

use crate::lexer::StrippedSource;
use std::collections::BTreeSet;
use std::fmt;

/// The lint rules, in severity order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// `HashMap`/`HashSet` iteration in a decision-path crate.
    NondetIter,
    /// `Instant::now` / `SystemTime` in simulation code.
    WallClock,
    /// `thread_rng` / OS entropy outside `simkit::rng`.
    AmbientRng,
    /// `partial_cmp`-based float ordering (panics or mis-sorts on NaN).
    NanCompare,
    /// `unwrap()` / `panic!` / empty `expect("")` in library code.
    LibUnwrap,
    /// Raw sockets or thread spawns outside `crates/net` — the one crate
    /// allowed to host real-I/O nondeterminism.
    NetFence,
    /// Direct access to the scheduler's raw pending store outside
    /// `crates/core/src/sched/` — everything else must go through the
    /// scheduler API so its indexes and dirty flag stay consistent.
    PendingFence,
    /// A cycle in the transitive lock-acquisition graph — two code paths
    /// take the same locks in opposite orders (emitted by the cross-file
    /// `locks` pass, see [`crate::locks`]).
    LockCycle,
    /// A blocking operation (channel send/recv, `write_all`, `join`,
    /// `accept`, …) executed while a lock guard is live.
    LockBlocking,
    /// A lock acquired out of the order declared in the workspace
    /// `locks.toml` manifest.
    LockHierarchy,
    /// The wire protocol diverged from the committed `schema.lock`
    /// (emitted by the `schema` pass, see [`crate::schema`]).
    SchemaDrift,
}

impl Rule {
    /// Stable rule name used in reports and the allowlist.
    pub fn name(self) -> &'static str {
        match self {
            Rule::NondetIter => "nondet-iter",
            Rule::WallClock => "wall-clock",
            Rule::AmbientRng => "ambient-rng",
            Rule::NanCompare => "nan-compare",
            Rule::LibUnwrap => "lib-unwrap",
            Rule::NetFence => "net-fence",
            Rule::PendingFence => "pending-fence",
            Rule::LockCycle => "lock-cycle",
            Rule::LockBlocking => "lock-blocking",
            Rule::LockHierarchy => "lock-hierarchy",
            Rule::SchemaDrift => "schema-drift",
        }
    }

    /// Parse a rule name as written in the allowlist.
    pub fn from_name(name: &str) -> Option<Rule> {
        Some(match name {
            "nondet-iter" => Rule::NondetIter,
            "wall-clock" => Rule::WallClock,
            "ambient-rng" => Rule::AmbientRng,
            "nan-compare" => Rule::NanCompare,
            "lib-unwrap" => Rule::LibUnwrap,
            "net-fence" => Rule::NetFence,
            "pending-fence" => Rule::PendingFence,
            "lock-cycle" => Rule::LockCycle,
            "lock-blocking" => Rule::LockBlocking,
            "lock-hierarchy" => Rule::LockHierarchy,
            "schema-drift" => Rule::SchemaDrift,
            _ => return None,
        })
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One lint hit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which rule fired.
    pub rule: Rule,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The trimmed *original* source line (allowlist key).
    pub excerpt: String,
    /// Human explanation of the hazard.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}:{}: {}\n    {}",
            self.rule, self.path, self.line, self.message, self.excerpt
        )
    }
}

/// Which rule families apply to the file being scanned.
#[derive(Debug, Clone, Copy)]
pub struct RuleSet {
    /// Flag hash-container iteration (decision-path crates).
    pub nondet_iter: bool,
    /// Flag wall-clock reads.
    pub wall_clock: bool,
    /// Flag ambient randomness.
    pub ambient_rng: bool,
    /// Flag NaN-unsafe comparisons.
    pub nan_compare: bool,
    /// Flag unwrap/panic in library code.
    pub lib_unwrap: bool,
    /// Flag raw sockets / thread spawns (everywhere except `crates/net`).
    pub net_fence: bool,
    /// Flag raw pending-store access (everywhere except
    /// `crates/core/src/sched/`).
    pub pending_fence: bool,
}

impl RuleSet {
    /// Everything on — used for explicitly-passed paths (fixtures).
    pub fn strict() -> Self {
        RuleSet {
            nondet_iter: true,
            wall_clock: true,
            ambient_rng: true,
            nan_compare: true,
            lib_unwrap: true,
            net_fence: true,
            pending_fence: true,
        }
    }
}

/// Names of identifiers declared with a hash-container type, collected
/// across a whole crate so cross-file field iteration is still caught.
pub type HashNames = BTreeSet<String>;

/// Record identifiers bound to `HashMap`/`HashSet` types in this source.
pub fn collect_hash_names(stripped: &StrippedSource, names: &mut HashNames) {
    for (_, line) in stripped.lines() {
        let declares_type = line.contains("HashMap<")
            || line.contains("HashSet<")
            || line.contains("HashMap ::")
            || line.contains("HashMap::new")
            || line.contains("HashMap::with_capacity")
            || line.contains("HashMap::default")
            || line.contains("HashSet::new")
            || line.contains("HashSet::with_capacity")
            || line.contains("HashSet::default");
        if !declares_type {
            continue;
        }
        // `name: HashMap<..>` / `name: Vec<HashMap<..>>` / fn params: the
        // identifier before the first `:` on the line.
        if let Some(colon) = line.find(':') {
            if let Some(ident) = last_ident_before(line, colon) {
                names.insert(ident.to_owned());
            }
        }
        // `let [mut] name = HashMap::new()` bindings.
        if let Some(rest) = line.trim_start().strip_prefix("let ") {
            let rest = rest
                .trim_start()
                .strip_prefix("mut ")
                .unwrap_or(rest.trim_start());
            let ident: String = rest
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if !ident.is_empty() && !ident.chars().next().is_some_and(|c| c.is_ascii_digit()) {
                names.insert(ident);
            }
        }
    }
}

/// Run the configured rules over one stripped file.
pub fn check(
    stripped: &StrippedSource,
    original: &str,
    path: &str,
    rules: RuleSet,
    hash_names: &HashNames,
    findings: &mut Vec<Finding>,
) {
    let original_lines: Vec<&str> = original.lines().collect();
    let excerpt = |n: usize| -> String {
        original_lines
            .get(n - 1)
            .map(|l| l.trim().to_owned())
            .unwrap_or_default()
    };

    for (n, line) in stripped.lines() {
        let in_test = stripped.in_test_region(n);

        if rules.wall_clock && !in_test {
            if let Some(tok) = ["Instant::now", "SystemTime"]
                .iter()
                .find(|t| has_token(line, t))
            {
                findings.push(Finding {
                    rule: Rule::WallClock,
                    path: path.to_owned(),
                    line: n,
                    excerpt: excerpt(n),
                    message: format!(
                        "wall-clock read `{tok}` in simulation code; observe simkit::SimTime instead"
                    ),
                });
            }
        }

        if rules.ambient_rng && !in_test {
            if let Some(tok) = ["thread_rng", "OsRng", "from_entropy", "getrandom"]
                .iter()
                .find(|t| has_token(line, t))
            {
                findings.push(Finding {
                    rule: Rule::AmbientRng,
                    path: path.to_owned(),
                    line: n,
                    excerpt: excerpt(n),
                    message: format!(
                        "ambient randomness `{tok}`; derive a seeded stream from simkit::Rng instead"
                    ),
                });
            }
        }

        // `fn partial_cmp` is a PartialOrd *implementation*, not a use.
        if rules.nan_compare
            && !in_test
            && has_token(line, "partial_cmp")
            && !line.trim_start().starts_with("fn partial_cmp")
        {
            findings.push(Finding {
                rule: Rule::NanCompare,
                path: path.to_owned(),
                line: n,
                excerpt: excerpt(n),
                message: "NaN-unsafe float ordering via `partial_cmp`; use `f64::total_cmp`"
                    .to_owned(),
            });
        }

        if rules.lib_unwrap && !in_test {
            let hit = if line.contains(".unwrap()") {
                Some(".unwrap()")
            } else if line.contains("expect(\"\")") {
                Some("expect(\"\")")
            } else {
                ["panic!(", "unreachable!(", "todo!(", "unimplemented!("]
                    .into_iter()
                    .find(|t| line.contains(*t))
            };
            if let Some(tok) = hit {
                findings.push(Finding {
                    rule: Rule::LibUnwrap,
                    path: path.to_owned(),
                    line: n,
                    excerpt: excerpt(n),
                    message: format!(
                        "`{tok}` in library code; state the violated invariant via `expect(..)` or return a Result"
                    ),
                });
            }
        }

        if rules.net_fence && !in_test {
            if let Some(tok) = [
                "std::net",
                "TcpListener",
                "TcpStream",
                "UdpSocket",
                "thread::spawn",
                "crossbeam::scope",
                "thread::scope",
            ]
            .iter()
            .find(|t| has_token(line, t))
            {
                findings.push(Finding {
                    rule: Rule::NetFence,
                    path: path.to_owned(),
                    line: n,
                    excerpt: excerpt(n),
                    message: format!(
                        "real-I/O primitive `{tok}` outside crates/net; sockets and thread \
                         spawns live behind the dyrs-net Transport trait"
                    ),
                });
            }
        }

        if rules.pending_fence && !in_test {
            // `raw_pending` is the scheduler's entry slab; reached from
            // outside the sched module it bypasses the dirty-flag
            // bookkeeping.
            if has_token(line, "raw_pending") {
                findings.push(Finding {
                    rule: Rule::PendingFence,
                    path: path.to_owned(),
                    line: n,
                    excerpt: excerpt(n),
                    message: "raw pending-store access `raw_pending` outside \
                              crates/core/src/sched; go through the Scheduler API so its \
                              indexes and dirty flag stay consistent"
                        .to_owned(),
                });
            }
        }

        if rules.nondet_iter && !in_test {
            if let Some(name) = nondet_iteration(line, hash_names) {
                findings.push(Finding {
                    rule: Rule::NondetIter,
                    path: path.to_owned(),
                    line: n,
                    excerpt: excerpt(n),
                    message: format!(
                        "iteration over hash-ordered container `{name}` in a decision path; \
                         use a BTreeMap/BTreeSet or sort before use"
                    ),
                });
            }
        }
    }
}

/// Does this line iterate one of the known hash-container identifiers?
fn nondet_iteration<'a>(line: &str, names: &'a HashNames) -> Option<&'a str> {
    const ITER_METHODS: [&str; 8] = [
        ".iter()",
        ".iter_mut()",
        ".keys()",
        ".values()",
        ".values_mut()",
        ".into_iter()",
        ".drain(",
        ".retain(",
    ];
    let for_in = line
        .find(" in ")
        .filter(|_| line.trim_start().starts_with("for "));
    for name in names {
        let mut from = 0;
        while let Some(pos) = token_position(line, name, from) {
            from = pos + name.len();
            let after = &line[pos + name.len()..];
            // Allow an index expression between the name and the method,
            // e.g. `self.streams[node.index()].drain(..)`.
            let after = skip_index(after);
            if ITER_METHODS.iter().any(|m| after.starts_with(m)) {
                return Some(name);
            }
            // `for x in &self.name` / `for (_, v) in take(&mut self.name[i])`
            if let Some(in_pos) = for_in {
                if pos > in_pos {
                    return Some(name);
                }
            }
        }
    }
    None
}

/// Skip a balanced leading `[...]` (with nesting) if present.
fn skip_index(s: &str) -> &str {
    let bytes = s.as_bytes();
    if bytes.first() != Some(&b'[') {
        return s;
    }
    let mut depth = 0usize;
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'[' => depth += 1,
            b']' => {
                depth -= 1;
                if depth == 0 {
                    return &s[i + 1..];
                }
            }
            _ => {}
        }
    }
    s
}

/// Find `word` as a whole identifier token at or after `from`.
fn token_position(line: &str, word: &str, from: usize) -> Option<usize> {
    let bytes = line.as_bytes();
    let mut start = from;
    while let Some(rel) = line.get(start..)?.find(word) {
        let pos = start + rel;
        let before_ok = pos == 0 || !is_ident_byte(bytes[pos - 1]);
        let after = pos + word.len();
        let after_ok = after >= bytes.len() || !is_ident_byte(bytes[after]);
        if before_ok && after_ok {
            return Some(pos);
        }
        start = pos + 1;
    }
    None
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Whole-token containment (identifier boundaries on both sides).
fn has_token(line: &str, word: &str) -> bool {
    token_position(line, word, 0).is_some()
}

fn last_ident_before(line: &str, pos: usize) -> Option<&str> {
    let bytes = line.as_bytes();
    let mut end = pos;
    while end > 0 && bytes[end - 1] == b' ' {
        end -= 1;
    }
    let mut start = end;
    while start > 0 && is_ident_byte(bytes[start - 1]) {
        start -= 1;
    }
    if start == end {
        return None;
    }
    let ident = &line[start..end];
    if ident.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        return None;
    }
    const NOT_BINDINGS: [&str; 8] = [
        "crate", "std", "self", "Self", "super", "dyn", "impl", "where",
    ];
    if NOT_BINDINGS.contains(&ident) {
        return None;
    }
    Some(ident)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::strip;

    fn run(src: &str, rules: RuleSet) -> Vec<Finding> {
        let stripped = strip(src);
        let mut names = HashNames::new();
        collect_hash_names(&stripped, &mut names);
        let mut out = Vec::new();
        check(&stripped, src, "x.rs", rules, &names, &mut out);
        out
    }

    #[test]
    fn flags_wall_clock_but_not_in_comments() {
        let f = run(
            "// Instant::now() is banned\nlet t = std::time::Instant::now();\n",
            RuleSet::strict(),
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::WallClock);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn flags_hashmap_iteration_across_decls() {
        let src = "struct S { streams: HashMap<u64, u32> }\n\
                   fn f(s: &S) { for (k, v) in s.streams.iter() { use_(k, v); } }\n";
        let f = run(src, RuleSet::strict());
        assert!(
            f.iter().any(|f| f.rule == Rule::NondetIter && f.line == 2),
            "{f:?}"
        );
    }

    #[test]
    fn flags_for_loop_over_taken_hashmap() {
        let src = "struct S { active: Vec<HashMap<u64, u32>> }\n\
                   fn f(s: &mut S, i: usize) {\n\
                   for (_, sid) in std::mem::take(&mut s.active[i]) { cancel(sid); }\n}\n";
        let f = run(src, RuleSet::strict());
        assert!(
            f.iter().any(|f| f.rule == Rule::NondetIter && f.line == 3),
            "{f:?}"
        );
    }

    #[test]
    fn keyed_access_is_fine() {
        let src = "struct S { m: HashMap<u64, u32> }\n\
                   fn f(s: &S) { let v = s.m.get(&3); drop(v); }\n";
        let f = run(src, RuleSet::strict());
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unwrap_flagged_outside_tests_only() {
        let src = "fn lib() { x.unwrap(); }\n\
                   #[cfg(test)]\nmod tests {\n fn t() { y.unwrap(); }\n}\n";
        let f = run(src, RuleSet::strict());
        let unwraps: Vec<_> = f.iter().filter(|f| f.rule == Rule::LibUnwrap).collect();
        assert_eq!(unwraps.len(), 1);
        assert_eq!(unwraps[0].line, 1);
    }

    #[test]
    fn unwrap_or_else_not_flagged() {
        let f = run("fn lib() { x.unwrap_or_else(|| 3); }\n", RuleSet::strict());
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn empty_expect_flagged_messaged_expect_fine() {
        let src = "fn a() { x.expect(\"\"); }\nfn b() { y.expect(\"queue non-empty\"); }\n";
        let f = run(src, RuleSet::strict());
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn partial_cmp_flagged() {
        let f = run(
            "fn s(v: &mut Vec<f64>) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n",
            RuleSet::strict(),
        );
        assert!(f.iter().any(|f| f.rule == Rule::NanCompare));
    }

    #[test]
    fn raw_pending_access_flagged_but_not_longer_identifiers() {
        let f = run(
            "fn f(s: &Scheduler) -> usize { s.raw_pending.len() }\n",
            RuleSet::strict(),
        );
        assert!(f.iter().any(|f| f.rule == Rule::PendingFence), "{f:?}");
        let f = run(
            "fn f(raw_pending_depth: usize) -> usize { raw_pending_depth }\n",
            RuleSet::strict(),
        );
        assert!(
            !f.iter().any(|f| f.rule == Rule::PendingFence),
            "identifier boundaries must hold: {f:?}"
        );
    }

    #[test]
    fn thread_rng_flagged() {
        let f = run(
            "fn f() { let x = rand::thread_rng(); }\n",
            RuleSet::strict(),
        );
        assert!(f.iter().any(|f| f.rule == Rule::AmbientRng));
    }
}
