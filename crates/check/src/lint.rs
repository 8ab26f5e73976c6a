//! `xmap-lint` v2: the workspace's determinism auditor.
//!
//! PR 7's five token-level house rules now sit on a shared lexer
//! ([`crate::lex`]) and a lightweight parser layer ([`crate::parse`] — item
//! structure, `use` resolution, struct field lists; no `syn`, same offline
//! discipline), joined by four multi-pass rule families ([`crate::passes`])
//! aimed at the bit-identity killers the contracts can't see statically:
//!
//! * **ordering** — `Ordering::Relaxed`/`SeqCst` outside the audited
//!   concurrency files needs a `// lint: ordering` justification.
//! * **panic** — `.unwrap()`/`.expect()` in non-test library code needs
//!   `// lint: panic`.
//! * **float-eq** — `==`/`!=` against a float literal needs
//!   `// lint: float-eq`.
//! * **atomic-facade** — `std::sync::atomic` outside `xmap_engine::sync`
//!   bypasses the model checker; no escape.
//! * **surface-doc** — every `pub fn` in the read-surface files must be
//!   mentioned in `DESIGN.md`; no escape.
//! * **iter-order** — hash-container iteration in library code must discard
//!   order (sort, BTree, order-insensitive aggregation) or carry
//!   `// lint: iter-order`.
//! * **ambient-nondeterminism** — `Instant::now`/`SystemTime`/`thread_rng`/
//!   `from_entropy`/`std::env` banned outside the clock facade, bins, benches
//!   and tests.
//! * **codec-exhaustive** — every field of every struct with a `Codec` impl
//!   must appear in both `enc` and `dec` bodies (cross-file join).
//! * **lock-order** — the workspace Mutex-acquisition graph (built from
//!   nested-lock evidence) must be acyclic.
//!
//! Passes emit raw findings; this driver applies escape-tag suppression
//! uniformly ([`crate::tags::TagIndex`], line and `(block)` scopes) and turns
//! tags that suppressed nothing into stale-tag warnings.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use crate::lex::{ident_at, is_punct, Tok};
use crate::parse::{parse_file, ParsedFile};
use crate::passes;
use crate::tags::{TagIndex, Warning};

pub use crate::passes::codec::CodecField;

/// Which rule a [`Violation`] belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Rule {
    /// Extreme memory ordering outside the allowlist without a justification tag.
    Ordering,
    /// `.unwrap()` / `.expect()` in non-test library code.
    Panic,
    /// `==` / `!=` against a float literal.
    FloatEq,
    /// `std::sync::atomic` named outside the facade.
    AtomicFacade,
    /// A read-surface `pub fn` missing from `DESIGN.md`.
    SurfaceDoc,
    /// Hash-container iteration whose order can reach an output.
    IterOrder,
    /// Ambient clock/entropy/environment read in library code.
    Ambient,
    /// A `Codec` impl missing a field of its struct.
    CodecExhaustive,
    /// A cycle in the Mutex-acquisition graph.
    LockOrder,
}

impl Rule {
    /// All nine rules, in reporting order.
    pub fn all() -> [Rule; 9] {
        [
            Rule::Ordering,
            Rule::Panic,
            Rule::FloatEq,
            Rule::AtomicFacade,
            Rule::SurfaceDoc,
            Rule::IterOrder,
            Rule::Ambient,
            Rule::CodecExhaustive,
            Rule::LockOrder,
        ]
    }

    /// The rule's name — also its escape-tag spelling.
    pub fn name(self) -> &'static str {
        match self {
            Rule::Ordering => "ordering",
            Rule::Panic => "panic",
            Rule::FloatEq => "float-eq",
            Rule::AtomicFacade => "atomic-facade",
            Rule::SurfaceDoc => "surface-doc",
            Rule::IterOrder => "iter-order",
            Rule::Ambient => "ambient-nondeterminism",
            Rule::CodecExhaustive => "codec-exhaustive",
            Rule::LockOrder => "lock-order",
        }
    }

    /// Whether a `// lint: <tag>` justification can suppress the rule.
    /// The facade and doc rules are structural and carry no escape.
    pub fn escapable(self) -> bool {
        !matches!(self, Rule::AtomicFacade | Rule::SurfaceDoc)
    }

    /// Resolves a rule by its reported name.
    pub fn from_name(name: &str) -> Option<Rule> {
        Rule::all().into_iter().find(|r| r.name() == name)
    }

    /// The rule's rationale and escape syntax, for `xmap-lint --explain`.
    pub fn explain(self) -> &'static str {
        match self {
            Rule::Ordering => {
                "ordering — Ordering::Relaxed / Ordering::SeqCst outside the audited\n\
                 concurrency files (epoch.rs, engine/src/sync/).\n\
                 Relaxed hides reorderings the model checker must see; SeqCst hides a\n\
                 missing happens-before edge behind a global fence. Use Acquire/Release\n\
                 through the xmap_engine::sync facade, move the code into the audited\n\
                 files, or justify in-line:\n\
                 \n\
                 escape: `// lint: ordering <why this extreme ordering is correct>`\n\
                 scoped: `// lint: ordering (block) <why>` covers the next brace block"
            }
            Rule::Panic => {
                "panic — .unwrap() / .expect() in non-test library code (bins, tests/,\n\
                 benches/, examples/ and #[cfg(test)] items are exempt). A library panic\n\
                 takes down a serving node; return an error or use unwrap_or_else. A\n\
                 genuine invariant (checked just above, poisoning-free lock) may be\n\
                 justified in-line:\n\
                 \n\
                 escape: `// lint: panic <the invariant that makes this infallible>`\n\
                 scoped: `// lint: panic (block) <why>` covers the next brace block"
            }
            Rule::FloatEq => {
                "float-eq — == / != with a float literal comparand. Exact float equality\n\
                 is almost always a rounding bug; compare through an epsilon helper or\n\
                 total_cmp. Exact-sentinel checks (e.g. a 0.0 written by this very code)\n\
                 may be justified in-line:\n\
                 \n\
                 escape: `// lint: float-eq <why the comparison is exact by construction>`\n\
                 scoped: `// lint: float-eq (block) <why>` covers the next brace block"
            }
            Rule::AtomicFacade => {
                "atomic-facade — std::sync::atomic / core::sync::atomic named outside\n\
                 xmap-engine's sync facade. Raw atomics bypass the model checker's\n\
                 instrumentation (vector clocks, seeded interleaving hooks), so races\n\
                 there are invisible to the concurrency test suite. Import atomics from\n\
                 xmap_engine::sync (crate::sync inside xmap-engine) instead.\n\
                 \n\
                 escape: none — move the code or extend the facade"
            }
            Rule::SurfaceDoc => {
                "surface-doc — a pub fn in the read-surface files (pipeline/epoch/\n\
                 persist/shard and the analyzer's own parser+passes) is not mentioned\n\
                 in DESIGN.md. The surface doc is the contract readers audit against;\n\
                 an undocumented entry point is an unaudited one. Document the\n\
                 function in DESIGN.md (by name) or unexport it.\n\
                 \n\
                 escape: none — the doc is the point"
            }
            Rule::IterOrder => {
                "iter-order — iteration over a std HashMap/HashSet in library code.\n\
                 Hash iteration order is unspecified and changes across runs, inserts\n\
                 and platforms, so any order reaching an output breaks the bit-identity\n\
                 contracts (serve == serial reference, delta == refit, shard == single\n\
                 node). The pass accepts: order-insensitive aggregation terminals\n\
                 (count/len/is_empty/any/all/contains), collecting into BTreeMap/\n\
                 BTreeSet/HashMap/HashSet, an in-chain sort, or the collect-then-sort\n\
                 idiom (`let mut v: Vec<_> = m.keys().collect(); v.sort_unstable();`).\n\
                 Otherwise switch to a BTree container or sort — or justify why order\n\
                 provably cannot reach any output:\n\
                 \n\
                 escape: `// lint: iter-order <why order cannot surface>`\n\
                 scoped: `// lint: iter-order (block) <why>` covers the next brace block"
            }
            Rule::Ambient => {
                "ambient-nondeterminism — Instant::now / SystemTime / thread_rng /\n\
                 from_entropy / std::env in library code. Ambient reads make re-execution\n\
                 diverge: replayed fits, recovery-by-replay and the shard/serial identity\n\
                 gates all assume a run is a function of its inputs. Timing goes through\n\
                 the xmap_engine::clock Stopwatch facade (the one file allowed to touch\n\
                 Instant); RNG derives from explicit (seed, key) streams; configuration\n\
                 is threaded as parameters. Bins, benches and tests are exempt.\n\
                 \n\
                 escape: `// lint: ambient-nondeterminism <why the read is harmless>`\n\
                 scoped: `// lint: ambient-nondeterminism (block) <why>`"
            }
            Rule::CodecExhaustive => {
                "codec-exhaustive — a struct with a Codec impl has a field that does not\n\
                 appear in both the enc and the dec body (cross-file join of every\n\
                 `impl Codec for T` against the workspace's struct definitions). A\n\
                 forgotten field makes snapshot/journal round-trips silently lossy —\n\
                 format drift becomes a corruption bug at recovery time. Persist the\n\
                 field, or justify a genuinely derived/rebuilt-on-load field:\n\
                 \n\
                 escape: `// lint: codec-exhaustive <why the field is rebuilt on load>`\n\
                 (place on the impl header line)"
            }
            Rule::LockOrder => {
                "lock-order — a cycle in the workspace's Mutex-acquisition graph. The\n\
                 graph has an edge A → B for every `.lock()` of B made while a guard of\n\
                 A is still live in the same function (lexical liveness: let-bound guard\n\
                 to end of block or drop(); temporary to end of statement). A cycle means\n\
                 two call paths can take the same pair of locks in opposite orders —\n\
                 deadlock under the right interleaving. Pick one global order, or\n\
                 justify why the two paths can never interleave:\n\
                 \n\
                 escape: `// lint: lock-order <why the orders cannot interleave>`\n\
                 (place on the acquisition that closes the cycle)"
            }
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One finding: file, line and a human-readable message.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// The rule that fired.
    pub rule: Rule,
    /// What was found and how to fix or justify it.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Linter configuration: the allowlists and surface files, workspace-relative.
#[derive(Clone, Debug)]
pub struct Config {
    /// Files (or directory prefixes, ending in `/`) where `Ordering::Relaxed` /
    /// `Ordering::SeqCst` are allowed without a tag: the audited concurrency core.
    pub ordering_allowlist: Vec<String>,
    /// Directory prefix where `std::sync::atomic` may be named: the facade itself.
    pub atomic_allowlist: Vec<String>,
    /// Files whose `pub fn`s must each be mentioned in `DESIGN.md`.
    pub surface_files: Vec<String>,
    /// The one file allowed to read the ambient clock: the Stopwatch facade.
    pub clock_allowlist: Vec<String>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            ordering_allowlist: vec![
                "crates/engine/src/epoch.rs".into(),
                // The facade interprets orderings rather than using them; its
                // internals (shims, vector-clock runtime, seeded hooks) name every
                // ordering by construction.
                "crates/engine/src/sync/".into(),
            ],
            atomic_allowlist: vec!["crates/engine/src/sync/".into()],
            surface_files: vec![
                "crates/engine/src/epoch.rs".into(),
                "crates/core/src/pipeline.rs".into(),
                "crates/core/src/delta.rs".into(),
                // The durable-state surface: the model lifecycle entry points and
                // the on-disk snapshot/journal formats they rest on.
                "crates/core/src/persist.rs".into(),
                "crates/store/src/snapshot.rs".into(),
                "crates/store/src/journal.rs".into(),
                // The sharded-model surface: the shard map, slice and router the
                // simulated cluster serves from.
                "crates/core/src/shard.rs".into(),
                // The analyzer's own surface: the parser layer, the report, and
                // the clock facade the ambient rule funnels time through.
                "crates/check/src/lint.rs".into(),
                "crates/check/src/parse.rs".into(),
                "crates/check/src/report.rs".into(),
                "crates/check/src/passes/".into(),
                "crates/engine/src/clock.rs".into(),
            ],
            clock_allowlist: vec!["crates/engine/src/clock.rs".into()],
        }
    }
}

fn path_matches(path: &str, entry: &str) -> bool {
    if let Some(dir) = entry.strip_suffix('/') {
        path.starts_with(dir) && path[dir.len()..].starts_with('/')
    } else {
        path == entry
    }
}

/// Whether the library-code rules (panic, iter-order, ambient) apply to this
/// workspace-relative path: `src/` trees minus binaries and out-of-tree
/// test/bench/example code.
fn library_code(path: &str) -> bool {
    let in_src = path.contains("/src/") || path.starts_with("src/");
    let exempt = path.contains("/bin/")
        || path.contains("/tests/")
        || path.contains("/benches/")
        || path.contains("/examples/");
    in_src && !exempt
}

// ---------------------------------------------------------------------------
// Token rules (the original five), emitting raw findings
// ---------------------------------------------------------------------------

fn token_rules(pf: &ParsedFile, design: &str, config: &Config) -> Vec<Violation> {
    let path = pf.path.as_str();
    let tokens = &pf.tokens;
    let mut out = Vec::new();

    let ordering_allowed = config
        .ordering_allowlist
        .iter()
        .any(|e| path_matches(path, e));
    let atomic_allowed = config
        .atomic_allowlist
        .iter()
        .any(|e| path_matches(path, e));
    let is_surface = config.surface_files.iter().any(|e| path_matches(path, e));
    let panic_applies = library_code(path);

    for i in 0..tokens.len() {
        if pf.mask[i] {
            continue;
        }
        let line = tokens[i].line;

        // ordering: `Ordering` `::` `Relaxed|SeqCst`
        if !ordering_allowed
            && ident_at(tokens, i) == Some("Ordering")
            && is_punct(tokens, i + 1, "::")
        {
            if let Some(which @ ("Relaxed" | "SeqCst")) = ident_at(tokens, i + 2) {
                out.push(Violation {
                    file: path.to_string(),
                    line: tokens[i + 2].line,
                    rule: Rule::Ordering,
                    message: format!(
                        "Ordering::{which} outside the audited concurrency files; \
                         justify with `// lint: ordering` or move the code into the facade"
                    ),
                });
            }
        }

        // panic: `.` `unwrap|expect` `(`
        if panic_applies && is_punct(tokens, i, ".") {
            if let Some(name @ ("unwrap" | "expect")) = ident_at(tokens, i + 1) {
                if is_punct(tokens, i + 2, "(") {
                    out.push(Violation {
                        file: path.to_string(),
                        line: tokens[i + 1].line,
                        rule: Rule::Panic,
                        message: format!(
                            ".{name}() in library code; return an error, use \
                             unwrap_or_else, or justify an invariant with `// lint: panic`"
                        ),
                    });
                }
            }
        }

        // float-eq: float literal adjacent to == / !=
        if matches!(tokens[i].tok, Tok::Punct(ref p) if p == "==" || p == "!=") {
            let float_beside = matches!(
                tokens.get(i.wrapping_sub(1)).map(|t| &t.tok),
                Some(Tok::Float)
            ) || matches!(tokens.get(i + 1).map(|t| &t.tok), Some(Tok::Float));
            if float_beside {
                out.push(Violation {
                    file: path.to_string(),
                    line,
                    rule: Rule::FloatEq,
                    message: "exact float comparison; use an epsilon/total_cmp helper or tag an \
                              exact-sentinel check with `// lint: float-eq`"
                        .to_string(),
                });
            }
        }

        // atomic-facade: `std|core` `::` `sync` `::` `atomic`
        if !atomic_allowed
            && matches!(ident_at(tokens, i), Some("std") | Some("core"))
            && is_punct(tokens, i + 1, "::")
            && ident_at(tokens, i + 2) == Some("sync")
            && is_punct(tokens, i + 3, "::")
            && ident_at(tokens, i + 4) == Some("atomic")
        {
            out.push(Violation {
                file: path.to_string(),
                line,
                rule: Rule::AtomicFacade,
                message: "std::sync::atomic bypasses the model-check facade; import from \
                          xmap_engine::sync (crate::sync inside xmap-engine) instead"
                    .to_string(),
            });
        }
    }

    // surface-doc: every `pub fn` in a read-surface file must appear in DESIGN.md.
    if is_surface {
        for i in 0..tokens.len() {
            if pf.mask[i] {
                continue;
            }
            if ident_at(tokens, i) == Some("pub") && ident_at(tokens, i + 1) == Some("fn") {
                if let Some(name) = ident_at(tokens, i + 2) {
                    if !mentions_word(design, name) {
                        out.push(Violation {
                            file: path.to_string(),
                            line: tokens[i + 2].line,
                            rule: Rule::SurfaceDoc,
                            message: format!(
                                "pub fn `{name}` on the audited read surface is not \
                                 mentioned in DESIGN.md"
                            ),
                        });
                    }
                }
            }
        }
    }

    out
}

/// Word-boundary containment: `name` appears in `text` not embedded in a longer
/// identifier.
fn mentions_word(text: &str, name: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = text[start..].find(name) {
        let at = start + pos;
        let before_ok = at == 0
            || !text[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = at + name.len();
        let after_ok = after >= text.len()
            || !text[after..]
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        start = at + name.len().max(1);
    }
    false
}

// ---------------------------------------------------------------------------
// The audit driver
// ---------------------------------------------------------------------------

/// One audit run's outcome: suppressed-and-sorted findings plus non-fatal
/// warnings (stale or unknown escape tags) and the file count.
pub struct Audit {
    /// Findings that survived escape-tag suppression, ordered by file then line.
    pub findings: Vec<Violation>,
    /// Stale/unknown-tag warnings, ordered by file then line.
    pub warnings: Vec<Warning>,
    /// How many files were audited.
    pub files: usize,
}

/// Audits a set of sources: `(workspace-relative path, contents)` pairs.
/// `design` is `DESIGN.md`'s contents, used by the surface-doc rule. This is
/// the whole pipeline — parse, per-file passes, cross-file passes, suppression,
/// stale-tag detection — on in-memory sources, so tests (and the mutation
/// gate) can audit doctored workspaces without touching disk.
pub fn audit_sources(sources: &[(String, String)], design: &str, config: &Config) -> Audit {
    let parsed: Vec<ParsedFile> = sources
        .iter()
        .map(|(path, src)| parse_file(path, src))
        .collect();
    let mut tag_index = TagIndex::new(&parsed);

    let mut raw: Vec<Violation> = Vec::new();
    for pf in &parsed {
        raw.extend(token_rules(pf, design, config));
        if library_code(&pf.path) {
            raw.extend(passes::iter_order::check(pf));
            if !config
                .clock_allowlist
                .iter()
                .any(|e| path_matches(&pf.path, e))
            {
                raw.extend(passes::ambient::check(pf));
            }
        }
    }
    raw.extend(passes::codec::check(&parsed));
    raw.extend(passes::lock_order::check(&parsed));

    let mut findings: Vec<Violation> = raw
        .into_iter()
        .filter(|v| !(v.rule.escapable() && tag_index.covers(&v.file, v.line, v.rule.name())))
        .collect();
    findings.sort_by(|a, b| {
        a.file
            .cmp(&b.file)
            .then(a.line.cmp(&b.line))
            .then(a.rule.name().cmp(b.rule.name()))
    });

    let known: Vec<&str> = Rule::all()
        .into_iter()
        .filter(|r| r.escapable())
        .map(|r| r.name())
        .collect();
    let mut warnings = tag_index.stale(&known);
    warnings.sort_by(|a, b| a.file.cmp(&b.file).then(a.line.cmp(&b.line)));

    Audit {
        findings,
        warnings,
        files: parsed.len(),
    }
}

/// Lint one source file (workspace-relative `path`, contents `src`).
/// `design` is `DESIGN.md`'s contents, used by the surface-doc rule.
pub fn lint_source(path: &str, src: &str, design: &str, config: &Config) -> Vec<Violation> {
    audit_sources(&[(path.to_string(), src.to_string())], design, config).findings
}

/// The codec-exhaustive pass's work list over a set of sources: every
/// (type, field) pair it holds an impl accountable for, with the `enc`/`dec`
/// body line ranges. The mutation gate deletes each field's mention and
/// asserts the pass fires.
pub fn codec_surface(sources: &[(String, String)]) -> Vec<CodecField> {
    let parsed: Vec<ParsedFile> = sources
        .iter()
        .map(|(path, src)| parse_file(path, src))
        .collect();
    passes::codec::surface(&parsed)
}

// ---------------------------------------------------------------------------
// Workspace walking
// ---------------------------------------------------------------------------

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The `src/` trees the linter walks, workspace-relative: every first-party crate
/// plus the workspace facade. The vendor stand-ins are exempt (they mimic external
/// crates' APIs, panics and all).
fn lintable_roots(root: &Path) -> Vec<PathBuf> {
    let mut roots = Vec::new();
    let crates = root.join("crates");
    if let Ok(entries) = fs::read_dir(&crates) {
        let mut dirs: Vec<_> = entries.flatten().map(|e| e.path()).collect();
        dirs.sort();
        for dir in dirs {
            let src = dir.join("src");
            if src.is_dir() {
                roots.push(src);
            }
        }
    }
    let facade_src = root.join("src");
    if facade_src.is_dir() {
        roots.push(facade_src);
    }
    roots
}

/// Reads every lintable source under `root` as `(relative path, contents)`.
pub fn workspace_sources(root: &Path) -> Vec<(String, String)> {
    let mut files = Vec::new();
    for src_root in lintable_roots(root) {
        collect_rs_files(&src_root, &mut files);
    }
    let mut out = Vec::new();
    for file in files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        if let Ok(source) = fs::read_to_string(&file) {
            out.push((rel, source));
        }
    }
    out
}

/// Audits the whole workspace rooted at `root`. Missing `DESIGN.md` makes
/// every surface `pub fn` a finding rather than silently passing.
pub fn audit_workspace(root: &Path, config: &Config) -> Audit {
    let design = fs::read_to_string(root.join("DESIGN.md")).unwrap_or_default();
    audit_sources(&workspace_sources(root), &design, config)
}

/// Lints the whole workspace rooted at `root`. Returns all findings, ordered by
/// file then line. (Compatibility wrapper over [`audit_workspace`].)
pub fn run_workspace(root: &Path, config: &Config) -> Vec<Violation> {
    audit_workspace(root, config).findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_str(path: &str, src: &str) -> Vec<Violation> {
        lint_source(
            path,
            src,
            "DESIGN: mentions serve_fn here.",
            &Config::default(),
        )
    }

    #[test]
    fn relaxed_outside_allowlist_is_flagged() {
        let src = "fn f(a: &AtomicU64) -> u64 { a.load(Ordering::Relaxed) }";
        let v = lint_str("crates/core/src/pipeline.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::Ordering);
    }

    #[test]
    fn relaxed_with_tag_passes() {
        let src = "fn f(a: &AtomicU64) -> u64 {\n    // lint: ordering — monotone counter, no payload\n    a.load(Ordering::Relaxed)\n}";
        let v = lint_str("crates/core/src/pipeline.rs", src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn relaxed_in_allowlisted_file_passes() {
        let src = "fn f(a: &AtomicU64) -> u64 { a.load(Ordering::SeqCst) }";
        let v = lint_str("crates/engine/src/epoch.rs", src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn cmp_ordering_is_not_confused_with_atomic_ordering() {
        let src = "fn f() -> std::cmp::Ordering { std::cmp::Ordering::Less }";
        let v = lint_str("crates/core/src/pipeline.rs", src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn unwrap_in_library_is_flagged_and_tag_escapes() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }";
        let v = lint_str("crates/cf/src/matrix.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::Panic);

        let tagged = "fn f(x: Option<u8>) -> u8 { x.expect(\"invariant\") } // lint: panic";
        assert!(lint_str("crates/cf/src/matrix.rs", tagged).is_empty());
    }

    #[test]
    fn unwrap_in_tests_benches_and_cfg_test_is_exempt() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }";
        assert!(lint_str("crates/cf/tests/matrix.rs", src).is_empty());
        assert!(lint_str("crates/cf/benches/matrix.rs", src).is_empty());
        assert!(lint_str("crates/bench/src/bin/experiments.rs", src).is_empty());

        let cfg_test = "#[cfg(test)]\nmod tests {\n    fn g(x: Option<u8>) -> u8 { x.unwrap() }\n}\nfn keep() {}";
        assert!(lint_str("crates/cf/src/matrix.rs", cfg_test).is_empty());
    }

    #[test]
    fn unwrap_or_else_is_not_flagged() {
        let src = "fn f(m: &std::sync::Mutex<u8>) -> u8 { *m.lock().unwrap_or_else(std::sync::PoisonError::into_inner) }";
        let v = lint_str("crates/cf/src/matrix.rs", src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn float_eq_is_flagged_and_tag_escapes() {
        let src = "fn f(x: f64) -> bool { x == 0.0 }";
        let v = lint_str("crates/cf/src/matrix.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::FloatEq);

        let tagged = "fn f(x: f64) -> bool { x == 0.0 } // lint: float-eq exact zero sentinel";
        assert!(lint_str("crates/cf/src/matrix.rs", tagged).is_empty());

        let int_cmp = "fn f(x: u64) -> bool { x == 0 }";
        assert!(lint_str("crates/cf/src/matrix.rs", int_cmp).is_empty());
    }

    #[test]
    fn std_sync_atomic_outside_facade_is_flagged() {
        let src = "use std::sync::atomic::AtomicU64;";
        let v = lint_str("crates/cf/src/matrix.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::AtomicFacade);

        assert!(lint_str("crates/engine/src/sync/shim.rs", src).is_empty());
    }

    #[test]
    fn surface_pub_fn_must_be_in_design_md() {
        let src = "pub fn serve_fn() {}\npub fn undocumented_fn() {}";
        let v = lint_str("crates/core/src/pipeline.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::SurfaceDoc);
        assert!(v[0].message.contains("undocumented_fn"));

        // Non-surface files are not held to the rule.
        assert!(lint_str("crates/cf/src/matrix.rs", src).is_empty());
    }

    #[test]
    fn strings_comments_and_lifetimes_do_not_confuse_the_lexer() {
        let src = r##"
fn f<'a>(x: &'a str) -> bool {
    let _s = "Ordering::Relaxed .unwrap() 1.0 == 2.0";
    let _r = r#"x.unwrap()"#;
    let _c = '=';
    /* Ordering::SeqCst in a /* nested */ block comment */
    // Ordering::Relaxed in a line comment
    x.len() == 3
}
"##;
        let v = lint_str("crates/cf/src/matrix.rs", src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn range_and_method_calls_on_ints_are_not_floats() {
        let src = "fn f() -> bool { let v: Vec<u8> = (1..5).collect(); v.len() != 0 }";
        assert!(lint_str("crates/cf/src/matrix.rs", src).is_empty());
    }

    #[test]
    fn planted_fixture_is_rejected() {
        // The acceptance-criteria fixture: one file violating several rules at
        // once must produce a finding per rule.
        let src = r#"
use std::sync::atomic::{AtomicU64, Ordering};
pub fn planted(flag: &AtomicU64, x: Option<f64>) -> bool {
    let v = x.unwrap();
    flag.store(1, Ordering::Relaxed);
    v == 1.5
}
"#;
        let v = lint_str("crates/cf/src/planted.rs", src);
        let rules: Vec<Rule> = v.iter().map(|f| f.rule).collect();
        assert!(rules.contains(&Rule::AtomicFacade), "{v:?}");
        assert!(rules.contains(&Rule::Panic), "{v:?}");
        assert!(rules.contains(&Rule::Ordering), "{v:?}");
        assert!(rules.contains(&Rule::FloatEq), "{v:?}");
    }

    #[test]
    fn explain_names_every_rule() {
        for rule in Rule::all() {
            assert!(Rule::from_name(rule.name()) == Some(rule));
            assert!(rule.explain().contains(rule.name()), "{rule}");
            if rule.escapable() {
                assert!(rule.explain().contains("escape: `// lint:"), "{rule}");
            } else {
                assert!(rule.explain().contains("escape: none"), "{rule}");
            }
        }
    }

    #[test]
    fn unused_tag_surfaces_as_stale_warning() {
        let src = "// lint: iter-order nothing here actually iterates\nfn f() {}\n";
        let audit = audit_sources(
            &[("crates/cf/src/matrix.rs".into(), src.into())],
            "",
            &Config::default(),
        );
        assert!(audit.findings.is_empty(), "{:?}", audit.findings);
        assert_eq!(audit.warnings.len(), 1, "{:?}", audit.warnings);
        assert!(audit.warnings[0]
            .message
            .contains("stale lint tag `iter-order`"));
    }

    #[test]
    fn unknown_tag_surfaces_as_warning() {
        let src = "// lint: no-such-rule\nfn f() {}\n";
        let audit = audit_sources(
            &[("crates/cf/src/matrix.rs".into(), src.into())],
            "",
            &Config::default(),
        );
        assert_eq!(audit.warnings.len(), 1, "{:?}", audit.warnings);
        assert!(audit.warnings[0].message.contains("unknown lint tag"));
    }
}
