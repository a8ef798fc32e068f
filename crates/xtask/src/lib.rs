//! `xtask` — the workspace static-analysis pass (`cargo xtask lint` /
//! `cargo xtask analyze`).
//!
//! Every headline number this reproduction pins (the 236,744,750 LSH /
//! 56,156,606 SA-LSH paper-scale pair counts, byte-identical 1-vs-N-thread
//! output, per-batch deltas that sum exactly to one-shot metrics) rests on
//! source-level invariants that `rustc` cannot enforce: ordered iteration on
//! output paths, checked record-id narrowing, parallelism confined to
//! `core::parallel`, and the named `MAX_RECORD_ID` sentinel. Since PR 9 the
//! service layer adds *protocol* invariants that span function and file
//! boundaries — append-before-apply WAL ordering, a single lock-acquisition
//! order, no panics on request paths, temp+fsync+rename for durable files.
//! This crate is a dependency-free static-analysis pass over the workspace
//! that enforces both kinds at CI time, long before a golden test at paper
//! scale (or a crash in production) could notice.
//!
//! Structure:
//!
//! * [`lexer`] — a hand-rolled Rust lexer (strings, raw strings, chars,
//!   nested block comments) producing a position-tagged token stream;
//! * [`engine`] — scope classification, `#[cfg(test)]` region masking,
//!   `// sablock-lint: allow(<rule>): <reason>` markers (unused allows are
//!   errors) and diagnostic assembly;
//! * [`rules`] — the token-stream rules; see `docs/LINTS.md`;
//! * [`parser`] — an item-level parser on the same lexer: modules, `use`
//!   trees, functions, impl/trait methods, call expressions, panic sites;
//! * [`graph`] — the workspace symbol table and over-approximate call graph;
//! * [`semantic`] — the four interprocedural rules riding that graph.
//!
//! The dynamic complement is the `check-invariants` cargo feature
//! (`sablock_core` run ordering / delta disjointness / tombstone
//! consistency; `sablock_serve` lock-acquisition-order guard), which asserts
//! at runtime what these rules cannot prove statically.

#![warn(missing_docs)]

pub mod engine;
pub mod graph;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod semantic;

use std::path::{Path, PathBuf};

pub use engine::{analyze_path_source, analyze_source, classify, Diagnostic, Scope};

use engine::{analyze_source_full, Finding, SemanticAllow};
use graph::{CallGraph, Model, ModelFile};

/// Recursively collects the workspace's lintable `.rs` files (relative to
/// `root`), skipping `vendor/`, `target/`, `fixtures/` (the analyzer's
/// deliberately-broken test workspaces), hidden directories and nested
/// Cargo workspaces (a subdirectory whose `Cargo.toml` declares its own
/// `[workspace]` is not a member of the root's). Paths come back sorted for
/// deterministic diagnostic order.
pub fn collect_workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "vendor"
                    || name == "target"
                    || name == "fixtures"
                    || name.starts_with('.')
                    || declares_workspace(&path.join("Cargo.toml"))
                {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Whether a manifest declares a Cargo workspace of its own (a `[workspace]`
/// or `[workspace.*]` table). A missing or unreadable manifest declares none.
fn declares_workspace(manifest: &Path) -> bool {
    std::fs::read_to_string(manifest).is_ok_and(|text| {
        text.lines().map(str::trim).any(|line| line == "[workspace]" || line.starts_with("[workspace."))
    })
}

/// The result of a full workspace analysis: every diagnostic (suppressed
/// ones included, flagged via [`Diagnostic::allowed`]) plus the semantic
/// model and call graph behind them (for `--graph-dot`).
pub struct WorkspaceAnalysis {
    /// All diagnostics, sorted by (file, line, col); only those with
    /// `allowed == None` should fail a build.
    pub diagnostics: Vec<Diagnostic>,
    /// The parsed library files the semantic pass analyzed.
    pub model: Model,
    /// The call graph built over `model`.
    pub graph: CallGraph,
}

impl WorkspaceAnalysis {
    /// The active (unsuppressed) diagnostics.
    pub fn active(&self) -> Vec<&Diagnostic> {
        self.diagnostics.iter().filter(|d| d.allowed.is_none()).collect()
    }
}

/// Analyzes a set of in-memory sources as one workspace: the token rules
/// per file, then the semantic pass over every `Lib`-scope file. `sources`
/// are (workspace-relative path, contents) pairs; out-of-scope paths are
/// ignored. This is the core both [`lint_workspace_all`] and the fixture
/// tests drive.
pub fn analyze_sources(sources: &[(String, String)]) -> WorkspaceAnalysis {
    let mut sorted: Vec<&(String, String)> = sources.iter().collect();
    sorted.sort_by(|a, b| a.0.cmp(&b.0));

    let mut diagnostics: Vec<Diagnostic> = Vec::new();
    let mut model = Model::default();
    let mut allows: Vec<Vec<SemanticAllow>> = Vec::new();
    for (rel, source) in sorted {
        let Some(scope) = classify(rel) else { continue };
        let analysis = analyze_source_full(rel, scope, source);
        diagnostics.extend(analysis.diagnostics);
        if scope == Scope::Lib {
            let parsed = parser::parse_file(&analysis.tokens, &analysis.in_test);
            model.files.push(ModelFile {
                path: rel.clone(),
                scope,
                tokens: analysis.tokens,
                in_test: analysis.in_test,
                parsed,
            });
            allows.push(analysis.semantic_allows);
        } else {
            // Semantic rules only run over library code, so a semantic-rule
            // allow anywhere else can never suppress anything: stale.
            for allow in analysis.semantic_allows {
                diagnostics.push(Diagnostic {
                    file: rel.clone(),
                    finding: Finding {
                        rule: "unused-allow",
                        message: format!(
                            "allow({}) suppresses nothing — semantic rules only apply to \
                             library sources; remove the marker",
                            allow.rule
                        ),
                        line: allow.line,
                        col: allow.col,
                    },
                    allowed: None,
                });
            }
        }
    }
    let call_graph = graph::build(&model);
    diagnostics.extend(semantic::run(&model, &call_graph, &mut allows));
    diagnostics.sort_by(|a, b| {
        (a.file.as_str(), a.finding.line, a.finding.col, a.finding.rule).cmp(&(
            b.file.as_str(),
            b.finding.line,
            b.finding.col,
            b.finding.rule,
        ))
    });
    WorkspaceAnalysis { diagnostics, model, graph: call_graph }
}

/// Reads and analyzes every in-scope file under `root` (token rules plus
/// the semantic pass); the complete, suppression-annotated view.
pub fn lint_workspace_all(root: &Path) -> std::io::Result<WorkspaceAnalysis> {
    let mut sources: Vec<(String, String)> = Vec::new();
    for path in collect_workspace_files(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let source = std::fs::read_to_string(&path)?;
        sources.push((rel, source));
    }
    Ok(analyze_sources(&sources))
}

/// Lints every in-scope file under `root` (token and semantic rules);
/// returns only the active diagnostics, sorted by (file, line, col).
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let mut analysis = lint_workspace_all(root)?;
    analysis.diagnostics.retain(|d| d.allowed.is_none());
    Ok(analysis.diagnostics)
}

/// Escapes a string for inclusion in a JSON string literal.
fn json_escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders diagnostics as the machine-readable `--json` document: one
/// finding object per line, suppressions kept with their reasons. The shape
/// is pinned by a golden test — bump `version` on any change.
pub fn render_json(diagnostics: &[Diagnostic]) -> String {
    let mut out = String::from("{\n  \"version\": 1,\n  \"findings\": [");
    for (i, d) in diagnostics.iter().enumerate() {
        let reason = match &d.allowed {
            Some(reason) => format!("\"{}\"", json_escape(reason)),
            None => "null".to_string(),
        };
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!(
            "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"col\": {}, \
             \"message\": \"{}\", \"allowed\": {}, \"allow_reason\": {}}}",
            json_escape(d.finding.rule),
            json_escape(&d.file),
            d.finding.line,
            d.finding.col,
            json_escape(&d.finding.message),
            d.allowed.is_some(),
            reason
        ));
    }
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_workspaces_are_not_collected() {
        let root = std::env::temp_dir().join(format!("xtask-nested-workspace-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let write = |rel: &str, text: &str| {
            let path = root.join(rel);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(path, text).unwrap();
        };
        write("Cargo.toml", "[workspace]\nmembers = [\"crates/*\"]\n");
        write("src/lib.rs", "");
        write("crates/member/Cargo.toml", "[package]\nname = \"member\"\n");
        write("crates/member/src/lib.rs", "");
        write("bench/Cargo.toml", "[package]\nname = \"bench\"\n\n[workspace]\n");
        write("bench/src/main.rs", "");

        let files = collect_workspace_files(&root).unwrap();
        let _ = std::fs::remove_dir_all(&root);
        let rel: Vec<String> = files
            .iter()
            .map(|path| path.strip_prefix(&root).unwrap().to_string_lossy().into_owned())
            .collect();
        assert_eq!(rel, ["crates/member/src/lib.rs", "src/lib.rs"]);
    }
}
