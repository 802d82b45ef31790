//! `docs_check` — std-only documentation link checker (CI docs job).
//!
//! Scans the operator-facing documents for
//!
//! 1. relative markdown links — `[text](path)` where `path` has no URL
//!    scheme — resolved against the linking file's directory, and
//! 2. backtick-quoted repo file references — `` `crates/net/src/event.rs` ``
//!    style paths (any `dir/file.ext` token, optionally `:line`-suffixed),
//!    resolved against the repository root,
//!
//! and exits nonzero listing every target that does not exist on disk. A
//! doc that names a source file which was later moved or renamed fails CI
//! instead of silently rotting.
//!
//! ```text
//! cargo run -p coalloc-bench --bin docs_check [-- ROOT]
//! ```

use std::path::{Path, PathBuf};

/// The documents under the checker's contract (repo-relative).
const DOCS: &[&str] = &[
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "ROADMAP.md",
    "docs/PROTOCOL.md",
    "docs/OPERATIONS.md",
];

/// Strip fenced code blocks (``` ... ```): link syntax inside a fence is
/// example text, not navigation. Backtick-path checking keeps the fences —
/// a fenced command line naming a repo file should still be valid.
fn without_fences(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut fenced = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            continue;
        }
        if !fenced {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

/// Every `[text](target)` target in `text`, with its 1-based line number.
fn md_link_targets(text: &str) -> Vec<(usize, String)> {
    let mut found = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let mut rest = line;
        while let Some(pos) = rest.find("](") {
            rest = &rest[pos + 2..];
            if let Some(end) = rest.find(')') {
                found.push((i + 1, rest[..end].to_string()));
                rest = &rest[end + 1..];
            } else {
                break;
            }
        }
    }
    found
}

/// Every backtick span in `text` that looks like a repo path: at least one
/// `/`, a file extension, and only path-safe characters. An optional
/// `:line[-line]` suffix (source references) is stripped.
fn backtick_paths(text: &str) -> Vec<(usize, String)> {
    let mut found = Vec::new();
    for (i, line) in text.lines().enumerate() {
        for span in line.split('`').skip(1).step_by(2) {
            let candidate = span.split_once(':').map_or(span, |(path, tail)| {
                // Keep `path:123`-style line refs, not `key: value`.
                if tail.chars().next().is_some_and(|c| c.is_ascii_digit()) {
                    path
                } else {
                    span
                }
            });
            let is_pathish = candidate.contains('/')
                && candidate.rsplit_once('.').is_some_and(|(stem, ext)| {
                    // A real file extension is lowercase with a letter in
                    // it — this keeps protocol version strings
                    // (`coalloc/1.2`, `coalloc/MAJOR.MINOR`) out.
                    !stem.is_empty()
                        && ext
                            .chars()
                            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit())
                        && ext.chars().any(|c| c.is_ascii_lowercase())
                })
                && candidate
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "/._-".contains(c));
            if is_pathish {
                found.push((i + 1, candidate.to_string()));
            }
        }
    }
    found
}

/// A link target is checkable when it is relative: no scheme, no
/// pure-anchor, no absolute path.
fn checkable_link(target: &str) -> Option<&str> {
    if target.is_empty()
        || target.starts_with('#')
        || target.starts_with('/')
        || target.contains("://")
        || target.starts_with("mailto:")
    {
        return None;
    }
    // Drop an in-document anchor suffix: `DESIGN.md#section`.
    Some(target.split('#').next().unwrap_or(target))
}

fn main() {
    let root: PathBuf = std::env::args()
        .nth(1)
        .map_or_else(|| PathBuf::from("."), PathBuf::from);
    let mut errors: Vec<String> = Vec::new();
    let mut checked = 0usize;

    for doc in DOCS {
        let doc_path = root.join(doc);
        let text = match std::fs::read_to_string(&doc_path) {
            Ok(t) => t,
            Err(e) => {
                errors.push(format!("{doc}: unreadable: {e}"));
                continue;
            }
        };
        let doc_dir = Path::new(doc).parent().unwrap_or(Path::new(""));

        for (line, target) in md_link_targets(&without_fences(&text)) {
            let Some(rel) = checkable_link(&target) else {
                continue;
            };
            if rel.is_empty() {
                continue; // same-file anchor
            }
            checked += 1;
            if !root.join(doc_dir).join(rel).exists() {
                errors.push(format!("{doc}:{line}: broken link `{target}`"));
            }
        }
        for (line, path) in backtick_paths(&text) {
            checked += 1;
            if !root.join(&path).exists() {
                errors.push(format!("{doc}:{line}: missing file reference `{path}`"));
            }
        }
    }

    if errors.is_empty() {
        println!(
            "docs_check: {checked} references across {} documents, all resolve",
            DOCS.len()
        );
    } else {
        for e in &errors {
            eprintln!("docs_check: {e}");
        }
        eprintln!("docs_check: {} broken reference(s)", errors.len());
        std::process::exit(1);
    }
}
