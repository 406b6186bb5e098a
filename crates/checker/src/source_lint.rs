//! The source linter: std-only, project-specific lints over
//! `crates/*/src`. No parsing framework — the rules are textual, which
//! is exactly as strong as they need to be for this codebase's idioms,
//! and keeps the checker free of external dependencies.
//!
//! Rules:
//!
//! - `debug-assert-exit-path` — `debug_assert!` in non-test exit-engine
//!   code (`crates/hypervisor/src`). Invariants on exit paths are
//!   load-bearing for the cycle ledger; they must hold in release
//!   builds too (promote to `assert!` or a checker invariant).
//! - `raw-vmcs-index` — indexing the VMCS container directly instead
//!   of going through the tracked `vmcs()`/`vmcs_mut()` accessors
//!   (allowed only in `hypervisor/src/world.rs`, where the accessors
//!   live).
//! - `unchecked-level-index` — raw `[level]`-style subscripts with
//!   level-typed variables in hypervisor dispatch paths, which panic
//!   on a bad level instead of reporting it (allowed only in
//!   `world.rs`, whose accessors document their bounds).
//! - `clone-on-exit-path` — `.clone()` in non-test `exits.rs` code.
//!   The exit engine runs millions of times per sweep and is
//!   allocation-free by design (dense VMCS slots, index-iterated
//!   profile lists); a clone on this path is a per-exit heap
//!   allocation and goes through review, not past it.
//!
//! Lines inside `#[cfg(test)]` blocks and comment lines are skipped
//! (by repo convention test modules sit at the bottom of each file).

use crate::{Pass, Violation};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Variable names treated as virtualization-level indices by the
/// `unchecked-level-index` rule.
const LEVEL_NAMES: [&str; 6] = [
    "level",
    "from_level",
    "owner",
    "hv_level",
    "stage",
    "reader_level",
];

/// Result of a source-lint run.
#[derive(Debug, Default)]
pub struct SourceLintOutcome {
    /// How many `.rs` files were scanned.
    pub files_scanned: usize,
    /// Violations found.
    pub violations: Vec<Violation>,
}

/// Lints every `crates/*/src/**/*.rs` under `repo_root`. A
/// `repo_root` without a readable `crates/` fails with an error that
/// names that directory.
pub fn lint_sources(repo_root: &Path) -> io::Result<SourceLintOutcome> {
    let mut files = Vec::new();
    let crates_dir = repo_root.join("crates");
    let entries = fs::read_dir(&crates_dir).map_err(|e| {
        let path = std::path::absolute(&crates_dir).unwrap_or(crates_dir.clone());
        io::Error::new(e.kind(), format!("{}: {e}", path.display()))
    })?;
    for entry in entries {
        let src = entry?.path().join("src");
        if src.is_dir() {
            collect_rs_files(&src, &mut files)?;
        }
    }
    files.sort();
    let mut outcome = SourceLintOutcome::default();
    for path in files {
        let text = fs::read_to_string(&path)?;
        let display = path
            .strip_prefix(repo_root)
            .unwrap_or(&path)
            .display()
            .to_string();
        outcome.violations.extend(lint_file_text(&display, &text));
        outcome.files_scanned += 1;
    }
    Ok(outcome)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints one file's text. `display_path` uses `/` separators (as repo
/// paths do); it selects which rules apply.
pub fn lint_file_text(display_path: &str, text: &str) -> Vec<Violation> {
    let normalized = display_path.replace('\\', "/");
    let in_hypervisor = normalized.contains("hypervisor/src");
    let is_world = in_hypervisor && normalized.ends_with("world.rs");
    let is_exits = in_hypervisor && normalized.ends_with("exits.rs");
    // Built at runtime so the linter's own source never matches.
    let vmcs_needle = format!("{}{}", ".vmcs", "[");
    let clone_needle = format!("{}{}", ".clone", "()");
    let level_needles: Vec<String> = LEVEL_NAMES.iter().map(|n| format!("[{n}]")).collect();

    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.contains("#[cfg(test)]") {
            break; // test module: rest of the file is test-only code
        }
        let trimmed = line.trim_start();
        if trimmed.starts_with("//") {
            continue;
        }
        let loc = || format!("{display_path}:{}", i + 1);
        if in_hypervisor && trimmed.contains("debug_assert") {
            out.push(Violation {
                pass: Pass::Source,
                rule: "debug-assert-exit-path",
                location: loc(),
                detail: "debug_assert! in exit-engine code is compiled out of \
                         release builds; promote it to assert! or a checker \
                         invariant"
                    .into(),
            });
        }
        if is_exits && trimmed.contains(&clone_needle) {
            out.push(Violation {
                pass: Pass::Source,
                rule: "clone-on-exit-path",
                location: loc(),
                detail: "the exit engine is allocation-free by design; a \
                         .clone() here is a per-exit heap allocation — iterate \
                         by index or borrow instead"
                    .into(),
            });
        }
        if !is_world && trimmed.contains(&vmcs_needle) {
            out.push(Violation {
                pass: Pass::Source,
                rule: "raw-vmcs-index",
                location: loc(),
                detail: "raw VMCS container indexing bypasses the tracked \
                         vmcs()/vmcs_mut() accessors"
                    .into(),
            });
        }
        if in_hypervisor && !is_world {
            for needle in &level_needles {
                if trimmed.contains(needle.as_str()) {
                    out.push(Violation {
                        pass: Pass::Source,
                        rule: "unchecked-level-index",
                        location: loc(),
                        detail: format!(
                            "unchecked {needle} indexing in a dispatch path can \
                             panic on a bad level; use a bounds-documented \
                             accessor from world.rs"
                        ),
                    });
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_dispatch_code_passes() {
        let vs = lint_file_text(
            "crates/hypervisor/src/exits.rs",
            "fn f(w: &World, level: usize) {\n    let m = w.vmcs(level, 0);\n}\n",
        );
        assert!(vs.is_empty());
    }

    #[test]
    fn debug_assert_in_exit_path_flagged() {
        let vs = lint_file_text(
            "crates/hypervisor/src/exits.rs",
            "fn f(level: usize) {\n    debug_assert!(level >= 1);\n}\n",
        );
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].rule, "debug-assert-exit-path");
        assert_eq!(vs[0].location, "crates/hypervisor/src/exits.rs:2");
    }

    #[test]
    fn debug_assert_outside_exit_engine_not_flagged() {
        let vs = lint_file_text(
            "crates/memory/src/ept.rs",
            "fn f() {\n    debug_assert!(true);\n}\n",
        );
        assert!(vs.is_empty());
    }

    #[test]
    fn raw_vmcs_index_flagged_anywhere_but_world() {
        let code = format!(
            "fn f(w: &mut World) {{\n    w{}{}0][0].read(1);\n}}\n",
            ".vmcs", "["
        );
        let vs = lint_file_text("crates/migration/src/source.rs", &code);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].rule, "raw-vmcs-index");
        assert!(lint_file_text("crates/hypervisor/src/world.rs", &code).is_empty());
    }

    #[test]
    fn level_indexing_in_dispatch_flagged() {
        let code = "fn f(&mut self, owner: usize) {\n    self.virtio[owner].kick();\n}\n";
        let vs = lint_file_text("crates/hypervisor/src/io.rs", code);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].rule, "unchecked-level-index");
        // The same pattern is the sanctioned idiom inside world.rs.
        assert!(lint_file_text("crates/hypervisor/src/world.rs", code).is_empty());
        // And plain [cpu] indexing is not a level index.
        let vs = lint_file_text(
            "crates/hypervisor/src/runtime.rs",
            "fn f(&mut self, cpu: usize) {\n    self.timers[cpu].arm(1);\n}\n",
        );
        assert!(vs.is_empty());
    }

    #[test]
    fn clone_in_exit_engine_flagged() {
        let code = format!(
            "fn f(&mut self) {{\n    let hot = self.profile.hot_reads{}{};\n}}\n",
            ".clone", "()"
        );
        let vs = lint_file_text("crates/hypervisor/src/exits.rs", &code);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].rule, "clone-on-exit-path");
        // Other hypervisor files may clone (e.g. config plumbing).
        assert!(lint_file_text("crates/hypervisor/src/config.rs", &code).is_empty());
        // Test modules in exits.rs may clone.
        let test_only = format!(
            "fn f() {{}}\n#[cfg(test)]\nmod tests {{\n    fn g(v: &Vec<u32>) {{ let _ = v{}{}; }}\n}}\n",
            ".clone", "()"
        );
        assert!(lint_file_text("crates/hypervisor/src/exits.rs", &test_only).is_empty());
    }

    #[test]
    fn repository_sources_are_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let outcome = lint_sources(&root).expect("repo sources readable");
        assert!(
            outcome.files_scanned > 50,
            "scanned {}",
            outcome.files_scanned
        );
        assert!(outcome.violations.is_empty(), "{:#?}", outcome.violations);
    }

    #[test]
    fn test_modules_and_comments_skipped() {
        let code = "fn f() {}\n// debug_assert! in a comment\n#[cfg(test)]\nmod tests {\n    fn g(level: usize) { debug_assert!(level > 0); }\n}\n";
        assert!(lint_file_text("crates/hypervisor/src/exits.rs", code).is_empty());
    }
}
