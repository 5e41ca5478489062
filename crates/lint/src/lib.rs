//! In-repo source hygiene lint for the etable workspace.
//!
//! This is a deliberately line-oriented checker with zero dependencies —
//! no syn, no regex, no proc-macro parsing — so it builds instantly,
//! works offline, and its rules are transparent enough to audit by
//! reading this one file. It enforces six workspace conventions that
//! `rustc`/`clippy` cannot express per-repo:
//!
//! 1. **Forbid attribute** — every crate root (`src/lib.rs`,
//!    `src/main.rs`) must carry `#![forbid(unsafe_code)]` in the file
//!    itself, so the guarantee survives even if a crate drops
//!    `[lints] workspace = true` from its manifest.
//! 2. **Panic budget** — library code (not binaries, not test regions)
//!    may not call the panic family (`unwrap`, `expect`, `panic!`,
//!    `unreachable!`, `todo!`, `unimplemented!`) beyond a per-file
//!    allowlisted budget. New panics in un-allowlisted files are
//!    blocking; shrinking a file below its budget is always fine.
//! 3. **Env-var discipline** — `std::env::set_var` may not appear in any
//!    test code: neither the `#[cfg(test)]` region of library sources nor
//!    integration-test files under `tests/`. Tests share a process with
//!    other threads; mutating the environment there is a data race on
//!    glibc — and it does not work as a knob either, because the engine
//!    reads each `ETABLE_*` variable exactly once per process. Tests
//!    sweep memory budgets in-process through
//!    `exec::budget::with_budget` instead. Non-test code (bench/figure
//!    harness setup) remains allowed.
//! 4. **File-size ceiling** — the non-test region of a source file may
//!    not exceed 600 lines, with no exceptions. Outgrowing the ceiling
//!    means the module wants splitting (the storage subsystem's
//!    codec/format/spill split is the model), not a bigger number. Test
//!    modules never count against it, so adding tests is always free.
//! 5. **Allowlist ratchet** — a panic-budget entry that names a file that
//!    no longer exists, or a budget larger than the file's actual count,
//!    is itself a violation: an entry that outlives what it excused is
//!    room for a new panic.
//! 6. **Row views stay home** — an enriched table builds its cells only
//!    when they are read, through its accessors (`nodes`, `cell`,
//!    `ref_count`, `column_values`). Its whole-row view, `ETableRow` and
//!    the `ETableRows` type of its `rows` field, builds every cell of a
//!    row, so outside `crates/etable/src/etable.rs` no non-test code may
//!    name either: not in `src/` trees, `benches/` or `examples/`. A
//!    result relation is column-major (`column`, `get`), and its row view
//!    `RelationRows` builds an owned row per read, so outside
//!    `crates/relational/src/relation.rs` no non-test code may name it
//!    either. Test code may name both.
//!
//! `tests/` files are walked for rule 3 only: they are exempt from the
//! panic budget (a failing test *should* panic) and are never crate
//! roots. In a library source, a `#[cfg(test)]` attribute makes test code
//! of exactly the item it attributes — a `use`, a statement, a function,
//! an `impl` block or an out-of-line `mod x;`, read up to its `;` or its
//! closing brace — and an inline test module (`#[cfg(test)] mod tests {`)
//! makes test code of the rest of the file. An attribute is a line that
//! starts with it: a comment or a string that mentions it is not one.
//! Every rule reads the file through that one split ([`test_lines`]).

#![forbid(unsafe_code)]

use std::fmt;
use std::path::{Path, PathBuf};

/// The panic-family call patterns the budget rule counts. Built with
/// `concat!` so this file's own source never contains the patterns it
/// searches for (the lint lints itself).
const PANIC_PATTERNS: [&str; 6] = [
    concat!(".unw", "rap()"),
    concat!(".exp", "ect("),
    concat!("pan", "ic!("),
    concat!("unreach", "able!("),
    concat!("to", "do!("),
    concat!("unimple", "mented!("),
];

/// The `set_var` patterns the env-discipline rule searches for.
const SET_VAR_PATTERN: &str = concat!("env::set", "_var");

/// The attribute every crate root must carry.
const FORBID_ATTR: &str = "#![forbid(unsafe_code)]";

/// The row views: the name the row-view rule searches for (for the
/// enriched table, also the prefix of its view type's name), the one
/// non-test file that may name it, and what to read instead. Built with
/// `concat!` so this file does not name them.
const ROW_VIEWS: [(&str, &str, &str); 2] = [
    (
        concat!("ETable", "Row"),
        "crates/etable/src/etable.rs",
        "read the table through `nodes`, `cell`, `ref_count` and `column_values`",
    ),
    (
        concat!("Relation", "Rows"),
        "crates/relational/src/relation.rs",
        "read the relation's columns through `column` and `get`",
    ),
];

/// Per-file panic budgets for pre-existing library code, counted with
/// exactly the logic in [`count_panics`]. A file not listed here has a
/// budget of zero. Keep this list sorted by path.
const PANIC_BUDGET: [(&str, usize); 14] = [
    ("crates/bench/src/lib.rs", 3),
    ("crates/compat/criterion/src/lib.rs", 5),
    ("crates/compat/proptest/src/lib.rs", 1),
    ("crates/datagen/src/generator.rs", 1),
    ("crates/datagen/src/schema.rs", 1),
    ("crates/datagen/src/tasks.rs", 1),
    ("crates/etable/src/testutil.rs", 2),
    ("crates/relational/src/intern.rs", 2),
    ("crates/relational/src/storage/codec.rs", 1),
    ("crates/study/src/participant.rs", 1),
    ("crates/study/src/runner.rs", 1),
    ("crates/study/src/scripts.rs", 2),
    ("crates/tgm/src/ids.rs", 1),
    ("src/lib.rs", 1),
];

/// The ceiling for the non-test region of every source file, in lines,
/// counted with exactly the logic in [`count_module_lines`].
const SIZE_BUDGET_DEFAULT: usize = 600;

/// One rule violation at one location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line, or 0 for whole-file findings (budget, missing attr).
    pub line: usize,
    /// Short rule identifier: `forbid-attr`, `panic-budget`, `set-var`,
    /// `file-size`, `stale-allowlist`, `row-view`.
    pub rule: &'static str,
    /// Human-readable description of what tripped.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "{}: [{}] {}", self.file, self.rule, self.message)
        } else {
            write!(
                f,
                "{}:{}: [{}] {}",
                self.file, self.line, self.rule, self.message
            )
        }
    }
}

/// True when the path names a crate root that must carry the forbid
/// attribute.
fn is_crate_root(rel: &str) -> bool {
    rel.ends_with("src/lib.rs") || rel.ends_with("src/main.rs")
}

/// True when the path is binary code, exempt from the panic budget
/// (CLI entry points and bench drivers may panic on startup).
fn is_binary(rel: &str) -> bool {
    rel.contains("/src/bin/") || rel.ends_with("src/main.rs")
}

/// True when the path is an integration-test file (a `tests/` tree):
/// exempt from the panic budget, subject to the `set_var` rule on every
/// line.
fn is_test_file(rel: &str) -> bool {
    rel.starts_with("tests/") || rel.contains("/tests/")
}

/// The allowlisted panic budget for a file (zero when unlisted).
fn budget_for(rel: &str) -> usize {
    PANIC_BUDGET
        .iter()
        .find(|(p, _)| *p == rel)
        .map(|&(_, n)| n)
        .unwrap_or(0)
}

/// The attribute that marks test code.
const CFG_TEST: &str = "#[cfg(test)]";

/// Whether each line of a source file is test code: the lines of every
/// item a `#[cfg(test)]` attribute attributes, and every line from an
/// inline test module on (see the module docs). Only a line that starts
/// with the attribute is one.
pub fn test_lines(content: &str) -> Vec<bool> {
    let lines: Vec<&str> = content.lines().collect();
    let mut test = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        let Some(rest) = lines[i].trim_start().strip_prefix(CFG_TEST) else {
            i += 1;
            continue;
        };
        // The attributed item: the rest of this line, then the lines after
        // it, up to its `;` or `,` or the brace that closes it.
        let (mut end, mut depth, mut text) = (i, 0i32, rest);
        let mut head = true;
        loop {
            let code = text.trim_start();
            if head && !code.is_empty() && !code.starts_with('#') && !code.starts_with("//") {
                head = false;
                if opens_inline_module(code) {
                    test[i..].iter_mut().for_each(|t| *t = true);
                    return test;
                }
            }
            if item_ends(text, &mut depth) || end + 1 == lines.len() {
                break;
            }
            end += 1;
            text = lines[end];
        }
        test[i..=end].iter_mut().for_each(|t| *t = true);
        i = end + 1;
    }
    test
}

/// Whether an item's first code line opens an inline module
/// (`mod tests {`, with or without a visibility), not `mod x;`.
fn opens_inline_module(code: &str) -> bool {
    let code = code.strip_prefix("pub").map_or(code, |c| {
        c.strip_prefix("(crate)")
            .or_else(|| c.strip_prefix("(super)"))
            .unwrap_or(c)
    });
    let Some(rest) = code.trim_start().strip_prefix("mod ") else {
        return false;
    };
    match (rest.find('{'), rest.find(';')) {
        (Some(open), semi) => semi.is_none_or(|s| open < s),
        (None, _) => false,
    }
}

/// Reads one line of an attributed item, tracking the bracket `depth`
/// across lines (strings, character literals and line comments aside):
/// true when the item ends on it, at a `;` or `,` outside every bracket
/// or at the brace that closes its body.
fn item_ends(text: &str, depth: &mut i32) -> bool {
    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '/' if chars.peek() == Some(&'/') => return false,
            '"' => {
                while let Some(s) = chars.next() {
                    match s {
                        '\\' => drop(chars.next()),
                        '"' => break,
                        _ => {}
                    }
                }
            }
            // A character literal ('x', '\n'); otherwise a lifetime.
            '\'' => {
                let mut ahead = chars.clone();
                match (ahead.next(), ahead.next()) {
                    (Some('\\'), _) => {
                        chars.by_ref().take_while(|&q| q != '\'').for_each(drop);
                    }
                    (Some(_), Some('\'')) => {
                        chars.next();
                        chars.next();
                    }
                    _ => {}
                }
            }
            '(' | '[' | '{' => *depth += 1,
            ')' | ']' => *depth -= 1,
            '}' => {
                *depth -= 1;
                if *depth <= 0 {
                    return true;
                }
            }
            ';' | ',' if *depth <= 0 => return true,
            _ => {}
        }
    }
    false
}

/// The lines of a source file that are neither test code nor comments,
/// with their 0-based numbers: what the panic and row-view rules read.
fn non_test_code(content: &str) -> impl Iterator<Item = (usize, &str)> {
    (content.lines().zip(test_lines(content)).enumerate())
        .filter(|(_, (l, test))| !test && !l.trim_start().starts_with("//"))
        .map(|(i, (l, _))| (i, l))
}

/// Counts the lines of a source file that are not test code ([`test_lines`];
/// comments and blank lines count). This is the file-size rule's exact
/// metric.
pub fn count_module_lines(content: &str) -> usize {
    test_lines(content).iter().filter(|&&t| !t).count()
}

/// Counts panic-family calls in the non-test, non-comment lines of a
/// source file. This is the budget rule's exact metric — keep it in sync
/// with the allowlist comment above.
pub fn count_panics(content: &str) -> usize {
    non_test_code(content)
        .map(|(_, l)| {
            PANIC_PATTERNS
                .iter()
                .map(|p| l.matches(p).count())
                .sum::<usize>()
        })
        .sum()
}

/// Rule 6: the non-test code lines of a non-test file that name a row
/// view, unless the file is its home.
fn check_row_view(rel: &str, content: &str) -> Vec<Violation> {
    if is_test_file(rel) {
        return Vec::new();
    }
    non_test_code(content)
        .flat_map(|(i, l)| {
            (ROW_VIEWS.iter())
                .filter(move |&&(view, home, _)| rel != home && l.contains(view))
                .map(move |&(view, home, instead)| Violation {
                    file: rel.to_string(),
                    line: i + 1,
                    rule: "row-view",
                    message: format!(
                        "names `{view}`, which builds whole rows; {instead} ({home} only)"
                    ),
                })
        })
        .collect()
}

/// Lints one source file. `rel` is the workspace-relative path (forward
/// slashes); `content` is the file's text.
pub fn check_file(rel: &str, content: &str) -> Vec<Violation> {
    let mut out = check_row_view(rel, content);
    let test_file = is_test_file(rel);

    // Rule 1: crate roots must carry the forbid attribute verbatim.
    if !test_file && is_crate_root(rel) && !content.lines().any(|l| l.trim() == FORBID_ATTR) {
        out.push(Violation {
            file: rel.to_string(),
            line: 0,
            rule: "forbid-attr",
            message: format!("crate root is missing `{FORBID_ATTR}`"),
        });
    }

    // Rule 2: panic budget over the non-test region of library code.
    if !test_file && !is_binary(rel) {
        let count = count_panics(content);
        let budget = budget_for(rel);
        if count > budget {
            out.push(Violation {
                file: rel.to_string(),
                line: 0,
                rule: "panic-budget",
                message: format!(
                    "{count} panic-family call(s) in library code, budget is {budget} \
                     (return Result or move the call under #[cfg(test)])"
                ),
            });
        }
    }

    // Rule 4: file-size ceiling over the non-test region of src files.
    if !test_file {
        let lines = count_module_lines(content);
        if lines > SIZE_BUDGET_DEFAULT {
            out.push(Violation {
                file: rel.to_string(),
                line: 0,
                rule: "file-size",
                message: format!(
                    "{lines} non-test line(s), ceiling is {SIZE_BUDGET_DEFAULT} \
                     (split the module; test code never counts)"
                ),
            });
        }
    }

    // Rule 3: no set_var in test code — #[cfg(test)] regions of library
    // sources, or anywhere in an integration-test file.
    for (i, (line, test)) in content.lines().zip(test_lines(content)).enumerate() {
        let s = line.trim_start();
        if (test || test_file) && !s.starts_with("//") && s.contains(SET_VAR_PATTERN) {
            out.push(Violation {
                file: rel.to_string(),
                line: i + 1,
                rule: "set-var",
                message: "set_var in test code mutates shared process state (a data \
                          race under threads) and the engine reads its ETABLE_* \
                          variables only once; sweep memory budgets with \
                          exec::budget::with_budget instead"
                    .to_string(),
            });
        }
    }

    out
}

/// Rule 5: lints the panic allowlist itself. `read` returns the text of a
/// workspace-relative path, or `None` when there is no such file. An
/// entry whose file is gone, or whose budget is above the file's actual
/// count, is stale.
fn check_allowlists(
    panic_budget: &[(&str, usize)],
    read: impl Fn(&str) -> Option<String>,
) -> Vec<Violation> {
    let stale = |rel: &str, message: String| Violation {
        file: rel.to_string(),
        line: 0,
        rule: "stale-allowlist",
        message: format!("stale allowlist entry: {message}"),
    };
    let mut out = Vec::new();
    for &(rel, budget) in panic_budget {
        match read(rel) {
            None => out.push(stale(
                rel,
                "panic budget for a file that does not exist".into(),
            )),
            Some(content) => {
                let count = count_panics(&content);
                if count < budget {
                    out.push(stale(
                        rel,
                        format!("panic budget is {budget}, the file has {count} (lower it)"),
                    ));
                }
            }
        }
    }
    out
}

/// Recursively collects `.rs` files under `dir` into `files`.
fn collect_rs(dir: &Path, files: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, files)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            files.push(path);
        }
    }
    Ok(())
}

/// Lints every source tree in the workspace rooted at `root`: the
/// umbrella crate's `src/` and `tests/` plus each crate's
/// `crates/**/{src,tests}/` (compat shims included). `src/` trees get
/// every per-file rule; `tests/` trees get the `set_var` rule only (see
/// [`check_file`]); `benches/` and `examples/` trees get the row-view rule
/// only. The allowlists are then checked against the same tree (rule 5).
pub fn check_workspace(root: &Path) -> std::io::Result<Vec<Violation>> {
    let mut crate_dirs: Vec<PathBuf> = vec![root.to_path_buf()];
    let crates = root.join("crates");
    if crates.is_dir() {
        for entry in std::fs::read_dir(&crates)? {
            let path = entry?.path();
            if !path.is_dir() {
                continue;
            }
            if path.join("src").is_dir() {
                crate_dirs.push(path);
            } else {
                // One nesting level for grouped crates (crates/compat/*).
                for sub in std::fs::read_dir(&path)? {
                    let sub = sub?.path();
                    if sub.join("src").is_dir() {
                        crate_dirs.push(sub);
                    }
                }
            }
        }
    }
    crate_dirs.sort();

    let (mut files, mut others) = (Vec::new(), Vec::new());
    for dir in crate_dirs {
        for sub in ["src", "tests"] {
            let tree = dir.join(sub);
            if tree.is_dir() {
                collect_rs(&tree, &mut files)?;
            }
        }
        for sub in ["benches", "examples"] {
            let tree = dir.join(sub);
            if tree.is_dir() {
                collect_rs(&tree, &mut others)?;
            }
        }
    }

    let rel = |path: &Path| {
        let rel = path.strip_prefix(root).unwrap_or(path);
        rel.to_string_lossy().replace('\\', "/")
    };
    let mut out = Vec::new();
    for path in files {
        out.extend(check_file(&rel(&path), &std::fs::read_to_string(&path)?));
    }
    for path in others {
        out.extend(check_row_view(
            &rel(&path),
            &std::fs::read_to_string(&path)?,
        ));
    }
    out.extend(check_allowlists(&PANIC_BUDGET, |rel| {
        std::fs::read_to_string(root.join(rel)).ok()
    }));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn clean_lib_file_passes() {
        let src = "//! docs\npub fn f() -> u32 { 1 }\n";
        assert!(check_file("crates/foo/src/util.rs", src).is_empty());
    }

    #[test]
    fn crate_root_requires_forbid_attr() {
        let bad = "//! docs\npub fn f() {}\n";
        let v = check_file("crates/foo/src/lib.rs", bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "forbid-attr");
        let good = "//! docs\n#![forbid(unsafe_code)]\npub fn f() {}\n";
        assert!(check_file("crates/foo/src/lib.rs", good).is_empty());
    }

    #[test]
    fn panic_in_lib_code_is_flagged() {
        let src = format!(
            "pub fn f(o: Option<u32>) -> u32 {{ o{} }}\n",
            PANIC_PATTERNS[0]
        );
        let v = check_file("crates/foo/src/util.rs", &src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "panic-budget");
        assert!(v[0].message.contains("budget is 0"));
    }

    #[test]
    fn panic_in_test_region_comment_or_binary_is_exempt() {
        let pat = PANIC_PATTERNS[0];
        // Test region: everything after #[cfg(test)].
        let test_region = format!(
            "pub fn f() {{}}\n#[cfg(test)]\nmod t {{ fn g(o: Option<u32>) -> u32 {{ o{pat} }} }}\n"
        );
        assert!(check_file("crates/foo/src/util.rs", &test_region).is_empty());
        // Comment lines don't count.
        let comment = format!("// calling {pat} here would be bad\npub fn f() {{}}\n");
        assert!(check_file("crates/foo/src/util.rs", &comment).is_empty());
        // Binaries are exempt from the budget entirely.
        let bin = format!("#![forbid(unsafe_code)]\nfn main() {{ std::fs::read(\"x\"){pat}; }}\n");
        assert!(check_file("crates/foo/src/bin/tool.rs", &bin).is_empty());
        assert!(check_file("crates/foo/src/main.rs", &bin).is_empty());
    }

    #[test]
    fn allowlisted_budget_is_a_ceiling() {
        let pat = PANIC_PATTERNS[0];
        // tgm/ids.rs has a budget of exactly 1.
        let at_budget = format!("pub fn f(o: Option<u32>) -> u32 {{ o{pat} }}\n");
        assert!(check_file("crates/tgm/src/ids.rs", &at_budget).is_empty());
        let over = format!("pub fn f(o: Option<u32>) -> u32 {{ o{pat} + o{pat} }}\n");
        let v = check_file("crates/tgm/src/ids.rs", &over);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("budget is 1"));
    }

    #[test]
    fn oversized_module_is_flagged() {
        let big = "pub fn f() {}\n".repeat(SIZE_BUDGET_DEFAULT + 1);
        let v = check_file("crates/foo/src/util.rs", &big);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "file-size");
        assert!(v[0].message.contains("ceiling is 600"), "{}", v[0].message);
        // Exactly at the ceiling passes.
        let at = "pub fn f() {}\n".repeat(SIZE_BUDGET_DEFAULT);
        assert!(check_file("crates/foo/src/util.rs", &at).is_empty());
    }

    #[test]
    fn test_region_does_not_count_toward_file_size() {
        let src = format!(
            "pub fn f() {{}}\n#[cfg(test)]\n{}",
            "mod t {}\n".repeat(SIZE_BUDGET_DEFAULT * 2)
        );
        assert!(check_file("crates/foo/src/util.rs", &src).is_empty());
        // Integration tests are exempt entirely.
        let big = "fn t() {}\n".repeat(SIZE_BUDGET_DEFAULT * 2);
        assert!(check_file("crates/foo/tests/it.rs", &big).is_empty());
    }

    /// A `#[cfg(test)]` attribute on a statement, a `use`, a `mod x;` line
    /// or a function exempts that item alone; the code after it counts.
    #[test]
    fn a_test_attribute_exempts_only_its_item() {
        let pat = PANIC_PATTERNS[0];
        let src = format!(
            "#[cfg(test)]\n#[path = \"t.rs\"]\nmod t;\n\
             pub fn f(o: Option<u32>) -> u32 {{\n\
             \x20   #[cfg(test)]\n\
             \x20   COUNT.with(|n| n.set(n.get() + '{{'.len_utf8()));\n\
             \x20   o{pat}\n}}\n\
             #[cfg(test)]\nfn g(o: Option<u32>) -> u32 {{\n    o{pat}\n}}\n\
             #[cfg(test)] use x::y;\n\
             pub fn h(o: Option<u32>) -> u32 {{ o{pat} }}\n"
        );
        assert_eq!(
            test_lines(&src),
            [
                true, true, true, false, true, true, false, false, true, true, true, true, true,
                false
            ]
        );
        assert_eq!(count_module_lines(&src), 4);
        assert_eq!(count_panics(&src), 2);
    }

    /// A comment or a string that mentions the attribute is not one: the
    /// code after it still counts, and only an inline test module ends
    /// the non-test region.
    #[test]
    fn a_mention_of_the_attribute_is_not_one() {
        let pat = PANIC_PATTERNS[0];
        let src = format!(
            "//! Tests live under `#[cfg(test)]`.\n\
             /// See #[cfg(test)] below.\n\
             const A: &str = \"#[cfg(test)]\";\n\
             pub fn f(o: Option<u32>) -> u32 {{ o{pat} }}\n\
             #[cfg(test)]\nmod tests {{\n    fn g() {{}}\n}}\npub fn after() {{}}\n"
        );
        assert_eq!(count_module_lines(&src), 4);
        assert_eq!(count_panics(&src), 1);
        let one_line = "fn f() {}\n#[cfg(test)] mod t { fn g() {} }\nfn h() {}\n";
        assert_eq!(test_lines(one_line), [false, true, true]);
    }

    #[test]
    fn stale_allowlist_entries_are_flagged() {
        let pat = PANIC_PATTERNS[0];
        let one_panic = format!("pub fn f(o: Option<u32>) -> u32 {{ o{pat} }}\n");
        let read = |rel: &str| (rel != "gone.rs").then(|| one_panic.clone());
        // An exact budget is fine.
        assert!(check_allowlists(&[("a.rs", 1)], read).is_empty());
        // A budget above the actual count, and an entry for a missing file.
        let v = check_allowlists(&[("a.rs", 2), ("gone.rs", 1)], read);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|v| v.rule == "stale-allowlist"));
        assert!(v[0].message.contains("budget is 2, the file has 1"));
        assert!(v[1].message.contains("does not exist"));
        assert_eq!(v[1].file, "gone.rs");
    }

    #[test]
    fn set_var_in_unit_test_is_flagged() {
        let sv = SET_VAR_PATTERN;
        let bad = format!(
            "pub fn f() {{}}\n#[cfg(test)]\nmod t {{\n    #[test]\n    fn g() {{ std::{sv}(\"K\", \"1\"); }}\n}}\n"
        );
        let v = check_file("crates/foo/src/util.rs", &bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "set-var");
        assert_eq!(v[0].line, 5);
        // Outside the test region it is allowed (bench harness setup).
        let ok = format!("pub fn f() {{ std::{sv}(\"K\", \"1\"); }}\n");
        assert!(check_file("crates/foo/src/util.rs", &ok).is_empty());
    }

    #[test]
    fn set_var_in_integration_test_is_flagged() {
        let sv = SET_VAR_PATTERN;
        // Integration tests have no #[cfg(test)] marker; the whole file is
        // test code.
        let bad = format!("#[test]\nfn sweep() {{ std::{sv}(\"K\", \"2\"); }}\n");
        for rel in [
            "crates/relational/tests/parallel_scan.rs",
            "tests/sql_fuzz.rs",
        ] {
            let v = check_file(rel, &bad);
            assert_eq!(v.len(), 1, "{rel}");
            assert_eq!(v[0].rule, "set-var");
            assert_eq!(v[0].line, 2);
        }
    }

    #[test]
    fn integration_tests_are_exempt_from_panic_budget_and_forbid_attr() {
        let pat = PANIC_PATTERNS[0];
        let src = format!("#[test]\nfn t() {{ std::fs::read(\"x\"){pat}; }}\n");
        assert!(check_file("crates/foo/tests/it.rs", &src).is_empty());
        // Even a tests/ path that looks like a crate root stays exempt.
        assert!(check_file("crates/foo/tests/src/lib.rs", &src).is_empty());
    }

    #[test]
    fn seeded_workspace_violation_is_caught() {
        // Build a miniature workspace in a temp dir with one dirty crate,
        // and check the walker finds it end to end.
        let root = std::env::temp_dir().join(format!("etable-lint-seed-{}", std::process::id()));
        let src = root.join("crates").join("dirty").join("src");
        std::fs::create_dir_all(&src).unwrap();
        std::fs::write(
            src.join("lib.rs"),
            format!(
                "pub fn f(o: Option<u32>) -> u32 {{ o{} }}\n",
                PANIC_PATTERNS[0]
            ),
        )
        .unwrap();
        let violations = check_workspace(&root).unwrap();
        std::fs::remove_dir_all(&root).unwrap();
        let rules: Vec<&str> = violations.iter().map(|v| v.rule).collect();
        assert!(rules.contains(&"forbid-attr"), "{violations:?}");
        assert!(rules.contains(&"panic-budget"), "{violations:?}");
    }

    #[test]
    fn the_row_view_is_named_only_at_home_and_in_tests() {
        let [(view, view_home, _), (rel_view, rel_home, _)] = ROW_VIEWS;
        let named = format!("use etable_core::etable::{view}s;\nfn f(r: {view}) {{}}\n");
        for rel in ["crates/bench/src/bin/fig1.rs", "examples/quickstart.rs"] {
            let v = check_file(rel, &named);
            assert_eq!(v.len(), 2, "{rel}: {v:?}");
            assert!(v.iter().all(|v| v.rule == "row-view"));
            assert_eq!((v[0].line, v[1].line), (1, 2));
        }
        assert!(check_file(view_home, &named).is_empty());
        assert!(check_row_view("tests/session_fuzz.rs", &named).is_empty());
        // A test region, a comment and the accessors are fine.
        let fine = format!(
            "// {view} is built by the view\nfn f(t: &T) {{ t.cell(0, 0); }}\n#[cfg(test)]\nuse x::{view};\n"
        );
        assert!(check_file("crates/etable/src/export.rs", &fine).is_empty());
        // The relation's row view has a home of its own: the enriched
        // table's home may not name it, nor library code that reads results.
        let rel_named = format!("fn f(r: &{rel_view}) -> usize {{ r.len() }}\n");
        for rel in [
            "crates/server/src/proto.rs",
            view_home,
            "examples/quickstart.rs",
        ] {
            let v = check_file(rel, &rel_named);
            assert_eq!(v.len(), 1, "{rel}: {v:?}");
            assert!(v[0].rule == "row-view" && v[0].message.contains(rel_home));
        }
        assert!(check_file(rel_home, &rel_named).is_empty());
        assert!(
            check_file(rel_home, &named).len() == 2,
            "not the table view's home"
        );
        assert!(check_row_view("crates/relational/tests/top_k.rs", &rel_named).is_empty());
        let rel_fine =
            format!("fn f(r: &R) -> V {{ r.get(0, 0) }}\n#[cfg(test)]\nuse x::{rel_view};\n");
        assert!(check_file("crates/server/src/load.rs", &rel_fine).is_empty());
        // The walker reaches benches and the umbrella crate's examples.
        let root = std::env::temp_dir().join(format!("etable-lint-rows-{}", std::process::id()));
        for dir in ["examples", "crates/bench/benches", "crates/bench/src"] {
            std::fs::create_dir_all(root.join(dir)).unwrap();
            std::fs::write(root.join(dir).join("x.rs"), &named).unwrap();
        }
        let violations = check_workspace(&root).unwrap();
        std::fs::remove_dir_all(&root).unwrap();
        let files: BTreeSet<&str> = (violations.iter())
            .filter(|v| v.rule == "row-view")
            .map(|v| v.file.as_str())
            .collect();
        assert_eq!(
            files,
            BTreeSet::from([
                "crates/bench/benches/x.rs",
                "crates/bench/src/x.rs",
                "examples/x.rs"
            ]),
            "{violations:?}"
        );
    }

    #[test]
    fn workspace_is_clean() {
        // The real tree must pass its own lint; this makes tier-1 tests
        // enforce the rules even where CI is not running.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("workspace root");
        let violations = check_workspace(root).expect("walk workspace");
        assert!(
            violations.is_empty(),
            "workspace lint violations:\n{}",
            violations
                .iter()
                .map(|v| format!("  {v}"))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
