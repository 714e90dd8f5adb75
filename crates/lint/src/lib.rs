//! # wk-lint — workspace invariant checker
//!
//! A standalone static-analysis pass over the workspace's `crates/*/src`
//! files, enforcing invariants the compiler cannot express and this
//! reproduction's correctness depends on:
//!
//! * **`no-panic-in-lib`** — the arithmetic core (`wk-bigint`,
//!   `wk-batchgcd`) must not contain silent panic paths (`unwrap`,
//!   `expect`, panic-family macros, fixed-index subscripts) outside test
//!   code. A limb-level mistake must surface as an error value, not abort a
//!   worker mid batch-GCD.
//! * **`atomics-ordering-audit`** — every `Ordering::Relaxed` in the
//!   work-stealing pool carries a `metrics` or `control` classification,
//!   and `control` sites may never be `Relaxed`.
//! * **`limb-normalization`** — `Natural` values are only built through the
//!   normalizing constructors; raw `Natural { limbs: ... }` literals outside
//!   `natural.rs` are errors.
//! * **`forbid-unsafe-creep`** — `unsafe` stays confined to the reviewed
//!   allowlist (currently `batchgcd/src/pool.rs`).
//!
//! The workspace builds offline, so there is no `syn`: files are read
//! through a [hand-written minimal tokenizer](lexer) that is exact about
//! comments, strings, char literals, and lifetimes — everything needed to
//! never misread a literal as code. Violations are suppressed, one line at
//! a time, with justified annotations (see [`annot`]); unused or
//! unjustified annotations are themselves diagnostics, so the suppression
//! layer cannot rot.
//!
//! Run it from the workspace root:
//!
//! ```text
//! cargo run -p wk-lint -- crates
//! ```
//!
//! Exit status: 0 clean, 1 findings, 2 usage or I/O error.

#![forbid(unsafe_code)]

pub mod annot;
pub mod callgraph;
pub mod dataflow;
pub mod diag;
pub mod items;
pub mod lexer;
pub mod rules;
pub mod semantic;
pub mod testmap;

pub use diag::{render_json, render_report, Diagnostic};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One source file of the workspace under analysis, as the pipeline's
/// owned input.
#[derive(Clone, Debug)]
pub struct SourceFile {
    /// Path diagnostics report (forward slashes).
    pub rel_path: String,
    /// Crate directory name under `crates/` (`bigint`, not `wk-bigint`).
    pub crate_name: String,
    /// The crate's lib identifier as other crates reference it
    /// (`wk_bigint`; the core crate is `weakkeys`). Drives the call
    /// graph's textual dependency inference.
    pub lib_name: String,
    pub src: String,
}

/// One fully lexed and annotated file, shared by the token rules and the
/// semantic pass.
pub struct FileUnit<'s> {
    pub rel_path: &'s str,
    pub crate_name: &'s str,
    pub lib_name: &'s str,
    pub src: &'s str,
    pub lexed: lexer::Lexed,
    pub testmap: testmap::TestMap,
    pub annotations: Vec<annot::Annotation>,
}

/// Lint a whole workspace of in-memory files: per-file token rules, then
/// the workspace-level semantic rules over the item table and call graph,
/// then per-file annotation resolution over the combined findings.
/// Diagnostics come back sorted by path and position.
pub fn check_workspace(files: &[SourceFile]) -> Vec<Diagnostic> {
    let units: Vec<FileUnit> = files
        .iter()
        .map(|f| {
            let lexed = lexer::lex(&f.src);
            let testmap = testmap::build(&lexed.tokens, &f.src, f.src.lines().count());
            let annotations = annot::parse(&lexed.comments, &lexed.tokens, &f.src);
            FileUnit {
                rel_path: &f.rel_path,
                crate_name: &f.crate_name,
                lib_name: &f.lib_name,
                src: &f.src,
                lexed,
                testmap,
                annotations,
            }
        })
        .collect();

    let mut table = items::ItemTable::default();
    for (i, u) in units.iter().enumerate() {
        items::parse_file(i, u.crate_name, u.src, &u.lexed, &u.testmap, &mut table);
    }
    let file_tokens: Vec<callgraph::FileTokens> = units
        .iter()
        .map(|u| callgraph::FileTokens {
            crate_name: u.crate_name,
            lib_name: u.lib_name,
            src: u.src,
            lexed: &u.lexed,
        })
        .collect();
    let graph = callgraph::build(&table, &file_tokens);

    let mut per_file: Vec<Vec<Diagnostic>> = units
        .iter()
        .map(|u| {
            rules::file_findings(&rules::FileContext {
                rel_path: u.rel_path,
                crate_name: u.crate_name,
                src: u.src,
                lexed: &u.lexed,
                testmap: &u.testmap,
                annotations: &u.annotations,
            })
        })
        .collect();
    for (file, diag) in semantic::check(&units, &table, &graph) {
        per_file[file].push(diag);
    }

    let mut diags = Vec::new();
    for (u, findings) in units.iter().zip(per_file) {
        let ctx = rules::FileContext {
            rel_path: u.rel_path,
            crate_name: u.crate_name,
            src: u.src,
            lexed: &u.lexed,
            testmap: &u.testmap,
            annotations: &u.annotations,
        };
        diags.extend(rules::resolve(&ctx, findings));
    }
    diags.sort_by_key(|d| d.sort_key());
    diags
}

/// Lint one in-memory file (a one-file workspace). Cross-file rules see
/// only this file; the token rules behave exactly as before the semantic
/// upgrade.
pub fn check_source(rel_path: &str, crate_name: &str, src: &str) -> Vec<Diagnostic> {
    check_workspace(&[SourceFile {
        rel_path: rel_path.to_string(),
        crate_name: crate_name.to_string(),
        lib_name: default_lib_name(crate_name),
        src: src.to_string(),
    }])
}

/// The lib identifier a crate directory maps to when no manifest says
/// otherwise: `wk_<dir>`, except the core crate which is `weakkeys`.
fn default_lib_name(crate_name: &str) -> String {
    if crate_name == "core" {
        "weakkeys".to_string()
    } else {
        format!("wk_{}", crate_name.replace('-', "_"))
    }
}

/// The lib identifier of a crate directory, from its `Cargo.toml`
/// (`[lib] name` override, else the `[package]` name with dashes
/// underscored). Fixture crates without a manifest get the default.
fn lib_name_of(crate_dir: &Path, crate_name: &str) -> String {
    let Ok(manifest) = fs::read_to_string(crate_dir.join("Cargo.toml")) else {
        return default_lib_name(crate_name);
    };
    let (mut in_package, mut in_lib) = (false, false);
    let (mut package_name, mut lib_name) = (None, None);
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            in_lib = line == "[lib]";
            continue;
        }
        if let Some(value) = line
            .strip_prefix("name")
            .map(str::trim_start)
            .and_then(|rest| rest.strip_prefix('='))
        {
            let value = value.trim().trim_matches('"').to_string();
            if in_lib {
                lib_name = Some(value);
            } else if in_package {
                package_name = Some(value);
            }
        }
    }
    lib_name
        .or(package_name)
        .map(|n| n.replace('-', "_"))
        .unwrap_or_else(|| default_lib_name(crate_name))
}

/// Collect every `<root>/<crate>/src/**/*.rs` file, sorted for
/// deterministic diagnostic order. Roots are crate-collection directories
/// (normally just `crates`).
pub fn collect_files(roots: &[PathBuf]) -> io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    for root in roots {
        if !root.is_dir() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("`{}` is not a directory", root.display()),
            ));
        }
        let mut crate_dirs: Vec<PathBuf> = fs::read_dir(root)?
            .collect::<io::Result<Vec<_>>>()?
            .into_iter()
            .map(|e| e.path())
            .filter(|p| p.join("src").is_dir())
            .collect();
        crate_dirs.sort();
        for crate_dir in crate_dirs {
            let crate_name = crate_dir
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            let lib_name = lib_name_of(&crate_dir, &crate_name);
            let mut sources = Vec::new();
            walk_rs(&crate_dir.join("src"), &mut sources)?;
            sources.sort();
            for path in sources {
                let src = fs::read_to_string(&path)?;
                files.push(SourceFile {
                    rel_path: path.to_string_lossy().replace('\\', "/"),
                    crate_name: crate_name.clone(),
                    lib_name: lib_name.clone(),
                    src,
                });
            }
        }
    }
    Ok(files)
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            walk_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lint every source file under the given roots; diagnostics come back
/// sorted by path and position.
pub fn run(roots: &[PathBuf]) -> io::Result<Vec<Diagnostic>> {
    Ok(check_workspace(&collect_files(roots)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwrap_in_bigint_lib_is_flagged() {
        let src = "pub fn f(v: Option<u32>) -> u32 {\n    v.unwrap()\n}\n";
        let d = check_source("crates/bigint/src/x.rs", "bigint", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, rules::NO_PANIC);
        assert_eq!((d[0].line, d[0].col), (2, 7));
    }

    #[test]
    fn unwrap_in_tests_is_fine() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { x().unwrap(); }\n}\n";
        assert!(check_source("crates/bigint/src/x.rs", "bigint", src).is_empty());
    }

    #[test]
    fn unwrap_outside_scoped_crates_is_fine() {
        // `lint` and `bench` are tooling crates, outside the no-panic scope.
        let src = "pub fn f(v: Option<u32>) -> u32 { v.unwrap() }\n";
        assert!(check_source("crates/lint/src/x.rs", "lint", src).is_empty());
    }

    #[test]
    fn unwrap_in_scan_and_service_libs_is_flagged() {
        let src = "pub fn f(v: Option<u32>) -> u32 { v.unwrap() }\n";
        for crate_name in ["scan", "service"] {
            let path = format!("crates/{crate_name}/src/x.rs");
            let d = check_source(&path, crate_name, src);
            assert_eq!(d.len(), 1, "{crate_name} is in the no-panic scope");
            assert_eq!(d[0].rule, rules::NO_PANIC);
        }
    }

    #[test]
    fn unwrap_or_variants_not_flagged() {
        let src = "pub fn f(v: Option<u32>) -> u32 {\n    v.unwrap_or(0) + v.unwrap_or_default() + v.unwrap_or_else(|| 1)\n}\n";
        assert!(check_source("crates/bigint/src/x.rs", "bigint", src).is_empty());
    }

    #[test]
    fn allow_with_justification_suppresses() {
        let src = "pub fn f(v: Option<u32>) -> u32 {\n    v.unwrap() // lint:allow(no-panic-in-lib) caller checked is_some\n}\n";
        assert!(check_source("crates/bigint/src/x.rs", "bigint", src).is_empty());
    }

    #[test]
    fn allow_without_justification_is_an_error() {
        let src =
            "pub fn f(v: Option<u32>) -> u32 {\n    v.unwrap() // lint:allow(no-panic-in-lib)\n}\n";
        let d = check_source("crates/bigint/src/x.rs", "bigint", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, rules::BAD_ANNOTATION);
    }

    #[test]
    fn unused_allow_is_an_error() {
        let src = "// lint:allow(no-panic-in-lib) nothing here\npub fn f() {}\n";
        let d = check_source("crates/bigint/src/x.rs", "bigint", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, rules::UNUSED_ALLOW);
    }

    #[test]
    fn panic_macros_flagged_but_asserts_exempt() {
        let src = "pub fn f(x: bool) {\n    assert!(x, \"precondition\");\n    if !x { panic!(\"boom\") }\n    unreachable!()\n}\n";
        let d = check_source("crates/batchgcd/src/x.rs", "batchgcd", src);
        let rules_hit: Vec<_> = d.iter().map(|d| (d.line, d.message.clone())).collect();
        assert_eq!(d.len(), 2, "{rules_hit:?}");
        assert!(d[0].message.contains("panic!"));
        assert!(d[1].message.contains("unreachable!"));
    }

    #[test]
    fn fixed_index_subscript_flagged_variable_index_not() {
        let src = "pub fn f(v: &[u32], i: usize) -> u32 {\n    v[0] + v[i]\n}\n";
        let d = check_source("crates/bigint/src/x.rs", "bigint", src);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("`[0]`"));
    }

    #[test]
    fn array_literals_and_macros_not_flagged() {
        let src = "pub fn f() -> [u8; 8] {\n    let _v = vec![1, 2];\n    let _s = &b\"xy\"[..];\n    [0u8; 8]\n}\n";
        assert!(check_source("crates/bigint/src/x.rs", "bigint", src).is_empty());
    }

    #[test]
    fn strings_and_comments_never_flagged() {
        let src = "pub fn f() -> &'static str {\n    // calls unwrap() and panic! in prose\n    \"unsafe unwrap() panic!\"\n}\n";
        assert!(check_source("crates/bigint/src/x.rs", "bigint", src).is_empty());
    }

    #[test]
    fn raw_natural_literal_flagged_everywhere_but_natural_rs() {
        let src = "fn f() -> Natural { Natural { limbs: vec![0] } }\n";
        let d = check_source("crates/bigint/src/mul.rs", "bigint", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, rules::LIMB_NORM);
        assert!(check_source("crates/bigint/src/natural.rs", "bigint", src).is_empty());
    }

    #[test]
    fn impl_blocks_do_not_trip_limb_rule() {
        let src = "impl Natural {\n    fn limbs(&self) -> &[u64] { &self.limbs }\n}\n";
        assert!(check_source("crates/bigint/src/other.rs", "bigint", src).is_empty());
    }

    #[test]
    fn limbs_field_write_flagged_comparison_not() {
        let src =
            "fn f(n: &mut Natural) {\n    n.limbs = vec![];\n    let _e = n.limbs == vec![];\n}\n";
        let d = check_source("crates/bigint/src/other.rs", "bigint", src);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("direct write"));
    }

    #[test]
    fn unsafe_outside_allowlist_flagged() {
        let src = "pub fn f() { unsafe { std::hint::unreachable_unchecked() } }\n";
        let d = check_source("crates/scan/src/x.rs", "scan", src);
        assert!(d.iter().any(|d| d.rule == rules::UNSAFE_CREEP));
        let pool = check_source("crates/batchgcd/src/pool.rs", "batchgcd", src);
        assert!(pool.iter().all(|d| d.rule != rules::UNSAFE_CREEP));
    }

    #[test]
    fn relaxed_in_pool_requires_annotation() {
        let src = "fn f(c: &AtomicU64) {\n    c.fetch_add(1, Ordering::Relaxed);\n}\n";
        let d = check_source("crates/batchgcd/src/pool.rs", "batchgcd", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, rules::ATOMICS);
        assert!(d[0].message.contains("unannotated"));
    }

    #[test]
    fn relaxed_metrics_annotation_accepted() {
        let src = "fn f(c: &AtomicU64) {\n    c.fetch_add(1, Ordering::Relaxed); // lint:atomics(metrics) reporting counter\n}\n";
        assert!(check_source("crates/batchgcd/src/pool.rs", "batchgcd", src).is_empty());
    }

    #[test]
    fn relaxed_control_annotation_is_an_error() {
        let src = "fn f(c: &AtomicBool) {\n    c.store(true, Ordering::Relaxed); // lint:atomics(control) shutdown flag\n}\n";
        let d = check_source("crates/batchgcd/src/pool.rs", "batchgcd", src);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("control-tagged"));
    }

    #[test]
    fn relaxed_outside_pool_not_audited() {
        let src = "fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }\n";
        assert!(
            check_source("crates/batchgcd/src/corpus.rs", "batchgcd", src)
                .iter()
                .all(|d| d.rule != rules::ATOMICS)
        );
    }

    #[test]
    fn acquire_release_need_no_annotation() {
        let src = "fn f(c: &AtomicBool) {\n    c.store(true, Ordering::Release);\n    c.load(Ordering::Acquire);\n}\n";
        assert!(check_source("crates/batchgcd/src/pool.rs", "batchgcd", src).is_empty());
    }

    #[test]
    fn own_line_annotation_covers_next_line() {
        let src = "pub fn f(v: Option<u32>) -> u32 {\n    // lint:allow(no-panic-in-lib) invariant: caller guarantees Some\n    v.unwrap()\n}\n";
        assert!(check_source("crates/bigint/src/x.rs", "bigint", src).is_empty());
    }

    #[test]
    fn arena_checkout_without_release_is_flagged() {
        let src =
            "fn f(n: usize) -> usize {\n    let buf = crate::arena::take(n);\n    buf.len()\n}\n";
        let d = check_source("crates/bigint/src/x.rs", "bigint", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, rules::ARENA_DISCIPLINE);
        assert!(d[0].message.contains("never returns"));
    }

    #[test]
    fn arena_checkout_paired_or_transferred_is_fine() {
        let put = "fn f(n: usize) {\n    let buf = arena::take(n);\n    arena::put(buf);\n}\n";
        assert!(check_source("crates/bigint/src/x.rs", "bigint", put).is_empty());
        let xfer = "fn f(n: usize) -> Natural {\n    let buf = wk_bigint::arena::take(n);\n    Natural::from_limbs(buf)\n}\n";
        assert!(check_source("crates/batchgcd/src/x.rs", "batchgcd", xfer).is_empty());
        let inline = "fn f(n: usize) -> Natural {\n    Natural::from_limbs(arena::take(n))\n}\n";
        assert!(check_source("crates/bigint/src/x.rs", "bigint", inline).is_empty());
    }

    #[test]
    fn return_between_checkout_and_release_is_flagged() {
        let src = "fn f(n: usize) -> usize {\n    let buf = arena::take(n);\n    if n == 0 {\n        return 0;\n    }\n    arena::put(buf);\n    n\n}\n";
        let d = check_source("crates/bigint/src/x.rs", "bigint", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, rules::ARENA_DISCIPLINE);
        assert!(d[0].message.contains("`return` between"));
        assert_eq!(d[0].line, 4);
    }

    #[test]
    fn arena_buffer_stored_in_struct_is_flagged() {
        let literal = "fn f(n: usize) -> Cache {\n    Cache { buf: arena::take(n) }\n}\n";
        let d = check_source("crates/batchgcd/src/x.rs", "batchgcd", literal);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("struct field"));
        let assign = "fn f(c: &mut Cache, n: usize) {\n    c.buf = crate::arena::take(n);\n}\n";
        let d = check_source("crates/bigint/src/x.rs", "bigint", assign);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("struct field"));
    }

    #[test]
    fn arena_rule_scoped_to_arithmetic_crates() {
        let src = "fn f(n: usize) -> usize {\n    let buf = arena::take(n);\n    buf.len()\n}\n";
        assert!(check_source("crates/service/src/x.rs", "service", src)
            .iter()
            .all(|d| d.rule != rules::ARENA_DISCIPLINE));
    }

    #[test]
    fn arena_allow_with_justification_suppresses() {
        let src = "fn f(n: usize) -> Vec<u64> {\n    // lint:allow(arena-discipline) returned to the caller, which recycles it\n    let buf = arena::take(n);\n    buf\n}\n";
        assert!(check_source("crates/bigint/src/x.rs", "bigint", src).is_empty());
    }

    #[test]
    fn diagnostics_sorted_and_rendered() {
        let src = "pub fn f(v: Option<u32>, w: &[u32]) -> u32 {\n    v.unwrap() + w[0]\n}\n";
        let d = check_source("crates/bigint/src/x.rs", "bigint", src);
        assert_eq!(d.len(), 2);
        let report = render_report(&d);
        assert!(report.contains("crates/bigint/src/x.rs:2:7"));
        assert!(report.contains("2 violations in 1 file"));
    }
}
