//! Rule `forbid_unsafe`: every crate root forbids `unsafe`.
//!
//! **Why.** The workspace's concurrency story (epoch-swapped route
//! tables, the sweep scheduler's journal, rayon fan-outs) is built
//! entirely from safe primitives — `Mutex` + `AtomicU64` epochs,
//! scoped threads — precisely so that the
//! determinism arguments stay arguments about *logic*, never about
//! memory models. `#![forbid(unsafe_code)]` (unlike `deny`) cannot be
//! overridden by an inner `#[allow]`, so its presence in the crate
//! root is a complete proof that no `unsafe` block hides anywhere in
//! the crate. The workspace `[lints]` table forbids it too; the
//! in-source attribute is kept as well so the guarantee survives being
//! built outside the workspace (and stays visible at the top of every
//! crate).
//!
//! **Rule.** Every crate root (`src/lib.rs`, `src/main.rs`) must
//! contain a literal `#![forbid(unsafe_code)]` line. There is no allow
//! escape: an `unsafe` block needs a different PR conversation than a
//! lint annotation.

use super::{Diagnostic, FileClass};
use crate::scanner::SourceFile;

/// Rule name (diagnostics only; no `lint: allow` escape).
pub const NAME: &str = "forbid_unsafe";

/// Checks that a crate root carries the forbid attribute.
pub fn check(file: &SourceFile, class: &FileClass, out: &mut Vec<Diagnostic>) {
    if !class.is_crate_root {
        return;
    }
    let has = file
        .lines
        .iter()
        .any(|l| l.code.contains("#![forbid(unsafe_code)]"));
    if !has {
        out.push(Diagnostic {
            path: file.path.clone(),
            line: 1,
            rule: NAME,
            message: "crate root is missing `#![forbid(unsafe_code)]`: the workspace's \
                      determinism arguments assume safe-only concurrency primitives"
                .to_string(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::scan_source;

    #[test]
    fn missing_forbid_fires_on_roots_only() {
        let f = scan_source("crates/x/src/lib.rs", "pub fn f() {}\n");
        let mut out = Vec::new();
        check(&f, &FileClass::of("crates/x/src/lib.rs"), &mut out);
        assert_eq!(out.len(), 1);

        let f = scan_source("crates/x/src/other.rs", "pub fn f() {}\n");
        let mut out = Vec::new();
        check(&f, &FileClass::of("crates/x/src/other.rs"), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn present_forbid_is_clean() {
        let f = scan_source(
            "crates/x/src/lib.rs",
            "//! Docs.\n#![warn(missing_docs)]\n#![forbid(unsafe_code)]\npub fn f() {}\n",
        );
        let mut out = Vec::new();
        check(&f, &FileClass::of("crates/x/src/lib.rs"), &mut out);
        assert!(out.is_empty());
    }
}
