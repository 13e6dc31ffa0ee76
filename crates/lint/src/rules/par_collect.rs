//! Rule `par_collect`: parallel fan-out rides the workspace's one
//! ordered primitive, not raw rayon collection.
//!
//! **Why.** Every guarantee the engine publishes — bit-identical
//! reports at any thread count, completion order, or shard count —
//! reduces to one discipline: parallel stages must merge their partials
//! in a *fixed, input-derived order*. The workspace owns exactly one
//! primitive that encodes it, `ssor_graph::par_ordered_map` (input-order
//! collect with a serial small-batch cutoff), and
//! `crates/graph/src/par.rs` is where that contract is implemented,
//! tested, and documented once. Reductions build on it rather than
//! beside it: `EdgeLoads::par_merge` maps fixed edge ranges through it,
//! and the sweep scheduler maps its cells through it. A raw
//! `par_iter().collect()` sprinkled anywhere else may happen to be
//! ordered today (rayon's indexed collect is), but it silently decays:
//! someone chains `.filter`, switches to a fold, or collects into a
//! map, and the bytes start depending on worker count with no test
//! pointing at the culprit.
//!
//! **Rule.** The adapters `.par_iter()`, `.par_iter_mut()`,
//! `.into_par_iter()`, `.par_bridge()`, and `.par_chunks(` may appear
//! only in `crates/graph/src/par.rs`. There is no allow annotation:
//! a new fan-out shape belongs in that module, next to the primitive.

use super::{Diagnostic, FileClass};
use crate::scanner::SourceFile;

/// Rule name, as spelled in `lint: allow(...)`.
pub const NAME: &str = "par_collect";

const ADAPTERS: [&str; 5] = [
    ".par_iter()",
    ".par_iter_mut()",
    ".into_par_iter()",
    ".par_bridge()",
    ".par_chunks(",
];

/// Scans one file for raw rayon fan-out outside the par module.
pub fn check(file: &SourceFile, class: &FileClass, out: &mut Vec<Diagnostic>) {
    if class.is_par_module {
        return;
    }
    for (idx, line) in file.lines.iter().enumerate() {
        for adapter in ADAPTERS {
            if line.code.contains(adapter) {
                out.push(Diagnostic {
                    path: file.path.clone(),
                    line: idx + 1,
                    rule: NAME,
                    message: format!(
                        "raw rayon fan-out `{}` outside crates/graph/src/par.rs: collection \
                         order is unguarded there; ride ssor_graph::par_ordered_map, the one \
                         thread-count-invariant fan-out",
                        adapter.trim_end_matches('(')
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::scan_source;

    #[test]
    fn fires_outside_par_module_only() {
        let src = "let v: Vec<_> = items.par_iter().map(f).collect();\n\
                   let w: Vec<_> = items.into_par_iter().collect();\n";
        let f = scan_source("crates/flow/src/x.rs", src);
        let mut out = Vec::new();
        check(&f, &FileClass::of("crates/flow/src/x.rs"), &mut out);
        assert_eq!(out.len(), 2);

        let f = scan_source("crates/graph/src/par.rs", src);
        let mut out = Vec::new();
        check(&f, &FileClass::of("crates/graph/src/par.rs"), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn an_allow_annotation_does_not_exempt_a_raw_fan_out() {
        let src =
            format!("// lint: allow({NAME})\nlet p: Vec<_> = r.par_iter().map(f).collect();\n");
        let f = scan_source("crates/graph/src/load.rs", &src);
        let mut out = Vec::new();
        check(&f, &FileClass::of("crates/graph/src/load.rs"), &mut out);
        assert_eq!(out.len(), 1);
    }
}
