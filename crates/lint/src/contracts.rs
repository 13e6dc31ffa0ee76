//! The committed hot-path contract file: `lint_contracts.json`.
//!
//! Each entry declares one **entry point** of a latency-critical plane
//! and the contract rule families its transitive closure must satisfy:
//!
//! ```json
//! {
//!   "answer_on": {
//!     "crate": "ssor-serve",
//!     "rules": ["hot_panic", "hot_alloc"],
//!     "why": "per-request reply materialization"
//!   }
//! }
//! ```
//!
//! Keys are function names — either a simple name (`answer_on`,
//! matching any function so named in the crate) or `Type::name`
//! (matching methods/assoc fns of `Type`). The `crate` field pins the
//! entry to one budget-style crate key (`ssor-serve`), so a same-named
//! test helper elsewhere can never satisfy the lookup; an entry that
//! matches *no* function is itself a diagnostic, which is what keeps a
//! rename from silently disabling the gate. `rules` lists contract
//! families from [`crate::rules::contract`]; `why` is documentation
//! echoed in diagnostics.

use crate::budget::{bad, Parser};
use std::collections::BTreeMap;
use std::io;

/// The canonical file name at the workspace root.
pub const FILE_NAME: &str = "lint_contracts.json";

/// One declared entry point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Budget-style crate key (`ssor-serve`) the function must live in.
    pub krate: String,
    /// Contract rule families to enforce over the transitive closure.
    pub rules: Vec<String>,
    /// Why this function is hot (echoed in diagnostics).
    pub why: String,
}

/// Parses `lint_contracts.json`. Rejects unknown fields, unknown rule
/// names, duplicate keys, and empty rule lists — a malformed contract
/// file must fail the run loudly, never weaken it silently.
pub fn from_json(text: &str) -> io::Result<BTreeMap<String, Entry>> {
    let mut p = Parser::new(text, FILE_NAME);
    let mut entries = BTreeMap::new();
    p.object(
        &mut entries,
        |p, entries: &mut BTreeMap<String, Entry>, name| {
            let mut e = Entry {
                krate: String::new(),
                rules: Vec::new(),
                why: String::new(),
            };
            let mut seen = [false; 3];
            p.object(&mut e, |p, e: &mut Entry, key| match key.as_str() {
                "crate" if !seen[0] => {
                    seen[0] = true;
                    e.krate = p.string()?;
                    Ok(())
                }
                "rules" if !seen[1] => {
                    seen[1] = true;
                    p.array(|p| {
                        let rule = p.string()?;
                        if !crate::rules::contract::RULES.contains(&rule.as_str()) {
                            return Err(bad(
                                FILE_NAME,
                                &format!(
                                    "unknown contract rule `{rule}` (expected one of {:?})",
                                    crate::rules::contract::RULES
                                ),
                            ));
                        }
                        if e.rules.contains(&rule) {
                            return Err(bad(FILE_NAME, &format!("duplicate rule `{rule}`")));
                        }
                        e.rules.push(rule);
                        Ok(())
                    })
                }
                "why" if !seen[2] => {
                    seen[2] = true;
                    e.why = p.string()?;
                    Ok(())
                }
                other => Err(bad(
                    FILE_NAME,
                    &format!("unknown or duplicate field `{other}` in entry `{name}`"),
                )),
            })?;
            if !seen[0] || e.krate.is_empty() {
                return Err(bad(FILE_NAME, &format!("entry `{name}` needs a `crate`")));
            }
            if e.rules.is_empty() {
                return Err(bad(
                    FILE_NAME,
                    &format!("entry `{name}` declares no rules — delete it or list one"),
                ));
            }
            if entries.insert(name.clone(), e).is_some() {
                return Err(bad(FILE_NAME, &format!("duplicate entry `{name}`")));
            }
            Ok(())
        },
    )?;
    p.finish()?;
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    const OK: &str = r#"{
  "answer_on": { "crate": "ssor-serve", "rules": ["hot_panic", "hot_alloc"], "why": "per-request" },
  "eval_cell": { "crate": "ssor-engine", "rules": ["hot_panic"], "why": "per-cell sweep body" }
}"#;

    #[test]
    fn parses_the_documented_shape() {
        let e = from_json(OK).unwrap();
        assert_eq!(e.len(), 2);
        let a = &e["answer_on"];
        assert_eq!(a.krate, "ssor-serve");
        assert_eq!(a.rules, vec!["hot_panic", "hot_alloc"]);
        assert_eq!(e["eval_cell"].rules, vec!["hot_panic"]);
    }

    #[test]
    fn rejects_unknown_rules_fields_and_duplicates() {
        assert!(from_json(r#"{ "f": { "crate": "c", "rules": ["nope"], "why": "" } }"#).is_err());
        assert!(from_json(r#"{ "f": { "crate": "c", "rules": [], "why": "" } }"#).is_err());
        assert!(from_json(r#"{ "f": { "rules": ["hot_panic"], "why": "" } }"#).is_err());
        assert!(
            from_json(r#"{ "f": { "crate": "c", "rules": ["hot_panic"], "extra": "x" } }"#)
                .is_err()
        );
        assert!(from_json(
            r#"{ "f": { "crate": "c", "rules": ["hot_panic", "hot_panic"], "why": "" } }"#
        )
        .is_err());
        assert!(from_json("{}").is_ok());
    }
}
