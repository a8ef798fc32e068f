//! The lint rules and their registry.
//!
//! Each rule is a pure function over one file's code-token stream
//! ([`FileTokens`]): it pushes [`Finding`]s and never does I/O. Rules opt
//! into scopes (library, example, bench, test) so that, for instance, a
//! boundary test may construct `RecordId(u32::MAX)` without noise while the
//! same expression in library code is an error. See `docs/LINTS.md` for the
//! full catalogue with rationale and allow guidance.

use crate::engine::{FileTokens, Finding, Scope};

mod hash_iter_order;
mod lossy_id_cast;
mod raw_sentinel;
mod thread_confinement;
mod unwrap_in_lib;

/// One registered lint rule.
pub struct Rule {
    /// The rule's kebab-case name, as used in diagnostics and allow markers.
    pub name: &'static str,
    /// Whether the rule runs over files of the given scope.
    pub applies: fn(Scope) -> bool,
    /// The check itself.
    pub check: fn(&FileTokens<'_>, &mut Vec<Finding>),
    /// One-line remediation guidance appended to diagnostics.
    pub help: &'static str,
}

fn lib_only(scope: Scope) -> bool {
    scope == Scope::Lib
}

fn lib_example_bench(scope: Scope) -> bool {
    matches!(scope, Scope::Lib | Scope::Example | Scope::Bench)
}

fn everywhere(_scope: Scope) -> bool {
    true
}

/// All registered rules, in diagnostic order.
pub const RULES: &[Rule] = &[
    Rule {
        name: "hash-iter-order",
        applies: lib_only,
        check: hash_iter_order::check,
        help: "HashMap/HashSet iteration order is nondeterministic: sort the result, collect into a \
               BTreeMap/BTreeSet, use StableHashMap with sorted output, or add `// sablock-lint: \
               allow(hash-iter-order): <why order cannot reach output>`",
    },
    Rule {
        name: "lossy-id-cast",
        applies: lib_example_bench,
        check: lossy_id_cast::check,
        help: "`as` narrowing can silently alias the u32::MAX merge sentinel: use \
               RecordId::try_from_index / u32::try_from, or add `// sablock-lint: allow(lossy-id-cast): \
               <why the value provably fits>`",
    },
    Rule {
        name: "thread-confinement",
        applies: everywhere,
        check: thread_confinement::check,
        help: "all parallelism goes through core::parallel (deterministic chunk-and-stitch); call \
               parallel_map, join_all, or worker_pool/JobQueue instead of spawning threads or holding \
               JoinHandles directly",
    },
    Rule {
        name: "raw-sentinel",
        applies: lib_example_bench,
        check: raw_sentinel::check,
        help: "record-id code must name the sentinel: use MAX_RECORD_ID (== u32::MAX - 1) so the \
               reserved-id invariant is greppable, or add `// sablock-lint: allow(raw-sentinel): <reason>`",
    },
    Rule {
        name: "unwrap-in-lib",
        applies: lib_only,
        check: unwrap_in_lib::check,
        help: "I/O and parsing fail in production: propagate a typed error (CoreError/DatasetError) \
               instead of panicking, or add `// sablock-lint: allow(unwrap-in-lib): <why it cannot fail>`",
    },
];

/// The help text for a rule name — token rules here, semantic rules from
/// [`crate::semantic`] — if registered (engine pseudo-rules like
/// `unused-allow` have none).
pub fn help_for(name: &str) -> Option<&'static str> {
    RULES
        .iter()
        .find(|r| r.name == name)
        .map(|r| r.help)
        .or_else(|| crate::semantic::help_for(name))
}

/// Whether an identifier is record-id-flavoured: one of the id newtypes, or
/// any snake/camel identifier with an `id`/`ids`/`record`/`records` word
/// segment (`next_id`, `RecordIdOverflow` — but not `valid` or `idx`).
pub(crate) fn is_id_flavoured(ident: &str) -> bool {
    matches!(ident, "RecordId" | "EntityId" | "ConceptId" | "MAX_RECORD_ID")
        || crate::engine::ident_segments(ident)
            .iter()
            .any(|s| matches!(s.as_str(), "id" | "ids" | "record" | "records"))
}
