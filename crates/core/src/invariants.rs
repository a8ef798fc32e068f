//! Runtime invariant checks behind the `check-invariants` cargo feature.
//!
//! `cargo xtask lint` enforces the *source-level* determinism rules (ordered
//! iteration, checked id narrowing, thread confinement — see
//! `docs/LINTS.md`); this module is the dynamic complement: assertions over
//! the actual data structures that no token-level rule can prove. The
//! invariants wired through the blocking and incremental paths are:
//!
//! * **packed runs strictly ascending** — every run handed to the
//!   loser-tree merge is sorted and deduplicated ([`assert_strictly_ascending`]),
//!   and [`crate::blocking::radix_sort_packed`] leaves its input
//!   nondecreasing ([`assert_sorted`]);
//! * **merge emissions nondecreasing** — the galloping loser-tree merge
//!   emits a strictly ascending stream of distinct keys
//!   ([`check_emission_monotone`]);
//! * **per-batch deltas pairwise disjoint** — no candidate pair is ever
//!   reported by two different ingest batches ([`check_delta_disjoint`]),
//!   the property that makes cumulative delta counts exact;
//! * **tombstone set ⊆ inserted ids** — the removal bitmap covers exactly
//!   the assigned id range and agrees with the removal counter
//!   ([`check_tombstones`]);
//! * **running counters never go negative** — a removal subtracts at most
//!   what the running Γ/Γ_tp accumulators currently hold, so the `u64`
//!   subtraction can never wrap ([`check_counter_subtraction`]);
//! * **bucket tombstone accounting** — each bucket's dead-member counter
//!   equals the number of its members the tombstone bitmap marks removed,
//!   checked after every removal touch and after every bucket-local
//!   compaction ([`check_bucket_tombstones`]).
//!
//! Every helper compiles to an empty `#[inline]` function unless
//! `sablock_core` is built with `--features check-invariants`, so the hot
//! paths pay nothing in normal builds. CI runs the tier-1 suite once with
//! the feature enabled (`cargo test -q --features
//! sablock_core/check-invariants`).

/// Asserts that a packed run is nondecreasing — what
/// [`crate::blocking::radix_sort_packed`] guarantees before deduplication.
#[inline]
#[allow(unused_variables)]
pub(crate) fn assert_sorted(run: &[u64], context: &str) {
    #[cfg(feature = "check-invariants")]
    for window in run.windows(2) {
        assert!(
            window[0] <= window[1],
            "check-invariants: {context}: packed run not sorted ({:#x} > {:#x})",
            window[0],
            window[1],
        );
    }
}

/// Asserts that a packed run is strictly ascending (sorted *and*
/// deduplicated) — the precondition every loser-tree merge consumer relies
/// on for its duplicate-dropping logic.
#[inline]
#[allow(unused_variables)]
pub(crate) fn assert_strictly_ascending(run: &[u64], context: &str) {
    #[cfg(feature = "check-invariants")]
    for window in run.windows(2) {
        assert!(
            window[0] < window[1],
            "check-invariants: {context}: packed run not strictly ascending ({:#x} !< {:#x})",
            window[0],
            window[1],
        );
    }
}

/// Checks one emitted merge segment against the running high-water mark:
/// segments must be internally strictly ascending and start strictly above
/// everything emitted before them, so the merged stream as a whole is a
/// strictly ascending sequence of distinct keys.
#[cfg(feature = "check-invariants")]
pub(crate) fn check_emission_monotone(last: &mut Option<u64>, segment: &[u64]) {
    assert_strictly_ascending(segment, "merge emission segment");
    if let (Some(prev), Some(&first)) = (*last, segment.first()) {
        assert!(
            prev < first,
            "check-invariants: merge emitted {first:#x} at or below the previous emission {prev:#x}",
        );
    }
    if let Some(&key) = segment.last() {
        *last = Some(key);
    }
}

/// Checks that a freshly built per-batch delta is disjoint from every delta
/// emitted before it, folding the delta's distinct keys into the blocker's
/// lifetime set: across batches each pair must be reported exactly once.
#[cfg(feature = "check-invariants")]
pub(crate) fn check_delta_disjoint(
    emitted: &mut std::collections::BTreeSet<u64>,
    delta: &crate::incremental::DeltaPairs,
) {
    for &key in delta.distinct_packed() {
        assert!(
            emitted.insert(key),
            "check-invariants: delta pair {key:#x} was already emitted by an earlier batch",
        );
    }
}

/// Checks the tombstone invariants of the incremental blocker: the removal
/// bitmap covers exactly the assigned id range `0..next_id` (so the
/// tombstone set is necessarily a subset of the inserted ids) and the
/// removal counter agrees with the bitmap.
#[cfg(feature = "check-invariants")]
pub(crate) fn check_tombstones(removed: &[bool], removed_count: usize, next_id: u32) {
    assert!(
        removed.len() == next_id as usize,
        "check-invariants: tombstone bitmap covers {} ids but {next_id} were assigned",
        removed.len(),
    );
    let marked = removed.iter().filter(|&&tombstoned| tombstoned).count();
    assert!(
        marked == removed_count,
        "check-invariants: {marked} tombstones in the bitmap but removed_count says {removed_count}",
    );
}

/// Checks that subtracting `subtract` from the running counter `current`
/// cannot underflow — the removal path derives `subtract` by enumerating
/// only pairs that earlier deltas folded *into* the counter, so going
/// negative would mean the back-references and the accumulator disagree.
#[inline]
#[allow(unused_variables)]
pub(crate) fn check_counter_subtraction(current: u64, subtract: u64, context: &str) {
    #[cfg(feature = "check-invariants")]
    assert!(
        subtract <= current,
        "check-invariants: {context}: subtracting {subtract} from {current} would make the running counter negative",
    );
}

/// Checks one bucket's tombstone accounting against the global removal
/// bitmap: the bucket's dead counter must equal the number of its members
/// currently marked removed (0 immediately after a compaction, which purges
/// every dead member).
#[inline]
#[allow(unused_variables)]
pub(crate) fn check_bucket_tombstones(
    members: &[sablock_datasets::RecordId],
    dead: u32,
    removed: &[bool],
    context: &str,
) {
    #[cfg(feature = "check-invariants")]
    {
        let marked = members.iter().filter(|member| removed[member.index()]).count();
        assert!(
            marked == dead as usize,
            "check-invariants: {context}: bucket dead counter says {dead} but {marked} members are tombstoned",
        );
    }
}

// Trip tests: the sanitizer must actually fire on bad data, otherwise a
// cfg/feature plumbing mistake would turn every check into a silent no-op
// and CI's check-invariants step would prove nothing.
#[cfg(all(test, feature = "check-invariants"))]
mod tests {
    use super::*;

    #[test]
    fn accepts_good_runs() {
        assert_sorted(&[1, 1, 2, 9], "test");
        assert_strictly_ascending(&[1, 2, 9], "test");
        let mut last = None;
        check_emission_monotone(&mut last, &[1, 2]);
        check_emission_monotone(&mut last, &[5, 9]);
        check_tombstones(&[true, false, true], 2, 3);
        check_counter_subtraction(10, 10, "test");
        check_counter_subtraction(10, 0, "test");
        let ids = [sablock_datasets::RecordId(0), sablock_datasets::RecordId(1)];
        check_bucket_tombstones(&ids, 1, &[true, false], "test");
        check_bucket_tombstones(&ids, 0, &[false, false], "test");
    }

    #[test]
    #[should_panic(expected = "would make the running counter negative")]
    fn trips_on_counter_underflow() {
        check_counter_subtraction(3, 4, "test");
    }

    #[test]
    #[should_panic(expected = "members are tombstoned")]
    fn trips_on_bucket_dead_counter_mismatch() {
        let ids = [sablock_datasets::RecordId(0), sablock_datasets::RecordId(1)];
        check_bucket_tombstones(&ids, 2, &[true, false], "test");
    }

    #[test]
    #[should_panic(expected = "not sorted")]
    fn trips_on_unsorted_run() {
        assert_sorted(&[2, 1], "test");
    }

    #[test]
    #[should_panic(expected = "not strictly ascending")]
    fn trips_on_duplicate_key() {
        assert_strictly_ascending(&[1, 1], "test");
    }

    #[test]
    #[should_panic(expected = "at or below the previous emission")]
    fn trips_on_non_monotone_emission() {
        let mut last = None;
        check_emission_monotone(&mut last, &[5, 9]);
        check_emission_monotone(&mut last, &[7]);
    }

    #[test]
    #[should_panic(expected = "removed_count says")]
    fn trips_on_tombstone_count_mismatch() {
        check_tombstones(&[true, false], 2, 2);
    }
}
