//! Rule confirmation: from content occurrences to confirmed multi-content
//! rules.
//!
//! A rule is an ordered list of contents with `offset`/`depth`/`distance`/
//! `within` constraints. Confirmation splits into an approximate pass and
//! an exact check, in the style of Češka et al.'s prefilter-plus-exact
//! design:
//!
//! 1. **Occurrence index.** One multi-pattern pass over the rule set's
//!    distinct contents ([`RuleSet::content_set`]) records every
//!    occurrence end per content slot in an [`OccurrenceIndex`]. In
//!    `mpm-stream` that pass is the SIMD engine the flow is scanned with
//!    anyway, fed one packet at a time; [`RuleScanner`] fills the index
//!    with a scalar Aho-Corasick pass over a whole payload.
//! 2. **Chain DP.** [`RuleConfirmer::confirm`] slices each content's
//!    absolute `offset`/`depth` window out of its sorted occurrence list
//!    (two binary searches) and, over contents in rule order, computes for
//!    every occurrence the minimal achievable *maximum occurrence end* of
//!    any constraint-satisfying assignment ending there. The relative
//!    constraints couple only adjacent contents through the previous
//!    occurrence's end, so
//!    `g_i(j) = max(end_j, min over feasible k of g_{i-1}(k))`.
//!    The rule is satisfiable iff some `g` survives, and `min g` is the
//!    **minimal prefix length at which the rule matches**, the offset
//!    reported in [`RuleMatch::end`].
//!
//! No payload bytes are read in step 2: satisfiability and the minimal end
//! depend only on the set of occurrences. That minimum never depends on
//! chunking, which is what lets `mpm-stream` report identical rule matches
//! streamed and one-shot (property-tested in
//! `tests/rule_confirmation_differential.rs` against the naive evaluator in
//! `mpm_patterns::rule`, which uses a deliberately different algorithm:
//! memoized recursion plus binary search).
//!
//! Confirmation is gated on anchor hits ([`RuleConfirmer::anchored_at`]
//! maps a content slot to the rules it anchors). Gating loses nothing: a
//! satisfying assignment contains a real anchor occurrence, and the index
//! is exact, so "rule satisfiable" implies "anchor indexed".

use mpm_aho_corasick::NfaMatcher;
use mpm_patterns::rule::{RuleContent, RuleId, RuleMatch, RuleSet};
use mpm_patterns::{MatchEvent, Matcher};
use std::collections::BTreeSet;
use std::sync::Arc;

/// The rule-confirmation stage: the compiled constraint chains of every
/// rule of a [`RuleSet`], evaluated on demand against an
/// [`OccurrenceIndex`] when the rule's anchor fires.
///
/// Stateless per payload; share one confirmer across threads via [`Arc`].
#[derive(Clone, Debug)]
pub struct RuleConfirmer {
    rules: Arc<RuleSet>,
    /// `anchored[anchored_start[s]..anchored_start[s + 1]]` lists the rules
    /// whose anchor content is slot `s`.
    anchored_start: Vec<u32>,
    anchored: Vec<u32>,
}

impl RuleConfirmer {
    /// Compiles the confirmation stage for `set`. Its slots are the
    /// pattern ids of [`RuleSet::content_set`].
    pub fn build(set: &RuleSet) -> Self {
        let anchor_slots: Vec<usize> = set
            .iter()
            .map(|(id, rule)| set.content_slots(id)[rule.anchor_index()] as usize)
            .collect();
        // Counting sort of rule ids by anchor slot.
        let mut anchored_start = vec![0u32; set.content_set().len() + 1];
        for &slot in &anchor_slots {
            anchored_start[slot + 1] += 1;
        }
        for s in 1..anchored_start.len() {
            anchored_start[s] += anchored_start[s - 1];
        }
        let mut fill = anchored_start.clone();
        let mut anchored = vec![0u32; set.len()];
        for (rule, &slot) in anchor_slots.iter().enumerate() {
            anchored[fill[slot] as usize] = rule as u32;
            fill[slot] += 1;
        }
        RuleConfirmer {
            rules: Arc::new(set.clone()),
            anchored_start,
            anchored,
        }
    }

    /// Number of rules this confirmer covers.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// The underlying rule set.
    pub fn rules(&self) -> &RuleSet {
        &self.rules
    }

    /// The rules (ids, ascending) whose anchor content is `slot`.
    pub fn anchored_at(&self, slot: u32) -> &[u32] {
        let s = slot as usize;
        &self.anchored[self.anchored_start[s] as usize..self.anchored_start[s + 1] as usize]
    }

    /// Confirms `rule` against the occurrences in `index`. Returns the
    /// minimal prefix length at which the rule is satisfiable, or `None`.
    ///
    /// Each content's occurrence list is cut to its absolute window
    /// (`start >= offset`, and `end <= offset + depth` under `depth`) with
    /// two binary searches; the chain DP then runs on those slices.
    pub fn confirm(&self, index: &OccurrenceIndex, rule: RuleId) -> Option<usize> {
        let contents = self.rules.get(rule).contents();
        let slots = self.rules.content_slots(rule);
        let mut lists: Vec<&[u64]> = Vec::with_capacity(contents.len());
        for (content, &slot) in contents.iter().zip(slots) {
            let all = index.ends(slot);
            let offset = content.offset() as u64;
            let from = all.partition_point(|&end| end < offset + content.len() as u64);
            let to = match content.depth() {
                Some(depth) => all.partition_point(|&end| end <= offset + depth as u64),
                None => all.len(),
            };
            if from >= to {
                return None;
            }
            lists.push(&all[from..to]);
        }
        chain_dp(contents, &lists)
    }

    /// Heap bytes of the compiled rule chains, their content-slot tables
    /// and the anchor map.
    pub fn heap_bytes(&self) -> usize {
        let chains: usize = self.rules.rules().iter().map(|r| r.heap_bytes()).sum();
        let slots: usize = self
            .rules
            .iter()
            .map(|(id, _)| std::mem::size_of_val(self.rules.content_slots(id)))
            .sum();
        chains + slots + (self.anchored_start.len() + self.anchored.len()) * 4
    }
}

/// Occurrence ends (`start + len`) per content slot, sorted, for one
/// payload or one flow so far.
///
/// Only slots that occurred take space, so memory grows with the number of
/// occurrences, not with the payload or the number of contents. Streaming
/// callers append incrementally: every end they insert exceeds all ends
/// already indexed for that slot, which keeps each list sorted without any
/// re-sort.
#[derive(Clone, Debug, Default)]
pub struct OccurrenceIndex {
    /// `(slot, ends)`, sorted by slot; `ends` is never empty.
    lists: Vec<(u32, Vec<u64>)>,
}

impl OccurrenceIndex {
    /// An empty index.
    pub fn new() -> Self {
        OccurrenceIndex::default()
    }

    /// Fills an index from one scan of a whole payload by an engine
    /// compiled for [`RuleSet::content_set`] (pattern id == slot).
    /// `lengths` gives the content length per slot.
    pub fn from_events(mut events: Vec<MatchEvent>, lengths: &[u32]) -> Self {
        events.sort_unstable_by_key(|e| (e.pattern, e.start));
        let mut index = OccurrenceIndex::new();
        for e in events {
            let slot = e.pattern.0;
            index.insert(slot, (e.start + lengths[slot as usize] as usize) as u64);
        }
        index
    }

    /// Records an occurrence of `slot` ending at `end`, which must exceed
    /// every end already indexed for `slot`. Returns true if it is the
    /// slot's first occurrence.
    pub fn insert(&mut self, slot: u32, end: u64) -> bool {
        match self.lists.binary_search_by_key(&slot, |(s, _)| *s) {
            Ok(i) => {
                let ends = &mut self.lists[i].1;
                debug_assert!(ends.last().is_some_and(|&last| last < end));
                ends.push(end);
                false
            }
            Err(i) => {
                self.lists.insert(i, (slot, vec![end]));
                true
            }
        }
    }

    /// The sorted occurrence ends of `slot` (empty if it never occurred).
    pub fn ends(&self, slot: u32) -> &[u64] {
        match self.lists.binary_search_by_key(&slot, |(s, _)| *s) {
            Ok(i) => &self.lists[i].1,
            Err(_) => &[],
        }
    }

    /// Total number of occurrences recorded.
    pub fn occurrence_count(&self) -> usize {
        self.lists.iter().map(|(_, ends)| ends.len()).sum()
    }

    /// Heap bytes held by the index.
    pub fn heap_bytes(&self) -> usize {
        self.lists.capacity() * std::mem::size_of::<(u32, Vec<u64>)>()
            + self
                .lists
                .iter()
                .map(|(_, ends)| ends.capacity() * std::mem::size_of::<u64>())
                .sum::<usize>()
    }

    /// Forgets every occurrence, keeping the allocation of the slot list.
    pub fn clear(&mut self) {
        self.lists.clear();
    }
}

/// Step 2 of confirmation: chain DP on the minimal achievable maximum
/// occurrence end, over one sorted occurrence-end list per content. The first content's own relative
/// constraints (legal in Snort: relative to payload start) are checked
/// against `prev_end = 0`.
fn chain_dp(contents: &[RuleContent], lists: &[&[u64]]) -> Option<usize> {
    const UNSAT: u64 = u64::MAX;
    let mut g: Vec<u64> = if contents[0].is_relative() {
        let len = contents[0].len() as u64;
        lists[0]
            .iter()
            .map(|&end| {
                if contents[0].relative_ok((end - len) as usize, 0) {
                    end
                } else {
                    UNSAT
                }
            })
            .collect()
    } else {
        lists[0].to_vec()
    };
    for (i, content) in contents.iter().enumerate().skip(1) {
        let len = content.len() as u64;
        let prev_ends = lists[i - 1];
        let prev_g = std::mem::take(&mut g);
        if content.is_relative() {
            g = lists[i]
                .iter()
                .map(|&end| {
                    let start = (end - len) as usize;
                    let best_prev = prev_ends
                        .iter()
                        .zip(&prev_g)
                        .filter(|&(&prev_end, &pg)| {
                            pg != UNSAT && content.relative_ok(start, prev_end as usize)
                        })
                        .map(|(_, &pg)| pg)
                        .min()
                        .unwrap_or(UNSAT);
                    if best_prev == UNSAT {
                        UNSAT
                    } else {
                        best_prev.max(end)
                    }
                })
                .collect();
        } else {
            // No relative coupling: every occurrence may follow the
            // globally cheapest prefix assignment.
            let best_prev = prev_g.iter().copied().min().unwrap_or(UNSAT);
            g = lists[i]
                .iter()
                .map(|&end| {
                    if best_prev == UNSAT {
                        UNSAT
                    } else {
                        best_prev.max(end)
                    }
                })
                .collect();
        }
    }
    g.into_iter()
        .filter(|&v| v != UNSAT)
        .min()
        .map(|v| v as usize)
}

/// One-shot rule scanning: an anchor engine plus a [`RuleConfirmer`].
///
/// [`RuleScanner::scan`] keeps reporting plain anchor-pattern hits (the
/// [`Matcher`] view); [`RuleScanner::scan_rules`] reports **confirmed
/// rules**, each at most once per payload, at the minimal prefix length at
/// which its constraints are satisfiable. For streaming and multi-core use
/// see `mpm_stream::RuleStreamScanner` / `ScannerBuilder::rules`, where
/// one engine over the content set does the anchor and index work in a
/// single pass.
pub struct RuleScanner {
    engine: Arc<dyn Matcher + Send + Sync>,
    confirmer: RuleConfirmer,
    /// Exact matcher over [`RuleSet::content_set`] (pattern id == slot)
    /// that fills the [`OccurrenceIndex`] once any anchor fires.
    contents: NfaMatcher,
    /// Content length per slot.
    lengths: Vec<u32>,
    rule_of: Arc<[u32]>,
}

impl RuleScanner {
    /// Wraps an engine compiled for `set.anchors()`.
    ///
    /// # Panics
    /// Panics if the engine disagrees with the anchor set about the longest
    /// pattern (the symptom of compiling it for a different set).
    pub fn new(engine: Arc<dyn Matcher + Send + Sync>, set: &RuleSet) -> Self {
        let anchors = set.anchors();
        let max_len = anchors
            .patterns()
            .iter()
            .map(|p| p.len())
            .max()
            .unwrap_or(0);
        assert_eq!(
            engine.max_pattern_len(),
            max_len,
            "engine was compiled for a different anchor set"
        );
        let rule_of: Arc<[u32]> = anchors
            .rule_bindings()
            .expect("RuleSet::anchors is always rule-bound")
            .into();
        let contents = set.content_set();
        RuleScanner {
            engine,
            confirmer: RuleConfirmer::build(set),
            contents: NfaMatcher::build(contents),
            lengths: contents.patterns().iter().map(|p| p.len() as u32).collect(),
            rule_of,
        }
    }

    /// The wrapped anchor engine.
    pub fn engine(&self) -> &Arc<dyn Matcher + Send + Sync> {
        &self.engine
    }

    /// The confirmation stage.
    pub fn confirmer(&self) -> &RuleConfirmer {
        &self.confirmer
    }

    /// Heap bytes of everything this scanner adds to the wrapped engine:
    /// the confirmer and the content automaton behind the occurrence
    /// index.
    pub fn heap_bytes(&self) -> usize {
        self.confirmer.heap_bytes()
            + self.contents.automaton().heap_bytes()
            + self.lengths.len() * std::mem::size_of::<u32>()
    }

    /// Anchor-pattern hits, exactly as the wrapped [`Matcher`] reports them.
    pub fn scan(&self, payload: &[u8]) -> Vec<MatchEvent> {
        self.engine.find_all(payload)
    }

    /// Confirmed rules, in rule-id order, each at most once.
    ///
    /// Every triggered rule is confirmed against one shared
    /// [`OccurrenceIndex`] of the payload, so the cost of dense anchor
    /// traffic scales with the payload, not with `rules × payload`.
    pub fn scan_rules(&self, payload: &[u8]) -> Vec<RuleMatch> {
        let mut triggered: BTreeSet<u32> = BTreeSet::new();
        for event in self.engine.find_all(payload) {
            triggered.insert(self.rule_of[event.pattern.index()]);
        }
        if triggered.is_empty() {
            return Vec::new();
        }
        let index = OccurrenceIndex::from_events(self.contents.find_all(payload), &self.lengths);
        triggered
            .into_iter()
            .filter_map(|rule| {
                let id = RuleId(rule);
                self.confirmer
                    .confirm(&index, id)
                    .map(|end| RuleMatch::new(id, end))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpm_patterns::rule::{naive_rule_find_all, naive_rule_first_end, Rule, RuleContent};
    use mpm_patterns::{NaiveMatcher, ProtocolGroup};

    fn ruleset(rules: Vec<Vec<RuleContent>>) -> RuleSet {
        RuleSet::new(
            rules
                .into_iter()
                .map(|contents| Rule::new(ProtocolGroup::Any, contents))
                .collect(),
        )
    }

    fn scanner(set: &RuleSet) -> RuleScanner {
        RuleScanner::new(Arc::new(NaiveMatcher::new(set.anchors())), set)
    }

    /// Indexes `payload` with the naive matcher over the content set: an
    /// independent stand-in for the engine pass that fills the index.
    fn naive_index(set: &RuleSet, payload: &[u8]) -> OccurrenceIndex {
        let contents = set.content_set();
        let lengths: Vec<u32> = contents.patterns().iter().map(|p| p.len() as u32).collect();
        OccurrenceIndex::from_events(NaiveMatcher::new(contents).find_all(payload), &lengths)
    }

    /// Asserts the index path agrees with the naive evaluator on every rule
    /// of `set`, and that the one-shot scanner reports exactly the naive
    /// matches.
    fn assert_matches_naive(set: &RuleSet, payload: &[u8]) {
        let confirmer = RuleConfirmer::build(set);
        let index = naive_index(set, payload);
        for (id, rule) in set.iter() {
            assert_eq!(
                confirmer.confirm(&index, id),
                naive_rule_first_end(rule, payload),
                "indexed confirmation diverged on rule {id} over {payload:?}"
            );
        }
        assert_eq!(
            scanner(set).scan_rules(payload),
            naive_rule_find_all(set, payload)
        );
    }

    #[test]
    fn two_content_chain_confirms_at_minimal_end() {
        let set = ruleset(vec![vec![
            RuleContent::new(*b"GET "),
            RuleContent::new(*b"passwd")
                .with_distance(0)
                .with_within(20),
        ]]);
        let payload = b"GET /etc/passwd HTTP/1.1";
        assert_matches_naive(&set, payload);
        let got = scanner(&set).scan_rules(payload);
        assert_eq!(got, vec![RuleMatch::new(RuleId(0), 15)]);
    }

    #[test]
    fn violated_within_window_refutes() {
        let set = ruleset(vec![vec![
            RuleContent::new(*b"GET "),
            RuleContent::new(*b"passwd").with_within(8),
        ]]);
        let payload = b"GET /some/long/prefix/passwd";
        assert_matches_naive(&set, payload);
        assert!(scanner(&set).scan_rules(payload).is_empty());
    }

    #[test]
    fn absolute_offset_depth_windows_are_enforced() {
        let set = ruleset(vec![
            vec![RuleContent::new(*b"ab").with_offset(2).with_depth(4)],
            vec![RuleContent::new(*b"ab").with_offset(6)],
        ]);
        let payload = b"ab..ab..ab";
        assert_matches_naive(&set, payload);
        let got = scanner(&set).scan_rules(payload);
        assert_eq!(
            got,
            vec![RuleMatch::new(RuleId(0), 6), RuleMatch::new(RuleId(1), 10)]
        );
    }

    #[test]
    fn negative_distance_reaches_backwards() {
        // Second content may start up to 3 bytes before the first's end.
        let set = ruleset(vec![vec![
            RuleContent::new(*b"abcd"),
            RuleContent::new(*b"cdx").with_distance(-3),
        ]]);
        let payload = b"..abcdx.";
        assert_matches_naive(&set, payload);
        assert_eq!(scanner(&set).scan_rules(payload).len(), 1);
    }

    #[test]
    fn nocase_contents_confirm_case_insensitively() {
        let set = ruleset(vec![vec![
            RuleContent::new(*b"user").with_nocase(true),
            RuleContent::new(*b"Pass").with_distance(0),
        ]]);
        assert_matches_naive(&set, b"USER x Pass");
        assert_matches_naive(&set, b"USER x pass");
        assert_eq!(scanner(&set).scan_rules(b"UsEr x Pass").len(), 1);
        assert!(
            scanner(&set).scan_rules(b"UsEr x pass").is_empty(),
            "the case-sensitive content must stay byte-exact"
        );
    }

    #[test]
    fn later_anchor_occurrence_rescues_the_chain() {
        // First "ab" is too far from any "cd"; the second works.
        let set = ruleset(vec![vec![
            RuleContent::new(*b"ab"),
            RuleContent::new(*b"cd").with_distance(0).with_within(4),
        ]]);
        let payload = b"ab........ab.cd";
        assert_matches_naive(&set, payload);
        assert_eq!(
            scanner(&set).scan_rules(payload),
            vec![RuleMatch::new(RuleId(0), 15)]
        );
    }

    #[test]
    fn first_content_relative_constraints_anchor_at_payload_start() {
        let set = ruleset(vec![vec![
            RuleContent::new(*b"xy").with_distance(3),
            RuleContent::new(*b"zz").with_distance(0),
        ]]);
        // "xy" must start at >= 3 from payload start.
        assert_matches_naive(&set, b"xy.xy.zz");
        assert_matches_naive(&set, b"xy.zz");
        assert_eq!(scanner(&set).scan_rules(b"xy.xy.zz").len(), 1);
        assert!(scanner(&set).scan_rules(b"xy.zz").is_empty());
    }

    #[test]
    fn scan_rules_reports_each_rule_once_and_scan_reports_anchor_hits() {
        let set = ruleset(vec![vec![RuleContent::new(*b"dup")]]);
        let s = scanner(&set);
        let payload = b"dup dup dup";
        assert_eq!(s.scan(payload).len(), 3, "three anchor hits");
        assert_eq!(
            s.scan_rules(payload),
            vec![RuleMatch::new(RuleId(0), 3)],
            "one confirmed rule, at the minimal end"
        );
        assert_eq!(s.scan_rules(payload), naive_rule_find_all(&set, payload));
    }

    #[test]
    fn empty_payload_and_unsatisfiable_rules() {
        let set = ruleset(vec![vec![
            RuleContent::new(*b"ab"),
            RuleContent::new(*b"missing").with_distance(0),
        ]]);
        assert_matches_naive(&set, b"");
        assert_matches_naive(&set, b"ab but nothing else");
        assert!(scanner(&set).scan_rules(b"ab but nothing else").is_empty());
    }

    #[test]
    fn payload_index_dedups_shared_contents_and_respects_windows() {
        // "ab" appears in three rules (twice case-sensitive, once nocase):
        // two distinct slots, each indexed once regardless of rule count.
        let set = ruleset(vec![
            vec![
                RuleContent::new(*b"ab"),
                RuleContent::new(*b"cd").with_distance(0),
            ],
            vec![RuleContent::new(*b"ab").with_offset(4)],
            vec![RuleContent::new(*b"ab").with_nocase(true)],
        ]);
        let confirmer = RuleConfirmer::build(&set);
        let payload = b"ab..AB..cd";
        let index = naive_index(&set, payload);
        // Slots: "ab" exact (1 occurrence), "cd" (1), "ab" nocase (2).
        assert_eq!(index.occurrence_count(), 4);
        assert_eq!(index.ends(2), &[2, 6]);
        assert_matches_naive(&set, payload);
        // The offset:4 window excludes the only exact "ab" at start 0.
        assert_eq!(confirmer.confirm(&index, RuleId(1)), None);
        assert_eq!(confirmer.confirm(&index, RuleId(2)), Some(2));
    }

    #[test]
    fn anchor_map_lists_rules_per_anchor_slot() {
        let set = ruleset(vec![
            vec![RuleContent::new(*b"shared")],
            vec![RuleContent::new(*b"x"), RuleContent::new(*b"shared")],
            vec![RuleContent::new(*b"other")],
        ]);
        let confirmer = RuleConfirmer::build(&set);
        let slot_of = |bytes: &[u8]| {
            set.content_set()
                .patterns()
                .iter()
                .position(|p| p.bytes() == bytes)
                .unwrap() as u32
        };
        assert_eq!(confirmer.anchored_at(slot_of(b"shared")), &[0, 1]);
        assert_eq!(confirmer.anchored_at(slot_of(b"x")), &[] as &[u32]);
        assert_eq!(confirmer.anchored_at(slot_of(b"other")), &[2]);
    }

    #[test]
    fn incremental_inserts_keep_each_slot_sorted() {
        let mut index = OccurrenceIndex::new();
        assert!(index.insert(7, 4));
        assert!(index.insert(2, 5));
        assert!(!index.insert(7, 9));
        assert_eq!(index.ends(7), &[4, 9]);
        assert_eq!(index.ends(2), &[5]);
        assert_eq!(index.ends(3), &[] as &[u64]);
        assert!(index.heap_bytes() > 0);
        index.clear();
        assert_eq!(index.occurrence_count(), 0);
    }

    #[test]
    #[should_panic(expected = "different anchor set")]
    fn mismatched_engine_rejected() {
        let set = ruleset(vec![vec![RuleContent::new(*b"abcdef")]]);
        let other = ruleset(vec![vec![RuleContent::new(*b"ab")]]);
        let _ = RuleScanner::new(Arc::from(NaiveMatcher::new(other.anchors())), &set);
    }
}
