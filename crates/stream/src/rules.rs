//! [`RuleStreamScanner`]: rule confirmation over a chunked stream.
//!
//! Rules are not bounded-width patterns: `offset`/`distance` windows are
//! unbounded (a rule may pair a content at offset 0 with one a megabyte
//! later), so confirmation depends on the **whole flow so far**. It does
//! not need the flow's bytes, though, only where each rule content
//! occurred. `RuleStreamScanner` therefore keeps no payload buffer. Its
//! engine is compiled for the rule set's distinct contents
//! ([`RuleSet::content_set`]), and the one [`StreamScanner`] pass each
//! push makes (carry bytes only, exactly as in pattern mode) serves twice:
//!
//! - its anchor-content hits make rules **pending**;
//! - all of its hits are appended to the flow's [`OccurrenceIndex`].
//!
//! A pending rule is re-checked with the confirmer's chain DP over index
//! slices, and only on a push that added an occurrence of one of its
//! contents. Satisfiability depends only on the set of occurrences, so no
//! other push can complete a rule. The cost of a push is therefore
//! independent of flow length: a rule whose second content never arrives
//! is checked once, not once per packet
//! ([`RuleStreamScanner::confirm_checks`] counts the checks).
//!
//! Equivalence guarantee (property-tested in
//! `tests/rule_confirmation_differential.rs` and
//! `crates/stream/tests/rule_stream_equivalence.rs`): for any chunking, the
//! set of confirmed rules and their reported offsets equals
//! `RuleScanner::scan_rules` on the concatenated payload. That holds
//! because the confirmer reports the **minimal prefix length** at which a
//! rule is satisfiable, a pure function of the occurrences that is
//! independent of where chunk seams fall, and satisfiability is monotone in
//! the prefix, so a rule confirms on exactly the push whose chunk completes
//! that minimal prefix.
//!
//! # Memory contract: bounded index and graceful degradation
//!
//! Per-flow memory is the occurrence index, which grows with the number of
//! content occurrences in the flow (see
//! [`RuleStreamScanner::index_bytes`]), plus the list of pending rules.
//! [`RuleStreamScanner::with_max_buffer`] bounds it by a prefix of the
//! stream: the index keeps only occurrences that end within the first
//! `cap` bytes. While the stream fits the cap, behaviour is identical to
//! the unbounded scanner. On the push that crosses the cap the flow
//! **degrades**: rules satisfiable within the first `cap` bytes are
//! confirmed one final time (confirmation over a capped flow is exactly
//! `scan_rules` on the first `cap` bytes of the stream, independent of
//! chunk seams), then the index is released, confirmation is disabled for
//! the rest of the flow, and the scanner keeps reporting **anchor hits
//! only**. [`RuleStreamScanner::buffered_bytes`] reports the stream bytes
//! the index covers, [`RuleStreamScanner::degraded`] flags the transition
//! and [`RuleStreamScanner::truncated_bytes`] counts every payload byte
//! that was never eligible for confirmation.

use crate::stream::{SharedMatcher, StreamScanner};
use mpm_patterns::rule::{RuleId, RuleMatch, RuleSet};
use mpm_patterns::{MatchEvent, MatcherStats, PatternId};
use mpm_verify::{OccurrenceIndex, RuleConfirmer};
use std::sync::Arc;

/// Stateful rule scanning over one logical stream (one flow).
///
/// Wraps a [`StreamScanner`] over the rule set's content set and a
/// [`RuleConfirmer`]; both the engine and the confirmer are shared
/// (`Arc`), so per-flow cost is the occurrence index plus the pending-rule
/// list.
///
/// ```
/// use mpm_patterns::rule::{Rule, RuleContent, RuleSet};
/// use mpm_patterns::ProtocolGroup;
/// use mpm_stream::RuleStreamScanner;
/// use std::sync::Arc;
///
/// let set = RuleSet::new(vec![Rule::new(
///     ProtocolGroup::Any,
///     vec![
///         RuleContent::new(*b"GET "),
///         RuleContent::new(*b"passwd").with_distance(0),
///     ],
/// )]);
/// let engine: mpm_stream::SharedMatcher =
///     Arc::from(mpm_patterns::NaiveMatcher::new(set.content_set()));
/// let mut scanner = RuleStreamScanner::new(engine, &set);
///
/// let (mut anchors, mut rules) = (Vec::new(), Vec::new());
/// scanner.push(b"GET /etc/pas", &mut anchors, &mut rules);
/// assert!(rules.is_empty()); // anchor seen, second content incomplete
/// scanner.push(b"swd HTTP/1.1", &mut anchors, &mut rules);
/// assert_eq!(rules.len(), 1);
/// assert_eq!(rules[0].end, 15); // minimal satisfiable prefix, absolute
/// ```
pub struct RuleStreamScanner {
    inner: StreamScanner,
    confirmer: Arc<RuleConfirmer>,
    /// Content occurrences of the stream so far (within the cap).
    index: OccurrenceIndex,
    /// Rules whose anchor occurred but which are not yet satisfiable.
    pending: Vec<u32>,
    /// Confirmation covers only the first `max_buffer` stream bytes;
    /// `None` means the whole stream. See the module-level memory contract.
    max_buffer: Option<usize>,
    /// True once the flow exceeded `max_buffer` and fell back to
    /// anchor-only reporting.
    degraded: bool,
    /// Payload bytes that were never eligible for confirmation (everything
    /// past the first `max_buffer` bytes of the stream).
    truncated: u64,
    /// Chain-DP re-checks run on this stream.
    checks: u64,
    /// Per-push content hits of the engine.
    events: Vec<MatchEvent>,
    /// Per-push slots that gained an occurrence, ascending.
    touched: Vec<u32>,
}

impl std::fmt::Debug for RuleStreamScanner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RuleStreamScanner")
            .field("inner", &self.inner)
            .field("rules", &self.confirmer.rule_count())
            .field("pending", &self.pending.len())
            .field("occurrences", &self.index.occurrence_count())
            .field("degraded", &self.degraded)
            .finish_non_exhaustive()
    }
}

impl RuleStreamScanner {
    /// Creates a rule scanner for one stream.
    ///
    /// `engine` must be compiled for `set.content_set()` (same contract as
    /// [`StreamScanner::new`], which this delegates to).
    ///
    /// # Panics
    /// Panics if the engine disagrees with the content set about the
    /// longest pattern.
    pub fn new(engine: SharedMatcher, set: &RuleSet) -> Self {
        let inner = StreamScanner::new(engine, set.content_set());
        Self::with_parts(inner, Arc::new(RuleConfirmer::build(set)), None)
    }

    /// Internal constructor used by the worker and grouped paths to mint
    /// per-flow scanners from shared, pre-built parts.
    pub(crate) fn with_parts(
        inner: StreamScanner,
        confirmer: Arc<RuleConfirmer>,
        max_buffer: Option<usize>,
    ) -> Self {
        RuleStreamScanner {
            inner,
            confirmer,
            index: OccurrenceIndex::new(),
            pending: Vec::new(),
            max_buffer,
            degraded: false,
            truncated: 0,
            checks: 0,
            events: Vec::new(),
            touched: Vec::new(),
        }
    }

    /// Caps confirmation at the first `bytes` bytes of the stream; past
    /// the cap the flow degrades to anchor-only reporting (see the
    /// module-level memory contract). A cap of zero degrades on the first
    /// non-empty push.
    #[must_use]
    pub fn with_max_buffer(mut self, bytes: usize) -> Self {
        self.max_buffer = Some(bytes);
        self
    }

    /// Absolute offset of the next byte to be pushed.
    pub fn position(&self) -> usize {
        self.inner.position()
    }

    /// Stream bytes the occurrence index covers: the whole stream so far
    /// (never more than the cap), or zero once the flow degraded and
    /// released its index. No payload is buffered; the index's own memory
    /// is [`Self::index_bytes`].
    pub fn buffered_bytes(&self) -> usize {
        if self.degraded {
            0
        } else {
            self.inner.position()
        }
    }

    /// Heap bytes of the flow's occurrence index and pending-rule list.
    /// Grows with the number of content occurrences, not with flow length.
    pub fn index_bytes(&self) -> usize {
        self.index.heap_bytes() + self.pending.capacity() * std::mem::size_of::<u32>()
    }

    /// The configured cap, if any.
    pub fn max_buffer(&self) -> Option<usize> {
        self.max_buffer
    }

    /// True once the flow exceeded the cap and fell back to anchor-only
    /// reporting (confirmation disabled, index released).
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// Payload bytes past the first `max_buffer` bytes of the stream:
    /// scanned for anchors but never eligible for rule confirmation.
    pub fn truncated_bytes(&self) -> u64 {
        self.truncated
    }

    /// Number of chain-DP re-checks run on this stream so far. A pending
    /// rule is re-checked only on a push that indexed an occurrence of one
    /// of its contents, so this count does not grow with flow length.
    pub fn confirm_checks(&self) -> u64 {
        self.checks
    }

    /// Accumulated whole-stream statistics of the content engine.
    pub fn stats(&self) -> MatcherStats {
        self.inner.stats()
    }

    /// The shared confirmation stage.
    pub fn confirmer(&self) -> &Arc<RuleConfirmer> {
        &self.confirmer
    }

    /// Resets the scanner for a new stream, keeping the engine, confirmer
    /// and allocated buffers.
    pub fn reset(&mut self) {
        self.inner.reset();
        self.index.clear();
        self.pending.clear();
        self.degraded = false;
        self.truncated = 0;
        self.checks = 0;
    }

    /// Scans the next chunk: anchor-pattern hits are appended to
    /// `anchors_out` (absolute offsets, one event per rule anchored on the
    /// hit content, with the rule index as [`MatchEvent::pattern`]:
    /// exactly what an engine over `set.anchors()` reports) and newly
    /// confirmed rules to `rules_out`, each rule at most once per stream,
    /// with [`RuleMatch::end`] the minimal prefix length of the stream at
    /// which the rule became satisfiable.
    pub fn push(
        &mut self,
        chunk: &[u8],
        anchors_out: &mut Vec<MatchEvent>,
        rules_out: &mut Vec<RuleMatch>,
    ) {
        self.scan(chunk, Some(anchors_out), rules_out);
    }

    /// [`Self::push`] with anchor reporting optional (the grouped path
    /// reports confirmed rules only).
    pub(crate) fn scan(
        &mut self,
        chunk: &[u8],
        anchors_out: Option<&mut Vec<MatchEvent>>,
        rules_out: &mut Vec<RuleMatch>,
    ) {
        if chunk.is_empty() {
            return;
        }
        let start = self.inner.position();
        self.events.clear();
        self.inner.push(chunk, &mut self.events);
        if let Some(out) = anchors_out {
            for e in &self.events {
                for &rule in self.confirmer.anchored_at(e.pattern.0) {
                    out.push(MatchEvent::new(e.start, PatternId(rule)));
                }
            }
        }
        if self.degraded {
            // Anchor-only fallback: confirmation state is gone.
            self.truncated += chunk.len() as u64;
            return;
        }
        // Only occurrences ending within the cap are indexed, so on the
        // push that crosses it the checks below see exactly the first
        // `cap` bytes of the stream, wherever the chunk seams fall.
        let end_of_push = start + chunk.len();
        let limit = self
            .max_buffer
            .map_or(end_of_push, |cap| cap.min(end_of_push));
        // Per slot, every new end exceeds every indexed one (the inner
        // scanner reports each occurrence on the push that completes it),
        // so sorting this push's hits by slot keeps the index sorted.
        self.events.sort_unstable_by_key(|e| (e.pattern, e.start));
        self.touched.clear();
        for e in &self.events {
            let slot = e.pattern.0;
            let end = e.start + self.inner.pattern_len(e.pattern);
            if end > limit {
                continue;
            }
            if self.index.insert(slot, end as u64) {
                // First occurrence of this content: the rules it anchors
                // become pending (an anchor fires once per rule and flow).
                self.pending
                    .extend_from_slice(self.confirmer.anchored_at(slot));
            }
            if self.touched.last() != Some(&slot) {
                self.touched.push(slot);
            }
        }
        if !self.touched.is_empty() {
            let (confirmer, index, touched) = (&self.confirmer, &self.index, &self.touched);
            let checks = &mut self.checks;
            self.pending.retain(|&rule| {
                let id = RuleId(rule);
                let slots = confirmer.rules().content_slots(id);
                if !slots.iter().any(|s| touched.binary_search(s).is_ok()) {
                    return true;
                }
                *checks += 1;
                match confirmer.confirm(index, id) {
                    Some(end) => {
                        rules_out.push(RuleMatch::new(id, end));
                        false
                    }
                    None => true,
                }
            });
        }
        if end_of_push > limit {
            self.truncated += (end_of_push - limit) as u64;
            self.degraded = true;
            // Release (not just clear) the state: the cap exists to bound
            // memory, and this flow will never confirm again.
            self.index = OccurrenceIndex::new();
            self.pending = Vec::new();
        }
    }

    /// Convenience wrapper: scans `chunk` and returns the new anchor events
    /// and confirmed rules.
    pub fn push_collect(&mut self, chunk: &[u8]) -> (Vec<MatchEvent>, Vec<RuleMatch>) {
        let (mut anchors, mut rules) = (Vec::new(), Vec::new());
        self.push(chunk, &mut anchors, &mut rules);
        (anchors, rules)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpm_patterns::rule::{naive_rule_find_all, Rule, RuleContent};
    use mpm_patterns::{NaiveMatcher, ProtocolGroup};

    fn ruleset(rules: Vec<Vec<RuleContent>>) -> RuleSet {
        RuleSet::new(
            rules
                .into_iter()
                .map(|contents| Rule::new(ProtocolGroup::Any, contents))
                .collect(),
        )
    }

    fn scanner(set: &RuleSet) -> RuleStreamScanner {
        RuleStreamScanner::new(Arc::new(NaiveMatcher::new(set.content_set())), set)
    }

    #[test]
    fn rule_confirmed_on_the_push_that_completes_it() {
        let set = ruleset(vec![vec![
            RuleContent::new(*b"user"),
            RuleContent::new(*b"pass").with_distance(0),
        ]]);
        let mut s = scanner(&set);
        let (mut anchors, mut rules) = (Vec::new(), Vec::new());
        s.push(b"user alice ", &mut anchors, &mut rules);
        assert!(rules.is_empty(), "anchor alone must not confirm");
        s.push(b"pa", &mut anchors, &mut rules);
        assert!(rules.is_empty());
        s.push(b"ss", &mut anchors, &mut rules);
        assert_eq!(rules, vec![RuleMatch::new(RuleId(0), 15)]);
        // Never re-reported.
        s.push(b" pass", &mut anchors, &mut rules);
        assert_eq!(rules.len(), 1);
    }

    #[test]
    fn streamed_equals_one_shot_for_every_two_chunk_cut() {
        let set = ruleset(vec![
            vec![
                RuleContent::new(*b"abcd"),
                RuleContent::new(*b"wxyz").with_distance(1).with_within(12),
            ],
            vec![RuleContent::new(*b"wxyz").with_offset(3)],
        ]);
        let payload = b"..abcd...wxyz...";
        let expected = naive_rule_find_all(&set, payload);
        assert!(!expected.is_empty());
        for cut in 0..=payload.len() {
            let mut s = scanner(&set);
            let (mut anchors, mut rules) = (Vec::new(), Vec::new());
            s.push(&payload[..cut], &mut anchors, &mut rules);
            s.push(&payload[cut..], &mut anchors, &mut rules);
            rules.sort_unstable();
            assert_eq!(rules, expected, "diverged at cut {cut}");
        }
    }

    #[test]
    fn capped_flow_confirms_exactly_the_cap_prefix_for_every_cut() {
        // Rule 0 is satisfiable within the first 16 bytes, rule 1 only
        // beyond them; a 16-byte cap must confirm exactly rule 0 no matter
        // how the stream is chunked.
        let set = ruleset(vec![
            vec![
                RuleContent::new(*b"abcd"),
                RuleContent::new(*b"wxyz").with_distance(0),
            ],
            vec![RuleContent::new(*b"wxyz").with_offset(20)],
        ]);
        let payload = b"..abcd..wxyz....more..wxyz..tail";
        let cap = 16;
        let expected = naive_rule_find_all(&set, &payload[..cap]);
        assert_eq!(expected.len(), 1, "exactly rule 0 within the cap");
        for cut in 0..=payload.len() {
            let mut s = scanner(&set).with_max_buffer(cap);
            let (mut anchors, mut rules) = (Vec::new(), Vec::new());
            s.push(&payload[..cut], &mut anchors, &mut rules);
            s.push(&payload[cut..], &mut anchors, &mut rules);
            rules.sort_unstable();
            assert_eq!(rules, expected, "diverged at cut {cut}");
            assert!(s.degraded());
            assert_eq!(s.buffered_bytes(), 0, "buffer released on degrade");
            assert_eq!(s.truncated_bytes(), (payload.len() - cap) as u64);
            // Anchor reporting survives degradation: rule 1's "wxyz"
            // anchor at 22 lies past the cap and is still reported.
            let starts: Vec<usize> = anchors.iter().map(|e| e.start).collect();
            assert!(starts.contains(&22), "post-cap anchor missing: {starts:?}");
        }
    }

    #[test]
    fn degraded_flow_stops_confirming_but_keeps_reporting_anchors() {
        let set = ruleset(vec![vec![
            RuleContent::new(*b"user"),
            RuleContent::new(*b"pass").with_distance(0),
        ]]);
        let mut s = scanner(&set).with_max_buffer(4);
        let (mut anchors, mut rules) = (Vec::new(), Vec::new());
        s.push(b"......", &mut anchors, &mut rules); // crosses the 4-byte cap
        assert!(s.degraded());
        s.push(b"user pass", &mut anchors, &mut rules);
        assert!(rules.is_empty(), "no confirmation after degradation");
        assert_eq!(anchors.len(), 1, "anchor still reported");
        assert_eq!(s.truncated_bytes(), 2 + 9);
        assert_eq!(s.buffered_bytes(), 0);
    }

    #[test]
    fn reset_clears_degradation() {
        let set = ruleset(vec![vec![RuleContent::new(*b"abcd")]]);
        let mut s = scanner(&set).with_max_buffer(4);
        let (mut anchors, mut rules) = (Vec::new(), Vec::new());
        s.push(b"......", &mut anchors, &mut rules);
        assert!(s.degraded());
        s.reset();
        assert!(!s.degraded());
        assert_eq!(s.truncated_bytes(), 0);
        s.push(b"abcd", &mut anchors, &mut rules);
        assert_eq!(rules.len(), 1, "fresh stream confirms within the cap");
    }

    #[test]
    fn reset_forgets_payload_and_rule_state() {
        let set = ruleset(vec![vec![
            RuleContent::new(*b"ab"),
            RuleContent::new(*b"cd").with_distance(0),
        ]]);
        let mut s = scanner(&set);
        let (mut anchors, mut rules) = (Vec::new(), Vec::new());
        s.push(b"ab", &mut anchors, &mut rules);
        s.reset();
        assert_eq!(s.buffered_bytes(), 0);
        s.push(b"cd", &mut anchors, &mut rules);
        assert!(rules.is_empty(), "old stream's anchor must not linger");
    }

    #[test]
    fn pending_rule_checks_do_not_grow_with_flow_length() {
        // The anchor fires in the first packet; the second content never
        // arrives. Re-checking on every push would make the check count
        // (and the work) grow with the flow.
        let set = ruleset(vec![vec![
            RuleContent::new(*b"attack-begin"),
            RuleContent::new(*b"never-seen").with_distance(0),
        ]]);
        let run = |flow_len: usize| {
            let mut s = scanner(&set);
            let mut payload = vec![b'.'; flow_len];
            payload[100..112].copy_from_slice(b"attack-begin");
            let (mut anchors, mut rules) = (Vec::new(), Vec::new());
            for packet in payload.chunks(1460) {
                s.push(packet, &mut anchors, &mut rules);
            }
            assert!(rules.is_empty());
            assert_eq!(anchors.len(), 1);
            (s.confirm_checks(), s.index_bytes())
        };
        let (short_checks, short_bytes) = run(1 << 20);
        let (long_checks, long_bytes) = run(8 << 20);
        assert_eq!(short_checks, 1, "checked once, on the anchor's push");
        assert_eq!(long_checks, short_checks);
        assert_eq!(long_bytes, short_bytes, "per-flow memory is flat too");
    }

    #[test]
    fn anchor_events_name_every_rule_anchored_on_the_content() {
        // Two rules share the anchor "shared"; one "shared" hit reports one
        // anchor event per rule, as an engine over `anchors()` would.
        let set = ruleset(vec![
            vec![RuleContent::new(*b"shared")],
            vec![
                RuleContent::new(*b"shared"),
                RuleContent::new(*b"zz").with_distance(0),
            ],
        ]);
        let (mut anchors, rules) = scanner(&set).push_collect(b"..shared..");
        anchors.sort_unstable();
        assert_eq!(
            anchors,
            vec![
                MatchEvent::new(2, PatternId(0)),
                MatchEvent::new(2, PatternId(1))
            ]
        );
        assert_eq!(rules, vec![RuleMatch::new(RuleId(0), 8)]);
    }
}
