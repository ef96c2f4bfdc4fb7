//! [`StreamScanner`]: chunk-boundary-correct scanning of a never-ending
//! byte stream.
//!
//! A NIDS never sees a flow as one contiguous buffer: payload arrives in
//! reassembled chunks of arbitrary size. A pattern may straddle any chunk
//! boundary, so per-chunk scanning alone loses matches. `StreamScanner`
//! wraps any [`Matcher`] engine and restores one-shot semantics:
//!
//! * it **carries over** the last `max_pattern_len - 1` bytes of the stream
//!   between [`StreamScanner::push`] calls and makes **one** engine call per
//!   push, over `carry ++ chunk`, so a straddling match is found in the push
//!   that completes it;
//! * it **resumes** the engine through [`Matcher::find_resume_into`]: an
//!   engine that overrides it (S-PATCH, V-PATCH) filters only the fresh
//!   bytes plus the last three carried positions, and re-verifies the
//!   candidates it carried from the previous push, so each stream byte is
//!   filtered about once;
//! * it **de-duplicates** overlap re-reports: a match wholly contained in the
//!   carried-over bytes (`start + len <= carry_len`) was already reported by
//!   an earlier push and is dropped;
//! * it **translates** every reported position to the absolute offset in the
//!   stream, so downstream consumers never see chunk-local coordinates.
//!
//! The invariant (property-tested in `tests/stream_equivalence.rs`): for any
//! chunking of any input — including 1-byte chunks and cuts inside every
//! pattern — the union of the events reported by the pushes equals the match
//! set of a one-shot scan of the whole input.

use mpm_patterns::{MatchEvent, Matcher, MatcherStats, PatternId, PatternSet};
use std::cell::RefCell;
use std::sync::Arc;

/// A shareable, `Send + Sync` matching engine, as produced by
/// `mpm_vpatch::build_auto` and friends.
pub type SharedMatcher = Arc<dyn Matcher + Send + Sync>;

/// Stateful streaming wrapper around a [`Matcher`] engine.
///
/// One `StreamScanner` tracks one logical stream (one flow). The engine
/// itself is stateless per scan and shared via [`Arc`], so any number of
/// scanners — across flows and across threads — reuse one compiled engine.
///
/// ```
/// use mpm_patterns::PatternSet;
/// use mpm_stream::StreamScanner;
/// use std::sync::Arc;
///
/// let rules = PatternSet::from_literals(&["boundary"]);
/// let engine: mpm_stream::SharedMatcher =
///     Arc::from(mpm_patterns::NaiveMatcher::new(&rules));
/// let mut scanner = StreamScanner::new(engine, &rules);
///
/// let mut alerts = Vec::new();
/// scanner.push(b"...boun", &mut alerts); // cut inside the pattern
/// scanner.push(b"dary...", &mut alerts);
/// assert_eq!(alerts.len(), 1);
/// assert_eq!(alerts[0].start, 3); // absolute stream offset
/// ```
#[derive(Clone)]
pub struct StreamScanner {
    engine: SharedMatcher,
    /// Pattern length per [`mpm_patterns::PatternId`] — needed to decide
    /// whether a match extends into fresh bytes.
    lengths: Arc<[u32]>,
    /// Bytes of history to keep: `max_pattern_len - 1`.
    overlap: usize,
    /// Up to `overlap` trailing bytes of the stream pushed so far.
    carry: Vec<u8>,
    /// Engine state carried between pushes (see
    /// [`Matcher::find_resume_into`]); at most `overlap` entries.
    carried: Vec<u32>,
    /// Absolute stream offset of the next byte to be pushed.
    position: usize,
    stats: MatcherStats,
}

thread_local! {
    /// The `carry ++ chunk` buffer a push hands the engine, shared by every
    /// scanner on the thread so that per-flow state stays the carry alone.
    static JOINED: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Upper bound on the bytes the cached join buffer keeps between pushes;
/// a larger buffer (one huge chunk) is released after use.
const MAX_JOINED_CAPACITY: usize = 1 << 20;

/// Runs `f` on `carry ++ chunk`: `chunk` itself when there is no carry,
/// otherwise the two joined in this thread's cached buffer (a transient one
/// in the re-entrant case).
fn with_joined<R>(carry: &[u8], chunk: &[u8], f: impl FnOnce(&[u8]) -> R) -> R {
    if carry.is_empty() {
        return f(chunk);
    }
    JOINED.with(|cell| match cell.try_borrow_mut() {
        Ok(mut joined) => {
            joined.clear();
            joined.extend_from_slice(carry);
            joined.extend_from_slice(chunk);
            let result = f(&joined);
            if joined.capacity() > MAX_JOINED_CAPACITY {
                joined.clear();
                joined.shrink_to(MAX_JOINED_CAPACITY);
            }
            result
        }
        Err(_) => f(&[carry, chunk].concat()),
    })
}

impl std::fmt::Debug for StreamScanner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamScanner")
            .field("engine", &self.engine.name())
            .field("overlap", &self.overlap)
            .field("position", &self.position)
            .finish_non_exhaustive()
    }
}

impl StreamScanner {
    /// Creates a scanner for one stream.
    ///
    /// `set` must be the pattern set `engine` was compiled for; the scanner
    /// keeps only the per-pattern lengths (to classify boundary matches) and
    /// the maximum length (to size the carry-over).
    ///
    /// # Panics
    /// Panics if the engine disagrees with `set` about the longest pattern —
    /// the symptom of passing the wrong set, which would silently corrupt
    /// the carry-over invariant.
    pub fn new(engine: SharedMatcher, set: &PatternSet) -> Self {
        let lengths: Arc<[u32]> = set.patterns().iter().map(|p| p.len() as u32).collect();
        let max_len = lengths.iter().copied().max().unwrap_or(0) as usize;
        assert_eq!(
            engine.max_pattern_len(),
            max_len,
            "engine was compiled for a different pattern set"
        );
        Self::with_lengths(engine, lengths)
    }

    /// Internal constructor the pipeline workers, `ShardedScanner` and the
    /// rule and grouped paths use to mint per-flow scanners from shared
    /// pattern lengths, without re-walking the pattern set.
    pub(crate) fn with_lengths(engine: SharedMatcher, lengths: Arc<[u32]>) -> Self {
        let max_len = lengths.iter().copied().max().unwrap_or(0) as usize;
        let overlap = max_len.saturating_sub(1);
        StreamScanner {
            engine,
            lengths,
            overlap,
            carry: Vec::with_capacity(overlap),
            carried: Vec::new(),
            position: 0,
            stats: MatcherStats::default(),
        }
    }

    /// Length of pattern `id` of the set the engine was compiled for.
    pub(crate) fn pattern_len(&self, id: PatternId) -> usize {
        self.lengths[id.index()] as usize
    }

    /// Absolute offset of the next byte to be pushed (= total bytes pushed).
    pub fn position(&self) -> usize {
        self.position
    }

    /// The number of history bytes carried between pushes
    /// (`max_pattern_len - 1`).
    pub fn overlap(&self) -> usize {
        self.overlap
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &SharedMatcher {
        &self.engine
    }

    /// Number of engine entries carried into the next push (long-pattern
    /// candidates for the PATCH engines, none for engines on the default
    /// path); never more than [`StreamScanner::overlap`].
    pub fn carried_len(&self) -> usize {
        self.carried.len()
    }

    /// Accumulated whole-stream statistics: `bytes_scanned` counts each
    /// stream byte exactly once, `matches` counts reported events, and
    /// `engine_calls` / `engine_bytes` count the engine calls made and the
    /// positions they filtered.
    pub fn stats(&self) -> MatcherStats {
        self.stats
    }

    /// Resets the scanner for a new stream, keeping the engine and the
    /// allocated buffers. Carried engine state is dropped with the carry.
    pub fn reset(&mut self) {
        self.carry.clear();
        self.carried.clear();
        self.position = 0;
        self.stats = MatcherStats::default();
    }

    /// Scans the next chunk of the stream, appending every *new* match to
    /// `out` with its start translated to the absolute stream offset.
    ///
    /// Matches are appended in no particular order (sort with
    /// [`mpm_patterns::matcher::normalize_matches`] if a canonical order is
    /// needed); across pushes every occurrence is reported exactly once.
    pub fn push(&mut self, chunk: &[u8], out: &mut Vec<MatchEvent>) {
        if chunk.is_empty() {
            return;
        }
        let first = out.len();
        let carry_len = self.carry.len();

        // One engine call over `carry ++ chunk`. Every match that ends in
        // fresh bytes starts at or after the carry's start (it is at most
        // `overlap + 1` long), so this call sees all of them; the carry's
        // next start is `keep_from`.
        let engine = &self.engine;
        let carried = &mut self.carried;
        let overlap = self.overlap;
        let engine_bytes = with_joined(&self.carry, chunk, |haystack| {
            let keep_from = haystack.len() - haystack.len().min(overlap);
            engine.find_resume_into(haystack, carry_len, carried, keep_from, out)
        });

        // Drop the matches wholly inside the carry (an earlier push reported
        // them) and translate the rest to absolute offsets, in place.
        let base = self.position - carry_len;
        let mut kept = first;
        for i in first..out.len() {
            let m = out[i];
            if m.start + self.lengths[m.pattern.index()] as usize > carry_len {
                out[kept] = MatchEvent::new(base + m.start, m.pattern);
                kept += 1;
            }
        }
        out.truncate(kept);

        // Advance the carry to the last `overlap` bytes of the stream.
        if self.overlap > 0 {
            if chunk.len() >= self.overlap {
                self.carry.clear();
                self.carry
                    .extend_from_slice(&chunk[chunk.len() - self.overlap..]);
            } else {
                let excess = (carry_len + chunk.len()).saturating_sub(self.overlap);
                self.carry.drain(..excess);
                self.carry.extend_from_slice(chunk);
            }
        }

        self.position += chunk.len();
        self.stats.bytes_scanned += chunk.len() as u64;
        self.stats.matches += (kept - first) as u64;
        self.stats.engine_calls += 1;
        self.stats.engine_bytes += engine_bytes as u64;
    }

    /// Convenience wrapper: scans `chunk` and returns the new matches.
    pub fn push_collect(&mut self, chunk: &[u8]) -> Vec<MatchEvent> {
        let mut out = Vec::new();
        self.push(chunk, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpm_patterns::naive::naive_find_all;
    use mpm_patterns::{matcher::normalize_matches, NaiveMatcher};

    fn scanner_for(set: &PatternSet) -> StreamScanner {
        StreamScanner::new(Arc::from(NaiveMatcher::new(set)), set)
    }

    #[test]
    fn straddling_match_reported_once_at_absolute_offset() {
        let set = PatternSet::from_literals(&["boundary", "a"]);
        let mut s = scanner_for(&set);
        let mut out = Vec::new();
        s.push(b"xxboun", &mut out);
        s.push(b"dary", &mut out);
        s.push(b"a", &mut out);
        normalize_matches(&mut out);
        let mut stream = Vec::new();
        stream.extend_from_slice(b"xxboundarya");
        assert_eq!(out, naive_find_all(&set, &stream));
        assert_eq!(s.position(), stream.len());
        assert_eq!(s.stats().bytes_scanned, stream.len() as u64);
        assert_eq!(s.stats().matches, out.len() as u64);
    }

    #[test]
    fn one_byte_chunks_equal_one_shot() {
        let set = PatternSet::from_literals(&["abc", "bc", "c", "abca"]);
        let stream = b"abcabcaxbcabca";
        let expected = naive_find_all(&set, stream);
        let mut s = scanner_for(&set);
        let mut out = Vec::new();
        for &b in stream.iter() {
            s.push(&[b], &mut out);
        }
        normalize_matches(&mut out);
        assert_eq!(out, expected);
    }

    #[test]
    fn match_inside_overlap_not_reported_twice() {
        // "aa" at offset 2 lies wholly inside the carry after the first push;
        // the second push must not re-report it.
        let set = PatternSet::from_literals(&["aaaa", "aa"]);
        let mut s = scanner_for(&set);
        let mut out = Vec::new();
        s.push(b"xaaa", &mut out);
        s.push(b"ax", &mut out);
        normalize_matches(&mut out);
        assert_eq!(out, naive_find_all(&set, b"xaaaax"));
    }

    #[test]
    fn single_byte_patterns_need_no_carry() {
        let set = PatternSet::from_literals(&["x", "y"]);
        let mut s = scanner_for(&set);
        assert_eq!(s.overlap(), 0);
        let mut out = Vec::new();
        s.push(b"xy", &mut out);
        s.push(b"yx", &mut out);
        normalize_matches(&mut out);
        assert_eq!(out, naive_find_all(&set, b"xyyx"));
    }

    #[test]
    fn reset_starts_a_fresh_stream() {
        let set = PatternSet::from_literals(&["ab"]);
        let mut s = scanner_for(&set);
        let mut out = Vec::new();
        s.push(b"za", &mut out);
        s.reset();
        assert_eq!(s.position(), 0);
        // The 'a' carried from the old stream must not pair with this 'b'.
        s.push(b"b", &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn empty_push_is_a_no_op() {
        let set = PatternSet::from_literals(&["ab"]);
        let mut s = scanner_for(&set);
        let mut out = Vec::new();
        s.push(b"a", &mut out);
        s.push(b"", &mut out);
        s.push(b"b", &mut out);
        assert_eq!(out, vec![MatchEvent::new(0, mpm_patterns::PatternId(0))]);
    }

    #[test]
    fn default_path_work_counters_are_exact() {
        // Overlap 4: each non-empty push is one engine call over
        // `carry ++ chunk`, with the carry at 0, 2, 4 and 4 bytes before the
        // 2-, 5-, 1- and 10-byte chunks.
        let set = PatternSet::from_literals(&["abcde", "b"]);
        let mut s = scanner_for(&set);
        let mut out = Vec::new();
        for chunk in [&b"ab"[..], b"", b"cdeab", b"c", b"bbbbbbbbbb"] {
            s.push(chunk, &mut out);
        }
        let stats = s.stats();
        assert_eq!(stats.engine_calls, 4);
        assert_eq!(stats.engine_bytes, 2 + 7 + 5 + 14);
        assert_eq!(stats.bytes_scanned, 18);
        assert_eq!(s.carried_len(), 0, "the default path carries no state");
        normalize_matches(&mut out);
        assert_eq!(out, naive_find_all(&set, b"abcdeabcbbbbbbbbbb"));
    }

    #[test]
    #[should_panic(expected = "different pattern set")]
    fn mismatched_set_rejected() {
        let compiled = PatternSet::from_literals(&["abcdef"]);
        let other = PatternSet::from_literals(&["ab"]);
        let _ = StreamScanner::new(Arc::from(NaiveMatcher::new(&compiled)), &other);
    }
}
