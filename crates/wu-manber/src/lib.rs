//! Wu-Manber multi-pattern matcher.
//!
//! The paper's related-work section (§VI-A) discusses Wu-Manber as the main
//! alternative family to Aho-Corasick: a Boyer-Moore-style algorithm that
//! uses a table of safe *shift* distances over blocks of `B = 2` characters
//! to skip input bytes entirely, falling back to a hash bucket of candidate
//! patterns when no skip is possible. Its well-known weakness — and the
//! reason the paper dismisses it for NIDS rulesets — is that the minimum
//! pattern length bounds every shift, so short patterns destroy its
//! advantage. This crate provides a from-scratch implementation so that the
//! claim can be measured rather than cited (see the `short_patterns_ruin_
//! shift_distances` test and the Criterion comparison in `mpm-bench`).
//!
//! The implementation follows the original technical report (Wu & Manber,
//! TR-94-17): SHIFT table indexed by the last `B` bytes of the current
//! `m`-byte window (`m` = shortest pattern length), HASH buckets of patterns
//! for windows whose shift is zero, exact verification against the full
//! pattern. Patterns shorter than `B` (single bytes) cannot participate in
//! the shift machinery at all and are handled by a dedicated scan — the
//! degenerate behaviour the paper alludes to.
//!
//! Case-insensitive (`nocase`) patterns follow the workspace's
//! filter-folded / verify-exact contract — the design the Wu-Manber hardware
//! line (Aldwairi et al.) also adopts for NIDS rulesets: when the set
//! contains any `nocase` pattern, the SHIFT and HASH tables are built over
//! ASCII-case-folded pattern bytes and the scan folds the input block values
//! to match (folding can only shrink shift distances, never skip a true
//! occurrence), while per-pattern verification compares byte-exactly or
//! case-insensitively as each pattern demands. Single-byte `nocase`
//! patterns are simply registered under both case variants of their byte,
//! which is already exact. Case-sensitive-only sets build and scan exactly
//! as before.

#![warn(missing_docs)]

pub(crate) mod graph;

use mpm_graph::{with_cached_scratchpad, GraphConfig, ScanGraph};
use mpm_patterns::{fold_byte, MatchEvent, Matcher, PatternId, PatternSet};
use mpm_simd::{
    prefetch_read, Avx2Backend, Avx512Backend, BackendKind, ScalarBackend, VectorBackend,
};
use std::sync::Arc;

/// Block size used for the shift table (the classic choice).
const B: usize = 2;

/// Number of entries in the SHIFT/HASH tables (one per 2-byte block value).
const TABLE_SIZE: usize = 1 << 16;

/// Zero-shift candidates buffered before a batched verification drain: the
/// candidate-window loop no longer verifies each window the moment its shift
/// hits zero, it buffers `(start, block value)` pairs and drains them with
/// the bucket storage prefetched ahead and the per-pattern compares running
/// through the SIMD window comparison (`VectorBackend::eq_window`).
const WM_BATCH: usize = 64;

/// Prefetch distance inside the drain: the id storage of candidate `i + K`
/// is requested while candidate `i`'s patterns are compared.
const WM_PREFETCH: usize = 4;

/// The compiled Wu-Manber state — everything the scan needs, shared by
/// the engine facade and the scan-graph operators through an [`Arc`].
#[derive(Clone, Debug)]
pub(crate) struct WmCore {
    pub(crate) set: PatternSet,
    /// Shortest pattern length among the patterns handled by the shift
    /// machinery (length ≥ 2). Zero when there are none.
    pub(crate) m: usize,
    /// Safe shift distance per 2-byte block value.
    pub(crate) shift: Vec<u16>,
    /// Candidate pattern ids per 2-byte block value (only populated where
    /// `shift == 0`).
    pub(crate) buckets: Vec<Vec<PatternId>>,
    /// Single-byte patterns, handled by a dedicated pass: `one_byte[b]`
    /// lists the ids of patterns matching byte `b` (a `nocase` letter is
    /// registered under both of its case variants).
    pub(crate) one_byte: Vec<Vec<PatternId>>,
    pub(crate) has_one_byte: bool,
    /// True if the SHIFT/HASH tables were built over ASCII-case-folded
    /// pattern bytes (the set contains a `nocase` pattern); the scan folds
    /// input block values to match.
    pub(crate) folded: bool,
}

/// Wu-Manber matcher.
///
/// Since PR 9 the scan path is a graph assembly (`graph` module): the
/// single-byte pass, the shift walk and the candidate drain are separate
/// operators scheduled by [`ScanGraph`]. The historical interleaved scan
/// is retained as [`WuManber::find_into_legacy`], the differential oracle
/// the graph path is tested against.
#[derive(Clone, Debug)]
pub struct WuManber {
    core: Arc<WmCore>,
    /// SIMD backend the candidate drain's window compares dispatch to,
    /// resolved once at build time (`MPM_FORCE_BACKEND` pins it, exactly as
    /// for the filtering engines) so the per-scan path allocates nothing.
    backend: BackendKind,
    graph: ScanGraph,
}

#[inline]
fn block_value(a: u8, b: u8) -> usize {
    u16::from_le_bytes([a, b]) as usize
}

impl WmCore {
    /// Compiles the shared scan state for `set`.
    fn build(set: &PatternSet) -> Self {
        let folded = set.has_nocase();
        let fold = |b: u8| fold_byte(b, folded);
        let mut one_byte = vec![Vec::new(); 256];
        let mut has_one_byte = false;
        let mut shift_patterns: Vec<(PatternId, &mpm_patterns::Pattern)> = Vec::new();
        for (id, p) in set.iter() {
            if p.len() < B {
                let b0 = p.bytes()[0];
                one_byte[b0 as usize].push(id);
                if p.is_nocase() && b0.is_ascii_alphabetic() {
                    // Registering both case variants makes the single-byte
                    // pass exact with no verification step.
                    one_byte[(b0 ^ 0x20) as usize].push(id);
                }
                has_one_byte = true;
            } else {
                shift_patterns.push((id, p));
            }
        }

        let m = shift_patterns
            .iter()
            .map(|(_, p)| p.len())
            .min()
            .unwrap_or(0);
        let mut shift = vec![0u16; TABLE_SIZE];
        let mut buckets = vec![Vec::new(); TABLE_SIZE];
        if m >= B {
            // Default shift: the whole window minus one block.
            let default = (m - B + 1) as u16;
            shift.iter_mut().for_each(|s| *s = default);
            for (id, p) in &shift_patterns {
                let bytes = p.bytes();
                // Every block ending at position j (0-based, within the first
                // m bytes) constrains the shift for that block value.
                for j in (B - 1)..m {
                    let value = block_value(fold(bytes[j - 1]), fold(bytes[j]));
                    let safe = (m - 1 - j) as u16;
                    if safe < shift[value] {
                        shift[value] = safe;
                    }
                }
                // Blocks with shift 0 (the block ending the window) get the
                // pattern added to their candidate bucket.
                let value = block_value(fold(bytes[m - 2]), fold(bytes[m - 1]));
                buckets[value].push(*id);
            }
        }

        WmCore {
            set: set.clone(),
            m,
            shift,
            buckets,
            one_byte,
            has_one_byte,
            folded,
        }
    }

    /// Emits the single-byte matches whose position lies in `start..end`
    /// (this pass is exact, so its events need no verification round).
    pub(crate) fn scan_one_byte_range(
        &self,
        haystack: &[u8],
        start: usize,
        end: usize,
        out: &mut Vec<MatchEvent>,
    ) {
        for (i, &b) in haystack[start..end].iter().enumerate() {
            for &id in &self.one_byte[b as usize] {
                out.push(MatchEvent::new(start + i, id));
            }
        }
    }

    /// The shift-table walk over window-end positions in `start..end`,
    /// buffering the zero-shift candidate windows as `(window start, block
    /// value)` pairs instead of verifying them inline. The walk restarts at
    /// each range boundary, which can examine a position a continuous walk
    /// would have skipped over — harmless, because the shift invariant
    /// guarantees no true match ends at a skipped position, so any extra
    /// candidate is rejected by verification.
    pub(crate) fn shift_walk_range<const FOLD: bool>(
        &self,
        haystack: &[u8],
        start: usize,
        end: usize,
        starts: &mut Vec<u32>,
        values: &mut Vec<u32>,
    ) {
        let m = self.m;
        if m < B || haystack.len() < m {
            return;
        }
        // `pos` is the index of the last byte of the current m-byte window;
        // the window itself may begin before `start` (in the previous
        // chunk), which is fine — ops always see the full haystack.
        let mut pos = start.max(m - 1);
        while pos < end {
            let value = block_value(
                fold_byte(haystack[pos - 1], FOLD),
                fold_byte(haystack[pos], FOLD),
            );
            let shift = self.shift[value] as usize;
            if shift > 0 {
                pos += shift;
                continue;
            }
            // Request the bucket header now, so the pattern-id list is
            // resident by the time the drain walks it.
            prefetch_read(&self.buckets[value]);
            starts.push((pos + 1 - m) as u32);
            values.push(value as u32);
            pos += 1;
        }
    }

    /// Verifies a buffered block of zero-shift candidates: every pattern in
    /// each candidate's bucket is compared against the text at the window
    /// start under its own case rule, via the backend's vector window
    /// comparison. The id storage of candidate `i + K` is prefetched while
    /// candidate `i` is verified.
    pub(crate) fn drain_candidates<S: VectorBackend<W>, const W: usize, const FOLD: bool>(
        &self,
        haystack: &[u8],
        starts: &[u32],
        values: &[u32],
        out: &mut Vec<MatchEvent>,
    ) {
        let n = haystack.len();
        S::dispatch(|| {
            for i in 0..starts.len() {
                if i + WM_PREFETCH < starts.len() {
                    prefetch_read(self.buckets[values[i + WM_PREFETCH] as usize].as_ptr());
                }
                let start = starts[i] as usize;
                for &id in &self.buckets[values[i] as usize] {
                    let pattern = self.set.get(id);
                    let end = start + pattern.len();
                    if end > n {
                        continue;
                    }
                    let window = &haystack[start..end];
                    // `FOLD = false` sets hold no `nocase` patterns, so the
                    // case branch vanishes from the monomorphized kernel.
                    let hit = if FOLD && pattern.is_nocase() {
                        S::eq_window_nocase(window, pattern.bytes())
                    } else {
                        S::eq_window(window, pattern.bytes())
                    };
                    if hit {
                        out.push(MatchEvent::new(start, id));
                    }
                }
            }
        });
    }
}

impl WuManber {
    /// Compiles the matcher for `set`.
    pub fn build(set: &PatternSet) -> Self {
        let core = Arc::new(WmCore::build(set));
        let backend = mpm_simd::detect_best();
        let graph = match backend {
            BackendKind::Scalar => graph::build_wm_graph::<ScalarBackend, 8>(&core),
            BackendKind::Avx2 => graph::build_wm_graph::<Avx2Backend, 8>(&core),
            BackendKind::Avx512 => graph::build_wm_graph::<Avx512Backend, 16>(&core),
        };
        WuManber {
            core,
            backend,
            graph,
        }
    }

    /// True if the tables were built over ASCII-case-folded bytes (the set
    /// contains a `nocase` pattern).
    pub fn is_folded(&self) -> bool {
        self.core.folded
    }

    /// Shortest shift-eligible pattern length (`0` if all patterns are
    /// single bytes). The average shift — and therefore the throughput — is
    /// bounded by this value, which is the paper's argument against
    /// Wu-Manber for rulesets with short patterns.
    pub fn window_len(&self) -> usize {
        self.core.m
    }

    /// Average shift value over the whole table (diagnostic; large is good).
    pub fn average_shift(&self) -> f64 {
        if self.core.m < B {
            return 0.0;
        }
        self.core.shift.iter().map(|&s| s as f64).sum::<f64>() / self.core.shift.len() as f64
    }

    /// The operator graph the scan path executes.
    pub fn graph(&self) -> &ScanGraph {
        &self.graph
    }

    /// The graph's chunking/overlap configuration.
    pub fn graph_config(&self) -> GraphConfig {
        self.graph.config()
    }

    /// Overrides the graph's chunking/overlap configuration (used by the
    /// benchmark harness and the differential tests for deterministic A/B
    /// runs without environment races).
    pub fn set_graph_config(&mut self, config: GraphConfig) {
        self.graph.set_config(config);
    }

    /// The pre-PR 9 interleaved scan (single-byte pass + shift walk with
    /// inline batched verification), kept as the differential oracle for
    /// the graph assembly.
    pub fn find_into_legacy(&self, haystack: &[u8], out: &mut Vec<MatchEvent>) {
        if self.core.has_one_byte {
            self.core
                .scan_one_byte_range(haystack, 0, haystack.len(), out);
        }
        // The candidate drain's window compares ride the backend resolved at
        // build time; the shift walk itself is scalar.
        match self.backend {
            BackendKind::Scalar => self.shift_scan_on::<ScalarBackend, 8>(haystack, out),
            BackendKind::Avx2 => self.shift_scan_on::<Avx2Backend, 8>(haystack, out),
            BackendKind::Avx512 => self.shift_scan_on::<Avx512Backend, 16>(haystack, out),
        }
    }

    /// The shift-table scan over patterns of length ≥ `B`, monomorphized per
    /// case mode (`FOLD = true` folds the input block values to match the
    /// folded tables) and per SIMD backend `S` (used only in the candidate
    /// drain; the shift walk itself is inherently scalar).
    ///
    /// Zero-shift candidates are **batched**: `(start, block value)` pairs
    /// are buffered — prefetching the bucket header the moment the candidate
    /// is found — and drained [`WM_BATCH`] at a time through
    /// [`WuManber::drain_candidates`], so the bucket walks of consecutive
    /// candidates overlap in the memory system instead of serialising.
    fn shift_scan<S: VectorBackend<W>, const W: usize, const FOLD: bool>(
        &self,
        haystack: &[u8],
        out: &mut Vec<MatchEvent>,
    ) {
        let core = &*self.core;
        let m = core.m;
        if m < B || haystack.len() < m {
            return;
        }
        let n = haystack.len();
        let mut pend_start = [0u32; WM_BATCH];
        let mut pend_value = [0u32; WM_BATCH];
        let mut pending = 0usize;
        // `pos` is the index of the last byte of the current m-byte window.
        let mut pos = m - 1;
        while pos < n {
            let value = block_value(
                fold_byte(haystack[pos - 1], FOLD),
                fold_byte(haystack[pos], FOLD),
            );
            let shift = core.shift[value] as usize;
            if shift > 0 {
                pos += shift;
                continue;
            }
            // Candidate window: buffer it and request its bucket now, so the
            // pattern-id list is resident by the time the drain walks it.
            prefetch_read(&core.buckets[value]);
            pend_start[pending] = (pos + 1 - m) as u32;
            pend_value[pending] = value as u32;
            pending += 1;
            if pending == WM_BATCH {
                core.drain_candidates::<S, W, FOLD>(haystack, &pend_start, &pend_value, out);
                pending = 0;
            }
            pos += 1;
        }
        core.drain_candidates::<S, W, FOLD>(
            haystack,
            &pend_start[..pending],
            &pend_value[..pending],
            out,
        );
    }

    /// Monomorphizes the legacy shift scan over the fold mode for one
    /// backend.
    fn shift_scan_on<S: VectorBackend<W>, const W: usize>(
        &self,
        haystack: &[u8],
        out: &mut Vec<MatchEvent>,
    ) {
        if self.core.folded {
            self.shift_scan::<S, W, true>(haystack, out);
        } else {
            self.shift_scan::<S, W, false>(haystack, out);
        }
    }
}

impl Matcher for WuManber {
    fn name(&self) -> &'static str {
        "Wu-Manber"
    }

    fn max_pattern_len(&self) -> usize {
        self.core
            .set
            .patterns()
            .iter()
            .map(|p| p.len())
            .max()
            .unwrap_or(0)
    }

    fn find_into(&self, haystack: &[u8], out: &mut Vec<MatchEvent>) {
        with_cached_scratchpad(|pad| self.graph.run(haystack, pad, out));
    }

    fn scan_with_stats(&self, haystack: &[u8]) -> mpm_patterns::MatcherStats {
        let mut out = Vec::new();
        let counters = with_cached_scratchpad(|pad| {
            self.graph.run_timed(haystack, pad, &mut out);
            pad.counters
        });
        mpm_patterns::MatcherStats {
            bytes_scanned: haystack.len() as u64,
            candidates: counters.candidates,
            matches: out.len() as u64,
            filter_nanos: counters.filter_nanos,
            verify_nanos: counters.verify_nanos,
            ..mpm_patterns::MatcherStats::default()
        }
    }

    fn heap_bytes(&self) -> usize {
        let footprint = self.memory_footprint();
        footprint.total()
    }

    fn memory_footprint(&self) -> mpm_patterns::MemoryFootprint {
        mpm_patterns::MemoryFootprint {
            // The shift table is what the skip loop touches per position —
            // Wu-Manber's analogue of the filtering structures.
            filter_bytes: self.core.shift.len() * 2,
            // Candidate buckets + the pattern bytes they are compared to.
            verify_bytes: self
                .core
                .buckets
                .iter()
                .map(|b| b.len() * std::mem::size_of::<PatternId>())
                .sum::<usize>()
                + self
                    .core
                    .set
                    .patterns()
                    .iter()
                    .map(|p| p.len())
                    .sum::<usize>(),
            other_bytes: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpm_patterns::naive::naive_find_all;

    #[test]
    fn classic_example_matches_naive() {
        let set = PatternSet::from_literals(&["announce", "annual", "annually"]);
        let wm = WuManber::build(&set);
        let hay = b"CPM_annual_conference announce the annually repeated event";
        assert_eq!(wm.find_all(hay), naive_find_all(&set, hay));
        // m = 6 ("annual"), so shifts can skip up to 5 bytes.
        assert_eq!(wm.window_len(), 6);
        assert!(wm.average_shift() > 4.0);
    }

    #[test]
    fn overlapping_and_repeated_matches() {
        let set = PatternSet::from_literals(&["abab", "baba", "ab"]);
        let wm = WuManber::build(&set);
        let hay = b"abababab";
        assert_eq!(wm.find_all(hay), naive_find_all(&set, hay));
    }

    #[test]
    fn one_byte_patterns_are_still_exact() {
        let set = PatternSet::from_literals(&["x", "longpattern", "yz"]);
        let wm = WuManber::build(&set);
        let hay = b"xx yz longpattern x";
        assert_eq!(wm.find_all(hay), naive_find_all(&set, hay));
    }

    #[test]
    fn short_patterns_ruin_shift_distances() {
        // The paper's argument: one 2-byte pattern caps every shift at 1.
        let long_only = WuManber::build(&PatternSet::from_literals(&[
            "wide-enough-pattern",
            "another-long-pattern",
        ]));
        let with_short = WuManber::build(&PatternSet::from_literals(&[
            "wide-enough-pattern",
            "another-long-pattern",
            "ab",
        ]));
        assert!(long_only.average_shift() > 5.0);
        assert!(with_short.average_shift() <= 1.0);
        assert_eq!(with_short.window_len(), 2);
    }

    #[test]
    fn nocase_patterns_are_found_in_any_case() {
        use mpm_patterns::Pattern;
        let set = PatternSet::new(vec![
            Pattern::literal_nocase(*b"AnnOunce"),
            Pattern::literal(*b"annual"),
            Pattern::literal_nocase(*b"x"),
            Pattern::literal_nocase(*b"aB"),
        ]);
        let wm = WuManber::build(&set);
        assert!(wm.is_folded());
        let hay = b"ANNOUNCE announce ANNUAL annual X x AB ab Ab aB";
        assert_eq!(wm.find_all(hay), naive_find_all(&set, hay));
    }

    #[test]
    fn case_sensitive_only_sets_stay_unfolded() {
        let set = PatternSet::from_literals(&["AnnOunce", "annual"]);
        let wm = WuManber::build(&set);
        assert!(!wm.is_folded());
        let hay = b"ANNOUNCE AnnOunce annual ANNUAL";
        assert_eq!(wm.find_all(hay), naive_find_all(&set, hay));
    }

    #[test]
    fn nocase_single_byte_registers_both_case_variants() {
        use mpm_patterns::Pattern;
        let set = PatternSet::new(vec![
            Pattern::literal_nocase(*b"q"),
            Pattern::literal(*b"q"),
            Pattern::literal_nocase(*b"7"),
        ]);
        let wm = WuManber::build(&set);
        let hay = b"Q q 7";
        assert_eq!(wm.find_all(hay), naive_find_all(&set, hay));
    }

    #[test]
    fn empty_input_and_input_shorter_than_window() {
        let set = PatternSet::from_literals(&["abcdef"]);
        let wm = WuManber::build(&set);
        assert!(wm.find_all(b"").is_empty());
        assert!(wm.find_all(b"abc").is_empty());
        assert_eq!(wm.find_all(b"abcdef").len(), 1);
    }

    #[test]
    fn binary_patterns_and_prefix_collisions() {
        let set = PatternSet::from_literals(&[
            &[0x00u8, 0x01, 0x02, 0x03][..],
            &[0xff, 0xfe, 0x00, 0x01][..],
            b"attack",
            b"attach",
        ]);
        let wm = WuManber::build(&set);
        let mut hay = b"attack attach atta".to_vec();
        hay.extend_from_slice(&[0x00, 0x01, 0x02, 0x03, 0xff, 0xfe, 0x00, 0x01]);
        assert_eq!(wm.find_all(&hay), naive_find_all(&set, &hay));
    }
}
