//! The original (scalar, single-pass) DFC engine.
//!
//! Since PR 5 the verification side of the pass is **block-drained**: the
//! positions that survive the initial direct filter are buffered (up to
//! [`crate::tables::DRAIN_BLOCK`] at a time) and pushed through the batched,
//! prefetch-pipelined compact-hash-table path instead of being classified
//! and verified one at a time the moment they pass. The filter loop itself —
//! the part the paper's "DFC" baseline measures against the vectorized
//! engines — is unchanged scalar code; what changed is that the dependent
//! hash-table loads of consecutive candidates now overlap instead of
//! serialising.

use crate::tables::{DfcTables, DRAIN_BLOCK};
use mpm_graph::{with_cached_scratchpad, GraphConfig, ScanGraph};
use mpm_patterns::{fold_byte, MatchEvent, Matcher, MatcherStats, PatternSet};
use mpm_simd::ScalarBackend;
use std::sync::Arc;

/// Scalar DFC: interleaved filtering + verification, exactly the structure
/// the paper uses as its "DFC" baseline.
///
/// Since PR 9 the scan path is a graph assembly (`graph` module): the
/// filter sweep and the block drain are separate operators scheduled by
/// [`ScanGraph`], which also gives DFC the streaming chunk loop and the
/// overlapped (double-banked) schedule for free. The historical
/// single-pass loop is retained as [`Dfc::find_into_legacy`], the
/// differential oracle the graph path is tested against.
#[derive(Clone, Debug)]
pub struct Dfc {
    tables: Arc<DfcTables>,
    graph: ScanGraph,
}

impl Dfc {
    /// Compiles DFC for `set`.
    pub fn build(set: &PatternSet) -> Self {
        Self::from_tables(DfcTables::build(set))
    }

    /// Wraps pre-built tables in the engine (assembles the scan graph).
    pub fn from_tables(tables: DfcTables) -> Self {
        let tables = Arc::new(tables);
        let graph = crate::graph::build_dfc_graph(&tables);
        Dfc { tables, graph }
    }

    /// The compiled tables (used by the cache-simulation experiments).
    pub fn tables(&self) -> &DfcTables {
        &self.tables
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

    /// The pre-PR 9 monolithic scan pass, kept as the differential oracle
    /// for the graph assembly.
    pub fn find_into_legacy(&self, haystack: &[u8], out: &mut Vec<MatchEvent>) {
        self.scan(haystack, out);
    }

    /// [`Matcher::scan_with_stats`] through the legacy monolithic pass.
    pub fn scan_with_stats_legacy(&self, haystack: &[u8]) -> MatcherStats {
        let mut out = Vec::new();
        let (candidates, _comparisons) = self.scan(haystack, &mut out);
        MatcherStats {
            bytes_scanned: haystack.len() as u64,
            candidates,
            matches: out.len() as u64,
            ..MatcherStats::default()
        }
    }

    /// Core scan loop shared by [`Matcher::find_into`] and
    /// [`Matcher::scan_with_stats`]. Returns `(candidates, comparisons)`.
    /// Dispatches to the folded (`nocase`-capable) or byte-exact loop
    /// depending on how the tables were built.
    fn scan(&self, haystack: &[u8], out: &mut Vec<MatchEvent>) -> (u64, u64) {
        if self.tables.is_folded() {
            self.scan_impl::<true>(haystack, out)
        } else {
            self.scan_impl::<false>(haystack, out)
        }
    }

    fn scan_impl<const FOLD: bool>(
        &self,
        haystack: &[u8],
        out: &mut Vec<MatchEvent>,
    ) -> (u64, u64) {
        let t = &self.tables;
        if haystack.is_empty() {
            return (0, 0);
        }
        // The drain buffers come from the thread-local cache, so repeated
        // scans (one per streamed chunk/packet) allocate nothing.
        crate::tables::with_drain_buffers(|pending, long_scratch| {
            let mut candidates = 0u64;
            let mut comparisons = 0u64;
            for i in 0..haystack.len() - 1 {
                let window = u16::from_le_bytes([
                    fold_byte(haystack[i], FOLD),
                    fold_byte(haystack[i + 1], FOLD),
                ]);
                if t.df_initial.contains(window) {
                    candidates += 1;
                    pending.push(i as u32);
                    if pending.len() == DRAIN_BLOCK {
                        comparisons += t.classify_and_verify_batch::<ScalarBackend, 8>(
                            haystack,
                            pending,
                            long_scratch,
                            out,
                        );
                        pending.clear();
                    }
                }
            }
            comparisons += t.classify_and_verify_batch::<ScalarBackend, 8>(
                haystack,
                pending,
                long_scratch,
                out,
            );
            t.verify_tail(haystack, out);
            (candidates, comparisons)
        })
    }
}

impl Matcher for Dfc {
    fn name(&self) -> &'static str {
        "DFC"
    }

    fn max_pattern_len(&self) -> usize {
        self.tables.max_pattern_len
    }

    fn find_into(&self, haystack: &[u8], out: &mut Vec<MatchEvent>) {
        with_cached_scratchpad(|pad| self.graph.run(haystack, pad, out));
    }

    fn scan_with_stats(&self, haystack: &[u8]) -> MatcherStats {
        let mut out = Vec::new();
        let counters = with_cached_scratchpad(|pad| {
            self.graph.run_timed(haystack, pad, &mut out);
            pad.counters
        });
        MatcherStats {
            bytes_scanned: haystack.len() as u64,
            candidates: counters.candidates,
            matches: out.len() as u64,
            filter_nanos: counters.filter_nanos,
            verify_nanos: counters.verify_nanos,
            ..MatcherStats::default()
        }
    }

    fn heap_bytes(&self) -> usize {
        self.memory_footprint().total()
    }

    fn memory_footprint(&self) -> mpm_patterns::MemoryFootprint {
        mpm_patterns::MemoryFootprint {
            filter_bytes: self.tables.filter_bytes(),
            verify_bytes: self.tables.table_bytes(),
            other_bytes: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpm_patterns::naive::naive_find_all;
    use mpm_patterns::synthetic::{RulesetSpec, SyntheticRuleset};

    #[test]
    fn matches_naive_on_mixed_length_patterns() {
        let set = PatternSet::from_literals(&["a", "ab", "abc", "abcd", "bcde", "e", "GET /index"]);
        let dfc = Dfc::build(&set);
        let hay = b"xxabcdexx GET /index.html aaab";
        assert_eq!(dfc.find_all(hay), naive_find_all(&set, hay));
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let set = PatternSet::from_literals(&["a", "ab"]);
        let dfc = Dfc::build(&set);
        assert!(dfc.find_all(b"").is_empty());
        assert_eq!(dfc.find_all(b"a").len(), 1);
        assert_eq!(dfc.find_all(b"ab").len(), 2); // "a" and "ab"
    }

    #[test]
    fn filtering_rejects_most_random_input() {
        let rs = SyntheticRuleset::generate(RulesetSpec::tiny(500, 21));
        let set = rs.http();
        let dfc = Dfc::build(&set);
        // Uniformly random bytes: the paper reports ~95%+ of the input is
        // filtered out; check the candidate rate is low.
        let mut hay = vec![0u8; 100_000];
        let mut state = 0x1234_5678_9abc_def0u64;
        for b in hay.iter_mut() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            *b = (state >> 33) as u8;
        }
        let stats = dfc.scan_with_stats(&hay);
        let rate = stats.candidates as f64 / stats.bytes_scanned as f64;
        assert!(
            rate < 0.35,
            "candidate rate on random input too high: {rate}"
        );
        assert_eq!(dfc.find_all(&hay), naive_find_all(&set, &hay));
    }

    #[test]
    fn nocase_patterns_match_case_variants_exactly() {
        use mpm_patterns::Pattern;
        let set = PatternSet::new(vec![
            Pattern::literal_nocase(*b"CmD.exe"),
            Pattern::literal(*b"cmd.exe"),
            Pattern::literal_nocase(*b"ab"),
            Pattern::literal_nocase(*b"x"),
            Pattern::literal_nocase(*b"GeT"),
        ]);
        let dfc = Dfc::build(&set);
        assert!(dfc.tables().is_folded());
        let hay = b"CMD.EXE cmd.exe AB aB X x GET get gEt";
        assert_eq!(dfc.find_all(hay), naive_find_all(&set, hay));
    }

    #[test]
    fn case_sensitive_only_sets_stay_byte_exact() {
        let set = PatternSet::from_literals(&["attack", "AbCd"]);
        let dfc = Dfc::build(&set);
        assert!(!dfc.tables().is_folded());
        let hay = b"ATTACK abcd AbCd attack";
        assert_eq!(dfc.find_all(hay), naive_find_all(&set, hay));
    }

    #[test]
    fn stats_report_scanned_bytes_and_matches() {
        let set = PatternSet::from_literals(&["needle"]);
        let dfc = Dfc::build(&set);
        let hay = b"hay needle hay needle";
        let stats = dfc.scan_with_stats(hay);
        assert_eq!(stats.bytes_scanned, hay.len() as u64);
        assert_eq!(stats.matches, 2);
    }

    #[test]
    fn synthetic_ruleset_equivalence() {
        let rs = SyntheticRuleset::generate(RulesetSpec::tiny(200, 33));
        let set = rs.http();
        let dfc = Dfc::build(&set);
        // Compose an input embedding some of the patterns.
        let mut hay = b"GET /index.php?id=1 HTTP/1.1\r\nHost: example\r\n\r\n".to_vec();
        for (_, p) in set.iter().take(30) {
            hay.extend_from_slice(p.bytes());
            hay.extend_from_slice(b" <=> ");
        }
        assert_eq!(dfc.find_all(&hay), naive_find_all(&set, &hay));
    }
}
