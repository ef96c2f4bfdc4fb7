//! Vector-DFC: the direct vectorization of DFC's filtering loop.
//!
//! This is the "Vector-DFC" configuration of the paper's evaluation: the
//! initial-filter lookups are performed `W` positions at a time with the
//! gather instruction, but the structure of the algorithm is unchanged —
//! classification and verification still happen inline, in scalar code, the
//! moment a window passes the initial filter. Because on realistic traffic a
//! large share of DFC's time is spent in that scalar tail, the speedup over
//! scalar DFC is modest (the paper measures 1.03×–1.23× on Haswell); the
//! point of reproducing it is to show *why* S-PATCH's restructuring is
//! needed before vectorization pays off.
//!
//! The filter lookups ride the register-resident `VectorBackend` API: the
//! `windows2 → shr → gather → test` chain stays in `B::Vec` registers. The
//! algorithmic *structure* is still DFC's single pass — there is no separate
//! whole-input filtering round as in S-PATCH/V-PATCH — but since PR 5 the
//! surviving lane masks leave the registers through `compress_store` into a
//! small pending block that is drained through the batched,
//! prefetch-pipelined verification path (`DfcTables::classify_and_verify_batch`)
//! whenever it fills, rather than each lane being classified and verified
//! inline the moment its bit pops out of the mask. The candidate set, match
//! set and comparison counts are unchanged; only the memory scheduling of
//! the verification tail — which dominates Vector-DFC's runtime on
//! realistic traffic, which is the paper's whole point about this engine —
//! is improved.

use crate::tables::{DfcTables, DRAIN_BLOCK};
use mpm_graph::{with_cached_scratchpad, GraphConfig, ScanGraph};
use mpm_patterns::{fold_byte, MatchEvent, Matcher, MatcherStats, PatternSet};
use mpm_simd::VectorBackend;
use std::marker::PhantomData;
use std::sync::Arc;

/// Vector-DFC, generic over the SIMD backend and lane count.
///
/// Since PR 9 the scan path is a graph assembly (`graph` module): the
/// vectorized sweep and the block drain are separate operators scheduled
/// by [`ScanGraph`]. The historical single-pass loop is retained as
/// [`VectorDfc::find_into_legacy`], the differential oracle the graph
/// path is tested against.
#[derive(Clone, Debug)]
pub struct VectorDfc<B: VectorBackend<W>, const W: usize> {
    tables: Arc<DfcTables>,
    graph: ScanGraph,
    _backend: PhantomData<B>,
}

impl<B: VectorBackend<W>, const W: usize> VectorDfc<B, W> {
    /// Compiles Vector-DFC for `set`.
    ///
    /// # Panics
    /// Panics if the backend is not available on this CPU (check
    /// [`VectorBackend::is_available`] first, or use the scalar backend which
    /// is always available).
    pub fn build(set: &PatternSet) -> Self {
        assert!(
            B::is_available(),
            "SIMD backend {} is not available on this CPU",
            B::name()
        );
        Self::from_tables(DfcTables::build(set))
    }

    /// Wraps pre-built tables in the engine (assembles the scan graph).
    /// The backend-availability check is the caller's responsibility here;
    /// [`VectorDfc::build`] performs it.
    pub fn from_tables(tables: DfcTables) -> Self {
        let tables = Arc::new(tables);
        let graph = crate::graph::build_vector_dfc_graph::<B, W>(&tables);
        VectorDfc {
            tables,
            graph,
            _backend: PhantomData,
        }
    }

    /// Name of the SIMD backend in use.
    pub fn backend_name(&self) -> &'static str {
        B::name()
    }

    /// The compiled tables (exposed for the cache-simulation experiments and
    /// the memory-footprint reporting).
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
        let candidates = self.scan(haystack, &mut out);
        MatcherStats {
            bytes_scanned: haystack.len() as u64,
            candidates,
            matches: out.len() as u64,
            ..MatcherStats::default()
        }
    }

    fn scan(&self, haystack: &[u8], out: &mut Vec<MatchEvent>) -> u64 {
        if self.tables.is_folded() {
            self.scan_impl::<true>(haystack, out)
        } else {
            self.scan_impl::<false>(haystack, out)
        }
    }

    fn scan_impl<const FOLD: bool>(&self, haystack: &[u8], out: &mut Vec<MatchEvent>) -> u64 {
        let t = &self.tables;
        if haystack.is_empty() {
            return 0;
        }
        let filter_bytes = t.df_initial.bytes();
        let n = haystack.len();
        // The drain buffers come from the thread-local cache, so repeated
        // scans (one per streamed chunk/packet) allocate nothing.
        crate::tables::with_drain_buffers(|pending, long_scratch| {
            let mut candidates = 0u64;
            // The vector loop needs W + 1 input bytes per block; positions
            // whose 2-byte window would read past the end are handled by the
            // scalar tail below.
            let mut i = 0usize;
            if n > W {
                // Run the vectorized initial-filter loop inside the backend's
                // feature context so the gathers inline (see
                // `VectorBackend::dispatch`). Surviving lanes are compacted
                // into the pending block with `compress_store` and drained
                // through the batched verification path when it fills. With
                // folded tables the window register is case-folded before the
                // filter lookup, mirroring the folded build.
                B::dispatch(|| {
                    while i + W < n {
                        let windows = B::windows2(haystack, i);
                        let windows = if FOLD {
                            B::to_ascii_lower(windows)
                        } else {
                            windows
                        };
                        let idx = B::shr_const(windows, 3);
                        let bytes = B::gather_bytes(filter_bytes, idx);
                        let mask = B::test_window_bits(bytes, windows);
                        if mask != 0 {
                            candidates += mask.count_ones() as u64;
                            B::compress_store(mask, i as u32, pending);
                            if pending.len() >= DRAIN_BLOCK {
                                t.classify_and_verify_batch::<B, W>(
                                    haystack,
                                    pending,
                                    long_scratch,
                                    out,
                                );
                                pending.clear();
                            }
                        }
                        i += W;
                    }
                });
            }
            // Scalar tail: remaining windows plus the final byte.
            while i + 1 < n {
                let window = u16::from_le_bytes([
                    fold_byte(haystack[i], FOLD),
                    fold_byte(haystack[i + 1], FOLD),
                ]);
                if t.df_initial.contains(window) {
                    candidates += 1;
                    pending.push(i as u32);
                }
                i += 1;
            }
            t.classify_and_verify_batch::<B, W>(haystack, pending, long_scratch, out);
            t.verify_tail(haystack, out);
            candidates
        })
    }
}

impl<B: VectorBackend<W>, const W: usize> Matcher for VectorDfc<B, W> {
    fn name(&self) -> &'static str {
        "Vector-DFC"
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
    use crate::scalar::Dfc;
    use mpm_patterns::naive::naive_find_all;
    use mpm_simd::{Avx2Backend, Avx512Backend, ScalarBackend};

    fn test_set() -> PatternSet {
        PatternSet::from_literals(&[
            "a",
            "ab",
            "GET",
            "abcd",
            "attack-vector",
            "/etc/passwd",
            "xyz",
        ])
    }

    fn test_input() -> Vec<u8> {
        let mut hay = Vec::new();
        for i in 0..50 {
            hay.extend_from_slice(b"GET /etc/passwd HTTP/1.1 ");
            hay.extend_from_slice(format!("filler-{i}-abcd-xyz ").as_bytes());
            if i % 7 == 0 {
                hay.extend_from_slice(b"attack-vector");
            }
        }
        hay
    }

    #[test]
    fn scalar_backend_agrees_with_naive_and_scalar_dfc() {
        let set = test_set();
        let hay = test_input();
        let expected = naive_find_all(&set, &hay);
        let vdfc = VectorDfc::<ScalarBackend, 8>::build(&set);
        assert_eq!(vdfc.find_all(&hay), expected);
        let dfc = Dfc::build(&set);
        assert_eq!(dfc.find_all(&hay), expected);
    }

    #[test]
    fn avx2_backend_agrees_when_available() {
        if !<Avx2Backend as VectorBackend<8>>::is_available() {
            return;
        }
        let set = test_set();
        let hay = test_input();
        let vdfc = VectorDfc::<Avx2Backend, 8>::build(&set);
        assert_eq!(vdfc.find_all(&hay), naive_find_all(&set, &hay));
    }

    #[test]
    fn avx512_backend_agrees_when_available() {
        if !<Avx512Backend as VectorBackend<16>>::is_available() {
            return;
        }
        let set = test_set();
        let hay = test_input();
        let vdfc = VectorDfc::<Avx512Backend, 16>::build(&set);
        assert_eq!(vdfc.find_all(&hay), naive_find_all(&set, &hay));
    }

    #[test]
    fn nocase_sets_match_naive_on_every_available_backend() {
        use mpm_patterns::Pattern;
        let set = PatternSet::new(vec![
            Pattern::literal_nocase(*b"Attack-Vector"),
            Pattern::literal(*b"attack-vector"),
            Pattern::literal_nocase(*b"GeT"),
            Pattern::literal_nocase(*b"z"),
        ]);
        let mut hay = Vec::new();
        for _ in 0..40 {
            hay.extend_from_slice(b"ATTACK-VECTOR attack-vector get GET Z z aTtAcK-vEcToR ");
        }
        let expected = naive_find_all(&set, &hay);
        assert_eq!(
            VectorDfc::<ScalarBackend, 8>::build(&set).find_all(&hay),
            expected
        );
        if <Avx2Backend as VectorBackend<8>>::is_available() {
            assert_eq!(
                VectorDfc::<Avx2Backend, 8>::build(&set).find_all(&hay),
                expected
            );
        }
        if <Avx512Backend as VectorBackend<16>>::is_available() {
            assert_eq!(
                VectorDfc::<Avx512Backend, 16>::build(&set).find_all(&hay),
                expected
            );
        }
    }

    #[test]
    fn inputs_shorter_than_a_vector_block() {
        let set = test_set();
        let vdfc = VectorDfc::<ScalarBackend, 8>::build(&set);
        for hay in [&b""[..], b"a", b"ab", b"GET", b"abcd", b"xyzabc"] {
            assert_eq!(
                vdfc.find_all(hay),
                naive_find_all(&set, hay),
                "input {hay:?}"
            );
        }
    }

    #[test]
    fn wide_scalar_width_matches_too() {
        let set = test_set();
        let hay = test_input();
        let vdfc16 = VectorDfc::<ScalarBackend, 16>::build(&set);
        assert_eq!(vdfc16.find_all(&hay), naive_find_all(&set, &hay));
    }
}
