//! Graph assembly and the two execution schedules (sequential and
//! cross-chunk overlapped).

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use mpm_patterns::MatchEvent;

use crate::scratchpad::{Scratchpad, SlotId, SlotSpec};
use crate::{Chunk, GraphConfig, ScanOp, Stage};

/// Builds a [`ScanGraph`]: allocate slots, register operators, pick a
/// config.
///
/// ```
/// use mpm_graph::{GraphBuilder, GraphConfig};
/// let mut b = GraphBuilder::new();
/// let _candidates = b.slot(true);
/// let graph = b.config(GraphConfig::default()).build();
/// assert_eq!(graph.config().chunk, mpm_graph::DEFAULT_CHUNK);
/// ```
#[derive(Default)]
pub struct GraphBuilder {
    slots: Vec<SlotSpec>,
    ops: Vec<Arc<dyn ScanOp>>,
    config: GraphConfig,
}

impl GraphBuilder {
    /// An empty builder with the default [`GraphConfig`].
    pub fn new() -> Self {
        GraphBuilder {
            slots: Vec::new(),
            ops: Vec::new(),
            config: GraphConfig::default(),
        }
    }

    /// Allocates a scratchpad slot; `counted` slots contribute their
    /// filter-stage lengths to [`StageCounters::candidates`]
    /// (see [`SlotSpec`]).
    ///
    /// [`StageCounters::candidates`]: crate::StageCounters::candidates
    pub fn slot(&mut self, counted: bool) -> SlotId {
        self.slots.push(SlotSpec {
            counted,
            carried: false,
        });
        SlotId(self.slots.len() - 1)
    }

    /// Allocates the graph's counted, **carried** slot: [`ScanGraph::resume`]
    /// seeds it with the entries an earlier execution handed back and hands
    /// back its entries near the end of the haystack (see [`Resume`]).
    ///
    /// # Panics
    /// Panics if the graph already has a carried slot (the carry is one
    /// position list).
    pub fn carried_slot(&mut self) -> SlotId {
        assert!(
            self.slots.iter().all(|s| !s.carried),
            "a graph has at most one carried slot"
        );
        self.slots.push(SlotSpec {
            counted: true,
            carried: true,
        });
        SlotId(self.slots.len() - 1)
    }

    /// Registers an operator. Execution order within a stage is
    /// registration order.
    pub fn op(&mut self, op: Arc<dyn ScanOp>) -> &mut Self {
        self.ops.push(op);
        self
    }

    /// Sets the execution parameters (normalized; see
    /// [`GraphConfig::normalize`]).
    pub fn config(&mut self, config: GraphConfig) -> &mut Self {
        self.config = config.normalize();
        self
    }

    /// Finalizes the assembly.
    pub fn build(&mut self) -> ScanGraph {
        let ops = std::mem::take(&mut self.ops);
        ScanGraph {
            filter_ops: ops
                .iter()
                .filter(|o| o.stage() == Stage::Filter)
                .cloned()
                .collect(),
            verify_ops: ops
                .iter()
                .filter(|o| o.stage() == Stage::Verify)
                .cloned()
                .collect(),
            carried: self.slots.iter().position(|s| s.carried).map(SlotId),
            slots: std::mem::take(&mut self.slots).into(),
            config: self.config,
        }
    }
}

/// An executable assembly of scan operators. Cheap to clone (operators are
/// shared), cheap to re-run (buffers live in the caller's [`Scratchpad`]).
#[derive(Clone)]
pub struct ScanGraph {
    filter_ops: Vec<Arc<dyn ScanOp>>,
    verify_ops: Vec<Arc<dyn ScanOp>>,
    slots: Arc<[SlotSpec]>,
    carried: Option<SlotId>,
    config: GraphConfig,
}

/// Where a resumed execution starts and what it carries between calls
/// (see [`ScanGraph::resume`]).
#[derive(Debug)]
pub struct Resume<'c> {
    /// First position the filter ops originate candidates at: an earlier
    /// execution already filtered the positions before it.
    pub filter_from: usize,
    /// In: carried-slot entries an earlier execution handed back, rebased
    /// to this haystack; they join the first chunk's candidates. Out: this
    /// execution's carried-slot entries at positions `>= keep_from`,
    /// rebased by `-keep_from`.
    pub carried: &'c mut Vec<u32>,
    /// First position whose carried-slot entries are handed back.
    pub keep_from: usize,
}

/// Per-execution options threaded through the two schedules.
struct Exec<'c> {
    /// Whether the stages are timed into the `*_nanos` counters.
    timed: bool,
    /// The carried slot with its seed/hand-back vector and `keep_from`.
    carry: Option<(SlotId, &'c mut Vec<u32>, usize)>,
}

impl Exec<'_> {
    /// Appends the seeds to the carried slot's write bank (after the first
    /// filter pass, so they are not counted as filter candidates) and
    /// empties the vector for the hand-back.
    fn seed(&mut self, pad: &mut Scratchpad) {
        if let Some((slot, carried, _)) = &mut self.carry {
            pad.write(*slot).extend_from_slice(carried);
            carried.clear();
        }
    }

    /// Hands back the just-verified carried-slot entries at `>= keep_from`.
    fn collect(&mut self, chunk: Chunk<'_>, pad: &Scratchpad) {
        if let Some((slot, carried, keep_from)) = &mut self.carry {
            // Fresh entries lie in `chunk`, seeds before the first chunk's
            // end: a chunk ending at or before `keep_from` has none to keep.
            if chunk.end > *keep_from {
                let keep = *keep_from as u32;
                carried.extend(
                    pad.read(*slot)
                        .iter()
                        .filter(|&&p| p >= keep)
                        .map(|&p| p - keep),
                );
            }
        }
    }
}

impl fmt::Debug for ScanGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScanGraph")
            .field(
                "filter_ops",
                &self.filter_ops.iter().map(|o| o.name()).collect::<Vec<_>>(),
            )
            .field(
                "verify_ops",
                &self.verify_ops.iter().map(|o| o.name()).collect::<Vec<_>>(),
            )
            .field("slots", &self.slots.len())
            .field("config", &self.config)
            .finish()
    }
}

impl ScanGraph {
    /// The execution parameters.
    pub fn config(&self) -> GraphConfig {
        self.config
    }

    /// Replaces the execution parameters (normalized). Engines expose this
    /// for the overlap on/off A/B harnesses.
    pub fn set_config(&mut self, config: GraphConfig) {
        self.config = config.normalize();
    }

    /// Operator names in execution order (filter stage, then verify stage).
    pub fn op_names(&self) -> Vec<&'static str> {
        self.filter_ops
            .iter()
            .chain(&self.verify_ops)
            .map(|o| o.name())
            .collect()
    }

    /// Executes the graph over `haystack`, appending matches to `out` and
    /// accumulating counters in `pad.counters` (which this call resets).
    /// The sequential and overlapped schedules produce identical output.
    /// Reads no clock: the `*_nanos` counters stay zero (see
    /// [`ScanGraph::run_timed`]).
    pub fn run(&self, haystack: &[u8], pad: &mut Scratchpad, out: &mut Vec<MatchEvent>) {
        let exec = Exec {
            timed: false,
            carry: None,
        };
        self.execute(haystack, 0, exec, pad, out);
    }

    /// [`ScanGraph::run`] that also times the filter and verify stages into
    /// [`StageCounters::filter_nanos`] / [`StageCounters::verify_nanos`]
    /// (four clock reads per chunk, so only statistics paths use it).
    ///
    /// [`StageCounters::filter_nanos`]: crate::StageCounters::filter_nanos
    /// [`StageCounters::verify_nanos`]: crate::StageCounters::verify_nanos
    pub fn run_timed(&self, haystack: &[u8], pad: &mut Scratchpad, out: &mut Vec<MatchEvent>) {
        let exec = Exec {
            timed: true,
            carry: None,
        };
        self.execute(haystack, 0, exec, pad, out);
    }

    /// Untimed execution that continues an earlier one on the same stream:
    /// the filter ops originate candidates only at `filter_from..`, the
    /// carried slot starts with the seeds in `resume.carried`, and its
    /// entries at `>= keep_from` are handed back through the same vector.
    /// `run` is `resume` from position 0 with no seeds and nothing kept. A
    /// graph without a carried slot ignores `resume.carried`.
    pub fn resume(
        &self,
        haystack: &[u8],
        resume: Resume<'_>,
        pad: &mut Scratchpad,
        out: &mut Vec<MatchEvent>,
    ) {
        let Resume {
            filter_from,
            carried,
            keep_from,
        } = resume;
        let exec = Exec {
            timed: false,
            carry: self.carried.map(|slot| (slot, carried, keep_from)),
        };
        self.execute(haystack, filter_from, exec, pad, out);
    }

    fn execute(
        &self,
        haystack: &[u8],
        filter_from: usize,
        mut exec: Exec<'_>,
        pad: &mut Scratchpad,
        out: &mut Vec<MatchEvent>,
    ) {
        pad.configure(&self.slots);
        pad.reset();
        let n = haystack.len();
        if n == 0 {
            if let Some((_, carried, _)) = exec.carry {
                carried.clear();
            }
            return;
        }
        assert!(
            n < u32::MAX as usize,
            "haystack too large for u32 candidate positions"
        );
        let from = filter_from.min(n);
        let chunk_size = self.config.chunk;
        let nchunks = (n - from).div_ceil(chunk_size).max(1);
        for op in self.filter_ops.iter().chain(&self.verify_ops) {
            op.init(chunk_size.min(n - from), pad);
        }
        let chunk_at = |k: usize| Chunk {
            haystack,
            start: from + k * chunk_size,
            end: (from + (k + 1) * chunk_size).min(n),
            is_last: k + 1 == nchunks,
        };
        if self.config.overlap && nchunks > 1 {
            self.run_overlapped(pad, out, nchunks, &chunk_at, &mut exec);
        } else {
            self.run_sequential(pad, out, nchunks, &chunk_at, &mut exec);
        }
    }

    /// Classical schedule: filter then verify, chunk by chunk, single bank.
    fn run_sequential<'a>(
        &self,
        pad: &mut Scratchpad,
        out: &mut Vec<MatchEvent>,
        nchunks: usize,
        chunk_at: &dyn Fn(usize) -> Chunk<'a>,
        exec: &mut Exec<'_>,
    ) {
        for k in 0..nchunks {
            let chunk = chunk_at(k);
            self.filter_pass(chunk, pad, out, 0, exec.timed);
            if k == 0 {
                exec.seed(pad);
            }
            pad.set_read_bank(0);
            pad.drain_read_events(out);
            self.verify_pass(chunk, pad, out, false, exec);
        }
    }

    /// Software-pipelined schedule: while the verify ops drain chunk
    /// *k − 1* from one bank, the filter ops fill the other bank with chunk
    /// *k*'s candidates. [`ScanOp::prime`] runs before the filter so the
    /// verifier's leading table loads overlap the filter's compute.
    fn run_overlapped<'a>(
        &self,
        pad: &mut Scratchpad,
        out: &mut Vec<MatchEvent>,
        nchunks: usize,
        chunk_at: &dyn Fn(usize) -> Chunk<'a>,
        exec: &mut Exec<'_>,
    ) {
        self.filter_pass(chunk_at(0), pad, out, 0, exec.timed);
        exec.seed(pad);
        for k in 1..nchunks {
            let prev = chunk_at(k - 1);
            pad.set_read_bank((k - 1) % 2);
            self.prime_pass(prev, pad);
            self.filter_pass(chunk_at(k), pad, out, k % 2, exec.timed);
            pad.drain_read_events(out);
            self.verify_pass(prev, pad, out, false, exec);
        }
        let last = chunk_at(nchunks - 1);
        pad.set_read_bank((nchunks - 1) % 2);
        pad.drain_read_events(out);
        self.verify_pass(last, pad, out, true, exec);
    }

    fn filter_pass(
        &self,
        chunk: Chunk<'_>,
        pad: &mut Scratchpad,
        out: &mut Vec<MatchEvent>,
        bank: usize,
        timed: bool,
    ) {
        pad.begin_write_bank(bank);
        let t = timed.then(Instant::now);
        for op in &self.filter_ops {
            op.execute(chunk, pad, out);
        }
        if let Some(t) = t {
            pad.counters.filter_nanos += t.elapsed().as_nanos() as u64;
        }
        pad.accumulate_candidates();
    }

    fn verify_pass(
        &self,
        chunk: Chunk<'_>,
        pad: &mut Scratchpad,
        out: &mut Vec<MatchEvent>,
        prime_first: bool,
        exec: &mut Exec<'_>,
    ) {
        if prime_first {
            self.prime_pass(chunk, pad);
        }
        let t = exec.timed.then(Instant::now);
        for op in &self.verify_ops {
            op.execute(chunk, pad, out);
        }
        if let Some(t) = t {
            pad.counters.verify_nanos += t.elapsed().as_nanos() as u64;
        }
        exec.collect(chunk, pad);
    }

    fn prime_pass(&self, chunk: Chunk<'_>, pad: &Scratchpad) {
        for op in &self.verify_ops {
            op.prime(chunk, pad);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{with_cached_scratchpad, Stage};

    /// Filter op: records every position whose byte equals `target` into a
    /// slot, and (to exercise event banking) directly emits an event for
    /// positions of byte b'!'.
    struct ByteFilter {
        target: u8,
        slot: SlotId,
    }

    impl ScanOp for ByteFilter {
        fn name(&self) -> &'static str {
            "test:byte-filter"
        }
        fn stage(&self) -> Stage {
            Stage::Filter
        }
        fn init(&self, batch: usize, pad: &mut Scratchpad) {
            pad.reserve_slot(self.slot, batch);
        }
        fn execute(&self, chunk: Chunk<'_>, pad: &mut Scratchpad, _out: &mut Vec<MatchEvent>) {
            for i in chunk.start..chunk.end {
                if chunk.haystack[i] == self.target {
                    pad.write(self.slot).push(i as u32);
                }
                if chunk.haystack[i] == b'!' {
                    pad.events_mut()
                        .push(MatchEvent::new(i, mpm_patterns::PatternId(7)));
                }
            }
        }
    }

    /// Verify op: "confirms" candidates whose position is even.
    struct EvenVerify {
        slot: SlotId,
        primed: std::sync::atomic::AtomicUsize,
    }

    impl ScanOp for EvenVerify {
        fn name(&self) -> &'static str {
            "test:even-verify"
        }
        fn stage(&self) -> Stage {
            Stage::Verify
        }
        fn execute(&self, _chunk: Chunk<'_>, pad: &mut Scratchpad, out: &mut Vec<MatchEvent>) {
            let cands = pad.take_read(self.slot);
            for &pos in &cands {
                pad.counters.comparisons += 1;
                if pos % 2 == 0 {
                    out.push(MatchEvent::new(pos as usize, mpm_patterns::PatternId(1)));
                }
            }
            pad.put_read(self.slot, cands);
        }
        fn prime(&self, _chunk: Chunk<'_>, _pad: &Scratchpad) {
            self.primed
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }

    fn test_graph(chunk: usize, overlap: bool) -> (ScanGraph, SlotId) {
        let mut b = GraphBuilder::new();
        let slot = b.slot(true);
        b.op(Arc::new(ByteFilter { target: b'x', slot }));
        b.op(Arc::new(EvenVerify {
            slot,
            primed: Default::default(),
        }));
        b.config(GraphConfig { chunk, overlap });
        (b.build(), slot)
    }

    fn run(graph: &ScanGraph, hay: &[u8]) -> (Vec<MatchEvent>, crate::StageCounters) {
        let mut out = Vec::new();
        let counters = with_cached_scratchpad(|pad| {
            graph.run(hay, pad, &mut out);
            pad.counters
        });
        (out, counters)
    }

    fn hay(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| match i % 97 {
                0 => b'x',
                13 => b'!',
                _ => b'.',
            })
            .collect()
    }

    #[test]
    fn overlap_output_is_identical_to_sequential() {
        let data = hay(10_000);
        for chunk in [32, 64, 256, 4096] {
            let (seq_g, _) = test_graph(chunk, false);
            let (ovl_g, _) = test_graph(chunk, true);
            let (seq, seq_c) = run(&seq_g, &data);
            let (ovl, ovl_c) = run(&ovl_g, &data);
            assert_eq!(seq, ovl, "chunk={chunk}");
            assert_eq!(seq_c.candidates, ovl_c.candidates);
            assert_eq!(seq_c.comparisons, ovl_c.comparisons);
        }
    }

    #[test]
    fn chunking_does_not_change_results() {
        // The raw order interleaves filter-stage events per chunk, so
        // compare the normalized match set (the contract chunking
        // preserves) plus the chunking-invariant counters.
        let data = hay(5_000);
        let (whole_g, _) = test_graph(1 << 20, false);
        let (mut whole, whole_c) = run(&whole_g, &data);
        mpm_patterns::matcher::normalize_matches(&mut whole);
        for chunk in [32, 96, 1024] {
            for overlap in [false, true] {
                let (g, _) = test_graph(chunk, overlap);
                let (mut got, got_c) = run(&g, &data);
                mpm_patterns::matcher::normalize_matches(&mut got);
                assert_eq!(got, whole, "chunk={chunk} overlap={overlap}");
                assert_eq!(got_c.candidates, whole_c.candidates);
                assert_eq!(got_c.comparisons, whole_c.comparisons);
            }
        }
    }

    #[test]
    fn events_interleave_in_chunk_order() {
        // A '!' event in chunk 0 must precede a verify match from chunk 0,
        // which precedes a '!' event from chunk 1, under both schedules.
        let mut data = vec![b'.'; 96];
        data[2] = b'x'; // chunk 0 verify match (even pos)
        data[5] = b'!'; // chunk 0 direct event
        data[40] = b'x'; // chunk 1 verify match
        data[39] = b'!'; // chunk 1 direct event
        for overlap in [false, true] {
            let (g, _) = test_graph(32, overlap);
            let (got, _) = run(&g, &data);
            let positions: Vec<usize> = got.iter().map(|m| m.start).collect();
            assert_eq!(positions, vec![5, 2, 39, 40], "overlap={overlap}");
        }
    }

    #[test]
    fn empty_input_is_a_no_op() {
        let (g, _) = test_graph(64, true);
        let (got, counters) = run(&g, b"");
        assert!(got.is_empty());
        assert_eq!(counters.candidates, 0);
    }

    #[test]
    fn prime_runs_once_per_chunk_when_overlapped() {
        let mut b = GraphBuilder::new();
        let slot = b.slot(true);
        b.op(Arc::new(ByteFilter { target: b'x', slot }));
        let verify = Arc::new(EvenVerify {
            slot,
            primed: Default::default(),
        });
        b.op(verify.clone());
        b.config(GraphConfig {
            chunk: 32,
            overlap: true,
        });
        let g = b.build();
        let data = hay(32 * 5);
        let _ = run(&g, &data);
        assert_eq!(
            verify.primed.load(std::sync::atomic::Ordering::Relaxed),
            5,
            "one prime per chunk"
        );
    }

    fn carried_graph(chunk: usize, overlap: bool) -> ScanGraph {
        let mut b = GraphBuilder::new();
        let slot = b.carried_slot();
        b.op(Arc::new(ByteFilter { target: b'x', slot }));
        b.op(Arc::new(EvenVerify {
            slot,
            primed: Default::default(),
        }));
        b.config(GraphConfig { chunk, overlap });
        b.build()
    }

    #[test]
    fn resume_filters_from_its_start_verifies_seeds_and_hands_back_the_tail() {
        let data = hay(1_000);
        let xs: Vec<u32> = (0..1_000)
            .filter(|&i| data[i] == b'x')
            .map(|i| i as u32)
            .collect();
        let (from, keep_from) = (300usize, 700usize);
        // Two seeds before `from` (one even, one odd) stand in for a
        // previous execution's carried candidates.
        let seeds = [100u32, 251];
        let fresh: Vec<u32> = xs.iter().copied().filter(|&p| p as usize >= from).collect();
        let mut expected: Vec<usize> = seeds
            .iter()
            .chain(&fresh)
            .filter(|&&p| p % 2 == 0)
            .map(|&p| p as usize)
            .collect();
        expected.sort_unstable();
        let kept: Vec<u32> = fresh
            .iter()
            .filter(|&&p| p as usize >= keep_from)
            .map(|&p| p - keep_from as u32)
            .collect();
        for chunk in [32, 96, 4096] {
            for overlap in [false, true] {
                let g = carried_graph(chunk, overlap);
                let mut carried = seeds.to_vec();
                let mut out = Vec::new();
                let candidates = with_cached_scratchpad(|pad| {
                    let resume = Resume {
                        filter_from: from,
                        carried: &mut carried,
                        keep_from,
                    };
                    g.resume(&data, resume, pad, &mut out);
                    pad.counters.candidates
                });
                let mut got: Vec<usize> = out
                    .iter()
                    .filter(|m| m.pattern.0 == 1)
                    .map(|m| m.start)
                    .collect();
                got.sort_unstable();
                assert_eq!(got, expected, "chunk={chunk} overlap={overlap}");
                carried.sort_unstable();
                assert_eq!(carried, kept, "chunk={chunk} overlap={overlap}");
                // Seeds are verified but not counted as filter output.
                assert_eq!(candidates, fresh.len() as u64);
            }
        }
    }

    #[test]
    fn resume_from_zero_with_no_state_equals_run() {
        let data = hay(2_000);
        let g = carried_graph(64, true);
        let (plain, plain_c) = run(&g, &data);
        let mut carried = Vec::new();
        let mut resumed = Vec::new();
        let counters = with_cached_scratchpad(|pad| {
            let resume = Resume {
                filter_from: 0,
                carried: &mut carried,
                keep_from: data.len(),
            };
            g.resume(&data, resume, pad, &mut resumed);
            pad.counters
        });
        assert_eq!(resumed, plain);
        assert_eq!(counters, plain_c);
        assert!(carried.is_empty());
    }

    #[test]
    fn only_run_timed_reads_the_clock() {
        let data = hay(50_000);
        let (g, _) = test_graph(4096, true);
        let (untimed_out, untimed) = run(&g, &data);
        assert_eq!((untimed.filter_nanos, untimed.verify_nanos), (0, 0));
        let mut timed_out = Vec::new();
        let timed = with_cached_scratchpad(|pad| {
            g.run_timed(&data, pad, &mut timed_out);
            pad.counters
        });
        assert!(timed.filter_nanos > 0 && timed.verify_nanos > 0);
        assert_eq!(timed_out, untimed_out);
        assert_eq!(
            (timed.candidates, timed.comparisons),
            (untimed.candidates, untimed.comparisons)
        );
    }

    #[test]
    #[should_panic(expected = "at most one carried slot")]
    fn second_carried_slot_is_rejected() {
        let mut b = GraphBuilder::new();
        b.carried_slot();
        b.carried_slot();
    }

    #[test]
    fn debug_lists_op_names() {
        let (g, _) = test_graph(64, true);
        let dump = format!("{g:?}");
        assert!(dump.contains("test:byte-filter"));
        assert!(dump.contains("test:even-verify"));
        assert_eq!(g.op_names(), vec!["test:byte-filter", "test:even-verify"]);
    }

    #[test]
    fn config_normalization_aligns_chunk() {
        let cfg = GraphConfig {
            chunk: 100,
            overlap: true,
        }
        .normalize();
        assert_eq!(cfg.chunk % crate::CHUNK_ALIGN, 0);
        assert!(cfg.chunk >= 100);
    }
}
