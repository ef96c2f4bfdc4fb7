//! S-PATCH / V-PATCH as **scan-graph assemblies**: thin [`ScanOp`] wrappers
//! around the range-kernels in [`crate::spatch`] / [`crate::vpatch`], plus
//! the assembly functions the engines call from their constructors.
//!
//! The operators own no buffers: candidate arrays live in two counted
//! [`Scratchpad`] slots (`a_short`, `a_long`), which the filter op borrows
//! into a legacy [`Scratch`] (a `mem::take` round-trip, no copy) so the
//! monomorphized kernels keep their historical signatures. The verify op
//! reads the *other* bank, which is what lets the overlapped schedule run
//! this chunk's filter while the previous chunk's candidates drain.
//!
//! `a_long` is the graph's carried slot: [`resume`] is the one scan path of
//! both engines, and a streaming caller uses it to filter each stream byte
//! once (see [`mpm_patterns::Matcher::find_resume_into`]).

use std::marker::PhantomData;
use std::sync::Arc;

use mpm_graph::{
    with_cached_scratchpad, Chunk, GraphBuilder, GraphConfig, Resume, ScanGraph, ScanOp,
    Scratchpad, SlotId, Stage,
};
use mpm_patterns::MatchEvent;
use mpm_simd::VectorBackend;

use crate::scratch::Scratch;
use crate::spatch::SPatch;
use crate::tables::SPatchTables;
use crate::vpatch::VPatch;

/// How many leading candidates of each class the prime hook walks, issuing
/// prefetches for their verification bucket rows while the *next* chunk is
/// still being filtered. Two batched-verify prefetch depths: enough to hide
/// the first bucket-header misses, cheap enough to be a no-op on candidate
/// droughts.
const PRIME_CANDIDATES: usize = 64;

/// Trailing positions of a haystack whose windows were cut short: the
/// widest filter window is 4 bytes, so the last three positions of one
/// call lacked the 2-byte (last position) or 4-byte (last three) window
/// and are filtered again when the next call supplies the bytes.
const TRUNCATED_WINDOWS: usize = 3;

/// The two candidate slots every PATCH assembly allocates.
#[derive(Clone, Copy)]
struct PatchSlots {
    a_short: SlotId,
    a_long: SlotId,
}

impl PatchSlots {
    fn reserve(&self, t: &SPatchTables, batch: usize, pad: &mut Scratchpad) {
        // Same sizing heuristic as `Scratch::reserve_for`.
        let hint = batch / 32 + 16;
        if t.has_short {
            pad.reserve_slot(self.a_short, hint);
        }
        if t.has_long {
            pad.reserve_slot(self.a_long, hint);
        }
    }

    /// Borrows the write-bank slot vectors into a legacy [`Scratch`] for the
    /// duration of `f` (so the historical kernels run unchanged), then puts
    /// them back and folds the occupancy counters into the pad.
    fn with_write_scratch(&self, pad: &mut Scratchpad, f: impl FnOnce(&mut Scratch)) -> (u64, u64) {
        let mut s = Scratch::new();
        s.a_short = pad.take_write(self.a_short);
        s.a_long = pad.take_write(self.a_long);
        f(&mut s);
        pad.put_write(self.a_short, std::mem::take(&mut s.a_short));
        pad.put_write(self.a_long, std::mem::take(&mut s.a_long));
        (s.filter3_blocks, s.useful_lanes)
    }
}

/// Filter-stage operator wrapping the vectorized V-PATCH range kernel.
struct VectorFilterOp<B: VectorBackend<W>, const W: usize> {
    tables: Arc<SPatchTables>,
    slots: PatchSlots,
    _backend: PhantomData<fn() -> B>,
}

impl<B: VectorBackend<W>, const W: usize> ScanOp for VectorFilterOp<B, W> {
    fn name(&self) -> &'static str {
        "vpatch:filter"
    }

    fn stage(&self) -> Stage {
        Stage::Filter
    }

    fn init(&self, batch: usize, pad: &mut Scratchpad) {
        self.slots.reserve(&self.tables, batch, pad);
    }

    fn execute(&self, chunk: Chunk<'_>, pad: &mut Scratchpad, _out: &mut Vec<MatchEvent>) {
        let (blocks, lanes) = self.slots.with_write_scratch(pad, |s| {
            VPatch::<B, W>::filter_range_tables(
                &self.tables,
                chunk.haystack,
                chunk.start,
                chunk.end,
                s,
            );
        });
        pad.counters.filter3_blocks += blocks;
        pad.counters.useful_lanes += lanes;
    }
}

/// Filter-stage operator wrapping the scalar S-PATCH range loop.
struct ScalarFilterOp {
    tables: Arc<SPatchTables>,
    slots: PatchSlots,
}

impl ScanOp for ScalarFilterOp {
    fn name(&self) -> &'static str {
        "spatch:filter"
    }

    fn stage(&self) -> Stage {
        Stage::Filter
    }

    fn init(&self, batch: usize, pad: &mut Scratchpad) {
        self.slots.reserve(&self.tables, batch, pad);
    }

    fn execute(&self, chunk: Chunk<'_>, pad: &mut Scratchpad, _out: &mut Vec<MatchEvent>) {
        // S-PATCH reports no vector-occupancy counters (there are no vector
        // blocks); the returned zeros keep the legacy stats contract.
        self.slots.with_write_scratch(pad, |s| {
            SPatch::filter_range_tables(&self.tables, chunk.haystack, chunk.start, chunk.end, s);
        });
    }
}

/// Verify-stage operator: drains the read bank's candidate arrays through
/// the batched verifier on backend `B` (`ScalarBackend` for S-PATCH).
struct PatchVerifyOp<B: VectorBackend<W>, const W: usize> {
    tables: Arc<SPatchTables>,
    slots: PatchSlots,
    _backend: PhantomData<fn() -> B>,
}

impl<B: VectorBackend<W>, const W: usize> ScanOp for PatchVerifyOp<B, W> {
    fn name(&self) -> &'static str {
        "patch:verify"
    }

    fn stage(&self) -> Stage {
        Stage::Verify
    }

    fn execute(&self, chunk: Chunk<'_>, pad: &mut Scratchpad, out: &mut Vec<MatchEvent>) {
        let v = self.tables.verifier();
        let short = pad.take_read(self.slots.a_short);
        let long = pad.take_read(self.slots.a_long);
        let comparisons = v.verify_short_batch::<B, W>(chunk.haystack, &short, out)
            + v.verify_long_batch::<B, W>(chunk.haystack, &long, out);
        pad.counters.comparisons += comparisons;
        pad.put_read(self.slots.a_short, short);
        pad.put_read(self.slots.a_long, long);
    }

    fn prime(&self, chunk: Chunk<'_>, pad: &Scratchpad) {
        self.tables.verifier().prefetch_batches(
            chunk.haystack,
            pad.read(self.slots.a_short),
            pad.read(self.slots.a_long),
            PRIME_CANDIDATES,
        );
    }
}

fn patch_builder() -> (GraphBuilder, PatchSlots) {
    let mut b = GraphBuilder::new();
    let slots = PatchSlots {
        a_short: b.slot(true),
        // Only long candidates are carried: a short pattern (at most three
        // bytes) starting before the last three positions fits in the
        // haystack that filtered it, so its verification was final.
        a_long: b.carried_slot(),
    };
    b.config(GraphConfig::from_env());
    (b, slots)
}

/// Assembles the V-PATCH graph: vector filter → batched verify on `B`.
pub(crate) fn build_vpatch_graph<B: VectorBackend<W>, const W: usize>(
    tables: &Arc<SPatchTables>,
) -> ScanGraph {
    let (mut b, slots) = patch_builder();
    b.op(Arc::new(VectorFilterOp::<B, W> {
        tables: tables.clone(),
        slots,
        _backend: PhantomData,
    }));
    b.op(Arc::new(PatchVerifyOp::<B, W> {
        tables: tables.clone(),
        slots,
        _backend: PhantomData,
    }));
    b.build()
}

/// Assembles the S-PATCH graph: scalar filter → batched verify on the
/// scalar backend.
pub(crate) fn build_spatch_graph(tables: &Arc<SPatchTables>) -> ScanGraph {
    use mpm_simd::ScalarBackend;
    let (mut b, slots) = patch_builder();
    b.op(Arc::new(ScalarFilterOp {
        tables: tables.clone(),
        slots,
    }));
    b.op(Arc::new(PatchVerifyOp::<ScalarBackend, 8> {
        tables: tables.clone(),
        slots,
        _backend: PhantomData,
    }));
    b.build()
}

/// The PATCH engines' one scan path, [`mpm_patterns::Matcher::find_resume_into`]:
/// filters positions `>= resumed - 3` (the earlier ones were filtered with
/// whole windows by a previous call), verifies those candidates plus the
/// carried long candidates of the previous call, and carries the long
/// candidates at `>= keep_from` into the next call. Untimed. Returns the
/// number of positions filtered.
pub(crate) fn resume(
    graph: &ScanGraph,
    haystack: &[u8],
    resumed: usize,
    carried: &mut Vec<u32>,
    keep_from: usize,
    out: &mut Vec<MatchEvent>,
) -> usize {
    let filter_from = resumed
        .saturating_sub(TRUNCATED_WINDOWS)
        .min(haystack.len());
    let resume = Resume {
        filter_from,
        carried,
        keep_from,
    };
    with_cached_scratchpad(|pad| graph.resume(haystack, resume, pad, out));
    haystack.len() - filter_from
}
