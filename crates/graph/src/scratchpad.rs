//! The banked scratchpad: typed reusable buffer slots shared by the
//! operators of one [`ScanGraph`](crate::ScanGraph) execution.

use std::cell::RefCell;

use mpm_patterns::MatchEvent;

/// Handle to one scratchpad slot, allocated by
/// [`GraphBuilder::slot`](crate::GraphBuilder::slot). The id is an index
/// into the graph's slot table; ops capture their slot ids at assembly time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlotId(pub(crate) usize);

/// Static description of one slot, recorded by the graph builder.
#[derive(Clone, Copy, Debug)]
pub struct SlotSpec {
    /// Counted slots hold *candidate positions*: after each filter pass the
    /// executor adds their write-bank lengths to
    /// [`StageCounters::candidates`]. Auxiliary slots (per-candidate side
    /// values, verify-stage scratch) are uncounted.
    pub counted: bool,
    /// The graph's carried slot (see
    /// [`GraphBuilder::carried_slot`](crate::GraphBuilder::carried_slot)).
    pub carried: bool,
}

/// Counters accumulated over one graph execution, mirroring the fields the
/// engines' legacy `scan_with_stats` paths report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageCounters {
    /// Candidate positions produced by the filter stage (write-bank lengths
    /// of counted slots, summed per chunk).
    pub candidates: u64,
    /// Pattern comparisons performed by the verify stage.
    pub comparisons: u64,
    /// Vector blocks in which the third filter was evaluated (V-PATCH).
    pub filter3_blocks: u64,
    /// Genuinely active lanes over all third-filter evaluations (V-PATCH).
    pub useful_lanes: u64,
    /// Nanoseconds spent in the filter stage; zero unless the execution
    /// was [`ScanGraph::run_timed`](crate::ScanGraph::run_timed).
    pub filter_nanos: u64,
    /// Nanoseconds spent in the verify stage (including priming); zero
    /// unless the execution was timed.
    pub verify_nanos: u64,
}

/// One slot's two banks. `u32` is the one candidate currency every engine
/// speaks (positions, packed side values), so slots are monomorphic.
#[derive(Debug, Default)]
struct SlotPair {
    banks: [Vec<u32>; 2],
    counted: bool,
}

/// Typed, reusable buffers for one graph execution: `u32` slots and match
/// event buffers, each double-banked so the overlapped schedule can fill
/// bank *k* % 2 while draining bank (*k* − 1) % 2.
///
/// Ops address the banks through the executor-maintained cursors: filter
/// ops see the *write* bank ([`Scratchpad::write`], [`Scratchpad::events_mut`]),
/// verify ops see the *read* bank ([`Scratchpad::read`],
/// [`Scratchpad::take_read`]). The `take_*`/`put_*` pairs move a slot's
/// vector out by `mem::take` so an op can hold several slots (or feed them
/// to a legacy kernel signature) without fighting the borrow checker —
/// always put a taken vector back, even when empty.
#[derive(Debug, Default)]
pub struct Scratchpad {
    slots: Vec<SlotPair>,
    events: [Vec<MatchEvent>; 2],
    /// Stage counters for the current execution; ops add to `comparisons`
    /// and the V-PATCH occupancy fields, the executor owns the rest.
    pub counters: StageCounters,
    write_bank: usize,
    read_bank: usize,
}

impl Scratchpad {
    /// Creates an empty scratchpad; the executor sizes it to a graph's slot
    /// table via [`Scratchpad::configure`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Adapts this scratchpad to a graph's slot layout, keeping whatever
    /// buffer capacity is already allocated (the thread-cached pad serves
    /// many graphs).
    pub fn configure(&mut self, specs: &[SlotSpec]) {
        self.slots.truncate(specs.len());
        while self.slots.len() < specs.len() {
            self.slots.push(SlotPair::default());
        }
        for (slot, spec) in self.slots.iter_mut().zip(specs) {
            slot.counted = spec.counted;
        }
    }

    /// Full reset at the start of an execution: clears every bank, every
    /// event buffer and the counters (capacity kept).
    pub fn reset(&mut self) {
        for slot in &mut self.slots {
            slot.banks[0].clear();
            slot.banks[1].clear();
        }
        self.events[0].clear();
        self.events[1].clear();
        self.counters = StageCounters::default();
        self.write_bank = 0;
        self.read_bank = 0;
    }

    /// Points the write cursor at `bank` and clears that bank's slots and
    /// event buffer for the incoming chunk.
    pub(crate) fn begin_write_bank(&mut self, bank: usize) {
        self.write_bank = bank;
        for slot in &mut self.slots {
            slot.banks[bank].clear();
        }
        self.events[bank].clear();
    }

    /// Points the read cursor at `bank` (the bank some earlier chunk's
    /// filter pass filled).
    pub(crate) fn set_read_bank(&mut self, bank: usize) {
        self.read_bank = bank;
    }

    /// Sums the write bank's counted-slot lengths into
    /// [`StageCounters::candidates`]; the executor calls this after each
    /// filter pass.
    pub(crate) fn accumulate_candidates(&mut self) {
        let bank = self.write_bank;
        self.counters.candidates += self
            .slots
            .iter()
            .filter(|s| s.counted)
            .map(|s| s.banks[bank].len() as u64)
            .sum::<u64>();
    }

    /// Appends the read bank's buffered filter-stage events to `out` (in
    /// emission order) and clears the buffer.
    pub(crate) fn drain_read_events(&mut self, out: &mut Vec<MatchEvent>) {
        out.append(&mut self.events[self.read_bank]);
    }

    /// Reserves capacity for `slot` in **both** banks (the executor
    /// double-buffers); for use from [`ScanOp::init`](crate::ScanOp::init).
    pub fn reserve_slot(&mut self, slot: SlotId, capacity: usize) {
        for bank in &mut self.slots[slot.0].banks {
            if bank.capacity() < capacity {
                let grow = capacity - bank.len();
                bank.reserve(grow);
            }
        }
    }

    /// The write-bank vector of `slot` (filter ops append candidates here).
    pub fn write(&mut self, slot: SlotId) -> &mut Vec<u32> {
        &mut self.slots[slot.0].banks[self.write_bank]
    }

    /// The read-bank contents of `slot` (what the verify stage drains).
    pub fn read(&self, slot: SlotId) -> &[u32] {
        &self.slots[slot.0].banks[self.read_bank]
    }

    /// Moves the write-bank vector of `slot` out (leaving an empty vector);
    /// pair with [`Scratchpad::put_write`].
    pub fn take_write(&mut self, slot: SlotId) -> Vec<u32> {
        std::mem::take(&mut self.slots[slot.0].banks[self.write_bank])
    }

    /// Returns a vector taken by [`Scratchpad::take_write`].
    pub fn put_write(&mut self, slot: SlotId, v: Vec<u32>) {
        self.slots[slot.0].banks[self.write_bank] = v;
    }

    /// Moves the read-bank vector of `slot` out (leaving an empty vector);
    /// pair with [`Scratchpad::put_read`].
    pub fn take_read(&mut self, slot: SlotId) -> Vec<u32> {
        std::mem::take(&mut self.slots[slot.0].banks[self.read_bank])
    }

    /// Returns a vector taken by [`Scratchpad::take_read`].
    pub fn put_read(&mut self, slot: SlotId, v: Vec<u32>) {
        self.slots[slot.0].banks[self.read_bank] = v;
    }

    /// The write-bank event buffer: filter-stage ops append their directly
    /// confirmed matches here (never straight to the output), so the
    /// executor can interleave them with verify-stage output in the same
    /// order under both schedules.
    pub fn events_mut(&mut self) -> &mut Vec<MatchEvent> {
        &mut self.events[self.write_bank]
    }
    /// Trims any buffer whose capacity outgrew `limit` entries, releasing
    /// the excess to the allocator (the thread-cache bound).
    fn shrink_to(&mut self, limit: usize) {
        for slot in &mut self.slots {
            for bank in &mut slot.banks {
                if bank.capacity() > limit {
                    bank.shrink_to(limit);
                }
            }
        }
        for events in &mut self.events {
            if events.capacity() > limit {
                events.shrink_to(limit);
            }
        }
    }
}

thread_local! {
    /// Per-thread scratchpad reused by the engines' graph-routed `find_into`
    /// / `scan_with_stats` entry points (same pattern as the legacy
    /// `with_cached_scratch`).
    static CACHED_PAD: RefCell<Scratchpad> = RefCell::new(Scratchpad::new());
}

/// Upper bound on the entries each cached buffer keeps between calls
/// (1 MiB of `u32`s per bank); anything above is released when the cached
/// pad is handed back, so the idle footprint stays bounded.
const MAX_CACHED_CAPACITY: usize = 1 << 18;

/// Runs `f` with this thread's cached [`Scratchpad`], falling back to a
/// transient pad in the re-entrant case. The pad is handed over un-reset
/// (the executor resets it); oversized capacity is trimmed on release.
pub fn with_cached_scratchpad<R>(f: impl FnOnce(&mut Scratchpad) -> R) -> R {
    CACHED_PAD.with(|cell| match cell.try_borrow_mut() {
        Ok(mut pad) => {
            let result = f(&mut pad);
            pad.shrink_to(MAX_CACHED_CAPACITY);
            result
        }
        Err(_) => f(&mut Scratchpad::new()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_slot_pad() -> Scratchpad {
        let mut pad = Scratchpad::new();
        pad.configure(&[
            SlotSpec {
                counted: true,
                carried: false,
            },
            SlotSpec {
                counted: false,
                carried: false,
            },
        ]);
        pad
    }

    #[test]
    fn banks_are_independent() {
        let mut pad = two_slot_pad();
        let slot = SlotId(0);
        pad.begin_write_bank(0);
        pad.write(slot).extend_from_slice(&[1, 2, 3]);
        pad.begin_write_bank(1);
        pad.write(slot).push(9);
        pad.set_read_bank(0);
        assert_eq!(pad.read(slot), &[1, 2, 3]);
        pad.set_read_bank(1);
        assert_eq!(pad.read(slot), &[9]);
    }

    #[test]
    fn only_counted_slots_feed_the_candidate_counter() {
        let mut pad = two_slot_pad();
        pad.begin_write_bank(0);
        pad.write(SlotId(0)).extend_from_slice(&[1, 2, 3]);
        pad.write(SlotId(1)).extend_from_slice(&[7, 7]);
        pad.accumulate_candidates();
        assert_eq!(pad.counters.candidates, 3);
    }

    #[test]
    fn take_put_round_trips() {
        let mut pad = two_slot_pad();
        pad.begin_write_bank(0);
        pad.write(SlotId(0)).push(5);
        let v = pad.take_write(SlotId(0));
        assert_eq!(v, vec![5]);
        assert!(pad.write(SlotId(0)).is_empty());
        pad.put_write(SlotId(0), v);
        assert_eq!(pad.write(SlotId(0)).as_slice(), &[5]);
    }

    #[test]
    fn reconfigure_keeps_capacity() {
        let mut pad = two_slot_pad();
        pad.reserve_slot(SlotId(0), 1024);
        let cap = pad.slots[0].banks[0].capacity();
        pad.configure(&[SlotSpec {
            counted: false,
            carried: false,
        }]);
        assert_eq!(pad.slots.len(), 1);
        assert!(pad.slots[0].banks[0].capacity() >= cap);
        assert!(!pad.slots[0].counted);
    }

    #[test]
    fn cached_pad_footprint_is_bounded() {
        with_cached_scratchpad(|pad| {
            pad.configure(&[SlotSpec {
                counted: true,
                carried: false,
            }]);
            pad.reserve_slot(SlotId(0), MAX_CACHED_CAPACITY * 4);
        });
        with_cached_scratchpad(|pad| {
            assert!(pad.slots[0].banks[0].capacity() <= MAX_CACHED_CAPACITY);
            // Re-entrancy falls back to a transient pad instead of panicking.
            let nested_empty = with_cached_scratchpad(|inner| inner.slots.is_empty());
            assert!(nested_empty);
        });
    }
}
