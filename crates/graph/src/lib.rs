//! Operator-style scan graph with cross-chunk software pipelining.
//!
//! The paper's engines all share one shape — a *filter* pass that turns the
//! haystack into candidate position arrays, followed by a *verify* pass that
//! confirms candidates against exact pattern tables — but until this crate
//! each engine re-implemented the chunking, statistics, and buffer-reuse
//! plumbing around that shape. Here the shape is reified (in the spirit of
//! LocustDB's `VecOperator`/`Scratchpad` design):
//!
//! * [`ScanOp`] — a composable batch operator (a filter kernel, a candidate
//!   drain, a verifier) executing over one [`Chunk`] of the haystack;
//! * [`Scratchpad`] — typed, reusable `u32` buffer slots (candidate arrays)
//!   plus match-event buffers and [`StageCounters`], double-banked so two
//!   chunks can be in flight at once;
//! * [`ScanGraph`] — an assembly of operators plus a [`GraphConfig`], with
//!   two execution schedules:
//!   * **sequential** (`overlap = false`): per chunk, run every filter op,
//!     then every verify op — the classical per-chunk pipeline;
//!   * **overlapped** (`overlap = true`): software-pipelined across chunks —
//!     the filter ops run on chunk *k* while the verify ops drain chunk
//!     *k − 1*'s candidates from the other scratchpad bank, with a
//!     [`ScanOp::prime`] prefetch hook issued before the filter so the
//!     verifier's leading table loads are in flight during the
//!     compute-bound filter.
//!
//! Both schedules produce **byte-identical output** (same events, same
//! order): filter-stage operators emit their matches into the scratchpad's
//! banked event buffer rather than straight into the output, and the
//! executor drains that buffer immediately before the corresponding verify
//! pass in both modes.
//!
//! An execution is untimed unless it is [`ScanGraph::run_timed`], and
//! [`ScanGraph::resume`] continues an earlier execution on the same stream:
//! it filters from a given position and carries one slot's entries from
//! call to call (see [`Resume`]).
//!
//! The engine crates (`mpm-vpatch`, `mpm-dfc`, `mpm-wu-manber`) assemble
//! their scan paths from these pieces; see DEVELOPMENT.md § "Scan graph"
//! for the operator contract and the add-an-engine recipe.

#![warn(missing_docs)]

mod exec;
mod scratchpad;

pub use exec::{GraphBuilder, Resume, ScanGraph};
pub use scratchpad::{with_cached_scratchpad, Scratchpad, SlotId, SlotSpec, StageCounters};

use mpm_patterns::MatchEvent;

/// Default executor chunk: 64 KiB. A multiple of every backend's double-block
/// stride (2 × 16 lanes), so the vector filter kernels tile chunk interiors
/// exactly as they tile a whole haystack — the property the scan-graph
/// differential suite relies on for counter parity with the legacy paths.
pub const DEFAULT_CHUNK: usize = 1 << 16;

/// Chunk sizes must stay a multiple of this (the widest backend's unrolled
/// stride, 2 × 16 lanes) so vector block boundaries never move relative to
/// the monolithic scan.
pub const CHUNK_ALIGN: usize = 32;

/// Which executor stage an operator belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Producers: scan a haystack range, append candidate positions to
    /// write-bank slots (and any direct matches to the banked event buffer).
    Filter,
    /// Consumers: drain read-bank candidate slots through the exact
    /// verifiers, appending confirmed matches to the output.
    Verify,
}

/// One haystack range handed to the operators. The full haystack is always
/// visible — windows and verifications may read past `end` (across the chunk
/// seam) — but a filter op only *originates* candidates at positions in
/// `start..end`.
#[derive(Clone, Copy, Debug)]
pub struct Chunk<'a> {
    /// The complete input being scanned.
    pub haystack: &'a [u8],
    /// First position this chunk owns.
    pub start: usize,
    /// One past the last position this chunk owns.
    pub end: usize,
    /// True for the final chunk: tail positions (e.g. the last byte's
    /// short-pattern candidate) belong to whichever op handles them.
    pub is_last: bool,
}

impl Chunk<'_> {
    /// Number of positions the chunk owns.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the chunk owns no positions.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Execution parameters of a [`ScanGraph`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GraphConfig {
    /// Bytes per executor chunk (rounded up to [`CHUNK_ALIGN`]).
    pub chunk: usize,
    /// Software-pipeline across chunks: filter chunk *k* while verifying
    /// chunk *k − 1* from the other scratchpad bank.
    pub overlap: bool,
}

impl Default for GraphConfig {
    fn default() -> Self {
        GraphConfig {
            chunk: DEFAULT_CHUNK,
            overlap: true,
        }
    }
}

impl GraphConfig {
    /// The default configuration with environment overrides applied:
    /// `MPM_GRAPH_OVERLAP=0|off|false` disables cross-chunk pipelining and
    /// `MPM_GRAPH_CHUNK=<bytes>` resizes the executor chunk — the same
    /// zero-code A/B switch style as `MPM_FORCE_BACKEND`. Engines read this
    /// once at build time.
    pub fn from_env() -> Self {
        let mut cfg = GraphConfig::default();
        if let Ok(v) = std::env::var("MPM_GRAPH_OVERLAP") {
            cfg.overlap = !matches!(
                v.to_ascii_lowercase().as_str(),
                "0" | "off" | "false" | "no"
            );
        }
        if let Ok(v) = std::env::var("MPM_GRAPH_CHUNK") {
            if let Ok(bytes) = v.parse::<usize>() {
                cfg.chunk = bytes;
            }
        }
        cfg.normalize()
    }

    /// Clamps the chunk size to a sane, aligned value (at least one aligned
    /// stride, rounded up to [`CHUNK_ALIGN`]).
    pub fn normalize(mut self) -> Self {
        self.chunk = self.chunk.max(CHUNK_ALIGN).next_multiple_of(CHUNK_ALIGN);
        self
    }
}

/// A composable batch operator over one scratchpad.
///
/// Contract (see DEVELOPMENT.md § "Scan graph" for the long form):
///
/// * [`ScanOp::init`] runs once per scan before the first chunk; reserve
///   slot capacity here (both banks — the executor double-buffers).
/// * [`ScanOp::execute`] for a [`Stage::Filter`] op reads
///   `chunk.haystack[chunk.start..chunk.end]` (windows may peek past `end`),
///   appends candidate positions to *write-bank* slots and any directly
///   confirmed matches to [`Scratchpad::events_mut`] — never to `out`.
/// * [`ScanOp::execute`] for a [`Stage::Verify`] op drains *read-bank*
///   slots and appends confirmed matches to `out`.
/// * [`ScanOp::prime`] (verify ops only) issues best-effort prefetches for
///   the chunk it is *about* to verify; it must not mutate anything. The
///   overlapped schedule calls it before running the filter ops on the next
///   chunk so the verifier's first table rows arrive during filtering.
pub trait ScanOp: Send + Sync {
    /// Operator name for debugging / graph dumps.
    fn name(&self) -> &'static str;

    /// The executor stage this operator runs in.
    fn stage(&self) -> Stage;

    /// Once-per-scan capacity setup; `batch` is the executor chunk size.
    fn init(&self, batch: usize, pad: &mut Scratchpad) {
        let _ = (batch, pad);
    }

    /// Executes the operator over one chunk. See the trait docs for the
    /// per-stage slot/output contract.
    fn execute(&self, chunk: Chunk<'_>, pad: &mut Scratchpad, out: &mut Vec<MatchEvent>);

    /// Best-effort prefetch for the chunk this (verify) op will drain next.
    fn prime(&self, chunk: Chunk<'_>, pad: &Scratchpad) {
        let _ = (chunk, pad);
    }
}
