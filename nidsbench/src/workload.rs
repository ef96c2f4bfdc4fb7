//! Seeded inputs for the four workloads.
//!
//! Everything here is a pure function of `(kind, seed)`: the ruleset, the
//! flows' payloads and tuples, and the interleaved order in which the
//! flows' packets reach the pipeline. The program under test only ever
//! sees the generated packets.

use mpm_bench::Workload;
use mpm_patterns::{
    FlowTuple, PatternSet, PortSpec, Proto, Rule, RuleContent, RuleHeader, SyntheticRuleset,
};
use mpm_traffic::{TraceGenerator, TraceKind, TraceSpec};

/// The four workloads; see `README.md` for why each exists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// s1 HTTP patterns, 1460-B packets on ~8 KiB flows, pattern mode.
    HttpPatterns,
    /// The same contents as multi-content rules in port groups.
    HttpRules,
    /// 64-B packets on short flows ended by `close_flow`, flow cap on.
    SmallPackets,
    /// 24K verify-heavy patterns built on the trace's hottest 4-grams.
    VerifyHeavy,
}

impl Kind {
    /// Every workload the command runs. `verify-heavy` is not in
    /// `BENCHMARK.json`; see `README.md`.
    pub const ALL: [Kind; 4] = [
        Kind::HttpPatterns,
        Kind::HttpRules,
        Kind::SmallPackets,
        Kind::VerifyHeavy,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::HttpPatterns => "http-patterns",
            Kind::HttpRules => "http-rules",
            Kind::SmallPackets => "small-packets",
            Kind::VerifyHeavy => "verify-heavy",
        }
    }

    /// Inverse of [`Kind::name`].
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Sizes and rates of the workload at full scale.
    pub fn shape(self) -> Shape {
        match self {
            Kind::HttpPatterns => Shape {
                round_bytes: 12 << 20,
                packet_len: 1460,
                concurrent_flows: 64,
                max_flows: None,
                offered_gbps: 0.55,
            },
            Kind::HttpRules => Shape {
                round_bytes: 3 << 20,
                packet_len: 1460,
                concurrent_flows: 64,
                max_flows: None,
                // Its per-packet cost is heavy-tailed (a packet late in a
                // long flow re-confirms the whole buffered flow), so at
                // half of capacity a typical packet mostly waits behind
                // those and the median swings with the host's load.
                offered_gbps: 0.03,
            },
            Kind::SmallPackets => Shape {
                round_bytes: 1 << 20,
                packet_len: 64,
                concurrent_flows: 256,
                max_flows: Some(1024),
                offered_gbps: 0.07,
            },
            Kind::VerifyHeavy => Shape {
                round_bytes: 3 << 20,
                packet_len: 1460,
                concurrent_flows: 64,
                max_flows: None,
                offered_gbps: 0.09,
            },
        }
    }
}

/// Sizes and rates of one workload.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Payload bytes in one round (one pass over every flow).
    pub round_bytes: usize,
    /// Payload bytes per packet (the flow's last packet may be shorter).
    pub packet_len: usize,
    /// Flows open at once in the interleaved packet order.
    pub concurrent_flows: usize,
    /// Resident-flow cap handed to the pipeline.
    pub max_flows: Option<usize>,
    /// Offered load of the open-loop latency rounds: about half of the
    /// capacity measured when the benchmark was written, and about a
    /// seventh for `http-rules`.
    pub offered_gbps: f64,
}

/// What the engines are compiled from.
#[derive(Clone, Debug)]
pub enum Ruleset {
    /// Pattern mode (`ScannerBuilder::engine`).
    Patterns(PatternSet),
    /// Grouped rule mode (`ScannerBuilder::groups`), before grouping.
    Grouped(Vec<(RuleHeader, Rule)>),
}

/// One flow: its tuple and its whole payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Flow {
    /// Protocol and ports; set only where port groups select engines.
    pub tuple: Option<FlowTuple>,
    /// The flow's reassembled payload, cut into packets by [`Step`]s.
    pub payload: Vec<u8>,
}

/// One event of the interleaved packet order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// The payload bytes `start..end` of flow `flow`.
    Packet {
        /// Index into [`Inputs::flows`].
        flow: u32,
        /// First payload byte.
        start: u32,
        /// One past the last payload byte.
        end: u32,
    },
    /// The flow ended; the pipeline frees its state.
    Close(u32),
}

/// A workload's generated inputs.
#[derive(Clone, Debug)]
pub struct Inputs {
    /// Which workload.
    pub kind: Kind,
    /// Sizes and rates.
    pub shape: Shape,
    /// What the engines are compiled from.
    pub ruleset: Ruleset,
    /// Every flow of one round.
    pub flows: Vec<Flow>,
    /// The interleaved order of one round.
    pub steps: Vec<Step>,
}

impl Inputs {
    /// Generates the inputs of `kind` for `seed`. `scale` divides the
    /// round size (1 for a measured run; larger for quick tests).
    pub fn generate(kind: Kind, seed: u64, scale: usize) -> Inputs {
        let mut shape = kind.shape();
        shape.round_bytes /= scale.max(1);
        let mut rng = SplitMix(seed ^ 0x6e69_6473_6265_6e63); // "nidsbenc"
        let s1 = SyntheticRuleset::snort_like_s1().http();
        let trace = TraceGenerator::generate(
            &TraceSpec::new(TraceKind::IscxDay2, shape.round_bytes).with_seed(seed),
            Some(&s1),
        );
        let lengths = match kind {
            Kind::HttpPatterns | Kind::VerifyHeavy => {
                uniform_lengths(&mut rng, shape.round_bytes, 6 << 10, 10 << 10)
            }
            Kind::HttpRules => heavy_tailed_lengths(&mut rng, shape.round_bytes),
            Kind::SmallPackets => uniform_lengths(&mut rng, shape.round_bytes, 2 * 64, 16 * 64),
        };
        let ruleset = match kind {
            Kind::HttpPatterns | Kind::SmallPackets => Ruleset::Patterns(s1),
            Kind::HttpRules => Ruleset::Grouped(grouped_rules(&s1)),
            Kind::VerifyHeavy => {
                let base = Workload {
                    patterns: s1.clone(),
                    full_ruleset: s1,
                    traces: vec![(TraceKind::IscxDay2, trace.clone())],
                };
                Ruleset::Patterns(base.verify_heavy_variant(seed).patterns)
            }
        };
        let mut flows = Vec::with_capacity(lengths.len());
        let mut at = 0usize;
        for len in lengths {
            let tuple = (kind == Kind::HttpRules).then(|| {
                let dst = SERVICE_PORTS[rng.below(SERVICE_PORTS.len() as u64) as usize];
                FlowTuple::new(Proto::Tcp, 1024 + rng.below(60_000) as u16, dst)
            });
            flows.push(Flow {
                tuple,
                payload: trace[at..at + len].to_vec(),
            });
            at += len;
        }
        let steps = interleave(&mut rng, &flows, shape.packet_len, shape.concurrent_flows);
        Inputs {
            kind,
            shape,
            ruleset,
            flows,
            steps,
        }
    }

    /// Payload bytes in one round.
    pub fn round_bytes(&self) -> u64 {
        self.flows.iter().map(|f| f.payload.len() as u64).sum()
    }

    /// Packets in one round.
    pub fn round_packets(&self) -> u64 {
        self.steps
            .iter()
            .filter(|s| matches!(s, Step::Packet { .. }))
            .count() as u64
    }
}

/// Destination ports the rules' headers and the flows' tuples draw from.
pub const SERVICE_PORTS: [u16; 4] = [80, 8080, 8000, 3128];

/// The s1 contents as two-content Snort rules (the second content tied to
/// the first by `distance:0`), addressed to the service ports; every fifth
/// rule applies to any port.
fn grouped_rules(contents: &PatternSet) -> Vec<(RuleHeader, Rule)> {
    contents
        .patterns()
        .chunks(2)
        .enumerate()
        .map(|(i, chunk)| {
            let rule_contents = chunk
                .iter()
                .enumerate()
                .map(|(j, p)| {
                    let c = RuleContent::new(p.bytes().to_vec()).with_nocase(p.is_nocase());
                    if j == 0 {
                        c
                    } else {
                        c.with_distance(0)
                    }
                })
                .collect();
            let dst = match i % 5 {
                0 => PortSpec::any(),
                k => PortSpec::single(SERVICE_PORTS[k - 1]),
            };
            (
                RuleHeader::new(Proto::Tcp, PortSpec::any(), dst),
                Rule::new(chunk[0].group(), rule_contents),
            )
        })
        .collect()
}

/// Flow lengths drawn uniformly from `min..=max` until `total` is used up
/// (the last flow takes the remainder, at least one byte).
fn uniform_lengths(rng: &mut SplitMix, total: usize, min: usize, max: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut left = total;
    while left > 0 {
        let len = (min + rng.below((max - min + 1) as u64) as usize).min(left);
        out.push(len);
        left -= len;
    }
    out
}

/// Smallest, largest and Pareto shape of the `http-rules` flow lengths.
const RULE_FLOW_MIN: f64 = 2048.0;
const RULE_FLOW_MAX: f64 = 32768.0;
const RULE_FLOW_ALPHA: f64 = 1.3;

/// Heavy-tailed flow lengths (Pareto, capped), drawn by stratified
/// sampling: flow `i` of `n` takes a quantile inside the `i`-th of `n`
/// equal strata and the order is shuffled. Every seed therefore gets the
/// same length mix up to jitter within strata, which keeps the cost of a
/// round, dominated by the longest flows, from swinging with the seed.
fn heavy_tailed_lengths(rng: &mut SplitMix, total: usize) -> Vec<usize> {
    // Mean of the capped Pareto, to size n so the lengths sum to ~total.
    let (a, lo, hi) = (RULE_FLOW_ALPHA, RULE_FLOW_MIN, RULE_FLOW_MAX);
    let tail = (lo / hi).powf(a);
    let mean = a * lo / (a - 1.0) * (1.0 - (lo / hi).powf(a - 1.0)) + hi * tail;
    let n = ((total as f64 / mean).round() as usize).max(1);
    let mut lengths: Vec<usize> = (0..n)
        .map(|i| {
            let u = (i as f64 + rng.unit()) / n as f64;
            (lo / (1.0 - u).powf(1.0 / a)).min(hi) as usize
        })
        .collect();
    shuffle(rng, &mut lengths);
    // Fit the lengths to the trace exactly: trim the tail or pad the last.
    let mut sum = 0usize;
    let mut out = Vec::with_capacity(n);
    for len in lengths {
        if sum >= total {
            break;
        }
        let len = len.min(total - sum);
        out.push(len);
        sum += len;
    }
    if sum < total {
        *out.last_mut().expect("n >= 1") += total - sum;
    }
    out
}

/// The packet order of one round: `concurrent` flows are open at a time;
/// each step sends the next packet of a randomly chosen open flow, and a
/// flow's last packet is followed by its `Close`, after which the next
/// unopened flow takes its place.
fn interleave(
    rng: &mut SplitMix,
    flows: &[Flow],
    packet_len: usize,
    concurrent: usize,
) -> Vec<Step> {
    let mut steps = Vec::new();
    let mut open: Vec<(u32, usize)> = Vec::with_capacity(concurrent);
    let mut next = 0usize;
    while next < flows.len() && open.len() < concurrent {
        open.push((next as u32, 0));
        next += 1;
    }
    while !open.is_empty() {
        let slot = rng.below(open.len() as u64) as usize;
        let (flow, sent) = open[slot];
        let len = flows[flow as usize].payload.len();
        let end = (sent + packet_len).min(len);
        steps.push(Step::Packet {
            flow,
            start: sent as u32,
            end: end as u32,
        });
        if end < len {
            open[slot].1 = end;
            continue;
        }
        steps.push(Step::Close(flow));
        if next < flows.len() {
            open[slot] = (next as u32, 0);
            next += 1;
        } else {
            open.swap_remove(slot);
        }
    }
    steps
}

/// Fisher-Yates shuffle driven by `rng`.
pub fn shuffle<T>(rng: &mut SplitMix, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

/// SplitMix64: small, seedable, and the same on every platform.
pub struct SplitMix(pub u64);

impl SplitMix {
    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is negligible here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}
