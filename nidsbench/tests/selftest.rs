//! The benchmark's own checks: seeded generators, the oracle on a tiny run
//! of every workload, and the exact work counters.

use nidsbench::layers::{replay, LayerFigures};
use nidsbench::run::{run_end_to_end, run_traced, RunConfig};
use nidsbench::workload::{Inputs, Kind, Ruleset};

/// Divides round sizes and the oracle budget for quick runs.
const TINY: usize = 32;

fn ruleset_len(ruleset: &Ruleset) -> usize {
    match ruleset {
        Ruleset::Patterns(set) => set.len(),
        Ruleset::Grouped(rules) => rules.len(),
    }
}

#[test]
fn generators_repeat_for_a_seed_and_differ_across_seeds() {
    for kind in Kind::ALL {
        let a = Inputs::generate(kind, 7, TINY);
        let b = Inputs::generate(kind, 7, TINY);
        let c = Inputs::generate(kind, 8, TINY);
        assert_eq!(a.flows, b.flows, "{}", kind.name());
        assert_eq!(a.steps, b.steps, "{}", kind.name());
        assert_eq!(ruleset_len(&a.ruleset), ruleset_len(&b.ruleset));
        assert_ne!(
            a.flows,
            c.flows,
            "{}: seed must change the flows",
            kind.name()
        );
        assert_ne!(
            a.steps,
            c.steps,
            "{}: seed must change the order",
            kind.name()
        );
        assert_eq!(
            a.round_bytes(),
            kind.shape().round_bytes as u64 / TINY as u64
        );
    }
}

#[test]
fn every_packet_of_every_flow_is_sent_once_then_closed() {
    use nidsbench::workload::Step;
    for kind in Kind::ALL {
        let inputs = Inputs::generate(kind, 3, TINY);
        let mut sent = vec![0u32; inputs.flows.len()];
        let mut closed = vec![false; inputs.flows.len()];
        for step in &inputs.steps {
            match *step {
                Step::Packet { flow, start, end } => {
                    let f = flow as usize;
                    assert!(!closed[f]);
                    assert_eq!(start, sent[f], "{}: packets in order", kind.name());
                    assert!(end > start);
                    assert!((end - start) as usize <= inputs.shape.packet_len);
                    sent[f] = end;
                }
                Step::Close(flow) => closed[flow as usize] = true,
            }
        }
        for (f, flow) in inputs.flows.iter().enumerate() {
            assert_eq!(sent[f] as usize, flow.payload.len());
            assert!(closed[f]);
        }
    }
}

#[test]
fn tiny_runs_of_every_workload_pass_the_oracle() {
    for kind in Kind::ALL {
        let config = RunConfig {
            kind,
            seed: 11,
            seconds: 0.05,
            scale: TINY,
        };
        let report = run_end_to_end(config);
        assert!(report.correct, "{}: {report:?}", kind.name());
        assert_eq!(report.failed, 0);
        assert!(report.oracle_flows >= 1);
        assert_eq!(report.metrics.len(), 6);
        for m in &report.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{}: {m:?}",
                kind.name()
            );
        }
        let traced = run_traced(config);
        assert!(traced.correct, "{} traced: {traced:?}", kind.name());
    }
}

#[test]
fn engine_work_counters_repeat_exactly() {
    for kind in Kind::ALL {
        let inputs = Inputs::generate(kind, 5, TINY);
        let first = replay(&inputs);
        let second = replay(&Inputs::generate(kind, 5, TINY));
        let counts = |f: &LayerFigures| (f.engine_calls_per_packet, f.engine_bytes_per_byte);
        assert_eq!(counts(&first), counts(&second), "{}", kind.name());
        // At least one call per packet, and every payload byte scanned.
        assert!(first.engine_calls_per_packet >= 1.0, "{}", kind.name());
        assert!(first.engine_bytes_per_byte >= 1.0, "{}", kind.name());
    }
}
