//! Set-up: compile the ruleset into engines (plus the confirmer and port
//! groups in rule mode), then build the pipeline.

use crate::workload::{Inputs, Ruleset};
use mpm_patterns::{GroupedRuleSet, PatternSet};
use mpm_stream::{GroupedEngineSet, PipelineScanner, ScannerBuilder, SharedMatcher};
use std::cell::Cell;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A compile product the pipeline runs.
pub enum Compiled {
    /// One engine over a pattern set.
    Patterns {
        /// The pattern set.
        set: PatternSet,
        /// The engine compiled for it.
        engine: SharedMatcher,
    },
    /// Port-grouped engines plus the shared rule confirmer.
    Grouped(Arc<GroupedEngineSet>),
}

impl Compiled {
    /// Bytes of the compile product: the engines' `memory_footprint`,
    /// which for grouped mode already counts the confirmer's heap bytes
    /// and the shared arena once.
    pub fn bytes(&self) -> usize {
        match self {
            Compiled::Patterns { engine, .. } => engine.memory_footprint().total(),
            Compiled::Grouped(set) => set.memory_footprint().total(),
        }
    }
}

/// Where set-up time went, seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// `GroupedRuleSet::new` (rule mode only).
    pub group_s: f64,
    /// Engine compilation, summed over every engine built.
    pub build_s: f64,
    /// `ScannerBuilder::build`: spawning the pipeline.
    pub spawn_s: f64,
    /// Compilation (grouping, engines, confirmer) plus spawning.
    pub total_s: f64,
}

/// Compiles `ruleset`, passing every engine built through `wrap` (the
/// identity for untraced runs). Copying the benchmark's own input is not
/// timed.
pub fn compile(
    ruleset: &Ruleset,
    wrap: &dyn Fn(SharedMatcher) -> SharedMatcher,
    times: &mut SetupTimes,
) -> Compiled {
    match ruleset {
        Ruleset::Patterns(set) => {
            let start = Instant::now();
            let engine: SharedMatcher = Arc::from(mpm_vpatch::build_auto(set));
            let took = start.elapsed().as_secs_f64();
            times.build_s += took;
            times.total_s += took;
            Compiled::Patterns {
                set: set.clone(),
                engine: wrap(engine),
            }
        }
        Ruleset::Grouped(rules) => {
            let rules = rules.clone();
            let start = Instant::now();
            let grouped = GroupedRuleSet::new(rules);
            times.group_s += start.elapsed().as_secs_f64();
            let building = Cell::new(Duration::ZERO);
            let engines = GroupedEngineSet::build_with(grouped, |set, arena| {
                let start = Instant::now();
                let engine: SharedMatcher =
                    Arc::from(mpm_vpatch::build_auto_with_arena(set, arena));
                building.set(building.get() + start.elapsed());
                wrap(engine)
            });
            times.build_s += building.get().as_secs_f64();
            times.total_s += start.elapsed().as_secs_f64();
            Compiled::Grouped(Arc::new(engines))
        }
    }
}

/// Builds the pipeline the way the workload deploys it: one worker,
/// `Block` backpressure, and the workload's flow cap.
pub fn spawn(compiled: &Compiled, inputs: &Inputs, times: &mut SetupTimes) -> PipelineScanner {
    let start = Instant::now();
    let builder = match compiled {
        Compiled::Patterns { set, engine } => ScannerBuilder::new().engine(engine.clone(), set),
        Compiled::Grouped(engines) => ScannerBuilder::new().groups(engines.clone()),
    };
    let builder = match inputs.shape.max_flows {
        Some(cap) => builder.max_flows(cap),
        None => builder,
    };
    let pipeline = builder
        .workers(1)
        .build()
        .expect("the benchmark's pipeline configuration is valid");
    let took = start.elapsed().as_secs_f64();
    times.spawn_s += took;
    times.total_s += took;
    pipeline
}

/// One full set-up: compile, then spawn.
pub fn setup(
    inputs: &Inputs,
    wrap: &dyn Fn(SharedMatcher) -> SharedMatcher,
) -> (Compiled, PipelineScanner, SetupTimes) {
    let mut times = SetupTimes::default();
    let compiled = compile(&inputs.ruleset, wrap, &mut times);
    let pipeline = spawn(&compiled, inputs, &mut times);
    (compiled, pipeline, times)
}

/// The identity wrap of untraced runs.
pub fn untraced(engine: SharedMatcher) -> SharedMatcher {
    engine
}
