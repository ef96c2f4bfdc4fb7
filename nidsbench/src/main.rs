//! `nidsbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the host facts and every metric by name and unit, then, as the
//! last line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Exits 1 when an alert differs from the oracle or a packet
//! failed, and 2 on bad arguments.

use nidsbench::run::{run_end_to_end, run_traced, Report, RunConfig};
use nidsbench::workload::Kind;
use std::process::ExitCode;

const USAGE: &str = "usage: nidsbench --workload <http-patterns|http-rules|small-packets|verify-heavy> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            // Non-finite values are not JSON; none is expected, but a
            // broken run must still print a parseable line.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let config = RunConfig {
        kind: args.kind,
        seed: args.seed,
        seconds: args.seconds,
        scale: 1,
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "host: nproc {nproc}, backend {}, workload {}, seed {}, {}",
        mpm_simd::detect_best(),
        args.kind.name(),
        args.seed,
        if args.trace { "traced" } else { "untraced" }
    );
    let report = if args.trace {
        run_traced(config)
    } else {
        run_end_to_end(config)
    };
    for m in &report.metrics {
        println!("{:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "oracle: {} sampled flows per round; attempted {} packets, failed {}",
        report.oracle_flows, report.attempted, report.failed
    );
    println!("{}", json(&report));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
