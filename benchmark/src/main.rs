//! The repository benchmark: one command runs a named workload with a
//! seed for a number of seconds, checks every frame it produced, and
//! prints one JSON result line.
//!
//! ```text
//! pvc_benchmark --workload headset_fixation --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, measured untraced.
//! `--trace 1` runs the workload untraced and then traced, and prints the
//! per-layer metrics (see [`report::PER_LAYER`]). The last line of
//! standard output is
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`;
//! the line before it records the workload parameters.
//!
//! Two options exist for the benchmark's own tests and tooling:
//! `--corrupt N` flips one bit of frame N's payload between encoder and
//! decoder (the checks must then count failures), and `--spans-out PATH`
//! writes the traced headset spans as JSON lines.

mod fleet;
mod headset;
mod report;
mod spans;

use std::path::PathBuf;
use std::process::ExitCode;

/// The workloads, by the names `BENCHMARK.json` gives them.
const WORKLOADS: [&str; 3] = [
    "headset_fixation",
    "headset_pursuit_temporal",
    "fleet_mixed",
];

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub corrupt: Option<u64>,
    pub spans_out: Option<PathBuf>,
}

const USAGE: &str =
    "usage: pvc_benchmark --workload <headset_fixation|headset_pursuit_temporal|fleet_mixed> \
                     --seed N --seconds S --trace 0|1 [--corrupt FRAME] [--spans-out PATH]";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut corrupt, mut spans_out) = (None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |what: &str| {
            value
                .parse::<u64>()
                .map_err(|_| format!("{what} must be a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number("--seed")?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("--seconds must be a number, got {value:?}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            "--corrupt" => corrupt = Some(number("--corrupt")?),
            "--spans-out" => spans_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        corrupt,
        spans_out,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (params, outcome) = match args.workload.as_str() {
        "headset_fixation" => (
            headset::Kind::Fixation.params(),
            headset::run(headset::Kind::Fixation, &args),
        ),
        "headset_pursuit_temporal" => (
            headset::Kind::PursuitTemporal.params(),
            headset::run(headset::Kind::PursuitTemporal, &args),
        ),
        _ => (fleet::params(), fleet::run(&args)),
    };
    let schema = if args.trace {
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    if !args.trace {
        let missing = outcome.missing(report::END_TO_END);
        assert!(
            missing.is_empty(),
            "end-to-end metrics not set: {missing:?}"
        );
    }
    println!(
        "params {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"workload_params\": {params}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("{}", outcome.to_json(schema));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let parsed = args("--workload fleet_mixed --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(parsed.workload, "fleet_mixed");
        assert_eq!(parsed.seed, 7);
        assert_eq!(parsed.seconds, 10.0);
        assert!(parsed.trace);
        assert_eq!(parsed.corrupt, None);
    }

    #[test]
    fn rejects_unknown_workloads_and_flags() {
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload fleet_mixed --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload fleet_mixed --seed 1 --seconds 1 --trace 0 --x 1").is_err());
        assert!(args("--workload fleet_mixed --seed 1 --trace 0").is_err());
    }

    /// The `"name"` values of one array of `BENCHMARK.json`, in order.
    fn benchmark_json_names(key: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let start = text
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("{key} in BENCHMARK.json"));
        let body = &text[start..];
        let body = &body[..body.find(']').expect("array end")];
        let field = |entry: &str, name: &str| {
            let at = entry.find(&format!("\"{name}\"")).map(|i| &entry[i..])?;
            let value = &at[at.find(':')? + 1..];
            let value = &value[value.find('"')? + 1..];
            Some(value[..value.find('"')?].to_string())
        };
        body.split('{')
            .skip(1)
            .map(|entry| {
                (
                    field(entry, "name").expect("name"),
                    field(entry, "unit").unwrap_or_default(),
                )
            })
            .collect()
    }

    fn schema(metrics: &[(&str, &str)]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn printed_metric_names_match_benchmark_json() {
        assert_eq!(
            benchmark_json_names("end_to_end"),
            schema(report::END_TO_END)
        );
        assert_eq!(benchmark_json_names("per_layer"), schema(report::PER_LAYER));
    }

    #[test]
    fn benchmark_json_lists_every_workload() {
        let names: Vec<String> = benchmark_json_names("workloads")
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        assert_eq!(names, WORKLOADS);
    }
}
