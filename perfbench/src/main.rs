//! `benchmark` — the regression yardstick for Strudel's three paths:
//! a visitor's *click*, an editor's *delta*, a builder's *build*.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, one JSON line
//! benchmark run   [--seed n] [--seconds s] [--smoke] [--out FILE]      every workload, untraced
//! benchmark trace [--seed n] [--seconds s] [--smoke] [--out FILE]      every workload, traced
//! benchmark compare A B                                                two result files
//! benchmark spread FILE...                                             IQR/median over result files
//! benchmark spec                                                       print BENCHMARK.json
//! ```
//!
//! The harness drives the product only through its public functions and
//! loopback sockets; see README.md beside this package for the metric
//! and workload glossary.

mod clicks;
mod compare;
mod deltas;
mod host;
mod http;
mod inputs;
mod json;
mod ladder;
mod mix;
mod pins;
mod procfs;
mod report;
mod run;
mod sitedir;
mod spans;
mod spec;
mod stats;
mod workloads;

use std::process::ExitCode;

/// Parsed command-line flags (`--name value` pairs and bare words).
struct Args {
    words: Vec<String>,
    flags: Vec<(String, String)>,
    smoke: bool,
}

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            words: Vec::new(),
            flags: Vec::new(),
            smoke: false,
        };
        let mut raw = raw.peekable();
        while let Some(a) = raw.next() {
            if a == "--smoke" {
                args.smoke = true;
            } else if let Some(name) = a.strip_prefix("--") {
                let value = raw.next().ok_or(format!("--{name} needs a value"))?;
                args.flags.push((name.to_owned(), value));
            } else {
                args.words.push(a);
            }
        }
        Ok(args)
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flag(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: `{v}` is not a number")),
        }
    }
}

const USAGE: &str =
    "usage: benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
       benchmark run|trace [--seed n] [--seconds s] [--smoke] [--out FILE]
       benchmark compare A B
       benchmark spread FILE...
       benchmark spec";

fn real_main() -> Result<ExitCode, String> {
    let args = Args::parse(std::env::args().skip(1))?;
    let seed: u64 = args.number("seed", inputs::DEFAULT_SEED)?;
    let default_seconds = if args.smoke {
        1.0
    } else {
        spec::RUN_SECONDS as f64
    };
    let seconds: f64 = args.number("seconds", default_seconds)?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    if let Some(workload) = args.flag("workload") {
        let traced = match args.flag("trace") {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace takes 0 or 1, not `{other}`")),
        };
        return report::single_run(workload, seed, seconds, args.smoke, traced);
    }
    match args.words.first().map(String::as_str) {
        Some(verb @ ("run" | "trace")) => {
            report::all_workloads(verb == "trace", seed, seconds, args.smoke, args.flag("out"))
        }
        Some("compare") => match &args.words[1..] {
            [a, b] => compare::compare_files(a, b),
            _ => Err("compare takes exactly two result files".into()),
        },
        Some("spread") if args.words.len() > 1 => compare::spread_files(&args.words[1..]),
        Some("spec") => {
            println!("{}", spec::benchmark_json().to_pretty());
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
