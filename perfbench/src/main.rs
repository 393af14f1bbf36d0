//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload and prints the JSON result as its last line;
//! `perfbench --smoke` runs all workloads at a tiny budget.

use std::process::ExitCode;

use difftest_perfbench::run::{self, Options};
use difftest_perfbench::smoke;
use difftest_perfbench::workload::{spec, SPECS};

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
       perfbench --smoke [--seed <n>]";

fn main() -> ExitCode {
    // Measured runs must never trace or export through the program's own
    // environment switches.
    std::env::remove_var(difftest_stats::TRACE_ENV);
    std::env::remove_var(difftest_stats::OBS_ENV);

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut smoke_mode) = (1u64, 10.0f64, false, false);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().map(String::as_str).unwrap_or("");
        let ok = match a.as_str() {
            "--workload" => {
                workload = spec(value());
                workload.is_some()
            }
            "--seed" => value().parse().map(|v| seed = v).is_ok(),
            "--seconds" => value()
                .parse::<f64>()
                .map(|v| seconds = v)
                .is_ok_and(|()| seconds >= 0.0),
            "--trace" => match value() {
                "0" => true,
                "1" => {
                    trace = true;
                    true
                }
                _ => false,
            },
            "--smoke" => {
                smoke_mode = true;
                true
            }
            _ => false,
        };
        if !ok {
            let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
            eprintln!("perfbench: bad argument {a:?}\n{USAGE}\nworkloads: {names:?}");
            return ExitCode::from(2);
        }
    }
    if smoke_mode {
        return match smoke(seed) {
            Ok(results) => {
                for (name, attempted, failed) in &results {
                    println!("smoke {name}: {failed} of {attempted} failed");
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(spec) = workload else {
        eprintln!("perfbench: --workload is required\n{USAGE}");
        return ExitCode::from(2);
    };
    match run::run(&Options {
        spec,
        seed,
        seconds,
        trace,
        scale: 1,
    }) {
        Ok(o) => {
            println!("{}", o.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
