//! The `e2e` command. See `README.md` (or run without arguments) for usage.

use e2e::config::Workload;
use e2e::metrics::{self, END_TO_END, PER_LAYER};
use e2e::run::{run, RunArgs};
use e2e::{probes, record};
use serde::Value;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage:
  e2e --workload <name> --seed <n> --seconds <s> --trace <0|1> [--record <file>]
      run one workload; the last line of standard output is the result as JSON
      (--trace 0: end-to-end metrics; --trace 1: per-layer metrics, and the spans
      go to <target>/e2e/trace-<workload>.json)
  e2e --probes
      run only the *_probe_ns loops, about one second each
  e2e --compare <base.json> <new.json>
      compare two files written with --record
workloads: seq_write rand_overwrite_aged seq_write_file oltp_mix";

/// Exit code of a run whose correctness gate failed.
const EXIT_INCORRECT: u8 = 1;
/// Exit code of a usage error or a run the harness could not complete.
const EXIT_ERROR: u8 = 2;

/// Time per probe loop inside a traced run (`--probes` spends a second).
const TRACED_PROBE_BUDGET: Duration = Duration::from_millis(100);

fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("e2e")
}

fn print_metrics(table: &[(&'static str, &'static str)], values: &metrics::Values) {
    for (name, unit) in table {
        println!("{name:<44} {:>18.6} {unit}", values[name]);
    }
}

fn parse<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
    let value = value.ok_or_else(|| format!("{flag} needs a value"))?;
    value
        .parse()
        .map_err(|_| format!("{flag}: cannot read `{value}`"))
}

fn main_inner() -> Result<ExitCode, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut record_path: Option<PathBuf> = None;
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--workload" => {
                let name: String = parse(&flag, argv.next())?;
                workload = Some(
                    Workload::from_name(&name)
                        .ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => seed = Some(parse::<u64>(&flag, argv.next())?),
            "--seconds" => seconds = Some(parse::<f64>(&flag, argv.next())?),
            "--trace" => trace = Some(parse::<u8>(&flag, argv.next())? != 0),
            "--record" => record_path = Some(parse(&flag, argv.next())?),
            "--probes" => {
                let dir = out_dir();
                std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
                let p = probes::run_all(Duration::from_secs(1), &dir)?;
                println!(
                    "# median of {} slices of 0.2 s each; nproc {}",
                    probes::REPEATS,
                    e2e::host::nproc()
                );
                let named = p.named();
                for (name, unit) in PER_LAYER.iter().filter(|(n, _)| named.contains_key(n)) {
                    println!("{name:<44} {:>14.3} {unit}", named[name]);
                }
                return Ok(ExitCode::SUCCESS);
            }
            "--compare" => {
                let (a, b): (PathBuf, PathBuf) =
                    (parse(&flag, argv.next())?, parse(&flag, argv.next())?);
                return Ok(if record::compare(&a, &b)? {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::from(EXIT_INCORRECT)
                });
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return Err(USAGE.to_string());
    };
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err("--seconds must be in (0, 3600]".into());
    }
    let args = RunArgs {
        workload,
        seed,
        seconds,
        trace,
        scale: 1,
        out_dir: out_dir(),
        probe_budget: TRACED_PROBE_BUDGET,
    };
    let result = run(&args)?;
    let table = if trace { PER_LAYER } else { END_TO_END };
    // Checks that every metric of the table was measured, before any is shown.
    let metrics = metrics::to_value(table, &result.metrics);
    print_metrics(table, &result.metrics);
    println!(
        "{:<44} {:>18} of {} checks",
        "failed_ops", result.failed, result.attempted
    );
    for f in &result.failures {
        eprintln!("FAILED: {f}");
    }
    if let Some(path) = &record_path {
        record::append(path, record::run_entry(&args, &result, metrics.clone()))?;
    }
    let line = Value::Map(vec![
        ("correct".into(), Value::Bool(result.failed == 0)),
        ("attempted".into(), Value::UInt(result.attempted.into())),
        ("failed".into(), Value::UInt(result.failed.into())),
        ("metrics".into(), metrics),
    ]);
    println!(
        "{}",
        serde_json::to_string(&line).map_err(|e| e.to_string())?
    );
    Ok(if result.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_INCORRECT)
    })
}

fn main() -> ExitCode {
    main_inner().unwrap_or_else(|e| {
        eprintln!("e2e: {e}");
        ExitCode::from(EXIT_ERROR)
    })
}
