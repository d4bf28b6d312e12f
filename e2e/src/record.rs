//! Records of runs and their comparison.
//!
//! `--record <file>` appends each run, with the host fingerprint it was
//! taken under, to a JSON file. `--compare <a> <b>` reads two such files
//! and prints, per workload and end-to-end metric, both medians, the
//! relative change with its base, the bound from `BENCHMARK.json` and a
//! verdict. It refuses records whose fingerprints differ in anything but
//! the git revision. For a record that holds traced and untraced runs it
//! also prints the tracing overhead, 1 − traced / untraced `ops_per_s`.

use crate::config::Workload;
use crate::run::{RunArgs, RunResult};
use serde::Value;
use std::collections::BTreeSet;
use std::path::Path;

/// The benchmark definition, compiled in so `--compare` and the smoke test
/// read the same bounds the driver does.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

const SCHEMA: &str = "wafl.e2e.v1";

/// One end-to-end metric as `BENCHMARK.json` defines it.
#[derive(Debug, Clone)]
struct MetricSpec {
    /// Metric name.
    name: String,
    /// Unit.
    unit: String,
    /// `true` when a larger value is better.
    higher_is_better: bool,
    /// Share of the base's median by which the metric may worsen.
    bound: f64,
}

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.as_map()
        .and_then(|m| m.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing field `{key}`"))
}

fn number(v: &Value) -> Result<f64, String> {
    match v {
        Value::Float(f) => Ok(*f),
        Value::UInt(u) => Ok(*u as f64),
        Value::Int(i) => Ok(*i as f64),
        other => Err(format!("expected a number, got {}", other.kind())),
    }
}

fn string(v: &Value) -> Result<&str, String> {
    v.as_str()
        .ok_or_else(|| format!("expected a string, got {}", v.kind()))
}

fn seq(v: &Value) -> Result<&[Value], String> {
    v.as_seq()
        .ok_or_else(|| format!("expected a list, got {}", v.kind()))
}

/// The `end_to_end` entries of `BENCHMARK.json`.
fn end_to_end_spec() -> Result<Vec<MetricSpec>, String> {
    let doc: Value = serde_json::from_str(BENCHMARK_JSON).map_err(|e| e.to_string())?;
    seq(field(&doc, "end_to_end")?)?
        .iter()
        .map(|m| {
            Ok(MetricSpec {
                name: string(field(m, "name")?)?.to_string(),
                unit: string(field(m, "unit")?)?.to_string(),
                higher_is_better: string(field(m, "better")?)? == "higher",
                bound: number(field(m, "bound")?)?,
            })
        })
        .collect()
}

/// Everything a run's numbers depend on besides the code.
fn fingerprint(args: &RunArgs, result: &RunResult) -> Value {
    Value::Map(vec![
        ("nproc".into(), Value::UInt(crate::host::nproc().into())),
        ("media_fs".into(), Value::Str(result.media_fs.clone())),
        ("o_direct".into(), Value::Bool(result.o_direct)),
        ("trace_feature".into(), Value::Bool(obs::ENABLED)),
        ("git_rev".into(), Value::Str(crate::host::git_rev())),
        ("seed".into(), Value::UInt(args.seed.into())),
        ("window_s".into(), Value::Float(args.seconds)),
    ])
}

/// One run as a record entry (also the shape of the result line's
/// `metrics`).
pub fn run_entry(args: &RunArgs, result: &RunResult, metrics: Value) -> Value {
    Value::Map(vec![
        ("workload".into(), Value::Str(args.workload.name().into())),
        ("trace".into(), Value::Bool(args.trace)),
        ("fingerprint".into(), fingerprint(args, result)),
        ("attempted".into(), Value::UInt(result.attempted.into())),
        ("failed".into(), Value::UInt(result.failed.into())),
        ("metrics".into(), metrics),
    ])
}

fn load(path: &Path) -> Result<Vec<Value>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if field(&doc, "schema").and_then(string) != Ok(SCHEMA) {
        return Err(format!("{}: not a {SCHEMA} record", path.display()));
    }
    Ok(seq(field(&doc, "runs")?)?.to_vec())
}

/// Append `entry` to the record at `path`, creating it if absent.
pub fn append(path: &Path, entry: Value) -> Result<(), String> {
    let mut runs = if path.exists() {
        load(path)?
    } else {
        Vec::new()
    };
    runs.push(entry);
    let doc = Value::Map(vec![
        ("schema".into(), Value::Str(SCHEMA.into())),
        ("runs".into(), Value::Seq(runs)),
    ]);
    let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

/// The first, second and third quartile of `sorted` as Python's
/// `statistics.quantiles(values, n=4)` gives them (needs two values).
fn quartiles(sorted: &[f64]) -> Option<[f64; 3]> {
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    Some(std::array::from_fn(|i| {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    }))
}

fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Distance between the first and third quartile of `sorted` as a share of
/// its median (0 with fewer than two values).
fn spread(sorted: &[f64]) -> f64 {
    quartiles(sorted).map_or(0.0, |q| (q[2] - q[0]) / q[1])
}

/// The runs of `workload` in `runs` that are traced or not, as `traced`
/// says: their fingerprints without the git revision, and the sorted
/// values of `metric`.
fn side(
    runs: &[Value],
    workload: &str,
    traced: bool,
    metric: &str,
) -> Result<(BTreeSet<String>, Vec<f64>), String> {
    let mut prints = BTreeSet::new();
    let mut values = Vec::new();
    for run in runs {
        if string(field(run, "workload")?)? != workload
            || field(run, "trace")? != &Value::Bool(traced)
        {
            continue;
        }
        let print: Vec<String> = field(run, "fingerprint")?
            .as_map()
            .ok_or("fingerprint is not an object")?
            .iter()
            .filter(|(k, _)| k != "git_rev")
            .map(|(k, v)| format!("{k}={}", serde_json::to_string(v).unwrap_or_default()))
            .collect();
        prints.insert(print.join(" "));
        values.push(number(field(
            field(field(run, "metrics")?, metric)?,
            "value",
        )?)?);
    }
    values.sort_by(f64::total_cmp);
    Ok((prints, values))
}

/// Compare record `b` against base record `a`. Returns `Ok(true)` when no
/// metric regressed, `Err` when the records cannot be compared.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let spec = end_to_end_spec()?;
    let (runs_a, runs_b) = (load(a)?, load(b)?);
    println!(
        "{:<20} {:<19} {:<10} {:>14} {:>14} {:>9} {:>7} {:>7}  {:<5} verdict",
        "workload", "metric", "unit", "base median", "new median", "change", "spread", "bound", "n"
    );
    let mut clean = true;
    for w in Workload::ALL {
        for m in &spec {
            let (prints_a, va) = side(&runs_a, w.name(), false, &m.name)?;
            let (prints_b, vb) = side(&runs_b, w.name(), false, &m.name)?;
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            if prints_a != prints_b {
                let only = |x: &BTreeSet<String>, y: &BTreeSet<String>| {
                    x.difference(y)
                        .map(|p| format!("\n    {p}"))
                        .collect::<String>()
                };
                return Err(format!(
                    "refusing to compare {}: host fingerprints differ\n  only in base:{}\n  only in new:{}",
                    w.name(),
                    only(&prints_a, &prints_b),
                    only(&prints_b, &prints_a),
                ));
            }
            let (ma, mb) = (median(&va), median(&vb));
            // Positive = worse, as a share of the base's median.
            let sign = if m.higher_is_better { -1.0 } else { 1.0 };
            let worse = sign * (mb - ma) / ma;
            let spread = spread(&va).max(spread(&vb));
            // Every run of the new side at least as good as every run of
            // the base resolves the metric whatever the spread.
            let dominates = if m.higher_is_better {
                vb[0] >= va[va.len() - 1]
            } else {
                vb[vb.len() - 1] <= va[0]
            };
            let verdict = if spread > m.bound && !dominates {
                "unresolved"
            } else if worse > m.bound {
                clean = false;
                "regressed"
            } else {
                "ok"
            };
            println!(
                "{:<20} {:<19} {:<10} {:>14.6} {:>14.6} {:>+8.2}% {:>6.2}% {:>6.2}%  {:<5} {verdict}",
                w.name(),
                m.name,
                m.unit,
                ma,
                mb,
                100.0 * (mb - ma) / ma,
                100.0 * spread,
                100.0 * m.bound,
                format!("{}/{}", va.len(), vb.len()),
            );
        }
    }
    for (label, runs) in [("base", &runs_a), ("new", &runs_b)] {
        trace_overhead(label, runs)?;
    }
    Ok(clean)
}

/// Print `trace_overhead_frac`, 1 − traced / untraced median `ops_per_s`,
/// for every workload of which `runs` holds both kinds of run. It is
/// unresolved when it is smaller than the spread of either kind, or when a
/// kind has a single run and so no spread.
fn trace_overhead(label: &str, runs: &[Value]) -> Result<(), String> {
    for w in Workload::ALL {
        let (_, untraced) = side(runs, w.name(), false, "ops_per_s")?;
        let (_, traced) = side(runs, w.name(), true, "traced_ops_per_s")?;
        if untraced.is_empty() || traced.is_empty() {
            continue;
        }
        let (mu, mt) = (median(&untraced), median(&traced));
        let overhead = 1.0 - mt / mu;
        let spread = spread(&untraced).max(spread(&traced));
        println!(
            "{label}: {:<20} trace_overhead_frac {overhead:>+8.4} (traced {mt:.1} / untraced {mu:.1} ops/s, spread {:.4}, n {}/{})  {}",
            w.name(),
            spread,
            traced.len(),
            untraced.len(),
            if untraced.len().min(traced.len()) >= 2 && overhead.abs() > spread {
                "resolved"
            } else {
                "unresolved"
            },
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
        let v = [1.0, 2.0, 4.0, 7.0, 11.0, 16.0, 22.0, 29.0, 37.0, 46.0];
        assert_eq!(quartiles(&v), Some([3.5, 13.5, 31.0]));
        // statistics.quantiles([1, 2], n=4)
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
