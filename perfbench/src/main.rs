//! Seeded end-to-end and per-layer benchmark of ttlg.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <repeat|single-use|gateway|cpu-large> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: with `--trace 0` the
//! end-to-end metrics, with `--trace 1` the per-layer metrics. The line
//! before it carries the run's provenance. See `README.md` for why each
//! workload exists and what each metric should move.

mod common;
mod cpu_large;
mod gateway;
mod gen;
mod http;
mod inproc;
mod ladder;
mod layers;
mod reference;
mod rng;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use common::{Ctx, Outcome};

/// Every end-to-end metric, with its unit, in report order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("req_per_s", "1/s"),
    ("host_gbps", "GB/s"),
    ("latency_p50_ms", "ms"),
    ("sim_gbps", "GB/s"),
    ("peak_rss_mb", "MiB"),
];

pub const WORKLOADS: &[&str] = &["repeat", "single-use", "gateway", "cpu-large"];

/// Where results and spans are written, relative to the working
/// directory.
const OUT_DIR: &str = ".bench_out";

const USAGE: &str = "usage: perfbench --workload <repeat|single-use|gateway|cpu-large> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    ctx: Ctx,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad --seed {value}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
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
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        ctx: Ctx {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        },
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The commit of the checkout, when it is a git work tree.
fn git_commit() -> String {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(Path::new(".git/HEAD")) else {
        return "unknown (not a git checkout)".to_string();
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => read(&Path::new(".git").join(r))
            .or_else(|| {
                read(Path::new(".git/packed-refs"))?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split(' ').next().map(str::to_string))
            })
            .unwrap_or_else(|| format!("unknown ({r})")),
    }
}

fn provenance(args: &Args, out: &Outcome) -> String {
    let ctx = &args.ctx;
    let mut fields = vec![
        ("workload", json_str(&args.workload)),
        ("seed", ctx.seed.to_string()),
        ("seconds", ctx.seconds.to_string()),
        ("trace", (ctx.trace as u8).to_string()),
        ("nproc", ctx.nproc.to_string()),
        (
            "llc_bytes",
            common::llc_bytes().map_or("null".to_string(), |b| b.to_string()),
        ),
        ("rustc", json_str(env!("PERFBENCH_RUSTC_VERSION"))),
        ("commit", json_str(&git_commit())),
    ];
    let notes: Vec<String> = out
        .notes
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
        .collect();
    let notes = format!("{{{}}}", notes.join(","));
    fields.push(("notes", notes));
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    format!("{{\"provenance\":{{{}}}}}", body.join(","))
}

fn result_line(out: &Outcome) -> Result<String, String> {
    let mut metrics = Vec::new();
    for m in &out.metrics {
        if !m.value.is_finite() {
            return Err(format!(
                "metric {} is not a finite number ({})",
                m.name, m.value
            ));
        }
        metrics.push(format!(
            "{}:{{\"value\":{},\"unit\":{}}}",
            json_str(&m.name),
            m.value,
            json_str(m.unit)
        ));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.mismatches == 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(",")
    ))
}

/// The outcome must carry exactly the metrics its mode promises.
fn check_metric_set(out: &Outcome, trace: bool) -> Result<(), String> {
    let want: &[(&str, &str)] = if trace { layers::PER_LAYER } else { END_TO_END };
    let got: Vec<(&str, &str)> = out
        .metrics
        .iter()
        .map(|m| (m.name.as_str(), m.unit))
        .collect();
    if got != want {
        return Err(format!("the run reported {got:?}, expected {want:?}"));
    }
    Ok(())
}

fn out_path(args: &Args, what: &str, ext: &str) -> PathBuf {
    Path::new(OUT_DIR).join(format!(
        "{}-seed{}-trace{}-{what}.{ext}",
        args.workload, args.ctx.seed, args.ctx.trace as u8
    ))
}

/// Write the traced run's spans next to its results.
pub fn write_spans(ctx: &Ctx, workload: &str, spans: &trace::Spans) {
    let path = Path::new(OUT_DIR).join(format!("{workload}-seed{}-trace1-spans.jsonl", ctx.seed));
    let written = std::fs::create_dir_all(OUT_DIR).and_then(|_| spans.write_jsonl(&path));
    if let Err(e) = written {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
    for (name, (count, total, self_ns)) in spans.self_times() {
        eprintln!(
            "perfbench: span {name:<28} n={count:<7} total={:>10.3}ms self={:>10.3}ms",
            total as f64 / 1e6,
            self_ns as f64 / 1e6
        );
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let run = match args.workload.as_str() {
        "repeat" => inproc::repeat(&args.ctx),
        "single-use" => inproc::single_use(&args.ctx),
        "gateway" => gateway::run(&args.ctx),
        "cpu-large" => cpu_large::run(&args.ctx),
        _ => unreachable!("workload validated"),
    };
    let out = match run.and_then(|o| check_metric_set(&o, args.ctx.trace).map(|_| o)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let line = match result_line(&out) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let prov = provenance(&args, &out);
    let path = out_path(&args, "result", "json");
    let saved = std::fs::create_dir_all(OUT_DIR)
        .and_then(|_| std::fs::write(&path, format!("{prov}\n{line}\n")));
    if let Err(e) = saved {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
    println!("{prov}");
    println!("{line}");
    if out.mismatches > 0 {
        eprintln!(
            "perfbench: {} output(s) did not match the reference",
            out.mismatches
        );
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{parse_json, Json};

    /// `BENCHMARK.json` at the repository root names exactly the
    /// workloads and metrics this program reports.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read(&path).expect("BENCHMARK.json is readable");
        let doc = parse_json(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            match doc.get(key) {
                Some(Json::Arr(items)) => items
                    .iter()
                    .map(|m| {
                        (
                            m.str("name").unwrap_or("").to_string(),
                            m.str("unit").unwrap_or("").to_string(),
                        )
                    })
                    .collect(),
                _ => panic!("{key} is not a list"),
            }
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(END_TO_END));
        assert_eq!(names("per_layer"), own(layers::PER_LAYER));
        // `gateway` runs on request but is not one of the bounded workloads
        // (see README.md).
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, ["repeat", "single-use", "cpu-large"]);
        assert!(workloads.iter().all(|w| WORKLOADS.contains(&w.as_str())));
    }

    #[test]
    fn args_are_validated() {
        let a = |s: &str| s.split(' ').map(str::to_string).collect::<Vec<_>>();
        let ok = parse_args(&a("--workload repeat --seed 3 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (ok.workload.as_str(), ok.ctx.seed, ok.ctx.trace),
            ("repeat", 3, true)
        );
        assert!(parse_args(&a("--workload nope --seed 3 --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&a("--workload repeat --seed x --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&a("--workload repeat --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&a("--workload repeat --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&a("--workload repeat --seconds 1")).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            attempted: 10,
            ..Default::default()
        };
        o.metric("setup_s", 0.8127, "s");
        let line = result_line(&o).unwrap();
        let v = parse_json(line.as_bytes()).unwrap();
        let Json::Obj(fields) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            v.get("metrics")
                .and_then(|m| m.get("setup_s"))
                .and_then(|m| m.num("value")),
            Some(0.8127)
        );
        o.metric("bad", f64::NAN, "s");
        assert!(result_line(&o).is_err());
    }
}
