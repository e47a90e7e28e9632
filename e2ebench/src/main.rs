//! End-to-end and per-layer benchmark of the PIER `Pipeline`.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload js-saturated --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` times whole `Pipeline::run` calls with tracing off and prints
//! the end-to-end metrics; `--trace 1` makes the traced run (observed real
//! runs plus a sequential per-layer replay) and prints the per-layer
//! metrics. Both check every run's output. The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed`, `metrics`. A result
//! file with the provenance and, for `--trace 1`, a span file are written
//! under `e2ebench/out/`. See `e2ebench/README.md`.

mod spans;
mod stats;
mod trace;
mod workload;

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use pier_runtime::RuntimeReport;

use crate::stats::{describe, median, peak_rss_mb, quantile, Json};
use crate::workload::{Checked, Corpus, Oracle, Workload};

/// `setup_s` times corpus generation + build this often before the first
/// run…
const SETUP_FIRST_REPS: usize = 5;
/// …and again after every run until this long is spent, so that its median
/// spans the whole measurement rather than its first second.
const SETUP_SLOT_SECONDS: f64 = 0.05;
/// Timed runs made even when they overrun `--seconds`.
const MIN_REPS: usize = 2;
/// Where result and span files go, relative to the working directory.
const OUT_DIR: &str = "e2ebench/out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; one of {names:?}")
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
    })
}

/// Totals of the output checks and failure counts over every run.
#[derive(Default)]
struct Audit {
    attempted: u64,
    failed: u64,
    check_failures: u64,
}

impl Audit {
    /// Checks `report` and accounts its work and failures:
    /// attempted = profiles + comparisons; failed = ingest errors + dead
    /// letters + shed comparisons + failed output checks.
    fn add(&mut self, oracle: &Oracle, corpus: &Corpus, report: &RuntimeReport) -> Checked {
        let checked = oracle.check(report);
        self.attempted += corpus.dataset.profiles.len() as u64 + report.comparisons;
        self.failed += report.ingest_errors.len() as u64
            + report.dead_letters.len() as u64
            + report.comparisons_shed
            + checked.failures();
        self.check_failures += checked.failures();
        checked
    }

    fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let workload = args.workload;
    println!(
        "e2ebench {} seed={} seconds={} trace={} nproc={nproc}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let mut setup = Vec::with_capacity(SETUP_FIRST_REPS);
    let mut corpus = None;
    for _ in 0..SETUP_FIRST_REPS {
        let (secs, generated) = set_up(workload, args.seed, nproc);
        setup.push(secs);
        corpus = Some(generated);
    }
    let corpus = corpus.expect("SETUP_FIRST_REPS > 0");
    let oracle = Oracle::new(workload, &corpus);
    println!(
        "corpus: {} profiles, {} increments, {} ground-truth pairs, {} accepted by the matcher",
        corpus.dataset.profiles.len(),
        corpus.increments.len(),
        oracle.ground_truth().len(),
        oracle.accepted_gt
    );

    let started = Instant::now();
    let mut audit = Audit::default();
    let (metrics, details, span_file) = if args.trace {
        trace_mode(&args, nproc, &corpus, &oracle, &mut audit)
    } else {
        end_to_end(&args, nproc, &corpus, &oracle, &mut setup, &mut audit)
    };
    let measured_s = started.elapsed().as_secs_f64();

    for (name, value, unit) in &metrics {
        println!("  {name:<28} {value:>16.6} {unit}");
    }
    println!(
        "checks: {} failed; error_rate {} ({} failed / {} attempted)",
        audit.check_failures,
        audit.error_rate(),
        audit.failed,
        audit.attempted
    );
    let correct = audit.failed == 0;

    let metrics_json = Json::obj(metrics.iter().map(|&(name, value, unit)| {
        (
            name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
        )
    }));
    let provenance = Json::obj([
        ("workload", Json::str(workload.name())),
        ("seed", Json::Int(args.seed)),
        ("nproc", Json::Int(nproc as u64)),
        ("commit", stats::commit().map_or(Json::Null, Json::Str)),
        ("source_digest", Json::str(stats::source_digest())),
        ("params", workload.params(nproc)),
        ("run_seconds", Json::Num(args.seconds)),
        ("measured_seconds", Json::Num(measured_s)),
        ("trace", Json::Bool(args.trace)),
        ("spans", span_file.map_or(Json::Null, Json::Str)),
    ]);
    println!("provenance: {}", provenance.render());
    let result_file = PathBuf::from(OUT_DIR).join(format!(
        "{}-seed{}-trace{}.json",
        workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    let full = Json::obj([
        ("provenance", provenance),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(audit.attempted)),
        ("failed", Json::Int(audit.failed)),
        ("error_rate", Json::Num(audit.error_rate())),
        ("metrics", metrics_json.clone()),
        ("details", details),
    ]);
    match write_file(&result_file, |out| writeln!(out, "{}", full.render())) {
        Ok(()) => println!("result: {}", result_file.display()),
        Err(e) => eprintln!("e2ebench: could not write {}: {e}", result_file.display()),
    }

    let last = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(audit.attempted.max(1))),
        ("failed", Json::Int(audit.failed)),
        ("metrics", metrics_json),
    ]);
    println!("{}", last.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

/// One set-up: generates the corpus and builds a pipeline for it. Returns
/// the seconds taken and the corpus.
fn set_up(workload: Workload, seed: u64, nproc: usize) -> (f64, Corpus) {
    let t0 = Instant::now();
    let corpus = workload.corpus(seed);
    let pipeline = workload
        .pipeline(corpus.dataset.kind, nproc)
        .build()
        .expect("workload configuration validates");
    let secs = t0.elapsed().as_secs_f64();
    drop(pipeline);
    (secs, corpus)
}

/// Times whole `Pipeline::run` calls until `--seconds` are spent and
/// returns the end-to-end metrics.
fn end_to_end(
    args: &Args,
    nproc: usize,
    corpus: &Corpus,
    oracle: &Oracle,
    setup: &mut Vec<f64>,
    audit: &mut Audit,
) -> (Metrics, Json, Option<String>) {
    let workload = args.workload;
    let matcher = workload.matcher();
    let kind = corpus.dataset.kind;
    let mut walls = Vec::new();
    let mut rates = Vec::new();
    let mut recalls = Vec::new();
    let mut latencies = Vec::new();
    let mut rep_p99 = Vec::new();
    let started = Instant::now();
    loop {
        let pipeline = workload
            .pipeline(kind, nproc)
            .build()
            .expect("workload configuration validates");
        let increments = corpus.increments.clone();
        let t0 = Instant::now();
        let report = pipeline.run(increments, Arc::clone(&matcher), |_| {});
        let wall = t0.elapsed().as_secs_f64();

        let checked = audit.add(oracle, corpus, &report);
        walls.push(wall);
        rates.push(report.comparisons as f64 / wall);
        recalls.push(oracle.recall(&checked));
        let rep = oracle.latencies_ms(&report, workload.interarrival());
        rep_p99.extend(quantile(&rep, 0.99));
        latencies.extend(rep);

        let slot = Instant::now();
        loop {
            setup.push(set_up(workload, args.seed, nproc).0);
            if slot.elapsed().as_secs_f64() >= SETUP_SLOT_SECONDS {
                break;
            }
        }

        let spent = started.elapsed().as_secs_f64();
        if walls.len() >= MIN_REPS && spent + wall > args.seconds {
            break;
        }
    }
    println!("setup_s: {}", describe(setup));
    println!("wall_s: {}", describe(&walls));
    println!("match latency ms: {}", describe(&latencies));
    println!("per-run latency p99 ms: {}", describe(&rep_p99));

    let med = |v: &[f64]| median(v).unwrap_or(0.0);
    let metrics = vec![
        ("setup_s", med(setup), "s"),
        ("wall_s", med(&walls), "s"),
        ("cmp_per_s", med(&rates), "1/s"),
        ("recall", med(&recalls), "ratio"),
        (
            "match_latency_p50_ms",
            quantile(&latencies, 0.5).unwrap_or(0.0),
            "ms",
        ),
        // One stall shifts every later increment of its run, so the pooled
        // tail follows a run's luck; the median of per-run p99s does not.
        ("match_latency_p99_ms", med(&rep_p99), "ms"),
        ("ok_ratio", 1.0 - audit.error_rate(), "ratio"),
        ("peak_rss_mb", peak_rss_mb().unwrap_or(0.0), "MB"),
    ];
    let nums = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::Num(x)).collect());
    let details = Json::obj([
        ("setup_s", nums(setup)),
        ("wall_s", nums(&walls)),
        ("cmp_per_s", nums(&rates)),
        ("recall", nums(&recalls)),
        ("match_latency_samples", Json::Int(latencies.len() as u64)),
        ("run_latency_p99_ms", nums(&rep_p99)),
        ("setup_summary", Json::str(describe(setup))),
        ("wall_summary", Json::str(describe(&walls))),
        ("latency_summary", Json::str(describe(&latencies))),
        ("run_latency_p99_summary", Json::str(describe(&rep_p99))),
    ]);
    (metrics, details, None)
}

/// The traced run: per-layer metrics, with every real run checked and the
/// spans written out.
fn trace_mode(
    args: &Args,
    nproc: usize,
    corpus: &Corpus,
    oracle: &Oracle,
    audit: &mut Audit,
) -> (Metrics, Json, Option<String>) {
    let traced = trace::run(args.workload, corpus, oracle, nproc, args.seconds);
    for run in &traced.runs {
        audit.add(oracle, corpus, &run.report);
    }
    let span_file = PathBuf::from(OUT_DIR).join(format!(
        "{}-seed{}-spans.jsonl",
        args.workload.name(),
        args.seed
    ));
    let written = write_file(&span_file, |out| traced.recorder.write_jsonl(out));
    let span_file = match written {
        Ok(()) => {
            println!(
                "spans: {} written to {}",
                traced.recorder.spans().len(),
                span_file.display()
            );
            Some(span_file.display().to_string())
        }
        Err(e) => {
            eprintln!("e2ebench: could not write {}: {e}", span_file.display());
            None
        }
    };
    let walls: Vec<f64> = traced.runs.iter().map(|r| r.wall_s).collect();
    let details = Json::obj([(
        "run_wall_s",
        Json::Arr(walls.iter().map(|&x| Json::Num(x)).collect()),
    )]);
    (traced.metrics, details, span_file)
}

fn write_file(
    path: &PathBuf,
    body: impl FnOnce(&mut BufWriter<File>) -> std::io::Result<()>,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(File::create(path)?);
    body(&mut out)?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    /// `"name"`s of the metric array `section` of BENCHMARK.json (its
    /// entries are flat objects, so the first `]` closes the array).
    fn benchmark_names(text: &str, section: &str) -> BTreeSet<String> {
        let start = text
            .find(&format!("\"{section}\": ["))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("array closes")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("closing quote")].to_string())
            .collect()
    }

    /// Keys of the metric object `section` of metrics.json (each entry
    /// opens with `"unit"`; `end_to_end` precedes `per_layer`).
    fn map_names(text: &str, section: &str) -> BTreeSet<String> {
        let start = text
            .find(&format!("\"{section}\": {{"))
            .expect("section present");
        let mut body = &text[start + 1..];
        if let Some(end) = body.find("\"per_layer\"") {
            body = &body[..end];
        }
        let chunks: Vec<&str> = body.split("\": {\"unit\"").collect();
        chunks[..chunks.len() - 1]
            .iter()
            .map(|c| c[c.rfind('"').expect("opening quote") + 1..].to_string())
            .collect()
    }

    #[test]
    fn metric_map_names_the_benchmarked_metrics() {
        let dir = env!("CARGO_MANIFEST_DIR");
        let benchmark = std::fs::read_to_string(format!("{dir}/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
        let map = std::fs::read_to_string(format!("{dir}/metrics.json")).expect("metrics.json");
        for section in ["end_to_end", "per_layer"] {
            let listed = benchmark_names(&benchmark, section);
            assert!(listed.len() > 5, "{section} lists metrics: {listed:?}");
            assert_eq!(listed, map_names(&map, section), "{section} differs");
        }
    }
}
