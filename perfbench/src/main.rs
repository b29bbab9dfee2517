//! The repository benchmark. One process drives the public `pigeon`
//! facade through four phases — `train`, `serve` (`lone` and `loaded`),
//! `cold-predict` and `coordinate` — on inputs generated from
//! `--seed`, checks every output against an in-process reference, and
//! prints every end-to-end metric by name with its unit. The last
//! stdout line is the result as one JSON object.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload small --seed 1 --seconds 40 --trace 0
//! ```
//!
//! Every phase runs once per cycle, and cycles repeat until `--seconds`
//! is over. The tails (`lone_p99_ms`, `loaded_p99_ms`) and
//! `failed_share` are printed but left out of the result line: on a
//! shared host the tails' run-to-run spread is wider than any allowed
//! bound, and failures are the result line's `failed` of `attempted`.
//!
//! `--trace 1` runs each phase twice — plain, then with spans around
//! every layer call (see `layers.rs`) — and prints the per-layer
//! metrics, the layer self times against the plain end-to-end time,
//! and the tracing overhead. Spans go to `.bench_out/` when the run
//! ends. Run from the repository root: temporary files live under
//! `.bench_tmp/` and are removed on exit.

mod cold;
mod coordinate;
mod http;
mod inputs;
mod layers;
mod serve;
mod stats;
mod trace;
mod train;

use inputs::{Inputs, Shape};
use pigeon::corpus::Language;
use pigeon::{Pigeon, PigeonConfig, Prediction};
use stats::Tally;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::{PhaseTimes, Tracer};

/// Cycles run even when `--seconds` is already over: three `lone` and
/// three `loaded` phases give the 1000 samples a p99 needs.
const MIN_CYCLES: usize = 3;
/// The traced run reports no tail.
const MIN_TRACED_CYCLES: usize = 2;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Largest gap allowed between a phase's summed layer self times and
/// its untraced end-to-end time, as a share of the latter.
pub const ADDITIVITY_TOLERANCE: f64 = 0.25;

/// Programs per `/v1/predict_batch` request.
pub const BATCH: usize = 16;

struct Args {
    workload: Shape,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Shape::named(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("bad seconds `{value}`"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(40.0),
        trace: trace.unwrap_or(false),
    })
}

/// Metrics, failure accounting and the first few problems seen.
#[derive(Default)]
pub struct Report {
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    /// Printed with the metrics but left out of the result line: on a
    /// shared host their run-to-run spread is wider than any bound.
    pub shown: BTreeMap<String, (f64, &'static str)>,
    pub tally: Tally,
    pub problems: Vec<String>,
    /// Sample counts and other context, printed above the result line.
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_owned(), (value, unit));
    }

    pub fn show(&mut self, name: &str, value: f64, unit: &'static str) {
        self.shown.insert(name.to_owned(), (value, unit));
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    /// Counts one checked operation, noting what went wrong if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if !ok && self.problems.len() < 20 {
            self.problems.push(what());
        }
        self.tally.record(ok)
    }

    pub fn absorb(&mut self, other: Report) {
        self.tally.absorb(other.tally);
        for p in other.problems {
            if self.problems.len() < 20 {
                self.problems.push(p);
            }
        }
    }

    /// Per-layer self times of one phase, per operation, in `unit`
    /// (`ms` or `us`), under `<layer>_<unit>.<phase>`; plus the sum of
    /// layer self times against the untraced end-to-end time (both per
    /// operation) and the tracing overhead. A gap beyond
    /// [`ADDITIVITY_TOLERANCE`] is reported on stderr; it measures the
    /// harness on a noisy host, not the program, so it fails no
    /// operation.
    pub fn layers(&mut self, phase: &str, times: &PhaseTimes, untraced_ns: f64, layers: &[&str]) {
        for layer in layers {
            let ns = times.per_op(layer);
            let (value, unit) =
                if layer.starts_with("serde_json.body") || layer.starts_with("serve") {
                    (ns / 1e3, "us")
                } else {
                    (ns / 1e6, "ms")
                };
            self.set(&format!("{layer}_{unit}.{phase}"), value, unit);
        }
        let sum = times.layer_sum_per_op();
        let gap = (sum - untraced_ns).abs() / untraced_ns;
        self.set(&format!("trace.layer_sum_ms.{phase}"), sum / 1e6, "ms");
        self.set(
            &format!("trace.untraced_ms.{phase}"),
            untraced_ns / 1e6,
            "ms",
        );
        self.set(&format!("trace.gap_share.{phase}"), gap, "share");
        self.set(
            &format!("trace.overhead_ms.{phase}"),
            (times.root_per_op() - untraced_ns) / 1e6,
            "ms",
        );
        if gap > ADDITIVITY_TOLERANCE {
            eprintln!(
                "perfbench: {phase}: layer self times sum to {:.3} ms per operation, \
                 untraced {:.3} ms: more than {ADDITIVITY_TOLERANCE} apart",
                sum / 1e6,
                untraced_ns / 1e6
            );
        }
    }
}

/// What a run sets up before it measures: the inputs, the served namer
/// (trained, serialised, compiled and written out) and the
/// coordinator's corpus on disk. `setup_s` times this.
pub struct Setup {
    pub inputs: Inputs,
    pub json_path: PathBuf,
    pub artifact_path: PathBuf,
    pub json: String,
    pub artifact: Vec<u8>,
    /// The served namer, loaded from its artifact as the server loads it.
    pub served: Pigeon,
    /// Files of the served namer's training prefix.
    pub serve_files: usize,
    /// `{"source": …}` request bodies, one per program.
    pub bodies: Vec<Vec<u8>>,
    pub corpus_dir: PathBuf,
    pub check: Checks,
}

/// The benchmark's own references for its output checks, computed once
/// after set-up and outside `setup_s`.
#[derive(Default)]
pub struct Checks {
    /// `served.predict` of every held-out program: the reference every
    /// served and cold-loaded prediction must match.
    pub reference: Vec<Vec<Prediction>>,
    /// The response tail each body must get:
    /// `"predictions":[…]}` (response keys render sorted).
    pub expected: Vec<String>,
    /// `{"sources": […]}` bodies of [`BATCH`] programs, with their
    /// expected `"results":[…]}` tails.
    pub batches: Vec<(Vec<u8>, String)>,
    /// `Pigeon::train_variable_namer(..).to_json()` on the coordinator's
    /// corpus, in the coordinator's (sorted file name) order.
    pub corpus_model: String,
}

pub fn train_config(jobs: usize) -> PigeonConfig {
    PigeonConfig {
        jobs,
        ..PigeonConfig::default()
    }
}

pub fn refs(sources: &[String]) -> Vec<&str> {
    sources.iter().map(String::as_str).collect()
}

impl Setup {
    /// Sets up a run whose served namer trains on the first
    /// `serve_files` files of its stream.
    fn build(
        shape: &Shape,
        seed: u64,
        serve_files: usize,
        dir: &Path,
        jobs: usize,
    ) -> Result<Setup, String> {
        let inputs = Inputs::generate(shape, seed);
        let model = Pigeon::train_variable_namer(
            Language::JavaScript,
            &refs(&inputs.serve_train[..serve_files]),
            &train_config(jobs),
        )
        .map_err(|e| format!("serve model: {e}"))?;
        let json = model
            .to_json()
            .map_err(|e| format!("serve model JSON: {e}"))?;
        let artifact = model
            .to_artifact(pigeon::crf::artifact::Quant::F32)
            .map_err(|e| format!("serve model artifact: {e}"))?;
        let json_path = dir.join("model.json");
        let artifact_path = dir.join("model.pgnc");
        write(&json_path, json.as_bytes())?;
        write(&artifact_path, &artifact)?;
        let served = Pigeon::from_artifact(&artifact).map_err(|e| format!("artifact: {e}"))?;
        let bodies = inputs
            .programs
            .iter()
            .map(|p| {
                serde_json::to_string(&serde_json::json!({ "source": p })).map(String::into_bytes)
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        let corpus_dir = dir.join("corpus");
        std::fs::create_dir_all(&corpus_dir)
            .map_err(|e| format!("{}: {e}", corpus_dir.display()))?;
        for (i, source) in inputs.coord.iter().enumerate() {
            write(&corpus_dir.join(format!("doc{i:05}.js")), source.as_bytes())?;
        }
        Ok(Setup {
            inputs,
            json_path,
            artifact_path,
            json,
            artifact,
            served,
            serve_files,
            bodies,
            corpus_dir,
            check: Checks::default(),
        })
    }
}

impl Checks {
    fn build(setup: &Setup, jobs: usize) -> Result<Checks, String> {
        let programs = &setup.inputs.programs;
        let reference = programs
            .iter()
            .map(|p| {
                setup
                    .served
                    .predict(p)
                    .map_err(|e| format!("reference predict: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let rendered: Vec<String> = reference
            .iter()
            .map(|p| layers::predictions_json(p))
            .collect();
        let expected = rendered
            .iter()
            .map(|p| format!("\"predictions\":{p}}}"))
            .collect();
        let n = programs.len();
        let batches = (0..n.div_ceil(BATCH))
            .map(|b| {
                let idx: Vec<usize> = (0..BATCH).map(|k| (b * BATCH + k) % n).collect();
                let sources: Vec<&str> = idx.iter().map(|&i| programs[i].as_str()).collect();
                let body = serde_json::to_string(&serde_json::json!({ "sources": sources }))
                    .expect("batch body")
                    .into_bytes();
                let results: Vec<String> = idx
                    .iter()
                    .map(|&i| format!("{{\"predictions\":{}}}", rendered[i]))
                    .collect();
                (body, format!("\"results\":[{}]}}", results.join(",")))
            })
            .collect();
        let corpus_model = Pigeon::train_variable_namer(
            Language::JavaScript,
            &refs(&setup.inputs.coord),
            &train_config(jobs),
        )
        .and_then(|m| {
            m.to_json()
                .map_err(|e| pigeon::PigeonError::internal(e.to_string()))
        })
        .map_err(|e| format!("coordinator reference model: {e}"))?;
        Ok(Checks {
            reference,
            expected,
            batches,
            corpus_model,
        })
    }
}

/// The length of the shortest prefix of the served namer's stream whose
/// model JSON reaches [`Shape::serve_model_bytes`], so every seed serves
/// a model of one size. Searched from a first guess one file at a time
/// (model size grows by a few KiB per file), once per run and outside
/// `setup_s`: how many trainings the search takes depends on the seed.
fn serve_files(shape: &Shape, seed: u64, jobs: usize) -> Result<usize, String> {
    let stream = Inputs::generate(shape, seed).serve_train;
    let size = |files: usize| -> Result<usize, String> {
        Pigeon::train_variable_namer(
            Language::JavaScript,
            &refs(&stream[..files]),
            &train_config(jobs),
        )
        .and_then(|m| {
            m.to_json()
                .map_err(|e| pigeon::PigeonError::internal(e.to_string()))
        })
        .map(|json| json.len())
        .map_err(|e| format!("serve model: {e}"))
    };
    let target = shape.serve_model_bytes;
    let mut files = shape.serve_files_guess.clamp(1, stream.len());
    if size(files)? >= target {
        while files > 1 && size(files - 1)? >= target {
            files -= 1;
        }
    } else {
        loop {
            files += 1;
            if files > stream.len() {
                return Err(format!(
                    "{} files give no {target}-byte model",
                    stream.len()
                ));
            }
            if size(files)? >= target {
                break;
            }
        }
    }
    Ok(files)
}

fn write(path: &Path, bytes: &[u8]) -> Result<(), String> {
    std::fs::write(path, bytes).map_err(|e| format!("{}: {e}", path.display()))
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// Per-phase run context.
pub struct Ctx<'a> {
    pub setup: &'a Setup,
    pub tracer: Option<&'a Tracer>,
    pub jobs: usize,
    pub dir: &'a Path,
}

fn run(args: &Args, dir: &Path) -> Result<Report, String> {
    let jobs = std::thread::available_parallelism().map_or(1, usize::from);
    let mut report = Report::default();
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let serve_files = serve_files(&args.workload, args.seed, jobs)?;
    let mut setup_s = Vec::new();
    let mut setup: Option<Setup> = None;
    for _ in 0..reps {
        let t = Instant::now();
        let next = Setup::build(&args.workload, args.seed, serve_files, dir, jobs)?;
        setup_s.push(t.elapsed().as_secs_f64());
        if let Some(prev) = &setup {
            report.check(
                prev.inputs.fingerprint() == next.inputs.fingerprint()
                    && prev.json == next.json
                    && prev.artifact == next.artifact,
                || "set-up is not deterministic for one seed".to_owned(),
            );
        }
        setup = Some(next);
    }
    let mut setup = setup.expect("at least one set-up");
    setup.check = Checks::build(&setup, jobs)?;
    report.note(format!(
        "served model: {} training files, {} JSON bytes, {} artifact bytes; {} held-out programs",
        setup.serve_files,
        setup.json.len(),
        setup.artifact.len(),
        setup.inputs.programs.len()
    ));
    if !args.trace {
        report.set("setup_s", stats::median(&setup_s), "s");
    }
    let tracer = Tracer::default();
    let ctx = Ctx {
        setup: &setup,
        tracer: args.trace.then_some(&tracer),
        jobs,
        dir,
    };
    // Every cycle runs each phase once, so each phase's samples spread
    // over the whole run and drift in the host's speed hits all alike.
    let mut train = train::Train::default();
    let mut serve = serve::Serve::default();
    let mut cold = cold::Cold::default();
    let mut coordinate = coordinate::Coordinate::default();
    let min_cycles = if args.trace {
        MIN_TRACED_CYCLES
    } else {
        MIN_CYCLES
    };
    let started = Instant::now();
    let mut cycles = 0;
    while cycles < min_cycles || started.elapsed().as_secs_f64() < args.seconds {
        train.cycle(&ctx, &mut report)?;
        serve.cycle(&ctx, &mut report)?;
        cold.cycle(&ctx, &mut report);
        coordinate.cycle(&ctx, &mut report)?;
        cycles += 1;
    }
    report.note(format!(
        "{cycles} cycles in {:.1} s",
        started.elapsed().as_secs_f64()
    ));
    train.finish(&ctx, &mut report);
    serve.finish(&ctx, &mut report)?;
    cold.finish(&ctx, &mut report)?;
    coordinate.finish(&ctx, &mut report);
    if args.trace {
        std::fs::create_dir_all(".bench_out").map_err(|e| format!(".bench_out: {e}"))?;
        let path = format!(".bench_out/trace-{}-{}.json", args.workload.name, args.seed);
        write(Path::new(&path), tracer.to_json().as_bytes())?;
        eprintln!("perfbench: spans written to {path}");
    } else {
        report.set("peak_rss_mb", peak_rss_mb()?, "MiB");
    }
    Ok(report)
}

fn print(report: &Report, args: &Args) {
    for problem in &report.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    println!(
        "perfbench: workload {} seed {} trace {} ({} cores)",
        args.workload.name,
        args.seed,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    for note in &report.notes {
        println!("  {note}");
    }
    for (name, (value, unit)) in &report.metrics {
        println!("  {name:<44} {value:>14.4} {unit}");
    }
    for (name, (value, unit)) in &report.shown {
        println!("  {name:<44} {value:>14.4} {unit} (printed, not gated)");
    }
    if !args.trace {
        println!(
            "  {:<44} {:>14.4} share ({} failed of {} attempted)",
            "failed_share",
            report.tally.failed_share(),
            report.tally.failed,
            report.tally.attempted
        );
    }
    let metrics: serde_json::Map = report
        .metrics
        .iter()
        .map(|(name, (value, unit))| {
            (
                name.clone(),
                serde_json::json!({ "value": value, "unit": unit }),
            )
        })
        .collect();
    let line = serde_json::json!({
        "correct": report.tally.failed == 0,
        "attempted": report.tally.attempted,
        "failed": report.tally.failed,
        "metrics": serde_json::Value::Object(metrics),
    });
    println!("{}", serde_json::to_string(&line).expect("result line"));
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let dir = PathBuf::from(".bench_tmp").join(format!(
        "{}-{}-{}",
        args.workload.name,
        args.seed,
        std::process::id()
    ));
    let outcome = std::fs::create_dir_all(&dir)
        .map_err(|e| format!("{}: {e}", dir.display()))
        .and_then(|_| run(&args, &dir));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".bench_tmp");
    match outcome {
        Ok(report) => print(&report, &args),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
