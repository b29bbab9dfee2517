//! Model cold-start: JSON load (parse + validate + recompile) vs the
//! compiled `f32` binary artifact (bulk array reads).
//!
//! Writes `BENCH_MODEL_LOAD.json` at the repo root (override the path
//! with `PIGEON_BENCH_OUT`) with median/p95 per loader and host
//! metadata, the machine-readable snapshot CI and EXPERIMENTS.md track.

use pigeon::corpus::{generate, CorpusConfig, Language};
use pigeon::crf::artifact::Quant;
use pigeon::{Pigeon, PigeonConfig};
use pigeon_bench::{bench_files, Section};
use std::time::Instant;

const ITERATIONS: usize = 40;

/// Times `f` over [`ITERATIONS`] runs and returns `(median, p95)` in
/// microseconds.
fn measure<T>(mut f: impl FnMut() -> T) -> (f64, f64) {
    let mut micros: Vec<f64> = (0..ITERATIONS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    micros.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let p95 = micros[((micros.len() - 1) * 95) / 100];
    (micros[micros.len() / 2], p95)
}

fn main() {
    let files = bench_files(400);
    let section = Section::begin("Model load: JSON vs compiled artifact");

    let corpus = generate(
        Language::JavaScript,
        &CorpusConfig::default().with_files(files),
    );
    let sources: Vec<&str> = corpus.docs.iter().map(|d| d.source.as_str()).collect();
    let namer =
        Pigeon::train_variable_namer(Language::JavaScript, &sources, &PigeonConfig::default())
            .expect("trains");
    let json = namer.to_json().expect("serialises");

    let mut rows: Vec<(String, usize, f64, f64)> = Vec::new();
    let (json_median, json_p95) = measure(|| Pigeon::from_json(&json).expect("loads"));
    rows.push(("json".to_owned(), json.len(), json_median, json_p95));
    let bytes = namer.to_artifact(Quant::F32).expect("compiles");
    let (median, p95) = measure(|| Pigeon::from_artifact(&bytes).expect("loads"));
    rows.push(("artifact_f32".to_owned(), bytes.len(), median, p95));

    println!(
        "{:<14} {:>12} {:>14} {:>14} {:>9}",
        "Loader", "Bytes", "Median (µs)", "p95 (µs)", "Speedup"
    );
    for (name, bytes, median, p95) in &rows {
        println!(
            "{name:<14} {bytes:>12} {median:>14.1} {p95:>14.1} {:>8.1}×",
            json_median / median
        );
    }

    let entries: Vec<String> = rows
        .iter()
        .map(|(name, bytes, median, p95)| {
            format!(
                "    \"{name}\": {{\"bytes\": {bytes}, \"median_micros\": {median:.1}, \
                 \"p95_micros\": {p95:.1}, \"speedup_vs_json\": {:.2}}}",
                json_median / median
            )
        })
        .collect();
    let report = format!
        // One key per loader plus host metadata; CI compares the
        // artifact speedup against the committed snapshot.
        (
        "{{\n  \"bench\": \"model_load\",\n  \"corpus_files\": {files},\n  \
         \"iterations\": {ITERATIONS},\n  \"host\": {{\"os\": \"{}\", \"arch\": \"{}\", \
         \"cores\": {}}},\n  \"loaders\": {{\n{}\n  }}\n}}\n",
        std::env::consts::OS,
        std::env::consts::ARCH,
        std::thread::available_parallelism().map_or(0, usize::from),
        entries.join(",\n")
    );
    let out = std::env::var("PIGEON_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_MODEL_LOAD.json").to_owned()
    });
    std::fs::write(&out, report).expect("writes snapshot");
    println!("\nwrote {out}");
    section.end();
}
