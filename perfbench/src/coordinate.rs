//! `coordinate`: a coordinator (`pigeon::serve` with `cache_dir` on a
//! fresh directory) and two `pigeon::distrib::run_worker` threads train
//! the set-up corpus twice. The first job starts with an empty cache;
//! the second is identical, so every shard is a cache hit and only the
//! merge runs. Both models must equal the set-up's single-process
//! `Pigeon::train_variable_namer(..).to_json()`.

use crate::http::{io, Conn, Scrape};
use crate::{stats, Ctx, Report};
use pigeon::corpus::Language;
use pigeon::distrib::{run_worker, WorkerOptions};
use pigeon::eval::ElementClass;
use pigeon::serve::{bind, request_shutdown, ServeConfig};
use pigeon::Pigeon;
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

const SHARDS: usize = 4;
const WORKERS: usize = 2;
/// Worker lease poll interval while every shard is leased.
const WORKER_POLL: Duration = Duration::from_millis(5);
/// Job status poll interval.
const STATUS_POLL: Duration = Duration::from_millis(1);
const JOB_DEADLINE: Duration = Duration::from_secs(60);

struct Pair {
    cold: Duration,
    warm: Duration,
    cold_delta: Scrape,
    warm_delta: Scrape,
}

#[derive(Default)]
pub struct Coordinate {
    cold_s: Vec<f64>,
    warm_s: Vec<f64>,
    cold_delta: Scrape,
    warm_delta: Scrape,
    pairs: usize,
}

impl Coordinate {
    /// One job pair on a fresh coordinator; in the traced run, then a
    /// traced pair.
    pub fn cycle(&mut self, ctx: &Ctx, report: &mut Report) -> Result<(), String> {
        let p = pair(ctx, self.pairs, report)?;
        self.cold_s.push(p.cold.as_secs_f64());
        self.warm_s.push(p.warm.as_secs_f64());
        self.cold_delta.add(&p.cold_delta);
        self.warm_delta.add(&p.warm_delta);
        self.pairs += 1;
        if ctx.tracer.is_some() {
            traced_pair(ctx, self.pairs, report)?;
            self.pairs += 1;
        }
        Ok(())
    }

    pub fn finish(self, ctx: &Ctx, report: &mut Report) {
        report.note(format!("coordinate: {} job pairs", self.cold_s.len()));
        let Some(tr) = ctx.tracer else {
            report.set("job_cold_s", stats::median(&self.cold_s), "s");
            report.set("job_warm_s", stats::median(&self.warm_s), "s");
            return;
        };
        let n = self.cold_s.len() as f64;
        job_counters("job_cold", &self.cold_delta, n, report);
        job_counters("job_warm", &self.warm_delta, n, report);
        let layers = ["distrib.partial_build", "distrib.merge", "distrib.protocol"];
        report.layers(
            "job_cold",
            &tr.phase_times("job_cold"),
            stats::mean(&self.cold_s) * 1e9,
            &layers,
        );
        report.layers(
            "job_warm",
            &tr.phase_times("job_warm"),
            stats::mean(&self.warm_s) * 1e9,
            &layers[1..],
        );
    }
}

/// Per-job deltas of the coordinator's counters, averaged over jobs.
/// `distrib.cached_share` is partials served from the cache (found at
/// job creation, or a duplicate upload) over all partials the job took.
fn job_counters(job: &str, delta: &Scrape, n: f64, report: &mut Report) {
    let cached = delta.get("pigeon_partials_cached_total");
    let taken = cached + delta.get("pigeon_partials_received_total");
    report.set(
        &format!("distrib.cached_share.{job}"),
        cached / taken.max(1.0),
        "share",
    );
    report.set(
        &format!("distrib.reassignments.{job}"),
        delta.get("pigeon_shard_reassignments_total") / n,
        "count",
    );
    for phase in ["collect", "merge"] {
        let ms = delta.get(&format!("pigeon_job_phase_micros_sum{{phase=\"{phase}\"}}")) / n / 1e3;
        report.set(&format!("distrib.job_phase_ms.{phase}.{job}"), ms, "ms");
    }
}

/// One cold job and one warm job on a fresh coordinator.
fn pair(ctx: &Ctx, index: usize, report: &mut Report) -> Result<Pair, String> {
    let cache = ctx.dir.join(format!("cache-{index}"));
    let bound = bind(&ServeConfig {
        port: 0,
        cache_dir: Some(cache.display().to_string()),
        ..ServeConfig::default()
    })?;
    let addr = bound.addr();
    let server = std::thread::spawn(move || bound.run(None));
    let outcome = jobs(ctx, addr, index, report);
    request_shutdown();
    let joined = server
        .join()
        .map_err(|_| "coordinator thread panicked".to_owned())?;
    let _ = std::fs::remove_dir_all(&cache);
    let pair = outcome?;
    joined?;
    Ok(pair)
}

fn jobs(ctx: &Ctx, addr: SocketAddr, index: usize, report: &mut Report) -> Result<Pair, String> {
    let before = Scrape::fetch(addr).map_err(io("/v1/metrics"))?;
    let cold = job(
        ctx,
        addr,
        &ctx.dir.join(format!("cold-{index}.json")),
        true,
        report,
    )?;
    let middle = Scrape::fetch(addr).map_err(io("/v1/metrics"))?;
    let warm = job(
        ctx,
        addr,
        &ctx.dir.join(format!("warm-{index}.json")),
        false,
        report,
    )?;
    let after = Scrape::fetch(addr).map_err(io("/v1/metrics"))?;
    Ok(Pair {
        cold,
        warm,
        cold_delta: middle.delta(&before),
        warm_delta: after.delta(&middle),
    })
}

fn field_u64(body: &serde_json::Value, field: &str) -> Option<u64> {
    body.get(field).and_then(|v| v.as_u64())
}

/// Runs one train job to completion and checks its model; returns the
/// time from job creation to `done`.
fn job(
    ctx: &Ctx,
    addr: SocketAddr,
    out: &Path,
    with_workers: bool,
    report: &mut Report,
) -> Result<Duration, String> {
    let request = serde_json::json!({
        "corpus_dir": ctx.setup.corpus_dir.display().to_string(),
        "language": "js",
        "out": out.display().to_string(),
        "shard_count": SHARDS,
    });
    let mut conn = Conn::connect(addr).map_err(io("connect"))?;
    let t = Instant::now();
    let (status, body) = conn
        .request(
            "POST",
            "/v1/train-jobs",
            serde_json::to_string(&request)
                .expect("job body")
                .as_bytes(),
        )
        .map_err(io("POST /v1/train-jobs"))?;
    let created: serde_json::Value =
        serde_json::from_str(&String::from_utf8_lossy(&body)).map_err(|e| e.to_string())?;
    if status != 200 {
        return Err(format!(
            "POST /v1/train-jobs answered {status}: {created:?}"
        ));
    }
    let id = field_u64(&created, "id").ok_or("job response has no id")?;
    let coordinator = format!("http://{addr}");
    let elapsed = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..if with_workers { WORKERS } else { 0 })
            .map(|w| {
                let opts = WorkerOptions {
                    coordinator: coordinator.clone(),
                    name: format!("bench-{w}"),
                    poll: WORKER_POLL,
                    throttle: Duration::ZERO,
                    jobs: 1,
                    exit_when_idle: true,
                };
                scope.spawn(move || run_worker(&opts))
            })
            .collect();
        let done = await_done(&mut conn, id, t);
        for w in workers {
            let result = w
                .join()
                .map_err(|_| "worker thread panicked".to_owned())
                .and_then(|r| r);
            report.check(result.is_ok(), || format!("worker: {:?}", result.err()));
        }
        done
    })?;
    let (status, model) = conn
        .request("GET", &format!("/v1/train-jobs/{id}/model"), b"")
        .map_err(io("GET model"))?;
    report.check(
        status == 200 && model == ctx.setup.check.corpus_model.as_bytes(),
        || format!("job {id} model differs from single-process training (status {status})"),
    );
    Ok(elapsed)
}

/// Polls the job's status until `done`; the job's wall time.
fn await_done(conn: &mut Conn, id: u64, started: Instant) -> Result<Duration, String> {
    loop {
        let (status, body) = conn
            .request("GET", &format!("/v1/train-jobs/{id}"), b"")
            .map_err(io("GET job"))?;
        let text = String::from_utf8_lossy(&body);
        if status == 200 && text.contains("\"phase\":\"done\"") {
            return Ok(started.elapsed());
        }
        if status != 200
            || text.contains("\"phase\":\"failed\"")
            || started.elapsed() > JOB_DEADLINE
        {
            return Err(format!("job {id} did not finish: {status} {text}"));
        }
        std::thread::sleep(STATUS_POLL);
    }
}

/// A traced job pair. Worker extraction and the coordinator's merge
/// run where no span reaches, so the same facade calls on the same
/// corpus are timed in process after the jobs and recorded as their
/// children: `Pigeon::build_training_partial` per shard (the workers
/// build shards in parallel, so their sum is divided by the worker
/// count) and `Pigeon::from_partials` plus `to_json` (the finishing
/// merge). The root's self time is `distrib.protocol`: leases, uploads,
/// partial verification, the cache and status polling.
fn traced_pair(ctx: &Ctx, index: usize, report: &mut Report) -> Result<(), String> {
    let tr = ctx.tracer.expect("traced run");
    let sources: Vec<&str> = ctx.setup.inputs.coord.iter().map(String::as_str).collect();
    let config = crate::train_config(1);
    let p = pair(ctx, index, report)?;
    let mut parts = Vec::new();
    let mut build = Duration::ZERO;
    for shard in 0..SHARDS {
        let t = Instant::now();
        let part = Pigeon::build_training_partial(
            Language::JavaScript,
            ElementClass::Variable,
            &sources,
            shard,
            SHARDS,
            &config,
        )
        .map_err(|e| e.to_string())?;
        build += t.elapsed();
        parts.push(part);
    }
    let t = Instant::now();
    let merged = Pigeon::from_partials(&parts).and_then(|m| {
        m.to_json()
            .map_err(|e| pigeon::PigeonError::internal(e.to_string()))
    });
    let merge = t.elapsed();
    report.check(
        merged.as_deref().ok() == Some(ctx.setup.check.corpus_model.as_str()),
        || "in-process merge differs from single-process training".to_owned(),
    );
    let cold = tr.record(
        "job_cold",
        "distrib.protocol",
        None,
        Some(index as u64),
        p.cold,
    );
    tr.record(
        "job_cold",
        "distrib.partial_build",
        Some(cold),
        None,
        build / WORKERS as u32,
    );
    tr.record("job_cold", "distrib.merge", Some(cold), None, merge);
    let warm = tr.record(
        "job_warm",
        "distrib.protocol",
        None,
        Some(index as u64),
        p.warm,
    );
    tr.record("job_warm", "distrib.merge", Some(warm), None, merge);
    Ok(())
}
