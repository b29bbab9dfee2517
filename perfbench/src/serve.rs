//! `serve`: an in-process `pigeon::serve` server on an ephemeral port,
//! default `ServeConfig`, serving the set-up namer loaded from its
//! `.pgnc` artifact. Each cycle starts a server and runs two phases on
//! it: `lone` (one keep-alive connection, sequential `/v1/predict`) and
//! `loaded` (a closed loop on two keep-alive connections mixing
//! `/v1/predict` with `/v1/predict_batch`, plus `POST /v1/models` hot
//! swaps of the same artifact bytes beside the reads).

use crate::http::{io, Conn, Scrape};
use crate::layers::{self, Counts};
use crate::stats;
use crate::trace::UNATTRIBUTED;
use crate::{Ctx, Report, BATCH};
use pigeon::serve::{bind, request_shutdown, ServeConfig};
use pigeon::Pigeon;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Sequential predicts per `lone` phase.
const LONE_BURST: usize = 400;
/// Predicts (both clients together) per `loaded` phase.
const LOADED_BURST: usize = 400;
/// Checked but untimed predicts before each phase: each cycle's server
/// is new, and the phases before it leave the caches cold.
const WARMUP: usize = 20;
/// Hot swaps per `loaded` phase. A fixed count: the registry keeps
/// every version it loaded, so the swap count sets the server's memory.
const SWAPS: usize = 4;
/// Client 0 swaps every `SWAP_EVERY`-th request until it has sent
/// [`SWAPS`].
const SWAP_EVERY: usize = 20;
/// Every `BATCH_EVERY`-th request of a `loaded` client is a batch.
const BATCH_EVERY: usize = 8;
/// Traced `lone` requests and traced swaps per cycle.
const TRACED_LONE: usize = 50;
const TRACED_SWAPS: usize = 24;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[derive(Default)]
pub struct Serve {
    lone_ms: Vec<f64>,
    loaded_predict_ms: Vec<f64>,
    swap_ms: Vec<f64>,
    loaded_programs: usize,
    loaded_wall: Duration,
    /// Sends per body: predict bodies first, then batch bodies.
    sent: Vec<usize>,
    lone_delta: Scrape,
    loaded_delta: Scrape,
    overhead_us: Vec<f64>,
    counts: Counts,
    swap_plain_ns: Vec<f64>,
}

impl Serve {
    /// Starts a server, runs both phases (and in the traced run their
    /// traced passes) and shuts it down.
    pub fn cycle(&mut self, ctx: &Ctx, report: &mut Report) -> Result<(), String> {
        let bound = bind(&ServeConfig {
            port: 0,
            ..ServeConfig::default()
        })?;
        let addr = bound.addr();
        let model = Pigeon::from_artifact(&ctx.setup.artifact).map_err(|e| e.to_string())?;
        let server = std::thread::spawn(move || bound.run(Some(model)));
        let outcome = self.phases(ctx, addr, report);
        request_shutdown();
        let joined = server
            .join()
            .map_err(|_| "server thread panicked".to_owned())?;
        outcome?;
        joined
    }

    fn phases(&mut self, ctx: &Ctx, addr: SocketAddr, report: &mut Report) -> Result<(), String> {
        let before = Scrape::fetch(addr).map_err(io("/v1/metrics"))?;
        self.lone(ctx, addr, report)?;
        let after_lone = Scrape::fetch(addr).map_err(io("/v1/metrics"))?;
        self.loaded(ctx, addr, report)?;
        let after_loaded = Scrape::fetch(addr).map_err(io("/v1/metrics"))?;
        self.lone_delta.add(&after_lone.delta(&before));
        self.loaded_delta.add(&after_loaded.delta(&after_lone));
        if ctx.tracer.is_some() {
            self.traced_lone(ctx, addr, report)?;
            self.traced_swaps(ctx, addr, report)?;
        }
        Ok(())
    }

    /// `lone`: sequential predicts on one keep-alive connection.
    fn lone(&mut self, ctx: &Ctx, addr: SocketAddr, report: &mut Report) -> Result<(), String> {
        let mut conn = Some(Conn::connect(addr).map_err(io("connect"))?);
        let n = ctx.setup.bodies.len();
        let start = self.lone_ms.len();
        warm_up(ctx, &mut conn, addr, start, report);
        for i in 0..LONE_BURST {
            let k = (start + i) % n;
            if let Some(rtt) = predict_once(ctx, &mut conn, addr, k, report) {
                self.lone_ms.push(ms(rtt));
            }
        }
        Ok(())
    }

    /// `loaded`: a closed loop on two keep-alive connections (at most
    /// one per core).
    fn loaded(&mut self, ctx: &Ctx, addr: SocketAddr, report: &mut Report) -> Result<(), String> {
        let clients = ctx.jobs.clamp(1, 2);
        let predicts = AtomicUsize::new(0);
        let n = ctx.setup.bodies.len();
        let batches = ctx.setup.check.batches.len();
        let offset = self.loaded_predict_ms.len();
        let barrier = Barrier::new(clients);
        let results: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|client| {
                    let predicts = &predicts;
                    let barrier = &barrier;
                    scope.spawn(move || {
                        let mut r = Report::default();
                        let mut out = Loaded::new(n + batches);
                        let mut conn = Conn::connect(addr).ok();
                        warm_up(ctx, &mut conn, addr, offset + client * n / 2, &mut r);
                        barrier.wait();
                        let started = Instant::now();
                        let swaps = if client == 0 { SWAPS } else { 0 };
                        let mut op = 0usize;
                        while predicts.load(Ordering::Relaxed) < LOADED_BURST
                            || out.swap_ms.len() < swaps
                        {
                            if out.swap_ms.len() < swaps && op % SWAP_EVERY == SWAP_EVERY - 1 {
                                if let Some(d) = swap_once(ctx, &mut conn, addr, &mut r) {
                                    out.swap_ms.push(ms(d));
                                }
                            } else if op % BATCH_EVERY == BATCH_EVERY - 1 {
                                let b = (offset + client * 7 + op / BATCH_EVERY) % batches;
                                out.sent[n + b] += 1;
                                if batch_once(ctx, &mut conn, addr, b, &mut r) {
                                    out.programs += BATCH;
                                }
                            } else {
                                let k = (offset + client * n / 2 + op) % n;
                                out.sent[k] += 1;
                                if let Some(d) = predict_once(ctx, &mut conn, addr, k, &mut r) {
                                    out.predict_ms.push(ms(d));
                                    out.programs += 1;
                                    predicts.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            op += 1;
                            if op > 50 && r.tally.failed * 2 > r.tally.attempted {
                                break;
                            }
                        }
                        (started, Instant::now(), out, r)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("loaded client"))
                .collect()
        });
        let first = results
            .iter()
            .map(|r| r.0)
            .min()
            .expect("at least one client");
        let last = results
            .iter()
            .map(|r| r.1)
            .max()
            .expect("at least one client");
        self.loaded_wall += last - first;
        if self.sent.is_empty() {
            self.sent = vec![0; n + batches];
        }
        for (_, _, out, r) in results {
            report.absorb(r);
            self.loaded_programs += out.programs;
            self.loaded_predict_ms.extend(out.predict_ms);
            self.swap_ms.extend(out.swap_ms);
            for (t, s) in self.sent.iter_mut().zip(out.sent) {
                *t += s;
            }
        }
        Ok(())
    }

    /// The traced `lone` pass. Per request, the round trip is the root
    /// span (its self time is `serve.rest`: framing, socket I/O, queue
    /// wait and response encode); the request body's JSON decode and
    /// the recomposed predict of the same program are its children,
    /// timed in process right after the round trip.
    fn traced_lone(
        &mut self,
        ctx: &Ctx,
        addr: SocketAddr,
        report: &mut Report,
    ) -> Result<(), String> {
        const PHASE: &str = "lone";
        let tr = ctx.tracer.expect("traced run");
        let mut conn = Some(Conn::connect(addr).map_err(io("connect"))?);
        let n = ctx.setup.bodies.len();
        let start = self.overhead_us.len();
        for i in start..start + TRACED_LONE {
            let k = i % n;
            let request = Some(i as u64);
            let Some(rtt) = predict_once(ctx, &mut conn, addr, k, report) else {
                continue;
            };
            let root = tr.record(PHASE, "serve.rest", None, request, rtt);
            let body = std::str::from_utf8(&ctx.setup.bodies[k]).expect("bodies are UTF-8");
            let t = Instant::now();
            let decoded = serde_json::from_str::<serde_json::Value>(body);
            tr.record(
                PHASE,
                "serde_json.body_decode",
                Some(root),
                request,
                t.elapsed(),
            );
            report.check(decoded.is_ok(), || format!("body {k} does not decode"));
            let program = &ctx.setup.inputs.programs[k];
            let counts = &mut self.counts;
            let predicted = tr.span(PHASE, UNATTRIBUTED, Some(root), request, |p| {
                layers::predict(tr, PHASE, p, request, &ctx.setup.served, program, counts)
            });
            report.check(
                predicted
                    .as_ref()
                    .is_ok_and(|p| layers::same_predictions(p, &ctx.setup.check.reference[k], 0.0)),
                || format!("traced predict of program {k} differs from the facade's"),
            );
            let t = Instant::now();
            let facade = ctx.setup.served.predict(program);
            let predict_time = t.elapsed();
            report.check(facade.is_ok(), || format!("predict of program {k} failed"));
            self.overhead_us
                .push((rtt.as_secs_f64() - predict_time.as_secs_f64()) * 1e6);
        }
        Ok(())
    }

    /// Hot swaps on an otherwise idle server, plain and traced in
    /// alternation: the traced round trip is the root (`serve.rest`),
    /// `Pigeon::load` on the same bytes its child.
    fn traced_swaps(
        &mut self,
        ctx: &Ctx,
        addr: SocketAddr,
        report: &mut Report,
    ) -> Result<(), String> {
        const PHASE: &str = "swap";
        let tr = ctx.tracer.expect("traced run");
        let mut conn = Some(Conn::connect(addr).map_err(io("connect"))?);
        // One untimed swap first: the first upload on a connection pays
        // for buffers the rest reuse.
        swap_once(ctx, &mut conn, addr, report);
        for i in 0..TRACED_SWAPS {
            if let Some(d) = swap_once(ctx, &mut conn, addr, report) {
                self.swap_plain_ns.push(d.as_nanos() as f64);
            }
            let Some(rtt) = swap_once(ctx, &mut conn, addr, report) else {
                continue;
            };
            let root = tr.record(PHASE, "serve.rest", None, Some(i as u64), rtt);
            let t = Instant::now();
            let loaded = Pigeon::load(&ctx.setup.artifact);
            tr.record(
                PHASE,
                "crf.artifact_load",
                Some(root),
                Some(i as u64),
                t.elapsed(),
            );
            report.check(loaded.is_ok(), || "artifact does not load".to_owned());
        }
        Ok(())
    }

    pub fn finish(self, ctx: &Ctx, report: &mut Report) -> Result<(), String> {
        if self.lone_ms.is_empty() || self.loaded_predict_ms.is_empty() || self.swap_ms.is_empty() {
            return Err("a serve phase completed no request".to_owned());
        }
        report.note(format!(
            "serve: lone {} requests; loaded {} predicts, {} programs, {} swaps; \
             p99 needs {} samples",
            self.lone_ms.len(),
            self.loaded_predict_ms.len(),
            self.loaded_programs,
            self.swap_ms.len(),
            stats::samples_for_tail(99, 100),
        ));
        let Some(tr) = ctx.tracer else {
            report.set("lone_p50_ms", stats::median(&self.lone_ms), "ms");
            let p99 = stats::tail(&self.lone_ms, 99, 100).ok_or("too few lone samples for p99")?;
            report.show("lone_p99_ms", p99, "ms");
            report.set(
                "loaded_programs_per_s",
                self.loaded_programs as f64 / self.loaded_wall.as_secs_f64(),
                "programs/s",
            );
            let p99 = stats::tail(&self.loaded_predict_ms, 99, 100)
                .ok_or("too few loaded samples for p99")?;
            report.show("loaded_p99_ms", p99, "ms");
            report.set("swap_p50_ms", stats::median(&self.swap_ms), "ms");
            return Ok(());
        };
        server_counters("lone", &self.lone_delta, self.lone_ms.len() as f64, report);
        server_counters(
            "loaded",
            &self.loaded_delta,
            self.loaded_programs as f64,
            report,
        );
        // Body decode on the exact bodies the loaded phase sent,
        // weighted by how often each was sent.
        let (mut decode_ns, mut decoded) = (0.0, 0usize);
        for (i, &sent) in self.sent.iter().enumerate().filter(|(_, &s)| s > 0) {
            let n = ctx.setup.bodies.len();
            let body = if i < n {
                &ctx.setup.bodies[i]
            } else {
                &ctx.setup.check.batches[i - n].0
            };
            let text = std::str::from_utf8(body).expect("bodies are UTF-8");
            let t = Instant::now();
            let parsed = serde_json::from_str::<serde_json::Value>(text);
            decode_ns += t.elapsed().as_nanos() as f64 * sent as f64;
            decoded += sent;
            report.check(parsed.is_ok(), || {
                "a request body does not decode".to_owned()
            });
        }
        report.set(
            "serde_json.body_decode_us.loaded",
            decode_ns / decoded.max(1) as f64 / 1e3,
            "us",
        );
        let times = tr.phase_times("lone");
        report.layers(
            "lone",
            &times,
            stats::mean(&self.lone_ms) * 1e6,
            &[
                "js.parse",
                "core.extract",
                "eval.graph",
                "crf.infer",
                "crf.topk",
                "serde_json.body_decode",
                "serve.rest",
            ],
        );
        let per =
            |key: &str| self.counts.get(key).copied().unwrap_or(0.0) / times.ops.max(1) as f64;
        report.set(
            "serve.overhead_us.lone",
            stats::mean(&self.overhead_us),
            "us",
        );
        report.set("js.nodes.lone", per("js.nodes"), "count");
        report.set("core.contexts.lone", per("core.contexts"), "count");
        report.set("crf.topk_calls.lone", per("crf.topk_calls"), "count");
        report.set(
            "eval.feature_hit_share.lone",
            per("eval.pairwise") / per("eval.offered").max(1.0),
            "share",
        );
        let predict = [
            "js.parse",
            "core.extract",
            "eval.graph",
            "crf.infer",
            "crf.topk",
        ]
        .iter()
        .map(|l| times.per_op(l))
        .sum::<f64>();
        report.set(
            "crf.topk_share.lone",
            times.per_op("crf.topk") / predict,
            "share",
        );
        report.layers(
            "swap",
            &tr.phase_times("swap"),
            stats::mean(&self.swap_plain_ns),
            &["crf.artifact_load", "serve.rest"],
        );
        Ok(())
    }
}

struct Loaded {
    programs: usize,
    predict_ms: Vec<f64>,
    swap_ms: Vec<f64>,
    sent: Vec<usize>,
}

impl Loaded {
    fn new(bodies: usize) -> Loaded {
        Loaded {
            programs: 0,
            predict_ms: Vec::new(),
            swap_ms: Vec::new(),
            sent: vec![0; bodies],
        }
    }
}

/// The server's own counters over one phase (summed over cycles), per
/// program where they count work.
fn server_counters(phase: &str, d: &Scrape, programs: f64, report: &mut Report) {
    report.set(
        &format!("serve.queue_wait_us.{phase}"),
        d.hist_p50("pigeon_queue_wait_micros"),
        "us",
    );
    report.set(
        &format!("serve.queue_wait_mean_us.{phase}"),
        d.hist_mean("pigeon_queue_wait_micros", ""),
        "us",
    );
    report.set(
        &format!("serve.batch_size.{phase}"),
        d.hist_mean("pigeon_batch_size", ""),
        "count",
    );
    report.set(
        &format!("serve.rejected.{phase}"),
        d.get("pigeon_queue_rejected_total"),
        "count",
    );
    report.set(
        &format!("serve.connections.{phase}"),
        d.get("pigeon_connections_total"),
        "count",
    );
    let per_program = programs.max(1.0);
    report.set(
        &format!("crf.icm_sweeps.{phase}"),
        d.get("pigeon_icm_sweeps_total") / per_program,
        "count",
    );
    report.set(
        &format!("crf.icm_rescores.{phase}"),
        d.get("pigeon_icm_rescores_total") / per_program,
        "count",
    );
}

/// The open connection, reconnecting after a failed request; a failed
/// connect counts as a failed operation.
fn connected<'a>(
    conn: &'a mut Option<Conn>,
    addr: SocketAddr,
    report: &mut Report,
) -> Option<&'a mut Conn> {
    if conn.is_none() {
        match Conn::connect(addr) {
            Ok(c) => *conn = Some(c),
            Err(e) => {
                report.check(false, || format!("connect: {e}"));
                return None;
            }
        }
    }
    conn.as_mut()
}

fn describe(response: &std::io::Result<(u16, Vec<u8>)>) -> String {
    match response {
        Ok((status, body)) => {
            let text = String::from_utf8_lossy(body);
            format!(
                "status {status}, body {}",
                text.chars().take(200).collect::<String>()
            )
        }
        Err(e) => e.to_string(),
    }
}

/// [`WARMUP`] checked, untimed predicts from program `start` on.
fn warm_up(
    ctx: &Ctx,
    conn: &mut Option<Conn>,
    addr: SocketAddr,
    start: usize,
    report: &mut Report,
) {
    for i in 0..WARMUP {
        predict_once(
            ctx,
            conn,
            addr,
            (start + i) % ctx.setup.bodies.len(),
            report,
        );
    }
}

/// One checked `/v1/predict` round trip of program `k`.
fn predict_once(
    ctx: &Ctx,
    conn: &mut Option<Conn>,
    addr: SocketAddr,
    k: usize,
    report: &mut Report,
) -> Option<Duration> {
    let c = connected(conn, addr, report)?;
    let t = Instant::now();
    let response = c.request("POST", "/v1/predict", &ctx.setup.bodies[k]);
    let rtt = t.elapsed();
    let ok = matches!(&response, Ok((200, body)) if body.ends_with(ctx.setup.check.expected[k].as_bytes()));
    if response.is_err() {
        *conn = None;
    }
    report
        .check(ok, || {
            format!("/v1/predict of program {k}: {}", describe(&response))
        })
        .then_some(rtt)
}

fn batch_once(
    ctx: &Ctx,
    conn: &mut Option<Conn>,
    addr: SocketAddr,
    b: usize,
    report: &mut Report,
) -> bool {
    let Some(c) = connected(conn, addr, report) else {
        return false;
    };
    let (body, tail) = &ctx.setup.check.batches[b];
    let response = c.request("POST", "/v1/predict_batch", body);
    let ok = matches!(&response, Ok((200, r)) if r.ends_with(tail.as_bytes()));
    if response.is_err() {
        *conn = None;
    }
    report.check(ok, || {
        format!("/v1/predict_batch {b}: {}", describe(&response))
    })
}

fn swap_once(
    ctx: &Ctx,
    conn: &mut Option<Conn>,
    addr: SocketAddr,
    report: &mut Report,
) -> Option<Duration> {
    let c = connected(conn, addr, report)?;
    let t = Instant::now();
    let response = c.request("POST", "/v1/models", &ctx.setup.artifact);
    let rtt = t.elapsed();
    let ok = matches!(&response, Ok((200, body))
        if String::from_utf8_lossy(body).contains("\"format\":\"artifact\""));
    if response.is_err() {
        *conn = None;
    }
    report
        .check(ok, || format!("POST /v1/models: {}", describe(&response)))
        .then_some(rtt)
}
