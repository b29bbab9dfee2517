//! `cold-predict`: the CLI `pigeon predict --model M FILE` path. Each
//! round reads the model bytes from disk, runs `Pigeon::load` and
//! predicts one held-out program. A JSON round (the format
//! `pigeon train` writes) alternates with a run of `.pgnc` rounds: JSON
//! load is hundreds of times slower, and the artifact rounds need many
//! programs for a steady median because predict is most of their time.

use crate::layers::{self, Counts};
use crate::trace::UNATTRIBUTED;
use crate::{stats, Ctx, Report};
use pigeon::{Pigeon, Prediction};
use std::path::Path;
use std::time::Instant;

/// `.pgnc` rounds after each JSON round.
const ARTIFACT_PER_JSON: usize = 16;
/// Relative score difference allowed between the JSON model (`f64`
/// weights) and its `f32` artifact.
const SCORE_TOLERANCE: f32 = 1e-4;

fn round(path: &Path, program: &str) -> Result<Vec<Prediction>, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let model = Pigeon::load(&bytes).map_err(|e| e.to_string())?;
    model.predict(program).map_err(|e| e.to_string())
}

#[derive(Default)]
pub struct Cold {
    json_ms: Vec<f64>,
    artifact_ms: Vec<f64>,
    next: usize,
    traced_next: usize,
    counts: Counts,
}

fn tolerance(json: bool) -> f32 {
    if json {
        SCORE_TOLERANCE
    } else {
        0.0
    }
}

impl Cold {
    /// One JSON round and its [`ARTIFACT_PER_JSON`] artifact rounds;
    /// in the traced run, then the same programs again, traced.
    pub fn cycle(&mut self, ctx: &Ctx, report: &mut Report) {
        let setup = ctx.setup;
        for i in 0..=ARTIFACT_PER_JSON {
            let path = if i == 0 {
                &setup.json_path
            } else {
                &setup.artifact_path
            };
            let program = self.next % setup.inputs.programs.len();
            self.next += 1;
            let t = Instant::now();
            let result = round(path, &setup.inputs.programs[program]);
            let elapsed = t.elapsed().as_secs_f64() * 1e3;
            let ok = result.as_ref().is_ok_and(|p| {
                layers::same_predictions(p, &setup.check.reference[program], tolerance(i == 0))
            });
            if report.check(ok, || {
                format!(
                    "cold predict of program {program} from {}: {:?}",
                    path.display(),
                    result.err()
                )
            }) {
                if i == 0 {
                    &mut self.json_ms
                } else {
                    &mut self.artifact_ms
                }
                .push(elapsed);
            }
        }
        if let Some(tr) = ctx.tracer {
            traced_cycle(ctx, tr, &mut self.traced_next, &mut self.counts, report);
        }
    }

    pub fn finish(self, ctx: &Ctx, report: &mut Report) -> Result<(), String> {
        if self.json_ms.is_empty() || self.artifact_ms.is_empty() {
            return Err("no cold round succeeded".to_owned());
        }
        report.note(format!(
            "cold-predict: {} JSON rounds, {} artifact rounds",
            self.json_ms.len(),
            self.artifact_ms.len()
        ));
        let Some(tr) = ctx.tracer else {
            report.set("cold_json_ms", stats::median(&self.json_ms), "ms");
            report.set("cold_artifact_ms", stats::median(&self.artifact_ms), "ms");
            return Ok(());
        };
        let predict_layers = [
            "js.parse",
            "core.extract",
            "eval.graph",
            "crf.infer",
            "crf.topk",
            "fs.read",
        ];
        let mut json_layers = vec!["serde_json.model_decode", "crf.from_json"];
        json_layers.extend(predict_layers);
        let mut artifact_layers = vec!["crf.artifact_load"];
        artifact_layers.extend(predict_layers);
        let json_times = tr.phase_times("cold_json");
        report.set(
            "serde_json.model_decode_share.cold_json",
            json_times.per_op("serde_json.model_decode") / stats::mean(&self.json_ms) / 1e6,
            "share",
        );
        report.layers(
            "cold_json",
            &json_times,
            stats::mean(&self.json_ms) * 1e6,
            &json_layers,
        );
        report.layers(
            "cold_artifact",
            &tr.phase_times("cold_artifact"),
            stats::mean(&self.artifact_ms) * 1e6,
            &artifact_layers,
        );
        Ok(())
    }
}

/// A traced cycle. The JSON decode cannot be reached inside
/// `Pigeon::load`, so the same `serde_json::from_str` calls on the same
/// text (the outer document and the nested model string) are timed
/// right after it and recorded as its child; `crf.from_json` keeps the
/// rest. Decode is nearly all of the load, so that rest is within the
/// host's noise of zero and can read negative.
fn traced_cycle(
    ctx: &Ctx,
    tr: &crate::trace::Tracer,
    k: &mut usize,
    counts: &mut Counts,
    report: &mut Report,
) {
    let setup = ctx.setup;
    for i in 0..=ARTIFACT_PER_JSON {
        let (phase, path) = if i == 0 {
            ("cold_json", &setup.json_path)
        } else {
            ("cold_artifact", &setup.artifact_path)
        };
        let program = *k % setup.inputs.programs.len();
        *k += 1;
        let predicted = tr.span(phase, UNATTRIBUTED, None, Some(*k as u64), |root| {
            let bytes = tr
                .span(phase, "fs.read", Some(root), None, |_| std::fs::read(path))
                .map_err(|e| e.to_string())?;
            let load_layer = if i == 0 {
                "crf.from_json"
            } else {
                "crf.artifact_load"
            };
            let (model, load) = tr.span(phase, load_layer, Some(root), None, |load| {
                (Pigeon::load(&bytes), load)
            });
            if i == 0 {
                // Timed outside the load span, recorded inside it.
                let t = Instant::now();
                let decoded = decode_model(&bytes);
                tr.record(
                    phase,
                    "serde_json.model_decode",
                    Some(load),
                    None,
                    t.elapsed(),
                );
                decoded?;
            }
            let model = model.map_err(|e| e.to_string())?;
            tr.span(phase, UNATTRIBUTED, Some(root), None, |p| {
                layers::predict(
                    tr,
                    phase,
                    p,
                    None,
                    &model,
                    &setup.inputs.programs[program],
                    counts,
                )
            })
        });
        report.check(
            predicted.as_ref().is_ok_and(|p| {
                layers::same_predictions(p, &setup.check.reference[program], tolerance(i == 0))
            }),
            || {
                format!(
                    "traced cold predict of program {program}: {:?}",
                    predicted.err()
                )
            },
        );
    }
}

/// The JSON decode `Pigeon::from_json` runs: the model document, then
/// the CRF model it nests as a string.
fn decode_model(bytes: &[u8]) -> Result<(), String> {
    let text = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
    let outer: serde_json::Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let inner = outer
        .get("model")
        .and_then(|m| m.as_str())
        .ok_or("model JSON has no nested model string")?;
    serde_json::from_str::<serde_json::Value>(inner).map_err(|e| e.to_string())?;
    Ok(())
}
