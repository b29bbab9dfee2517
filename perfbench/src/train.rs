//! `train`: one variable namer per language per cycle, with
//! `jobs = nproc`; the only phase that runs all four parsers and where
//! CRF statistics and SGD do most of the work.

use crate::layers::{self, module, Counts};
use crate::trace::UNATTRIBUTED;
use crate::{refs, stats, train_config, Ctx, Report};
use pigeon::corpus::Language;
use pigeon::eval::exact_match;
use pigeon::Pigeon;
use std::time::Instant;

const PHASE: &str = "train";

#[derive(Default)]
pub struct Train {
    rates: Vec<f64>,
    round_ns: Vec<f64>,
    /// The first round's namers and vocabulary sizes.
    first: Vec<Pigeon>,
    shapes: Vec<(usize, usize)>,
    counts: Counts,
    traced_rounds: usize,
}

impl Train {
    /// One plain round, then (in the traced run) one traced round.
    pub fn cycle(&mut self, ctx: &Ctx, report: &mut Report) -> Result<(), String> {
        let train = &ctx.setup.inputs.train;
        let files: usize = train.iter().map(|(_, d)| d.len()).sum();
        let t = Instant::now();
        let mut models = Vec::new();
        for (language, sources) in train {
            let result =
                Pigeon::train_variable_namer(*language, &refs(sources), &train_config(ctx.jobs));
            if report.check(result.is_ok(), || {
                format!("train {}: {:?}", language.name(), result.as_ref().err())
            }) {
                models.push(result.expect("checked"));
            }
        }
        let elapsed = t.elapsed();
        self.rates.push(files as f64 / elapsed.as_secs_f64());
        self.round_ns.push(elapsed.as_nanos() as f64);
        let shapes: Vec<(usize, usize)> = models
            .iter()
            .map(|m| (m.vocabs().labels.len(), m.vocabs().features.len()))
            .collect();
        if self.first.is_empty() {
            self.first = models;
            self.shapes = shapes;
        } else {
            report.check(shapes == self.shapes, || {
                "training is not deterministic across rounds".to_owned()
            });
        }
        if let Some(tr) = ctx.tracer {
            let counts = &mut self.counts;
            let built = tr.span(PHASE, UNATTRIBUTED, None, None, |root| {
                train
                    .iter()
                    .map(|(language, sources)| {
                        layers::train(tr, PHASE, root, *language, sources, ctx.jobs, counts)
                    })
                    .collect::<Result<Vec<_>, _>>()
            })?;
            if self.traced_rounds == 0 {
                // The recomposition must train the facade's model, and
                // the statistics + SGD split must train
                // `pigeon_crf::train`'s.
                for ((trained, model), (language, _)) in built.iter().zip(&self.first).zip(train) {
                    let ours = trained.model.to_json().map_err(|e| e.to_string())?;
                    let crf =
                        pigeon::crf::train(&trained.instances, trained.num_labels, &trained.crf);
                    report.check(
                        crf.to_json().map_err(|e| e.to_string())? == ours
                            && model.crf_model().to_json().map_err(|e| e.to_string())? == ours,
                        || format!("traced {} train differs from the facade's", language.name()),
                    );
                }
            }
            self.traced_rounds += 1;
        }
        Ok(())
    }

    pub fn finish(self, ctx: &Ctx, report: &mut Report) {
        report.note(format!("train: {} rounds", self.rates.len()));
        let Some(tr) = ctx.tracer else {
            report.set("train_files_per_s", stats::median(&self.rates), "files/s");
            let top1 = heldout_top1(ctx, &self.first, report);
            report.set("heldout_top1", top1, "share");
            return;
        };
        let times = tr.phase_times(PHASE);
        let mut names: Vec<String> = Language::ALL
            .iter()
            .map(|l| format!("{}.parse", module(*l)))
            .collect();
        names.extend(["core.extract", "eval.graph", "crf.statistics", "crf.sgd"].map(String::from));
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        report.layers(PHASE, &times, stats::mean(&self.round_ns), &names);
        let rounds = self.traced_rounds.max(1) as f64;
        let per_round = |key: &str| self.counts.get(key).copied().unwrap_or(0.0) / rounds;
        for language in Language::ALL {
            let key = format!("{}.nodes", module(language));
            report.set(&format!("{key}.{PHASE}"), per_round(&key), "count");
        }
        report.set("core.contexts.train", per_round("core.contexts"), "count");
        report.set(
            "eval.features_interned.train",
            per_round("eval.features_interned"),
            "count",
        );
        report.set(
            "eval.feature_hit_share.train",
            per_round("eval.pairwise") / per_round("eval.offered").max(1.0),
            "share",
        );
        let crf = times.per_op("crf.statistics") + times.per_op("crf.sgd");
        report.set("crf.share.train", crf / times.layer_sum_per_op(), "share");
    }
}

/// Exact-match share of the first round's namers on held-out programs.
fn heldout_top1(ctx: &Ctx, models: &[Pigeon], report: &mut Report) -> f64 {
    let (mut hits, mut total) = (0usize, 0usize);
    for (model, (language, docs)) in models.iter().zip(&ctx.setup.inputs.heldout) {
        for doc in docs {
            let result = model.predict(doc);
            if !report.check(result.is_ok(), || {
                format!(
                    "held-out predict {}: {:?}",
                    language.name(),
                    result.as_ref().err()
                )
            }) {
                continue;
            }
            for p in result.expect("checked") {
                total += 1;
                hits += usize::from(exact_match(&p.predicted_name, &p.current_name));
            }
        }
    }
    hits as f64 / total.max(1) as f64
}
