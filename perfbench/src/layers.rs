//! The facade's train and predict paths recomposed from each layer's
//! public functions, with a span around every layer call. The traced
//! run checks that the recomposition gives the facade's own output.

use crate::trace::{SpanId, Tracer};
use pigeon::corpus::Language;
use pigeon::crf::{CrfConfig, CrfModel, Instance, RawStatistics};
use pigeon::eval::{
    build_name_graph, build_name_graph_lookup, extract_edge_features, parallel_map_indexed,
    ElementClass, Representation, Vocabs,
};
use pigeon::{Pigeon, PigeonConfig, Prediction};
use std::collections::BTreeMap;

/// Counts taken at layer boundaries, keyed by metric name.
pub type Counts = BTreeMap<String, f64>;

pub fn add(counts: &mut Counts, key: &str, n: f64) {
    *counts.entry(key.to_owned()).or_default() += n;
}

/// The crate (module) name of a language's frontend.
pub fn module(language: Language) -> &'static str {
    match language {
        Language::JavaScript => "js",
        Language::Java => "java",
        Language::Python => "python",
        Language::CSharp => "csharp",
    }
}

/// `Pigeon::predict`, one layer at a time.
pub fn predict(
    tr: &Tracer,
    phase: &'static str,
    parent: SpanId,
    request: Option<u64>,
    model: &Pigeon,
    source: &str,
    counts: &mut Counts,
) -> Result<Vec<Prediction>, String> {
    let cfg = PigeonConfig::default();
    let language = model.language();
    let m = module(language);
    let ast = tr.span(phase, &format!("{m}.parse"), Some(parent), request, |_| {
        language.parse(source)
    })?;
    add(counts, &format!("{m}.nodes"), ast.len() as f64);
    let rep = Representation::AstPaths(cfg.abstraction);
    let features = tr.span(phase, "core.extract", Some(parent), request, |_| {
        extract_edge_features(language, &ast, rep, &cfg.extraction)
    });
    add(counts, "core.contexts", features.len() as f64);
    let graph = tr.span(phase, "eval.graph", Some(parent), request, |_| {
        build_name_graph_lookup(
            language,
            &ast,
            ElementClass::Variable,
            &features,
            model.vocabs(),
        )
    });
    add(counts, "eval.offered", features.len() as f64);
    add(
        counts,
        "eval.pairwise",
        graph.instance.pairwise.len() as f64,
    );
    let crf = model.crf_model();
    let labels = tr.span(phase, "crf.infer", Some(parent), request, |_| {
        crf.predict(&graph.instance)
    });
    add(counts, "crf.topk_calls", graph.unknown_nodes.len() as f64);
    Ok(tr.span(phase, "crf.topk", Some(parent), request, |_| {
        graph
            .unknown_nodes
            .iter()
            .map(|&node| Prediction {
                current_name: graph.node_names[node].clone(),
                predicted_name: model.vocabs().label_name(labels[node]).to_owned(),
                candidates: crf
                    .top_k(&graph.instance, node, cfg.top_k)
                    .into_iter()
                    .map(|(l, s)| (model.vocabs().label_name(l).to_owned(), s))
                    .collect(),
            })
            .collect()
    }))
}

/// What [`train`] built, for the checks against the facade.
pub struct Trained {
    pub instances: Vec<Instance>,
    pub num_labels: u32,
    pub crf: CrfConfig,
    pub model: CrfModel,
}

/// `Pigeon::train_variable_namer`, one layer at a time, with the same
/// worker fan-out: parse and extract run on `jobs` threads, statistics
/// are collected over 16 chunks on `jobs` threads, SGD is serial.
pub fn train(
    tr: &Tracer,
    phase: &'static str,
    parent: SpanId,
    language: Language,
    sources: &[String],
    jobs: usize,
    counts: &mut Counts,
) -> Result<Trained, String> {
    let cfg = PigeonConfig::default();
    let m = module(language);
    let parse_layer = format!("{m}.parse");
    let rep = Representation::AstPaths(cfg.abstraction);
    let extracted = tr.parallel(phase, "parse_extract", Some(parent), |region| {
        parallel_map_indexed(sources, jobs, |_, source| {
            let ast = tr.span(phase, &parse_layer, Some(region), None, |_| {
                language.parse(source)
            })?;
            let features = tr.span(phase, "core.extract", Some(region), None, |_| {
                extract_edge_features(language, &ast, rep, &cfg.extraction)
            });
            Ok::<_, String>((ast, features))
        })
    });
    let mut vocabs = Vocabs::new();
    let mut instances = Vec::with_capacity(sources.len());
    tr.span(phase, "eval.graph", Some(parent), None, |_| {
        for item in extracted {
            let (ast, features) = item?;
            add(counts, &format!("{m}.nodes"), ast.len() as f64);
            add(counts, "core.contexts", features.len() as f64);
            add(counts, "eval.offered", features.len() as f64);
            let graph = build_name_graph(
                language,
                &ast,
                ElementClass::Variable,
                &features,
                &mut vocabs,
                true,
            );
            add(
                counts,
                "eval.pairwise",
                graph.instance.pairwise.len() as f64,
            );
            instances.push(graph.instance);
        }
        Ok::<_, String>(())
    })?;
    add(
        counts,
        "eval.features_interned",
        vocabs.features.len() as f64,
    );
    let num_labels = vocabs.labels.len() as u32;
    let crf = CrfConfig { jobs, ..cfg.crf };
    let stats = tr.parallel(phase, "crf.statistics", Some(parent), |region| {
        let chunk = instances.len().div_ceil(16).max(1);
        let chunks: Vec<&[Instance]> = instances.chunks(chunk).collect();
        let mut parts = parallel_map_indexed(&chunks, jobs, |_, c| {
            tr.span(phase, "crf.statistics", Some(region), None, |_| {
                RawStatistics::collect(c, num_labels)
            })
        })
        .into_iter();
        let mut stats = parts
            .next()
            .unwrap_or_else(|| RawStatistics::new(num_labels));
        for part in parts {
            stats.absorb(&part);
        }
        stats
    });
    let model = tr.span(phase, "crf.sgd", Some(parent), None, |_| {
        pigeon::crf::train_from_statistics(&instances, num_labels, &crf, stats)
    })?;
    Ok(Trained {
        instances,
        num_labels,
        crf,
        model,
    })
}

/// Predictions rendered exactly as the server renders them.
pub fn predictions_json(predictions: &[Prediction]) -> String {
    let value = serde_json::Value::Array(
        predictions
            .iter()
            .map(|p| {
                serde_json::json!({
                    "current_name": p.current_name,
                    "predicted_name": p.predicted_name,
                    "candidates": serde_json::Value::Array(
                        p.candidates
                            .iter()
                            .map(|(name, score)| serde_json::json!([name, score]))
                            .collect(),
                    ),
                })
            })
            .collect(),
    );
    serde_json::to_string(&value).expect("predictions render")
}

/// Whether two prediction lists name the same elements with the same
/// ranked candidates. Scores must agree within `tolerance`: a JSON model
/// scores in `f64`, its compiled `f32` artifact in `f32`.
pub fn same_predictions(a: &[Prediction], b: &[Prediction], tolerance: f32) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.current_name == y.current_name
                && x.predicted_name == y.predicted_name
                && x.candidates.len() == y.candidates.len()
                && x.candidates
                    .iter()
                    .zip(&y.candidates)
                    .all(|(c, d)| c.0 == d.0 && (c.1 - d.1).abs() <= tolerance * c.1.abs().max(1.0))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(name: &str, score: f32) -> Prediction {
        Prediction {
            current_name: "a".to_owned(),
            predicted_name: name.to_owned(),
            candidates: vec![(name.to_owned(), score)],
        }
    }

    #[test]
    fn prediction_comparison_is_exact_on_names_and_bounded_on_scores() {
        assert!(same_predictions(&[p("x", 1.0)], &[p("x", 1.0)], 0.0));
        assert!(same_predictions(
            &[p("x", 1.0)],
            &[p("x", 1.0 + 1e-6)],
            1e-4
        ));
        assert!(!same_predictions(&[p("x", 1.0)], &[p("x", 1.1)], 1e-4));
        assert!(!same_predictions(&[p("x", 1.0)], &[p("y", 1.0)], 1e-4));
        assert!(!same_predictions(&[p("x", 1.0)], &[], 1e-4));
    }
}
