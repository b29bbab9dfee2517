//! Integration tests for the `Pigeon` facade: persistence and behaviour
//! parity with the experiment drivers.

use pigeon::corpus::{generate, CorpusConfig, Language};
use pigeon::{Pigeon, PigeonConfig};

fn trained_namer(language: Language, files: usize) -> Pigeon {
    let corpus = generate(language, &CorpusConfig::default().with_files(files));
    let sources: Vec<&str> = corpus.docs.iter().map(|d| d.source.as_str()).collect();
    Pigeon::train_variable_namer(language, &sources, &PigeonConfig::default())
        .expect("training corpus parses")
}

#[test]
fn facade_json_round_trip_preserves_predictions() {
    let namer = trained_namer(Language::JavaScript, 150);
    let json = namer.to_json().expect("serialises");
    let restored = Pigeon::from_json(&json).expect("deserialises");
    assert_eq!(restored.language(), Language::JavaScript);

    for query in [
        "function f() { var d = false; while (!d) { if (go()) { d = true; } } }",
        "function g(xs) { var n = 0; for (var x of xs) { n += x; } return n; }",
        "function h(a, b, c) { b.open('GET', a, false); b.send(c); }",
    ] {
        let before = namer.predict(query).expect("parses");
        let after = restored.predict(query).expect("parses");
        assert_eq!(before.len(), after.len());
        for (x, y) in before.iter().zip(&after) {
            assert_eq!(x.current_name, y.current_name);
            assert_eq!(x.predicted_name, y.predicted_name);
            let xc: Vec<&String> = x.candidates.iter().map(|(n, _)| n).collect();
            let yc: Vec<&String> = y.candidates.iter().map(|(n, _)| n).collect();
            assert_eq!(xc, yc);
        }
    }
}

#[test]
fn facade_rejects_garbage_model_files() {
    assert!(Pigeon::from_json("{}").is_err());
    assert!(Pigeon::from_json("not json at all").is_err());
    assert!(Pigeon::from_json(r#"{"language": "klingon"}"#).is_err());
}

/// A model whose weight tables reference ids beyond the stored
/// vocabularies must be rejected with a named mismatch, not loaded (it
/// would panic or silently mispredict later).
#[test]
fn facade_rejects_model_with_out_of_range_ids() {
    let namer = trained_namer(Language::JavaScript, 60);
    let json = namer.to_json().expect("serialises");

    // Truncate the feature vocabulary: every id the weight tables
    // mention past the cut is now dangling.
    let truncated = {
        let mut v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let features = v
            .get_mut("features")
            .and_then(|x| x.as_array_mut())
            .expect("feature vocab array");
        assert!(features.len() > 1, "test needs a non-trivial vocabulary");
        features.truncate(1);
        serde_json::to_string(&v).unwrap()
    };
    let err = Pigeon::from_json(&truncated).expect_err("must reject");
    let msg = err.to_string();
    assert!(
        msg.contains("feature") && msg.contains("vocabulary"),
        "error should name the mismatched table: {msg}"
    );

    // Same for labels: the label-count table no longer lines up.
    let truncated = {
        let mut v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let labels = v
            .get_mut("labels")
            .and_then(|x| x.as_array_mut())
            .expect("label vocab array");
        labels.truncate(1);
        serde_json::to_string(&v).unwrap()
    };
    let err = Pigeon::from_json(&truncated).expect_err("must reject");
    assert!(err.to_string().contains("label"), "{err}");
}

/// `predict_batch` is a parallel fan-out over `predict`: for every jobs
/// count the results must be identical to the sequential loop, in
/// source order.
#[test]
fn predict_batch_matches_sequential_predict_exactly() {
    let namer = trained_namer(Language::JavaScript, 120);
    let sources = [
        "function f() { var d = false; while (!d) { if (go()) { d = true; } } }",
        "function { syntax error",
        "function g(xs) { var n = 0; for (var x of xs) { n += x; } return n; }",
        "function h(a, b, c) { b.open(0, a, false); b.send(c); }",
    ];
    let sequential: Vec<String> = sources
        .iter()
        .map(|s| format!("{:?}", namer.predict(s)))
        .collect();
    for jobs in [1usize, 4] {
        let batched: Vec<String> = namer
            .predict_batch(&sources, jobs)
            .iter()
            .map(|r| format!("{r:?}"))
            .collect();
        assert_eq!(batched, sequential, "jobs={jobs} diverged from serial");
    }
}

/// One prediction with its candidates' scores as bits, so equality is
/// exact: `(current name, predicted name, [(candidate, score bits)])`.
type Ranked = (String, String, Vec<(String, u32)>);

/// `Pigeon::predict` ranks every unknown from one MAP run; the reference
/// here re-derives each ranking with the per-node `top_k` oracle (one MAP
/// run per unknown). Labels, candidate order and score bits must agree
/// on corpus programs in every language.
#[test]
fn predict_equals_the_per_node_top_k_reference_in_every_language() {
    use pigeon::eval::{
        build_name_graph_lookup, extract_edge_features, ElementClass, Representation,
    };
    for language in [
        Language::JavaScript,
        Language::Java,
        Language::Python,
        Language::CSharp,
    ] {
        let namer = trained_namer(language, 60);
        let config = PigeonConfig::default();
        let queries = generate(
            language,
            &CorpusConfig::default().with_files(6).with_seed(77),
        );
        let mut ranked = 0;
        for doc in &queries.docs {
            let ast = language.parse(&doc.source).expect("corpus parses");
            let rep = Representation::AstPaths(config.abstraction);
            let features = extract_edge_features(language, &ast, rep, &config.extraction);
            let graph = build_name_graph_lookup(
                language,
                &ast,
                ElementClass::Variable,
                &features,
                namer.vocabs(),
            );
            let crf = namer.crf_model();
            let labels = crf.predict(&graph.instance);
            let reference: Vec<Ranked> = graph
                .unknown_nodes
                .iter()
                .map(|&node| {
                    let top = crf
                        .top_k(&graph.instance, node, config.top_k)
                        .into_iter()
                        .map(|(l, s)| (namer.vocabs().label_name(l).to_owned(), s.to_bits()))
                        .collect();
                    let name = namer.vocabs().label_name(labels[node]).to_owned();
                    (graph.node_names[node].clone(), name, top)
                })
                .collect();
            let actual: Vec<Ranked> = namer
                .predict(&doc.source)
                .expect("corpus parses")
                .into_iter()
                .map(|p| {
                    let top = p
                        .candidates
                        .into_iter()
                        .map(|(n, s)| (n, s.to_bits()))
                        .collect();
                    (p.current_name, p.predicted_name, top)
                })
                .collect();
            assert_eq!(
                actual, reference,
                "{language:?} diverged on:\n{}",
                doc.source
            );
            ranked += reference.len();
        }
        assert!(ranked > 0, "{language:?}: the queries had no unknowns");
    }
}

/// Sources nested just inside the frontends' depth cap run through every
/// pass that walks the tree — predict (extraction, graph, CRF), the
/// data-flow features and the audit lints — on a 2 MiB worker-sized
/// stack: the cap bounds their recursion, not just the parser's.
#[test]
fn sources_nested_near_the_cap_predict_and_audit_on_a_worker_stack() {
    let chain = |op: &str| vec!["a"; 100].join(op);
    let nest = |open: &str, core: &str, close: &str, n: usize| {
        format!("{}{core}{}", open.repeat(n), close.repeat(n))
    };
    let programs = [
        (
            Language::JavaScript,
            format!(
                "function f(a) {{ var x = {}; var y = {}; {} return x; }}",
                chain(" + "),
                nest("(", "a", ")", 40),
                nest("if (a) {", "x = a;", "}", 40),
            ),
        ),
        (
            Language::Java,
            format!(
                "class C {{ int f(int a) {{ int x = {}; int y = {}; {} return x; }} }}",
                chain(" + "),
                nest("(", "a", ")", 40),
                nest("if (a > 0) {", "x = a;", "}", 40),
            ),
        ),
        (
            Language::Python,
            format!(
                "def f(a):\n    x = {}\n    y = {}\n    return x\n",
                chain(" + "),
                nest("(", "a", ")", 30),
            ),
        ),
        (
            Language::CSharp,
            format!(
                "class C {{ int F(int a) {{ int x = {}; int y = {}; {} return x; }} }}",
                chain(" + "),
                nest("(", "a", ")", 30),
                nest("if (a > 0) {", "x = a;", "}", 40),
            ),
        ),
    ];
    for (language, source) in programs {
        let ast = language.parse(&source).expect("inside the cap");
        assert!(ast.height() > 100, "{language:?}: height {}", ast.height());
        let namer = trained_namer(language, 20);
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                let ast = language.parse(&source).expect("inside the cap");
                let config = PigeonConfig::default();
                pigeon::dataflow_edge_features(
                    language,
                    &ast,
                    &config.extraction,
                    config.abstraction,
                );
                pigeon::analysis::audit_ast(language, "deep", &ast);
                namer.predict(&source).expect("predicts")
            })
            .expect("spawns")
            .join()
            .expect("no pass overflows a worker stack");
    }
}

#[test]
fn facade_surfaces_parse_errors() {
    let namer = trained_namer(Language::JavaScript, 40);
    let err = namer.predict("function { syntax error").unwrap_err();
    assert!(err.to_string().contains("parse error"));
}

#[test]
fn method_namer_targets_methods_not_variables() {
    let corpus = generate(Language::Python, &CorpusConfig::default().with_files(150));
    let sources: Vec<&str> = corpus.docs.iter().map(|d| d.source.as_str()).collect();
    let namer =
        Pigeon::train_method_namer(Language::Python, &sources, &PigeonConfig::default()).unwrap();
    let query = "def m(xs, t):\n    c = 0\n    for x in xs:\n        if x == t:\n            \
                 c += 1\n    return c\n";
    let predictions = namer.predict(query).unwrap();
    assert_eq!(predictions.len(), 1, "only the function name is unknown");
    assert_eq!(predictions[0].current_name, "m");
}

#[test]
fn config_builder_matches_default_and_validates() {
    use pigeon::ErrorKind;

    // A builder with no overrides reproduces `PigeonConfig::default()`,
    // so existing `Default` users lose nothing by migrating.
    let built = PigeonConfig::builder().build().expect("defaults are valid");
    let default = PigeonConfig::default();
    assert_eq!(built.extraction.max_length, default.extraction.max_length);
    assert_eq!(built.extraction.max_width, default.extraction.max_width);
    assert_eq!(built.top_k, default.top_k);
    assert_eq!(built.jobs, default.jobs);
    assert_eq!(built.keep_prob, default.keep_prob);

    for (config, needle) in [
        (PigeonConfig::builder().limits(0, 3).build(), "max_length"),
        (PigeonConfig::builder().keep_prob(0.0).build(), "keep_prob"),
        (PigeonConfig::builder().keep_prob(1.5).build(), "keep_prob"),
        (
            PigeonConfig::builder().keep_prob(f64::NAN).build(),
            "keep_prob",
        ),
        (PigeonConfig::builder().top_k(0).build(), "top_k"),
    ] {
        let err = config.expect_err(needle);
        assert_eq!(err.kind(), ErrorKind::Config, "{err}");
        assert_eq!(err.code(), "config");
        assert!(err.to_string().contains(needle), "{err}");
    }
}

#[test]
fn errors_carry_stable_machine_readable_codes() {
    use pigeon::ErrorKind;

    let namer = trained_namer(Language::JavaScript, 40);
    let err = namer.predict("function { syntax error").unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Parse);
    assert_eq!(err.code(), "parse");

    let err = Pigeon::from_json("{\"not\": \"a model\"}").unwrap_err();
    assert_eq!(err.kind(), ErrorKind::ModelFormat);
    assert_eq!(err.code(), "model-format");

    // Codes are part of the serve wire format; they must never drift.
    assert_eq!(ErrorKind::Config.code(), "config");
    assert_eq!(ErrorKind::Io.code(), "io");
    assert_eq!(ErrorKind::Internal.code(), "internal");
}
