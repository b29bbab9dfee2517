//! The compiled binary artifact through the facade: `to_artifact` /
//! `from_artifact` / `load` sniffing, decision identity, and the
//! hardened error path on corrupted or retired-encoding bytes.

use pigeon::corpus::{generate, CorpusConfig, Language};
use pigeon::crf::artifact::{file_checksum, is_artifact, Quant};
use pigeon::{ErrorKind, Pigeon, PigeonConfig};

fn trained_namer() -> Pigeon {
    let corpus = generate(
        Language::JavaScript,
        &CorpusConfig::default().with_files(60),
    );
    let sources: Vec<&str> = corpus.docs.iter().map(|d| d.source.as_str()).collect();
    Pigeon::train_variable_namer(Language::JavaScript, &sources, &PigeonConfig::default()).unwrap()
}

const QUERY: &str = "function f() { var d = false; while (!d) { if (go()) { d = true; } } }";

fn assert_same_predictions(a: &Pigeon, b: &Pigeon) {
    let pa = a.predict(QUERY).unwrap();
    let pb = b.predict(QUERY).unwrap();
    assert!(!pa.is_empty());
    assert_eq!(pa.len(), pb.len());
    for (x, y) in pa.iter().zip(&pb) {
        assert_eq!(x.current_name, y.current_name);
        assert_eq!(x.predicted_name, y.predicted_name);
        assert_eq!(x.candidates.len(), y.candidates.len());
        for ((nx, _), (ny, _)) in x.candidates.iter().zip(&y.candidates) {
            assert_eq!(nx, ny);
        }
    }
}

#[test]
fn artifact_round_trips_through_the_facade() {
    let namer = trained_namer();
    let bytes = namer.to_artifact(Quant::F32).unwrap();
    assert!(is_artifact(&bytes));
    let restored = Pigeon::from_artifact(&bytes).unwrap();
    assert_eq!(restored.language(), Language::JavaScript);
    assert_same_predictions(&namer, &restored);
    // Re-encoding the artifact-backed model reproduces the bytes.
    assert_eq!(restored.to_artifact(Quant::F32).unwrap(), bytes);
    // F32 predictions carry identical scores, not just identical names.
    let pa = namer.predict(QUERY).unwrap();
    let pb = restored.predict(QUERY).unwrap();
    for (x, y) in pa.iter().zip(&pb) {
        assert_eq!(x.candidates, y.candidates);
    }
}

#[test]
fn quantized_artifacts_are_coded_model_format_errors() {
    let bytes = trained_namer().to_artifact(Quant::F32).unwrap();
    // Header tags 1 (f16) and 2 (i8) name retired weight encodings; a
    // file carrying one is refused with a hint to recompile, not
    // decoded. The checksum is repaired so the tag check itself fires.
    for (tag, name) in [(1u32, "f16"), (2, "i8")] {
        let mut old = bytes.clone();
        old[8..12].copy_from_slice(&tag.to_le_bytes());
        let sum = file_checksum(&old);
        old[16..24].copy_from_slice(&sum.to_le_bytes());
        let err = Pigeon::load(&old).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::ModelFormat, "tag {tag}: {err}");
        let message = err.to_string();
        assert!(
            message.contains(name) && message.contains("pigeon compile --out"),
            "tag {tag}: unexpected: {message}"
        );
    }
}

#[test]
fn load_sniffs_both_formats() {
    let namer = trained_namer();
    let from_json = Pigeon::load(namer.to_json().unwrap().as_bytes()).unwrap();
    assert_same_predictions(&namer, &from_json);
    let from_artifact = Pigeon::load(&namer.to_artifact(Quant::F32).unwrap()).unwrap();
    assert_same_predictions(&namer, &from_artifact);
}

#[test]
fn corrupted_artifacts_are_coded_model_format_errors() {
    let namer = trained_namer();
    let bytes = namer.to_artifact(Quant::F32).unwrap();
    // Truncations at a spread of cut points, plus one flipped byte in
    // every 97-byte stride: always an error, never a panic.
    for len in [4, 8, 31, 32, 64, bytes.len() / 2, bytes.len() - 1] {
        let err = Pigeon::load(&bytes[..len]).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::ModelFormat, "cut at {len}: {err}");
    }
    for i in (4..bytes.len()).step_by(97) {
        let mut tampered = bytes.clone();
        tampered[i] ^= 0x20;
        let err = Pigeon::load(&tampered).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::ModelFormat, "flip at {i}: {err}");
    }
}

#[test]
fn binary_junk_is_neither_format() {
    let err = Pigeon::load(&[0xfe, 0xed, 0xfa, 0xce, 0x00]).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::ModelFormat);
    assert!(err.to_string().contains("neither"), "unexpected: {err}");
}

#[test]
fn artifact_backed_facade_refuses_json_serialisation() {
    let namer = trained_namer();
    let restored = Pigeon::from_artifact(&namer.to_artifact(Quant::F32).unwrap()).unwrap();
    let err = restored.to_json().unwrap_err();
    assert!(err.to_string().contains("artifact"), "unexpected: {err}");
}

#[test]
fn non_finite_json_weights_are_rejected_with_a_stable_code() {
    // JSON `1e999` parses as +inf without a syntax error; validation
    // must still refuse to load the poisoned weight table.
    let poisoned = r#"{"language":"js","target":"variables","abstraction":"full",
        "max_length":7,"max_width":3,"semi_paths":true,"top_k":5,
        "labels":["a","b"],"features":["f0"],
        "model":"{\"pair_weights\":[[0,0,1,1e999]],\"unary_weights\":[],\"label_counts\":[1,1],\"candidates\":[],\"global_candidates\":[0],\"max_candidates\":4,\"max_passes\":4}"}"#;
    let err = Pigeon::from_json(poisoned).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::ModelFormat);
    assert!(
        err.to_string().contains("model-nonfinite-weight"),
        "unexpected: {err}"
    );
}
