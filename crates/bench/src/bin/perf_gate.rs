//! CI perf regression gate: compares a freshly produced bench snapshot
//! against the committed one and fails (exit 1) on a >15% regression.
//!
//! Usage: `perf_gate COMMITTED.json FRESH.json [COMMITTED2.json FRESH2.json ...]`
//!
//! CI hosts vary wildly in absolute speed, so by default only the
//! dimensionless metrics are gated: the `ratios` object of
//! BENCH_TRAIN.json and each non-baseline loader's `speedup_vs_json` in
//! BENCH_MODEL_LOAD.json (the `json` baseline's is json/json, always
//! 1.0, so it is not counted). Ratios divide out the host. A ratio or loader
//! the committed snapshot gates but the fresh one lacks is a failure,
//! never a silent skip. Set `PIGEON_BENCH_STRICT=1` to additionally
//! gate absolute medians (useful on a pinned, quiet perf box).

use serde_json::Value;
use std::process::ExitCode;

const TOLERANCE: f64 = 0.15;

struct Gate {
    strict: bool,
    checked: usize,
    failures: Vec<String>,
}

impl Gate {
    /// `higher_is_better` decides which direction counts as a regression.
    fn check(&mut self, name: &str, committed: f64, fresh: f64, higher_is_better: bool) {
        self.checked += 1;
        let regressed = if higher_is_better {
            fresh < committed * (1.0 - TOLERANCE)
        } else {
            fresh > committed * (1.0 + TOLERANCE)
        };
        let arrow = if higher_is_better { "min" } else { "max" };
        let bound = if higher_is_better {
            committed * (1.0 - TOLERANCE)
        } else {
            committed * (1.0 + TOLERANCE)
        };
        let verdict = if regressed { "REGRESSED" } else { "ok" };
        println!("  {name:<44} committed {committed:>10.3}  fresh {fresh:>10.3}  {arrow} {bound:>10.3}  {verdict}");
        if regressed {
            self.failures.push(format!(
                "{name}: committed {committed:.3}, fresh {fresh:.3} (tolerance {:.0}%)",
                TOLERANCE * 100.0
            ));
        }
    }

    fn compare_snapshots(&mut self, name: &str, committed: &Value, fresh: &Value) {
        // Dimensionless ratios (BENCH_TRAIN.json): a "speedup" is
        // higher-better, everything else is a cost ratio.
        let ratios = fresh.get("ratios");
        for (key, value) in committed
            .get("ratios")
            .and_then(Value::as_object)
            .into_iter()
            .flatten()
        {
            let (Some(c), Some(f)) = (
                value.as_f64(),
                ratios.and_then(|r| r.get(key)).and_then(Value::as_f64),
            ) else {
                self.failures
                    .push(format!("{name}: ratio {key} missing from fresh snapshot"));
                continue;
            };
            self.check(key, c, f, key.contains("speedup"));
        }
        // Loader speedups (BENCH_MODEL_LOAD.json).
        let loaders = fresh.get("loaders");
        for (key, value) in committed
            .get("loaders")
            .and_then(Value::as_object)
            .into_iter()
            .flatten()
        {
            if key == "json" {
                continue; // the baseline's speedup over itself is 1.0 by construction
            }
            let Some(c) = value.get("speedup_vs_json").and_then(Value::as_f64) else {
                continue; // a loader without a speedup is not gated
            };
            let Some(f) = loaders
                .and_then(|l| l.get(key))
                .and_then(|l| l.get("speedup_vs_json"))
                .and_then(Value::as_f64)
            else {
                self.failures
                    .push(format!("{name}: loader {key} missing from fresh snapshot"));
                continue;
            };
            self.check(&format!("{key}.speedup_vs_json"), c, f, true);
        }
        if self.strict {
            for section in ["paths", "loaders"] {
                let (Some(base), Some(new)) = (committed.get(section), fresh.get(section)) else {
                    continue;
                };
                for (key, value) in base.as_object().into_iter().flatten() {
                    let (Some(c), Some(f)) = (
                        value.get("median_micros").and_then(Value::as_f64),
                        new.get(key)
                            .and_then(|e| e.get("median_micros"))
                            .and_then(Value::as_f64),
                    ) else {
                        continue;
                    };
                    self.check(&format!("{key}.median_micros"), c, f, false);
                }
            }
        }
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: invalid JSON: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || !args.len().is_multiple_of(2) {
        eprintln!("usage: perf_gate COMMITTED.json FRESH.json [COMMITTED.json FRESH.json ...]");
        return ExitCode::FAILURE;
    }
    let mut gate = Gate {
        strict: std::env::var("PIGEON_BENCH_STRICT").is_ok_and(|v| v == "1"),
        checked: 0,
        failures: Vec::new(),
    };
    for pair in args.chunks(2) {
        println!("{} vs {}:", pair[0], pair[1]);
        match (load(&pair[0]), load(&pair[1])) {
            (Ok(committed), Ok(fresh)) => gate.compare_snapshots(&pair[0], &committed, &fresh),
            (committed, fresh) => {
                for err in [committed.err(), fresh.err()].into_iter().flatten() {
                    gate.failures.push(err);
                }
            }
        }
    }
    if gate.checked == 0 {
        gate.failures
            .push("no comparable metrics found in any snapshot pair".to_owned());
    }
    if gate.failures.is_empty() {
        println!("perf gate passed: {} metrics within ±15%", gate.checked);
        ExitCode::SUCCESS
    } else {
        eprintln!("perf gate FAILED:");
        for failure in &gate.failures {
            eprintln!("  {failure}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(committed: &str, fresh: &str) -> Gate {
        let mut gate = Gate {
            strict: false,
            checked: 0,
            failures: Vec::new(),
        };
        gate.compare_snapshots(
            "snapshot",
            &serde_json::from_str(committed).unwrap(),
            &serde_json::from_str(fresh).unwrap(),
        );
        gate
    }

    const LOADERS: &str = r#"{"loaders": {
        "json": {"speedup_vs_json": 1.0},
        "artifact_f32": {"speedup_vs_json": 12.0}}}"#;

    #[test]
    fn a_missing_loader_fails() {
        let g = gate(
            LOADERS,
            r#"{"loaders": {"json": {"speedup_vs_json": 1.0}}}"#,
        );
        assert_eq!(g.failures.len(), 1, "{:?}", g.failures);
        assert!(g.failures[0].contains("artifact_f32"), "{:?}", g.failures);
    }

    #[test]
    fn a_missing_ratio_fails() {
        let g = gate(
            r#"{"ratios": {"a_speedup": 2.0, "b_vs_c": 0.5}}"#,
            r#"{"ratios": {"a_speedup": 2.0}}"#,
        );
        assert_eq!(g.failures.len(), 1, "{:?}", g.failures);
        assert!(g.failures[0].contains("b_vs_c"), "{:?}", g.failures);
    }

    #[test]
    fn the_json_baseline_is_not_gated() {
        // json/json is 1.0 by construction: even a nonsense value there
        // neither fails nor counts as a gated metric.
        let fresh = LOADERS.replace("1.0}", "0.5}");
        let g = gate(LOADERS, &fresh);
        assert_eq!(g.checked, 1, "only artifact_f32 is a real ratio");
        assert!(g.failures.is_empty(), "{:?}", g.failures);
        let g = gate(
            LOADERS,
            r#"{"loaders": {"artifact_f32": {"speedup_vs_json": 12.0}}}"#,
        );
        assert!(g.failures.is_empty(), "{:?}", g.failures);
    }

    #[test]
    fn a_16_percent_drop_fails() {
        let fresh = LOADERS.replace("12.0", "10.08");
        let g = gate(LOADERS, &fresh);
        assert_eq!(g.checked, 1);
        assert_eq!(g.failures.len(), 1, "{:?}", g.failures);
        assert!(g.failures[0].contains("artifact_f32.speedup_vs_json"));
    }

    #[test]
    fn a_10_percent_drop_passes() {
        let fresh = LOADERS.replace("12.0", "10.8");
        let g = gate(LOADERS, &fresh);
        assert_eq!(g.checked, 1);
        assert!(g.failures.is_empty(), "{:?}", g.failures);
    }
}
