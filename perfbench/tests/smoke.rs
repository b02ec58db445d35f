//! Smoke runs of the benchmark binary (tiny preset, short phases): every
//! metric `BENCHMARK.json` names is emitted with its unit, the output checks
//! pass, and an altered score is caught.

use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn contract(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is an array")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\": \"")).expect("field present") + key.len() + 5;
        obj[at..at + obj[at..].find('"').expect("closing quote")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

struct Run {
    stdout: String,
    result: String,
}

fn run(workload: &str, trace: u8, extra: &[&str]) -> Run {
    // Tests run in parallel: give every run its own output directory, since
    // a run writes (and removes) its checkpoint there.
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "perfbench-smoke-{}",
        RUNS.fetch_add(1, Ordering::Relaxed)
    ));
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--smoke", "--out-dir"])
        .arg(&dir)
        .args(extra)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "exit {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let result = stdout.lines().last().expect("a result line").to_string();
    Run { stdout, result }
}

fn number_after(text: &str, key: &str) -> f64 {
    let at = text
        .find(key)
        .unwrap_or_else(|| panic!("{key} missing in {text}"))
        + key.len();
    let rest = text[at..].trim_start();
    let end = rest.find([',', '}', ' ']).unwrap_or(rest.len());
    rest[..end].parse().unwrap_or_else(|e| panic!("{key}: {e}"))
}

fn metric(result: &str, name: &str) -> f64 {
    number_after(result, &format!("\"{name}\": {{\"value\":"))
}

#[test]
fn measured_runs_emit_every_end_to_end_metric_and_pass_checks() {
    let names = contract("end_to_end");
    assert!(names.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    for workload in ["train_din_b1024", "train_din_miss_b128"] {
        let r = run(workload, 0, &[]);
        assert!(
            r.result.starts_with("{\"correct\": true, \"attempted\": "),
            "{}",
            r.stdout
        );
        assert_eq!(number_after(&r.result, "\"failed\":"), 0.0);
        for (name, unit) in &names {
            let entry = format!("\"{name}\": {{\"value\": ");
            assert!(
                r.result.contains(&entry),
                "{workload}: {name} missing\n{}",
                r.result
            );
            assert!(
                metric(&r.result, name) > 0.0,
                "{workload}: {name} is not positive"
            );
            let unit_of = &r.result[r.result.find(&entry).unwrap_or(0)..];
            assert!(
                unit_of[..unit_of.find('}').unwrap_or(0)]
                    .ends_with(&format!("\"unit\": \"{unit}\"")),
                "{workload}: {name} lacks unit {unit}"
            );
        }
        for info in ["info p50_ms_high ", "info p99_ms_low ", "info p99_ms_high "] {
            assert!(r.stdout.contains(info), "{workload}: `{info}` line missing");
        }
        assert!(
            r.stdout.contains("{\"host\": {\"cpu_model\": "),
            "host record missing"
        );
    }
}

#[test]
fn traced_runs_emit_every_per_layer_metric() {
    let names = contract("per_layer");
    let plain = run("train_din_b1024", 1, &[]);
    let miss = run("train_din_miss_b128", 1, &[]);
    for (workload, r) in [("train_din_b1024", &plain), ("train_din_miss_b128", &miss)] {
        assert!(
            r.result.starts_with("{\"correct\": true"),
            "{workload}\n{}",
            r.stdout
        );
        for (name, unit) in &names {
            let entry = format!("\"{name}\": {{\"value\": ");
            let at = r
                .result
                .find(&entry)
                .unwrap_or_else(|| panic!("{workload}: {name} missing"));
            let tail = &r.result[at..];
            assert!(
                tail[..tail.find('}').unwrap_or(0)].ends_with(&format!("\"unit\": \"{unit}\"")),
                "{workload}: {name} lacks unit {unit}"
            );
        }
        assert!(
            r.stdout.contains("layer perfbench.run "),
            "{workload}: no self-time table"
        );
    }
    // A 1024-row minibatch shards into 8 micro-batches, a 128-row one runs
    // inline; only the MISS workload spends time in the SSL layer.
    assert_eq!(metric(&plain.result, "trainer.micros_per_step"), 8.0);
    assert_eq!(metric(&miss.result, "trainer.micros_per_step"), 1.0);
    let ssl_plain = metric(&plain.result, "core.ssl_loss_ms");
    let ssl_miss = metric(&miss.result, "core.ssl_loss_ms");
    assert!(
        ssl_plain < 0.05 && ssl_miss > 10.0 * ssl_plain,
        "{ssl_plain} vs {ssl_miss}"
    );
}

#[test]
fn an_altered_score_counts_as_a_failed_request() {
    let clean = run("train_din_b1024", 0, &[]);
    let bad = run("train_din_b1024", 0, &["--corrupt-score"]);
    assert_eq!(number_after(&clean.result, "\"failed\":"), 0.0);
    assert_eq!(number_after(&bad.result, "\"failed\":"), 1.0);
    assert!(
        bad.result.starts_with("{\"correct\": false"),
        "{}",
        bad.result
    );
    assert!(
        bad.stdout.contains("note score_mismatches 1"),
        "{}",
        bad.stdout
    );
}
