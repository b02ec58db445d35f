//! End-to-end and per-layer benchmark of the miss workspace.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--out-dir DIR] [--commit SHA] [--source-hash HEX]
//!           [--smoke] [--corrupt-score]
//! ```
//!
//! Each workload trains DIN (plus MISS on one of them) for as many epochs as
//! its share of `--seconds` allows, evaluates the valid split after each,
//! checkpoints the trained model, loads and freezes it, and scores an
//! open-loop request stream through `ScoreEngine`. `--trace 0` prints the
//! end-to-end metrics; `--trace 1` is the separate traced run that prints
//! the per-layer metrics. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `perfbench/README.md`
//! explains the workloads, metrics and checks.

mod clock;
mod serve;
mod stats;
mod train;

use clock::Tracer;
use miss_data::{Dataset, World, WorldConfig};
use miss_serve::{load_frozen, FrozenArch, FrozenModel, ScoreEngine};
use serve::{Checker, HIGH_RATE, LOW_RATE, MAX_BATCH, OPEN_LOOP_THREADS};
use stats::{median, quantile, scaled};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use train::TrainSpec;

struct Workload {
    name: &'static str,
    spec: TrainSpec,
}

const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "train_din_b1024",
        spec: TrainSpec {
            batch: 1024,
            ssl: false,
        },
    },
    Workload {
        name: "train_din_miss_b128",
        spec: TrainSpec {
            batch: 128,
            ssl: true,
        },
    },
];

/// Run sizes: the full benchmark, or the smoke mode its tests use.
struct Sizes {
    preset: &'static str,
    scale: f64,
    /// Set-ups per run (the reported `setup_s` is their median).
    setup_reps: usize,
    /// Measured rounds (one epoch, one whole-pool pass, the open-loop
    /// passes and one trial of the rate grid) run until this share of
    /// `--seconds` has passed, at least `rounds.0` and at most `rounds.1`
    /// of them.
    rounds_share: f64,
    rounds: (usize, usize),
    /// Requests in the pool every serving phase draws from.
    pool: usize,
    /// Whole-pool passes before the first measured round, at the process's
    /// thread count and at [`OPEN_LOOP_THREADS`] (which sizes the rate
    /// grid); lazy set-up and allocator growth settle in them.
    warmup_reps: usize,
    /// Requests per low-rate pass (one before each other phase of a round);
    /// consecutive passes serve consecutive pool slices.
    low_requests: usize,
    /// Requests per high-rate pass and per trial of the highest-rate
    /// search (the pool's first).
    high_requests: usize,
    grid_requests: usize,
    /// Share of `--seconds` the traced run spends on `train_epoch` epochs.
    traced_epochs_share: f64,
}

const FULL: Sizes = Sizes {
    preset: "amazon_cds",
    scale: 8.0,
    setup_reps: 3,
    rounds_share: 0.9,
    rounds: (3, 60),
    pool: 4000,
    warmup_reps: 2,
    low_requests: 500,
    high_requests: 2000,
    grid_requests: 1000,
    traced_epochs_share: 0.15,
};

const SMOKE: Sizes = Sizes {
    preset: "tiny",
    scale: 1.0,
    setup_reps: 2,
    rounds_share: 0.0,
    rounds: (2, 2),
    pool: 120,
    warmup_reps: 1,
    low_requests: 60,
    high_requests: 120,
    grid_requests: 120,
    traced_epochs_share: 0.0,
};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    corrupt_score: bool,
    out_dir: PathBuf,
    commit: String,
    source_hash: String,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        smoke: false,
        corrupt_score: false,
        out_dir: PathBuf::from(".bench_build/perfbench"),
        commit: "unknown".into(),
        source_hash: "unknown".into(),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out-dir" => args.out_dir = PathBuf::from(value()?),
            "--commit" => args.commit = value()?,
            "--source-hash" => args.source_hash = value()?,
            "--smoke" => args.smoke = true,
            "--corrupt-score" => args.corrupt_score = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Vec<Metric>,
    /// Measured figures printed beside the metrics but kept out of the
    /// result line: too noisy on a shared host to gate on.
    info: Vec<Metric>,
    /// Facts about the run beside the metrics (epochs run, loss, ...).
    notes: Vec<(&'static str, String)>,
}

/// CPU model, core count, ISA and thread setting, plus the run's inputs.
fn host_record(args: &Args, sizes: &Sizes) -> Vec<(&'static str, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    vec![
        ("cpu_model", cpu),
        ("nproc", nproc.to_string()),
        ("isa", miss_tensor::detected_isa().to_string()),
        (
            "miss_threads_env",
            std::env::var("MISS_THREADS").unwrap_or_else(|_| "unset".into()),
        ),
        ("miss_threads", miss_parallel::max_threads().to_string()),
        ("preset", sizes.preset.to_string()),
        ("scale", sizes.scale.to_string()),
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("git_commit", args.commit.clone()),
        ("source_hash", args.source_hash.clone()),
    ]
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{"k": "v", ...}` from string pairs.
fn json_object(pairs: &[(&'static str, String)]) -> String {
    let fields: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn median_ns(ns: &[u64], per_unit: f64) -> f64 {
    median(&scaled(ns, per_unit))
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Everything a workload needs before its first timed operation.
struct Inputs {
    data: Dataset,
    pool: Vec<miss_data::ScoreRequest>,
}

fn set_up(
    t: &mut Tracer,
    args: &Args,
    sizes: &Sizes,
    spec: TrainSpec,
    out: &mut Outcome,
) -> Result<(Inputs, Vec<u64>), String> {
    let cfg = if args.smoke {
        WorldConfig::tiny()
    } else {
        WorldConfig::amazon_cds(sizes.scale)
    };
    let seed = args.seed;
    let mut reps = Vec::new();
    let mut kept: Option<(Inputs, u64, u64)> = None;
    for _ in 0..sizes.setup_reps {
        let (built, ns) = t.time("perfbench.setup", |t| {
            let (world, _) = t.time("data.world_gen", |_| World::generate(cfg.clone(), seed));
            let (data, _) = t.time("data.dataset", |_| Dataset::from_world(&world, seed));
            let (model, _) = t.time("models.build", |_| {
                train::build_model(&data.schema, seed, spec)
            });
            let (pool, _) = t.time("data.request_gen", |_| {
                serve::request_pool(&world, &data, sizes.pool, seed)
            });
            pool.map(|pool| (Inputs { data, pool }, model.store.params_fingerprint()))
        });
        let (inputs, model_fp) = built?;
        reps.push(ns);
        let hash = serve::pool_hash(&inputs.pool);
        if let Some((_, fp0, hash0)) = &kept {
            if (*fp0, *hash0) != (model_fp, hash) {
                out.problems
                    .push("repeated set-up built a different model or request pool".into());
            }
        }
        kept = Some((inputs, model_fp, hash));
    }
    let (inputs, _, _) = kept.ok_or("setup_reps is 0")?;
    Ok((inputs, reps))
}

struct Serving {
    frozen: FrozenModel,
    /// Every request's scores, each request scored alone.
    reference: Vec<Vec<f32>>,
    /// Host time of each set-up repetition.
    reps: Vec<u64>,
    ckpt_bytes: u64,
}

/// Checkpoint the trained model, load and freeze it, and score every
/// request alone for the reference — `setup_reps` times.
fn set_up_serving(
    t: &mut Tracer,
    args: &Args,
    sizes: &Sizes,
    spec: TrainSpec,
    inputs: &Inputs,
    trained: &train::Model,
    out: &mut Outcome,
) -> Result<Serving, String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
    let ckpt = args
        .out_dir
        .join(format!("{}-seed{}.ckpt", args.workload, args.seed));
    let exp = train::experiment(spec);
    let schema = &inputs.data.schema;
    let traced = t.recording();
    let mut reps = Vec::new();
    let mut kept: Option<(FrozenModel, Vec<Vec<f32>>)> = None;
    for _ in 0..sizes.setup_reps {
        let (built, ns) = t.time("perfbench.serve_setup", |t| -> Result<_, String> {
            let (saved, _) = t.time("codec.save", |_| {
                miss_codec::save_to_path(&ckpt, &trained.store, None)
            });
            saved.map_err(|e| format!("checkpoint save: {e}"))?;
            let (loaded, _) = t.time("serve.load_frozen", |_| {
                load_frozen(&ckpt, &exp, schema, args.seed)
            });
            let (frozen, _) = loaded.map_err(|e| format!("load_frozen: {e}"))?;
            if traced {
                // The two halves of load_frozen, timed one by one.
                let (store, _) = t.time("codec.load", |_| {
                    let (mut store, _model) = exp.build_model(schema, args.seed);
                    miss_codec::load_from_path(&ckpt, &mut store).map(|_| store)
                });
                let store = store.map_err(|e| format!("checkpoint load: {e}"))?;
                let (again, _) = t.time("serve.freeze", |_| {
                    FrozenModel::freeze(&store, schema, FrozenArch::Din)
                });
                again.map_err(|e| format!("freeze: {e}"))?;
            }
            let engine = ScoreEngine::new(&frozen, MAX_BATCH);
            let (reference, _) = t.time("serve.reference", |_| {
                serve::reference_scores(&engine, &inputs.pool)
            });
            let reference = reference.map_err(|e| format!("reference scoring: {e}"))?;
            Ok((frozen, reference))
        });
        let (frozen, reference) = built?;
        reps.push(ns);
        if let Some((_, first)) = &kept {
            let same = first.len() == reference.len()
                && first.iter().zip(&reference).all(|(a, b)| {
                    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
                });
            if !same {
                out.problems
                    .push("repeated reference scoring gave different scores".into());
            }
        }
        kept = Some((frozen, reference));
    }
    let ckpt_bytes = std::fs::metadata(&ckpt).map_or(0, |m| m.len());
    let _ = std::fs::remove_file(&ckpt);
    let (frozen, reference) = kept.ok_or("setup_reps is 0")?;
    Ok(Serving {
        frozen,
        reference,
        reps,
        ckpt_bytes,
    })
}

/// The measured run: end-to-end metrics only, no spans. After set-up, the
/// run repeats rounds of one training epoch (plus evals), one whole-pool
/// pass, low-rate passes between the other phases, one high-rate pass and
/// one trial of every rate of the highest-rate grid, so every metric
/// samples the whole run.
fn measured(t: &mut Tracer, args: &Args, sizes: &Sizes, wl: &Workload) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let start = t.now_ns();
    let rounds_ns = (args.seconds * sizes.rounds_share * 1e9) as u64;
    let (inputs, data_setup) = set_up(t, args, sizes, wl.spec, &mut out)?;
    let pool = &inputs.pool;
    let mut epochs = train::EpochLog::default();
    // Every epoch trains the same model from the same start, so the first
    // one's checkpoint is the model every round serves.
    let trained = epochs.run_epoch(t, &inputs.data, wl.spec, args.seed);
    let serving = set_up_serving(t, args, sizes, wl.spec, &inputs, &trained, &mut out)?;
    drop(trained);
    let engine = ScoreEngine::new(&serving.frozen, MAX_BATCH);
    let mut check = Checker::new(&serving.reference);
    check.corrupt_next = args.corrupt_score;
    let threads = miss_parallel::max_threads();
    let mut warmup = Vec::new();
    let mut warmup_solo = Vec::new();
    for _ in 0..sizes.warmup_reps {
        warmup.push(serve::backlog_once(t, &engine, pool, threads, &mut check));
        warmup_solo.push(serve::backlog_once(
            t,
            &engine,
            pool,
            OPEN_LOOP_THREADS,
            &mut check,
        ));
    }

    let mean_cands = mean(
        &pool
            .iter()
            .map(|r| r.num_candidates() as f64)
            .collect::<Vec<_>>(),
    );
    let solo_capacity = warmup_solo.iter().fold(0.0, |a: f64, &b| a.max(b));
    let mut grid = serve::RateGrid::new(solo_capacity / mean_cands);
    let (mut backlog, mut low, mut high) = (Vec::new(), Vec::new(), Vec::new());
    let slices = (pool.len() / sizes.low_requests.max(1)).max(1);
    let mut low_pass = |t: &mut Tracer, check: &mut Checker<'_>| {
        let first = low.len() % slices * sizes.low_requests;
        let range = first..first + sizes.low_requests;
        low.push(serve::open_loop(
            t,
            &engine,
            pool,
            range,
            LOW_RATE,
            OPEN_LOOP_THREADS,
            check,
        ));
    };
    let mut rounds = 0;
    while rounds < sizes.rounds.0
        || (rounds < sizes.rounds.1 && t.now_ns().saturating_sub(start) < rounds_ns)
    {
        if rounds > 0 {
            epochs.run_epoch(t, &inputs.data, wl.spec, args.seed);
        }
        // A low-rate pass goes before every other phase, so the passes
        // sample the host at many moments of every round.
        low_pass(t, &mut check);
        backlog.push(serve::backlog_once(t, &engine, pool, threads, &mut check));
        low_pass(t, &mut check);
        high.push(serve::open_loop(
            t,
            &engine,
            pool,
            0..sizes.high_requests,
            HIGH_RATE,
            OPEN_LOOP_THREADS,
            &mut check,
        ));
        for k in 0..grid.rates.len() {
            low_pass(t, &mut check);
            grid.trial(k, t, &engine, pool, 0..sizes.grid_requests, &mut check);
        }
        rounds += 1;
    }
    let max_rps = grid.max_rate().unwrap_or_else(|| {
        out.problems.push(format!(
            "no offered rate met p99 <= {} ms without a growing backlog",
            serve::LIMIT_MS
        ));
        0.0
    });

    out.attempted += epochs.steps + check.attempted;
    out.failed += epochs.steps_failed + check.failed();
    out.problems.append(&mut epochs.problems);
    let kilo = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{:.0}", x / 1e3))
            .collect::<Vec<_>>()
            .join(",")
    };
    let per_pass = |ph: &[serve::Phase], f: fn(&serve::Phase) -> f64| {
        ph.iter()
            .map(|p| format!("{:.3}", f(p)))
            .collect::<Vec<_>>()
            .join(",")
    };
    let grid_notes = |xs: &[f64], digits: usize| {
        xs.iter()
            .map(|x| format!("{x:.digits$}"))
            .collect::<Vec<_>>()
            .join(",")
    };
    out.notes.extend([
        ("rounds", rounds.to_string()),
        ("epochs", epochs.epoch_ns.len().to_string()),
        (
            "epoch_s_each",
            grid_notes(&scaled(&epochs.epoch_ns, 1e9), 3),
        ),
        ("mean_loss", json_num(epochs.mean_loss)),
        ("params_fingerprint", format!("{:016x}", epochs.fingerprint)),
        ("requests_sent", check.attempted.to_string()),
        ("bad_requests", check.bad_requests.to_string()),
        ("score_mismatches", check.mismatches.to_string()),
        ("requests_per_phase_pass", pool.len().to_string()),
        (
            "backlog_kcand_per_s",
            format!(
                "warmup {} timed {} (one thread: warmup {})",
                kilo(&warmup),
                kilo(&backlog),
                kilo(&warmup_solo)
            ),
        ),
        (
            "p50_ms_per_pass",
            format!(
                "low {} high {}",
                per_pass(&low, serve::Phase::p50),
                per_pass(&high, serve::Phase::p50)
            ),
        ),
        (
            "p99_ms_per_pass",
            format!(
                "low {} high {}",
                per_pass(&low, serve::Phase::p99),
                per_pass(&high, serve::Phase::p99)
            ),
        ),
        ("grid_rates_req_per_s", grid_notes(&grid.rates, 0)),
        ("grid_q1_p99_ms", grid_notes(&grid.figures(), 3)),
        (
            "run_s",
            json_num(t.now_ns().saturating_sub(start) as f64 / 1e9),
        ),
    ]);

    // The shared host's speed drifts by up to 1.7x over seconds to
    // minutes, and other tenants only ever add time. So the timed figures
    // take a quantile on the fast side over the run's samples: the first
    // quartile for times, the third for throughput. Latency quantiles are
    // taken per pass, then over the passes; the low-rate p50 has 60-120
    // passes, enough for the tenth percentile, which read steadier between
    // runs than the quartile did (ten-seed spread 0.09 vs 0.21 on b1024).
    // Its median over passes is printed beside it, since a slowdown of
    // only the slower passes does not move it. The p99s take the median.
    let over = |ph: &[serve::Phase], f: fn(&serve::Phase) -> f64, q: f64| {
        quantile(&ph.iter().map(f).collect::<Vec<_>>(), q)
    };
    let setup_ns = median_ns(&data_setup, 1.0) + median_ns(&serving.reps, 1.0);
    out.metrics = vec![
        metric("setup_s", setup_ns / 1e9, "s"),
        metric(
            "epoch_s",
            quantile(&scaled(&epochs.epoch_ns, 1e9), 0.25),
            "s",
        ),
        metric("eval_s", quantile(&scaled(&epochs.eval_ns, 1e9), 0.25), "s"),
        metric("valid_auc", epochs.valid_auc, "auc"),
        metric("queue_cands_per_s", quantile(&backlog, 0.75), "cand/s"),
        metric("p50_ms_low", over(&low, serve::Phase::p50, 0.1), "ms"),
        metric("max_rps_p99_20ms", max_rps, "req/s"),
    ];
    out.info = vec![
        metric(
            "p50_ms_low_median",
            over(&low, serve::Phase::p50, 0.5),
            "ms",
        ),
        metric("p50_ms_high", over(&high, serve::Phase::p50, 0.25), "ms"),
        metric("p99_ms_low", over(&low, serve::Phase::p99, 0.5), "ms"),
        metric("p99_ms_high", over(&high, serve::Phase::p99, 0.5), "ms"),
    ];
    Ok(out)
}

/// The traced run: every call gets a span; reports per-layer metrics,
/// coverage and tracing overhead.
fn traced(t: &mut Tracer, args: &Args, sizes: &Sizes, wl: &Workload) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let epochs_ns = (args.seconds * sizes.traced_epochs_share * 1e9) as u64;
    let (run, run_ns) = t.time("perfbench.run", |t| -> Result<_, String> {
        let (inputs, _) = set_up(t, args, sizes, wl.spec, &mut out)?;
        let data = &inputs.data;
        let mut epochs = train::EpochLog::default();
        let trained = epochs.run_epoch(t, data, wl.spec, args.seed);
        let begun = t.now_ns();
        while t.now_ns().saturating_sub(begun) < epochs_ns {
            epochs.run_epoch(t, data, wl.spec, args.seed);
        }
        out.attempted += epochs.steps;
        out.failed += epochs.steps_failed;
        out.problems.append(&mut epochs.problems);

        // metrics: auc + logloss over a split-sized score vector.
        let labels: Vec<f32> = data.valid.iter().map(|s| s.label).collect();
        let mut rng = miss_util::Rng::new(args.seed ^ 0xA0C);
        let scores: Vec<f32> = labels.iter().map(|_| rng.f32()).collect();
        let auc_ns: Vec<u64> = (0..5)
            .map(|_| {
                t.time("metrics.auc_logloss", |_| {
                    std::hint::black_box(miss_metrics::auc(&scores, &labels))
                        + std::hint::black_box(miss_metrics::logloss(&scores, &labels))
                })
                .1
            })
            .collect();

        // Replay one epoch without spans, then with, from the same start.
        let was = t.set_recording(false);
        let plain = train::replay_epoch(t, data, wl.spec, args.seed);
        t.set_recording(was);
        let replay = train::replay_epoch(t, data, wl.spec, args.seed);
        for (what, r) in [("untraced", &plain), ("traced", &replay)] {
            if (r.fingerprint, r.mean_loss.to_bits()) != (epochs.fingerprint, epochs.mean_loss.to_bits()) {
                out.problems.push(format!(
                    "{what} replay ended on fingerprint {:016x} (loss {}), train_epoch on {:016x} (loss {})",
                    r.fingerprint, r.mean_loss, epochs.fingerprint, epochs.mean_loss
                ));
            }
        }
        out.attempted += plain.steps + replay.steps;

        let serving = set_up_serving(t, args, sizes, wl.spec, &inputs, &trained, &mut out)?;
        let engine = ScoreEngine::new(&serving.frozen, MAX_BATCH);
        let mut check = Checker::new(&serving.reference);
        check.corrupt_next = args.corrupt_score;
        let pool = &inputs.pool;
        let (assemble, forward, cands, bad) =
            serve::replay_batches(t, &engine, &serving.frozen, pool, &serving.reference);
        if bad > 0 {
            out.problems.push(format!("{bad} replayed batches scored differently from the reference"));
        }
        let was = t.set_recording(false);
        let (_, high_plain_ns) = t.time("perfbench.high_untraced", |t| {
            serve::open_loop(t, &engine, pool, 0..pool.len(), HIGH_RATE, OPEN_LOOP_THREADS, &mut check)
        });
        t.set_recording(was);
        let (high, high_ns) = t.time("perfbench.high_traced", |t| {
            serve::open_loop(t, &engine, pool, 0..pool.len(), HIGH_RATE, OPEN_LOOP_THREADS, &mut check)
        });
        let low = serve::open_loop(t, &engine, pool, 0..pool.len(), LOW_RATE, OPEN_LOOP_THREADS, &mut check);
        let threads = miss_parallel::max_threads();
        let low_nproc = serve::open_loop(t, &engine, pool, 0..pool.len(), LOW_RATE, threads, &mut check);
        out.attempted += check.attempted;
        out.failed += check.failed();
        out.notes.push(("requests_sent", check.attempted.to_string()));
        out.notes.push(("score_mismatches", check.mismatches.to_string()));
        let overhead_ns = (replay.total_ns as f64 - plain.total_ns as f64)
            + (high_ns as f64 - high_plain_ns as f64);
        let ckpt_bytes = serving.ckpt_bytes as f64;
        Ok((epochs, replay, auc_ns, (assemble, forward, cands, ckpt_bytes), (low, high, low_nproc), overhead_ns))
    });
    let (
        epochs,
        replay,
        auc_ns,
        (assemble, forward, cands, ckpt_bytes),
        (low, high, low_nproc),
        overhead_ns,
    ) = run?;

    let per_step =
        |child: &str, per_unit: f64| median_ns(&t.sums_per("trainer.step", child), per_unit);
    let sum = |name: &str| t.durations(name).iter().sum::<u64>() as f64;
    let epoch_ns = median_ns(&epochs.epoch_ns, 1.0);
    let micro_ns = sum("trainer.micro");
    let lanes = miss_parallel::max_threads()
        .min(replay.micros_per_step)
        .max(1) as f64;
    let unattributed = epoch_ns - (micro_ns / lanes + sum("trainer.merge") + sum("nn.adam"));
    let host = t.layer_totals(false);
    let leaf_self: u64 = host
        .iter()
        .filter(|(_, l)| l.leaf)
        .map(|(_, l)| l.self_ns)
        .sum();
    let to_f = |v: &[usize]| v.iter().map(|&x| x as f64).collect::<Vec<_>>();
    let forward_ns: u64 = forward.iter().sum();
    let cand_total: usize = cands.iter().sum();

    out.metrics = vec![
        metric(
            "data.world_gen_s",
            median_ns(&t.durations("data.world_gen"), 1e9),
            "s",
        ),
        metric(
            "data.dataset_s",
            median_ns(&t.durations("data.dataset"), 1e9),
            "s",
        ),
        metric(
            "data.request_gen_s",
            median_ns(&t.durations("data.request_gen"), 1e9),
            "s",
        ),
        metric("data.batch_us", per_step("data.batch", 1e3), "us"),
        metric("data.serve_batch_us", median_ns(&assemble, 1e3), "us"),
        metric("models.forward_ms", per_step("models.forward", 1e6), "ms"),
        metric("models.ctr_loss_ms", per_step("models.ctr_loss", 1e6), "ms"),
        metric("core.ssl_loss_ms", per_step("core.ssl_loss", 1e6), "ms"),
        metric(
            "autograd.backward_ms",
            per_step("autograd.backward", 1e6),
            "ms",
        ),
        metric(
            "autograd.tape_nodes",
            median(&to_f(&replay.tape_nodes)),
            "count",
        ),
        metric("nn.graph_bind_ms", per_step("nn.graph_bind", 1e6), "ms"),
        metric("nn.adam_ms", median_ns(&t.durations("nn.adam"), 1e6), "ms"),
        metric(
            "nn.sparse_grad_rows",
            median(&to_f(&replay.sparse_rows)),
            "count",
        ),
        metric(
            "trainer.merge_ms",
            median_ns(&t.durations("trainer.merge"), 1e6),
            "ms",
        ),
        metric(
            "trainer.micros_per_step",
            replay.micros_per_step as f64,
            "count",
        ),
        metric("trainer.unattributed_s", unattributed / 1e9, "s"),
        metric(
            "parallel.shard_speedup",
            micro_ns / epoch_ns.max(1.0),
            "ratio",
        ),
        metric("metrics.auc_ms", median_ns(&auc_ns, 1e6), "ms"),
        metric(
            "codec.save_ms",
            median_ns(&t.durations("codec.save"), 1e6),
            "ms",
        ),
        metric(
            "codec.load_ms",
            median_ns(&t.durations("codec.load"), 1e6),
            "ms",
        ),
        metric("codec.ckpt_bytes", ckpt_bytes, "bytes"),
        metric(
            "serve.freeze_ms",
            median_ns(&t.durations("serve.freeze"), 1e6),
            "ms",
        ),
        metric("serve.form_us", median_ns(&high.form_ns, 1e3), "us"),
        metric("serve.service_ms", median_ns(&high.service_ns, 1e6), "ms"),
        metric("serve.queue_wait_ms", mean(&high.wait_ms), "ms"),
        metric("serve.p50_ms_high", high.p50(), "ms"),
        metric("serve.p99_ms_low", low.p99(), "ms"),
        metric("serve.p50_ms_low_nproc", low_nproc.p50(), "ms"),
        metric("serve.p99_ms_high", high.p99(), "ms"),
        metric("serve.batch_cands", mean(&to_f(&high.batch_cands)), "count"),
        metric(
            "serve.forward_us_per_cand",
            forward_ns as f64 / 1e3 / cand_total.max(1) as f64,
            "us",
        ),
        metric(
            "trace.coverage",
            leaf_self as f64 / run_ns.max(1) as f64,
            "ratio",
        ),
        metric("trace.overhead_s", overhead_ns / 1e9, "s"),
    ];
    out.notes
        .push(("epoch_s_traced_run", json_num(epoch_ns / 1e9)));
    out.notes.push(("run_s", json_num(run_ns as f64 / 1e9)));
    out.notes
        .push(("generator_late_ms", "0 (virtual-time arrivals)".into()));
    Ok(out)
}

/// The trace file: the host record, every span, and per-layer self times.
fn trace_json(t: &Tracer, host: &[(&'static str, String)]) -> String {
    let mut s = format!("{{\n  \"host\": {},\n  \"layers\": [\n", json_object(host));
    let mut first = true;
    for clock in [false, true] {
        for (name, l) in t.layer_totals(clock) {
            let _ = write!(
                s,
                "{}    {{\"name\": {}, \"clock\": \"{}\", \"self_ms\": {}, \"total_ms\": {}, \"count\": {}, \"leaf\": {}}}",
                if first { "" } else { ",\n" },
                json_str(name),
                if clock { "virtual" } else { "host" },
                json_num(ms(l.self_ns)),
                json_num(ms(l.total_ns)),
                l.count,
                l.leaf
            );
            first = false;
        }
    }
    s.push_str("\n  ],\n  \"spans\": [\n");
    for (i, sp) in t.spans().iter().enumerate() {
        let _ = write!(
            s,
            "{}    {{\"id\": {i}, \"name\": {}, \"clock\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"request\": {}}}",
            if i > 0 { ",\n" } else { "" },
            json_str(sp.name),
            if sp.virtual_time { "virtual" } else { "host" },
            sp.start_ns,
            sp.end_ns,
            sp.parent.map_or("null".into(), |p| p.to_string()),
            sp.request.map_or("null".into(), |r| r.to_string()),
        );
    }
    s.push_str("\n  ]\n}\n");
    s
}

fn write_file(path: &Path, body: &str) {
    if let Err(e) = std::fs::write(path, body) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}

/// Time of a fixed integer loop that calls none of the workspace's code.
/// Printed at the start and the end of every run: the shared host's speed
/// drifts over minutes, and this tells that drift from a change of the
/// code when two runs disagree. Not recorded as a span.
fn host_reference_ms(t: &mut Tracer) -> f64 {
    let was = t.set_recording(false);
    let (_, ns) = t.time("perfbench.host_reference", |_| {
        let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
        for _ in 0..20_000_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        std::hint::black_box(x)
    });
    t.set_recording(was);
    ms(ns)
}

fn run(argv: &[String]) -> Result<(), String> {
    let args = parse_args(argv)?;
    let wl = WORKLOADS
        .iter()
        .find(|w| w.name == args.workload)
        .ok_or_else(|| {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            format!(
                "unknown workload `{}` (one of: {})",
                args.workload,
                names.join(", ")
            )
        })?;
    let sizes = if args.smoke { &SMOKE } else { &FULL };
    let host = host_record(&args, sizes);
    let mut t = Tracer::new(args.trace)?;
    let host_before = host_reference_ms(&mut t);
    let mut out = if args.trace {
        traced(&mut t, &args, sizes, wl)?
    } else {
        measured(&mut t, &args, sizes, wl)?
    };
    let host_after = host_reference_ms(&mut t);
    out.notes.push((
        "host_reference_ms",
        format!("start {host_before:.2} end {host_after:.2}"),
    ));

    // The library's own profile scopes are on in every run; estimate what
    // they cost from their count and one scope's uncontended cost.
    let scopes = clock::program_scopes();
    let scope_ns = t.scope_cost_ns(200_000);
    let run_ns = t.now_ns().max(1) as f64;
    out.notes.push((
        "program_profile_scopes",
        format!(
            "calls {scopes} ns_per_scope {scope_ns:.1} est_cost_ms {:.1} share_of_run {:.5}",
            scopes as f64 * scope_ns / 1e6,
            scopes as f64 * scope_ns / run_ns
        ),
    ));

    let host_line = format!("{{\"host\": {}}}", json_object(&host));
    println!("{host_line}");
    for (k, v) in &out.notes {
        println!("note {k} {v}");
    }
    for p in &out.problems {
        println!("check FAILED: {p}");
    }
    for m in &out.metrics {
        println!("metric {} {} {}", m.name, json_num(m.value), m.unit);
    }
    for m in &out.info {
        println!("info {} {} {}", m.name, json_num(m.value), m.unit);
    }
    let correct = out.failed == 0 && out.problems.is_empty();
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.attempted.max(1),
        out.failed
    );
    for (i, m) in out.metrics.iter().enumerate() {
        let _ = write!(
            line,
            "{}{}: {{\"value\": {}, \"unit\": {}}}",
            if i > 0 { ", " } else { "" },
            json_str(m.name),
            json_num(m.value),
            json_str(m.unit)
        );
    }
    line.push_str("}}");

    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    if std::fs::create_dir_all(&args.out_dir).is_ok() {
        let mut record = format!("{host_line}\n");
        for p in &out.problems {
            let _ = writeln!(record, "{{\"problem\": {}}}", json_str(p));
        }
        for m in &out.info {
            let _ = writeln!(
                record,
                "{{\"info\": {}, \"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            );
        }
        let _ = writeln!(record, "{line}");
        write_file(&args.out_dir.join(format!("result-{stem}.jsonl")), &record);
        if args.trace {
            write_file(
                &args.out_dir.join(format!("trace-{stem}.json")),
                &trace_json(&t, &host),
            );
        }
    }
    if args.trace {
        for (name, l) in t.layer_totals(false) {
            println!(
                "layer {name} self_ms {} total_ms {} count {}{}",
                json_num(ms(l.self_ns)),
                json_num(ms(l.total_ns)),
                l.count,
                if l.leaf { " leaf" } else { "" }
            );
        }
    }
    println!("{line}");
    Ok(())
}

fn main() {
    // The benchmark's clock is the sanctioned profiler; turn it on before
    // anything reads the setting.
    std::env::set_var("MISS_PROFILE", "1");
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = run(&argv) {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}
