//! Training half of a workload: epochs of `Trainer::train_epoch`, each
//! followed by `evaluate` on the valid split, and, for the traced run, a
//! replay of one epoch's minibatches through the public step API.
//!
//! Every measured epoch starts from the same freshly built model and a fresh
//! `Trainer`, so each one must end on the same `params_fingerprint`, mean
//! loss and valid AUC: a repeated-run determinism check inside one command.

use crate::clock::Tracer;
use miss_autograd::{Grads, Var};
use miss_core::{Miss, MissConfig, SslMethod};
use miss_data::{Batch, Dataset, Sample, Schema};
use miss_models::{CtrModel, ForwardOpts, ModelConfig};
use miss_nn::{Adam, DenseId, Graph, ParamStore};
use miss_tensor::Tensor;
use miss_trainer::{
    evaluate, micro_batch_len, BaseModel, Experiment, SslKind, TrainConfig, Trainer,
};
use miss_util::Rng;

/// Validation-split evaluations per epoch (all timed; eval is short and
/// noisy, so each epoch contributes several samples).
const EVALS_PER_EPOCH: usize = 3;
/// Eval batch size, as `miss_trainer::fit` uses.
const EVAL_BATCH: usize = 256;

/// What a training workload trains.
#[derive(Clone, Copy, Debug)]
pub struct TrainSpec {
    /// Minibatch rows.
    pub batch: usize,
    /// Attach MISS with the default `MissConfig`.
    pub ssl: bool,
}

/// A DIN (plus MISS when asked) registered exactly as
/// `Experiment::build_model` registers it: base model, then the SSL
/// parameters, on one init RNG.
pub struct Model {
    pub store: ParamStore,
    pub model: Box<dyn CtrModel>,
    pub miss: Option<Miss>,
}

pub fn build_model(schema: &Schema, seed: u64, spec: TrainSpec) -> Model {
    let mut store = ParamStore::new();
    let mut rng = Rng::new(seed ^ 0xE9);
    let model = BaseModel::Din.build(&mut store, schema, &ModelConfig::default(), &mut rng);
    let miss = spec.ssl.then(|| {
        Miss::new(
            &mut store,
            model.embedding(),
            MissConfig::default(),
            &mut rng,
        )
    });
    Model { store, model, miss }
}

/// The experiment whose `build_model` matches [`build_model`], for
/// `load_frozen`.
pub fn experiment(spec: TrainSpec) -> Experiment {
    let ssl = if spec.ssl {
        SslKind::Miss(MissConfig::default())
    } else {
        SslKind::None
    };
    Experiment::new(BaseModel::Din, ssl)
}

fn train_config(spec: TrainSpec, seed: u64) -> TrainConfig {
    TrainConfig {
        batch_size: spec.batch,
        seed,
        ..TrainConfig::default()
    }
}

/// Timings and checks over the epochs a run trains.
#[derive(Default)]
pub struct EpochLog {
    pub epoch_ns: Vec<u64>,
    pub eval_ns: Vec<u64>,
    pub valid_auc: f64,
    pub mean_loss: f64,
    pub fingerprint: u64,
    /// Minibatch steps attempted (committed plus skipped).
    pub steps: u64,
    /// Steps skipped, recovered after a contained panic, or retried after
    /// a non-finite loss (`EpochOutcome`).
    pub steps_failed: u64,
    /// Failed output checks, one line each.
    pub problems: Vec<String>,
}

impl EpochLog {
    /// Train one epoch with `Trainer::train_epoch` from a freshly built
    /// model, then evaluate the valid split [`EVALS_PER_EPOCH`] times.
    /// Every epoch of a run must end on the first one's fingerprint, mean
    /// loss and AUC. Returns the trained model.
    pub fn run_epoch(
        &mut self,
        t: &mut Tracer,
        data: &Dataset,
        spec: TrainSpec,
        seed: u64,
    ) -> Model {
        let mut m = build_model(&data.schema, seed, spec);
        let mut trainer = Trainer::new(train_config(spec, seed));
        let ssl = m.miss.as_ref().map(|x| x as &dyn SslMethod);
        let (outcome, ns) = t.time("trainer.train_epoch", |_| {
            trainer.train_epoch(&*m.model, ssl, &mut m.store, data)
        });
        self.epoch_ns.push(ns);
        self.steps += (outcome.batches + outcome.skipped_steps) as u64;
        self.steps_failed +=
            (outcome.skipped_steps + outcome.recovered_panics + outcome.retried_non_finite) as u64;
        let mut auc = None;
        for _ in 0..EVALS_PER_EPOCH {
            let (res, ns) = t.time("trainer.evaluate", |_| {
                evaluate(&*m.model, &m.store, &data.valid, &data.schema, EVAL_BATCH)
            });
            self.eval_ns.push(ns);
            if auc.is_some_and(|a: f64| a.to_bits() != res.auc.to_bits()) {
                self.problems
                    .push("evaluate gave two AUCs for one model".into());
            }
            auc = Some(res.auc);
        }
        let auc = auc.unwrap_or(f64::NAN);
        let fingerprint = m.store.params_fingerprint();
        if self.epoch_ns.len() == 1 {
            if !(auc > 0.5 && auc <= 1.0) {
                self.problems
                    .push(format!("valid AUC {auc} is not above chance"));
            }
            if !outcome.mean_loss.is_finite() {
                self.problems.push(format!(
                    "mean training loss {} is not finite",
                    outcome.mean_loss
                ));
            }
        } else if (fingerprint, outcome.mean_loss.to_bits(), auc.to_bits())
            != (
                self.fingerprint,
                self.mean_loss.to_bits(),
                self.valid_auc.to_bits(),
            )
        {
            self.problems.push(format!(
                "epoch {} from the same seed ended on fingerprint {fingerprint:016x} (loss {}, AUC {auc}), \
                 the first on {:016x} (loss {}, AUC {})",
                self.epoch_ns.len(),
                outcome.mean_loss,
                self.fingerprint,
                self.mean_loss,
                self.valid_auc
            ));
        }
        (self.fingerprint, self.mean_loss, self.valid_auc) = (fingerprint, outcome.mean_loss, auc);
        m
    }
}

/// One replayed epoch.
pub struct Replay {
    pub total_ns: u64,
    pub fingerprint: u64,
    pub mean_loss: f64,
    pub steps: u64,
    /// Micro-batches in a full minibatch.
    pub micros_per_step: usize,
    /// Tape nodes at the loss, summed over a step's micro-batches.
    pub tape_nodes: Vec<usize>,
    /// Rows in the merged `Grads::sparse`, per step.
    pub sparse_rows: Vec<usize>,
}

struct MicroOut {
    loss: f64,
    grads: Grads,
    bindings: Vec<(DenseId, Var)>,
}

/// Replay one epoch of `Trainer::train_epoch` step by step through the
/// public API: the same shuffle, micro-batch cut, per-micro RNG streams,
/// loss scaling, tree-ordered gradient merge and Adam step, so it must end
/// on the epoch's fingerprint. Micro-batches run one after another on this
/// thread; when the epoch shards, each runs pinned to one thread, as the
/// pool's workers run them. With recording on, every call gets a span.
pub fn replay_epoch(t: &mut Tracer, data: &Dataset, spec: TrainSpec, seed: u64) -> Replay {
    let cfg = train_config(spec, seed);
    let Model {
        mut store,
        model,
        miss,
    } = build_model(&data.schema, seed, spec);
    let model = &*model;
    let ssl = miss.as_ref().map(|x| x as &dyn SslMethod);
    let mut adam = Adam::new(cfg.lr, cfg.l2);
    // `Trainer::new`'s stream, then `train_epoch`'s forks.
    let mut rng = Rng::new(cfg.seed ^ 0xF17);
    let mut shuffle_rng = rng.fork(0xEE0C);
    let mut order: Vec<usize> = (0..data.train.len()).collect();
    shuffle_rng.shuffle(&mut order);
    let dense_ids = store.dense_ids();
    let mut graph = Graph::new(&store);
    let threads = miss_parallel::max_threads();
    let mut out = Replay {
        total_ns: 0,
        fingerprint: 0,
        mean_loss: 0.0,
        steps: 0,
        micros_per_step: 0,
        tape_nodes: Vec::new(),
        sparse_rows: Vec::new(),
    };
    let mut total_loss = 0.0f64;
    let ((), total_ns) = t.time("trainer.replay_epoch", |t| {
        let mut pos = 0usize;
        while pos < order.len() {
            let end = (pos + cfg.batch_size).min(order.len());
            let mb_rows = end - pos;
            let micro_len = if mb_rows < cfg.parallel_min_rows {
                mb_rows
            } else {
                micro_batch_len(mb_rows)
            };
            let n_micros = mb_rows.div_ceil(micro_len);
            out.micros_per_step = out.micros_per_step.max(n_micros);
            let pin = if n_micros > 1 { 1 } else { threads };
            t.time("trainer.step", |t| {
                let mut flat: Vec<Option<MicroOut>> = Vec::with_capacity(n_micros);
                let mut nodes = 0usize;
                for mi in 0..n_micros {
                    let ms = pos + mi * micro_len;
                    let me = (ms + micro_len).min(end);
                    let refs: Vec<&Sample> =
                        order[ms..me].iter().map(|&i| &data.train[i]).collect();
                    let mut wrng = rng.fork(0x51AD);
                    let store = &store;
                    let graph = &mut graph;
                    let (micro, _) = t.time("trainer.micro", |t| {
                        miss_parallel::with_threads(pin, || {
                            let (batch, _) =
                                t.time("data.batch", |_| Batch::from_samples(&refs, &data.schema));
                            let (bindings, _) = t.time("nn.graph_bind", |_| {
                                graph.reset(store);
                                dense_ids
                                    .iter()
                                    .map(|&id| (id, graph.param(store, id)))
                                    .collect::<Vec<_>>()
                            });
                            let mut opts = ForwardOpts {
                                training: true,
                                rng: &mut wrng,
                            };
                            let (logits, _) = t.time("models.forward", |_| {
                                model.forward(graph, store, &batch, &mut opts)
                            });
                            let (loss, _) = t.time("models.ctr_loss", |_| {
                                let labels = Tensor::from_vec(batch.size, 1, batch.labels.clone());
                                let mut l = graph.tape.bce_with_logits_mean(logits, labels);
                                if let Some(extra) =
                                    model.extra_loss(graph, store, &batch, &mut opts)
                                {
                                    let w = graph.tape.scale(extra, cfg.extra_loss_weight);
                                    l = graph.tape.add(l, w);
                                }
                                l
                            });
                            let (loss, _) = t.time("core.ssl_loss", |_| match ssl {
                                Some(method) => {
                                    match method.ssl_loss(
                                        graph,
                                        store,
                                        model.embedding(),
                                        &batch,
                                        opts.rng,
                                    ) {
                                        Some(aux) => graph.tape.add(loss, aux),
                                        None => loss,
                                    }
                                }
                                None => loss,
                            });
                            let scaled = graph.tape.scale(loss, batch.size as f32 / mb_rows as f32);
                            let value = graph.tape.value(scaled).item() as f64;
                            nodes += graph.tape.len();
                            let (grads, _) =
                                t.time("autograd.backward", |_| graph.tape.backward(scaled));
                            MicroOut {
                                loss: value,
                                grads,
                                bindings,
                            }
                        })
                    });
                    flat.push(Some(micro));
                }
                out.tape_nodes.push(nodes);
                let (merged, _) = t.time("trainer.merge", |_| {
                    let batch_loss: f64 = flat.iter().flatten().map(|m| m.loss).sum();
                    let pairs: Vec<(Var, Var)> = flat
                        .iter()
                        .flatten()
                        .next()
                        .map(|m| m.bindings.iter().map(|&(_, v)| (v, v)).collect())
                        .unwrap_or_default();
                    let mut gap = 1;
                    while gap < flat.len() {
                        let mut i = 0;
                        while i + gap < flat.len() {
                            if let Some(right) = flat[i + gap].take() {
                                match &mut flat[i] {
                                    Some(left) => left.grads.merge_ordered(right.grads, &pairs),
                                    slot @ None => *slot = Some(right),
                                }
                            }
                            i += gap * 2;
                        }
                        gap *= 2;
                    }
                    flat.first_mut()
                        .and_then(Option::take)
                        .map(|m| (m, batch_loss))
                });
                if let Some((merged, batch_loss)) = merged {
                    out.sparse_rows
                        .push(merged.grads.sparse.iter().map(|g| g.indices.len()).sum());
                    t.time("nn.adam", |_| {
                        adam.step_with_bindings(&mut store, &merged.bindings, merged.grads)
                    });
                    total_loss += batch_loss;
                    out.steps += 1;
                }
            });
            pos = end;
        }
    });
    out.total_ns = total_ns;
    out.fingerprint = store.params_fingerprint();
    out.mean_loss = if out.steps == 0 {
        0.0
    } else {
        total_loss / out.steps as f64
    };
    out
}
