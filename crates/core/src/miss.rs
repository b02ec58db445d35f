//! The MISS module: extractors + augmentation + encoders + InfoNCE losses,
//! assembled per Eq. 9–17.

use crate::augment::{PairDraw, PairSelector};
use crate::config::{EncoderKind, MissConfig};
use crate::extractor::{vertical_conv, Extractor, InterestMaps};
use crate::ssl_baselines::SslMethod;
use miss_autograd::Var;
use miss_data::Batch;
use miss_nn::{dropout, init, DenseId, Graph, Mlp, ParamStore, TransformerBlock};
use miss_models::EmbeddingLayer;
use miss_util::Rng;

/// The multi-interest self-supervised learning component. Created over the
/// same [`ParamStore`] as the base model so the embedding tables are shared
/// and jointly trained (Eq. 17).
pub struct Miss {
    /// Hyper-parameters and variant switches.
    pub cfg: MissConfig,
    extractor: Extractor,
    /// `v_kernels[m-1][n-1]`: the `n` scalar taps of `ĝ_{m,n}`.
    v_kernels: Vec<Vec<Vec<DenseId>>>,
    enc_i: Mlp,
    enc_if: Mlp,
    /// Present when `cfg.encoder == EncoderKind::Transformer`: mixes the J
    /// field tokens of a view before the MLP head.
    enc_i_transformer: Option<TransformerBlock>,
    selector: PairSelector,
}

impl Miss {
    /// Build the MISS component for a base model's embedding layer.
    pub fn new(
        store: &mut ParamStore,
        emb: &EmbeddingLayer,
        cfg: MissConfig,
        rng: &mut Rng,
    ) -> Self {
        let k = emb.dim;
        let j = emb.schema().num_seq();
        let extractor = Extractor::new(store, cfg.extractor, cfg.m, k, rng);
        let mut v_kernels = Vec::new();
        for m in 1..=cfg.m {
            let mut per_n = Vec::new();
            for n in 1..=cfg.n.min(j) {
                let scalars = (0..n)
                    .map(|i| {
                        store.dense(
                            &format!("miss.gv{m}.{n}.{i}"),
                            1,
                            1,
                            init::constant(1.0 / n as f32 + 0.05 * (i as f32)),
                        )
                    })
                    .collect();
                per_n.push(scalars);
            }
            v_kernels.push(per_n);
        }
        let enc_i = Mlp::relu_tower(store, "miss.enc_i", j * k, &cfg.enc_i_sizes, rng);
        let enc_if = Mlp::relu_tower(store, "miss.enc_if", k, &cfg.enc_if_sizes, rng);
        let enc_i_transformer = (cfg.encoder == EncoderKind::Transformer)
            .then(|| TransformerBlock::new(store, "miss.enc_i_tf", k, rng));
        let selector = PairSelector {
            h: cfg.h,
            law: cfg.distance_law,
        };
        Miss {
            cfg,
            extractor,
            v_kernels,
            enc_i,
            enc_if,
            enc_i_transformer,
            selector,
        }
    }

    /// Embed every sequential field for this batch (`(B·L)×K` each).
    fn seq_embs(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        emb: &EmbeddingLayer,
        batch: &Batch,
    ) -> Vec<Var> {
        (0..emb.schema().num_seq())
            .map(|jj| emb.embed_seq_field(g, store, batch, jj))
            .collect()
    }

    /// `Enc^i` (Eq. 13): optionally a Transformer block over the J field
    /// tokens of the view, then the MLP head.
    fn encode_i(&self, g: &mut Graph, store: &ParamStore, view: Var) -> Var {
        match &self.enc_i_transformer {
            Some(block) => {
                let (b, jk) = g.tape.shape(view);
                let k = block.dim();
                debug_assert_eq!(jk % k, 0);
                let j = jk / k;
                let tokens = g.tape.reshape(view, b * j, k);
                let mixed = block.forward(g, store, tokens, b);
                let flat = g.tape.reshape(mixed, b, jk);
                self.enc_i.forward(g, store, flat)
            }
            None => self.enc_i.forward(g, store, view),
        }
    }

    /// InfoNCE between the halves of an encoded stack `[views 1; views 2]`
    /// holding `blocks` view pairs: each pair keeps its own in-batch
    /// negatives, and the result is the mean of the per-pair losses.
    fn paired_info_nce(&self, g: &mut Graph, z: Var, blocks: usize) -> Var {
        let rows = g.tape.shape(z).0;
        let z1 = g.tape.slice_rows(z, 0, rows / 2);
        let z2 = g.tape.slice_rows(z, rows / 2, rows);
        g.tape.info_nce(z1, z2, blocks, self.cfg.tau)
    }

    /// The two SSL losses of Eq. 15 and Eq. 16 (unweighted):
    /// `(L_ssl, L_ssl')`. Either may be absent depending on the variant.
    ///
    /// All P (and Q) pairs are drawn first, in the order drawing them pair
    /// by pair would consume the RNG; their views are then encoded in one
    /// pass and scored by one block InfoNCE per loss.
    pub fn ssl_losses(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        emb: &EmbeddingLayer,
        batch: &Batch,
        rng: &mut Rng,
    ) -> (Option<Var>, Option<Var>) {
        if batch.size < 2 {
            // InfoNCE needs in-batch negatives.
            return (None, None);
        }
        let seq = self.seq_embs(g, store, emb, batch);

        if !self.cfg.interest_level {
            // The /M ablation: sample-level augmentation (Eq. 8) — two
            // dropout views of the whole-sequence representation. The mask
            // is drawn row-major, so one dropout over the stacked copies
            // draws view 1's mask, then view 2's.
            let pooled: Vec<Var> = seq
                .iter()
                .map(|&s| miss_models::mean_pool(g, s, batch))
                .collect();
            let rep = g.tape.concat_cols(&pooled); // B×(J·K)
            let copies = g.tape.tile_rows(rep, 2);
            let views = dropout(g, copies, 0.2, true, rng);
            let z = self.encode_i(g, store, views);
            return (Some(self.paired_info_nce(g, z, 1)), None);
        }

        let maps = self.extractor.extract(g, store, &seq, batch);
        if maps.maps.is_empty() {
            return (None, None);
        }
        let stack = stack_maps(g, &maps);

        // Interest-level loss (Eq. 15), averaged over P draws.
        let draws: Vec<PairDraw> = (0..self.cfg.p)
            .map(|_| self.selector.draw_interest(&maps, batch, rng))
            .collect();
        let li = (!draws.is_empty()).then(|| {
            let views = stack.gather_views(g, &draws);
            let z = self.encode_i(g, store, views);
            self.paired_info_nce(g, z, draws.len())
        });

        // Feature-level loss (Eq. 16), averaged over Q draws.
        let lif = if self.cfg.n > 0 && self.cfg.alpha2 > 0.0 {
            self.feature_loss(g, store, &maps, &stack, batch, rng)
        } else {
            None
        };

        (li, lif)
    }

    /// Eq. 16 over Q feature-level draws. The vertical convolution is
    /// position-wise, so each draw convolves only its B gathered rows; the
    /// 2Q views then go through `Enc^if` as one stack.
    fn feature_loss(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        maps: &InterestMaps,
        stack: &StackedMaps,
        batch: &Batch,
        rng: &mut Rng,
    ) -> Option<Var> {
        let j = stack.per_field.len();
        let mut views1 = Vec::with_capacity(self.cfg.q);
        let mut views2 = Vec::with_capacity(self.cfg.q);
        for _ in 0..self.cfg.q {
            let mi = rng.below(maps.maps.len());
            let per_n = &self.v_kernels[mi.min(self.v_kernels.len() - 1)];
            if per_n.is_empty() {
                continue;
            }
            let taps = &per_n[rng.below(per_n.len())];
            let (j1, j2, idx) =
                self.selector
                    .draw_feature(&maps.maps[mi], j - taps.len() + 1, batch, rng);
            let off = stack.offsets[mi];
            let rows: Vec<usize> = idx.iter().map(|&r| off + r).collect();
            let view = |g: &mut Graph, j0: usize| {
                let fields: Vec<Var> = stack.per_field[j0..j0 + taps.len()]
                    .iter()
                    .map(|&f| g.tape.gather_rows(f, rows.clone()))
                    .collect();
                vertical_conv(g, store, &fields, taps)
            };
            let v1 = view(g, j1);
            let v2 = if j2 == j1 { v1 } else { view(g, j2) };
            views1.push(v1);
            views2.push(v2);
        }
        if views1.is_empty() {
            return None;
        }
        let blocks = views1.len();
        views1.append(&mut views2);
        let views = g.tape.concat_rows(&views1);
        let z = self.enc_if.forward(g, store, views);
        Some(self.paired_info_nce(g, z, blocks))
    }

    /// Figure 5's probe: the mean cosine similarity between the raw view
    /// pairs generated by the current extractor on this batch (no gradient).
    pub fn probe_similarity(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        emb: &EmbeddingLayer,
        batch: &Batch,
        rng: &mut Rng,
    ) -> f64 {
        let seq = self.seq_embs(g, store, emb, batch);
        let maps = self.extractor.extract(g, store, &seq, batch);
        if maps.maps.is_empty() {
            return 1.0;
        }
        let stack = stack_maps(g, &maps);
        let draws: Vec<PairDraw> = (0..self.cfg.p.max(1))
            .map(|_| self.selector.draw_interest(&maps, batch, rng))
            .collect();
        let views = stack.gather_views(g, &draws);
        let v = g.tape.value(views);
        let half = v.rows() / 2;
        let mut total = 0.0f64;
        let mut count = 0usize;
        for r in 0..half {
            let ra = v.row(r);
            let rb = v.row(half + r);
            let dot: f32 = ra.iter().zip(rb).map(|(&x, &y)| x * y).sum();
            let na: f32 = ra.iter().map(|&x| x * x).sum::<f32>().sqrt();
            let nb: f32 = rb.iter().map(|&x| x * x).sum::<f32>().sqrt();
            if na > 1e-6 && nb > 1e-6 {
                total += (dot / (na * nb)) as f64;
                count += 1;
            }
        }
        if count == 0 {
            1.0
        } else {
            total / count as f64
        }
    }
}

/// Every kernel branch's map of one field stacked row-wise, so a view of
/// any branch is a row of one matrix per field.
struct StackedMaps {
    /// One `(Σ_m B·W_m)×K` matrix per sequential field.
    per_field: Vec<Var>,
    /// First row of each branch's block.
    offsets: Vec<usize>,
}

impl StackedMaps {
    /// Both views of every draw, flattened to `(2·draws·B)×(J·K)` (the
    /// `Flat` of Eq. 20): view 1 of each draw in draw order, then view 2
    /// of each draw, gathered with one `gather_rows` per field.
    fn gather_views(&self, g: &mut Graph, draws: &[PairDraw]) -> Var {
        let rows: usize = draws.iter().map(|d| d.idx1.len() + d.idx2.len()).sum();
        let mut idx = Vec::with_capacity(rows);
        for second in [false, true] {
            for d in draws {
                let off = self.offsets[d.map];
                let view = if second { &d.idx2 } else { &d.idx1 };
                idx.extend(view.iter().map(|&r| off + r));
            }
        }
        let parts: Vec<Var> = self
            .per_field
            .iter()
            .map(|&f| g.tape.gather_rows(f, idx.clone()))
            .collect();
        g.tape.concat_cols(&parts)
    }
}

/// Stack `maps` row-wise per field (one `concat_rows` each, none for a
/// single branch).
fn stack_maps(g: &mut Graph, maps: &InterestMaps) -> StackedMaps {
    let mut offsets = Vec::with_capacity(maps.maps.len());
    let mut rows = 0;
    for map in &maps.maps {
        offsets.push(rows);
        rows += maps.batch * map.width;
    }
    let fields = maps.maps.first().map_or(0, |m| m.per_field.len());
    let per_field = (0..fields)
        .map(|f| {
            let parts: Vec<Var> = maps
                .maps
                .iter()
                .filter_map(|m| m.per_field.get(f).copied())
                .collect();
            match parts.as_slice() {
                [one] => *one,
                _ => g.tape.concat_rows(&parts),
            }
        })
        .collect();
    StackedMaps { per_field, offsets }
}

impl SslMethod for Miss {
    fn name(&self) -> &'static str {
        "MISS"
    }

    fn ssl_loss(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        emb: &EmbeddingLayer,
        batch: &Batch,
        rng: &mut Rng,
    ) -> Option<Var> {
        let (li, lif) = self.ssl_losses(g, store, emb, batch, rng);
        let mut total: Option<Var> = None;
        if let Some(l) = li {
            let w = g.tape.scale(l, self.cfg.alpha1);
            total = Some(w);
        }
        if let Some(l) = lif {
            let w = g.tape.scale(l, self.cfg.alpha2);
            total = Some(match total {
                Some(t) => g.tape.add(t, w),
                None => w,
            });
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExtractorKind, MissVariant};
    use miss_data::{Batch, Dataset, Sample, WorldConfig};

    fn setup(
        cfg: MissConfig,
    ) -> (Batch, ParamStore, EmbeddingLayer, Miss, Rng) {
        let dataset = Dataset::generate(WorldConfig::tiny(), 41);
        let refs: Vec<&Sample> = dataset.train.iter().take(12).collect();
        let batch = Batch::from_samples(&refs, &dataset.schema);
        let mut store = ParamStore::new();
        let mut rng = Rng::new(13);
        let emb = EmbeddingLayer::new(&mut store, &dataset.schema, 10, "emb", &mut rng);
        let miss = Miss::new(&mut store, &emb, cfg, &mut rng);
        (batch, store, emb, miss, rng)
    }

    /// The composed InfoNCE chain the fused op replaced (one pair).
    fn composed_info_nce(g: &mut Graph, z1: Var, z2: Var, tau: f32) -> Var {
        let n1 = g.tape.l2_normalize_rows(z1, 1e-8);
        let n2 = g.tape.l2_normalize_rows(z2, 1e-8);
        let sims = g.tape.matmul_nt(n1, n2);
        let scaled = g.tape.scale(sims, 1.0 / tau);
        let pos = g.tape.diag(scaled);
        let lse = g.tape.logsumexp_rows(scaled);
        let diff = g.tape.sub(lse, pos);
        g.tape.mean_all(diff)
    }

    fn accumulate(g: &mut Graph, acc: Option<Var>, l: Var) -> Option<Var> {
        Some(match acc {
            Some(a) => g.tape.add(a, l),
            None => l,
        })
    }

    /// The per-draw `ssl_losses` the batched one replaced, kept as the
    /// reference: every pair is gathered, convolved over its whole map,
    /// encoded and scored on its own, then the losses are averaged.
    fn reference_ssl_losses(
        miss: &Miss,
        g: &mut Graph,
        store: &ParamStore,
        emb: &EmbeddingLayer,
        batch: &Batch,
        rng: &mut Rng,
    ) -> (Option<Var>, Option<Var>) {
        let cfg = &miss.cfg;
        if batch.size < 2 {
            return (None, None);
        }
        let seq = miss.seq_embs(g, store, emb, batch);
        if !cfg.interest_level {
            let pooled: Vec<Var> = seq
                .iter()
                .map(|&s| miss_models::mean_pool(g, s, batch))
                .collect();
            let rep = g.tape.concat_cols(&pooled);
            let v1 = dropout(g, rep, 0.2, true, rng);
            let v2 = dropout(g, rep, 0.2, true, rng);
            let z1 = miss.encode_i(g, store, v1);
            let z2 = miss.encode_i(g, store, v2);
            return (Some(composed_info_nce(g, z1, z2, cfg.tau)), None);
        }
        let maps = miss.extractor.extract(g, store, &seq, batch);
        if maps.maps.is_empty() {
            return (None, None);
        }
        let view = |g: &mut Graph, map: usize, idx: &[usize]| {
            let parts: Vec<Var> = maps.maps[map]
                .per_field
                .iter()
                .map(|&f| g.tape.gather_rows(f, idx.to_vec()))
                .collect();
            g.tape.concat_cols(&parts)
        };
        let mut li = None;
        for _ in 0..cfg.p {
            let draw = miss.selector.draw_interest(&maps, batch, rng);
            let h1 = view(g, draw.map, &draw.idx1);
            let h2 = view(g, draw.map, &draw.idx2);
            let z1 = miss.encode_i(g, store, h1);
            let z2 = miss.encode_i(g, store, h2);
            let l = composed_info_nce(g, z1, z2, cfg.tau);
            li = accumulate(g, li, l);
        }
        let li = li.map(|l| g.tape.scale(l, 1.0 / cfg.p as f32));
        let mut lif = None;
        if cfg.n > 0 && cfg.alpha2 > 0.0 {
            for _ in 0..cfg.q {
                let mi = rng.below(maps.maps.len());
                let per_n = &miss.v_kernels[mi.min(miss.v_kernels.len() - 1)];
                if per_n.is_empty() {
                    continue;
                }
                let taps = &per_n[rng.below(per_n.len())];
                let map = &maps.maps[mi];
                let n = taps.len();
                let outputs: Vec<Var> = (0..=map.per_field.len() - n)
                    .map(|j0| vertical_conv(g, store, &map.per_field[j0..j0 + n], taps))
                    .collect();
                let (j1, j2, idx) = miss.selector.draw_feature(map, outputs.len(), batch, rng);
                let v1 = g.tape.gather_rows(outputs[j1], idx.clone());
                let v2 = g.tape.gather_rows(outputs[j2], idx);
                let z1 = miss.enc_if.forward(g, store, v1);
                let z2 = miss.enc_if.forward(g, store, v2);
                let l = composed_info_nce(g, z1, z2, cfg.tau);
                lif = accumulate(g, lif, l);
            }
            lif = lif.map(|l| g.tape.scale(l, 1.0 / cfg.q as f32));
        }
        (li, lif)
    }

    /// Every element of `got` within `tol · scale` of `want`.
    fn assert_close(what: &str, got: &[f32], want: &[f32], tol: f32, scale: f32) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (e, (&a, &b)) in got.iter().zip(want).enumerate() {
            assert!(
                (a - b).abs() <= tol * scale,
                "{what}[{e}]: batched {a} vs per-draw {b} (scale {scale})"
            );
        }
    }

    fn max_abs(t: &miss_tensor::Tensor) -> f32 {
        t.as_slice().iter().fold(0.0f32, |m, v| m.max(v.abs()))
    }

    #[test]
    fn batched_ssl_losses_match_per_draw_reference() {
        let transformer = MissConfig {
            encoder: crate::EncoderKind::Transformer,
            ..MissConfig::default()
        };
        let gaussian = MissConfig {
            distance_law: crate::DistanceLaw::Gaussian { sigma: 1.5 },
            ..MissConfig::default()
        };
        let cases = [
            ("Full", MissConfig::default()),
            ("MISS/F", MissConfig::variant(MissVariant::NoF)),
            ("MISS/M/F/U/L", MissConfig::variant(MissVariant::NoMFUL)),
            (
                "SA",
                MissConfig::with_extractor(ExtractorKind::SelfAttention),
            ),
            ("LSTM", MissConfig::with_extractor(ExtractorKind::Lstm)),
            ("Transformer", transformer),
            ("Gaussian", gaussian),
        ];
        for (name, cfg) in cases {
            let (batch, store, emb, miss, rng) = setup(cfg);
            let mut rng_ref = rng.clone();
            let mut rng_new = rng;
            let mut g_ref = Graph::new(&store);
            let reference =
                reference_ssl_losses(&miss, &mut g_ref, &store, &emb, &batch, &mut rng_ref);
            let mut g_new = Graph::new(&store);
            let batched = miss.ssl_losses(&mut g_new, &store, &emb, &batch, &mut rng_new);
            assert_eq!(
                rng_new.state_parts(),
                rng_ref.state_parts(),
                "{name}: the batched draws consumed the RNG differently"
            );
            assert!(
                g_new.tape.len() < g_ref.tape.len(),
                "{name}: no fewer tape nodes"
            );

            let mut totals = [(g_ref, reference), (g_new, batched)].map(|(mut g, (li, lif))| {
                let value = |v: Option<Var>| v.map(|v| g.tape.value(v).item());
                let values = (value(li), value(lif));
                let total = match (li, lif) {
                    (Some(a), Some(b)) => g.tape.add(a, b),
                    (Some(a), None) | (None, Some(a)) => a,
                    (None, None) => panic!("{name}: no SSL loss"),
                };
                let grads = g.tape.backward(total);
                (g, (values, grads))
            });
            let (ref_li, ref_lif) = totals[0].1 .0;
            let (new_li, new_lif) = totals[1].1 .0;
            for (term, got, want) in [("L_ssl", new_li, ref_li), ("L_ssl'", new_lif, ref_lif)] {
                assert_eq!(got.is_some(), want.is_some(), "{name}: {term} presence");
                if let (Some(a), Some(b)) = (got, want) {
                    assert!(
                        (a - b).abs() <= 1e-5 * b.abs().max(1.0),
                        "{name}: {term} {a} vs {b}"
                    );
                }
            }

            // The gradients reaching every parameter agree too, to 1e-5 of
            // the largest gradient entry (a parameter whose gradient nearly
            // cancels has no meaningful relative error of its own).
            let bound = |g: &Graph, id: DenseId| {
                g.dense_bindings()
                    .iter()
                    .find(|&&(i, _)| i == id)
                    .map(|&(_, v)| v)
            };
            let [(g_ref, (_, ref_grads)), (g_new, (_, new_grads))] = &mut totals;
            let mut pairs = Vec::new();
            for (id, pname) in store.dense_ids().into_iter().zip(store.dense_names()) {
                let (rv, nv) = (bound(g_ref, id), bound(g_new, id));
                assert_eq!(rv.is_some(), nv.is_some(), "{name}: {pname} bound");
                let (Some(rv), Some(nv)) = (rv, nv) else {
                    continue;
                };
                match (new_grads.get(nv), ref_grads.get(rv)) {
                    (Some(a), Some(b)) => pairs.push((pname.to_string(), a, b)),
                    (a, b) => assert_eq!(a.is_some(), b.is_some(), "{name}: {pname} reached"),
                }
            }
            assert_eq!(
                new_grads.sparse.len(),
                ref_grads.sparse.len(),
                "{name}: sparse"
            );
            for (a, b) in new_grads.sparse.iter().zip(&ref_grads.sparse) {
                assert_eq!((a.table_id, &a.indices), (b.table_id, &b.indices));
                pairs.push((format!("table {}", a.table_id), &a.grad_rows, &b.grad_rows));
            }
            let scale = pairs.iter().fold(0.0f32, |m, (_, _, b)| m.max(max_abs(b)));
            for (what, a, b) in pairs {
                assert_close(
                    &format!("{name}: {what}"),
                    a.as_slice(),
                    b.as_slice(),
                    1e-5,
                    scale,
                );
            }
        }
    }

    #[test]
    fn full_miss_produces_both_losses() {
        let (batch, store, emb, miss, mut rng) = setup(MissConfig::default());
        let mut g = Graph::new(&store);
        let (li, lif) = miss.ssl_losses(&mut g, &store, &emb, &batch, &mut rng);
        let li = li.expect("interest loss");
        let lif = lif.expect("feature loss");
        let a = g.tape.value(li).item();
        let b = g.tape.value(lif).item();
        assert!(a.is_finite() && a > 0.0, "L_ssl = {a}");
        assert!(b.is_finite() && b > 0.0, "L_ssl' = {b}");
    }

    #[test]
    fn no_f_variant_has_no_feature_loss() {
        let (batch, store, emb, miss, mut rng) = setup(MissConfig::variant(MissVariant::NoF));
        let mut g = Graph::new(&store);
        let (li, lif) = miss.ssl_losses(&mut g, &store, &emb, &batch, &mut rng);
        assert!(li.is_some());
        assert!(lif.is_none());
    }

    #[test]
    fn sample_level_variant_still_produces_a_loss() {
        let (batch, store, emb, miss, mut rng) = setup(MissConfig::variant(MissVariant::NoMFUL));
        let mut g = Graph::new(&store);
        let (li, lif) = miss.ssl_losses(&mut g, &store, &emb, &batch, &mut rng);
        assert!(li.is_some(), "sample-level loss present");
        assert!(lif.is_none());
    }

    #[test]
    fn ssl_loss_backprops_into_embeddings() {
        let (batch, store, emb, miss, mut rng) = setup(MissConfig::default());
        let mut g = Graph::new(&store);
        let loss = miss
            .ssl_loss(&mut g, &store, &emb, &batch, &mut rng)
            .expect("loss");
        let grads = g.tape.backward(loss);
        assert!(
            !grads.sparse.is_empty(),
            "SSL loss must reach the embedding tables"
        );
    }

    #[test]
    fn tiny_batch_yields_no_loss() {
        let (_batch, store, emb, miss, mut rng) = setup(MissConfig::default());
        let dataset = Dataset::generate(WorldConfig::tiny(), 42);
        let refs: Vec<&Sample> = dataset.train.iter().take(1).collect();
        let single = Batch::from_samples(&refs, &dataset.schema);
        let mut g = Graph::new(&store);
        let (li, lif) = miss.ssl_losses(&mut g, &store, &emb, &single, &mut rng);
        assert!(li.is_none() && lif.is_none(), "no negatives, no loss");
    }

    #[test]
    fn probe_similarity_in_range_and_below_one_for_cnn() {
        let (batch, store, emb, miss, mut rng) = setup(MissConfig::default());
        let mut g = Graph::new(&store);
        let sim = miss.probe_similarity(&mut g, &store, &emb, &batch, &mut rng);
        assert!((-1.0..=1.0).contains(&sim), "cosine out of range: {sim}");
        assert!(sim < 0.999, "CNN views should be distinguishable: {sim}");
    }

    #[test]
    fn transformer_encoder_produces_loss_and_gradients() {
        let mut cfg = MissConfig::default();
        cfg.encoder = crate::EncoderKind::Transformer;
        let (batch, store, emb, miss, mut rng) = setup(cfg);
        let mut g = Graph::new(&store);
        let loss = miss
            .ssl_loss(&mut g, &store, &emb, &batch, &mut rng)
            .expect("loss");
        assert!(g.tape.value(loss).item().is_finite());
        let grads = g.tape.backward(loss);
        // the transformer projections must receive gradients
        let touched = g
            .dense_bindings()
            .iter()
            .filter(|&&(_, var)| grads.get(var).is_some())
            .count();
        assert!(touched > 10, "only {touched} dense params touched");
    }

    #[test]
    fn gaussian_distance_law_produces_loss() {
        let mut cfg = MissConfig::default();
        cfg.distance_law = crate::DistanceLaw::Gaussian { sigma: 1.5 };
        let (batch, store, emb, miss, mut rng) = setup(cfg);
        let mut g = Graph::new(&store);
        let (li, _) = miss.ssl_losses(&mut g, &store, &emb, &batch, &mut rng);
        assert!(li.is_some());
    }

    #[test]
    fn extractor_variants_produce_losses() {
        for kind in [ExtractorKind::SelfAttention, ExtractorKind::Lstm] {
            let (batch, store, emb, miss, mut rng) = setup(MissConfig::with_extractor(kind));
            let mut g = Graph::new(&store);
            let (li, _) = miss.ssl_losses(&mut g, &store, &emb, &batch, &mut rng);
            let li = li.expect("interest loss");
            assert!(g.tape.value(li).item().is_finite());
        }
    }
}
