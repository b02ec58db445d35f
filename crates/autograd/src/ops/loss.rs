//! Composite loss heads implemented as fused ops for numerical stability.

use crate::ops::reduce::{normalize_rows, normalize_rows_backward};
use crate::tape::{Tape, Var};
use miss_tensor::Tensor;

impl Tape {
    /// Mean binary cross-entropy over logits (Eq. 7 of the paper, fused with
    /// the sigmoid for stability): `mean(max(z,0) − y·z + ln(1+e^{−|z|}))`.
    /// `labels` is plain data (`B×1` of 0/1), not a tape value.
    pub fn bce_with_logits_mean(&mut self, logits: Var, labels: Tensor) -> Var {
        let (b, c) = self.shape(logits);
        assert_eq!(c, 1, "logits must be B×1");
        assert_eq!(labels.shape(), (b, 1), "labels must match logits");
        let z = self.value(logits);
        let mut total = 0.0f32;
        for (&zv, &yv) in z.as_slice().iter().zip(labels.as_slice()) {
            total += zv.max(0.0) - yv * zv + (-zv.abs()).exp().ln_1p();
        }
        let value = Tensor::scalar(total / b as f32);
        self.push_op(&[logits], value, move |g, vals, ctx| {
            let z = &vals[logits.0];
            let scale = g.item() / b as f32;
            let dz = Tensor::from_vec(
                b,
                1,
                z.as_slice()
                    .iter()
                    .zip(labels.as_slice())
                    .map(|(&zv, &yv)| (miss_util::sigmoid(zv) - yv) * scale)
                    .collect(),
            );
            ctx.accum(logits, dz);
        })
    }

    /// InfoNCE loss (Eq. 15/16) over `blocks` stacked view-pair batches.
    ///
    /// `z1` and `z2` are `(blocks·B)×d`; rows `[kB, (k+1)B)` of each form
    /// block `k`. Within a block, row `i` of `z1` is positive with row `i`
    /// of `z2` and negative with the block's other `z2` rows; blocks never
    /// see each other's rows. Similarity is cosine scaled by `1/τ`, rows
    /// are normalised by `max(‖z‖, 1e-8)`. Returns the `1×1` mean over all
    /// `blocks·B` rows, which is the mean of the per-block losses.
    ///
    /// One fused op: normalise, per-block `bmm_nt`, softmax and
    /// log-sum-exp in one forward; the backward reuses the forward's
    /// softmax, so `exp` runs once per similarity.
    pub fn info_nce(&mut self, z1: Var, z2: Var, blocks: usize, tau: f32) -> Var {
        self.info_nce_floored(z1, z2, blocks, tau, NORM_EPS)
    }

    /// [`Tape::info_nce`] with an explicit row-norm floor `eps`.
    pub(crate) fn info_nce_floored(
        &mut self,
        z1: Var,
        z2: Var,
        blocks: usize,
        tau: f32,
        eps: f32,
    ) -> Var {
        let (n, d) = self.shape(z1);
        assert_eq!(self.shape(z2), (n, d), "view batches must match");
        assert!(
            blocks > 0 && n % blocks == 0,
            "{n} rows do not split into {blocks} blocks"
        );
        let b = n / blocks;
        let (y1, norms1) = normalize_rows(self.value(z1), eps);
        let (y2, norms2) = normalize_rows(self.value(z2), eps);
        let inv_tau = 1.0 / tau;
        // Per-block logits, turned into the softmax in place.
        let mut probs = y1.bmm_nt(&y2, blocks);
        let mut total = 0.0f32;
        for (i, row) in probs.as_mut_slice().chunks_exact_mut(b).enumerate() {
            let mut max = f32::NEG_INFINITY;
            for v in row.iter_mut() {
                *v *= inv_tau;
                max = max.max(*v);
            }
            let pos = row[i % b];
            let mut sum = 0.0f32;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            total += max + sum.ln() - pos;
            for v in row.iter_mut() {
                *v /= sum;
            }
        }
        let value = Tensor::scalar(total / n as f32);
        self.push_op(&[z1, z2], value, move |g, _vals, ctx| {
            // dL/dlogits = (softmax − I) · g/n per block; the 1/τ of the
            // logits folds into the same scale.
            let s = g.item() / n as f32 * inv_tau;
            let mut dlogits = probs;
            for (i, row) in dlogits.as_mut_slice().chunks_exact_mut(b).enumerate() {
                row[i % b] -= 1.0;
                for v in row.iter_mut() {
                    *v *= s;
                }
            }
            let dy1 = dlogits.bmm_nn(&y2, blocks);
            let dy2 = dlogits.bmm_tn(&y1, blocks);
            ctx.accum(z1, normalize_rows_backward(&y1, &norms1, dy1));
            ctx.accum(z2, normalize_rows_backward(&y2, &norms2, dy2));
        })
    }
}

/// Row-norm floor of [`Tape::info_nce`]: an all-zero view stays zero
/// instead of dividing by zero.
const NORM_EPS: f32 = 1e-8;

#[cfg(test)]
mod tests {
    use crate::gradcheck::check;
    use crate::{Tape, Var};
    use miss_tensor::Tensor;

    #[test]
    fn bce_matches_naive() {
        let mut t = Tape::new();
        let logits = t.constant(Tensor::from_vec(3, 1, vec![0.5, -1.2, 2.0]));
        let labels = Tensor::from_vec(3, 1, vec![1.0, 0.0, 1.0]);
        let loss = t.bce_with_logits_mean(logits, labels.clone());
        let naive: f32 = [0.5f32, -1.2, 2.0]
            .iter()
            .zip(labels.as_slice())
            .map(|(&z, &y)| {
                let p = 1.0 / (1.0 + (-z).exp());
                -(y * p.ln() + (1.0 - y) * (1.0 - p).ln())
            })
            .sum::<f32>()
            / 3.0;
        assert!((t.value(loss).item() - naive).abs() < 1e-5);
    }

    #[test]
    fn grad_bce() {
        let logits = Tensor::from_vec(4, 1, vec![0.3, -0.7, 1.5, -2.0]);
        let labels = Tensor::from_vec(4, 1, vec![1.0, 0.0, 0.0, 1.0]);
        check(
            &[logits],
            move |t, vs| t.bce_with_logits_mean(vs[0], labels.clone()),
            5e-2,
        );
    }

    /// The composed InfoNCE chain the fused op replaced, kept as the
    /// reference: one block, built from generic differentiable ops.
    fn composed_info_nce(t: &mut Tape, z1: Var, z2: Var, tau: f32) -> Var {
        let n1 = t.l2_normalize_rows(z1, 1e-8);
        let n2 = t.l2_normalize_rows(z2, 1e-8);
        let sims = t.matmul_nt(n1, n2);
        let scaled = t.scale(sims, 1.0 / tau);
        let pos = t.diag(scaled);
        let lse = t.logsumexp_rows(scaled);
        let diff = t.sub(lse, pos);
        t.mean_all(diff)
    }

    /// The composed chain run per block and averaged over blocks.
    fn composed_blocks(t: &mut Tape, z1: Var, z2: Var, blocks: usize, tau: f32) -> Var {
        let b = t.shape(z1).0 / blocks;
        let losses: Vec<Var> = (0..blocks)
            .map(|k| {
                let a = t.slice_rows(z1, k * b, (k + 1) * b);
                let c = t.slice_rows(z2, k * b, (k + 1) * b);
                composed_info_nce(t, a, c, tau)
            })
            .collect();
        let sum = losses[1..].iter().fold(losses[0], |acc, &l| t.add(acc, l));
        t.scale(sum, 1.0 / blocks as f32)
    }

    fn views(rows: usize, d: usize, seed: f32) -> Tensor {
        Tensor::from_fn(rows, d, |i, j| {
            ((i as f32) * 0.9 + (j as f32) * 1.7 + seed).sin() * (0.5 + 0.1 * j as f32)
        })
    }

    /// `(loss, dz1, dz2)` of `build` on leaves `z1`, `z2`.
    fn run(
        z1: &Tensor,
        z2: &Tensor,
        build: impl Fn(&mut Tape, Var, Var) -> Var,
    ) -> (f32, Tensor, Tensor) {
        let mut t = Tape::new();
        let a = t.leaf(z1.clone());
        let b = t.leaf(z2.clone());
        let loss = build(&mut t, a, b);
        let value = t.value(loss).item();
        let mut grads = t.backward(loss);
        (
            value,
            grads.take(a).expect("dz1"),
            grads.take(b).expect("dz2"),
        )
    }

    fn assert_close(what: &str, got: &[f32], want: &[f32]) {
        assert_eq!(got.len(), want.len());
        let scale = want.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        for (e, (&g, &w)) in got.iter().zip(want).enumerate() {
            assert!(
                (g - w).abs() <= 1e-5 * scale,
                "{what}[{e}]: fused {g} vs composed {w} (scale {scale})"
            );
        }
    }

    #[test]
    fn grad_info_nce() {
        let z1 = Tensor::from_fn(3, 4, |i, j| 0.4 * (i as f32) - 0.3 * (j as f32) + 0.2);
        let z2 = Tensor::from_fn(3, 4, |i, j| 0.1 * (i as f32) + 0.25 * (j as f32) - 0.3);
        check(&[z1, z2], |t, vs| t.info_nce(vs[0], vs[1], 1, 0.5), 6e-2);
    }

    #[test]
    fn grad_info_nce_blocks_with_zero_row() {
        // One all-zero row per input sits under the norm floor. The floor
        // must exceed gradcheck's 1e-2 step so both probes stay on the
        // floor's linear branch; the production floor (1e-8) is far below
        // any step f32 finite differences can take.
        for blocks in [1, 3] {
            for b in [2, 5] {
                let mut z1 = views(blocks * b, 4, 0.3);
                let mut z2 = views(blocks * b, 4, 1.1);
                z1.row_mut(b - 1).fill(0.0);
                z2.row_mut(blocks * b - 1).fill(0.0);
                check(
                    &[z1, z2],
                    move |t, vs| t.info_nce_floored(vs[0], vs[1], blocks, 0.5, 0.05),
                    6e-2,
                );
            }
        }
    }

    #[test]
    fn fused_info_nce_matches_composed_chain_per_block() {
        for blocks in [1, 3] {
            for b in [2, 5] {
                let z1 = views(blocks * b, 6, 0.7);
                let mut z2 = views(blocks * b, 6, 2.3);
                // An all-zero view exercises the 1e-8 floor on both paths.
                z2.row_mut(1).fill(0.0);
                let fused = run(&z1, &z2, |t, a, c| t.info_nce(a, c, blocks, 0.2));
                let composed = run(&z1, &z2, |t, a, c| composed_blocks(t, a, c, blocks, 0.2));
                assert_close("loss", &[fused.0], &[composed.0]);
                assert_close("dz1", fused.1.as_slice(), composed.1.as_slice());
                assert_close("dz2", fused.2.as_slice(), composed.2.as_slice());
            }
        }
    }

    #[test]
    fn blocks_keep_their_own_negatives() {
        // Two blocks score as the mean of each block alone, not as one
        // block over all rows (which would mix negatives across blocks).
        let z1 = views(6, 4, 0.1);
        let z2 = views(6, 4, 0.9);
        let (two_blocks, _, _) = run(&z1, &z2, |t, a, c| t.info_nce(a, c, 2, 0.5));
        let (one_block, _, _) = run(&z1, &z2, |t, a, c| t.info_nce(a, c, 1, 0.5));
        let (first, _, _) = run(
            &Tensor::from_vec(3, 4, z1.as_slice()[..12].to_vec()),
            &Tensor::from_vec(3, 4, z2.as_slice()[..12].to_vec()),
            |t, a, c| t.info_nce(a, c, 1, 0.5),
        );
        let (second, _, _) = run(
            &Tensor::from_vec(3, 4, z1.as_slice()[12..].to_vec()),
            &Tensor::from_vec(3, 4, z2.as_slice()[12..].to_vec()),
            |t, a, c| t.info_nce(a, c, 1, 0.5),
        );
        assert!((two_blocks - 0.5 * (first + second)).abs() < 1e-6);
        assert!((two_blocks - one_block).abs() > 1e-3);
    }

    #[test]
    fn info_nce_prefers_aligned_views() {
        // identical views => positives maximal => lower loss than shuffled views
        let mut t = Tape::new();
        let z = Tensor::from_fn(4, 6, |i, j| ((i * 7 + j * 3) % 5) as f32 - 2.0);
        let a = t.constant(z.clone());
        let b = t.constant(z.clone());
        let aligned = t.info_nce(a, b, 1, 0.1);
        let shuffled_rows: Vec<usize> = vec![1, 2, 3, 0];
        let zs = z.gather_rows(&shuffled_rows);
        let c = t.constant(z);
        let d = t.constant(zs);
        let misaligned = t.info_nce(c, d, 1, 0.1);
        assert!(t.value(aligned).item() < t.value(misaligned).item());
    }

    #[test]
    fn info_nce_at_uniformity_is_ln_b() {
        // all views identical across the batch => every similarity equals 1
        // => loss = ln(B)
        let mut t = Tape::new();
        let z = Tensor::full(5, 3, 1.0);
        let a = t.constant(z.clone());
        let b = t.constant(z);
        let loss = t.info_nce(a, b, 1, 1.0);
        assert!((t.value(loss).item() - (5f32).ln()).abs() < 1e-4);
    }
}
