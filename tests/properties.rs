//! Property-based tests (miss-testkit) over the workspace's core invariants:
//! tensor algebra, metric invariances, numerical stability, simulator
//! protocol guarantees, and the InfoNCE bounds.

use miss::autograd::Tape;
use miss::data::{Batch, Dataset, Sample, WorldConfig};
use miss::metrics::{auc, logloss};
use miss::tensor::Tensor;
use miss_testkit::{
    bools, prop_assert, prop_assert_eq, prop_assume, properties, vec_of, Strategy, StrategyExt,
};

fn finite_f32() -> impl Strategy<Value = f32> {
    (-50.0f32..50.0).prop_map(|x| (x * 100.0).round() / 100.0)
}

/// `(rows, cols, data)` with `data.len() == rows * cols`. Internally draws a
/// max-size buffer and truncates, so the dimensions shrink independently of
/// the elements.
fn small_matrix(max_dim: usize) -> impl Strategy<Value = (usize, usize, Vec<f32>)> {
    let buf = max_dim * max_dim;
    (1..=max_dim, 1..=max_dim, vec_of(finite_f32(), buf..buf + 1))
        .prop_map(|(r, c, v)| (r, c, v[..r * c].to_vec()))
}

properties! {
    #![config(cases = 64)]

    // ---------------- tensor algebra ----------------

    fn matmul_distributes_over_addition((r, k, a) in small_matrix(6), c in 1usize..6) {
        let a1 = Tensor::from_vec(r, k, a.clone());
        let a2 = Tensor::from_vec(r, k, a.iter().map(|x| x * 0.5 - 1.0).collect());
        let b = Tensor::from_fn(k, c, |i, j| (i as f32 - j as f32) * 0.25);
        let lhs = a1.add(&a2).matmul_nn(&b);
        let rhs = a1.matmul_nn(&b).add(&a2.matmul_nn(&b));
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() <= 1e-3 * (1.0 + x.abs()));
        }
    }

    fn transpose_respects_matmul((r, k, a) in small_matrix(6), c in 1usize..6) {
        let a = Tensor::from_vec(r, k, a);
        let b = Tensor::from_fn(k, c, |i, j| 0.3 * i as f32 - 0.2 * j as f32);
        let ab_t = a.matmul_nn(&b).transpose();
        let bt_at = b.transpose().matmul_nn(&a.transpose());
        for (x, y) in ab_t.as_slice().iter().zip(bt_at.as_slice()) {
            prop_assert!((x - y).abs() <= 1e-3 * (1.0 + x.abs()));
        }
    }

    fn gather_then_scatter_restores_row_sums((r, c, v) in small_matrix(6)) {
        let x = Tensor::from_vec(r, c, v);
        let idx: Vec<usize> = (0..r).collect();
        let g = x.gather_rows(&idx);
        let mut acc = Tensor::zeros(r, c);
        acc.scatter_add_rows(&idx, &g);
        prop_assert_eq!(acc.as_slice(), x.as_slice());
    }

    fn softmax_rows_are_distributions((r, c, v) in small_matrix(7)) {
        let x = Tensor::from_vec(r, c, v);
        let s = x.row_softmax();
        for row in 0..r {
            let sum: f32 = s.row(row).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4, "row sum {}", sum);
            prop_assert!(s.row(row).iter().all(|&p| (0.0..=1.0 + 1e-6).contains(&p)));
        }
    }

    fn logsumexp_bounds((r, c, v) in small_matrix(7)) {
        let x = Tensor::from_vec(r, c, v);
        let lse = x.row_logsumexp();
        for row in 0..r {
            let max = x.row(row).iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let val = lse.get(row, 0);
            prop_assert!(val >= max - 1e-4);
            prop_assert!(val <= max + (c as f32).ln() + 1e-4);
        }
    }

    // ---------------- metrics ----------------

    fn auc_is_invariant_to_positive_affine_transforms(
        scores in vec_of(finite_f32(), 4..40),
        labels_bits in vec_of(bools(), 4..40),
        a in 0.1f32..5.0,
        b in finite_f32(),
    ) {
        let n = scores.len().min(labels_bits.len());
        let scores = &scores[..n];
        let labels: Vec<f32> = labels_bits[..n].iter().map(|&x| x as u8 as f32).collect();
        let base = auc(scores, &labels);
        let transformed: Vec<f32> = scores.iter().map(|s| a * s + b).collect();
        prop_assert!((auc(&transformed, &labels) - base).abs() < 1e-9);
    }

    fn auc_complement_symmetry(
        scores in vec_of(finite_f32(), 4..40),
        labels_bits in vec_of(bools(), 4..40),
    ) {
        let n = scores.len().min(labels_bits.len());
        let scores = &scores[..n];
        let labels: Vec<f32> = labels_bits[..n].iter().map(|&x| x as u8 as f32).collect();
        let flipped: Vec<f32> = labels.iter().map(|&y| 1.0 - y).collect();
        let a1 = auc(scores, &labels);
        let a2 = auc(scores, &flipped);
        // flipping labels mirrors AUC around 0.5 (exactly when both classes
        // are present; degenerate cases return 0.5 on both sides)
        prop_assert!((a1 + a2 - 1.0).abs() < 1e-9 || (a1 == 0.5 && a2 == 0.5));
    }

    fn logloss_is_nonnegative_and_finite(
        probs in vec_of(0.0f32..=1.0, 1..50),
        labels_bits in vec_of(bools(), 1..50),
    ) {
        let n = probs.len().min(labels_bits.len());
        let labels: Vec<f32> = labels_bits[..n].iter().map(|&x| x as u8 as f32).collect();
        let l = logloss(&probs[..n], &labels);
        prop_assert!(l.is_finite());
        prop_assert!(l >= 0.0);
    }

    // ---------------- autograd ----------------

    fn info_nce_at_least_handles_any_views((r, c, v) in small_matrix(6)) {
        prop_assume!(r >= 2);
        let mut tape = Tape::new();
        let z1 = tape.constant(Tensor::from_vec(r, c, v.clone()));
        let z2 = tape.constant(Tensor::from_vec(r, c, v.iter().map(|x| x + 0.1).collect()));
        let loss = tape.info_nce(z1, z2, 1, 0.5);
        let val = tape.value(loss).item();
        prop_assert!(val.is_finite());
        // InfoNCE over B in-batch candidates is bounded by ln(B) only in
        // expectation at uniformity; hard bounds: loss >= 0 is not guaranteed
        // pointwise, but it is bounded below by -(max sim - min sim)/tau.
        prop_assert!(val > -2.0 / 0.5 - 1e-3);
    }

    fn bce_with_logits_matches_naive(
        logits in vec_of(-8.0f32..8.0, 1..20),
        labels_bits in vec_of(bools(), 1..20),
    ) {
        let n = logits.len().min(labels_bits.len());
        let logits = &logits[..n];
        let labels: Vec<f32> = labels_bits[..n].iter().map(|&x| x as u8 as f32).collect();
        let mut tape = Tape::new();
        let z = tape.constant(Tensor::from_vec(n, 1, logits.to_vec()));
        let loss = tape.bce_with_logits_mean(z, Tensor::from_vec(n, 1, labels.clone()));
        let naive: f32 = logits
            .iter()
            .zip(&labels)
            .map(|(&z, &y)| {
                let p = (1.0 / (1.0 + (-z).exp())).clamp(1e-7, 1.0 - 1e-7);
                -(y * p.ln() + (1.0 - y) * (1.0 - p).ln())
            })
            .sum::<f32>() / n as f32;
        prop_assert!((tape.value(loss).item() - naive).abs() < 1e-4);
    }

    // ---------------- data pipeline ----------------

    fn simulator_protocol_invariants(seed in 0u64..200) {
        let dataset = Dataset::generate(WorldConfig::tiny(), seed);
        let users = dataset.schema.vocabs[0].size - 1;
        // two instances per user per split
        prop_assert_eq!(dataset.train.len(), users * 2);
        prop_assert_eq!(dataset.valid.len(), users * 2);
        prop_assert_eq!(dataset.test.len(), users * 2);
        // alternating labels, shared histories within a pair
        for pair in dataset.train.chunks(2) {
            prop_assert_eq!(pair[0].label, 1.0);
            prop_assert_eq!(pair[1].label, 0.0);
            prop_assert_eq!(&pair[0].hist, &pair[1].hist);
        }
    }

    fn batches_pad_consistently(seed in 0u64..50, bs in 1usize..32) {
        let dataset = Dataset::generate(WorldConfig::tiny(), seed);
        let take = bs.min(dataset.train.len());
        let refs: Vec<&Sample> = dataset.train.iter().take(take).collect();
        let batch = Batch::from_samples(&refs, &dataset.schema);
        let l = batch.seq_len;
        for i in 0..batch.size {
            for p in 0..l {
                let masked = batch.mask[i * l + p] > 0.0;
                for seq in &batch.seq {
                    if !masked {
                        prop_assert_eq!(seq[i * l + p], 0, "padding must be PAD id");
                    } else {
                        prop_assert!(seq[i * l + p] > 0, "real position holds a real id");
                    }
                }
            }
        }
    }
}
