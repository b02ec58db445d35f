//! Property-based gradient checks: random shapes and random compositions of
//! ops must always agree with finite differences, and the backward pass must
//! be shape-safe for any valid graph.

use miss_autograd::{gradcheck, Tape};
use miss_tensor::Tensor;
use miss_testkit::{prop_assert, prop_assert_eq, properties};

fn smooth_matrix(r: usize, c: usize, seed: i32) -> Tensor {
    Tensor::from_fn(r, c, |i, j| {
        let x = (i as f32 * 0.7 + j as f32 * 1.3 + seed as f32 * 0.37).sin() * 0.8;
        // keep away from ReLU kinks
        if x.abs() < 0.05 {
            x + 0.1
        } else {
            x
        }
    })
}

properties! {
    #![config(cases = 24)]

    fn matmul_grad_random_shapes(m in 1usize..5, k in 1usize..5, n in 1usize..5, seed in 0i32..50) {
        let a = smooth_matrix(m, k, seed);
        let b = smooth_matrix(k, n, seed + 1);
        gradcheck::check(
            &[a, b],
            |t, vs| {
                let y = t.matmul(vs[0], vs[1]);
                let s = t.sigmoid(y);
                t.sum_all(s)
            },
            6e-2,
        );
    }

    fn deep_composition_grad(r in 2usize..5, c in 2usize..5, seed in 0i32..50) {
        let x = smooth_matrix(r, c, seed);
        let w = smooth_matrix(c, 3, seed + 2);
        gradcheck::check(
            &[x, w],
            |t, vs| {
                let h = t.matmul(vs[0], vs[1]);
                let a = t.tanh(h);
                let n = t.l2_normalize_rows(a, 1e-8);
                let sm = t.softmax_rows(n);
                let lse = t.logsumexp_rows(sm);
                t.mean_all(lse)
            },
            8e-2,
        );
    }

    fn bmm_pipeline_grad(blocks in 1usize..4, p in 1usize..3, k in 2usize..5, seed in 0i32..30) {
        let a = smooth_matrix(blocks * p, k, seed);
        let b = smooth_matrix(blocks * p, k, seed + 3);
        gradcheck::check(
            &[a, b],
            move |t, vs| {
                let scores = t.bmm_nt(vs[0], vs[1], blocks);
                let att = t.softmax_rows(scores);
                let out = t.bmm_nn(att, vs[1], blocks);
                let sq = t.mul(out, out);
                t.sum_all(sq)
            },
            8e-2,
        );
    }

    fn info_nce_grad_random(b in 2usize..5, d in 2usize..6, blocks in 1usize..4, seed in 0i32..30) {
        let z1 = smooth_matrix(blocks * b, d, seed);
        let z2 = smooth_matrix(blocks * b, d, seed + 7);
        gradcheck::check(
            &[z1, z2],
            move |t, vs| t.info_nce(vs[0], vs[1], blocks, 0.5),
            8e-2,
        );
    }

    fn fanout_and_reuse_grad(r in 2usize..5, c in 2usize..5, seed in 0i32..30) {
        // same leaf used through three different paths
        let x = smooth_matrix(r, c, seed);
        gradcheck::check(
            &[x],
            |t, vs| {
                let a = t.relu(vs[0]);
                let b = t.sigmoid(vs[0]);
                let c1 = t.mul(vs[0], vs[0]);
                let ab = t.add(a, b);
                let abc = t.add(ab, c1);
                t.mean_all(abc)
            },
            6e-2,
        );
    }

    fn backward_never_panics_on_valid_graphs(r in 1usize..6, c in 1usize..6, seed in 0i32..100) {
        let mut tape = Tape::new();
        let x = tape.leaf(smooth_matrix(r, c, seed));
        let y = tape.tanh(x);
        let z = tape.mul(y, y);
        let w = tape.row_sum(z);
        let loss = tape.sum_all(w);
        let grads = tape.backward(loss);
        let g = grads.expect(x);
        prop_assert_eq!(g.shape(), (r, c));
        prop_assert!(!g.has_non_finite());
    }
}
