//! Reductions and row-wise numerics (softmax, log-sum-exp, normalisation).

use crate::tape::{Tape, Var};
use miss_tensor::Tensor;

impl Tape {
    /// Sum of all elements as a `1×1` scalar.
    pub fn sum_all(&mut self, x: Var) -> Var {
        let (r, c) = self.shape(x);
        let value = Tensor::scalar(self.value(x).sum_all());
        self.push_op(&[x], value, move |g, _vals, ctx| {
            ctx.accum(x, Tensor::full(r, c, g.item()));
        })
    }

    /// Mean of all elements as a `1×1` scalar.
    pub fn mean_all(&mut self, x: Var) -> Var {
        let (r, c) = self.shape(x);
        let n = (r * c) as f32;
        let value = Tensor::scalar(self.value(x).mean_all());
        self.push_op(&[x], value, move |g, _vals, ctx| {
            ctx.accum(x, Tensor::full(r, c, g.item() / n));
        })
    }

    /// Row sums as an `R×1` column.
    pub fn row_sum(&mut self, x: Var) -> Var {
        let (r, c) = self.shape(x);
        let value = self.value(x).row_sum();
        self.push_op(&[x], value, move |g, _vals, ctx| {
            let mut dx = Tensor::zeros(r, c);
            for i in 0..r {
                let gi = g.get(i, 0);
                for v in dx.row_mut(i) {
                    *v = gi;
                }
            }
            ctx.accum(x, dx);
        })
    }

    /// Row means as an `R×1` column.
    pub fn row_mean(&mut self, x: Var) -> Var {
        let (_, c) = self.shape(x);
        let s = self.row_sum(x);
        self.scale(s, 1.0 / c as f32)
    }

    /// Numerically stable row-wise softmax.
    pub fn softmax_rows(&mut self, x: Var) -> Var {
        let value = self.value(x).row_softmax();
        let out_slot = self.len();
        self.push_op(&[x], value, move |g, vals, ctx| {
            let y = &vals[out_slot];
            let (r, c) = y.shape();
            let mut dx = Tensor::zeros(r, c);
            for i in 0..r {
                let yrow = y.row(i);
                let grow = g.row(i);
                let dot: f32 = yrow.iter().zip(grow).map(|(&a, &b)| a * b).sum();
                for ((d, &yv), &gv) in dx.row_mut(i).iter_mut().zip(yrow).zip(grow) {
                    *d = (gv - dot) * yv;
                }
            }
            ctx.accum(x, dx);
        })
    }

    /// Numerically stable row-wise log-sum-exp as an `R×1` column.
    pub fn logsumexp_rows(&mut self, x: Var) -> Var {
        let value = self.value(x).row_logsumexp();
        self.push_op(&[x], value, move |g, vals, ctx| {
            // d/dx_ij = softmax(x)_ij * g_i
            let sm = vals[x.0].row_softmax();
            ctx.accum(x, sm.mul_col_broadcast(g));
        })
    }

    /// Row-wise L2 normalisation `y = x / max(‖x‖, eps)`.
    pub fn l2_normalize_rows(&mut self, x: Var, eps: f32) -> Var {
        let (value, norms) = normalize_rows(self.value(x), eps);
        let out_slot = self.len();
        self.push_op(&[x], value, move |g, vals, ctx| {
            ctx.accum(
                x,
                normalize_rows_backward(&vals[out_slot], &norms, g.clone()),
            );
        })
    }

    /// Diagonal of a square matrix as a `B×1` column.
    pub fn diag(&mut self, x: Var) -> Var {
        let (r, c) = self.shape(x);
        assert_eq!(r, c, "diag needs a square matrix");
        let xv = self.value(x);
        let value = Tensor::from_vec(r, 1, (0..r).map(|i| xv.get(i, i)).collect());
        self.push_op(&[x], value, move |g, _vals, ctx| {
            let mut dx = Tensor::zeros(r, c);
            for i in 0..r {
                dx.set(i, i, g.get(i, 0));
            }
            ctx.accum(x, dx);
        })
    }
}

/// `y = x / max(‖x‖, eps)` per row, plus the floored norms.
pub(crate) fn normalize_rows(x: &Tensor, eps: f32) -> (Tensor, Tensor) {
    let norms = x.row_l2_norm(eps);
    let inv = norms.map(|v| 1.0 / v);
    (x.mul_col_broadcast(&inv), norms)
}

/// Adjoint of [`normalize_rows`]: `dx = (dy − y·(y·dy)) / norm`, applied to
/// `dy` in place.
pub(crate) fn normalize_rows_backward(y: &Tensor, norms: &Tensor, mut dy: Tensor) -> Tensor {
    let cols = y.cols();
    for ((drow, yrow), &norm) in dy
        .as_mut_slice()
        .chunks_exact_mut(cols)
        .zip(y.as_slice().chunks_exact(cols))
        .zip(norms.as_slice())
    {
        let dot: f32 = yrow.iter().zip(drow.iter()).map(|(&a, &b)| a * b).sum();
        for (dv, &yv) in drow.iter_mut().zip(yrow) {
            *dv = (*dv - yv * dot) / norm;
        }
    }
    dy
}

#[cfg(test)]
mod tests {
    use crate::gradcheck::check;
    use miss_tensor::Tensor;

    fn input(r: usize, c: usize) -> Tensor {
        Tensor::from_fn(r, c, |i, j| 0.31 * (i as f32) - 0.17 * (j as f32) + 0.05)
    }

    #[test]
    fn grad_sum_mean() {
        check(
            &[input(2, 3)],
            |t, vs| t.sum_all(vs[0]),
            5e-2,
        );
        check(
            &[input(2, 3)],
            |t, vs| t.mean_all(vs[0]),
            5e-2,
        );
    }

    #[test]
    fn grad_row_sum() {
        check(
            &[input(3, 4)],
            |t, vs| {
                let s = t.row_sum(vs[0]);
                let sq = t.mul(s, s);
                t.sum_all(sq)
            },
            5e-2,
        );
    }

    #[test]
    fn grad_softmax() {
        check(
            &[input(3, 5)],
            |t, vs| {
                let y = t.softmax_rows(vs[0]);
                // weight the entries so the gradient is not trivially zero
                let w = Tensor::from_fn(3, 5, |i, j| ((i + 2 * j) % 3) as f32 - 1.0);
                let wc = t.constant(w);
                let p = t.mul(y, wc);
                t.sum_all(p)
            },
            5e-2,
        );
    }

    #[test]
    fn grad_logsumexp() {
        check(
            &[input(4, 3)],
            |t, vs| {
                let y = t.logsumexp_rows(vs[0]);
                t.sum_all(y)
            },
            5e-2,
        );
    }

    #[test]
    fn grad_l2_normalize() {
        check(
            &[input(3, 4)],
            |t, vs| {
                let y = t.l2_normalize_rows(vs[0], 1e-8);
                let w = Tensor::from_fn(3, 4, |i, j| 0.5 + ((i * j) % 2) as f32);
                let wc = t.constant(w);
                let p = t.mul(y, wc);
                t.sum_all(p)
            },
            5e-2,
        );
    }

    #[test]
    fn grad_diag() {
        check(
            &[input(4, 4)],
            |t, vs| {
                let d = t.diag(vs[0]);
                let sq = t.mul(d, d);
                t.sum_all(sq)
            },
            5e-2,
        );
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut t = crate::Tape::new();
        let x = t.constant(input(2, 6));
        let y = t.softmax_rows(x);
        for i in 0..2 {
            let s: f32 = t.value(y).row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }
}
