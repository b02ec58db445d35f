//! Layout ops: reshape, concat, slice, gather, repeat/tile, transpose.

use crate::tape::{Tape, Var};
use miss_tensor::Tensor;

impl Tape {
    /// Reinterpret `x` with a new `(rows, cols)` shape (row-major, free).
    pub fn reshape(&mut self, x: Var, rows: usize, cols: usize) -> Var {
        let (r0, c0) = self.shape(x);
        let value = self.value(x).clone().reshape(rows, cols);
        self.push_op(&[x], value, move |g, _vals, ctx| {
            ctx.accum(x, g.clone().reshape(r0, c0));
        })
    }

    /// Horizontal concatenation.
    pub fn concat_cols(&mut self, xs: &[Var]) -> Var {
        assert!(!xs.is_empty());
        let parts: Vec<&Tensor> = xs.iter().map(|v| self.value(*v)).collect();
        let value = Tensor::concat_cols(&parts);
        let widths: Vec<usize> = parts.iter().map(|p| p.cols()).collect();
        let xs: Vec<Var> = xs.to_vec();
        let inputs = xs.clone();
        self.push_op(&inputs, value, move |g, _vals, ctx| {
            let mut off = 0;
            for (v, w) in xs.iter().zip(&widths) {
                ctx.accum(*v, g.slice_cols(off, off + w));
                off += w;
            }
        })
    }

    /// Vertical concatenation.
    pub fn concat_rows(&mut self, xs: &[Var]) -> Var {
        assert!(!xs.is_empty());
        let parts: Vec<&Tensor> = xs.iter().map(|v| self.value(*v)).collect();
        let value = Tensor::concat_rows(&parts);
        let heights: Vec<usize> = parts.iter().map(|p| p.rows()).collect();
        let cols = value.cols();
        let xs: Vec<Var> = xs.to_vec();
        let inputs = xs.clone();
        self.push_op(&inputs, value, move |g, _vals, ctx| {
            debug_assert_eq!(g.cols(), cols);
            let mut off = 0;
            for (v, &h) in xs.iter().zip(&heights) {
                let block = &g.as_slice()[off * cols..(off + h) * cols];
                ctx.accum_row_block(*v, (h, cols), 0, block);
                off += h;
            }
        })
    }

    /// Copy of rows `[lo, hi)`.
    pub fn slice_rows(&mut self, x: Var, lo: usize, hi: usize) -> Var {
        let (r, c) = self.shape(x);
        assert!(lo <= hi && hi <= r, "bad row slice {lo}..{hi} of {r}");
        let value = Tensor::from_vec(
            hi - lo,
            c,
            self.value(x).as_slice()[lo * c..hi * c].to_vec(),
        );
        self.push_op(&[x], value, move |g, _vals, ctx| {
            ctx.accum_row_block(x, (r, c), lo, g.as_slice());
        })
    }

    /// Copy of columns `[lo, hi)`.
    pub fn slice_cols(&mut self, x: Var, lo: usize, hi: usize) -> Var {
        let (r, c) = self.shape(x);
        let value = self.value(x).slice_cols(lo, hi);
        self.push_op(&[x], value, move |g, _vals, ctx| {
            let mut dx = Tensor::zeros(r, c);
            for i in 0..r {
                dx.row_mut(i)[lo..hi].copy_from_slice(g.row(i));
            }
            ctx.accum(x, dx);
        })
    }

    /// Gather rows by index (indices may repeat; backward scatter-adds
    /// straight into `x`'s gradient slot).
    pub fn gather_rows(&mut self, x: Var, idx: Vec<usize>) -> Var {
        let shape = self.shape(x);
        let value = self.value(x).gather_rows(&idx);
        self.push_op(&[x], value, move |g, _vals, ctx| {
            ctx.accum_rows(x, shape, &idx, g);
        })
    }

    /// Repeat each row `times` times consecutively.
    pub fn repeat_rows_interleave(&mut self, x: Var, times: usize) -> Var {
        let (r, c) = self.shape(x);
        let value = self.value(x).repeat_rows_interleave(times);
        self.push_op(&[x], value, move |g, _vals, ctx| {
            let mut dx = Tensor::zeros(r, c);
            for i in 0..r {
                let drow = dx.row_mut(i);
                for t in 0..times {
                    for (d, &gv) in drow.iter_mut().zip(g.row(i * times + t)) {
                        *d += gv;
                    }
                }
            }
            ctx.accum(x, dx);
        })
    }

    /// Repeat the whole matrix `times` times vertically.
    pub fn tile_rows(&mut self, x: Var, times: usize) -> Var {
        let (r, c) = self.shape(x);
        let value = self.value(x).tile_rows(times);
        self.push_op(&[x], value, move |g, _vals, ctx| {
            let mut dx = Tensor::zeros(r, c);
            for t in 0..times {
                for i in 0..r {
                    for (d, &gv) in dx.row_mut(i).iter_mut().zip(g.row(t * r + i)) {
                        *d += gv;
                    }
                }
            }
            ctx.accum(x, dx);
        })
    }

    /// Transposed copy.
    pub fn transpose(&mut self, x: Var) -> Var {
        let value = self.value(x).transpose();
        self.push_op(&[x], value, move |g, _vals, ctx| {
            ctx.accum(x, g.transpose());
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::gradcheck::check;
    use miss_tensor::Tensor;

    fn input(r: usize, c: usize) -> Tensor {
        Tensor::from_fn(r, c, |i, j| 0.23 * (i as f32) + 0.11 * (j as f32) - 0.4)
    }

    fn quad_head(t: &mut crate::Tape, y: crate::Var) -> crate::Var {
        let sq = t.mul(y, y);
        t.sum_all(sq)
    }

    #[test]
    fn grad_reshape() {
        check(
            &[input(2, 6)],
            |t, vs| {
                let y = t.reshape(vs[0], 4, 3);
                quad_head(t, y)
            },
            5e-2,
        );
    }

    #[test]
    fn grad_concat_cols() {
        check(
            &[input(3, 2), input(3, 4)],
            |t, vs| {
                let y = t.concat_cols(&[vs[0], vs[1]]);
                quad_head(t, y)
            },
            5e-2,
        );
    }

    #[test]
    fn grad_concat_rows() {
        check(
            &[input(2, 3), input(4, 3)],
            |t, vs| {
                let y = t.concat_rows(&[vs[0], vs[1]]);
                quad_head(t, y)
            },
            5e-2,
        );
    }

    #[test]
    fn grad_slice_rows() {
        check(
            &[input(5, 3)],
            |t, vs| {
                let a = t.slice_rows(vs[0], 1, 4);
                let b = t.slice_rows(vs[0], 3, 5);
                let (qa, qb) = (quad_head(t, a), quad_head(t, b));
                t.add(qa, qb)
            },
            5e-2,
        );
    }

    #[test]
    fn grad_slice_cols() {
        check(
            &[input(3, 5)],
            |t, vs| {
                let y = t.slice_cols(vs[0], 1, 4);
                quad_head(t, y)
            },
            5e-2,
        );
    }

    #[test]
    fn grad_gather_rows_with_repeats() {
        check(
            &[input(4, 3)],
            |t, vs| {
                let y = t.gather_rows(vs[0], vec![0, 2, 2, 3]);
                quad_head(t, y)
            },
            5e-2,
        );
    }

    #[test]
    fn grad_gather_rows_fan_in_one_var() {
        // Backward runs in reverse: the tanh's dense gradient lands first,
        // then both gathers (one with repeats) scatter into that slot in
        // place, then the earlier dense consumer adds on top.
        check(
            &[input(4, 3)],
            |t, vs| {
                let s = t.scale(vs[0], 0.5);
                let a = t.gather_rows(vs[0], vec![3, 1, 3, 3]);
                let b = t.gather_rows(vs[0], vec![0, 1, 1]);
                let th = t.tanh(vs[0]);
                let q = [s, a, b, th].map(|y| quad_head(t, y));
                let l = t.add(q[0], q[1]);
                let l = t.add(l, q[2]);
                t.add(l, q[3])
            },
            5e-2,
        );
    }

    #[test]
    fn grad_repeat_interleave() {
        check(
            &[input(3, 2)],
            |t, vs| {
                let y = t.repeat_rows_interleave(vs[0], 3);
                quad_head(t, y)
            },
            5e-2,
        );
    }

    #[test]
    fn grad_tile_rows() {
        check(
            &[input(2, 3)],
            |t, vs| {
                let y = t.tile_rows(vs[0], 2);
                quad_head(t, y)
            },
            5e-2,
        );
    }

    #[test]
    fn grad_transpose() {
        check(
            &[input(3, 4)],
            |t, vs| {
                let y = t.transpose(vs[0]);
                quad_head(t, y)
            },
            5e-2,
        );
    }
}
