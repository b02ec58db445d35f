//! The tape arena, gradient accumulation, and the backward pass.

use miss_tensor::Tensor;

/// Handle to a value recorded on a [`Tape`]. Cheap to copy; only valid for
/// the tape that created it (enforced by debug assertions on tape length).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Var(pub(crate) usize);

/// One sparse gradient contribution produced by an embedding lookup:
/// `grad_rows[r]` must be scatter-added into row `indices[r]` of table
/// `table_id`.
#[derive(Debug)]
pub struct SparseGrad {
    /// Identifier of the embedding table (assigned by the parameter store).
    pub table_id: usize,
    /// Row indices that were looked up (may repeat).
    pub indices: Vec<u32>,
    /// Gradient with one row per lookup, same order as `indices`.
    pub grad_rows: Tensor,
}

/// Result of a backward pass: dense gradients per tape value (present only
/// for values reached by the sweep) and the sparse embedding gradients.
pub struct Grads {
    dense: Vec<Option<Tensor>>,
    /// Sparse embedding-table gradients, in creation order.
    pub sparse: Vec<SparseGrad>,
}

impl Grads {
    /// Gradient of `v`, if it participated in the backward sweep.
    pub fn get(&self, v: Var) -> Option<&Tensor> {
        self.dense.get(v.0).and_then(|g| g.as_ref())
    }

    /// Gradient of `v`, panicking when absent (use for leaves you know were
    /// connected to the loss).
    pub fn expect(&self, v: Var) -> &Tensor {
        self.get(v).expect("no gradient recorded for this Var")
    }

    /// Take ownership of the gradient of `v`.
    pub fn take(&mut self, v: Var) -> Option<Tensor> {
        self.dense.get_mut(v.0).and_then(|g| g.take())
    }

    /// Fold `later` into `self`, the deterministic micro-batch reduction
    /// primitive: for every `(into, from)` pair, `later`'s gradient of
    /// `from` is accumulated into `self`'s slot for `into` (pairs are
    /// processed in the order given, so repeated folds in micro-batch index
    /// order always round identically), and `later`'s sparse contributions
    /// are appended after `self`'s, preserving creation order.
    ///
    /// The pairs map leaves of `later`'s tape onto leaves of `self`'s tape;
    /// the two tapes need not be structurally identical. A `from` var with
    /// no recorded gradient (disconnected from its loss) is skipped.
    pub fn merge_ordered(&mut self, mut later: Grads, pairs: &[(Var, Var)]) {
        for &(into, from) in pairs {
            let Some(g) = later.take(from) else { continue };
            if into.0 >= self.dense.len() {
                self.dense.resize_with(into.0 + 1, || None);
            }
            match &mut self.dense[into.0] {
                Some(acc) => acc.add_assign(&g),
                slot @ None => *slot = Some(g),
            }
        }
        self.sparse.append(&mut later.sparse);
    }
}

/// Context handed to backward closures: gradient accumulators plus the
/// sparse sink. Kept separate from the value arena so closures can read
/// values while mutating gradients.
pub(crate) struct BackwardCtx {
    pub grads: Vec<Option<Tensor>>,
    pub sparse: Vec<SparseGrad>,
}

impl BackwardCtx {
    /// Accumulate `g` into the gradient slot of `v`.
    pub fn accum(&mut self, v: Var, g: Tensor) {
        match &mut self.grads[v.0] {
            Some(existing) => existing.add_assign(&g),
            slot @ None => *slot = Some(g),
        }
    }

    /// The gradient slot of `v` (shape `rows×cols`), zero-filled on first
    /// touch so sparse contributions can be added in place.
    fn slot(&mut self, v: Var, rows: usize, cols: usize) -> &mut Tensor {
        let slot = self.grads[v.0].get_or_insert_with(|| Tensor::zeros(rows, cols));
        debug_assert_eq!(slot.shape(), (rows, cols), "gradient slot shape");
        slot
    }

    /// Scatter-add row `r` of `g` into row `idx[r]` of `v`'s gradient
    /// (`v` is `rows×cols`), in place: no dense temporary per call.
    pub fn accum_rows(&mut self, v: Var, (rows, cols): (usize, usize), idx: &[usize], g: &Tensor) {
        self.slot(v, rows, cols).scatter_add_rows(idx, g);
    }

    /// Add the whole rows in `src` (row-major, `cols` wide) into `v`'s
    /// gradient starting at row `lo`, in place.
    pub fn accum_row_block(
        &mut self,
        v: Var,
        (rows, cols): (usize, usize),
        lo: usize,
        src: &[f32],
    ) {
        let dst = &mut self.slot(v, rows, cols).as_mut_slice()[lo * cols..lo * cols + src.len()];
        for (d, &s) in dst.iter_mut().zip(src) {
            *d += s;
        }
    }
}

/// `Send` so a whole tape (and any graph wrapping it) can live on a
/// worker thread of the deterministic training pool.
type BackwardFn = Box<dyn FnOnce(&Tensor, &[Tensor], &mut BackwardCtx) + Send>;

/// A recorded forward computation.
///
/// Create one per training step, build the graph with the op methods (see
/// the `ops` module), call [`Tape::backward`] on the scalar loss, then either
/// drop the tape or [`Tape::reset`] it to reuse the arena allocations for the
/// next step. Replaying a recorded tape is intentionally unsupported — the
/// backward closures are `FnOnce`.
pub struct Tape {
    values: Vec<Tensor>,
    backwards: Vec<Option<BackwardFn>>,
    requires_grad: Vec<bool>,
}

impl Tape {
    /// Empty tape.
    pub fn new() -> Self {
        Tape {
            values: Vec::with_capacity(256),
            backwards: Vec::with_capacity(256),
            requires_grad: Vec::with_capacity(256),
        }
    }

    /// Number of recorded values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Clear all recorded values so the tape (and its arena allocations) can
    /// be reused for the next step. Every outstanding [`Var`] is invalidated.
    pub fn reset(&mut self) {
        self.values.clear();
        self.backwards.clear();
        self.requires_grad.clear();
    }

    /// Record a value that does not require gradients (inputs, labels, masks).
    pub fn constant(&mut self, value: Tensor) -> Var {
        self.push(value, false, None)
    }

    /// Record a differentiable leaf (a parameter copy). Its gradient is
    /// available from [`Grads::get`] after backward.
    pub fn leaf(&mut self, value: Tensor) -> Var {
        self.push(value, true, None)
    }

    /// Record an embedding lookup: `rows` are the already-gathered table rows
    /// for `indices` (one row per index) of table `table_id`. The backward
    /// pass emits a [`SparseGrad`] instead of a dense table gradient.
    pub fn embed(&mut self, table_id: usize, rows: Tensor, indices: Vec<u32>) -> Var {
        assert_eq!(rows.rows(), indices.len(), "one gathered row per index");
        let out = self.push(rows, true, None);
        // Install the backward after push so the closure knows its own slot.
        self.backwards[out.0] = Some(Box::new(move |g, _vals, ctx| {
            ctx.sparse.push(SparseGrad {
                table_id,
                indices,
                grad_rows: g.clone(),
            });
        }));
        out
    }

    /// Shape of a recorded value.
    pub fn shape(&self, v: Var) -> (usize, usize) {
        self.values[v.0].shape()
    }

    /// Read a recorded value.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.values[v.0]
    }

    /// Whether `v` (transitively) requires gradients.
    pub fn requires_grad(&self, v: Var) -> bool {
        self.requires_grad[v.0]
    }

    pub(crate) fn push(
        &mut self,
        value: Tensor,
        requires_grad: bool,
        backward: Option<BackwardFn>,
    ) -> Var {
        debug_assert!(
            !value.has_non_finite(),
            "non-finite value recorded on tape (node {})",
            self.values.len()
        );
        self.values.push(value);
        self.backwards.push(backward);
        self.requires_grad.push(requires_grad);
        Var(self.values.len() - 1)
    }

    /// Convenience for ops: record `value` as the output of an op over
    /// `inputs`, attaching `backward` only when some input needs gradients.
    pub(crate) fn push_op(
        &mut self,
        inputs: &[Var],
        value: Tensor,
        backward: impl FnOnce(&Tensor, &[Tensor], &mut BackwardCtx) + Send + 'static,
    ) -> Var {
        let needs = inputs.iter().any(|v| self.requires_grad[v.0]);
        if needs {
            self.push(value, true, Some(Box::new(backward)))
        } else {
            self.push(value, false, None)
        }
    }

    /// Run the backward sweep from `root`, seeding its gradient with ones.
    /// `root` is normally the `1×1` loss; seeding a non-scalar with ones is
    /// permitted (it computes the gradient of `sum(root)`).
    pub fn backward(&mut self, root: Var) -> Grads {
        let n = self.values.len();
        assert!(root.0 < n, "root Var does not belong to this tape");
        let mut ctx = BackwardCtx {
            grads: (0..n).map(|_| None).collect(),
            sparse: Vec::new(),
        };
        let (r, c) = self.values[root.0].shape();
        ctx.grads[root.0] = Some(Tensor::full(r, c, 1.0));
        for i in (0..=root.0).rev() {
            if let Some(back) = self.backwards[i].take() {
                if let Some(g) = ctx.grads[i].take() {
                    back(&g, &self.values, &mut ctx);
                    ctx.grads[i] = Some(g);
                }
            }
        }
        Grads {
            dense: ctx.grads,
            sparse: ctx.sparse,
        }
    }
}

impl Default for Tape {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_grad_of_identity_sum() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(2, 2, vec![1., 2., 3., 4.]));
        let s = tape.sum_all(x);
        let grads = tape.backward(s);
        assert_eq!(grads.expect(x).as_slice(), &[1., 1., 1., 1.]);
    }

    #[test]
    fn constant_gets_no_grad() {
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::from_vec(1, 2, vec![1., 2.]));
        let s = tape.sum_all(x);
        let grads = tape.backward(s);
        assert!(grads.get(x).is_none());
    }

    #[test]
    fn embed_routes_to_sparse_sink() {
        let mut tape = Tape::new();
        let rows = Tensor::from_vec(3, 2, vec![1., 2., 3., 4., 1., 2.]);
        let e = tape.embed(7, rows, vec![5, 9, 5]);
        let s = tape.sum_all(e);
        let grads = tape.backward(s);
        assert_eq!(grads.sparse.len(), 1);
        let sg = &grads.sparse[0];
        assert_eq!(sg.table_id, 7);
        assert_eq!(sg.indices, vec![5, 9, 5]);
        assert_eq!(sg.grad_rows.shape(), (3, 2));
        assert!(sg.grad_rows.as_slice().iter().all(|&v| v == 1.0));
    }

    #[test]
    fn grad_accumulates_over_fanout() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(1, 2, vec![3., 5.]));
        let y = tape.add(x, x); // y = 2x
        let s = tape.sum_all(y);
        let grads = tape.backward(s);
        assert_eq!(grads.expect(x).as_slice(), &[2., 2.]);
    }

    #[test]
    fn merge_ordered_accumulates_dense_and_appends_sparse() {
        // Two independent tapes playing the role of two micro-batches.
        let mut t1 = Tape::new();
        let x1 = t1.leaf(Tensor::from_vec(1, 2, vec![1., 2.]));
        let e1 = t1.embed(3, Tensor::from_vec(1, 2, vec![0.5, 0.5]), vec![4]);
        let s1 = {
            let y = t1.scale(x1, 2.0);
            let z = t1.add(y, e1);
            t1.sum_all(z)
        };
        let mut g1 = t1.backward(s1);

        let mut t2 = Tape::new();
        let x2 = t2.leaf(Tensor::from_vec(1, 2, vec![10., 20.]));
        let e2 = t2.embed(3, Tensor::from_vec(1, 2, vec![0.1, 0.2]), vec![7]);
        let s2 = {
            let y = t2.scale(x2, 3.0);
            let z = t2.add(y, e2);
            t2.sum_all(z)
        };
        let g2 = t2.backward(s2);

        g1.merge_ordered(g2, &[(x1, x2)]);
        // d/dx1 of tape1 is 2, plus tape2's 3 folded in.
        assert_eq!(g1.expect(x1).as_slice(), &[5.0, 5.0]);
        // Sparse contributions concatenate in micro-batch order.
        assert_eq!(g1.sparse.len(), 2);
        assert_eq!(g1.sparse[0].indices, vec![4]);
        assert_eq!(g1.sparse[1].indices, vec![7]);
    }

    #[test]
    fn merge_ordered_skips_disconnected_leaves() {
        let mut t1 = Tape::new();
        let x1 = t1.leaf(Tensor::from_vec(1, 1, vec![1.0]));
        let s1 = t1.sum_all(x1);
        let mut g1 = t1.backward(s1);

        let mut t2 = Tape::new();
        let x2 = t2.leaf(Tensor::from_vec(1, 1, vec![2.0]));
        let dead = t2.leaf(Tensor::from_vec(1, 1, vec![9.0]));
        let s2 = t2.sum_all(x2);
        let g2 = t2.backward(s2);

        g1.merge_ordered(g2, &[(x1, dead), (x1, x2)]);
        // `dead` never reached the loss: only x2's gradient (1.0) folds in.
        assert_eq!(g1.expect(x1).as_slice(), &[2.0]);
    }

    #[test]
    fn backward_of_nonscalar_root_sums() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(2, 1, vec![1., 2.]));
        let y = tape.scale(x, 3.0);
        let grads = tape.backward(y);
        assert_eq!(grads.expect(x).as_slice(), &[3., 3.]);
    }
}
