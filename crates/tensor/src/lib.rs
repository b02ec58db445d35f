//! Dense row-major f32 matrices for the MISS reproduction.
//!
//! Every value flowing through the models is a 2-D [`Tensor`] with shape
//! `(rows, cols)` over a single flat `Vec<f32>`. Higher-rank data (e.g. the
//! paper's 3-D tensor `C ∈ R^{J×L×K}`, batched as `B×J×L×K`) is stored with
//! the leading axes flattened into the row dimension; the crates that need
//! the structure keep the axis sizes alongside and compute row indices
//! explicitly. This keeps the kernel surface small and the memory layout
//! cache-friendly (see the Rust Performance Book: flat buffers, `ikj` matmul
//! loop order, no per-element allocation).
//!
//! The matmul/bmm family runs on register-blocked tiled kernels over packed
//! B panels (`kernels`: an avx2+fma body or a portable one, picked by cpuid)
//! and, above a fixed size threshold, fans out row chunks over the
//! `miss-parallel` pool. Accumulation order per output element is fixed
//! (contraction index ascending, one rounding per step), so results are
//! bit-identical for any `MISS_THREADS` value — see `kernels.rs` for the
//! full determinism argument.

mod kernels;
mod ops;
mod tensor;

pub use kernels::{detected_isa, GemmEpilogue};
pub use ops::PackedB;
pub use tensor::Tensor;
