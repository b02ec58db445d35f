//! Register-blocked GEMM micro-kernels over packed B panels.
//!
//! Every matmul/bmm path in the workspace goes through two dispatchers:
//! [`gemm_rowmajor`] (row-major A) and [`gemm_colmajor`] (transposed A, any
//! window of output rows). The shared operand B is packed once per GEMM
//! call into contiguous tile-aligned panels ([`pack_b_from_nn`] /
//! [`pack_b_from_nt`]), and an optional [`GemmEpilogue`] (bias /
//! bias+ReLU / bias+sigmoid) is applied to each finished accumulator in the
//! store tail instead of as separate full-matrix passes.
//!
//! Two tile bodies read those panels; [`has_fma`] (cached cpuid) picks one
//! per call:
//!
//! * **avx2+fma** — x86_64 with both features: six rows of 8-wide YMM
//!   accumulators under `#[target_feature(enable = "avx2,fma")]`, one fused
//!   multiply-add per step.
//! * **portable** — every other CPU, and the reference the unit tests pin:
//!   safe Rust ([`gemm_portable`]), generic over the panel width, A's
//!   storage and the epilogue, with vectorisation left to the compiler.
//!
//! ## Determinism contract
//!
//! Determinism is **per-(shape, detected ISA)**, never per-thread-count.
//! Every output element is accumulated as a single chain from `0.0` with
//! `p` (the contraction index) strictly ascending, and the epilogue is
//! applied to the finished chain; which *independent* elements are
//! computed together (tile shape, vector width, row-chunk boundaries) never
//! changes the order within one element's chain. Concretely:
//!
//! * The portable body accumulates *individually rounded* `acc + a·b`
//!   steps. Rust never reassociates f32 arithmetic or contracts it into
//!   FMA, so its row tiles, its row remainder and a naive triple loop all
//!   produce bit-identical results.
//! * The FMA bodies accumulate `acc = a.mul_add(b, acc)` — one fused
//!   rounding per step. The vector tiles, the 8-wide panel, the column
//!   strips, and the row remainders all use the same per-element chain, so
//!   the FMA path is bitwise self-consistent for any row split and equals a
//!   naive `mul_add` triple loop bitwise. It differs from the portable path
//!   by the fused rounding (≤ 1 ULP per step), which is why the contract is
//!   per-ISA.
//!
//! The dispatched path is a pure function of the detected CPU features
//! (cached cpuid, identical on every thread of the process), so for a fixed
//! machine and shape the result bits are fixed for any `MISS_THREADS` and
//! any chunk boundary placement. Bench JSONs record which ISA ran (see
//! [`detected_isa`]) so baselines compare like-to-like.

/// Row-chunk granularity for parallel dispatch: a multiple of every row-tile
/// height used below (4 on the portable path, 6 on the FMA path), so chunk
/// interiors are full tiles whichever body runs.
pub(crate) const TILE_M: usize = 12;

// ---------------------------------------------------------------------------
// Packed B panels, shared by both tile bodies.
//
// Packed layout (one buffer of exactly k·n floats, built once per GEMM call
// and shared read-only by every row chunk):
//
//   ┌─ full 16-wide panels ──┐┌ one 8-panel ┐┌─ 1-wide column strips ─┐
//   │ p-major: k rows × 16   ││ k rows × 8  ││ k floats per column    │
//   │ floats, contiguous     ││ (if n%16≥8) ││ (n%8 of them)          │
//   └────────────────────────┘└─────────────┘└────────────────────────┘
//
// The same layout is produced from row-major B (`pack_b_from_nn`, a strided
// copy) and from transposed n×k storage (`pack_b_from_nt`, a transposing
// gather), so `matmul_nn`, `matmul_nt`, `matmul_tn` and every bmm block all
// run the *same* tile bodies — and A@B == A@(Bᵀ)ᵀ holds bitwise because the
// packed bytes are identical. Scratch for the pack lives in a thread-local
// buffer ([`with_pack_scratch`]) so steady-state GEMM calls allocate
// nothing.
// ---------------------------------------------------------------------------

/// Post-GEMM transform fused into the accumulator-store tail of both tile
/// bodies. The bias slice is one value per output column; ReLU and sigmoid
/// match the autograd ops (`max(0)` / `miss_util::sigmoid`) exactly, so
/// fusing changes only where the work happens, not the math applied.
#[derive(Clone, Copy, Debug)]
pub enum GemmEpilogue<'a> {
    /// Plain product.
    None,
    /// `c[i][j] = acc + bias[j]`.
    AddBias(&'a [f32]),
    /// `c[i][j] = max(acc + bias[j], 0)`.
    AddBiasRelu(&'a [f32]),
    /// `c[i][j] = sigmoid(acc + bias[j])`.
    AddBiasSigmoid(&'a [f32]),
}

impl GemmEpilogue<'_> {
    /// The bias slice, if any — used by dispatchers to validate its width
    /// against the output column count before entering the kernels.
    pub(crate) fn bias(&self) -> Option<&[f32]> {
        match *self {
            GemmEpilogue::None => None,
            GemmEpilogue::AddBias(b)
            | GemmEpilogue::AddBiasRelu(b)
            | GemmEpilogue::AddBiasSigmoid(b) => Some(b),
        }
    }

    /// The transform applied to one finished accumulator for column `j`:
    /// the unfused reference the kernel tests compare the store tail with.
    #[cfg(test)]
    fn apply(&self, j: usize, acc: f32) -> f32 {
        debug_assert!(
            self.bias().is_none_or(|b| j < b.len()),
            "bias width was validated against n before entering the kernel"
        );
        match *self {
            GemmEpilogue::None => acc,
            GemmEpilogue::AddBias(b) => acc + b[j],
            GemmEpilogue::AddBiasRelu(b) => (acc + b[j]).max(0.0),
            GemmEpilogue::AddBiasSigmoid(b) => miss_util::sigmoid(acc + b[j]),
        }
    }
}

/// [`GemmEpilogue::apply`] with the variant selected at compile time. The
/// kernels are monomorphised per epilogue so the common `None` GEMM
/// contains no bias loads, no branch, and — critically — no inlined `exp`
/// call whose register clobbers would force the accumulator tile to spill.
#[inline(always)]
fn ep_apply<const EP: u8>(bias: &[f32], j: usize, acc: f32) -> f32 {
    match EP {
        0 => acc,
        1 => acc + bias[j],
        2 => (acc + bias[j]).max(0.0),
        _ => miss_util::sigmoid(acc + bias[j]),
    }
}

/// Number of full 16-wide panels, whether an 8-wide panel follows, and the
/// count of 1-wide trailing strips, for an `n`-column packed B.
#[inline(always)]
fn panel_split(n: usize) -> (usize, bool, usize) {
    let panels16 = n / 16;
    let rem = n % 16;
    let has8 = rem >= 8;
    (panels16, has8, rem - if has8 { 8 } else { 0 })
}

/// Pack row-major `k×n` B into the panel layout described above.
pub(crate) fn pack_b_from_nn(b: &[f32], k: usize, n: usize, out: &mut Vec<f32>) {
    debug_assert_eq!(b.len(), k * n);
    let (panels16, has8, strips) = panel_split(n);
    out.clear();
    out.reserve(k * n);
    for j in 0..panels16 {
        let j0 = j * 16;
        for p in 0..k {
            out.extend_from_slice(&b[p * n + j0..p * n + j0 + 16]);
        }
    }
    let mut j0 = panels16 * 16;
    if has8 {
        for p in 0..k {
            out.extend_from_slice(&b[p * n + j0..p * n + j0 + 8]);
        }
        j0 += 8;
    }
    for s in 0..strips {
        let j = j0 + s;
        for p in 0..k {
            out.push(b[p * n + j]);
        }
    }
    debug_assert_eq!(out.len(), k * n);
}

/// Pack transposed `n×k` storage (each row of `bt` is one logical column of
/// B) into the *same* panel layout — bit-identical bytes to
/// [`pack_b_from_nn`] on the equivalent row-major B, which is what makes
/// `matmul_nt` agree bitwise with `matmul_nn` + transpose.
pub(crate) fn pack_b_from_nt(bt: &[f32], n: usize, k: usize, out: &mut Vec<f32>) {
    debug_assert_eq!(bt.len(), n * k);
    let (panels16, has8, strips) = panel_split(n);
    out.clear();
    out.reserve(k * n);
    for j in 0..panels16 {
        let j0 = j * 16;
        for p in 0..k {
            for t in 0..16 {
                out.push(bt[(j0 + t) * k + p]);
            }
        }
    }
    let mut j0 = panels16 * 16;
    if has8 {
        for p in 0..k {
            for t in 0..8 {
                out.push(bt[(j0 + t) * k + p]);
            }
        }
        j0 += 8;
    }
    for s in 0..strips {
        // A trailing strip is one logical column = one contiguous bt row.
        let j = j0 + s;
        out.extend_from_slice(&bt[j * k..(j + 1) * k]);
    }
    debug_assert_eq!(out.len(), k * n);
}

std::thread_local! {
    /// Per-thread packing scratch, reused across GEMM calls so steady-state
    /// packing allocates nothing. `Cell` take/put (not `RefCell`) so a
    /// nested GEMM on the same thread degrades to a fresh buffer instead of
    /// a borrow panic.
    static PACK_SCRATCH: std::cell::Cell<Vec<f32>> = const { std::cell::Cell::new(Vec::new()) };
}

/// Run `f` with this thread's reusable packing buffer (contents unspecified
/// on entry; `f` is expected to overwrite via the pack functions above).
pub(crate) fn with_pack_scratch<R>(f: impl FnOnce(&mut Vec<f32>) -> R) -> R {
    PACK_SCRATCH.with(|cell| {
        let mut buf = cell.take();
        let r = f(&mut buf);
        cell.set(buf);
        r
    })
}

/// Best-effort software prefetch of `s[idx..]` into L1; a no-op out of
/// bounds or off x86. Purely a latency hint — never observable in results.
#[inline(always)]
fn prefetch_read(s: &[f32], idx: usize) {
    #[cfg(target_arch = "x86_64")]
    if idx < s.len() {
        // SAFETY: `idx` is bounds-checked above so the pointer is inside the
        // slice; `_mm_prefetch` is a pure cache hint (no loads, no stores,
        // no faults even on bad addresses) and SSE is part of the x86_64
        // baseline, so no runtime feature gate is needed.
        unsafe {
            use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch::<_MM_HINT_T0>(s.as_ptr().add(idx) as *const i8);
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (s, idx);
}

/// How far ahead (in k-steps) the tile bodies prefetch the current panel.
const PF_DIST: usize = 16;

/// Spill `NV` 8-wide accumulators and store them through the epilogue into
/// `c[off..off + NV·8]` (columns `j0..`). The accumulator lanes already
/// hold the finished fused chains; only the epilogue transform runs here.
// SAFETY: requires AVX2 (vector stores); the caller dispatches on
// `has_fma()`, and all memory access is via the checked slice/array ops
// plus the bounds-argued stores in the inner block.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn store_ep<const NV: usize, const EP: u8>(
    c: &mut [f32],
    off: usize,
    j0: usize,
    acc: &[core::arch::x86_64::__m256; NV],
    bias: &[f32],
) {
    let mut tmp = [0.0f32; 16];
    debug_assert!(NV * 8 <= tmp.len());
    // SAFETY: `tmp` holds 16 floats and `NV ≤ 2`, so every 8-wide store at
    // offset v·8 is in bounds; `_mm256_storeu_ps` has no alignment
    // requirement and AVX is guaranteed by the caller's dispatch contract.
    unsafe {
        for v in 0..NV {
            core::arch::x86_64::_mm256_storeu_ps(tmp.as_mut_ptr().add(v * 8), acc[v]);
        }
    }
    let dst = &mut c[off..off + NV * 8];
    for t in 0..NV * 8 {
        dst[t] = ep_apply::<EP>(bias, j0 + t, tmp[t]);
    }
}

/// One packed panel (`NV·8` columns wide) against output rows `[i0, i1)`:
/// `c[i][j0 + t] = ep(Σ_p a[i][p] · panel[p·W + t])` with one fused
/// multiply-add (`_mm256_fmadd_ps`) chain per element, `p` ascending. Six
/// rows of accumulators stay in YMM registers; the row remainder runs the
/// same chain one row at a time, so splitting the row range anywhere cannot
/// change bits. `COL = true` reads transposed-A storage (`a[p·am + i]`,
/// `am = m`); `COL = false` reads row-major A (`a[i·am + p]`, `am = k`).
// SAFETY: requires AVX2+FMA — the caller dispatches on `has_fma()`; the
// unchecked loads are justified by the debug-asserted layout contract
// (see the per-block SAFETY comments inside).
#[cfg(target_arch = "x86_64")]
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn fma_panel<const NV: usize, const COL: bool, const EP: u8>(
    a: &[f32],
    panel: &[f32],
    c: &mut [f32],
    i0: usize,
    i1: usize,
    k: usize,
    am: usize,
    n: usize,
    j0: usize,
    bias: &[f32],
) {
    use core::arch::x86_64::{_mm256_fmadd_ps, _mm256_loadu_ps, _mm256_set1_ps, _mm256_setzero_ps};
    let w = NV * 8;
    debug_assert!(panel.len() >= k * w);
    debug_assert!(a.len() >= if COL { k * am } else { i1 * am });
    debug_assert!(!COL || i1 <= am);
    let pp = panel.as_ptr();
    let mut i = i0;
    while i + 6 <= i1 {
        // SAFETY: every `_mm256_loadu_ps(pp.add(p·w + v·8))` reads inside
        // `panel` (len ≥ k·w, debug-asserted); every `a.get_unchecked`
        // index is < a.len() by the layout contract above (row-major:
        // (i+r)·k + p with i+r < i1 ≤ m; transposed: p·m + i + r with
        // i + r < i1 ≤ m); the intrinsics themselves need AVX2+FMA, which
        // the caller's `has_fma()` dispatch guarantees.
        unsafe {
            let mut acc = [[_mm256_setzero_ps(); NV]; 6];
            for p in 0..k {
                let mut b = [_mm256_setzero_ps(); NV];
                for v in 0..NV {
                    b[v] = _mm256_loadu_ps(pp.add(p * w + v * 8));
                }
                prefetch_read(panel, (p + PF_DIST) * w);
                for r in 0..6 {
                    let ai = if COL { p * am + i + r } else { (i + r) * am + p };
                    let av = _mm256_set1_ps(*a.get_unchecked(ai));
                    for v in 0..NV {
                        acc[r][v] = _mm256_fmadd_ps(av, b[v], acc[r][v]);
                    }
                }
            }
            for r in 0..6 {
                store_ep::<NV, EP>(c, (i - i0 + r) * n + j0, j0, &acc[r], bias);
            }
        }
        i += 6;
    }
    while i < i1 {
        // SAFETY: single-row variant of the block above — identical bounds
        // argument with r = 0, identical per-lane chains.
        unsafe {
            let mut acc = [_mm256_setzero_ps(); NV];
            for p in 0..k {
                let ai = if COL { p * am + i } else { i * am + p };
                let av = _mm256_set1_ps(*a.get_unchecked(ai));
                for v in 0..NV {
                    let b = _mm256_loadu_ps(pp.add(p * w + v * 8));
                    acc[v] = _mm256_fmadd_ps(av, b, acc[v]);
                }
            }
            store_ep::<NV, EP>(c, (i - i0) * n + j0, j0, &acc, bias);
        }
        i += 1;
    }
}

/// One 1-wide column strip against row-major A. Four independent row chains
/// run interleaved purely for instruction-level parallelism — each element
/// still owns exactly one ascending `mul_add` chain (scalar `vfmadd`, which
/// rounds identically to one lane of the vector tiles).
#[inline(always)]
fn fma_strip_rowmajor<const EP: u8>(
    a: &[f32],
    strip: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    j: usize,
    bias: &[f32],
) {
    let mut i = 0;
    while i + 4 <= m {
        let mut acc = [0.0f32; 4];
        for p in 0..k {
            let bv = strip[p];
            for r in 0..4 {
                acc[r] = a[(i + r) * k + p].mul_add(bv, acc[r]);
            }
        }
        for r in 0..4 {
            c[(i + r) * n + j] = ep_apply::<EP>(bias, j, acc[r]);
        }
        i += 4;
    }
    while i < m {
        let mut acc = 0.0f32;
        for p in 0..k {
            acc = a[i * k + p].mul_add(strip[p], acc);
        }
        c[i * n + j] = ep_apply::<EP>(bias, j, acc);
        i += 1;
    }
}

/// [`fma_strip_rowmajor`] for transposed-A storage over rows `[i0, i1)`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn fma_strip_colmajor<const EP: u8>(
    a: &[f32],
    strip: &[f32],
    c: &mut [f32],
    i0: usize,
    i1: usize,
    k: usize,
    m: usize,
    n: usize,
    j: usize,
    bias: &[f32],
) {
    for i in i0..i1 {
        let mut acc = 0.0f32;
        for p in 0..k {
            acc = a[p * m + i].mul_add(strip[p], acc);
        }
        c[(i - i0) * n + j] = ep_apply::<EP>(bias, j, acc);
    }
}

// SAFETY: `#[target_feature(enable = "avx2,fma")]` and the AVX2/FMA
// intrinsics in the inlined tile bodies are the only sources of unsafety in
// the two FMA wrappers below — executing them on a CPU without AVX2+FMA is
// undefined behaviour. Precondition: callers must have verified both
// features at runtime; the safe dispatchers `gemm_rowmajor` /
// `gemm_colmajor` call them only after `has_fma()` (cached cpuid) is true.
// No alignment precondition (all vector memory ops are unaligned); bounds
// for the tile bodies' unchecked loads follow from the debug-asserted
// shape contract re-checked here at the unsafe entry point.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn gemm_fma_rowmajor_avx2<const EP: u8>(
    a: &[f32],
    pb: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    bias: &[f32],
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(pb.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    let (panels16, has8, strips) = panel_split(n);
    // SAFETY: panel/strip slice arithmetic follows the packed layout
    // (16-panels, then the 8-panel, then strips — `panel_split` invariant);
    // the tile bodies' feature requirement is this wrapper's own contract.
    unsafe {
        for j in 0..panels16 {
            let panel = &pb[j * k * 16..(j + 1) * k * 16];
            fma_panel::<2, false, EP>(a, panel, c, 0, m, k, k, n, j * 16, bias);
        }
        let mut off = panels16 * k * 16;
        let mut j0 = panels16 * 16;
        if has8 {
            fma_panel::<1, false, EP>(a, &pb[off..off + k * 8], c, 0, m, k, k, n, j0, bias);
            off += k * 8;
            j0 += 8;
        }
        for s in 0..strips {
            let strip = &pb[off + s * k..off + (s + 1) * k];
            fma_strip_rowmajor::<EP>(a, strip, c, m, k, n, j0 + s, bias);
        }
    }
}

// SAFETY: see `gemm_fma_rowmajor_avx2` — sole precondition is runtime-
// verified AVX2+FMA (checked by the safe dispatcher); `a` is stored
// transposed (`k×m`) and `c` is the `(i1-i0)×n` window of rows `[i0, i1)`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn gemm_fma_colmajor_avx2<const EP: u8>(
    a: &[f32],
    pb: &[f32],
    c: &mut [f32],
    i0: usize,
    i1: usize,
    k: usize,
    m: usize,
    n: usize,
    bias: &[f32],
) {
    debug_assert!(i0 <= i1 && i1 <= m);
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(pb.len(), k * n);
    debug_assert_eq!(c.len(), (i1 - i0) * n);
    let (panels16, has8, strips) = panel_split(n);
    // SAFETY: as in `gemm_fma_rowmajor_avx2`; the transposed accessor uses
    // `am = m`, and `i1 ≤ m` is debug-asserted above.
    unsafe {
        for j in 0..panels16 {
            let panel = &pb[j * k * 16..(j + 1) * k * 16];
            fma_panel::<2, true, EP>(a, panel, c, i0, i1, k, m, n, j * 16, bias);
        }
        let mut off = panels16 * k * 16;
        let mut j0 = panels16 * 16;
        if has8 {
            fma_panel::<1, true, EP>(a, &pb[off..off + k * 8], c, i0, i1, k, m, n, j0, bias);
            off += k * 8;
            j0 += 8;
        }
        for s in 0..strips {
            let strip = &pb[off + s * k..off + (s + 1) * k];
            fma_strip_colmajor::<EP>(a, strip, c, i0, i1, k, m, n, j0 + s, bias);
        }
    }
}

// ---------------------------------------------------------------------------
// Portable path: the same panels, individually rounded accumulation, safe
// Rust only. Runs wherever `has_fma()` is false.
// ---------------------------------------------------------------------------

/// Row-tile height of the portable body.
const PORTABLE_MR: usize = 4;

/// Portable GEMM over packed B: `c = ep(A @ B)` for output rows `[i0, i1)`,
/// written into the window `c`. `COL = false` reads row-major A
/// (`a[i·am + p]`, `am = k`); `COL = true` reads transposed-A storage
/// (`a[p·am + i]`, `am = m`). Walks the packed layout like the FMA wrappers.
#[allow(clippy::too_many_arguments)]
fn gemm_portable<const COL: bool, const EP: u8>(
    a: &[f32],
    pb: &[f32],
    c: &mut [f32],
    i0: usize,
    i1: usize,
    k: usize,
    am: usize,
    n: usize,
    bias: &[f32],
) {
    debug_assert!(i0 <= i1 && (!COL || i1 <= am));
    debug_assert_eq!(pb.len(), k * n);
    debug_assert_eq!(c.len(), (i1 - i0) * n);
    let (panels16, has8, strips) = panel_split(n);
    for j in 0..panels16 {
        let panel = &pb[j * k * 16..(j + 1) * k * 16];
        gemm_portable_panel::<16, COL, EP>(a, panel, c, i0, i1, k, am, n, j * 16, bias);
    }
    let mut off = panels16 * k * 16;
    let mut j0 = panels16 * 16;
    if has8 {
        gemm_portable_panel::<8, COL, EP>(a, &pb[off..off + k * 8], c, i0, i1, k, am, n, j0, bias);
        off += k * 8;
        j0 += 8;
    }
    for s in 0..strips {
        let strip = &pb[off + s * k..off + (s + 1) * k];
        gemm_portable_panel::<1, COL, EP>(a, strip, c, i0, i1, k, am, n, j0 + s, bias);
    }
}

/// One `W`-wide packed panel (a 1-wide strip is a panel too) against output
/// rows `[i0, i1)`: full `PORTABLE_MR`-row tiles, then the row remainder
/// one row at a time through the same tile code.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn gemm_portable_panel<const W: usize, const COL: bool, const EP: u8>(
    a: &[f32],
    panel: &[f32],
    c: &mut [f32],
    i0: usize,
    i1: usize,
    k: usize,
    am: usize,
    n: usize,
    j0: usize,
    bias: &[f32],
) {
    debug_assert!(i0 <= i1);
    let tiled = i0 + (i1 - i0) / PORTABLE_MR * PORTABLE_MR;
    let (c_tiled, c_rest) = c.split_at_mut((tiled - i0) * n);
    gemm_portable_rows::<PORTABLE_MR, W, COL, EP>(a, panel, c_tiled, i0, tiled, k, am, n, j0, bias);
    gemm_portable_rows::<1, W, COL, EP>(a, panel, c_rest, tiled, i1, k, am, n, j0, bias);
}

/// `MR`-row tiles of one `W`-wide panel over rows `[i0, i1)` (`i1 − i0` a
/// multiple of `MR`): `c[i][j0 + t] = ep(Σ_p a[i][p] · panel[p·W + t])`,
/// each element one chain of individually rounded `acc + a·b` steps from
/// `0.0` with `p` ascending, the epilogue applied to the finished chain.
/// The tile height only groups independent chains, so every `MR` gives the
/// same bits.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn gemm_portable_rows<const MR: usize, const W: usize, const COL: bool, const EP: u8>(
    a: &[f32],
    panel: &[f32],
    c: &mut [f32],
    i0: usize,
    i1: usize,
    k: usize,
    am: usize,
    n: usize,
    j0: usize,
    bias: &[f32],
) {
    debug_assert!(panel.len() >= k * W);
    debug_assert_eq!((i1 - i0) % MR, 0);
    let (row_stride, p_stride) = if COL { (1, am) } else { (am, 1) };
    for i in (i0..i1).step_by(MR) {
        let mut acc = [[0.0f32; W]; MR];
        for p in 0..k {
            let b = &panel[p * W..(p + 1) * W];
            for r in 0..MR {
                let av = a[(i + r) * row_stride + p * p_stride];
                for t in 0..W {
                    acc[r][t] += av * b[t];
                }
            }
        }
        for r in 0..MR {
            let dst = &mut c[(i - i0 + r) * n + j0..(i - i0 + r) * n + j0 + W];
            for t in 0..W {
                dst[t] = ep_apply::<EP>(bias, j0 + t, acc[r][t]);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Dispatch: the only place that names an ISA.
// ---------------------------------------------------------------------------

/// Whether the packed FMA path is available (AVX2 + FMA both detected).
/// Cached by std behind atomics; effectively free after the first call.
#[inline]
pub(crate) fn has_fma() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The GEMM instruction path `matmul`/`bmm` dispatch to on this machine:
/// `"avx2+fma"` or `"portable"`. Recorded in bench JSON metadata so
/// baselines compare like-to-like (result bits are a pure function of
/// shape and this value).
pub fn detected_isa() -> &'static str {
    if has_fma() {
        "avx2+fma"
    } else {
        "portable"
    }
}

/// Packed-B GEMM over row-major A: `c = ep(a @ B)` where `pb` is the packed
/// form of the `k×n` B (from either storage). *Assigns* `c` (it does not
/// accumulate). The match selects the epilogue monomorphisation so the
/// plain GEMM carries no epilogue code at all.
pub(crate) fn gemm_rowmajor(
    a: &[f32],
    pb: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    ep: &GemmEpilogue,
) {
    match *ep {
        GemmEpilogue::None => gemm_rowmajor_isa::<0>(a, pb, c, m, k, n, &[]),
        GemmEpilogue::AddBias(b) => gemm_rowmajor_isa::<1>(a, pb, c, m, k, n, b),
        GemmEpilogue::AddBiasRelu(b) => gemm_rowmajor_isa::<2>(a, pb, c, m, k, n, b),
        GemmEpilogue::AddBiasSigmoid(b) => gemm_rowmajor_isa::<3>(a, pb, c, m, k, n, b),
    }
}

/// One epilogue instance of [`gemm_rowmajor`]: the FMA kernel where the CPU
/// has it, the portable body everywhere else.
#[inline(always)]
fn gemm_rowmajor_isa<const EP: u8>(
    a: &[f32],
    pb: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    bias: &[f32],
) {
    debug_assert_eq!(a.len(), m * k);
    #[cfg(target_arch = "x86_64")]
    if has_fma() {
        // SAFETY: avx2+fma support was just detected at runtime.
        return unsafe { gemm_fma_rowmajor_avx2::<EP>(a, pb, c, m, k, n, bias) };
    }
    gemm_portable::<false, EP>(a, pb, c, 0, m, k, k, n, bias)
}

/// Packed-B GEMM over transposed-A storage (`a` is `k×m`): writes output
/// rows `[i0, i1)` into the window `c`. Same contract as [`gemm_rowmajor`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_colmajor(
    a: &[f32],
    pb: &[f32],
    c: &mut [f32],
    i0: usize,
    i1: usize,
    k: usize,
    m: usize,
    n: usize,
    ep: &GemmEpilogue,
) {
    match *ep {
        GemmEpilogue::None => gemm_colmajor_isa::<0>(a, pb, c, i0, i1, k, m, n, &[]),
        GemmEpilogue::AddBias(b) => gemm_colmajor_isa::<1>(a, pb, c, i0, i1, k, m, n, b),
        GemmEpilogue::AddBiasRelu(b) => gemm_colmajor_isa::<2>(a, pb, c, i0, i1, k, m, n, b),
        GemmEpilogue::AddBiasSigmoid(b) => gemm_colmajor_isa::<3>(a, pb, c, i0, i1, k, m, n, b),
    }
}

/// One epilogue instance of [`gemm_colmajor`], dispatched as in
/// [`gemm_rowmajor_isa`].
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn gemm_colmajor_isa<const EP: u8>(
    a: &[f32],
    pb: &[f32],
    c: &mut [f32],
    i0: usize,
    i1: usize,
    k: usize,
    m: usize,
    n: usize,
    bias: &[f32],
) {
    debug_assert_eq!(a.len(), k * m);
    #[cfg(target_arch = "x86_64")]
    if has_fma() {
        // SAFETY: avx2+fma support was just detected at runtime.
        return unsafe { gemm_fma_colmajor_avx2::<EP>(a, pb, c, i0, i1, k, m, n, bias) };
    }
    gemm_portable::<true, EP>(a, pb, c, i0, i1, k, m, n, bias)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Textbook p-ascending reference; by the determinism contract the
    /// portable body must match it *bitwise*, not just within tolerance.
    fn reference_nn(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a[i * k + p] * b[p * n + j];
                }
                c[i * n + j] = acc;
            }
        }
        c
    }

    fn fill(len: usize, f: impl Fn(usize) -> f32) -> Vec<f32> {
        (0..len).map(f).collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn packed_nn(b: &[f32], k: usize, n: usize) -> Vec<f32> {
        let mut pb = Vec::new();
        pack_b_from_nn(b, k, n, &mut pb);
        pb
    }

    /// `a` stored transposed (`k×m`).
    fn transposed(a: &[f32], m: usize, k: usize) -> Vec<f32> {
        fill(k * m, |i| a[(i % m) * k + i / m])
    }

    /// The portable body on rows `[i0, i1)` with a runtime epilogue, into a
    /// NaN-filled window so an element the kernel fails to assign shows up.
    #[allow(clippy::too_many_arguments)]
    fn portable<const COL: bool>(
        a: &[f32],
        pb: &[f32],
        i0: usize,
        i1: usize,
        k: usize,
        am: usize,
        n: usize,
        ep: &GemmEpilogue,
    ) -> Vec<f32> {
        let mut c = vec![f32::NAN; (i1 - i0) * n];
        let w = &mut c;
        match *ep {
            GemmEpilogue::None => gemm_portable::<COL, 0>(a, pb, w, i0, i1, k, am, n, &[]),
            GemmEpilogue::AddBias(b) => gemm_portable::<COL, 1>(a, pb, w, i0, i1, k, am, n, b),
            GemmEpilogue::AddBiasRelu(b) => gemm_portable::<COL, 2>(a, pb, w, i0, i1, k, am, n, b),
            GemmEpilogue::AddBiasSigmoid(b) => {
                gemm_portable::<COL, 3>(a, pb, w, i0, i1, k, am, n, b)
            }
        }
        c
    }

    /// Shapes straddling every tile boundary: below, at and past the 4-row
    /// tile, the 8-wide panel and the 16-wide panels, plus column strips.
    const AWKWARD: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (3, 5, 7),
        (4, 8, 8),
        (5, 9, 17),
        (13, 6, 10),
        (8, 2, 9),
        (6, 11, 19),
        (9, 3, 25),
        (7, 4, 33),
    ];

    #[test]
    fn portable_body_matches_reference_bitwise_at_awkward_sizes() {
        let none = GemmEpilogue::None;
        for &(m, k, n) in AWKWARD {
            let a = fill(m * k, |i| ((i * 37 % 19) as f32 - 9.0) * 0.37);
            let b = fill(k * n, |i| ((i * 23 % 17) as f32 - 8.0) * 0.29);
            let want = bits(&reference_nn(&a, &b, m, k, n));

            let pb = packed_nn(&b, k, n);
            let got = portable::<false>(&a, &pb, 0, m, k, k, n, &none);
            assert_eq!(bits(&got), want, "nn-packed {m}x{k}x{n}");

            // B stored transposed (n×k), packed by the transposing gather.
            let bt = fill(n * k, |i| b[(i % k) * n + i / k]);
            let mut pbt = Vec::new();
            pack_b_from_nt(&bt, n, k, &mut pbt);
            let got = portable::<false>(&a, &pbt, 0, m, k, k, n, &none);
            assert_eq!(bits(&got), want, "nt-packed {m}x{k}x{n}");

            // A stored transposed (k×m), full row range.
            let at = transposed(&a, m, k);
            let got = portable::<true>(&at, &pb, 0, m, k, m, n, &none);
            assert_eq!(bits(&got), want, "colmajor {m}x{k}x{n}");
        }
    }

    #[test]
    fn portable_colmajor_row_windows_agree_with_full_range() {
        let (m, k, n) = (11, 5, 25);
        let at = fill(k * m, |i| (i as f32 * 0.11).sin());
        let b = fill(k * n, |i| (i as f32 * 0.07).cos());
        let pb = packed_nn(&b, k, n);
        let none = GemmEpilogue::None;
        let full = portable::<true>(&at, &pb, 0, m, k, m, n, &none);
        let a = fill(m * k, |i| at[(i % k) * m + i / k]);
        assert_eq!(bits(&full), bits(&reference_nn(&a, &b, m, k, n)));
        // Any split into row windows must reproduce the same bits.
        for split in [1, 4, 6, 10] {
            let mut c = portable::<true>(&at, &pb, 0, split, k, m, n, &none);
            c.extend(portable::<true>(&at, &pb, split, m, k, m, n, &none));
            assert_eq!(bits(&c), bits(&full), "split at {split}");
        }
    }

    #[test]
    fn portable_epilogues_equal_plain_gemm_then_apply() {
        for &(m, k, n) in AWKWARD {
            let a = fill(m * k, |i| ((i * 41 % 29) as f32 - 14.0) * 0.21);
            let b = fill(k * n, |i| ((i * 13 % 23) as f32 - 11.0) * 0.17);
            // Mixed signs so ReLU both clips and passes.
            let bias = fill(n, |j| (j as f32 * 0.7).sin());
            let pb = packed_nn(&b, k, n);
            let at = transposed(&a, m, k);
            let none = GemmEpilogue::None;
            let plain = portable::<false>(&a, &pb, 0, m, k, k, n, &none);
            for ep in [
                GemmEpilogue::None,
                GemmEpilogue::AddBias(&bias),
                GemmEpilogue::AddBiasRelu(&bias),
                GemmEpilogue::AddBiasSigmoid(&bias),
            ] {
                let want: Vec<f32> = plain
                    .iter()
                    .enumerate()
                    .map(|(e, &v)| ep.apply(e % n, v))
                    .collect();
                let got = portable::<false>(&a, &pb, 0, m, k, k, n, &ep);
                assert_eq!(bits(&got), bits(&want), "{ep:?} rowmajor {m}x{k}x{n}");
                let got = portable::<true>(&at, &pb, 0, m, k, m, n, &ep);
                assert_eq!(bits(&got), bits(&want), "{ep:?} colmajor {m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn portable_matches_dispatch_on_dyadic_inputs() {
        // Entries (x − 16)/16 in [-1, 1]: every product is exact and every
        // partial sum of ≤ 33 terms stays exact, so fused and individually
        // rounded chains must agree bit for bit. On an FMA host this pins
        // the portable body to the dispatched FMA kernels; elsewhere the
        // dispatch runs the portable body itself.
        for &(m, k, n) in AWKWARD {
            let a = fill(m * k, |i| ((i * 13 % 33) as f32 - 16.0) / 16.0);
            let b = fill(k * n, |i| ((i * 23 % 33) as f32 - 16.0) / 16.0);
            let bias = fill(n, |j| ((j * 7 % 33) as f32 - 16.0) / 16.0);
            let pb = packed_nn(&b, k, n);
            let at = transposed(&a, m, k);
            for ep in [
                GemmEpilogue::None,
                GemmEpilogue::AddBias(&bias),
                GemmEpilogue::AddBiasRelu(&bias),
                GemmEpilogue::AddBiasSigmoid(&bias),
            ] {
                let want = bits(&portable::<false>(&a, &pb, 0, m, k, k, n, &ep));
                let mut c = vec![f32::NAN; m * n];
                gemm_rowmajor(&a, &pb, &mut c, m, k, n, &ep);
                assert_eq!(bits(&c), want, "{ep:?} rowmajor {m}x{k}x{n}");
                let mut c = vec![f32::NAN; m * n];
                gemm_colmajor(&at, &pb, &mut c, 0, m, k, m, n, &ep);
                assert_eq!(bits(&c), want, "{ep:?} colmajor {m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn packing_is_layout_invariant() {
        // The nt/nn bitwise-equality contract rests on both packers emitting
        // identical panel bytes for the same logical B. Shapes cover the
        // 16-panel, 8-panel and strip remainders.
        for &(k, n) in &[(1, 1), (3, 7), (5, 8), (9, 15), (4, 16), (7, 17), (11, 33)] {
            let b_nn = fill(k * n, |i| (i as f32 * 0.13).sin());
            // Same logical matrix stored transposed (n×k).
            let b_nt = fill(n * k, |i| {
                let (j, p) = (i / k, i % k);
                b_nn[p * n + j]
            });
            let (mut from_nn, mut from_nt) = (Vec::new(), Vec::new());
            pack_b_from_nn(&b_nn, k, n, &mut from_nn);
            pack_b_from_nt(&b_nt, n, k, &mut from_nt);
            assert_eq!(from_nn.len(), k * n, "packed size {k}x{n}");
            let nn_bits: Vec<u32> = from_nn.iter().map(|v| v.to_bits()).collect();
            let nt_bits: Vec<u32> = from_nt.iter().map(|v| v.to_bits()).collect();
            assert_eq!(nn_bits, nt_bits, "pack bytes differ for {k}x{n}");
        }
    }
}
