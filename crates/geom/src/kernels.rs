//! Vectorization-friendly scan kernels over columnar coordinate data.
//!
//! The distributed algorithms bottom out in per-peer *local scans*: scoring
//! every stored tuple (top-k, Algorithm 4), dominance-testing candidates
//! against a skyline window (Algorithm 10) and evaluating region bounds
//! (`f⁺`, Algorithm 8; dominates-corner, Algorithm 14). This module hosts
//! those inner loops in a batched, structure-of-arrays shape: each kernel
//! takes one contiguous `f64` column per dimension and walks plain indexed
//! ranges the compiler can unroll and auto-vectorize — no `Arc` derefs, no
//! virtual calls, no bounds checks in the hot loop after the initial slice
//! length equalities.
//!
//! **Bit-exactness contract.** Every batched kernel performs *exactly* the
//! same floating-point operations in *exactly* the same order as its scalar
//! reference (`ScoreFn::score`, `Norm::dist`, `Point::coords().iter().sum()`,
//! `dominance::dominates`), so a blocked scan produces bit-identical scores,
//! sums and dominance verdicts. The per-block *bound* helpers go one step
//! further: they accumulate over a block's min/max corner in the same
//! operation order as the per-row kernels, and IEEE-754 rounding is monotone
//! (`a ≤ b ⇒ fl(a+c) ≤ fl(b+c)`, `w ≥ 0 ⇒ fl(w·a) ≤ fl(w·b)`, and `sqrt`/
//! `abs`/negation preserve order), so `bound ≥ score(row)` holds as an exact
//! `f64` comparison for every row of the block — which is what makes
//! *skipping* a whole block behaviour-preserving rather than approximate.
//!
//! **Explicit vector arms and dispatch.** Every kernel takes a
//! [`KernelDispatch`] selecting between the scalar reference loop and an
//! explicit SIMD arm (runtime-detected AVX2 on `x86_64`, NEON on `aarch64`).
//! The SIMD arms stay inside the bit-exactness contract:
//!
//! * **Accumulating kernels** ([`score_linear`], [`score_peak`],
//!   [`coord_sums`]) vectorize across the *row* axis — one row per SIMD
//!   lane — while the per-row accumulation still walks dimensions in the
//!   scalar order. Each lane therefore performs exactly the scalar op
//!   sequence (a separately-rounded multiply and add per dimension; never a
//!   fused multiply-add), so the outputs are bit-identical, not merely
//!   close.
//! * **Comparison/mask kernels** ([`filter_in_box`], [`filter_at_least`],
//!   [`dominates_raw`], [`dominated_by_any`], and the `Linf` max fold)
//!   evaluate pure IEEE-754 comparisons and sign-magnitude `abs`/`max`.
//!   These are the kernels where the contract *may* be relaxed — comparison
//!   verdicts are reassociation-invariant — but the arms below happen to be
//!   exact anyway for finite inputs (`max` over non-negative operands picks
//!   the same bit pattern either way), so forced-scalar and forced-SIMD
//!   executions pin bit-identical answers *and* ledgers.
//!
//! The scalar loops remain the equivalence oracle: the property tests in
//! this module pin `ForcedSimd == ForcedScalar` bit-for-bit on partial tail
//! blocks (`len % lanes != 0`), empty and singleton blocks, and
//! boundary-inclusive box filters. On hardware without a vector unit the
//! SIMD arm degrades to the scalar loop, so the pinning suites are portable.

use crate::dominance::dominates_coords;
use crate::norm::Norm;
use std::sync::OnceLock;

/// Number of rows each kernel call is expected to cover. Chosen so a block's
/// working set (one `f64` column per dimension) stays inside L1 while the
/// per-block bound metadata stays negligible.
pub const BLOCK_ROWS: usize = 256;

/// Selects which arm of a kernel runs.
///
/// `Auto` resolves once per process: the SIMD arm when the CPU supports it
/// (AVX2 on `x86_64`, NEON on `aarch64`), the scalar loop otherwise. The
/// environment variable `RIPPLE_KERNEL_DISPATCH` (`scalar` | `simd`)
/// overrides the `Auto` resolution, which is how CI runs the equivalence
/// suites under both arms without recompiling. The forced variants ignore
/// the environment; `ForcedSimd` still degrades to the scalar loop when the
/// hardware lacks vector support, so forcing is always safe.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum KernelDispatch {
    /// Always run the scalar reference loop.
    ForcedScalar,
    /// Run the SIMD arm when the hardware supports one (else scalar).
    ForcedSimd,
    /// Resolve per process: hardware detection + `RIPPLE_KERNEL_DISPATCH`.
    #[default]
    Auto,
}

impl KernelDispatch {
    /// True when this dispatch resolves to the SIMD arm on this machine.
    #[inline]
    pub fn simd(self) -> bool {
        match self {
            KernelDispatch::ForcedScalar => false,
            KernelDispatch::ForcedSimd => simd_available(),
            KernelDispatch::Auto => auto_simd(),
        }
    }

    /// The arm this dispatch resolves to, for bench/report headers.
    pub fn arm(self) -> &'static str {
        match (self, self.simd()) {
            (KernelDispatch::ForcedScalar, _) => "forced-scalar",
            (KernelDispatch::ForcedSimd, true) => "forced-simd",
            (KernelDispatch::ForcedSimd, false) => "forced-simd (no vector unit: scalar)",
            (KernelDispatch::Auto, true) => "auto(simd)",
            (KernelDispatch::Auto, false) => "auto(scalar)",
        }
    }
}

/// True when this machine has a vector unit the kernels carry an arm for.
pub fn simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx2")
    }
    #[cfg(target_arch = "aarch64")]
    {
        std::arch::is_aarch64_feature_detected!("neon")
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        false
    }
}

/// The CPU vector features detected at runtime, for bench/report headers.
pub fn detected_features() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") {
            if is_x86_feature_detected!("avx512f") {
                "avx2+avx512f"
            } else {
                "avx2"
            }
        } else {
            "x86-64-baseline"
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            "neon"
        } else {
            "aarch64-baseline"
        }
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        "portable-scalar"
    }
}

/// `Auto` resolution, computed once: `RIPPLE_KERNEL_DISPATCH` override
/// first, hardware detection otherwise.
///
/// # Panics
/// On a `RIPPLE_KERNEL_DISPATCH` value [`auto_arm`] rejects.
fn auto_simd() -> bool {
    static AUTO: OnceLock<bool> = OnceLock::new();
    *AUTO.get_or_init(|| {
        let value = std::env::var_os("RIPPLE_KERNEL_DISPATCH");
        auto_arm(value.as_deref(), simd_available()).unwrap_or_else(|e| panic!("{e}"))
    })
}

/// Whether `Auto` runs the SIMD arm under the `RIPPLE_KERNEL_DISPATCH`
/// value `value`, given whether the hardware has one (`simd_hw`): unset or
/// `simd` defers to the hardware, `scalar` forces the scalar loop. Any
/// other value, including one that is not UTF-8, is an error naming the
/// value and the accepted set.
fn auto_arm(value: Option<&std::ffi::OsStr>, simd_hw: bool) -> Result<bool, String> {
    match value.map(|v| (v, v.to_str())) {
        None | Some((_, Some("simd"))) => Ok(simd_hw),
        Some((_, Some("scalar"))) => Ok(false),
        Some((v, _)) => Err(format!(
            "RIPPLE_KERNEL_DISPATCH={v:?} is not one of \"scalar\", \"simd\" (or unset)"
        )),
    }
}

/// Batched linear scoring: `out[i] = Σ_d weights[d] · cols[d][i]`,
/// accumulated in dimension order — bit-identical to
/// `(0..dims).map(|d| w[d] * p.coord(d)).sum::<f64>()` per row, on either
/// arm (the SIMD arm vectorizes across rows, one row per lane).
pub fn score_linear(d: KernelDispatch, weights: &[f64], cols: &[&[f64]], out: &mut Vec<f64>) {
    assert_eq!(weights.len(), cols.len(), "one weight per column");
    let rows = cols.first().map_or(0, |c| c.len());
    out.clear();
    out.resize(rows, 0.0);
    if d.simd() {
        // Fused single pass: all dimensions accumulate in registers, one
        // store per row — versus one read-modify-write sweep per dimension
        // on the scalar arm. Same per-row op order (zero + w·c, dimension
        // by dimension), so the sums are bit-identical.
        simd::score_linear(weights, cols, out);
        return;
    }
    for (w, col) in weights.iter().zip(cols) {
        let col = &col[..rows];
        let acc = &mut out[..rows];
        for i in 0..rows {
            acc[i] += w * col[i];
        }
    }
}

/// Batched peak scoring: `out[i] = -norm.dist(row_i, peak)`, with the same
/// per-dimension accumulation order as [`Norm::dist`] — bit-identical to the
/// scalar `PeakScore::score` on either arm.
pub fn score_peak(
    d: KernelDispatch,
    norm: Norm,
    peak: &[f64],
    cols: &[&[f64]],
    out: &mut Vec<f64>,
) {
    assert_eq!(peak.len(), cols.len(), "one peak coordinate per column");
    let rows = cols.first().map_or(0, |c| c.len());
    out.clear();
    out.resize(rows, 0.0);
    if d.simd() {
        // Fused single pass per norm; accumulation order and the final
        // negate (L2: negated square root) match the scalar arm op for op.
        match norm {
            Norm::L1 => simd::peak_l1(peak, cols, out),
            Norm::L2 => simd::peak_l2(peak, cols, out),
            Norm::Linf => simd::peak_linf(peak, cols, out),
        }
        return;
    }
    match norm {
        Norm::L1 => {
            for (p, col) in peak.iter().zip(cols) {
                let col = &col[..rows];
                let acc = &mut out[..rows];
                for i in 0..rows {
                    acc[i] += (col[i] - p).abs();
                }
            }
            for v in out.iter_mut() {
                *v = -*v;
            }
        }
        Norm::L2 => {
            for (p, col) in peak.iter().zip(cols) {
                let col = &col[..rows];
                let acc = &mut out[..rows];
                for i in 0..rows {
                    acc[i] += (col[i] - p).powi(2);
                }
            }
            for v in out.iter_mut() {
                *v = -v.sqrt();
            }
        }
        Norm::Linf => {
            for (p, col) in peak.iter().zip(cols) {
                let col = &col[..rows];
                let acc = &mut out[..rows];
                for i in 0..rows {
                    acc[i] = acc[i].max((col[i] - p).abs());
                }
            }
            for v in out.iter_mut() {
                *v = -*v;
            }
        }
    }
}

/// Batched coordinate sums: `out[i] = Σ_d cols[d][i]` in dimension order —
/// bit-identical to `p.coords().iter().sum::<f64>()` per row (the SFS sort
/// key of [`crate::dominance::skyline`]) on either arm.
pub fn coord_sums(d: KernelDispatch, cols: &[&[f64]], out: &mut Vec<f64>) {
    let rows = cols.first().map_or(0, |c| c.len());
    out.clear();
    out.resize(rows, 0.0);
    if d.simd() {
        simd::sum_cols(cols, out);
        return;
    }
    for col in cols {
        let col = &col[..rows];
        let acc = &mut out[..rows];
        for i in 0..rows {
            acc[i] += col[i];
        }
    }
}

/// Raw-slice Pareto dominance: `a` ≤ everywhere and < somewhere (lower is
/// better) — the same verdict as [`crate::dominance::dominates`] on the
/// corresponding points. The SIMD arm vectorizes across dimensions; the
/// verdict is a pure comparison reduction, identical on both arms.
#[inline]
pub fn dominates_raw(d: KernelDispatch, a: &[f64], b: &[f64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    // Below ~8 dimensions the vector arm's out-of-line call (target_feature
    // functions cannot inline into generic callers) costs more than the
    // handful of compares it saves; the microbench pins this. The verdict
    // is identical either way, so the cutover is invisible to callers.
    if a.len() >= 8 && d.simd() {
        return simd::dominates(a, b);
    }
    dominates_coords(a, b)
}

/// True when any member of `window` dominates `q` — the batched form of the
/// skyline thinning test, over raw coordinate slices. The dispatch decision
/// (including the cached feature probe behind [`KernelDispatch::simd`]) is
/// hoisted out of the window loop.
#[inline]
pub fn dominated_by_any<'a>(
    d: KernelDispatch,
    window: impl IntoIterator<Item = &'a [f64]>,
    q: &[f64],
) -> bool {
    if q.len() >= 8 && d.simd() {
        window.into_iter().any(|m| simd::dominates(m, q))
    } else {
        window.into_iter().any(|m| dominates_coords(m, q))
    }
}

/// True when every coordinate satisfies `lo[d] ≤ x[d] ≤ hi[d]` — the raw
/// form of `Rect::contains` for constraint filtering.
#[inline]
pub fn row_in_box(lo: &[f64], hi: &[f64], x: &[f64]) -> bool {
    debug_assert!(lo.len() == x.len() && hi.len() == x.len());
    x.iter()
        .zip(lo.iter().zip(hi))
        .all(|(c, (l, h))| *l <= *c && *c <= *h)
}

/// Collects into `out` (cleared first, ascending) the row indices whose
/// coordinates satisfy `lo[d] ≤ cols[d][i] ≤ hi[d]` on every dimension —
/// the columnar form of [`row_in_box`] over a whole block.
///
/// The first dimension is scanned as one contiguous pass (the SIMD arm
/// turns it into compare + move-mask, extracting survivor indices from the
/// mask bits in ascending order) and the remaining dimensions only probe
/// the survivors, so a selective constraint touches each non-qualifying row
/// exactly once — without ever dereferencing a tuple. The verdict per row
/// is identical to `row_in_box` on either arm (same closed interval
/// comparisons, dimension by dimension).
pub fn filter_in_box(
    d: KernelDispatch,
    lo: &[f64],
    hi: &[f64],
    cols: &[&[f64]],
    out: &mut Vec<u32>,
) {
    assert!(
        lo.len() == cols.len() && hi.len() == cols.len(),
        "one bound pair per column"
    );
    out.clear();
    let Some(c0) = cols.first() else { return };
    debug_assert!(c0.len() < u32::MAX as usize);
    let (l, h) = (lo[0], hi[0]);
    if d.simd() {
        simd::filter_range(l, h, c0, out);
    } else {
        out.extend(
            c0.iter()
                .enumerate()
                .filter(|(_, c)| l <= **c && **c <= h)
                .map(|(i, _)| i as u32),
        );
    }
    for d in 1..cols.len() {
        let (col, l, h) = (cols[d], lo[d], hi[d]);
        out.retain(|&i| {
            let c = col[i as usize];
            l <= c && c <= h
        });
    }
}

/// Collects the indices `i` with `scores[i] >= tau` into `out` (ascending).
/// The τ-filter of the top-k local answer (Algorithm 6) in batched form.
/// Appends without clearing — callers own the buffer discipline.
pub fn filter_at_least(d: KernelDispatch, scores: &[f64], tau: f64, out: &mut Vec<u32>) {
    debug_assert!(scores.len() < u32::MAX as usize);
    if d.simd() {
        simd::filter_ge(scores, tau, out);
        return;
    }
    for (i, s) in scores.iter().enumerate() {
        if *s >= tau {
            out.push(i as u32);
        }
    }
}

/// The AVX2 vector arms (`x86_64`). Every function is gated behind
/// `#[target_feature(enable = "avx2")]` and only ever reached through
/// [`KernelDispatch::simd`], which requires runtime AVX2 detection — the
/// facade functions below encapsulate that argument.
///
/// The arithmetic arms round every operation separately (`_mm256_mul_pd`
/// then `_mm256_add_pd`, never an FMA), matching the scalar reference ops
/// one-for-one per lane.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    const LANES: usize = 4;
    const ABS_MASK: f64 = f64::from_bits(0x7fff_ffff_ffff_ffff);
    const SIGN_BIT: f64 = f64::from_bits(0x8000_0000_0000_0000);

    /// Column-count ceiling for the pointer-hoisted fast paths: the chunk
    /// loops index a stack array of plain pointers instead of chasing the
    /// `&[&[f64]]` double indirection every dimension of every chunk.
    /// Wider inputs fall through to the un-hoisted chunk loop.
    const MAX_HOIST: usize = 24;

    #[inline]
    unsafe fn hoist(cols: &[&[f64]]) -> [*const f64; MAX_HOIST] {
        debug_assert!(cols.len() <= MAX_HOIST);
        let mut ptrs = [std::ptr::null::<f64>(); MAX_HOIST];
        for (slot, col) in ptrs.iter_mut().zip(cols) {
            *slot = col.as_ptr();
        }
        ptrs
    }

    /// 512-bit lane width, used by the widened inner loops of the two
    /// hottest scan kernels when the host has AVX-512F. A wider register
    /// changes nothing about per-row semantics: each row is still a single
    /// lane element whose dimensions are accumulated in order from a zero
    /// accumulator, so the outputs stay bit-identical to the scalar arm.
    const LANES8: usize = 8;

    /// AVX-512 leading loop for [`score_linear`]: processes as many
    /// 2×8-row chunks as fit and returns the resume index for the AVX2 /
    /// scalar remainder loops.
    ///
    /// # Safety
    /// Requires AVX-512F at runtime; `ptrs[..weights.len()]` valid for `n`
    /// reads, `out` for `n` writes.
    #[target_feature(enable = "avx512f")]
    unsafe fn score_linear_512(
        weights: &[f64],
        ptrs: &[*const f64; MAX_HOIST],
        out: *mut f64,
        n: usize,
    ) -> usize {
        let dims = weights.len();
        let mut wv = [_mm512_setzero_pd(); MAX_HOIST];
        for (slot, w) in wv.iter_mut().zip(weights) {
            *slot = _mm512_set1_pd(*w);
        }
        let mut i = 0;
        while i + 2 * LANES8 <= n {
            let mut a0 = _mm512_setzero_pd();
            let mut a1 = _mm512_setzero_pd();
            for d in 0..dims {
                let w = wv[d];
                let p = ptrs[d];
                a0 = _mm512_add_pd(a0, _mm512_mul_pd(w, _mm512_loadu_pd(p.add(i))));
                a1 = _mm512_add_pd(a1, _mm512_mul_pd(w, _mm512_loadu_pd(p.add(i + LANES8))));
            }
            _mm512_storeu_pd(out.add(i), a0);
            _mm512_storeu_pd(out.add(i + LANES8), a1);
            i += 2 * LANES8;
        }
        i
    }

    /// AVX-512 leading loop for [`sum_cols`]; same contract as
    /// [`score_linear_512`].
    ///
    /// # Safety
    /// Requires AVX-512F at runtime; `ptrs[..dims]` valid for `n` reads,
    /// `out` for `n` writes.
    #[target_feature(enable = "avx512f")]
    unsafe fn sum_cols_512(
        dims: usize,
        ptrs: &[*const f64; MAX_HOIST],
        out: *mut f64,
        n: usize,
    ) -> usize {
        let mut i = 0;
        while i + 2 * LANES8 <= n {
            let mut a0 = _mm512_setzero_pd();
            let mut a1 = _mm512_setzero_pd();
            for &p in &ptrs[..dims] {
                a0 = _mm512_add_pd(a0, _mm512_loadu_pd(p.add(i)));
                a1 = _mm512_add_pd(a1, _mm512_loadu_pd(p.add(i + LANES8)));
            }
            _mm512_storeu_pd(out.add(i), a0);
            _mm512_storeu_pd(out.add(i + LANES8), a1);
            i += 2 * LANES8;
        }
        i
    }

    /// Fused linear scoring: `out[i] = 0 + Σ_d w[d]·cols[d][i]`, all
    /// dimensions accumulated in registers in dimension order (separate
    /// multiply and add rounds, one row per lane), one store per row. The
    /// leading zero accumulator reproduces the scalar arm's `acc[i] +=`
    /// sweeps exactly — including the `0.0 + (-0.0)` sign edge.
    ///
    /// # Safety
    /// Requires AVX2 at runtime. `weights.len() == cols.len()`, every
    /// `cols[d].len() >= out.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn score_linear(weights: &[f64], cols: &[&[f64]], out: &mut [f64]) {
        let dims = weights.len();
        let n = out.len();
        let po = out.as_mut_ptr();
        let mut i = 0;
        if dims <= MAX_HOIST {
            // Column pointers and broadcast weights hoisted out of the row
            // loop, four row-chunks per iteration: the per-row accumulation
            // is a serial add chain `dims` deep, so independent chains are
            // the only way to fill the FP ports — and none of this touches
            // the op order within any single row.
            let ptrs = hoist(cols);
            if is_x86_feature_detected!("avx512f") {
                i = score_linear_512(weights, &ptrs, po, n);
            }
            let mut wv = [_mm256_setzero_pd(); MAX_HOIST];
            for (slot, w) in wv.iter_mut().zip(weights) {
                *slot = _mm256_set1_pd(*w);
            }
            while i + 4 * LANES <= n {
                let mut a0 = _mm256_setzero_pd();
                let mut a1 = _mm256_setzero_pd();
                let mut a2 = _mm256_setzero_pd();
                let mut a3 = _mm256_setzero_pd();
                for d in 0..dims {
                    let w = wv[d];
                    let p = ptrs[d];
                    a0 = _mm256_add_pd(a0, _mm256_mul_pd(w, _mm256_loadu_pd(p.add(i))));
                    a1 = _mm256_add_pd(a1, _mm256_mul_pd(w, _mm256_loadu_pd(p.add(i + LANES))));
                    a2 = _mm256_add_pd(a2, _mm256_mul_pd(w, _mm256_loadu_pd(p.add(i + 2 * LANES))));
                    a3 = _mm256_add_pd(a3, _mm256_mul_pd(w, _mm256_loadu_pd(p.add(i + 3 * LANES))));
                }
                _mm256_storeu_pd(po.add(i), a0);
                _mm256_storeu_pd(po.add(i + LANES), a1);
                _mm256_storeu_pd(po.add(i + 2 * LANES), a2);
                _mm256_storeu_pd(po.add(i + 3 * LANES), a3);
                i += 4 * LANES;
            }
        }
        while i + LANES <= n {
            let mut acc = _mm256_setzero_pd();
            for (w, col) in weights.iter().zip(cols) {
                let c = _mm256_loadu_pd(col.as_ptr().add(i));
                acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(*w), c));
            }
            _mm256_storeu_pd(po.add(i), acc);
            i += LANES;
        }
        while i < n {
            let mut acc = 0.0;
            for (w, col) in weights.iter().zip(cols) {
                acc += w * *col.as_ptr().add(i);
            }
            *po.add(i) = acc;
            i += 1;
        }
    }

    /// Fused coordinate sums: `out[i] = 0 + Σ_d cols[d][i]` in dimension
    /// order, one store per row.
    ///
    /// # Safety
    /// Requires AVX2 at runtime. Every `cols[d].len() >= out.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn sum_cols(cols: &[&[f64]], out: &mut [f64]) {
        let dims = cols.len();
        let n = out.len();
        let po = out.as_mut_ptr();
        let mut i = 0;
        if dims <= MAX_HOIST {
            let ptrs = hoist(cols);
            if is_x86_feature_detected!("avx512f") {
                i = sum_cols_512(dims, &ptrs, po, n);
            }
            while i + 4 * LANES <= n {
                let mut a0 = _mm256_setzero_pd();
                let mut a1 = _mm256_setzero_pd();
                let mut a2 = _mm256_setzero_pd();
                let mut a3 = _mm256_setzero_pd();
                for &p in &ptrs[..dims] {
                    a0 = _mm256_add_pd(a0, _mm256_loadu_pd(p.add(i)));
                    a1 = _mm256_add_pd(a1, _mm256_loadu_pd(p.add(i + LANES)));
                    a2 = _mm256_add_pd(a2, _mm256_loadu_pd(p.add(i + 2 * LANES)));
                    a3 = _mm256_add_pd(a3, _mm256_loadu_pd(p.add(i + 3 * LANES)));
                }
                _mm256_storeu_pd(po.add(i), a0);
                _mm256_storeu_pd(po.add(i + LANES), a1);
                _mm256_storeu_pd(po.add(i + 2 * LANES), a2);
                _mm256_storeu_pd(po.add(i + 3 * LANES), a3);
                i += 4 * LANES;
            }
        }
        while i + LANES <= n {
            let mut acc = _mm256_setzero_pd();
            for col in cols {
                acc = _mm256_add_pd(acc, _mm256_loadu_pd(col.as_ptr().add(i)));
            }
            _mm256_storeu_pd(po.add(i), acc);
            i += LANES;
        }
        while i < n {
            let mut acc = 0.0;
            for col in cols {
                acc += *col.as_ptr().add(i);
            }
            *po.add(i) = acc;
            i += 1;
        }
    }

    /// Fused L1 peak scoring: `out[i] = -(0 + Σ_d |cols[d][i] - peak[d]|)` —
    /// `abs` clears the sign bit exactly like `f64::abs`, the final negate
    /// is a sign flip.
    ///
    /// # Safety
    /// Requires AVX2 at runtime. `peak.len() == cols.len()`, every
    /// `cols[d].len() >= out.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn peak_l1(peak: &[f64], cols: &[&[f64]], out: &mut [f64]) {
        let n = out.len();
        let mask = _mm256_set1_pd(ABS_MASK);
        let sign = _mm256_set1_pd(SIGN_BIT);
        let po = out.as_mut_ptr();
        let mut i = 0;
        while i + LANES <= n {
            let mut acc = _mm256_setzero_pd();
            for (p, col) in peak.iter().zip(cols) {
                let d = _mm256_sub_pd(_mm256_loadu_pd(col.as_ptr().add(i)), _mm256_set1_pd(*p));
                acc = _mm256_add_pd(acc, _mm256_and_pd(d, mask));
            }
            _mm256_storeu_pd(po.add(i), _mm256_xor_pd(acc, sign));
            i += LANES;
        }
        while i < n {
            let mut acc = 0.0;
            for (p, col) in peak.iter().zip(cols) {
                acc += (*col.as_ptr().add(i) - p).abs();
            }
            *po.add(i) = -acc;
            i += 1;
        }
    }

    /// Fused L2 peak scoring: `out[i] = -sqrt(0 + Σ_d (cols[d][i]-peak[d])²)`
    /// — separately-rounded multiply then add per dimension, and
    /// `_mm256_sqrt_pd` is correctly rounded, matching `f64::sqrt` per lane.
    ///
    /// # Safety
    /// Requires AVX2 at runtime. `peak.len() == cols.len()`, every
    /// `cols[d].len() >= out.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn peak_l2(peak: &[f64], cols: &[&[f64]], out: &mut [f64]) {
        let n = out.len();
        let sign = _mm256_set1_pd(SIGN_BIT);
        let po = out.as_mut_ptr();
        let mut i = 0;
        while i + LANES <= n {
            let mut acc = _mm256_setzero_pd();
            for (p, col) in peak.iter().zip(cols) {
                let d = _mm256_sub_pd(_mm256_loadu_pd(col.as_ptr().add(i)), _mm256_set1_pd(*p));
                acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
            }
            _mm256_storeu_pd(po.add(i), _mm256_xor_pd(_mm256_sqrt_pd(acc), sign));
            i += LANES;
        }
        while i < n {
            let mut acc = 0.0;
            for (p, col) in peak.iter().zip(cols) {
                let d = *col.as_ptr().add(i) - p;
                acc += d * d;
            }
            *po.add(i) = -acc.sqrt();
            i += 1;
        }
    }

    /// Fused L∞ peak scoring: `out[i] = -max_d(0, |cols[d][i] - peak[d]|)`.
    /// Operands are non-negative, where `_mm256_max_pd` and `f64::max`
    /// agree bit-for-bit.
    ///
    /// # Safety
    /// Requires AVX2 at runtime. `peak.len() == cols.len()`, every
    /// `cols[d].len() >= out.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn peak_linf(peak: &[f64], cols: &[&[f64]], out: &mut [f64]) {
        let n = out.len();
        let mask = _mm256_set1_pd(ABS_MASK);
        let sign = _mm256_set1_pd(SIGN_BIT);
        let po = out.as_mut_ptr();
        let mut i = 0;
        while i + LANES <= n {
            let mut acc = _mm256_setzero_pd();
            for (p, col) in peak.iter().zip(cols) {
                let d = _mm256_sub_pd(_mm256_loadu_pd(col.as_ptr().add(i)), _mm256_set1_pd(*p));
                acc = _mm256_max_pd(acc, _mm256_and_pd(d, mask));
            }
            _mm256_storeu_pd(po.add(i), _mm256_xor_pd(acc, sign));
            i += LANES;
        }
        while i < n {
            let mut acc = 0.0f64;
            for (p, col) in peak.iter().zip(cols) {
                acc = acc.max((*col.as_ptr().add(i) - p).abs());
            }
            *po.add(i) = -acc;
            i += 1;
        }
    }

    /// Appends the indices with `scores[i] >= tau` (ascending). Ordered
    /// quiet compares: NaN scores never qualify, like the scalar `>=`.
    ///
    /// # Safety
    /// Requires AVX2 at runtime.
    #[target_feature(enable = "avx2")]
    pub unsafe fn filter_ge(scores: &[f64], tau: f64, out: &mut Vec<u32>) {
        let n = scores.len();
        let t = _mm256_set1_pd(tau);
        let p = scores.as_ptr();
        let mut i = 0;
        while i + LANES <= n {
            let s = _mm256_loadu_pd(p.add(i));
            let mut m = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_GE_OQ>(s, t)) as u32;
            while m != 0 {
                out.push(i as u32 + m.trailing_zeros());
                m &= m - 1;
            }
            i += LANES;
        }
        while i < n {
            if *p.add(i) >= tau {
                out.push(i as u32);
            }
            i += 1;
        }
    }

    /// Appends the indices with `lo <= col[i] <= hi` (ascending).
    ///
    /// # Safety
    /// Requires AVX2 at runtime.
    #[target_feature(enable = "avx2")]
    pub unsafe fn filter_range(lo: f64, hi: f64, col: &[f64], out: &mut Vec<u32>) {
        let n = col.len();
        let lv = _mm256_set1_pd(lo);
        let hv = _mm256_set1_pd(hi);
        let p = col.as_ptr();
        let mut i = 0;
        while i + LANES <= n {
            let c = _mm256_loadu_pd(p.add(i));
            let inside = _mm256_and_pd(
                _mm256_cmp_pd::<_CMP_LE_OQ>(lv, c),
                _mm256_cmp_pd::<_CMP_LE_OQ>(c, hv),
            );
            let mut m = _mm256_movemask_pd(inside) as u32;
            while m != 0 {
                out.push(i as u32 + m.trailing_zeros());
                m &= m - 1;
            }
            i += LANES;
        }
        while i < n {
            let c = *p.add(i);
            if lo <= c && c <= hi {
                out.push(i as u32);
            }
            i += 1;
        }
    }

    /// Pareto dominance across the dimension axis: `a` ≤ everywhere,
    /// < somewhere.
    ///
    /// # Safety
    /// Requires AVX2 at runtime. `a.len() == b.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dominates(a: &[f64], b: &[f64]) -> bool {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut strictly = false;
        let mut i = 0;
        while i + LANES <= n {
            let av = _mm256_loadu_pd(pa.add(i));
            let bv = _mm256_loadu_pd(pb.add(i));
            if _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_GT_OQ>(av, bv)) != 0 {
                return false;
            }
            strictly |= _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LT_OQ>(av, bv)) != 0;
            i += LANES;
        }
        while i < n {
            let (x, y) = (*pa.add(i), *pb.add(i));
            if x > y {
                return false;
            }
            strictly |= x < y;
            i += 1;
        }
        strictly
    }
}

/// The NEON vector arms (`aarch64`), two `f64` lanes per vector. Same
/// contract as the AVX2 module: separately-rounded multiply/add (no
/// `vfmaq_f64`), sign-magnitude `abs`, correctly-rounded `vsqrtq_f64`, and
/// `vmaxq_f64` (IEEE `maxNum`, matching `f64::max`).
#[cfg(target_arch = "aarch64")]
mod neon {
    use std::arch::aarch64::*;

    const LANES: usize = 2;

    /// Fused linear scoring — see the AVX2 twin for the bit-exactness
    /// argument (zero accumulator, dimension-order mul/add rounds).
    ///
    /// # Safety
    /// Requires NEON at runtime. `weights.len() == cols.len()`, every
    /// `cols[d].len() >= out.len()`.
    #[target_feature(enable = "neon")]
    pub unsafe fn score_linear(weights: &[f64], cols: &[&[f64]], out: &mut [f64]) {
        let n = out.len();
        let po = out.as_mut_ptr();
        let mut i = 0;
        while i + LANES <= n {
            let mut acc = vdupq_n_f64(0.0);
            for (w, col) in weights.iter().zip(cols) {
                let c = vld1q_f64(col.as_ptr().add(i));
                acc = vaddq_f64(acc, vmulq_f64(vdupq_n_f64(*w), c));
            }
            vst1q_f64(po.add(i), acc);
            i += LANES;
        }
        while i < n {
            let mut acc = 0.0;
            for (w, col) in weights.iter().zip(cols) {
                acc += w * *col.as_ptr().add(i);
            }
            *po.add(i) = acc;
            i += 1;
        }
    }

    /// Fused coordinate sums.
    ///
    /// # Safety
    /// Requires NEON at runtime. Every `cols[d].len() >= out.len()`.
    #[target_feature(enable = "neon")]
    pub unsafe fn sum_cols(cols: &[&[f64]], out: &mut [f64]) {
        let n = out.len();
        let po = out.as_mut_ptr();
        let mut i = 0;
        while i + LANES <= n {
            let mut acc = vdupq_n_f64(0.0);
            for col in cols {
                acc = vaddq_f64(acc, vld1q_f64(col.as_ptr().add(i)));
            }
            vst1q_f64(po.add(i), acc);
            i += LANES;
        }
        while i < n {
            let mut acc = 0.0;
            for col in cols {
                acc += *col.as_ptr().add(i);
            }
            *po.add(i) = acc;
            i += 1;
        }
    }

    /// Fused L1 peak scoring.
    ///
    /// # Safety
    /// Requires NEON at runtime. `peak.len() == cols.len()`, every
    /// `cols[d].len() >= out.len()`.
    #[target_feature(enable = "neon")]
    pub unsafe fn peak_l1(peak: &[f64], cols: &[&[f64]], out: &mut [f64]) {
        let n = out.len();
        let po = out.as_mut_ptr();
        let mut i = 0;
        while i + LANES <= n {
            let mut acc = vdupq_n_f64(0.0);
            for (p, col) in peak.iter().zip(cols) {
                let d = vsubq_f64(vld1q_f64(col.as_ptr().add(i)), vdupq_n_f64(*p));
                acc = vaddq_f64(acc, vabsq_f64(d));
            }
            vst1q_f64(po.add(i), vnegq_f64(acc));
            i += LANES;
        }
        while i < n {
            let mut acc = 0.0;
            for (p, col) in peak.iter().zip(cols) {
                acc += (*col.as_ptr().add(i) - p).abs();
            }
            *po.add(i) = -acc;
            i += 1;
        }
    }

    /// Fused L2 peak scoring (`vsqrtq_f64` is correctly rounded).
    ///
    /// # Safety
    /// Requires NEON at runtime. `peak.len() == cols.len()`, every
    /// `cols[d].len() >= out.len()`.
    #[target_feature(enable = "neon")]
    pub unsafe fn peak_l2(peak: &[f64], cols: &[&[f64]], out: &mut [f64]) {
        let n = out.len();
        let po = out.as_mut_ptr();
        let mut i = 0;
        while i + LANES <= n {
            let mut acc = vdupq_n_f64(0.0);
            for (p, col) in peak.iter().zip(cols) {
                let d = vsubq_f64(vld1q_f64(col.as_ptr().add(i)), vdupq_n_f64(*p));
                acc = vaddq_f64(acc, vmulq_f64(d, d));
            }
            vst1q_f64(po.add(i), vnegq_f64(vsqrtq_f64(acc)));
            i += LANES;
        }
        while i < n {
            let mut acc = 0.0;
            for (p, col) in peak.iter().zip(cols) {
                let d = *col.as_ptr().add(i) - p;
                acc += d * d;
            }
            *po.add(i) = -acc.sqrt();
            i += 1;
        }
    }

    /// Fused L∞ peak scoring (`vmaxq_f64` is IEEE `maxNum`, matching
    /// `f64::max` on the non-negative operands involved).
    ///
    /// # Safety
    /// Requires NEON at runtime. `peak.len() == cols.len()`, every
    /// `cols[d].len() >= out.len()`.
    #[target_feature(enable = "neon")]
    pub unsafe fn peak_linf(peak: &[f64], cols: &[&[f64]], out: &mut [f64]) {
        let n = out.len();
        let po = out.as_mut_ptr();
        let mut i = 0;
        while i + LANES <= n {
            let mut acc = vdupq_n_f64(0.0);
            for (p, col) in peak.iter().zip(cols) {
                let d = vsubq_f64(vld1q_f64(col.as_ptr().add(i)), vdupq_n_f64(*p));
                acc = vmaxq_f64(acc, vabsq_f64(d));
            }
            vst1q_f64(po.add(i), vnegq_f64(acc));
            i += LANES;
        }
        while i < n {
            let mut acc = 0.0f64;
            for (p, col) in peak.iter().zip(cols) {
                acc = acc.max((*col.as_ptr().add(i) - p).abs());
            }
            *po.add(i) = -acc;
            i += 1;
        }
    }

    /// # Safety
    /// Requires NEON at runtime.
    #[target_feature(enable = "neon")]
    pub unsafe fn filter_ge(scores: &[f64], tau: f64, out: &mut Vec<u32>) {
        let n = scores.len();
        let t = vdupq_n_f64(tau);
        let p = scores.as_ptr();
        let mut i = 0;
        while i + LANES <= n {
            let m = vcgeq_f64(vld1q_f64(p.add(i)), t);
            if vgetq_lane_u64::<0>(m) != 0 {
                out.push(i as u32);
            }
            if vgetq_lane_u64::<1>(m) != 0 {
                out.push(i as u32 + 1);
            }
            i += LANES;
        }
        while i < n {
            if *p.add(i) >= tau {
                out.push(i as u32);
            }
            i += 1;
        }
    }

    /// # Safety
    /// Requires NEON at runtime.
    #[target_feature(enable = "neon")]
    pub unsafe fn filter_range(lo: f64, hi: f64, col: &[f64], out: &mut Vec<u32>) {
        let n = col.len();
        let lv = vdupq_n_f64(lo);
        let hv = vdupq_n_f64(hi);
        let p = col.as_ptr();
        let mut i = 0;
        while i + LANES <= n {
            let c = vld1q_f64(p.add(i));
            let m = vandq_u64(vcleq_f64(lv, c), vcleq_f64(c, hv));
            if vgetq_lane_u64::<0>(m) != 0 {
                out.push(i as u32);
            }
            if vgetq_lane_u64::<1>(m) != 0 {
                out.push(i as u32 + 1);
            }
            i += LANES;
        }
        while i < n {
            let c = *p.add(i);
            if lo <= c && c <= hi {
                out.push(i as u32);
            }
            i += 1;
        }
    }

    /// # Safety
    /// Requires NEON at runtime. `a.len() == b.len()`.
    #[target_feature(enable = "neon")]
    pub unsafe fn dominates(a: &[f64], b: &[f64]) -> bool {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut strictly = false;
        let mut i = 0;
        while i + LANES <= n {
            let av = vld1q_f64(pa.add(i));
            let bv = vld1q_f64(pb.add(i));
            let gt = vcgtq_f64(av, bv);
            if vgetq_lane_u64::<0>(gt) != 0 || vgetq_lane_u64::<1>(gt) != 0 {
                return false;
            }
            let lt = vcltq_f64(av, bv);
            strictly |= vgetq_lane_u64::<0>(lt) != 0 || vgetq_lane_u64::<1>(lt) != 0;
            i += LANES;
        }
        while i < n {
            let (x, y) = (*pa.add(i), *pb.add(i));
            if x > y {
                return false;
            }
            strictly |= x < y;
            i += 1;
        }
        strictly
    }
}

/// Architecture facade over the vector arms. Only reached when
/// [`KernelDispatch::simd`] returned true, which implies the runtime
/// feature check passed on a supported architecture.
mod simd {
    #[cfg(target_arch = "x86_64")]
    use super::avx2 as arch;
    #[cfg(target_arch = "aarch64")]
    use super::neon as arch;

    macro_rules! facade {
        ($(fn $name:ident($($arg:ident: $ty:ty),*) $(-> $ret:ty)?;)*) => {
            $(
                #[inline]
                #[allow(unused_variables)]
                pub fn $name($($arg: $ty),*) $(-> $ret)? {
                    #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
                    // SAFETY: callers only dispatch here after
                    // `KernelDispatch::simd()` confirmed the runtime
                    // feature (AVX2 / NEON) is present.
                    unsafe {
                        arch::$name($($arg),*)
                    }
                    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
                    unreachable!("no vector arm on this architecture")
                }
            )*
        };
    }

    facade! {
        fn score_linear(weights: &[f64], cols: &[&[f64]], out: &mut [f64]);
        fn sum_cols(cols: &[&[f64]], out: &mut [f64]);
        fn peak_l1(peak: &[f64], cols: &[&[f64]], out: &mut [f64]);
        fn peak_l2(peak: &[f64], cols: &[&[f64]], out: &mut [f64]);
        fn peak_linf(peak: &[f64], cols: &[&[f64]], out: &mut [f64]);
        fn filter_ge(scores: &[f64], tau: f64, out: &mut Vec<u32>);
        fn filter_range(lo: f64, hi: f64, col: &[f64], out: &mut Vec<u32>);
        fn dominates(a: &[f64], b: &[f64]) -> bool;
    }
}

/// A bounded min-heap retaining the `k` largest scores offered to it (by
/// `f64::total_cmp`).
///
/// Offering every row score and reading back [`into_sorted_desc`] yields the
/// same *multiset of values* as sorting all scores descending and truncating
/// to `k` — ties at the boundary contribute equal values either way — which
/// is exactly what `TopKQuery::state_from_ranked` consumes. The heap's
/// current minimum doubles as the block-pruning threshold: once the heap is
/// full, a block whose upper bound is strictly below [`min`](TopScores::min)
/// cannot contribute to the top-`k` multiset and is skipped in its entirety.
///
/// [`into_sorted_desc`]: TopScores::into_sorted_desc
#[derive(Clone, Debug)]
pub struct TopScores {
    k: usize,
    /// Min-heap by `total_cmp`: `heap[0]` is the smallest retained score.
    heap: Vec<f64>,
}

impl TopScores {
    /// An empty selector for the `k` best scores.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        Self {
            k,
            heap: Vec::with_capacity(k),
        }
    }

    /// True once `k` scores are retained (pruning may start).
    #[inline]
    pub fn full(&self) -> bool {
        self.heap.len() == self.k
    }

    /// The smallest retained score, when the heap is full.
    #[inline]
    pub fn min(&self) -> Option<f64> {
        if self.full() {
            self.heap.first().copied()
        } else {
            None
        }
    }

    /// Offers one score.
    #[inline]
    pub fn offer(&mut self, s: f64) {
        if self.heap.len() < self.k {
            self.heap.push(s);
            self.sift_up(self.heap.len() - 1);
        } else if s.total_cmp(&self.heap[0]).is_gt() {
            self.heap[0] = s;
            self.sift_down(0);
        }
    }

    /// Offers every score of a batch.
    pub fn offer_all(&mut self, scores: &[f64]) {
        for &s in scores {
            self.offer(s);
        }
    }

    /// The retained scores, best first.
    pub fn into_sorted_desc(mut self) -> Vec<f64> {
        self.heap.sort_by(|a, b| b.total_cmp(a));
        self.heap
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[i].total_cmp(&self.heap[parent]).is_lt() {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.heap.len();
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut smallest = i;
            if l < n && self.heap[l].total_cmp(&self.heap[smallest]).is_lt() {
                smallest = l;
            }
            if r < n && self.heap[r].total_cmp(&self.heap[smallest]).is_lt() {
                smallest = r;
            }
            if smallest == i {
                break;
            }
            self.heap.swap(i, smallest);
            i = smallest;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dominance;
    use crate::point::Tuple;
    use crate::score::{LinearScore, PeakScore, ScoreFn};

    const ARMS: [KernelDispatch; 2] = [KernelDispatch::ForcedScalar, KernelDispatch::ForcedSimd];

    /// The `RIPPLE_KERNEL_DISPATCH` override: unset and `simd` defer to the
    /// hardware, `scalar` forces the scalar loop, anything else is refused
    /// with a message naming the value and the accepted set.
    #[test]
    fn dispatch_override_parses_and_rejects() {
        use std::ffi::OsStr;
        for hw in [false, true] {
            assert_eq!(auto_arm(None, hw), Ok(hw));
            assert_eq!(auto_arm(Some(OsStr::new("simd")), hw), Ok(hw));
            assert_eq!(auto_arm(Some(OsStr::new("scalar")), hw), Ok(false));
            for bad in ["", "SIMD", "avx2", " scalar"] {
                let err = auto_arm(Some(OsStr::new(bad)), hw).unwrap_err();
                assert!(err.contains(&format!("{bad:?}")), "{err}");
                assert!(err.contains("\"scalar\", \"simd\""), "{err}");
            }
        }
        #[cfg(unix)]
        {
            use std::os::unix::ffi::OsStrExt;
            let err = auto_arm(Some(OsStr::from_bytes(b"sim\xffd")), true).unwrap_err();
            assert!(err.contains("sim\\xFFd"), "{err}");
        }
    }

    /// Deterministic pseudo-random coordinate stream (splitmix-ish), with
    /// occasional negative and denormal values to exercise the fp edge cases
    /// the kernels must survive.
    struct Gen(u64);
    impl Gen {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        }
        fn coord(&mut self) -> f64 {
            match self.next_u64() % 16 {
                0 => -((self.next_u64() % 1000) as f64) / 1000.0, // negative
                1 => f64::MIN_POSITIVE / 2.0,                     // denormal
                2 => 0.0,
                _ => (self.next_u64() % 10_000) as f64 / 10_000.0,
            }
        }
        fn tuples(&mut self, n: usize, dims: usize) -> Vec<Tuple> {
            (0..n)
                .map(|i| {
                    Tuple::new(
                        i as u64,
                        (0..dims).map(|_| self.coord()).collect::<Vec<_>>(),
                    )
                })
                .collect()
        }
    }

    /// Column-major copy of a tuple slice.
    fn columns(tuples: &[Tuple], dims: usize) -> Vec<Vec<f64>> {
        (0..dims)
            .map(|d| tuples.iter().map(|t| t.point.coord(d)).collect())
            .collect()
    }

    fn col_refs(cols: &[Vec<f64>]) -> Vec<&[f64]> {
        cols.iter().map(|c| c.as_slice()).collect()
    }

    #[test]
    fn linear_kernel_bit_identical_to_scalar_dims_1_to_8() {
        for arm in ARMS {
            for dims in 1..=8 {
                let mut g = Gen(dims as u64);
                let tuples = g.tuples(100, dims);
                let weights: Vec<f64> = (0..dims)
                    .map(|_| (g.next_u64() % 100) as f64 / 50.0)
                    .collect();
                let f = LinearScore::new(weights);
                let cols = columns(&tuples, dims);
                let mut out = Vec::new();
                score_linear(arm, f.weights(), &col_refs(&cols), &mut out);
                for (t, batched) in tuples.iter().zip(&out) {
                    let scalar = f.score(&t.point);
                    assert_eq!(
                        scalar.to_bits(),
                        batched.to_bits(),
                        "{arm:?} dims={dims} id={}",
                        t.id
                    );
                }
            }
        }
    }

    #[test]
    fn peak_kernel_bit_identical_to_scalar_all_norms() {
        for arm in ARMS {
            for norm in [Norm::L1, Norm::L2, Norm::Linf] {
                for dims in 1..=8 {
                    let mut g = Gen(100 + dims as u64);
                    let tuples = g.tuples(64, dims);
                    let peak: Vec<f64> = (0..dims).map(|_| g.coord()).collect();
                    let f = PeakScore::new(peak.clone(), norm);
                    let cols = columns(&tuples, dims);
                    let mut out = Vec::new();
                    score_peak(arm, norm, &peak, &col_refs(&cols), &mut out);
                    for (t, batched) in tuples.iter().zip(&out) {
                        assert_eq!(
                            f.score(&t.point).to_bits(),
                            batched.to_bits(),
                            "{arm:?} {norm:?} dims={dims} id={}",
                            t.id
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn coord_sums_bit_identical_to_iter_sum() {
        for arm in ARMS {
            for dims in 1..=8 {
                let mut g = Gen(7 * dims as u64 + 1);
                let tuples = g.tuples(80, dims);
                let cols = columns(&tuples, dims);
                let mut out = Vec::new();
                coord_sums(arm, &col_refs(&cols), &mut out);
                for (t, batched) in tuples.iter().zip(&out) {
                    let scalar: f64 = t.point.coords().iter().sum();
                    assert_eq!(scalar.to_bits(), batched.to_bits(), "{arm:?}");
                }
            }
        }
    }

    #[test]
    fn empty_batches_are_fine() {
        for arm in ARMS {
            let mut out = vec![1.0];
            score_linear(arm, &[], &[], &mut out);
            assert!(out.is_empty());
            coord_sums(arm, &[], &mut out);
            assert!(out.is_empty());
            score_peak(arm, Norm::L2, &[], &[], &mut out);
            assert!(out.is_empty());
            let empty_col: &[f64] = &[];
            score_linear(arm, &[1.0, 2.0], &[empty_col, empty_col], &mut out);
            assert!(out.is_empty(), "zero rows, nonzero dims");
        }
    }

    #[test]
    fn dominance_kernels_match_scalar() {
        for arm in ARMS {
            let mut g = Gen(42);
            let tuples = g.tuples(60, 3);
            for a in &tuples {
                for b in &tuples {
                    assert_eq!(
                        dominates_raw(arm, a.point.coords(), b.point.coords()),
                        dominance::dominates(&a.point, &b.point),
                        "{arm:?}"
                    );
                }
            }
            let window: Vec<&[f64]> = tuples[..20].iter().map(|t| t.point.coords()).collect();
            for t in &tuples {
                let scalar = tuples[..20]
                    .iter()
                    .any(|m| dominance::dominates(&m.point, &t.point));
                assert_eq!(
                    dominated_by_any(arm, window.iter().copied(), t.point.coords()),
                    scalar,
                    "{arm:?}"
                );
            }
        }
    }

    /// `dominates_raw` across dimensionalities spanning whole vectors,
    /// partial tails and sub-lane slices — both arms, same verdicts.
    #[test]
    fn dominates_raw_arms_agree_across_dims() {
        for dims in 1..=11 {
            let mut g = Gen(500 + dims as u64);
            let tuples = g.tuples(40, dims);
            for a in &tuples {
                for b in &tuples {
                    let scalar = dominates_raw(
                        KernelDispatch::ForcedScalar,
                        a.point.coords(),
                        b.point.coords(),
                    );
                    let simd = dominates_raw(
                        KernelDispatch::ForcedSimd,
                        a.point.coords(),
                        b.point.coords(),
                    );
                    assert_eq!(scalar, simd, "dims={dims}");
                }
            }
        }
    }

    #[test]
    fn row_in_box_matches_rect_contains() {
        use crate::rect::Rect;
        let r = Rect::new(vec![0.2, 0.0, 0.4], vec![0.8, 0.5, 0.4]);
        let mut g = Gen(9);
        for t in g.tuples(100, 3) {
            assert_eq!(
                row_in_box(r.lo().coords(), r.hi().coords(), t.point.coords()),
                r.contains(&t.point)
            );
        }
        // boundary inclusion
        assert!(row_in_box(&[0.0], &[1.0], &[0.0]));
        assert!(row_in_box(&[0.0], &[1.0], &[1.0]));
    }

    #[test]
    fn filter_in_box_matches_row_in_box() {
        for arm in ARMS {
            for dims in 1..=5 {
                let mut g = Gen(77 + dims as u64);
                let tuples = g.tuples(120, dims);
                let lo: Vec<f64> = (0..dims).map(|_| 0.2).collect();
                let hi: Vec<f64> = (0..dims).map(|_| 0.7).collect();
                let cols = columns(&tuples, dims);
                let mut out = vec![99u32]; // must be cleared
                filter_in_box(arm, &lo, &hi, &col_refs(&cols), &mut out);
                let want: Vec<u32> = tuples
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| row_in_box(&lo, &hi, t.point.coords()))
                    .map(|(i, _)| i as u32)
                    .collect();
                assert_eq!(out, want, "{arm:?} dims={dims}");
            }
            // no columns: cleared, nothing qualifies
            let mut out = vec![3u32];
            filter_in_box(arm, &[], &[], &[], &mut out);
            assert!(out.is_empty());
            // boundary rows are inside (closed box on both ends)
            let col = [0.0, 0.5, 1.0, 1.5];
            filter_in_box(arm, &[0.0], &[1.0], &[&col], &mut out);
            assert_eq!(out, vec![0, 1, 2], "{arm:?}");
        }
    }

    #[test]
    fn filter_collects_tau_qualifiers_in_order() {
        for arm in ARMS {
            let scores = [0.9, 0.1, 0.5, 0.5, -0.2];
            let mut out = Vec::new();
            filter_at_least(arm, &scores, 0.5, &mut out);
            assert_eq!(out, vec![0, 2, 3], "{arm:?}");
            out.clear();
            filter_at_least(arm, &scores, f64::INFINITY, &mut out);
            assert!(out.is_empty());
            filter_at_least(arm, &[], 0.0, &mut out);
            assert!(out.is_empty());
        }
    }

    /// The pinning property the dispatch contract promises: forced-SIMD and
    /// forced-scalar agree bit-for-bit on every kernel, specifically on
    /// partial tail blocks (`len % lanes != 0`), empty blocks, singleton
    /// blocks and full multi-lane blocks.
    #[test]
    fn simd_equals_scalar_bitwise_on_tail_and_edge_lengths() {
        let dims = 4;
        for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 63, 255, 256, 257] {
            let mut g = Gen(0xA11 + n as u64);
            let tuples = g.tuples(n, dims);
            let cols = columns(&tuples, dims);
            let refs = col_refs(&cols);
            let weights: Vec<f64> = (0..dims).map(|_| g.coord().abs()).collect();
            let peak: Vec<f64> = (0..dims).map(|_| g.coord()).collect();

            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let (mut a, mut b) = (Vec::new(), Vec::new());

            score_linear(KernelDispatch::ForcedScalar, &weights, &refs, &mut a);
            score_linear(KernelDispatch::ForcedSimd, &weights, &refs, &mut b);
            assert_eq!(bits(&a), bits(&b), "score_linear n={n}");

            for norm in [Norm::L1, Norm::L2, Norm::Linf] {
                score_peak(KernelDispatch::ForcedScalar, norm, &peak, &refs, &mut a);
                score_peak(KernelDispatch::ForcedSimd, norm, &peak, &refs, &mut b);
                assert_eq!(bits(&a), bits(&b), "score_peak {norm:?} n={n}");
            }

            coord_sums(KernelDispatch::ForcedScalar, &refs, &mut a);
            coord_sums(KernelDispatch::ForcedSimd, &refs, &mut b);
            assert_eq!(bits(&a), bits(&b), "coord_sums n={n}");

            // τ at a value some rows attain exactly, so the boundary `>=`
            // matters on both arms.
            coord_sums(KernelDispatch::ForcedScalar, &refs, &mut a);
            let tau = a.get(n / 2).copied().unwrap_or(0.0);
            let (mut ia, mut ib) = (vec![7u32], vec![7u32]);
            filter_at_least(KernelDispatch::ForcedScalar, &a, tau, &mut ia);
            filter_at_least(KernelDispatch::ForcedSimd, &a, tau, &mut ib);
            assert_eq!(ia, ib, "filter_at_least n={n} (appends, no clear)");

            let lo = vec![0.0; dims];
            let hi = vec![0.6; dims];
            filter_in_box(KernelDispatch::ForcedScalar, &lo, &hi, &refs, &mut ia);
            filter_in_box(KernelDispatch::ForcedSimd, &lo, &hi, &refs, &mut ib);
            assert_eq!(ia, ib, "filter_in_box n={n}");
        }
    }

    /// Boundary-inclusive box filters: rows sitting exactly on `lo`/`hi`
    /// qualify on both arms, rows epsilon outside do not.
    #[test]
    fn simd_box_filter_is_boundary_inclusive() {
        let lo = 0.25f64;
        let hi = 0.75f64;
        let below = f64::from_bits(lo.to_bits() - 1);
        let above = f64::from_bits(hi.to_bits() + 1);
        let col: Vec<f64> = vec![below, lo, 0.5, hi, above, lo, hi, below, above];
        for arm in ARMS {
            let mut out = Vec::new();
            filter_in_box(arm, &[lo], &[hi], &[&col], &mut out);
            assert_eq!(out, vec![1, 2, 3, 5, 6], "{arm:?}");
        }
    }

    #[test]
    fn forced_simd_degrades_safely_and_reports_arms() {
        // On hardware without a vector unit ForcedSimd must resolve to the
        // scalar loop rather than fault; on vector hardware it must resolve
        // to the SIMD arm. Either way the arm label is consistent.
        assert_eq!(KernelDispatch::ForcedSimd.simd(), simd_available());
        assert!(!KernelDispatch::ForcedScalar.simd());
        assert_eq!(KernelDispatch::ForcedScalar.arm(), "forced-scalar");
        assert!(!detected_features().is_empty());
        // Auto resolves consistently across calls (memoised).
        assert_eq!(KernelDispatch::Auto.simd(), KernelDispatch::Auto.simd());
    }

    #[test]
    fn top_scores_equals_sort_desc_truncate() {
        for (n, k) in [
            (0usize, 3usize),
            (2, 5),
            (50, 1),
            (100, 7),
            (64, 64),
            (33, 40),
        ] {
            let mut g = Gen((n * 31 + k) as u64);
            let scores: Vec<f64> = (0..n).map(|_| g.coord()).collect();
            let mut heap = TopScores::new(k);
            heap.offer_all(&scores);
            let got = heap.into_sorted_desc();
            let mut want = scores.clone();
            want.sort_by(|a, b| b.total_cmp(a));
            want.truncate(k);
            assert_eq!(
                got.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                "n={n} k={k}"
            );
        }
    }

    #[test]
    fn top_scores_handles_boundary_ties() {
        let mut heap = TopScores::new(2);
        heap.offer_all(&[0.5, 0.5, 0.5, 0.1, 0.5]);
        assert_eq!(heap.min(), Some(0.5));
        assert_eq!(heap.into_sorted_desc(), vec![0.5, 0.5]);
    }

    #[test]
    fn top_scores_min_gates_pruning() {
        let mut heap = TopScores::new(3);
        assert_eq!(heap.min(), None, "not full: nothing may be pruned");
        heap.offer_all(&[0.3, 0.9]);
        assert!(!heap.full());
        heap.offer(0.1);
        assert!(heap.full());
        assert_eq!(heap.min(), Some(0.1));
        heap.offer(0.2);
        assert_eq!(heap.min(), Some(0.2));
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_rejected() {
        let _ = TopScores::new(0);
    }

    /// The bound helpers on `ScoreFn` must dominate every row score of a
    /// block *as exact f64 comparisons* (the monotonicity argument in the
    /// module docs) — checked here over random blocks including negative and
    /// denormal coordinates, for every score family, norm and dispatch arm.
    #[test]
    fn corner_bounds_dominate_row_scores_exactly() {
        for arm in ARMS {
            for dims in 1..=8 {
                let mut g = Gen(1000 + dims as u64);
                let tuples = g.tuples(120, dims);
                let cols = columns(&tuples, dims);
                let refs = col_refs(&cols);
                let mut lo = vec![f64::INFINITY; dims];
                let mut hi = vec![f64::NEG_INFINITY; dims];
                for t in &tuples {
                    for d in 0..dims {
                        lo[d] = lo[d].min(t.point.coord(d));
                        hi[d] = hi[d].max(t.point.coord(d));
                    }
                }
                let mut scores = Vec::new();
                let linear =
                    LinearScore::new((0..dims).map(|d| 0.25 + d as f64).collect::<Vec<f64>>());
                linear.score_block(&refs, &mut scores, arm);
                let ub = linear.upper_bound_corners(&lo, &hi);
                for s in &scores {
                    assert!(ub >= *s, "{arm:?}: linear bound must dominate exactly");
                }
                for norm in [Norm::L1, Norm::L2, Norm::Linf] {
                    let peak =
                        PeakScore::new((0..dims).map(|_| g.coord()).collect::<Vec<f64>>(), norm);
                    peak.score_block(&refs, &mut scores, arm);
                    let ub = peak.upper_bound_corners(&lo, &hi);
                    for s in &scores {
                        assert!(ub >= *s, "{arm:?} {norm:?} bound must dominate exactly");
                    }
                }
            }
        }
    }
}
