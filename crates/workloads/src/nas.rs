//! NAS-Parallel-Benchmark-like mini-kernels (Table 1 of the paper).
//!
//! The paper measures SDR-MPI on five NAS benchmarks (BT, CG, FT, MG, SP,
//! class D, 256 ranks). We reproduce each benchmark's *communication pattern*
//! at reduced scale with real (small) numerics, and charge a calibrated
//! per-iteration computation cost to the virtual clock so that the
//! compute/communication ratio — which is what determines the replication
//! overhead percentage — is representative of a class-D execution:
//!
//! | kernel | communication pattern reproduced |
//! |--------|----------------------------------|
//! | CG     | 1-D row-block sparse mat-vec: halo exchange with both neighbours + dot-product allreduces every iteration |
//! | MG     | V-cycle over a 1-D grid hierarchy: halo exchange at every level, residual-norm allreduce per cycle |
//! | FT     | distributed 2-D FFT: local row FFTs, all-to-all transpose, column FFTs, checksum allreduce |
//! | BT     | 2-D process grid ADI: face halo exchange + pipelined line sweeps in x and y (large block messages) |
//! | SP     | same structure as BT with smaller (scalar pentadiagonal) messages and lighter per-point compute |
//!
//! Every kernel returns a checksum so that tests can assert that native and
//! replicated executions compute identical results.
//!
//! # Steady-state allocation rule
//!
//! A 256-rank dual run is 512 of these ranks on one host, so what a rank
//! allocates per iteration is paid 512 times. Every kernel therefore owns
//! its grids, hierarchies, scratch lines and twiddle tables from before its
//! first iteration, and an iteration allocates only the payloads it sends
//! (encoded in place, see [`sim_mpi::datatype`]; 8-byte halo and allreduce
//! words travel inline and allocate nothing): no `clone()` of a grid, no
//! `Vec<f64>` between a field and its payload or between a payload and the
//! sum taken over it. `tests/kernel_steady_state.rs` holds each kernel to
//! its payload bytes plus 4 KiB per rank and iteration.
//!
//! The rule's second half is about what stays live: an iteration releases
//! what it sent and received before the next iteration allocates. A
//! received payload is consumed where it is decoded, and a send buffer is
//! held only by the views in flight, so one generation of payloads exists at
//! a time (FT's transpose slab is 512 KiB per rank at 128 ranks).
//! `tests/kernel_live_payload.rs` lets a second iteration raise a job's
//! memory high-water mark by at most 4 KiB per rank.
//!
//! The rule never touches the arithmetic: every expression keeps its
//! association and every reduction its order, and the loops this module used
//! before (grid clones, per-block twiddle recurrence) survive as the
//! `#[cfg(test)]` references the current ones are compared against bit for
//! bit.
//!
//! # FT on every core
//!
//! FT's per-row work has no dependency between rows, so once a rank's grid
//! has [`pool::MIN_POINTS`] points its per-row phases fan out over the host's
//! cores through [`pool::for_each`], one region each:
//!
//! 1. the `sin` grid set-up, once per run;
//! 2. per iteration, each row's FFT, then marshalling that row into every
//!    block of the send slab;
//! 3. per iteration, decoding each row from the received blocks, then its
//!    second FFT.
//!
//! Each thread keeps one contiguous range of rows in every region, so a row
//! is transformed, marshalled and decoded on one core. Every element sees the
//! operations of the single-threaded loop in their order, and the checksum,
//! the one reduction, stays on the caller. Virtual time is charged before
//! each region, as before, so `workers: 1` results are bit-identical at any
//! core count (DESIGN.md §5.6). The FFT itself has a portable and an AVX2
//! build of one body, with the same bits.

use crate::pool;
use bytes::Bytes;
use sim_mpi::datatype::{bytes_to_f64, f64_to_bytes, f64s_to_bytes, iter_f64s};
use sim_mpi::{Process, ReduceOp};
use sim_net::SimTime;
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::OnceLock;

/// Which NAS-like kernel to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NasKernel {
    /// Block tridiagonal ADI-like solver.
    Bt,
    /// Conjugate gradient.
    Cg,
    /// 2-D FFT with all-to-all transposes.
    Ft,
    /// Multigrid V-cycles.
    Mg,
    /// Scalar pentadiagonal ADI-like solver.
    Sp,
}

impl NasKernel {
    /// All five kernels, in the order of the paper's Table 1.
    pub fn all() -> [NasKernel; 5] {
        [
            NasKernel::Bt,
            NasKernel::Cg,
            NasKernel::Ft,
            NasKernel::Mg,
            NasKernel::Sp,
        ]
    }

    /// The name used in the paper's table.
    pub fn name(&self) -> &'static str {
        match self {
            NasKernel::Bt => "BT",
            NasKernel::Cg => "CG",
            NasKernel::Ft => "FT",
            NasKernel::Mg => "MG",
            NasKernel::Sp => "SP",
        }
    }
}

/// Problem-size / iteration configuration for the mini-kernels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NasConfig {
    /// Local (per-rank) problem size (elements per rank for 1-D kernels, grid
    /// edge for 2-D kernels).
    pub local_size: usize,
    /// Number of outer iterations (CG iterations, V-cycles, FFT steps, ADI
    /// steps).
    pub iterations: usize,
    /// Virtual nanoseconds of computation charged per local grid point and
    /// per iteration. Calibrated so that the compute/communication ratio is
    /// class-D-like; see `EXPERIMENTS.md`.
    pub compute_ns_per_point: u64,
}

impl NasConfig {
    /// A quick configuration for unit tests (small, fast in real time).
    pub fn test_size() -> Self {
        NasConfig {
            local_size: 256,
            iterations: 4,
            compute_ns_per_point: 40,
        }
    }

    /// The configuration used by the Table 1 harness: large enough virtual
    /// compute per iteration to be class-D-like, small enough real data to run
    /// quickly on a laptop.
    pub fn class_d_like() -> Self {
        NasConfig {
            local_size: 4096,
            iterations: 12,
            compute_ns_per_point: 220,
        }
    }

    /// Class S, the smallest NAS problem class: tiny per-rank data and few
    /// iterations. This is the configuration the ≥64-rank scaling runs use —
    /// the point of those runs is to exercise the communication pattern and
    /// the scheduler at paper-scale process counts, not to move data.
    pub fn class_s() -> Self {
        NasConfig {
            local_size: 64,
            iterations: 3,
            compute_ns_per_point: 120,
        }
    }

    /// Parse a class name as accepted by the harness `--class` flag.
    pub fn from_class_name(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "s" => Some(NasConfig::class_s()),
            "d" | "d-like" => Some(NasConfig::class_d_like()),
            "test" => Some(NasConfig::test_size()),
            _ => None,
        }
    }

    fn charge_compute(&self, p: &mut Process, points: usize, weight: f64) {
        let ns = (points as f64 * self.compute_ns_per_point as f64 * weight).round() as u64;
        p.compute(SimTime::from_nanos(ns));
    }
}

/// Run one kernel and return its checksum.
pub fn run_kernel(kernel: NasKernel, p: &mut Process, cfg: &NasConfig) -> f64 {
    match kernel {
        NasKernel::Cg => run_cg(p, cfg),
        NasKernel::Mg => run_mg(p, cfg),
        NasKernel::Ft => run_ft(p, cfg),
        NasKernel::Bt => run_adi(p, cfg, AdiFlavor::Bt),
        NasKernel::Sp => run_adi(p, cfg, AdiFlavor::Sp),
    }
}

// ---------------------------------------------------------------------------
// CG: conjugate gradient on a 1-D Laplacian, row-block decomposition
// ---------------------------------------------------------------------------

/// Exchange the boundary values of a 1-D block with both neighbours (receives
/// posted first): returns the `(left, right)` halo, `0.0` at a domain edge.
/// One inline 8-byte payload each way — no allocation.
fn halo_exchange_1d(p: &mut Process, field: &[f64], tag_base: i64) -> (f64, f64) {
    let world = p.world();
    let rank = p.rank();
    let size = p.size();
    let n = field.len();
    let reqs = [
        (rank > 0).then(|| p.irecv_bytes(world, (rank - 1) as i64, tag_base + 1)),
        (rank + 1 < size).then(|| p.irecv_bytes(world, (rank + 1) as i64, tag_base)),
    ];
    if rank > 0 {
        let req = p.isend_bytes(world, rank - 1, tag_base, f64_to_bytes(field[0]));
        p.wait(world, req);
    }
    if rank + 1 < size {
        let req = p.isend_bytes(world, rank + 1, tag_base + 1, f64_to_bytes(field[n - 1]));
        p.wait(world, req);
    }
    let mut halo = [0.0; 2];
    for (side, req) in reqs.into_iter().enumerate() {
        if let Some(req) = req {
            let (_, payload) = p.wait(world, req);
            halo[side] = bytes_to_f64(&payload.expect("halo payload"));
        }
    }
    (halo[0], halo[1])
}

/// `y = A x` for the 1-D Laplacian stencil `(-1, 2, -1)`, the halo values
/// standing in for `x[-1]` and `x[n]`. The two boundary rows are peeled, so
/// the interior loop has no branch and no bounds check.
fn laplacian_stencil(x: &[f64], left_halo: f64, right_halo: f64, y: &mut [f64]) {
    let n = x.len();
    assert_eq!(y.len(), n, "mat-vec output must match its input");
    match n {
        0 => {}
        1 => y[0] = 2.0 * x[0] - left_halo - right_halo,
        _ => {
            y[0] = 2.0 * x[0] - left_halo - x[1];
            for (out, w) in y[1..n - 1].iter_mut().zip(x.windows(3)) {
                *out = 2.0 * w[1] - w[0] - w[2];
            }
            y[n - 1] = 2.0 * x[n - 1] - x[n - 2] - right_halo;
        }
    }
}

/// Distributed sparse mat-vec for the 1-D Laplacian, into the caller's `y`:
/// needs one halo value from each neighbour.
fn laplacian_matvec(p: &mut Process, x: &[f64], y: &mut [f64], cfg: &NasConfig) {
    let (left_halo, right_halo) = halo_exchange_1d(p, x, 10);
    cfg.charge_compute(p, x.len(), 3.0);
    laplacian_stencil(x, left_halo, right_halo, y);
}

fn dot(p: &mut Process, a: &[f64], b: &[f64], cfg: &NasConfig) -> f64 {
    cfg.charge_compute(p, a.len(), 1.0);
    let local: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    p.allreduce_f64(p.world(), ReduceOp::Sum, local)
}

/// Conjugate gradient iterations; returns the final residual-norm checksum.
pub fn run_cg(p: &mut Process, cfg: &NasConfig) -> f64 {
    let n = cfg.local_size;
    let rank = p.rank();
    let mut x = vec![0.0; n];
    // The residual starts as the right-hand side, a deterministic function
    // of the global index (x0 = 0).
    let mut r: Vec<f64> = (0..n)
        .map(|i| ((rank * n + i) as f64 * 0.37).sin())
        .collect();
    let mut d = r.clone();
    let mut ad = vec![0.0; n];
    let mut rr = dot(p, &r, &r, cfg);
    for _ in 0..cfg.iterations {
        laplacian_matvec(p, &d, &mut ad, cfg);
        let dad = dot(p, &d, &ad, cfg);
        let alpha = if dad.abs() > 1e-300 { rr / dad } else { 0.0 };
        cfg.charge_compute(p, n, 2.0);
        for (x, d) in x.iter_mut().zip(&d) {
            *x += alpha * d;
        }
        for (r, ad) in r.iter_mut().zip(&ad) {
            *r -= alpha * ad;
        }
        let rr_new = dot(p, &r, &r, cfg);
        let beta = if rr.abs() > 1e-300 { rr_new / rr } else { 0.0 };
        rr = rr_new;
        cfg.charge_compute(p, n, 1.0);
        for (d, r) in d.iter_mut().zip(&r) {
            *d = r + beta * *d;
        }
    }
    rr.sqrt()
}

// ---------------------------------------------------------------------------
// MG: 1-D multigrid V-cycles
// ---------------------------------------------------------------------------

/// One Jacobi sweep `u[i] = ½((u[i-1] + u[i+1]) + f[i])` over the *old*
/// values, in place: the old left neighbour is carried in a register and
/// `u[i+1]` is still old when `u[i]` is written, so no copy of `u` is needed.
fn jacobi_update(u: &mut [f64], f: &[f64], left: f64, right: f64) {
    let n = u.len();
    assert_eq!(f.len(), n, "right-hand side must match the grid");
    if n == 0 {
        return;
    }
    let mut prev = left;
    for i in 0..n - 1 {
        let old = u[i];
        u[i] = 0.5 * (prev + u[i + 1] + f[i]);
        prev = old;
    }
    u[n - 1] = 0.5 * (prev + right + f[n - 1]);
}

fn jacobi_smooth(p: &mut Process, u: &mut [f64], f: &[f64], cfg: &NasConfig, tag: i64) {
    let (left, right) = halo_exchange_1d(p, u, tag);
    cfg.charge_compute(p, u.len(), 2.0);
    jacobi_update(u, f, left, right);
}

/// Restriction: average pairs of the fine grid into the coarse one.
fn restrict(fine: &[f64], coarse: &mut [f64]) {
    for (c, pair) in coarse.iter_mut().zip(fine.chunks_exact(2)) {
        *c = 0.5 * (pair[0] + pair[1]);
    }
}

/// Multigrid V-cycles; returns the final residual norm.
pub fn run_mg(p: &mut Process, cfg: &NasConfig) -> f64 {
    let levels = 4usize;
    let n = cfg.local_size.next_power_of_two().max(1 << levels);
    let rank = p.rank();
    // The two grid hierarchies, allocated once: `u[l]` and `f[l]` hold
    // `n >> l` points. The right-hand side never changes, so neither does
    // its restriction to the coarser levels.
    let mut u: Vec<Vec<f64>> = (0..=levels).map(|l| vec![0.0; n >> l]).collect();
    let mut f: Vec<Vec<f64>> = Vec::with_capacity(levels);
    f.push(
        (0..n)
            .map(|i| ((rank * n + i) as f64 * 0.11).cos())
            .collect(),
    );
    for level in 1..levels {
        let mut coarse = vec![0.0; n >> level];
        restrict(&f[level - 1], &mut coarse);
        f.push(coarse);
    }
    for _cycle in 0..cfg.iterations {
        // Descend: smooth and restrict.
        for level in 0..levels {
            let (fine, coarse) = u.split_at_mut(level + 1);
            jacobi_smooth(p, &mut fine[level], &f[level], cfg, 20 + 2 * level as i64);
            restrict(&fine[level], &mut coarse[0]);
        }
        // Ascend: prolongate and smooth.
        for level in (0..levels).rev() {
            let (fine, coarse) = u.split_at_mut(level + 1);
            for (pair, c) in fine[level].chunks_exact_mut(2).zip(&coarse[0]) {
                pair[0] += c;
                pair[1] += c;
            }
            jacobi_smooth(p, &mut fine[level], &f[level], cfg, 40 + 2 * level as i64);
        }
        // Residual norm once per cycle (the paper's MG also reduces norms).
        let local: f64 = u[0].iter().map(|v| v * v).sum();
        let _norm = p.allreduce_f64(p.world(), ReduceOp::Sum, local);
    }
    let local: f64 = u[0].iter().map(|v| v * v).sum();
    p.allreduce_f64(p.world(), ReduceOp::Sum, local).sqrt()
}

// ---------------------------------------------------------------------------
// FT: distributed 2-D FFT (row FFTs, all-to-all transpose, column FFTs)
// ---------------------------------------------------------------------------

/// What an `n`-point radix-2 FFT needs besides its input, computed once per
/// run: the bit-reversal swaps and the twiddle factors of every stage.
///
/// A stage of butterfly span `len` uses `w^k`, `k < len / 2`, built by the
/// recurrence `w^(k+1) = w^k · w` from `(1, 0)`; that sequence is the same in
/// every block of the stage and in every transform of the same length, so it
/// is tabulated instead of re-derived per block. The stage with half-span `h`
/// occupies `[h - 1, 2h - 1)` of each table.
struct Twiddles {
    re: Vec<f64>,
    im: Vec<f64>,
    /// The pairs `(i, j)`, `i < j`, that the bit-reversal permutation
    /// exchanges, in the order the incremental reversal visits them.
    swaps: Vec<(u32, u32)>,
}

impl Twiddles {
    fn new(n: usize) -> Self {
        assert!(n.is_power_of_two());
        assert!(n - 1 <= u32::MAX as usize, "bit-reversal indices are u32");
        let mut re = Vec::with_capacity(n - 1);
        let mut im = Vec::with_capacity(n - 1);
        let mut len = 2;
        while len <= n {
            let ang = -2.0 * std::f64::consts::PI / len as f64;
            let (wr, wi) = (ang.cos(), ang.sin());
            let (mut cr, mut ci) = (1.0f64, 0.0f64);
            for _ in 0..len / 2 {
                re.push(cr);
                im.push(ci);
                let ncr = cr * wr - ci * wi;
                ci = cr * wi + ci * wr;
                cr = ncr;
            }
            len <<= 1;
        }
        let mut swaps = Vec::new();
        let mut j = 0usize;
        for i in 1..n {
            let mut bit = n >> 1;
            while j & bit != 0 {
                j ^= bit;
                bit >>= 1;
            }
            j |= bit;
            if i < j {
                swaps.push((i as u32, j as u32));
            }
        }
        Twiddles { re, im, swaps }
    }

    /// The `(re, im)` factors of the stage with half-span `half`.
    fn stage(&self, half: usize) -> (&[f64], &[f64]) {
        (
            &self.re[half - 1..2 * half - 1],
            &self.im[half - 1..2 * half - 1],
        )
    }
}

/// One radix-2 butterfly: `(u, v) <- (u + w·v, u - w·v)` on `(re, im)`
/// pairs, the product formed exactly as in the stage loop of [`fft_inplace`].
/// A unit twiddle is multiplied out like any other: `x·1 − y·0` is not `x`
/// for signed zeros and non-finite values.
#[inline(always)]
fn butterfly(re: &mut [f64; 4], im: &mut [f64; 4], lo: usize, hi: usize, w: (f64, f64)) {
    let (ur, ui) = (re[lo], im[lo]);
    let (vr, vi) = (re[hi] * w.0 - im[hi] * w.1, re[hi] * w.1 + im[hi] * w.0);
    re[lo] = ur + vr;
    im[lo] = ui + vi;
    re[hi] = ur - vr;
    im[hi] = ui - vi;
}

/// An FFT instance: [`fft_portable`] compiled for one instruction set.
type Fft = fn(&mut [f64], &mut [f64], &Twiddles);

/// In-place iterative radix-2 FFT over (re, im) pairs of length `n`, with
/// the swaps and twiddles of `Twiddles::new(n)`: the AVX2 build where the
/// host has AVX2, the portable one elsewhere, chosen on first use. Both
/// compile the same [`fft_portable`] without fused multiply-adds, so they
/// return the same bits.
fn fft_inplace(re: &mut [f64], im: &mut [f64], twiddles: &Twiddles) {
    static FFT: OnceLock<Fft> = OnceLock::new();
    FFT.get_or_init(|| fft_avx2().unwrap_or(fft_portable))(re, im, twiddles)
}

/// [`fft_portable`] with 256-bit vectors, if this host has AVX2.
fn fft_avx2() -> Option<Fft> {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        #[target_feature(enable = "avx2")]
        fn avx2(re: &mut [f64], im: &mut [f64], twiddles: &Twiddles) {
            fft_portable(re, im, twiddles);
        }
        fn detected(re: &mut [f64], im: &mut [f64], twiddles: &Twiddles) {
            // SAFETY: `detected` is handed out only after the check above
            // found AVX2 on this host.
            unsafe { avx2(re, im, twiddles) }
        }
        return Some(detected);
    }
    None
}

/// The FFT itself: the build for the target's baseline instruction set, and
/// inlined into the AVX2 one.
///
/// The span-2 and span-4 stages run fused, in one pass over 4-point chunks:
/// each chunk's two span-2 butterflies, then its two span-4 ones — the same
/// products and sums in the same order as two separate passes, since no
/// butterfly of either stage reads outside its chunk. The larger stages keep
/// one pass each: their inner loop vectorises, a two-stages-per-pass loop
/// does not.
#[inline(always)]
fn fft_portable(re: &mut [f64], im: &mut [f64], twiddles: &Twiddles) {
    let n = re.len();
    assert!(n.is_power_of_two());
    assert_eq!(im.len(), n, "real and imaginary parts of one length");
    assert_eq!(twiddles.re.len(), n - 1, "twiddle table of another length");
    for &(i, j) in &twiddles.swaps {
        re.swap(i as usize, j as usize);
        im.swap(i as usize, j as usize);
    }
    let mut len = 2;
    if n >= 4 {
        let w1 = (twiddles.re[0], twiddles.im[0]);
        let (w2r, w2i) = twiddles.stage(2);
        let w2 = [(w2r[0], w2i[0]), (w2r[1], w2i[1])];
        let (re4, _) = re.as_chunks_mut::<4>();
        let (im4, _) = im.as_chunks_mut::<4>();
        for (re, im) in re4.iter_mut().zip(im4) {
            butterfly(re, im, 0, 1, w1);
            butterfly(re, im, 2, 3, w1);
            butterfly(re, im, 0, 2, w2[0]);
            butterfly(re, im, 1, 3, w2[1]);
        }
        len = 8;
    }
    while len <= n {
        let half = len / 2;
        let (wr, wi) = twiddles.stage(half);
        for (re, im) in re.chunks_exact_mut(len).zip(im.chunks_exact_mut(len)) {
            let (lo_re, hi_re) = re.split_at_mut(half);
            let (lo_im, hi_im) = im.split_at_mut(half);
            // Six slices of visibly `half` elements each: the butterfly loop
            // below has no bounds check left.
            let (lo_re, hi_re) = (&mut lo_re[..half], &mut hi_re[..half]);
            let (lo_im, hi_im) = (&mut lo_im[..half], &mut hi_im[..half]);
            let (wr, wi) = (&wr[..half], &wi[..half]);
            for k in 0..half {
                let (ur, ui) = (lo_re[k], lo_im[k]);
                let (vr, vi) = (
                    hi_re[k] * wr[k] - hi_im[k] * wi[k],
                    hi_re[k] * wi[k] + hi_im[k] * wr[k],
                );
                lo_re[k] = ur + vr;
                lo_im[k] = ui + vi;
                hi_re[k] = ur - vr;
                hi_im[k] = ui - vi;
            }
        }
        len <<= 1;
    }
}

/// A marshalled grid point: its `re` then its `im`, little-endian.
type Point = [[u8; 8]; 2];

/// A transpose payload as the points it holds.
fn as_points(bytes: &[u8]) -> &[Point] {
    let (points, rest) = bytes.as_chunks::<8>().0.as_chunks::<2>();
    assert!(rest.is_empty(), "payload of whole (re, im) points");
    points
}

/// [`as_points`] of a payload being written.
fn as_points_mut(bytes: &mut [u8]) -> &mut [Point] {
    let (points, rest) = bytes.as_chunks_mut::<8>().0.as_chunks_mut::<2>();
    assert!(rest.is_empty(), "payload of whole (re, im) points");
    points
}

/// A slice whose elements the threads of one [`pool::for_each`] region
/// borrow mutably, each a part no other index of the region touches.
struct Disjoint<'a, T> {
    ptr: *mut T,
    len: usize,
    _slice: PhantomData<&'a mut [T]>,
}

// SAFETY: threads sharing a `Disjoint` share `ptr` and `len`, which nothing
// writes after `new`. What they get through them is `part`'s `&mut [T]`, each
// range held by one thread at a time (its contract), so `T: Send` is all
// another thread needs.
unsafe impl<T: Send> Sync for Disjoint<'_, T> {}

impl<'a, T> Disjoint<'a, T> {
    fn new(slice: &'a mut [T]) -> Self {
        Disjoint {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _slice: PhantomData,
        }
    }

    /// The elements `range`.
    ///
    /// # Safety
    /// No other reference into `range` may be live while the result is.
    // `&self` to `&mut`: exclusive by the contract above, not by the borrow.
    #[allow(clippy::mut_from_ref)]
    unsafe fn part(&self, range: Range<usize>) -> &mut [T] {
        assert!(range.start <= range.end && range.end <= self.len);
        // SAFETY: in bounds (checked above) of a slice borrowed for 'a;
        // exclusive by the caller's contract.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(range.start), range.len()) }
    }
}

/// Run `row(r)` for every `r < rows` of a grid of `points` points: on the
/// helper pool from [`pool::MIN_POINTS`] up, inline below.
fn for_each_row(rows: usize, points: usize, row: impl Fn(usize) + Sync) {
    if points >= pool::MIN_POINTS {
        pool::for_each(rows, row);
    } else {
        (0..rows).for_each(row);
    }
}

/// Distributed FFT steps; returns a checksum of the transformed field.
///
/// Every per-row phase is one `for_each_row` region, so a large grid's rows
/// are shared out over the host's cores: the grid set-up, the row FFTs fused
/// with marshalling each row into the send slab, and the decode of each row
/// from the received blocks fused with the second row FFTs. A row is written
/// only by the thread its index went to, with the operations of the
/// single-threaded loop in their order; the checksum stays on the caller.
pub fn run_ft(p: &mut Process, cfg: &NasConfig) -> f64 {
    let size = p.size();
    let rank = p.rank();
    // Global grid: (rows = size * rows_per_rank) x (cols = size * rows_per_rank),
    // each rank holds `rows_per_rank` full rows, row-major in `re` and `im`.
    let rows_per_rank = (cfg.local_size / size).next_power_of_two().clamp(2, 64);
    let cols = (rows_per_rank * size).next_power_of_two();
    let rows = rows_per_rank;
    let points = rows * cols;
    let row_span = |r: usize| r * cols..(r + 1) * cols;
    let mut re = vec![0.0; points];
    let mut im = vec![0.0; points];
    {
        let grid = Disjoint::new(&mut re);
        for_each_row(rows, points, |r| {
            // SAFETY: only index `r` of this region touches row `r`.
            let row = unsafe { grid.part(row_span(r)) };
            for (c, value) in row.iter_mut().enumerate() {
                *value = (((rank * rows + r) * cols + c) as f64 * 0.017).sin();
            }
        });
    }
    let twiddles = Twiddles::new(cols);
    // When `size` does not divide `cols` the remainder columns stay local:
    // the slab holds `size` blocks of `block_cols` columns, not `cols`.
    let block_cols = cols / size;
    let block_points = rows * block_cols;
    let block_bytes = block_points * std::mem::size_of::<Point>();
    let mut checksum = 0.0;
    for _step in 0..cfg.iterations {
        // Local row FFTs, each row then marshalled into the all-to-all
        // transpose: block (this rank, dest) of columns. The whole send slab
        // is filled once, destination-major and (re, im)-interleaved,
        // straight into the payload buffer; the per-destination blocks are
        // then O(1) `Bytes::slice` views sharing that single allocation
        // instead of one marshalling + allocation per destination (256 of
        // them at paper scale). The slab handle itself goes out of scope
        // here: from now on only the views hold it.
        cfg.charge_compute(p, points, 2.5);
        let blocks: Vec<Bytes> = {
            let slab = Bytes::from_fill(size * block_bytes, |out| {
                let slab = Disjoint::new(as_points_mut(out));
                let (re, im) = (Disjoint::new(&mut re), Disjoint::new(&mut im));
                for_each_row(rows, points, |r| {
                    // SAFETY: only index `r` of this region touches row `r`
                    // of the grid, and row `r` of every block of the slab.
                    let (re, im) = unsafe { (re.part(row_span(r)), im.part(row_span(r))) };
                    fft_inplace(re, im, &twiddles);
                    for dst in 0..size {
                        let at = dst * block_points + r * block_cols;
                        // SAFETY: as above.
                        let out = unsafe { slab.part(at..at + block_cols) };
                        let span = dst * block_cols..(dst + 1) * block_cols;
                        let values = re[span.clone()].iter().zip(&im[span]);
                        for ((re, im), point) in values.zip(out) {
                            *point = [re.to_le_bytes(), im.to_le_bytes()];
                        }
                    }
                });
            });
            (0..size)
                .map(|dst| slab.slice(dst * block_bytes..(dst + 1) * block_bytes))
                .collect()
        };
        let received = p.alltoall_bytes(p.world(), blocks);
        // Rebuild each local row from the received blocks (transposed
        // layout), then FFT along the other dimension (still length `cols`
        // rows locally to keep the kernel simple). The blocks are freed once
        // copied — with the last view of a sender's slab, the slab — so the
        // next iteration marshals into memory this one released.
        cfg.charge_compute(p, points, 1.0);
        cfg.charge_compute(p, points, 2.5);
        for block in &received {
            assert_eq!(
                as_points(block).len(),
                block_points,
                "block of rows x block_cols points"
            );
        }
        {
            let (re, im) = (Disjoint::new(&mut re), Disjoint::new(&mut im));
            for_each_row(rows, points, |r| {
                // SAFETY: only index `r` of this region touches row `r`.
                let (re, im) = unsafe { (re.part(row_span(r)), im.part(row_span(r))) };
                for (src, block) in received.iter().enumerate() {
                    let row = &as_points(block)[r * block_cols..(r + 1) * block_cols];
                    let span = src * block_cols..(src + 1) * block_cols;
                    let values = re[span.clone()].iter_mut().zip(&mut im[span]);
                    for ((re, im), [re_le, im_le]) in values.zip(row) {
                        *re = f64::from_le_bytes(*re_le);
                        *im = f64::from_le_bytes(*im_le);
                    }
                }
                fft_inplace(re, im, &twiddles);
            });
        }
        drop(received);
        // Checksum reduce, as NPB FT does after each evolution step: the
        // `re` and `im` sums are two chains, each in grid order from the
        // `-0.0` that `Sum` starts from, interleaved in one loop.
        let (mut sum_re, mut sum_im) = (-0.0f64, -0.0f64);
        for (re, im) in re.iter().zip(&im) {
            sum_re += re.abs();
            sum_im += im.abs();
        }
        checksum = p.allreduce_f64(p.world(), ReduceOp::Sum, sum_re + sum_im);
    }
    checksum
}

// ---------------------------------------------------------------------------
// BT / SP: ADI-like solvers on a 2-D process grid
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AdiFlavor {
    Bt,
    Sp,
}

fn process_grid(size: usize) -> (usize, usize) {
    let mut px = (size as f64).sqrt() as usize;
    while px > 1 && !size.is_multiple_of(px) {
        px -= 1;
    }
    (px.max(1), size / px.max(1))
}

fn run_adi(p: &mut Process, cfg: &NasConfig, flavor: AdiFlavor) -> f64 {
    let world = p.world();
    let size = p.size();
    let rank = p.rank();
    let (px, py) = process_grid(size);
    let (ix, iy) = (rank % px, rank / px);
    let edge = (cfg.local_size as f64).sqrt() as usize + 2;
    // Per-point unknowns: BT solves 5x5 blocks (heavier messages and compute),
    // SP solves scalar pentadiagonal systems.
    let (vars, weight) = match flavor {
        AdiFlavor::Bt => (5usize, 5.0),
        AdiFlavor::Sp => (1usize, 2.0),
    };
    let mut field: Vec<f64> = (0..edge * edge * vars)
        .map(|i| ((rank * 131 + i) as f64 * 0.013).sin())
        .collect();
    let neighbour = |dx: i64, dy: i64| -> Option<usize> {
        let nx = ix as i64 + dx;
        let ny = iy as i64 + dy;
        if nx < 0 || ny < 0 || nx >= px as i64 || ny >= py as i64 {
            None
        } else {
            Some(ny as usize * px + nx as usize)
        }
    };
    let face = edge * vars;
    // The boundary line a sweep passes downstream, reused by every sweep.
    let mut line = vec![0.0; face];
    let mut checksum = 0.0;
    for step in 0..cfg.iterations {
        // Face halo exchange with up to 4 neighbours (post receives first).
        let mut reqs = [None; 4];
        for (tag, (dx, dy)) in [(-1i64, 0i64), (1, 0), (0, -1), (0, 1)].iter().enumerate() {
            if let Some(nb) = neighbour(*dx, *dy) {
                reqs[tag] = Some(p.irecv_bytes(world, nb as i64, 60 + tag as i64));
            }
        }
        // Every neighbour gets the same boundary face: encoded once, shared.
        let boundary = f64s_to_bytes(&field[..face]);
        for (tag, (dx, dy)) in [(1i64, 0i64), (-1, 0), (0, 1), (0, -1)].iter().enumerate() {
            if let Some(nb) = neighbour(*dx, *dy) {
                let req = p.isend_bytes(world, nb, 60 + tag as i64, boundary.clone());
                p.wait(world, req);
            }
        }
        let mut halo_sum = 0.0;
        for req in reqs.into_iter().flatten() {
            let (_, payload) = p.wait(world, req);
            halo_sum += iter_f64s(&payload.expect("face halo")).sum::<f64>();
        }
        // Local relaxation sweep.
        cfg.charge_compute(p, edge * edge * vars, weight);
        for v in field.iter_mut() {
            *v = 0.99 * *v + 1e-6 * halo_sum;
        }
        // Pipelined line sweep along x then y: pass a boundary line to the
        // next process in the row / column (this is the ADI structure that
        // makes BT/SP communication-latency sensitive).
        for (axis, (dx, dy)) in [(0usize, (1i64, 0i64)), (1, (0, 1))] {
            let upstream = neighbour(-dx, -dy);
            let downstream = neighbour(dx, dy);
            let tag = 70 + 2 * step as i64 % 8 + axis as i64;
            line.copy_from_slice(&field[..face]);
            if let Some(up) = upstream {
                let (_, payload) = p.recv_bytes(world, up as i64, tag);
                for (l, i) in line.iter_mut().zip(iter_f64s(&payload)) {
                    *l += 0.5 * i;
                }
            }
            cfg.charge_compute(p, edge * vars, weight);
            if let Some(down) = downstream {
                p.send_bytes(world, down, tag, f64s_to_bytes(&line));
            }
        }
        let local: f64 = field.iter().map(|v| v * v).sum();
        checksum = p.allreduce_f64(world, ReduceOp::Sum, local);
    }
    checksum
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdr_core::{native_job, replicated_job, ReplicationConfig};
    use sim_net::LogGpModel;

    fn run_native_and_replicated(kernel: NasKernel) -> (Vec<f64>, Vec<f64>) {
        let cfg = NasConfig::test_size();
        let app = move |p: &mut Process| run_kernel(kernel, p, &cfg);
        let native = native_job(4)
            .network(LogGpModel::fast_test_model())
            .run(app);
        let repl = replicated_job(4, ReplicationConfig::dual())
            .network(LogGpModel::fast_test_model())
            .run(app);
        assert!(native.all_finished(), "{kernel:?} native run failed");
        assert!(repl.all_finished(), "{kernel:?} replicated run failed");
        (
            native.primary_results().into_iter().copied().collect(),
            repl.primary_results().into_iter().copied().collect(),
        )
    }

    #[test]
    fn cg_native_equals_replicated() {
        let (a, b) = run_native_and_replicated(NasKernel::Cg);
        assert_eq!(a, b);
        assert!(a[0].is_finite() && a[0] > 0.0);
    }

    #[test]
    fn mg_native_equals_replicated() {
        let (a, b) = run_native_and_replicated(NasKernel::Mg);
        assert_eq!(a, b);
        assert!(a[0].is_finite());
    }

    #[test]
    fn ft_native_equals_replicated() {
        let (a, b) = run_native_and_replicated(NasKernel::Ft);
        assert_eq!(a, b);
        assert!(a[0].is_finite() && a[0] > 0.0);
    }

    #[test]
    fn bt_native_equals_replicated() {
        let (a, b) = run_native_and_replicated(NasKernel::Bt);
        assert_eq!(a, b);
        assert!(a[0].is_finite());
    }

    #[test]
    fn sp_native_equals_replicated() {
        let (a, b) = run_native_and_replicated(NasKernel::Sp);
        assert_eq!(a, b);
        assert!(a[0].is_finite());
    }

    #[test]
    fn fft_matches_naive_dft_on_small_input() {
        let n = 8;
        let input: Vec<f64> = (0..n).map(|i| (i as f64 * 0.9).sin()).collect();
        let mut re = input.clone();
        let mut im = vec![0.0; n];
        fft_inplace(&mut re, &mut im, &Twiddles::new(n));
        for k in 0..n {
            let mut dr = 0.0;
            let mut di = 0.0;
            for (j, x) in input.iter().enumerate() {
                let ang = -2.0 * std::f64::consts::PI * (k * j) as f64 / n as f64;
                dr += x * ang.cos();
                di += x * ang.sin();
            }
            assert!((re[k] - dr).abs() < 1e-9, "re[{k}]");
            assert!((im[k] - di).abs() < 1e-9, "im[{k}]");
        }
    }

    // -- Bit-for-bit references: the loops as they stood before the kernels
    // -- stopped cloning their grids. The rewritten loops must reproduce
    // -- them to the last bit, boundary cases included.

    /// The parent's `fft_inplace`: twiddle recurrence re-run in every block.
    fn reference_fft(re: &mut [f64], im: &mut [f64]) {
        let n = re.len();
        assert!(n.is_power_of_two());
        let mut j = 0usize;
        for i in 1..n {
            let mut bit = n >> 1;
            while j & bit != 0 {
                j ^= bit;
                bit >>= 1;
            }
            j |= bit;
            if i < j {
                re.swap(i, j);
                im.swap(i, j);
            }
        }
        let mut len = 2;
        while len <= n {
            let ang = -2.0 * std::f64::consts::PI / len as f64;
            let (wr, wi) = (ang.cos(), ang.sin());
            let mut i = 0;
            while i < n {
                let (mut cr, mut ci) = (1.0f64, 0.0f64);
                for k in 0..len / 2 {
                    let (ur, ui) = (re[i + k], im[i + k]);
                    let (vr, vi) = (
                        re[i + k + len / 2] * cr - im[i + k + len / 2] * ci,
                        re[i + k + len / 2] * ci + im[i + k + len / 2] * cr,
                    );
                    re[i + k] = ur + vr;
                    im[i + k] = ui + vi;
                    re[i + k + len / 2] = ur - vr;
                    im[i + k + len / 2] = ui - vi;
                    let ncr = cr * wr - ci * wi;
                    ci = cr * wi + ci * wr;
                    cr = ncr;
                }
                i += len;
            }
            len <<= 1;
        }
    }

    /// The parent's `jacobi_smooth` update: a clone of `u` as the old values.
    fn reference_jacobi(u: &mut [f64], f: &[f64], left: f64, right: f64) {
        let n = u.len();
        let old = u.to_vec();
        for i in 0..n {
            let l = if i == 0 { left } else { old[i - 1] };
            let r = if i + 1 == n { right } else { old[i + 1] };
            u[i] = 0.5 * (l + r + f[i]);
        }
    }

    /// The parent's `laplacian_matvec` loop.
    fn reference_laplacian(x: &[f64], left_halo: f64, right_halo: f64) -> Vec<f64> {
        let n = x.len();
        let mut y = vec![0.0; n];
        for i in 0..n {
            let left = if i == 0 { left_halo } else { x[i - 1] };
            let right = if i + 1 == n { right_halo } else { x[i + 1] };
            y[i] = 2.0 * x[i] - left - right;
        }
        y
    }

    /// Seeded, non-trivial values spanning many binades, both signs.
    fn seeded(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let unit = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                unit * 2f64.powi((state % 41) as i32 - 20)
            })
            .collect()
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    const STENCIL_SIZES: [usize; 6] = [1, 2, 3, 8, 64, 4096];

    #[test]
    fn jacobi_update_is_bit_identical_to_the_cloning_loop() {
        for n in STENCIL_SIZES {
            let f = seeded(n, 3);
            let mut want = seeded(n, 5);
            let mut got = want.clone();
            // Several sweeps, so the in-place carry is exercised on its own
            // output as well.
            for sweep in 0..3 {
                let (left, right) = (0.375 + sweep as f64, -1.0e-3);
                reference_jacobi(&mut want, &f, left, right);
                jacobi_update(&mut got, &f, left, right);
                assert_eq!(bits(&got), bits(&want), "n = {n}, sweep {sweep}");
            }
        }
    }

    #[test]
    fn laplacian_stencil_is_bit_identical_to_the_branching_loop() {
        for n in STENCIL_SIZES {
            let x = seeded(n, 7);
            let mut y = vec![f64::NAN; n];
            laplacian_stencil(&x, 1.5e-7, -2.25, &mut y);
            assert_eq!(
                bits(&y),
                bits(&reference_laplacian(&x, 1.5e-7, -2.25)),
                "n = {n}"
            );
        }
    }

    /// Edge values of `f64`: signed zeros, infinities, NaN, subnormals and the
    /// extremes of the normal range.
    const EDGES: [f64; 12] = [
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        5e-324,
        -5e-324,
        1.5e-310,
        -f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
        1.0,
    ];

    /// The inputs every transform length is checked on, as `(name, re, im)`.
    fn fft_inputs(n: usize) -> Vec<(&'static str, Vec<f64>, Vec<f64>)> {
        let cycled = |offset: usize| (0..n).map(|i| EDGES[(i + offset) % EDGES.len()]).collect();
        let lone = |value: f64| {
            let mut field = vec![0.0; n];
            field[n / 3] = value;
            field
        };
        vec![
            ("seeded", seeded(n, 11), seeded(n, 13)),
            (
                "signed zeros",
                (0..n)
                    .map(|i| if i % 3 == 0 { 0.0 } else { -0.0 })
                    .collect(),
                vec![-0.0; n],
            ),
            (
                "subnormals",
                seeded(n, 17).iter().map(|v| v * 1e-305).collect(),
                seeded(n, 19).iter().map(|v| v * 1e-310).collect(),
            ),
            ("lone infinity", lone(f64::INFINITY), vec![-0.0; n]),
            ("lone NaN", vec![-0.0; n], lone(f64::NAN)),
            ("cycled edges", cycled(0), cycled(5)),
        ]
    }

    /// Equal bits, or both NaN: Rust leaves the sign and payload of a NaN
    /// result unspecified, so those are not held to the reference.
    fn assert_same_floats(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{what}[{i}]: {g:e} ({:#x}) vs {w:e} ({:#x})",
                g.to_bits(),
                w.to_bits()
            );
        }
    }

    /// Every build of the FFT is held to the reference: the portable one,
    /// and the AVX2 one where this host can run it.
    #[test]
    fn tabulated_fft_is_bit_identical_to_the_per_block_recurrence() {
        let mut builds: Vec<(&str, Fft)> = vec![("portable", fft_portable)];
        builds.extend(fft_avx2().map(|fft| ("avx2", fft)));
        for log_n in 0..=12 {
            let n = 1usize << log_n;
            let twiddles = Twiddles::new(n);
            for (name, mut want_re, mut want_im) in fft_inputs(n) {
                let (re, im) = (want_re.clone(), want_im.clone());
                reference_fft(&mut want_re, &mut want_im);
                for (build, fft) in &builds {
                    let (mut re, mut im) = (re.clone(), im.clone());
                    fft(&mut re, &mut im, &twiddles);
                    let what = format!("{build}, n = {n}, {name}");
                    assert_same_floats(&re, &want_re, &format!("re, {what}"));
                    assert_same_floats(&im, &want_im, &format!("im, {what}"));
                }
            }
        }
    }

    #[test]
    fn cg_converges_on_laplacian() {
        // With enough iterations the residual shrinks substantially.
        let cfg_short = NasConfig {
            local_size: 64,
            iterations: 2,
            compute_ns_per_point: 1,
        };
        let cfg_long = NasConfig {
            local_size: 64,
            iterations: 30,
            compute_ns_per_point: 1,
        };
        let short = native_job(2)
            .network(LogGpModel::fast_test_model())
            .run(move |p| run_cg(p, &cfg_short));
        let long = native_job(2)
            .network(LogGpModel::fast_test_model())
            .run(move |p| run_cg(p, &cfg_long));
        let r_short = *short.primary_results()[0];
        let r_long = *long.primary_results()[0];
        assert!(
            r_long < r_short,
            "CG residual should decrease ({r_long} vs {r_short})"
        );
    }

    #[test]
    fn process_grid_factorisation() {
        assert_eq!(process_grid(16), (4, 4));
        assert_eq!(process_grid(12), (3, 4));
        assert_eq!(process_grid(7), (1, 7));
        assert_eq!(process_grid(1), (1, 1));
    }

    #[test]
    fn kernel_names_match_table_order() {
        let names: Vec<_> = NasKernel::all().iter().map(|k| k.name()).collect();
        assert_eq!(names, vec!["BT", "CG", "FT", "MG", "SP"]);
    }
}
