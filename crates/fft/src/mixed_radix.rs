//! Self-sorting Stockham FFT for 2·3·5-smooth lengths.
//!
//! Every length `n = 2^a·3^b·5^c` runs here: the 64×64 hologram planes, the
//! 40×40 quality sampler, Objectron's 480×640 frames, and the power-of-two
//! inner transform of [`crate::bluestein`]. The plan factors `n` into
//! radix-4, 2, 3 and 5 passes and runs each with a specialised butterfly.
//!
//! # Algorithm
//!
//! Each pass of radix `R` after a span of `l` points reads `R` inputs
//! `n/R` apart, applies the twiddles `ω_{lR}^{r·k}` (`k = j mod l`) and a
//! length-`R` DFT, and writes the outputs `l` apart into the other buffer
//! (Stockham autosort). The output lands in natural order, so no
//! bit-reversal pass is needed. A pass splits its `R` input runs once and
//! each block's `R` output runs once, then indexes only by `k` inside
//! slices of known length; the first pass (`l = 1`) has no `k` loop.
//!
//! The thread workspace (`with_work`) holds `2n` samples, two buffers `A`
//! and `B`. The first pass reads the caller's slice into `A`, middle passes
//! ping-pong `A ↔ B`, and the last pass writes the caller's slice, so the
//! result is never copied back (a one-pass length, `n ≤ 5`, copies its
//! input into `A` first). The inverse folds its `1/n` into the last pass's
//! outputs. A transform allocates nothing once that workspace has grown,
//! and the 2-D row pass borrows it once for all its rows
//! (`MixedRadixPlan::run_rows`). Bluestein, which already holds that
//! workspace, hands its inner plan the `2n` samples after its convolution
//! buffer, so the inner transform runs the same schedule.
//!
//! The 2-D column pass runs the same passes batched over all the
//! columns of the buffer (`run_columns`): radix `R` after span `l` reads whole rows
//! `j + k + r·m` and writes rows `q·l·R + k + s·l`, applying one set of
//! twiddles to every column of the row. Each column therefore gets the
//! same arithmetic as a 1-D transform of it, bit for bit. Over every
//! column of the buffer it follows the 1-D schedule above
//! (`run_columns_in_place`), so its last pass lands in the caller's buffer.
//!
//! # Twiddle layout
//!
//! The plan stores **per-stage contiguous tables** (flattened into one
//! buffer, in pass order), so each pass walks its twiddles sequentially.
//! They are copied from one master table `e^{-2πit/n}`. The `k = 0`
//! twiddles are all `1` and are not stored: that butterfly skips the
//! multiply. The inverse direction has its own
//! pre-conjugated table and butterfly roots, so the hot loop carries no
//! direction branch; the inverse's last pass multiplies its outputs by
//! `1/n` (`scaled`).

use crate::complex::Complex64;

/// Precomputed state for mixed-radix transforms of one fixed 5-smooth length.
///
/// The planner ([`crate::plan`]) sends every length [`Self::supports`]
/// accepts here.
#[derive(Debug, Clone)]
pub struct MixedRadixPlan {
    n: usize,
    /// Passes in execution order: radix 4 while it divides, then 2, 3, 5.
    radices: Vec<Radix>,
    fwd: Direction,
    inv: Direction,
}

/// The butterfly sizes this plan factors lengths into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Radix {
    Two,
    Three,
    Four,
    Five,
}

impl Radix {
    fn size(self) -> usize {
        match self {
            Radix::Two => 2,
            Radix::Three => 3,
            Radix::Four => 4,
            Radix::Five => 5,
        }
    }
}

/// Everything one transform direction reads in its hot loop.
#[derive(Debug, Clone)]
struct Direction {
    /// Per-stage twiddles, stages concatenated in pass order: the pass of
    /// radix `R` after span `l` owns the `(l−1)·(R−1)` entries
    /// `ω_{lR}^{r·k}` for `1 ≤ k < l`, `1 ≤ r < R`, `k`-major.
    twiddles: Vec<Complex64>,
    roots: Roots,
}

/// The butterfly roots of one direction, `ω_R = e^{∓2πi/R}`.
#[derive(Debug, Clone, Copy)]
struct Roots {
    /// `Im ω₄ = ∓1`: radix 4 rotates by `i·s4`.
    s4: f64,
    w3: Complex64,
    w5: Complex64,
    /// `ω₅²`.
    w5sq: Complex64,
}

/// Runs `f` with this thread's 1-D transform workspace: the two `n`-long
/// pass buffers of [`MixedRadixPlan`], or for [`crate::bluestein`] the
/// convolution buffer followed by its inner plan's two pass buffers.
/// Bluestein borrows it once and hands the pass buffers to the inner plan
/// explicitly, so the borrow never re-enters. Thread-local so shared plans
/// stay immutable across workers.
pub(crate) fn with_work<R>(f: impl FnOnce(&mut Vec<Complex64>) -> R) -> R {
    thread_local! {
        static WORK: std::cell::RefCell<Vec<Complex64>> =
            const { std::cell::RefCell::new(Vec::new()) };
    }
    WORK.with(|cell| f(&mut cell.borrow_mut()))
}

/// `i·z`.
#[inline(always)]
fn mul_i(z: Complex64) -> Complex64 {
    Complex64::new(-z.im, z.re)
}

impl Roots {
    fn forward() -> Self {
        let tau = 2.0 * std::f64::consts::PI;
        Roots {
            s4: -1.0,
            w3: Complex64::cis(-tau / 3.0),
            w5: Complex64::cis(-tau / 5.0),
            w5sq: Complex64::cis(-2.0 * tau / 5.0),
        }
    }

    fn conj(self) -> Self {
        Roots { s4: -self.s4, w3: self.w3.conj(), w5: self.w5.conj(), w5sq: self.w5sq.conj() }
    }

    #[inline(always)]
    fn radix2([a, b]: [Complex64; 2]) -> [Complex64; 2] {
        [a + b, a - b]
    }

    #[inline(always)]
    fn radix3(&self, [a, b, c]: [Complex64; 3]) -> [Complex64; 3] {
        let sum = b + c;
        let t = a + sum.scale(self.w3.re);
        let r = mul_i((b - c).scale(self.w3.im));
        [a + sum, t + r, t - r]
    }

    #[inline(always)]
    fn radix4(&self, [a, b, c, d]: [Complex64; 4]) -> [Complex64; 4] {
        let (s0, d0) = (a + c, a - c);
        let (s1, d1) = (b + d, b - d);
        let r = mul_i(d1.scale(self.s4));
        [s0 + s1, d0 + r, s0 - s1, d0 - r]
    }

    #[inline(always)]
    fn radix5(&self, [x0, x1, x2, x3, x4]: [Complex64; 5]) -> [Complex64; 5] {
        let (a1, b1) = (x1 + x4, x1 - x4);
        let (a2, b2) = (x2 + x3, x2 - x3);
        let (w1, w2) = (self.w5, self.w5sq);
        let t1 = x0 + a1.scale(w1.re) + a2.scale(w2.re);
        let t2 = x0 + a1.scale(w2.re) + a2.scale(w1.re);
        let r1 = mul_i(b1.scale(w1.im) + b2.scale(w2.im));
        let r2 = mul_i(b1.scale(w2.im) - b2.scale(w1.im));
        [x0 + a1 + a2, t1 + r1, t2 + r2, t2 - r2, t1 - r1]
    }
}

/// Splits `n` into passes, or `None` if `n` has a prime factor above 5.
fn factor(mut n: usize) -> Option<Vec<Radix>> {
    if n == 0 {
        return None;
    }
    let mut radices = Vec::new();
    for (radix, p) in [(Radix::Four, 4), (Radix::Two, 2), (Radix::Three, 3), (Radix::Five, 5)] {
        while n.is_multiple_of(p) {
            radices.push(radix);
            n /= p;
        }
    }
    (n == 1).then_some(radices)
}

impl MixedRadixPlan {
    /// Whether `n` is a non-zero `2^a·3^b·5^c`, i.e. whether
    /// [`Self::new`] accepts it.
    pub fn supports(n: usize) -> bool {
        factor(n).is_some()
    }

    /// Builds a plan for length `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or has a prime factor greater than 5.
    pub fn new(n: usize) -> Self {
        assert!(Self::supports(n), "mixed-radix plan requires a non-zero 2·3·5-smooth length, got {n}");
        let radices = factor(n).unwrap_or_default();
        // Master table e^{-2πit/n} for t < n. Stage tables copy entries
        // r·k·n/(lR) < n.
        let mut master = Vec::with_capacity(n);
        for t in 0..n {
            master.push(Complex64::cis(-2.0 * std::f64::consts::PI * t as f64 / n as f64));
        }
        let mut fwd = Vec::new();
        let mut l = 1;
        for radix in &radices {
            let r_max = radix.size();
            let stride = n / (l * r_max);
            for k in 1..l {
                for r in 1..r_max {
                    fwd.push(master[r * k * stride]);
                }
            }
            l *= r_max;
        }
        let inv = fwd.iter().map(|w| w.conj()).collect();
        let roots = Roots::forward();
        MixedRadixPlan {
            n,
            radices,
            fwd: Direction { twiddles: fwd, roots },
            inv: Direction { twiddles: inv, roots: roots.conj() },
        }
    }

    /// The transform length this plan was built for.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the plan length is zero (never true; kept for API symmetry).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Forward transform, in place. `buf.len()` must equal [`Self::len`].
    ///
    /// # Panics
    ///
    /// Panics if `buf.len() != self.len()`.
    pub fn forward(&self, buf: &mut [Complex64]) {
        self.run_rows([buf], false);
    }

    /// Inverse transform, in place, including the `1/n` normalization.
    ///
    /// # Panics
    ///
    /// Panics if `buf.len() != self.len()`.
    pub fn inverse(&self, buf: &mut [Complex64]) {
        self.run_rows([buf], true);
    }

    /// Transforms each of `rows` in place, borrowing the thread workspace
    /// once for all of them: the 2-D row pass and [`Self::forward`] /
    /// [`Self::inverse`] both land here.
    ///
    /// # Panics
    ///
    /// Panics if a row's length is not [`Self::len`].
    pub(crate) fn run_rows<'a>(
        &self,
        rows: impl IntoIterator<Item = &'a mut [Complex64]>,
        invert: bool,
    ) {
        with_work(|work| {
            if work.len() < 2 * self.n {
                work.resize(2 * self.n, Complex64::ZERO);
            }
            for row in rows {
                self.run(row, work, invert);
            }
        });
    }

    /// One transform with a workspace of at least `2n` samples, for
    /// callers that hold the thread workspace already.
    pub(crate) fn run(&self, buf: &mut [Complex64], work: &mut [Complex64], invert: bool) {
        let n = self.n;
        assert_eq!(buf.len(), n, "buffer length {} does not match plan length {n}", buf.len());
        self.run_through(buf, work, invert, |stage, src, dst| stage.run(src, dst));
    }

    /// Runs every pass of one direction from `buf` back into `buf` with
    /// `pass`, through a `work` of at least `2·buf.len()` samples split
    /// into buffers `A` and `B`: the first pass reads `buf` into `A`,
    /// middle passes ping-pong `A ↔ B`, and the last writes `buf`, so the
    /// result lands in place without a copy back. A one-pass plan
    /// (`n ≤ 5`) copies `buf` into `A` first; `n = 1` is the identity.
    #[inline(always)]
    fn run_through(
        &self,
        buf: &mut [Complex64],
        work: &mut [Complex64],
        invert: bool,
        pass: impl Fn(&Stage, &[Complex64], &mut [Complex64]),
    ) {
        let Some(last) = self.radices.len().checked_sub(1) else { return };
        let len = buf.len();
        let (mut src, mut dst) = work[..2 * len].split_at_mut(len);
        if last == 0 {
            src.copy_from_slice(buf);
        }
        for (i, stage) in self.stages(invert).enumerate() {
            if i == last {
                pass(&stage, src, buf);
            } else if i == 0 {
                pass(&stage, buf, src);
            } else {
                pass(&stage, src, dst);
                std::mem::swap(&mut src, &mut dst);
            }
        }
    }

    /// Transforms every column of the row-major `buf` (`n` rows of
    /// `buf.len() / n` samples) in place, with a `work` of `2·buf.len()`:
    /// the batched passes of [`Self::run_columns`] on the schedule of
    /// [`Self::run`], so the last pass writes `buf` and nothing is copied
    /// back.
    pub(crate) fn run_columns_in_place(
        &self,
        buf: &mut [Complex64],
        work: &mut [Complex64],
        invert: bool,
    ) {
        let width = buf.len() / self.n;
        assert!(
            width > 0 && buf.len() == self.n * width && work.len() >= 2 * buf.len(),
            "column buffer of {} samples does not hold whole columns of length {}",
            buf.len(),
            self.n
        );
        self.run_through(buf, work, invert, |stage, src, dst| {
            stage.run_columns(src, width, dst, width)
        });
    }

    /// The batched form of [`Self::run`] behind the 2-D column pass:
    /// transforms the `width = out.len() / n` columns of the row-major
    /// `src`, whose row `i` is `src[i·stride..][..width]`, and writes them
    /// row-major (`n × width`) into `out`. Each pass runs over whole rows
    /// of the buffer, so every column gets exactly the arithmetic `run`
    /// gives one vector: the same twiddles and butterflies in the same
    /// order, and the inverse's `1/n` folded into the last pass. The first
    /// pass reads `src` and later passes ping-pong between `out` and `work`
    /// (same length), starting in whichever buffer makes the last pass
    /// land in `out`, so nothing is copied back.
    pub(crate) fn run_columns(
        &self,
        src: &[Complex64],
        stride: usize,
        out: &mut [Complex64],
        work: &mut [Complex64],
        invert: bool,
    ) {
        let n = self.n;
        let width = out.len() / n;
        assert!(
            width > 0 && out.len() == n * width && work.len() == out.len(),
            "column buffer of {} samples does not hold whole columns of length {n}",
            out.len()
        );
        assert!(src.len() >= (n - 1) * stride + width, "column source is too short");
        let Some(last) = self.radices.len().checked_sub(1) else {
            // n = 1: the transform (and its 1/n) is the identity.
            out.copy_from_slice(&src[..width]);
            return;
        };
        let (mut dst, mut spare) = if last % 2 == 0 { (out, work) } else { (work, out) };
        for (i, stage) in self.stages(invert).enumerate() {
            let (from, step) = if i == 0 { (src, stride) } else { (&*spare, width) };
            stage.run_columns(from, step, dst, width);
            std::mem::swap(&mut dst, &mut spare);
        }
    }

    /// The passes of one direction in execution order, each with its span,
    /// its slice of the per-stage twiddles and, for the inverse's last
    /// pass, the `1/n` it folds into its outputs.
    fn stages(&self, invert: bool) -> impl Iterator<Item = Stage<'_>> {
        let dir = if invert { &self.inv } else { &self.fwd };
        let last = self.radices.len().checked_sub(1);
        let inv_n = (self.n as f64).recip();
        let mut twiddles = dir.twiddles.as_slice();
        let mut span = 1;
        self.radices.iter().enumerate().map(move |(i, &radix)| {
            let (tw, rest) = twiddles.split_at((span - 1) * (radix.size() - 1));
            twiddles = rest;
            let stage = Stage {
                radix,
                span,
                twiddles: tw,
                roots: dir.roots,
                scale: (invert && Some(i) == last).then_some(inv_n),
            };
            span *= radix.size();
            stage
        })
    }

    /// Number of Stockham passes.
    #[cfg(test)]
    pub(crate) fn pass_count(&self) -> usize {
        self.radices.len()
    }
}

/// One Stockham pass of a plan direction, as [`MixedRadixPlan::stages`]
/// yields it.
struct Stage<'a> {
    radix: Radix,
    /// The span `l` of the transforms this pass combines.
    span: usize,
    /// The `(l−1)·(R−1)` twiddles for `k ≥ 1`.
    twiddles: &'a [Complex64],
    roots: Roots,
    /// The inverse's `1/n`, on its last pass only.
    scale: Option<f64>,
}

impl Stage<'_> {
    /// Runs the pass from `src` into `dst` (same length).
    #[inline(always)]
    fn run(&self, src: &[Complex64], dst: &mut [Complex64]) {
        let (l, tw, roots, scale) = (self.span, self.twiddles, self.roots, self.scale);
        match self.radix {
            Radix::Two => pass(src, dst, l, tw, scaled(scale, Roots::radix2)),
            Radix::Three => pass(src, dst, l, tw, scaled(scale, |x| roots.radix3(x))),
            Radix::Four => pass(src, dst, l, tw, scaled(scale, |x| roots.radix4(x))),
            Radix::Five => pass(src, dst, l, tw, scaled(scale, |x| roots.radix5(x))),
        }
    }

    /// Runs the pass over `width` columns at once (see [`pass_columns`]).
    #[inline(always)]
    fn run_columns(&self, src: &[Complex64], stride: usize, dst: &mut [Complex64], width: usize) {
        let (l, tw, roots, scale) = (self.span, self.twiddles, self.roots, self.scale);
        match self.radix {
            Radix::Two => pass_columns(src, stride, dst, width, l, tw, scaled(scale, Roots::radix2)),
            Radix::Three => {
                pass_columns(src, stride, dst, width, l, tw, scaled(scale, |x| roots.radix3(x)))
            }
            Radix::Four => {
                pass_columns(src, stride, dst, width, l, tw, scaled(scale, |x| roots.radix4(x)))
            }
            Radix::Five => {
                pass_columns(src, stride, dst, width, l, tw, scaled(scale, |x| roots.radix5(x)))
            }
        }
    }
}

/// `butterfly` with the inverse's `1/n` multiplied into every output when
/// `scale` is set (the inverse's last pass): the same multiply a scaling
/// loop after the pass would make.
#[inline(always)]
fn scaled<const R: usize>(
    scale: Option<f64>,
    butterfly: impl Fn([Complex64; R]) -> [Complex64; R],
) -> impl Fn([Complex64; R]) -> [Complex64; R] {
    move |x| {
        let y = butterfly(x);
        match scale {
            Some(k) => y.map(|v| v.scale(k)),
            None => y,
        }
    }
}

/// One Stockham pass of radix `R` after span `l`: for every output block
/// `q` and offset `k < l`, gathers `src[q·l + k + r·n/R]`, twiddles it,
/// runs `butterfly`, and scatters the results to `dst[q·l·R + k + s·l]`.
/// `tw` holds the `(l−1)·(R−1)` twiddles for `k ≥ 1`.
///
/// The `R` input runs `src[r·n/R..][..n/R]` are split off once per pass
/// and, per block, the `R` input and output runs of length `l` once per
/// block, so the inner loop indexes only by `k` within slices whose length
/// the compiler knows. The first pass (`l = 1`) has no `k` loop.
#[inline(always)]
fn pass<const R: usize>(
    src: &[Complex64],
    dst: &mut [Complex64],
    l: usize,
    tw: &[Complex64],
    butterfly: impl Fn([Complex64; R]) -> [Complex64; R],
) {
    let m = src.len() / R;
    let ins: [&[Complex64]; R] = std::array::from_fn(|r| &src[r * m..][..m]);
    if l == 1 {
        // Every twiddle is 1.
        for (q, out) in (0..m).zip(dst.chunks_exact_mut(R)) {
            out.copy_from_slice(&butterfly(std::array::from_fn(|r| ins[r][q])));
        }
        return;
    }
    for (q, out) in dst.chunks_exact_mut(l * R).enumerate() {
        let xs: [&[Complex64]; R] = std::array::from_fn(|r| &ins[r][q * l..][..l]);
        let mut rest = out;
        let mut outs: [&mut [Complex64]; R] = std::array::from_fn(|_| {
            let (run, tail) = std::mem::take(&mut rest).split_at_mut(l);
            rest = tail;
            run
        });
        let gather = |k: usize| -> [Complex64; R] { std::array::from_fn(|r| xs[r][k]) };
        let mut scatter = |k: usize, y: [Complex64; R]| {
            for (o, v) in outs.iter_mut().zip(y) {
                o[k] = v;
            }
        };
        // k = 0: every twiddle is 1.
        scatter(0, butterfly(gather(0)));
        for (k, w) in (1..l).zip(tw.chunks_exact(R - 1)) {
            let mut x = gather(k);
            for (v, w) in x.iter_mut().skip(1).zip(w) {
                *v *= *w;
            }
            scatter(k, butterfly(x));
        }
    }
}

/// [`pass`] over `width` columns at once: source row `i` is
/// `src[i·stride..][..width]` and destination row `i` is
/// `dst[i·width..][..width]`. The twiddles of a butterfly are shared by the
/// whole row, so each `(q, k)` loads them once and runs the butterfly on
/// every column.
#[inline(always)]
fn pass_columns<const R: usize>(
    src: &[Complex64],
    stride: usize,
    dst: &mut [Complex64],
    width: usize,
    l: usize,
    tw: &[Complex64],
    butterfly: impl Fn([Complex64; R]) -> [Complex64; R],
) {
    let m = dst.len() / width / R;
    for (q, out) in dst.chunks_exact_mut(l * R * width).enumerate() {
        let j = q * l;
        // k = 0: every twiddle is 1.
        let twiddles = std::iter::once(None).chain(tw.chunks_exact(R - 1).map(Some));
        for (k, w) in twiddles.enumerate() {
            let rows: [&[Complex64]; R] =
                std::array::from_fn(|r| &src[(j + k + r * m) * stride..][..width]);
            let mut rest = &mut *out;
            let mut outs: [&mut [Complex64]; R] = std::array::from_fn(|_| {
                let (block, tail) = std::mem::take(&mut rest).split_at_mut(l * width);
                rest = tail;
                &mut block[k * width..][..width]
            });
            for c in 0..width {
                let mut x: [Complex64; R] = std::array::from_fn(|r| rows[r][c]);
                if let Some(w) = w {
                    for (v, w) in x.iter_mut().skip(1).zip(w) {
                        *v *= *w;
                    }
                }
                for (o, v) in outs.iter_mut().zip(butterfly(x)) {
                    o[c] = v;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bluestein::BluesteinPlan;
    use crate::dft;

    fn assert_close(a: &[Complex64], b: &[Complex64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((*x - *y).norm() < tol, "{x} vs {y}");
        }
    }

    fn signal(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| Complex64::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
            .collect()
    }

    /// Every `2^a·3^b·5^c ≤ 512`, powers of two included.
    fn smooth_lengths() -> Vec<usize> {
        (1..=512).filter(|&n| MixedRadixPlan::supports(n)).collect()
    }

    /// [`smooth_lengths`] plus the powers of two 1024–4096, the range
    /// Bluestein's inner transforms reach (n = 509 convolves at 1024).
    fn oracle_lengths() -> Vec<usize> {
        let mut lengths = smooth_lengths();
        lengths.extend([1024, 2048, 4096]);
        lengths
    }

    #[test]
    fn factors_only_smooth_lengths() {
        for n in [1usize, 2, 3, 4, 5, 6, 40, 48, 60, 480, 640, 1000] {
            assert!(MixedRadixPlan::supports(n), "{n}");
        }
        for n in [0usize, 7, 14, 17, 22, 509] {
            assert!(!MixedRadixPlan::supports(n), "{n}");
        }
        assert_eq!(factor(40), Some(vec![Radix::Four, Radix::Two, Radix::Five]));
        assert_eq!(factor(1), Some(vec![]));
        assert_eq!(smooth_lengths().len(), 68);
    }

    #[test]
    fn forward_matches_reference_for_every_smooth_length() {
        for n in oracle_lengths() {
            let x = signal(n);
            let mut fast = x.clone();
            MixedRadixPlan::new(n).forward(&mut fast);
            let slow = dft::forward(&x);
            assert_close(&fast, &slow, 1e-9 * n as f64);
            // Rounding level; 32 and 64 carry every hologram-plane transform.
            assert!(dft::relative_l2(&fast, &slow) <= 1e-12, "n={n}");
        }
    }

    #[test]
    fn inverse_matches_reference_for_every_smooth_length() {
        for n in oracle_lengths() {
            let x = signal(n);
            let mut fast = x.clone();
            MixedRadixPlan::new(n).inverse(&mut fast);
            let slow = dft::inverse(&x);
            assert_close(&fast, &slow, 1e-10);
            assert!(dft::relative_l2(&fast, &slow) <= 1e-12, "n={n}");
        }
    }

    #[test]
    fn roundtrip_is_identity_for_every_smooth_length() {
        for n in oracle_lengths() {
            let plan = MixedRadixPlan::new(n);
            let x = signal(n);
            let mut buf = x.clone();
            plan.forward(&mut buf);
            plan.inverse(&mut buf);
            assert_close(&buf, &x, 1e-10);
        }
    }

    #[test]
    fn agrees_with_bluestein_on_the_hot_lengths() {
        for n in [40usize, 48, 480] {
            let x = signal(n);
            for invert in [false, true] {
                let (mut mixed, mut chirp) = (x.clone(), x.clone());
                if invert {
                    MixedRadixPlan::new(n).inverse(&mut mixed);
                    BluesteinPlan::new(n).inverse(&mut chirp);
                } else {
                    MixedRadixPlan::new(n).forward(&mut mixed);
                    BluesteinPlan::new(n).forward(&mut chirp);
                }
                assert!(dft::relative_l2(&mixed, &chirp) < 1e-12, "n={n} invert={invert}");
            }
        }
    }

    #[test]
    fn plan_reuse_is_bit_identical() {
        let plan = MixedRadixPlan::new(480);
        let x = signal(480);
        let (mut a, mut b) = (x.clone(), x);
        plan.forward(&mut a);
        plan.forward(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn transforms_reuse_the_thread_workspace() {
        let plan = MixedRadixPlan::new(60);
        let mut buf = vec![Complex64::ONE; 60];
        plan.forward(&mut buf);
        let before = with_work(|w| (w.as_ptr() as usize, w.len()));
        plan.forward(&mut buf);
        plan.inverse(&mut buf);
        let after = with_work(|w| (w.as_ptr() as usize, w.len()));
        assert_eq!(before, after);
        assert!(before.1 >= 2 * 60);
    }

    #[test]
    #[should_panic(expected = "2·3·5-smooth")]
    fn rejects_lengths_with_large_prime_factors() {
        MixedRadixPlan::new(14);
    }

    #[test]
    #[should_panic(expected = "does not match plan length")]
    fn rejects_wrong_buffer_length() {
        let plan = MixedRadixPlan::new(12);
        let mut buf = vec![Complex64::ZERO; 8];
        plan.forward(&mut buf);
    }
}
