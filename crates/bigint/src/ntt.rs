//! Number-theoretic-transform multiplication on whole 64-bit limbs.
//!
//! Karatsuba gives `n^1.58`; the batch-GCD feasibility
//! argument (§3.2) rests on `M(n) = n^(1+o(1))`, which needs FFT-class
//! multiplication. The product of two limb vectors is their convolution
//! followed by carry propagation; this module computes the convolution
//! exactly, modulo three word primes `p < 2^62`, and recombines each
//! coefficient by Garner's CRT (Pollard, "The fast Fourier transform in a
//! finite field", 1971). A coefficient is at most
//! `min(la, lb)·(2^64 − 1)^2 < 2^186 ≈ p0·p1·p2` for any length the roots
//! below admit, so the CRT value is the coefficient itself.
//!
//! * **Lengths.** Every `p − 1` is divisible by `3·2^40`. A transform has
//!   `leaf·2^k` points (`leaf` 1 or 3, `k ≤ 40`), the smallest such length
//!   that holds the `la + lb − 1` coefficients, so padding never doubles a
//!   transform. The radix-2 levels split `x^len − 1` down to the factors
//!   `x^leaf − ζ`; for `leaf = 3` the pointwise step multiplies the residue
//!   pairs as polynomials modulo `x^3 − ζ`. Longer products fall back to
//!   Karatsuba.
//! * **Butterflies.** Forward levels are Cooley–Tukey, inverse levels are
//!   Gentleman–Sande, two levels per pass, with one twiddle per block in
//!   bit-reversed order and Shoup (precomputed-quotient) multiplies. Values
//!   stay lazily in `[0, 4p)` / `[0, 2p)` (Harvey's bounds) and every
//!   conditional subtraction is branch-free. Pointwise products use
//!   Montgomery reduction. Its `2^-64` factor, the inverse's missing `2^-k`
//!   and the CRT's constant for the prime make one scale per prime, applied
//!   as the left operand is loaded (for a square, in the pointwise step).
//! * **Memory.** The primes run one at a time: the working set is the
//!   output, one saved residue vector, two transform buffers and one table
//!   of `2^(k−1)` twiddle pairs. All but the output live in the thread's
//!   arena workspace ([`crate::arena::take_workspace`]), so a warmed
//!   transform touches no heap; twiddles are rebuilt per call.
//! * **Squaring.** Squaring transforms its operand once.
//! * **Middle products.** [`mul_middle_into`] computes a window of a
//!   product by one cyclic convolution that only has to cover the longer
//!   operand and the window's top: the coefficients that wrap around land
//!   below the window's two guard limbs, where nothing is read.
//!
//! The dispatcher turns NTT on at [`NTT_THRESHOLD`] limbs, the middle
//! product at [`MIDDLE_NTT_THRESHOLD`](crate::MIDDLE_NTT_THRESHOLD).

use crate::arena;
use crate::natural::Natural;
use core::ops::Range;

/// Operand size (limbs, smaller operand) at which NTT takes over from
/// Karatsuba in the multiplication dispatcher.
pub const NTT_THRESHOLD: usize = 320;

/// Every prime has `2^MAX_LOG | p − 1`, so radix-2 levels go up to `2^40`.
const MAX_LOG: u32 = 40;

/// One word prime and its precomputed constants.
struct Prime {
    p: u64,
    /// `p^-1 mod 2^64`, for Montgomery reduction.
    p_inv: u64,
    /// `⌊2^126 / p⌋ − 2^64`, for Shoup quotients.
    barrett: u64,
    /// `roots[j]` is a primitive `2^j`-th root of unity.
    roots: [u64; MAX_LOG as usize + 1],
}

const fn mul_mod_const(a: u64, b: u64, p: u64) -> u64 {
    ((a as u128 * b as u128) % p as u128) as u64
}

const fn pow_mod_const(mut base: u64, mut exp: u64, p: u64) -> u64 {
    let mut acc = 1;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul_mod_const(acc, base, p);
        }
        base = mul_mod_const(base, base, p);
        exp >>= 1;
    }
    acc
}

const fn inv_mod_const(a: u64, p: u64) -> u64 {
    pow_mod_const(a % p, p - 2, p)
}

impl Prime {
    const fn new(p: u64) -> Prime {
        assert!(p < 1 << 62 && (p - 1).is_multiple_of(3 << MAX_LOG));
        let mut p_inv = p; // correct to 3 bits for odd p
        let mut i = 0;
        while i < 5 {
            p_inv = p_inv.wrapping_mul(2u64.wrapping_sub(p.wrapping_mul(p_inv)));
            i += 1;
        }
        // The smallest quadratic non-residue generates the 2-Sylow subgroup.
        let mut g = 2;
        while pow_mod_const(g, (p - 1) / 2, p) != p - 1 {
            g += 1;
        }
        let mut roots = [0; MAX_LOG as usize + 1];
        roots[MAX_LOG as usize] = pow_mod_const(g, (p - 1) >> MAX_LOG, p);
        let mut j = MAX_LOG as usize;
        while j > 0 {
            roots[j - 1] = mul_mod_const(roots[j], roots[j], p);
            j -= 1;
        }
        Prime {
            p,
            p_inv,
            barrett: ((1u128 << 126) / p as u128 - (1u128 << 64)) as u64,
            roots,
        }
    }
}

// Ascending, so a value reduced modulo an earlier prime is below every
// later one (the CRT bounds below rely on it).
const P0: Prime = Prime::new(0x3fff_3900_0000_0001);
const P1: Prime = Prime::new(0x3fff_4500_0000_0001);
const P2: Prime = Prime::new(0x3fff_8100_0000_0001);
const PRIMES: [&Prime; 3] = [&P0, &P1, &P2];

/// Garner constants: `p0^-1 mod p1`, `(p0·p1)^-1 mod p2`,
/// and `p0·p1` split into limbs.
const INV_P0_MOD_P1: u64 = inv_mod_const(P0.p, P1.p);
const INV_P0P1_MOD_P2: u64 = inv_mod_const(mul_mod_const(P0.p, P1.p, P2.p), P2.p);
const P0P1: u128 = P0.p as u128 * P1.p as u128;

/// `x mod m` for `x < 2m`, branch-free.
#[inline(always)]
fn reduce(x: u64, m: u64) -> u64 {
    x.min(x.wrapping_sub(m))
}

/// Shoup quotient `⌊w·2^64 / p⌋` of a twiddle `w < p`.
fn shoup_quotient(w: u64, pr: &Prime) -> u64 {
    // (2^64 + barrett) ≤ 2^126/p, so the estimate is at most 2 short.
    let q = ((w as u128 * ((1u128 << 64) + pr.barrett as u128)) >> 62) as u64;
    let rem = ((w as u128) << 64) - q as u128 * pr.p as u128;
    // rem < 3p < 2^64: two branch-free corrections.
    let (rem, p) = (rem as u64, pr.p);
    q + (rem >= p) as u64 + (rem >= 2 * p) as u64
}

/// `x·w mod p` in `[0, 2p)` for any `x < 2^64`, given `wq = ⌊w·2^64/p⌋`.
#[inline(always)]
fn mul_shoup(x: u64, w: u64, wq: u64, p: u64) -> u64 {
    let q = ((x as u128 * wq as u128) >> 64) as u64;
    x.wrapping_mul(w).wrapping_sub(q.wrapping_mul(p))
}

/// Montgomery reduction `x·2^-64 mod p`, in `(0, hi + p)` where
/// `hi = x >> 64`.
#[inline(always)]
fn redc(x: u128, pr: &Prime) -> u64 {
    let m = (x as u64).wrapping_mul(pr.p_inv);
    let mh = ((m as u128 * pr.p as u128) >> 64) as u64;
    ((x >> 64) as u64).wrapping_sub(mh).wrapping_add(pr.p)
}

#[inline(always)]
fn wide(a: u64, b: u64) -> u128 {
    a as u128 * b as u128
}

/// A transform length `leaf · 2^log`.
#[derive(Clone, Copy)]
struct Shape {
    leaf: usize,
    log: u32,
}

impl Shape {
    /// The shortest transform holding `count` coefficients, if the primes'
    /// roots reach it.
    fn for_coefficients(count: usize) -> Option<Shape> {
        let two = count.checked_next_power_of_two()?;
        let three = count.div_ceil(3).next_power_of_two();
        let (leaf, blocks) = if 3 * three < two {
            (3, three)
        } else {
            (1, two)
        };
        let log = blocks.trailing_zeros();
        (log <= MAX_LOG).then_some(Shape { leaf, log })
    }

    fn len(self) -> usize {
        self.leaf << self.log
    }
}

/// A twiddle `w` with its Shoup quotient `⌊w·2^64/p⌋`.
type Twiddle = [u64; 2];

/// The `2^(log−1)` twiddles in bit-reversed order, flattened into `tw` as
/// `[w, wq]` pairs so the table can live in an arena buffer:
/// `tw[0] = 1` and `tw[2^d + j] = tw[j]·ω_(2^(d+2))`. Every level of the
/// forward transform gives its block `j` the twiddle `tw[j]`, and the table
/// of a shorter transform is a prefix of a longer one's.
fn twiddles(pr: &Prime, log: u32, tw: &mut [u64]) {
    let count = (1usize << log) / 2;
    if count == 0 {
        return;
    }
    tw[..2].copy_from_slice(&[1, shoup_quotient(1, pr)]);
    let (mut filled, mut step) = (1, 2);
    while filled < count {
        let w = pr.roots.get(step).copied().unwrap_or(1);
        let wq = shoup_quotient(w, pr);
        for j in 0..filled {
            let v = reduce(mul_shoup(tw[2 * j], w, wq, pr.p), pr.p);
            tw[2 * (filled + j)..2 * (filled + j) + 2].copy_from_slice(&[v, shoup_quotient(v, pr)]);
        }
        filled *= 2;
        step += 1;
    }
}

/// Limbs of a flat twiddle table for a transform of `shape`.
fn table_len(shape: Shape) -> usize {
    1 << shape.log
}

/// The flat table `tw` as twiddles.
fn pairs(tw: &[u64]) -> &[Twiddle] {
    tw.as_chunks::<2>().0
}

/// The twiddle `-w`: `(p − w, ⌊(p − w)·2^64/p⌋ = !wq)` for `w ≠ 0`.
#[inline(always)]
fn negate([w, wq]: Twiddle, p: u64) -> Twiddle {
    [p - w, !wq]
}

/// Turn a forward table into the inverse one in place: `tw[0] = 1` stays,
/// and within each octave `2^e ≤ j < 2^(e+1)` the inverse of `tw[j]` is
/// `−tw[3·2^e − 1 − j]`, so an octave reverses and negates.
fn invert_twiddles(tw: &mut [Twiddle], p: u64) {
    let mut start = 1;
    while let Some(octave) = tw.get_mut(start..2 * start) {
        octave.reverse();
        octave.iter_mut().for_each(|t| *t = negate(*t, p));
        start *= 2;
    }
}

/// Cooley–Tukey butterfly `(x + w·y, x − w·y)`: inputs and outputs in
/// `[0, 4p)`.
#[inline(always)]
fn ct(x: u64, y: u64, [w, wq]: Twiddle, p: u64) -> (u64, u64) {
    let u = reduce(x, 2 * p);
    let t = mul_shoup(y, w, wq, p);
    (u + t, u + 2 * p - t)
}

/// Gentleman–Sande butterfly `(x + y, (x − y)·w)`: inputs and outputs in
/// `[0, 2p)`.
#[inline(always)]
fn gs(x: u64, y: u64, [w, wq]: Twiddle, p: u64) -> (u64, u64) {
    (reduce(x + y, 2 * p), mul_shoup(x + 2 * p - y, w, wq, p))
}

/// Two forward levels on the quarters `[a, b, c, d]` of a block whose
/// twiddle is `w` and whose halves' twiddles are `w0`, `w1`.
#[inline(always)]
fn ct_quad([a, b, c, d]: [u64; 4], w: Twiddle, [w0, w1]: [Twiddle; 2], p: u64) -> [u64; 4] {
    let (a, c) = ct(a, c, w, p);
    let (b, d) = ct(b, d, w, p);
    let (a, b) = ct(a, b, w0, p);
    let (c, d) = ct(c, d, w1, p);
    [a, b, c, d]
}

/// The inverse of [`ct_quad`] up to a factor 4, given inverse twiddles.
#[inline(always)]
fn gs_quad([a, b, c, d]: [u64; 4], w: Twiddle, [w0, w1]: [Twiddle; 2], p: u64) -> [u64; 4] {
    let (a, b) = gs(a, b, w0, p);
    let (c, d) = gs(c, d, w1, p);
    let (a, c) = gs(a, c, w, p);
    let (b, d) = gs(b, d, w, p);
    [a, b, c, d]
}

/// Run `quad` over every block of `size` points: block `j` takes the
/// twiddle `tw[j]` and its halves `tw[2j]`, `tw[2j + 1]`.
#[inline(always)]
fn quad_pass(
    buf: &mut [u64],
    size: usize,
    tw: &[Twiddle],
    quad: impl Fn([u64; 4], Twiddle, [Twiddle; 2]) -> [u64; 4],
) {
    let pairs = tw.as_chunks::<2>().0;
    if size == 4 {
        let (quads, _) = buf.as_chunks_mut::<4>();
        for ((q, &w), &halves) in quads.iter_mut().zip(tw).zip(pairs) {
            *q = quad(*q, w, halves);
        }
        return;
    }
    let quarter = size / 4;
    for ((block, &w), &halves) in buf.chunks_exact_mut(size).zip(tw).zip(pairs) {
        let (q0, rest) = block.split_at_mut(quarter);
        let (q1, rest) = rest.split_at_mut(quarter);
        let (q2, q3) = rest.split_at_mut(quarter);
        for (((a, b), c), d) in q0.iter_mut().zip(q1).zip(q2).zip(q3) {
            [*a, *b, *c, *d] = quad([*a, *b, *c, *d], w, halves);
        }
    }
}

/// Run `pair` over the halves of every block of `size` points, block `j`
/// taking the twiddle `tw[j]`.
#[inline(always)]
fn pair_pass(
    buf: &mut [u64],
    size: usize,
    tw: &[Twiddle],
    pair: impl Fn(u64, u64, Twiddle) -> (u64, u64),
) {
    for (block, &w) in buf.chunks_exact_mut(size).zip(tw) {
        let (lo, hi) = block.split_at_mut(size / 2);
        for (x, y) in lo.iter_mut().zip(hi) {
            (*x, *y) = pair(*x, *y, w);
        }
    }
}

/// Load `limbs` zero-padded to `shape.len()` points, each multiplied by
/// `scale` when given, and run the forward transform: natural order in,
/// bit-reversed blocks of `leaf` out, values in `[0, 4p)`.
fn forward(
    buf: &mut [u64],
    limbs: &[u64],
    shape: Shape,
    tw: &[Twiddle],
    scale: Option<Twiddle>,
    pr: &Prime,
) {
    let p = pr.p;
    let (head, tail) = buf.split_at_mut(limbs.len());
    match scale {
        Some([s, sq]) => head
            .iter_mut()
            .zip(limbs)
            .for_each(|(b, &x)| *b = mul_shoup(x, s, sq, p)),
        // A limb below 2^64 < 6p lands in [0, 4p) after one subtraction of 2p.
        None => head
            .iter_mut()
            .zip(limbs)
            .for_each(|(b, &x)| *b = reduce(x, 2 * p)),
    }
    tail.fill(0);
    let mut size = buf.len();
    while size >= 4 * shape.leaf {
        quad_pass(buf, size, tw, |x, w, halves| ct_quad(x, w, halves, p));
        size /= 4;
    }
    if size > shape.leaf {
        pair_pass(buf, size, tw, |x, y, w| ct(x, y, w, p));
    }
}

/// Inverse transform without the `2^-log` normalization, given the
/// inverted table: bit-reversed blocks in `[0, 2p)`, natural order out,
/// values in `[0, 2p)`.
fn inverse(buf: &mut [u64], shape: Shape, itw: &[Twiddle], pr: &Prime) {
    let p = pr.p;
    // `done`: the block size whose levels are already undone.
    let mut done = shape.leaf;
    if shape.log % 2 == 1 {
        done *= 2;
        pair_pass(buf, done, itw, |x, y, w| gs(x, y, w, p));
    }
    while done < buf.len() {
        done *= 4;
        quad_pass(buf, done, itw, |x, w, halves| gs_quad(x, w, halves, p));
    }
}

/// `x·y mod (t^3 − ζ)` for two leaf blocks, inputs in `[0, 4p)`, outputs
/// in `[0, 2p)` carrying the Montgomery factor `2^-64`.
#[inline(always)]
fn leaf3(x: [u64; 3], y: [u64; 3], [z, zq]: Twiddle, pr: &Prime) -> [u64; 3] {
    let (p, two_p) = (pr.p, 2 * pr.p);
    let [x0, x1, x2] = x.map(|v| reduce(v, two_p));
    let [y0, y1, y2] = y.map(|v| reduce(v, two_p));
    // Each product is below 4p², so a sum of k of them reduces to
    // (0, (k + 1)·p).
    let wrap0 = reduce(redc(wide(x1, y2) + wide(x2, y1), pr), two_p);
    let wrap1 = redc(wide(x2, y2), pr);
    let c0 = redc(wide(x0, y0), pr) + mul_shoup(wrap0, z, zq, p);
    let c1 = reduce(redc(wide(x0, y1) + wide(x1, y0), pr), two_p) + mul_shoup(wrap1, z, zq, p);
    let c2 = redc(wide(x0, y2) + wide(x1, y1) + wide(x2, y0), pr);
    [c0, c1, c2].map(|c| reduce(c, two_p))
}

/// The other factor of a pointwise product.
#[derive(Clone, Copy)]
enum Factor<'a> {
    /// Another forward transform.
    Transform(&'a [u64]),
    /// The same transform, multiplied by this scale on the way.
    Square(Twiddle),
}

/// Pointwise products of two forward transforms into `buf`, inputs in
/// `[0, 4p)`, outputs in `[0, 2p)`. Uses the forward table.
fn pointwise(buf: &mut [u64], other: Factor<'_>, shape: Shape, tw: &[Twiddle], pr: &Prime) {
    let (p, two_p) = (pr.p, 2 * pr.p);
    let scaled = |x: u64, [s, sq]: Twiddle| mul_shoup(x, s, sq, p);
    if shape.leaf == 1 {
        let product = |x: u64, y: u64| redc(wide(reduce(x, two_p), reduce(y, two_p)), pr);
        match other {
            Factor::Transform(ys) => buf
                .iter_mut()
                .zip(ys)
                .for_each(|(x, &y)| *x = product(*x, y)),
            Factor::Square(s) => buf.iter_mut().for_each(|x| *x = product(*x, scaled(*x, s))),
        }
        return;
    }
    // Leaf block j reduces modulo t^3 − ζ_j with ζ_(2i) = tw[i] and
    // ζ_(2i+1) = −tw[i]; a transform without radix-2 levels has ζ = 1.
    let untransformed = (shape.log == 0).then(|| [1, shoup_quotient(1, pr)]);
    let zetas = untransformed
        .into_iter()
        .chain(tw.iter().flat_map(|&t| [t, negate(t, p)]));
    let (xs, _) = buf.as_chunks_mut::<3>();
    match other {
        Factor::Transform(ys) => {
            let (ys, _) = ys.as_chunks::<3>();
            for ((x, y), z) in xs.iter_mut().zip(ys).zip(zetas) {
                *x = leaf3(*x, *y, z, pr);
            }
        }
        Factor::Square(s) => {
            for (x, z) in xs.iter_mut().zip(zetas) {
                *x = leaf3(*x, x.map(|v| scaled(v, s)), z, pr);
            }
        }
    }
}

/// The right-hand operand of one transform multiply.
enum Rhs<'a> {
    /// Square the left operand.
    Same,
    /// Transform these limbs.
    Limbs(&'a [u64]),
}

/// The limbs of `Σ_{j ∈ window} c_j·β^(j − window.start)` (`β = 2^64`),
/// where `c_j` is coefficient `j` of the cyclic convolution of `a` and the
/// right operand over `shape`: `window.len()` limbs in `out`, then the
/// three pending carry limbs as the return value. Both operands must fit
/// the transform, and every `c_j` in the window must be a true product
/// coefficient (no wrapped term lands there) for the result to be exact.
/// The transform buffers and the twiddle table come from the thread arena.
fn convolve(
    a: &[u64],
    rhs: Rhs<'_>,
    shape: Shape,
    window: Range<usize>,
    out: &mut Vec<u64>,
) -> [u64; 3] {
    let len = shape.len();
    debug_assert!(a.len() <= len && window.end <= len);
    out.clear();
    let other_len = if matches!(rhs, Rhs::Limbs(_)) { len } else { 0 };
    let mut workspace = arena::take_workspace(len + table_len(shape) + other_len + window.len());
    let (buf, rest) = workspace.split_at_mut(len);
    let (tw, rest) = rest.split_at_mut(table_len(shape));
    let (other, rest) = rest.split_at_mut(other_len);
    let saved = &mut rest[..window.len()];
    for (i, (pr, scale)) in PRIMES.into_iter().zip(scales(shape.log)).enumerate() {
        twiddles(pr, shape.log, tw);
        let factor = match rhs {
            Rhs::Same => {
                forward(buf, a, shape, pairs(tw), None, pr);
                Factor::Square(scale)
            }
            Rhs::Limbs(b) => {
                forward(buf, a, shape, pairs(tw), Some(scale), pr);
                forward(other, b, shape, pairs(tw), None, pr);
                Factor::Transform(other)
            }
        };
        pointwise(buf, factor, shape, pairs(tw), pr);
        invert_twiddles(tw.as_chunks_mut::<2>().0, pr.p);
        inverse(buf, shape, pairs(tw), pr);
        let coefficients = buf.get(window.clone()).unwrap_or_default();
        match i {
            0 => out.extend_from_slice(coefficients),
            1 => saved.copy_from_slice(coefficients),
            _ => {}
        }
    }
    let carry = garner(out, saved, buf.get(window).unwrap_or_default());
    arena::put_workspace(workspace);
    carry
}

/// Per-prime scales with Shoup quotients: `2^64 · 2^-log` undoes the
/// pointwise Montgomery factor and the inverse's missing `2^-log`, times
/// the Garner constant `1`, `p0^-1` or `(p0·p1)^-1` of the prime.
fn scales(log: u32) -> [Twiddle; 3] {
    [(&P0, 1), (&P1, INV_P0_MOD_P1), (&P2, INV_P0P1_MOD_P2)].map(|(pr, garner)| {
        let p = pr.p;
        let montgomery = ((1u128 << 64) % p as u128) as u64;
        let halves = pow_mod_const(p.div_ceil(2), log as u64, p);
        let s = mul_mod_const(mul_mod_const(montgomery, halves, p), garner, p);
        [s, shoup_quotient(s, pr)]
    })
}

/// Recombine the residues of each coefficient (`out[i]` for `p0`, `r1[i]`
/// for `p1`, `r2[i]` for `p2`, in `[0, 2p)` and scaled by [`scales`]) and
/// propagate carries, writing the sum's limbs over `out` and returning the
/// three limbs still pending above them.
fn garner(out: &mut [u64], r1: &[u64], r2: &[u64]) -> [u64; 3] {
    let shoup = |w: u64, pr: &Prime| [w, shoup_quotient(w, pr)];
    let (inv01, inv012) = (shoup(INV_P0_MOD_P1, &P1), shoup(INV_P0P1_MOD_P2, &P2));
    let p0_inv012 = shoup(mul_mod_const(P0.p, INV_P0P1_MOD_P2, P2.p), &P2);
    let mul = |x: u64, [w, wq]: Twiddle, p: u64| reduce(mul_shoup(x, w, wq, p), p);
    let (p0p1_lo, p0p1_hi) = (P0P1 as u64, (P0P1 >> 64) as u64);
    // Pending limbs of the running sum at positions i, i + 1, i + 2; the
    // sum never needs a fourth, as coefficients stay below 2^186.
    let (mut c0, mut c1, mut c2) = (0u64, 0u64, 0u64);
    for (o, (&y1, &y2)) in out.iter_mut().zip(r1.iter().zip(r2)) {
        // x0 = c mod p0; y1 = c·p0^-1 mod p1; y2 = c·(p0·p1)^-1 mod p2.
        let x0 = reduce(*o, P0.p);
        // v1 = (c − x0)·p0^-1 mod p1, in [0, p1).
        let v1 = reduce(y1, P1.p) + P1.p - mul(x0, inv01, P1.p);
        let v1 = reduce(v1, P1.p);
        // v2 = (c − x0 − v1·p0)·(p0·p1)^-1 mod p2, in [0, p2).
        let v2 = reduce(y2, P2.p) + 2 * P2.p - mul(x0, inv012, P2.p) - mul(v1, p0_inv012, P2.p);
        let v2 = reduce(reduce(v2, 2 * P2.p), P2.p);
        // c = x0 + v1·p0 + v2·p0·p1 < p0·p1·p2, as three limbs.
        let t = wide(v2, p0p1_lo) + wide(v1, P0.p) + x0 as u128;
        let u = (t >> 64) + wide(v2, p0p1_hi);
        let s = c0 as u128 + t as u64 as u128;
        *o = s as u64;
        let s = (s >> 64) + c1 as u128 + u as u64 as u128;
        c0 = s as u64;
        let s = (s >> 64) + c2 as u128 + (u >> 64);
        c1 = s as u64;
        c2 = (s >> 64) as u64;
    }
    [c0, c1, c2]
}

/// `out = a · b` by transform; `a` and `b` trimmed and nonempty. Equal
/// operands are squared. Returns `false`, leaving `out` alone, when the
/// product is longer than the primes' roots reach.
pub(crate) fn mul_into(a: &[u64], b: &[u64], out: &mut Vec<u64>) -> bool {
    let count = a.len() + b.len() - 1;
    let Some(shape) = Shape::for_coefficients(count) else {
        return false;
    };
    let rhs = if a == b { Rhs::Same } else { Rhs::Limbs(b) };
    let [c0, c1, c2] = convolve(a, rhs, shape, 0..count, out);
    out.push(c0);
    debug_assert_eq!((c1, c2), (0, 0), "product overflowed its limbs");
    true
}

/// The truncated middle product `out` = limbs `[lo, lo + len)` of
/// `Σ_{j ≥ lo − 2} c_j·β^j` (see [`Natural::mul_middle`]) by one cyclic
/// convolution, `a` and `b` trimmed and nonempty. The transform only has
/// to cover the longer operand, the top of the window and the
/// `la + lb − 1 − (lo − 2)` coefficients from the window's guard limbs up:
/// the coefficients that wrap around land below the guard limbs, where
/// nothing is read. Returns `false`, leaving `out` alone, when that length
/// is beyond the primes' roots.
pub(crate) fn mul_middle_into(
    a: &[u64],
    b: &[u64],
    lo: usize,
    len: usize,
    out: &mut Vec<u64>,
) -> bool {
    let count = a.len() + b.len() - 1;
    let start = lo.saturating_sub(2);
    let end = (lo + len).min(count).max(start);
    let need = a
        .len()
        .max(b.len())
        .max(end)
        .max(count.saturating_sub(start));
    let Some(shape) = Shape::for_coefficients(need) else {
        return false;
    };
    let rhs = if a == b { Rhs::Same } else { Rhs::Limbs(b) };
    let carry = convolve(a, rhs, shape, start..end, out);
    out.extend(carry);
    out.drain(..lo - start);
    out.truncate(len);
    true
}

/// [`Natural::mul_middle`] by transform regardless of size, for the
/// differential tests and the benchmark ladder; the dispatcher switches to
/// it from [`MIDDLE_NTT_THRESHOLD`](crate::MIDDLE_NTT_THRESHOLD) limbs.
pub fn mul_middle_ntt(a: &Natural, b: &Natural, lo: usize, len: usize) -> Natural {
    let len = len.min((a.limb_len() + b.limb_len()).saturating_sub(lo));
    if a.is_zero() || b.is_zero() || len == 0 {
        return Natural::zero();
    }
    let mut out = crate::arena::take(len + 5);
    if mul_middle_into(a.limbs(), b.limbs(), lo, len, &mut out) {
        Natural::from_limbs(out)
    } else {
        crate::arena::put(out);
        a.mul_middle_schoolbook(b, lo, len)
    }
}

/// NTT multiplication regardless of size. Exposed for the ablation bench
/// and the benchmark ladder; the dispatcher in `crate::mul` calls it
/// automatically from [`NTT_THRESHOLD`] limbs.
pub fn mul_ntt(a: &Natural, b: &Natural) -> Natural {
    if a.is_zero() || b.is_zero() {
        return Natural::zero();
    }
    let mut out = crate::arena::take(a.limb_len() + b.limb_len());
    if mul_into(a.limbs(), b.limbs(), &mut out) {
        Natural::from_limbs(out)
    } else {
        crate::arena::put(out);
        a * b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo(len: usize, seed: u64) -> Natural {
        let mut state = seed | 1;
        let limbs: Vec<u64> = (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            })
            .collect();
        Natural::from_limbs(limbs)
    }

    #[test]
    fn primes_are_prime_and_cover_every_coefficient() {
        for pr in PRIMES {
            assert!(crate::is_prime_u64(pr.p), "{:#x}", pr.p);
            assert_eq!(pr.p.wrapping_mul(pr.p_inv), 1);
        }
        let product = P0P1 as f64 * P2.p as f64;
        assert!(product > 2f64.powi(185), "CRT range too small");
    }

    #[test]
    fn roots_have_exact_order() {
        for pr in PRIMES {
            for log in [1u32, 2, 13, MAX_LOG] {
                let w = pr.roots[log as usize];
                assert_eq!(pow_mod_const(w, 1 << log, pr.p), 1, "w^(2^{log})");
                assert_ne!(pow_mod_const(w, 1 << (log - 1), pr.p), 1, "2^{log}");
            }
        }
    }

    /// Montgomery reduction of 128-bit products against `u128` remainders.
    #[test]
    fn reduce128_matches_u128_remainder() {
        for pr in PRIMES {
            let p = pr.p as u128;
            let r_inv = inv_mod_const(((1u128 << 64) % p) as u64, pr.p) as u128;
            for (a, b) in [(2 * pr.p - 1, 2 * pr.p - 1), (1, 1), (pr.p, 7), (0, 9)] {
                let r = redc(wide(a, b), pr);
                assert!(r < 2 * pr.p);
                assert_eq!(r as u128 % p, a as u128 * b as u128 % p * r_inv % p);
            }
        }
    }

    /// Shoup quotients and multiplies against `u128` arithmetic.
    #[test]
    fn modular_ops_match_u128() {
        for pr in PRIMES {
            let p = pr.p as u128;
            for w in [1, 2, pr.p - 1, pr.p / 2, pr.roots[20], 0x1234_5678_9abc] {
                let exact = (((w as u128) << 64) / p) as u64;
                assert_eq!(shoup_quotient(w, pr), exact, "w={w:#x}");
                assert_eq!(negate([w, exact], pr.p)[1], shoup_quotient(pr.p - w, pr));
                for x in [u64::MAX, 0, 4 * pr.p - 1, 12345] {
                    let r = mul_shoup(x, w, exact, pr.p);
                    assert!(r < 2 * pr.p);
                    assert_eq!(r as u128 % p, x as u128 * w as u128 % p);
                }
            }
        }
    }

    /// Forward then inverse gives back `2^log` times the input, at every
    /// shape of both leaf sizes.
    #[test]
    fn ntt_round_trips() {
        for pr in PRIMES {
            for (leaf, log) in (0..7).flat_map(|log| [(1, log), (3, log)]) {
                let shape = Shape { leaf, log };
                let values: Vec<u64> = (0..shape.len() as u64).map(|i| i * i + 7).collect();
                let (mut tw, mut buf) = (vec![0; table_len(shape)], vec![0; shape.len()]);
                twiddles(pr, log, &mut tw);
                forward(&mut buf, &values, shape, pairs(&tw), None, pr);
                buf.iter_mut().for_each(|x| *x %= pr.p);
                invert_twiddles(tw.as_chunks_mut::<2>().0, pr.p);
                inverse(&mut buf, shape, pairs(&tw), pr);
                let back: Vec<u64> = buf.iter().map(|x| x % pr.p).collect();
                let expect: Vec<u64> = values.iter().map(|x| (x << log) % pr.p).collect();
                assert_eq!(back, expect, "leaf={leaf} log={log}");
            }
        }
    }

    #[test]
    fn shapes_are_the_shortest_admissible() {
        let shape = |count| Shape::for_coefficients(count).map(Shape::len);
        assert_eq!(shape(1), Some(1));
        assert_eq!(shape(2), Some(2));
        assert_eq!(shape(3), Some(3));
        assert_eq!(shape(5), Some(6));
        assert_eq!(shape(7), Some(8));
        assert_eq!(shape(4097), Some(6144));
        assert_eq!(shape(6145), Some(8192));
        assert_eq!(shape(3 << 40), Some(3 << 40));
        assert_eq!(shape((3 << 40) + 1), None);
    }

    #[test]
    fn twiddle_tables_nest() {
        let (mut short, mut long) = (vec![0; 32], vec![0; 512]);
        twiddles(&P1, 5, &mut short);
        twiddles(&P1, 9, &mut long);
        let (short, long) = (pairs(&short), pairs(&long));
        assert_eq!(short.len(), 16);
        assert_eq!(long[..16], short[..]);
        // tw[2j]² = tw[j] along the bit-reversed order.
        for j in 1..long.len() / 2 {
            assert_eq!(
                mul_mod_const(long[2 * j][0], long[2 * j][0], P1.p),
                long[j][0]
            );
        }
    }

    #[test]
    fn small_products_match_schoolbook() {
        for (la, lb, seed) in [(1, 1, 1), (2, 3, 2), (8, 8, 3), (20, 5, 4), (3, 3, 5)] {
            let a = pseudo(la, seed);
            let b = pseudo(lb, seed + 50);
            assert_eq!(mul_ntt(&a, &b), a.mul_schoolbook(&b), "la={la} lb={lb}");
        }
    }

    #[test]
    fn large_products_match_dispatched() {
        for (la, lb, seed) in [(300, 300, 9), (1000, 700, 10), (2500, 2500, 11)] {
            let a = pseudo(la, seed);
            let b = pseudo(lb, seed + 99);
            assert_eq!(mul_ntt(&a, &b), &a * &b, "la={la} lb={lb}");
        }
    }

    #[test]
    fn zero_and_one() {
        let a = pseudo(50, 5);
        assert_eq!(mul_ntt(&a, &Natural::zero()), Natural::zero());
        assert_eq!(mul_ntt(&Natural::one(), &a), a);
    }

    #[test]
    fn square_via_ntt() {
        for len in [600, 683] {
            let a = pseudo(len, 6);
            assert_eq!(mul_ntt(&a, &a), a.mul_schoolbook(&a), "len={len}");
        }
    }
}
