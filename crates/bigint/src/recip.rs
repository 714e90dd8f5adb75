//! Newton inverses and Barrett reduction against them.
//!
//! [`invert_newton`] computes a fixed-point inverse `floor(beta^cap / n)`
//! (`beta = 2^64`), up to a few ulps of one-sided under-estimate. It seeds
//! the batch-GCD remainder descent: `wk-batchgcd`'s scaled remainder tree
//! turns one inverse of a product tree's root into the root's fixed-point
//! image, and nothing below the root divides (DESIGN.md §9).
//!
//! A modulus that is reduced against many times can also split its
//! division into that precomputation and a per-value reduction of two
//! multiplies plus at most two correction subtractions (HAC Algorithm
//! 14.42, generalized to a configurable dividend capacity): [`Reciprocal`].
//! No batch-GCD path uses it; the kernel stays as a tested reference for
//! the layer benchmarks.
//!
//! The inverse is computed by Newton's method on truncated operands
//! (precision roughly doubles per iteration, so the total cost is a small
//! constant number of full-size multiplies). Each step forms the small
//! residual `z·n − 2^g` by one middle product whose transform covers `n`
//! rather than the whole product. The iteration is *deliberately left
//! approximate*: it maintains `mu <= floor(beta^cap/n)` throughout and
//! lands within [`MU_MAX_SLACK_ULPS`] of the exact value. Making it exact
//! would need a full `mu * n` verification product — empirically the
//! single most expensive operation of the whole precomputation, and the
//! only thing it buys is shrinking the Barrett correction loop from "a
//! few" subtractions to two. The correction loop is O(m) per pass; the
//! verification product is a full multiply. So the slack is kept and the
//! loop bound widened.
//!
//! # Correctness bound
//!
//! For `x < beta^cap` and normalized `n` (`beta^(m-1) <= n < beta^m`,
//! `m >= 2`), with `mu = floor(beta^cap / n) - delta` for `0 <= delta`,
//! the estimate
//! `q_hat = floor(floor(x / beta^(m-1)) * mu / beta^(cap-m+1))` satisfies
//! `q - 2 - delta <= q_hat <= q` where `q = floor(x / n)`:
//!
//! * upper: `mu <= beta^cap/n` and both inner floors only shrink their
//!   operands, so `q_hat <= x/n`. This direction is what makes the
//!   mod-`beta^(m+1)` remainder arithmetic sound — `x - q_hat*n` is never
//!   negative — and is why the iteration must *never* over-estimate;
//! * lower: writing `a = floor(x / beta^(m-1)) > x/beta^(m-1) - 1` and
//!   `mu > beta^cap/n - 1 - delta`, expanding `a*mu / beta^(cap-m+1)`
//!   gives `q_hat > x/n - x/beta^cap - beta^(m-1)/n - 1 - delta*a/beta^(cap-m+1)
//!   > x/n - 3 - delta`, using `x < beta^cap`, `n >= beta^(m-1)` and
//!   `a < beta^(cap-m+1)`.
//!
//! Hence `x - q_hat*n` lands in `[x mod n, x mod n + (2 + delta) n)`,
//! which stays below `beta^(m+1)` for any `delta < 2^64 - 3`: the low
//! `m + 1` limbs still determine the remainder, and at most `2 + delta`
//! subtractions of `n` finish the reduction. The correction loop is
//! bounded by [`MAX_BARRETT_CORRECTIONS`]; exceeding it (impossible for a
//! reciprocal built here, conceivable only for a damaged one) falls back to
//! one exact division, so the result is the true remainder
//! unconditionally. Larger values are folded in `(cap - m)`-limb chunks
//! from the top, each step staying under the capacity — the division-free
//! analog of short division.

use crate::natural::Natural;
use std::fmt;

/// Modulus size (limbs) at or below which the reciprocal is computed by one
/// direct division instead of Newton iteration — at these sizes Knuth
/// division is cheaper than the iteration bookkeeping.
const NEWTON_DIRECT_LIMBS: usize = 8;

/// Guard bits carried through each Newton step over the bits the step is
/// expected to get right; generous so the finished reciprocal sits within
/// [`MU_MAX_SLACK_ULPS`] of exact.
const NEWTON_GUARD_BITS: u64 = 32;

/// How far below the exact `floor(beta^cap / n)` a Newton-built reciprocal
/// may land, in ulps. The iteration only ever under-estimates (seed and
/// every truncation round toward zero; the subtracted term's operand
/// rounds up), and the 32 guard bits leave at most a few ulps unresolved —
/// 2 was the observed worst case across 240 random, all-ones-top and
/// power-of-two-top shapes of 9 to 1,500 limbs, 16 is that with headroom. Each ulp of slack costs one O(m) subtraction in the
/// Barrett correction loop, which is far cheaper than the full `mu * n`
/// product an exactness pass would need.
const MU_MAX_SLACK_ULPS: u32 = 16;

/// Upper bound on Barrett correction subtractions: the two the exact-`mu`
/// analysis allows plus one per ulp of reciprocal slack. Exceeding it is
/// impossible for reciprocals built by [`Reciprocal::with_capacity`];
/// reaching it (a damaged reciprocal) falls back to one exact division
/// instead of looping or returning a wrong remainder.
const MAX_BARRETT_CORRECTIONS: u32 = 2 + MU_MAX_SLACK_ULPS;

/// Why a reciprocal could not be built or applied. Misuse (a zero modulus,
/// or pairing a reciprocal with a different modulus than it was built for)
/// is a typed error, not a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecipError {
    /// The modulus was zero — no reciprocal exists.
    ZeroModulus,
    /// The reciprocal was built for a different modulus than the one it
    /// was applied to (sizes bound at construction time disagree).
    ModulusMismatch {
        /// Bit length of the modulus the reciprocal was built for.
        expected_bits: u64,
        /// Bit length of the modulus it was applied to.
        found_bits: u64,
    },
}

impl fmt::Display for RecipError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecipError::ZeroModulus => write!(f, "reciprocal of zero modulus"),
            RecipError::ModulusMismatch {
                expected_bits,
                found_bits,
            } => write!(
                f,
                "reciprocal built for a {expected_bits}-bit modulus applied to a \
                 {found_bits}-bit one"
            ),
        }
    }
}

impl std::error::Error for RecipError {}

/// A precomputed fixed-point reciprocal `mu` of one modulus `n` — equal to
/// `floor(beta^cap / n)` up to `MU_MAX_SLACK_ULPS` of one-sided
/// under-estimate — sized to reduce dividends below `beta^cap` in a single
/// Barrett step. The modulus itself is not stored (the caller owns it);
/// its limb and bit lengths are, so a mismatched pairing is caught as
/// [`RecipError::ModulusMismatch`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Reciprocal {
    /// `floor(beta^cap / n)`, up to the permitted one-sided under-estimate.
    mu: Natural,
    /// `limb_len(n)`.
    m: usize,
    /// Dividend capacity in limbs: one Barrett step handles `x < beta^cap`.
    cap: usize,
    /// `bit_len(n)` — binds the reciprocal to its modulus.
    n_bits: u64,
}

/// `2^bits` as a [`Natural`], in an arena buffer.
fn pow2(bits: u64) -> Natural {
    let limb = (bits / 64) as usize;
    let mut limbs = crate::arena::take(limb + 1);
    limbs.resize(limb + 1, 0);
    limbs[limb] = 1 << (bits % 64);
    Natural::from_limbs(limbs)
}

/// `limbs += 1`, growing by a limb on carry.
fn increment(limbs: &mut Vec<u64>) {
    if limbs.is_empty() || crate::limb::add_assign_slice(limbs, &[1]) != 0 {
        limbs.push(1);
    }
}

/// `z << bits` in an arena buffer, also for `bits == 0`.
fn shl_pooled(z: &Natural, bits: u64) -> Natural {
    if bits == 0 {
        return crate::arena::clone_natural(z);
    }
    z.shl_bits(bits)
}

/// `floor(2^e / n)` by one exact division, every buffer recycled.
fn exact_inverse(e: u64, n: &Natural) -> Natural {
    let p = pow2(e);
    let (q, r) = p.div_rem(n);
    crate::arena::recycle(p);
    crate::arena::recycle(r);
    q
}

/// `a >> (64*k)` — the limbs above the low `k`, as a borrowed view.
#[inline]
fn high_limb_slice(a: &[u64], k: usize) -> &[u64] {
    if a.len() <= k {
        &[]
    } else {
        &a[k..]
    }
}

/// `floor(beta^cap / n)`, possibly under-estimated by at most 16 ulps
/// (`MU_MAX_SLACK_ULPS`), by Newton iteration on truncated operands. The
/// under-estimate is one-sided by construction — see the module docs for
/// why over-estimating would be unsound and why the slack is kept rather
/// than corrected away. Falls back to one exact direct division for small
/// moduli or near-unit quotients, where the iteration's bookkeeping costs
/// more than Knuth division.
///
/// Every intermediate comes from and goes back to the thread arena, so a
/// warmed pool runs the whole inversion without touching the heap: it
/// seeds the scaled remainder descent (`wk-batchgcd`'s `ProductTree`),
/// whose steady state the `zero_alloc` test pins.
///
/// # Panics
/// Panics if `n` is zero.
pub fn invert_newton(n: &Natural, cap: usize) -> Natural {
    assert!(!n.is_zero(), "inverse of zero");
    let m = n.limb_len();
    let e = 64 * cap as u64; // mu = floor(2^e / n)
    let t = n.bit_len();
    if m <= NEWTON_DIRECT_LIMBS || e < t + 128 {
        return exact_inverse(e, n);
    }

    // Seed from the top 64 bits of n (top bit set, by normalization):
    // z0 = floor(2^128 / (n1 + 1)) approximates 2^(t+64)/n from below with
    // absolute error <= 5 ulps (n1 >= 2^63 bounds the bracket width), i.e.
    // ~61 correct bits.
    let n1 = (n.limbs()[m - 1] << n.top_limb().leading_zeros())
        | n.limbs()[m - 2]
            .checked_shr(64 - n.top_limb().leading_zeros())
            .unwrap_or(0);
    let z0 = if n1 == u64::MAX {
        1u128 << 64
    } else {
        u128::MAX / (n1 as u128 + 1)
    };
    let mut z = {
        let mut limbs = crate::arena::take(2);
        limbs.extend([z0 as u64, (z0 >> 64) as u64]);
        Natural::from_limbs(limbs)
    };
    let mut g = t + 64; // z ~ 2^g / n
    let correct: u64 = 60;
    let mut c_prev = correct;
    let needed = e - t + 2; // significant bits of mu, plus slack

    // Precision ladder, built backwards from the target so the last step
    // runs from exactly half precision. Doubling forward instead can land
    // the second-to-last step arbitrarily close to `needed` (e.g. 87% of
    // it), making the final full-size multiply redo almost-converged work
    // — measured at ~2x the total build cost. Each rung satisfies
    // `rung <= 2 * previous - 4`, the same 4-bit truncation budget per
    // step as before: `prev = ceil(rung/2) + 2` gives
    // `2*prev - 4 = 2*ceil(rung/2) >= rung`. Rungs at least halve, so 64
    // slots hold any ladder.
    let mut ladder = [0u64; 64];
    let mut rungs = 0;
    let mut c = needed;
    while c > correct {
        ladder[rungs] = c;
        rungs += 1;
        c = c.div_ceil(2) + 2;
    }

    for &c_next in ladder[..rungs].iter().rev() {
        // Each step squares the relative error; budget 4 bits of it for
        // the truncations below. The working exponent saturates at the
        // target `e` (near-unit quotients get there with bits still to
        // earn); late rungs then run at constant exponent — the classical
        // fixed-precision Newton iteration — while the error squares down.
        let g_next = (t - 1 + c_next + NEWTON_GUARD_BITS).min(e);
        // Truncate n to the precision this step can use, rounding up so
        // the subtracted term over-estimates (keeps z' from overshooting).
        let h = t.min(c_next + NEWTON_GUARD_BITS);
        let sigma = t - h;
        let mut n_hat = crate::arena::clone_natural(n);
        if sigma > 0 {
            n_hat.shr_assign_bits(sigma);
            let carry = crate::limb::add_assign_slice(n_hat.vec_mut(), &[1]);
            if carry != 0 {
                n_hat.vec_mut().push(carry);
            }
        }
        // z' = 2^(g_next-g+1)*z - floor(z^2 * n_hat / 2^(2g - g_next - sigma))
        // approximates 2^g_next/n with the relative error squared. With the
        // residual d = z·n_hat − 2^(g−sigma) that is
        // z' = 2^(g_next−g)·z − floor(z·d / 2^down), and d is small: z has
        // `c_prev` correct bits, so |d| < 2^(g − sigma − c_prev + 4). Its
        // limbs [lo, hi) come from one middle product whose transform
        // covers n_hat, not the whole product, and the limbs below `lo`
        // would move the floor by less than one unit.
        debug_assert!(g_next >= g && 2 * g >= g_next + sigma);
        let down = 2 * g - g_next - sigma;
        let lo = (down.saturating_sub(z.bit_len() + 1) / 64) as usize;
        let hi = ((g - sigma - c_prev + 14).div_ceil(64) as usize).max(lo + 1);
        let len = hi - lo;
        let mut d = z.mul_middle(&n_hat, lo, len).into_limbs();
        crate::arena::recycle(n_hat);
        d.resize(len, 0);
        if let Some(bit) = (g - sigma).checked_sub(64 * lo as u64) {
            // 2^(g−sigma) inside the window: subtract it, modulo β^len.
            if let Some(window) = d.get_mut((bit / 64) as usize..).filter(|w| !w.is_empty()) {
                crate::limb::sub_assign_slice(window, &[1 << (bit % 64)]);
            }
        }
        // Two's complement over `len` limbs: the window holds
        // floor(d / β^lo), at most one unit low.
        let negative = d.last().is_some_and(|top| top >> 63 == 1);
        if negative {
            d.iter_mut().for_each(|l| *l = !*l);
            increment(&mut d);
        }
        let d = Natural::from_limbs(d);
        let mut correction = &z * &d;
        crate::arena::recycle(d);
        // floor(z·d / 2^down) by a shift, rounding away from zero for a
        // negative d.
        let shift = down - 64 * lo as u64;
        let inexact = correction
            .trailing_zeros()
            .is_some_and(|zeros| zeros < shift);
        correction.shr_assign_bits(shift);
        if negative && inexact {
            increment(correction.vec_mut());
        }
        let mut next = shl_pooled(&z, g_next - g);
        crate::arena::recycle(core::mem::replace(&mut z, Natural::zero()));
        if negative {
            next.add_assign_ref(&correction);
        } else if next < correction {
            // Unreachable for in-range errors; exact fallback keeps the
            // routine total without a panic path.
            crate::arena::recycle(next);
            crate::arena::recycle(correction);
            return exact_inverse(e, n);
        } else {
            next.sub_assign_ref(&correction);
        }
        crate::arena::recycle(correction);
        z = next;
        g = g_next;
        c_prev = c_next;
    }

    // z is now within a few ulps of floor(2^e/n) and is left approximate
    // (the exactness product `z * n` would dominate the whole build) — but
    // it must first be made one-sided. Each step computes a concave
    // function of the previous z whose maximum over all inputs is the true
    // 2^g/n (the Newton map touches its fixed point at its critical
    // point); the floored shift adds less than one, so every exact step
    // ends at most one ulp above the true value, however far off its input
    // was. The residual's dropped low limbs raise a step by at most one
    // more ulp. Subtracting those two ulps yields z <= floor(2^e/n)
    // unconditionally — the direction the Barrett remainder arithmetic
    // depends on.
    if z.limb_len() < 2 {
        // Unreachable (z is astronomically large here); exact fallback
        // keeps the routine total without a panic path.
        crate::arena::recycle(z);
        return exact_inverse(e, n);
    }
    crate::limb::sub_assign_slice(z.vec_mut(), &[2]);
    z.normalize();
    // One shape needs patching: when floor(2^e/n) is exactly the minimal
    // 2^(e-t) (n just below a power of two), the slack can drop z below
    // mu's guaranteed magnitude window, which the capacity maths relies
    // on. Clamping up to 2^(e-t) is always sound: floor(2^e/n) >= 2^(e-t)
    // for t-bit n. (The slack bound itself is pinned by the unit tests.)
    if z.bit_len() <= e - t {
        crate::arena::recycle(z);
        return pow2(e - t);
    }
    z
}

impl Reciprocal {
    /// Reciprocal with the default capacity `2m` (the classic HAC 14.42
    /// shape): one Barrett step reduces any `x < beta^(2m)`, larger values
    /// fold in `m`-limb chunks.
    ///
    /// # Errors
    /// [`RecipError::ZeroModulus`] if `n` is zero.
    pub fn new(n: &Natural) -> Result<Reciprocal, RecipError> {
        Reciprocal::with_capacity(n, 2 * n.limb_len())
    }

    /// Reciprocal sized for dividends below `beta^cap_limbs`: a caller that
    /// knows its values' bound sizes `mu` once and takes the single-step
    /// path on every reduction. The capacity is clamped to at least `m + 1`
    /// so `mu` always has at least one full limb of precision.
    ///
    /// # Errors
    /// [`RecipError::ZeroModulus`] if `n` is zero.
    pub fn with_capacity(n: &Natural, cap_limbs: usize) -> Result<Reciprocal, RecipError> {
        if n.is_zero() {
            return Err(RecipError::ZeroModulus);
        }
        let m = n.limb_len();
        let cap = cap_limbs.max(m + 1);
        Ok(Reciprocal {
            mu: invert_newton(n, cap),
            m,
            cap,
            n_bits: n.bit_len(),
        })
    }

    /// One generalized-Barrett step for `x < beta^cap`: two multiplies and
    /// at most `2 + MU_MAX_SLACK_ULPS` correction subtractions (see the
    /// module-level bound), writing the remainder into `out` (which may
    /// carry high zero limbs; callers normalize). Both product scratches
    /// come from the thread arena, so a warmed pool runs the step without
    /// heap allocation. A reciprocal so damaged that the correction bound
    /// is exceeded — impossible for ones built here — degrades to one
    /// exact division rather than a wrong remainder.
    fn step_into(&self, x: &[u64], n: &Natural, out: &mut Vec<u64>) {
        use crate::limb::{cmp_slices, effective_len, sub_assign_slice};
        use core::cmp::Ordering;
        debug_assert!(effective_len(x) <= self.cap);
        out.clear();
        if cmp_slices(x, n.limbs()) == Ordering::Less {
            out.extend_from_slice(x);
            return;
        }
        let m = self.m;
        // q_hat = floor(floor(x / beta^(m-1)) * mu / beta^(cap-m+1)).
        let q1 = high_limb_slice(x, m - 1);
        let mut t1 = crate::arena::take(q1.len() + self.mu.limb_len());
        crate::mul::mul_slices_into(q1, self.mu.limbs(), &mut t1);
        let q3 = high_limb_slice(&t1, self.cap - m + 1);
        // r = x - q_hat*n, computed mod beta^(m+1): the true value lies in
        // [0, (3 + slack) n) which is far below beta^(m+1), so the low
        // limbs determine it. The fixed-width subtraction ignoring the
        // final borrow IS the mod-beta^(m+1) arithmetic (a wrapped result
        // equals r1 + beta^k - r2).
        let k = m + 1;
        let mut t2 = crate::arena::take(q3.len() + m);
        crate::mul::mul_slices_into(q3, n.limbs(), &mut t2);
        out.extend_from_slice(&x[..k.min(x.len())]);
        out.resize(k, 0);
        let r2 = &t2[..k.min(t2.len())];
        let _wrap = sub_assign_slice(out, r2);
        crate::arena::put(t1);
        crate::arena::put(t2);
        let mut corrections = 0u32;
        while cmp_slices(out, n.limbs()) != Ordering::Less {
            if corrections == MAX_BARRETT_CORRECTIONS {
                let r = Natural::from_limb_slice(x).div_rem(n).1;
                let old = core::mem::replace(out, r.into_limbs());
                crate::arena::put(old);
                return;
            }
            let borrow = sub_assign_slice(out, n.limbs());
            debug_assert_eq!(borrow, 0);
            corrections += 1;
        }
    }
}

impl Natural {
    /// `self mod n` by Barrett reduction against a precomputed
    /// [`Reciprocal`] of `n`. The result is the exact remainder —
    /// byte-identical to [`Natural::div_rem`]'s — for any operand sizes:
    /// values at or below the reciprocal's capacity reduce in one step
    /// (two multiplies + at most two subtractions), larger values fold
    /// top-down in capacity-sized chunks.
    ///
    /// # Errors
    /// [`RecipError::ZeroModulus`] if `n` is zero;
    /// [`RecipError::ModulusMismatch`] if `recip` was built for a
    /// different modulus.
    pub fn barrett_rem(&self, n: &Natural, recip: &Reciprocal) -> Result<Natural, RecipError> {
        let mut out = Natural::from_limbs(crate::arena::take(recip.m + 1));
        self.barrett_rem_into(n, recip, &mut out)?;
        Ok(out)
    }

    /// [`barrett_rem`](Natural::barrett_rem) into a caller-provided value,
    /// reusing its backing storage; the allocating form is a thin wrapper
    /// over this kernel. With a warmed thread arena the reduction performs
    /// no heap allocation.
    ///
    /// # Errors
    /// Same conditions as [`barrett_rem`](Natural::barrett_rem); `out` is
    /// untouched on error.
    pub fn barrett_rem_into(
        &self,
        n: &Natural,
        recip: &Reciprocal,
        out: &mut Natural,
    ) -> Result<(), RecipError> {
        if n.is_zero() {
            return Err(RecipError::ZeroModulus);
        }
        if recip.m != n.limb_len() || recip.n_bits != n.bit_len() {
            return Err(RecipError::ModulusMismatch {
                expected_bits: recip.n_bits,
                found_bits: n.bit_len(),
            });
        }
        let buf = out.vec_mut();
        if self < n {
            buf.clear();
            buf.extend_from_slice(self.limbs());
            return Ok(());
        }
        if recip.m == 1 {
            buf.clear();
            buf.push(self.rem_limb(n.low_limb()));
            out.normalize();
            return Ok(());
        }
        if self.limb_len() <= recip.cap {
            recip.step_into(self.limbs(), n, buf);
            out.normalize();
            return Ok(());
        }
        // Fold from the top in chunks sized so every step stays under the
        // capacity: r < n < beta^m, so r * beta^take + chunk has at most
        // m + take <= cap limbs.
        let limbs = self.limbs();
        let take_per_step = recip.cap - recip.m;
        let mut pos = limbs.len() - recip.cap;
        recip.step_into(&limbs[pos..], n, buf);
        let mut window = crate::arena::take(recip.cap);
        while pos > 0 {
            let take = take_per_step.min(pos);
            pos -= take;
            // window = r * beta^take + limbs[pos..pos+take], assembled
            // without shifts: low limbs from the value, high from r.
            window.clear();
            window.extend_from_slice(&limbs[pos..pos + take]);
            window.extend_from_slice(crate::mul::trim(buf));
            recip.step_into(&window, n, buf);
        }
        crate::arena::put(window);
        out.normalize();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo(len: usize, seed: u64) -> Natural {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
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

    /// The Newton inverse itself, at the shapes the scaled remainder
    /// descent asks for (precision about the modulus' length, and twice
    /// it) and past the transform threshold of its residual middle
    /// product: never above `floor(2^e/n)`, never more than
    /// `MU_MAX_SLACK_ULPS` below.
    #[test]
    fn newton_inverse_is_one_sided_and_close() {
        for (m, seed) in [(9, 1), (40, 2), (170, 3), (333, 4), (700, 5), (1500, 6)] {
            let mut n = pseudo(m, seed);
            n.set_bit(64 * m as u64 - 1, true);
            for cap in [m + 3, 2 * m, 2 * m + 7, 3 * m + 1] {
                let z = invert_newton(&n, cap);
                let exact = &pow2(64 * cap as u64) / &n;
                let slack = exact.checked_sub(&z).expect("over-estimate");
                assert!(
                    slack
                        .to_u64()
                        .is_some_and(|s| s <= u64::from(MU_MAX_SLACK_ULPS)),
                    "slack {slack:?} at m={m} cap={cap}"
                );
            }
        }
    }

    /// mu must be exactly floor(beta^cap / n) — the direct-division path.
    fn check_mu_exact(n: &Natural, cap: usize) {
        let r = Reciprocal::with_capacity(n, cap).unwrap();
        let expect = &pow2(64 * r.cap as u64) / n;
        assert_eq!(
            r.mu,
            expect,
            "mu not exact for n={} limbs cap={cap}",
            n.limb_len()
        );
    }

    /// mu must never exceed floor(beta^cap / n) — the soundness direction —
    /// and must sit within MU_MAX_SLACK_ULPS below it.
    fn check_mu_slack(n: &Natural, cap: usize) {
        let r = Reciprocal::with_capacity(n, cap).unwrap();
        let exact = &pow2(64 * r.cap as u64) / n;
        let slack = exact.checked_sub(&r.mu).unwrap_or_else(|| {
            panic!(
                "mu over-estimates the reciprocal for n={} limbs cap={cap}",
                n.limb_len()
            )
        });
        assert!(
            slack
                .to_u64()
                .is_some_and(|s| s <= u64::from(MU_MAX_SLACK_ULPS)),
            "mu slack beyond bound for n={} limbs cap={cap}",
            n.limb_len()
        );
    }

    #[test]
    fn mu_exact_small_and_direct_path() {
        for (len, seed) in [(1, 1), (2, 2), (4, 3), (8, 4)] {
            check_mu_exact(&pseudo(len, seed), 2 * len);
        }
    }

    #[test]
    fn mu_bounded_newton_path() {
        for (len, seed) in [(9, 1), (16, 2), (33, 3), (64, 4), (150, 5), (300, 6)] {
            check_mu_slack(&pseudo(len, seed), 2 * len);
        }
    }

    #[test]
    fn mu_bounded_asymmetric_capacities() {
        let n = pseudo(40, 9);
        for cap in [41, 50, 80, 120, 200] {
            check_mu_slack(&n, cap);
        }
    }

    #[test]
    fn mu_bounded_adversarial_shapes() {
        // Powers of two (2^e divides evenly), all-ones, just below/above a
        // power of two: the shapes where floor corrections bite and where
        // the magnitude-window clamp (n just below a power of two) matters.
        let p = pow2(64 * 20);
        check_mu_slack(&p, 40);
        let ones = &pow2(64 * 20) - &Natural::one();
        check_mu_slack(&ones, 40);
        let above = &pow2(64 * 20 + 1) + &Natural::one();
        check_mu_slack(&above, 42);
        // Top limb minimal (1): worst normalization case.
        let mut low_top = pseudo(20, 7);
        let mut limbs = low_top.limbs().to_vec();
        limbs[19] = 1;
        low_top = Natural::from_limbs(limbs);
        check_mu_slack(&low_top, 40);
    }

    #[test]
    fn mu_bounded_saturated_exponent() {
        // Capacities barely past the direct-division cutoff (e - t just
        // over 128): the Newton exponent saturates at the target while
        // correct bits are still accruing, forcing constant-exponent
        // steps. Regression shape: a 16-limb modulus with a short top limb
        // and cap 18 once tripped the step-scheduling invariant.
        for (len, top_bits, cap, seed) in [
            (16usize, 59u64, 18usize, 1u64),
            (16, 1, 18, 2),
            (32, 33, 35, 3),
            (9, 64, 11, 4),
        ] {
            let mut limbs = pseudo(len, seed).limbs().to_vec();
            let keep = top_bits.clamp(1, 64);
            limbs[len - 1] = (limbs[len - 1] | (1 << (keep - 1))) & (u64::MAX >> (64 - keep));
            let n = Natural::from_limbs(limbs);
            check_mu_slack(&n, cap);
        }
    }

    #[test]
    fn mu_magnitude_window_holds_under_slack() {
        // floor(2^e/n) has e-t+1 bits (e-t+2 for a power of two); the clamp
        // in invert_newton must keep approximate reciprocals inside that
        // window even for moduli just below a power of two (exact mu
        // minimal).
        for (len, seed) in [(9, 3), (20, 5), (64, 8)] {
            let ones = &pow2(64 * len) - &Natural::one();
            let r = Reciprocal::with_capacity(&ones, 2 * len as usize).unwrap();
            let (e, t) = (64 * r.cap as u64, ones.bit_len());
            assert!((e - t + 1..=e - t + 2).contains(&r.mu.bit_len()));
            let x = pseudo(2 * len as usize, seed);
            assert_eq!(x.barrett_rem(&ones, &r).unwrap(), x.div_rem(&ones).1);
        }
    }

    #[test]
    fn barrett_matches_div_rem() {
        for (xl, nl, seed) in [
            (8, 4, 1),
            (20, 10, 2),
            (64, 32, 3),
            (100, 60, 4),
            (120, 49, 5),
            (200, 100, 6),
            (300, 129, 7), // divisor just above BZ_THRESHOLD
        ] {
            let x = pseudo(xl, seed);
            let n = pseudo(nl, seed + 50);
            let r = Reciprocal::new(&n).unwrap();
            assert_eq!(
                x.barrett_rem(&n, &r).unwrap(),
                x.div_rem(&n).1,
                "xl={xl} nl={nl}"
            );
        }
    }

    #[test]
    fn barrett_chunked_fold_matches_div_rem() {
        // Values far above the capacity exercise the folding loop.
        for (xl, nl, seed) in [(50, 5, 1), (200, 12, 2), (500, 32, 3), (333, 10, 4)] {
            let x = pseudo(xl, seed);
            let n = pseudo(nl, seed + 9);
            let r = Reciprocal::new(&n).unwrap();
            assert_eq!(
                x.barrett_rem(&n, &r).unwrap(),
                x.div_rem(&n).1,
                "xl={xl} nl={nl}"
            );
        }
    }

    #[test]
    fn barrett_single_limb_modulus() {
        let x = pseudo(30, 3);
        let n = Natural::from(0xdead_beef_u64);
        let r = Reciprocal::new(&n).unwrap();
        assert_eq!(x.barrett_rem(&n, &r).unwrap(), x.div_rem(&n).1);
    }

    #[test]
    fn barrett_knuth_add_back_shape() {
        // The dividend/divisor pair exercising Knuth's rare D6 add-back;
        // Barrett must agree with the division path on it.
        let x = &pow2(512) - &Natural::one();
        let n = &pow2(192) - &pow2(64);
        let r = Reciprocal::new(&n).unwrap();
        assert_eq!(x.barrett_rem(&n, &r).unwrap(), x.div_rem(&n).1);
    }

    #[test]
    fn barrett_boundary_values() {
        let n = pseudo(10, 42);
        let r = Reciprocal::new(&n).unwrap();
        // x < n, x == n, x == n+1, x just below beta^cap, multiples of n.
        let cases = [
            Natural::zero(),
            Natural::one(),
            &n - &Natural::one(),
            n.clone(),
            &n + &Natural::one(),
            &pow2(64 * 20) - &Natural::one(),
            &n * &pseudo(10, 7),
            &(&n * &pseudo(10, 8)) + &Natural::one(),
        ];
        for x in &cases {
            assert_eq!(x.barrett_rem(&n, &r).unwrap(), x.div_rem(&n).1);
        }
    }

    #[test]
    fn sized_capacity_single_step_matches() {
        // A tree-shaped use: modulus m limbs, values up to 4m limbs, one
        // reciprocal sized for the whole range.
        let n = pseudo(30, 11);
        let r = Reciprocal::with_capacity(&n, 120).unwrap();
        for (xl, seed) in [(31, 1), (60, 2), (90, 3), (120, 4)] {
            let x = pseudo(xl, seed);
            assert_eq!(x.barrett_rem(&n, &r).unwrap(), x.div_rem(&n).1, "xl={xl}");
        }
    }

    #[test]
    fn zero_modulus_is_typed_error() {
        assert_eq!(
            Reciprocal::new(&Natural::zero()).unwrap_err(),
            RecipError::ZeroModulus
        );
        let n = pseudo(4, 1);
        let r = Reciprocal::new(&n).unwrap();
        assert_eq!(
            Natural::one()
                .barrett_rem(&Natural::zero(), &r)
                .unwrap_err(),
            RecipError::ZeroModulus
        );
    }

    #[test]
    fn modulus_mismatch_is_typed_error() {
        let n = pseudo(6, 1);
        let other = pseudo(6, 2);
        let r = Reciprocal::new(&n).unwrap();
        let err = pseudo(12, 3).barrett_rem(&other, &r).unwrap_err();
        match err {
            RecipError::ModulusMismatch { .. } => {}
            e => panic!("expected ModulusMismatch, got {e:?}"),
        }
    }

    #[test]
    fn error_display() {
        assert!(RecipError::ZeroModulus.to_string().contains("zero"));
        let e = RecipError::ModulusMismatch {
            expected_bits: 100,
            found_bits: 99,
        };
        assert!(e.to_string().contains("100"));
    }
}
