//! Ed25519 signatures (RFC 8032), from scratch.
//!
//! This is the paper's `ED` digital-signature configuration: clients always
//! sign their requests with Ed25519 so byzantine primaries cannot forge
//! transactions, and in the `ED` mode of Figure 8 replicas sign with it too.
//!
//! Layout (the techniques follow Bernstein, Duif, Lange, Schwabe & Yang,
//! "High-speed high-security signatures", CHES 2011):
//! * [`Fe`] — field element of GF(2^255 − 19), five 51-bit limbs with lazy
//!   reduction: `add` never carries, every other operation ends in one
//!   carry pass, and each function states the limb bounds it admits and
//!   returns.
//! * [`Point`] — extended twisted-Edwards coordinates (X : Y : Z : T) with
//!   the Hisil–Wong–Carter–Dawson (ASIACRYPT 2008) formulas. Addends are
//!   kept in cached form `(Y+X, Y−X, 2Z, 2dT)`, doubling chains carry
//!   projective (X : Y : Z) points and skip T, and verification ends in a
//!   projective identity test, so it inverts nothing.
//! * scalars modulo the group order `L`: Barrett reduction of 512-bit
//!   values on 64-bit limbs.
//! * scalar multiplication: a static comb table for `[s]B`, and one
//!   interleaved (Straus) doubling chain over width-5 NAF digits for
//!   everything else, so each variable point needs 8 table entries.
//! * [`SigningKey`] / [`VerifyingKey`] / [`Signature`] — the public API;
//!   [`PreparedKey`] is a verifying key whose point is already decoded.
//!
//! Validated against the RFC 8032 test vectors in the unit tests.
//! Not constant time; see the crate-level security note.

use crate::sha2::Sha512;
use std::fmt;
use std::sync::OnceLock;

// ---------------------------------------------------------------------------
// Field arithmetic: GF(2^255 - 19), 5 limbs x 51 bits.
// ---------------------------------------------------------------------------

const MASK51: u64 = (1u64 << 51) - 1;

/// 16·p limb by limb: added before a subtraction so no limb underflows.
const P16: [u64; 5] = [16 * (MASK51 - 18), 16 * MASK51, 16 * MASK51, 16 * MASK51, 16 * MASK51];

/// Field element of GF(2^255 − 19): Σ limbᵢ·2^(51·i), not necessarily
/// reduced.
///
/// Limb bounds, in the terms every function below uses: *tight* means
/// every limb < 2^52. `from_bytes`, `carry`, `mul`, `square`, `sub` and
/// `neg` return tight elements; `mul` and `square` admit limbs < 2^54, so
/// the sum of up to four tight elements may be multiplied without a carry.
#[derive(Clone, Copy)]
pub(crate) struct Fe([u64; 5]);

/// The curve constant d = −121665/121666.
const EDWARDS_D: Fe =
    Fe([0x34dca135978a3, 0x1a8283b156ebd, 0x5e7a26001c029, 0x739c663a03cbb, 0x52036cee2b6ff]);

/// 2·d, the factor of T in every cached point.
const EDWARDS_D2: Fe =
    Fe([0x69b9426b2f159, 0x35050762add7a, 0x3cf44c0038052, 0x6738cc7407977, 0x2406d9dc56dff]);

impl Fe {
    const ZERO: Fe = Fe([0; 5]);
    const ONE: Fe = Fe([1, 0, 0, 0, 0]);

    /// Loads 255 little-endian bits (the top bit is ignored). Output limbs
    /// < 2^51.
    fn from_bytes(bytes: &[u8; 32]) -> Fe {
        let load = |b: &[u8]| -> u64 {
            u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
        };
        let l0 = load(&bytes[0..8]) & MASK51;
        let l1 = (load(&bytes[6..14]) >> 3) & MASK51;
        let l2 = (load(&bytes[12..20]) >> 6) & MASK51;
        let l3 = (load(&bytes[19..27]) >> 1) & MASK51;
        let l4 = (load(&bytes[24..32]) >> 12) & MASK51;
        Fe([l0, l1, l2, l3, l4])
    }

    /// The canonical encoding: the value reduced into [0, p). Admits any
    /// limbs.
    fn to_bytes(self) -> [u8; 32] {
        let h = self.reduce_full();
        let mut out = [0u8; 32];
        let mut acc: u128 = 0;
        let mut bit = 0usize;
        let mut idx = 0usize;
        for limb in h.0 {
            acc |= (limb as u128) << bit;
            bit += 51;
            while bit >= 8 {
                out[idx] = (acc & 0xff) as u8;
                acc >>= 8;
                bit -= 8;
                idx += 1;
            }
        }
        if idx < 32 {
            out[idx] = (acc & 0xff) as u8;
        }
        out
    }

    /// Fully reduces into [0, p). Admits any limbs; output limbs < 2^51.
    fn reduce_full(self) -> Fe {
        // After one carry pass the value h is below 2p, so h − p·q with
        // q = ⌊(h + 19) / 2^255⌋ ∈ {0, 1} is the canonical residue.
        let mut l = self.carry().0;
        let mut q = (l[0] + 19) >> 51;
        q = (l[1] + q) >> 51;
        q = (l[2] + q) >> 51;
        q = (l[3] + q) >> 51;
        q = (l[4] + q) >> 51;
        // h − q·p = h + 19q − q·2^255: add 19q, carry, drop bit 255.
        l[0] += 19 * q;
        l[1] += l[0] >> 51;
        l[0] &= MASK51;
        l[2] += l[1] >> 51;
        l[1] &= MASK51;
        l[3] += l[2] >> 51;
        l[2] &= MASK51;
        l[4] += l[3] >> 51;
        l[3] &= MASK51;
        l[4] &= MASK51;
        Fe(l)
    }

    /// One parallel carry pass. Admits any limbs; output is tight (limb 0
    /// < 2^51 + 19·2^13, the others < 2^51 + 2^13).
    fn carry(self) -> Fe {
        let l = self.0;
        Fe([
            (l[0] & MASK51) + (l[4] >> 51) * 19,
            (l[1] & MASK51) + (l[0] >> 51),
            (l[2] & MASK51) + (l[1] >> 51),
            (l[3] & MASK51) + (l[2] >> 51),
            (l[4] & MASK51) + (l[3] >> 51),
        ])
    }

    /// Limb-wise sum with no carry: the output limbs are the sums of the
    /// input limbs. Two tight inputs give limbs < 2^53, four < 2^54.
    fn add(self, rhs: Fe) -> Fe {
        let (a, b) = (self.0, rhs.0);
        Fe([a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3], a[4] + b[4]])
    }

    /// Difference, computed as (self + 16p) − rhs and carried once.
    /// Admits limbs < 2^54 on both sides; output is tight.
    fn sub(self, rhs: Fe) -> Fe {
        let (a, b) = (self.0, rhs.0);
        Fe([
            a[0] + P16[0] - b[0],
            a[1] + P16[1] - b[1],
            a[2] + P16[2] - b[2],
            a[3] + P16[3] - b[3],
            a[4] + P16[4] - b[4],
        ])
        .carry()
    }

    /// Negation. Admits limbs < 2^54; output is tight.
    fn neg(self) -> Fe {
        Fe::ZERO.sub(self)
    }

    /// Product. Admits limbs < 2^54 on both sides; output is tight.
    fn mul(self, rhs: Fe) -> Fe {
        let a = &self.0;
        let b = &rhs.0;
        let b1_19 = b[1] * 19;
        let b2_19 = b[2] * 19;
        let b3_19 = b[3] * 19;
        let b4_19 = b[4] * 19;

        let m = |x: u64, y: u64| -> u128 { (x as u128) * (y as u128) };

        let c0 = m(a[0], b[0]) + m(a[1], b4_19) + m(a[2], b3_19) + m(a[3], b2_19) + m(a[4], b1_19);
        let c1 = m(a[0], b[1]) + m(a[1], b[0]) + m(a[2], b4_19) + m(a[3], b3_19) + m(a[4], b2_19);
        let c2 = m(a[0], b[2]) + m(a[1], b[1]) + m(a[2], b[0]) + m(a[3], b4_19) + m(a[4], b3_19);
        let c3 = m(a[0], b[3]) + m(a[1], b[2]) + m(a[2], b[1]) + m(a[3], b[0]) + m(a[4], b4_19);
        let c4 = m(a[0], b[4]) + m(a[1], b[3]) + m(a[2], b[2]) + m(a[3], b[1]) + m(a[4], b[0]);

        Fe::carry_wide([c0, c1, c2, c3, c4])
    }

    /// Square: the 15 distinct limb products of `self.mul(self)`. Admits
    /// limbs < 2^54; output is tight.
    fn square(self) -> Fe {
        let a = &self.0;
        let a3_19 = a[3] * 19;
        let a4_19 = a[4] * 19;

        let m = |x: u64, y: u64| -> u128 { (x as u128) * (y as u128) };

        let c0 = m(a[0], a[0]) + 2 * (m(a[1], a4_19) + m(a[2], a3_19));
        let c1 = m(a[3], a3_19) + 2 * (m(a[0], a[1]) + m(a[2], a4_19));
        let c2 = m(a[1], a[1]) + 2 * (m(a[0], a[2]) + m(a[4], a3_19));
        let c3 = m(a[4], a4_19) + 2 * (m(a[0], a[3]) + m(a[1], a[2]));
        let c4 = m(a[2], a[2]) + 2 * (m(a[0], a[4]) + m(a[1], a[3]));

        Fe::carry_wide([c0, c1, c2, c3, c4])
    }

    /// One carry pass over the column sums of a product of inputs with
    /// limbs < 2^54: then every column is < 2^115, and the top column, the
    /// only one without a factor 19, is < 2^110.4, so its carry times 19
    /// still fits a u64 limb. Output is tight (limb 1 < 2^51 + 2^13, the
    /// others < 2^51).
    fn carry_wide(mut c: [u128; 5]) -> Fe {
        c[1] += c[0] >> 51;
        c[2] += c[1] >> 51;
        c[3] += c[2] >> 51;
        c[4] += c[3] >> 51;
        let top = (c[4] >> 51) as u64;
        let mut out = [
            c[0] as u64 & MASK51,
            c[1] as u64 & MASK51,
            c[2] as u64 & MASK51,
            c[3] as u64 & MASK51,
            c[4] as u64 & MASK51,
        ];
        out[0] += top * 19;
        out[1] += out[0] >> 51;
        out[0] &= MASK51;
        Fe(out)
    }

    /// `k` successive squarings.
    fn pow2k(self, k: u32) -> Fe {
        let mut t = self;
        for _ in 0..k {
            t = t.square();
        }
        t
    }

    /// Returns (self^(2^250 − 1), self^11), the common prefix of the
    /// inversion and square-root addition chains (curve25519 reference
    /// implementation).
    fn pow22501(self) -> (Fe, Fe) {
        let z2 = self.square();
        let z9 = self.mul(z2.pow2k(2));
        let z11 = z2.mul(z9);
        let z_5_0 = z9.mul(z11.square()); // 2^5 - 2^0
        let z_10_0 = z_5_0.pow2k(5).mul(z_5_0);
        let z_20_0 = z_10_0.pow2k(10).mul(z_10_0);
        let z_40_0 = z_20_0.pow2k(20).mul(z_20_0);
        let z_50_0 = z_40_0.pow2k(10).mul(z_10_0);
        let z_100_0 = z_50_0.pow2k(50).mul(z_50_0);
        let z_200_0 = z_100_0.pow2k(100).mul(z_100_0);
        let z_250_0 = z_200_0.pow2k(50).mul(z_50_0);
        (z_250_0, z11)
    }

    /// Raises to the power 2^255 − 21 (i.e. p − 2): the inverse.
    fn invert(self) -> Fe {
        let (z_250_0, z11) = self.pow22501();
        z_250_0.pow2k(5).mul(z11)
    }

    /// Raises to the power (p − 5) / 8 = 2^252 − 3; used for square roots.
    fn pow_p58(self) -> Fe {
        let (z_250_0, _) = self.pow22501();
        z_250_0.pow2k(2).mul(self)
    }

    fn is_zero(self) -> bool {
        self.to_bytes() == [0u8; 32]
    }

    fn is_negative(self) -> bool {
        self.to_bytes()[0] & 1 == 1
    }

    fn eq(self, other: Fe) -> bool {
        self.to_bytes() == other.to_bytes()
    }
}

fn fe_sqrt_m1() -> Fe {
    // sqrt(-1) = 2^((p-1)/4) mod p
    Fe::from_bytes(&[
        0xb0, 0xa0, 0x0e, 0x4a, 0x27, 0x1b, 0xee, 0xc4, 0x78, 0xe4, 0x2f, 0xad, 0x06, 0x18, 0x43,
        0x2f, 0xa7, 0xd7, 0xfb, 0x3d, 0x99, 0x00, 0x4d, 0x2b, 0x0b, 0xdf, 0xc1, 0x4f, 0x80, 0x24,
        0x83, 0x2b,
    ])
}

// ---------------------------------------------------------------------------
// Point arithmetic: extended twisted Edwards coordinates.
// ---------------------------------------------------------------------------

/// A curve point in extended coordinates (X : Y : Z : T), with x = X/Z,
/// y = Y/Z, and T = XY/Z. Coordinates are tight.
#[derive(Clone, Copy)]
pub(crate) struct Point {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

/// A point in projective coordinates (X : Y : Z): an extended point
/// without T, which is all a doubling needs. Coordinates are tight.
#[derive(Clone, Copy)]
struct ProjPoint {
    x: Fe,
    y: Fe,
    z: Fe,
}

/// The result of an addition or doubling before it is mapped back:
/// x = X/Z and y = Y/T. Three multiplications give a [`ProjPoint`], four
/// a [`Point`]. Coordinates have limbs < 2^53.
#[derive(Clone, Copy)]
struct Completed {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

/// A point prepared as an addend: (Y+X, Y−X, 2Z, 2dT). Adding it costs
/// four multiplications. Coordinates have limbs < 2^53.
#[derive(Clone, Copy)]
struct Cached {
    y_plus_x: Fe,
    y_minus_x: Fe,
    z2: Fe,
    t2d: Fe,
}

impl Point {
    fn identity() -> Point {
        Point { x: Fe::ZERO, y: Fe::ONE, z: Fe::ONE, t: Fe::ZERO }
    }

    fn to_proj(self) -> ProjPoint {
        ProjPoint { x: self.x, y: self.y, z: self.z }
    }

    fn to_cached(self) -> Cached {
        Cached {
            y_plus_x: self.y.add(self.x),
            y_minus_x: self.y.sub(self.x),
            z2: self.z.add(self.z),
            t2d: self.t.mul(EDWARDS_D2),
        }
    }

    /// Unified addition for a = −1 twisted Edwards (HWCD 2008 §3.1).
    fn add_cached(&self, q: &Cached) -> Completed {
        let pp = self.y.add(self.x).mul(q.y_plus_x);
        let mm = self.y.sub(self.x).mul(q.y_minus_x);
        let tt2d = self.t.mul(q.t2d);
        let zz2 = self.z.mul(q.z2);
        Completed { x: pp.sub(mm), y: pp.add(mm), z: zz2.add(tt2d), t: zz2.sub(tt2d) }
    }

    /// `self − q`: [`Point::add_cached`] with −q = (Y−X, Y+X, 2Z, −2dT).
    fn sub_cached(&self, q: &Cached) -> Completed {
        let pm = self.y.add(self.x).mul(q.y_minus_x);
        let mp = self.y.sub(self.x).mul(q.y_plus_x);
        let tt2d = self.t.mul(q.t2d);
        let zz2 = self.z.mul(q.z2);
        Completed { x: pm.sub(mp), y: pm.add(mp), z: zz2.sub(tt2d), t: zz2.add(tt2d) }
    }

    fn add(&self, other: &Point) -> Point {
        self.add_cached(&other.to_cached()).to_point()
    }

    fn double(&self) -> Point {
        self.to_proj().double().to_point()
    }

    fn neg(&self) -> Point {
        Point { x: self.x.neg(), y: self.y, z: self.z, t: self.t.neg() }
    }

    fn compress(&self) -> [u8; 32] {
        let zi = self.z.invert();
        let x = self.x.mul(zi);
        let y = self.y.mul(zi);
        let mut out = y.to_bytes();
        if x.is_negative() {
            out[31] |= 0x80;
        }
        out
    }

    /// Decompresses a point encoding; `None` if not on the curve.
    fn decompress(bytes: &[u8; 32]) -> Option<Point> {
        let sign = bytes[31] >> 7;
        let mut y_bytes = *bytes;
        y_bytes[31] &= 0x7f;
        let y = Fe::from_bytes(&y_bytes);
        // x^2 = (y^2 - 1) / (d y^2 + 1)
        let y2 = y.square();
        let u = y2.sub(Fe::ONE);
        let v = y2.mul(EDWARDS_D).add(Fe::ONE);
        // Candidate root: x = u v^3 (u v^7)^((p-5)/8)
        let v3 = v.square().mul(v);
        let v7 = v3.square().mul(v);
        let mut x = u.mul(v3).mul(u.mul(v7).pow_p58());
        let vx2 = v.mul(x.square());
        if !vx2.eq(u) {
            if vx2.eq(u.neg()) {
                x = x.mul(fe_sqrt_m1());
            } else {
                return None;
            }
        }
        if x.is_zero() && sign == 1 {
            // -0 is not a valid encoding.
            return None;
        }
        if x.is_negative() != (sign == 1) {
            x = x.neg();
        }
        Some(Point { x, y, z: Fe::ONE, t: x.mul(y) })
    }

    /// Projective identity test: (X : Y : Z) is the neutral element iff
    /// x = X/Z is 0 and y = Y/Z is 1, i.e. X = 0 and Y = Z. Avoids the
    /// field inversion a `compress()` comparison would cost.
    fn is_identity(&self) -> bool {
        self.x.is_zero() && self.y.eq(self.z)
    }
}

impl ProjPoint {
    const IDENTITY: ProjPoint = ProjPoint { x: Fe::ZERO, y: Fe::ONE, z: Fe::ONE };

    /// Doubling for a = −1 twisted Edwards (HWCD 2008 §3.3); T is neither
    /// read nor needed.
    fn double(&self) -> Completed {
        let xx = self.x.square();
        let yy = self.y.square();
        let zz = self.z.square();
        let zz2 = zz.add(zz);
        let xy_sq = self.x.add(self.y).square();
        let yy_plus_xx = yy.add(xx);
        let yy_minus_xx = yy.sub(xx);
        Completed {
            x: xy_sq.sub(yy_plus_xx),
            y: yy_plus_xx,
            z: yy_minus_xx,
            t: zz2.sub(yy_minus_xx),
        }
    }

    /// Back to extended coordinates: (XZ : YZ : Z² : XY).
    fn to_point(self) -> Point {
        Point {
            x: self.x.mul(self.z),
            y: self.y.mul(self.z),
            z: self.z.square(),
            t: self.x.mul(self.y),
        }
    }
}

impl Completed {
    fn to_proj(self) -> ProjPoint {
        ProjPoint { x: self.x.mul(self.t), y: self.y.mul(self.z), z: self.z.mul(self.t) }
    }

    fn to_point(self) -> Point {
        Point {
            x: self.x.mul(self.t),
            y: self.y.mul(self.z),
            z: self.z.mul(self.t),
            t: self.x.mul(self.y),
        }
    }
}

/// Multiplies a point by the curve cofactor 8 (three doublings, the first
/// two without T).
fn mul_by_cofactor(p: &Point) -> Point {
    p.to_proj().double().to_proj().double().to_proj().double().to_point()
}

// ---------------------------------------------------------------------------
// Scalar multiplication.
// ---------------------------------------------------------------------------

/// Extracts the `i`-th little-endian 4-bit window of a scalar.
#[inline]
fn nibble(s: &[u8; 32], i: usize) -> u8 {
    let byte = s[i / 2];
    if i % 2 == 1 {
        byte >> 4
    } else {
        byte & 0x0f
    }
}

/// Width-5 non-adjacent form of a 256-bit scalar: `s = Σ dᵢ·2ⁱ` with every
/// digit in {0, ±1, ±3, …, ±15} and at most one nonzero digit in any five
/// consecutive positions (≈ 1 in 6 on average). Position 256 holds the
/// final carry.
type Naf = [i8; 257];

fn naf5(s: &[u8; 32]) -> Naf {
    let x: [u64; 6] = limbs_from_le_bytes(s);
    let mut naf = [0i8; 257];
    let mut pos = 0;
    let mut carry = 0u64;
    while pos < naf.len() {
        let (idx, bit) = (pos / 64, pos % 64);
        let bits =
            if bit < 59 { x[idx] >> bit } else { (x[idx] >> bit) | (x[idx + 1] << (64 - bit)) };
        let window = carry + (bits & 31);
        if window & 1 == 0 {
            // An even window (including a carried-in 32) puts a zero here.
            pos += 1;
            continue;
        }
        if window < 16 {
            carry = 0;
            naf[pos] = window as i8;
        } else {
            carry = 1;
            naf[pos] = window as i8 - 32;
        }
        pos += 5;
    }
    naf
}

/// The odd multiples P, 3P, 5P, …, 15P in cached form: the table a
/// width-5 NAF digit indexes (digit d → entry |d| / 2).
struct OddMultiples([Cached; 8]);

impl OddMultiples {
    /// One doubling and seven additions.
    fn new(p: &Point) -> OddMultiples {
        let p2 = p.double().to_cached();
        let mut table = [p.to_cached(); 8];
        let mut acc = *p;
        for entry in table.iter_mut().skip(1) {
            acc = acc.add_cached(&p2).to_point();
            *entry = acc.to_cached();
        }
        OddMultiples(table)
    }
}

/// Interleaved (Straus) multi-scalar multiplication: computes
/// `Σ dᵢ · Pᵢ` for NAF digit strings `dᵢ` with **one shared doubling
/// chain**.
///
/// The loop performs one doubling per bit position — shared across *all*
/// terms and carried in projective form, without T — plus one cached
/// addition per nonzero digit, ≈ b/6 per b-bit scalar with width-5 digits.
/// For `m` terms of `b`-bit scalars the cost is `~b` doublings +
/// `m·(b/6 + 8)` additions (the 8 build each point's [`OddMultiples`]),
/// versus `m·(b + b/6 + 8)` point operations for `m` independent chains.
/// Leading all-zero positions are skipped, so 128-bit blinding
/// coefficients only pay for ≈ 129 positions.
fn straus(terms: &[(&Naf, &OddMultiples)]) -> Point {
    let top = terms.iter().filter_map(|(naf, _)| naf.iter().rposition(|&d| d != 0)).max();
    let Some(top) = top else {
        return Point::identity();
    };
    let mut acc = ProjPoint::IDENTITY;
    for i in (0..=top).rev() {
        let mut c = acc.double();
        for (naf, table) in terms {
            let d = naf[i];
            if d > 0 {
                c = c.to_point().add_cached(&table.0[(d / 2) as usize]);
            } else if d < 0 {
                c = c.to_point().sub_cached(&table.0[(-d / 2) as usize]);
            }
        }
        acc = c.to_proj();
    }
    acc.to_point()
}

fn base_point() -> &'static Point {
    static B: OnceLock<Point> = OnceLock::new();
    B.get_or_init(|| {
        // Standard compressed encoding of the base point (y = 4/5, x even).
        let mut enc = [0x66u8; 32];
        enc[0] = 0x58;
        Point::decompress(&enc).expect("base point decodes")
    })
}

/// The precomputed wide-window (comb) table for the base point `B`:
/// `table[i][j - 1] = j · 16^i · B` in cached form, for every 4-bit window
/// position `i < 64` and window value `j ∈ 1..=15`.
///
/// A generic scalar multiplication builds a window table and runs a
/// 255-step doubling chain on *every* call; for the fixed, globally known
/// point `B` that work can be hoisted into a static table computed once
/// per process (64 × 15 × 160 B = 150 KiB). [`base_mul`] then needs only
/// one table lookup and at most one point addition per nonzero nibble — no
/// doublings at all — which speeds up every signing operation. Row 0's
/// odd entries double as `B`'s [`OddMultiples`] in verification.
fn base_table() -> &'static [[Cached; 15]] {
    static TABLE: OnceLock<Vec<[Cached; 15]>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = Vec::with_capacity(64);
        let mut window_base = *base_point(); // 16^i · B
        for _ in 0..64 {
            let step = window_base.to_cached();
            let mut row = [step; 15];
            let mut acc = window_base;
            for entry in row.iter_mut().skip(1) {
                acc = acc.add_cached(&step).to_point();
                *entry = acc.to_cached();
            }
            // 16^(i+1) · B = 15·16^i·B + 16^i·B.
            window_base = acc.add_cached(&step).to_point();
            table.push(row);
        }
        table
    })
}

/// B, 3B, …, 15B: the odd entries of the comb table's first row.
fn base_odd_multiples() -> &'static OddMultiples {
    static ODD: OnceLock<OddMultiples> = OnceLock::new();
    ODD.get_or_init(|| {
        let row = &base_table()[0];
        OddMultiples(std::array::from_fn(|i| row[2 * i]))
    })
}

/// Fixed-base scalar multiplication `scalar · B` via the static comb
/// table: Σᵢ nibbleᵢ(scalar) · 16ⁱ · B, one addition per nonzero nibble.
pub(crate) fn base_mul(scalar: &[u8; 32]) -> Point {
    let mut acc = Point::identity();
    for (i, row) in base_table().iter().enumerate() {
        let n = nibble(scalar, i);
        if n != 0 {
            acc = acc.add_cached(&row[n as usize - 1]).to_point();
        }
    }
    acc
}

// ---------------------------------------------------------------------------
// Scalar arithmetic mod L = 2^252 + 27742317777372353535851937790883648493.
// ---------------------------------------------------------------------------

/// L as little-endian u64 limbs.
const L_LIMBS: [u64; 4] = [0x5812631a5cf5d3ed, 0x14def9dea2f79cd6, 0, 0x1000000000000000];

/// The Barrett constant ⌊2^512 / L⌋ (260 bits).
const BARRETT_MU: [u64; 5] =
    [0xed9ce5a30a2c131b, 0x2106215d086329a7, 0xffffffffffffffeb, 0xffffffffffffffff, 0xf];

fn limbs_from_le_bytes<const N: usize>(bytes: &[u8]) -> [u64; N] {
    let mut limbs = [0u64; N];
    for (limb, chunk) in limbs.iter_mut().zip(bytes.chunks_exact(8)) {
        *limb = u64::from_le_bytes(chunk.try_into().expect("8 bytes"));
    }
    limbs
}

/// `out = a · b mod 2^(64·out.len())`, schoolbook.
fn mul_limbs(a: &[u64], b: &[u64], out: &mut [u64]) {
    out.fill(0);
    for (i, &ai) in a.iter().enumerate() {
        let mut carry = 0u128;
        for (j, &bj) in b.iter().enumerate() {
            let Some(slot) = out.get_mut(i + j) else { break };
            let t = ai as u128 * bj as u128 + *slot as u128 + carry;
            *slot = t as u64;
            carry = t >> 64;
        }
        if let Some(slot) = out.get_mut(i + b.len()) {
            *slot = carry as u64;
        }
    }
}

/// `a − b mod 2^320`.
fn sub_limbs(a: &[u64; 5], b: &[u64; 5]) -> [u64; 5] {
    let mut out = [0u64; 5];
    let mut borrow = false;
    for i in 0..5 {
        let (d1, b1) = a[i].overflowing_sub(b[i]);
        let (d2, b2) = d1.overflowing_sub(borrow as u64);
        out[i] = d2;
        borrow = b1 | b2;
    }
    out
}

/// L padded to the 320 bits of a Barrett remainder.
const L_WIDE: [u64; 5] = [L_LIMBS[0], L_LIMBS[1], L_LIMBS[2], L_LIMBS[3], 0];

/// True if the 320-bit `r` is below L.
fn lt_l(r: &[u64; 5]) -> bool {
    for i in (0..5).rev() {
        if r[i] != L_WIDE[i] {
            return r[i] < L_WIDE[i];
        }
    }
    false
}

/// Barrett reduction (Menezes et al., HAC Alg. 14.42, base 2^64, k = 4) of
/// a 512-bit little-endian value modulo L.
fn reduce_limbs(x: &[u64; 8]) -> [u8; 32] {
    // q = ⌊⌊x / 2^192⌋ · μ / 2^320⌋ never exceeds x / L, and undershoots it
    // by less than 1 (the final floor) + 0.225 (μ's truncation, at most
    // 2^512 / L − μ) + 2^−60 (x's dropped low limbs) < 2. So r = x − q·L
    // lies in [0, 2L), fits the low 320 bits, and one conditional
    // subtraction finishes.
    let mut q_mu = [0u64; 10];
    mul_limbs(&x[3..], &BARRETT_MU, &mut q_mu);
    let mut q_l = [0u64; 5];
    mul_limbs(&q_mu[5..], &L_LIMBS, &mut q_l);
    let mut r = sub_limbs(x[..5].try_into().expect("5 limbs"), &q_l);
    if !lt_l(&r) {
        r = sub_limbs(&r, &L_WIDE);
    }
    debug_assert!(lt_l(&r), "Barrett remainder below L after one subtraction");
    let mut out = [0u8; 32];
    for (chunk, limb) in out.chunks_exact_mut(8).zip(r) {
        chunk.copy_from_slice(&limb.to_le_bytes());
    }
    out
}

/// Reduces a little-endian 512-bit value (a SHA-512 digest) modulo L.
fn reduce_mod_l(bytes: &[u8; 64]) -> [u8; 32] {
    reduce_limbs(&limbs_from_le_bytes(bytes))
}

/// Computes (a * b + c) mod L. Inputs are little-endian 32-byte values,
/// not necessarily reduced; a·b + c < 2^512 always holds.
fn sc_muladd(a: &[u8; 32], b: &[u8; 32], c: &[u8; 32]) -> [u8; 32] {
    let al: [u64; 4] = limbs_from_le_bytes(a);
    let bl: [u64; 4] = limbs_from_le_bytes(b);
    let cl: [u64; 8] = limbs_from_le_bytes(c);
    let mut x = [0u64; 8];
    mul_limbs(&al, &bl, &mut x);
    let mut carry = false;
    for (limb, c) in x.iter_mut().zip(cl) {
        let (s1, o1) = limb.overflowing_add(c);
        let (s2, o2) = s1.overflowing_add(carry as u64);
        *limb = s2;
        carry = o1 | o2;
    }
    reduce_limbs(&x)
}

/// True if `s` (little-endian) is in canonical range [0, L).
fn scalar_is_canonical(s: &[u8; 32]) -> bool {
    lt_l(&limbs_from_le_bytes(s))
}

// ---------------------------------------------------------------------------
// Public API.
// ---------------------------------------------------------------------------

/// Length of a public key in bytes.
pub const PUBLIC_KEY_LEN: usize = 32;
/// Length of a signature in bytes.
pub const SIGNATURE_LEN: usize = 64;
/// Length of a secret seed in bytes.
pub const SEED_LEN: usize = 32;

/// An Ed25519 signature (R ‖ S).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature(pub [u8; SIGNATURE_LEN]);

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Signature({}…)",
            self.0[..4].iter().map(|b| format!("{b:02x}")).collect::<String>()
        )
    }
}

impl Signature {
    /// Builds a signature from raw bytes.
    pub fn from_bytes(bytes: [u8; SIGNATURE_LEN]) -> Signature {
        Signature(bytes)
    }

    /// Raw byte view.
    pub fn as_bytes(&self) -> &[u8; SIGNATURE_LEN] {
        &self.0
    }
}

/// An Ed25519 verifying (public) key.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct VerifyingKey(pub [u8; PUBLIC_KEY_LEN]);

impl fmt::Debug for VerifyingKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "VerifyingKey({}…)",
            self.0[..4].iter().map(|b| format!("{b:02x}")).collect::<String>()
        )
    }
}

impl VerifyingKey {
    /// Builds a key from raw bytes.
    pub fn from_bytes(bytes: [u8; PUBLIC_KEY_LEN]) -> VerifyingKey {
        VerifyingKey(bytes)
    }

    /// Raw byte view.
    pub fn as_bytes(&self) -> &[u8; PUBLIC_KEY_LEN] {
        &self.0
    }

    /// Verifies `sig` over `msg`: decodes the key, then
    /// [`PreparedKey::verify`]. A key that does not decode verifies
    /// nothing.
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> bool {
        PreparedKey::new(*self).is_some_and(|key| key.verify(msg, sig))
    }
}

/// A verifying key together with its decoded curve point, so that
/// verification skips the key's decompression (a square root, as costly
/// as decoding the signature's R). Costs 160 B per key on top of the 32-byte
/// encoding. Key sets in a cluster are closed, so they are prepared once
/// at setup; [`SigningKey::prepared_key`] reuses the point key generation
/// already computed.
#[derive(Clone, Copy)]
pub struct PreparedKey {
    key: VerifyingKey,
    point: Point,
}

impl fmt::Debug for PreparedKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Prepared{:?}", self.key)
    }
}

impl PreparedKey {
    /// Decodes `key`; `None` if it is not a curve point.
    pub fn new(key: VerifyingKey) -> Option<PreparedKey> {
        Point::decompress(&key.0).map(|point| PreparedKey { key, point })
    }

    /// The encoded key.
    pub fn key(&self) -> &VerifyingKey {
        &self.key
    }

    /// Verifies `sig` over `msg`.
    ///
    /// Uses the **cofactored** equation `8·S·B = 8·R + 8·k·A` with
    /// canonical-S rejection (malleability defence). Cofactored
    /// verification is the consensus-safe choice (the ZIP-215
    /// direction): it accepts exactly the same signature set as
    /// [`verify_batch`] — except with probability 2⁻¹²⁸ — so every
    /// replica reaches the same verdict on every signature regardless of
    /// which path checked it. A cofactor*less* serial check would
    /// disagree with any batch verifier on adversarial signatures whose
    /// error term is a small-order point, making e.g. certificate
    /// validity nondeterministic across replicas. All honestly generated
    /// signatures verify identically under both conventions.
    ///
    /// `[s]B − [k]A` is one Straus chain (`B`'s odd multiples come from
    /// the comb table), and the check `8·([s]B − [k]A − R) = 𝒪` is
    /// projective, so no field inversion is needed.
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> bool {
        let Some((r, s, k)) = parse_signature(msg, &self.key, sig) else {
            return false;
        };
        let minus_a = OddMultiples::new(&self.point.neg());
        let sb_minus_ka = straus(&[(&naf5(&s), base_odd_multiples()), (&naf5(&k), &minus_a)]);
        mul_by_cofactor(&sb_minus_ka.add(&r.neg())).is_identity()
    }
}

/// Splits `sig` into (R, S, k = H(R ‖ A ‖ M) mod L); `None` if S is not
/// canonical or R does not decode.
fn parse_signature(
    msg: &[u8],
    key: &VerifyingKey,
    sig: &Signature,
) -> Option<(Point, [u8; 32], [u8; 32])> {
    let r_bytes: [u8; 32] = sig.0[..32].try_into().expect("split");
    let s_bytes: [u8; 32] = sig.0[32..].try_into().expect("split");
    if !scalar_is_canonical(&s_bytes) {
        return None;
    }
    let r = Point::decompress(&r_bytes)?;
    let mut h = Sha512::new();
    h.update(&r_bytes);
    h.update(&key.0);
    h.update(msg);
    Some((r, s_bytes, reduce_mod_l(&h.finalize())))
}

// ---------------------------------------------------------------------------
// Batched verification.
// ---------------------------------------------------------------------------

/// One entry of a verification batch: message, alleged signer, signature.
pub type BatchItem<'a> = (&'a [u8], VerifyingKey, Signature);

/// Derives the 128-bit random blinding coefficients `zᵢ` for one batch.
///
/// The coefficients must be unpredictable to whoever chose the
/// signatures, otherwise a forger could craft two invalid signatures
/// whose errors cancel in the linear combination. They are derived by
/// hashing (a) a per-process secret nonce, (b) a monotonically increasing
/// call counter, and (c) a transcript digest binding every `(A, R, S, k)`
/// in the batch — so no caller-visible input determines them. This is the
/// deterministic-RNG construction used by several production Ed25519
/// batch verifiers; see the crate-level security note for the
/// side-channel caveats that apply to this whole crate.
fn batch_coefficients(transcript: &[u8; 64], n: usize) -> Vec<[u8; 32]> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static CALL_COUNTER: AtomicU64 = AtomicU64::new(0);
    static PROCESS_NONCE: OnceLock<[u8; 64]> = OnceLock::new();
    let nonce = PROCESS_NONCE.get_or_init(|| {
        let mut h = Sha512::new();
        h.update(b"poe-ed25519-batch-nonce/");
        let t = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos())
            .unwrap_or(0);
        h.update(&t.to_le_bytes());
        // ASLR juice: the address of a static differs across runs.
        h.update(&(&CALL_COUNTER as *const _ as usize).to_le_bytes());
        h.finalize()
    });
    let call = CALL_COUNTER.fetch_add(1, Ordering::Relaxed);
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let mut h = Sha512::new();
        h.update(nonce);
        h.update(&call.to_le_bytes());
        h.update(&(i as u64).to_le_bytes());
        h.update(transcript);
        let d = h.finalize();
        let mut z = [0u8; 32];
        z[..16].copy_from_slice(&d[..16]);
        if z.iter().all(|&b| b == 0) {
            z[0] = 1; // P[z = 0] = 2⁻¹²⁸; keep the term from vanishing.
        }
        out.push(z);
    }
    out
}

/// Verifies a batch of Ed25519 signatures at once, sharing the expensive
/// doubling chain across the whole batch. Decodes every key, then
/// [`verify_batch_prepared`]; a key that does not decode fails the batch.
pub fn verify_batch(items: &[BatchItem<'_>]) -> bool {
    let Some(keys) =
        items.iter().map(|(_, key, _)| PreparedKey::new(*key)).collect::<Option<Vec<_>>>()
    else {
        return false;
    };
    let prepared: Vec<(&[u8], &PreparedKey, Signature)> =
        items.iter().zip(&keys).map(|((msg, _, sig), key)| (*msg, key, *sig)).collect();
    verify_batch_prepared(&prepared)
}

/// [`verify_batch`] over keys whose points are already decoded.
///
/// Checks the **cofactored** random linear combination
/// `8·[(Σ zᵢ·Sᵢ)·B  −  Σ zᵢ·Rᵢ  −  Σ (zᵢ·kᵢ)·Aᵢ]  =  𝒪`
/// with independent 128-bit blinding coefficients `zᵢ`, evaluated as a
/// single interleaved multi-scalar multiplication ([`straus`]). Since each
/// honest signature satisfies `Sᵢ·B = Rᵢ + kᵢ·Aᵢ`, an all-valid batch
/// always passes; a batch containing any invalid signature fails except
/// with probability 2⁻¹²⁸ over the choice of `zᵢ`.
///
/// **Complexity.** Serial verification pays one ≈ 253-step doubling chain
/// per signature. The batch pays it *once*, plus per signature the
/// decompression of R, two 8-entry tables and ≈ 21 + 42 additions (the
/// 128-bit `zᵢ` and the 253-bit `zᵢ·kᵢ` in width-5 NAF). Measured on a
/// shared 2-core x86-64 VM, a batch of 10 with prepared keys took
/// ≈ 280 µs: ≈ 0.45× ten serial verifications (≈ 60 µs each) and ≈ 0.3×
/// the fixed-window, shift-subtract implementation this replaced
/// (≈ 940 µs); see `crates/bench/benches/crypto.rs`.
///
/// Returns `true` for the empty batch. On `false`, callers that need to
/// attribute blame should fall back to per-item [`PreparedKey::verify`].
///
/// **Agreement with serial verification.** Both this function and
/// [`PreparedKey::verify`] use the cofactored equation, so they accept
/// the same signature set (up to the 2⁻¹²⁸ blinding failure) even for
/// adversarial signatures whose error term is a small-order point. That
/// determinism matters: certificate validity must be objective across
/// replicas, and a cofactorless serial check would disagree with any
/// batch verifier on such inputs with probability ~1/2 per call.
pub fn verify_batch_prepared(items: &[(&[u8], &PreparedKey, Signature)]) -> bool {
    match items {
        [] => return true,
        [(msg, key, sig)] => return key.verify(msg, sig),
        _ => {}
    }
    // Parse and decompress every R first; reject malformed input.
    let mut parsed = Vec::with_capacity(items.len());
    let mut transcript = Sha512::new();
    for (msg, key, sig) in items {
        let Some((r, s, k)) = parse_signature(msg, &key.key, sig) else {
            return false;
        };
        transcript.update(&sig.0[..32]);
        transcript.update(&key.key.0);
        transcript.update(&s);
        transcript.update(&k);
        parsed.push((r, s, k));
    }
    let zs = batch_coefficients(&transcript.finalize(), items.len());

    // Every term negated except B's: (zᵢ, −Rᵢ), (zᵢ·kᵢ mod L, −Aᵢ), and
    // (Σ zᵢ·sᵢ mod L, B).
    let zero = [0u8; 32];
    let mut s_total = [0u8; 32];
    let mut nafs = Vec::with_capacity(2 * items.len() + 1);
    let mut tables = Vec::with_capacity(2 * items.len());
    for (((r, s, k), z), (_, key, _)) in parsed.iter().zip(&zs).zip(items) {
        s_total = sc_muladd(z, s, &s_total);
        nafs.push(naf5(z));
        tables.push(OddMultiples::new(&r.neg()));
        nafs.push(naf5(&sc_muladd(z, k, &zero)));
        tables.push(OddMultiples::new(&key.point.neg()));
    }
    nafs.push(naf5(&s_total));
    let terms: Vec<(&Naf, &OddMultiples)> =
        nafs.iter().zip(tables.iter().chain([base_odd_multiples()])).collect();
    mul_by_cofactor(&straus(&terms)).is_identity()
}

/// An Ed25519 signing (secret) key, expanded from a 32-byte seed.
#[derive(Clone)]
pub struct SigningKey {
    seed: [u8; SEED_LEN],
    scalar: [u8; 32],
    prefix: [u8; 32],
    public: VerifyingKey,
    public_point: Point,
}

impl fmt::Debug for SigningKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SigningKey(pub={:?})", self.public)
    }
}

impl SigningKey {
    /// Derives the key pair from a 32-byte seed (RFC 8032 §5.1.5).
    pub fn from_seed(seed: &[u8; SEED_LEN]) -> SigningKey {
        let h = {
            let mut hh = Sha512::new();
            hh.update(seed);
            hh.finalize()
        };
        let mut scalar: [u8; 32] = h[..32].try_into().expect("split");
        scalar[0] &= 248;
        scalar[31] &= 127;
        scalar[31] |= 64;
        let prefix: [u8; 32] = h[32..].try_into().expect("split");
        let public_point = base_mul(&scalar);
        let public = VerifyingKey(public_point.compress());
        SigningKey { seed: *seed, scalar, prefix, public, public_point }
    }

    /// Deterministically derives a signing key from an arbitrary label
    /// (used by test/cluster setup to give each replica a key).
    pub fn from_label(label: &[u8]) -> SigningKey {
        let mut h = Sha512::new();
        h.update(b"poe-ed25519-keygen/");
        h.update(label);
        let d = h.finalize();
        let seed: [u8; 32] = d[..32].try_into().expect("split");
        SigningKey::from_seed(&seed)
    }

    /// The public half.
    pub fn verifying_key(&self) -> VerifyingKey {
        self.public
    }

    /// The public half with its point, which key generation computed
    /// anyway: no decompression.
    pub fn prepared_key(&self) -> PreparedKey {
        PreparedKey { key: self.public, point: self.public_point }
    }

    /// The original seed.
    pub fn seed(&self) -> &[u8; SEED_LEN] {
        &self.seed
    }

    /// Signs `msg` (RFC 8032 §5.1.6).
    pub fn sign(&self, msg: &[u8]) -> Signature {
        let r_scalar = {
            let mut h = Sha512::new();
            h.update(&self.prefix);
            h.update(msg);
            reduce_mod_l(&h.finalize())
        };
        let r_point = base_mul(&r_scalar);
        let r_bytes = r_point.compress();
        let k = {
            let mut h = Sha512::new();
            h.update(&r_bytes);
            h.update(&self.public.0);
            h.update(msg);
            reduce_mod_l(&h.finalize())
        };
        let s = sc_muladd(&k, &self.scalar, &r_scalar);
        let mut sig = [0u8; SIGNATURE_LEN];
        sig[..32].copy_from_slice(&r_bytes);
        sig[32..].copy_from_slice(&s);
        Signature(sig)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from_hex(s: &str) -> Vec<u8> {
        (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
    }

    fn seed(hex: &str) -> [u8; 32] {
        from_hex(hex).try_into().unwrap()
    }

    // RFC 8032 §7.1 TEST 1.
    #[test]
    fn rfc8032_test1_empty_message() {
        let sk = SigningKey::from_seed(&seed(
            "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
        ));
        assert_eq!(
            sk.verifying_key().as_bytes().to_vec(),
            from_hex("d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a")
        );
        let sig = sk.sign(b"");
        assert_eq!(
            sig.as_bytes().to_vec(),
            from_hex(
                "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155\
                 5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"
            )
        );
        assert!(sk.verifying_key().verify(b"", &sig));
    }

    // RFC 8032 §7.1 TEST 2.
    #[test]
    fn rfc8032_test2_one_byte() {
        let sk = SigningKey::from_seed(&seed(
            "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
        ));
        assert_eq!(
            sk.verifying_key().as_bytes().to_vec(),
            from_hex("3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c")
        );
        let msg = [0x72u8];
        let sig = sk.sign(&msg);
        assert_eq!(
            sig.as_bytes().to_vec(),
            from_hex(
                "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da\
                 085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"
            )
        );
        assert!(sk.verifying_key().verify(&msg, &sig));
    }

    // RFC 8032 §7.1 TEST 3.
    #[test]
    fn rfc8032_test3_two_bytes() {
        let sk = SigningKey::from_seed(&seed(
            "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
        ));
        assert_eq!(
            sk.verifying_key().as_bytes().to_vec(),
            from_hex("fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025")
        );
        let msg = from_hex("af82");
        let sig = sk.sign(&msg);
        assert_eq!(
            sig.as_bytes().to_vec(),
            from_hex(
                "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac\
                 18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a"
            )
        );
        assert!(sk.verifying_key().verify(&msg, &sig));
    }

    // RFC 8032 §7.1 TEST 1024 (long message).
    #[test]
    fn rfc8032_test_1024_byte_message() {
        let sk = SigningKey::from_seed(&seed(
            "f5e5767cf153319517630f226876b86c8160cc583bc013744c6bf255f5cc0ee5",
        ));
        assert_eq!(
            sk.verifying_key().as_bytes().to_vec(),
            from_hex("278117fc144c72340f67d0f2316e8386ceffbf2b2428c9c51fef7c597f1d426e")
        );
        // The 1023-byte message from the RFC, constructed deterministically
        // is long; use a shortened self-consistency check instead plus the
        // known-signature prefix check for the first 64 bytes of the message.
        let msg: Vec<u8> = from_hex(
            "08b8b2b733424243760fe426a4b54908632110a66c2f6591eabd3345e3e4eb98\
             fa6e264bf09efe12ee50f8f54e9f77b1e355f6c50544e23fb1433ddf73be84d8\
             79de7c0046dc4996d9e773f4bc9efe5738829adb26c81b37c93a1b270b20329d\
             658675fc6ea534e0810a4432826bf58c941efb65d57a338bbd2e26640f89ffbc\
             1a858efcb8550ee3a5e1998bd177e93a7363c344fe6b199ee5d02e82d522c4fe\
             ba15452f80288a821a579116ec6dad2b3b310da903401aa62100ab5d1a36553e\
             06203b33890cc9b832f79ef80560ccb9a39ce767967ed628c6ad573cb116dbef\
             efd75499da96bd68a8a97b928a8bbc103b6621fcde2beca1231d206be6cd9ec7\
             aff6f6c94fcd7204ed3455c68c83f4a41da4af2b74ef5c53f1d8ac70bdcb7ed1\
             85ce81bd84359d44254d95629e9855a94a7c1958d1f8ada5d0532ed8a5aa3fb2\
             d17ba70eb6248e594e1a2297acbbb39d502f1a8c6eb6f1ce22b3de1a1f40cc24\
             554119a831a9aad6079cad88425de6bde1a9187ebb6092cf67bf2b13fd65f270\
             88d78b7e883c8759d2c4f5c65adb7553878ad575f9fad878e80a0c9ba63bcbcc\
             2732e69485bbc9c90bfbd62481d9089beccf80cfe2df16a2cf65bd92dd597b07\
             07e0917af48bbb75fed413d238f5555a7a569d80c3414a8d0859dc65a46128ba\
             b27af87a71314f318c782b23ebfe808b82b0ce26401d2e22f04d83d1255dc51a\
             ddd3b75a2b1ae0784504df543af8969be3ea7082ff7fc9888c144da2af58429e\
             c96031dbcad3dad9af0dcbaaaf268cb8fcffead94f3c7ca495e056a9b47acdb7\
             51fb73e666c6c655ade8297297d07ad1ba5e43f1bca32301651339e22904cc8c\
             42f58c30c04aafdb038dda0847dd988dcda6f3bfd15c4b4c4525004aa06eeff8\
             ca61783aacec57fb3d1f92b0fe2fd1a85f6724517b65e614ad6808d6f6ee34df\
             f7310fdc82aebfd904b01e1dc54b2927094b2db68d6f903b68401adebf5a7e08\
             d78ff4ef5d63653a65040cf9bfd4aca7984a74d37145986780fc0b16ac451649\
             de6188a7dbdf191f64b5fc5e2ab47b57f7f7276cd419c17a3ca8e1b939ae49e4\
             88acba6b965610b5480109c8b17b80e1b7b750dfc7598d5d5011fd2dcc5600a3\
             2ef5b52a1ecc820e308aa342721aac0943bf6686b64b2579376504ccc493d97e\
             6aed3fb0f9cd71a43dd497f01f17c0e2cb3797aa2a2f256656168e6c496afc5f\
             b93246f6b1116398a346f1a641f3b041e989f7914f90cc2c7fff357876e506b5\
             0d334ba77c225bc307ba537152f3f1610e4eafe595f6d9d90d11faa933a15ef1\
             369546868a7f3a45a96768d40fd9d03412c091c6315cf4fde7cb68606937380d\
             b2eaaa707b4c4185c32eddcdd306705e4dc1ffc872eeee475a64dfac86aba41c\
             0618983f8741c5ef68d3a101e8a3b8cac60c905c15fc910840b94c00a0b9d0",
        );
        let expect_sig = from_hex(
            "0aab4c900501b3e24d7cdf4663326a3a87df5e4843b2cbdb67cbf6e460fec350\
             aa5371b1508f9f4528ecea23c436d94b5e8fcd4f681e30a6ac00a9704a188a03",
        );
        let sig = sk.sign(&msg);
        assert_eq!(sig.as_bytes().to_vec(), expect_sig);
        assert!(sk.verifying_key().verify(&msg, &sig));
    }

    #[test]
    fn tampered_message_rejected() {
        let sk = SigningKey::from_label(b"replica-0");
        let sig = sk.sign(b"hello");
        assert!(sk.verifying_key().verify(b"hello", &sig));
        assert!(!sk.verifying_key().verify(b"hellp", &sig));
    }

    #[test]
    fn tampered_signature_rejected() {
        let sk = SigningKey::from_label(b"replica-1");
        let sig = sk.sign(b"payload");
        for i in [0usize, 31, 32, 63] {
            let mut bad = *sig.as_bytes();
            bad[i] ^= 0x01;
            assert!(
                !sk.verifying_key().verify(b"payload", &Signature::from_bytes(bad)),
                "flip at {i} accepted"
            );
        }
    }

    #[test]
    fn wrong_key_rejected() {
        let sk1 = SigningKey::from_label(b"a");
        let sk2 = SigningKey::from_label(b"b");
        let sig = sk1.sign(b"msg");
        assert!(!sk2.verifying_key().verify(b"msg", &sig));
    }

    #[test]
    fn non_canonical_s_rejected() {
        // Construct S = L (non-canonical encoding of 0 + L).
        let sk = SigningKey::from_label(b"c");
        let sig = sk.sign(b"msg");
        let mut forged = *sig.as_bytes();
        // Overwrite S with L itself (little endian).
        let l_bytes: [u8; 32] = {
            let mut b = [0u8; 32];
            for i in 0..32 {
                b[i] = (L_LIMBS[i / 8] >> ((i % 8) * 8)) as u8;
            }
            b
        };
        forged[32..].copy_from_slice(&l_bytes);
        assert!(!sk.verifying_key().verify(b"msg", &Signature::from_bytes(forged)));
    }

    #[test]
    fn from_label_is_deterministic_and_distinct() {
        let a1 = SigningKey::from_label(b"x");
        let a2 = SigningKey::from_label(b"x");
        let b = SigningKey::from_label(b"y");
        assert_eq!(a1.verifying_key(), a2.verifying_key());
        assert_ne!(a1.verifying_key(), b.verifying_key());
    }

    #[test]
    fn fe_d_matches_canonical_hex() {
        // d = 0x52036cee2b6ffe738cc740797779e89800700a4d4141d8ab75eb4dca135978a3
        let expect: Vec<u8> =
            from_hex("52036cee2b6ffe738cc740797779e89800700a4d4141d8ab75eb4dca135978a3")
                .into_iter()
                .rev()
                .collect();
        assert_eq!(fe_d().to_bytes().to_vec(), expect);
    }

    #[test]
    fn base_point_x_matches_canonical() {
        let b = base_point();
        let zi = b.z.invert();
        let x = b.x.mul(zi);
        let expect: [u8; 32] = [
            0x1a, 0xd5, 0x25, 0x8f, 0x60, 0x2d, 0x56, 0xc9, 0xb2, 0xa7, 0x25, 0x95, 0x60, 0xc7,
            0x2c, 0x69, 0x5c, 0xdc, 0xd6, 0xfd, 0x31, 0xe2, 0xa4, 0xc0, 0xfe, 0x53, 0x6e, 0xcd,
            0xd3, 0x36, 0x69, 0x21,
        ];
        assert_eq!(x.to_bytes(), expect);
    }

    #[test]
    fn double_matches_add() {
        let b = base_point();
        assert_eq!(b.double().compress(), b.add(b).compress());
    }

    #[test]
    fn field_invert_roundtrip() {
        let x = Fe::from_bytes(&[7u8; 32]);
        let xi = x.invert();
        assert!(x.mul(xi).eq(Fe::ONE));
    }

    #[test]
    fn sqrt_m1_squares_to_minus_one() {
        let i = fe_sqrt_m1();
        assert!(i.square().eq(Fe::ONE.neg()));
    }

    #[test]
    fn base_point_has_order_l() {
        // L * B = identity.
        let mut l_bytes = [0u8; 32];
        for i in 0..32 {
            l_bytes[i] = (L_LIMBS[i / 8] >> ((i % 8) * 8)) as u8;
        }
        let p = base_point().scalar_mul(&l_bytes);
        assert_eq!(p.compress(), Point::identity().compress());
    }

    #[test]
    fn point_add_neg_is_identity() {
        let b = base_point();
        let sum = b.add(&b.neg());
        assert_eq!(sum.compress(), Point::identity().compress());
    }

    #[test]
    fn scalar_mul_matches_repeated_add() {
        let b = base_point();
        let mut acc = Point::identity();
        for _ in 0..17 {
            acc = acc.add(b);
        }
        let mut k = [0u8; 32];
        k[0] = 17;
        assert_eq!(b.scalar_mul(&k).compress(), acc.compress());
    }

    #[test]
    fn reduce_mod_l_small_values_unchanged() {
        let mut v = [0u8; 64];
        v[0] = 42;
        let r = reduce_mod_l(&v);
        assert_eq!(r[0], 42);
        assert!(r[1..].iter().all(|&b| b == 0));
    }

    #[test]
    fn reduce_mod_l_l_is_zero() {
        let mut v = [0u8; 64];
        for i in 0..32 {
            v[i] = (L_LIMBS[i / 8] >> ((i % 8) * 8)) as u8;
        }
        let r = reduce_mod_l(&v);
        assert_eq!(r, [0u8; 32]);
    }

    // ------------------------------------------------------ batch verify

    /// Deterministic pseudo-random byte strings for batch tests.
    fn prng_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        let mut x = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        while out.len() < len {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            out.extend_from_slice(&x.to_le_bytes());
        }
        out.truncate(len);
        out
    }

    fn sample_batch(n: usize, seed: u64) -> (Vec<Vec<u8>>, Vec<(VerifyingKey, Signature)>) {
        let msgs: Vec<Vec<u8>> =
            (0..n).map(|i| prng_bytes(seed ^ i as u64, 32 + (i % 64))).collect();
        let sigs = msgs
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let sk = SigningKey::from_label(format!("batch-{seed}-{i}").as_bytes());
                (sk.verifying_key(), sk.sign(m))
            })
            .collect();
        (msgs, sigs)
    }

    fn as_items<'a>(msgs: &'a [Vec<u8>], sigs: &[(VerifyingKey, Signature)]) -> Vec<BatchItem<'a>> {
        msgs.iter().zip(sigs).map(|(m, (pk, sig))| (m.as_slice(), *pk, *sig)).collect()
    }

    #[test]
    fn batch_accepts_all_valid() {
        for n in [0usize, 1, 2, 3, 16, 64] {
            let (msgs, sigs) = sample_batch(n, 100 + n as u64);
            assert!(verify_batch(&as_items(&msgs, &sigs)), "n={n}");
        }
    }

    #[test]
    fn batch_rejects_single_forgery_at_any_position() {
        let n = 8;
        for bad in 0..n {
            let (msgs, mut sigs) = sample_batch(n, 7);
            let mut raw = *sigs[bad].1.as_bytes();
            raw[5] ^= 0x40; // corrupt R
            sigs[bad].1 = Signature::from_bytes(raw);
            assert!(!verify_batch(&as_items(&msgs, &sigs)), "forgery at {bad} accepted");
        }
    }

    #[test]
    fn batch_rejects_corrupted_s() {
        let (msgs, mut sigs) = sample_batch(16, 21);
        let mut raw = *sigs[9].1.as_bytes();
        raw[40] ^= 0x01; // corrupt S
        sigs[9].1 = Signature::from_bytes(raw);
        assert!(!verify_batch(&as_items(&msgs, &sigs)));
    }

    #[test]
    fn batch_rejects_swapped_messages() {
        let (mut msgs, sigs) = sample_batch(4, 3);
        msgs.swap(0, 3);
        assert!(!verify_batch(&as_items(&msgs, &sigs)));
    }

    #[test]
    fn batch_rejects_wrong_key() {
        let (msgs, mut sigs) = sample_batch(4, 11);
        sigs[2].0 = SigningKey::from_label(b"someone else").verifying_key();
        assert!(!verify_batch(&as_items(&msgs, &sigs)));
    }

    #[test]
    fn batch_rejects_non_canonical_s() {
        let (msgs, mut sigs) = sample_batch(3, 5);
        let mut raw = *sigs[1].1.as_bytes();
        for i in 0..32 {
            raw[32 + i] = (L_LIMBS[i / 8] >> ((i % 8) * 8)) as u8;
        }
        sigs[1].1 = Signature::from_bytes(raw);
        assert!(!verify_batch(&as_items(&msgs, &sigs)));
    }

    #[test]
    fn batch_rejects_invalid_point_encoding() {
        let (msgs, mut sigs) = sample_batch(3, 6);
        // A y-coordinate ≥ p with no valid x: all-ones is not on the curve.
        sigs[0].0 = VerifyingKey::from_bytes([0xffu8; 32]);
        assert!(!verify_batch(&as_items(&msgs, &sigs)));
    }

    #[test]
    fn batch_agrees_with_serial_on_randomized_inputs() {
        // Mix of valid and (sometimes) corrupted batches: the batch
        // verdict must match "all serial verifications pass".
        for trial in 0..12u64 {
            let n = 2 + (trial as usize % 6);
            let (msgs, mut sigs) = sample_batch(n, 1000 + trial);
            let corrupt = trial % 3 == 0;
            if corrupt {
                let victim = (trial as usize / 3) % n;
                let mut raw = *sigs[victim].1.as_bytes();
                raw[(trial as usize) % 64] ^= 1 << (trial % 8);
                sigs[victim].1 = Signature::from_bytes(raw);
            }
            let items = as_items(&msgs, &sigs);
            let serial_all = items.iter().all(|(m, pk, s)| pk.verify(m, s));
            assert_eq!(verify_batch(&items), serial_all, "trial {trial}");
        }
    }

    /// The order-2 torsion point (0, −1): its encoding is y = p − 1 with
    /// sign bit 0.
    fn order_two_point() -> Point {
        let mut enc = [0xffu8; 32];
        enc[0] = 0xec; // (2^255 - 19) - 1, little endian
        enc[31] = 0x7f;
        let t = Point::decompress(&enc).expect("order-2 point decodes");
        assert!(t.double().is_identity(), "sanity: T has order 2");
        t
    }

    /// Crafts a signature whose verification error is exactly the
    /// order-2 torsion point T: R' = rB + T, S = r + k·a. Cofactorless
    /// verification rejects it; cofactored accepts it. What matters for
    /// consensus is that serial and batch verification give the SAME
    /// verdict deterministically — under the pre-cofactored code, batch
    /// acceptance flipped per call with the random blinding coefficient.
    #[test]
    fn torsion_error_signature_serial_and_batch_agree_deterministically() {
        let sk = SigningKey::from_label(b"torsion");
        let msg = b"consensus-critical message";
        let t = order_two_point();
        // r from the usual nonce derivation (any scalar works).
        let r_scalar = {
            let mut h = Sha512::new();
            h.update(&sk.prefix);
            h.update(msg);
            reduce_mod_l(&h.finalize())
        };
        let r_bytes = base_point().scalar_mul(&r_scalar).add(&t).compress();
        let k = {
            let mut h = Sha512::new();
            h.update(&r_bytes);
            h.update(&sk.public.0);
            h.update(msg);
            reduce_mod_l(&h.finalize())
        };
        let s = sc_muladd(&k, &sk.scalar, &r_scalar);
        let mut raw = [0u8; SIGNATURE_LEN];
        raw[..32].copy_from_slice(&r_bytes);
        raw[32..].copy_from_slice(&s);
        let sig = Signature::from_bytes(raw);

        let serial = sk.public.verify(msg, &sig);
        assert!(serial, "cofactored serial verification accepts a pure-torsion error");
        // Batch verdict must equal the serial verdict on EVERY call
        // (fresh random blinding each time), alone and mixed into an
        // honest batch.
        let honest = SigningKey::from_label(b"honest");
        let honest_sig = honest.sign(msg);
        for _ in 0..20 {
            assert_eq!(verify_batch(&[(msg, sk.public, sig)]), serial);
            assert_eq!(
                verify_batch(&[(msg, honest.verifying_key(), honest_sig), (msg, sk.public, sig),]),
                serial,
                "mixed batch verdict must match serial"
            );
        }
    }

    #[test]
    fn base_mul_matches_generic_scalar_mul() {
        // Edge scalars plus pseudo-random ones: the static comb table
        // must agree with the generic windowed ladder everywhere.
        let mut scalars: Vec<[u8; 32]> = vec![[0u8; 32], [0xffu8; 32]];
        let mut one = [0u8; 32];
        one[0] = 1;
        scalars.push(one);
        let mut top = [0u8; 32];
        top[31] = 0xf0;
        scalars.push(top);
        for seed in 0..8u64 {
            let bytes = prng_bytes(seed.wrapping_mul(0x9e37), 32);
            scalars.push(bytes.try_into().unwrap());
        }
        for s in scalars {
            assert_eq!(
                base_mul(&s).compress(),
                base_point().scalar_mul(&s).compress(),
                "scalar {s:02x?}"
            );
        }
    }

    #[test]
    fn msm_matches_sum_of_scalar_muls() {
        let b = base_point();
        let p2 = b.double();
        let p3 = p2.add(b);
        let mut k1 = [0u8; 32];
        k1[0] = 200;
        k1[20] = 9;
        let mut k2 = [0u8; 32];
        k2[0] = 77;
        k2[31] = 3;
        let expect = p2.scalar_mul(&k1).add(&p3.scalar_mul(&k2));
        let got = multi_scalar_mul(&[(k1, p2), (k2, p3)]);
        assert_eq!(got.compress(), expect.compress());
    }

    #[test]
    fn msm_empty_and_zero_scalars() {
        assert!(multi_scalar_mul(&[]).is_identity());
        let z = [0u8; 32];
        assert!(multi_scalar_mul(&[(z, *base_point())]).is_identity());
    }

    #[test]
    fn is_identity_matches_compress() {
        assert!(Point::identity().is_identity());
        assert!(!base_point().is_identity());
        let sum = base_point().add(&base_point().neg());
        assert!(sum.is_identity());
    }

    #[test]
    fn sc_muladd_small() {
        // 3 * 4 + 5 = 17
        let mut a = [0u8; 32];
        a[0] = 3;
        let mut b = [0u8; 32];
        b[0] = 4;
        let mut c = [0u8; 32];
        c[0] = 5;
        let r = sc_muladd(&a, &b, &c);
        assert_eq!(r[0], 17);
        assert!(r[1..].iter().all(|&x| x == 0));
    }

    // ------------------------------------------------ reference routines
    //
    // The implementations the 51-bit-limb, Barrett and Straus code replaced,
    // kept as references for the differential tests below: a shift-subtract
    // bignum on nine 64-bit limbs, the curve constant d derived from its
    // definition, a fixed 4-bit-window scalar multiplication and the
    // two-chain serial verification that compared compressed points.

    const P_REF: [u64; 9] =
        [0xffffffffffffffed, u64::MAX, u64::MAX, 0x7fffffffffffffff, 0, 0, 0, 0, 0];

    fn l_ref() -> [u64; 9] {
        let mut l = [0u64; 9];
        l[..4].copy_from_slice(&L_LIMBS);
        l
    }

    fn ref_limbs(bytes: &[u8]) -> [u64; 9] {
        let mut limbs = [0u64; 9];
        for (i, b) in bytes.iter().enumerate() {
            limbs[i / 8] |= (*b as u64) << ((i % 8) * 8);
        }
        limbs
    }

    fn ref_to_bytes(x: &[u64; 9]) -> [u8; 32] {
        assert!(x[4..].iter().all(|&l| l == 0), "reference value exceeds 256 bits");
        let mut out = [0u8; 32];
        for i in 0..32 {
            out[i] = (x[i / 8] >> ((i % 8) * 8)) as u8;
        }
        out
    }

    fn ref_cmp(a: &[u64; 9], b: &[u64; 9]) -> std::cmp::Ordering {
        for i in (0..9).rev() {
            match a[i].cmp(&b[i]) {
                std::cmp::Ordering::Equal => continue,
                ord => return ord,
            }
        }
        std::cmp::Ordering::Equal
    }

    fn ref_sub(a: &mut [u64; 9], b: &[u64; 9]) {
        let mut borrow = 0u64;
        for i in 0..9 {
            let (d1, b1) = a[i].overflowing_sub(b[i]);
            let (d2, b2) = d1.overflowing_sub(borrow);
            a[i] = d2;
            borrow = (b1 | b2) as u64;
        }
    }

    fn ref_shl(a: &[u64; 9], shift: usize) -> [u64; 9] {
        let word = shift / 64;
        let bit = shift % 64;
        let mut out = [0u64; 9];
        for i in (0..9).rev() {
            if i >= word {
                let mut v = a[i - word] << bit;
                if bit > 0 && i > word {
                    v |= a[i - word - 1] >> (64 - bit);
                }
                out[i] = v;
            }
        }
        out
    }

    /// `x mod m` by shift-subtract division, for any 576-bit `x` and an
    /// `m` of exactly `m_bits` bits.
    fn ref_reduce(mut x: [u64; 9], m: &[u64; 9], m_bits: usize) -> [u64; 9] {
        for shift in (0..=(576 - m_bits)).rev() {
            let shifted = ref_shl(m, shift);
            if ref_cmp(&x, &shifted) != std::cmp::Ordering::Less {
                ref_sub(&mut x, &shifted);
            }
        }
        x
    }

    const ONE_REF: [u64; 9] = [1, 0, 0, 0, 0, 0, 0, 0, 0];

    fn ref_add(a: &[u64; 9], b: &[u64; 9]) -> [u64; 9] {
        ref_mul_add(a, &ONE_REF, b)
    }

    /// `a · b + c`, truncated to 576 bits (no test value comes close).
    fn ref_mul_add(a: &[u64; 9], b: &[u64; 9], c: &[u64; 9]) -> [u64; 9] {
        let mut wide = [0u128; 10];
        for i in 0..9 {
            for j in 0..9 - i {
                let p = (a[i] as u128) * (b[j] as u128);
                wide[i + j] += p & u64::MAX as u128;
                wide[i + j + 1] += p >> 64;
            }
        }
        let mut out = [0u64; 9];
        let mut carry = 0u128;
        for i in 0..9 {
            let v = wide[i] + c[i] as u128 + carry;
            out[i] = v as u64;
            carry = v >> 64;
        }
        out
    }

    fn reduce_mod_l_ref(bytes: &[u8]) -> [u8; 32] {
        ref_to_bytes(&ref_reduce(ref_limbs(bytes), &l_ref(), 253))
    }

    fn sc_muladd_ref(a: &[u8; 32], b: &[u8; 32], c: &[u8; 32]) -> [u8; 32] {
        let x = ref_mul_add(&ref_limbs(a), &ref_limbs(b), &ref_limbs(c));
        ref_to_bytes(&ref_reduce(x, &l_ref(), 253))
    }

    /// The exact value Σ limbᵢ·2^(51·i) of a field element, unreduced.
    fn fe_value(f: &Fe) -> [u64; 9] {
        let mut v = [0u64; 9];
        for (i, &limb) in f.0.iter().enumerate() {
            let mut term = [0u64; 9];
            term[0] = limb;
            v = ref_add(&v, &ref_shl(&term, 51 * i));
        }
        v
    }

    /// The canonical encoding of `v mod p`.
    fn fe_ref(v: &[u64; 9]) -> [u8; 32] {
        ref_to_bytes(&ref_reduce(*v, &P_REF, 255))
    }

    fn fe_d() -> Fe {
        // d = -121665/121666 mod p, computed from the definition.
        let mut n = [0u8; 32];
        n[..3].copy_from_slice(&[0x41, 0xdb, 0x01]); // 121665
        let mut m = [0u8; 32];
        m[..3].copy_from_slice(&[0x42, 0xdb, 0x01]); // 121666
        Fe::from_bytes(&n).neg().mul(Fe::from_bytes(&m).invert())
    }

    impl Point {
        /// Variable-time scalar multiplication with a fixed 4-bit window.
        fn scalar_mul(&self, scalar: &[u8; 32]) -> Point {
            // Precompute 0P..15P.
            let mut table = [Point::identity(); 16];
            table[1] = *self;
            for i in 2..16 {
                table[i] = table[i - 1].add(self);
            }
            let mut acc = Point::identity();
            // Process nibbles most-significant first.
            for i in (0..64).rev() {
                acc = acc.double().double().double().double();
                let n = nibble(scalar, i);
                if n != 0 {
                    acc = acc.add(&table[n as usize]);
                }
            }
            acc
        }
    }

    /// `Σ scalarᵢ · pointᵢ` through [`straus`], building every table.
    fn multi_scalar_mul(pairs: &[([u8; 32], Point)]) -> Point {
        let nafs: Vec<Naf> = pairs.iter().map(|(s, _)| naf5(s)).collect();
        let tables: Vec<OddMultiples> = pairs.iter().map(|(_, p)| OddMultiples::new(p)).collect();
        let terms: Vec<(&Naf, &OddMultiples)> = nafs.iter().zip(&tables).collect();
        straus(&terms)
    }

    /// Two independent scalar chains and a comparison of compressed
    /// (inverted) cofactored points.
    fn verify_ref(key: &VerifyingKey, msg: &[u8], sig: &Signature) -> bool {
        let Some(a) = Point::decompress(&key.0) else { return false };
        let Some((r, s, k)) = parse_signature(msg, key, sig) else { return false };
        let lhs = base_point().scalar_mul(&s);
        let rhs = r.add(&a.scalar_mul(&k));
        mul_by_cofactor(&lhs).compress() == mul_by_cofactor(&rhs).compress()
    }

    fn le_bytes<const N: usize>(limbs: &[u64]) -> [u8; N] {
        let mut out = [0u8; N];
        for (chunk, limb) in out.chunks_exact_mut(8).zip(limbs) {
            chunk.copy_from_slice(&limb.to_le_bytes());
        }
        out
    }

    // ------------------------------------------------ differential tests

    #[test]
    fn curve_constants_match_their_definition() {
        assert_eq!(EDWARDS_D.to_bytes(), fe_d().to_bytes());
        assert_eq!(EDWARDS_D2.to_bytes(), fe_d().add(fe_d()).to_bytes());
        assert_eq!(fe_value(&Fe(P16)), ref_mul_add(&P_REF, &ref_limbs(&[16]), &[0; 9]));
    }

    /// 0, L − 1, L, L + 1, 2^252, 2^512 − 1 (all `0xff`) as 64-byte values.
    fn scalar_edges() -> Vec<[u8; 64]> {
        let l = l_ref();
        let mut l_minus_1 = l;
        l_minus_1[0] -= 1;
        let mut l_plus_1 = l;
        l_plus_1[0] += 1;
        let mut two_252 = [0u64; 9];
        two_252[3] = 1 << 60;
        let mut edges: Vec<[u8; 64]> =
            [[0u64; 9], l_minus_1, l, l_plus_1, two_252].iter().map(|v| le_bytes(v)).collect();
        edges.push([0xff; 64]);
        edges
    }

    #[test]
    fn reduce_mod_l_matches_shift_subtract_reference() {
        for v in scalar_edges() {
            assert_eq!(reduce_mod_l(&v), reduce_mod_l_ref(&v), "edge {v:02x?}");
        }
        for seed in 0..10_000u64 {
            let v: [u8; 64] = prng_bytes(seed ^ 0x5eed_0001, 64).try_into().unwrap();
            assert_eq!(reduce_mod_l(&v), reduce_mod_l_ref(&v), "seed {seed}");
        }
    }

    #[test]
    fn sc_muladd_matches_reference() {
        // The 32-byte edges: 0, L − 1, L, L + 1, 2^252 and all-0xff.
        let edges: Vec<[u8; 32]> = scalar_edges()[..5]
            .iter()
            .map(|v| v[..32].try_into().unwrap())
            .chain([[0xff; 32]])
            .collect();
        for a in &edges {
            for b in &edges {
                for c in &edges {
                    assert_eq!(
                        sc_muladd(a, b, c),
                        sc_muladd_ref(a, b, c),
                        "{a:02x?} {b:02x?} {c:02x?}"
                    );
                }
            }
        }
        for seed in 0..10_000u64 {
            let v = prng_bytes(seed ^ 0x5eed_0002, 96);
            let (a, b, c) = (
                v[..32].try_into().unwrap(),
                v[32..64].try_into().unwrap(),
                v[64..].try_into().unwrap(),
            );
            assert_eq!(sc_muladd(&a, &b, &c), sc_muladd_ref(&a, &b, &c), "seed {seed}");
        }
    }

    fn max_limb(f: &Fe) -> u64 {
        *f.0.iter().max().unwrap()
    }

    /// Drives every field operation at the largest limbs its doc comment
    /// admits (and at mixed patterns below them) and compares the result
    /// with the bignum reference. Under debug overflow checks a wrong
    /// bound panics here instead of flipping a verdict in release.
    #[test]
    fn field_ops_at_their_documented_limb_bounds() {
        const TIGHT: u64 = (1 << 52) - 1;
        const MUL_IN: u64 = (1 << 54) - 1;
        let patterns = |max: u64| -> Vec<Fe> {
            let mut fes = vec![
                Fe([max; 5]),
                Fe([max, 0, max, 0, max]),
                Fe([0, max, 0, max, 0]),
                Fe([max, max - 1, 1, max, max >> 1]),
            ];
            for seed in 0..4u64 {
                let r = prng_bytes(seed ^ max, 40);
                fes.push(Fe(std::array::from_fn(|i| {
                    let v = u64::from_le_bytes(r[8 * i..8 * i + 8].try_into().unwrap());
                    max.checked_add(1).map_or(v, |m| v % m)
                })));
            }
            fes
        };
        let mul_ref = |a: &Fe, b: &Fe| fe_ref(&ref_mul_add(&fe_value(a), &fe_value(b), &[0; 9]));
        let tight = |f: Fe, op: &str| {
            assert!(max_limb(&f) <= TIGHT, "{op} output not tight: {:x?}", f.0);
            f
        };
        for a in patterns(MUL_IN) {
            for b in patterns(MUL_IN) {
                assert_eq!(tight(a.mul(b), "mul").to_bytes(), mul_ref(&a, &b));
                // (a + 16p) − b ≡ a − b: compare (a − b) + b with a.
                let d = tight(a.sub(b), "sub");
                assert_eq!(fe_ref(&ref_add(&fe_value(&d), &fe_value(&b))), fe_ref(&fe_value(&a)));
            }
            assert_eq!(tight(a.square(), "square").to_bytes(), mul_ref(&a, &a));
            let n = tight(a.neg(), "neg");
            assert_eq!(fe_ref(&ref_add(&fe_value(&n), &fe_value(&a))), [0u8; 32]);
            // invert and pow_p58 start with a square, so they admit the
            // same limbs; check the inverse by multiplying back.
            let inv = tight(a.invert(), "invert");
            let expect_one = if a.is_zero() { [0u8; 32] } else { Fe::ONE.to_bytes() };
            assert_eq!(mul_ref(&a, &inv), expect_one);
            tight(a.pow_p58(), "pow_p58");
        }
        // add is exact; two sums of two tight inputs are a valid mul input.
        for a in patterns(TIGHT) {
            for b in patterns(TIGHT) {
                let s = a.add(b);
                assert_eq!(fe_value(&s), ref_add(&fe_value(&a), &fe_value(&b)));
                let s4 = s.add(s);
                assert!(max_limb(&s4) <= MUL_IN);
                assert_eq!(s4.mul(s4).to_bytes(), mul_ref(&s4, &s4));
            }
        }
        // carry and to_bytes admit any limbs.
        for a in patterns(u64::MAX) {
            let c = tight(a.carry(), "carry");
            assert_eq!(c.to_bytes(), fe_ref(&fe_value(&a)));
            assert_eq!(a.to_bytes(), fe_ref(&fe_value(&a)));
        }
        // p itself and the values just around it encode canonically.
        let p = Fe([MASK51 - 18, MASK51, MASK51, MASK51, MASK51]);
        assert_eq!(p.to_bytes(), [0u8; 32]);
        assert_eq!(p.add(Fe::ONE).to_bytes(), Fe::ONE.to_bytes());
        assert_eq!(fe_ref(&fe_value(&p.sub(Fe::ONE))), fe_ref(&fe_value(&p.sub(Fe::ONE).carry())));
    }

    /// The point formulas feed each field operation only limbs it admits:
    /// run them on coordinates at the largest limbs their types allow
    /// (not curve points; the bounds do not depend on that).
    #[test]
    fn point_formulas_keep_their_limb_bounds() {
        const TIGHT: u64 = (1 << 52) - 1;
        const LOOSE: u64 = (1 << 53) - 1;
        let t = Fe([TIGHT; 5]);
        let l = Fe([LOOSE; 5]);
        let point = Point { x: t, y: t, z: t, t };
        let proj = ProjPoint { x: t, y: t, z: t };
        let completed = Completed { x: l, y: l, z: l, t: l };
        let cached = Cached { y_plus_x: l, y_minus_x: l, z2: l, t2d: l };
        let within = |fes: [Fe; 4], bound: u64| fes.iter().all(|f| max_limb(f) <= bound);
        let c = point.to_cached();
        assert!(within([c.y_plus_x, c.y_minus_x, c.z2, c.t2d], LOOSE));
        for c in [point.add_cached(&cached), point.sub_cached(&cached), proj.double()] {
            assert!(within([c.x, c.y, c.z, c.t], LOOSE));
        }
        let p = completed.to_proj();
        assert!(within([p.x, p.y, p.z, p.z], TIGHT));
        for p in [completed.to_point(), proj.to_point(), point.neg(), mul_by_cofactor(&point)] {
            assert!(within([p.x, p.y, p.z, p.t], TIGHT));
        }
    }

    #[test]
    fn naf_straus_matches_window_scalar_mul() {
        let mut scalars: Vec<[u8; 32]> = vec![[0u8; 32], [0xffu8; 32], [0x55u8; 32]];
        let mut top = [0u8; 32];
        top[31] = 0x80;
        scalars.push(top);
        scalars.push(ref_to_bytes(&l_ref()));
        for seed in 0..8u64 {
            scalars.push(prng_bytes(seed ^ 0x4a4f, 32).try_into().unwrap());
        }
        let b = base_point();
        let p = b.scalar_mul(&scalars[5]); // an arbitrary point
        let (tb, tp) = (OddMultiples::new(b), OddMultiples::new(&p));
        for s in &scalars {
            let naf = naf5(s);
            assert!(naf.iter().all(|d| d % 2 != 0 || *d == 0) && naf.iter().all(|d| d.abs() < 16));
            for w in naf.windows(5) {
                assert!(w.iter().filter(|d| **d != 0).count() <= 1, "{s:02x?}");
            }
            assert_eq!(straus(&[(&naf, &tb)]).compress(), b.scalar_mul(s).compress());
            let two = straus(&[(&naf, &tb), (&naf5(&scalars[6]), &tp)]);
            assert_eq!(two.compress(), b.scalar_mul(s).add(&p.scalar_mul(&scalars[6])).compress());
        }
        // B's table taken from the comb table equals a freshly built one.
        for (x, y) in base_odd_multiples().0.iter().zip(&tb.0) {
            for (u, v) in
                [(x.y_plus_x, y.y_plus_x), (x.y_minus_x, y.y_minus_x), (x.z2, y.z2), (x.t2d, y.t2d)]
            {
                // Cached entries are projective: compare u·2Z' with v·2Z.
                assert!(u.mul(y.z2).eq(v.mul(x.z2)));
            }
        }
    }

    #[test]
    fn prepared_key_is_the_decoded_key() {
        for i in 0..8u8 {
            let sk = SigningKey::from_label(&[b'p', i]);
            let prepared = sk.prepared_key();
            let decoded = PreparedKey::new(sk.verifying_key()).expect("decodes");
            assert_eq!(prepared.key(), decoded.key());
            assert_eq!(prepared.point.compress(), decoded.point.compress());
            let msg = [i; 40];
            let sig = sk.sign(&msg);
            assert!(prepared.verify(&msg, &sig) && decoded.verify(&msg, &sig));
        }
        // y = 2 has no x on the curve, so the key decodes to nothing and
        // every path rejects it. ([0xff; 32] is y = 18, a curve point.)
        let mut off_curve = [0u8; 32];
        off_curve[0] = 2;
        let bad = VerifyingKey::from_bytes(off_curve);
        assert!(PreparedKey::new(bad).is_none());
        let sk = SigningKey::from_label(b"p");
        let sig = sk.sign(b"m");
        assert!(!bad.verify(b"m", &sig));
        assert!(!verify_batch(&[(b"m", sk.public, sig), (b"m", bad, sig)]));
    }

    /// The new serial path against the old two-chain algorithm, on valid,
    /// corrupted, torsion-shifted and non-canonical signatures.
    #[test]
    fn serial_verify_matches_reference_verify() {
        let sk = SigningKey::from_label(b"reference");
        let t = order_two_point();
        for i in 0..24u64 {
            let msg = prng_bytes(i, 16 + i as usize);
            let mut raw = *sk.sign(&msg).as_bytes();
            match i % 4 {
                0 => {}
                1 => raw[(i as usize * 7) % 64] ^= 1 << (i % 8),
                2 => {
                    // R' = rB + T with S = r + k'·a for k' = H(R' ‖ A ‖ M):
                    // a pure torsion error, which cofactored verification
                    // accepts.
                    let mut h = Sha512::new();
                    h.update(&sk.prefix);
                    h.update(&msg);
                    let r_scalar = reduce_mod_l(&h.finalize());
                    let r_bytes = base_mul(&r_scalar).add(&t).compress();
                    let mut h = Sha512::new();
                    h.update(&r_bytes);
                    h.update(&sk.public.0);
                    h.update(&msg);
                    let k = reduce_mod_l(&h.finalize());
                    raw[..32].copy_from_slice(&r_bytes);
                    raw[32..].copy_from_slice(&sc_muladd(&k, &sk.scalar, &r_scalar));
                }
                _ => raw[32..].copy_from_slice(&ref_to_bytes(&l_ref())),
            }
            let sig = Signature::from_bytes(raw);
            let expect = verify_ref(&sk.public, &msg, &sig);
            assert_eq!(sk.public.verify(&msg, &sig), expect, "case {i}");
            assert_eq!(sk.prepared_key().verify(&msg, &sig), expect, "case {i}");
        }
    }

    /// 2 000 seeded sign → verify round trips through serial `verify`,
    /// `verify_batch` at sizes 2, 3, 10 and 11 and the prepared-key batch;
    /// every fifth batch carries one corrupted signature, which every path
    /// must reject.
    #[test]
    fn agreement_sweep_serial_batch_prepared() {
        let keys: Vec<SigningKey> =
            (0..16u8).map(|i| SigningKey::from_label(&[b's', b'w', i])).collect();
        let prepared: Vec<PreparedKey> = keys.iter().map(SigningKey::prepared_key).collect();
        let msgs: Vec<Vec<u8>> =
            (0..2000u64).map(|i| prng_bytes(i ^ 0xa9, 8 + (i % 48) as usize)).collect();
        let mut sigs: Vec<Signature> =
            msgs.iter().enumerate().map(|(i, m)| keys[i % 16].sign(m)).collect();
        for (i, (m, sig)) in msgs.iter().zip(&sigs).enumerate() {
            assert!(keys[i % 16].public.verify(m, sig), "serial {i}");
        }
        let (mut start, mut batch_no) = (0, 0);
        while start < msgs.len() {
            let n = [2, 3, 10, 11][batch_no % 4].min(msgs.len() - start);
            let range = start..start + n;
            let corrupt = batch_no % 5 == 4;
            if corrupt {
                let victim = start + batch_no % n;
                let mut raw = *sigs[victim].as_bytes();
                raw[batch_no % 64] ^= 0x10;
                sigs[victim] = Signature::from_bytes(raw);
                assert!(!keys[victim % 16].public.verify(&msgs[victim], &sigs[victim]));
            }
            let items: Vec<BatchItem<'_>> =
                range.clone().map(|i| (msgs[i].as_slice(), keys[i % 16].public, sigs[i])).collect();
            let prepared_items: Vec<(&[u8], &PreparedKey, Signature)> =
                range.clone().map(|i| (msgs[i].as_slice(), &prepared[i % 16], sigs[i])).collect();
            assert_eq!(verify_batch(&items), !corrupt, "batch {batch_no}");
            assert_eq!(verify_batch_prepared(&prepared_items), !corrupt, "batch {batch_no}");
            start += n;
            batch_no += 1;
        }
    }
}
