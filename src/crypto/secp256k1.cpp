#include "crypto/secp256k1.hpp"

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "common/assert.hpp"
#include "common/error.hpp"
#include "crypto/hmac.hpp"

namespace dlt::crypto::secp256k1 {

namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

// Curve constants are constexpr, hence constant-initialized: other translation
// units' dynamic initializers can call into this module in any order.

// p = 2^256 - 2^32 - 977, so 2^256 ≡ kPC (mod p).
constexpr U256 kP{0xFFFFFFFEFFFFFC2Full, ~0ull, ~0ull, ~0ull};
constexpr u64 kPC = 0x1000003D1ull;
// n = group order; kNC = 2^256 - n (129 bits), so 2^256 ≡ kNC (mod n).
constexpr U256 kN{0xBFD25E8CD0364141ull, 0xBAAEDCE6AF48A03Bull, 0xFFFFFFFFFFFFFFFEull,
                  ~0ull};
constexpr U256 kNC{0x402DA1732FC9BEBFull, 0x4551231950B75FC4ull, 1, 0};
constexpr U256 kGx{0x59F2815B16F81798ull, 0x029BFCDB2DCE28D9ull, 0x55A06295CE870B07ull,
                   0x79BE667EF9DCBBACull};
constexpr U256 kGy{0x9C47D08FFB10D4B8ull, 0xFD17B448A6855419ull, 0x5DA4FBFC0E1108A8ull,
                   0x483ADA7726A3C465ull};

// The kernels below run thousands of times per signature check, so they are
// forced inline and their fixed-count limb loops fully unrolled: limbs and
// carries then stay in registers across a whole point formula.
#define DLT_KERNEL [[gnu::always_inline]] inline
#define DLT_UNROLL _Pragma("GCC unroll 8")

DLT_KERNEL U256 add_carry(const U256& a, const U256& b, bool& carry) {
    U256 r;
    u128 acc = 0;
    DLT_UNROLL for (std::size_t i = 0; i < 4; ++i) {
        acc += static_cast<u128>(a.limbs[i]) + b.limbs[i];
        r.limbs[i] = static_cast<u64>(acc);
        acc >>= 64;
    }
    carry = acc != 0;
    return r;
}

DLT_KERNEL U256 sub_borrow(const U256& a, const U256& b, bool& borrow) {
    U256 r;
    u64 out = 0;
    DLT_UNROLL for (std::size_t i = 0; i < 4; ++i) {
        const u128 d = static_cast<u128>(a.limbs[i]) - b.limbs[i] - out;
        r.limbs[i] = static_cast<u64>(d);
        out = static_cast<u64>(d >> 127);
    }
    borrow = out != 0;
    return r;
}

/// carry·2^256 + r, known to be below 2m, reduced mod m = 2^256 - c: adding c
/// carries out of 256 bits exactly when the value is ≥ m, and the low 256 bits
/// are then the value minus m. One conditional subtraction, for p and n alike.
DLT_KERNEL U256 reduce_once(const U256& r, bool carry, const U256& c) {
    bool over = false;
    const U256 s = add_carry(r, c, over);
    return carry || over ? s : r;
}

/// Full 512-bit product, least-significant limb first.
DLT_KERNEL void mul_limbs(const U256& a, const U256& b, u64 (&t)[8]) {
    std::fill(std::begin(t), std::end(t), 0);
    DLT_UNROLL for (std::size_t i = 0; i < 4; ++i) {
        u128 acc = 0;
        DLT_UNROLL for (std::size_t j = 0; j < 4; ++j) {
            acc += static_cast<u128>(a.limbs[i]) * b.limbs[j] + t[i + j];
            t[i + j] = static_cast<u64>(acc);
            acc >>= 64;
        }
        t[i + 4] = static_cast<u64>(acc);
    }
}

/// hi·2^256 + lo mod p: fold hi by 2^256 ≡ kPC, fold the ≤ 34-bit overflow
/// that leaves the same way, then subtract p at most once.
DLT_KERNEL U256 fe_reduce(const u64 (&t)[8]) {
    U256 r;
    u128 acc = 0;
    DLT_UNROLL for (std::size_t i = 0; i < 4; ++i) {
        acc += static_cast<u128>(t[i + 4]) * kPC + t[i];
        r.limbs[i] = static_cast<u64>(acc);
        acc >>= 64;
    }
    acc *= kPC; // < 2^68
    DLT_UNROLL for (std::size_t i = 0; i < 4; ++i) {
        acc += r.limbs[i];
        r.limbs[i] = static_cast<u64>(acc);
        acc >>= 64;
    }
    return reduce_once(r, acc != 0, U256(kPC));
}

DLT_KERNEL U256 fmul(const U256& a, const U256& b) {
    u64 t[8];
    mul_limbs(a, b, t);
    return fe_reduce(t);
}

/// Squaring: each cross product a_i·a_j (i < j) once, doubled, plus a_i².
DLT_KERNEL U256 fsqr(const U256& a) {
    u64 t[8] = {};
    DLT_UNROLL for (std::size_t i = 0; i < 3; ++i) {
        u128 acc = 0;
        DLT_UNROLL for (std::size_t j = i + 1; j < 4; ++j) {
            acc += static_cast<u128>(a.limbs[i]) * a.limbs[j] + t[i + j];
            t[i + j] = static_cast<u64>(acc);
            acc >>= 64;
        }
        t[i + 4] = static_cast<u64>(acc);
    }
    DLT_UNROLL for (std::size_t i = 7; i > 0; --i) t[i] = t[i] << 1 | t[i - 1] >> 63;
    u128 acc = 0;
    DLT_UNROLL for (std::size_t i = 0; i < 4; ++i) {
        const u128 sq = static_cast<u128>(a.limbs[i]) * a.limbs[i];
        acc += static_cast<u128>(t[2 * i]) + static_cast<u64>(sq);
        t[2 * i] = static_cast<u64>(acc);
        acc = (acc >> 64) + t[2 * i + 1] + static_cast<u64>(sq >> 64);
        t[2 * i + 1] = static_cast<u64>(acc);
        acc >>= 64;
    }
    return fe_reduce(t);
}

/// Sum of two values below p.
DLT_KERNEL U256 fadd(const U256& a, const U256& b) {
    bool carry = false;
    const U256 sum = add_carry(a, b, carry);
    return reduce_once(sum, carry, U256(kPC));
}

/// Difference of two values below p: a borrow wrapped by 2^256 ≡ kPC, so kPC
/// comes back off (the wrapped value exceeds kPC, so that cannot borrow).
DLT_KERNEL U256 fsub(const U256& a, const U256& b) {
    bool borrow = false;
    const U256 d = sub_borrow(a, b, borrow);
    return borrow ? sub_borrow(d, U256(kPC), borrow) : d;
}

/// out (len + 4 limbs) = lo (4 limbs) + hi (len limbs)·kNC, one fold of
/// hi·2^256 ≡ hi·kNC (mod n).
DLT_KERNEL void fold_n(const u64* lo, const u64* hi, std::size_t len, u64 (&out)[8]) {
    DLT_UNROLL for (std::size_t i = 0; i < 8; ++i) out[i] = i < 4 ? lo[i] : 0;
    DLT_UNROLL for (std::size_t i = 0; i < len; ++i) {
        u128 acc = 0;
        DLT_UNROLL for (std::size_t j = 0; j < 3; ++j) {
            acc += static_cast<u128>(hi[i]) * kNC.limbs[j] + out[i + j];
            out[i + j] = static_cast<u64>(acc);
            acc >>= 64;
        }
        DLT_UNROLL for (std::size_t k = i + 3; k < len + 4; ++k) {
            acc += out[k];
            out[k] = static_cast<u64>(acc);
            acc >>= 64;
        }
    }
}

DLT_KERNEL U256 smul(const U256& a, const U256& b) {
    u64 t[8];
    u64 m[8];
    mul_limbs(a, b, t);
    fold_n(t, t + 4, 4, m); // < 2^386: seven limbs
    fold_n(m, m + 4, 3, t); // < 2^260: five limbs
    fold_n(t, t + 4, 1, m); // < 2^256 + 2^133: four limbs and a carry
    return reduce_once(U256{m[0], m[1], m[2], m[3]}, m[4] != 0, kNC);
}

#undef DLT_UNROLL
#undef DLT_KERNEL

/// base^exp by fixed 4-bit windows: 256 squarings and 64 multiplications
/// whatever the exponent, for inversion (Fermat) and square roots.
template <U256 (*Mul)(const U256&, const U256&)>
U256 pow_fixed(const U256& base, const U256& exp) {
    U256 window[16] = {U256(1), base};
    for (std::size_t i = 2; i < 16; ++i) window[i] = Mul(window[i - 1], base);
    U256 r(1);
    for (std::size_t i = 64; i-- > 0;) {
        for (int s = 0; s < 4; ++s) r = Mul(r, r);
        r = Mul(r, window[(exp.limbs[i / 16] >> (4 * (i % 16))) & 0xF]);
    }
    return r;
}

} // namespace

const U256& field_prime() { return kP; }
const U256& group_order() { return kN; }

U256 fe_add(const U256& a, const U256& b) { return fadd(a, b); }
U256 fe_sub(const U256& a, const U256& b) { return fsub(a, b); }
U256 fe_mul(const U256& a, const U256& b) { return fmul(a, b); }
U256 fe_sqr(const U256& a) { return fsqr(a); }

U256 fe_inv(const U256& a) {
    DLT_EXPECTS(!reduce_once(a, false, U256(kPC)).is_zero());
    constexpr U256 kPMinus2{0xFFFFFFFEFFFFFC2Dull, ~0ull, ~0ull, ~0ull};
    return pow_fixed<fmul>(a, kPMinus2);
}

std::optional<U256> fe_sqrt(const U256& a) {
    // p ≡ 3 (mod 4): candidate = a^((p+1)/4).
    constexpr U256 kQuarter{0xFFFFFFFFBFFFFF0Cull, ~0ull, ~0ull, 0x3FFFFFFFFFFFFFFFull};
    const U256 candidate = pow_fixed<fmul>(a, kQuarter);
    if (fsqr(candidate) != reduce_once(a, false, U256(kPC))) return std::nullopt;
    return candidate;
}

U256 sc_reduce(const U256& a) { return reduce_once(a, false, kNC); }

U256 sc_add(const U256& a, const U256& b) {
    bool carry = false;
    const U256 sum = add_carry(a, b, carry);
    return reduce_once(sum, carry, kNC);
}

U256 sc_mul(const U256& a, const U256& b) { return smul(a, b); }

U256 sc_inv(const U256& a) {
    DLT_EXPECTS(!sc_reduce(a).is_zero());
    constexpr U256 kNMinus2{0xBFD25E8CD036413Full, 0xBAAEDCE6AF48A03Bull,
                            0xFFFFFFFFFFFFFFFEull, ~0ull};
    return pow_fixed<smul>(a, kNMinus2);
}

// --- Jacobian point arithmetic ---------------------------------------------------

namespace {

struct Jacobian {
    U256 x;
    U256 y;
    U256 z; // z == 0 means infinity
};

constexpr Jacobian kInfinity{U256(1), U256(1), U256()};

Jacobian to_jacobian(const Point& p) {
    if (p.infinity) return kInfinity;
    return Jacobian{p.x, p.y, U256(1)};
}

Point to_affine(const Jacobian& j) {
    if (j.z.is_zero()) return Point{};
    const U256 zinv = fe_inv(j.z);
    const U256 zinv2 = fsqr(zinv);
    const U256 zinv3 = fmul(zinv2, zinv);
    return Point{fmul(j.x, zinv2), fmul(j.y, zinv3), false};
}

Jacobian jac_double(const Jacobian& p) {
    if (p.z.is_zero() || p.y.is_zero()) return kInfinity;
    // Standard dbl-2007-bl style formulas for a=0 curves.
    const U256 a2 = fsqr(p.x);                        // X^2
    const U256 b = fsqr(p.y);                         // Y^2
    const U256 c = fsqr(b);                           // Y^4
    U256 d = fmul(p.x, b);                            // X*Y^2
    d = fadd(d, d);
    d = fadd(d, d);                                   // 4*X*Y^2
    U256 e = fadd(a2, fadd(a2, a2));                  // 3*X^2
    const U256 f = fsqr(e);
    U256 x3 = fsub(f, fadd(d, d));
    U256 y3 = fmul(e, fsub(d, x3));
    U256 c8 = fadd(c, c);
    c8 = fadd(c8, c8);
    c8 = fadd(c8, c8);                                // 8*Y^4
    y3 = fsub(y3, c8);
    U256 z3 = fmul(p.y, p.z);
    z3 = fadd(z3, z3);
    return Jacobian{x3, y3, z3};
}

Jacobian jac_add(const Jacobian& p, const Jacobian& q) {
    if (p.z.is_zero()) return q;
    if (q.z.is_zero()) return p;
    const U256 z1z1 = fsqr(p.z);
    const U256 z2z2 = fsqr(q.z);
    const U256 u1 = fmul(p.x, z2z2);
    const U256 u2 = fmul(q.x, z1z1);
    const U256 s1 = fmul(p.y, fmul(z2z2, q.z));
    const U256 s2 = fmul(q.y, fmul(z1z1, p.z));
    if (u1 == u2) {
        if (s1 == s2) return jac_double(p);
        return kInfinity; // P + (-P) = O
    }
    const U256 h = fsub(u2, u1);
    U256 i = fadd(h, h);
    i = fsqr(i);
    const U256 j = fmul(h, i);
    U256 r = fsub(s2, s1);
    r = fadd(r, r);
    const U256 v = fmul(u1, i);
    U256 x3 = fsub(fsub(fsqr(r), j), fadd(v, v));
    U256 s1j = fmul(s1, j);
    U256 y3 = fsub(fmul(r, fsub(v, x3)), fadd(s1j, s1j));
    U256 z3 = fmul(fmul(p.z, q.z), h);
    z3 = fadd(z3, z3);
    return Jacobian{x3, y3, z3};
}

Jacobian jac_negate(const Jacobian& p) {
    if (p.z.is_zero() || p.y.is_zero()) return p;
    return Jacobian{p.x, fsub(U256(), p.y), p.z};
}

/// Affine point for precomputed tables. Mixed addition against an affine
/// operand (Z2 = 1) drops the Z2 normalization work of the general Jacobian
/// add: 8M+3S instead of 12M+4S.
struct Affine {
    U256 x;
    U256 y;
    bool infinity = true;
};

/// p + q with q affine (madd-2007-bl, Z2 = 1).
Jacobian jac_add_affine(const Jacobian& p, const Affine& q) {
    if (q.infinity) return p;
    if (p.z.is_zero()) return Jacobian{q.x, q.y, U256(1)};
    const U256 z1z1 = fsqr(p.z);
    const U256 u2 = fmul(q.x, z1z1);
    const U256 s2 = fmul(q.y, fmul(z1z1, p.z));
    if (u2 == p.x) {
        if (s2 == p.y) return jac_double(p);
        return kInfinity; // P + (-P) = O
    }
    const U256 h = fsub(u2, p.x);
    const U256 hh = fsqr(h);
    U256 i = fadd(hh, hh);
    i = fadd(i, i); // 4*H^2
    const U256 j = fmul(h, i);
    U256 r = fsub(s2, p.y);
    r = fadd(r, r);
    const U256 v = fmul(p.x, i);
    const U256 x3 = fsub(fsub(fsqr(r), j), fadd(v, v));
    const U256 yj = fmul(p.y, j);
    const U256 y3 = fsub(fmul(r, fsub(v, x3)), fadd(yj, yj));
    U256 z3 = fmul(p.z, h);
    z3 = fadd(z3, z3);
    return Jacobian{x3, y3, z3};
}

/// Affine forms of `jac` with one field inversion (Montgomery's trick):
/// prefix[k] holds the product of all previous z's, so after one inversion of
/// the grand product each z's inverse peels off with two multiplications.
std::vector<Affine> batch_to_affine(const std::vector<Jacobian>& jac) {
    std::vector<std::size_t> live;
    std::vector<U256> prefix;
    live.reserve(jac.size());
    prefix.reserve(jac.size());
    U256 acc(1);
    for (std::size_t i = 0; i < jac.size(); ++i) {
        if (jac[i].z.is_zero()) continue;
        live.push_back(i);
        prefix.push_back(acc);
        acc = fmul(acc, jac[i].z);
    }
    U256 inv = fe_inv(acc);

    std::vector<Affine> t(jac.size());
    for (std::size_t k = live.size(); k-- > 0;) {
        const Jacobian& src = jac[live[k]];
        const U256 zinv = fmul(inv, prefix[k]);
        inv = fmul(inv, src.z);
        const U256 zinv2 = fsqr(zinv);
        t[live[k]] = Affine{fmul(src.x, zinv2), fmul(src.y, fmul(zinv2, zinv)), false};
    }
    return t;
}

/// Fixed-base window-4 comb table for the generator, stored in affine form:
/// table[16*i + j] = j * 2^(4i) * G. Signing is dominated by k*G; the table
/// turns 256 doubles + ~128 adds into 64 mixed additions with no doublings at
/// all. Built lazily once per process with a single batched inversion.
const std::vector<Affine>& base_table() {
    static const std::vector<Affine> table = [] {
        std::vector<Jacobian> jac(64 * 16, kInfinity);
        Jacobian power{kGx, kGy, U256(1)}; // 2^(4i) * G
        for (int i = 0; i < 64; ++i) {
            for (int j = 1; j < 16; ++j)
                jac[static_cast<std::size_t>(16 * i + j)] =
                    jac_add(jac[static_cast<std::size_t>(16 * i + j - 1)], power);
            for (int d = 0; d < 4; ++d) power = jac_double(power);
        }
        return batch_to_affine(jac);
    }();
    return table;
}

/// k·G from the comb table: one mixed addition per nonzero nibble of k.
Jacobian comb_multiply(const U256& k) {
    Jacobian result = kInfinity;
    const U256 scalar = sc_reduce(k);
    for (int i = 0; i < 64; ++i) {
        const unsigned nibble = static_cast<unsigned>(
            (scalar.limbs[static_cast<std::size_t>(i / 16)] >> (4 * (i % 16))) & 0xF);
        if (nibble != 0)
            result = jac_add_affine(
                result,
                base_table()[static_cast<std::size_t>(16 * i + static_cast<int>(nibble))]);
    }
    return result;
}

/// The odd multiples G, 3G, ..., 127G in affine form: the table that width-8
/// wNAF digits of the G scalar index in ecmult. Built lazily, batch-normalized.
const std::vector<Affine>& odd_g_table() {
    static const std::vector<Affine> table = [] {
        std::vector<Jacobian> jac(64, Jacobian{kGx, kGy, U256(1)});
        const Jacobian twice = jac_double(jac[0]);
        for (std::size_t i = 1; i < jac.size(); ++i) jac[i] = jac_add(jac[i - 1], twice);
        return batch_to_affine(jac);
    }();
    return table;
}

/// Width-w non-adjacent form of k < 2^256, least-significant digit first:
/// nonzero digits are odd with magnitude below 2^(w-1), and any w consecutive
/// digits hold at most one, so a 256-bit scalar needs ~256/(w+1) additions.
/// Returns the digit count (≤ 257).
int wnaf(const U256& k, int w, int (&out)[257]) {
    std::fill(std::begin(out), std::end(out), 0);
    int len = 0;
    int carry = 0;
    for (int bit = 0; bit < 256;) {
        const auto b = static_cast<unsigned>(bit);
        if (static_cast<int>(k.bit(b)) == carry) {
            ++bit;
            continue;
        }
        const int now = std::min(w, 256 - bit); // window clipped at bit 255
        u64 bits = k.limbs[b / 64] >> (b % 64);
        if (b % 64 + static_cast<unsigned>(now) > 64)
            bits |= k.limbs[b / 64 + 1] << (64 - b % 64);
        int word = static_cast<int>(bits & ((u64{1} << now) - 1)) + carry;
        carry = (word >> (w - 1)) & 1;
        word -= carry << w;
        out[bit] = word;
        len = bit + 1;
        bit += now;
    }
    if (carry != 0) {
        out[256] = 1;
        len = 257;
    }
    return len;
}

/// u1·G + u2·P over one shared doubling chain (Strauss–Shamir). Width-5 wNAF
/// digits of u2 index the odd multiples P, 3P, ..., 15P computed here; width-8
/// digits of u1 index odd_g_table(). With u1 = 0 this is plain u2·P.
Jacobian ecmult(const U256& u1, const U256& u2, const Point& p) {
    int dg[257];
    int dp[257];
    const int lg = wnaf(sc_reduce(u1), 8, dg);
    const int lp = p.infinity ? 0 : wnaf(sc_reduce(u2), 5, dp);
    Jacobian odd[8];
    if (lp > 0) {
        odd[0] = to_jacobian(p);
        const Jacobian twice = jac_double(odd[0]);
        for (std::size_t i = 1; i < 8; ++i) odd[i] = jac_add(odd[i - 1], twice);
    }
    const std::vector<Affine>& gtable = odd_g_table();
    Jacobian r = kInfinity;
    for (int i = std::max(lg, lp) - 1; i >= 0; --i) {
        r = jac_double(r);
        if (i < lp && dp[i] != 0) {
            const Jacobian& q = odd[static_cast<std::size_t>(std::abs(dp[i]) / 2)];
            r = jac_add(r, dp[i] > 0 ? q : jac_negate(q));
        }
        if (i < lg && dg[i] != 0) {
            Affine g = gtable[static_cast<std::size_t>(std::abs(dg[i]) / 2)];
            if (dg[i] < 0) g.y = fsub(U256(), g.y);
            r = jac_add_affine(r, g);
        }
    }
    return r;
}

} // namespace

const Point& generator() {
    static const Point g{kGx, kGy, false};
    return g;
}

bool is_on_curve(const Point& p) {
    if (p.infinity) return true;
    if (p.x >= kP || p.y >= kP) return false;
    return fsqr(p.y) == fadd(fmul(fsqr(p.x), p.x), U256(7));
}

Point add(const Point& a, const Point& b) {
    return to_affine(jac_add(to_jacobian(a), to_jacobian(b)));
}

Point negate(const Point& p) {
    if (p.infinity) return p;
    return Point{p.x, kP - p.y, false};
}

Point multiply(const U256& k, const Point& p) {
    if (p == generator()) return to_affine(comb_multiply(k));
    return to_affine(ecmult(U256(), k, p));
}

Point double_multiply(const U256& u1, const U256& u2, const Point& p) {
    return to_affine(ecmult(u1, u2, p));
}

Bytes encode_compressed(const Point& p) {
    if (p.infinity) throw CryptoError("cannot encode point at infinity");
    Bytes out;
    out.reserve(33);
    out.push_back(p.y.is_odd() ? 0x03 : 0x02);
    const Hash256 x = p.x.to_be_bytes();
    append(out, x.view());
    return out;
}

Point decode_compressed(ByteView bytes33) {
    if (bytes33.size() != 33 || (bytes33[0] != 0x02 && bytes33[0] != 0x03))
        throw CryptoError("malformed compressed point");
    const U256 x = U256::from_be_bytes(bytes33.subspan(1));
    if (x >= kP) throw CryptoError("point x out of range");
    const U256 rhs = fadd(fmul(fsqr(x), x), U256(7));
    const std::optional<U256> y = fe_sqrt(rhs);
    if (!y) throw CryptoError("x is not on the curve");
    U256 y_final = *y;
    const bool want_odd = bytes33[0] == 0x03;
    if (y_final.is_odd() != want_odd) y_final = kP - y_final;
    return Point{x, y_final, false};
}

Bytes Signature::encode() const {
    Bytes out;
    out.reserve(64);
    append(out, r.to_be_bytes().view());
    append(out, s.to_be_bytes().view());
    return out;
}

Signature Signature::decode(ByteView bytes64) {
    if (bytes64.size() != 64) throw CryptoError("signature must be 64 bytes");
    return Signature{U256::from_be_bytes(bytes64.subspan(0, 32)),
                     U256::from_be_bytes(bytes64.subspan(32, 32))};
}

U256 rfc6979_nonce(const U256& priv, const Hash256& msg_hash) {
    // RFC 6979 §3.2 with HMAC-SHA256; qlen == hlen == 256 so bits2octets is a
    // plain reduction mod n.
    const Hash256 x = priv.to_be_bytes();
    const Hash256 h1 = sc_reduce(U256::from_hash(msg_hash)).to_be_bytes();

    std::uint8_t v_bytes[32];
    std::uint8_t k_bytes[32];
    std::fill(std::begin(v_bytes), std::end(v_bytes), 0x01);
    std::fill(std::begin(k_bytes), std::end(k_bytes), 0x00);
    auto v = ByteView{v_bytes, 32};
    auto k = ByteView{k_bytes, 32};

    auto hmac3 = [](ByteView key, ByteView a, ByteView b, ByteView c) {
        Bytes joined;
        joined.reserve(a.size() + b.size() + c.size());
        append(joined, a);
        append(joined, b);
        append(joined, c);
        return hmac_sha256(key, joined);
    };

    Hash256 kd = hmac3(k, v, Bytes{0x00}, [&] {
        Bytes seed;
        append(seed, x.view());
        append(seed, h1.view());
        return seed;
    }());
    std::copy(kd.data.begin(), kd.data.end(), k_bytes);
    Hash256 vd = hmac_sha256(k, v);
    std::copy(vd.data.begin(), vd.data.end(), v_bytes);

    kd = hmac3(k, v, Bytes{0x01}, [&] {
        Bytes seed;
        append(seed, x.view());
        append(seed, h1.view());
        return seed;
    }());
    std::copy(kd.data.begin(), kd.data.end(), k_bytes);
    vd = hmac_sha256(k, v);
    std::copy(vd.data.begin(), vd.data.end(), v_bytes);

    for (;;) {
        vd = hmac_sha256(k, v);
        std::copy(vd.data.begin(), vd.data.end(), v_bytes);
        const U256 candidate = U256::from_be_bytes(v);
        if (!candidate.is_zero() && candidate < kN) return candidate;
        kd = hmac_sha256(k, v, Bytes{0x00});
        std::copy(kd.data.begin(), kd.data.end(), k_bytes);
        vd = hmac_sha256(k, v);
        std::copy(vd.data.begin(), vd.data.end(), v_bytes);
    }
}

Signature sign(const U256& priv, const Hash256& msg_hash) {
    DLT_EXPECTS(!priv.is_zero() && priv < kN);
    const U256 z = sc_reduce(U256::from_hash(msg_hash));
    U256 k = rfc6979_nonce(priv, msg_hash);
    for (;;) {
        const Point rp = multiply(k, generator());
        const U256 r = sc_reduce(rp.x);
        if (r.is_zero()) {
            k = sc_add(k, U256::one());
            continue;
        }
        U256 s = smul(sc_inv(k), sc_add(z, smul(r, priv)));
        if (s.is_zero()) {
            k = sc_add(k, U256::one());
            continue;
        }
        // Low-s normalization (BIP-62): accept the lexicographically smaller of
        // s and n-s so signatures are non-malleable.
        if (s > kN >> 1) s = kN - s;
        return Signature{r, s};
    }
}

bool verify(const Point& pub, const Hash256& msg_hash, const Signature& sig) {
    if (pub.infinity || !is_on_curve(pub)) return false;
    if (sig.r.is_zero() || sig.r >= kN || sig.s.is_zero() || sig.s >= kN) return false;
    const U256 z = sc_reduce(U256::from_hash(msg_hash));
    const U256 sinv = sc_inv(sig.s);
    const Jacobian rp = ecmult(smul(z, sinv), smul(sig.r, sinv), pub);
    if (rp.z.is_zero()) return false;
    // x(R) = X/Z^2 lies in [0, p) and p < 2n, so x(R) mod n == r exactly when
    // X == r*Z^2, or X == (r+n)*Z^2 with r + n < p: no inversion needed.
    const U256 zz = fsqr(rp.z);
    if (fmul(sig.r, zz) == rp.x) return true;
    bool carry = false;
    const U256 r_plus_n = add_carry(sig.r, kN, carry);
    return !carry && r_plus_n < kP && fmul(r_plus_n, zz) == rp.x;
}

Point derive_public(const U256& priv) {
    DLT_EXPECTS(!priv.is_zero() && priv < kN);
    return multiply(priv, generator());
}

} // namespace dlt::crypto::secp256k1
