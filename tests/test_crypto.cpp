// Unit + property tests for the crypto module: SHA-256/RIPEMD-160/HMAC known
// vectors, U256 arithmetic properties, the secp256k1 field and scalar kernels
// against a U256 long-division oracle, curve laws, and ECDSA sign/verify
// including the published RFC-6979 vectors and the low-s ledger rule.
#include <gtest/gtest.h>

#include <optional>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "crypto/hmac.hpp"
#include "crypto/keys.hpp"
#include "crypto/ripemd160.hpp"
#include "crypto/secp256k1.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sigcache.hpp"
#include "crypto/uint256.hpp"

namespace {

using namespace dlt;
using namespace dlt::crypto;
namespace ec = dlt::crypto::secp256k1;

// --- SHA-256 (FIPS 180-4 vectors) -----------------------------------------------

TEST(Sha256, EmptyString) {
    EXPECT_EQ(sha256(Bytes{}).hex(),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
    EXPECT_EQ(sha256(to_bytes("abc")).hex(),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
    EXPECT_EQ(sha256(to_bytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")).hex(),
              "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
    Sha256 ctx;
    const Bytes chunk(1000, 'a');
    for (int i = 0; i < 1000; ++i) ctx.update(chunk);
    EXPECT_EQ(ctx.finalize().hex(),
              "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, StreamingMatchesOneShot) {
    Rng rng(1);
    Bytes data(300);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
    for (const std::size_t split : {0ul, 1ul, 63ul, 64ul, 65ul, 150ul, 299ul}) {
        Sha256 ctx;
        ctx.update(ByteView{data.data(), split});
        ctx.update(ByteView{data.data() + split, data.size() - split});
        EXPECT_EQ(ctx.finalize(), sha256(data)) << "split=" << split;
    }
}

TEST(Sha256, DoubleSha) {
    // sha256d("hello") cross-checked against Bitcoin tooling.
    EXPECT_EQ(sha256d(to_bytes("hello")).hex(),
              "9595c9df90075148eb06860365df33584b75bff782a510c6cd4883a419833d50");
}

TEST(Sha256, TaggedHashSeparatesDomains) {
    const Bytes msg = to_bytes("payload");
    EXPECT_NE(tagged_hash("a", msg), tagged_hash("b", msg));
    EXPECT_NE(tagged_hash("a", msg), sha256(msg));
}

// --- SHA-256 backend dispatch (SHA-NI vs scalar) --------------------------------

/// Force the scalar backend for one scope, restoring auto-dispatch even when an
/// assertion fails mid-test.
struct ScopedScalarSha {
    ScopedScalarSha() { sha256_force_scalar(true); }
    ~ScopedScalarSha() { sha256_force_scalar(false); }
};

TEST(Sha256Backend, ScalarAndDispatchedAgreeOnAllLengths) {
    // On CPUs without SHA-NI both runs use the scalar transform and the test
    // is a tautology; with it, every boundary length cross-checks the
    // hand-written intrinsics against the portable implementation.
    Rng rng(7);
    for (const std::size_t len :
         {0ul, 1ul, 31ul, 55ul, 56ul, 63ul, 64ul, 65ul, 127ul, 128ul, 129ul, 1000ul}) {
        Bytes data(len);
        for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
        Hash256 scalar_digest;
        {
            ScopedScalarSha forced;
            scalar_digest = sha256(data);
        }
        EXPECT_EQ(sha256(data), scalar_digest) << "len=" << len;
    }
}

TEST(Sha256Backend, DoubleShaAgreesAcrossBackends) {
    Rng rng(8);
    Bytes data(200);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
    Hash256 scalar_digest;
    {
        ScopedScalarSha forced;
        scalar_digest = sha256d(data);
    }
    EXPECT_EQ(sha256d(data), scalar_digest);
}

TEST(Sha256Backend, FastPathsMatchComposedDefinitions) {
    Rng rng(9);
    std::uint8_t block[64];
    for (auto& b : block) b = static_cast<std::uint8_t>(rng.next());
    const ByteView view{block, 64};

    // sha256_64 / sha256d_64 are specialized shapes of the generic functions.
    EXPECT_EQ(sha256_64(block), sha256(view));
    EXPECT_EQ(sha256d_64(block), sha256(sha256(view).view()));
    EXPECT_EQ(sha256d_64(block), sha256d(view));

    // hash_pair(l, r) is sha256(l || r) — the Merkle inner-node rule.
    Hash256 left, right;
    for (std::size_t i = 0; i < 32; ++i) {
        left.data[i] = block[i];
        right.data[i] = block[32 + i];
    }
    EXPECT_EQ(hash_pair(left, right), sha256_64(block));

    // The fast paths also agree across backends.
    Hash256 scalar_digest;
    {
        ScopedScalarSha forced;
        scalar_digest = sha256d_64(block);
    }
    EXPECT_EQ(sha256d_64(block), scalar_digest);
}

// --- RIPEMD-160 (official vectors) ----------------------------------------------

TEST(Ripemd160, Empty) {
    EXPECT_EQ(ripemd160(Bytes{}).hex(), "9c1185a5c5e9fc54612808977ee8f548b2258d31");
}

TEST(Ripemd160, Abc) {
    EXPECT_EQ(ripemd160(to_bytes("abc")).hex(),
              "8eb208f7e05d987a9b044a8e98c6b087f15a0bfc");
}

TEST(Ripemd160, Alphabet) {
    EXPECT_EQ(ripemd160(to_bytes("abcdefghijklmnopqrstuvwxyz")).hex(),
              "f71c27109c692c1b56bbdceb5b9d2865b3708dbc");
}

TEST(Ripemd160, LongVector) {
    EXPECT_EQ(
        ripemd160(to_bytes(
                      "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"))
            .hex(),
        "b0e20b6e3116640286ed3a87a5713079b21f5189");
}

// --- HMAC-SHA256 (RFC 4231 vectors) ----------------------------------------------

TEST(Hmac, Rfc4231Case1) {
    const Bytes key(20, 0x0b);
    EXPECT_EQ(hmac_sha256(key, to_bytes("Hi There")).hex(),
              "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
    EXPECT_EQ(hmac_sha256(to_bytes("Jefe"), to_bytes("what do ya want for nothing?")).hex(),
              "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231LongKey) {
    const Bytes key(131, 0xaa);
    EXPECT_EQ(hmac_sha256(key, to_bytes("Test Using Larger Than Block-Size Key - "
                                        "Hash Key First"))
                  .hex(),
              "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, SplitMatchesJoined) {
    const Bytes key = to_bytes("key");
    const Bytes a = to_bytes("part-one|");
    const Bytes b = to_bytes("part-two");
    Bytes joined = a;
    append(joined, b);
    EXPECT_EQ(hmac_sha256(key, a, b), hmac_sha256(key, joined));
}

// --- U256 -----------------------------------------------------------------------

TEST(U256, HexRoundTrip) {
    const U256 v = U256::from_hex("0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef");
    EXPECT_EQ(v.hex(), "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef");
}

TEST(U256, ShortHexIsLeftPadded) {
    EXPECT_EQ(U256::from_hex("ff"), U256(255));
}

TEST(U256, AddCarryPropagates) {
    const U256 max = U256::max();
    bool carry = false;
    const U256 sum = max.add(U256::one(), &carry);
    EXPECT_TRUE(carry);
    EXPECT_TRUE(sum.is_zero());
}

TEST(U256, SubBorrow) {
    bool borrow = false;
    const U256 diff = U256::zero().sub(U256::one(), &borrow);
    EXPECT_TRUE(borrow);
    EXPECT_EQ(diff, U256::max());
}

TEST(U256, AddSubInverse) {
    Rng rng(3);
    for (int i = 0; i < 200; ++i) {
        const U256 a(rng.next(), rng.next(), rng.next(), rng.next());
        const U256 b(rng.next(), rng.next(), rng.next(), rng.next());
        EXPECT_EQ((a + b) - b, a);
    }
}

TEST(U256, ShiftInverse) {
    Rng rng(5);
    for (int i = 0; i < 100; ++i) {
        const U256 a(rng.next(), rng.next(), rng.next(), 0);
        const unsigned n = static_cast<unsigned>(rng.uniform(64));
        EXPECT_EQ((a << n) >> n, a);
    }
}

TEST(U256, MulWideMatchesSmall) {
    const U256 a(0xFFFFFFFFFFFFFFFFull);
    const U256 b(0x100);
    const auto wide = a.mul_wide(b);
    EXPECT_TRUE(wide.hi.is_zero());
    EXPECT_EQ(wide.lo, U256(0xFFFFFFFFFFFFFF00ull, 0xFF, 0, 0));
}

TEST(U256, DivModIdentity) {
    Rng rng(7);
    for (int i = 0; i < 200; ++i) {
        const U256 a(rng.next(), rng.next(), rng.next(), rng.next());
        const U256 b(rng.next(), rng.next(), 0, 0);
        if (b.is_zero()) continue;
        const auto dm = a.divmod(b);
        EXPECT_LT(dm.remainder, b);
        // a == q*b + r
        EXPECT_EQ(dm.quotient.mul_wide(b).lo + dm.remainder, a);
    }
}

TEST(U256, ModWideMatchesDirect) {
    Rng rng(9);
    for (int i = 0; i < 100; ++i) {
        const U256 a(rng.next(), rng.next(), rng.next(), rng.next());
        const U256 m(rng.next() | 1, rng.next(), rng.next(), rng.next());
        const U256::Wide w{a, U256::zero()}; // hi = 0 means value == a
        EXPECT_EQ(mod_wide(w, m), a % m);
    }
}

TEST(U256, HighestBit) {
    EXPECT_EQ(U256::zero().highest_bit(), -1);
    EXPECT_EQ(U256::one().highest_bit(), 0);
    EXPECT_EQ((U256::one() << 200).highest_bit(), 200);
}

// --- secp256k1 --------------------------------------------------------------------

TEST(Secp256k1, GeneratorOnCurve) { EXPECT_TRUE(ec::is_on_curve(ec::generator())); }

TEST(Secp256k1, KnownMultiples) {
    // 2*G, standard test vector.
    const ec::Point two_g = ec::multiply(U256(2), ec::generator());
    EXPECT_EQ(two_g.x.hex(),
              "c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5");
    EXPECT_EQ(two_g.y.hex(),
              "1ae168fea63dc339a3c58419466ceaeef7f632653266d0e1236431a950cfe52a");
}

TEST(Secp256k1, MultiplyByOrderGivesInfinity) {
    const ec::Point p = ec::multiply(ec::group_order(), ec::generator());
    EXPECT_TRUE(p.infinity);
}

TEST(Secp256k1, AdditionCommutes) {
    const ec::Point a = ec::multiply(U256(123456789), ec::generator());
    const ec::Point b = ec::multiply(U256(987654321), ec::generator());
    EXPECT_EQ(ec::add(a, b), ec::add(b, a));
}

TEST(Secp256k1, AdditionMatchesScalarSum) {
    const ec::Point a = ec::multiply(U256(1111), ec::generator());
    const ec::Point b = ec::multiply(U256(2222), ec::generator());
    EXPECT_EQ(ec::add(a, b), ec::multiply(U256(3333), ec::generator()));
}

TEST(Secp256k1, NegateGivesInverse) {
    const ec::Point a = ec::multiply(U256(42), ec::generator());
    const ec::Point sum = ec::add(a, ec::negate(a));
    EXPECT_TRUE(sum.infinity);
}

TEST(Secp256k1, CompressedRoundTrip) {
    Rng rng(11);
    for (int i = 0; i < 10; ++i) {
        const PrivateKey priv = PrivateKey::generate(rng);
        const ec::Point p = priv.public_key().point();
        const Bytes enc = ec::encode_compressed(p);
        ASSERT_EQ(enc.size(), 33u);
        EXPECT_EQ(ec::decode_compressed(enc), p);
    }
}

TEST(Secp256k1, DecodeRejectsGarbage) {
    Bytes bad(33, 0x02);
    // x = 0x0202...02 may or may not be on curve; flip to a definitely-bad prefix.
    bad[0] = 0x05;
    EXPECT_THROW(ec::decode_compressed(bad), CryptoError);
    EXPECT_THROW(ec::decode_compressed(Bytes(32, 0x02)), CryptoError);
}

TEST(Secp256k1, FieldInverse) {
    Rng rng(13);
    for (int i = 0; i < 20; ++i) {
        const U256 a(rng.next() | 1, rng.next(), rng.next(), 0);
        EXPECT_EQ(ec::fe_mul(a, ec::fe_inv(a)), U256::one());
    }
}

TEST(Secp256k1, ScalarInverse) {
    Rng rng(15);
    for (int i = 0; i < 20; ++i) {
        const U256 a(rng.next() | 1, rng.next(), 0, 0);
        EXPECT_EQ(ec::sc_mul(a, ec::sc_inv(a)), U256::one());
    }
}

TEST(Secp256k1, SqrtOfSquare) {
    Rng rng(17);
    for (int i = 0; i < 20; ++i) {
        const U256 a(rng.next(), rng.next(), rng.next(), 0);
        const U256 sq = ec::fe_sqr(a);
        const auto root = ec::fe_sqrt(sq);
        ASSERT_TRUE(root.has_value());
        // root is ±a
        const bool matches = *root == a || ec::fe_add(*root, a).is_zero() ||
                             *root == ec::fe_sub(U256::zero(), a);
        EXPECT_TRUE(matches);
    }
}

// --- Field and scalar kernels against the U256 oracle -----------------------------

/// Inputs below `m`: the edges 0, 1, p - 1, n - 1 and 2^255 (those below m),
/// which drive every fold and carry of the kernels, plus seeded random values.
std::vector<U256> kernel_inputs(const U256& m, std::uint64_t seed) {
    std::vector<U256> out;
    for (const U256& edge : {U256::zero(), U256::one(), ec::field_prime() - U256::one(),
                             ec::group_order() - U256::one(), U256::one() << 255})
        if (edge < m) out.push_back(edge);
    Rng rng(seed);
    for (int i = 0; i < 40; ++i) {
        const U256 v(rng.next(), rng.next(), rng.next(), rng.next());
        out.push_back(v < m ? v : v - m); // 2^256 < 2m
    }
    return out;
}

/// (a + b) mod m with U256::add and long division, for a, b < m.
U256 oracle_add(const U256& a, const U256& b, const U256& m) {
    bool carry = false;
    const U256 sum = a.add(b, &carry);
    return carry ? mod_wide(U256::Wide{sum, U256::one()}, m) : sum % m;
}

TEST(Secp256k1, FieldOpsMatchU256Oracle) {
    const U256& p = ec::field_prime();
    const std::vector<U256> in = kernel_inputs(p, 29);
    // Every pair, so (p - 1)·(p - 1) and 2^255·2^255 are among the products.
    for (const U256& a : in) {
        EXPECT_EQ(ec::fe_sqr(a), mod_wide(a.mul_wide(a), p)) << a.hex();
        if (!a.is_zero()) {
            EXPECT_EQ(ec::fe_mul(a, ec::fe_inv(a)), U256::one()) << a.hex();
        }
        for (const U256& b : in) {
            EXPECT_EQ(ec::fe_mul(a, b), mod_wide(a.mul_wide(b), p)) << a.hex() << " " << b.hex();
            EXPECT_EQ(ec::fe_add(a, b), oracle_add(a, b, p)) << a.hex() << " " << b.hex();
            EXPECT_EQ(ec::fe_sub(a, b), oracle_add(a, p - b, p)) << a.hex() << " " << b.hex();
        }
    }
}

TEST(Secp256k1, ScalarOpsMatchU256Oracle) {
    const U256& n = ec::group_order();
    const std::vector<U256> in = kernel_inputs(n, 31);
    for (const U256& a : in) {
        if (!a.is_zero()) {
            EXPECT_EQ(ec::sc_mul(a, ec::sc_inv(a)), U256::one()) << a.hex();
        }
        for (const U256& b : in) {
            EXPECT_EQ(ec::sc_mul(a, b), mod_wide(a.mul_wide(b), n)) << a.hex() << " " << b.hex();
            EXPECT_EQ(ec::sc_add(a, b), oracle_add(a, b, n)) << a.hex() << " " << b.hex();
        }
    }
}

// --- ECDSA ------------------------------------------------------------------------

TEST(Ecdsa, SignVerifyRoundTrip) {
    Rng rng(19);
    for (int i = 0; i < 8; ++i) {
        const PrivateKey priv = PrivateKey::generate(rng);
        const Hash256 msg = sha256(to_bytes("message " + std::to_string(i)));
        const auto sig = priv.sign(msg);
        EXPECT_TRUE(priv.public_key().verify(msg, sig));
    }
}

TEST(Ecdsa, RejectsWrongMessage) {
    const PrivateKey priv = PrivateKey::from_seed("alice");
    const auto sig = priv.sign(sha256(to_bytes("pay bob 10")));
    EXPECT_FALSE(priv.public_key().verify(sha256(to_bytes("pay bob 1000")), sig));
}

TEST(Ecdsa, RejectsWrongKey) {
    const PrivateKey alice = PrivateKey::from_seed("alice");
    const PrivateKey eve = PrivateKey::from_seed("eve");
    const Hash256 msg = sha256(to_bytes("hello"));
    EXPECT_FALSE(eve.public_key().verify(msg, alice.sign(msg)));
}

TEST(Ecdsa, DeterministicNonces) {
    const PrivateKey priv = PrivateKey::from_seed("rfc6979");
    const Hash256 msg = sha256(to_bytes("sample"));
    EXPECT_EQ(priv.sign(msg), priv.sign(msg));
}

TEST(Ecdsa, DifferentMessagesDifferentNonces) {
    const PrivateKey priv = PrivateKey::from_seed("rfc6979");
    const U256 k1 = ec::rfc6979_nonce(priv.secret(), sha256(to_bytes("m1")));
    const U256 k2 = ec::rfc6979_nonce(priv.secret(), sha256(to_bytes("m2")));
    EXPECT_NE(k1, k2);
}

TEST(Ecdsa, LowSNormalization) {
    Rng rng(23);
    const U256 half_order = ec::group_order() >> 1;
    for (int i = 0; i < 8; ++i) {
        const PrivateKey priv = PrivateKey::generate(rng);
        const auto sig = priv.sign(sha256(to_bytes("m" + std::to_string(i))));
        EXPECT_LE(sig.s, half_order);
    }
}

TEST(Ecdsa, SignatureEncodingRoundTrip) {
    const PrivateKey priv = PrivateKey::from_seed("encoding");
    const auto sig = priv.sign(sha256(to_bytes("x")));
    const auto decoded = ec::Signature::decode(sig.encode());
    EXPECT_EQ(decoded, sig);
}

TEST(Ecdsa, MalleatedSignatureRejected) {
    const PrivateKey priv = PrivateKey::from_seed("malleability");
    const Hash256 msg = sha256(to_bytes("tx"));
    auto sig = priv.sign(msg);
    sig.s = ec::group_order() - sig.s; // high-s twin
    // secp256k1::verify is textbook ECDSA and accepts the high-s twin; the
    // ledger rejects it in verify_signature_cached (SigCache.RejectsHighSTwin).
    EXPECT_TRUE(priv.public_key().verify(msg, sig));
    // Tampering with r breaks the signature:
    auto bad = priv.sign(msg);
    bad.r = ec::sc_add(bad.r, U256::one());
    EXPECT_FALSE(priv.public_key().verify(msg, bad));
}

TEST(Ecdsa, ZeroSignatureRejected) {
    const PrivateKey priv = PrivateKey::from_seed("zeros");
    const Hash256 msg = sha256(to_bytes("x"));
    EXPECT_FALSE(priv.public_key().verify(msg, ec::Signature{U256::zero(), U256::zero()}));
}

TEST(Ecdsa, Rfc6979Secp256k1Vectors) {
    // The published secp256k1 RFC 6979 vectors; each message is hashed once
    // with SHA-256, and the expected s values are already low.
    EXPECT_EQ(ec::rfc6979_nonce(U256::one(), sha256(to_bytes("Satoshi Nakamoto"))).hex(),
              "8f8a276c19f4149656b280621e358cce24f5f52542772691ee69063b74f15d15");
    struct Vector {
        const char* key;
        const char* message;
        const char* r;
        const char* s;
    };
    const Vector vectors[] = {
        {"1", "Satoshi Nakamoto",
         "934b1ea10a4b3c1757e2b0c017d0b6143ce3c9a7e6a4a49860d7a6ab210ee3d8",
         "2442ce9d2b916064108014783e923ec36b49743e2ffa1c4496f01a512aafd9e5"},
        {"1", "All those moments will be lost in time, like tears in rain. Time to die...",
         "8600dbd41e348fe5c9465ab92d23e3db8b98b873beecd930736488696438cb6b",
         "547fe64427496db33bf66019dacbf0039c04199abb0122918601db38a72cfc21"},
        {"f8b8af8ce3c7cca5e300d33939540c10d45ce001b8f252bfbc57ba0342904181", "Alan Turing",
         "7063ae83e7f62bbb171798131b4a0564b956930092b33b07b395615d9ec7e15c",
         "58dfcc1e00a35e1572f366ffe34ba0fc47db1e7189759b9fb233c5b05ab388ea"},
    };
    for (const Vector& v : vectors) {
        const U256 priv = U256::from_hex(v.key);
        const Hash256 msg = sha256(to_bytes(v.message));
        const ec::Signature sig = ec::sign(priv, msg);
        EXPECT_EQ(sig.r.hex(), v.r) << v.message;
        EXPECT_EQ(sig.s.hex(), v.s) << v.message;
        EXPECT_TRUE(ec::verify(ec::derive_public(priv), msg, sig)) << v.message;
    }
}

TEST(Ecdsa, AcceptsRWhoseXIsAboveTheOrder) {
    // x(R) mod n = r also holds for x(R) = r + n when r + n < p. x = n + 2 lies
    // on the curve (n + 1 does not), so R = (n + 2, y) signs with r = 2.
    auto curve_y = [](const U256& x) {
        return ec::fe_sqrt(ec::fe_add(ec::fe_mul(ec::fe_sqr(x), x), U256(7)));
    };
    const U256 n = ec::group_order();
    ASSERT_FALSE(curve_y(n + U256::one()).has_value());
    const std::optional<U256> y = curve_y(n + U256(2));
    ASSERT_TRUE(y.has_value());
    const ec::Point big_r{n + U256(2), *y, false};
    ASSERT_TRUE(ec::is_on_curve(big_r));

    // Q = r^-1·(s·R - z·G), so that (z/s)·G + (r/s)·Q = R.
    const U256 r(2);
    const U256 s = ec::sc_reduce(U256::from_hash(sha256(to_bytes("x above n: s"))));
    const Hash256 msg = sha256(to_bytes("x above n: message"));
    const U256 z = ec::sc_reduce(U256::from_hash(msg));
    const ec::Point q = ec::multiply(
        ec::sc_inv(r),
        ec::add(ec::multiply(s, big_r), ec::negate(ec::multiply(z, ec::generator()))));
    EXPECT_TRUE(ec::verify(q, msg, ec::Signature{r, s}));
    EXPECT_FALSE(ec::verify(q, msg, ec::Signature{U256(3), s}));
}

// --- Keys / addresses ---------------------------------------------------------------

TEST(Keys, AddressIsHash160OfPubkey) {
    const PrivateKey priv = PrivateKey::from_seed("addr");
    const PublicKey pub = priv.public_key();
    EXPECT_EQ(pub.address(), hash160(pub.encode()));
}

TEST(Keys, DistinctSeedsDistinctAddresses) {
    EXPECT_NE(PrivateKey::from_seed("a").address(), PrivateKey::from_seed("b").address());
}

TEST(Keys, FromSeedIsStable) {
    EXPECT_EQ(PrivateKey::from_seed("stable").secret(),
              PrivateKey::from_seed("stable").secret());
}

TEST(Keys, RejectsOutOfRangeSecret) {
    EXPECT_THROW(PrivateKey(U256::zero()), CryptoError);
    EXPECT_THROW(PrivateKey(ec::group_order()), CryptoError);
}

// --- Scalar multiplication cross-checks (wNAF / fixed-base comb) --------------------

// Textbook double-and-add over the public affine API, as an independent oracle
// for the wNAF and comb-table fast paths.
ec::Point ref_multiply(U256 k, ec::Point p) {
    ec::Point acc; // infinity
    while (!k.is_zero()) {
        if (k.bit(0)) acc = ec::add(acc, p);
        p = ec::add(p, p);
        k = k >> 1;
    }
    return acc;
}

TEST(Secp256k1, MultiplyMatchesRepeatedAddition) {
    // Q != G so multiply() takes the generic wNAF path, not the comb table.
    const ec::Point q = ec::add(ec::generator(), ec::generator());
    ec::Point acc; // infinity
    for (std::uint64_t k = 1; k <= 40; ++k) {
        acc = ec::add(acc, q);
        EXPECT_EQ(ec::multiply(U256(k), q), acc) << "k=" << k;
    }
}

TEST(Secp256k1, FixedBaseMatchesDoubleAndAdd) {
    for (const char* seed : {"comb-a", "comb-b", "comb-c"}) {
        const U256 k = ec::sc_reduce(U256::from_hash(sha256(to_bytes(seed))));
        EXPECT_EQ(ec::multiply(k, ec::generator()),
                  ref_multiply(k, ec::generator()))
            << seed;
    }
}

TEST(Secp256k1, WnafMatchesDoubleAndAddOnRandomScalars) {
    const ec::Point q = ec::multiply(U256(7), ec::generator());
    for (const char* seed : {"wnaf-a", "wnaf-b", "wnaf-c"}) {
        const U256 k = ec::sc_reduce(U256::from_hash(sha256(to_bytes(seed))));
        EXPECT_EQ(ec::multiply(k, q), ref_multiply(k, q)) << seed;
    }
}

TEST(Secp256k1, OrderMinusOneNegates) {
    // n-1 is all-high nibbles in wNAF terms: exercises negative digits and the
    // full depth of the comb table.
    const U256 n_minus_1 = ec::group_order() - U256::one();
    EXPECT_EQ(ec::multiply(n_minus_1, ec::generator()),
              ec::negate(ec::generator()));
    const ec::Point q = ec::multiply(U256(5), ec::generator());
    EXPECT_EQ(ec::multiply(n_minus_1, q), ec::negate(q));
}

TEST(Secp256k1, DoubleMultiplyMatchesSeparateMultiplies) {
    const ec::Point q = ec::multiply(U256(11), ec::generator());
    const U256 u1 = ec::sc_reduce(U256::from_hash(sha256(to_bytes("dm-u1"))));
    const U256 u2 = ec::sc_reduce(U256::from_hash(sha256(to_bytes("dm-u2"))));
    const U256 n_minus_1 = ec::group_order() - U256::one();
    const std::pair<U256, U256> cases[] = {
        {u1, u2}, {U256::zero(), u2}, {u1, U256::zero()}, {n_minus_1, n_minus_1}};
    for (const auto& [a, b] : cases)
        EXPECT_EQ(ec::double_multiply(a, b, q),
                  ec::add(ref_multiply(a, ec::generator()), ref_multiply(b, q)))
            << a.hex() << " " << b.hex();
}

// --- Signature cache ----------------------------------------------------------------

Hash256 cache_key_for(unsigned i) {
    return sha256(to_bytes("sigcache-key-" + std::to_string(i)));
}

TEST(SigCache, LookupMissThenHit) {
    SigCache cache(8);
    const Hash256 key = cache_key_for(0);
    EXPECT_FALSE(cache.lookup(key).has_value());
    cache.insert(key, true);
    const auto hit = cache.lookup(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_TRUE(*hit);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().insertions, 1u);
}

TEST(SigCache, StoresNegativeOutcomes) {
    SigCache cache(8);
    const Hash256 key = cache_key_for(1);
    cache.insert(key, false);
    const auto hit = cache.lookup(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_FALSE(*hit);
}

TEST(SigCache, DuplicateInsertIsIgnored) {
    SigCache cache(8);
    const Hash256 key = cache_key_for(2);
    cache.insert(key, true);
    cache.insert(key, true);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.stats().insertions, 1u);
}

// Keys that all land in stripe 0, so the per-stripe FIFO order is observable
// (eviction is independent per stripe since the cache was lock-striped).
Hash256 stripe0_key_for(unsigned i) {
    for (unsigned nonce = 0;; ++nonce) {
        const Hash256 h = sha256(
            to_bytes("sigcache-stripe-" + std::to_string(i) + "-" + std::to_string(nonce)));
        if (SigCache::stripe_index(h) == 0) return h;
    }
}

TEST(SigCache, EvictsOldestInsertionFirstWithinStripe) {
    // Capacity 3 * kStripes gives each stripe room for exactly 3 entries.
    SigCache cache(3 * SigCache::kStripes);
    ASSERT_EQ(cache.stripe_capacity(), 3u);
    for (unsigned i = 0; i < 3; ++i) cache.insert(stripe0_key_for(i), true);
    EXPECT_EQ(cache.size(), 3u);
    EXPECT_EQ(cache.stats().evictions, 0u);

    // A fourth same-stripe insertion evicts key 0 (the stripe's oldest).
    cache.insert(stripe0_key_for(3), true);
    EXPECT_EQ(cache.size(), 3u);
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_FALSE(cache.lookup(stripe0_key_for(0)).has_value());
    EXPECT_TRUE(cache.lookup(stripe0_key_for(1)).has_value());
    EXPECT_TRUE(cache.lookup(stripe0_key_for(2)).has_value());
    EXPECT_TRUE(cache.lookup(stripe0_key_for(3)).has_value());

    // The next eviction takes key 1: FIFO order survives the ring wrap.
    cache.insert(stripe0_key_for(4), true);
    EXPECT_EQ(cache.stats().evictions, 2u);
    EXPECT_FALSE(cache.lookup(stripe0_key_for(1)).has_value());
    EXPECT_TRUE(cache.lookup(stripe0_key_for(4)).has_value());

    // A key in a different stripe doesn't disturb stripe 0's occupancy.
    Hash256 other = cache_key_for(99);
    other.data[0] = 0x01; // stripe 1
    cache.insert(other, true);
    EXPECT_EQ(cache.stats().evictions, 2u);
    EXPECT_EQ(cache.size(), 4u);
}

TEST(SigCache, CachedVerifyMatchesDirectVerify) {
    SigCache& cache = SigCache::global();
    cache.clear();
    cache.reset_stats();

    const PrivateKey priv = PrivateKey::from_seed("sigcache-verify");
    const Hash256 msg = sha256(to_bytes("cached message"));
    const Bytes pubkey = priv.public_key().encode();
    const Bytes sig = priv.sign(msg).encode();

    EXPECT_TRUE(verify_signature_cached(pubkey, msg, sig));
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_TRUE(verify_signature_cached(pubkey, msg, sig)); // second call hits
    EXPECT_EQ(cache.stats().hits, 1u);

    // A wrong message is rejected, and the rejection is cached too.
    const Hash256 other = sha256(to_bytes("some other message"));
    EXPECT_FALSE(verify_signature_cached(pubkey, other, sig));
    EXPECT_FALSE(verify_signature_cached(pubkey, other, sig));
    EXPECT_EQ(cache.stats().hits, 2u);
}

TEST(SigCache, RejectsHighSTwin) {
    const PrivateKey priv = PrivateKey::from_seed("sigcache-low-s");
    const Hash256 msg = sha256(to_bytes("low s only"));
    const Bytes pubkey = priv.public_key().encode();
    ec::Signature twin = priv.sign(msg);
    EXPECT_TRUE(verify_signature_cached(pubkey, msg, twin.encode()));
    twin.s = ec::group_order() - twin.s;
    ASSERT_TRUE(priv.public_key().verify(msg, twin)); // textbook ECDSA accepts it
    EXPECT_FALSE(verify_signature_cached(pubkey, msg, twin.encode()));
    EXPECT_FALSE(verify_signature_cached(pubkey, msg, twin.encode())); // cached
}

TEST(SigCache, MalformedInputsVerifyFalseWithoutThrowing) {
    SigCache& cache = SigCache::global();
    cache.clear();
    cache.reset_stats();

    const Hash256 msg = sha256(to_bytes("garbage"));
    const Bytes bad_pubkey(33, 0xAB); // 0xAB is not a valid SEC1 prefix
    const Bytes bad_sig(64, 0x00);
    EXPECT_FALSE(verify_signature_cached(bad_pubkey, msg, bad_sig));
    EXPECT_FALSE(verify_signature_cached(bad_pubkey, msg, bad_sig));
    EXPECT_EQ(cache.stats().hits, 1u); // the negative outcome was cached
}

} // namespace
