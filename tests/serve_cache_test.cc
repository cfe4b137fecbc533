/**
 * @file
 * Tests for the serving layer's sharded verifying LRU cache: recency
 * and eviction order, fingerprint-collision safety, counter
 * accounting, and seeded fuzz passes over the binary request key and
 * the hash the cache is keyed on.
 */

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <unordered_map>

#include "model/fingerprint.hh"
#include "model/paper_data.hh"
#include "model/solver.hh"
#include "property_test_support.hh"
#include "serve/cache.hh"
#include "util/rng.hh"

namespace memsense::serve
{
namespace
{

/** A recognizable operating point (only cpiEff matters here). */
model::OperatingPoint
opWithCpi(double cpi)
{
    model::OperatingPoint op;
    op.cpiEff = cpi;
    return op;
}

/** A distinct key per @p n; tests pass their own fingerprints. */
model::RequestKey
keyOf(std::uint64_t n)
{
    model::RequestKey key;
    key.words[0] = n;
    return key;
}

TEST(ServeCache, LruEvictionOrderWithRecencyRefresh)
{
    // One shard so the LRU order is global and fully predictable.
    ShardedLruCache cache({.capacity = 4, .shards = 1});
    for (std::uint64_t fp = 1; fp <= 4; ++fp)
        cache.insert(fp, keyOf(fp), opWithCpi(static_cast<double>(fp)));

    // Refresh entry 1: recency order becomes [1, 4, 3, 2].
    ASSERT_TRUE(cache.lookup(1, keyOf(1)).has_value());

    // A fifth insert must evict the least recent entry — 2, not 1.
    cache.insert(5, keyOf(5), opWithCpi(5.0));
    EXPECT_FALSE(cache.lookup(2, keyOf(2)).has_value());
    EXPECT_TRUE(cache.lookup(1, keyOf(1)).has_value());
    EXPECT_TRUE(cache.lookup(3, keyOf(3)).has_value());
    EXPECT_TRUE(cache.lookup(4, keyOf(4)).has_value());
    EXPECT_TRUE(cache.lookup(5, keyOf(5)).has_value());

    CacheStats s = cache.stats();
    EXPECT_EQ(s.inserts, 5u);
    EXPECT_EQ(s.evictions, 1u);
    EXPECT_EQ(s.size, 4u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.hits, 5u);
}

TEST(ServeCache, FingerprintCollisionNeverReturnsWrongEntry)
{
    // Two real request keys that differ in one bit of one word, forced
    // onto the same fingerprint.
    const model::RequestKey a = model::requestKey(
        model::paper::classParams(model::WorkloadClass::BigData),
        model::Platform::paperBaseline());
    model::RequestKey b = a;
    b.words[12] ^= 1; // the last bit of the compulsory latency
    ASSERT_FALSE(a == b);
    constexpr std::uint64_t kForced = 42;

    ShardedLruCache cache({.capacity = 8, .shards = 1});
    cache.insert(kForced, a, opWithCpi(1.0));

    // Same fingerprint, different key: the hit must be rejected
    // (counted as a collision), never served.
    EXPECT_FALSE(cache.lookup(kForced, b).has_value());
    EXPECT_EQ(cache.stats().collisions, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);

    // A colliding insert keeps the incumbent and drops the new entry.
    cache.insert(kForced, b, opWithCpi(2.0));
    EXPECT_EQ(cache.stats().collisions, 2u);
    auto hit = cache.lookup(kForced, a);
    ASSERT_TRUE(hit.has_value());
    EXPECT_DOUBLE_EQ(hit->cpiEff, 1.0);
    EXPECT_FALSE(cache.lookup(kForced, b).has_value());
    EXPECT_EQ(cache.stats().inserts, 1u);
    EXPECT_EQ(cache.stats().size, 1u);

    // Under its own fingerprint the same key is an ordinary entry.
    cache.insert(kForced + 1, b, opWithCpi(2.0));
    hit = cache.lookup(kForced + 1, b);
    ASSERT_TRUE(hit.has_value());
    EXPECT_DOUBLE_EQ(hit->cpiEff, 2.0);
}

TEST(ServeCache, CapacityIsEnforcedAcrossShards)
{
    // 3 shards rounds up to 4; capacity splits across them.
    ShardedLruCache cache({.capacity = 8, .shards = 3});
    EXPECT_EQ(cache.capacity(), 8u);
    for (std::uint64_t fp = 0; fp < 100; ++fp)
        cache.insert(fp, keyOf(fp), opWithCpi(1.0));
    CacheStats s = cache.stats();
    EXPECT_LE(s.size, 8u);
    EXPECT_EQ(s.inserts, 100u);
    EXPECT_EQ(s.evictions, 100u - s.size);
}

TEST(ServeCache, ClearDropsEntriesButKeepsCounters)
{
    ShardedLruCache cache({.capacity = 8, .shards = 2});
    cache.insert(7, keyOf(7), opWithCpi(1.0));
    ASSERT_TRUE(cache.lookup(7, keyOf(7)).has_value());
    cache.clear();
    EXPECT_FALSE(cache.lookup(7, keyOf(7)).has_value());
    CacheStats s = cache.stats();
    EXPECT_EQ(s.size, 0u);
    EXPECT_EQ(s.inserts, 1u);
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
}

/**
 * Seeded fuzz over the fingerprint scheme: across many random
 * requests, two requests share a fingerprint iff they share the
 * request key, and both are recomputation-stable. (64-bit collisions
 * are possible in principle; a sample this size colliding would
 * indicate a mixing bug, not bad luck.)
 */
TEST(ServeCache, FingerprintFuzzMatchesCanonicalKeys)
{
    Rng rng(20150614);
    std::unordered_map<std::uint64_t, model::RequestKey> seen;
    for (int i = 0; i < 500; ++i) {
        model::WorkloadParams p = proptest::genWorkloadParams(rng);
        model::Platform plat = proptest::genPlatform(rng);
        const model::RequestKey key = model::requestKey(p, plat);
        const std::uint64_t fp = key.hash();
        EXPECT_TRUE(key == model::requestKey(p, plat));
        EXPECT_EQ(fp, model::requestKey(p, plat).hash());
        auto [it, inserted] = seen.emplace(fp, key);
        if (!inserted) {
            EXPECT_TRUE(it->second == key)
                << "fingerprint collision between distinct requests";
        }
    }
}

/** The 13 solver inputs of a request, as mutable references. */
struct Fields
{
    model::WorkloadParams p;
    model::Platform plat;

    std::array<double *, 10> doubles()
    {
        return {&p.cpiCache, &p.bf, &p.mpki, &p.wbr, &p.iopi, &p.ioBytes,
                &plat.ghz, &plat.memory.megaTransfers,
                &plat.memory.efficiency, &plat.memory.compulsoryNs};
    }

    std::array<int *, 3> ints()
    {
        return {&plat.cores, &plat.smt, &plat.memory.channels};
    }

    model::RequestKey key() const { return model::requestKey(p, plat); }
};

/** True when every solver input of @p a and @p b has the same bits. */
bool
bitIdentical(Fields a, Fields b)
{
    for (std::size_t i = 0; i < 10; ++i)
        if (std::memcmp(a.doubles()[i], b.doubles()[i], sizeof(double)) != 0)
            return false;
    for (std::size_t i = 0; i < 3; ++i)
        if (*a.ints()[i] != *b.ints()[i])
            return false;
    return true;
}

/**
 * Seeded fuzz over the key itself: two requests have equal keys
 * exactly when all 13 solver inputs are bit-identical. Each field is
 * perturbed alone (one ulp, one unit, or the sign of a zero) and the
 * key must notice; labels outside the solver inputs must not matter.
 */
TEST(ServeCache, RequestKeyEqualIffFieldsBitIdentical)
{
    Rng rng(20151004);
    for (int i = 0; i < 200; ++i) {
        Fields base{proptest::genWorkloadParams(rng),
                    proptest::genPlatform(rng)};
        const model::RequestKey key = base.key();

        Fields relabeled = base;
        relabeled.p.name = "another-name";
        EXPECT_TRUE(relabeled.key() == key);

        for (std::size_t f = 0; f < 10; ++f) {
            Fields moved = base;
            double &x = *moved.doubles()[f];
            x = std::nextafter(x, HUGE_VAL);
            EXPECT_FALSE(bitIdentical(moved, base));
            EXPECT_FALSE(moved.key() == key) << "double field " << f;
            x = *base.doubles()[f];
            EXPECT_TRUE(bitIdentical(moved, base));
            EXPECT_TRUE(moved.key() == key) << "double field " << f;
        }
        for (std::size_t f = 0; f < 3; ++f) {
            Fields moved = base;
            *moved.ints()[f] += 1;
            EXPECT_FALSE(moved.key() == key) << "int field " << f;
        }

        // An independent draw shares a key only if it is bit-identical.
        Fields other{proptest::genWorkloadParams(rng),
                     proptest::genPlatform(rng)};
        EXPECT_EQ(other.key() == key, bitIdentical(other, base));
    }

    // -0.0 == 0.0 as a double, but not as a solver input bit pattern.
    Fields zero{model::paper::classParams(model::WorkloadClass::Hpc),
                model::Platform::paperBaseline()};
    zero.p.iopi = 0.0;
    Fields negative_zero = zero;
    negative_zero.p.iopi = -0.0;
    EXPECT_FALSE(zero.key() == negative_zero.key());
    EXPECT_NE(zero.key().hash(), negative_zero.key().hash());
    // Negative ints are sign-extended, not truncated.
    Fields negative = zero;
    negative.plat.cores = -1;
    EXPECT_EQ(negative.key().words[6], ~std::uint64_t{0});
}

TEST(ServeCache, RequestKeyHashIsPinned)
{
    // The hash picks each entry's shard, so a change to it moves
    // entries between shards and changes what a full shard evicts.
    // Pin it so such a change is deliberate.
    const model::RequestKey key = model::requestKey(
        model::paper::classParams(model::WorkloadClass::BigData),
        model::Platform::paperBaseline());
    EXPECT_EQ(model::RequestKey{}.hash(), 0x669c21b701b6cf85u);
    EXPECT_EQ(key.hash(), 0x859b046d07ed1072u);
}

/** @p v as the server sees it: printed "%.6g" and parsed back. */
double
wire(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return std::strtod(buf, nullptr);
}

/**
 * The cache shards on the hash's low bits. On two membench-shaped
 * 16x8 design-space sweeps (points that differ in the low mantissa
 * bits of one or two words) every one of 8 shards must get between
 * half and twice its fair share of the 128 points.
 */
TEST(ServeCache, ShardsStayBalancedOnSweepGrids)
{
    constexpr std::uint64_t kShards = 8;
    const model::WorkloadParams p =
        model::paper::classParams(model::WorkloadClass::BigData);
    auto check = [&](const char *grid, auto &&point) {
        std::array<int, kShards> count{};
        for (int i = 0; i < 16; ++i)
            for (int j = 0; j < 8; ++j)
                ++count[model::requestKey(p, point(i, j)).hash() &
                        (kShards - 1)];
        for (std::uint64_t s = 0; s < kShards; ++s) {
            EXPECT_GE(count[s], 8) << grid << " shard " << s;
            EXPECT_LE(count[s], 32) << grid << " shard " << s;
        }
    };
    check("latency x channels", [](int i, int j) {
        model::Platform plat = model::Platform::paperBaseline();
        plat.memory.compulsoryNs = wire(50.0 + 2.5 * i);
        plat.memory.channels = 1 + j;
        return plat;
    });
    check("ghz x speed", [](int i, int j) {
        model::Platform plat = model::Platform::paperBaseline();
        plat.ghz = wire(1.6 + 0.1 * i);
        plat.memory.megaTransfers = wire(1066.0 + 40.0 * j);
        return plat;
    });
}

} // anonymous namespace
} // namespace memsense::serve
