/**
 * @file
 * Unit tests for the cache and TLB models: hit/miss semantics, LRU
 * replacement, geometry validation and capacity behaviour, plus a
 * differential test of the tag store against a timestamp-walk LRU.
 */

#include <gtest/gtest.h>

#include <bit>
#include <string>
#include <vector>

#include "base/rng.hh"
#include "sim/cache.hh"
#include "sim/tlb.hh"

namespace wcrt {
namespace {

CacheConfig
smallCache(uint64_t size = 1024, uint32_t assoc = 2, uint32_t line = 64)
{
    return {"test", size, assoc, line};
}

TEST(Cache, ColdMissThenHit)
{
    Cache c(smallCache());
    EXPECT_FALSE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x103F));  // same line
    EXPECT_FALSE(c.access(0x1040)); // next line
    EXPECT_EQ(c.accesses(), 4u);
    EXPECT_EQ(c.misses(), 2u);
}

TEST(Cache, LruEvictsLeastRecent)
{
    // 2-way, 64B lines, 1KB => 8 sets. Three lines mapping to set 0:
    // line addresses differing by 8*64 = 512 bytes.
    Cache c(smallCache());
    EXPECT_FALSE(c.access(0x0));
    EXPECT_FALSE(c.access(0x200));
    EXPECT_TRUE(c.access(0x0));     // refresh line 0
    EXPECT_FALSE(c.access(0x400));  // evicts 0x200 (LRU)
    EXPECT_TRUE(c.access(0x0));
    EXPECT_FALSE(c.access(0x200));  // was evicted
}

TEST(Cache, FullyAssociativeKeepsWorkingSet)
{
    CacheConfig cfg{"fa", 512, 8, 64};  // one set of 8 ways
    Cache c(cfg);
    for (uint64_t i = 0; i < 8; ++i)
        EXPECT_FALSE(c.access(i * 64));
    for (uint64_t i = 0; i < 8; ++i)
        EXPECT_TRUE(c.access(i * 64));
    EXPECT_FALSE(c.access(8 * 64));
}

TEST(Cache, InvalidateDropsContentsKeepsStats)
{
    Cache c(smallCache());
    c.access(0x0);
    c.invalidate();
    EXPECT_FALSE(c.access(0x0));
    EXPECT_EQ(c.accesses(), 2u);
    EXPECT_EQ(c.misses(), 2u);
}

TEST(Cache, ResetStatsKeepsContents)
{
    Cache c(smallCache());
    c.access(0x0);
    c.resetStats();
    EXPECT_EQ(c.accesses(), 0u);
    EXPECT_TRUE(c.access(0x0));
}

TEST(Cache, MissRatioDropsWhenWorkingSetFits)
{
    // Working set of 16KB streamed repeatedly: a 32KB cache should
    // converge to ~0 misses; an 8KB cache should keep missing.
    auto run = [](uint64_t cache_size) {
        Cache c({"c", cache_size, 8, 64});
        for (int pass = 0; pass < 64; ++pass)
            for (uint64_t addr = 0; addr < 16 * 1024; addr += 64)
                c.access(addr);
        return c.missRatio();
    };
    EXPECT_LT(run(32 * 1024), 0.05);  // only cold misses remain
    EXPECT_GT(run(8 * 1024), 0.9);  // LRU streaming pathology
}

TEST(Cache, LargerCacheNeverWorseOnRandomTrace)
{
    Rng rng(99);
    std::vector<uint64_t> trace;
    for (int i = 0; i < 20000; ++i)
        trace.push_back(rng.nextBelow(1 << 20) & ~63ull);
    double prev = 1.1;
    for (uint64_t kb : {4, 16, 64, 256, 1024}) {
        Cache c({"c", kb * 1024, 8, 64});
        for (auto a : trace)
            c.access(a);
        EXPECT_LE(c.missRatio(), prev + 0.02) << kb << "KB";
        prev = c.missRatio();
    }
}

TEST(Cache, RejectsBadGeometry)
{
    EXPECT_DEATH(
        { Cache c({"bad", 1000, 3, 60}); }, "power of two|divisible");
}

/**
 * Reference true LRU, the textbook timestamp walk: every way keeps its
 * last-use tick, a hit refreshes it, and a miss fills an empty way or
 * else evicts the valid way with the oldest tick. Takes line ids.
 */
struct TimestampLru
{
    struct Way
    {
        uint64_t tag = 0, lastUse = 0;
        bool valid = false;
    };
    uint32_t assoc;
    uint64_t sets;
    std::vector<Way> ways = std::vector<Way>(sets * assoc);
    uint64_t tick = 0;

    bool
    touch(uint64_t line)
    {
        Way *base = &ways[(line % sets) * assoc], *victim = base;
        ++tick;
        for (Way *way = base; way != base + assoc; ++way) {
            if (way->valid && way->tag == line) {
                way->lastUse = tick;
                return true;
            }
            if (!way->valid ||
                (victim->valid && way->lastUse < victim->lastUse))
                victim = way;
        }
        *victim = Way{line, tick, true};
        return false;
    }
};

/**
 * Drive `Cache` and the reference with one seeded mix of access,
 * accessLine, prefetch, invalidate and resetStats; every call must
 * agree on hit or miss, and the final statistics must agree.
 * Line indices are drawn below a random bound, so every LRU depth
 * hits; one draw in 16 lands on the top of the address space, ~0
 * included.
 */
void
expectMatchesTimestampLru(const CacheConfig &cfg, size_t calls)
{
    SCOPED_TRACE(std::to_string(cfg.sizeBytes) + " B, " +
                 std::to_string(cfg.assoc) + "-way, " +
                 std::to_string(cfg.lineBytes) + " B lines");
    Cache cache(cfg);
    const uint64_t lines = cfg.sizeBytes / cfg.lineBytes;
    TimestampLru ref{cfg.assoc, lines / cfg.assoc};
    uint64_t ref_accesses = 0, ref_misses = 0;
    auto ref_access = [&](uint64_t line) {
        bool hit = ref.touch(line);
        ++ref_accesses;
        ref_misses += hit ? 0 : 1;
        return hit;
    };
    const int shift = std::countr_zero(cfg.lineBytes);
    Rng rng(cfg.sizeBytes * 31 + cfg.assoc * 7 + cfg.lineBytes);
    for (size_t i = 0; i < calls; ++i) {
        uint64_t addr =
            rng.nextBelow(16) == 0
                ? ~0ull - rng.nextBelow(4ull * cfg.lineBytes)
                : rng.nextBelow(rng.nextBelow(2 * lines) + 1) *
                          cfg.lineBytes +
                      rng.nextBelow(cfg.lineBytes);
        uint64_t line = addr >> shift;
        uint64_t pick = rng.nextBelow(1000);
        if (pick == 0) {
            cache.invalidate();
            ref.ways.assign(ref.ways.size(), {});
        } else if (pick == 1) {
            cache.resetStats();
            ref_accesses = ref_misses = 0;
        } else if (pick < 600) {
            ASSERT_EQ(cache.access(addr), ref_access(line)) << "call " << i;
        } else if (pick < 800) {
            ASSERT_EQ(cache.accessLine(line), ref_access(line))
                << "call " << i;
        } else {
            ASSERT_EQ(cache.prefetch(addr), ref.touch(line)) << "call " << i;
        }
    }
    EXPECT_EQ(cache.accesses(), ref_accesses);
    EXPECT_EQ(cache.misses(), ref_misses);
}

TEST(Cache, MatchesTimestampLruAtEveryAssociativity)
{
    for (uint32_t assoc : {1u, 2u, 4u, 8u, 16u})
        expectMatchesTimestampLru({"c", 8 * 1024, assoc, 64}, 200000);
    // Fully associative: one set of every line.
    expectMatchesTimestampLru({"fa", 64 * 64, 64, 64}, 200000);
    expectMatchesTimestampLru({"fa1", 64, 1, 64}, 20000);
}

TEST(Cache, MatchesTimestampLruOnOddSetCounts)
{
    // The footprint ladder's 48 and 96 KB rungs (96 and 192 sets), the
    // Atom D510's 6-way L1D and the E5645's 12,288-set, 16-way L3.
    expectMatchesTimestampLru({"48k", 48 * 1024, 8, 64}, 200000);
    expectMatchesTimestampLru({"96k", 96 * 1024, 8, 64}, 200000);
    expectMatchesTimestampLru({"l1d", 24 * 1024, 6, 64}, 200000);
    expectMatchesTimestampLru({"l3", 12 * 1024 * 1024, 16, 64}, 1000000);
}

TEST(Cache, MatchesTimestampLruAtByteAndPageLines)
{
    // 1-byte lines make every 64-bit value, ~0 included, a line id.
    expectMatchesTimestampLru({"b", 64, 4, 1}, 100000);
    expectMatchesTimestampLru({"b3", 48, 16, 1}, 100000);
    expectMatchesTimestampLru({"bfa", 16, 16, 1}, 100000);
    expectMatchesTimestampLru({"b1", 1, 1, 1}, 20000);
    // TLB-shaped: 4 KB pages, power-of-two and odd set counts.
    expectMatchesTimestampLru({"dtlb", 64 * 4096, 4, 4096}, 100000);
    expectMatchesTimestampLru({"p3", 6 * 4096, 2, 4096}, 100000);
    expectMatchesTimestampLru({"pfa", 12 * 4096, 12, 4096}, 100000);
}

TEST(Tlb, PageGranularity)
{
    Tlb tlb({"tlb", 4, 4, 4096});
    EXPECT_FALSE(tlb.access(0x1000));
    EXPECT_TRUE(tlb.access(0x1FFF));   // same page
    EXPECT_FALSE(tlb.access(0x2000));  // next page
}

TEST(Tlb, CapacityEviction)
{
    Tlb tlb({"tlb", 4, 4, 4096});  // 4 entries fully associative
    for (uint64_t p = 0; p < 5; ++p)
        tlb.access(p * 4096);
    // Page 0 was LRU and must have been evicted by page 4.
    EXPECT_FALSE(tlb.access(0));
    EXPECT_EQ(tlb.misses(), 6u);
}

TEST(Tlb, HitsWithinWorkingSet)
{
    Tlb tlb({"tlb", 64, 4, 4096});
    for (int pass = 0; pass < 4; ++pass)
        for (uint64_t p = 0; p < 32; ++p)
            tlb.access(p * 4096 + pass);
    EXPECT_EQ(tlb.misses(), 32u);
}

} // namespace
} // namespace wcrt
