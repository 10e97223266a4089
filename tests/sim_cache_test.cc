/**
 * @file
 * Unit tests for the cache and TLB models: hit/miss semantics, LRU
 * replacement, geometry validation and capacity behaviour.
 */

#include <gtest/gtest.h>

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
