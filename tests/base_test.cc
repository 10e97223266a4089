/**
 * @file
 * Unit tests for the foundation module: rng, samplers, summaries,
 * histograms, tables, string helpers and the shared worker pool.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "base/rng.hh"
#include "base/strings.hh"
#include "base/summary.hh"
#include "base/table.hh"
#include "base/worker_pool.hh"

namespace wcrt {
namespace {

TEST(Rng, DeterministicForEqualSeeds)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowStaysInBounds)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.nextBelow(17), 17u);
}

TEST(Rng, NextRangeCoversEndpoints)
{
    Rng rng(9);
    std::set<int64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.nextRange(-3, 3));
    EXPECT_TRUE(seen.count(-3));
    EXPECT_TRUE(seen.count(3));
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Rng rng(11);
    for (int i = 0; i < 10000; ++i) {
        double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, GaussianMomentsAreSane)
{
    Rng rng(13);
    Summary s;
    for (int i = 0; i < 50000; ++i)
        s.add(rng.nextGaussian());
    EXPECT_NEAR(s.mean(), 0.0, 0.02);
    EXPECT_NEAR(s.stddev(), 1.0, 0.02);
}

TEST(Rng, GaussianWithParamsShiftsAndScales)
{
    Rng rng(17);
    Summary s;
    for (int i = 0; i < 50000; ++i)
        s.add(rng.nextGaussian(5.0, 2.0));
    EXPECT_NEAR(s.mean(), 5.0, 0.05);
    EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(Rng, ShufflePreservesElements)
{
    Rng rng(19);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    auto original = v;
    rng.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, original);
}

TEST(Rng, SplitProducesIndependentStream)
{
    Rng a(23);
    Rng b = a.split();
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Zipf, SkewFavorsLowRanks)
{
    Rng rng(29);
    ZipfSampler zipf(1000, 1.0);
    std::vector<int> counts(1000, 0);
    for (int i = 0; i < 100000; ++i)
        ++counts[zipf.sample(rng)];
    EXPECT_GT(counts[0], counts[10]);
    EXPECT_GT(counts[10], counts[500]);
}

TEST(Zipf, ZeroSkewIsUniform)
{
    Rng rng(31);
    ZipfSampler zipf(10, 0.0);
    std::vector<int> counts(10, 0);
    for (int i = 0; i < 100000; ++i)
        ++counts[zipf.sample(rng)];
    for (int c : counts)
        EXPECT_NEAR(c, 10000, 600);
}

TEST(Zipf, PmfSumsToOne)
{
    ZipfSampler zipf(100, 1.2);
    double sum = 0.0;
    for (size_t i = 0; i < zipf.size(); ++i)
        sum += zipf.pmf(i);
    EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Summary, BasicMoments)
{
    Summary s;
    for (double x : {1.0, 2.0, 3.0, 4.0})
        s.add(x);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
    EXPECT_DOUBLE_EQ(s.sum(), 10.0);
    EXPECT_NEAR(s.variance(), 1.25, 1e-12);
}

TEST(Summary, MergeMatchesSequential)
{
    Summary all, a, b;
    Rng rng(37);
    for (int i = 0; i < 1000; ++i) {
        double x = rng.nextGaussian(3.0, 7.0);
        all.add(x);
        (i % 2 ? a : b).add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Summary, EmptyIsWellDefined)
{
    Summary s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_TRUE(std::isinf(s.min()));
}

TEST(Table, AlignsAndCounts)
{
    Table t({"name", "value"});
    t.cell("alpha").cell(1.5).endRow();
    t.cell("b").cell(uint64_t{42}).endRow();
    EXPECT_EQ(t.rows(), 2u);
    std::ostringstream os;
    t.print(os);
    EXPECT_NE(os.str().find("alpha"), std::string::npos);
    EXPECT_NE(os.str().find("1.50"), std::string::npos);
}

TEST(Strings, SplitAndJoin)
{
    auto parts = split("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[2], "");
}

TEST(Strings, SplitWhitespaceDropsEmpties)
{
    auto parts = splitWhitespace("  hello   world \t foo\n");
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "hello");
    EXPECT_EQ(parts[2], "foo");
}

TEST(Strings, ToLowerAndPrefix)
{
    EXPECT_TRUE(startsWith("wordcount", "word"));
    EXPECT_FALSE(startsWith("word", "wordcount"));
}

TEST(Strings, FnvIsStable)
{
    EXPECT_EQ(fnv1a("abc"), fnv1a("abc"));
    EXPECT_NE(fnv1a("abc"), fnv1a("abd"));
    // Known FNV-1a vector.
    EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ull);
}

TEST(WorkerPool, HardwareWorkersIsPositive)
{
    // hardware_concurrency() may report 0 (unknown) or 1 (single
    // core); the resolved count must always admit at least the
    // calling thread as an executor.
    EXPECT_GE(WorkerPool::hardwareWorkers(), 1u);
}

TEST(WorkerPool, SharedPoolIsOneInstance)
{
    EXPECT_EQ(&WorkerPool::shared(), &WorkerPool::shared());
}

TEST(WorkerPool, RunBoundedExecutesEveryIndexOnce)
{
    constexpr size_t kCount = 1000;
    std::vector<std::atomic<int>> hits(kCount);
    WorkerPool::shared().runBounded(kCount, 4, [&](size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < kCount; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(WorkerPool, RunBoundedCapOneStaysOnCaller)
{
    // cap <= 1 must never queue a ticket: the strictly serial fast
    // path runs every job on the calling thread, in index order.
    std::vector<std::thread::id> seen;
    WorkerPool::shared().runBounded(64, 1, [&](size_t i) {
        EXPECT_EQ(seen.size(), i);
        seen.push_back(std::this_thread::get_id());
    });
    ASSERT_EQ(seen.size(), 64u);
    for (const auto &id : seen)
        EXPECT_EQ(id, std::this_thread::get_id());
}

TEST(WorkerPool, RunBoundedRespectsExecutorCap)
{
    // A cap of 2 admits the caller plus at most one pool thread: the
    // high-water mark of concurrently running jobs must not pass 2
    // even when many more pool threads sit idle.
    std::atomic<int> running{0};
    std::atomic<int> high_water{0};
    WorkerPool::shared().runBounded(256, 2, [&](size_t) {
        int now = running.fetch_add(1, std::memory_order_acq_rel) + 1;
        int seen = high_water.load(std::memory_order_relaxed);
        while (now > seen &&
               !high_water.compare_exchange_weak(seen, now)) {
        }
        running.fetch_sub(1, std::memory_order_acq_rel);
    });
    EXPECT_LE(high_water.load(), 2);
    EXPECT_GE(high_water.load(), 1);
}

TEST(WorkerPool, NestedRunBoundedDoesNotDeadlock)
{
    // A job running on the shared pool may itself fan out on the
    // shared pool (a sweep inside a pooled replay). The inner wait()
    // helps with its own ticket's indices, so progress never depends
    // on a free pool thread.
    constexpr size_t kOuter = 8;
    constexpr size_t kInner = 32;
    std::atomic<size_t> total{0};
    WorkerPool::shared().runBounded(kOuter, 4, [&](size_t) {
        WorkerPool::shared().runBounded(kInner, 4, [&](size_t) {
            total.fetch_add(1, std::memory_order_relaxed);
        });
    });
    EXPECT_EQ(total.load(), kOuter * kInner);
}

} // namespace
} // namespace wcrt
