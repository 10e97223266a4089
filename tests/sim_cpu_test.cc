/**
 * @file
 * Tests for the prefetcher, the footprint sweeper and the integrated
 * SimCpu model (report consistency, machine configs, metric vector).
 */

#include <gtest/gtest.h>

#include <set>

#include "base/rng.hh"
#include "core/metrics.hh"
#include "sim/footprint.hh"
#include "sim/prefetcher.hh"
#include "sim/sim_cpu.hh"
#include "trace/code_layout.hh"
#include "trace/tracer.hh"

namespace wcrt {
namespace {

TEST(Prefetcher, ConfirmsForwardStream)
{
    StreamPrefetcher pf;
    StreamPrefetcher::Advice a;
    for (int i = 0; i < 8; ++i)
        a = pf.observe(0x10000 + static_cast<uint64_t>(i) * 64);
    EXPECT_TRUE(a.covered);
    EXPECT_GT(a.prefetchLines, 0u);
    EXPECT_GE(pf.streamsConfirmed(), 1u);
}

TEST(Prefetcher, IgnoresRandomAccesses)
{
    StreamPrefetcher pf;
    Rng rng(3);
    bool any_covered = false;
    for (int i = 0; i < 200; ++i) {
        auto a = pf.observe(rng.nextBelow(1ull << 30) & ~63ull);
        any_covered = any_covered || a.covered;
    }
    EXPECT_FALSE(any_covered);
}

TEST(Prefetcher, TracksInterleavedStreams)
{
    StreamPrefetcher pf;
    uint64_t covered = 0;
    for (int i = 0; i < 64; ++i) {
        // Three interleaved forward streams (like STREAM triad).
        covered += pf.observe(0x100000 + i * 64ull).covered;
        covered += pf.observe(0x900000 + i * 64ull).covered;
        covered += pf.observe(0x1200000 + i * 64ull).covered;
    }
    EXPECT_GT(covered, 150u);  // nearly all after warmup
}

TEST(Prefetcher, DisabledNeverCovers)
{
    PrefetcherConfig cfg;
    cfg.enabled = false;
    StreamPrefetcher pf(cfg);
    for (int i = 0; i < 32; ++i)
        EXPECT_FALSE(pf.observe(i * 64ull).covered);
}

TEST(FootprintSweep, MonotoneNonIncreasingCurves)
{
    CodeLayout layout;
    auto fw = layout.addFunction("big", CodeLayer::Framework, 256 * 1024,
                                 CallProfile{400, 4096});
    FootprintSweep isweep(SweepKind::Instruction, {16, 64, 256, 1024});
    FootprintSweep usweep(SweepKind::Unified, {16, 64, 256, 1024});
    TeeSink tee;
    tee.addSink(&isweep);
    tee.addSink(&usweep);
    Tracer t(layout, tee);
    t.call(fw);
    for (int i = 0; i < 200; ++i) {
        t.ret();
        t.call(fw);
    }
    t.ret();
    for (const FootprintSweep *sweep : {&isweep, &usweep}) {
        auto curve = sweep->missRatios();
        for (size_t i = 1; i < curve.size(); ++i)
            EXPECT_LE(curve[i], curve[i - 1] + 1e-9);
    }
}

TEST(FootprintSweep, BigCodeMissesSmallCaches)
{
    CodeLayout layout;
    auto fw = layout.addFunction("big", CodeLayer::Framework, 512 * 1024,
                                 CallProfile{500, 8192});
    FootprintSweep sweep(SweepKind::Instruction, paperSweepSizesKb());
    Tracer t(layout, sweep);
    for (int i = 0; i < 300; ++i) {
        t.call(fw);
        t.ret();
    }
    auto curve = sweep.missRatios();
    // 16 KB must miss clearly more than 8 MB.
    EXPECT_GT(curve.front(), 3.0 * curve.back() + 1e-6);
}

TEST(SimCpu, ReportRatiosAreConsistent)
{
    CodeLayout layout;
    auto fn = layout.addFunction("k", CodeLayer::Application, 4096);
    SimCpu cpu(xeonE5645());
    Tracer t(layout, cpu);
    t.call(fn);
    t.loop(5000, [&](uint64_t i) {
        t.intAlu(IntPurpose::IntAddress, 2);
        t.load(0x100000 + (i * 64) % 65536, 8);
        t.fpAlu(1);
        t.store(0x200000 + (i * 8) % 4096, 8);
    });
    t.ret();
    CpuReport r = cpu.report();

    EXPECT_GT(r.instructions, 5000u * 5);
    EXPECT_GT(r.ipc, 0.0);
    EXPECT_LT(r.ipc, 4.0);
    EXPECT_NEAR(r.ipc * r.cpi, 1.0, 1e-9);
    double mix = r.loadRatio + r.storeRatio + r.branchRatio +
                 r.integerRatio + r.fpRatio + r.otherRatio;
    EXPECT_NEAR(mix, 1.0, 1e-9);
    EXPECT_GE(r.frontendStallRatio, 0.0);
    EXPECT_GE(r.backendStallRatio, 0.0);
    EXPECT_LE(r.frontendStallRatio + r.backendStallRatio, 1.0);
    EXPECT_GT(r.codeFootprintKb, 0.0);
    EXPECT_GT(r.dataFootprintKb, 0.0);
}

TEST(SimCpu, EmptyRunProducesZeroReport)
{
    SimCpu cpu(xeonE5645());
    CpuReport r = cpu.report();
    EXPECT_EQ(r.instructions, 0u);
    EXPECT_EQ(r.ipc, 0.0);
}

TEST(SimCpu, PrefetchingCoversSequentialStreams)
{
    auto run = [](bool prefetch_on) {
        MachineConfig m = xeonE5645();
        m.prefetch.enabled = prefetch_on;
        CodeLayout layout;
        auto fn = layout.addFunction("s", CodeLayer::Application, 1024);
        SimCpu cpu(m);
        Tracer t(layout, cpu);
        t.call(fn);
        // Stream 8 MB sequentially.
        t.loop(131072, [&](uint64_t i) {
            t.load(0x10000000 + i * 64, 8);
        });
        t.ret();
        return cpu.report().l1dMpki;
    };
    double with = run(true);
    double without = run(false);
    EXPECT_LT(with, without / 5.0);
}

TEST(MachineConfigs, MatchTable3)
{
    MachineConfig m = xeonE5645();
    EXPECT_EQ(m.l1i.sizeBytes, 32u * 1024);
    EXPECT_EQ(m.l1d.sizeBytes, 32u * 1024);
    EXPECT_EQ(m.l2.sizeBytes, 256u * 1024);
    EXPECT_EQ(m.l3.sizeBytes, 12u * 1024 * 1024);
    EXPECT_EQ(m.core.cores, 6u);
    EXPECT_NEAR(m.core.frequencyGhz, 2.4, 1e-9);
    EXPECT_TRUE(m.hasL3);

    MachineConfig a = atomD510();
    EXPECT_FALSE(a.hasL3);
    EXPECT_EQ(a.branch.btbEntries, 128u);
    EXPECT_NEAR(a.core.mlp, 1.0, 1e-9);  // in-order
}

TEST(MachineConfigs, AtomSimSweepsL1)
{
    MachineConfig m = atomInOrderSim(256);
    EXPECT_EQ(m.l1i.sizeBytes, 256u * 1024);
    EXPECT_EQ(m.l1d.sizeBytes, 256u * 1024);
    EXPECT_EQ(m.l1i.assoc, 8u);   // the paper's simulator config
    EXPECT_EQ(m.l1i.lineBytes, 64u);
}

TEST(Metrics, VectorHas45NamedEntries)
{
    EXPECT_EQ(numMetrics, 45u);
    const auto &infos = metricInfos();
    std::set<std::string> names;
    for (const auto &info : infos)
        names.insert(info.name);
    EXPECT_EQ(names.size(), 45u);  // unique
    EXPECT_EQ(metricIndex("pipe.ipc"),
              static_cast<size_t>(24));
}

TEST(Metrics, CoversAllEightCategories)
{
    std::set<MetricCategory> cats;
    for (const auto &info : metricInfos())
        cats.insert(info.category);
    EXPECT_EQ(cats.size(), 8u);  // the paper's eight metric groups
}

TEST(Metrics, VectorMatchesReportFields)
{
    CpuReport r;
    r.instructions = 1000;
    r.ipc = 1.5;
    r.l1iMpki = 12.0;
    r.branchRatio = 0.2;
    MetricVector v = toMetricVector(r);
    EXPECT_DOUBLE_EQ(v[metricIndex("pipe.ipc")], 1.5);
    EXPECT_DOUBLE_EQ(v[metricIndex("cache.l1i_mpki")], 12.0);
    EXPECT_DOUBLE_EQ(v[metricIndex("mix.branch_ratio")], 0.2);
}

} // namespace
} // namespace wcrt
