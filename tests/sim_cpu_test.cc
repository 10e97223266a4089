/**
 * @file
 * Tests for the prefetcher, the footprint sweeper and the integrated
 * SimCpu model (report consistency, pinned raw counters, footprints,
 * geometry checks, machine configs, metric vector).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <set>
#include <string>
#include <vector>

#include "base/rng.hh"
#include "core/metrics.hh"
#include "op_streams.hh"
#include "scenario/scenario.hh"
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

TEST(Prefetcher, RejectsLinesUnderEightBytes)
{
    // Line ids of 8-byte or larger lines stay below 2^61, so the window
    // test `line - lastLine <= 4` never meets a wrapped window end.
    for (uint32_t bytes : {1u, 2u, 4u}) {
        PrefetcherConfig cfg;
        cfg.lineBytes = bytes;
        EXPECT_DEATH({ StreamPrefetcher pf(cfg); }, "at least 8 bytes");
    }
    PrefetcherConfig cfg;
    cfg.lineBytes = 8;
    StreamPrefetcher pf(cfg);
    EXPECT_FALSE(pf.observe(~0ull).covered);
}

/**
 * Reference stream detector, the first-match scan the prefetcher ran
 * before its one-compare form: entries carry a valid flag and the
 * next expected line, each one is tested for the window and then for
 * the same line, and the scan tracks the LRU victim as it goes (the
 * last invalid entry, else the oldest valid one). Takes byte
 * addresses.
 */
struct FirstMatchScanPrefetcher
{
    struct Entry
    {
        uint64_t lastLine = 0, nextLine = 0, lastUse = 0;
        uint8_t confidence = 0;
        bool valid = false;
    };
    PrefetcherConfig cfg;
    std::vector<Entry> table = std::vector<Entry>(cfg.streams);
    uint64_t tick = 0, confirmed = 0, covered = 0;

    StreamPrefetcher::Advice
    observe(uint64_t addr)
    {
        StreamPrefetcher::Advice advice;
        ++tick;
        const int shift = std::countr_zero(cfg.lineBytes);
        uint64_t line = addr >> shift;
        Entry *lru = &table[0];
        for (Entry &e : table) {
            if (!e.valid) {
                lru = &e;
                continue;
            }
            if (lru->valid && e.lastUse < lru->lastUse)
                lru = &e;
            if (line >= e.nextLine && line < e.nextLine + 4) {
                e.lastUse = tick;
                e.lastLine = line;
                e.nextLine = line + 1;
                if (e.confidence < 4)
                    ++e.confidence;
                if (e.confidence >= 2) {
                    confirmed += e.confidence == 2 ? 1 : 0;
                    ++covered;
                    advice = {true, cfg.degree, (line + 1) << shift};
                }
                return advice;
            }
            if (line == e.lastLine) {
                e.lastUse = tick;
                return advice;
            }
        }
        *lru = Entry{line, line + 1, tick, 0, true};
        return advice;
    }
};

/**
 * Line ids of one seeded address mix: "streams" interleaves `k`
 * forward streams; "backward", "strides" (of 1-6 lines), "repeats"
 * (of the same line), "converging" (two streams onto the same lines),
 * "random" and "edges" (streams within a few lines of 0 and of 2^64)
 * interleave their own few. Ids past the top of the address space
 * wrap once turned into addresses.
 */
std::vector<uint64_t>
prefetchMixLines(const std::string &mix, uint32_t k, size_t calls,
                 Rng &rng)
{
    // Steps of 0-5 lines: the same line, the window's four lines and
    // the first line past it.
    auto step = [&rng]() -> uint64_t {
        uint64_t pick = rng.nextBelow(16);
        return pick < 2 ? 0 : pick < 12 ? 1 : 2 + rng.nextBelow(4);
    };
    std::vector<uint64_t> c(mix == "streams" ? k : 6);
    for (uint64_t &line : c)
        line = rng.nextBelow(1ull << 40);
    if (mix == "converging")
        c[1] = c[0] - 60;
    if (mix == "edges")
        c = {0, 3, ~0ull - 2, ~0ull - 8};
    std::vector<uint64_t> lines;
    for (size_t i = 0; lines.size() < calls; ++i) {
        uint64_t &cur = c[i % c.size()];
        if (mix == "streams") {
            lines.push_back(cur += step());
        } else if (mix == "backward") {
            lines.push_back(cur -= 1 + rng.nextBelow(2));
        } else if (mix == "strides") {
            lines.push_back(cur += 1 + i % c.size());
        } else if (mix == "repeats") {
            cur += step();
            lines.insert(lines.end(), 1 + rng.nextBelow(4), cur);
        } else if (mix == "converging") {
            // The second stream gains a line per round on the first,
            // then touches the first one's line every round.
            lines.push_back(i % 2 == 0 ? ++c[0]
                                       : (c[1] = std::min(c[1] + 2, c[0])));
        } else if (mix == "random") {
            lines.push_back(rng.nextBelow(8) == 0
                                ? rng.next()
                                : rng.nextBelow(rng.nextBelow(256) + 1));
        } else {
            cur += rng.nextBelow(8) == 0 ? ~0ull : step();
            lines.push_back(cur);
        }
    }
    lines.resize(calls);
    return lines;
}

/**
 * Drive StreamPrefetcher and the first-match-scan reference with one
 * mix; every call must give the same advice, and the final counters
 * must agree.
 */
void
expectMatchesFirstMatchScan(const PrefetcherConfig &cfg,
                            const std::string &mix, uint32_t k,
                            uint64_t seed)
{
    SCOPED_TRACE(mix + " k=" + std::to_string(k) + ", " +
                 std::to_string(cfg.streams) + " streams, degree " +
                 std::to_string(cfg.degree) + ", " +
                 std::to_string(cfg.lineBytes) + " B lines");
    StreamPrefetcher pf(cfg);
    FirstMatchScanPrefetcher ref{cfg};
    Rng rng(seed);
    const auto lines = prefetchMixLines(mix, k, 2000, rng);
    for (size_t i = 0; i < lines.size(); ++i) {
        uint64_t addr =
            lines[i] * cfg.lineBytes + rng.nextBelow(cfg.lineBytes);
        auto got = pf.observe(addr);
        auto want = ref.observe(addr);
        ASSERT_EQ(got.covered, want.covered) << "call " << i;
        ASSERT_EQ(got.prefetchLines, want.prefetchLines) << "call " << i;
        ASSERT_EQ(got.prefetchFrom, want.prefetchFrom) << "call " << i;
    }
    EXPECT_EQ(pf.streamsConfirmed(), ref.confirmed);
    EXPECT_EQ(pf.coveredAccesses(), ref.covered);
}

TEST(Prefetcher, MatchesFirstMatchScanReference)
{
    const std::vector<std::pair<std::string, uint32_t>> mixes = {
        {"streams", 1},  {"streams", 8},     {"streams", 15},
        {"streams", 16}, {"streams", 17},    {"streams", 40},
        {"backward", 0}, {"strides", 0},     {"repeats", 0},
        {"random", 0},   {"converging", 0}, {"edges", 0}};
    uint64_t seed = 1;
    for (uint32_t line_bytes : {8u, 64u, 4096u}) {
        for (uint32_t streams : {1u, 2u, 8u, 16u, 32u}) {
            for (uint32_t degree : {0u, 2u, 4u}) {
                for (const auto &[mix, k] : mixes)
                    expectMatchesFirstMatchScan(
                        {true, streams, degree, line_bytes}, mix, k,
                        seed++);
            }
        }
    }
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

/**
 * Every raw counter SimCpu keeps, in one row: instructions; accesses
 * and misses of L1I, L1D, L2, L3, ITLB and DTLB; the ten BranchStats
 * fields in declaration order; the prefetcher's confirmed streams and
 * covered accesses; distinct code lines (64 B) and data pages (4 KB).
 */
using RawCounters = std::array<uint64_t, 27>;

const char *const kCounterNames[] = {
    "instructions", "l1i.accesses", "l1i.misses", "l1d.accesses",
    "l1d.misses", "l2.accesses", "l2.misses", "l3.accesses", "l3.misses",
    "itlb.accesses", "itlb.misses", "dtlb.accesses", "dtlb.misses",
    "conditional", "conditionalMispredicts", "unconditional",
    "unconditionalMispredicts", "taken", "indirect",
    "indirectMispredicts", "returns", "returnMispredicts", "btbMisses",
    "prefetch.confirmed", "prefetch.covered", "codeLines", "dataPages"};

RawCounters
rawCounters(const SimCpu &cpu)
{
    const BranchStats &b = cpu.branches().stats();
    const CpuReport r = cpu.report();
    return {cpu.instructions(),
            cpu.l1i().accesses(), cpu.l1i().misses(),
            cpu.l1d().accesses(), cpu.l1d().misses(),
            cpu.l2().accesses(), cpu.l2().misses(),
            cpu.l3().accesses(), cpu.l3().misses(),
            cpu.itlb().accesses(), cpu.itlb().misses(),
            cpu.dtlb().accesses(), cpu.dtlb().misses(),
            b.conditional, b.conditionalMispredicts, b.unconditional,
            b.unconditionalMispredicts, b.taken, b.indirect,
            b.indirectMispredicts, b.returns, b.returnMispredicts,
            b.btbMisses,
            cpu.prefetcher().streamsConfirmed(),
            cpu.prefetcher().coveredAccesses(),
            static_cast<uint64_t>(r.codeFootprintKb * 1024 / 64),
            static_cast<uint64_t>(r.dataFootprintKb / 4)};
}

/** One stream replayed on one machine, with its expected counters. */
struct PinnedRun
{
    const char *stream;   //!< "random" or "streaming" (op_streams.hh)
    size_t ops;
    const char *machine;  //!< a machine name parseMachine() takes
    RawCounters counts;
};

/**
 * Recorded from the timestamp-walk tag store with a footprint insert
 * on every access. At 20x length the random stream re-hits data in L2
 * and L3 after L1D evictions; the streaming one confirms prefetch
 * streams.
 */
const PinnedRun kPinnedRuns[] = {
    {"random", kStreamOps, "xeon",
     {10000,
      10000, 256, 3474, 3447, 3703, 3650, 3650, 3648,
      10000, 4, 3474, 3254,
      1503, 594, 0, 0, 899, 0, 0, 307, 307, 909,
      0, 0, 256, 993}},
    {"random", kStreamOps, "atom",
     {10000,
      10000, 256, 3474, 3454, 3710, 3648, 0, 0,
      10000, 4, 3474, 3365,
      1503, 726, 0, 0, 899, 0, 0, 307, 307, 909,
      0, 0, 256, 993}},
    {"random", kStreamOps, "sim32",
     {10000,
      10000, 256, 3474, 3447, 3703, 3648, 0, 0,
      10000, 4, 3474, 3365,
      1503, 726, 0, 0, 899, 0, 0, 307, 307, 909,
      0, 0, 256, 993}},
    {"streaming", kStreamOps, "xeon",
     {10000,
      10000, 256, 4012, 517, 773, 772, 772, 772,
      10000, 4, 4012, 497,
      1474, 454, 0, 0, 438, 0, 0, 0, 0, 438,
      2, 434, 256, 424}},
    {"streaming", kStreamOps, "atom",
     {10000,
      10000, 256, 4012, 517, 773, 772, 0, 0,
      10000, 4, 4012, 506,
      1474, 532, 0, 0, 438, 0, 0, 0, 0, 438,
      4, 432, 256, 424}},
    {"streaming", kStreamOps, "sim32",
     {10000,
      10000, 256, 4012, 517, 773, 772, 0, 0,
      10000, 4, 4012, 506,
      1474, 532, 0, 0, 438, 0, 0, 0, 0, 438,
      4, 432, 256, 424}},
    {"random", 20 * kStreamOps, "xeon",
     {200000,
      200000, 256, 70064, 69513, 69769, 66080, 66080, 43360,
      200000, 4, 70064, 65651,
      29851, 13023, 0, 0, 17964, 0, 0, 5932, 5932, 18070,
      0, 0, 256, 1024}},
    {"random", 20 * kStreamOps, "atom",
     {200000,
      200000, 256, 70064, 69660, 69916, 62192, 0, 0,
      200000, 4, 70064, 67861,
      29851, 17340, 0, 0, 17964, 0, 0, 5932, 5932, 18072,
      0, 0, 256, 1024}},
    {"random", 20 * kStreamOps, "sim32",
     {200000,
      200000, 256, 70064, 69513, 69769, 46319, 0, 0,
      200000, 4, 70064, 67861,
      29851, 17340, 0, 0, 17964, 0, 0, 5932, 5932, 18072,
      0, 0, 256, 1024}},
    {"streaming", 20 * kStreamOps, "xeon",
     {200000,
      200000, 256, 79924, 9966, 10222, 9987, 9987, 9515,
      200000, 4, 79924, 9538,
      30078, 10496, 0, 0, 9005, 0, 0, 0, 0, 9005,
      6, 8730, 256, 1088}},
    {"streaming", 20 * kStreamOps, "atom",
     {200000,
      200000, 256, 79924, 9977, 10233, 9716, 0, 0,
      200000, 4, 79924, 9838,
      30078, 12214, 0, 0, 9005, 0, 0, 0, 0, 9005,
      15, 8721, 256, 1088}},
    {"streaming", 20 * kStreamOps, "sim32",
     {200000,
      200000, 256, 79924, 9966, 10222, 9515, 0, 0,
      200000, 4, 79924, 9838,
      30078, 12214, 0, 0, 9005, 0, 0, 0, 0, 9005,
      15, 8721, 256, 1088}},
};

TEST(SimCpu, RawCountersArePinned)
{
    for (const PinnedRun &run : kPinnedRuns) {
        SCOPED_TRACE(std::string(run.stream) + " x" +
                     std::to_string(run.ops) + " on " + run.machine);
        auto ops = std::string(run.stream) == "random"
                       ? syntheticStream(run.ops)
                       : streamingStream(run.ops);
        MachineConfig machine;
        ASSERT_TRUE(parseMachine(run.machine, machine));
        SimCpu per_op(machine);
        for (const MicroOp &op : ops)
            per_op.consume(op);
        SimCpu batched(machine);
        batched.consumeOps(ops.data(), ops.size());
        RawCounters got_per_op = rawCounters(per_op);
        RawCounters got_batched = rawCounters(batched);
        for (size_t i = 0; i < run.counts.size(); ++i) {
            EXPECT_EQ(got_per_op[i], run.counts[i])
                << "per-op " << kCounterNames[i];
            EXPECT_EQ(got_batched[i], run.counts[i])
                << "batched " << kCounterNames[i];
        }
    }
}

TEST(SimCpu, FootprintsCountDistinctLinesAndPages)
{
    // The two test streams, plus the random one with its code spread
    // over 1 MB, so L1I lines and ITLB pages are evicted and re-fetched,
    // and with every load and store reading the line fetched 64 ops
    // later, so code lines reach the unified L2 before their fetch.
    std::vector<MicroOp> wide = syntheticStream(kStreamOps);
    for (size_t i = 0; i < wide.size(); ++i)
        wide[i].pc = 0x400000 + (((i * 2654435761u) % (1u << 20)) & ~3ull);
    for (size_t i = 0; i + 64 < wide.size(); ++i)
        if (wide[i].memSize > 0)
            wide[i].memAddr = wide[i + 64].pc;
    for (const auto &ops : {syntheticStream(kStreamOps),
                            streamingStream(kStreamOps), wide}) {
        std::set<uint64_t> lines, pages;
        for (const MicroOp &op : ops) {
            lines.insert(op.pc >> 6);
            if (op.memSize > 0)
                pages.insert(op.memAddr >> 12);
        }
        for (const char *name : {"xeon", "atom", "sim32"}) {
            SCOPED_TRACE(name);
            MachineConfig machine;
            ASSERT_TRUE(parseMachine(name, machine));
            SimCpu per_op(machine);
            for (const MicroOp &op : ops)
                per_op.consume(op);
            SimCpu batched(machine);
            batched.consumeOps(ops.data(), ops.size());
            for (const SimCpu *cpu : {&per_op, &batched}) {
                CpuReport r = cpu->report();
                EXPECT_EQ(r.codeFootprintKb, lines.size() * 64.0 / 1024.0);
                EXPECT_EQ(r.dataFootprintKb, pages.size() * 4.0);
            }
        }
    }
}

TEST(SimCpu, RejectsLineAndPageSizesTheSkipsCannotUse)
{
    // The repeat skips and miss-only footprint inserts key code lines
    // by pc >> 6 and pages by address >> 12.
    MachineConfig l1i = xeonE5645();
    l1i.l1i.lineBytes = 32;
    EXPECT_DEATH({ SimCpu cpu(l1i); }, "64-byte L1I lines");
    MachineConfig itlb = atomD510();
    itlb.itlb.pageBytes = 8192;
    EXPECT_DEATH({ SimCpu cpu(itlb); }, "4 KB ITLB/DTLB pages");
    MachineConfig dtlb = xeonE5645();
    dtlb.dtlb.pageBytes = 2 * 1024 * 1024;
    EXPECT_DEATH({ SimCpu cpu(dtlb); }, "4 KB ITLB/DTLB pages");
}

TEST(SimCpu, PrefetchFillsStepByThePrefetcherLine)
{
    // 128-byte prefetch lines over 64-byte L1D lines: a stream striding
    // three prefetch lines hits on demand only if the four fills ahead
    // of each access sit a prefetch line apart, not 64 bytes apart.
    MachineConfig m = xeonE5645();
    m.prefetch.lineBytes = 128;
    std::vector<MicroOp> ops(1000);
    for (size_t i = 0; i < ops.size(); ++i) {
        ops[i].kind = OpKind::Load;
        ops[i].pc = 0x400000;
        ops[i].memAddr = 0x10000000 + i * 3 * 128;
        ops[i].memSize = 8;
    }
    SimCpu per_op(m);
    for (const MicroOp &op : ops)
        per_op.consume(op);
    SimCpu batched(m);
    batched.consumeOps(ops.data(), ops.size());
    // Only the accesses before the stream is confirmed miss.
    EXPECT_EQ(per_op.l1d().misses(), 3u);
    EXPECT_EQ(batched.l1d().misses(), 3u);
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
