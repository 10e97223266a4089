/**
 * @file
 * Equivalence tests for the batched micro-op transport: every sink
 * must produce bit-identical state whether the same stream arrives op
 * by op through consume() or partitioned into consumeBatch() blocks
 * of any size — including blocks of one, awkward primes and a ragged
 * final block. This is the TraceSink compatibility contract that lets
 * emitters and the trace reader switch to block transport without
 * perturbing any measurement.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <vector>

#include "base/worker_pool.hh"
#include "core/metrics.hh"
#include "core/profiler.hh"
#include "op_streams.hh"
#include "sim/footprint.hh"
#include "sim/inorder_core.hh"
#include "sim/sim_cpu.hh"
#include "trace/mix_counter.hh"
#include "trace/sampling.hh"
#include "tracefile/trace_writer.hh"
#include "workloads/registry.hh"

namespace wcrt {
namespace {

namespace fs = std::filesystem;

/** Block sizes covering the interesting partitions of one stream. */
const size_t kBlockSizes[] = {1, 7, 4096};

/**
 * Feed `ops` to `sink` in consumeBatch blocks of `block` ops, packed
 * through a reused SoA OpBlock exactly as the emitters deliver them.
 */
void
feedBlocked(TraceSink &sink, const std::vector<MicroOp> &ops, size_t block)
{
    OpBlock buf(block);
    for (size_t i = 0; i < ops.size(); i += block) {
        size_t n = std::min(block, ops.size() - i);
        buf.clear();
        for (size_t j = 0; j < n; ++j)
            buf.push(ops[i + j]);
        sink.consumeBlock(buf);
    }
}

void
feedPerOp(TraceSink &sink, const std::vector<MicroOp> &ops)
{
    for (const auto &op : ops)
        sink.consume(op);
}

/**
 * Replay `ops` through SimCpu per op and at every tested block size on
 * both shipped machines — the Xeon (L3, degree-4 prefetcher) and the
 * Atom (no L3, degree-2 prefetcher) — and require the same metric
 * vector and the same raw counters of every cache and TLB.
 */
void
expectSimCpuBitIdentical(const std::vector<MicroOp> &ops)
{
    auto expect_counts = [](const auto &got, const auto &base,
                            const char *name) {
        EXPECT_EQ(got.accesses(), base.accesses()) << name;
        EXPECT_EQ(got.misses(), base.misses()) << name;
    };
    for (const MachineConfig &machine : {xeonE5645(), atomD510()}) {
        SCOPED_TRACE(machine.name);
        SimCpu per_op(machine);
        feedPerOp(per_op, ops);
        CpuReport base_report = per_op.report();
        MetricVector base = toMetricVector(base_report);
        for (size_t block : kBlockSizes) {
            SCOPED_TRACE("block " + std::to_string(block));
            SimCpu batched(machine);
            feedBlocked(batched, ops, block);
            CpuReport report = batched.report();
            EXPECT_EQ(report.instructions, base_report.instructions);
            EXPECT_EQ(report.cycles, base_report.cycles);
            MetricVector got = toMetricVector(report);
            for (size_t m = 0; m < numMetrics; ++m)
                EXPECT_EQ(got[m], base[m])
                    << "metric " << metricInfos()[m].name;
            expect_counts(batched.l1i(), per_op.l1i(), "L1I");
            expect_counts(batched.l1d(), per_op.l1d(), "L1D");
            expect_counts(batched.l2(), per_op.l2(), "L2");
            expect_counts(batched.l3(), per_op.l3(), "L3");
            expect_counts(batched.itlb(), per_op.itlb(), "ITLB");
            expect_counts(batched.dtlb(), per_op.dtlb(), "DTLB");
        }
    }
}

void
expectOpsEqual(const std::vector<MicroOp> &a,
               const std::vector<MicroOp> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("op " + std::to_string(i));
        EXPECT_EQ(a[i].kind, b[i].kind);
        EXPECT_EQ(a[i].purpose, b[i].purpose);
        EXPECT_EQ(a[i].pc, b[i].pc);
        EXPECT_EQ(a[i].memAddr, b[i].memAddr);
        EXPECT_EQ(a[i].memSize, b[i].memSize);
        EXPECT_EQ(a[i].target, b[i].target);
        EXPECT_EQ(a[i].taken, b[i].taken);
    }
}

TEST(BatchDispatch, MixCounterMatchesPerOp)
{
    auto ops = syntheticStream(kStreamOps);
    MixCounter per_op;
    feedPerOp(per_op, ops);
    for (size_t block : kBlockSizes) {
        SCOPED_TRACE("block " + std::to_string(block));
        MixCounter batched;
        feedBlocked(batched, ops, block);
        EXPECT_EQ(batched.total(), per_op.total());
        for (size_t k = 0; k < numOpKinds; ++k)
            EXPECT_EQ(batched.count(static_cast<OpKind>(k)),
                      per_op.count(static_cast<OpKind>(k)))
                << "kind " << k;
        EXPECT_EQ(batched.intAddressShare(), per_op.intAddressShare());
        EXPECT_EQ(batched.fpAddressShare(), per_op.fpAddressShare());
        EXPECT_EQ(batched.otherIntShare(), per_op.otherIntShare());
        EXPECT_EQ(batched.dataMovementRatio(),
                  per_op.dataMovementRatio());
    }
}

TEST(BatchDispatch, SimCpuReportBitIdentical)
{
    {
        SCOPED_TRACE("synthetic");
        expectSimCpuBitIdentical(syntheticStream(kStreamOps));
    }
    // A recorded real workload: framework code, JVM-style dispatch and
    // data-dependent access patterns no synthetic stream mimics.
    SCOPED_TRACE("recorded H-WordCount");
    WorkloadPtr w = findWorkload("H-WordCount").make(0.05);
    RecordingSink recorder;
    runThroughSink(*w, recorder);
    ASSERT_GT(recorder.ops.size(), kStreamOps);
    expectSimCpuBitIdentical(recorder.ops);
}

TEST(BatchDispatch, SimCpuBitIdenticalOnStreamingPattern)
{
    expectSimCpuBitIdentical(streamingStream(kStreamOps));
}

/** The three reference streams a FootprintSweep can measure. */
const SweepKind kSweepKinds[] = {SweepKind::Instruction, SweepKind::Data,
                                 SweepKind::Unified};

/**
 * Check a one-stream sweep against the per-op reference sweep of the
 * same stream and ladder: same op count, bit-identical miss ratios.
 */
void
expectSweepMatchesPerOp(const FootprintSweep &got,
                        const std::vector<MicroOp> &ops)
{
    FootprintSweep per_op(got.kind(), got.sizesKb());
    feedPerOp(per_op, ops);
    EXPECT_EQ(got.instructions(), per_op.instructions());
    auto base = per_op.missRatios();
    auto ratios = got.missRatios();
    ASSERT_EQ(ratios.size(), base.size());
    for (size_t i = 0; i < base.size(); ++i)
        EXPECT_EQ(ratios[i], base[i]) << got.sizesKb()[i] << " KB";
}

TEST(BatchDispatch, FootprintSweepCurvesMatch)
{
    auto ops = syntheticStream(kStreamOps);
    std::vector<uint32_t> sizes{16, 64, 256, 1024};
    for (SweepKind kind : kSweepKinds) {
        for (size_t block : kBlockSizes) {
            SCOPED_TRACE("kind " + std::to_string(static_cast<int>(kind)) +
                         ", block " + std::to_string(block));
            FootprintSweep batched(kind, sizes);
            feedBlocked(batched, ops, block);
            expectSweepMatchesPerOp(batched, ops);
        }
    }
}

TEST(BatchDispatch, InOrderCoreReportMatches)
{
    auto ops = syntheticStream(kStreamOps);
    InOrderCore per_op(atomInOrderSim(32));
    feedPerOp(per_op, ops);
    InOrderReport base = per_op.report();
    for (size_t block : kBlockSizes) {
        SCOPED_TRACE("block " + std::to_string(block));
        InOrderCore batched(atomInOrderSim(32));
        feedBlocked(batched, ops, block);
        InOrderReport got = batched.report();
        EXPECT_EQ(got.instructions, base.instructions);
        EXPECT_EQ(got.cycles, base.cycles);
        EXPECT_EQ(got.ipc, base.ipc);
        EXPECT_EQ(got.loadUseStallCycles, base.loadUseStallCycles);
        EXPECT_EQ(got.frontendStallCycles, base.frontendStallCycles);
        EXPECT_EQ(got.memoryStallCycles, base.memoryStallCycles);
        EXPECT_EQ(got.executeCycles, base.executeCycles);
    }
}

TEST(BatchDispatch, SamplingSinkForwardsIdenticalOps)
{
    auto ops = syntheticStream(kStreamOps);
    RecordingSink per_op_rec;
    SamplingSink per_op(per_op_rec, ops.size());
    feedPerOp(per_op, ops);
    for (size_t block : kBlockSizes) {
        SCOPED_TRACE("block " + std::to_string(block));
        RecordingSink rec;
        SamplingSink batched(rec, ops.size());
        feedBlocked(batched, ops, block);
        EXPECT_EQ(batched.totalOps(), per_op.totalOps());
        EXPECT_EQ(batched.sampledOps(), per_op.sampledOps());
        expectOpsEqual(rec.ops, per_op_rec.ops);
    }
}

TEST(BatchDispatch, CountingSinkAndRecorderMatch)
{
    auto ops = syntheticStream(kStreamOps);
    for (size_t block : kBlockSizes) {
        SCOPED_TRACE("block " + std::to_string(block));
        CountingSink counter;
        feedBlocked(counter, ops, block);
        EXPECT_EQ(counter.ops(), ops.size());

        RecordingSink recorder;
        feedBlocked(recorder, ops, block);
        expectOpsEqual(recorder.ops, ops);
    }
}

TEST(BatchDispatch, TeeSinkKeepsFanOutCountsExact)
{
    auto ops = syntheticStream(kStreamOps);
    MixCounter per_op;
    feedPerOp(per_op, ops);
    for (size_t block : kBlockSizes) {
        SCOPED_TRACE("block " + std::to_string(block));
        MixCounter a;
        CountingSink b;
        TeeSink tee;
        tee.addSink(&a);
        tee.addSink(&b);
        feedBlocked(tee, ops, block);
        EXPECT_EQ(a.total(), per_op.total());
        EXPECT_EQ(b.ops(), ops.size());
    }
}

TEST(BatchDispatch, FootprintSweepParallelMatchesScalar)
{
    // The three one-stream sweeps of a block stream, fed as
    // concurrent jobs (the way the replay runners run sinks), must
    // each stay bit-identical to the per-op reference, on the random
    // pattern and on the adversarial streaming pattern.
    std::vector<uint32_t> sizes{16, 64, 256, 1024};
    for (bool streaming : {false, true}) {
        SCOPED_TRACE(streaming ? "streaming" : "synthetic");
        auto ops = streaming ? streamingStream(kStreamOps)
                             : syntheticStream(kStreamOps);
        for (size_t block : kBlockSizes) {
            SCOPED_TRACE("block " + std::to_string(block));
            std::vector<FootprintSweep> sweeps;
            for (SweepKind kind : kSweepKinds)
                sweeps.emplace_back(kind, sizes);
            parallelFor(sweeps.size(), [&](size_t i) {
                feedBlocked(sweeps[i], ops, block);
            }, 3);
            for (const FootprintSweep &sweep : sweeps) {
                SCOPED_TRACE("kind " + std::to_string(
                                           static_cast<int>(sweep.kind())));
                expectSweepMatchesPerOp(sweep, ops);
            }
        }
    }
}

TEST(SweepRungSplit, FullLadderMatchesScalarAcrossBlockSizes)
{
    // The full paper ladder up to the 8192 KB rung at block sizes
    // 1 / 7 / 4096 on both reference patterns: every rung of every
    // one-stream sweep walks the block's runs whole, so each count
    // must stay bit-identical to the per-op walk.
    auto ladder = paperSweepSizesKb();
    for (bool streaming : {false, true}) {
        SCOPED_TRACE(streaming ? "streaming" : "synthetic");
        auto ops = streaming ? streamingStream(kStreamOps)
                             : syntheticStream(kStreamOps);
        for (SweepKind kind : kSweepKinds) {
            for (size_t block : kBlockSizes) {
                SCOPED_TRACE("kind " +
                             std::to_string(static_cast<int>(kind)) +
                             ", block " + std::to_string(block));
                FootprintSweep batched(kind, ladder);
                feedBlocked(batched, ops, block);
                expectSweepMatchesPerOp(batched, ops);
            }
        }
    }
}

TEST(SweepRungSplit, OddSetCountsSplitCleanly)
{
    // 48 KB and 96 KB 8-way rungs have 96 and 192 sets — not powers
    // of two, so the caches index by modulo. The batched walk must
    // still match the per-op one on every stream.
    std::vector<uint32_t> sizes{48, 96};
    auto ops = syntheticStream(kStreamOps);
    for (SweepKind kind : kSweepKinds) {
        SCOPED_TRACE("kind " + std::to_string(static_cast<int>(kind)));
        FootprintSweep batched(kind, sizes);
        feedBlocked(batched, ops, 64);
        expectSweepMatchesPerOp(batched, ops);
    }
}

TEST(BatchDispatch, FootprintSweepSurvivesMixedDelivery)
{
    // Alternating batch and per-op delivery: interleaving whole
    // blocks with single ops must leave every cache in the state the
    // per-op path alone reaches, so the counts match exactly.
    auto ops = streamingStream(kStreamOps);
    std::vector<uint32_t> sizes{16, 128};
    for (SweepKind kind : kSweepKinds) {
        SCOPED_TRACE("kind " + std::to_string(static_cast<int>(kind)));
        FootprintSweep mixed(kind, sizes);
        OpBlock buf(64);
        for (size_t i = 0; i < ops.size();) {
            if ((i / 64) % 3 == 2) {
                mixed.consume(ops[i]);
                ++i;
                continue;
            }
            size_t n = std::min<size_t>(64, ops.size() - i);
            buf.clear();
            for (size_t j = 0; j < n; ++j)
                buf.push(ops[i + j]);
            mixed.consumeBlock(buf);
            i += n;
        }
        expectSweepMatchesPerOp(mixed, ops);
    }
}

TEST(BatchDispatch, SamplingWindowStraddlingBlockEdgeMatchesPerOp)
{
    // Window boundaries placed just around multiples of the block
    // sizes, so forwarding starts and stops mid-block and at exact
    // block edges; batch and per-op forwarding must agree op for op.
    auto ops = syntheticStream(kStreamOps);
    // One window straddling each tested block size's boundary,
    // expressed as fractions of kStreamOps.
    std::vector<SampleWindow> windows;
    const double n = static_cast<double>(kStreamOps);
    windows.push_back({698.0 / n, 705.0 / n});    // straddles 7-block edge
    windows.push_back({4090.0 / n, 4100.0 / n});  // straddles 4096 edge
    windows.push_back({8191.0 / n, 8193.0 / n});  // 1-block edge is any op
    RecordingSink per_op_rec;
    SamplingSink per_op(per_op_rec, kStreamOps, windows);
    feedPerOp(per_op, ops);
    for (size_t block : kBlockSizes) {
        SCOPED_TRACE("block " + std::to_string(block));
        RecordingSink rec;
        SamplingSink batched(rec, kStreamOps, windows);
        feedBlocked(batched, ops, block);
        EXPECT_EQ(batched.totalOps(), per_op.totalOps());
        EXPECT_EQ(batched.sampledOps(), per_op.sampledOps());
        expectOpsEqual(rec.ops, per_op_rec.ops);
    }
}

TEST(BatchDispatch, SamplingCollapsedWindowsStayDisjointAndClamped)
{
    // With a tiny expected length, adjacent windows collapse onto the
    // same integer index and the trailing window lands past the end.
    // The converted ranges must stay disjoint and clamped, and both
    // delivery paths must agree — also when the trace runs longer
    // than expected.
    constexpr uint64_t expected = 10;
    std::vector<SampleWindow> windows{
        {0.50, 0.51}, {0.52, 0.53}, {0.54, 0.55}, {0.99, 1.0}};
    auto ops = syntheticStream(25);  // longer than expected
    RecordingSink per_op_rec;
    SamplingSink per_op(per_op_rec, expected, windows);
    feedPerOp(per_op, ops);
    // Windows 0.50/0.52/0.54 all floor to index 5: disjoint
    // conversion spreads them to ops 5, 6, 7; 0.99-1.0 claims op 9.
    EXPECT_EQ(per_op.sampledOps(), 4u);
    for (size_t block : kBlockSizes) {
        SCOPED_TRACE("block " + std::to_string(block));
        RecordingSink rec;
        SamplingSink batched(rec, expected, windows);
        feedBlocked(batched, ops, block);
        EXPECT_EQ(batched.totalOps(), per_op.totalOps());
        EXPECT_EQ(batched.sampledOps(), per_op.sampledOps());
        expectOpsEqual(rec.ops, per_op_rec.ops);
    }
}

TEST(BatchDispatch, SamplingWindowPastEndVanishesAfterClamp)
{
    // Both windows collapse to index 9; the second is squeezed past
    // expected_ops by the disjointness shift and must vanish instead
    // of forwarding out-of-range indices when the trace runs long.
    constexpr uint64_t expected = 10;
    std::vector<SampleWindow> windows{{0.97, 0.98}, {0.99, 1.0}};
    auto ops = syntheticStream(30);
    RecordingSink per_op_rec;
    SamplingSink per_op(per_op_rec, expected, windows);
    feedPerOp(per_op, ops);
    EXPECT_EQ(per_op.sampledOps(), 1u);
    for (size_t block : kBlockSizes) {
        SCOPED_TRACE("block " + std::to_string(block));
        RecordingSink rec;
        SamplingSink batched(rec, expected, windows);
        feedBlocked(batched, ops, block);
        EXPECT_EQ(batched.sampledOps(), per_op.sampledOps());
        expectOpsEqual(rec.ops, per_op_rec.ops);
    }
}

TEST(BatchDispatch, ConsumeOpsPacksWholeRun)
{
    auto ops = syntheticStream(257);
    RecordingSink rec;
    rec.consumeOps(ops.data(), ops.size());
    expectOpsEqual(rec.ops, ops);
}

TEST(BatchDispatch, ConsumeOpsChunksRunsLongerThanScratch)
{
    // Runs longer than the thread-local scratch block arrive as
    // several batches; the concatenation must still be exact, and
    // back-to-back calls must not see stale scratch contents.
    auto ops = syntheticStream(defaultOpBlockOps * 2 + 123);
    RecordingSink rec;
    rec.consumeOps(ops.data(), ops.size());
    rec.consumeOps(ops.data(), 5);
    auto expect = ops;
    expect.insert(expect.end(), ops.begin(), ops.begin() + 5);
    expectOpsEqual(rec.ops, expect);
}

TEST(BatchDispatch, TraceWriterFilesByteIdentical)
{
    // Small chunks so every tested block size straddles chunk
    // boundaries; the produced files must still match byte for byte.
    auto ops = syntheticStream(2000);
    TraceMeta meta;
    meta.workload = "T-Batch";
    CodeLayout layout;
    layout.addFunction("kernel", CodeLayer::Application, 4096);

    auto write = [&](const std::string &path, size_t block) {
        TraceWriter writer(path, meta, layout, 64);
        if (block == 0)
            feedPerOp(writer, ops);
        else
            feedBlocked(writer, ops, block);
        writer.finish();
    };
    auto slurp = [](const std::string &path) {
        std::ifstream in(path, std::ios::binary);
        return std::vector<char>(std::istreambuf_iterator<char>(in),
                                 std::istreambuf_iterator<char>());
    };

    std::string base_path = testTempPath("batch-base.wtrace");
    write(base_path, 0);
    auto base = slurp(base_path);
    ASSERT_FALSE(base.empty());
    for (size_t block : kBlockSizes) {
        SCOPED_TRACE("block " + std::to_string(block));
        std::string path =
            testTempPath("batch-" + std::to_string(block) + ".wtrace");
        write(path, block);
        EXPECT_EQ(slurp(path), base);
        fs::remove(path);
    }
    fs::remove(base_path);
}

} // namespace
} // namespace wcrt
