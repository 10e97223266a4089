/**
 * @file
 * Tests for the shared-LLC co-run model and the analyzer report
 * rendering (PCA scatter, cluster profiles, CSV export).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <sstream>

#include "base/rng.hh"
#include "core/report.hh"
#include "op_streams.hh"
#include "sim/corun.hh"
#include "tracefile/trace_writer.hh"

namespace wcrt {
namespace {

/** Synthetic trace streaming over `bytes` of data, `n` ops. */
std::vector<MicroOp>
streamTrace(uint64_t base, uint64_t bytes, size_t n)
{
    std::vector<MicroOp> trace;
    trace.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        MicroOp op;
        op.pc = 0x400000 + (i % 256) * 4;
        op.kind = OpKind::Load;
        op.memAddr = base + (i * 64) % bytes;
        op.memSize = 8;
        trace.push_back(op);
    }
    return trace;
}

/**
 * `ops` as an open trace of `chunk_ops`-op chunks. The temp file is
 * unlinked once mapped; the reader keeps its bytes.
 */
TraceReader
traceOf(const std::string &tag, const std::vector<MicroOp> &ops,
        uint32_t chunk_ops = tracefile::defaultChunkOps)
{
    std::string path = testTempPath("corun-" + tag + ".wtrace");
    {
        TraceMeta meta;
        meta.workload = tag;
        TraceWriter writer(path, meta, CodeLayout{}, chunk_ops);
        writer.consumeOps(ops.data(), ops.size());
        writer.finish();
    }
    TraceReader reader(path);
    std::filesystem::remove(path);
    return reader;
}

MachineConfig
smallL3Machine(uint64_t l3_bytes)
{
    MachineConfig m = xeonE5645();
    m.l3.sizeBytes = l3_bytes;
    return m;
}

TEST(CoRun, NoInterferenceWhenBothFit)
{
    // Two 256 KB working sets in a 4 MB L3: solo == shared.
    auto a = streamTrace(0x10000000, 256 * 1024, 60000);
    auto b = streamTrace(0x20000000, 256 * 1024, 60000);
    CoRunResult r = coRun(smallL3Machine(4 * 1024 * 1024),
                          traceOf("fit-a", a), traceOf("fit-b", b));
    EXPECT_NEAR(r.a.degradation(), 1.0, 0.05);
    EXPECT_NEAR(r.b.degradation(), 1.0, 0.05);
}

TEST(CoRun, ContentionWhenCombinedSetOverflows)
{
    // Each working set fits a 2 MB L3 alone; together they thrash it.
    auto a = streamTrace(0x10000000, 1536 * 1024, 120000);
    auto b = streamTrace(0x20000000, 1536 * 1024, 120000);
    CoRunResult r = coRun(smallL3Machine(2 * 1024 * 1024),
                          traceOf("overflow-a", a),
                          traceOf("overflow-b", b));
    EXPECT_GT(r.a.degradation(), 1.5);
    EXPECT_GT(r.b.degradation(), 1.5);
    EXPECT_GT(r.snoopHits, 0u);
}

TEST(CoRun, AsymmetricVictim)
{
    // A small cache-friendly lane next to a streaming lane: the
    // small lane suffers, the streamer barely changes.
    auto small_lane = streamTrace(0x10000000, 1024 * 1024, 60000);
    auto big = streamTrace(0x20000000, 16 * 1024 * 1024, 120000);
    CoRunResult r = coRun(smallL3Machine(2 * 1024 * 1024),
                          traceOf("victim", small_lane),
                          traceOf("streamer", big));
    EXPECT_GT(r.a.degradation(), 1.2);
    EXPECT_NEAR(r.b.degradation(), 1.0, 0.2);
}

TEST(CoRun, LaneStatsCountInstructions)
{
    auto a = streamTrace(0x10000000, 64 * 1024, 5000);
    auto b = streamTrace(0x20000000, 64 * 1024, 10000);
    CoRunResult r =
        coRun(xeonE5645(), traceOf("count-a", a), traceOf("count-b", b));
    EXPECT_EQ(r.a.instructions, 5000u);
    EXPECT_EQ(r.b.instructions, 10000u);
}

TEST(CoRun, ChunkRefillMatchesOneChunk)
{
    // In 7-op chunks each lane refills thousands of times, in the
    // middle of the interleave's bursts; in default chunks each
    // stream is one chunk. Every count must come out the same.
    auto a = streamTrace(0x10000000, 1536 * 1024, 60000);
    auto b = streamTrace(0x20000000, 1536 * 1024, 40000);
    MachineConfig m = smallL3Machine(2 * 1024 * 1024);
    CoRunResult whole =
        coRun(m, traceOf("whole-a", a), traceOf("whole-b", b));
    CoRunResult chunked =
        coRun(m, traceOf("chunked-a", a, 7), traceOf("chunked-b", b, 7));
    for (auto lanes : {std::pair{&whole.a, &chunked.a},
                       std::pair{&whole.b, &chunked.b}}) {
        EXPECT_EQ(lanes.second->instructions, lanes.first->instructions);
        EXPECT_EQ(lanes.second->l2Misses, lanes.first->l2Misses);
        EXPECT_EQ(lanes.second->l3MissesSolo, lanes.first->l3MissesSolo);
        EXPECT_EQ(lanes.second->l3MissesShared,
                  lanes.first->l3MissesShared);
    }
    EXPECT_EQ(chunked.snoopHits, whole.snoopHits);
    // Each set fits the L3 alone but not together: the lanes contend,
    // so the interleave order matters.
    EXPECT_GT(whole.snoopHits, 0u);
    EXPECT_GT(whole.a.l3MissesShared, whole.a.l3MissesSolo);
}

SubsetReport
tinyReport(std::vector<std::string> &names,
           std::vector<MetricVector> &metrics)
{
    Rng rng(3);
    for (int proto = 0; proto < 3; ++proto) {
        for (int i = 0; i < 4; ++i) {
            // std::string(1, ...) sidesteps a GCC 12 -O3 -Wrestrict
            // false positive on concatenating short literals.
            names.push_back(std::string(1, 'w') + std::to_string(proto) +
                            std::string(1, '_') + std::to_string(i));
            MetricVector v{};
            for (size_t m = 0; m < numMetrics; ++m)
                v[m] = proto * 10.0 + 0.1 * rng.nextGaussian() +
                       (m % 3 == static_cast<size_t>(proto % 3) ? 5.0
                                                                : 0.0);
            metrics.push_back(v);
        }
    }
    AnalyzerOptions opts;
    opts.clusters = 3;
    return reduceWorkloads(names, metrics, opts);
}

TEST(Report, ScatterRendersEverySample)
{
    std::vector<std::string> names;
    std::vector<MetricVector> metrics;
    SubsetReport report = tinyReport(names, metrics);
    std::ostringstream os;
    printPcaScatter(os, report, names, 40, 12);
    std::string plot = os.str();
    // The frame and at least one representative letter must appear.
    EXPECT_NE(plot.find('+'), std::string::npos);
    EXPECT_TRUE(plot.find('A') != std::string::npos ||
                plot.find('B') != std::string::npos ||
                plot.find('C') != std::string::npos);
}

TEST(Report, ClusterProfilesNameTopTraits)
{
    std::vector<std::string> names;
    std::vector<MetricVector> metrics;
    SubsetReport report = tinyReport(names, metrics);
    std::ostringstream os;
    printClusterProfiles(os, report, names, metrics, 2);
    std::string text = os.str();
    EXPECT_NE(text.find("sd"), std::string::npos);  // z-score units
    // All three representatives appear.
    for (const auto &c : report.clusters)
        EXPECT_NE(text.find(c.representative), std::string::npos);
}

TEST(Report, CsvIsRectangular)
{
    std::vector<std::string> names;
    std::vector<MetricVector> metrics;
    tinyReport(names, metrics);
    std::ostringstream os;
    writeMetricsCsv(os, names, metrics);
    std::istringstream in(os.str());
    std::string line;
    size_t rows = 0;
    size_t expected_commas = numMetrics;
    while (std::getline(in, line)) {
        size_t commas =
            static_cast<size_t>(std::count(line.begin(), line.end(),
                                           ','));
        EXPECT_EQ(commas, expected_commas) << line;
        ++rows;
    }
    EXPECT_EQ(rows, names.size() + 1);  // header + samples
}

} // namespace
} // namespace wcrt
