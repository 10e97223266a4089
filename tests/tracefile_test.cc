/**
 * @file
 * Tests for the trace file subsystem: encoding primitives, op-for-op
 * round trips, live-vs-replay equivalence for the real sinks,
 * corruption handling, the trace cache and the parallel replay runner.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "base/strings.hh"
#include "core/profiler.hh"
#include "core/trace_cache.hh"
#include "op_streams.hh"
#include "sim/footprint.hh"
#include "sim/stack_distance.hh"
#include "tracefile/capture.hh"
#include "tracefile/replay.hh"
#include "tracefile/trace_reader.hh"
#include "tracefile/trace_source.hh"
#include "tracefile/trace_writer.hh"
#include "trace/mix_counter.hh"
#include "trace/sampling.hh"
#include "workloads/registry.hh"

namespace wcrt {
namespace {

namespace fs = std::filesystem;

/** This process's temp trace path for `tag`. */
std::string
tempTracePath(const std::string &tag)
{
    return testTempPath("test-" + tag + ".wtrace");
}

void
expectOpsEqual(const std::vector<MicroOp> &a, const std::vector<MicroOp> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("op " + std::to_string(i));
        EXPECT_EQ(a[i].kind, b[i].kind);
        EXPECT_EQ(a[i].purpose, b[i].purpose);
        EXPECT_EQ(a[i].pc, b[i].pc);
        EXPECT_EQ(a[i].size, b[i].size);
        EXPECT_EQ(a[i].memAddr, b[i].memAddr);
        EXPECT_EQ(a[i].memSize, b[i].memSize);
        EXPECT_EQ(a[i].target, b[i].target);
        EXPECT_EQ(a[i].taken, b[i].taken);
    }
}

/** Ops exercising every encoder path, including the extension byte. */
std::vector<MicroOp>
awkwardOps()
{
    std::vector<MicroOp> ops;

    MicroOp alu;
    alu.kind = OpKind::IntAlu;
    alu.purpose = IntPurpose::IntAddress;
    alu.pc = 0x400000;
    ops.push_back(alu);

    MicroOp load;  // default-shaped load
    load.kind = OpKind::Load;
    load.pc = 0x400004;
    load.memAddr = 0x7fff0000;
    load.memSize = 8;
    ops.push_back(load);

    MicroOp store;  // backwards pc delta, mem below previous
    store.kind = OpKind::Store;
    store.pc = 0x3ffff0;
    store.memAddr = 0x1000;
    store.memSize = 1;
    ops.push_back(store);

    MicroOp branch;
    branch.kind = OpKind::BranchCond;
    branch.pc = 0x400010;
    branch.target = 0x400800;
    branch.taken = true;
    ops.push_back(branch);

    MicroOp weird_size;  // non-default instruction size
    weird_size.kind = OpKind::IntMul;
    weird_size.pc = 0x400014;
    weird_size.size = 12;
    ops.push_back(weird_size);

    MicroOp alu_mem;  // non-load op with a memory operand
    alu_mem.kind = OpKind::FpAlu;
    alu_mem.pc = 0x400020;
    alu_mem.memAddr = 0x9000;
    alu_mem.memSize = 16;
    ops.push_back(alu_mem);

    MicroOp addr_load;  // load carrying an address but no size
    addr_load.kind = OpKind::Load;
    addr_load.pc = 0x400024;
    addr_load.memAddr = 0xdeadbeef;
    addr_load.memSize = 0;
    ops.push_back(addr_load);

    MicroOp bare_load;  // load with no memory operand at all
    bare_load.kind = OpKind::Load;
    bare_load.pc = 0x400028;
    ops.push_back(bare_load);

    MicroOp call;
    call.kind = OpKind::Call;
    call.pc = 0x40002c;
    call.target = 0x500000;
    call.taken = true;
    ops.push_back(call);

    MicroOp far_pc;  // 64-bit pc, large deltas
    far_pc.kind = OpKind::Other;
    far_pc.pc = 0xffff800000000000ull;
    ops.push_back(far_pc);

    return ops;
}

CodeLayout
sampleLayout()
{
    CodeLayout layout;
    layout.addFunction("app.kernel", CodeLayer::Application, 512);
    layout.addFunction("fw.shuffle", CodeLayer::Framework, 65536);
    layout.addFunction("libc.memcpy", CodeLayer::Library, 4096);
    return layout;
}

TraceMeta
sampleMeta()
{
    TraceMeta meta;
    meta.workload = "T-Sample";
    meta.category = AppCategory::Service;
    meta.stackKind = StackKind::Spark;
    meta.scale = 0.125;
    return meta;
}

void
writeSample(const std::string &path, const std::vector<MicroOp> &ops,
            uint32_t chunk_ops = tracefile::defaultChunkOps)
{
    TraceWriter writer(path, sampleMeta(), sampleLayout(), chunk_ops);
    for (const auto &op : ops)
        writer.consume(op);
    IoCounters io;
    io.diskReadBytes = 123456;
    io.diskWriteBytes = 7890;
    io.networkBytes = 42;
    DataBehavior data;
    data.inputBytes = 1 << 20;
    data.intermediateBytes = 1 << 18;
    data.outputBytes = 1 << 10;
    writer.finish(io, data);
}

TEST(TraceFormat, VarintRoundTrip)
{
    std::vector<uint8_t> buf;
    const uint64_t values[] = {0, 1, 127, 128, 300, 1ull << 32,
                               (1ull << 63), UINT64_MAX};
    for (uint64_t v : values)
        tracefile::putVarint(buf, v);
    const int64_t signed_values[] = {0, -1, 1, -64, 64, INT64_MIN,
                                     INT64_MAX};
    for (int64_t v : signed_values)
        tracefile::putVarintSigned(buf, v);

    tracefile::Decoder dec(buf.data(), buf.size());
    for (uint64_t v : values)
        EXPECT_EQ(dec.varint(), v);
    for (int64_t v : signed_values)
        EXPECT_EQ(dec.varintSigned(), v);
    EXPECT_EQ(dec.remaining(), 0u);
}

TEST(TraceFormat, CrcMatchesReference)
{
    // The standard CRC-32 check value.
    const char *s = "123456789";
    EXPECT_EQ(tracefile::crc32(reinterpret_cast<const uint8_t *>(s), 9),
              0xCBF43926u);
}

TEST(TraceFile, OpForOpRoundTrip)
{
    std::string path = tempTracePath("roundtrip");
    auto ops = awkwardOps();
    writeSample(path, ops);

    TraceReader reader(path);
    EXPECT_EQ(reader.meta().workload, "T-Sample");
    EXPECT_EQ(reader.meta().category, AppCategory::Service);
    EXPECT_EQ(reader.meta().stackKind, StackKind::Spark);
    EXPECT_DOUBLE_EQ(reader.meta().scale, 0.125);
    EXPECT_EQ(reader.opCount(), ops.size());

    ASSERT_EQ(reader.regions().size(), 3u);
    EXPECT_EQ(reader.regions()[0].name, "app.kernel");
    EXPECT_EQ(reader.regions()[1].layer, CodeLayer::Framework);
    EXPECT_EQ(reader.regions()[1].bytes, 65536u);

    EXPECT_EQ(reader.io().diskReadBytes, 123456u);
    EXPECT_EQ(reader.io().networkBytes, 42u);
    EXPECT_EQ(reader.data().inputBytes, 1u << 20);
    EXPECT_EQ(reader.data().outputBytes, 1u << 10);

    RecordingSink sink;
    EXPECT_EQ(reader.replayInto(sink), ops.size());
    expectOpsEqual(ops, sink.ops);

    // A reader replays repeatably.
    RecordingSink again;
    reader.replayInto(again);
    expectOpsEqual(ops, again.ops);

    fs::remove(path);
}

TEST(TraceFile, MultiChunkRoundTrip)
{
    std::string path = tempTracePath("chunks");
    std::vector<MicroOp> ops;
    auto sample = awkwardOps();
    for (int rep = 0; rep < 50; ++rep)
        for (const auto &op : sample)
            ops.push_back(op);

    writeSample(path, ops, 7);  // force many small chunks

    TraceReader reader(path);
    EXPECT_GT(reader.chunkCount(), ops.size() / 7 - 1);
    RecordingSink sink;
    reader.replayInto(sink);
    expectOpsEqual(ops, sink.ops);
    fs::remove(path);
}

/** Batch-native sink recording each consumeBatch call's extent. */
class BatchRecordingSink : public TraceSink
{
  public:
    void
    consume(const MicroOp &op) override
    {
        batchSizes.push_back(1);
        ops.push_back(op);
    }

    void
    consumeBatch(const OpBlockView &batch) override
    {
        batchSizes.push_back(batch.count);
        for (size_t i = 0; i < batch.count; ++i)
            ops.push_back(batch[i]);
    }

    std::vector<MicroOp> ops;
    std::vector<size_t> batchSizes;
};

/** `count` ops cycling through awkwardOps(). */
std::vector<MicroOp>
awkwardOpsRepeated(size_t count)
{
    auto sample = awkwardOps();
    std::vector<MicroOp> ops;
    ops.reserve(count);
    for (size_t i = 0; i < count; ++i)
        ops.push_back(sample[i % sample.size()]);
    return ops;
}

TEST(TraceFile, ReplayDeliversWholeChunksAsSingleBatches)
{
    // Short chunks, and chunks longer than the decode block: a chunk
    // reaches the sink in slices of at most defaultOpBlockOps ops —
    // one batch when it fits — and no batch spans two chunks.
    const uint32_t long_chunk = 2 * defaultOpBlockOps + 1000;
    const std::pair<uint32_t, size_t> cases[] = {
        {7, 120}, {long_chunk, 2 * long_chunk + 500}};
    for (auto [chunk_ops, count] : cases) {
        SCOPED_TRACE("chunk_ops " + std::to_string(chunk_ops));
        std::string path = tempTracePath("chunk-batches");
        std::vector<MicroOp> ops = awkwardOpsRepeated(count);
        ASSERT_NE(ops.size() % chunk_ops, 0u);  // a ragged final chunk
        writeSample(path, ops, chunk_ops);

        TraceReader reader(path);
        BatchRecordingSink sink;
        EXPECT_EQ(reader.replayInto(sink), ops.size());
        expectOpsEqual(ops, sink.ops);

        std::vector<size_t> expected;
        for (size_t start = 0; start < ops.size(); start += chunk_ops) {
            size_t left = std::min<size_t>(chunk_ops, ops.size() - start);
            for (; left > defaultOpBlockOps; left -= defaultOpBlockOps)
                expected.push_back(defaultOpBlockOps);
            expected.push_back(left);
        }
        EXPECT_EQ(sink.batchSizes, expected);
        fs::remove(path);
    }
}

TEST(TraceFile, ChunkRangesReplayTheWholeTraceAtEveryCut)
{
    std::string path = tempTracePath("chunk-ranges");
    std::vector<MicroOp> ops = awkwardOpsRepeated(120);
    writeSample(path, ops, 7);

    TraceReader reader(path);
    uint64_t chunks = reader.chunkCount();
    ASSERT_EQ(chunks, (ops.size() + 6) / 7);
    uint64_t stored = 0;
    for (uint64_t i = 0; i < chunks; ++i)
        stored += reader.chunkOps(i);
    EXPECT_EQ(stored, reader.opCount());

    // Chunks [0, k) on one reader, then [k, n) on a copy: the two
    // ranges hand the sink exactly the ops one whole replay does.
    for (uint64_t k = 0; k <= chunks; ++k) {
        SCOPED_TRACE("cut at chunk " + std::to_string(k));
        RecordingSink sink;
        uint64_t replayed = reader.replayChunks(sink, 0, k);
        TraceReader copy(reader);
        replayed += copy.replayChunks(sink, k, chunks);
        EXPECT_EQ(replayed, ops.size());
        expectOpsEqual(ops, sink.ops);
    }
    fs::remove(path);
}

TEST(TraceFile, BadChunkRangesThrow)
{
    std::string path = tempTracePath("chunk-ranges-bad");
    writeSample(path, awkwardOpsRepeated(30), 7);
    TraceReader reader(path);
    uint64_t chunks = reader.chunkCount();
    RecordingSink sink;
    EXPECT_THROW(reader.replayChunks(sink, 2, 1), std::out_of_range);
    EXPECT_THROW(reader.replayChunks(sink, 0, chunks + 1),
                 std::out_of_range);
    EXPECT_THROW(reader.replayChunks(sink, chunks + 1, chunks + 1),
                 std::out_of_range);
    EXPECT_THROW(reader.chunkOps(chunks), std::out_of_range);
    EXPECT_TRUE(sink.ops.empty());
    // An empty range is valid and replays nothing.
    EXPECT_EQ(reader.replayChunks(sink, chunks, chunks), 0u);
    EXPECT_TRUE(sink.ops.empty());
    fs::remove(path);
}

/**
 * Ops at the encoder's edges: pc, memory and target deltas that need
 * 9- and 10-byte varints, whether the previous op in the chunk is one
 * of these or the chunk starts here (deltas against 0), and zero
 * targets and addresses that the compact form still covers.
 */
std::vector<MicroOp>
edgeOps()
{
    std::vector<MicroOp> ops;

    MicroOp near;
    near.kind = OpKind::Load;
    near.pc = 0x400000;
    near.memAddr = 0x1000;
    near.memSize = 8;
    ops.push_back(near);

    MicroOp far_load = near;  // pc and mem jump by ~2^60 / 2^57
    far_load.pc = 0x400000 + (1ull << 60);
    far_load.memAddr = 0x1000 + (1ull << 57);
    ops.push_back(far_load);

    MicroOp wrap_store;  // INT64_MIN pc delta, 2^63-scale mem delta
    wrap_store.kind = OpKind::Store;
    wrap_store.pc = far_load.pc + (1ull << 63);
    wrap_store.memAddr = far_load.memAddr + 0x7000000000000000ull;
    wrap_store.memSize = 4;
    ops.push_back(wrap_store);

    MicroOp far_branch;  // 2^57 target delta
    far_branch.kind = OpKind::BranchCond;
    far_branch.pc = 0x400010;
    far_branch.target = far_branch.pc + (1ull << 57);
    far_branch.taken = true;
    ops.push_back(far_branch);

    MicroOp far_call;  // 2^62 target delta
    far_call.kind = OpKind::Call;
    far_call.pc = 0x400014;
    far_call.target = far_call.pc + (1ull << 62);
    far_call.taken = true;
    ops.push_back(far_call);

    MicroOp wrap_ret;  // INT64_MIN target delta
    wrap_ret.kind = OpKind::Return;
    wrap_ret.pc = 0x400018;
    wrap_ret.target = wrap_ret.pc + (1ull << 63);
    wrap_ret.taken = true;
    ops.push_back(wrap_ret);

    MicroOp top_alu;  // non-control target at the top of the space
    top_alu.kind = OpKind::IntAlu;
    top_alu.purpose = IntPurpose::Compute;
    top_alu.pc = 0xfffffffffffffff0ull;
    top_alu.target = UINT64_MAX;
    ops.push_back(top_alu);

    MicroOp zero_ret;  // control op whose target is 0: still compact
    zero_ret.kind = OpKind::Return;
    zero_ret.pc = 0x400020;
    zero_ret.taken = true;
    ops.push_back(zero_ret);

    MicroOp null_load;  // load of address 0: still compact
    null_load.kind = OpKind::Load;
    null_load.pc = 0x400024;
    null_load.memSize = 8;
    ops.push_back(null_load);

    return ops;
}

/** The whole file as bytes. */
std::vector<uint8_t>
slurpFile(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    return std::vector<uint8_t>((std::istreambuf_iterator<char>(f)),
                                std::istreambuf_iterator<char>());
}

/** FNV-1a 64 over raw bytes. */
uint64_t
fnv1aBytes(const std::vector<uint8_t> &bytes)
{
    return fnv1a(std::string_view(
        reinterpret_cast<const char *>(bytes.data()), bytes.size()));
}

// Capture reaches the writer through consumeBatch() with Tracer-sized
// blocks; tools and tests also feed it one op at a time. Every
// delivery shape must write the same bytes, and those bytes are pinned
// by digest so an encoder rewrite cannot drift from the format.
TEST(TraceFile, WriterBytesPinnedOnEveryDeliveryPath)
{
    // Several default-size chunks of awkward ops, with the edge ops at
    // the start and recurring mid-chunk.
    std::vector<MicroOp> ops = edgeOps();
    auto sample = awkwardOps();
    auto edges = edgeOps();
    for (int rep = 0; rep < 14000; ++rep) {
        ops.insert(ops.end(), sample.begin(), sample.end());
        if (rep % 997 == 0)
            ops.insert(ops.end(), edges.begin(), edges.end());
    }
    ASSERT_GT(ops.size(), 2u * tracefile::defaultChunkOps);

    // Digests of the bytes format version 1 defines for these ops at
    // each chunk size; they move only with a version bump.
    const struct
    {
        uint32_t chunkOps;
        uint64_t digest;
    } cases[] = {
        {1, 0xe69f921da5bd9059ull},
        {7, 0x8aa2d1ac1f0e8239ull},
        {tracefile::defaultChunkOps, 0x46eb79b7f1cfb26cull},
    };
    const size_t blocks[] = {0, 1, 7, 4096};  // 0 = per-op consume()

    std::string path = tempTracePath("pinned-bytes");
    for (const auto &c : cases) {
        SCOPED_TRACE("chunk_ops " + std::to_string(c.chunkOps));
        for (size_t block : blocks) {
            SCOPED_TRACE("block " + std::to_string(block));
            {
                TraceWriter writer(path, sampleMeta(), sampleLayout(),
                                   c.chunkOps);
                if (block == 0) {
                    for (const auto &op : ops)
                        writer.consume(op);
                } else {
                    OpBlock buf(block);
                    for (const auto &op : ops) {
                        buf.push(op);
                        if (buf.full()) {
                            writer.consumeBlock(buf);
                            buf.clear();
                        }
                    }
                    writer.consumeBlock(buf);
                }
                writer.finish();
                EXPECT_EQ(writer.opsWritten(), ops.size());
            }
            std::vector<uint8_t> bytes = slurpFile(path);
            EXPECT_EQ(fnv1aBytes(bytes), c.digest)
                << std::hex << "0x" << fnv1aBytes(bytes) << " over "
                << std::dec << bytes.size() << " bytes";
        }
    }
    fs::remove(path);
}

TEST(TraceFile, LiveAndReplayedSinksAgree)
{
    const double scale = 0.1;
    for (const char *name : {"M-WordCount", "H-WordCount"}) {
        SCOPED_TRACE(name);
        const WorkloadEntry &entry = findWorkload(name);

        // Live baselines, each on a fresh workload instance.
        MixCounter live_mix;
        {
            WorkloadPtr w = entry.make(scale);
            runThroughSink(*w, live_mix);
        }
        std::vector<uint32_t> sizes{16, 64, 256};
        FootprintSweep live_inst(SweepKind::Instruction, sizes);
        FootprintSweep live_data(SweepKind::Data, sizes);
        StackDistanceProfile live_profile;
        {
            WorkloadPtr w = entry.make(scale);
            TeeSink tee;
            tee.addSink(&live_inst);
            tee.addSink(&live_data);
            tee.addSink(&live_profile);
            runThroughSink(*w, tee);
        }
        WorkloadRun live_run;
        {
            WorkloadPtr w = entry.make(scale);
            live_run = profileWorkload(*w, xeonE5645());
        }

        // One capture feeds all three replays.
        std::string path = tempTracePath(std::string("live-") + name);
        {
            WorkloadPtr w = entry.make(scale);
            captureTrace(*w, path, scale);
        }

        TraceReader reader(path);
        MixCounter replay_mix;
        reader.replayInto(replay_mix);
        EXPECT_EQ(replay_mix.total(), live_mix.total());
        for (size_t k = 0; k < numOpKinds; ++k) {
            EXPECT_EQ(replay_mix.count(static_cast<OpKind>(k)),
                      live_mix.count(static_cast<OpKind>(k)))
                << "kind " << k;
        }

        for (const FootprintSweep *live : {&live_inst, &live_data}) {
            FootprintSweep replay_sweep(live->kind(), sizes);
            reader.replayInto(replay_sweep);
            auto live_curve = live->missRatios();
            auto replay_curve = replay_sweep.missRatios();
            for (size_t i = 0; i < sizes.size(); ++i)
                EXPECT_EQ(live_curve[i], replay_curve[i])
                    << "kind " << static_cast<int>(live->kind()) << ", "
                    << sizes[i] << " KB";
        }

        StackDistanceProfile replay_profile;
        reader.replayInto(replay_profile);
        for (SweepKind kind :
             {SweepKind::Instruction, SweepKind::Data, SweepKind::Unified}) {
            EXPECT_EQ(replay_profile.accesses(kind),
                      live_profile.accesses(kind));
            EXPECT_EQ(replay_profile.missRatios(kind, paperSweepSizesKb()),
                      live_profile.missRatios(kind, paperSweepSizesKb()))
                << "profile kind " << static_cast<int>(kind);
        }

        WorkloadRun replayed = profileWorkload(reader, xeonE5645());
        EXPECT_EQ(replayed.name, live_run.name);
        EXPECT_EQ(replayed.category, live_run.category);
        EXPECT_EQ(replayed.stackKind, live_run.stackKind);
        EXPECT_EQ(replayed.report.instructions,
                  live_run.report.instructions);
        EXPECT_EQ(replayed.report.ipc, live_run.report.ipc);
        EXPECT_EQ(replayed.report.l1iMpki, live_run.report.l1iMpki);
        EXPECT_EQ(replayed.report.l2Mpki, live_run.report.l2Mpki);
        EXPECT_EQ(replayed.io.diskReadBytes, live_run.io.diskReadBytes);
        EXPECT_EQ(replayed.data.inputBytes, live_run.data.inputBytes);
        EXPECT_EQ(replayed.sysBehavior, live_run.sysBehavior);
        for (size_t m = 0; m < numMetrics; ++m)
            EXPECT_EQ(replayed.metrics[m], live_run.metrics[m])
                << "metric " << m;

        fs::remove(path);
    }
}

TEST(TraceFile, TruncatedFileThrows)
{
    std::string path = tempTracePath("truncated");
    writeSample(path, awkwardOps());

    auto size = fs::file_size(path);
    fs::resize_file(path, size - 10);
    EXPECT_THROW(TraceReader reader(path), TraceFormatError);
    fs::remove(path);
}

TEST(TraceFile, CorruptPayloadThrows)
{
    std::string path = tempTracePath("corrupt");
    std::vector<MicroOp> ops;
    auto sample = awkwardOps();
    for (int rep = 0; rep < 200; ++rep)
        for (const auto &op : sample)
            ops.push_back(op);
    writeSample(path, ops);

    // Flip a byte well inside the op payload. Opening scans chunk
    // headers only; decoding must detect the CRC mismatch.
    auto size = fs::file_size(path);
    std::fstream f(path, std::ios::in | std::ios::out |
                             std::ios::binary);
    f.seekg(static_cast<std::streamoff>(size / 2));
    char byte = 0;
    f.get(byte);
    f.seekp(static_cast<std::streamoff>(size / 2));
    f.put(static_cast<char>(byte ^ 0x5a));
    f.close();

    EXPECT_THROW(
        {
            TraceReader reader(path);
            RecordingSink sink;
            reader.replayInto(sink);
        },
        TraceFormatError);
    fs::remove(path);
}

TEST(TraceFile, BadMagicThrows)
{
    std::string path = tempTracePath("magic");
    std::ofstream(path, std::ios::binary)
        << "this is not a trace file at all";
    EXPECT_THROW(TraceReader reader(path), TraceFormatError);
    fs::remove(path);
}

TEST(TraceFile, UnsupportedVersionThrows)
{
    std::string path = tempTracePath("version");
    writeSample(path, awkwardOps());

    std::fstream f(path, std::ios::in | std::ios::out |
                             std::ios::binary);
    f.seekp(4);  // version field follows the magic
    f.put(99);
    f.close();

    EXPECT_THROW(TraceReader reader(path), TraceFormatError);
    fs::remove(path);
}

TEST(TraceFile, MissingFileThrows)
{
    EXPECT_THROW(TraceReader reader(tempTracePath("nonexistent-xyz")),
                 TraceFormatError);
}

void
putU32(std::vector<uint8_t> &out, uint32_t v)
{
    out.push_back(static_cast<uint8_t>(v));
    out.push_back(static_cast<uint8_t>(v >> 8));
    out.push_back(static_cast<uint8_t>(v >> 16));
    out.push_back(static_cast<uint8_t>(v >> 24));
}

/** The complete file header (magic through region table) of a valid
 *  empty trace, reusable as a prefix for hand-crafted chunk bytes. */
std::vector<uint8_t>
sampleHeaderBytes()
{
    std::string path = tempTracePath("hand-header");
    writeSample(path, {});
    std::ifstream f(path, std::ios::binary);
    std::vector<uint8_t> file(
        (std::istreambuf_iterator<char>(f)),
        std::istreambuf_iterator<char>());
    f.close();
    fs::remove(path);
    // Header length = 16 fixed bytes + the payload size at offset 8.
    uint32_t payload_bytes = static_cast<uint32_t>(file[8]) |
                             static_cast<uint32_t>(file[9]) << 8 |
                             static_cast<uint32_t>(file[10]) << 16 |
                             static_cast<uint32_t>(file[11]) << 24;
    file.resize(16 + payload_bytes);
    return file;
}

/**
 * Write a trace whose single op chunk declares `op_count` ops over the
 * given payload, with correct CRCs throughout and a footer agreeing
 * with the declared count. The open-time scan (which only checks
 * bounds and the footer) accepts the file; decoding must then reject
 * the malformed payload itself rather than hit undefined behaviour.
 */
std::string
writeHandCraftedChunk(const std::string &tag, uint32_t op_count,
                      const std::vector<uint8_t> &payload)
{
    std::vector<uint8_t> bytes = sampleHeaderBytes();
    putU32(bytes, op_count);
    putU32(bytes, static_cast<uint32_t>(payload.size()));
    putU32(bytes, tracefile::crc32(payload.data(), payload.size()));
    bytes.insert(bytes.end(), payload.begin(), payload.end());

    std::vector<uint8_t> footer;
    tracefile::putVarint(footer, op_count);
    for (int i = 0; i < 6; ++i)  // IoCounters + DataBehavior, all zero
        tracefile::putVarint(footer, 0);
    putU32(bytes, 0);
    putU32(bytes, static_cast<uint32_t>(footer.size()));
    putU32(bytes, tracefile::crc32(footer.data(), footer.size()));
    bytes.insert(bytes.end(), footer.begin(), footer.end());

    std::string path = tempTracePath(tag);
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    return path;
}

TEST(TraceFile, ChunkDeclaringPayloadPastEofThrows)
{
    std::string path = tempTracePath("bad-chunk-header");
    writeSample(path, awkwardOps());

    // Inflate the first chunk's declared payloadBytes far past the
    // end of the file; the open-time bounds check must reject it.
    std::fstream f(path, std::ios::in | std::ios::out |
                             std::ios::binary);
    uint8_t fixed[16];
    f.read(reinterpret_cast<char *>(fixed), sizeof(fixed));
    uint32_t header_payload = static_cast<uint32_t>(fixed[8]) |
                              static_cast<uint32_t>(fixed[9]) << 8 |
                              static_cast<uint32_t>(fixed[10]) << 16 |
                              static_cast<uint32_t>(fixed[11]) << 24;
    f.seekp(16 + header_payload + 4);  // chunk header's payloadBytes
    const char huge[4] = {'\xf0', '\xff', '\xff', '\xff'};
    f.write(huge, 4);
    f.close();

    EXPECT_THROW(TraceReader reader(path), TraceFormatError);
    fs::remove(path);
}

TEST(TraceFile, OverlongVarintThrows)
{
    // A varint of ten continuation bytes is malformed no matter what
    // follows. Padding keeps >= maxEncodedOpBytes in the chunk so the
    // decode runs through the unchecked SWAR fast path, which must
    // still fail cleanly instead of reading on forever.
    std::vector<uint8_t> payload;
    payload.push_back(0x00);  // IntAlu, no extension; pc delta follows
    for (int i = 0; i < 40; ++i)
        payload.push_back(0x80);
    std::string path = writeHandCraftedChunk("overlong-varint", 2,
                                             payload);
    TraceReader reader(path);
    RecordingSink sink;
    EXPECT_THROW(reader.replayInto(sink), TraceFormatError);
    fs::remove(path);
}

TEST(TraceFile, ChunkEndingMidOpThrows)
{
    // Flags byte only, no pc delta: the checked tail decoder must
    // report truncation (the CRC is valid, so only payload-level
    // validation can catch this).
    std::string path =
        writeHandCraftedChunk("mid-op", 1, {0x00});
    TraceReader reader(path);
    RecordingSink sink;
    EXPECT_THROW(reader.replayInto(sink), TraceFormatError);
    fs::remove(path);
}

TEST(TraceFile, OpCountExceedingPayloadThrows)
{
    // One complete op, but the chunk claims five.
    std::vector<uint8_t> payload;
    payload.push_back(0x00);
    tracefile::putVarintSigned(payload, 0x400000);
    std::string path = writeHandCraftedChunk("count-over", 5, payload);
    TraceReader reader(path);
    RecordingSink sink;
    EXPECT_THROW(reader.replayInto(sink), TraceFormatError);
    fs::remove(path);
}

TEST(TraceFile, PayloadExceedingOpCountThrows)
{
    // Two complete ops, but the chunk claims one: the leftover bytes
    // must be rejected, not silently dropped.
    std::vector<uint8_t> payload;
    payload.push_back(0x00);
    tracefile::putVarintSigned(payload, 0x400000);
    payload.push_back(0x00);
    tracefile::putVarintSigned(payload, 4);
    std::string path = writeHandCraftedChunk("count-under", 1, payload);
    TraceReader reader(path);
    RecordingSink sink;
    EXPECT_THROW(reader.replayInto(sink), TraceFormatError);
    fs::remove(path);
}

/** Whole-file read into memory. */
std::vector<uint8_t>
readFileBytes(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    return std::vector<uint8_t>((std::istreambuf_iterator<char>(f)),
                                std::istreambuf_iterator<char>());
}

void
writeFileBytes(const std::string &path,
               const std::vector<uint8_t> &bytes, size_t len)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(len));
}

TEST(TraceFile, OversizedHeaderPayloadThrows)
{
    // A corrupt header claiming ~4 GB of payload must be rejected by
    // the bounds check against the file size, not by attempting to
    // allocate (or read past) that much.
    std::string path = tempTracePath("huge-header");
    writeSample(path, awkwardOps());
    std::vector<uint8_t> huge_payload = readFileBytes(path);
    const uint8_t huge[4] = {0xf0, 0xff, 0xff, 0xff};
    std::copy(huge, huge + 4, huge_payload.begin() + 8);

    // Headers whose CRC holds but whose region count is 2^40 or 2^58
    // must fail the same way, before the region table is sized off
    // the count.
    std::vector<std::vector<uint8_t>> inputs{huge_payload};
    for (uint64_t regions : {uint64_t{1} << 40, uint64_t{1} << 58}) {
        std::vector<uint8_t> payload;
        tracefile::putString(payload, "T-Huge");
        payload.insert(payload.end(), 10, 0);  // stack, category, scale
        tracefile::putVarint(payload, regions);
        std::vector<uint8_t> bytes;
        for (uint32_t v : {tracefile::magic, tracefile::version,
                           static_cast<uint32_t>(payload.size()),
                           tracefile::crc32(payload.data(),
                                            payload.size())})
            for (int shift = 0; shift < 32; shift += 8)
                bytes.push_back(static_cast<uint8_t>(v >> shift));
        bytes.insert(bytes.end(), payload.begin(), payload.end());
        std::vector<uint8_t> footer =
            tracefile::encodeFooterFrame(0, {}, {});
        bytes.insert(bytes.end(), footer.begin(), footer.end());
        inputs.push_back(bytes);
    }

    for (const auto &bytes : inputs) {
        writeFileBytes(path, bytes, bytes.size());
        // The file mapping and an in-memory copy of the same bytes.
        for (bool mapped : {true, false}) {
            try {
                if (mapped)
                    TraceReader reader(path, {TraceIo::Auto,
                                              CrcMode::Always});
                else
                    TraceReader reader(TraceBytes(bytes), path);
                FAIL() << "oversized header accepted, mapped=" << mapped;
            } catch (const TraceFormatError &err) {
                EXPECT_NE(std::string(err.what())
                              .find("trace header truncated"),
                          std::string::npos)
                    << err.what();
            }
        }
    }
    fs::remove(path);
}

// ------------------------------------------------------- source parity

/**
 * Open `path`'s bytes, through the file mapping or through an
 * in-memory copy labelled with the same path, and replay them whole
 * — or, with `per_chunk`, as one single-chunk range after another;
 * returns the first error text, or empty when the bytes replayed
 * cleanly.
 */
std::string
replayErrorMessage(const std::string &path, bool mapped,
                   bool per_chunk = false)
{
    auto replay = [&](TraceReader &reader) {
        RecordingSink sink;
        if (!per_chunk) {
            reader.replayInto(sink);
            return;
        }
        for (uint64_t i = 0; i < reader.chunkCount(); ++i)
            reader.replayChunks(sink, i, i + 1);
    };
    try {
        if (mapped) {
            TraceReader reader(path, {TraceIo::Auto, CrcMode::Always});
            replay(reader);
        } else {
            TraceReader reader(TraceBytes(readFileBytes(path)), path);
            replay(reader);
        }
    } catch (const TraceFormatError &err) {
        return err.what();
    }
    return {};
}

TEST(TraceSourceParity, MmapMatchesStreamOnValidTrace)
{
    std::string path = tempTracePath("parity-valid");
    std::vector<MicroOp> ops;
    auto sample = awkwardOps();
    for (int rep = 0; rep < 40; ++rep)
        for (const auto &op : sample)
            ops.push_back(op);
    writeSample(path, ops, 7);  // many chunks

    TraceReader memory(TraceBytes(readFileBytes(path)), path);
    TraceReader mmap(path, {TraceIo::Auto, CrcMode::Always});
    EXPECT_STREQ(memory.ioName(), "memory");
    EXPECT_STREQ(mmap.ioName(), "mmap");
    EXPECT_EQ(memory.path(), mmap.path());
    EXPECT_EQ(memory.fileBytes(), mmap.fileBytes());
    EXPECT_EQ(memory.opCount(), mmap.opCount());
    EXPECT_EQ(memory.chunkCount(), mmap.chunkCount());
    EXPECT_EQ(memory.payloadBytes(), mmap.payloadBytes());
    EXPECT_EQ(memory.meta().workload, mmap.meta().workload);
    // writeSample's footer accounting is non-zero in every field.
    EXPECT_EQ(memory.io().diskReadBytes, mmap.io().diskReadBytes);
    EXPECT_EQ(memory.io().diskWriteBytes, mmap.io().diskWriteBytes);
    EXPECT_EQ(memory.io().networkBytes, mmap.io().networkBytes);
    EXPECT_EQ(memory.data().inputBytes, mmap.data().inputBytes);
    EXPECT_EQ(memory.data().intermediateBytes,
              mmap.data().intermediateBytes);
    EXPECT_EQ(memory.data().outputBytes, mmap.data().outputBytes);

    RecordingSink via_memory;
    memory.replayInto(via_memory);
    RecordingSink via_mmap;
    mmap.replayInto(via_mmap);
    expectOpsEqual(via_memory.ops, via_mmap.ops);
    expectOpsEqual(ops, via_mmap.ops);
    fs::remove(path);
}

TEST(TraceSourceParity, TruncationAtEveryLengthFailsIdentically)
{
    std::string full = tempTracePath("parity-trunc-src");
    writeSample(full, awkwardOps(), 3);
    std::vector<uint8_t> bytes = readFileBytes(full);
    fs::remove(full);
    ASSERT_GT(bytes.size(), 0u);

    // Every proper prefix must be rejected (the mandatory footer means
    // truncation anywhere is detectable), and the file mapping and the
    // in-memory bytes must report the exact same error.
    std::string path = tempTracePath("parity-trunc");
    for (size_t len = 0; len < bytes.size(); ++len) {
        SCOPED_TRACE("prefix length " + std::to_string(len));
        writeFileBytes(path, bytes, len);
        std::string via_memory = replayErrorMessage(path, false);
        std::string via_mmap = replayErrorMessage(path, true);
        ASSERT_FALSE(via_memory.empty());
        ASSERT_FALSE(via_mmap.empty());
        EXPECT_EQ(via_memory, via_mmap);
    }
    fs::remove(path);
}

TEST(TraceSourceParity, CorruptFixturesFailIdentically)
{
    std::string path = tempTracePath("parity-corrupt");
    std::vector<MicroOp> ops;
    auto sample = awkwardOps();
    for (int rep = 0; rep < 40; ++rep)
        for (const auto &op : sample)
            ops.push_back(op);
    writeSample(path, ops, 7);
    std::vector<uint8_t> pristine = readFileBytes(path);

    // Flip every byte of the file in turn would be slow; flip a spread
    // of offsets covering header fields, chunk framing and payload.
    for (size_t off = 0; off < pristine.size();
         off += 1 + pristine.size() / 97) {
        SCOPED_TRACE("corrupt byte at offset " + std::to_string(off));
        std::vector<uint8_t> bytes = pristine;
        bytes[off] ^= 0x5a;
        writeFileBytes(path, bytes, bytes.size());
        std::string via_memory = replayErrorMessage(path, false);
        std::string via_mmap = replayErrorMessage(path, true);
        EXPECT_EQ(via_memory, via_mmap);
        // With full verification on, every single-byte corruption in
        // this fixture is caught (CRCs cover header, chunks, footer;
        // framing fields are bounds- and consistency-checked).
        EXPECT_FALSE(via_memory.empty());
        // Replaying chunk ranges reaches the range holding a corrupt
        // chunk and fails it with the whole replay's error text.
        EXPECT_EQ(replayErrorMessage(path, false, true), via_memory);
        EXPECT_EQ(replayErrorMessage(path, true, true), via_memory);
    }
    fs::remove(path);
}

// ---------------------------------------------------------- residency

/** Resident bytes (smaps `Rss:`) of this process's mapping at `addr`. */
uint64_t
residentBytes(const void *addr)
{
    std::ifstream smaps("/proc/self/smaps");
    auto at = reinterpret_cast<uintptr_t>(addr);
    bool inside = false;
    for (std::string line; std::getline(smaps, line);) {
        unsigned long lo = 0;
        unsigned long hi = 0;
        if (std::sscanf(line.c_str(), "%lx-%lx", &lo, &hi) == 2)
            inside = lo <= at && at < hi;
        else if (inside && line.rfind("Rss:", 0) == 0)
            return std::stoull(line.substr(4)) * 1024;
    }
    ADD_FAILURE() << "no mapping holds address " << addr;
    return 0;
}

TEST(TraceFile, MappedTraceKeepsAboutOnePagePerChunkResident)
{
    // Opening releases the pages the chunk walk touched, and replay
    // releases each chunk's payload once decoded, so a mapped trace
    // keeps at most the pages chunks share with their neighbours (and
    // the first and last page) resident, not the file.
    const uint64_t page = static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
    std::string path = tempTracePath("residency");
    std::vector<MicroOp> ops = awkwardOpsRepeated(20 * 16384);
    writeSample(path, ops, 16384);

    TraceBytes bytes = TraceBytes::map(path);
    TraceReader reader(bytes, path);
    ASSERT_GE(reader.chunkCount(), 16u);
    // Chunks many pages long, or the bound below would hold anyway.
    ASSERT_GT(reader.payloadBytes(), 8 * page * reader.chunkCount());
    const uint64_t bound = (2 * reader.chunkCount() + 2) * page;
    EXPECT_LE(residentBytes(bytes.data()), bound) << "after open";

    MixCounter mix;
    EXPECT_EQ(reader.replayInto(mix), ops.size());
    EXPECT_LE(residentBytes(bytes.data()), bound) << "after replay";
    fs::remove(path);
}

TEST(TraceSourceParity, OwnedBufferReplaysTwiceIdentically)
{
    // Releasing pages must leave an in-memory buffer alone: dropping
    // anonymous pages would zero them, and the second replay would
    // fail its CRCs or decode zeros.
    std::string path = tempTracePath("owned-twice");
    std::vector<MicroOp> ops = awkwardOpsRepeated(16 * 4096);
    writeSample(path, ops, 4096);
    TraceReader reader(TraceBytes(readFileBytes(path)), path);
    fs::remove(path);
    for (int pass = 0; pass < 2; ++pass) {
        SCOPED_TRACE("replay " + std::to_string(pass));
        RecordingSink sink;
        reader.replayInto(sink);
        expectOpsEqual(ops, sink.ops);
    }
}

TEST(TraceSourceParity, ConcurrentCopiesOfOneMappingMatchSerial)
{
    // Two copies of one mapped reader decode the same chunks at the
    // same time, each releasing pages the other may be reading; the
    // released bytes fault back in unchanged, so both see exactly
    // what a serial replay sees.
    std::string path = tempTracePath("concurrent-copies");
    writeSample(path, awkwardOpsRepeated(32 * 2048), 2048);
    TraceReader reader(path);
    RecordingSink serial;
    TraceReader(reader).replayInto(serial);
    for (int round = 0; round < 3; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        RecordingSink sinks[2];
        std::atomic<int> waiting{2};
        auto replay = [&](RecordingSink &sink) {
            TraceReader copy(reader);
            waiting.fetch_sub(1);
            while (waiting.load() > 0) {
            }
            copy.replayInto(sink);
        };
        std::thread other(replay, std::ref(sinks[1]));
        replay(sinks[0]);
        other.join();
        expectOpsEqual(serial.ops, sinks[0].ops);
        expectOpsEqual(serial.ops, sinks[1].ops);
    }
    fs::remove(path);
}

// --------------------------------------------------------- CRC modes

TEST(CrcElision, AlwaysChecksEveryReplay)
{
    std::string path = tempTracePath("crc-always");
    writeSample(path, awkwardOps(), 3);

    TraceReader reader(path, {TraceIo::Auto, CrcMode::Always});
    RecordingSink s1;
    reader.replayInto(s1);
    RecordingSink s2;
    reader.replayInto(s2);
    // Always re-checks every chunk on every replay.
    EXPECT_EQ(reader.chunkCrcChecks(), 2 * reader.chunkCount());
    // A range replay checks exactly its own chunks.
    ASSERT_GE(reader.chunkCount(), 3u);
    RecordingSink s3;
    reader.replayChunks(s3, 1, 3);
    EXPECT_EQ(reader.chunkCrcChecks(), 2 * reader.chunkCount() + 2);
    fs::remove(path);
}

TEST(CrcElision, NeverSkipsChunkCrcButKeepsStructuralChecks)
{
    std::string path = tempTracePath("crc-never");
    std::vector<MicroOp> ops;
    auto sample = awkwardOps();
    for (int rep = 0; rep < 10; ++rep)
        for (const auto &op : sample)
            ops.push_back(op);
    writeSample(path, ops, 7);

    // Flip only the *stored CRC field* of the first op chunk — the
    // payload bytes stay intact, so skipping the CRC pass must still
    // decode the original ops.
    std::vector<uint8_t> bytes = readFileBytes(path);
    uint32_t header_payload = static_cast<uint32_t>(bytes[8]) |
                              static_cast<uint32_t>(bytes[9]) << 8 |
                              static_cast<uint32_t>(bytes[10]) << 16 |
                              static_cast<uint32_t>(bytes[11]) << 24;
    size_t chunk_crc_off = 16 + header_payload + 8;
    bytes[chunk_crc_off] ^= 0xff;
    writeFileBytes(path, bytes, bytes.size());

    TraceReader strict(path, {TraceIo::Auto, CrcMode::Always});
    RecordingSink rejected;
    EXPECT_THROW(strict.replayInto(rejected), TraceFormatError);

    TraceReader trusting(path, {TraceIo::Auto, CrcMode::Never});
    RecordingSink sink;
    trusting.replayInto(sink);
    EXPECT_EQ(trusting.chunkCrcChecks(), 0u);
    expectOpsEqual(ops, sink.ops);

    // Never elides op-chunk CRCs only: header corruption still fails
    // at open (the 16-byte fixed prefix is followed by the CRC'd
    // header payload).
    bytes = readFileBytes(path);
    bytes[chunk_crc_off] ^= 0xff;  // restore the chunk CRC
    bytes[17] ^= 0x5a;             // corrupt the header payload
    writeFileBytes(path, bytes, bytes.size());
    EXPECT_THROW(TraceReader(path, {TraceIo::Auto, CrcMode::Never}),
                 TraceFormatError);
    fs::remove(path);
}

TEST(TraceSourceFlags, ParseAndFormatRoundTrip)
{
    CrcMode crc = CrcMode::Always;
    EXPECT_TRUE(parseCrcMode("never", crc));
    EXPECT_EQ(crc, CrcMode::Never);
    EXPECT_TRUE(parseCrcMode("always", crc));
    EXPECT_EQ(crc, CrcMode::Always);
    EXPECT_FALSE(parseCrcMode("sometimes", crc));
    EXPECT_FALSE(parseCrcMode("once", crc));
    EXPECT_EQ(crc, CrcMode::Always);

    EXPECT_STREQ(toString(TraceIo::Auto), "auto");
    EXPECT_STREQ(toString(CrcMode::Always), "always");
    EXPECT_STREQ(toString(CrcMode::Never), "never");
}

/** Workload whose execute() dies mid-capture. */
class ThrowingWorkload : public Workload
{
  public:
    std::string name() const override { return "T-Throwing"; }
    AppCategory category() const override
    {
        return AppCategory::Service;
    }
    StackKind stack() const override { return StackKind::Mpi; }
    void setup(RunEnv &) override {}
    void
    execute(RunEnv &, Tracer &) override
    {
        throw std::runtime_error("workload failed mid-capture");
    }
};

TEST(TraceCapture, FailedCaptureRemovesTmpFile)
{
    std::string path = tempTracePath("failed-capture");
    std::string tmp = path + ".tmp-" + std::to_string(::getpid());
    ThrowingWorkload workload;
    EXPECT_THROW(captureTrace(workload, path, 1.0),
                 std::runtime_error);
    EXPECT_FALSE(fs::exists(path));
    EXPECT_FALSE(fs::exists(tmp));
}

TEST(TraceCacheTest, CapturesOnceThenHits)
{
    std::string dir = testTempPath("test-cache");
    fs::remove_all(dir);
    TraceCache cache(dir);
    const WorkloadEntry &entry = findWorkload("M-Grep");
    auto make = [&] { return entry.make(0.05); };

    EXPECT_FALSE(cache.has(entry.name, 0.05));
    bool captured = false;
    std::string path = cache.ensure(entry.name, 0.05, make, &captured);
    EXPECT_TRUE(captured);
    EXPECT_TRUE(cache.has(entry.name, 0.05));

    std::string again = cache.ensure(entry.name, 0.05, make, &captured);
    EXPECT_FALSE(captured);
    EXPECT_EQ(path, again);

    // A different scale is a different cache entry.
    EXPECT_FALSE(cache.has(entry.name, 0.075));

    // A corrupted cache file is re-captured, not trusted.
    fs::resize_file(path, fs::file_size(path) / 2);
    cache.ensure(entry.name, 0.05, make, &captured);
    EXPECT_TRUE(captured);
    TraceReader reader(path);
    EXPECT_GT(reader.opCount(), 0u);

    fs::remove_all(dir);
}

TEST(Replay, WorkerCountIsAlwaysPositive)
{
    // requested == 0 defers to hardware_concurrency(), which is
    // allowed to return 0; the pool size must still come back >= 1.
    EXPECT_GE(replayWorkers(0), 1u);
    EXPECT_EQ(replayWorkers(1), 1u);
    EXPECT_EQ(replayWorkers(7), 7u);
}

TEST(Replay, ParallelForDefaultThreadCountRunsEveryJob)
{
    std::vector<int> hits(97, 0);
    parallelFor(hits.size(), [&](size_t i) { hits[i]++; }, 0);
    for (size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i], 1) << "job " << i;
}

TEST(Replay, ReplayOnConfigsDefaultJobsMatchesSerial)
{
    const WorkloadEntry &entry = findWorkload("M-Grep");
    std::string path = tempTracePath("default-jobs");
    {
        WorkloadPtr w = entry.make(0.05);
        captureTrace(*w, path, 0.05);
    }

    std::vector<MachineConfig> configs{xeonE5645(), atomD510()};
    auto defaulted =
        replayOnConfigs(TraceReader(path), configs, 0);  // jobs = auto
    ASSERT_EQ(defaulted.size(), configs.size());
    for (size_t i = 0; i < configs.size(); ++i) {
        TraceReader reader(path);
        WorkloadRun serial = profileWorkload(reader, configs[i]);
        EXPECT_EQ(defaulted[i].ipc, serial.report.ipc);
        EXPECT_EQ(defaulted[i].instructions,
                  serial.report.instructions);
    }
    fs::remove(path);
}

TEST(Replay, ParallelForRunsEveryJobOnce)
{
    std::vector<int> hits(257, 0);
    parallelFor(hits.size(),
                [&](size_t i) { hits[i]++; }, 4);
    for (size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i], 1) << "job " << i;

    // Serial fallback covers everything too.
    std::fill(hits.begin(), hits.end(), 0);
    parallelFor(hits.size(), [&](size_t i) { hits[i]++; }, 1);
    for (size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i], 1) << "job " << i;
}

TEST(Replay, ParallelForPropagatesExceptions)
{
    EXPECT_THROW(parallelFor(64,
                             [](size_t i) {
                                 if (i == 33)
                                     throw std::runtime_error("boom");
                             },
                             4),
                 std::runtime_error);
}

TEST(Replay, ParallelReplayMatchesSerial)
{
    const WorkloadEntry &entry = findWorkload("M-Sort");
    std::string path = tempTracePath("parallel");
    {
        WorkloadPtr w = entry.make(0.1);
        captureTrace(*w, path, 0.1);
    }

    std::vector<MachineConfig> configs{xeonE5645(), atomD510(),
                                       atomInOrderSim(32)};
    auto parallel = replayOnConfigs(TraceReader(path), configs, 3);
    ASSERT_EQ(parallel.size(), configs.size());
    for (size_t i = 0; i < configs.size(); ++i) {
        TraceReader reader(path);
        WorkloadRun serial = profileWorkload(reader, configs[i]);
        EXPECT_EQ(parallel[i].machine, configs[i].name);
        EXPECT_EQ(parallel[i].ipc, serial.report.ipc);
        EXPECT_EQ(parallel[i].instructions,
                  serial.report.instructions);
        EXPECT_EQ(parallel[i].l1iMpki, serial.report.l1iMpki);
    }

    // The sweep-ladder replay equals a live one-pass sweep.
    std::vector<uint32_t> ladder{16, 32, 64, 128};
    auto replayed = replaySweepLadder(path, SweepKind::Instruction,
                                      ladder, MrcMode::ShardedOracle, 4)
                        .ratios;
    FootprintSweep live(SweepKind::Instruction, ladder);
    {
        WorkloadPtr w = entry.make(0.1);
        runThroughSink(*w, live);
    }
    auto live_curve = live.missRatios();
    ASSERT_EQ(replayed.size(), ladder.size());
    for (size_t i = 0; i < ladder.size(); ++i)
        EXPECT_EQ(replayed[i], live_curve[i]) << ladder[i] << " KB";

    fs::remove(path);
}

TEST(Replay, ReaderCopiesOnPoolThreadsMatchFreshOpens)
{
    // Copies of one open reader share its bytes and parsed metadata
    // but decode into their own blocks, so they replay concurrently;
    // each must give exactly what a fresh open of the path gives.
    const WorkloadEntry &entry = findWorkload("M-Grep");
    std::string path = tempTracePath("reader-copies");
    {
        WorkloadPtr w = entry.make(0.05);
        captureTrace(*w, path, 0.05);
    }

    std::vector<MachineConfig> configs{xeonE5645(), atomD510(),
                                       atomInOrderSim(32),
                                       atomInOrderSim(64)};
    TraceReader shared(path);
    std::vector<CpuReport> copied(configs.size());
    std::vector<uint64_t> checks(configs.size());
    parallelFor(configs.size(), [&](size_t i) {
        TraceReader copy(shared);
        SimCpu cpu(configs[i]);
        copy.replayInto(cpu);
        copied[i] = cpu.report();
        checks[i] = copy.chunkCrcChecks();
    }, 4);
    EXPECT_EQ(shared.chunkCrcChecks(), 0u);
    for (size_t i = 0; i < configs.size(); ++i) {
        TraceReader fresh(path);
        WorkloadRun want = profileWorkload(fresh, configs[i]);
        EXPECT_EQ(copied[i].machine, want.report.machine);
        EXPECT_EQ(copied[i].instructions, want.report.instructions);
        EXPECT_EQ(toMetricVector(copied[i]), want.metrics);
        EXPECT_EQ(checks[i], shared.chunkCount());
    }
    fs::remove(path);
}

TEST(Replay, ProfileTracesKeepsInputOrder)
{
    TraceCache cache(testTempPath("test-order"));
    std::vector<std::string> names{"M-WordCount", "M-Grep", "M-Sort"};
    std::vector<std::string> paths;
    for (const auto &name : names) {
        const WorkloadEntry &entry = findWorkload(name);
        paths.push_back(cache.ensure(
            name, 0.05, [&] { return entry.make(0.05); }));
    }

    auto runs = profileTraces(paths, xeonE5645(), {}, 3);
    ASSERT_EQ(runs.size(), names.size());
    for (size_t i = 0; i < names.size(); ++i)
        EXPECT_EQ(runs[i].name, names[i]);

    fs::remove_all(cache.directory());
}

TEST(Replay, OnConfigsJobsOneMatchesJobsMany)
{
    // jobs = 1 takes the strictly serial fast path (no pool, no
    // ticket); jobs = N fans out over the shared pool. Every report
    // field must come out bit-identical either way.
    const WorkloadEntry &entry = findWorkload("M-Grep");
    std::string path = tempTracePath("jobs-identity");
    {
        WorkloadPtr w = entry.make(0.05);
        captureTrace(*w, path, 0.05);
    }

    std::vector<MachineConfig> configs{xeonE5645(), atomD510(),
                                       atomInOrderSim(32)};
    TraceReader reader(path);
    auto serial = replayOnConfigs(reader, configs, 1);
    auto pooled = replayOnConfigs(reader, configs, 4);
    ASSERT_EQ(serial.size(), pooled.size());
    for (size_t i = 0; i < configs.size(); ++i) {
        EXPECT_EQ(pooled[i].machine, serial[i].machine);
        EXPECT_EQ(pooled[i].instructions, serial[i].instructions);
        EXPECT_EQ(pooled[i].ipc, serial[i].ipc);
        EXPECT_EQ(pooled[i].l1iMpki, serial[i].l1iMpki);
        EXPECT_EQ(pooled[i].l1dMpki, serial[i].l1dMpki);
        EXPECT_EQ(pooled[i].l2Mpki, serial[i].l2Mpki);
    }
    fs::remove(path);
}

TEST(Replay, TracesOnJobsOneMatchesJobsMany)
{
    std::vector<std::string> names{"M-WordCount", "M-Grep", "M-Sort"};
    std::vector<std::string> paths;
    for (const auto &name : names) {
        const WorkloadEntry &entry = findWorkload(name);
        std::string path = tempTracePath("traceson-" + name);
        WorkloadPtr w = entry.make(0.05);
        captureTrace(*w, path, 0.05);
        paths.push_back(path);
    }

    // profileTraces is the one many-traces-on-one-config runner (the
    // scenario replay cells use it too): its pooled fan-out must match
    // the strictly serial path report for report, in input order.
    auto serial = profileTraces(paths, xeonE5645(), {}, 1);
    auto pooled = profileTraces(paths, xeonE5645(), {}, 4);
    ASSERT_EQ(serial.size(), pooled.size());
    for (size_t i = 0; i < paths.size(); ++i) {
        EXPECT_EQ(pooled[i].name, names[i]);
        EXPECT_EQ(pooled[i].report.instructions,
                  serial[i].report.instructions);
        EXPECT_EQ(pooled[i].report.ipc, serial[i].report.ipc);
        EXPECT_EQ(pooled[i].report.l1dMpki, serial[i].report.l1dMpki);
        EXPECT_EQ(pooled[i].metrics, serial[i].metrics);
    }
    for (const auto &path : paths)
        fs::remove(path);
}

TEST(Replay, SweepInsidePooledReplayDoesNotDeadlock)
{
    // Every fan-out shares one process-wide pool, so a Verify ladder
    // — two replays as parallelFor jobs — launched from inside a
    // pooled job nests bounded tickets. The inner wait() participates
    // in its own fan-out, so this must complete (and stay
    // bit-identical) even if every pool thread is parked on an outer
    // job.
    const WorkloadEntry &entry = findWorkload("M-Grep");
    std::string path = tempTracePath("nested-sweep");
    {
        WorkloadPtr w = entry.make(0.05);
        captureTrace(*w, path, 0.05);
    }

    std::vector<uint32_t> ladder{16, 64, 256};
    MrcResult expect = replaySweepLadder(path, SweepKind::Unified, ladder,
                                         MrcMode::Verify, 1);
    std::vector<MrcResult> got(3);
    parallelFor(got.size(), [&](size_t i) {
        got[i] = replaySweepLadder(path, SweepKind::Unified, ladder,
                                   MrcMode::Verify, 4);
    }, 3);
    for (size_t i = 0; i < got.size(); ++i) {
        SCOPED_TRACE("job " + std::to_string(i));
        EXPECT_EQ(got[i].ratios, expect.ratios);
        EXPECT_EQ(got[i].oracleRatios, expect.oracleRatios);
        EXPECT_EQ(got[i].maxDivergence, expect.maxDivergence);
    }
    fs::remove(path);
}

TEST(Replay, RunnerClaimsHeaviestFirstAndReturnsInputOrder)
{
    std::string path = tempTracePath("claim-order");
    writeSample(path, awkwardOpsRepeated(100), 10);  // 10 chunks of 10
    TraceReader trace(path);
    ASSERT_EQ(trace.chunkCount(), 10u);
    // 30, 50, 20, 50, 0 and 30 ops.
    std::vector<ReplayItem> items{{&trace, 0, 3}, {&trace, 3, 8},
                                  {&trace, 8, 10}, {&trace, 0, 5},
                                  {&trace, 5, 5}, {&trace, 2, 5}};
    const std::vector<size_t> heaviest_first{1, 3, 0, 5, 2, 4};
    EXPECT_EQ(claimOrder(items), heaviest_first);

    const std::vector<uint64_t> ops{30, 50, 20, 50, 0, 30};
    for (unsigned threads = 1; threads <= 4; ++threads) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        std::vector<size_t> ran;
        std::mutex mtx;
        auto replayed = runReplays(items, [&](size_t i, TraceReader &r) {
            {
                std::lock_guard<std::mutex> lock(mtx);
                ran.push_back(i);
            }
            MixCounter mix;
            return r.replayChunks(mix, items[i].first, items[i].last);
        }, threads);
        EXPECT_EQ(replayed, ops);
        if (threads == 1) {
            EXPECT_EQ(ran, heaviest_first);
        }
        std::sort(ran.begin(), ran.end());
        EXPECT_EQ(ran, (std::vector<size_t>{0, 1, 2, 3, 4, 5}));
    }
    fs::remove(path);
}

/** Capture M-WordCount, M-Grep and M-Sort at scale 0.05. */
std::vector<std::string>
captureSmallRoster(const std::string &tag)
{
    std::vector<std::string> paths;
    for (const char *name : {"M-WordCount", "M-Grep", "M-Sort"}) {
        std::string path = tempTracePath(tag + "-" + name);
        WorkloadPtr w = findWorkload(name).make(0.05);
        captureTrace(*w, path, 0.05);
        paths.push_back(path);
    }
    return paths;
}

TEST(Replay, ProfileTracesIsIndependentOfPathOrderAndJobs)
{
    // The runner claims the biggest trace first whatever the list
    // order, but every run lands at its path's index: a permuted list
    // gives the same runs, permuted, at any worker count.
    std::vector<std::string> paths = captureSmallRoster("permuted");
    auto want = profileTraces(paths, xeonE5645(), {}, 1);
    std::vector<size_t> perm{2, 0, 1};
    std::vector<std::string> permuted;
    for (size_t p : perm)
        permuted.push_back(paths[p]);
    for (unsigned jobs = 1; jobs <= 4; ++jobs) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        auto runs = profileTraces(permuted, xeonE5645(), {}, jobs);
        ASSERT_EQ(runs.size(), perm.size());
        for (size_t i = 0; i < perm.size(); ++i) {
            const WorkloadRun &w = want[perm[i]];
            EXPECT_EQ(runs[i].name, w.name);
            EXPECT_EQ(runs[i].report.instructions, w.report.instructions);
            EXPECT_EQ(runs[i].report.ipc, w.report.ipc);
            EXPECT_EQ(runs[i].metrics, w.metrics);
            EXPECT_EQ(runs[i].io.diskReadBytes, w.io.diskReadBytes);
            EXPECT_EQ(runs[i].sysBehavior, w.sysBehavior);
        }
    }
    for (const auto &path : paths)
        fs::remove(path);
}

TEST(Replay, ProfileTracesRejectsACorruptTraceBeforeAnyReplay)
{
    // A flipped payload byte only fails when its chunk replays (CRC);
    // a truncated file fails at open. profileTraces opens every trace
    // before any job runs, so with both in the list the open error
    // wins wherever the truncated trace sits, at every worker count.
    std::vector<std::string> good = captureSmallRoster("corrupt-list");
    std::string bad_crc = tempTracePath("corrupt-list-crc");
    std::string truncated = tempTracePath("corrupt-list-truncated");
    fs::copy_file(good[0], bad_crc, fs::copy_options::overwrite_existing);
    fs::copy_file(good[1], truncated,
                  fs::copy_options::overwrite_existing);
    {
        std::vector<uint8_t> bytes = readFileBytes(bad_crc);
        bytes[bytes.size() / 2] ^= 0x5a;
        writeFileBytes(bad_crc, bytes, bytes.size());
        fs::resize_file(truncated, fs::file_size(truncated) / 2);
    }
    {
        TraceReader reader(bad_crc);  // opens cleanly
        MixCounter mix;
        EXPECT_THROW(reader.replayInto(mix), TraceFormatError);
    }

    for (size_t at = 0; at <= good.size(); ++at) {
        std::vector<std::string> paths{bad_crc};
        paths.insert(paths.end(), good.begin(), good.end());
        paths.insert(paths.begin() + static_cast<std::ptrdiff_t>(at + 1),
                     truncated);
        for (unsigned jobs = 1; jobs <= 4; jobs += 3) {
            SCOPED_TRACE("truncated trace at " + std::to_string(at + 1) +
                         ", jobs " + std::to_string(jobs));
            try {
                profileTraces(paths, xeonE5645(), {}, jobs);
                ADD_FAILURE() << "profileTraces accepted a corrupt list";
            } catch (const TraceFormatError &err) {
                std::string what = err.what();
                EXPECT_NE(what.find("truncated"), std::string::npos)
                    << what;
                EXPECT_EQ(what.find("CRC"), std::string::npos) << what;
            }
        }
    }
    for (const auto &path : good)
        fs::remove(path);
    fs::remove(bad_crc);
    fs::remove(truncated);
}

} // namespace
} // namespace wcrt
