/**
 * @file
 * Tests for the single-pass stack-distance MRC layer: every distance
 * pinned against a brute-force LRU stack, bit-exact equivalence
 * between the Mattson profile's curve and the fully-associative LRU
 * cache sweep on randomized traces under every delivery partition,
 * the one-stream, compaction and parallel paths, the exact merge of
 * consecutive stretches' profiles (absorb), the replay layer's
 * MrcMode plumbing (stack / oracle / verify) with its chunk-range
 * split and its documented stack-vs-oracle divergence bound, and the
 * knee finder's "no knee within ladder" semantics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <iterator>
#include <vector>

#include "base/rng.hh"
#include "base/worker_pool.hh"
#include "op_streams.hh"
#include "sim/footprint.hh"
#include "sim/stack_distance.hh"
#include "tracefile/replay.hh"
#include "tracefile/trace_writer.hh"

namespace wcrt {
namespace {

namespace fs = std::filesystem;

/** Block sizes covering the interesting partitions of one stream. */
const size_t kBlockSizes[] = {1, 7, 4096};

constexpr size_t kStreamOps = 10000;

/** Randomized mixed stream: scattered data over a few MB of heap. */
std::vector<MicroOp>
syntheticStream(size_t count, uint64_t seed = 23)
{
    Rng rng(seed);
    std::vector<MicroOp> ops(count);
    for (size_t i = 0; i < ops.size(); ++i) {
        MicroOp &op = ops[i];
        op.pc = 0x400000 + (i % 4093) * 4;
        uint64_t pick = rng.nextBelow(100);
        if (pick < 25) {
            op.kind = OpKind::Load;
            op.memAddr = rng.nextBelow(1 << 22);
            op.memSize = 8;
        } else if (pick < 35) {
            op.kind = OpKind::Store;
            op.memAddr = rng.nextBelow(1 << 22);
            op.memSize = 8;
        } else if (pick < 50) {
            op.kind = OpKind::BranchCond;
            op.taken = rng.nextBool(0.4);
            op.target = 0x400000 + rng.nextBelow(16384);
        } else {
            op.kind = OpKind::IntAlu;
            op.purpose = pick < 80 ? IntPurpose::IntAddress
                                   : IntPurpose::Compute;
        }
    }
    return ops;
}

/** Streaming-locality stream: strided cursors + random chases. */
std::vector<MicroOp>
streamingStream(size_t count)
{
    Rng rng(31);
    std::vector<MicroOp> ops(count);
    uint64_t read_cursor = 0;
    uint64_t write_cursor = 0;
    for (size_t i = 0; i < ops.size(); ++i) {
        MicroOp &op = ops[i];
        op.pc = 0x400000 + (i % 4096) * 4;
        uint64_t pick = rng.nextBelow(100);
        if (pick < 25) {
            op.kind = OpKind::Load;
            op.memAddr = 0x10000000 + (read_cursor % (128 * 1024));
            read_cursor += 8;
            op.memSize = 8;
        } else if (pick < 30) {
            op.kind = OpKind::Load;
            op.memAddr = 0x30000000 + rng.nextBelow(1 << 22);
            op.memSize = 8;
        } else if (pick < 40) {
            op.kind = OpKind::Store;
            op.memAddr = 0x20000000 + (write_cursor % (128 * 1024));
            write_cursor += 8;
            op.memSize = 8;
        } else {
            op.kind = OpKind::IntAlu;
            op.purpose = IntPurpose::IntAddress;
        }
    }
    return ops;
}

/** Feed ops through consumeBatch in blocks of `block`, like emitters. */
void
feedBlocked(TraceSink &sink, const std::vector<MicroOp> &ops,
            size_t block)
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
 * The oracle the profile must match bit-exactly: a fully-associative
 * LRU cache of `kb` capacity — one FootprintSweep rung with
 * assoc = lines, i.e. a single set holding the whole capacity — per
 * stream, indexed by SweepKind.
 */
std::vector<double>
fullyAssocRatios(const std::vector<MicroOp> &ops, uint32_t kb,
                 size_t block)
{
    uint32_t lines = kb * 1024 / 64;
    std::vector<double> out;
    for (SweepKind kind : {SweepKind::Instruction, SweepKind::Data,
                           SweepKind::Unified}) {
        FootprintSweep sweep(kind, {kb}, /*assoc=*/lines);
        if (block == 0)
            feedPerOp(sweep, ops);
        else
            feedBlocked(sweep, ops, block);
        out.push_back(sweep.missRatios()[0]);
    }
    return out;
}

/** The capacities the equivalence runs ladder (kept small: the
 *  fully-associative oracle walks every line of a set per access). */
const uint32_t kEquivalenceKb[] = {16, 64, 256};

void
expectMatchesFullyAssoc(const std::vector<MicroOp> &ops)
{
    for (size_t block : kBlockSizes) {
        SCOPED_TRACE("block " + std::to_string(block));
        StackDistanceProfile profile;
        feedBlocked(profile, ops, block);
        for (uint32_t kb : kEquivalenceKb) {
            SCOPED_TRACE(std::to_string(kb) + " KB");
            auto oracle = fullyAssocRatios(ops, kb, block);
            // Bit-exact: both sides compute misses/accesses in the
            // same integer spaces before one double division.
            EXPECT_EQ(profile.missRatios(SweepKind::Instruction,
                                         {kb})[0],
                      oracle[0]);
            EXPECT_EQ(profile.missRatios(SweepKind::Data, {kb})[0],
                      oracle[1]);
            EXPECT_EQ(profile.missRatios(SweepKind::Unified, {kb})[0],
                      oracle[2]);
        }
    }
}

TEST(StackDistance, MatchesFullyAssociativeLruOnRandomTrace)
{
    expectMatchesFullyAssoc(syntheticStream(kStreamOps));
}

TEST(StackDistance, MatchesFullyAssociativeLruOnStreamingTrace)
{
    expectMatchesFullyAssoc(streamingStream(kStreamOps));
}

TEST(StackDistance, BatchDeliveryMatchesPerOp)
{
    auto ops = syntheticStream(kStreamOps);
    StackDistanceProfile per_op;
    feedPerOp(per_op, ops);
    auto sizes = paperSweepSizesKb();
    for (size_t block : kBlockSizes) {
        SCOPED_TRACE("block " + std::to_string(block));
        StackDistanceProfile batched;
        feedBlocked(batched, ops, block);
        for (auto kind : {SweepKind::Instruction, SweepKind::Data,
                          SweepKind::Unified}) {
            EXPECT_EQ(batched.missRatios(kind, sizes),
                      per_op.missRatios(kind, sizes));
            EXPECT_EQ(batched.histogram(kind), per_op.histogram(kind));
            EXPECT_EQ(batched.accesses(kind), per_op.accesses(kind));
            EXPECT_EQ(batched.coldMisses(kind),
                      per_op.coldMisses(kind));
            EXPECT_EQ(batched.distinctLines(kind),
                      per_op.distinctLines(kind));
        }
        EXPECT_EQ(batched.instructions(), per_op.instructions());
    }
}

/**
 * The brute-force Mattson reference: an explicit LRU stack (top at
 * the back) per stream, where a reuse's distance is simply the line's
 * depth in the stack. Quadratic, so it only serves the short test
 * streams — but it shares no code or idea with the profile's
 * bitmap-and-word-tree rank queries.
 */
struct MattsonReference
{
    std::vector<uint64_t> hist;  //!< exact size: max distance + 1
    uint64_t cold = 0;
    uint64_t total = 0;

    void
    access(std::vector<uint64_t> &stack, uint64_t line)
    {
        ++total;
        auto it = std::find(stack.rbegin(), stack.rend(), line);
        if (it == stack.rend()) {
            ++cold;
            stack.push_back(line);
            return;
        }
        size_t d = static_cast<size_t>(it - stack.rbegin());
        if (d >= hist.size())
            hist.resize(d + 1, 0);
        ++hist[d];
        stack.erase(std::next(it).base());
        stack.push_back(line);
    }
};

MattsonReference
mattson(const std::vector<MicroOp> &ops, SweepKind kind)
{
    MattsonReference ref;
    std::vector<uint64_t> stack;
    for (const MicroOp &op : ops) {
        if (kind != SweepKind::Data)
            ref.access(stack, op.pc >> 6);
        if (kind != SweepKind::Instruction && op.memSize > 0)
            ref.access(stack, op.memAddr >> 6);
    }
    return ref;
}

/** A histogram without its trailing zero buckets (growth slack). */
std::vector<uint64_t>
trimmed(std::vector<uint64_t> hist)
{
    while (!hist.empty() && hist.back() == 0)
        hist.pop_back();
    return hist;
}

const SweepKind kAllKinds[] = {SweepKind::Instruction, SweepKind::Data,
                               SweepKind::Unified};

/** Check every count of `p`'s `kind` stream against `ref`. */
void
expectProfileMatches(const StackDistanceProfile &p, SweepKind kind,
                     const MattsonReference &ref, size_t ops)
{
    EXPECT_EQ(trimmed(p.histogram(kind)), ref.hist);
    EXPECT_EQ(p.coldMisses(kind), ref.cold);
    EXPECT_EQ(p.distinctLines(kind), ref.cold);
    EXPECT_EQ(p.accesses(kind), ref.total);
    EXPECT_EQ(p.instructions(), ops);
}

/**
 * `ops` cut into `runs` consecutive runs, each profiled by its own
 * `make()` profile, the later runs absorbed in order into the first —
 * the merge replaySweepLadder runs over chunk ranges.
 */
template <typename Make>
StackDistanceProfile
splitProfile(const std::vector<MicroOp> &ops, size_t runs, Make make)
{
    StackDistanceProfile merged = make();
    for (size_t r = 0; r < runs; ++r) {
        std::vector<MicroOp> run(ops.begin() + r * ops.size() / runs,
                                 ops.begin() +
                                     (r + 1) * ops.size() / runs);
        if (r == 0) {
            feedPerOp(merged, run);
            continue;
        }
        StackDistanceProfile part = make();
        feedPerOp(part, run);
        merged.absorb(part);
    }
    return merged;
}

/**
 * Every distance of every stream, pinned against the brute-force
 * stack: the three-stream profile and each one-stream profile, fed
 * per op (block 0) and at every block size, and cut into 1, 2, 3 and
 * 7 consecutive runs merged with absorb(), in the default slot space
 * and in the 64-slot minimum that compacts every few dozen accesses
 * (during the merge's stack moves too).
 */
void
expectMatchesMattson(const std::vector<MicroOp> &ops)
{
    std::vector<MattsonReference> refs;
    for (SweepKind kind : kAllKinds)
        refs.push_back(mattson(ops, kind));
    auto feed = [&](TraceSink &sink, size_t block) {
        if (block == 0)
            feedPerOp(sink, ops);
        else
            feedBlocked(sink, ops, block);
    };
    for (size_t slots : {size_t{1} << 16, size_t{64}}) {
        for (size_t block : {size_t{0}, size_t{1}, size_t{7},
                             size_t{4096}}) {
            SCOPED_TRACE("slots " + std::to_string(slots) + ", block " +
                         std::to_string(block));
            StackDistanceProfile all(64, 0, slots);
            feed(all, block);
            for (SweepKind kind : kAllKinds) {
                const MattsonReference &ref =
                    refs[static_cast<size_t>(kind)];
                StackDistanceProfile one(kind, 64, slots);
                feed(one, block);
                EXPECT_EQ(one.histogram(kind), all.histogram(kind));
                SCOPED_TRACE("kind " +
                             std::to_string(static_cast<int>(kind)));
                {
                    SCOPED_TRACE("three-stream profile");
                    expectProfileMatches(all, kind, ref, ops.size());
                }
                SCOPED_TRACE("one-stream profile");
                expectProfileMatches(one, kind, ref, ops.size());
            }
        }
        for (size_t runs : {size_t{1}, size_t{2}, size_t{3}, size_t{7}}) {
            SCOPED_TRACE("slots " + std::to_string(slots) + ", " +
                         std::to_string(runs) + " runs");
            StackDistanceProfile all = splitProfile(
                ops, runs,
                [&] { return StackDistanceProfile(64, 0, slots); });
            for (SweepKind kind : kAllKinds) {
                SCOPED_TRACE("kind " +
                             std::to_string(static_cast<int>(kind)));
                const MattsonReference &ref =
                    refs[static_cast<size_t>(kind)];
                {
                    SCOPED_TRACE("three-stream profile");
                    expectProfileMatches(all, kind, ref, ops.size());
                }
                SCOPED_TRACE("one-stream profile");
                expectProfileMatches(
                    splitProfile(ops, runs,
                                 [&] {
                                     return StackDistanceProfile(
                                         kind, 64, slots);
                                 }),
                    kind, ref, ops.size());
            }
        }
    }
}

/**
 * True when a cut of `ops` into `runs` runs falls between two
 * back-to-back accesses to one instruction line — the repeat the
 * profile counts through its last-line check, not its stack.
 */
bool
cutSplitsARepeat(const std::vector<MicroOp> &ops, size_t runs)
{
    for (size_t r = 1; r < runs; ++r) {
        size_t cut = r * ops.size() / runs;
        if (ops[cut - 1].pc >> 6 == ops[cut].pc >> 6)
            return true;
    }
    return false;
}

TEST(StackDistance, EveryDistanceMatchesMattsonOnRandomTrace)
{
    auto ops = syntheticStream(kStreamOps);
    for (size_t runs : {2, 3, 7})
        ASSERT_TRUE(cutSplitsARepeat(ops, runs)) << runs << " runs";
    expectMatchesMattson(ops);
}

TEST(StackDistance, EveryDistanceMatchesMattsonOnStreamingTrace)
{
    auto ops = streamingStream(kStreamOps);
    for (size_t runs : {2, 3, 7})
        ASSERT_TRUE(cutSplitsARepeat(ops, runs)) << runs << " runs";
    expectMatchesMattson(ops);
}

TEST(StackDistanceDeathTest, OneStreamProfileRejectsOtherKinds)
{
    StackDistanceProfile data(SweepKind::Data);
    EXPECT_DEATH(data.histogram(SweepKind::Instruction),
                 "tracks only the data stream");
    EXPECT_DEATH(data.missRatios(SweepKind::Unified, {16}),
                 "tracks only the data stream");
}

TEST(StackDistanceDeathTest, AbsorbRejectsOtherStreamsAndLineSizes)
{
    StackDistanceProfile data(SweepKind::Data);
    StackDistanceProfile instr(SweepKind::Instruction);
    StackDistanceProfile all;
    StackDistanceProfile wide(SweepKind::Data, 128);
    EXPECT_DEATH(data.absorb(instr), "cannot absorb");
    EXPECT_DEATH(data.absorb(all), "cannot absorb");
    EXPECT_DEATH(all.absorb(data), "cannot absorb");
    EXPECT_DEATH(data.absorb(wide), "cannot absorb");
}

TEST(StackDistance, SlotCompactionPreservesEveryDistance)
{
    // A tiny initial slot space forces many compaction/regrow cycles
    // over a stream that keeps re-touching old lines; the renumbering
    // is order-preserving, so the histogram must come out identical
    // to a profile that never compacted.
    auto ops = syntheticStream(kStreamOps, 47);
    StackDistanceProfile roomy(64, 0, 1 << 16);
    StackDistanceProfile cramped(64, 0, 16);
    feedPerOp(roomy, ops);
    feedPerOp(cramped, ops);
    for (auto kind : {SweepKind::Instruction, SweepKind::Data,
                      SweepKind::Unified}) {
        EXPECT_EQ(cramped.histogram(kind), roomy.histogram(kind));
        EXPECT_EQ(cramped.coldMisses(kind), roomy.coldMisses(kind));
        EXPECT_EQ(cramped.accesses(kind), roomy.accesses(kind));
    }
}

TEST(StackDistance, CountsKnownDistances)
{
    // Lines A B C A B: the re-touches see 2 intervening distinct
    // lines each; every access is one op with no memory reference, so
    // only the instruction/unified streams fill.
    StackDistanceProfile profile;
    auto touch = [&](uint64_t line) {
        MicroOp op;
        op.kind = OpKind::IntAlu;
        op.pc = line * 64;
        profile.consume(op);
    };
    touch(1); touch(2); touch(3); touch(1); touch(2);
    const auto &hist = profile.histogram(SweepKind::Instruction);
    ASSERT_GE(hist.size(), 3u);
    EXPECT_EQ(profile.coldMisses(SweepKind::Instruction), 3u);
    EXPECT_EQ(profile.distinctLines(SweepKind::Instruction), 3u);
    EXPECT_EQ(hist[2], 2u);
    EXPECT_EQ(profile.accesses(SweepKind::Instruction), 5u);
    // Totals reconcile: accesses = cold + sum(hist).
    uint64_t reuses = 0;
    for (uint64_t h : hist)
        reuses += h;
    EXPECT_EQ(profile.coldMisses(SweepKind::Instruction) + reuses,
              profile.accesses(SweepKind::Instruction));
    // The smallest expressible rung (1 KB = 16 lines) holds all three
    // lines, so only the cold misses remain: ratio 3/5 exactly.
    EXPECT_EQ(profile.missRatios(SweepKind::Instruction, {1})[0],
              3.0 / 5.0);
}

TEST(StackDistance, AbsorbedProfileKeepsCounting)
{
    // Lines 1 2 | 3, merged, then 2 1 3 3 fed to the merged profile:
    // the 2 right after the cut has line 3 above it (distance 1, not a
    // repeat of the first stretch's last line), and the final 3 3 is
    // a back-to-back repeat again.
    auto touch = [](StackDistanceProfile &p, uint64_t line) {
        MicroOp op;
        op.kind = OpKind::IntAlu;
        op.pc = line * 64;
        p.consume(op);
    };
    StackDistanceProfile merged(SweepKind::Instruction);
    StackDistanceProfile later(SweepKind::Instruction);
    StackDistanceProfile one_pass(SweepKind::Instruction);
    for (uint64_t line : {1, 2})
        touch(merged, line);
    touch(later, 3);
    merged.absorb(later);
    for (uint64_t line : {2, 1, 3, 3})
        touch(merged, line);
    for (uint64_t line : {1, 2, 3, 2, 1, 3, 3})
        touch(one_pass, line);
    const SweepKind kind = SweepKind::Instruction;
    EXPECT_EQ(trimmed(merged.histogram(kind)),
              (std::vector<uint64_t>{1, 1, 2}));
    EXPECT_EQ(trimmed(merged.histogram(kind)),
              trimmed(one_pass.histogram(kind)));
    EXPECT_EQ(merged.coldMisses(kind), 3u);
    EXPECT_EQ(merged.accesses(kind), 7u);
    EXPECT_EQ(merged.instructions(), 7u);
}

/** Accounting identity on a big randomized trace. */
TEST(StackDistance, HistogramAccountingReconciles)
{
    auto ops = syntheticStream(kStreamOps);
    StackDistanceProfile profile;
    feedBlocked(profile, ops, 4096);
    for (auto kind : {SweepKind::Instruction, SweepKind::Data,
                      SweepKind::Unified}) {
        uint64_t reuses = 0;
        for (uint64_t h : profile.histogram(kind))
            reuses += h;
        EXPECT_EQ(profile.coldMisses(kind) + reuses,
                  profile.accesses(kind));
        EXPECT_EQ(profile.coldMisses(kind),
                  profile.distinctLines(kind));
    }
}

std::string
tracePath(const std::string &tag)
{
    return testTempPath("mrc-" + tag + ".wtrace");
}

/**
 * Ops per chunk of the test traces: a 10,000-op stream spans 20
 * chunks, so the ladder's chunk ranges really split it.
 */
constexpr uint32_t kTraceChunkOps = 512;

std::string
writeTrace(const std::string &tag, const std::vector<MicroOp> &ops,
           uint32_t chunk_ops = kTraceChunkOps)
{
    std::string path = tracePath(tag);
    CodeLayout layout;
    layout.addFunction("test", CodeLayer::Application, 8192);
    TraceMeta meta;
    meta.workload = "T-" + tag;
    TraceWriter writer(path, meta, layout, chunk_ops);
    writer.consumeOps(ops.data(), ops.size());
    writer.finish();
    return path;
}

TEST(StackDistance, ParallelStreamsMatchSerial)
{
    // The three streams profiled as concurrent jobs — one-stream
    // profiles, each replaying its own copy of one reader, the way
    // the replay runners run sinks — must match the serial
    // three-stream profile exactly.
    std::string path =
        writeTrace("streams", streamingStream(kStreamOps));
    TraceReader trace(path);
    StackDistanceProfile serial;
    TraceReader(trace).replayInto(serial);
    std::vector<StackDistanceProfile> parallel;
    for (SweepKind kind : kAllKinds)
        parallel.emplace_back(kind);
    parallelFor(parallel.size(), [&](size_t i) {
        TraceReader reader(trace);
        reader.replayInto(parallel[i]);
    }, 4);
    auto sizes = paperSweepSizesKb();
    for (SweepKind kind : kAllKinds) {
        const StackDistanceProfile &p =
            parallel[static_cast<size_t>(kind)];
        EXPECT_EQ(p.instructions(), serial.instructions());
        EXPECT_EQ(p.histogram(kind), serial.histogram(kind));
        EXPECT_EQ(p.missRatios(kind, sizes),
                  serial.missRatios(kind, sizes));
    }
    fs::remove(path);
}

TEST(Mrc, ModeNamesRoundTrip)
{
    MrcMode mode = MrcMode::Verify;
    EXPECT_TRUE(parseMrcMode("stack", mode));
    EXPECT_EQ(mode, MrcMode::StackDistance);
    EXPECT_TRUE(parseMrcMode("oracle", mode));
    EXPECT_EQ(mode, MrcMode::ShardedOracle);
    EXPECT_TRUE(parseMrcMode("verify", mode));
    EXPECT_EQ(mode, MrcMode::Verify);
    EXPECT_FALSE(parseMrcMode("bogus", mode));
    EXPECT_EQ(mode, MrcMode::Verify);
    EXPECT_STREQ(toString(MrcMode::StackDistance), "stack");
    EXPECT_STREQ(toString(MrcMode::ShardedOracle), "oracle");
    EXPECT_STREQ(toString(MrcMode::Verify), "verify");
}

TEST(Mrc, ModesAgreeWithEachOtherAndTheLegacyPath)
{
    std::string path = writeTrace("modes", syntheticStream(kStreamOps));
    auto sizes = paperSweepSizesKb();

    for (SweepKind kind : kAllKinds) {
        SCOPED_TRACE("kind " + std::to_string(static_cast<int>(kind)));
        FootprintSweep sweep(kind, sizes);
        TraceReader(path).replayInto(sweep);
        MrcResult oracle = replaySweepLadder(
            path, kind, sizes, MrcMode::ShardedOracle, 1);
        MrcResult stack = replaySweepLadder(
            path, kind, sizes, MrcMode::StackDistance, 1);
        MrcResult verify = replaySweepLadder(
            path, kind, sizes, MrcMode::Verify, 1);

        // The oracle mode is a plain FootprintSweep replay of the
        // trace.
        EXPECT_EQ(oracle.ratios, sweep.missRatios());
        EXPECT_TRUE(oracle.oracleRatios.empty());
        EXPECT_EQ(oracle.maxDivergence, 0.0);

        // Verify computes both models as two replays: its stack
        // curve matches stack mode, its oracle curve matches oracle
        // mode, and the divergence is exactly the max gap between
        // them.
        EXPECT_EQ(verify.ratios, stack.ratios);
        EXPECT_EQ(verify.oracleRatios, oracle.ratios);
        double max_gap = 0.0;
        for (size_t i = 0; i < sizes.size(); ++i)
            max_gap = std::max(max_gap, std::abs(verify.ratios[i] -
                                                 verify.oracleRatios[i]));
        EXPECT_EQ(verify.maxDivergence, max_gap);
    }

    fs::remove(path);
}

TEST(Mrc, ResultCountsMatchADirectlyReplayedProfile)
{
    std::string path =
        writeTrace("counts", streamingStream(kStreamOps));
    auto sizes = paperSweepSizesKb();
    StackDistanceProfile direct;
    TraceReader(path).replayInto(direct);
    for (SweepKind kind : kAllKinds) {
        SCOPED_TRACE("kind " + std::to_string(static_cast<int>(kind)));
        for (MrcMode mode : {MrcMode::StackDistance, MrcMode::Verify}) {
            for (unsigned threads : {1u, 4u}) {
                MrcResult r =
                    replaySweepLadder(path, kind, sizes, mode, threads);
                EXPECT_EQ(r.accesses, direct.accesses(kind));
                EXPECT_EQ(r.distinctLines, direct.distinctLines(kind));
                EXPECT_EQ(r.ratios, direct.missRatios(kind, sizes));
            }
        }
        // The oracle builds no profile, so it reports no counts.
        MrcResult oracle = replaySweepLadder(path, kind, sizes,
                                             MrcMode::ShardedOracle, 1);
        EXPECT_EQ(oracle.accesses, 0u);
        EXPECT_EQ(oracle.distinctLines, 0u);
    }
    fs::remove(path);
}

TEST(Mrc, ParallelReplayMatchesSerial)
{
    // More than one worker cuts the stack-distance pass into chunk
    // ranges and merges their profiles; every thread count must give
    // the one-range result exactly.
    std::string path =
        writeTrace("jobs", streamingStream(kStreamOps));
    ASSERT_GE(TraceReader(path).chunkCount(), 7u);
    auto sizes = paperSweepSizesKb();
    for (SweepKind kind : kAllKinds) {
        for (MrcMode mode : {MrcMode::StackDistance, MrcMode::Verify}) {
            MrcResult serial =
                replaySweepLadder(path, kind, sizes, mode, 1);
            for (unsigned threads : {2u, 3u, 4u, 7u}) {
                SCOPED_TRACE("kind " +
                             std::to_string(static_cast<int>(kind)) +
                             ", " + toString(mode) + ", threads " +
                             std::to_string(threads));
                MrcResult pooled =
                    replaySweepLadder(path, kind, sizes, mode, threads);
                EXPECT_EQ(pooled.ratios, serial.ratios);
                EXPECT_EQ(pooled.oracleRatios, serial.oracleRatios);
                EXPECT_EQ(pooled.maxDivergence, serial.maxDivergence);
                EXPECT_EQ(pooled.accesses, serial.accesses);
                EXPECT_EQ(pooled.distinctLines, serial.distinctLines);
            }
        }
    }
    fs::remove(path);
}

TEST(Mrc, StackOracleDivergenceWithinDocumentedBound)
{
    // The documented bound (tracefile/replay.hh) is what fig6's
    // verify-mode CI check enforces on real workloads; hold the same
    // line on both randomized trace shapes, on every stream kind.
    for (const char *shape : {"synthetic", "streaming"}) {
        auto ops = std::string(shape) == "synthetic"
                       ? syntheticStream(kStreamOps)
                       : streamingStream(kStreamOps);
        std::string path = writeTrace(shape, ops);
        for (auto kind : {SweepKind::Instruction, SweepKind::Data,
                          SweepKind::Unified}) {
            MrcResult r = replaySweepLadder(path, kind,
                                            paperSweepSizesKb(),
                                            MrcMode::Verify, 1);
            SCOPED_TRACE(shape);
            EXPECT_LE(r.maxDivergence, kMrcOracleDivergenceBound);
        }
        fs::remove(path);
    }
}

TEST(Knee, FlatCurveKneesAtTheFirstRung)
{
    std::vector<uint32_t> sizes{16, 32, 64, 128};
    std::vector<double> flat{0.02, 0.02, 0.02, 0.02};
    auto knee = kneeCapacityKb(flat, sizes);
    ASSERT_TRUE(knee.has_value());
    EXPECT_EQ(*knee, 16u);
}

TEST(Knee, MonotoneCurveKneesWhereItFlattens)
{
    std::vector<uint32_t> sizes{16, 32, 64, 128, 256};
    std::vector<double> curve{0.40, 0.20, 0.021, 0.020, 0.020};
    auto knee = kneeCapacityKb(curve, sizes);
    ASSERT_TRUE(knee.has_value());
    EXPECT_EQ(*knee, 64u);
}

TEST(Knee, StillFallingCurveHasNoKneeWithinLadder)
{
    // Strictly halving into the final rung: the old code reported
    // sizes.back() here as if it were a measurement; now the ladder
    // end is explicit.
    std::vector<uint32_t> sizes{16, 32, 64, 128};
    std::vector<double> curve{0.40, 0.20, 0.10, 0.05};
    EXPECT_FALSE(kneeCapacityKb(curve, sizes).has_value());
}

TEST(Knee, NoisyCurveUsesTheFirstRungInsideTheFloorBand)
{
    // Noise keeps rung 1 above the 15% band of the 0.030 floor, rung 2
    // dips inside it: the knee is rung 2 even though rung 3 pops back
    // out — the finder is first-crossing, as the figures describe.
    std::vector<uint32_t> sizes{16, 32, 64, 128, 256};
    std::vector<double> curve{0.30, 0.036, 0.031, 0.039, 0.030};
    auto knee = kneeCapacityKb(curve, sizes);
    ASSERT_TRUE(knee.has_value());
    EXPECT_EQ(*knee, 64u);
}

TEST(Knee, DegenerateInputsReturnNoKnee)
{
    EXPECT_FALSE(kneeCapacityKb({}, {}).has_value());
    EXPECT_FALSE(kneeCapacityKb({0.1}, {16, 32}).has_value());
    // A single-rung ladder can never flatten *before* its last rung.
    EXPECT_FALSE(kneeCapacityKb({0.1}, {16}).has_value());
}

} // namespace
} // namespace wcrt
