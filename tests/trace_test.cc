/**
 * @file
 * Unit tests for the trace substrate: code layout, virtual heap,
 * tracer emission semantics and the mix counter.
 */

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <vector>

#include "trace/code_layout.hh"
#include "trace/idioms.hh"
#include "trace/microop.hh"
#include "trace/mix_counter.hh"
#include "trace/tracer.hh"
#include "trace/virtual_heap.hh"

namespace wcrt {
namespace {

/** Sink that records every op for inspection. */
class RecordingSink : public TraceSink
{
  public:
    void consume(const MicroOp &op) override { ops.push_back(op); }
    std::vector<MicroOp> ops;
};

TEST(CodeLayout, AllocatesDisjointRanges)
{
    CodeLayout layout;
    auto a = layout.addFunction("a", CodeLayer::Application, 100);
    auto b = layout.addFunction("b", CodeLayer::Framework, 4096);
    const auto &fa = layout.function(a);
    const auto &fb = layout.function(b);
    EXPECT_GE(fa.base, CodeLayout::textBase);
    EXPECT_GE(fb.base, fa.base + fa.bytes);
    EXPECT_EQ(fa.bytes % 16, 0u);
    EXPECT_EQ(layout.size(), 2u);
    EXPECT_GE(layout.totalBytes(), 100u + 4096u);
}

TEST(VirtualHeap, PageAlignedDisjointRegions)
{
    VirtualHeap heap;
    auto a = heap.alloc("a", 100);
    auto b = heap.alloc("b", 5000);
    EXPECT_EQ(a.base % VirtualHeap::pageBytes, 0u);
    EXPECT_EQ(b.base % VirtualHeap::pageBytes, 0u);
    EXPECT_GE(b.base, a.base + a.bytes);
    EXPECT_EQ(a.bytes, VirtualHeap::pageBytes);
    EXPECT_EQ(b.bytes, 2 * VirtualHeap::pageBytes);
}

TEST(VirtualHeap, ElementAddressing)
{
    VirtualHeap heap;
    auto r = heap.alloc("arr", 4096);
    EXPECT_EQ(r.element(3, 8), r.base + 24);
}

class TracerTest : public ::testing::Test
{
  protected:
    TracerTest()
    {
        app = layout.addFunction("kernel", CodeLayer::Application, 256);
        fw = layout.addFunction("framework", CodeLayer::Framework,
                                16 * 1024);
    }

    CodeLayout layout;
    RecordingSink sink;
    FunctionId app;
    FunctionId fw;
};

TEST_F(TracerTest, PcsStayInsideActiveFunction)
{
    Tracer t(layout, sink);
    t.call(app);
    t.intAlu(IntPurpose::Compute, 100);
    t.ret();
    const auto &fn = layout.function(app);
    // All but the final Return op must lie inside the app range.
    for (size_t i = 0; i + 1 < sink.ops.size(); ++i) {
        EXPECT_GE(sink.ops[i].pc, fn.base);
        EXPECT_LT(sink.ops[i].pc, fn.base + fn.bytes);
    }
}

TEST_F(TracerTest, StablePcForStaticSite)
{
    Tracer t(layout, sink);
    t.call(app);
    // A loop body with a fixed op count must produce the identical pc
    // sequence on every iteration: that is what lets the branch
    // predictor and BTB learn static sites.
    t.flush();
    sink.ops.clear();
    t.loop(4, [&](uint64_t) { t.intAlu(IntPurpose::Compute, 3); });
    t.ret();
    // Each iteration: 3 IntAlu + 1 BranchCond = 4 ops.
    ASSERT_EQ(sink.ops.size(), 4u * 4u + 1u);  // + final Return
    for (size_t iter = 1; iter < 4; ++iter)
        for (size_t k = 0; k < 4; ++k)
            EXPECT_EQ(sink.ops[iter * 4 + k].pc, sink.ops[k].pc)
                << "iter " << iter << " op " << k;
}

TEST_F(TracerTest, CallEmitsCallAndReturnOps)
{
    Tracer t(layout, sink);
    t.call(app);
    {
        Tracer::Scope s(t, fw);
        t.intAlu();
    }
    t.ret();
    size_t calls = 0, rets = 0;
    for (const auto &op : sink.ops) {
        calls += op.kind == OpKind::Call;
        rets += op.kind == OpKind::Return;
    }
    EXPECT_EQ(calls, 1u);
    EXPECT_EQ(rets, 2u);
}

TEST_F(TracerTest, ReturnTargetsFollowCallSite)
{
    Tracer t(layout, sink);
    t.call(app);
    t.intAlu();
    t.call(fw);
    t.ret();  // from fw
    t.flush();
    // Find the call and the matching return.
    const MicroOp *call = nullptr, *ret = nullptr;
    for (const auto &op : sink.ops) {
        if (op.kind == OpKind::Call)
            call = &op;
        if (op.kind == OpKind::Return && !ret && call)
            ret = &op;
    }
    ASSERT_NE(call, nullptr);
    ASSERT_NE(ret, nullptr);
    EXPECT_EQ(ret->target, call->pc + call->size);
    t.ret();
}

TEST_F(TracerTest, LoopEmitsNMinusOneTakenBranches)
{
    Tracer t(layout, sink);
    t.call(app);
    t.loop(5, [&](uint64_t) { t.intAlu(); });
    t.ret();
    size_t taken = 0, not_taken = 0;
    for (const auto &op : sink.ops) {
        if (op.kind == OpKind::BranchCond) {
            if (op.taken)
                ++taken;
            else
                ++not_taken;
        }
    }
    EXPECT_EQ(taken, 4u);
    EXPECT_EQ(not_taken, 1u);
}

TEST_F(TracerTest, LoopBackBranchHasStablePc)
{
    Tracer t(layout, sink);
    t.call(app);
    // Data-dependent body: iteration i emits i extra ops; the back
    // branch pc must still be stable from the second iteration on.
    t.loop(6, [&](uint64_t i) {
        t.intAlu(IntPurpose::Compute, static_cast<uint32_t>(1 + i % 3));
    });
    t.ret();
    std::vector<uint64_t> branch_pcs;
    for (const auto &op : sink.ops)
        if (op.kind == OpKind::BranchCond)
            branch_pcs.push_back(op.pc);
    ASSERT_EQ(branch_pcs.size(), 6u);
    for (size_t i = 1; i < branch_pcs.size(); ++i)
        EXPECT_EQ(branch_pcs[i], branch_pcs[0]);
}

TEST_F(TracerTest, ZeroIterationLoopEmitsGuard)
{
    Tracer t(layout, sink);
    t.call(app);
    t.loop(0, [&](uint64_t) { t.intAlu(); });
    t.ret();
    size_t branches = 0;
    for (const auto &op : sink.ops)
        branches += op.kind == OpKind::BranchCond;
    EXPECT_EQ(branches, 1u);
}

TEST_F(TracerTest, OverheadWalkEmitsConfiguredOps)
{
    CallProfile p;
    p.overheadOps = 200;
    p.rotationBytes = 512;
    fw = layout.addFunction("framework2", CodeLayer::Framework, 16 * 1024,
                            p);
    Tracer t(layout, sink);
    t.call(app);
    size_t before = sink.ops.size();
    t.call(fw);
    t.ret();
    t.ret();
    // call op + 200 overhead + return + final return.
    EXPECT_GE(sink.ops.size() - before, 202u);
}

TEST_F(TracerTest, RotationSpreadsFootprint)
{
    CallProfile p;
    p.overheadOps = 64;
    p.rotationBytes = 4096;
    fw = layout.addFunction("framework3", CodeLayer::Framework, 16 * 1024,
                            p);
    Tracer t(layout, sink);
    t.call(app);
    std::set<uint64_t> lines;
    for (int i = 0; i < 4; ++i) {
        t.call(fw);
        t.ret();
    }
    t.flush();
    for (const auto &op : sink.ops)
        lines.insert(op.pc >> 6);
    // Four rotated calls must touch clearly more unique lines than one
    // call's straight-line walk would.
    EXPECT_GT(lines.size(), 4u * 64u * 4u / 64u / 2u);
    t.ret();
}

/** FNV-1a 64 over every field of every op, fed as fixed-width ints. */
uint64_t
opsDigest(const std::vector<MicroOp> &ops)
{
    uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&](uint64_t v) {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    for (const auto &op : ops) {
        mix(static_cast<uint64_t>(op.kind));
        mix(static_cast<uint64_t>(op.purpose));
        mix(op.pc);
        mix(op.size);
        mix(op.memAddr);
        mix(op.memSize);
        mix(op.target);
        mix(op.taken ? 1 : 0);
    }
    return h;
}

// Pins the exact ops emission produces — overhead walks included — so
// a faster emitter cannot drift: functions from one 16-byte line to
// 64 KB, walks short enough to end before their first scheduled
// branch and long enough to cross a whole 4096-op block, all three
// rotation regimes, nested and repeated calls between straight-line
// loads, stores and branches. Every recorded trace depends on these
// ops, so the digest moves only when the emission model itself does.
TEST_F(TracerTest, EmissionDigestIsPinned)
{
    auto add = [&](const char *name, uint32_t bytes, uint32_t overhead,
                   uint32_t rotation) {
        CallProfile p;
        p.overheadOps = overhead;
        p.rotationBytes = rotation;
        return layout.addFunction(name, CodeLayer::Framework, bytes, p);
    };
    FunctionId line = add("fw.line", 16, 1, 0);
    FunctionId stub = add("fw.stub", 112, 9, 512);
    FunctionId mid = add("fw.mid", 16 * 1024, 41, 4096);
    FunctionId big = add("fw.big", 64 * 1024, 200, 512);
    FunctionId huge = add("fw.huge", 64 * 1024, 5000, 4096);
    FunctionId flat = add("fw.flat", 16 * 1024, 200, 0);

    Tracer t(layout, sink);
    t.call(app);
    for (uint64_t rep = 0; rep < 5; ++rep) {
        t.load(0x10000 + rep * 64, 8);
        t.call(line);
        t.intAlu(IntPurpose::Compute, 3);
        t.branchForward(rep % 2 == 0, 16);
        t.ret();
        {
            Tracer::Scope s(t, stub);
            t.store(0x20000 + rep * 8, 4);
            {
                Tracer::Scope inner(t, mid);
                t.loop(3, [&](uint64_t i) {
                    t.load(0x30000 + i * 8);
                    t.call(big);
                    t.branchIndirect(rep * 7 + i);
                    t.ret();
                });
            }
            t.branch(rep % 3 == 0, 8);
        }
        if (rep % 2 == 1) {
            Tracer::Scope s(t, huge);
            t.other(2);
            t.call(line);
            t.ret();
        }
        t.callIndirect(flat);
        t.fpMul(2);
        t.store(0x40000 + rep * 16, 8);
        t.ret();
        t.callIndirect(stub);
        t.ret();
    }
    t.ret();

    EXPECT_EQ(t.opCount(), sink.ops.size());
    EXPECT_EQ(sink.ops.size(), 14490u);
    EXPECT_EQ(opsDigest(sink.ops), 0x3a0dd4c0ce4cc14cull)
        << std::hex << "0x" << opsDigest(sink.ops);
}

TEST_F(TracerTest, MemOpsCarryAddresses)
{
    Tracer t(layout, sink);
    t.call(app);
    t.load(0x1000, 8);
    t.store(0x2000, 4);
    t.ret();
    const MicroOp *ld = nullptr, *st = nullptr;
    for (const auto &op : sink.ops) {
        if (op.kind == OpKind::Load)
            ld = &op;
        if (op.kind == OpKind::Store)
            st = &op;
    }
    ASSERT_NE(ld, nullptr);
    ASSERT_NE(st, nullptr);
    EXPECT_EQ(ld->memAddr, 0x1000u);
    EXPECT_EQ(ld->memSize, 8u);
    EXPECT_EQ(st->memAddr, 0x2000u);
    EXPECT_EQ(st->memSize, 4u);
}

TEST_F(TracerTest, DepthTracksCallStack)
{
    Tracer t(layout, sink);
    EXPECT_EQ(t.depth(), 0u);
    t.call(app);
    EXPECT_EQ(t.depth(), 1u);
    t.call(fw);
    EXPECT_EQ(t.depth(), 2u);
    t.ret();
    t.ret();
    EXPECT_EQ(t.depth(), 0u);
}

TEST(MixCounter, RatiosSumToOne)
{
    CodeLayout layout;
    auto f = layout.addFunction("f", CodeLayer::Application, 1024);
    MixCounter mix;
    Tracer t(layout, mix);
    t.call(f);
    t.loop(100, [&](uint64_t i) {
        t.intAlu(IntPurpose::IntAddress, 2);
        t.load(0x1000 + i * 8);
        t.store(0x9000 + i * 8);
        t.fpAlu();
        t.other();
    });
    t.ret();
    double sum = mix.branchRatio() + mix.loadRatio() + mix.storeRatio() +
                 mix.integerRatio() + mix.fpRatio() + mix.otherRatio();
    EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(MixCounter, PurposeBreakdownSumsToOne)
{
    CodeLayout layout;
    auto f = layout.addFunction("f", CodeLayer::Application, 1024);
    MixCounter mix;
    Tracer t(layout, mix);
    t.call(f);
    t.intAlu(IntPurpose::IntAddress, 10);
    t.intAlu(IntPurpose::FpAddress, 5);
    t.intAlu(IntPurpose::Compute, 5);
    t.ret();
    EXPECT_NEAR(mix.intAddressShare(), 0.5, 1e-12);
    EXPECT_NEAR(mix.fpAddressShare(), 0.25, 1e-12);
    EXPECT_NEAR(mix.otherIntShare(), 0.25, 1e-12);
}

TEST(MixCounter, DataMovementIncludesAddressArithmetic)
{
    CodeLayout layout;
    auto f = layout.addFunction("f", CodeLayer::Application, 1024);
    MixCounter mix;
    Tracer t(layout, mix);
    t.call(f);
    t.intAlu(IntPurpose::IntAddress, 4);
    t.load(0x100);
    t.store(0x200);
    t.fpAlu(4);
    t.ret();
    // 4 addr + 1 load + 1 store of 11 total (call+ret included).
    EXPECT_NEAR(mix.dataMovementRatio(), 6.0 / 11.0, 1e-12);
}

TEST(Idioms, CompareBytesTouchesBothOperands)
{
    CodeLayout layout;
    auto f = layout.addFunction("f", CodeLayer::Application, 1024);
    RecordingSink sink;
    Tracer t(layout, sink);
    t.call(f);
    idioms::compareBytes(t, 0x1000, 0x2000, 8);
    t.ret();
    // Word-at-a-time compare: 8 compared bytes = 2 word probes per
    // operand.
    size_t a_loads = 0, b_loads = 0;
    for (const auto &op : sink.ops) {
        if (op.kind != OpKind::Load)
            continue;
        a_loads += op.memAddr >= 0x1000 && op.memAddr < 0x1010;
        b_loads += op.memAddr >= 0x2000 && op.memAddr < 0x2010;
    }
    EXPECT_EQ(a_loads, 2u);
    EXPECT_EQ(b_loads, 2u);
}

TEST(Idioms, CopyBytesMovesWholeRange)
{
    CodeLayout layout;
    auto f = layout.addFunction("f", CodeLayer::Application, 1024);
    RecordingSink sink;
    Tracer t(layout, sink);
    t.call(f);
    idioms::copyBytes(t, 0x1000, 0x2000, 64);
    t.ret();
    size_t loads = 0, stores = 0;
    for (const auto &op : sink.ops) {
        loads += op.kind == OpKind::Load;
        stores += op.kind == OpKind::Store;
    }
    EXPECT_EQ(loads, 8u);
    EXPECT_EQ(stores, 8u);
}

TEST(Idioms, FpAccumulateEmitsFpOps)
{
    CodeLayout layout;
    auto f = layout.addFunction("f", CodeLayer::Application, 1024);
    MixCounter mix;
    Tracer t(layout, mix);
    t.call(f);
    idioms::fpAccumulate(t, 0x1000, 16);
    t.ret();
    EXPECT_EQ(mix.count(OpKind::FpMul), 16u);
    EXPECT_EQ(mix.count(OpKind::FpAlu), 16u);
    EXPECT_EQ(mix.count(OpKind::Load), 16u);
}

TEST(TeeSink, FansOutToAllSinks)
{
    MixCounter a, b;
    TeeSink tee;
    tee.addSink(&a);
    tee.addSink(&b);
    MicroOp op;
    op.kind = OpKind::Load;
    op.memSize = 8;
    tee.consume(op);
    EXPECT_EQ(a.total(), 1u);
    EXPECT_EQ(b.total(), 1u);
}

TEST(TeeSink, ForwardsWholeBatches)
{
    MixCounter a, b;
    TeeSink tee;
    tee.addSink(&a);
    tee.addSink(&b);
    std::vector<MicroOp> ops(5);
    for (auto &op : ops)
        op.kind = OpKind::IntAlu;
    tee.consumeOps(ops.data(), ops.size());
    EXPECT_EQ(a.total(), 5u);
    EXPECT_EQ(b.total(), 5u);
}

TEST(OpBlock, FillsClearsAndViews)
{
    OpBlock block(4);
    EXPECT_TRUE(block.empty());
    EXPECT_EQ(block.capacity(), 4u);
    MicroOp op;
    op.kind = OpKind::Store;
    op.memAddr = 0x1000;
    op.memSize = 8;
    while (!block.full())
        block.push(op);
    EXPECT_EQ(block.size(), 4u);
    OpBlockView view = block.view();
    EXPECT_EQ(view.size(), 4u);
    EXPECT_EQ(view.kinds[1], OpKind::Store);
    EXPECT_EQ(view.memAddrs[3], 0x1000u);
    EXPECT_EQ(block[2].kind, OpKind::Store);
    EXPECT_EQ(block[2].memSize, 8u);
    size_t seen = 0;
    for (size_t i = 0; i < view.size(); ++i)
        seen += view[i].kind == OpKind::Store;
    EXPECT_EQ(seen, 4u);
    OpBlockView tail = view.slice(2, 2);
    EXPECT_EQ(tail.size(), 2u);
    EXPECT_EQ(tail[0].memAddr, 0x1000u);
    block.clear();
    EXPECT_TRUE(block.empty());
    EXPECT_EQ(block.capacity(), 4u);
}

TEST(Tracer, FlushDeliversBufferedOpsAndDestructorDrains)
{
    CodeLayout layout;
    auto f = layout.addFunction("f", CodeLayer::Application, 1024);
    RecordingSink sink;
    {
        Tracer t(layout, sink);
        t.call(f);
        t.intAlu(IntPurpose::Compute, 3);
        // Ops are block-buffered: nothing reaches the sink until a
        // flush point.
        EXPECT_TRUE(sink.ops.empty());
        t.flush();
        EXPECT_EQ(sink.ops.size(), 3u);  // root call emits no op
        t.intAlu();
        // Destructor drains whatever is still buffered.
    }
    EXPECT_EQ(sink.ops.size(), 4u);
}

// A sink that wedges (throws on every delivery) after accepting a
// fixed number of batches — the shape of a trace writer whose disk
// filled up.
class WedgedSink : public TraceSink
{
  public:
    explicit WedgedSink(size_t accept) : accept(accept) {}

    void consume(const MicroOp &) override {}

    void
    consumeBatch(const OpBlockView &ops) override
    {
        if (delivered >= accept)
            throw std::runtime_error("sink wedged");
        delivered += ops.count;
    }

    size_t accept;
    size_t delivered = 0;
};

// Once the sink throws out of a delivery, the tracer's stream is dead:
// emission must stay memory-safe (the failed block is discarded, not
// left full so the next emit writes past the fixed-capacity arrays)
// and later deliveries must not throw a second time — ops keep
// arriving while the original exception unwinds Scope destructors.
TEST(Tracer, EmissionSurvivesSinkFailureMidStream)
{
    CodeLayout layout;
    auto f = layout.addFunction("f", CodeLayer::Application, 1024);
    WedgedSink sink(0);
    Tracer t(layout, sink);
    t.call(f);

    bool threw = false;
    try {
        {
            Tracer::Scope scope(t, f);
            // Fill well past one block so the auto-flush hits the
            // wedged sink mid-emission, inside the scope.
            t.intAlu(IntPurpose::Compute, 2 * defaultOpBlockOps);
        }
    } catch (const std::runtime_error &) {
        threw = true;
    }
    EXPECT_TRUE(threw);

    // Emission after the failure (what unwinding does) must neither
    // crash nor throw, across enough ops to refill whole blocks.
    for (size_t i = 0; i < 2 * defaultOpBlockOps; ++i)
        EXPECT_NO_THROW(t.intAlu());
    EXPECT_NO_THROW(t.ret());
    EXPECT_EQ(sink.delivered, 0u);
}

} // namespace
} // namespace wcrt
