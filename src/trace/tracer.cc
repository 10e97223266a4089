#include "trace/tracer.hh"

#include "base/logging.hh"

namespace wcrt {

namespace {

/** Cheap deterministic per-offset hash for overhead-walk decisions. */
uint64_t
mixOffset(uint64_t base, uint64_t offset)
{
    uint64_t x = base + offset;
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ull;
    x ^= x >> 33;
    return x;
}

} // namespace

Tracer::Tracer(const CodeLayout &layout, TraceSink &sink)
    : layout(layout), sink(sink)
{
    callCounts.resize(layout.size(), 0);
    scratchBase.resize(layout.size(), 0);
}

Tracer::~Tracer()
{
    // Best-effort: delivering buffered ops to a sink that is already
    // broken (a shm ring whose analyzer died or never attached) must
    // not throw out of a destructor — during exception unwinding that
    // would be std::terminate, not an error report.
    try {
        flush();
    } catch (const std::exception &e) {
        warn("tracer teardown lost buffered ops: ", e.what());
    }
}

void
Tracer::flush()
{
    deliverBlock();
}

void
Tracer::deliverBlock()
{
    if (block.empty())
        return;
    if (sinkFailed) {
        // The stream already failed; discard instead of re-poking a
        // dead sink so ops emitted while the original exception
        // unwinds (Scope destructors ret()) stay harmless.
        block.clear();
        return;
    }
    try {
        sink.consumeBlock(block);
    } catch (...) {
        // The block must come back empty either way: leaving it full
        // would make the next emit() write past the fixed-capacity
        // arrays (push is unchecked by contract, and full() can never
        // fire again once used passes cap).
        sinkFailed = true;
        block.clear();
        throw;
    }
    block.clear();
}

Tracer::Frame &
Tracer::top()
{
    if (frames.empty())
        wcrt_panic("tracer has no active frame; call() a root first");
    return frames.back();
}

const Tracer::Frame &
Tracer::top() const
{
    if (frames.empty())
        wcrt_panic("tracer has no active frame; call() a root first");
    return frames.back();
}

void
Tracer::emit(OpKind kind, IntPurpose purpose, uint64_t mem_addr,
             uint8_t mem_size, uint64_t target, bool taken)
{
    Frame &f = top();
    MicroOp op;
    op.kind = kind;
    op.purpose = purpose;
    op.pc = f.base + f.cursor;
    op.size = opBytes;
    op.memAddr = mem_addr;
    op.memSize = mem_size;
    op.target = target;
    op.taken = taken;
    f.cursor = (f.cursor + opBytes) % f.bytes;
    ++emitted;
    block.push(op);
    if (block.full())
        deliverBlock();
}

void
Tracer::enter(FunctionId f, bool indirect)
{
    const auto &fn = layout.function(f);
    if (f.index >= callCounts.size()) {
        // The layout grew after this tracer was constructed.
        callCounts.resize(layout.size(), 0);
        scratchBase.resize(layout.size(), 0);
    }
    uint64_t return_pc = 0;
    if (!frames.empty()) {
        // The call op itself sits in the caller's frame.
        emit(indirect ? OpKind::CallIndirect : OpKind::Call,
             IntPurpose::None, 0, 0, fn.base, true);
        return_pc = frames.back().base + frames.back().cursor;
    }
    Frame frame;
    frame.fid = f;
    frame.base = fn.base;
    frame.bytes = fn.bytes;
    frame.cursor = 0;
    frame.returnPc = return_pc;
    frames.push_back(frame);

    const CallProfile &profile = fn.profile;
    uint32_t nth = callCounts[f.index]++;
    if (profile.overheadOps > 0) {
        // The walk rotates through the function's upper region; the
        // first userReserve bytes are left for the caller's own
        // emission so data-dependent app branches keep stable pcs.
        uint64_t start = userReserve;
        uint64_t span = fn.bytes > userReserve ? fn.bytes - userReserve
                                               : fn.bytes;
        if (profile.rotationBytes > 0) {
            start = (fn.bytes > userReserve ? userReserve : 0) +
                    (static_cast<uint64_t>(nth) * profile.rotationBytes) %
                        span;
        }
        overheadWalk(frames.back(), profile, start % fn.bytes);
        // Park the cursor at the stable user-code region.
        frames.back().cursor = 0;
    }
}

void
Tracer::call(FunctionId f)
{
    enter(f, false);
}

void
Tracer::callIndirect(FunctionId f)
{
    enter(f, true);
}

void
Tracer::ret()
{
    if (frames.empty())
        wcrt_panic("ret() with empty call stack");
    uint64_t target = frames.back().returnPc;
    emit(OpKind::Return, IntPurpose::None, 0, 0, target, true);
    frames.pop_back();
    // The run is complete once the root frame returns; deliver the
    // block so callers can read sink state without an explicit flush.
    if (frames.empty())
        flush();
}

Tracer::Scope::Scope(Tracer &tracer, FunctionId f, bool indirect)
    : tracer(tracer)
{
    if (indirect)
        tracer.callIndirect(f);
    else
        tracer.call(f);
}

Tracer::Scope::~Scope()
{
    tracer.ret();
}

void
Tracer::intAlu(IntPurpose purpose, uint32_t n)
{
    for (uint32_t i = 0; i < n; ++i)
        emit(OpKind::IntAlu, purpose, 0, 0, 0, false);
}

void
Tracer::intMul(uint32_t n)
{
    for (uint32_t i = 0; i < n; ++i)
        emit(OpKind::IntMul, IntPurpose::Compute, 0, 0, 0, false);
}

void
Tracer::intDiv(uint32_t n)
{
    for (uint32_t i = 0; i < n; ++i)
        emit(OpKind::IntDiv, IntPurpose::Compute, 0, 0, 0, false);
}

void
Tracer::fpAlu(uint32_t n)
{
    for (uint32_t i = 0; i < n; ++i)
        emit(OpKind::FpAlu, IntPurpose::None, 0, 0, 0, false);
}

void
Tracer::fpMul(uint32_t n)
{
    for (uint32_t i = 0; i < n; ++i)
        emit(OpKind::FpMul, IntPurpose::None, 0, 0, 0, false);
}

void
Tracer::fpDiv(uint32_t n)
{
    for (uint32_t i = 0; i < n; ++i)
        emit(OpKind::FpDiv, IntPurpose::None, 0, 0, 0, false);
}

void
Tracer::load(uint64_t addr, uint8_t size)
{
    emit(OpKind::Load, IntPurpose::None, addr, size, 0, false);
}

void
Tracer::store(uint64_t addr, uint8_t size)
{
    emit(OpKind::Store, IntPurpose::None, addr, size, 0, false);
}

void
Tracer::other(uint32_t n)
{
    for (uint32_t i = 0; i < n; ++i)
        emit(OpKind::Other, IntPurpose::None, 0, 0, 0, false);
}

void
Tracer::branch(bool taken, uint64_t target_offset)
{
    Frame &f = top();
    uint64_t target = f.base + (target_offset % f.bytes);
    emit(OpKind::BranchCond, IntPurpose::None, 0, 0, target, taken);
    if (taken)
        f.cursor = target_offset % f.bytes;
}

void
Tracer::branchForward(bool taken, uint32_t skip_bytes)
{
    Frame &f = top();
    uint64_t target_offset = (f.cursor + opBytes + skip_bytes) % f.bytes;
    branch(taken, target_offset);
}

void
Tracer::branchIndirect(uint64_t selector)
{
    Frame &f = top();
    // Model a jump table: the selector picks one of up to 64 16-byte
    // aligned targets spread over the function body.
    uint64_t slot = mixOffset(f.base, selector) % 64;
    uint64_t target_offset = (slot * (f.bytes / 64 ? f.bytes / 64 : 16)) %
                             f.bytes;
    uint64_t target = f.base + target_offset;
    emit(OpKind::BranchIndirect, IntPurpose::None, 0, 0, target, true);
    f.cursor = target_offset;
}

uint64_t
Tracer::hereOffset() const
{
    return top().cursor;
}

void
Tracer::setOffset(uint64_t offset)
{
    Frame &f = top();
    f.cursor = offset % f.bytes;
}

void
Tracer::overheadWalk(const Frame &frame, const CallProfile &profile,
                     uint64_t start_offset)
{
    // Lazily give each function a small scratch data region so its
    // bookkeeping loads/stores have stable, function-local addresses.
    uint64_t &scratch = scratchBase[frame.fid.index];
    if (scratch == 0) {
        scratch = scratchHeap
                      .alloc(layout.function(frame.fid).name + ".scratch",
                             scratchBytes)
                      .base;
    }

    Frame &f = top();
    f.cursor = start_offset % f.bytes;
    for (uint32_t i = 0; i < profile.overheadOps; ++i) {
        uint64_t h = mixOffset(f.base, f.cursor);
        // Control transfers are placed by walk position (constant per
        // call for a given overheadOps), so the *number* of branches a
        // call contributes to global history is deterministic; data-
        // dependent app branches interleaved with walks then see a
        // consistent history structure, as they would in real code.
        if (i % 9 == 4) {
            // Bookkeeping conditional: an error/boundary check that
            // essentially never fires. Falls through, so it needs
            // neither predictor training nor a BTB entry.
            uint64_t target_offset =
                (f.cursor + opBytes + ((h >> 24) % 13) * 16) % f.bytes;
            emit(OpKind::BranchCond, IntPurpose::None, 0, 0,
                 f.base + target_offset, false);
            continue;
        }
        if (i % 41 == 20) {
            // Unconditional skip over a cold block — how compiled
            // framework code actually jumps around; costs at most a
            // BTB resteer, never a direction mispredict.
            uint64_t target_offset =
                (f.cursor + opBytes + ((h >> 24) % 13) * 16) % f.bytes;
            emit(OpKind::BranchUncond, IntPurpose::None, 0, 0,
                 f.base + target_offset, true);
            f.cursor = target_offset;
            continue;
        }
        uint64_t pick = h % 89;
        if (pick < 33) {
            uint64_t addr = scratch + (h >> 8) % scratchBytes;
            emit(OpKind::Load, IntPurpose::None, addr & ~7ull, 8, 0,
                 false);
        } else if (pick < 44) {
            uint64_t addr = scratch + (h >> 8) % scratchBytes;
            emit(OpKind::Store, IntPurpose::None, addr & ~7ull, 8, 0,
                 false);
        } else if (pick < 80) {
            // Framework integer work is overwhelmingly address
            // arithmetic: record offsets, buffer positions, object
            // field displacements.
            IntPurpose purpose = ((h >> 12) % 20) < 17
                                     ? IntPurpose::IntAddress
                                     : IntPurpose::Compute;
            emit(OpKind::IntAlu, purpose, 0, 0, 0, false);
        } else if (pick < 83) {
            emit(OpKind::IntMul, IntPurpose::Compute, 0, 0, 0, false);
        } else {
            emit(OpKind::Other, IntPurpose::None, 0, 0, 0, false);
        }
    }
}

} // namespace wcrt
