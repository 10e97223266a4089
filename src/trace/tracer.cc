#include "trace/tracer.hh"

#include <array>

#include "base/logging.hh"

namespace wcrt {

namespace {

/**
 * One non-branch overhead-walk step, chosen by the step's hash mod 89.
 * The table spells out every field the pick decides, so the walk
 * selects the memory operand and the purpose by loads, not branches.
 */
struct WalkPick
{
    OpKind kind;
    uint8_t memSize;           //!< 8 for loads/stores, else 0
    IntPurpose purpose[2];     //!< [0] common case, [1] 3-in-20 case
    uint64_t addrMask;         //!< word-aligns scratch addresses, or 0
};

/**
 * 33 loads and 11 stores to the function's scratch words, 36 integer
 * ALU ops, 3 multiplies and 6 others. Framework integer work is
 * overwhelmingly address arithmetic (record offsets, buffer positions,
 * object field displacements): 17 in 20 ALU ops compute addresses.
 */
constexpr std::array<WalkPick, 89> walkPicks = [] {
    constexpr IntPurpose none = IntPurpose::None;
    constexpr IntPurpose compute = IntPurpose::Compute;
    std::array<WalkPick, 89> picks{};
    for (size_t pick = 0; pick < picks.size(); ++pick) {
        if (pick < 33)
            picks[pick] = {OpKind::Load, 8, {none, none}, ~7ull};
        else if (pick < 44)
            picks[pick] = {OpKind::Store, 8, {none, none}, ~7ull};
        else if (pick < 80)
            picks[pick] = {OpKind::IntAlu, 0,
                           {IntPurpose::IntAddress, compute}, 0};
        else if (pick < 83)
            picks[pick] = {OpKind::IntMul, 0, {compute, compute}, 0};
        else
            picks[pick] = {OpKind::Other, 0, {none, none}, 0};
    }
    return picks;
}();

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
    // broken (a trace writer whose disk filled up) must not throw out
    // of a destructor — during exception unwinding that would be
    // std::terminate, not an error report.
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
    block.push(kind, purpose, f.base + f.cursor, opBytes, mem_addr,
               mem_size, target, taken);
    f.cursor = nextCursor(f.cursor, f.bytes);
    ++emitted;
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
        overheadWalk(frames.back(), profile.overheadOps,
                     start % fn.bytes);
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
Tracer::overheadWalk(Frame &f, uint32_t ops, uint64_t start_offset)
{
    // Lazily give each function a small scratch data region so its
    // bookkeeping loads/stores have stable, function-local addresses.
    uint64_t &scratch = scratchBase[f.fid.index];
    if (scratch == 0) {
        scratch = scratchHeap
                      .alloc(layout.function(f.fid).name + ".scratch",
                             scratchBytes)
                      .base;
    }

    // The walk pushes straight into the block with the frame held in
    // locals; the frame and the op count are written back before every
    // delivery, so a sink that throws leaves them exactly where per-op
    // emission would have.
    const uint64_t base = f.base;
    const uint64_t bytes = f.bytes;
    const uint64_t data = scratch;
    const uint64_t emitted_before = emitted;
    uint64_t cursor = start_offset;
    for (uint32_t i = 0; i < ops; ++i) {
        uint64_t h = mixOffset(base, cursor);
        uint64_t next = nextCursor(cursor, bytes);
        uint64_t resume = next;
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
                (cursor + opBytes + ((h >> 24) % 13) * 16) % bytes;
            block.push(OpKind::BranchCond, IntPurpose::None,
                       base + cursor, opBytes, 0, 0,
                       base + target_offset, false);
        } else if (i % 41 == 20) {
            // Unconditional skip over a cold block — how compiled
            // framework code actually jumps around; costs at most a
            // BTB resteer, never a direction mispredict.
            uint64_t target_offset =
                (cursor + opBytes + ((h >> 24) % 13) * 16) % bytes;
            block.push(OpKind::BranchUncond, IntPurpose::None,
                       base + cursor, opBytes, 0, 0,
                       base + target_offset, true);
            resume = target_offset;
        } else {
            const WalkPick &pick = walkPicks[h % 89];
            block.push(pick.kind, pick.purpose[(h >> 12) % 20 >= 17],
                       base + cursor, opBytes,
                       (data + (h >> 8) % scratchBytes) & pick.addrMask,
                       pick.memSize, 0, false);
        }
        if (block.full()) {
            f.cursor = next;
            emitted = emitted_before + i + 1;
            deliverBlock();
        }
        cursor = resume;
    }
    f.cursor = cursor;
    emitted = emitted_before + ops;
}

} // namespace wcrt
