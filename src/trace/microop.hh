/**
 * @file
 * The abstract micro-op stream every workload emits.
 *
 * The paper measures retired-instruction behaviour with hardware
 * counters; this reproduction replaces the hardware with a trace-driven
 * model, and MicroOp is the trace record. Workload kernels and the
 * software-stack engines emit one MicroOp per modelled dynamic
 * instruction while they process real data, so instruction mix, branch
 * outcomes and memory reuse are data-dependent rather than synthetic.
 */

#ifndef WCRT_TRACE_MICROOP_HH
#define WCRT_TRACE_MICROOP_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace wcrt {

/** Dynamic instruction classes (Figure 1's breakdown). */
enum class OpKind : uint8_t {
    IntAlu,          //!< integer add/sub/logic/compare
    IntMul,          //!< integer multiply
    IntDiv,          //!< integer divide
    FpAlu,           //!< floating point add/sub/compare
    FpMul,           //!< floating point multiply
    FpDiv,           //!< floating point divide/sqrt
    Load,            //!< memory read
    Store,           //!< memory write
    BranchCond,      //!< conditional direct branch
    BranchUncond,    //!< unconditional direct jump
    BranchIndirect,  //!< indirect jump (switch tables, virtual calls)
    Call,            //!< direct call
    CallIndirect,    //!< indirect call (function pointer / vtable)
    Return,          //!< return
    Other,           //!< fences, system, no-ops
};

/** Number of OpKind values (for counter arrays). */
inline constexpr size_t numOpKinds = 15;

/**
 * What an integer ALU op is computing — the paper's Figure 2 splits
 * integer instructions into integer-address calculation, FP-address
 * calculation and other computation.
 */
enum class IntPurpose : uint8_t {
    None,        //!< not an integer ALU op
    IntAddress,  //!< address arithmetic for integer/byte data
    FpAddress,   //!< address arithmetic for floating-point data
    Compute,     //!< data computation or branch-condition evaluation
};

/** True for the three branch kinds. */
constexpr bool
isBranch(OpKind k)
{
    return k == OpKind::BranchCond || k == OpKind::BranchUncond ||
           k == OpKind::BranchIndirect;
}

/** True for control-transfer ops of any kind (branch/call/return). */
constexpr bool
isControl(OpKind k)
{
    return isBranch(k) || k == OpKind::Call ||
           k == OpKind::CallIndirect || k == OpKind::Return;
}

/** True for FP arithmetic. */
constexpr bool
isFp(OpKind k)
{
    return k == OpKind::FpAlu || k == OpKind::FpMul || k == OpKind::FpDiv;
}

/** True for integer arithmetic. */
constexpr bool
isInt(OpKind k)
{
    return k == OpKind::IntAlu || k == OpKind::IntMul ||
           k == OpKind::IntDiv;
}

/**
 * One modelled dynamic instruction.
 */
struct MicroOp
{
    OpKind kind = OpKind::Other;
    IntPurpose purpose = IntPurpose::None;
    uint64_t pc = 0;        //!< code address (from the CodeLayout)
    uint8_t size = 4;       //!< instruction bytes at that pc
    uint64_t memAddr = 0;   //!< effective address for Load/Store
    uint8_t memSize = 0;    //!< access width in bytes (0 = no access)
    uint64_t target = 0;    //!< control-transfer destination
    bool taken = false;     //!< conditional-branch outcome
};

/**
 * Default capacity of an OpBlock: 4096 ops ≈ 112 KB across the field
 * arrays, large enough to amortize a virtual dispatch down to noise,
 * small enough that a block plus a hot sink's tables stays
 * cache-resident while it drains.
 */
inline constexpr size_t defaultOpBlockOps = 4096;

/**
 * Read-only struct-of-arrays view of a run of micro-ops.
 *
 * Each MicroOp field lives in its own contiguous array, so a sink that
 * reads a single field (the mix counter reads kinds[], the footprint
 * sweep mostly memAddrs[]) streams exactly that array through cache
 * instead of dragging whole 40-byte records. Sinks that want whole
 * records use operator[], which materializes one MicroOp from the
 * arrays — that shim keeps per-op code compiling unchanged.
 *
 * A view does not own storage; it stays valid only while the OpBlock
 * (or arrays) it points into are alive and unmodified.
 */
struct OpBlockView
{
    const OpKind *kinds = nullptr;
    const IntPurpose *purposes = nullptr;
    const uint64_t *pcs = nullptr;
    const uint8_t *sizes = nullptr;
    const uint64_t *memAddrs = nullptr;
    const uint8_t *memSizes = nullptr;
    const uint64_t *targets = nullptr;
    const uint8_t *takens = nullptr;  //!< 0/1; not vector<bool>
    size_t count = 0;

    bool empty() const { return count == 0; }
    size_t size() const { return count; }

    /** Materialize op `i` from the field arrays. */
    MicroOp
    operator[](size_t i) const
    {
        MicroOp op;
        op.kind = kinds[i];
        op.purpose = purposes[i];
        op.pc = pcs[i];
        op.size = sizes[i];
        op.memAddr = memAddrs[i];
        op.memSize = memSizes[i];
        op.target = targets[i];
        op.taken = takens[i] != 0;
        return op;
    }

    /**
     * One-op view over `op`'s own fields, for per-op entry points that
     * forward to a batch path. `taken` holds op.taken as a 0/1 byte;
     * the view is valid while `op` and `*taken` are.
     */
    static OpBlockView
    of(const MicroOp &op, const uint8_t *taken)
    {
        OpBlockView v;
        v.kinds = &op.kind;
        v.purposes = &op.purpose;
        v.pcs = &op.pc;
        v.sizes = &op.size;
        v.memAddrs = &op.memAddr;
        v.memSizes = &op.memSize;
        v.targets = &op.target;
        v.takens = taken;
        v.count = 1;
        return v;
    }

    /** Zero-copy sub-view of `len` ops starting at `offset`. */
    OpBlockView
    slice(size_t offset, size_t len) const
    {
        OpBlockView v;
        v.kinds = kinds + offset;
        v.purposes = purposes + offset;
        v.pcs = pcs + offset;
        v.sizes = sizes + offset;
        v.memAddrs = memAddrs + offset;
        v.memSizes = memSizes + offset;
        v.targets = targets + offset;
        v.takens = takens + offset;
        v.count = len;
        return v;
    }
};

/**
 * A fixed-capacity, reusable struct-of-arrays buffer of micro-ops —
 * the unit of transport between emitters and sinks.
 *
 * Emitters (Tracer, TraceReader) fill a block and hand its view() to
 * TraceSink::consumeBatch in one virtual call instead of one call per
 * op. The storage is allocated once and recycled with clear(), so
 * steady-state emission performs no allocation. The Tracer pushes
 * field by field with the eight-argument push(), so no MicroOp is
 * assembled per op; the trace decoder writes straight into the field
 * arrays via the mutable raw*() pointers and then publishes the fill
 * with setUsed().
 */
class OpBlock
{
  public:
    explicit OpBlock(size_t capacity = defaultOpBlockOps)
        : cap(capacity ? capacity : 1), kinds(cap), purposes(cap),
          pcs(cap), sizes(cap), memAddrs(cap), memSizes(cap),
          targets(cap), takens(cap)
    {
    }

    /**
     * Append one op given field by field, straight into the columns;
     * the caller checks full().
     */
    void
    push(OpKind kind, IntPurpose purpose, uint64_t pc, uint8_t size,
         uint64_t mem_addr, uint8_t mem_size, uint64_t target, bool taken)
    {
        kinds[used] = kind;
        purposes[used] = purpose;
        pcs[used] = pc;
        sizes[used] = size;
        memAddrs[used] = mem_addr;
        memSizes[used] = mem_size;
        targets[used] = target;
        takens[used] = taken ? 1 : 0;
        ++used;
    }

    /** Append one op, scattering its fields; the caller checks full(). */
    void
    push(const MicroOp &op)
    {
        push(op.kind, op.purpose, op.pc, op.size, op.memAddr, op.memSize,
             op.target, op.taken);
    }

    /** Drop the contents, keep the storage. */
    void clear() { used = 0; }

    size_t size() const { return used; }
    size_t capacity() const { return cap; }
    bool empty() const { return used == 0; }
    bool full() const { return used == cap; }

    /** SoA view over the filled prefix. */
    OpBlockView
    view() const
    {
        OpBlockView v;
        v.kinds = kinds.data();
        v.purposes = purposes.data();
        v.pcs = pcs.data();
        v.sizes = sizes.data();
        v.memAddrs = memAddrs.data();
        v.memSizes = memSizes.data();
        v.targets = targets.data();
        v.takens = takens.data();
        v.count = used;
        return v;
    }

    /** Materialize op `i` (per-op accessor shim). */
    MicroOp operator[](size_t i) const { return view()[i]; }

    /**
     * Mutable field arrays for decoders that fill the block directly;
     * after writing `n` ops into every array, publish with setUsed(n).
     */
    OpKind *rawKinds() { return kinds.data(); }
    IntPurpose *rawPurposes() { return purposes.data(); }
    uint64_t *rawPcs() { return pcs.data(); }
    uint8_t *rawSizes() { return sizes.data(); }
    uint64_t *rawMemAddrs() { return memAddrs.data(); }
    uint8_t *rawMemSizes() { return memSizes.data(); }
    uint64_t *rawTargets() { return targets.data(); }
    uint8_t *rawTakens() { return takens.data(); }
    void setUsed(size_t n) { used = n; }

  private:
    size_t cap;  //!< fixed at construction, never grown
    std::vector<OpKind> kinds;
    std::vector<IntPurpose> purposes;
    std::vector<uint64_t> pcs;
    std::vector<uint8_t> sizes;
    std::vector<uint64_t> memAddrs;
    std::vector<uint8_t> memSizes;
    std::vector<uint64_t> targets;
    std::vector<uint8_t> takens;
    size_t used = 0;
};

/**
 * Consumer of a micro-op stream. Implementations include the mix
 * counter (Figures 1-2), the micro-architecture simulator (Figures
 * 3-5) and the cache-capacity sweeper (Figures 6-9).
 *
 * Transport contract: emitters deliver ops either one at a time via
 * consume() or in struct-of-arrays blocks via consumeBatch(). The
 * default consumeBatch() materializes each op and loops over
 * consume(), so a sink that only implements consume() observes the
 * exact per-op sequence either way; hot sinks override consumeBatch()
 * with a tight loop over the field arrays and must produce
 * bit-identical state for any partitioning of the same stream
 * (enforced by tests/batch_dispatch_test.cc).
 */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /** Consume one dynamic instruction. */
    virtual void consume(const MicroOp &op) = 0;

    /**
     * Consume `ops.count` dynamic instructions in emission order. The
     * default preserves per-op semantics for sinks that don't
     * override it.
     */
    virtual void
    consumeBatch(const OpBlockView &ops)
    {
        for (size_t i = 0; i < ops.count; ++i)
            consume(ops[i]);
    }

    /** Convenience: consume a whole block. */
    void consumeBlock(const OpBlock &block) { consumeBatch(block.view()); }

    /**
     * Convenience for callers holding an array-of-structs run: chunks
     * the ops through a reused thread-local OpBlock and delivers them
     * via consumeBatch(). Runs longer than the scratch capacity arrive
     * as several batches — equivalent by the partitioning contract.
     */
    void consumeOps(const MicroOp *ops, size_t count);
};

/**
 * A sink that fans one stream out to several consumers, feeding each
 * child every block in turn on the calling thread.
 */
class TeeSink : public TraceSink
{
  public:
    /** Attach another downstream sink; not owned. */
    void addSink(TraceSink *sink) { sinks.push_back(sink); }

    void
    consume(const MicroOp &op) override
    {
        for (auto *s : sinks)
            s->consume(op);
    }

    /** Whole blocks go to each downstream sink — no per-op fan-out. */
    void
    consumeBatch(const OpBlockView &ops) override
    {
        for (auto *s : sinks)
            s->consumeBatch(ops);
    }

  private:
    std::vector<TraceSink *> sinks;
};

} // namespace wcrt

#endif // WCRT_TRACE_MICROOP_HH
