/**
 * @file
 * Tracer: the emission engine workloads and stack engines drive.
 *
 * The tracer keeps a call stack of synthetic function frames. Each
 * emitted op gets a pc inside the active function's range; pcs advance
 * linearly and wrap, so a static code site produces stable addresses
 * (what branch predictors and the BTB key on), while data-dependent
 * control flow produces data-dependent pc paths.
 *
 * Framework functions additionally emit an automatic "overhead walk"
 * on every call: a deterministic stream of generic bookkeeping ops
 * (loads, stores, integer ALU, predictable branches) that sweeps the
 * function's code range from a per-call rotating start offset. This is
 * how the instruction-footprint difference between thin and deep
 * software stacks becomes a measurable cache phenomenon: deep stacks
 * execute more framework code spread over more static bytes.
 *
 * Transport: emitted ops are pushed field by field into an OpBlock and
 * reach the sink as whole blocks via TraceSink::consumeBatch, not one
 * virtual call per op. The block drains automatically when it fills,
 * when the call stack returns to depth zero, and on destruction; call
 * flush() explicitly before inspecting sink state mid-emission.
 *
 * Overhead walks push straight into the block with the frame held in
 * locals and each step's kind, memory operand and purpose looked up
 * in a table, and cursors advance without a divide. The frame and op
 * count are written back before every delivery, so a sink that throws
 * sees the same state per-op emission would leave.
 */

#ifndef WCRT_TRACE_TRACER_HH
#define WCRT_TRACE_TRACER_HH

#include <cstdint>
#include <vector>

#include "trace/code_layout.hh"
#include "trace/microop.hh"
#include "trace/virtual_heap.hh"

namespace wcrt {

/**
 * Emission engine. One Tracer per simulated workload run.
 */
class Tracer
{
  public:
    /**
     * @param layout Code layout shared by the run.
     * @param sink Consumer of the op stream (not owned).
     */
    Tracer(const CodeLayout &layout, TraceSink &sink);

    /** Delivers any buffered ops to the sink (best-effort: a sink
     * that throws loses the tail with a warning — never terminate). */
    ~Tracer();

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /**
     * Push every buffered op to the sink now, so the sink's state is
     * safe to read on return. Emission flushes automatically when the
     * block fills and when the call stack empties; use this before
     * reading sink state while frames are still active.
     */
    void flush();

    /** Direct call: emits the Call op and the callee's overhead walk. */
    void call(FunctionId f);

    /** Indirect call (virtual dispatch / function pointer). */
    void callIndirect(FunctionId f);

    /** Return to the caller frame. */
    void ret();

    /** RAII call/ret pair. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, FunctionId f, bool indirect = false);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &tracer;
    };

    /** @name Straight-line op emission in the active frame. */
    /** @{ */
    void intAlu(IntPurpose purpose = IntPurpose::Compute, uint32_t n = 1);
    void intMul(uint32_t n = 1);
    void intDiv(uint32_t n = 1);
    void fpAlu(uint32_t n = 1);
    void fpMul(uint32_t n = 1);
    void fpDiv(uint32_t n = 1);
    void load(uint64_t addr, uint8_t size = 8);
    void store(uint64_t addr, uint8_t size = 8);
    void other(uint32_t n = 1);
    /** @} */

    /**
     * Conditional branch at the current pc.
     *
     * @param taken Outcome.
     * @param target_offset Destination offset within the active
     *        function (captured e.g. by loopTop()); the pc moves there
     *        when taken.
     */
    void branch(bool taken, uint64_t target_offset);

    /** Forward conditional branch skipping `skip_bytes` when taken. */
    void branchForward(bool taken, uint32_t skip_bytes = 32);

    /** Indirect jump through a table (switch); selector picks target. */
    void branchIndirect(uint64_t selector);

    /** Current offset within the active function (loop targets). */
    uint64_t hereOffset() const;

    /**
     * Counted loop idiom: run `body(i)` n times, emitting the loop's
     * backward conditional branch with a stable pc after the first
     * iteration (taken n-1 times, then falls through).
     *
     * @param n Iteration count (n == 0 emits one not-taken guard).
     * @param body Callable receiving the iteration index.
     */
    template <typename Body>
    void
    loop(uint64_t n, Body &&body)
    {
        uint64_t top = hereOffset();
        if (n == 0) {
            branch(false, top);
            return;
        }
        uint64_t end = 0;
        for (uint64_t i = 0; i < n; ++i) {
            body(i);
            if (i == 0)
                end = hereOffset();
            else
                setOffset(end);
            branch(i + 1 < n, top);
        }
    }

    /** Total ops emitted so far. */
    uint64_t opCount() const { return emitted; }

    /** Current call depth. */
    size_t depth() const { return frames.size(); }

    /** The layout this tracer draws code addresses from. */
    const CodeLayout &codeLayout() const { return layout; }

  private:
    struct Frame
    {
        FunctionId fid;
        uint64_t base;
        uint32_t bytes;
        uint64_t cursor;    //!< offset of the next op within the function
        uint64_t returnPc;  //!< caller pc to return to
    };

    void enter(FunctionId f, bool indirect);

    /** Hand the buffered block to the sink without draining it. */
    void deliverBlock();

    void emit(OpKind kind, IntPurpose purpose, uint64_t mem_addr,
              uint8_t mem_size, uint64_t target, bool taken);

    /** Emit `ops` overhead ops into `f` from `start_offset` (< size). */
    void overheadWalk(Frame &f, uint32_t ops, uint64_t start_offset);
    void setOffset(uint64_t offset);
    Frame &top();
    const Frame &top() const;

    const CodeLayout &layout;
    TraceSink &sink;
    OpBlock block;  //!< ops accumulated since the last flush
    std::vector<Frame> frames;
    std::vector<uint32_t> callCounts;    //!< indexed by FunctionId
    std::vector<uint64_t> scratchBase;   //!< per-function scratch data
    VirtualHeap scratchHeap;
    uint64_t emitted = 0;

    /**
     * Sticky: set when the sink throws out of a block delivery. The
     * stream is dead from that point, so later deliveries discard
     * their ops instead of re-poking the sink — emission that happens
     * while the original exception unwinds (Scope destructors calling
     * ret()) must neither overflow the block nor throw a second time.
     */
    bool sinkFailed = false;

    static constexpr uint32_t opBytes = 4;
    static constexpr uint64_t scratchBytes = 2048;

    /**
     * `(cursor + opBytes) % bytes` without the divide. Exact because
     * a cursor is always below its function's size and CodeLayout
     * rounds every size to a multiple of 16 bytes, so the sum wraps at
     * most once.
     */
    static uint64_t
    nextCursor(uint64_t cursor, uint64_t bytes)
    {
        cursor += opBytes;
        return cursor >= bytes ? cursor - bytes : cursor;
    }

    /** Bytes at each function's start reserved for user emission. */
    static constexpr uint64_t userReserve = 256;
};

} // namespace wcrt

#endif // WCRT_TRACE_TRACER_HH
