/**
 * @file
 * Instruction-mix accounting sink (Figures 1 and 2).
 *
 * Counts dynamic ops by kind and integer ops by purpose, and derives
 * the ratios the paper reports: branch %, integer %, FP %, load/store
 * %, the data-movement share (loads + stores + address arithmetic) and
 * the same including branches.
 */

#ifndef WCRT_TRACE_MIX_COUNTER_HH
#define WCRT_TRACE_MIX_COUNTER_HH

#include <array>
#include <cstdint>

#include "trace/microop.hh"

namespace wcrt {

/** Aggregated instruction-mix counts and derived ratios. */
class MixCounter : public TraceSink
{
  public:
    void consume(const MicroOp &op) override;

    /**
     * Batch-native path: one branchless pass histograms the block's
     * kinds[] / purposes[] arrays into local tallies, committed once
     * through addTallies().
     */
    void consumeBatch(const OpBlockView &ops) override;

    /** Total dynamic ops observed. */
    uint64_t total() const { return totalOps; }

    /** Raw count for one kind. */
    uint64_t count(OpKind k) const;

    /** @name Mix ratios in [0, 1] (Figure 1). */
    /** @{ */
    double branchRatio() const;     //!< all control transfers
    double loadRatio() const;
    double storeRatio() const;
    double integerRatio() const;    //!< integer ALU/mul/div
    double fpRatio() const;         //!< FP ALU/mul/div
    double otherRatio() const;
    /** @} */

    /** @name Integer-purpose breakdown of integer ALU ops (Figure 2). */
    /** @{ */
    double intAddressShare() const;
    double fpAddressShare() const;
    double otherIntShare() const;
    /** @} */

    /**
     * Fraction of all instructions that move data: loads, stores and
     * address-calculation integer ops (the paper reports ~73%).
     */
    double dataMovementRatio() const;

    /** Data movement plus branches (the paper's 92% headline). */
    double dataMovementWithBranchRatio() const;

    /**
     * Commit tallies a caller accumulated while walking a block
     * itself. Batch-native sinks that already branch on op kind per
     * op (SimCpu's event loop) use this to fold mix counting into
     * their own pass instead of re-reading the block. `compute_int`
     * must follow the consume() convention: every IntAlu, IntMul and
     * IntDiv op except the two address flavours.
     */
    void
    addTallies(const std::array<uint64_t, numOpKinds> &kinds,
               uint64_t int_addr, uint64_t fp_addr,
               uint64_t compute_int, uint64_t total)
    {
        for (size_t k = 0; k < numOpKinds; ++k)
            kindCounts[k] += kinds[k];
        intAddressOps += int_addr;
        fpAddressOps += fp_addr;
        computeIntOps += compute_int;
        totalOps += total;
    }

  private:
    std::array<uint64_t, numOpKinds> kindCounts{};
    uint64_t intAddressOps = 0;
    uint64_t fpAddressOps = 0;
    uint64_t computeIntOps = 0;
    uint64_t totalOps = 0;
};

} // namespace wcrt

#endif // WCRT_TRACE_MIX_COUNTER_HH
