/**
 * @file
 * Cycle-level in-order core model — the detailed counterpart to the
 * analytic pipeline in SimCpu, in the spirit of the paper's MARSSx86
 * Atom-like configuration.
 *
 * The model walks the trace op by op, charging issue slots, per-class
 * execution latencies, load-use stalls (a dependent op issuing within
 * the shadow of an outstanding load waits for the fill), front-end
 * bubbles for L1I misses and BTB refetches, and full flushes for
 * branch mispredictions. It shares the cache/TLB/branch-unit
 * components with SimCpu, so the two models disagree only in cycle
 * accounting — which is exactly what the core-model ablation bench
 * measures.
 */

#ifndef WCRT_SIM_INORDER_CORE_HH
#define WCRT_SIM_INORDER_CORE_HH

#include "sim/machine.hh"
#include "trace/microop.hh"
#include "trace/mix_counter.hh"

namespace wcrt {

/** Latency table for the in-order model. */
struct InOrderParams
{
    uint32_t issueWidth = 2;      //!< ops per cycle
    uint32_t intLatency = 1;
    uint32_t mulLatency = 3;
    uint32_t divLatency = 20;
    uint32_t fpAluLatency = 3;
    uint32_t fpMulLatency = 4;
    uint32_t fpDivLatency = 24;
    uint32_t l1dHitLatency = 3;
    uint32_t l2HitLatency = 13;
    uint32_t l3HitLatency = 40;
    uint32_t memLatency = 180;
    uint32_t l1iMissBubble = 10;  //!< plus outer-level charges
    uint32_t btbRefetch = 10;
    uint32_t mispredictFlush = 15;
    uint32_t tlbWalk = 30;

    /**
     * Ops after a load that are assumed dependent on it (no register
     * names in the trace, so adjacency approximates dependence).
     */
    uint32_t loadUseWindow = 2;
};

/** Measured totals of one in-order run. */
struct InOrderReport
{
    uint64_t instructions = 0;
    double cycles = 0.0;
    double ipc = 0.0;
    double loadUseStallCycles = 0.0;
    double frontendStallCycles = 0.0;
    double memoryStallCycles = 0.0;
    double executeCycles = 0.0;
};

/**
 * The detailed in-order pipeline.
 */
class InOrderCore : public TraceSink
{
  public:
    /**
     * @param machine Cache/TLB/branch configuration (the core params
     *        of `machine` are ignored; `params` governs timing).
     * @param params In-order latency table.
     */
    InOrderCore(const MachineConfig &machine,
                const InOrderParams &params = {});

    void consume(const MicroOp &op) override;

    /**
     * Batch-native path: one virtual call per block, pipeline state
     * carried through an inlined step loop.
     */
    void consumeBatch(const OpBlockView &ops) override;

    /** Finish accounting and report. */
    InOrderReport report() const;

    const MixCounter &mix() const { return mixCounter; }

  private:
    /** Advance the pipeline by one op (shared by both consume paths). */
    void step(const MicroOp &op);

    /** Data-side access latency through the hierarchy. */
    uint32_t dataLatency(uint64_t addr);

    /** Instruction-side charge for fetching at pc. */
    double fetchCharge(uint64_t pc);

    MachineConfig cfg;
    InOrderParams prm;
    Cache l1i, l1d, l2, l3;
    Tlb itlb, dtlb;
    BranchUnit branches;
    MixCounter mixCounter;

    double cycle = 0.0;            //!< current issue cycle
    double loadReadyCycle = 0.0;   //!< when the last load's data lands
    uint32_t sinceLoad = UINT32_MAX;
    double loadUseStalls = 0.0;
    double frontendStalls = 0.0;
    double memoryStalls = 0.0;
    double executeTotal = 0.0;
    uint32_t slotInCycle = 0;
};

} // namespace wcrt

#endif // WCRT_SIM_INORDER_CORE_HH
