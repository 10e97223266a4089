/**
 * @file
 * The trace-driven CPU model: the stand-in for `perf` on the E5645.
 *
 * SimCpu consumes a micro-op stream and drives the caches, TLBs and
 * branch unit of a MachineConfig, accumulating the raw event counts
 * the paper reads from hardware counters. An analytic pipeline model
 * then converts events into cycles/IPC, and report() flattens
 * everything into the 45-metric vector the WCRT analyzer clusters.
 */

#ifndef WCRT_SIM_SIM_CPU_HH
#define WCRT_SIM_SIM_CPU_HH

#include <memory>
#include <unordered_set>

#include "sim/machine.hh"
#include "trace/microop.hh"
#include "trace/mix_counter.hh"

namespace wcrt {

/** Everything SimCpu measured, in raw and derived form. */
struct CpuReport
{
    std::string machine;
    uint64_t instructions = 0;
    double cycles = 0.0;
    double ipc = 0.0;
    double cpi = 0.0;

    /** @name Instruction mix (fractions of all instructions). */
    /** @{ */
    double loadRatio = 0.0;
    double storeRatio = 0.0;
    double branchRatio = 0.0;
    double integerRatio = 0.0;
    double fpRatio = 0.0;
    double otherRatio = 0.0;
    double intAddressShare = 0.0;
    double fpAddressShare = 0.0;
    double otherIntShare = 0.0;
    double dataMovementRatio = 0.0;
    double dataMovementWithBranchRatio = 0.0;
    /** @} */

    /** @name Cache behaviour. */
    /** @{ */
    double l1iMpki = 0.0;
    double l1iMissRatio = 0.0;
    double l1dMpki = 0.0;
    double l1dMissRatio = 0.0;
    double l2Mpki = 0.0;
    double l2MissRatio = 0.0;
    double l3Mpki = 0.0;
    double l3MissRatio = 0.0;
    /** @} */

    /** @name TLB behaviour. */
    /** @{ */
    double itlbMpki = 0.0;
    double dtlbMpki = 0.0;
    /** @} */

    /** @name Branch behaviour. */
    /** @{ */
    double branchMispredictRatio = 0.0;
    double branchTakenRatio = 0.0;
    double btbMissPki = 0.0;
    BranchStats branchStats;  //!< raw component counters
    /** @} */

    /** @name Pipeline behaviour. */
    /** @{ */
    double frontendStallRatio = 0.0;  //!< front-end stall cycles/cycles
    double backendStallRatio = 0.0;   //!< data-side stall cycles/cycles
    double basicBlockSize = 0.0;      //!< instructions per branch
    /** @} */

    /** @name Off-core traffic and locality. */
    /** @{ */
    double offcoreRequestPki = 0.0;   //!< LLC-level requests PKI
    double snoopResponsePki = 0.0;    //!< modelled cross-core snoops PKI
    double memoryBytesPki = 0.0;      //!< DRAM bytes moved PKI
    double codeFootprintKb = 0.0;     //!< unique code lines touched
    double dataFootprintKb = 0.0;     //!< unique data pages touched
    /** @} */

    /** @name Intensity / parallelism. */
    /** @{ */
    double fpPki = 0.0;
    double operationIntensity = 0.0;  //!< FP ops per DRAM byte
    double integerIntensity = 0.0;    //!< integer ops per DRAM byte
    double mlp = 0.0;                 //!< effective data-miss overlap
    double gflops = 0.0;              //!< achieved GFLOPS at config freq
    /** @} */
};

/**
 * Trace-driven model of one core plus its cache hierarchy.
 */
class SimCpu : public TraceSink
{
  public:
    explicit SimCpu(const MachineConfig &config);

    void consume(const MicroOp &op) override;

    /**
     * Batch-native path: consume()'s event sequence over the block's
     * field arrays, with counters and the mix tally committed once per
     * block. Only same-page ITLB, same-line L1I and same-page DTLB
     * re-hits skip their walks (credited as repeat hits).
     */
    void consumeBatch(const OpBlockView &ops) override;

    /** Finish accounting and produce the report. */
    CpuReport report() const;

    /** Raw access to component statistics (tests, benches). */
    const Cache &l1i() const { return l1iCache; }
    const Cache &l1d() const { return l1dCache; }
    const Cache &l2() const { return l2Cache; }
    const Cache &l3() const { return l3Cache; }
    const Tlb &itlb() const { return itlbUnit; }
    const Tlb &dtlb() const { return dtlbUnit; }
    const BranchUnit &branches() const { return branchUnit; }
    const StreamPrefetcher &prefetcher() const { return prefetchUnit; }
    const MixCounter &mix() const { return mixCounter; }

    /** Instructions consumed so far. */
    uint64_t instructions() const { return mixCounter.total(); }

  private:
    MachineConfig cfg;
    Cache l1iCache;
    Cache l1dCache;
    Cache l2Cache;
    Cache l3Cache;
    Tlb itlbUnit;
    Tlb dtlbUnit;
    BranchUnit branchUnit;
    StreamPrefetcher prefetchUnit;
    MixCounter mixCounter;

    uint64_t itlbMisses = 0;
    uint64_t dtlbMisses = 0;
    uint64_t l1iMissCount = 0;
    uint64_t l1dMissCount = 0;
    uint64_t l2MissesFromL1i = 0;
    uint64_t l2MissesFromL1d = 0;
    uint64_t l3MissesTotal = 0;
    std::unordered_set<uint64_t> codeLines;
    std::unordered_set<uint64_t> dataPages;
};

} // namespace wcrt

#endif // WCRT_SIM_SIM_CPU_HH
