/**
 * @file
 * Whole-machine configurations (the paper's Table 3 and Table 4).
 *
 * A MachineConfig bundles cache/TLB geometry, the branch unit and the
 * analytic core parameters. Three presets match the paper's platforms:
 * the Xeon E5645 testbed, the Atom D510 used for the branch study, and
 * the Atom-like in-order single-core configuration used for the
 * MARSSx86 footprint sweeps.
 */

#ifndef WCRT_SIM_MACHINE_HH
#define WCRT_SIM_MACHINE_HH

#include <string>

#include "sim/branch.hh"
#include "sim/cache.hh"
#include "sim/prefetcher.hh"
#include "sim/tlb.hh"

namespace wcrt {

/**
 * Analytic pipeline parameters for the core model.
 *
 * Cycle accounting is additive: a base CPI for the issue machinery
 * plus per-event stall charges, with data-miss charges divided by the
 * memory-level-parallelism factor an out-of-order window provides.
 */
struct CoreParams
{
    double baseCpi = 0.30;          //!< ideal pipeline CPI
    double fpExtraCpi = 0.8;        //!< FP dependency-latency charge/op
    double divExtraCpi = 8.0;       //!< additional charge per divide
    double l1iMissPenalty = 8.0;    //!< front-end bubble per L1I miss
    double btbResteerPenalty = 3.0; //!< decode resteer per BTB miss
    double l2HitLatency = 10.0;     //!< L1 miss, L2 hit charge
    double l3HitLatency = 38.0;     //!< L2 miss, L3 hit charge
    double memLatency = 180.0;      //!< L3 miss charge
    double tlbMissPenalty = 30.0;   //!< page-walk charge
    double mlp = 3.0;               //!< overlap factor for data misses
    double frequencyGhz = 2.4;      //!< for GFLOPS accounting
    uint32_t cores = 6;             //!< per-socket cores (reporting)
};

/** Complete machine description. */
struct MachineConfig
{
    std::string name;
    CacheConfig l1i;
    CacheConfig l1d;
    CacheConfig l2;
    CacheConfig l3;
    bool hasL3 = true;
    TlbConfig itlb;
    TlbConfig dtlb;
    BranchConfig branch;
    PrefetcherConfig prefetch;
    CoreParams core;
};

/** The paper's testbed: Intel Xeon E5645 (Westmere-EP). */
MachineConfig xeonE5645();

/** Intel Atom D510: in-order, simple branch prediction. */
MachineConfig atomD510();

/**
 * The MARSSx86 stand-in for Section 5.4: Atom-like in-order pipeline,
 * 8-way L1 caches of `l1_kb` kilobytes with 64-byte lines and a shared
 * 8-way L2.
 */
MachineConfig atomInOrderSim(uint32_t l1_kb);

/**
 * Parse a machine selector: "xeon", "atom" or "sim<KB>" with KB a
 * decimal in 1..2^30 (atomInOrderSim(KB)).
 * @return false when the name matches nothing (`out` untouched).
 */
bool parseMachine(const std::string &name, MachineConfig &out);

} // namespace wcrt

#endif // WCRT_SIM_MACHINE_HH
