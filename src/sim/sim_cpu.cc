#include "sim/sim_cpu.hh"

#include <algorithm>

#include "base/logging.hh"

namespace wcrt {

SimCpu::SimCpu(const MachineConfig &config)
    : cfg(config),
      l1iCache(config.l1i),
      l1dCache(config.l1d),
      l2Cache(config.l2),
      l3Cache(config.l3),
      itlbUnit(config.itlb),
      dtlbUnit(config.dtlb),
      branchUnit(config.branch),
      prefetchUnit(config.prefetch)
{
    if (cfg.l1i.lineBytes != 64 || cfg.itlb.pageBytes != 4096 ||
        cfg.dtlb.pageBytes != 4096)
        wcrt_fatal("machine '", cfg.name, "': SimCpu needs 64-byte L1I "
                   "lines and 4 KB ITLB/DTLB pages");
}

void
SimCpu::consume(const MicroOp &op)
{
    mixCounter.consume(op);

    // Instruction side: every op fetches through ITLB and L1I.
    if (!itlbUnit.access(op.pc))
        ++itlbMisses;
    if (!l1iCache.access(op.pc)) {
        ++l1iMissCount;
        codeLines.insert(op.pc >> 6);
        if (!l2Cache.access(op.pc)) {
            ++l2MissesFromL1i;
            if (!cfg.hasL3 || !l3Cache.access(op.pc))
                ++l3MissesTotal;
        }
    }

    // Data side.
    if (op.memSize > 0) {
        if (!dtlbUnit.access(op.memAddr)) {
            ++dtlbMisses;
            dataPages.insert(op.memAddr >> 12);
        }
        // Hardware stream prefetch fills lines ahead of confirmed
        // sequential streams so streamed data hits on demand.
        auto advice = prefetchUnit.observe(op.memAddr);
        for (uint32_t p = 0; p < advice.prefetchLines; ++p) {
            uint64_t line_addr = advice.prefetchFrom +
                                 uint64_t{p} * cfg.prefetch.lineBytes;
            l1dCache.prefetch(line_addr);
            l2Cache.prefetch(line_addr);
            if (cfg.hasL3)
                l3Cache.prefetch(line_addr);
        }
        if (!l1dCache.access(op.memAddr)) {
            ++l1dMissCount;
            if (!l2Cache.access(op.memAddr)) {
                ++l2MissesFromL1d;
                if (!cfg.hasL3 || !l3Cache.access(op.memAddr))
                    ++l3MissesTotal;
            }
        }
    }

    // Control side.
    if (isControl(op.kind))
        branchUnit.predict(op);
}

void
SimCpu::consumeBatch(const OpBlockView &ops)
{
    // consume()'s event sequence over the block's field arrays: counts
    // and the mix tally stay in locals until the block ends, and only
    // control ops are materialized. Three walks are skipped, each exact
    // because only one side of the core touches the structure: a fetch
    // from the previous fetch's page or line re-hits the ITLB or L1I,
    // and a data access to the previous data access's page re-hits the
    // DTLB. Nothing in between can have displaced that entry from MRU
    // of its set, so skipping the walk leaves LRU state unchanged; only
    // the hit is credited (Cache::creditRepeatHits). Footprint inserts
    // happen only on L1I and DTLB misses: neither takes prefetch fills,
    // so a hit proves a demand access already inserted the line or
    // page. The constructor pins the 64 B lines and 4 KB pages this
    // needs.
    const bool has_l3 = cfg.hasL3;
    std::array<uint64_t, numOpKinds> kind_tally{};
    uint64_t int_addr = 0, fp_addr = 0, compute_int = 0;
    uint64_t itlb_miss = 0, dtlb_miss = 0;
    uint64_t l1i_miss = 0, l1d_miss = 0;
    uint64_t l2_from_l1i = 0, l2_from_l1d = 0, l3_miss = 0;
    uint64_t itlb_repeats = 0, l1i_repeats = 0, dtlb_repeats = 0;
    uint64_t last_code_line = ~0ull;
    uint64_t last_code_page = ~0ull;
    uint64_t last_data_page = ~0ull;

    const size_t count = ops.count;
    for (size_t i = 0; i < count; ++i) {
        const OpKind kind = ops.kinds[i];
        const uint64_t pc = ops.pcs[i];
        ++kind_tally[static_cast<size_t>(kind)];

        uint64_t code_page = pc >> 12;
        if (code_page == last_code_page) {
            ++itlb_repeats;
        } else {
            if (!itlbUnit.access(pc))
                ++itlb_miss;
            last_code_page = code_page;
        }
        uint64_t code_line = pc >> 6;
        if (code_line == last_code_line) {
            ++l1i_repeats;
        } else {
            last_code_line = code_line;
            if (!l1iCache.access(pc)) {
                ++l1i_miss;
                codeLines.insert(code_line);
                if (!l2Cache.access(pc)) {
                    ++l2_from_l1i;
                    if (!has_l3 || !l3Cache.access(pc))
                        ++l3_miss;
                }
            }
        }

        if (ops.memSizes[i] > 0) {
            const uint64_t mem_addr = ops.memAddrs[i];
            uint64_t data_page = mem_addr >> 12;
            if (data_page == last_data_page) {
                ++dtlb_repeats;
            } else {
                if (!dtlbUnit.access(mem_addr)) {
                    ++dtlb_miss;
                    dataPages.insert(data_page);
                }
                last_data_page = data_page;
            }
            auto advice = prefetchUnit.observe(mem_addr);
            for (uint32_t p = 0; p < advice.prefetchLines; ++p) {
                uint64_t line_addr = advice.prefetchFrom +
                                     uint64_t{p} * cfg.prefetch.lineBytes;
                l1dCache.prefetch(line_addr);
                l2Cache.prefetch(line_addr);
                if (has_l3)
                    l3Cache.prefetch(line_addr);
            }
            if (!l1dCache.access(mem_addr)) {
                ++l1d_miss;
                if (!l2Cache.access(mem_addr)) {
                    ++l2_from_l1d;
                    if (!has_l3 || !l3Cache.access(mem_addr))
                        ++l3_miss;
                }
            }
        }

        // Branchless purpose tally, keyed on kind exactly like
        // consume(): zero contribution for anything but int ops.
        uint64_t is_alu = kind == OpKind::IntAlu ? 1u : 0u;
        uint64_t ia = is_alu &
                      (ops.purposes[i] == IntPurpose::IntAddress ? 1u : 0u);
        uint64_t fa = is_alu &
                      (ops.purposes[i] == IntPurpose::FpAddress ? 1u : 0u);
        int_addr += ia;
        fp_addr += fa;
        compute_int += (isInt(kind) ? 1u : 0u) - ia - fa;

        if (isControl(kind))
            branchUnit.predict(ops[i]);
    }

    mixCounter.addTallies(kind_tally, int_addr, fp_addr, compute_int,
                          count);
    itlbUnit.creditRepeatHits(itlb_repeats);
    dtlbUnit.creditRepeatHits(dtlb_repeats);
    l1iCache.creditRepeatHits(l1i_repeats);
    itlbMisses += itlb_miss;
    dtlbMisses += dtlb_miss;
    l1iMissCount += l1i_miss;
    l1dMissCount += l1d_miss;
    l2MissesFromL1i += l2_from_l1i;
    l2MissesFromL1d += l2_from_l1d;
    l3MissesTotal += l3_miss;
}

CpuReport
SimCpu::report() const
{
    CpuReport r;
    r.machine = cfg.name;
    uint64_t insts = mixCounter.total();
    r.instructions = insts;
    if (insts == 0)
        return r;

    double kilo = static_cast<double>(insts) / 1000.0;

    // Instruction mix.
    r.loadRatio = mixCounter.loadRatio();
    r.storeRatio = mixCounter.storeRatio();
    r.branchRatio = mixCounter.branchRatio();
    r.integerRatio = mixCounter.integerRatio();
    r.fpRatio = mixCounter.fpRatio();
    r.otherRatio = mixCounter.otherRatio();
    r.intAddressShare = mixCounter.intAddressShare();
    r.fpAddressShare = mixCounter.fpAddressShare();
    r.otherIntShare = mixCounter.otherIntShare();
    r.dataMovementRatio = mixCounter.dataMovementRatio();
    r.dataMovementWithBranchRatio =
        mixCounter.dataMovementWithBranchRatio();

    // Caches.
    r.l1iMpki = static_cast<double>(l1iMissCount) / kilo;
    r.l1iMissRatio = l1iCache.missRatio();
    r.l1dMpki = static_cast<double>(l1dMissCount) / kilo;
    r.l1dMissRatio = l1dCache.missRatio();
    uint64_t l2_misses = l2MissesFromL1i + l2MissesFromL1d;
    r.l2Mpki = static_cast<double>(l2_misses) / kilo;
    r.l2MissRatio = l2Cache.missRatio();
    r.l3Mpki = static_cast<double>(l3MissesTotal) / kilo;
    r.l3MissRatio = cfg.hasL3 ? l3Cache.missRatio() : 1.0;

    // TLBs.
    r.itlbMpki = static_cast<double>(itlbMisses) / kilo;
    r.dtlbMpki = static_cast<double>(dtlbMisses) / kilo;

    // Branches.
    const BranchStats &bs = branchUnit.stats();
    r.branchMispredictRatio = bs.mispredictRatio();
    uint64_t branches = mixCounter.count(OpKind::BranchCond) +
                        mixCounter.count(OpKind::BranchUncond) +
                        mixCounter.count(OpKind::BranchIndirect);
    r.branchTakenRatio =
        branches ? static_cast<double>(bs.taken) /
                       static_cast<double>(bs.total() +
                                           mixCounter.count(
                                               OpKind::BranchUncond))
                 : 0.0;
    r.btbMissPki = static_cast<double>(bs.btbMisses) / kilo;
    r.branchStats = bs;

    // Pipeline: additive cycle accounting.
    const CoreParams &core = cfg.core;
    uint64_t fp_dyn = mixCounter.count(OpKind::FpAlu) +
                      mixCounter.count(OpKind::FpMul) +
                      mixCounter.count(OpKind::FpDiv);
    uint64_t div_dyn = mixCounter.count(OpKind::FpDiv) +
                       mixCounter.count(OpKind::IntDiv);
    double base_cycles = static_cast<double>(insts) * core.baseCpi +
                         static_cast<double>(fp_dyn) * core.fpExtraCpi +
                         static_cast<double>(div_dyn) * core.divExtraCpi;
    double mispredict_cycles = static_cast<double>(bs.mispredicts()) *
                               cfg.branch.mispredictPenalty;
    double l1i_cycles =
        static_cast<double>(l1iMissCount) * core.l1iMissPenalty;
    double itlb_cycles =
        static_cast<double>(itlbMisses) * core.tlbMissPenalty;
    double btb_cycles =
        static_cast<double>(bs.btbMisses) * core.btbResteerPenalty;
    double frontend_cycles =
        mispredict_cycles + l1i_cycles + itlb_cycles + btb_cycles;

    double l2_hit_data =
        static_cast<double>(l1dMissCount -
                            std::min(l1dMissCount, l2MissesFromL1d)) *
        core.l2HitLatency;
    double l3_hit_data = 0.0;
    double mem_data = 0.0;
    if (cfg.hasL3) {
        uint64_t l3_data_misses =
            std::min(l3MissesTotal, l2MissesFromL1d);
        l3_hit_data = static_cast<double>(l2MissesFromL1d -
                                          l3_data_misses) *
                      core.l3HitLatency;
        mem_data = static_cast<double>(l3_data_misses) * core.memLatency;
    } else {
        mem_data = static_cast<double>(l2MissesFromL1d) * core.memLatency;
    }
    double dtlb_cycles =
        static_cast<double>(dtlbMisses) * core.tlbMissPenalty;
    double backend_cycles =
        (l2_hit_data + l3_hit_data + mem_data) / std::max(core.mlp, 1.0) +
        dtlb_cycles;

    r.cycles = base_cycles + frontend_cycles + backend_cycles;
    r.ipc = static_cast<double>(insts) / r.cycles;
    r.cpi = 1.0 / r.ipc;
    r.frontendStallRatio = frontend_cycles / r.cycles;
    r.backendStallRatio = backend_cycles / r.cycles;
    uint64_t all_ctrl = branches + mixCounter.count(OpKind::Call) +
                        mixCounter.count(OpKind::CallIndirect) +
                        mixCounter.count(OpKind::Return);
    r.basicBlockSize =
        all_ctrl ? static_cast<double>(insts) /
                       static_cast<double>(all_ctrl)
                 : static_cast<double>(insts);

    // Off-core and locality.
    uint64_t llc_requests =
        cfg.hasL3 ? l3Cache.accesses() : l2Cache.accesses();
    r.offcoreRequestPki = static_cast<double>(llc_requests) / kilo;
    // Snoops: shared-LLC fills that another core may service; modelled
    // as a fixed fraction of LLC hits in lieu of a multi-core model.
    uint64_t llc_hits = llc_requests >= l3MissesTotal
                            ? llc_requests - l3MissesTotal
                            : 0;
    r.snoopResponsePki =
        0.1 * static_cast<double>(llc_hits) / kilo;
    r.memoryBytesPki = static_cast<double>(l3MissesTotal) * 64.0 / kilo;
    r.codeFootprintKb =
        static_cast<double>(codeLines.size()) * 64.0 / 1024.0;
    r.dataFootprintKb =
        static_cast<double>(dataPages.size()) * 4096.0 / 1024.0;

    // Intensity.
    uint64_t fp_ops = mixCounter.count(OpKind::FpAlu) +
                      mixCounter.count(OpKind::FpMul) +
                      mixCounter.count(OpKind::FpDiv);
    uint64_t int_ops = mixCounter.count(OpKind::IntAlu) +
                       mixCounter.count(OpKind::IntMul) +
                       mixCounter.count(OpKind::IntDiv);
    double dram_bytes = std::max(
        static_cast<double>(l3MissesTotal) * 64.0, 1.0);
    r.fpPki = static_cast<double>(fp_ops) / kilo;
    r.operationIntensity = static_cast<double>(fp_ops) / dram_bytes;
    r.integerIntensity = static_cast<double>(int_ops) / dram_bytes;
    r.mlp = core.mlp;
    // Achieved GFLOPS = fp ops per cycle * frequency.
    r.gflops = static_cast<double>(fp_ops) / r.cycles *
               core.frequencyGhz;
    return r;
}

} // namespace wcrt
