#include "sim/machine.hh"

#include "base/strings.hh"

namespace wcrt {

MachineConfig
xeonE5645()
{
    MachineConfig m;
    m.name = "Xeon E5645";

    m.l1i = {"L1I", 32 * 1024, 4, 64};
    m.l1d = {"L1D", 32 * 1024, 8, 64};
    m.l2 = {"L2", 256 * 1024, 8, 64};
    m.l3 = {"L3", 12 * 1024 * 1024, 16, 64};
    m.hasL3 = true;

    m.itlb = {"ITLB", 128, 4, 4096};
    m.dtlb = {"DTLB", 64, 4, 4096};

    m.branch = xeonE5645Branch();

    m.prefetch.enabled = true;
    m.prefetch.streams = 16;
    m.prefetch.degree = 4;

    m.core.baseCpi = 0.42;        // 4-wide OoO Westmere, issue-bound
    m.core.fpExtraCpi = 0.55;
    m.core.l1iMissPenalty = 13.0;
    m.core.l2HitLatency = 10.0;
    m.core.l3HitLatency = 38.0;
    m.core.memLatency = 180.0;
    m.core.tlbMissPenalty = 30.0;
    m.core.mlp = 3.0;
    m.core.frequencyGhz = 2.4;
    m.core.cores = 6;
    return m;
}

MachineConfig
atomD510()
{
    MachineConfig m;
    m.name = "Atom D510";

    m.l1i = {"L1I", 32 * 1024, 8, 64};
    m.l1d = {"L1D", 24 * 1024, 6, 64};
    m.l2 = {"L2", 512 * 1024, 8, 64};
    m.hasL3 = false;
    m.l3 = {"L3-none", 64, 1, 64};  // placeholder geometry; unused

    m.itlb = {"ITLB", 32, 4, 4096};
    m.dtlb = {"DTLB", 32, 4, 4096};

    m.branch = atomD510Branch();

    m.prefetch.enabled = true;
    m.prefetch.streams = 8;
    m.prefetch.degree = 2;

    m.core.baseCpi = 0.70;        // 2-wide in-order
    m.core.fpExtraCpi = 2.0;
    m.core.l1iMissPenalty = 10.0;
    m.core.l2HitLatency = 15.0;
    m.core.l3HitLatency = 0.0;    // no L3
    m.core.memLatency = 150.0;
    m.core.tlbMissPenalty = 30.0;
    m.core.mlp = 1.0;             // in-order: no miss overlap
    m.core.frequencyGhz = 1.66;
    m.core.cores = 2;
    return m;
}

MachineConfig
atomInOrderSim(uint32_t l1_kb)
{
    MachineConfig m = atomD510();
    m.name = "Atom-like in-order (MARSSx86 stand-in)";
    m.l1i = {"L1I", static_cast<uint64_t>(l1_kb) * 1024, 8, 64};
    m.l1d = {"L1D", static_cast<uint64_t>(l1_kb) * 1024, 8, 64};
    m.l2 = {"L2", 2 * 1024 * 1024, 8, 64};
    return m;
}

bool
parseMachine(const std::string &name, MachineConfig &out)
{
    if (name == "xeon") {
        out = xeonE5645();
        return true;
    }
    if (name == "atom") {
        out = atomD510();
        return true;
    }
    uint64_t kb = 0;
    if (name.rfind("sim", 0) != 0 ||
        !parseDecimalCount(name.substr(3), 1, 1u << 30, kb))
        return false;
    out = atomInOrderSim(static_cast<uint32_t>(kb));
    return true;
}

} // namespace wcrt
