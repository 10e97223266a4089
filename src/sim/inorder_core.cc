#include "sim/inorder_core.hh"

#include <algorithm>

namespace wcrt {

InOrderCore::InOrderCore(const MachineConfig &machine,
                         const InOrderParams &params)
    : cfg(machine),
      prm(params),
      l1i(machine.l1i),
      l1d(machine.l1d),
      l2(machine.l2),
      l3(machine.l3),
      itlb(machine.itlb),
      dtlb(machine.dtlb),
      branches(machine.branch)
{
}

uint32_t
InOrderCore::dataLatency(uint64_t addr)
{
    uint32_t latency = prm.l1dHitLatency;
    if (!dtlb.access(addr))
        latency += prm.tlbWalk;
    if (!l1d.access(addr)) {
        if (l2.access(addr)) {
            latency = prm.l2HitLatency;
        } else if (cfg.hasL3 && l3.access(addr)) {
            latency = prm.l3HitLatency;
        } else {
            latency = prm.memLatency;
        }
    }
    return latency;
}

double
InOrderCore::fetchCharge(uint64_t pc)
{
    double charge = 0.0;
    if (!itlb.access(pc))
        charge += prm.tlbWalk;
    if (!l1i.access(pc)) {
        charge += prm.l1iMissBubble;
        if (!l2.access(pc)) {
            charge += prm.l2HitLatency;
            if (cfg.hasL3 && !l3.access(pc))
                charge += prm.l3HitLatency;
        }
    }
    return charge;
}

void
InOrderCore::consume(const MicroOp &op)
{
    mixCounter.consume(op);
    step(op);
}

void
InOrderCore::consumeBatch(const OpBlockView &ops)
{
    mixCounter.consumeBatch(ops);
    for (size_t i = 0; i < ops.count; ++i)
        step(ops[i]);
}

void
InOrderCore::step(const MicroOp &op)
{
    // Front end.
    double bubble = fetchCharge(op.pc);
    if (bubble > 0.0) {
        cycle += bubble;
        frontendStalls += bubble;
        slotInCycle = 0;
    }

    // Issue slot: `issueWidth` ops share a cycle.
    if (++slotInCycle >= prm.issueWidth) {
        slotInCycle = 0;
        cycle += 1.0;
    }

    // Load-use interlock: an op in the shadow of an outstanding load
    // stalls until the data arrives.
    if (sinceLoad <= prm.loadUseWindow && cycle < loadReadyCycle) {
        loadUseStalls += loadReadyCycle - cycle;
        cycle = loadReadyCycle;
    }
    if (sinceLoad != UINT32_MAX)
        ++sinceLoad;

    // Execute / memory.
    switch (op.kind) {
      case OpKind::Load: {
        uint32_t latency = dataLatency(op.memAddr);
        loadReadyCycle = cycle + latency;
        sinceLoad = 0;
        if (latency > prm.l2HitLatency) {
            // Long-latency fills stall an in-order machine outright.
            double stall =
                static_cast<double>(latency - prm.l2HitLatency);
            memoryStalls += stall;
            cycle += stall;
        }
        executeTotal += 1.0;
        break;
      }
      case OpKind::Store:
        // Buffered; charge the hierarchy for bandwidth, not time.
        (void)dataLatency(op.memAddr);
        executeTotal += 1.0;
        break;
      case OpKind::IntMul:
        executeTotal += prm.mulLatency - 1;
        cycle += (prm.mulLatency - 1) * 0.25;  // partially pipelined
        break;
      case OpKind::IntDiv:
        executeTotal += prm.divLatency - 1;
        cycle += prm.divLatency - 1;  // unpipelined
        break;
      case OpKind::FpAlu:
        cycle += (prm.fpAluLatency - 1) * 0.5;
        executeTotal += prm.fpAluLatency - 1;
        break;
      case OpKind::FpMul:
        cycle += (prm.fpMulLatency - 1) * 0.5;
        executeTotal += prm.fpMulLatency - 1;
        break;
      case OpKind::FpDiv:
        cycle += prm.fpDivLatency - 1;
        executeTotal += prm.fpDivLatency - 1;
        break;
      default:
        break;
    }

    // Control.
    if (isControl(op.kind)) {
        uint64_t mis_before = branches.stats().mispredicts();
        bool correct = branches.predict(op);
        if (!correct) {
            bool mispredicted =
                branches.stats().mispredicts() > mis_before;
            double flush =
                mispredicted
                    ? static_cast<double>(prm.mispredictFlush)
                    : static_cast<double>(prm.btbRefetch);
            cycle += flush;
            frontendStalls += flush;
            slotInCycle = 0;
        }
    }
}

InOrderReport
InOrderCore::report() const
{
    InOrderReport r;
    r.instructions = mixCounter.total();
    r.cycles = std::max(cycle, 1.0);
    r.ipc = static_cast<double>(r.instructions) / r.cycles;
    r.loadUseStallCycles = loadUseStalls;
    r.frontendStallCycles = frontendStalls;
    r.memoryStallCycles = memoryStalls;
    r.executeCycles = executeTotal;
    return r;
}

} // namespace wcrt
