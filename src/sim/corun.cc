#include "sim/corun.hh"

#include <vector>

#include "base/logging.hh"
#include "sim/cache.hh"

namespace wcrt {

double
CoRunLane::soloL3Mpki() const
{
    return instructions ? static_cast<double>(l3MissesSolo) /
                              (static_cast<double>(instructions) / 1e3)
                        : 0.0;
}

double
CoRunLane::sharedL3Mpki() const
{
    return instructions
               ? static_cast<double>(l3MissesShared) /
                     (static_cast<double>(instructions) / 1e3)
               : 0.0;
}

double
CoRunLane::degradation() const
{
    double solo = soloL3Mpki();
    return solo > 0.0 ? sharedL3Mpki() / solo : 1.0;
}

namespace {

/**
 * One lane's private hierarchy; forwards L2 misses to a shared L3.
 * The lane is the sink of its own reader copy: step() decodes the
 * next chunk into `chunk` when the current one is used up.
 */
struct Lane : TraceSink
{
    Lane(const MachineConfig &m, const TraceReader &trace,
         uint64_t address_offset)
        : l1i(m.l1i), l1d(m.l1d), l2(m.l2), reader(trace),
          offset(address_offset)
    {
    }

    Cache l1i, l1d, l2;
    TraceReader reader;
    uint64_t offset;  //!< distinct processes live at distinct addresses
    std::vector<MicroOp> chunk;  //!< the decoded chunk being stepped
    size_t cursor = 0;           //!< next op of `chunk`
    uint64_t nextChunk = 0;
    uint64_t stepped = 0;

    void consume(const MicroOp &op) override { chunk.push_back(op); }

    bool done() const { return stepped == reader.opCount(); }

    /**
     * Process the next op; addresses missing every private level are
     * forwarded to `l3`, counting into `miss_counter`.
     */
    void
    step(Cache &l3, uint64_t &miss_counter, uint64_t lane_tag,
         std::vector<uint8_t> *owner_map, uint64_t &snoops)
    {
        while (cursor == chunk.size()) {
            chunk.clear();
            cursor = 0;
            reader.replayChunks(*this, nextChunk, nextChunk + 1);
            ++nextChunk;
        }
        const MicroOp &op = chunk[cursor++];
        ++stepped;
        uint64_t pc = op.pc + offset;
        uint64_t mem = op.memAddr + offset;
        auto to_l3 = [&](uint64_t addr) {
            bool hit = l3.access(addr);
            if (owner_map) {
                // Track which lane last touched each L3 frame slot; a
                // fill into a slot the other lane held models the
                // coherence/snoop traffic contention creates.
                size_t slot = (addr >> 6) % owner_map->size();
                if (!hit && (*owner_map)[slot] ==
                                static_cast<uint8_t>(3 - lane_tag))
                    ++snoops;
                (*owner_map)[slot] = static_cast<uint8_t>(lane_tag);
            }
            if (!hit)
                ++miss_counter;
        };
        if (!l1i.access(pc) && !l2.access(pc))
            to_l3(pc);
        if (op.memSize > 0 && !l1d.access(mem) && !l2.access(mem))
            to_l3(mem);
    }
};

/** Replay one trace alone through private levels + its own L3. */
void
soloPass(const MachineConfig &machine, const TraceReader &trace,
         CoRunLane &lane)
{
    Lane solo(machine, trace, 0);
    Cache l3(machine.l3);
    uint64_t misses = 0;
    uint64_t snoops = 0;
    while (!solo.done())
        solo.step(l3, misses, 1, nullptr, snoops);
    lane.instructions = trace.opCount();
    lane.l3MissesSolo = misses;
    lane.l2Misses = l3.accesses();
}

} // namespace

CoRunResult
coRun(const MachineConfig &machine, const TraceReader &a,
      const TraceReader &b)
{
    if (a.opCount() == 0 || b.opCount() == 0)
        wcrt_fatal("co-run needs two non-empty traces");

    CoRunResult result;
    soloPass(machine, a, result.a);
    soloPass(machine, b, result.b);

    // Shared pass: interleave proportionally so both lanes finish
    // together (they time-share the socket).
    // Two processes: disjoint physical address spaces.
    Lane lane_a(machine, a, 0);
    Lane lane_b(machine, b, 1ull << 44);
    Cache shared_l3(machine.l3);
    std::vector<uint8_t> owner(machine.l3.sizeBytes / 64, 0);
    uint64_t snoops = 0;

    double ratio = static_cast<double>(a.opCount()) /
                   static_cast<double>(b.opCount());
    double credit_a = 0.0;
    while (!lane_a.done() || !lane_b.done()) {
        credit_a += ratio;
        while (credit_a >= 1.0 && !lane_a.done()) {
            credit_a -= 1.0;
            lane_a.step(shared_l3, result.a.l3MissesShared, 1, &owner,
                        snoops);
        }
        if (!lane_b.done())
            lane_b.step(shared_l3, result.b.l3MissesShared, 2, &owner,
                        snoops);
        if (credit_a < 1.0 && !lane_a.done() && lane_b.done()) {
            // B finished; drain A.
            lane_a.step(shared_l3, result.a.l3MissesShared, 1, &owner,
                        snoops);
        }
    }
    result.snoopHits = snoops;
    return result;
}

} // namespace wcrt
