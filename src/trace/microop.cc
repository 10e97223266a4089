/**
 * @file
 * Out-of-line pieces of the micro-op transport: the AoS convenience
 * packer.
 */

#include "trace/microop.hh"

#include <algorithm>

namespace wcrt {

void
TraceSink::consumeOps(const MicroOp *ops, size_t count)
{
    // One scratch block per thread, allocated once and reused, so the
    // compatibility path stops churning the allocator when replay
    // loops call it per run. Capped at the default block size: longer
    // runs arrive as several batches, which the partitioning contract
    // makes equivalent.
    static thread_local OpBlock scratch(defaultOpBlockOps);
    for (size_t i = 0; i < count; i += scratch.capacity()) {
        size_t n = std::min(scratch.capacity(), count - i);
        scratch.clear();
        for (size_t j = 0; j < n; ++j)
            scratch.push(ops[i + j]);
        consumeBatch(scratch.view());
    }
}

} // namespace wcrt
