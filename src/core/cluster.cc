#include "core/cluster.hh"

#include <algorithm>

#include "base/logging.hh"
#include "base/summary.hh"

namespace wcrt {

double
ClusterRun::averageIpc() const
{
    Summary s;
    for (const auto &r : perNode)
        s.add(r.report.ipc);
    return s.mean();
}

double
ClusterRun::averageL1iMpki() const
{
    Summary s;
    for (const auto &r : perNode)
        s.add(r.report.l1iMpki);
    return s.mean();
}

ClusterRun
profileOnCluster(
    const std::function<WorkloadPtr(double scale, uint64_t seed)> &make,
    const MachineConfig &machine, double scale,
    const ClusterConfig &cluster)
{
    if (cluster.nodes == 0)
        wcrt_fatal("cluster needs at least one node");

    ClusterRun run;
    run.nodes = cluster.nodes;
    double shard = scale / cluster.nodes;

    double slowest = 0.0;
    double cross_bytes = 0.0;
    for (uint32_t node = 0; node < cluster.nodes; ++node) {
        WorkloadPtr w = make(shard, 7 + node * 101);
        WorkloadRun r = profileWorkload(*w, machine, cluster.node);
        slowest = std::max(slowest, r.sysProfile.wallSeconds);
        if (cluster.nodes > 1) {
            cross_bytes += static_cast<double>(r.io.networkBytes) *
                           cluster.shuffleCrossFraction;
        }
        run.perNode.push_back(std::move(r));
    }

    // The exchange crosses the interconnect; each node's NIC carries
    // its share concurrently.
    run.networkSeconds = cross_bytes /
                         (cluster.node.networkMBps * 1e6) /
                         cluster.nodes;
    run.wallSeconds = slowest + run.networkSeconds;
    return run;
}

} // namespace wcrt
