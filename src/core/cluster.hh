/**
 * @file
 * Shared-nothing cluster model — the paper's 5-node deployment.
 *
 * The paper's Section 1 frames big data systems as shared-nothing
 * partitioned parallelism: data is split across nodes, each node runs
 * the same stack over its shard, and nodes exchange only shuffle
 * traffic. The micro-architectural metrics the paper reports are
 * per-node (that is why single-node simulation reproduces them); what
 * the cluster adds is wall-clock behaviour: per-node compute shrinks
 * with the shard while shuffle traffic crosses the interconnect.
 *
 * profileOnCluster() runs one stack instance per node over a 1/N
 * shard (independent seeds model the partition), derives each node's
 * wall time from the sysmon model, charges the cross-node portion of
 * the shuffle to the network, and reports the cluster's wall time next
 * to the per-node micro-architecture (which should be
 * shard-invariant). Node 0 always gets seed 7, so a one-node run is the
 * whole job on one node: scale-out speedup is its wallSeconds divided
 * by an N-node run's.
 */

#ifndef WCRT_CORE_CLUSTER_HH
#define WCRT_CORE_CLUSTER_HH

#include <functional>
#include <vector>

#include "core/profiler.hh"

namespace wcrt {

/** Cluster description. */
struct ClusterConfig
{
    uint32_t nodes = 5;           //!< the paper's deployment size
    NodeModel node;               //!< per-node throughput model
    double shuffleCrossFraction = 0.8;  //!< shuffle share leaving a node
};

/** Result of one cluster run. */
struct ClusterRun
{
    uint32_t nodes = 0;
    std::vector<WorkloadRun> perNode;   //!< one profile per node

    double wallSeconds = 0.0;           //!< slowest node + exchange
    double networkSeconds = 0.0;        //!< cross-node shuffle time

    /** Average of a per-node metric (micro-arch is shard-invariant). */
    double averageIpc() const;
    double averageL1iMpki() const;
};

/**
 * Run a workload across a simulated shared-nothing cluster: exactly
 * `cluster.nodes` live profiles, node i on seed 7 + 101 i.
 *
 * @param make Factory producing the workload for a given (shard
 *        scale, shard seed); the registry entries' `make` adapted via
 *        a seed-aware wrapper fits here.
 * @param machine Per-node machine model.
 * @param scale Total dataset scale (each node receives scale/nodes).
 * @param cluster Cluster description.
 */
ClusterRun profileOnCluster(
    const std::function<WorkloadPtr(double scale, uint64_t seed)> &make,
    const MachineConfig &machine, double scale,
    const ClusterConfig &cluster = {});

} // namespace wcrt

#endif // WCRT_CORE_CLUSTER_HH
