/**
 * @file
 * Tests for the shared-nothing cluster model.
 */

#include <gtest/gtest.h>

#include "core/cluster.hh"
#include "workloads/text_workloads.hh"

namespace wcrt {
namespace {

std::function<WorkloadPtr(double, uint64_t)>
wordcountFactory()
{
    return [](double shard, uint64_t seed) -> WorkloadPtr {
        return std::make_unique<TextWorkload>(TextAlgorithm::WordCount,
                                              StackKind::Hadoop, shard,
                                              seed);
    };
}

TEST(Cluster, SingleNodeSpeedupIsUnity)
{
    // A one-node cluster runs the whole job on seed 7, so its wall
    // time is the single-node profile's: the speedup reference.
    ClusterConfig cfg;
    cfg.nodes = 1;
    ClusterRun run =
        profileOnCluster(wordcountFactory(), xeonE5645(), 0.3, cfg);
    WorkloadPtr whole = wordcountFactory()(0.3, 7);
    WorkloadRun single = profileWorkload(*whole, xeonE5645(), cfg.node);
    EXPECT_EQ(run.wallSeconds, single.sysProfile.wallSeconds);
    EXPECT_EQ(run.networkSeconds, 0.0);
    EXPECT_EQ(run.perNode.size(), 1u);
}

TEST(Cluster, ScaleOutSpeedsUpSublinearly)
{
    ClusterConfig one;
    one.nodes = 1;
    ClusterConfig cfg;
    cfg.nodes = 4;
    ClusterRun base =
        profileOnCluster(wordcountFactory(), xeonE5645(), 0.4, one);
    ClusterRun run =
        profileOnCluster(wordcountFactory(), xeonE5645(), 0.4, cfg);
    double speedup = base.wallSeconds / run.wallSeconds;
    EXPECT_EQ(run.perNode.size(), 4u);
    EXPECT_GT(speedup, 1.5);
    EXPECT_LT(speedup, 4.5);
    EXPECT_GT(run.networkSeconds, 0.0);
}

TEST(Cluster, PerNodeMicroArchIsShardInvariant)
{
    ClusterConfig one;
    one.nodes = 1;
    ClusterConfig four;
    four.nodes = 4;
    ClusterRun a =
        profileOnCluster(wordcountFactory(), xeonE5645(), 0.4, one);
    ClusterRun b =
        profileOnCluster(wordcountFactory(), xeonE5645(), 0.4, four);
    // The paper measures per-node counters; sharding must not change
    // the class of the numbers.
    EXPECT_NEAR(a.averageIpc(), b.averageIpc(), 0.3);
    EXPECT_NEAR(a.averageL1iMpki(), b.averageL1iMpki(),
                0.5 * a.averageL1iMpki() + 2.0);
}

TEST(Cluster, NodesDifferButAgree)
{
    ClusterConfig cfg;
    cfg.nodes = 3;
    unsigned made = 0;
    auto counting = [&](double shard, uint64_t seed) {
        ++made;
        return wordcountFactory()(shard, seed);
    };
    ClusterRun run = profileOnCluster(counting, xeonE5645(), 0.45, cfg);
    // One profile per node, no more.
    EXPECT_EQ(made, 3u);
    // Different seeds => different shards => slightly different
    // instruction counts, but the same behaviour class.
    EXPECT_NE(run.perNode[0].report.instructions,
              run.perNode[1].report.instructions);
    for (const auto &r : run.perNode) {
        EXPECT_GT(r.report.ipc, 0.5);
        EXPECT_LT(r.report.ipc, 2.0);
    }
}

} // namespace
} // namespace wcrt
