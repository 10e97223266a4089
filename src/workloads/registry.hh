/**
 * @file
 * The workload catalog: Table 2's seventeen representative workloads,
 * the six MPI contrast implementations of Section 5.5, and the full
 * 77-entry BigDataBench-style roster the reduction study starts from.
 *
 * Roster composition (77 = 24 + 12 + 27 + 12 + 2):
 *  - 24 text workloads: {WordCount, Grep, Sort, Index}
 *    x {Hadoop, Spark, MPI} x {Wikipedia, Amazon};
 *  - 12 half-input text variants: {WordCount, Sort}
 *    x {Hadoop, Spark, MPI} x {Wikipedia, Amazon};
 *  - 27 queries: {Select, Project, OrderBy, Difference, Aggregation,
 *    Join, Q3, Q8, Q10} x {Hive, Shark, Impala};
 *  - 12 ML/graph: {KMeans, PageRank, NaiveBayes, ConnComp}
 *    x {Hadoop, Spark, MPI};
 *  - 2 H-Read service variants (full / half store).
 *
 * Name lookup also covers the baseline suites (baselines/), so every
 * workload a figure, scenario or tool names resolves in one place.
 */

#ifndef WCRT_WORKLOADS_REGISTRY_HH
#define WCRT_WORKLOADS_REGISTRY_HH

#include <functional>
#include <string>
#include <vector>

#include "workloads/workload.hh"

namespace wcrt {

/** A named workload constructor. */
struct WorkloadEntry
{
    std::string name;             //!< unique roster name
    int table2Id = 0;             //!< 1..17 when representative, else 0
    int represents = 0;           //!< Table-2 cluster size (paper's "(n)")
    std::function<WorkloadPtr(double scale)> make;
};

/** The seventeen representative workloads in Table-2 order. */
const std::vector<WorkloadEntry> &representativeWorkloads();

/** The six MPI implementations added in Section 5.5. */
const std::vector<WorkloadEntry> &mpiWorkloads();

/** The full 77-workload roster for the reduction study. */
const std::vector<WorkloadEntry> &fullRoster();

/**
 * Resolve a workload name against every roster: representative, MPI,
 * full, then the baseline suites. Returns nullptr when unknown: the
 * form for names a user typed, which must fail cleanly.
 */
const WorkloadEntry *lookupWorkload(const std::string &name);

/**
 * lookupWorkload() for names written in code; panics when missing,
 * since an unknown name there is a toolkit bug.
 */
const WorkloadEntry &findWorkload(const std::string &name);

} // namespace wcrt

#endif // WCRT_WORKLOADS_REGISTRY_HH
