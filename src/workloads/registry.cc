#include "workloads/registry.hh"

#include <map>
#include <memory>

#include "base/logging.hh"
#include "baselines/baselines.hh"
#include "workloads/ml_workloads.hh"
#include "workloads/query_workloads.hh"
#include "workloads/service_workloads.hh"
#include "workloads/text_workloads.hh"

namespace wcrt {

namespace {

WorkloadEntry
text(const std::string &name, int id, int represents, TextAlgorithm algo,
     StackKind stack, double factor = 1.0,
     CorpusChoice corpus = CorpusChoice::Wikipedia)
{
    return {name, id, represents, [=](double scale) -> WorkloadPtr {
                return std::make_unique<TextWorkload>(
                    algo, stack, scale * factor, 7, corpus);
            }};
}

WorkloadEntry
ml(const std::string &name, int id, int represents, MlAlgorithm algo,
   StackKind stack, double factor = 1.0)
{
    return {name, id, represents, [=](double scale) -> WorkloadPtr {
                return std::make_unique<MlWorkload>(algo, stack,
                                                    scale * factor);
            }};
}

WorkloadEntry
sql(const std::string &name, int id, int represents, QueryKind q,
    StackKind stack, double factor = 1.0)
{
    return {name, id, represents, [=](double scale) -> WorkloadPtr {
                return std::make_unique<QueryWorkload>(q, stack,
                                                       scale * factor);
            }};
}

WorkloadEntry
service(const std::string &name, int id, int represents,
        double factor = 1.0)
{
    return {name, id, represents, [=](double scale) -> WorkloadPtr {
                return std::make_unique<HBaseReadWorkload>(scale *
                                                           factor);
            }};
}

} // namespace

const std::vector<WorkloadEntry> &
representativeWorkloads()
{
    using TA = TextAlgorithm;
    using MA = MlAlgorithm;
    using QK = QueryKind;
    using SK = StackKind;
    static const std::vector<WorkloadEntry> entries = {
        service("H-Read", 1, 10),
        sql("H-Difference", 2, 9, QK::Difference, SK::Hive),
        sql("I-SelectQuery", 3, 9, QK::SelectQuery, SK::Impala),
        sql("H-TPC-DS-query3", 4, 9, QK::TpcdsQ3, SK::Hive),
        text("S-WordCount", 5, 8, TA::WordCount, SK::Spark),
        sql("I-OrderBy", 6, 7, QK::OrderBy, SK::Impala),
        text("H-Grep", 7, 7, TA::Grep, SK::Hadoop),
        sql("S-TPC-DS-query10", 8, 4, QK::TpcdsQ10, SK::Shark),
        sql("S-Project", 9, 4, QK::Project, SK::Shark),
        sql("S-OrderBy", 10, 3, QK::OrderBy, SK::Shark),
        ml("S-Kmeans", 11, 1, MA::KMeans, SK::Spark),
        sql("S-TPC-DS-query8", 12, 1, QK::TpcdsQ8, SK::Shark),
        ml("S-PageRank", 13, 1, MA::PageRank, SK::Spark),
        text("S-Grep", 14, 1, TA::Grep, SK::Spark),
        text("H-WordCount", 15, 1, TA::WordCount, SK::Hadoop),
        ml("H-NaiveBayes", 16, 1, MA::NaiveBayes, SK::Hadoop),
        text("S-Sort", 17, 1, TA::Sort, SK::Spark),
    };
    return entries;
}

const std::vector<WorkloadEntry> &
mpiWorkloads()
{
    using TA = TextAlgorithm;
    using MA = MlAlgorithm;
    using SK = StackKind;
    static const std::vector<WorkloadEntry> entries = {
        ml("M-Bayes", 0, 0, MA::NaiveBayes, SK::Mpi),
        ml("M-Kmeans", 0, 0, MA::KMeans, SK::Mpi),
        ml("M-PageRank", 0, 0, MA::PageRank, SK::Mpi),
        text("M-Grep", 0, 0, TA::Grep, SK::Mpi),
        text("M-WordCount", 0, 0, TA::WordCount, SK::Mpi),
        text("M-Sort", 0, 0, TA::Sort, SK::Mpi),
    };
    return entries;
}

const std::vector<WorkloadEntry> &
fullRoster()
{
    using TA = TextAlgorithm;
    using MA = MlAlgorithm;
    using QK = QueryKind;
    using SK = StackKind;

    static const std::vector<WorkloadEntry> entries = [] {
        std::vector<WorkloadEntry> v;

        // 24 text workloads: 4 operations x 3 stacks x 2 corpora.
        const std::pair<TA, const char *> algos[] = {
            {TA::WordCount, "WordCount"},
            {TA::Grep, "Grep"},
            {TA::Sort, "Sort"},
            {TA::InvertedIndex, "Index"},
        };
        const std::pair<SK, const char *> stacks[] = {
            {SK::Hadoop, "H"},
            {SK::Spark, "S"},
            {SK::Mpi, "M"},
        };
        const std::pair<CorpusChoice, const char *> corpora[] = {
            {CorpusChoice::Wikipedia, "wiki"},
            {CorpusChoice::AmazonReviews, "amazon"},
        };
        for (auto [algo, aname] : algos)
            for (auto [stack, sname] : stacks)
                for (auto [corpus, cname] : corpora)
                    v.push_back(text(std::string(sname) + "-" + aname +
                                         "@" + cname,
                                     0, 0, algo, stack, 1.0, corpus));

        // 12 half-input text variants (WordCount and Sort, the two
        // data-volume-sensitive operations).
        for (auto algo : {TA::WordCount, TA::Sort}) {
            const char *aname =
                algo == TA::WordCount ? "WordCount" : "Sort";
            for (auto [stack, sname] : stacks)
                for (auto [corpus, cname] : corpora)
                    v.push_back(text(std::string(sname) + "-" + aname +
                                         "@" + cname + "-half",
                                     0, 0, algo, stack, 0.5, corpus));
        }

        // 27 queries: 9 relational operations x 3 SQL stacks.
        const std::pair<QK, const char *> queries[] = {
            {QK::SelectQuery, "SelectQuery"},
            {QK::Project, "Project"},
            {QK::OrderBy, "OrderBy"},
            {QK::Difference, "Difference"},
            {QK::Aggregation, "Aggregation"},
            {QK::Join, "Join"},
            {QK::TpcdsQ3, "TPC-DS-query3"},
            {QK::TpcdsQ8, "TPC-DS-query8"},
            {QK::TpcdsQ10, "TPC-DS-query10"},
        };
        const std::pair<SK, const char *> sql_stacks[] = {
            {SK::Hive, "H"},
            {SK::Shark, "S"},
            {SK::Impala, "I"},
        };
        for (auto [q, qname] : queries)
            for (auto [stack, sname] : sql_stacks)
                v.push_back(sql(std::string(sname) + "-" + qname, 0, 0,
                                q, stack));

        // 12 ML/graph workloads: 4 algorithms x 3 stacks.
        const std::pair<MA, const char *> mls[] = {
            {MA::KMeans, "Kmeans"},
            {MA::PageRank, "PageRank"},
            {MA::NaiveBayes, "NaiveBayes"},
            {MA::ConnectedComponents, "ConnComp"},
        };
        for (auto [algo, aname] : mls)
            for (auto [stack, sname] : stacks)
                v.push_back(ml(std::string(sname) + "-" + aname, 0, 0,
                               algo, stack));

        // 2 service variants.
        v.push_back(service("H-Read", 0, 0, 1.0));
        v.push_back(service("H-Read-half", 0, 0, 0.5));

        if (v.size() != 77)
            wcrt_panic("roster has ", v.size(), " entries, expected 77");
        return v;
    }();
    return entries;
}

const WorkloadEntry *
lookupWorkload(const std::string &name)
{
    static const std::map<std::string, WorkloadEntry> index = [] {
        std::map<std::string, WorkloadEntry> m;
        for (const auto *list :
             {&representativeWorkloads(), &mpiWorkloads(),
              &fullRoster()}) {
            for (const auto &e : *list)
                m.emplace(e.name, e);
        }
        for (const auto &e : baselineWorkloads())
            m.emplace(e.name, WorkloadEntry{e.name, 0, 0, e.make});
        return m;
    }();
    auto it = index.find(name);
    return it == index.end() ? nullptr : &it->second;
}

const WorkloadEntry &
findWorkload(const std::string &name)
{
    if (const WorkloadEntry *e = lookupWorkload(name))
        return *e;
    wcrt_panic("unknown workload '", name, "'");
}

} // namespace wcrt
