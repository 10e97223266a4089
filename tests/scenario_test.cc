/**
 * @file
 * Tests for the scenario DSL: structural parsing and round-trips,
 * accumulate-all error reporting, seeded-generator determinism under
 * evaluation-order and worker-count changes, matrix expansion order,
 * scenario-vs-hand-registered roster identity and the sweep engine's
 * scenario-vs-bench bit-identity guarantee.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "scenario/generator.hh"
#include "scenario/parser.hh"
#include "scenario/runner.hh"
#include "scenario/scenario.hh"
#include "tracefile/replay.hh"
#include "workloads/registry.hh"

namespace wcrt {
namespace {

namespace fs = std::filesystem;

std::string
scnPath(const std::string &name)
{
#ifdef WCRT_SCENARIO_DIR
    return std::string(WCRT_SCENARIO_DIR) + "/" + name;
#else
    return "scenarios/" + name;
#endif
}

/** Fresh, empty temp directory for a test's trace cache. */
std::string
tempCacheDir(const std::string &tag)
{
    std::string dir =
        (fs::temp_directory_path() / ("wcrt-scn-" + tag)).string();
    fs::remove_all(dir);
    return dir;
}

bool
hasIssue(const std::vector<ScenarioIssue> &issues,
         const std::string &needle)
{
    for (const auto &i : issues)
        if (i.message.find(needle) != std::string::npos)
            return true;
    return false;
}

// --------------------------------------------------------- structural layer

TEST(ScenarioParserTest, RoundTripIsStable)
{
    const std::string text =
        "[scenario]\n"
        "name = demo\n"
        "kind = sweep\n"
        "\n"
        "[workloads]\n"
        "group A = H-Grep, M-Sort\n";
    ScenarioDoc doc = parseScenarioText(text);
    EXPECT_TRUE(doc.ok());
    ScenarioDoc again = parseScenarioText(doc.toText());
    EXPECT_TRUE(again.ok());
    EXPECT_EQ(doc.toText(), again.toText());
    ASSERT_EQ(again.sections.size(), 2u);
    EXPECT_EQ(again.sections[0].name, "scenario");
    EXPECT_EQ(again.sections[1].entries[0].key, "group A");
    EXPECT_EQ(again.sections[1].entries[0].value, "H-Grep, M-Sort");
}

TEST(ScenarioParserTest, CommentsAndBlanksIgnored)
{
    ScenarioDoc doc = parseScenarioText(
        "# leading comment\n\n[s]\n  # indented comment\nk = v\n");
    EXPECT_TRUE(doc.ok());
    ASSERT_EQ(doc.sections.size(), 1u);
    EXPECT_EQ(doc.sections[0].entries[0].value, "v");
}

TEST(ScenarioParserTest, AccumulatesEveryStructuralIssue)
{
    // One document, four independent problems: the parser must report
    // all of them, not stop at the first.
    ScenarioDoc doc = parseScenarioText("orphan = 1\n"
                                        "[a]\n"
                                        "= missing\n"
                                        "k = 1\n"
                                        "k = 2\n"
                                        "[a]\n");
    EXPECT_EQ(doc.issues.size(), 4u);
    EXPECT_TRUE(hasIssue(doc.issues, "before the first section"));
    EXPECT_TRUE(hasIssue(doc.issues, "missing key"));
    EXPECT_TRUE(hasIssue(doc.issues, "duplicate key 'k'"));
    EXPECT_TRUE(hasIssue(doc.issues, "duplicate section [a]"));
}

TEST(ScenarioParserTest, IssueFormatIncludesSourceAndLine)
{
    ScenarioDoc doc = parseScenarioText("nonsense\n", "demo.scn");
    ASSERT_EQ(doc.issues.size(), 1u);
    std::string msg = doc.issues[0].format(doc.source);
    EXPECT_NE(msg.find("demo.scn:1:"), std::string::npos);
}

// ----------------------------------------------------------- semantic layer

TEST(ScenarioSpecTest, AccumulatesEverySemanticIssue)
{
    ScenarioParse parse = parseScenario(parseScenarioText(
        "[scenario]\n"
        "name = broken\n"
        "kind = sweep\n"
        "frobnicate = 1\n"
        "[workloads]\n"
        "group G = H-Grep, No-Such-Workload\n"
        "[generators]\n"
        "g = warble(3)\n"
        "[matrix]\n"
        "machine = xeon\n"));
    EXPECT_FALSE(parse.ok());
    EXPECT_TRUE(hasIssue(parse.issues, "unknown key 'frobnicate'"));
    EXPECT_TRUE(
        hasIssue(parse.issues, "unknown workload 'No-Such-Workload'"));
    EXPECT_TRUE(hasIssue(parse.issues, "unknown generator kind"));

    // The machine axis is a replay-only concept; expansion flags it.
    std::vector<ScenarioIssue> expand_issues;
    expandScenario(parse.spec, 0.5, expand_issues);
    EXPECT_TRUE(
        hasIssue(expand_issues, "not valid for sweep scenarios"));
}

TEST(ScenarioSpecTest, BadMatrixAxisValuesReported)
{
    ScenarioParse parse = parseScenario(
        parseScenarioText("[scenario]\n"
                          "name = m\n"
                          "kind = sweep\n"
                          "[workloads]\n"
                          "group G = H-Grep\n"
                          "[matrix]\n"
                          "scale = 0.5, banana\n"
                          "mode = stack, sideways\n"
                          "color = red\n"));
    EXPECT_TRUE(hasIssue(parse.issues, "unknown matrix axis 'color'"));
    std::vector<ScenarioIssue> issues;
    std::vector<ScenarioCell> cells =
        expandScenario(parse.spec, 0.5, issues);
    EXPECT_TRUE(cells.empty());
    EXPECT_TRUE(hasIssue(issues, "bad scale value 'banana'"));
    EXPECT_TRUE(hasIssue(issues, "bad mode value 'sideways'"));
}

TEST(ScenarioSpecTest, SimMachineNamesAreStrict)
{
    // sim<KB> takes trace_tool --machine's 1..2^30 KB: no trailing
    // junk, no empty, zero or negative size, no 32-bit wrap to 32.
    ScenarioParse parse = parseScenario(parseScenarioText(
        "[scenario]\n"
        "name = r\n"
        "kind = replay\n"
        "machines = sim32x, sim, sim0, sim-1, sim4294967328, sim32\n"
        "[workloads]\n"
        "group G = H-Grep\n"));
    ASSERT_TRUE(parse.ok()) << parse.formatIssues();
    std::vector<ScenarioIssue> issues;
    EXPECT_TRUE(expandScenario(parse.spec, 0.5, issues).empty());
    for (const std::string bad :
         {"sim32x", "sim", "sim0", "sim-1", "sim4294967328"})
        EXPECT_TRUE(hasIssue(issues, "bad machine value '" + bad + "'"))
            << bad;
    EXPECT_FALSE(hasIssue(issues, "'sim32'"));
    MachineConfig m;
    ASSERT_TRUE(parseMachine("sim32", m));
    EXPECT_EQ(m.l1i.sizeBytes, 32u * 1024);
    EXPECT_TRUE(parseMachine("sim1073741824", m));
    EXPECT_FALSE(parseMachine("sim1073741825", m));
}

TEST(ScenarioSpecTest, TrafficRequiresTargetAndPhases)
{
    ScenarioParse parse = parseScenario(parseScenarioText(
        "[scenario]\nname = t\nkind = traffic\n"));
    EXPECT_TRUE(hasIssue(parse.issues, "need a 'target'"));
    EXPECT_TRUE(hasIssue(parse.issues, "[phases] section"));
}

TEST(ScenarioSpecTest, PhaseValidation)
{
    ScenarioParse parse = parseScenario(parseScenarioText(
        "[scenario]\n"
        "name = p\n"
        "kind = traffic\n"
        "target = kv-get\n"
        "[phases]\n"
        "phase a = poisson, ops=8\n"
        "phase b = closed, ops=8, rate-hz=10\n"
        "phase c = warble, ops=8\n"
        "phase d = token-bucket, ops=8, rate-hz=5, rate-x=0.5\n"));
    EXPECT_TRUE(hasIssue(parse.issues, "needs rate-hz or rate-x"));
    EXPECT_TRUE(hasIssue(parse.issues, "unknown arrival 'warble'"));
    EXPECT_TRUE(
        hasIssue(parse.issues, "both rate-hz and rate-x"));
    EXPECT_TRUE(hasIssue(parse.issues, "does not take a rate"));
}

TEST(ScenarioSpecTest, MatrixExpansionOrderFirstAxisSlowest)
{
    ScenarioParse parse = parseScenario(
        parseScenarioText("[scenario]\n"
                          "name = order\n"
                          "kind = sweep\n"
                          "[workloads]\n"
                          "group G1 = H-Grep\n"
                          "group G2 = M-Grep\n"
                          "[matrix]\n"
                          "mode = stack, oracle\n"
                          "scale = 0.25, 0.5\n"));
    ASSERT_TRUE(parse.ok()) << parse.formatIssues();
    std::vector<ScenarioIssue> issues;
    std::vector<ScenarioCell> cells =
        expandScenario(parse.spec, 1.0, issues);
    ASSERT_TRUE(issues.empty());
    // mode (declared first) slowest, then scale, then the default
    // group axis (all declared groups) fastest.
    ASSERT_EQ(cells.size(), 8u);
    EXPECT_EQ(cells[0].label, "group=G1 scale=0.25 mode=stack");
    EXPECT_EQ(cells[1].label, "group=G2 scale=0.25 mode=stack");
    EXPECT_EQ(cells[2].label, "group=G1 scale=0.5 mode=stack");
    EXPECT_EQ(cells[3].label, "group=G2 scale=0.5 mode=stack");
    EXPECT_EQ(cells[4].label, "group=G1 scale=0.25 mode=oracle");
    EXPECT_EQ(cells[7].label, "group=G2 scale=0.5 mode=oracle");
    EXPECT_EQ(cells[4].mode, MrcMode::ShardedOracle);
    EXPECT_DOUBLE_EQ(cells[0].scale, 0.25);
    for (size_t i = 0; i < cells.size(); ++i)
        EXPECT_EQ(cells[i].index, i);
}

TEST(ScenarioSpecTest, EmptyExpansionIsAnError)
{
    ScenarioParse parse = parseScenario(parseScenarioText(
        "[scenario]\nname = e\nkind = sweep\n"));
    // No [workloads]: the semantic layer already objects...
    EXPECT_TRUE(hasIssue(parse.issues, "at least one group"));
    // ...and expansion reports the empty default group axis.
    std::vector<ScenarioIssue> issues;
    EXPECT_TRUE(expandScenario(parse.spec, 0.5, issues).empty());
    EXPECT_TRUE(hasIssue(issues, "expands to no values"));
}

TEST(ScenarioSpecTest, LookupWorkloadCoversAllRosters)
{
    EXPECT_NE(lookupWorkload("H-WordCount"), nullptr);
    EXPECT_NE(lookupWorkload("M-Bayes"), nullptr);
    EXPECT_NE(lookupWorkload("H-WordCount@wiki"), nullptr);
    EXPECT_NE(lookupWorkload("PARSEC-like"), nullptr);
    EXPECT_EQ(lookupWorkload("No-Such-Workload"), nullptr);
}

// -------------------------------------------------------------- generators

TEST(GeneratorTest, ParseValidatesSpecs)
{
    ValueGen gen;
    std::string err;
    EXPECT_TRUE(ValueGen::parse("zipf(1000, 0.99)", gen, err));
    EXPECT_EQ(gen.kind(), GenKind::Zipf);
    EXPECT_EQ(gen.spec(), "zipf(1000, 0.99)");
    EXPECT_TRUE(ValueGen::parse("bytes(64)", gen, err));
    EXPECT_TRUE(ValueGen::parse("words(8, 500)", gen, err));
    EXPECT_FALSE(ValueGen::parse("zipf(1000)", gen, err));
    EXPECT_NE(err.find("2 arguments"), std::string::npos);
    EXPECT_FALSE(ValueGen::parse("uniform(9, 1)", gen, err));
    EXPECT_FALSE(ValueGen::parse("warble(1)", gen, err));
    EXPECT_FALSE(ValueGen::parse("zipf", gen, err));
}

TEST(GeneratorTest, DrawsAreOrderIndependent)
{
    ValueGen gen;
    std::string err;
    ASSERT_TRUE(ValueGen::parse("zipf(5000, 0.9)", gen, err));

    constexpr uint64_t kSeed = 42;
    constexpr size_t kActors = 3;
    constexpr size_t kOps = 256;

    // Reference: sequential evaluation in (actor, op) order.
    std::vector<uint64_t> ref(kActors * kOps);
    for (size_t a = 0; a < kActors; ++a)
        for (size_t op = 0; op < kOps; ++op)
            ref[a * kOps + op] = gen.drawIndex({kSeed, a, op});

    // Shuffled evaluation order must reproduce it exactly.
    std::vector<size_t> order(ref.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::mt19937 shuffle_rng(7);
    std::shuffle(order.begin(), order.end(), shuffle_rng);
    std::vector<uint64_t> shuffled(ref.size());
    for (size_t i : order)
        shuffled[i] = gen.drawIndex({kSeed, i / kOps, i % kOps});
    EXPECT_EQ(shuffled, ref);

    // Parallel evaluation (the jobs=N world) must as well.
    std::vector<uint64_t> parallel(ref.size());
    parallelFor(ref.size(), [&](size_t i) {
        parallel[i] = gen.drawIndex({kSeed, i / kOps, i % kOps});
    }, 4);
    EXPECT_EQ(parallel, ref);
}

TEST(GeneratorTest, StreamsAreDistinctAcrossActorsAndGenerators)
{
    ValueGen zipf, uniform;
    std::string err;
    ASSERT_TRUE(ValueGen::parse("zipf(1000000, 0.9)", zipf, err));
    ASSERT_TRUE(
        ValueGen::parse("uniform(0, 999999)", uniform, err));

    size_t same_actor = 0, same_gen = 0;
    for (uint64_t op = 0; op < 200; ++op) {
        if (zipf.drawIndex({1, 0, op}) == zipf.drawIndex({1, 1, op}))
            ++same_actor;
        if (zipf.drawIndex({1, 0, op}) ==
            uniform.drawIndex({1, 0, op}))
            ++same_gen;
    }
    EXPECT_LT(same_actor, 20u);  // collisions allowed, mirroring not
    EXPECT_LT(same_gen, 20u);
}

TEST(GeneratorTest, TextDrawsAreSizedAndDeterministic)
{
    ValueGen bytes, words;
    std::string err;
    ASSERT_TRUE(ValueGen::parse("bytes(64)", bytes, err));
    ASSERT_TRUE(ValueGen::parse("words(6, 100)", words, err));
    std::string doc = bytes.drawText({9, 2, 5});
    EXPECT_EQ(doc.size(), 64u);
    EXPECT_EQ(doc, bytes.drawText({9, 2, 5}));
    EXPECT_NE(doc, bytes.drawText({9, 2, 6}));
    std::string query = words.drawText({9, 0, 0});
    EXPECT_EQ(std::count(query.begin(), query.end(), ' '), 5);
}

// ------------------------------------------------- checked-in scenarios

TEST(ScenarioFilesTest, Fig6GroupMatchesHandRegisteredRoster)
{
    ScenarioParse parse = loadScenario(scnPath("fig6_icache.scn"));
    ASSERT_TRUE(parse.ok()) << parse.formatIssues();
    EXPECT_EQ(parse.spec.kind, ScenarioKind::Sweep);
    EXPECT_EQ(parse.spec.sweepKind, SweepKind::Instruction);
    EXPECT_DOUBLE_EQ(parse.spec.scaleFactor, 0.5);

    // The scenario's Hadoop group must be exactly the hand-registered
    // choice: every representative H-* entry except H-Read, in roster
    // order.
    std::vector<std::string> expect;
    for (const auto &e : representativeWorkloads()) {
        if (e.name.rfind("H-", 0) == 0 && e.name != "H-Read")
            expect.push_back(e.name);
    }
    const ScenarioGroup *g = parse.spec.findGroup("Hadoop");
    ASSERT_NE(g, nullptr);
    std::vector<std::string> got;
    for (const auto &e : g->entries)
        got.push_back(e.name);
    EXPECT_EQ(got, expect);
}

TEST(ScenarioFilesTest, AllCheckedInScenariosValidateAndExpand)
{
    for (const auto &entry : fs::directory_iterator(scnPath(""))) {
        if (entry.path().extension() != ".scn")
            continue;
        ScenarioParse parse = loadScenario(entry.path().string());
        EXPECT_TRUE(parse.ok())
            << entry.path() << ":\n" << parse.formatIssues();
        if (!parse.ok())
            continue;
        std::vector<ScenarioIssue> issues;
        std::vector<ScenarioCell> cells =
            expandScenario(parse.spec, 0.5, issues);
        EXPECT_TRUE(issues.empty()) << entry.path();
        EXPECT_FALSE(cells.empty()) << entry.path();
    }
}

// ----------------------------------------------------------------- runner

TEST(ScenarioRunnerTest, SweepCellBitIdenticalToHandCodedBench)
{
    // The acceptance contract: a scenario-driven fig6 cell reproduces
    // a hand-coded replaySweepLadder() call bit-for-bit, in both the
    // stack and oracle modes. One roster entry at a tiny scale keeps
    // the test fast; separate trace dirs prove the identity is not an
    // artifact of sharing cached files.
    ScenarioParse parse = loadScenario(scnPath("fig6_icache.scn"));
    ASSERT_TRUE(parse.ok()) << parse.formatIssues();
    ScenarioSpec spec = parse.spec;
    // Shrink to the first Hadoop entry so both paths run it alone.
    ASSERT_FALSE(spec.groups.empty());
    spec.groups[0].entries.resize(1);
    const WorkloadEntry entry = spec.groups[0].entries[0];
    EXPECT_EQ(entry.name, "H-Difference");

    const double base = 0.125;  // cell scale 0.0625 after the factor
    const double scale = base * spec.scaleFactor;
    for (MrcMode mode :
         {MrcMode::StackDistance, MrcMode::ShardedOracle}) {
        // Hand-coded path: one replaySweepLadder() call on the one
        // entry.
        TraceCache hand_cache(tempCacheDir(
            std::string("hand-") + toString(mode)));
        std::string path = hand_cache.ensure(
            entry.name, scale, [&] { return entry.make(scale); });
        MrcResult hand = replaySweepLadder(
            path, SweepKind::Instruction, paperSweepSizesKb(), mode,
            1);

        // Scenario path: the runner on the matching matrix cell.
        RunnerOptions opt;
        opt.jobs = 1;
        opt.baseScale = base;
        opt.traceDir =
            tempCacheDir(std::string("scn-") + toString(mode));
        ScenarioRunner runner(spec, opt);
        std::vector<ScenarioIssue> issues;
        std::vector<ScenarioCell> cells = runner.cells(issues);
        ASSERT_TRUE(issues.empty());
        const ScenarioCell *cell = nullptr;
        for (const auto &c : cells) {
            if (c.group.name == "Hadoop" && c.mode == mode)
                cell = &c;
        }
        ASSERT_NE(cell, nullptr);
        EXPECT_DOUBLE_EQ(cell->scale, scale);
        CellResult r = runner.runCell(*cell);

        ASSERT_EQ(r.sweep.curve.size(), hand.ratios.size());
        for (size_t i = 0; i < hand.ratios.size(); ++i) {
            // Bitwise equality, not tolerance: same trace-cache keys,
            // same ladder call, same averaging order.
            EXPECT_EQ(r.sweep.curve[i], hand.ratios[i])
                << toString(mode) << " rung " << i;
        }
    }
}

TEST(ScenarioRunnerTest, SweepCellIdenticalAcrossJobs)
{
    // averageSweep() replays a group's traces as parallel jobs (with
    // Verify's two replays nested inside each) but sums the curves in
    // roster order, so every curve and divergence is bitwise equal at
    // jobs=1 and jobs=4, in every mode.
    ScenarioParse parse = loadScenario(scnPath("fig6_icache.scn"));
    ASSERT_TRUE(parse.ok()) << parse.formatIssues();
    ASSERT_FALSE(parse.spec.groups.empty());
    std::vector<WorkloadEntry> group = parse.spec.groups[0].entries;
    ASSERT_GE(group.size(), 3u);
    group.resize(3);
    std::string dir = tempCacheDir("jobs");
    TraceCache cache(dir);
    const double scale = 0.0625;
    for (MrcMode mode : {MrcMode::StackDistance, MrcMode::ShardedOracle,
                         MrcMode::Verify}) {
        SCOPED_TRACE(toString(mode));
        SweepCellResult serial =
            averageSweep(parse.spec, group, scale, mode, cache, 1);
        SweepCellResult pooled =
            averageSweep(parse.spec, group, scale, mode, cache, 4);
        ASSERT_EQ(serial.curve.size(), paperSweepSizesKb().size());
        EXPECT_GT(serial.curve.front(), 0.0);
        EXPECT_EQ(pooled.curve, serial.curve);
        EXPECT_EQ(pooled.maxDivergence, serial.maxDivergence);
    }
    fs::remove_all(dir);
}

TEST(ScenarioRunnerTest, TrafficOpStreamsIdenticalAcrossJobs)
{
    // The loadgen determinism contract through the scenario layer:
    // generator-driven request streams are pure functions of
    // (seed, actor, op), so every op count matches at jobs=1 and
    // jobs=4 (latencies differ; instruction streams cannot).
    ScenarioParse parse = parseScenario(parseScenarioText(
        "[scenario]\n"
        "name = det\n"
        "kind = traffic\n"
        "target = kv-get\n"
        "seed = 11\n"
        "actors = 4\n"
        "key-gen = keys\n"
        "doc-gen = docs\n"
        "[generators]\n"
        "keys = zipf(5000, 0.99)\n"
        "docs = bytes(128)\n"
        "[phases]\n"
        "phase warmup = closed, ops=4, record=off\n"
        "phase steady = closed, ops=24\n"));
    ASSERT_TRUE(parse.ok()) << parse.formatIssues();

    auto run_with_jobs = [&](unsigned jobs) {
        RunnerOptions opt;
        opt.jobs = jobs;
        opt.baseScale = 0.0625;
        ScenarioRunner runner(parse.spec, opt);
        std::vector<ScenarioIssue> issues;
        std::vector<ScenarioCell> cells = runner.cells(issues);
        EXPECT_TRUE(issues.empty());
        EXPECT_EQ(cells.size(), 1u);
        return runner.runCell(cells[0]).traffic;
    };
    TrafficCellResult serial = run_with_jobs(1);
    TrafficCellResult parallel = run_with_jobs(4);

    EXPECT_EQ(serial.result.totalRequests, 4u * (4u + 24u));
    EXPECT_EQ(serial.result.totalRequests,
              parallel.result.totalRequests);
    EXPECT_EQ(serial.result.totalTraceOps,
              parallel.result.totalTraceOps);
    ASSERT_EQ(serial.result.phases.size(),
              parallel.result.phases.size());
    for (size_t i = 0; i < serial.result.phases.size(); ++i) {
        EXPECT_EQ(serial.result.phases[i].requests,
                  parallel.result.phases[i].requests);
        EXPECT_EQ(serial.result.phases[i].traceOps,
                  parallel.result.phases[i].traceOps);
    }
}

} // namespace
} // namespace wcrt
