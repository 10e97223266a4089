/**
 * @file
 * Tests for the scenario DSL: structural parsing and round-trips,
 * accumulate-all error reporting, strict numbers and buildable sweep
 * geometry, matrix expansion order, scenario-vs-hand-registered
 * roster identity and the sweep engine's scenario-vs-bench
 * bit-identity guarantee.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "op_streams.hh"
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
    std::string dir = testTempPath("scn-" + tag);
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
    EXPECT_TRUE(hasIssue(parse.issues, "unknown section [generators]"));

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
                          "scale = 0.5, banana, 1e-300, +0.5\n"
                          "mode = stack, sideways\n"
                          "color = red\n"));
    EXPECT_TRUE(hasIssue(parse.issues, "unknown matrix axis 'color'"));
    std::vector<ScenarioIssue> issues;
    std::vector<ScenarioCell> cells =
        expandScenario(parse.spec, 0.5, issues);
    EXPECT_TRUE(cells.empty());
    for (const std::string bad : {"banana", "1e-300", "+0.5"})
        EXPECT_TRUE(hasIssue(issues, "bad scale value '" + bad + "'"))
            << bad;
    EXPECT_TRUE(hasIssue(issues, "bad mode value 'sideways'"));
}

TEST(ScenarioSpecTest, SimMachineNamesAreStrict)
{
    // sim<KB> takes trace_tool --machine's 1..2^30 KB: no trailing
    // junk, no empty, zero, signed or spaced size, no 32-bit wrap to
    // 32.
    ScenarioParse parse = parseScenario(parseScenarioText(
        "[scenario]\n"
        "name = r\n"
        "kind = replay\n"
        "machines = sim32x, sim, sim0, sim-1, sim4294967328, sim+32,"
        " sim 32, sim32\n"
        "[workloads]\n"
        "group G = H-Grep\n"));
    ASSERT_TRUE(parse.ok()) << parse.formatIssues();
    std::vector<ScenarioIssue> issues;
    EXPECT_TRUE(expandScenario(parse.spec, 0.5, issues).empty());
    for (const std::string bad : {"sim32x", "sim", "sim0", "sim-1",
                                  "sim4294967328", "sim+32", "sim 32"})
        EXPECT_TRUE(hasIssue(issues, "bad machine value '" + bad + "'"))
            << bad;
    EXPECT_FALSE(hasIssue(issues, "'sim32'"));
    MachineConfig m;
    ASSERT_TRUE(parseMachine("sim32", m));
    EXPECT_EQ(m.l1i.sizeBytes, 32u * 1024);
    EXPECT_TRUE(parseMachine("sim1073741824", m));
    EXPECT_FALSE(parseMachine("sim1073741825", m));
}

TEST(ScenarioSpecTest, TrafficKindAndSectionsRejected)
{
    // A retired traffic file fails through the generic unknown kind,
    // key and section issues.
    ScenarioParse parse = parseScenario(parseScenarioText(
        "[scenario]\n"
        "name = t\n"
        "kind = traffic\n"
        "target = kv-get\n"
        "seed = 1\n"
        "[generators]\n"
        "keys = zipf(5000, 0.99)\n"
        "[phases]\n"
        "phase steady = closed, ops=8\n"));
    EXPECT_TRUE(hasIssue(parse.issues, "unknown kind 'traffic'"));
    EXPECT_TRUE(hasIssue(parse.issues, "unknown key 'target'"));
    EXPECT_TRUE(hasIssue(parse.issues, "unknown key 'seed'"));
    EXPECT_TRUE(hasIssue(parse.issues, "unknown section [generators]"));
    EXPECT_TRUE(hasIssue(parse.issues, "unknown section [phases]"));
    // With no kind to judge by, no sweep-only issue is invented.
    EXPECT_FALSE(hasIssue(parse.issues, "need a [workloads] section"))
        << parse.formatIssues();

    // So do the sections in an otherwise valid sweep file.
    parse = parseScenario(parseScenarioText("[scenario]\n"
                                            "name = s\n"
                                            "kind = sweep\n"
                                            "[workloads]\n"
                                            "group G = H-Grep\n"
                                            "[phases]\n"
                                            "phase p = closed, ops=8\n"));
    EXPECT_EQ(parse.issues.size(), 1u) << parse.formatIssues();
    EXPECT_TRUE(hasIssue(parse.issues, "unknown section [phases]"));
}

/** Parse + expand a one-group sweep with `extra` [scenario] lines. */
std::vector<ScenarioIssue>
sweepIssues(const std::string &extra, const std::string &matrix = "")
{
    ScenarioParse parse = parseScenario(parseScenarioText(
        "[scenario]\nname = n\nkind = sweep\n" + extra +
        "[workloads]\ngroup G = H-Grep\n" +
        (matrix.empty() ? "" : "[matrix]\n" + matrix)));
    if (parse.ok())
        expandScenario(parse.spec, 0.5, parse.issues);
    return parse.issues;
}

TEST(ScenarioSpecTest, NumbersAreStrict)
{
    // Digits only, in trace_tool's ranges: no sign, no space, no
    // exponent and no 32-bit wrap of an oversized value onto a small
    // one (4294967304 is 2^32 + 8).
    const std::pair<std::string, std::string> cases[] = {
        {"assoc = 4294967304\n", "bad assoc"},
        {"assoc = -1\n", "bad assoc"},
        {"assoc = +8\n", "bad assoc"},
        {"line-bytes = 4294967360\n", "bad line-bytes"},
        {"sizes-kb = 16, +32\n", "bad sizes-kb entry '+32'"},
        {"sizes-kb = 16, 4294967360\n", "bad sizes-kb entry"},
        {"scale-factor = 1e3\n", "bad scale-factor"},
        {"scale-factor = -0.5\n", "bad scale-factor"},
    };
    for (const auto &[line, issue] : cases)
        EXPECT_TRUE(hasIssue(sweepIssues(line), issue)) << line;
    EXPECT_TRUE(sweepIssues("assoc = 16\nline-bytes = 128\n"
                            "sizes-kb = 16, 32\nscale-factor = 0.25\n",
                            "scale = 0.5, 1\n")
                    .empty());
}

TEST(ScenarioSpecTest, UnbuildableSweepGeometryRejected)
{
    // Geometries a run would die on: 48-byte lines fit neither model,
    // and the oracle cannot cut 1 KB into 32-way sets of 64-byte
    // lines. The stack-distance profile is fully associative, so a
    // stack-only ladder ignores assoc.
    EXPECT_TRUE(hasIssue(sweepIssues("line-bytes = 48\n"),
                         "line size must be a power of two, got 48"));
    const std::string odd_sets = "assoc = 32\nsizes-kb = 1, 16\n";
    std::vector<ScenarioIssue> issues =
        sweepIssues("mrc-mode = oracle\n" + odd_sets);
    ASSERT_EQ(issues.size(), 1u);
    EXPECT_TRUE(hasIssue(issues, "rung 1 KB: size 1024 not divisible"
                                 " into 32-way sets"));
    EXPECT_FALSE(sweepIssues(odd_sets, "mode = stack, verify\n").empty());
    EXPECT_TRUE(sweepIssues(odd_sets).empty());
    EXPECT_TRUE(sweepIssues(odd_sets, "mode = stack\n").empty());
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

} // namespace
} // namespace wcrt
