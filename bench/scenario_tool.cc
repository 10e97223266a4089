/**
 * @file
 * Command-line front end for `.scn` scenario files:
 *
 *     scenario_tool validate <file.scn>...
 *     scenario_tool expand   <file.scn> [--scale=S]
 *     scenario_tool run      <file.scn> [--json=FILE] [--jobs=N]
 *                            [--trace-dir=D] [--cell=I] [--scale=S]
 *                            [--verify-crc=M]
 *
 * `validate` parses, resolves and expands every named file, printing
 * every problem found (the parser accumulates issues instead of
 * stopping at the first) — CI runs it over every checked-in .scn
 * file; `expand`
 * prints the ordered cell list a scenario's matrix produces; `run`
 * executes cells through the kind's engine (sweep ladders, traffic
 * phases, machine replays), printing a table per cell and optionally
 * a machine-readable JSON report with full-precision curves.
 * `--jobs` and `--cell` take strict decimal counts.
 *
 * Exit status: 0 on success, 1 when validate finds issues or a run
 * fails, 2 on usage errors.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "base/table.hh"
#include "cli_flags.hh"
#include "scenario/runner.hh"
#include "scenario/scenario.hh"
#include "tracefile/trace_source.hh"

using namespace wcrt;
using bench::flagValue;
using bench::parseCount;
using bench::parseJobs;

namespace {

int
usage()
{
    std::cerr
        << "usage:\n"
           "  scenario_tool validate <file.scn>...\n"
           "  scenario_tool expand   <file.scn> [--scale=S]\n"
           "  scenario_tool run      <file.scn> [--json=FILE]"
           " [--jobs=N]\n"
           "                         [--trace-dir=D] [--cell=I]"
           " [--scale=S]\n"
           "                         [--verify-crc=M]\n"
           "\n"
           "  --scale=S      base dataset scale (default: WCRT_SCALE\n"
           "                 or 0.5); the scenario's scale-factor and\n"
           "                 scale axis still apply on top\n"
           "  --json=FILE    write a JSON report of every cell run\n"
           "  --jobs=N       worker cap (0 = hardware threads)\n"
           "  --trace-dir=D  trace cache directory (default:\n"
           "                 WCRT_TRACE_DIR or the system temp dir)\n"
           "  --cell=I       run only the cell with index I\n"
           "  --verify-crc=M chunk CRC policy on replay: always\n"
           "                 (default), never\n";
    return 2;
}

double
envBaseScale()
{
    if (const char *s = std::getenv("WCRT_SCALE"))
        return std::atof(s);
    return 0.5;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

std::string
jsonDouble(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

// ---------------------------------------------------------------- validate

int
cmdValidate(int argc, char **argv)
{
    if (argc < 3)
        return usage();
    int bad = 0;
    for (int i = 2; i < argc; ++i) {
        ScenarioParse parse = loadScenario(argv[i]);
        std::vector<ScenarioCell> cells;
        if (parse.ok())
            cells = expandScenario(parse.spec, envBaseScale(),
                                   parse.issues);
        if (parse.ok() && cells.empty())
            parse.issues.push_back(
                {0, "matrix expands to no cells"});
        if (!parse.ok()) {
            std::cout << parse.formatIssues();
            ++bad;
            continue;
        }
        std::cout << argv[i] << ": OK (" << toString(parse.spec.kind)
                  << " '" << parse.spec.name << "', " << cells.size()
                  << (cells.size() == 1 ? " cell)" : " cells)")
                  << "\n";
    }
    return bad ? 1 : 0;
}

// ------------------------------------------------------------------ expand

int
cmdExpand(int argc, char **argv)
{
    if (argc < 3)
        return usage();
    double base_scale = envBaseScale();
    for (int i = 3; i < argc; ++i) {
        if (const char *v =
                flagValue(argv[i], "--scale", argc, argv, i))
            base_scale = std::atof(v);
        else
            return usage();
    }
    ScenarioParse parse = loadScenario(argv[2]);
    std::vector<ScenarioCell> cells;
    if (parse.ok())
        cells = expandScenario(parse.spec, base_scale, parse.issues);
    if (!parse.ok()) {
        std::cerr << parse.formatIssues();
        return 1;
    }
    std::cout << toString(parse.spec.kind) << " scenario '"
              << parse.spec.name << "': " << cells.size()
              << (cells.size() == 1 ? " cell\n\n" : " cells\n\n");
    Table t({"cell", "label", "scale", "workloads"});
    for (const auto &cell : cells) {
        t.cell(static_cast<uint64_t>(cell.index))
            .cell(cell.label)
            .cell(cell.scale, 4)
            .cell(cell.group.entries.empty()
                      ? std::string("-")
                      : std::to_string(cell.group.entries.size()));
        t.endRow();
    }
    t.print(std::cout);
    return cells.empty() ? 1 : 0;
}

// --------------------------------------------------------------------- run

/** JSON fragments for each executed cell, joined by emitJson(). */
std::vector<std::string> g_cells_json;

void
jsonSweepCell(const CellResult &r, const ScenarioSpec &spec)
{
    std::ostringstream os;
    os << "    {\n      \"index\": " << r.cell.index << ",\n"
       << "      \"label\": \"" << jsonEscape(r.cell.label)
       << "\",\n"
       << "      \"scale\": " << jsonDouble(r.cell.scale) << ",\n"
       << "      \"group\": \"" << jsonEscape(r.cell.group.name)
       << "\",\n"
       << "      \"mode\": \"" << toString(r.cell.mode) << "\",\n"
       << "      \"sizes_kb\": [";
    for (size_t i = 0; i < spec.sizesKb.size(); ++i)
        os << (i ? ", " : "") << spec.sizesKb[i];
    os << "],\n      \"miss_ratio\": [";
    for (size_t i = 0; i < r.sweep.curve.size(); ++i)
        os << (i ? ", " : "") << jsonDouble(r.sweep.curve[i]);
    os << "],\n      \"max_divergence\": "
       << jsonDouble(r.sweep.maxDivergence) << "\n    }";
    g_cells_json.push_back(os.str());
}

void
jsonTrafficCell(const CellResult &r)
{
    std::ostringstream os;
    os << "    {\n      \"index\": " << r.cell.index << ",\n"
       << "      \"label\": \"" << jsonEscape(r.cell.label)
       << "\",\n"
       << "      \"scale\": " << jsonDouble(r.cell.scale) << ",\n"
       << "      \"target\": \""
       << jsonEscape(r.traffic.result.target) << "\",\n"
       << "      \"capacity_hz\": "
       << jsonDouble(r.traffic.capacityHz) << ",\n"
       << "      \"total_requests\": "
       << r.traffic.result.totalRequests << ",\n"
       << "      \"phases\": [";
    const auto &phases = r.traffic.result.phases;
    for (size_t i = 0; i < phases.size(); ++i) {
        const PhaseStats &ps = phases[i];
        os << (i ? "," : "") << "\n        {\"name\": \""
           << jsonEscape(ps.name) << "\", \"arrival\": \""
           << toString(ps.arrival) << "\", \"requests\": "
           << ps.requests << ", \"offered_hz\": "
           << jsonDouble(ps.offeredRateHz) << ", \"achieved_hz\": "
           << jsonDouble(ps.achievedRateHz()) << ", \"p50_ns\": "
           << static_cast<uint64_t>(ps.latency.quantile(0.50))
           << ", \"p99_ns\": "
           << static_cast<uint64_t>(ps.latency.quantile(0.99))
           << "}";
    }
    os << "\n      ]\n    }";
    g_cells_json.push_back(os.str());
}

void
jsonReplayCell(const CellResult &r)
{
    std::ostringstream os;
    os << "    {\n      \"index\": " << r.cell.index << ",\n"
       << "      \"label\": \"" << jsonEscape(r.cell.label)
       << "\",\n"
       << "      \"scale\": " << jsonDouble(r.cell.scale) << ",\n"
       << "      \"machine\": \"" << jsonEscape(r.cell.machineName)
       << "\",\n"
       << "      \"workloads\": [";
    for (size_t i = 0; i < r.replay.reports.size(); ++i) {
        const CpuReport &rep = r.replay.reports[i];
        os << (i ? "," : "") << "\n        {\"name\": \""
           << jsonEscape(r.replay.names[i]) << "\", \"ipc\": "
           << jsonDouble(rep.ipc) << ", \"l1i_mpki\": "
           << jsonDouble(rep.l1iMpki) << ", \"l1d_mpki\": "
           << jsonDouble(rep.l1dMpki) << ", \"l2_mpki\": "
           << jsonDouble(rep.l2Mpki) << ", \"l3_mpki\": "
           << jsonDouble(rep.l3Mpki) << "}";
    }
    os << "\n      ]\n    }";
    g_cells_json.push_back(os.str());
}

void
emitJson(const std::string &path, const ScenarioSpec &spec)
{
    std::ofstream out(path);
    if (!out)
        wcrt_fatal("cannot write ", path);
    out << "{\n  \"scenario\": \"" << jsonEscape(spec.name)
        << "\",\n  \"kind\": \"" << toString(spec.kind)
        << "\",\n  \"source\": \"" << jsonEscape(spec.source)
        << "\",\n  \"seed\": " << spec.seed << ",\n  \"cells\": [\n";
    for (size_t i = 0; i < g_cells_json.size(); ++i)
        out << g_cells_json[i]
            << (i + 1 < g_cells_json.size() ? "," : "") << "\n";
    out << "  ]\n}\n";
}

void
printSweepCell(const CellResult &r, const ScenarioSpec &spec)
{
    Table t({"cache KB", "miss%"});
    for (size_t i = 0; i < r.sweep.curve.size(); ++i) {
        t.cell(static_cast<uint64_t>(spec.sizesKb[i]))
            .cell(r.sweep.curve[i] * 100.0, 3);
        t.endRow();
    }
    t.print(std::cout);
    if (r.cell.mode == MrcMode::Verify)
        std::cout << "max stack/oracle divergence: "
                  << r.sweep.maxDivergence << "\n";
}

void
printTrafficCell(const CellResult &r)
{
    if (r.traffic.capacityHz > 0.0)
        std::cout << "probed capacity: " << r.traffic.capacityHz
                  << " req/s per actor\n";
    Table t({"phase", "arrival", "offered/s", "achieved/s", "p50ns",
             "p99ns", "requests"});
    for (const PhaseStats &ps : r.traffic.result.phases) {
        t.cell(ps.name)
            .cell(toString(ps.arrival))
            .cell(ps.offeredRateHz, 0)
            .cell(ps.achievedRateHz(), 0)
            .cell(static_cast<uint64_t>(ps.latency.quantile(0.50)))
            .cell(static_cast<uint64_t>(ps.latency.quantile(0.99)))
            .cell(ps.requests);
        t.endRow();
    }
    t.print(std::cout);
}

void
printReplayCell(const CellResult &r)
{
    Table t({"workload", "IPC", "L1I MPKI", "L1D MPKI", "L2 MPKI",
             "L3 MPKI"});
    for (size_t i = 0; i < r.replay.reports.size(); ++i) {
        const CpuReport &rep = r.replay.reports[i];
        t.cell(r.replay.names[i])
            .cell(rep.ipc, 3)
            .cell(rep.l1iMpki, 3)
            .cell(rep.l1dMpki, 3)
            .cell(rep.l2Mpki, 3)
            .cell(rep.l3Mpki, 3);
        t.endRow();
    }
    t.print(std::cout);
}

int
cmdRun(int argc, char **argv)
{
    if (argc < 3)
        return usage();
    RunnerOptions opt;
    opt.baseScale = envBaseScale();
    std::string json_path;
    long only_cell = -1;
    for (int i = 3; i < argc; ++i) {
        if (const char *v =
                flagValue(argv[i], "--json", argc, argv, i))
            json_path = v;
        else if (const char *v2 =
                     flagValue(argv[i], "--jobs", argc, argv, i))
            opt.jobs = parseJobs(v2);
        else if (const char *v3 = flagValue(argv[i], "--trace-dir",
                                            argc, argv, i))
            opt.traceDir = v3;
        else if (const char *v4 =
                     flagValue(argv[i], "--cell", argc, argv, i))
            only_cell = static_cast<long>(
                parseCount("--cell", v4, 0, 1u << 30));
        else if (const char *v5 =
                     flagValue(argv[i], "--scale", argc, argv, i))
            opt.baseScale = std::atof(v5);
        else if (const char *v6 = flagValue(argv[i], "--verify-crc",
                                            argc, argv, i)) {
            ReaderOptions ropts = defaultReaderOptions();
            if (!parseCrcMode(v6, ropts.crc))
                wcrt_fatal("unknown --verify-crc '", v6,
                           "' (always or never)");
            setDefaultReaderOptions(ropts);
        } else
            return usage();
    }

    ScenarioParse parse = loadScenario(argv[2]);
    std::vector<ScenarioCell> cells;
    if (parse.ok())
        cells = expandScenario(parse.spec, opt.baseScale,
                               parse.issues);
    if (!parse.ok()) {
        std::cerr << parse.formatIssues();
        return 1;
    }
    if (cells.empty()) {
        std::cerr << argv[2] << ": matrix expands to no cells\n";
        return 1;
    }
    if (only_cell >= 0 &&
        static_cast<size_t>(only_cell) >= cells.size()) {
        std::cerr << "--cell=" << only_cell << " out of range (0.."
                  << cells.size() - 1 << ")\n";
        return 1;
    }

    ScenarioRunner runner(parse.spec, opt);
    std::cout << "=== " << toString(parse.spec.kind) << " scenario '"
              << parse.spec.name << "' (" << cells.size()
              << (cells.size() == 1 ? " cell" : " cells")
              << ", seed " << parse.spec.seed << ") ===\n";
    for (const ScenarioCell &cell : cells) {
        if (only_cell >= 0 &&
            cell.index != static_cast<size_t>(only_cell))
            continue;
        std::cout << "\n-- cell " << cell.index << ": " << cell.label
                  << "\n\n";
        CellResult r = runner.runCell(cell);
        switch (parse.spec.kind) {
          case ScenarioKind::Sweep:
            printSweepCell(r, parse.spec);
            jsonSweepCell(r, parse.spec);
            break;
          case ScenarioKind::Traffic:
            printTrafficCell(r);
            jsonTrafficCell(r);
            break;
          case ScenarioKind::Replay:
            printReplayCell(r);
            jsonReplayCell(r);
            break;
        }
    }

    if (!json_path.empty()) {
        emitJson(json_path, parse.spec);
        std::cout << "\nwrote " << g_cells_json.size()
                  << " cell reports to " << json_path << "\n";
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    std::string cmd = argv[1];
    if (cmd == "validate")
        return cmdValidate(argc, argv);
    if (cmd == "expand")
        return cmdExpand(argc, argv);
    if (cmd == "run")
        return cmdRun(argc, argv);
    return usage();
}
