/**
 * @file
 * Command-line front end for `.wtrace` files:
 *
 *     trace_tool record <workload> <out.wtrace> [--scale=S]
 *     trace_tool stats  <file.wtrace>
 *     trace_tool dump   <file.wtrace> [--limit=N]
 *     trace_tool replay <file.wtrace> [--machine=LIST] [--jobs=N]
 *     trace_tool mrc    <file.wtrace> [--kind=K] [--mode=M]
 *                       [--sizes=CSV] [--assoc=N] [--line=N]
 *                       [--jobs=N] [--json]
 *     trace_tool serve  <workload>[,<workload>...] --ring=NAME
 *                       [--scale=S] [--ring-kb=KB] [--policy=P]
 *                       [--timeout-ms=T] [--wait-ms=T]
 *                       [--heartbeat-ms=T]
 *     trace_tool attach --ring=NAME [--producers=N] [--machine=LIST]
 *                       [--mrc] [--kind=K] [--sizes=CSV] [--line=N]
 *                       [--jobs=N] [--timeout-ms=T]
 *
 * Every command also accepts `--verify-crc=always|never`, which sets
 * the process-wide ReaderOptions before any trace is opened (see
 * tracefile/trace_source.hh for the CRC policy). Numeric flag values
 * are parsed strictly: anything but a decimal count in range exits
 * non-zero.
 *
 * `record` executes one roster workload and captures its op stream;
 * `stats` prints the header/footer accounting, chunk layout,
 * compression ratio and the MixCounter op-mix table from a replay;
 * `dump` prints the first N decoded ops; `replay` fans the trace
 * across machine configs in parallel and prints one report row each;
 * `mrc` computes the miss-ratio curve over a capacity ladder through
 * the replay layer's MrcMode plumbing — the single-pass
 * stack-distance profile by default, the per-rung set-associative
 * oracle, or both (verify) with the divergence per rung — as a table
 * or machine-readable JSON. The JSON also carries the trace's op
 * count, the profiled stream's accesses and distinct lines (0 in
 * oracle mode) and the wall time of the replay.
 *
 * `serve` and `attach` are the cross-process pair (the shm ring
 * transport, docs/SHM_TRANSPORT.md): `serve` executes workloads and
 * streams their encoded ops into per-workload shared-memory rings
 * (NAME for one workload, NAME.0..NAME.N-1 for N), and `attach` —
 * run in another shell, in any order relative to serve — drains each
 * ring and analyzes the stream through the same replay runners the
 * file commands use: `replay`'s machine-config table by default,
 * `mrc`'s stack-distance curve under `--mrc`.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "base/table.hh"
#include "cli_flags.hh"
#include "core/profiler.hh"
#include "trace/mix_counter.hh"
#include "tracefile/capture.hh"
#include "tracefile/replay.hh"
#include "tracefile/shm_ring.hh"
#include "tracefile/trace_reader.hh"
#include "tracefile/trace_source.hh"
#include "workloads/registry.hh"

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
           "  trace_tool record <workload> <out.wtrace> [--scale=S]\n"
           "  trace_tool stats  <file.wtrace>\n"
           "  trace_tool dump   <file.wtrace> [--limit=N]\n"
           "  trace_tool replay <file.wtrace> [--machine=LIST]"
           " [--jobs=N]\n"
           "  trace_tool mrc    <file.wtrace> [--kind=K] [--mode=M]\n"
           "                    [--sizes=CSV] [--assoc=N] [--line=N]\n"
           "                    [--jobs=N] [--json]\n"
           "  trace_tool serve  <workload>[,<workload>...] --ring=NAME\n"
           "                    [--scale=S] [--ring-kb=KB] [--policy=P]\n"
           "                    [--timeout-ms=T] [--wait-ms=T]\n"
           "                    [--heartbeat-ms=T]\n"
           "  trace_tool attach --ring=NAME [--producers=N]\n"
           "                    [--machine=LIST] [--mrc] [--kind=K]\n"
           "                    [--sizes=CSV] [--line=N] [--jobs=N]\n"
           "                    [--timeout-ms=T]\n"
           "\n"
           "  --machine=LIST  comma-separated subset of: xeon, atom,\n"
           "                  sim<KB> (e.g. sim32); default xeon,atom\n"
           "  --ring=NAME     shm ring name; N workloads/producers use\n"
           "                  NAME.0 .. NAME.N-1\n"
           "  --ring-kb=KB    ring data capacity per producer\n"
           "                  (default 1024, rounded to a power of 2)\n"
           "  --policy=P      producer backpressure: block (default,\n"
           "                  lossless) or drop (lossy, non-blocking)\n"
           "  --producers=N   rings to drain (default 1)\n"
           "  --timeout-ms=T  serve: drain timeout after streaming;\n"
           "                  attach: ring-appearance timeout\n"
           "                  (default 10000)\n"
           "  --wait-ms=T     serve: max wait for the first analyzer\n"
           "                  when a full ring blocks capture before\n"
           "                  anyone has attached (default 120000)\n"
           "  --heartbeat-ms=T serve: peer-death threshold stored in\n"
           "                  the ring superblock (default 2000)\n"
           "  --kind=K        instr (default), data or unified\n"
           "  --mode=M        stack (default), oracle or verify\n"
           "  --sizes=CSV     capacity ladder in KB (default: the\n"
           "                  paper's 16..8192 doubling ladder)\n"
           "  --assoc=N       oracle associativity (default 8)\n"
           "  --line=N        line bytes (default 64)\n"
           "  --jobs=N        worker cap (default 0 = hardware threads)\n"
           "  --verify-crc=M  chunk CRC policy: always (default), never\n"
           "  (run any bench binary with --list for workload names)\n";
    return 2;
}

const char *
layerName(CodeLayer layer)
{
    switch (layer) {
      case CodeLayer::Kernel: return "kernel";
      case CodeLayer::Runtime: return "runtime";
      case CodeLayer::Framework: return "framework";
      case CodeLayer::Library: return "library";
      case CodeLayer::Application: return "application";
    }
    return "?";
}

int
cmdRecord(int argc, char **argv)
{
    if (argc < 4)
        return usage();
    std::string name = argv[2];
    std::string out = argv[3];
    double scale = 1.0;
    for (int i = 4; i < argc; ++i) {
        if (const char *v = flagValue(argv[i], "--scale", argc, argv, i))
            scale = std::atof(v);
        else
            return usage();
    }

    const WorkloadEntry &entry = findWorkload(name);
    WorkloadPtr w = entry.make(scale);
    CaptureResult res = captureTrace(*w, out, scale);
    std::cout << "recorded " << name << " (scale " << scale << "): "
              << res.ops << " ops, " << res.fileBytes << " bytes -> "
              << out << "\n";
    return 0;
}

int
cmdStats(const std::string &path)
{
    TraceReader reader(path);
    const TraceMeta &meta = reader.meta();

    std::cout << "=== " << path << " ===\n\n";
    std::cout << "workload:       " << meta.workload << " ("
              << toString(meta.stackKind) << ", "
              << toString(meta.category) << ", scale " << meta.scale
              << ")\n";
    std::cout << "ops:            " << reader.opCount() << "\n";
    std::cout << "file size:      " << reader.fileBytes() << " bytes ("
              << reader.chunkCount() << " chunks)\n";
    std::cout << "io:             " << reader.ioName()
              << ", verify-crc "
              << toString(reader.options().crc) << "\n";
    std::cout << "payload:        " << reader.payloadBytes()
              << " bytes, " << formatFixed(reader.bytesPerOp(), 3)
              << " bytes/op\n";
    std::cout << "compression:    "
              << formatFixed(static_cast<double>(sizeof(MicroOp)) /
                                 std::max(reader.bytesPerOp(), 1e-9),
                             1)
              << "x vs in-memory MicroOp (" << sizeof(MicroOp)
              << " bytes)\n";

    std::cout << "\n--- region table ---\n";
    std::map<CodeLayer, std::pair<uint64_t, uint64_t>> by_layer;
    for (const auto &fn : reader.regions()) {
        by_layer[fn.layer].first++;
        by_layer[fn.layer].second += fn.bytes;
    }
    Table rt({"layer", "functions", "code bytes"});
    for (const auto &[layer, stat] : by_layer) {
        rt.cell(layerName(layer)).cell(stat.first).cell(stat.second);
        rt.endRow();
    }
    rt.print(std::cout);
    std::cout << "total static code: " << reader.regionBytes()
              << " bytes across " << reader.regions().size()
              << " functions\n";

    MixCounter mix;
    reader.replayInto(mix);
    std::cout << "\n--- op mix (replayed through MixCounter) ---\n";
    Table mt({"class", "share"});
    auto pct = [](double r) { return formatFixed(r * 100, 2) + "%"; };
    mt.cell("load").cell(pct(mix.loadRatio())); mt.endRow();
    mt.cell("store").cell(pct(mix.storeRatio())); mt.endRow();
    mt.cell("branch").cell(pct(mix.branchRatio())); mt.endRow();
    mt.cell("integer").cell(pct(mix.integerRatio())); mt.endRow();
    mt.cell("fp").cell(pct(mix.fpRatio())); mt.endRow();
    mt.cell("other").cell(pct(mix.otherRatio())); mt.endRow();
    mt.print(std::cout);
    std::cout << "data movement: " << pct(mix.dataMovementRatio())
              << " (with branches: "
              << pct(mix.dataMovementWithBranchRatio()) << ")\n";

    const IoCounters &io = reader.io();
    std::cout << "\n--- captured run accounting ---\n"
              << "disk read/write:    " << io.diskReadBytes << " / "
              << io.diskWriteBytes << " bytes\n"
              << "network:            " << io.networkBytes << " bytes\n";
    return 0;
}

/** Prints the first `limit` ops, then counts the rest. */
class DumpSink : public TraceSink
{
  public:
    explicit DumpSink(uint64_t limit) : limit(limit) {}

    void
    consume(const MicroOp &op) override
    {
        if (seen++ >= limit)
            return;
        std::cout << seen - 1 << ": " << toString(op.kind)
                  << " pc=0x" << std::hex << op.pc << std::dec;
        if (op.memSize > 0 || op.memAddr != 0)
            std::cout << " mem=0x" << std::hex << op.memAddr << std::dec
                      << "+" << static_cast<unsigned>(op.memSize);
        if (op.target != 0)
            std::cout << " target=0x" << std::hex << op.target
                      << std::dec << (op.taken ? " taken" : " not-taken");
        std::cout << "\n";
    }

    uint64_t seen = 0;

  private:
    uint64_t limit;
};

int
cmdDump(const std::string &path, uint64_t limit)
{
    TraceReader reader(path);
    DumpSink sink(limit);
    reader.replayInto(sink);
    if (sink.seen > limit)
        std::cout << "... (" << sink.seen - limit << " more ops)\n";
    return 0;
}

/** Split "a,b,c" into tokens (no empties for trailing commas). */
std::vector<std::string>
splitList(const std::string &list)
{
    std::vector<std::string> out;
    for (size_t pos = 0; pos < list.size();) {
        size_t comma = list.find(',', pos);
        if (comma == std::string::npos)
            comma = list.size();
        if (comma > pos)
            out.push_back(list.substr(pos, comma - pos));
        pos = comma + 1;
    }
    return out;
}

/** Parse a --machine list ("" means the xeon,atom default). */
std::vector<MachineConfig>
parseMachineList(const std::string &machine_list)
{
    std::vector<MachineConfig> configs;
    std::string list = machine_list.empty() ? "xeon,atom" : machine_list;
    for (const std::string &tok : splitList(list)) {
        if (tok == "xeon")
            configs.push_back(xeonE5645());
        else if (tok == "atom")
            configs.push_back(atomD510());
        else if (tok.rfind("sim", 0) == 0)
            configs.push_back(atomInOrderSim(static_cast<uint32_t>(
                parseCount("--machine sim<KB>", tok.c_str() + 3, 1,
                           1u << 30))));
        else
            wcrt_fatal("unknown machine '", tok,
                       "' (expected xeon, atom or sim<KB>)");
    }
    return configs;
}

/** Print the per-machine CpuReport table replay and attach share. */
void
printReplayTable(const std::vector<CpuReport> &reports)
{
    Table t({"machine", "IPC", "CPI", "L1I MPKI", "L1D MPKI", "L2 MPKI",
             "branch miss%"});
    for (const auto &r : reports) {
        t.cell(r.machine)
            .cell(r.ipc, 2)
            .cell(r.cpi, 2)
            .cell(r.l1iMpki, 1)
            .cell(r.l1dMpki, 1)
            .cell(r.l2Mpki, 1)
            .cell(r.branchMispredictRatio * 100, 1);
        t.endRow();
    }
    t.print(std::cout);
}

int
cmdReplay(const std::string &path, const std::string &machine_list,
          unsigned jobs)
{
    std::vector<MachineConfig> configs = parseMachineList(machine_list);

    TraceReader reader(path);
    std::cout << "replaying " << reader.meta().workload << " ("
              << reader.opCount() << " ops) on " << configs.size()
              << " configs, " << replayWorkers(jobs) << " workers\n\n";

    printReplayTable(replayOnConfigs(reader, configs, jobs));
    return 0;
}

/** JSON string escape for the few meta fields mrc --json emits. */
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

/** Full-precision double for JSON (tables round, JSON must not). */
std::string
jsonDouble(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** The curve flags `mrc` and `attach --mrc` share. */
struct CurveFlags
{
    SweepKind kind = SweepKind::Instruction;
    std::string kindName = "instr";
    std::vector<uint32_t> sizes = paperSweepSizesKb();
    uint32_t lineBytes = 64;
    unsigned jobs = 0;

    /** Consume argv[i] (and its value) when it is one of these flags. */
    bool
    parse(int argc, char **argv, int &i)
    {
        if (const char *v = flagValue(argv[i], "--kind", argc, argv, i)) {
            kindName = v;
            if (kindName == "instr")
                kind = SweepKind::Instruction;
            else if (kindName == "data")
                kind = SweepKind::Data;
            else if (kindName == "unified")
                kind = SweepKind::Unified;
            else
                wcrt_fatal("unknown --kind '", v,
                           "' (instr, data or unified)");
        } else if (const char *v2 =
                       flagValue(argv[i], "--sizes", argc, argv, i)) {
            sizes.clear();
            for (const std::string &tok : splitList(v2))
                sizes.push_back(static_cast<uint32_t>(
                    parseCount("--sizes", tok.c_str(), 1, 1u << 30)));
            if (sizes.empty())
                wcrt_fatal("--sizes needs at least one capacity");
        } else if (const char *v3 =
                       flagValue(argv[i], "--line", argc, argv, i)) {
            lineBytes = static_cast<uint32_t>(
                parseCount("--line", v3, 1, 1u << 20));
        } else if (const char *v4 =
                       flagValue(argv[i], "--jobs", argc, argv, i)) {
            jobs = parseJobs(v4);
        } else {
            return false;
        }
        return true;
    }
};

/** Print one curve as the table `mrc` and `attach --mrc` share. */
void
printCurve(const std::string &workload, const CurveFlags &flags,
           MrcMode mode, uint32_t assoc, const MrcResult &r)
{
    std::cout << "miss-ratio curve of " << workload << " ("
              << flags.kindName << ", " << toString(mode)
              << " mode, line " << flags.lineBytes << "B"
              << (mode == MrcMode::StackDistance
                      ? std::string(")")
                      : ", oracle " + std::to_string(assoc) + "-way)")
              << "\n\n";
    std::vector<std::string> header{"cache KB", "miss%"};
    if (mode == MrcMode::Verify) {
        header[1] = "stack miss%";
        header.push_back("oracle miss%");
        header.push_back("|gap|%");
    }
    Table t(header);
    for (size_t i = 0; i < flags.sizes.size(); ++i) {
        t.cell(static_cast<uint64_t>(flags.sizes[i]));
        t.cell(r.ratios[i] * 100.0, 3);
        if (mode == MrcMode::Verify) {
            t.cell(r.oracleRatios[i] * 100.0, 3);
            t.cell(std::abs(r.ratios[i] - r.oracleRatios[i]) * 100.0, 3);
        }
        t.endRow();
    }
    t.print(std::cout);
    if (mode == MrcMode::Verify)
        std::cout << "max |stack - oracle| divergence: "
                  << formatFixed(r.maxDivergence * 100, 3) << "%\n";
}

int
cmdMrc(int argc, char **argv)
{
    std::string path = argv[2];
    CurveFlags flags;
    MrcMode mode = MrcMode::StackDistance;
    uint32_t assoc = 8;
    bool json = false;
    for (int i = 3; i < argc; ++i) {
        if (flags.parse(argc, argv, i))
            continue;
        if (const char *v = flagValue(argv[i], "--mode", argc, argv, i)) {
            if (!parseMrcMode(v, mode))
                wcrt_fatal("unknown --mode '", v,
                           "' (stack, oracle or verify)");
        } else if (const char *v2 =
                       flagValue(argv[i], "--assoc", argc, argv, i)) {
            assoc = static_cast<uint32_t>(
                parseCount("--assoc", v2, 1, 1u << 16));
        } else if (std::strcmp(argv[i], "--json") == 0) {
            json = true;
        } else {
            return usage();
        }
    }

    TraceReader reader(path);
    const std::vector<uint32_t> &sizes = flags.sizes;
    auto t0 = std::chrono::steady_clock::now();
    MrcResult r = replaySweepLadder(reader, flags.kind, sizes, mode,
                                    flags.jobs, assoc, flags.lineBytes);
    double wall_s = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();

    if (!json) {
        printCurve(reader.meta().workload, flags, mode, assoc, r);
        return 0;
    }
    std::cout << "{\n"
              << "  \"trace\": \"" << jsonEscape(path) << "\",\n"
              << "  \"workload\": \"" << jsonEscape(reader.meta().workload)
              << "\",\n"
              << "  \"kind\": \"" << flags.kindName << "\",\n"
              << "  \"mode\": \"" << toString(mode) << "\",\n"
              << "  \"assoc\": " << assoc << ",\n"
              << "  \"line_bytes\": " << flags.lineBytes << ",\n"
              << "  \"ops\": " << reader.opCount() << ",\n"
              << "  \"accesses\": " << r.accesses << ",\n"
              << "  \"distinct_lines\": " << r.distinctLines << ",\n"
              << "  \"wall_s\": " << jsonDouble(wall_s) << ",\n";
    auto emit_list = [](const char *name, auto &&fmt, size_t n,
                        bool last = false) {
        std::cout << "  \"" << name << "\": [";
        for (size_t i = 0; i < n; ++i)
            std::cout << (i ? ", " : "") << fmt(i);
        std::cout << "]" << (last ? "\n" : ",\n");
    };
    emit_list("sizes_kb",
              [&](size_t i) { return std::to_string(sizes[i]); },
              sizes.size());
    if (mode == MrcMode::Verify) {
        emit_list("miss_ratio",
                  [&](size_t i) { return jsonDouble(r.ratios[i]); },
                  r.ratios.size());
        emit_list("oracle_miss_ratio",
                  [&](size_t i) { return jsonDouble(r.oracleRatios[i]); },
                  r.oracleRatios.size());
        std::cout << "  \"max_divergence\": "
                  << jsonDouble(r.maxDivergence) << "\n";
    } else {
        emit_list("miss_ratio",
                  [&](size_t i) { return jsonDouble(r.ratios[i]); },
                  r.ratios.size(), /*last=*/true);
    }
    std::cout << "}\n";
    return 0;
}

/** Per-producer ring name: NAME for one producer, NAME.i for many. */
std::string
ringNameAt(const std::string &base, size_t i, size_t n)
{
    return n == 1 ? base : base + "." + std::to_string(i);
}

int
cmdServe(int argc, char **argv)
{
    std::vector<std::string> workloads = splitList(argv[2]);
    if (workloads.empty())
        return usage();
    std::string ring_base;
    double scale = 1.0;
    uint64_t ring_kb = 1024;
    ShmPolicy policy = ShmPolicy::Block;
    uint64_t timeout_ms = 10000;
    uint64_t wait_ms = 120000;
    uint64_t heartbeat_ms = ShmRing::defaultHeartbeatTimeoutMs;
    for (int i = 3; i < argc; ++i) {
        if (const char *v = flagValue(argv[i], "--ring", argc, argv, i))
            ring_base = v;
        else if (const char *v2 =
                     flagValue(argv[i], "--scale", argc, argv, i))
            scale = std::atof(v2);
        else if (const char *v3 =
                     flagValue(argv[i], "--ring-kb", argc, argv, i))
            ring_kb = parseCount("--ring-kb", v3, 1, 1 << 20);
        else if (const char *v4 =
                     flagValue(argv[i], "--policy", argc, argv, i)) {
            if (!parseShmPolicy(v4, policy))
                wcrt_fatal("unknown --policy '", v4,
                           "' (block or drop)");
        } else if (const char *v5 = flagValue(argv[i], "--timeout-ms",
                                              argc, argv, i)) {
            timeout_ms = parseCount("--timeout-ms", v5, 1, 86400000);
        } else if (const char *v6 = flagValue(argv[i], "--wait-ms",
                                              argc, argv, i)) {
            wait_ms = parseCount("--wait-ms", v6, 1, 86400000);
        } else if (const char *v7 = flagValue(argv[i], "--heartbeat-ms",
                                              argc, argv, i)) {
            heartbeat_ms =
                parseCount("--heartbeat-ms", v7, 1, 86400000);
        } else {
            return usage();
        }
    }
    if (ring_base.empty())
        wcrt_fatal("serve needs --ring=NAME");

    // Create every ring before running anything, so an analyzer that
    // attaches while the first workload is still executing finds all
    // of them. A leftover ring from a crashed serve is replaced.
    size_t n = workloads.size();
    std::vector<ShmRing> rings;
    rings.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        std::string name = ringNameAt(ring_base, i, n);
        ShmRing::unlink(name);
        rings.push_back(ShmRing::create(name, ShmRing::Role::Producer,
                                        ring_kb * 1024, heartbeat_ms));
        // Beat from ring creation, not first push: parallelFor can
        // queue a workload behind busy pool workers (and setup alone
        // can outlast the timeout) — an attached analyzer must not
        // read the wait as producer death. And bound how long a full
        // ring may block capture while no analyzer has ever attached.
        rings.back().startHeartbeat();
        rings.back().setNoConsumerTimeout(wait_ms);
        std::cout << "serving " << workloads[i] << " on shm ring "
                  << name << " (" << ring_kb << " KB, "
                  << toString(policy) << ")\n";
    }
    std::cout << "waiting for an analyzer: trace_tool attach --ring="
              << ring_base << (n > 1 ? " --producers=" +
                                           std::to_string(n)
                                     : std::string())
              << "\n\n";

    std::vector<ServeResult> results(n);
    std::vector<std::string> errors(n);
    parallelFor(n, [&](size_t i) {
        // Catch per workload: one ring erroring out (e.g. its
        // analyzer never attached within --wait-ms) must not take
        // down the siblings still streaming.
        try {
            const WorkloadEntry &entry = findWorkload(workloads[i]);
            WorkloadPtr w = entry.make(scale);
            results[i] = serveTrace(*w, rings[i], scale, policy);
            rings[i].awaitDrained(timeout_ms);
        } catch (const TraceFormatError &err) {
            errors[i] = err.what();
        }
    });

    int rc = 0;
    for (size_t i = 0; i < n; ++i) {
        if (!errors[i].empty()) {
            std::cerr << "trace_tool: serve " << workloads[i] << ": "
                      << errors[i] << "\n";
            rc = 1;
        } else {
            std::cout << "streamed " << workloads[i] << ": "
                      << results[i].ops << " ops, "
                      << results[i].streamBytes << " bytes";
            if (results[i].droppedChunks)
                std::cout << " (" << results[i].droppedChunks
                          << " chunks / " << results[i].droppedOps
                          << " ops dropped)";
            std::cout << " -> " << ringNameAt(ring_base, i, n) << "\n";
        }
        ShmRing::unlink(ringNameAt(ring_base, i, n));
    }
    return rc;
}

int
cmdAttach(int argc, char **argv)
{
    std::string ring_base;
    size_t producers = 1;
    std::string machines;
    bool mrc = false;
    CurveFlags flags;
    uint64_t timeout_ms = 10000;
    for (int i = 2; i < argc; ++i) {
        if (flags.parse(argc, argv, i))
            continue;
        if (const char *v = flagValue(argv[i], "--ring", argc, argv, i))
            ring_base = v;
        else if (const char *v2 =
                     flagValue(argv[i], "--producers", argc, argv, i))
            producers =
                static_cast<size_t>(parseCount("--producers", v2, 1,
                                               4096));
        else if (const char *v3 =
                     flagValue(argv[i], "--machine", argc, argv, i))
            machines = v3;
        else if (std::strcmp(argv[i], "--mrc") == 0)
            mrc = true;
        else if (const char *v4 = flagValue(argv[i], "--timeout-ms",
                                            argc, argv, i))
            timeout_ms = parseCount("--timeout-ms", v4, 1, 86400000);
        else
            return usage();
    }
    if (ring_base.empty())
        wcrt_fatal("attach needs --ring=NAME");

    std::vector<MachineConfig> configs = parseMachineList(machines);

    // Drain every ring first (rings in parallel — each drain is one
    // cheap memcpy loop), then analyze the buffered streams: analysis
    // replays must not stall a producer on a full ring.
    std::vector<TraceBytes> streams(producers);
    std::vector<char> peer_died(producers);  // written concurrently
    parallelFor(producers, [&](size_t i) {
        ShmRing ring =
            ShmRing::open(ringNameAt(ring_base, i, producers),
                          ShmRing::Role::Consumer, timeout_ms);
        streams[i] = drainRing(ring);
        peer_died[i] = ring.peerDied();
    }, flags.jobs);

    int rc = 0;
    for (size_t i = 0; i < producers; ++i) {
        std::string name = ringNameAt(ring_base, i, producers);
        std::string display = "shm:" + name;
        std::cout << "=== " << display << " ===\n";
        if (peer_died[i])
            std::cout << "warning: producer died mid-stream; analyzing "
                         "the received prefix\n";
        try {
            // Opening validates the whole drained stream (including
            // the truncation a dead producer leaves behind) exactly
            // like the file reader would; the runners then replay
            // copies of this one reader, as `mrc` and `replay` do.
            TraceReader reader(std::move(streams[i]), display);
            std::cout << reader.meta().workload << ": "
                      << reader.opCount() << " ops, "
                      << reader.fileBytes() << " bytes via shm\n";
            if (mrc)
                printCurve(reader.meta().workload, flags,
                           MrcMode::StackDistance, 8,
                           replaySweepLadder(reader, flags.kind,
                                             flags.sizes,
                                             MrcMode::StackDistance,
                                             flags.jobs, 8,
                                             flags.lineBytes));
            else
                printReplayTable(
                    replayOnConfigs(reader, configs, flags.jobs));
        } catch (const TraceFormatError &err) {
            std::cerr << "trace_tool: " << err.what() << "\n";
            rc = 1;
        }
        ShmRing::unlink(name);
        if (i + 1 < producers)
            std::cout << "\n";
    }
    return rc;
}

} // namespace

int
main(int argc, char **argv)
{
    // Peel off the reader-policy flag before command dispatch: it
    // applies to every command, so it sets the process-wide default
    // that TraceReader and the replay runners pick up.
    std::vector<char *> args;
    args.reserve(static_cast<size_t>(argc));
    ReaderOptions opts = defaultReaderOptions();
    for (int i = 0; i < argc; ++i) {
        if (i == 0) {
            args.push_back(argv[i]);
            continue;
        }
        if (const char *v =
                flagValue(argv[i], "--verify-crc", argc, argv, i)) {
            if (!parseCrcMode(v, opts.crc))
                wcrt_fatal("unknown --verify-crc '", v,
                           "' (always or never)");
        } else {
            args.push_back(argv[i]);
        }
    }
    setDefaultReaderOptions(opts);
    argc = static_cast<int>(args.size());
    argv = args.data();

    if (argc < 3)
        return usage();
    std::string cmd = argv[1];
    try {
        if (cmd == "record")
            return cmdRecord(argc, argv);
        if (cmd == "stats")
            return argc == 3 ? cmdStats(argv[2]) : usage();
        if (cmd == "dump") {
            uint64_t limit = 32;
            for (int i = 3; i < argc; ++i) {
                if (const char *v =
                        flagValue(argv[i], "--limit", argc, argv, i))
                    limit = parseCount(
                        "--limit", v, 0,
                        std::numeric_limits<uint64_t>::max());
                else
                    return usage();
            }
            return cmdDump(argv[2], limit);
        }
        if (cmd == "replay") {
            std::string machines;
            unsigned jobs = 0;
            for (int i = 3; i < argc; ++i) {
                if (const char *v =
                        flagValue(argv[i], "--machine", argc, argv, i))
                    machines = v;
                else if (const char *v2 =
                             flagValue(argv[i], "--jobs", argc, argv, i))
                    jobs = parseJobs(v2);
                else
                    return usage();
            }
            return cmdReplay(argv[2], machines, jobs);
        }
        if (cmd == "mrc")
            return cmdMrc(argc, argv);
        if (cmd == "serve")
            return cmdServe(argc, argv);
        if (cmd == "attach") {
            // attach has no positional argument, so the argc >= 3
            // gate above already held (--ring counts as argv[2]).
            return cmdAttach(argc, argv);
        }
    } catch (const TraceFormatError &err) {
        std::cerr << "trace_tool: " << err.what() << "\n";
        return 1;
    }
    return usage();
}
