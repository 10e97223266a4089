#include "scenario/scenario.hh"

#include <cstdio>
#include <map>
#include <sstream>

#include "base/strings.hh"
#include "baselines/baselines.hh"

namespace wcrt {

const char *
toString(ScenarioKind k)
{
    switch (k) {
      case ScenarioKind::Sweep: return "sweep";
      case ScenarioKind::Traffic: return "traffic";
      case ScenarioKind::Replay: return "replay";
    }
    return "?";
}

const ScenarioGroup *
ScenarioSpec::findGroup(const std::string &name) const
{
    for (const auto &g : groups)
        if (g.name == name)
            return &g;
    return nullptr;
}

std::string
ScenarioParse::formatIssues() const
{
    std::ostringstream os;
    for (const auto &i : issues)
        os << i.format(spec.source) << "\n";
    return os.str();
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

namespace {

/** Accumulating issue reporter bound to one parse. */
struct Check
{
    std::vector<ScenarioIssue> &issues;

    void
    fail(int line, std::string msg)
    {
        issues.push_back({line, std::move(msg)});
    }
};

/** Comma-split with per-token trim; empty tokens dropped. */
std::vector<std::string>
splitList(const std::string &text)
{
    std::vector<std::string> out;
    for (const std::string &tok : split(text, ',')) {
        std::string t;
        size_t b = tok.find_first_not_of(" \t");
        size_t e = tok.find_last_not_of(" \t");
        if (b != std::string::npos)
            t = tok.substr(b, e - b + 1);
        if (!t.empty())
            out.push_back(std::move(t));
    }
    return out;
}

bool
parseDouble(const std::string &text, double &out)
{
    std::istringstream is(text);
    return static_cast<bool>(is >> out) && is.eof();
}

bool
parseUint(const std::string &text, uint64_t &out)
{
    std::istringstream is(text);
    return static_cast<bool>(is >> out) && is.eof();
}

bool
parseBool(const std::string &text, bool &out)
{
    if (text == "on" || text == "true" || text == "1") {
        out = true;
        return true;
    }
    if (text == "off" || text == "false" || text == "0") {
        out = false;
        return true;
    }
    return false;
}

/** Keys [scenario] accepts, per kind ("" = any kind). */
const std::map<std::string, std::string> &
scenarioKeyKinds()
{
    static const std::map<std::string, std::string> keys = {
        {"name", ""},          {"kind", ""},
        {"seed", ""},          {"scale-factor", ""},
        {"sweep-kind", "sweep"}, {"mrc-mode", "sweep"},
        {"sizes-kb", "sweep"}, {"assoc", "sweep"},
        {"line-bytes", "sweep"},
        {"target", "traffic"}, {"actors", "traffic"},
        {"probe-ops", "traffic"}, {"key-gen", "traffic"},
        {"query-gen", "traffic"}, {"doc-gen", "traffic"},
        {"machines", "replay"},
    };
    return keys;
}

void
parseScenarioSection(const ScenarioSection &sec, ScenarioSpec &spec,
                     Check &check)
{
    // Kind first: it decides which other keys are legal.
    const ScenarioEntry *kind = sec.find("kind");
    if (!kind) {
        check.fail(sec.line, "[scenario] needs a 'kind' key"
                             " (sweep, traffic or replay)");
    } else if (kind->value == "sweep") {
        spec.kind = ScenarioKind::Sweep;
    } else if (kind->value == "traffic") {
        spec.kind = ScenarioKind::Traffic;
    } else if (kind->value == "replay") {
        spec.kind = ScenarioKind::Replay;
    } else {
        check.fail(kind->line, "unknown kind '" + kind->value +
                                   "' (sweep, traffic or replay)");
    }
    const std::string kind_name = toString(spec.kind);

    for (const auto &e : sec.entries) {
        auto it = scenarioKeyKinds().find(e.key);
        if (it == scenarioKeyKinds().end()) {
            check.fail(e.line, "unknown key '" + e.key +
                                   "' in [scenario]");
            continue;
        }
        if (!it->second.empty() && it->second != kind_name) {
            check.fail(e.line, "key '" + e.key + "' is only valid"
                                   " for " + it->second +
                                   " scenarios");
            continue;
        }
        if (e.key == "name") {
            spec.name = e.value;
        } else if (e.key == "kind") {
            // handled above
        } else if (e.key == "seed") {
            if (!parseUint(e.value, spec.seed))
                check.fail(e.line, "bad seed '" + e.value + "'");
        } else if (e.key == "scale-factor") {
            if (!parseDouble(e.value, spec.scaleFactor) ||
                spec.scaleFactor <= 0.0)
                check.fail(e.line,
                           "bad scale-factor '" + e.value + "'");
        } else if (e.key == "sweep-kind") {
            if (e.value == "instr")
                spec.sweepKind = SweepKind::Instruction;
            else if (e.value == "data")
                spec.sweepKind = SweepKind::Data;
            else if (e.value == "unified")
                spec.sweepKind = SweepKind::Unified;
            else
                check.fail(e.line,
                           "unknown sweep-kind '" + e.value +
                               "' (instr, data or unified)");
        } else if (e.key == "mrc-mode") {
            if (!parseMrcMode(e.value, spec.mrcMode))
                check.fail(e.line,
                           "unknown mrc-mode '" + e.value +
                               "' (stack, oracle or verify)");
        } else if (e.key == "sizes-kb") {
            spec.sizesKb.clear();
            for (const std::string &tok : splitList(e.value)) {
                uint64_t kb = 0;
                if (!parseUint(tok, kb) || kb == 0) {
                    check.fail(e.line,
                               "bad sizes-kb entry '" + tok + "'");
                    continue;
                }
                spec.sizesKb.push_back(static_cast<uint32_t>(kb));
            }
            if (spec.sizesKb.empty())
                check.fail(e.line,
                           "sizes-kb needs at least one capacity");
        } else if (e.key == "assoc") {
            uint64_t v = 0;
            if (!parseUint(e.value, v) || v == 0)
                check.fail(e.line, "bad assoc '" + e.value + "'");
            else
                spec.assoc = static_cast<uint32_t>(v);
        } else if (e.key == "line-bytes") {
            uint64_t v = 0;
            if (!parseUint(e.value, v) || v == 0)
                check.fail(e.line,
                           "bad line-bytes '" + e.value + "'");
            else
                spec.lineBytes = static_cast<uint32_t>(v);
        } else if (e.key == "target") {
            spec.target = e.value;
        } else if (e.key == "actors") {
            uint64_t v = 0;
            if (!parseUint(e.value, v) || v == 0)
                check.fail(e.line, "bad actors '" + e.value + "'");
            else
                spec.actors = static_cast<unsigned>(v);
        } else if (e.key == "probe-ops") {
            if (!parseUint(e.value, spec.probeOps) ||
                spec.probeOps == 0)
                check.fail(e.line,
                           "bad probe-ops '" + e.value + "'");
        } else if (e.key == "key-gen") {
            spec.keyGen = e.value;
        } else if (e.key == "query-gen") {
            spec.queryGen = e.value;
        } else if (e.key == "doc-gen") {
            spec.docGen = e.value;
        } else if (e.key == "machines") {
            spec.machines = splitList(e.value);
            if (spec.machines.empty())
                check.fail(e.line,
                           "machines needs at least one name");
        }
    }

    if (spec.name.empty())
        check.fail(sec.line, "[scenario] needs a non-empty 'name'");
}

void
parseWorkloadsSection(const ScenarioSection &sec, ScenarioSpec &spec,
                      Check &check)
{
    for (const auto &e : sec.entries) {
        if (!startsWith(e.key, "group ")) {
            check.fail(e.line,
                       "expected 'group <Name> = a, b, ...' in"
                       " [workloads], got key '" + e.key + "'");
            continue;
        }
        ScenarioGroup group;
        group.name = e.key.substr(6);
        if (group.name.empty()) {
            check.fail(e.line, "empty group name");
            continue;
        }
        if (spec.findGroup(group.name)) {
            check.fail(e.line,
                       "duplicate group '" + group.name + "'");
            continue;
        }
        std::vector<std::string> members = splitList(e.value);
        if (members.empty())
            check.fail(e.line,
                       "group '" + group.name + "' has no members");
        for (const std::string &m : members) {
            const WorkloadEntry *entry = lookupWorkload(m);
            if (!entry) {
                check.fail(e.line, "unknown workload '" + m +
                                       "' in group '" + group.name +
                                       "'");
                continue;
            }
            group.entries.push_back(*entry);
        }
        spec.groups.push_back(std::move(group));
    }
}

void
parseGeneratorsSection(const ScenarioSection &sec, ScenarioSpec &spec,
                       Check &check)
{
    for (const auto &e : sec.entries) {
        ValueGen gen;
        std::string err;
        if (!ValueGen::parse(e.value, gen, err)) {
            check.fail(e.line, "generator '" + e.key + "': " + err);
            continue;
        }
        spec.generators.emplace(e.key, std::move(gen));
    }
}

void
parsePhasesSection(const ScenarioSection &sec, ScenarioSpec &spec,
                   Check &check)
{
    for (const auto &e : sec.entries) {
        if (!startsWith(e.key, "phase ")) {
            check.fail(e.line,
                       "expected 'phase <name> = <arrival>, ...' in"
                       " [phases], got key '" + e.key + "'");
            continue;
        }
        ScenarioPhase phase;
        phase.name = e.key.substr(6);
        std::vector<std::string> parts = splitList(e.value);
        if (parts.empty()) {
            check.fail(e.line, "phase '" + phase.name +
                                   "' needs an arrival kind");
            continue;
        }
        const std::string &arrival = parts[0];
        if (arrival == "closed")
            phase.arrival = ArrivalKind::ClosedLoop;
        else if (arrival == "poisson")
            phase.arrival = ArrivalKind::PoissonOpen;
        else if (arrival == "token-bucket")
            phase.arrival = ArrivalKind::TokenBucket;
        else {
            check.fail(e.line, "unknown arrival '" + arrival +
                                   "' (closed, poisson or"
                                   " token-bucket)");
            continue;
        }

        bool bad = false;
        for (size_t i = 1; i < parts.size(); ++i) {
            size_t eq = parts[i].find('=');
            std::string k = parts[i].substr(0, eq);
            std::string v = eq == std::string::npos
                                ? ""
                                : parts[i].substr(eq + 1);
            bool ok = eq != std::string::npos;
            if (!ok) {
                // fall through to the unknown-option report below
            } else if (k == "ops") {
                ok = parseUint(v, phase.ops) && phase.ops > 0;
            } else if (k == "think-ns") {
                ok = parseDouble(v, phase.thinkNs) &&
                     phase.thinkNs >= 0;
            } else if (k == "rate-hz") {
                ok = parseDouble(v, phase.rateHz) && phase.rateHz > 0;
            } else if (k == "rate-x") {
                ok = parseDouble(v, phase.rateX) && phase.rateX > 0;
            } else if (k == "burst") {
                uint64_t b = 0;
                ok = parseUint(v, b) && b > 0;
                phase.burst = static_cast<uint32_t>(b);
            } else if (k == "record") {
                ok = parseBool(v, phase.record);
            } else {
                ok = false;
            }
            if (!ok) {
                check.fail(e.line,
                           "bad phase option '" + parts[i] +
                               "' in phase '" + phase.name + "'");
                bad = true;
            }
        }
        if (phase.ops == 0) {
            check.fail(e.line, "phase '" + phase.name +
                                   "' needs ops=<N>");
            bad = true;
        }
        bool open = phase.arrival != ArrivalKind::ClosedLoop;
        if (open && phase.rateHz == 0.0 && phase.rateX == 0.0) {
            check.fail(e.line, "open-loop phase '" + phase.name +
                                   "' needs rate-hz or rate-x");
            bad = true;
        }
        if (phase.rateHz > 0.0 && phase.rateX > 0.0) {
            check.fail(e.line, "phase '" + phase.name +
                                   "' has both rate-hz and rate-x");
            bad = true;
        }
        if (!open && (phase.rateHz > 0.0 || phase.rateX > 0.0)) {
            check.fail(e.line, "closed phase '" + phase.name +
                                   "' does not take a rate");
            bad = true;
        }
        if (!bad)
            spec.phases.push_back(std::move(phase));
    }
}

void
parseMatrixSection(const ScenarioSection &sec, ScenarioSpec &spec,
                   Check &check)
{
    for (const auto &e : sec.entries) {
        if (e.key != "scale" && e.key != "group" && e.key != "mode" &&
            e.key != "machine") {
            check.fail(e.line, "unknown matrix axis '" + e.key +
                                   "' (scale, group, mode or"
                                   " machine)");
            continue;
        }
        ScenarioAxis axis;
        axis.name = e.key;
        axis.values = splitList(e.value);
        axis.line = e.line;
        if (axis.values.empty())
            check.fail(e.line,
                       "matrix axis '" + e.key + "' has no values");
        spec.axes.push_back(std::move(axis));
    }
}

/** Post-section semantic checks that need the whole spec. */
void
crossValidate(ScenarioSpec &spec, Check &check)
{
    switch (spec.kind) {
      case ScenarioKind::Sweep:
      case ScenarioKind::Replay:
        if (spec.groups.empty())
            check.fail(0, std::string(toString(spec.kind)) +
                              " scenarios need a [workloads] section"
                              " with at least one group");
        if (!spec.phases.empty())
            check.fail(0, "[phases] is only valid for traffic"
                          " scenarios");
        break;
      case ScenarioKind::Traffic:
        if (spec.target.empty())
            check.fail(0, "traffic scenarios need a 'target' key");
        if (spec.phases.empty())
            check.fail(0, "traffic scenarios need a [phases] section"
                          " with at least one phase");
        break;
    }

    auto check_gen = [&](const std::string &ref, const char *key) {
        if (ref.empty())
            return;
        if (!spec.generators.count(ref))
            check.fail(0, std::string(key) + " = " + ref +
                              " names no [generators] entry");
    };
    check_gen(spec.keyGen, "key-gen");
    check_gen(spec.queryGen, "query-gen");
    check_gen(spec.docGen, "doc-gen");
    if (!spec.docGen.empty() && spec.generators.count(spec.docGen)) {
        GenKind k = spec.generators.at(spec.docGen).kind();
        if (k != GenKind::Bytes && k != GenKind::Words)
            check.fail(0, "doc-gen = " + spec.docGen +
                              " must be a bytes() or words()"
                              " generator");
    }
    if (!spec.keyGen.empty() && spec.target != "kv-get")
        check.fail(0, "key-gen is only honoured by the kv-get"
                      " target");
    if (!spec.queryGen.empty() && spec.target != "sql-filter")
        check.fail(0, "query-gen is only honoured by the sql-filter"
                      " target");
}

} // namespace

bool
parseMachine(const std::string &name, MachineConfig &out)
{
    if (name == "xeon") {
        out = xeonE5645();
        return true;
    }
    if (name == "atom") {
        out = atomD510();
        return true;
    }
    // sim<KB>, with trace_tool --machine's range of 1..2^30 KB.
    uint64_t kb = 0;
    if (name.rfind("sim", 0) != 0 || !parseUint(name.substr(3), kb) ||
        kb == 0 || kb > (1u << 30))
        return false;
    out = atomInOrderSim(static_cast<uint32_t>(kb));
    return true;
}

ScenarioParse
parseScenario(const ScenarioDoc &doc)
{
    ScenarioParse out;
    out.spec.source = doc.source;
    out.issues = doc.issues;  // structural problems come along
    Check check{out.issues};

    const ScenarioSection *scenario = doc.find("scenario");
    if (!scenario) {
        check.fail(0, "missing required [scenario] section");
        return out;
    }
    parseScenarioSection(*scenario, out.spec, check);

    for (const auto &sec : doc.sections) {
        if (sec.name == "scenario")
            continue;
        if (sec.name == "workloads")
            parseWorkloadsSection(sec, out.spec, check);
        else if (sec.name == "generators")
            parseGeneratorsSection(sec, out.spec, check);
        else if (sec.name == "phases")
            parsePhasesSection(sec, out.spec, check);
        else if (sec.name == "matrix")
            parseMatrixSection(sec, out.spec, check);
        else
            check.fail(sec.line,
                       "unknown section [" + sec.name + "]");
    }

    if (out.spec.sizesKb.empty())
        out.spec.sizesKb = paperSweepSizesKb();
    if (out.spec.machines.empty())
        out.spec.machines = {"xeon", "atom"};

    crossValidate(out.spec, check);
    return out;
}

ScenarioParse
loadScenario(const std::string &path)
{
    return parseScenario(parseScenarioFile(path));
}

namespace {

std::string
renderScale(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", v);
    return buf;
}

} // namespace

std::vector<ScenarioCell>
expandScenario(const ScenarioSpec &spec, double base_scale,
               std::vector<ScenarioIssue> &issues)
{
    Check check{issues};

    // Which axes this kind understands.
    auto axis_legal = [&](const std::string &name) {
        if (name == "scale")
            return true;
        if (name == "group")
            return spec.kind != ScenarioKind::Traffic;
        if (name == "mode")
            return spec.kind == ScenarioKind::Sweep;
        if (name == "machine")
            return spec.kind == ScenarioKind::Replay;
        return false;
    };

    // Start from the declared axes, then append defaults (canonical
    // order) for the relevant axes the file leaves out.
    std::vector<ScenarioAxis> axes;
    for (const auto &axis : spec.axes) {
        if (!axis_legal(axis.name)) {
            check.fail(axis.line,
                       "matrix axis '" + axis.name +
                           "' is not valid for " +
                           toString(spec.kind) + " scenarios");
            continue;
        }
        for (const auto &existing : axes) {
            if (existing.name == axis.name) {
                check.fail(axis.line, "duplicate matrix axis '" +
                                          axis.name + "'");
            }
        }
        if (axis.values.empty())
            continue;  // already reported at parse time
        axes.push_back(axis);
    }
    auto has_axis = [&](const char *name) {
        for (const auto &a : axes)
            if (a.name == name)
                return true;
        return false;
    };
    if (!has_axis("scale"))
        axes.push_back({"scale", {renderScale(base_scale)}, 0});
    if (!has_axis("group") && spec.kind != ScenarioKind::Traffic) {
        ScenarioAxis g{"group", {}, 0};
        for (const auto &group : spec.groups)
            g.values.push_back(group.name);
        axes.push_back(std::move(g));
    }
    if (!has_axis("mode") && spec.kind == ScenarioKind::Sweep)
        axes.push_back({"mode", {toString(spec.mrcMode)}, 0});
    if (!has_axis("machine") && spec.kind == ScenarioKind::Replay)
        axes.push_back({"machine", spec.machines, 0});

    // Validate every axis value before expanding, so one bad token
    // reports once instead of once per sibling combination.
    bool bad = false;
    for (const auto &axis : axes) {
        if (axis.values.empty()) {
            check.fail(axis.line, "matrix axis '" + axis.name +
                                      "' expands to no values");
            bad = true;
        }
        for (const auto &v : axis.values) {
            if (axis.name == "scale") {
                double s = 0.0;
                if (!parseDouble(v, s) || s <= 0.0) {
                    check.fail(axis.line,
                               "bad scale value '" + v + "'");
                    bad = true;
                }
            } else if (axis.name == "group") {
                if (!spec.findGroup(v)) {
                    check.fail(axis.line, "matrix group '" + v +
                                              "' is not declared in"
                                              " [workloads]");
                    bad = true;
                }
            } else if (axis.name == "mode") {
                MrcMode m;
                if (!parseMrcMode(v, m)) {
                    check.fail(axis.line,
                               "bad mode value '" + v + "'");
                    bad = true;
                }
            } else if (axis.name == "machine") {
                MachineConfig m;
                if (!parseMachine(v, m)) {
                    check.fail(axis.line,
                               "bad machine value '" + v +
                                   "' (xeon, atom or sim<KB>)");
                    bad = true;
                }
            }
        }
    }
    if (bad)
        return {};

    // Odometer cross-product: first axis varies slowest.
    size_t total = 1;
    for (const auto &axis : axes)
        total *= axis.values.size();
    if (total == 0)
        return {};

    std::vector<ScenarioCell> cells;
    cells.reserve(total);
    for (size_t i = 0; i < total; ++i) {
        ScenarioCell cell;
        cell.index = i;
        cell.mode = spec.mrcMode;

        size_t rem = i;
        size_t stride = total;
        std::vector<std::pair<std::string, std::string>> labels;
        for (const auto &axis : axes) {
            stride /= axis.values.size();
            const std::string &v = axis.values[rem / stride];
            rem %= stride;
            labels.emplace_back(axis.name, v);
            if (axis.name == "scale") {
                double s = 0.0;
                parseDouble(v, s);
                cell.scale = s * spec.scaleFactor;
            } else if (axis.name == "group") {
                cell.group = *spec.findGroup(v);
            } else if (axis.name == "mode") {
                parseMrcMode(v, cell.mode);
            } else if (axis.name == "machine") {
                cell.machineName = v;
                parseMachine(v, cell.machine);
            }
        }
        // Stable label order regardless of axis declaration order.
        for (const char *name : {"group", "scale", "mode", "machine"}) {
            for (const auto &[k, v] : labels) {
                if (k == name) {
                    if (!cell.label.empty())
                        cell.label += " ";
                    cell.label += k + std::string("=") + v;
                }
            }
        }
        cells.push_back(std::move(cell));
    }
    return cells;
}

} // namespace wcrt
