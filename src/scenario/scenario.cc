#include "scenario/scenario.hh"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>

#include "base/strings.hh"
#include "sim/cache.hh"

namespace wcrt {

const char *
toString(ScenarioKind k)
{
    switch (k) {
      case ScenarioKind::Sweep: return "sweep";
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

/** Keys [scenario] accepts, per kind ("" = any kind). */
const std::map<std::string, std::string> &
scenarioKeyKinds()
{
    static const std::map<std::string, std::string> keys = {
        {"name", ""},          {"kind", ""},
        {"scale-factor", ""},
        {"sweep-kind", "sweep"}, {"mrc-mode", "sweep"},
        {"sizes-kb", "sweep"}, {"assoc", "sweep"},
        {"line-bytes", "sweep"},
        {"machines", "replay"},
    };
    return keys;
}

/**
 * A sweep geometry value in [1, max] (trace_tool's ranges for
 * --sizes, --assoc and --line), or false.
 */
bool
parseGeometry(const std::string &text, uint64_t max, uint32_t &out)
{
    uint64_t v = 0;
    if (!parseDecimalCount(text, 1, max, v))
        return false;
    out = static_cast<uint32_t>(v);
    return true;
}

/**
 * Parse [scenario] into `spec`. Returns false when the kind is missing
 * or unknown: the file then has no kind to judge its kind-specific
 * keys by, so they are skipped instead of checked against a default.
 */
bool
parseScenarioSection(const ScenarioSection &sec, ScenarioSpec &spec,
                     Check &check)
{
    // Kind first: it decides which other keys are legal.
    const ScenarioEntry *kind = sec.find("kind");
    bool known = false;
    if (!kind) {
        check.fail(sec.line, "[scenario] needs a 'kind' key"
                             " (sweep or replay)");
    } else if (kind->value == "sweep") {
        spec.kind = ScenarioKind::Sweep;
        known = true;
    } else if (kind->value == "replay") {
        spec.kind = ScenarioKind::Replay;
        known = true;
    } else {
        check.fail(kind->line, "unknown kind '" + kind->value +
                                   "' (sweep or replay)");
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
            if (known)
                check.fail(e.line, "key '" + e.key + "' is only valid"
                                       " for " + it->second +
                                       " scenarios");
            continue;
        }
        if (e.key == "name") {
            spec.name = e.value;
        } else if (e.key == "kind") {
            // handled above
        } else if (e.key == "scale-factor") {
            if (!parsePositiveDecimal(e.value, spec.scaleFactor))
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
                uint32_t kb = 0;
                if (!parseGeometry(tok, 1u << 30, kb)) {
                    check.fail(e.line,
                               "bad sizes-kb entry '" + tok + "'");
                    continue;
                }
                spec.sizesKb.push_back(kb);
            }
            if (spec.sizesKb.empty())
                check.fail(e.line,
                           "sizes-kb needs at least one capacity");
        } else if (e.key == "assoc") {
            if (!parseGeometry(e.value, 1u << 16, spec.assoc))
                check.fail(e.line, "bad assoc '" + e.value + "'");
        } else if (e.key == "line-bytes") {
            if (!parseGeometry(e.value, 1u << 20, spec.lineBytes))
                check.fail(e.line,
                           "bad line-bytes '" + e.value + "'");
        } else if (e.key == "machines") {
            spec.machines = splitList(e.value);
            if (spec.machines.empty())
                check.fail(e.line,
                           "machines needs at least one name");
        }
    }

    if (spec.name.empty())
        check.fail(sec.line, "[scenario] needs a non-empty 'name'");
    return known;
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
crossValidate(const ScenarioSpec &spec, Check &check)
{
    if (spec.groups.empty())
        check.fail(0, std::string(toString(spec.kind)) +
                          " scenarios need a [workloads] section"
                          " with at least one group");
    if (spec.kind != ScenarioKind::Sweep)
        return;

    // A run dies on a geometry its ladder cannot model: every mode
    // needs power-of-two lines, and the oracle (in oracle and verify
    // cells) cuts each rung into assoc-way sets. The mode axis, when
    // declared, replaces the mrc-mode key.
    bool oracle = spec.mrcMode != MrcMode::StackDistance;
    for (const auto &axis : spec.axes) {
        if (axis.name != "mode")
            continue;
        oracle = false;
        for (const auto &v : axis.values) {
            MrcMode m = MrcMode::StackDistance;
            oracle = oracle || (parseMrcMode(v, m) &&
                                m != MrcMode::StackDistance);
        }
    }
    std::string err =
        cacheGeometryError(spec.lineBytes, 1, spec.lineBytes);
    if (!err.empty()) {
        check.fail(0, "line-bytes: " + err);
        return;
    }
    if (!oracle)
        return;
    for (uint32_t kb : spec.sizesKb) {
        err = cacheGeometryError(uint64_t{kb} * 1024, spec.assoc,
                                 spec.lineBytes);
        if (!err.empty())
            check.fail(0, "oracle rung " + std::to_string(kb) +
                              " KB: " + err);
    }
}

} // namespace

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
    bool kind_known = parseScenarioSection(*scenario, out.spec, check);

    for (const auto &sec : doc.sections) {
        if (sec.name == "scenario")
            continue;
        if (sec.name == "workloads")
            parseWorkloadsSection(sec, out.spec, check);
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

    if (kind_known)
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
        if (name == "scale" || name == "group")
            return true;
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
    if (!has_axis("group")) {
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
                // A declared scale is a strict decimal; the default
                // axis (line 0) renders the already checked base.
                double s = 0.0;
                if (axis.line != 0 && !parsePositiveDecimal(v, s)) {
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
                cell.scale =
                    std::strtod(v.c_str(), nullptr) * spec.scaleFactor;
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
