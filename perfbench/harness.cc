#include "harness.hh"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

double
wallNow()
{
    using namespace std::chrono;
    return duration<double>(steady_clock::now().time_since_epoch())
        .count();
}

double
cpuNow()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;  // kB
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // kB on Linux
}

bool
resetPeakRss()
{
    // Writing 5 to clear_refs resets VmHWM to the current RSS.
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";
    clear.flush();
    return static_cast<bool>(clear);
}

SpanLog::SpanLog() : origin(wallNow()) {}

int
SpanLog::open(std::string name, std::string item)
{
    Span s;
    s.name = std::move(name);
    s.item = std::move(item);
    s.parent = current;
    s.cpuStart = cpuNow();
    s.start = wallNow() - origin;
    log.push_back(std::move(s));
    current = static_cast<int>(log.size()) - 1;
    return current;
}

void
SpanLog::close(int id)
{
    if (id != current)
        throw std::logic_error("span closed out of order: " +
                               log.at(static_cast<size_t>(id)).name);
    Span &s = log[static_cast<size_t>(id)];
    s.end = wallNow() - origin;
    s.cpuEnd = cpuNow();
    current = s.parent;
}

double
SpanLog::total(const std::string &name) const
{
    double sum = 0.0;
    for (const auto &s : log)
        if (s.name == name)
            sum += s.seconds();
    return sum;
}

std::vector<double>
SpanLog::durations(const std::string &name) const
{
    std::vector<double> out;
    for (const auto &s : log)
        if (s.name == name)
            out.push_back(s.seconds());
    return out;
}

double
SpanLog::selfSeconds(int id) const
{
    // Spans are recorded on one thread, so children never overlap and
    // the interval they cover is the sum of their durations.
    double self = log.at(static_cast<size_t>(id)).seconds();
    for (const auto &s : log)
        if (s.parent == id)
            self -= s.seconds();
    return self;
}

bool
SpanLog::within(int id, int root) const
{
    for (int i = id; i >= 0; i = log[static_cast<size_t>(i)].parent)
        if (i == root)
            return true;
    return false;
}

std::map<std::string, double>
SpanLog::selfByLayer(int root) const
{
    std::map<std::string, double> out;
    for (size_t i = 0; i < log.size(); ++i) {
        int id = static_cast<int>(i);
        if (within(id, root))
            out[log[i].layer()] += selfSeconds(id);
    }
    return out;
}

void
Outcome::item(bool ok, const std::string &what, const std::string &reason)
{
    ++tried;
    if (ok)
        return;
    ++bad;
    if (why.size() < 20)
        why.push_back(what + ": " + reason);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        throw std::logic_error("median of an empty sample");
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
maximum(const std::vector<double> &v)
{
    return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

Digest &
Digest::add(const std::string &s)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    h ^= 0xff;  // separator, so "ab"+"c" differs from "a"+"bc"
    h *= 1099511628211ull;
    return *this;
}

Digest &
Digest::add(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return add(std::string(buf));
}

Digest &
Digest::add(uint64_t v)
{
    return add(std::to_string(v));
}

std::string
Digest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (unsigned char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += static_cast<char>(c);
        } else if (c < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += static_cast<char>(c);
        }
    }
    return out + "\"";
}

} // namespace perfbench
