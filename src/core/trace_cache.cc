#include "core/trace_cache.hh"

#include <cctype>
#include <cstdlib>
#include <filesystem>

#include "base/table.hh"
#include "tracefile/capture.hh"
#include "tracefile/trace_reader.hh"

namespace wcrt {

TraceCache::TraceCache(std::string dir)
    : cacheDir(dir.empty() ? defaultDir() : std::move(dir))
{
    std::filesystem::create_directories(cacheDir);
}

std::string
TraceCache::defaultDir()
{
    if (const char *d = std::getenv("WCRT_TRACE_DIR"); d && *d)
        return d;
    return (std::filesystem::temp_directory_path() / "wcrt-traces")
        .string();
}

std::string
TraceCache::path(const std::string &key, double scale) const
{
    std::string safe;
    safe.reserve(key.size());
    for (char c : key)
        safe.push_back(std::isalnum(static_cast<unsigned char>(c)) ||
                               c == '.' || c == '-'
                           ? c
                           : '_');
    return (std::filesystem::path(cacheDir) /
            (safe + "-s" + formatFixed(scale, 4) + ".wtrace"))
        .string();
}

bool
TraceCache::has(const std::string &key, double scale) const
{
    std::string file = path(key, scale);
    if (!std::filesystem::exists(file))
        return false;
    try {
        TraceReader reader(file);
        return true;
    } catch (const TraceFormatError &) {
        return false;
    }
}

std::string
TraceCache::ensure(const std::string &key, double scale,
                   const std::function<WorkloadPtr()> &make,
                   bool *captured)
{
    std::string file = path(key, scale);
    if (has(key, scale)) {
        if (captured)
            *captured = false;
        return file;
    }
    WorkloadPtr workload = make();
    captureTrace(*workload, file, scale);
    if (captured)
        *captured = true;
    return file;
}

} // namespace wcrt
