#include "tracefile/trace_source.hh"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <mutex>

namespace wcrt {

namespace {

std::mutex g_policy_mutex;
ReaderOptions g_default_options;

} // namespace

const char *
toString(TraceIo)
{
    return "auto";
}

const char *
toString(CrcMode crc)
{
    switch (crc) {
      case CrcMode::Never:
        return "never";
      default:
        return "always";
    }
}

bool
parseCrcMode(const std::string &name, CrcMode &out)
{
    if (name == "always") {
        out = CrcMode::Always;
    } else if (name == "never") {
        out = CrcMode::Never;
    } else {
        return false;
    }
    return true;
}

bool
mmapAvailable()
{
    return true;
}

ReaderOptions
defaultReaderOptions()
{
    std::lock_guard<std::mutex> lock(g_policy_mutex);
    return g_default_options;
}

void
setDefaultReaderOptions(const ReaderOptions &opts)
{
    std::lock_guard<std::mutex> lock(g_policy_mutex);
    g_default_options = opts;
}

TraceBytes::TraceBytes(std::vector<uint8_t> bytes)
    : length(bytes.size())
{
    auto owned =
        std::make_shared<const std::vector<uint8_t>>(std::move(bytes));
    base = std::shared_ptr<const uint8_t>(owned, owned->data());
}

TraceBytes
TraceBytes::map(const std::string &path)
{
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        throw TraceFormatError("cannot open trace file: " + path);
    struct stat st;
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
        ::close(fd);
        throw TraceFormatError("cannot determine trace file size: " +
                               path);
    }
    TraceBytes view;
    view.length = static_cast<uint64_t>(st.st_size);
    view.isMapped = true;
    if (view.length > 0) {
        void *m = ::mmap(nullptr, view.length, PROT_READ, MAP_PRIVATE,
                         fd, 0);
        if (m == MAP_FAILED) {
            ::close(fd);
            throw TraceFormatError("cannot mmap trace file: " + path);
        }
        // Replay is a front-to-back pass (often repeated); advisory
        // only, so failure is ignored.
        ::madvise(m, view.length, MADV_SEQUENTIAL);
        view.base = std::shared_ptr<const uint8_t>(
            static_cast<const uint8_t *>(m),
            [n = view.length](const uint8_t *p) {
                ::munmap(const_cast<uint8_t *>(p), n);
            });
    }
    ::close(fd);  // the mapping outlives the descriptor
    return view;
}

} // namespace wcrt
