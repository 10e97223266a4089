#include "tracefile/trace_source.hh"

#include <cstring>
#include <fstream>
#include <mutex>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#define WCRT_HAS_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define WCRT_HAS_MMAP 0
#endif

namespace wcrt {

namespace {

/**
 * The fallback transport: buffered ifstream reads into a reusable
 * scratch buffer, one copy per view. This is byte-for-byte the
 * original TraceReader read path, kept for platforms without mmap and
 * as the reference implementation the mmap path is tested against.
 */
class StreamSource : public TraceSource
{
  public:
    explicit StreamSource(const std::string &path)
        : in(path, std::ios::binary), filePath(path)
    {
        if (!in)
            throw TraceFormatError("cannot open trace file: " + path);
        in.seekg(0, std::ios::end);
        std::streamoff end = in.tellg();
        // A failed tellg() returns -1; casting that straight to
        // uint64_t would disarm every downstream truncation check.
        if (!in || end < 0)
            throw TraceFormatError(
                "cannot determine trace file size: " + path);
        fileBytes = static_cast<uint64_t>(end);
        in.seekg(0, std::ios::beg);
    }

    void
    seek(uint64_t off) override
    {
        in.clear();
        in.seekg(static_cast<std::streamoff>(off));
        pos = off;
    }

    const uint8_t *
    view(size_t n) override
    {
        if (buffer.size() < n)
            buffer.resize(n);
        if (n > 0 &&
            !in.read(reinterpret_cast<char *>(buffer.data()),
                     static_cast<std::streamsize>(n)))
            throw TraceFormatError("trace file read failed: " +
                                   filePath);
        pos += n;
        return buffer.data();
    }

    const char *name() const override { return "stream"; }

  private:
    std::ifstream in;
    std::string filePath;
    std::vector<uint8_t> buffer;
};

#if WCRT_HAS_MMAP

/**
 * The zero-copy transport: the whole file is mapped read-only once
 * and every view is a pointer into the mapping, so chunk payloads
 * reach the SWAR fast cursor without an intermediate buffer. The
 * format's bounds discipline (payloadBytes checked against the file
 * size before any view, `maxEncodedOpBytes` guarding every fast-path
 * load) is what keeps all decode reads inside the mapping.
 */
class MmapSource : public TraceSource
{
  public:
    explicit MmapSource(const std::string &path)
    {
        int fd = ::open(path.c_str(), O_RDONLY);
        if (fd < 0)
            throw TraceFormatError("cannot open trace file: " + path);
        struct stat st;
        if (::fstat(fd, &st) != 0 || st.st_size < 0) {
            ::close(fd);
            throw TraceFormatError(
                "cannot determine trace file size: " + path);
        }
        fileBytes = static_cast<uint64_t>(st.st_size);
        if (fileBytes > 0) {
            void *m = ::mmap(nullptr, fileBytes, PROT_READ,
                             MAP_PRIVATE, fd, 0);
            if (m == MAP_FAILED) {
                ::close(fd);
                throw TraceFormatError("cannot mmap trace file: " +
                                       path);
            }
            base = static_cast<const uint8_t *>(m);
            // Replay is a front-to-back pass (often repeated);
            // advisory only, so failure is ignored.
            ::madvise(const_cast<uint8_t *>(base), fileBytes,
                      MADV_SEQUENTIAL);
        }
        ::close(fd);  // the mapping outlives the descriptor
    }

    ~MmapSource() override
    {
        if (base)
            ::munmap(const_cast<uint8_t *>(base), fileBytes);
    }

    MmapSource(const MmapSource &) = delete;
    MmapSource &operator=(const MmapSource &) = delete;

    void seek(uint64_t off) override { pos = off; }

    const uint8_t *
    view(size_t n) override
    {
        const uint8_t *p = base + pos;
        pos += n;
        return p;
    }

    const char *name() const override { return "mmap"; }

  private:
    const uint8_t *base = nullptr;
};

#endif // WCRT_HAS_MMAP

std::mutex g_policy_mutex;
ReaderOptions g_default_options;

} // namespace

const char *
toString(TraceIo io)
{
    switch (io) {
      case TraceIo::Stream:
        return "stream";
      case TraceIo::Mmap:
        return "mmap";
      default:
        return "auto";
    }
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
parseTraceIo(const std::string &name, TraceIo &out)
{
    if (name == "auto") {
        out = TraceIo::Auto;
    } else if (name == "stream") {
        out = TraceIo::Stream;
    } else if (name == "mmap") {
        out = TraceIo::Mmap;
    } else {
        return false;
    }
    return true;
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
    return WCRT_HAS_MMAP != 0;
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

std::unique_ptr<TraceSource>
openTraceSource(const std::string &path, TraceIo io)
{
#if WCRT_HAS_MMAP
    if (io == TraceIo::Mmap || io == TraceIo::Auto)
        return std::make_unique<MmapSource>(path);
#else
    if (io == TraceIo::Mmap)
        throw TraceFormatError(
            "mmap trace io is not supported on this platform: " + path);
#endif
    return std::make_unique<StreamSource>(path);
}

} // namespace wcrt
