#include "tracefile/capture.hh"

#include <unistd.h>

#include <filesystem>

#include "tracefile/trace_writer.hh"

namespace wcrt {

CaptureResult
captureTrace(Workload &workload, const std::string &path, double scale)
{
    DriverFrame frame(workload);

    TraceMeta meta;
    meta.workload = workload.name();
    meta.category = workload.category();
    meta.stackKind = workload.stack();
    meta.scale = scale;

    std::string tmp = path + ".tmp-" + std::to_string(::getpid());
    CaptureResult result;
    try {
        {
            TraceWriter writer(tmp, meta, frame.env.layout);
            frame.run(writer);
            writer.finish(frame.env.io, frame.env.data);
            result.ops = writer.opsWritten();
            result.fileBytes = writer.bytesWritten();
        }
        std::filesystem::rename(tmp, path);
    } catch (...) {
        // A failed capture must not leave its half-written tmp file
        // polluting the trace-cache directory.
        std::error_code ec;
        std::filesystem::remove(tmp, ec);
        throw;
    }
    return result;
}

} // namespace wcrt
