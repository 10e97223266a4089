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

ServeResult
serveTrace(Workload &workload, ShmRing &ring, double scale,
           ShmPolicy policy)
{
    // Liveness must not depend on data flow: workload setup and the
    // gaps between chunk flushes can easily outlast the heartbeat
    // timeout, and an attached analyzer would wrongly truncate a
    // healthy stream. The background beater keeps the producer fresh
    // whenever this process is alive (idempotent if already started).
    ring.startHeartbeat();

    DriverFrame frame(workload);

    TraceMeta meta;
    meta.workload = workload.name();
    meta.category = workload.category();
    meta.stackKind = workload.stack();
    meta.scale = scale;

    ShmChunkSink sink(ring, meta, frame.env.layout, policy);
    frame.run(sink);
    sink.finish(frame.env.io, frame.env.data);

    ServeResult result;
    result.ops = sink.opsStreamed();
    result.streamBytes = sink.bytesStreamed();
    result.droppedOps = sink.opsDropped();
    result.droppedChunks = sink.chunksDropped();
    return result;
}

} // namespace wcrt
