/**
 * @file
 * One-call trace capture: execute a workload once and persist its
 * entire op stream (plus I/O and data-behaviour accounting) to a
 * `.wtrace` file.
 *
 * The emission flow is byte-for-byte the one `profileWorkload` and
 * `runThroughSink` drive — same driver function, same Tracer — so a
 * replayed trace reproduces a live run exactly.
 */

#ifndef WCRT_TRACEFILE_CAPTURE_HH
#define WCRT_TRACEFILE_CAPTURE_HH

#include <string>

#include "workloads/workload.hh"

namespace wcrt {

/** What one capture produced. */
struct CaptureResult
{
    uint64_t ops = 0;        //!< dynamic instructions recorded
    uint64_t fileBytes = 0;  //!< total trace file size
};

/**
 * Run `workload` once, recording the stream to `path`.
 *
 * The file is written to a temporary name and renamed into place on
 * success, so concurrent readers never observe a half-written trace.
 *
 * @param workload Workload to record (setup() must not have run).
 * @param path Destination trace file.
 * @param scale Dataset scale to store in the trace header.
 */
CaptureResult captureTrace(Workload &workload, const std::string &path,
                           double scale);

} // namespace wcrt

#endif // WCRT_TRACEFILE_CAPTURE_HH
