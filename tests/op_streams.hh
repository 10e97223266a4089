/**
 * @file
 * The two seeded micro-op streams the SimCpu tests replay — a random
 * stream (scattered data, every op kind) and a streaming one (strided
 * cursors that confirm the prefetcher, plus random chases) — and the
 * helpers tests capture streams with: a recording sink and
 * per-process temp paths.
 */

#ifndef WCRT_TESTS_OP_STREAMS_HH
#define WCRT_TESTS_OP_STREAMS_HH

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "base/rng.hh"
#include "trace/microop.hh"

namespace wcrt {

/** Sink that keeps every op it receives, for op-for-op comparison. */
class RecordingSink : public TraceSink
{
  public:
    void consume(const MicroOp &op) override { ops.push_back(op); }

    std::vector<MicroOp> ops;
};

/**
 * `<temp dir>/wcrt-tests-<pid>/<name>`: a scratch path no other test
 * process shares, so suites running at once never overwrite each
 * other's files. The directory is made on first use and removed, with
 * whatever a test left in it, when the process exits.
 */
inline std::string
testTempPath(const std::string &name)
{
    struct Dir
    {
        std::filesystem::path path =
            std::filesystem::temp_directory_path() /
            ("wcrt-tests-" + std::to_string(::getpid()));
        Dir() { std::filesystem::create_directories(path); }
        Dir(const Dir &) = delete;
        Dir &operator=(const Dir &) = delete;
        ~Dir()
        {
            std::error_code ec;
            std::filesystem::remove_all(path, ec);
        }
    };
    static const Dir dir;
    return (dir.path / name).string();
}

/** Stream length chosen so every tested block size ends ragged. */
inline constexpr size_t kStreamOps = 10000;

/**
 * A SimCpu-shaped synthetic stream: loads, stores, branches, calls,
 * FP work and address arithmetic over a few MB of data.
 */
inline std::vector<MicroOp>
syntheticStream(size_t count)
{
    Rng rng(23);
    std::vector<MicroOp> ops(count);
    for (size_t i = 0; i < ops.size(); ++i) {
        MicroOp &op = ops[i];
        op.pc = 0x400000 + (i % 4093) * 4;
        uint64_t pick = rng.nextBelow(100);
        if (pick < 25) {
            op.kind = OpKind::Load;
            op.memAddr = rng.nextBelow(1 << 22);
            op.memSize = 8;
        } else if (pick < 35) {
            op.kind = OpKind::Store;
            op.memAddr = rng.nextBelow(1 << 22);
            op.memSize = 8;
        } else if (pick < 50) {
            op.kind = OpKind::BranchCond;
            op.taken = rng.nextBool(0.4);
            op.target = 0x400000 + rng.nextBelow(16384);
        } else if (pick < 53) {
            op.kind = OpKind::Call;
            op.target = 0x500000 + rng.nextBelow(4096);
            op.taken = true;
        } else if (pick < 56) {
            op.kind = OpKind::Return;
            op.target = 0x400000 + rng.nextBelow(16384);
            op.taken = true;
        } else if (pick < 64) {
            op.kind = pick < 60 ? OpKind::FpMul : OpKind::FpAlu;
        } else {
            op.kind = OpKind::IntAlu;
            op.purpose = pick < 80   ? IntPurpose::IntAddress
                         : pick < 88 ? IntPurpose::FpAddress
                                     : IntPurpose::Compute;
        }
    }
    return ops;
}

/**
 * A streaming-locality stream: sequential code, two strided data
 * streams that confirm the hardware prefetcher, plus occasional
 * random pointer-chase accesses. Loads and stores alternate between
 * their streams in the A,B,A,B pattern, so consecutive data accesses
 * change page and line while prefetch bursts fill ahead of both
 * streams across cache-set boundaries — the interleaving SimCpu's
 * batch path must replay exactly as consume() does.
 */
inline std::vector<MicroOp>
streamingStream(size_t count)
{
    Rng rng(31);
    std::vector<MicroOp> ops(count);
    uint64_t read_cursor = 0;
    uint64_t write_cursor = 0;
    for (size_t i = 0; i < ops.size(); ++i) {
        MicroOp &op = ops[i];
        op.pc = 0x400000 + (i % 4096) * 4;
        uint64_t pick = rng.nextBelow(100);
        if (pick < 25) {
            op.kind = OpKind::Load;
            op.memAddr = 0x10000000 + (read_cursor % (128 * 1024));
            read_cursor += 8;
            op.memSize = 8;
        } else if (pick < 30) {
            op.kind = OpKind::Load;
            op.memAddr = 0x30000000 + rng.nextBelow(1 << 22);
            op.memSize = 8;
        } else if (pick < 40) {
            op.kind = OpKind::Store;
            op.memAddr = 0x20000000 + (write_cursor % (128 * 1024));
            write_cursor += 8;
            op.memSize = 8;
        } else if (pick < 55) {
            op.kind = OpKind::BranchCond;
            op.taken = rng.nextBool(0.3);
            op.target = 0x400000 + rng.nextBelow(16384);
        } else {
            op.kind = OpKind::IntAlu;
            op.purpose = pick < 80 ? IntPurpose::IntAddress
                                   : IntPurpose::Compute;
        }
    }
    return ops;
}

} // namespace wcrt

#endif // WCRT_TESTS_OP_STREAMS_HH
