/**
 * @file
 * google-benchmark micro-benchmarks of the toolkit's own hot paths:
 * cache model, branch unit, prefetcher, full SimCpu consume, trace
 * file encode/decode, PCA and K-means. These bound how much workload
 * the figure benches can chew per second.
 */

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/rng.hh"
#include "sim/branch.hh"
#include "sim/cache.hh"
#include "sim/footprint.hh"
#include "sim/prefetcher.hh"
#include "sim/sim_cpu.hh"
#include "sim/stack_distance.hh"
#include "stats/kmeans.hh"
#include "stats/pca.hh"
#include "trace/mix_counter.hh"
#include "trace/sampling.hh"
#include "tracefile/replay.hh"
#include "tracefile/shm_ring.hh"
#include "tracefile/trace_reader.hh"
#include "tracefile/trace_writer.hh"

using namespace wcrt;

namespace {

/**
 * Worker cap for the threaded rows, set by `--jobs N` (0 = hardware).
 * Maps straight onto the replay runners' `threads` argument, i.e. the
 * executor cap on the process-wide WorkerPool.
 */
unsigned g_jobs = 0;

unsigned
benchJobs()
{
    return g_jobs;
}

/** A SimCpu-shaped synthetic op mix (30% load, 10% store, 15% branch). */
std::vector<MicroOp>
syntheticOps(size_t count)
{
    Rng rng(17);
    std::vector<MicroOp> ops(count);
    for (size_t i = 0; i < ops.size(); ++i) {
        MicroOp &op = ops[i];
        uint64_t pick = rng.nextBelow(100);
        op.pc = 0x400000 + (i % 2048) * 4;
        if (pick < 30) {
            op.kind = OpKind::Load;
            op.memAddr = rng.nextBelow(1 << 22);
            op.memSize = 8;
        } else if (pick < 40) {
            op.kind = OpKind::Store;
            op.memAddr = rng.nextBelow(1 << 22);
            op.memSize = 8;
        } else if (pick < 55) {
            op.kind = OpKind::BranchCond;
            op.taken = rng.nextBool(0.3);
            op.target = 0x400000 + rng.nextBelow(8192);
        } else {
            op.kind = OpKind::IntAlu;
            op.purpose = IntPurpose::IntAddress;
        }
    }
    return ops;
}

std::string
benchTracePath(const char *name)
{
    return (std::filesystem::temp_directory_path() / name).string();
}

void
BM_CacheAccess(benchmark::State &state)
{
    Cache cache({"bench", 32 * 1024, 8, 64});
    Rng rng(1);
    std::vector<uint64_t> addrs(4096);
    for (auto &a : addrs)
        a = rng.nextBelow(1 << 20);
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access(addrs[i++ & 4095]));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

void
BM_BranchPredict(benchmark::State &state)
{
    BranchUnit bu(xeonE5645Branch());
    Rng rng(2);
    MicroOp op;
    op.kind = OpKind::BranchCond;
    size_t i = 0;
    for (auto _ : state) {
        op.pc = 0x4000 + (i & 255) * 16;
        op.taken = (i & 7) != 0;
        op.target = 0x9000;
        benchmark::DoNotOptimize(bu.predict(op));
        ++i;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BranchPredict);

void
BM_PrefetcherObserve(benchmark::State &state)
{
    StreamPrefetcher pf;
    uint64_t addr = 0x100000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(pf.observe(addr));
        addr += 64;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PrefetcherObserve);

void
BM_SimCpuConsume(benchmark::State &state)
{
    SimCpu cpu(xeonE5645());
    Rng rng(3);
    std::vector<MicroOp> ops(8192);
    for (size_t i = 0; i < ops.size(); ++i) {
        MicroOp &op = ops[i];
        uint64_t pick = rng.nextBelow(100);
        op.pc = 0x400000 + (i % 2048) * 4;
        if (pick < 30) {
            op.kind = OpKind::Load;
            op.memAddr = rng.nextBelow(1 << 22);
            op.memSize = 8;
        } else if (pick < 40) {
            op.kind = OpKind::Store;
            op.memAddr = rng.nextBelow(1 << 22);
            op.memSize = 8;
        } else if (pick < 55) {
            op.kind = OpKind::BranchCond;
            op.taken = rng.nextBool(0.3);
            op.target = 0x400000 + rng.nextBelow(8192);
        } else {
            op.kind = OpKind::IntAlu;
            op.purpose = IntPurpose::IntAddress;
        }
    }
    size_t i = 0;
    for (auto _ : state) {
        cpu.consume(ops[i++ & 8191]);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimCpuConsume);

/**
 * Forwards op by op through the virtual boundary — reproduces the
 * pre-batching per-op dispatch cost for same-run comparison. Its
 * inherited default consumeBatch() loops over consume(), so putting
 * this shim in front of any sink measures the old transport.
 */
class PerOpShim : public TraceSink
{
  public:
    explicit PerOpShim(TraceSink &down) : down(down) {}
    void consume(const MicroOp &op) override { down.consume(op); }

  private:
    TraceSink &down;
};

/** Push `ops` through the sink interface in OpBlock-sized batches. */
void
dispatchBatched(TraceSink &sink, const std::vector<MicroOp> &ops)
{
    // One reused SoA block, refilled per batch — the same shape and
    // amortized cost as the Tracer's emit/flush cycle.
    static thread_local OpBlock block(defaultOpBlockOps);
    for (size_t i = 0; i < ops.size(); i += defaultOpBlockOps) {
        size_t n = std::min(defaultOpBlockOps, ops.size() - i);
        block.clear();
        for (size_t j = 0; j < n; ++j)
            block.push(ops[i + j]);
        sink.consumeBlock(block);
    }
}

/**
 * A traced-workload-shaped stream for the transport rows: sequential
 * code runs over a 16 KB loop body and streaming loads/stores over a
 * 128 KB working set, so the machine model itself stays cache-resident
 * and the measurement isolates the op transport, not DRAM.
 */
std::vector<MicroOp>
dispatchStream(size_t count)
{
    Rng rng(29);
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
        } else if (pick < 35) {
            op.kind = OpKind::Store;
            op.memAddr = 0x20000000 + (write_cursor % (128 * 1024));
            write_cursor += 8;
            op.memSize = 8;
        } else if (pick < 50) {
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

/** batch_dispatch: per-op virtual dispatch into MixCounter. */
void
BM_BatchDispatchMixPerOp(benchmark::State &state)
{
    auto ops = dispatchStream(64 * 1024);
    MixCounter mix;
    TraceSink &sink = mix;
    for (auto _ : state) {
        for (const auto &op : ops)
            sink.consume(op);
    }
    benchmark::DoNotOptimize(mix.total());
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(ops.size()));
}
BENCHMARK(BM_BatchDispatchMixPerOp);

/** batch_dispatch: block dispatch into MixCounter. */
void
BM_BatchDispatchMixBatch(benchmark::State &state)
{
    auto ops = dispatchStream(64 * 1024);
    MixCounter mix;
    for (auto _ : state) {
        dispatchBatched(mix, ops);
    }
    benchmark::DoNotOptimize(mix.total());
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(ops.size()));
}
BENCHMARK(BM_BatchDispatchMixBatch);

/** batch_dispatch: per-op virtual dispatch into SimCpu. */
void
BM_BatchDispatchSimCpuPerOp(benchmark::State &state)
{
    auto ops = dispatchStream(64 * 1024);
    SimCpu cpu(xeonE5645());
    TraceSink &sink = cpu;
    for (auto _ : state) {
        for (const auto &op : ops)
            sink.consume(op);
    }
    benchmark::DoNotOptimize(cpu.instructions());
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(ops.size()));
}
BENCHMARK(BM_BatchDispatchSimCpuPerOp);

/** batch_dispatch: block dispatch into SimCpu. */
void
BM_BatchDispatchSimCpuBatch(benchmark::State &state)
{
    auto ops = dispatchStream(64 * 1024);
    SimCpu cpu(xeonE5645());
    for (auto _ : state) {
        dispatchBatched(cpu, ops);
    }
    benchmark::DoNotOptimize(cpu.instructions());
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(ops.size()));
}
BENCHMARK(BM_BatchDispatchSimCpuBatch);

/**
 * Encode + CRC + write, fed the way capture feeds the writer: 4096-op
 * blocks through consumeBatch() (consumeOps chunks the ops through
 * one), not one consume() per op.
 */
void
BM_TraceWrite(benchmark::State &state)
{
    auto ops = syntheticOps(64 * 1024);
    std::string path = benchTracePath("wcrt-bench-write.wtrace");
    CodeLayout layout;
    layout.addFunction("bench", CodeLayer::Application, 8192);
    TraceMeta meta;
    meta.workload = "bench";
    uint64_t payload_bytes = 0;
    uint64_t ops_written = 0;
    for (auto _ : state) {
        TraceWriter writer(path, meta, layout);
        writer.consumeOps(ops.data(), ops.size());
        writer.finish();
        payload_bytes += writer.payloadBytes();
        ops_written += writer.opsWritten();
    }
    state.SetItemsProcessed(static_cast<int64_t>(ops_written));
    state.SetBytesProcessed(static_cast<int64_t>(payload_bytes));
    state.counters["bytes/op"] =
        ops_written ? static_cast<double>(payload_bytes) /
                          static_cast<double>(ops_written)
                    : 0.0;
    std::filesystem::remove(path);
}
BENCHMARK(BM_TraceWrite);

void
BM_TraceRead(benchmark::State &state)
{
    auto ops = syntheticOps(64 * 1024);
    std::string path = benchTracePath("wcrt-bench-read.wtrace");
    CodeLayout layout;
    layout.addFunction("bench", CodeLayer::Application, 8192);
    TraceMeta meta;
    meta.workload = "bench";
    {
        TraceWriter writer(path, meta, layout);
        for (const auto &op : ops)
            writer.consume(op);
        writer.finish();
    }
    uint64_t payload_bytes = 0;
    uint64_t ops_read = 0;
    for (auto _ : state) {
        // Open (map + validation scan) plus one replay per iteration;
        // BM_ReplayMmap times the replay alone.
        TraceReader reader(path);
        CountingSink counter;
        reader.replayInto(counter);
        payload_bytes += reader.payloadBytes();
        ops_read += counter.ops();
    }
    state.SetItemsProcessed(static_cast<int64_t>(ops_read));
    state.SetBytesProcessed(static_cast<int64_t>(payload_bytes));
    state.counters["bytes/op"] =
        ops_read ? static_cast<double>(payload_bytes) /
                       static_cast<double>(ops_read)
                 : 0.0;
    std::filesystem::remove(path);
}
BENCHMARK(BM_TraceRead);

/**
 * Repeat-replay row: one persistent reader, timed replays only. This
 * is the shape of the actual hot loop (sweep ladders and config fans
 * replay the same trace many times): every chunk decodes in place
 * from the file mapping.
 */
void
BM_ReplayMmap(benchmark::State &state)
{
    auto ops = syntheticOps(64 * 1024);
    std::string path = benchTracePath("wcrt-bench-replay-mmap.wtrace");
    CodeLayout layout;
    layout.addFunction("bench", CodeLayer::Application, 8192);
    TraceMeta meta;
    meta.workload = "bench";
    {
        TraceWriter writer(path, meta, layout);
        for (const auto &op : ops)
            writer.consume(op);
        writer.finish();
    }
    TraceReader reader(path);
    {
        // Warm-up replay: touches every page of the mapping.
        CountingSink counter;
        reader.replayInto(counter);
    }
    uint64_t payload_bytes = 0;
    uint64_t ops_read = 0;
    for (auto _ : state) {
        CountingSink counter;
        reader.replayInto(counter);
        payload_bytes += reader.payloadBytes();
        ops_read += counter.ops();
    }
    state.SetItemsProcessed(static_cast<int64_t>(ops_read));
    state.SetBytesProcessed(static_cast<int64_t>(payload_bytes));
    std::filesystem::remove(path);
}
BENCHMARK(BM_ReplayMmap);

/**
 * The shm-ring transport end to end: a producer thread encodes ops
 * through ShmChunkSink into a shared-memory ring while the consumer
 * drains it (drainRing) and replays the stream into a counting sink —
 * the cross-process serve/attach pipeline, minus the fork, so the row
 * is comparable with BM_TraceWrite + BM_TraceRead (the file pipeline
 * over the same op count).
 */
void
BM_ShmRing(benchmark::State &state)
{
    auto ops = dispatchStream(64 * 1024);
    CodeLayout layout;
    layout.addFunction("bench", CodeLayer::Application, 8192);
    TraceMeta meta;
    meta.workload = "bench";
    std::string ring_name = "wcrt.bench.shmring";
    ShmRing::unlink(ring_name);
    uint64_t payload_bytes = 0;
    uint64_t ops_read = 0;
    for (auto _ : state) {
        ShmRing producer_ring = ShmRing::create(
            ring_name, ShmRing::Role::Producer);
        ShmRing consumer_ring =
            ShmRing::open(ring_name, ShmRing::Role::Consumer);
        std::thread producer([&] {
            ShmChunkSink sink(producer_ring, meta, layout);
            for (const auto &op : ops)
                sink.consume(op);
            sink.finish();
        });
        TraceBytes drained = drainRing(consumer_ring);
        producer.join();
        TraceReader reader(std::move(drained), "shm:" + ring_name);
        CountingSink counter;
        reader.replayInto(counter);
        payload_bytes += reader.payloadBytes();
        ops_read += counter.ops();
        ShmRing::unlink(ring_name);
    }
    state.SetItemsProcessed(static_cast<int64_t>(ops_read));
    state.SetBytesProcessed(static_cast<int64_t>(payload_bytes));
}
BENCHMARK(BM_ShmRing)->UseRealTime();

/** Write one shared trace for the replay-to-sink rows. */
const std::string &
replayBenchTrace()
{
    static const std::string path = [] {
        std::string p = benchTracePath("wcrt-bench-replay.wtrace");
        auto ops = dispatchStream(256 * 1024);
        CodeLayout layout;
        layout.addFunction("bench", CodeLayer::Application, 8192);
        TraceMeta meta;
        meta.workload = "bench";
        TraceWriter writer(p, meta, layout);
        writer.consumeOps(ops.data(), ops.size());
        writer.finish();
        return p;
    }();
    return path;
}

/** File replay into a sink, per-op (via shim) or chunk-batched. */
template <typename MakeSink>
void
replayRows(benchmark::State &state, MakeSink make_sink, bool per_op)
{
    TraceReader reader(replayBenchTrace());
    uint64_t ops_read = 0;
    for (auto _ : state) {
        auto sink = make_sink();
        if (per_op) {
            PerOpShim shim(sink);
            ops_read += reader.replayInto(shim);
        } else {
            ops_read += reader.replayInto(sink);
        }
    }
    state.SetItemsProcessed(static_cast<int64_t>(ops_read));
}

void
BM_ReplayMixPerOp(benchmark::State &state)
{
    replayRows(state, [] { return MixCounter(); }, true);
}
BENCHMARK(BM_ReplayMixPerOp);

void
BM_ReplayMixBatch(benchmark::State &state)
{
    replayRows(state, [] { return MixCounter(); }, false);
}
BENCHMARK(BM_ReplayMixBatch);

void
BM_ReplaySimCpuPerOp(benchmark::State &state)
{
    replayRows(state, [] { return SimCpu(xeonE5645()); }, true);
}
BENCHMARK(BM_ReplaySimCpuPerOp);

void
BM_ReplaySimCpuBatch(benchmark::State &state)
{
    replayRows(state, [] { return SimCpu(xeonE5645()); }, false);
}
BENCHMARK(BM_ReplaySimCpuBatch);

/**
 * The paper's Section 5.4 capacity sweep as a replay sink: ten cache
 * rungs x three streams per op make it the heaviest sink in any
 * replay, which is what the batch path's run-length compression and
 * per-cache fan-out attack.
 */
void
BM_ReplaySweepPerOp(benchmark::State &state)
{
    replayRows(state, [] { return FootprintSweep(paperSweepSizesKb()); },
               true);
}
BENCHMARK(BM_ReplaySweepPerOp);

void
BM_ReplaySweepBatch(benchmark::State &state)
{
    replayRows(state, [] { return FootprintSweep(paperSweepSizesKb()); },
               false);
}
BENCHMARK(BM_ReplaySweepBatch);

// The threaded rows measure wall time: CPU-time-based items/s would
// count only the calling thread while the pool does the work,
// overstating throughput on every multi-core host.
void
BM_ReplaySweepParallel(benchmark::State &state)
{
    unsigned workers = replayWorkers(0);
    replayRows(state,
               [workers] {
                   return FootprintSweep(paperSweepSizesKb(), 8, 64,
                                         workers);
               },
               false);
}
BENCHMARK(BM_ReplaySweepParallel)->UseRealTime();

/**
 * The single-pass replacement for the whole ladder: one decode pass
 * into the Mattson stack-distance profile, then every rung of the
 * fig6 ladder is a histogram walk (sim/stack_distance.hh). Runs
 * strictly serial (workers = 1) and is still expected to beat the
 * rung-parallel sweep above on wall clock — that is the
 * tentpole claim, and the perf gate pins both rows.
 */
void
BM_MrcSinglePass(benchmark::State &state)
{
    TraceReader reader(replayBenchTrace());
    auto sizes = paperSweepSizesKb();
    uint64_t ops_read = 0;
    double sink = 0.0;
    for (auto _ : state) {
        StackDistanceProfile profile(SweepKind::Instruction);
        ops_read += reader.replayInto(profile);
        auto curve = profile.missRatios(SweepKind::Instruction, sizes);
        sink += curve.back();
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(static_cast<int64_t>(ops_read));
}
BENCHMARK(BM_MrcSinglePass)->UseRealTime();

/**
 * The multi-config replay runner on the shared pool: one trace, four
 * machine configurations, each an independent decode + simulate pass
 * fanned out with caller participation.
 */
void
BM_ReplayConfigsPooled(benchmark::State &state)
{
    std::vector<MachineConfig> configs{xeonE5645(), atomD510(),
                                       atomInOrderSim(32),
                                       atomInOrderSim(64)};
    uint64_t instructions = 0;
    for (auto _ : state) {
        TraceReader reader(replayBenchTrace());
        auto reports = replayOnConfigs(reader, configs, benchJobs());
        for (const auto &r : reports)
            instructions += r.instructions;
    }
    benchmark::DoNotOptimize(instructions);
    state.SetItemsProcessed(static_cast<int64_t>(instructions));
}
BENCHMARK(BM_ReplayConfigsPooled)->UseRealTime();

/**
 * Multi-sink tee replay: one decode pass fanned out to a fast counter,
 * the mix tally, the full machine model and the capacity sweep — the
 * record-once/measure-everything pipeline the figure benches run.
 */
void
BM_ReplayTeeSeq(benchmark::State &state)
{
    TraceReader reader(replayBenchTrace());
    uint64_t ops_read = 0;
    for (auto _ : state) {
        MixCounter mix;
        CountingSink counter;
        SimCpu cpu(xeonE5645());
        FootprintSweep sweep(paperSweepSizesKb());
        TeeSink tee;
        tee.addSink(&mix);
        tee.addSink(&counter);
        tee.addSink(&cpu);
        tee.addSink(&sweep);
        ops_read += reader.replayInto(tee);
        benchmark::DoNotOptimize(cpu.instructions());
        benchmark::DoNotOptimize(mix.total());
    }
    state.SetItemsProcessed(static_cast<int64_t>(ops_read));
}
BENCHMARK(BM_ReplayTeeSeq);

void
BM_Pca45Metrics(benchmark::State &state)
{
    Rng rng(4);
    std::vector<std::vector<double>> rows;
    for (int r = 0; r < 77; ++r) {
        std::vector<double> row(45);
        for (auto &v : row)
            v = rng.nextGaussian();
        rows.push_back(std::move(row));
    }
    Matrix samples = Matrix::fromRows(rows);
    for (auto _ : state) {
        Normalized n = zscore(samples);
        PcaModel model = fitPca(n.data, 0.9);
        benchmark::DoNotOptimize(model.retained);
    }
}
BENCHMARK(BM_Pca45Metrics);

void
BM_KMeans77x10(benchmark::State &state)
{
    Rng rng(5);
    std::vector<std::vector<double>> rows;
    for (int r = 0; r < 77; ++r) {
        std::vector<double> row(10);
        for (auto &v : row)
            v = rng.nextGaussian();
        rows.push_back(std::move(row));
    }
    Matrix samples = Matrix::fromRows(rows);
    for (auto _ : state) {
        KMeansResult res = kMeans(samples, 17);
        benchmark::DoNotOptimize(res.wcss);
    }
}
BENCHMARK(BM_KMeans77x10);

} // namespace

/**
 * Standard benchmark main plus two convenience flags: `--json PATH`
 * expands to `--benchmark_out=PATH --benchmark_out_format=json` (the
 * CI perf-regression gate and the README throughput table both
 * consume that file), and `--jobs N` caps the worker count of the
 * threaded rows (0 = hardware), mirroring the figure benches.
 */
int
main(int argc, char **argv)
{
    std::vector<std::string> args;
    for (int i = 0; i < argc; ++i) {
        std::string arg = argv[i];
        std::string json_path;
        if (arg.rfind("--json=", 0) == 0) {
            json_path = arg.substr(7);
        } else if (arg == "--json" && i + 1 < argc) {
            json_path = argv[++i];
        } else if (arg.rfind("--jobs=", 0) == 0) {
            g_jobs = static_cast<unsigned>(std::atoi(arg.c_str() + 7));
            continue;
        } else if (arg == "--jobs" && i + 1 < argc) {
            g_jobs = static_cast<unsigned>(std::atoi(argv[++i]));
            continue;
        } else {
            args.push_back(std::move(arg));
            continue;
        }
        args.push_back("--benchmark_out=" + json_path);
        args.push_back("--benchmark_out_format=json");
    }
    std::vector<char *> argp;
    argp.reserve(args.size());
    for (auto &a : args)
        argp.push_back(a.data());
    int new_argc = static_cast<int>(argp.size());
    benchmark::Initialize(&new_argc, argp.data());
    if (benchmark::ReportUnrecognizedArguments(new_argc, argp.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
