/**
 * @file
 * Tests for the shared-memory ring transport (tracefile/shm_ring.hh):
 * ring mechanics (wrap-around, backpressure, liveness), the
 * sink/source layer's byte identity with the file path, error parity
 * with corrupt/truncated files, and true cross-process operation via
 * fork — including a producer killed mid-chunk.
 *
 * Suite naming is load-bearing for CI: `ShmRing*` and `ShmTransport*`
 * are thread-based and run under TSan; `ShmProcess*` forks (and
 * SIGKILLs) children, so it runs in the ASan job and the regular
 * matrix but stays out of the TSan filter.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "tracefile/shm_ring.hh"
#include "tracefile/trace_reader.hh"
#include "tracefile/trace_source.hh"
#include "tracefile/trace_writer.hh"

#if defined(__unix__) || defined(__APPLE__)
#define WCRT_TEST_HAS_FORK 1
#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>
#else
#define WCRT_TEST_HAS_FORK 0
#endif

namespace wcrt {
namespace {

namespace fs = std::filesystem;

/** Unique ring name per test and per run (stale names are unlinked). */
std::string
testRing(const std::string &tag)
{
#if WCRT_TEST_HAS_FORK
    std::string pid = std::to_string(::getpid());
#else
    std::string pid = "0";
#endif
    std::string name = "wcrt.test." + pid + "." + tag;
    ShmRing::unlink(name);
    return name;
}

std::string
tempTracePath(const std::string &tag)
{
#if WCRT_TEST_HAS_FORK
    std::string pid = std::to_string(::getpid());
#else
    std::string pid = "0";
#endif
    // ctest runs tests as parallel processes; keep scratch files
    // per-process so suites never stomp each other's traces.
    return (fs::temp_directory_path() /
            ("wcrt-shmtest-" + pid + "-" + tag + ".wtrace"))
        .string();
}

/** Sink that records every op for field-level comparison. */
class RecordingSink : public TraceSink
{
  public:
    void consume(const MicroOp &op) override { ops.push_back(op); }
    std::vector<MicroOp> ops;
};

void
expectOpsEqual(const std::vector<MicroOp> &a,
               const std::vector<MicroOp> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("op " + std::to_string(i));
        EXPECT_EQ(a[i].kind, b[i].kind);
        EXPECT_EQ(a[i].purpose, b[i].purpose);
        EXPECT_EQ(a[i].pc, b[i].pc);
        EXPECT_EQ(a[i].size, b[i].size);
        EXPECT_EQ(a[i].memAddr, b[i].memAddr);
        EXPECT_EQ(a[i].memSize, b[i].memSize);
        EXPECT_EQ(a[i].target, b[i].target);
        EXPECT_EQ(a[i].taken, b[i].taken);
    }
}

/** Ops exercising every encoder path, including the extension byte. */
std::vector<MicroOp>
awkwardOps()
{
    std::vector<MicroOp> ops;

    MicroOp alu;
    alu.kind = OpKind::IntAlu;
    alu.purpose = IntPurpose::IntAddress;
    alu.pc = 0x400000;
    ops.push_back(alu);

    MicroOp load;
    load.kind = OpKind::Load;
    load.pc = 0x400004;
    load.memAddr = 0x7fff0000;
    load.memSize = 8;
    ops.push_back(load);

    MicroOp store;
    store.kind = OpKind::Store;
    store.pc = 0x3ffff0;
    store.memAddr = 0x1000;
    store.memSize = 1;
    ops.push_back(store);

    MicroOp branch;
    branch.kind = OpKind::BranchCond;
    branch.pc = 0x400010;
    branch.target = 0x400800;
    branch.taken = true;
    ops.push_back(branch);

    MicroOp weird_size;
    weird_size.kind = OpKind::IntMul;
    weird_size.pc = 0x400014;
    weird_size.size = 12;
    ops.push_back(weird_size);

    MicroOp far_pc;
    far_pc.kind = OpKind::Other;
    far_pc.pc = 0xffff800000000000ull;
    ops.push_back(far_pc);

    return ops;
}

CodeLayout
sampleLayout()
{
    CodeLayout layout;
    layout.addFunction("app.kernel", CodeLayer::Application, 512);
    layout.addFunction("fw.shuffle", CodeLayer::Framework, 65536);
    layout.addFunction("libc.memcpy", CodeLayer::Library, 4096);
    return layout;
}

TraceMeta
sampleMeta()
{
    TraceMeta meta;
    meta.workload = "T-Shm";
    meta.category = AppCategory::Service;
    meta.stackKind = StackKind::Spark;
    meta.scale = 0.125;
    return meta;
}

IoCounters
sampleIo()
{
    IoCounters io;
    io.diskReadBytes = 123456;
    io.diskWriteBytes = 7890;
    io.networkBytes = 42;
    return io;
}

DataBehavior
sampleData()
{
    DataBehavior data;
    data.inputBytes = 1 << 20;
    data.intermediateBytes = 1 << 18;
    data.outputBytes = 1 << 10;
    return data;
}

/**
 * Feed `ops` one at a time, or (`batched`) in 4096-op blocks through
 * consumeBatch() — the path capture takes.
 */
void
feedOps(TraceSink &sink, const std::vector<MicroOp> &ops, bool batched)
{
    if (batched) {
        sink.consumeOps(ops.data(), ops.size());
        return;
    }
    for (const auto &op : ops)
        sink.consume(op);
}

/** The `.wtrace` file the equivalent file-backed capture writes. */
std::vector<uint8_t>
fileBytesFor(const std::vector<MicroOp> &ops, uint32_t chunk_ops,
             bool batched = false)
{
    std::string path = tempTracePath("reference");
    {
        TraceWriter writer(path, sampleMeta(), sampleLayout(),
                           chunk_ops);
        feedOps(writer, ops, batched);
        writer.finish(sampleIo(), sampleData());
    }
    std::ifstream f(path, std::ios::binary);
    std::vector<uint8_t> bytes(
        (std::istreambuf_iterator<char>(f)),
        std::istreambuf_iterator<char>());
    fs::remove(path);
    return bytes;
}

/** Stream the same ops through a ring; returns the drained bytes. */
std::vector<uint8_t>
ringBytesFor(const std::vector<MicroOp> &ops, uint32_t chunk_ops,
             const std::string &tag, bool batched = false)
{
    std::string name = testRing(tag);
    ShmRing prod = ShmRing::create(name, ShmRing::Role::Producer,
                                   64 * 1024);
    ShmRing cons = ShmRing::open(name, ShmRing::Role::Consumer);

    std::thread producer([&] {
        ShmChunkSink sink(prod, sampleMeta(), sampleLayout(),
                          ShmPolicy::Block, chunk_ops);
        feedOps(sink, ops, batched);
        sink.finish(sampleIo(), sampleData());
    });
    ShmSource drained(cons);
    producer.join();
    EXPECT_TRUE(cons.endOfStream());
    EXPECT_FALSE(drained.peerDied());
    ShmRing::unlink(name);
    return *drained.payload();
}

TEST(ShmRing, CreateOpenValidate)
{
    if (!shmAvailable())
        GTEST_SKIP() << "no shm on this platform";
    std::string name = testRing("create");
    ShmRing prod = ShmRing::create(name, ShmRing::Role::Producer, 100);
    EXPECT_EQ(prod.capacity(), 128u);  // rounded up to a power of two
    EXPECT_EQ(prod.name(), name);

    // A second create of a live name must fail; open() must attach.
    EXPECT_THROW(ShmRing::create(name, ShmRing::Role::Producer),
                 TraceFormatError);
    ShmRing cons = ShmRing::open(name, ShmRing::Role::Consumer);
    EXPECT_EQ(cons.capacity(), 128u);

    EXPECT_THROW(ShmRing::create("bad/name", ShmRing::Role::Producer),
                 TraceFormatError);
    EXPECT_THROW(ShmRing::open("wcrt.test.absent",
                               ShmRing::Role::Consumer, 50),
                 TraceFormatError);
    ShmRing::unlink(name);
    ShmRing::unlink(name);  // idempotent
}

TEST(ShmRing, RejectsFrameLargerThanCapacity)
{
    if (!shmAvailable())
        GTEST_SKIP() << "no shm on this platform";
    std::string name = testRing("oversize");
    ShmRing prod = ShmRing::create(name, ShmRing::Role::Producer, 64);
    std::vector<uint8_t> frame(65, 0xab);
    EXPECT_THROW(prod.push(frame.data(), frame.size(),
                           ShmPolicy::Block),
                 TraceFormatError);
    ShmRing::unlink(name);
}

TEST(ShmRing, WrapAroundAtEveryOffset)
{
    if (!shmAvailable())
        GTEST_SKIP() << "no shm on this platform";
    std::string name = testRing("wrap");
    ShmRing prod = ShmRing::create(name, ShmRing::Role::Producer, 64);
    ShmRing cons = ShmRing::open(name, ShmRing::Role::Consumer);
    ASSERT_EQ(prod.capacity(), 64u);

    // 13 is coprime with 64, so 64 pushes of 13 bytes start a frame at
    // every offset mod capacity; reading back in 5-byte nibbles makes
    // the copy-out wrap at unaligned offsets too. Then sweep every
    // frame length 1..64 (including the exactly-full frame) for the
    // copy-in split at both segment sizes.
    uint64_t written = 0;
    auto roundTrip = [&](size_t len) {
        std::vector<uint8_t> frame(len);
        for (size_t i = 0; i < len; ++i)
            frame[i] = static_cast<uint8_t>((written + i) & 0xff);
        ASSERT_TRUE(prod.push(frame.data(), len, ShmPolicy::Block));
        written += len;
        std::vector<uint8_t> got;
        uint8_t nibble[5];
        while (got.size() < len) {
            size_t n = cons.pull(nibble, sizeof(nibble));
            ASSERT_GT(n, 0u);
            got.insert(got.end(), nibble, nibble + n);
        }
        ASSERT_EQ(got.size(), len);
        EXPECT_EQ(got, frame);
        EXPECT_EQ(prod.used(), 0u);
    };
    for (int k = 0; k < 64; ++k)
        roundTrip(13);
    for (size_t len = 1; len <= 64; ++len)
        roundTrip(len);
    ShmRing::unlink(name);
}

TEST(ShmRing, FullRingBlockBackpressureLosesNothing)
{
    if (!shmAvailable())
        GTEST_SKIP() << "no shm on this platform";
    std::string name = testRing("block");
    ShmRing prod = ShmRing::create(name, ShmRing::Role::Producer, 64);
    ShmRing cons = ShmRing::open(name, ShmRing::Role::Consumer);

    // 10000 bytes through a 64-byte ring: the producer must block on
    // the full ring (7-byte frames, so it fills within a few pushes)
    // and every byte must come out in order.
    constexpr size_t total = 10000;
    std::thread producer([&] {
        uint8_t frame[7];
        size_t sent = 0;
        while (sent < total) {
            size_t len = std::min<size_t>(sizeof(frame), total - sent);
            for (size_t i = 0; i < len; ++i)
                frame[i] = static_cast<uint8_t>((sent + i) & 0xff);
            ASSERT_TRUE(prod.push(frame, len, ShmPolicy::Block));
            sent += len;
        }
        prod.finishProducer();
    });

    std::vector<uint8_t> got;
    uint8_t buf[23];
    size_t n;
    while ((n = cons.pullWait(buf, sizeof(buf))) != 0)
        got.insert(got.end(), buf, buf + n);
    producer.join();

    EXPECT_TRUE(cons.endOfStream());
    EXPECT_FALSE(cons.peerDied());
    ASSERT_EQ(got.size(), total);
    for (size_t i = 0; i < total; ++i)
        ASSERT_EQ(got[i], static_cast<uint8_t>(i & 0xff))
            << "byte " << i;
    EXPECT_EQ(prod.droppedFrames(), 0u);
    ShmRing::unlink(name);
}

TEST(ShmRing, DropPolicyDropsWholeFramesOnly)
{
    if (!shmAvailable())
        GTEST_SKIP() << "no shm on this platform";
    std::string name = testRing("drop");
    ShmRing prod = ShmRing::create(name, ShmRing::Role::Producer, 64);
    ShmRing cons = ShmRing::open(name, ShmRing::Role::Consumer);

    // Nobody pulls: 4 16-byte frames fill the ring exactly, the rest
    // must be refused without blocking and without partial writes.
    std::vector<int> accepted;
    for (int f = 0; f < 7; ++f) {
        uint8_t frame[16];
        for (size_t i = 0; i < sizeof(frame); ++i)
            frame[i] = static_cast<uint8_t>(f);
        if (prod.push(frame, sizeof(frame), ShmPolicy::Drop))
            accepted.push_back(f);
        else
            prod.noteDropped(1, 16);
    }
    EXPECT_EQ(accepted, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(prod.droppedFrames(), 3u);
    EXPECT_EQ(prod.droppedOps(), 48u);
    EXPECT_EQ(cons.droppedFrames(), 3u);  // visible on both sides
    prod.finishProducer();

    std::vector<uint8_t> got;
    uint8_t buf[64];
    size_t n;
    while ((n = cons.pullWait(buf, sizeof(buf))) != 0)
        got.insert(got.end(), buf, buf + n);
    ASSERT_EQ(got.size(), 64u);
    for (size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], static_cast<uint8_t>(i / 16));
    ShmRing::unlink(name);
}

TEST(ShmRing, SilentProducerYieldsPeerDeathNotHang)
{
    if (!shmAvailable())
        GTEST_SKIP() << "no shm on this platform";
    std::string name = testRing("silent");
    ShmRing prod = ShmRing::create(name, ShmRing::Role::Producer, 1024,
                                   /*heartbeat_timeout_ms=*/100);
    ShmRing cons = ShmRing::open(name, ShmRing::Role::Consumer);

    uint8_t some[32] = {};
    ASSERT_TRUE(prod.push(some, sizeof(some), ShmPolicy::Block));
    // The producer goes silent without finishProducer(): the consumer
    // must drain the pushed bytes and then get a bounded-time EOF
    // flagged as peer death, never a hang.
    uint8_t buf[64];
    EXPECT_EQ(cons.pullWait(buf, sizeof(buf)), sizeof(some));
    EXPECT_EQ(cons.pullWait(buf, sizeof(buf)), 0u);
    EXPECT_TRUE(cons.peerDied());
    EXPECT_FALSE(cons.endOfStream());
    ShmRing::unlink(name);
}

TEST(ShmRing, HeartbeatThreadKeepsSlowProducerAlive)
{
    if (!shmAvailable())
        GTEST_SKIP() << "no shm on this platform";
    std::string name = testRing("slowprod");
    ShmRing prod = ShmRing::create(name, ShmRing::Role::Producer, 1024,
                                   /*heartbeat_timeout_ms=*/100);
    // Liveness decoupled from data flow: with the background beater
    // running, a producer that pushes nothing for several timeouts
    // (slow workload setup, sparse chunk flushes) must not be
    // declared dead by a waiting consumer.
    prod.startHeartbeat();
    ShmRing cons = ShmRing::open(name, ShmRing::Role::Consumer);

    uint8_t frame[16];
    for (size_t i = 0; i < sizeof(frame); ++i)
        frame[i] = static_cast<uint8_t>(i);
    std::thread producer([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(300));
        ASSERT_TRUE(prod.push(frame, sizeof(frame), ShmPolicy::Block));
        prod.finishProducer();
    });

    std::vector<uint8_t> got;
    uint8_t buf[64];
    size_t n;
    while ((n = cons.pullWait(buf, sizeof(buf))) != 0)
        got.insert(got.end(), buf, buf + n);
    producer.join();

    EXPECT_FALSE(cons.peerDied());
    EXPECT_TRUE(cons.endOfStream());
    EXPECT_EQ(got, std::vector<uint8_t>(frame, frame + sizeof(frame)));
    ShmRing::unlink(name);
}

TEST(ShmRing, BlockPushBoundsNeverAttachedConsumerWait)
{
    if (!shmAvailable())
        GTEST_SKIP() << "no shm on this platform";
    std::string name = testRing("noconsumer");
    ShmRing prod = ShmRing::create(name, ShmRing::Role::Producer, 64);
    prod.setNoConsumerTimeout(100);

    uint8_t frame[32] = {};
    ASSERT_TRUE(prod.push(frame, sizeof(frame), ShmPolicy::Block));
    ASSERT_TRUE(prod.push(frame, sizeof(frame), ShmPolicy::Block));
    // Ring full, nobody has ever attached: the bound must turn the
    // would-be-forever wait into an error.
    EXPECT_THROW(prod.push(frame, sizeof(frame), ShmPolicy::Block),
                 TraceFormatError);
    // ... and once a push gave up, later pushes on the same handle
    // fail fast (the stream lost a frame) instead of stacking
    // another full-length wait — sink teardown pushes a footer.
    auto t0 = std::chrono::steady_clock::now();
    EXPECT_THROW(prod.push(frame, sizeof(frame), ShmPolicy::Block),
                 TraceFormatError);
    auto retry = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - t0);
    EXPECT_LT(retry.count(), 50);
    ShmRing::unlink(name);

    // Once any consumer has attached the bound is disarmed for good:
    // a full ring behind a slow analyzer — or across a clean
    // detach/re-attach — is legitimate backpressure, not absence.
    std::string name2 = testRing("noconsumer2");
    ShmRing prod2 = ShmRing::create(name2, ShmRing::Role::Producer, 64);
    prod2.setNoConsumerTimeout(100);
    {
        ShmRing cons = ShmRing::open(name2, ShmRing::Role::Consumer);
    }
    ASSERT_TRUE(prod2.push(frame, sizeof(frame), ShmPolicy::Block));
    ASSERT_TRUE(prod2.push(frame, sizeof(frame), ShmPolicy::Block));
    std::thread late([&] {
        // Well past the 100 ms no-consumer bound before re-attaching.
        std::this_thread::sleep_for(std::chrono::milliseconds(250));
        ShmRing cons = ShmRing::open(name2, ShmRing::Role::Consumer);
        uint8_t buf[64];
        size_t drained = 0;
        while (drained < 64) {
            size_t n = cons.pullWait(buf, sizeof(buf));
            ASSERT_GT(n, 0u);
            drained += n;
        }
    });
    EXPECT_TRUE(prod2.push(frame, sizeof(frame), ShmPolicy::Block));
    late.join();
    ShmRing::unlink(name2);
}

#if WCRT_TEST_HAS_FORK

TEST(ShmRing, OpenWaitsOutAnUnsizedRing)
{
    if (!shmAvailable())
        GTEST_SKIP() << "no shm on this platform";
    std::string name = testRing("unsized");
    // Freeze a creator mid-create: the object exists but has not been
    // ftruncate'd yet, exactly what a racing open() can observe
    // between shm_open(O_CREAT|O_EXCL) and ftruncate.
    int fd = ::shm_open(("/" + name).c_str(), O_CREAT | O_RDWR, 0600);
    ASSERT_GE(fd, 0);
    ::close(fd);

    // open() must keep polling — not reject the stub as "too small"
    // — and only throw the appearance timeout at the deadline.
    auto t0 = std::chrono::steady_clock::now();
    try {
        ShmRing::open(name, ShmRing::Role::Consumer, 150);
        FAIL() << "open of an unsized ring must time out";
    } catch (const TraceFormatError &err) {
        EXPECT_NE(std::string(err.what()).find("timed out"),
                  std::string::npos)
            << err.what();
    }
    auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - t0);
    EXPECT_GE(waited.count(), 100);

    // And when the stub becomes a real ring mid-wait (here replaced
    // wholesale, as a recovering serve would), the same open attaches.
    std::thread creator([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        ShmRing::unlink(name);
        ShmRing keep =
            ShmRing::create(name, ShmRing::Role::Producer, 256);
    });
    ShmRing cons = ShmRing::open(name, ShmRing::Role::Consumer, 2000);
    creator.join();
    EXPECT_EQ(cons.capacity(), 256u);
    ShmRing::unlink(name);
}

#endif // WCRT_TEST_HAS_FORK

TEST(ShmRing, ConsumerRestartReattachesMidStream)
{
    if (!shmAvailable())
        GTEST_SKIP() << "no shm on this platform";
    std::string name = testRing("reattach");
    ShmRing prod = ShmRing::create(name, ShmRing::Role::Producer, 64,
                                   /*heartbeat_timeout_ms=*/200);

    constexpr size_t total = 2000;
    std::thread producer([&] {
        uint8_t frame[8];
        size_t sent = 0;
        while (sent < total) {
            size_t len = std::min<size_t>(sizeof(frame), total - sent);
            for (size_t i = 0; i < len; ++i)
                frame[i] = static_cast<uint8_t>((sent + i) & 0xff);
            ASSERT_TRUE(prod.push(frame, len, ShmPolicy::Block));
            sent += len;
        }
        prod.finishProducer();
    });

    // Analyzer A drains part of the stream, detaches cleanly (its
    // destructor clears the attached flag, so the blocked producer
    // keeps waiting instead of declaring it dead), then analyzer B
    // re-attaches and finishes the drain. Byte continuity must hold
    // across the handoff — well past the 200 ms heartbeat timeout.
    std::vector<uint8_t> got;
    {
        ShmRing a = ShmRing::open(name, ShmRing::Role::Consumer);
        uint8_t buf[16];
        while (got.size() < 500) {
            size_t n = a.pullWait(buf, sizeof(buf));
            ASSERT_GT(n, 0u);
            got.insert(got.end(), buf, buf + n);
        }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    {
        ShmRing b = ShmRing::open(name, ShmRing::Role::Consumer);
        uint8_t buf[16];
        size_t n;
        while ((n = b.pullWait(buf, sizeof(buf))) != 0)
            got.insert(got.end(), buf, buf + n);
        EXPECT_TRUE(b.endOfStream());
        EXPECT_FALSE(b.peerDied());
    }
    producer.join();

    ASSERT_EQ(got.size(), total);
    for (size_t i = 0; i < total; ++i)
        ASSERT_EQ(got[i], static_cast<uint8_t>(i & 0xff))
            << "byte " << i;
    ShmRing::unlink(name);
}

TEST(ShmTransport, RingStreamBitIdenticalToFile)
{
    if (!shmAvailable())
        GTEST_SKIP() << "no shm on this platform";
    std::vector<MicroOp> ops;
    auto sample = awkwardOps();
    for (int rep = 0; rep < 50; ++rep)
        for (const auto &op : sample)
            ops.push_back(op);

    std::vector<uint8_t> via_file = fileBytesFor(ops, 7);
    std::vector<uint8_t> via_ring = ringBytesFor(ops, 7, "identical");
    ASSERT_GT(via_file.size(), 0u);
    EXPECT_EQ(via_file, via_ring);

    // Capture's batch path (one block straddling every 7-op chunk)
    // must frame the very same bytes on both transports.
    EXPECT_EQ(fileBytesFor(ops, 7, true), via_file);
    EXPECT_EQ(ringBytesFor(ops, 7, "identical-batch", true), via_file);
}

TEST(ShmTransport, ReaderOverRingMatchesFileReader)
{
    if (!shmAvailable())
        GTEST_SKIP() << "no shm on this platform";
    std::vector<MicroOp> ops;
    auto sample = awkwardOps();
    for (int rep = 0; rep < 30; ++rep)
        for (const auto &op : sample)
            ops.push_back(op);

    std::string path = tempTracePath("reader");
    {
        TraceWriter writer(path, sampleMeta(), sampleLayout(), 7);
        for (const auto &op : ops)
            writer.consume(op);
        writer.finish(sampleIo(), sampleData());
    }
    TraceReader file_reader(path);

    auto stream = std::make_shared<const std::vector<uint8_t>>(
        ringBytesFor(ops, 7, "reader"));
    TraceReader shm_reader(std::make_unique<ShmSource>(stream),
                           "shm:reader");
    EXPECT_STREQ(shm_reader.ioName(), "shm");
    EXPECT_EQ(shm_reader.path(), "shm:reader");

    EXPECT_EQ(file_reader.opCount(), shm_reader.opCount());
    EXPECT_EQ(file_reader.chunkCount(), shm_reader.chunkCount());
    EXPECT_EQ(file_reader.payloadBytes(), shm_reader.payloadBytes());
    EXPECT_EQ(file_reader.meta().workload, shm_reader.meta().workload);
    EXPECT_EQ(file_reader.io().diskReadBytes,
              shm_reader.io().diskReadBytes);
    EXPECT_EQ(file_reader.data().inputBytes,
              shm_reader.data().inputBytes);

    RecordingSink via_file;
    file_reader.replayInto(via_file);
    RecordingSink via_shm;
    shm_reader.replayInto(via_shm);
    expectOpsEqual(via_file.ops, via_shm.ops);
    expectOpsEqual(ops, via_shm.ops);
    fs::remove(path);
}

TEST(ShmTransport, CorruptAndTruncatedStreamsFailLikeFiles)
{
    if (!shmAvailable())
        GTEST_SKIP() << "no shm on this platform";
    std::vector<MicroOp> ops;
    auto sample = awkwardOps();
    for (int rep = 0; rep < 10; ++rep)
        for (const auto &op : sample)
            ops.push_back(op);
    std::vector<uint8_t> bytes = ringBytesFor(ops, 3, "corrupt");
    ASSERT_GT(bytes.size(), 200u);

    // Both transports get the same display name, so "identical
    // errors" is exact string equality.
    std::string path = tempTracePath("parity");
    auto errorVia = [&](const std::vector<uint8_t> &b,
                        bool via_shm) -> std::string {
        try {
            ReaderOptions opts{TraceIo::Auto, CrcMode::Always};
            RecordingSink sink;
            if (via_shm) {
                auto shared =
                    std::make_shared<const std::vector<uint8_t>>(b);
                TraceReader reader(std::make_unique<ShmSource>(shared),
                                   path, opts);
                reader.replayInto(sink);
            } else {
                std::ofstream out(path,
                                  std::ios::binary | std::ios::trunc);
                out.write(reinterpret_cast<const char *>(b.data()),
                          static_cast<std::streamsize>(b.size()));
                out.close();
                TraceReader reader(path, opts);
                reader.replayInto(sink);
            }
        } catch (const TraceFormatError &err) {
            return err.what();
        }
        return {};
    };

    // Flipped byte inside a chunk payload: CRC mismatch on replay.
    std::vector<uint8_t> corrupt = bytes;
    corrupt[bytes.size() / 2] ^= 0x40;
    std::string file_err = errorVia(corrupt, false);
    std::string shm_err = errorVia(corrupt, true);
    ASSERT_FALSE(file_err.empty());
    EXPECT_EQ(file_err, shm_err);

    // Truncation at assorted depths (header, mid-chunk, lost footer).
    for (size_t len : {size_t{0}, size_t{9}, size_t{40},
                       bytes.size() / 3, bytes.size() - 1}) {
        SCOPED_TRACE("prefix length " + std::to_string(len));
        std::vector<uint8_t> prefix(bytes.begin(),
                                    bytes.begin() +
                                        static_cast<long>(len));
        std::string f = errorVia(prefix, false);
        std::string s = errorVia(prefix, true);
        ASSERT_FALSE(f.empty());
        EXPECT_EQ(f, s);
    }
    fs::remove(path);
}

TEST(ShmTransport, DropPolicyStreamStillValidates)
{
    if (!shmAvailable())
        GTEST_SKIP() << "no shm on this platform";
    std::string name = testRing("lossy");
    ShmRing prod = ShmRing::create(name, ShmRing::Role::Producer, 512);
    ShmRing cons = ShmRing::open(name, ShmRing::Role::Consumer);

    std::vector<MicroOp> ops;
    auto sample = awkwardOps();
    for (int rep = 0; rep < 40; ++rep)
        for (const auto &op : sample)
            ops.push_back(op);

    // No concurrent consumer while ops stream in, so the little ring
    // fills and Drop policy must discard whole chunks,
    // deterministically. Drain what fits before finish() so the
    // (never-droppable, Block-pushed) footer has room.
    std::vector<uint8_t> bytes;
    ShmChunkSink sink(prod, sampleMeta(), sampleLayout(),
                      ShmPolicy::Drop, 5);
    for (const auto &op : ops)
        sink.consume(op);
    EXPECT_GT(sink.chunksDropped(), 0u);
    EXPECT_EQ(sink.opsDropped() + sink.opsStreamed(), ops.size());
    EXPECT_EQ(prod.droppedFrames(), sink.chunksDropped());

    uint8_t buf[64];
    size_t n;
    while ((n = cons.pull(buf, sizeof(buf))) != 0)
        bytes.insert(bytes.end(), buf, buf + n);
    sink.finish(sampleIo(), sampleData());
    while ((n = cons.pullWait(buf, sizeof(buf))) != 0)
        bytes.insert(bytes.end(), buf, buf + n);
    EXPECT_TRUE(cons.endOfStream());

    // The lossy stream is still a fully valid trace: intact framing,
    // intact CRCs, and a footer op count matching the surviving ops.
    auto shared =
        std::make_shared<const std::vector<uint8_t>>(std::move(bytes));
    TraceReader reader(std::make_unique<ShmSource>(shared), "shm:lossy");
    RecordingSink decoded;
    reader.replayInto(decoded);
    EXPECT_EQ(decoded.ops.size(), sink.opsStreamed());
    EXPECT_LT(decoded.ops.size(), ops.size());
    ShmRing::unlink(name);
}

TEST(ShmTransport, MultiProducerFanIn)
{
    if (!shmAvailable())
        GTEST_SKIP() << "no shm on this platform";
    constexpr int producers = 3;
    std::vector<std::string> names;
    std::vector<ShmRing> rings;
    std::vector<std::vector<MicroOp>> streams(producers);
    for (int p = 0; p < producers; ++p) {
        names.push_back(testRing("fanin." + std::to_string(p)));
        rings.push_back(ShmRing::create(names.back(),
                                        ShmRing::Role::Producer,
                                        256 * 1024));
        for (int rep = 0; rep < 10 + p; ++rep)
            for (MicroOp op : awkwardOps()) {
                op.pc += static_cast<uint64_t>(p) << 32;
                streams[p].push_back(op);
            }
    }

    std::vector<std::thread> threads;
    for (int p = 0; p < producers; ++p)
        threads.emplace_back([&, p] {
            TraceMeta meta = sampleMeta();
            meta.workload = "T-Shm-" + std::to_string(p);
            ShmChunkSink sink(rings[static_cast<size_t>(p)], meta,
                              sampleLayout(), ShmPolicy::Block, 7);
            for (const auto &op : streams[static_cast<size_t>(p)])
                sink.consume(op);
            sink.finish(sampleIo(), sampleData());
        });

    // One analyzer drains all three rings and must see each
    // producer's exact stream under its own identity.
    for (int p = 0; p < producers; ++p) {
        ShmRing cons =
            ShmRing::open(names[static_cast<size_t>(p)],
                          ShmRing::Role::Consumer);
        TraceReader reader(std::make_unique<ShmSource>(cons),
                           "shm:" + names[static_cast<size_t>(p)]);
        EXPECT_EQ(reader.meta().workload,
                  "T-Shm-" + std::to_string(p));
        RecordingSink decoded;
        reader.replayInto(decoded);
        expectOpsEqual(streams[static_cast<size_t>(p)], decoded.ops);
    }
    for (auto &t : threads)
        t.join();
    for (const auto &n : names)
        ShmRing::unlink(n);
}

#if WCRT_TEST_HAS_FORK

/**
 * Fork-based integration: capture in a child process, analyze in the
 * parent. The producer ring handle is created before fork (MAP_SHARED
 * survives into the child) and the child only pushes pre-encoded
 * bytes — no allocation after fork.
 */
class ShmProcess : public ::testing::Test
{
};

TEST_F(ShmProcess, ForkedProducerStreamsBitIdenticalTrace)
{
    if (!shmAvailable())
        GTEST_SKIP() << "no shm on this platform";
    std::vector<MicroOp> ops;
    for (int rep = 0; rep < 50; ++rep)
        for (const auto &op : awkwardOps())
            ops.push_back(op);
    std::vector<uint8_t> expected = fileBytesFor(ops, 7);

    std::string name = testRing("fork");
    ShmRing cons = ShmRing::create(name, ShmRing::Role::Consumer,
                                   16 * 1024);
    ShmRing prod = ShmRing::open(name, ShmRing::Role::Producer);

    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Child: push the encoded stream in ring-straining slices,
        // then exit without running any parent-process teardown.
        size_t sent = 0;
        while (sent < expected.size()) {
            size_t len = std::min<size_t>(4096, expected.size() - sent);
            prod.push(expected.data() + sent, len, ShmPolicy::Block);
            sent += len;
        }
        prod.finishProducer();
        ::_exit(0);
    }

    ShmSource drained(cons);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    EXPECT_FALSE(drained.peerDied());
    EXPECT_EQ(*drained.payload(), expected);

    TraceReader reader(std::make_unique<ShmSource>(drained.payload()),
                       "shm:" + name);
    RecordingSink decoded;
    reader.replayInto(decoded);
    expectOpsEqual(ops, decoded.ops);
    ShmRing::unlink(name);
}

TEST_F(ShmProcess, ProducerKilledMidChunkMatchesTruncatedFile)
{
    if (!shmAvailable())
        GTEST_SKIP() << "no shm on this platform";
    std::vector<MicroOp> ops;
    for (int rep = 0; rep < 20; ++rep)
        for (const auto &op : awkwardOps())
            ops.push_back(op);
    std::vector<uint8_t> full = fileBytesFor(ops, 7);
    // Cut mid-chunk: past the header, inside an op payload.
    size_t cut = full.size() / 2;

    std::string name = testRing("kill");
    ShmRing cons = ShmRing::create(name, ShmRing::Role::Consumer,
                                   64 * 1024,
                                   /*heartbeat_timeout_ms=*/150);
    ShmRing prod = ShmRing::open(name, ShmRing::Role::Producer);

    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Child: stream exactly `cut` bytes, then keep heartbeating
        // without finishing until SIGKILLed.
        prod.push(full.data(), cut, ShmPolicy::Block);
        while (true) {
            prod.beat();
            timespec ts{0, 5000000};  // 5 ms
            ::nanosleep(&ts, nullptr);
        }
    }

    // Drain the child's prefix, then kill it mid-stream. The drain
    // must end in bounded time with the death flagged — never a hang.
    std::vector<uint8_t> got;
    uint8_t buf[4096];
    while (got.size() < cut) {
        size_t n = cons.pull(buf, sizeof(buf));
        got.insert(got.end(), buf, buf + n);
    }
    ASSERT_EQ(got.size(), cut);
    ASSERT_EQ(::kill(pid, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFSIGNALED(status));

    EXPECT_EQ(cons.pullWait(buf, sizeof(buf)), 0u);
    EXPECT_TRUE(cons.peerDied());
    EXPECT_FALSE(cons.endOfStream());

    // The received prefix must fail exactly like the same bytes
    // truncated on disk (same display name, same error text).
    std::string path = tempTracePath("killed");
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char *>(got.data()),
                  static_cast<std::streamsize>(got.size()));
    }
    auto errorOf = [](auto make) -> std::string {
        try {
            make();
        } catch (const TraceFormatError &err) {
            return err.what();
        }
        return {};
    };
    std::string file_err =
        errorOf([&] { TraceReader r(path); });
    auto shared = std::make_shared<const std::vector<uint8_t>>(got);
    std::string shm_err = errorOf([&] {
        TraceReader r(std::make_unique<ShmSource>(shared), path);
    });
    ASSERT_FALSE(file_err.empty());
    EXPECT_EQ(file_err, shm_err);
    fs::remove(path);
    ShmRing::unlink(name);
}

#endif // WCRT_TEST_HAS_FORK

} // namespace
} // namespace wcrt
