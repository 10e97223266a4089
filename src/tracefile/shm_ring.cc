#include "tracefile/shm_ring.hh"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstring>
#include <mutex>
#include <new>
#include <thread>

#include "base/logging.hh"

namespace wcrt {

/**
 * The ring's control block, at offset 0 of the shared mapping; the
 * data region follows at byte 256. Layout and semantics are normative
 * — see docs/SHM_TRANSPORT.md §2 — and every field is fixed-offset so
 * independently built producer and analyzer binaries agree.
 *
 * Line 0 is immutable once `ready` is published; line 1 is written
 * only by the producer, line 2 only by the consumer, so the two sides
 * never contend for a cache line.
 */
struct ShmSuperblock
{
    // line 0 — fixed at create(), guarded by `ready`
    uint32_t magic;
    uint32_t version;
    uint64_t capacity;            //!< data bytes, power of two
    uint64_t heartbeatTimeoutNs;  //!< peer-death threshold
    uint64_t createNs;            //!< CLOCK_MONOTONIC at create()
    std::atomic<uint32_t> ready;  //!< 1 once the fields above are valid

    // line 1 — producer-published
    alignas(64) std::atomic<uint64_t> tail;  //!< bytes written, free-running
    std::atomic<uint64_t> producerBeat;      //!< CLOCK_MONOTONIC ns
    std::atomic<uint32_t> producerAttached;
    std::atomic<uint32_t> producerDone;      //!< clean end-of-stream mark
    std::atomic<uint64_t> droppedFrames;     //!< Drop-policy accounting
    std::atomic<uint64_t> droppedOps;

    // line 2 — consumer-published
    alignas(64) std::atomic<uint64_t> head;  //!< bytes read, free-running
    std::atomic<uint64_t> consumerBeat;
    std::atomic<uint32_t> consumerAttached;
    std::atomic<uint32_t> consumerEverAttached;  //!< sticky, never cleared

    // line 3 — reserved for future versions (zero)
    alignas(64) uint8_t reserved[64];
};

namespace {

/** Data region offset — one line of headroom beyond the superblock. */
constexpr uint64_t kDataOffset = 256;

/** "WRNG" little-endian. */
constexpr uint32_t kRingMagic = 0x474e5257;
constexpr uint32_t kRingVersion = 1;

static_assert(sizeof(ShmSuperblock) == kDataOffset,
              "superblock layout is normative (SHM_TRANSPORT.md)");
static_assert(offsetof(ShmSuperblock, tail) == 64);
static_assert(offsetof(ShmSuperblock, head) == 128);
static_assert(offsetof(ShmSuperblock, reserved) == 192);
static_assert(std::atomic<uint64_t>::is_always_lock_free &&
                  std::atomic<uint32_t>::is_always_lock_free,
              "shm rings need address-free lock-free atomics");

uint64_t
nowNs()
{
    timespec ts;
    ::clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
           static_cast<uint64_t>(ts.tv_nsec);
}

/** Wait-loop granularity: long enough to stay off the bus, short
 * enough that heartbeats stay far below any sane timeout. */
void
sleepBriefly()
{
    timespec ts{0, 200000};  // 200 us
    ::nanosleep(&ts, nullptr);
}

std::string
shmPath(const std::string &name)
{
    return "/" + name;
}

[[noreturn]] void
throwErrno(const std::string &what, const std::string &name)
{
    throw TraceFormatError("cannot " + what + " shm ring " + name +
                           ": " + std::strerror(errno));
}

void
validateRingName(const std::string &name)
{
    if (name.empty() || name.size() > 200 ||
        name.find('/') != std::string::npos)
        throw TraceFormatError(
            "invalid shm ring name (must be non-empty, < 200 chars, "
            "no '/'): " + name);
}

} // namespace

const char *
toString(ShmPolicy policy)
{
    return policy == ShmPolicy::Drop ? "drop" : "block";
}

bool
parseShmPolicy(const std::string &name, ShmPolicy &out)
{
    if (name == "block") {
        out = ShmPolicy::Block;
    } else if (name == "drop") {
        out = ShmPolicy::Drop;
    } else {
        return false;
    }
    return true;
}

ShmSuperblock *
ShmRing::sb() const
{
    return static_cast<ShmSuperblock *>(map);
}

uint8_t *
ShmRing::data() const
{
    return static_cast<uint8_t *>(map) + kDataOffset;
}

/**
 * Background beater for one side's heartbeat slot (startHeartbeat()).
 * Holds the slot pointer, not the ShmRing — the mapping's address is
 * stable across ShmRing moves, so the thread never chases a moved
 * handle. Stopped (joined) before the owning handle unmaps.
 */
struct ShmRing::Heartbeat
{
    Heartbeat(std::atomic<uint64_t> &slot_, uint64_t period_ns)
        : slot(slot_), period(period_ns)
    {
        worker = std::thread([this] {
            std::unique_lock<std::mutex> lock(m);
            while (!stop) {
                slot.store(nowNs(), std::memory_order_release);
                cv.wait_for(lock, std::chrono::nanoseconds(period));
            }
        });
    }

    ~Heartbeat()
    {
        {
            std::lock_guard<std::mutex> lock(m);
            stop = true;
        }
        cv.notify_one();
        worker.join();
    }

    std::atomic<uint64_t> &slot;
    uint64_t period;
    std::mutex m;
    std::condition_variable cv;
    bool stop = false;
    std::thread worker;
};

ShmRing
ShmRing::create(const std::string &name, Role role,
                uint64_t capacity_bytes, uint64_t heartbeat_timeout_ms)
{
    validateRingName(name);
    uint64_t cap = std::bit_ceil(std::max<uint64_t>(capacity_bytes, 16));
    int fd = ::shm_open(shmPath(name).c_str(),
                        O_CREAT | O_EXCL | O_RDWR, 0600);
    if (fd < 0)
        throwErrno("create", name);
    uint64_t total = kDataOffset + cap;
    if (::ftruncate(fd, static_cast<off_t>(total)) != 0) {
        ::close(fd);
        ::shm_unlink(shmPath(name).c_str());
        throwErrno("size", name);
    }
    void *m = ::mmap(nullptr, total, PROT_READ | PROT_WRITE,
                     MAP_SHARED, fd, 0);
    ::close(fd);  // the mapping outlives the descriptor
    if (m == MAP_FAILED) {
        ::shm_unlink(shmPath(name).c_str());
        throwErrno("map", name);
    }

    // The pages arrive zeroed; value-initialize the superblock, fill
    // the immutable line, then publish it with `ready` so an opener
    // never reads half-initialized fields.
    auto *s = new (m) ShmSuperblock();
    s->magic = kRingMagic;
    s->version = kRingVersion;
    s->capacity = cap;
    s->heartbeatTimeoutNs =
        std::max<uint64_t>(heartbeat_timeout_ms, 1) * 1000000ull;
    s->createNs = nowNs();
    s->ready.store(1, std::memory_order_release);

    ShmRing ring;
    ring.ringName = name;
    ring.ringRole = role;
    ring.map = m;
    ring.mapBytes = total;
    if (role == Role::Producer) {
        s->producerAttached.store(1, std::memory_order_release);
    } else {
        s->consumerEverAttached.store(1, std::memory_order_release);
        s->consumerAttached.store(1, std::memory_order_release);
    }
    ring.beat();
    return ring;
}

ShmRing
ShmRing::open(const std::string &name, Role role,
              uint64_t attach_timeout_ms)
{
    validateRingName(name);
    uint64_t deadline = nowNs() + attach_timeout_ms * 1000000ull;
    int fd = -1;
    struct stat st{};
    while (true) {
        fd = ::shm_open(shmPath(name).c_str(), O_RDWR, 0);
        if (fd >= 0) {
            if (::fstat(fd, &st) != 0) {
                int e = errno;
                ::close(fd);
                errno = e;
                throwErrno("stat", name);
            }
            if (st.st_size >= static_cast<off_t>(kDataOffset))
                break;
            // A creator sits between shm_open(O_CREAT|O_EXCL) and
            // ftruncate for a moment, during which the object exists
            // with size 0. That is "not there yet", not corruption:
            // drop the fd and re-open by name (the stub may even be
            // unlinked and replaced wholesale) until the deadline.
            ::close(fd);
            fd = -1;
        } else if (errno != ENOENT) {
            throwErrno("open", name);
        }
        if (nowNs() >= deadline)
            throw TraceFormatError(
                "timed out waiting for shm ring to appear: " + name);
        sleepBriefly();
    }
    uint64_t total = static_cast<uint64_t>(st.st_size);
    void *m = ::mmap(nullptr, total, PROT_READ | PROT_WRITE,
                     MAP_SHARED, fd, 0);
    ::close(fd);
    if (m == MAP_FAILED)
        throwErrno("map", name);

    auto *s = static_cast<ShmSuperblock *>(m);
    while (s->ready.load(std::memory_order_acquire) == 0) {
        if (nowNs() >= deadline) {
            ::munmap(m, total);
            throw TraceFormatError(
                "timed out waiting for shm ring to initialize: " + name);
        }
        sleepBriefly();
    }
    if (s->magic != kRingMagic) {
        ::munmap(m, total);
        throw TraceFormatError("not a wcrt shm ring (bad magic): " +
                               name);
    }
    if (s->version != kRingVersion) {
        uint32_t v = s->version;
        ::munmap(m, total);
        throw TraceFormatError(
            "unsupported shm ring version " + std::to_string(v) +
            " (expected " + std::to_string(kRingVersion) + "): " + name);
    }
    if (!std::has_single_bit(s->capacity) ||
        total != kDataOffset + s->capacity) {
        ::munmap(m, total);
        throw TraceFormatError(
            "shm ring size disagrees with its superblock: " + name);
    }

    ShmRing ring;
    ring.ringName = name;
    ring.ringRole = role;
    ring.map = m;
    ring.mapBytes = total;
    if (role == Role::Producer) {
        s->producerAttached.store(1, std::memory_order_release);
    } else {
        s->consumerEverAttached.store(1, std::memory_order_release);
        s->consumerAttached.store(1, std::memory_order_release);
    }
    ring.beat();
    return ring;
}

void
ShmRing::unlink(const std::string &name)
{
    validateRingName(name);
    if (::shm_unlink(shmPath(name).c_str()) != 0 && errno != ENOENT)
        throwErrno("unlink", name);
}

ShmRing::~ShmRing()
{
    if (!map)
        return;
    heart.reset();  // stop beating into the mapping before unmapping
    // A consumer detaching cleanly hands the ring back to "waiting
    // for an analyzer": the producer must not mistake a deliberate
    // detach (restart/re-attach is supported) for a death. A producer
    // that detaches without finishProducer() stays attached — its
    // heartbeat going stale is exactly how consumers detect the
    // abnormal end.
    if (ringRole == Role::Consumer)
        sb()->consumerAttached.store(0, std::memory_order_release);
    ::munmap(map, mapBytes);
}

ShmRing::ShmRing(ShmRing &&other) noexcept
    : ringName(std::move(other.ringName)), ringRole(other.ringRole),
      map(other.map), mapBytes(other.mapBytes),
      noConsumerWaitNs(other.noConsumerWaitNs),
      heart(std::move(other.heart)), peerGone(other.peerGone),
      sawEof(other.sawEof), sawPeerDeath(other.sawPeerDeath)
{
    other.map = nullptr;
    other.mapBytes = 0;
}

ShmRing &
ShmRing::operator=(ShmRing &&other) noexcept
{
    if (this != &other) {
        this->~ShmRing();
        new (this) ShmRing(std::move(other));
    }
    return *this;
}

uint64_t
ShmRing::capacity() const
{
    return sb()->capacity;
}

uint64_t
ShmRing::used() const
{
    return sb()->tail.load(std::memory_order_acquire) -
           sb()->head.load(std::memory_order_acquire);
}

uint64_t
ShmRing::droppedFrames() const
{
    return sb()->droppedFrames.load(std::memory_order_relaxed);
}

uint64_t
ShmRing::droppedOps() const
{
    return sb()->droppedOps.load(std::memory_order_relaxed);
}

void
ShmRing::noteDropped(uint64_t frames, uint64_t ops)
{
    sb()->droppedFrames.fetch_add(frames, std::memory_order_relaxed);
    sb()->droppedOps.fetch_add(ops, std::memory_order_relaxed);
}

void
ShmRing::setNoConsumerTimeout(uint64_t timeout_ms)
{
    noConsumerWaitNs = timeout_ms * 1000000ull;
}

void
ShmRing::beat()
{
    auto &slot = ringRole == Role::Producer ? sb()->producerBeat
                                            : sb()->consumerBeat;
    slot.store(nowNs(), std::memory_order_release);
}

void
ShmRing::startHeartbeat()
{
    if (heart)
        return;
    ShmSuperblock *s = sb();
    auto &slot = ringRole == Role::Producer ? s->producerBeat
                                            : s->consumerBeat;
    // A quarter of the timeout keeps a healthy peer far from the
    // staleness edge; the 100 ms cap bounds detach latency on huge
    // timeouts, the 100 µs floor bounds spin on absurdly small ones.
    uint64_t period = std::clamp<uint64_t>(s->heartbeatTimeoutNs / 4,
                                           100'000ull, 100'000'000ull);
    heart = std::make_unique<Heartbeat>(slot, period);
}

/**
 * Is the opposite side alive at `now_ns`? A side that has attached is
 * alive while its heartbeat is fresh; a side that has not attached
 * (yet, or detached cleanly) is treated as alive — "no peer" means
 * "waiting for one", and the callers that cannot wait forever bound
 * the wait themselves.
 */
bool
ShmRing::peerAlive(uint64_t now_ns) const
{
    const ShmSuperblock *s = sb();
    bool attached;
    uint64_t last_beat;
    if (ringRole == Role::Producer) {
        attached = s->consumerAttached.load(std::memory_order_acquire);
        last_beat = s->consumerBeat.load(std::memory_order_acquire);
    } else {
        attached = s->producerAttached.load(std::memory_order_acquire);
        last_beat = s->producerBeat.load(std::memory_order_acquire);
    }
    if (!attached)
        return true;
    return now_ns - last_beat <= s->heartbeatTimeoutNs;
}

bool
ShmRing::push(const uint8_t *src, size_t len, ShmPolicy policy)
{
    ShmSuperblock *s = sb();
    uint64_t cap = s->capacity;
    if (len > cap)
        throw TraceFormatError(
            "frame (" + std::to_string(len) +
            " bytes) exceeds shm ring capacity (" + std::to_string(cap) +
            "): " + ringName);
    // A push that already gave up on the peer failed the stream (a
    // Block frame was lost); fail every later push immediately so
    // teardown — footer frame, destructor flushes — does not stack
    // more full-length waits on a ring nobody is reading.
    if (peerGone)
        throw TraceFormatError(
            "shm ring stream already failed (consumer dead or never "
            "attached): " + ringName);

    uint64_t tail = s->tail.load(std::memory_order_relaxed);
    uint64_t wait_start = 0;
    while (cap - (tail - s->head.load(std::memory_order_acquire)) <
           len) {
        if (policy == ShmPolicy::Drop)
            return false;
        // Block: wait for the consumer to free space — but never on a
        // consumer that attached and then stopped beating. A consumer
        // that has not attached yet (serve starts before attach) is
        // waited for, but only within the configured no-consumer
        // bound: an analyzer that never shows up must produce an
        // error, not wedge capture forever. Once any consumer has
        // attached (sticky flag), a full ring is legitimate
        // backpressure — including across a clean detach/re-attach —
        // and is waited out indefinitely.
        uint64_t now = nowNs();
        if (!peerAlive(now)) {
            peerGone = true;
            throw TraceFormatError(
                "shm ring consumer stopped responding: " + ringName);
        }
        if (noConsumerWaitNs != 0 &&
            !s->consumerEverAttached.load(std::memory_order_acquire)) {
            if (wait_start == 0)
                wait_start = now;
            else if (now - wait_start > noConsumerWaitNs) {
                peerGone = true;
                throw TraceFormatError(
                    "no analyzer attached to shm ring within " +
                    std::to_string(noConsumerWaitNs / 1000000) +
                    " ms: " + ringName);
            }
        }
        beat();
        sleepBriefly();
    }

    uint64_t idx = tail & (cap - 1);
    size_t first = std::min<size_t>(len, cap - idx);
    std::memcpy(data() + idx, src, first);
    std::memcpy(data(), src + first, len - first);
    s->tail.store(tail + len, std::memory_order_release);
    beat();
    return true;
}

void
ShmRing::finishProducer()
{
    // Bytes first (release on tail in push), then the done mark with
    // release: a consumer that observes `done` and then re-checks the
    // ring is guaranteed to see every byte pushed before it.
    sb()->producerDone.store(1, std::memory_order_release);
    beat();
}

bool
ShmRing::awaitDrained(uint64_t timeout_ms)
{
    ShmSuperblock *s = sb();
    uint64_t deadline = nowNs() + timeout_ms * 1000000ull;
    while (s->head.load(std::memory_order_acquire) !=
           s->tail.load(std::memory_order_relaxed)) {
        uint64_t now = nowNs();
        if (now >= deadline || !peerAlive(now))
            return false;
        beat();
        sleepBriefly();
    }
    return true;
}

size_t
ShmRing::pull(uint8_t *out, size_t max)
{
    ShmSuperblock *s = sb();
    uint64_t cap = s->capacity;
    uint64_t head = s->head.load(std::memory_order_relaxed);
    uint64_t avail = s->tail.load(std::memory_order_acquire) - head;
    size_t n = static_cast<size_t>(std::min<uint64_t>(avail, max));
    if (n == 0)
        return 0;
    uint64_t idx = head & (cap - 1);
    size_t first = std::min<size_t>(n, cap - idx);
    std::memcpy(out, data() + idx, first);
    std::memcpy(out + first, data(), n - first);
    s->head.store(head + n, std::memory_order_release);
    beat();
    return n;
}

size_t
ShmRing::pullWait(uint8_t *out, size_t max)
{
    ShmSuperblock *s = sb();
    uint64_t wait_start = nowNs();
    while (true) {
        size_t n = pull(out, max);
        if (n)
            return n;
        if (s->producerDone.load(std::memory_order_acquire)) {
            // Re-check after observing `done`: bytes pushed before
            // the mark must be served before end-of-stream.
            n = pull(out, max);
            if (n)
                return n;
            sawEof = true;
            return 0;
        }
        uint64_t now = nowNs();
        bool absent =
            !s->producerAttached.load(std::memory_order_acquire) &&
            now - wait_start > s->heartbeatTimeoutNs;
        if (absent || !peerAlive(now)) {
            // Dead (stale heartbeat) or never showed up: a clean EOF
            // for the bytes already drained, flagged as peer death so
            // the analyzer can report the truncation's cause.
            sawPeerDeath = true;
            return 0;
        }
        beat();
        sleepBriefly();
    }
}

ShmChunkSink::ShmChunkSink(ShmRing &ring_, const TraceMeta &meta,
                           const CodeLayout &layout, ShmPolicy policy_,
                           uint32_t chunk_ops)
    : ring(ring_), policy(policy_), encoder(chunk_ops)
{
    // The header frame is never droppable: without it nothing that
    // follows can be decoded. Block even under Drop policy.
    std::vector<uint8_t> header =
        tracefile::encodeHeaderFrame(meta, layout);
    ring.push(header.data(), header.size(), ShmPolicy::Block);
    streamedBytes += header.size();
}

ShmChunkSink::~ShmChunkSink()
{
    if (!finished) {
        try {
            finish();
        } catch (const TraceFormatError &e) {
            warn("shm chunk sink teardown failed for ", ring.name(),
                 ": ", e.what());
        }
    }
}

void
ShmChunkSink::consume(const MicroOp &op)
{
    uint8_t taken = op.taken ? 1 : 0;
    consumeBatch(OpBlockView::of(op, &taken));
}

void
ShmChunkSink::consumeBatch(const OpBlockView &ops)
{
    if (finished)
        wcrt_panic("ShmChunkSink: ops consumed after finish");
    for (size_t i = 0; i < ops.count;) {
        i = encoder.add(ops, i);
        if (encoder.full())
            flushChunk();
    }
}

void
ShmChunkSink::flushChunk()
{
    uint32_t ops = encoder.pendingOps();
    if (ops == 0)
        return;
    std::span<const uint8_t> frame = encoder.takeFrame();
    if (ring.push(frame.data(), frame.size(), policy)) {
        streamedOps += ops;
        streamedBytes += frame.size();
    } else {
        // Whole-chunk drop: the stream stays a valid chunk sequence
        // (chunks decode independently), it just has a hole. Account
        // it here and in the ring superblock so both sides can report
        // the loss.
        ++droppedChunks;
        droppedOps += ops;
        ring.noteDropped(1, ops);
    }
}

void
ShmChunkSink::finish(const IoCounters &io, const DataBehavior &data)
{
    if (finished)
        return;
    flushChunk();
    // The footer counts framed ops only: a reader cross-checks the
    // footer total against the ops it decoded, and dropped chunks
    // never reached the stream.
    std::vector<uint8_t> footer =
        tracefile::encodeFooterFrame(streamedOps, io, data);
    ring.push(footer.data(), footer.size(), ShmPolicy::Block);
    streamedBytes += footer.size();
    ring.finishProducer();
    finished = true;
}

TraceBytes
drainRing(ShmRing &ring)
{
    std::vector<uint8_t> buf;
    uint8_t scratch[64 * 1024];
    size_t n;
    while ((n = ring.pullWait(scratch, sizeof(scratch))) != 0)
        buf.insert(buf.end(), scratch, scratch + n);
    return TraceBytes(std::move(buf));
}

} // namespace wcrt
