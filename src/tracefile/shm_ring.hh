/**
 * @file
 * Shared-memory ring transport for cross-process capture/replay.
 *
 * A ShmRing is a fixed-capacity SPSC byte ring in POSIX shared memory
 * (`shm_open` + `mmap`) carrying a framed `.wtrace` byte stream, so a
 * workload can be captured in one process and analyzed in another
 * without touching the filesystem — the "live profiling service" half
 * of the multi-process trace path (see docs/SHM_TRANSPORT.md for the
 * normative layout, memory-ordering and liveness rules).
 *
 * Three layers:
 *
 *  - ShmRing: the raw ring. Free-running 64-bit head/tail byte
 *    counters on separate cache lines, acquire/release publication,
 *    all-or-nothing frame pushes with Block or Drop backpressure, and
 *    heartbeat-based peer-death detection so a killed producer yields
 *    a clean end-of-stream instead of a hang (and a killed analyzer
 *    unblocks a waiting producer with an error).
 *  - ShmChunkSink: a TraceSink that encodes ops through the same
 *    ChunkEncoder TraceWriter uses and pushes whole frames (header,
 *    chunks, footer) into a ring — the byte stream is identical to
 *    the `.wtrace` file the same run would have written, except that
 *    Drop policy may omit whole chunks (the footer op count only
 *    counts framed ops, so the stream stays self-consistent).
 *  - ShmSource: a TraceSource that drains a ring to completion and
 *    then serves the buffered stream to TraceReader, so the SWAR fast
 *    cursor and every structural/CRC check run unchanged on ring
 *    bytes. The drained buffer is shared, so N readers (one per
 *    machine config) can replay one drained stream without copies.
 *
 * Multiplexing N producers into one analyzer is done with N rings,
 * one per producer (`name.0` … `name.N-1` by convention — see
 * `trace_tool serve` / `trace_tool attach`); each ring stays strictly
 * SPSC.
 *
 * Availability is gated like mmap: shmAvailable() reports platform
 * support, and create/open throw TraceFormatError where unsupported.
 */

#ifndef WCRT_TRACEFILE_SHM_RING_HH
#define WCRT_TRACEFILE_SHM_RING_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sysmon/sysmon.hh"
#include "trace/code_layout.hh"
#include "tracefile/trace_source.hh"
#include "tracefile/trace_writer.hh"

namespace wcrt {

/** True when this build has POSIX shared-memory rings. */
bool shmAvailable();

/** What a producer does when a frame does not fit in the ring. */
enum class ShmPolicy : uint8_t {
    Block,  //!< wait for the consumer to free space (lossless)
    Drop,   //!< discard the frame and account for it (lossy, non-blocking)
};

/** CLI spelling of a policy: block / drop. */
const char *toString(ShmPolicy policy);

/**
 * Parse a CLI policy name ("block", "drop").
 * @return false when the name matches no policy (`out` untouched).
 */
bool parseShmPolicy(const std::string &name, ShmPolicy &out);

struct ShmSuperblock;

/**
 * One SPSC shared-memory byte ring. Exactly one producer and one
 * consumer process (or thread) may be attached at a time; a consumer
 * may detach cleanly and a new one re-attach mid-stream. The object
 * is movable, not copyable; the mapping is released on destruction
 * but the ring object itself persists until unlink().
 */
class ShmRing
{
  public:
    /** Which side of the ring this handle drives. */
    enum class Role : uint8_t { Producer, Consumer };

    /** Default data capacity: 1 MiB. */
    static constexpr uint64_t defaultCapacity = 1ull << 20;

    /** Default peer heartbeat timeout. */
    static constexpr uint64_t defaultHeartbeatTimeoutMs = 2000;

    /**
     * Create a new ring object named `name` (no slashes) and attach
     * as `role`. Fails if the name already exists — a stale ring must
     * be unlink()ed first.
     *
     * @param name Ring name, e.g. "wcrt.serve.0".
     * @param role Side this handle drives.
     * @param capacity_bytes Data capacity; rounded up to a power of
     *        two.
     * @param heartbeat_timeout_ms Peer-death threshold stored in the
     *        superblock; both sides honour the creator's value.
     */
    static ShmRing create(
        const std::string &name, Role role,
        uint64_t capacity_bytes = defaultCapacity,
        uint64_t heartbeat_timeout_ms = defaultHeartbeatTimeoutMs);

    /**
     * Attach to an existing ring as `role`, waiting up to
     * `attach_timeout_ms` for the ring to appear and initialize —
     * `attach` in one shell may legitimately start before `serve` in
     * another. Throws TraceFormatError on timeout, bad magic, version
     * mismatch or a size that disagrees with the superblock.
     */
    static ShmRing open(const std::string &name, Role role,
                        uint64_t attach_timeout_ms = 10000);

    /** Remove a ring name from the system (missing name is not an error). */
    static void unlink(const std::string &name);

    ~ShmRing();
    ShmRing(ShmRing &&other) noexcept;
    ShmRing &operator=(ShmRing &&other) noexcept;
    ShmRing(const ShmRing &) = delete;
    ShmRing &operator=(const ShmRing &) = delete;

    const std::string &name() const { return ringName; }

    /** Data capacity in bytes (power of two). */
    uint64_t capacity() const;

    /** Bytes currently buffered (written, not yet read). */
    uint64_t used() const;

    /** @name Producer side */
    /** @{ */

    /**
     * Push one complete frame. All-or-nothing: the frame is either
     * fully in the ring when this returns true, or (Drop policy, ring
     * too full) not at all. Block policy waits for space, heartbeating
     * while it waits, and throws TraceFormatError if an attached
     * consumer stops beating or no consumer ever attaches within the
     * setNoConsumerTimeout() bound. Once a push has given up on the
     * peer, every later push on this handle fails fast — the stream
     * is missing a frame, so teardown (footer, flushes) must not
     * stack further full-length waits. A frame larger than the ring
     * capacity always throws.
     *
     * @return true when the frame was written, false when Drop policy
     *         discarded it (ring-level drop accounting is the
     *         caller's via noteDropped()).
     */
    bool push(const uint8_t *data, size_t len, ShmPolicy policy);

    /**
     * Mark the stream complete. Consumers drain the remaining bytes
     * and then see a clean end-of-stream. Must be the last producer
     * call; idempotent.
     */
    void finishProducer();

    /**
     * Wait until the consumer has read every byte (or died, or
     * `timeout_ms` passed). `serve` calls this after finishProducer()
     * so unlink() cannot race the analyzer's final reads.
     * @return true when the ring drained completely.
     */
    bool awaitDrained(uint64_t timeout_ms);

    /** Account frames/ops the producer discarded under Drop policy. */
    void noteDropped(uint64_t frames, uint64_t ops);

    /** @} */
    /** @name Consumer side */
    /** @{ */

    /**
     * Read up to `max` buffered bytes without blocking.
     * @return bytes read (0 when the ring is empty).
     */
    size_t pull(uint8_t *out, size_t max);

    /**
     * Read at least one byte, waiting for the producer if the ring is
     * empty. Returns 0 only at end of stream: either the producer
     * finished cleanly (endOfStream()) or its heartbeat went stale
     * (peerDied()) — a dead producer never hangs the consumer.
     */
    size_t pullWait(uint8_t *out, size_t max);

    /** True once pullWait() returned 0 after a clean finishProducer(). */
    bool endOfStream() const { return sawEof; }

    /** True once pullWait() gave up on a dead or absent producer. */
    bool peerDied() const { return sawPeerDeath; }

    /** @} */

    /** Frames discarded by the producer under Drop policy. */
    uint64_t droppedFrames() const;

    /** Ops inside those discarded frames. */
    uint64_t droppedOps() const;

    /** Refresh this side's heartbeat. push/pull do this implicitly. */
    void beat();

    /**
     * Start a background thread that refreshes this side's heartbeat
     * on a timer (a quarter of the ring's timeout), decoupling
     * liveness from data flow: a producer stuck in workload setup or
     * between sparse chunk flushes must not look dead to its
     * consumer. The thread dies with the process, so a SIGKILLed peer
     * still goes stale as usual. Idempotent; stops on destruction.
     * Forked children do not inherit the thread — they must beat()
     * themselves (or start their own).
     */
    void startHeartbeat();

    /**
     * Bound how long a Block push waits while no consumer has *ever*
     * attached (producer side; 0 = wait forever, the default). Once
     * any consumer has attached, legitimate backpressure — including
     * across a clean detach/re-attach — is waited out indefinitely;
     * only the "analyzer never showed up" case throws.
     */
    void setNoConsumerTimeout(uint64_t timeout_ms);

  private:
    ShmRing() = default;

    struct Heartbeat;

    ShmSuperblock *sb() const;
    uint8_t *data() const;
    bool peerAlive(uint64_t now_ns) const;

    std::string ringName;
    Role ringRole = Role::Consumer;
    void *map = nullptr;
    uint64_t mapBytes = 0;
    uint64_t noConsumerWaitNs = 0;
    std::unique_ptr<Heartbeat> heart;
    bool peerGone = false;
    bool sawEof = false;
    bool sawPeerDeath = false;
};

/**
 * TraceSink that streams the `.wtrace` encoding into a ShmRing. The
 * header frame is pushed on construction and the footer on finish();
 * both always use Block policy — dropping either would invalidate the
 * whole stream — while op chunks honour the configured policy.
 */
class ShmChunkSink : public TraceSink
{
  public:
    /**
     * @param ring Producer-attached ring to stream into.
     * @param meta Run identity for the header frame.
     * @param layout Code layout whose region table the header carries.
     * @param policy Backpressure policy for op-chunk frames.
     * @param chunk_ops Ops per chunk.
     */
    ShmChunkSink(ShmRing &ring, const TraceMeta &meta,
                 const CodeLayout &layout,
                 ShmPolicy policy = ShmPolicy::Block,
                 uint32_t chunk_ops = tracefile::defaultChunkOps);

    /** Finishes the stream (with empty accounting) if still open. */
    ~ShmChunkSink() override;

    ShmChunkSink(const ShmChunkSink &) = delete;
    ShmChunkSink &operator=(const ShmChunkSink &) = delete;

    void consume(const MicroOp &op) override;
    void consumeBatch(const OpBlockView &ops) override;

    /**
     * Flush the pending chunk, push the footer frame and mark the
     * producer finished. Must be the final call; consume() afterwards
     * is an error. The footer's op count covers framed ops only, so a
     * lossy (Drop) stream still satisfies the reader's op-count
     * cross-check.
     */
    void finish(const IoCounters &io = {}, const DataBehavior &data = {});

    /** Ops actually framed into the ring. */
    uint64_t opsStreamed() const { return streamedOps; }

    /** Ops discarded with their chunks under Drop policy. */
    uint64_t opsDropped() const { return droppedOps; }

    /** Whole chunks discarded under Drop policy. */
    uint64_t chunksDropped() const { return droppedChunks; }

    /** Stream bytes pushed (frames that were not dropped). */
    uint64_t bytesStreamed() const { return streamedBytes; }

  private:
    void flushChunk();

    ShmRing &ring;
    ShmPolicy policy;
    tracefile::ChunkEncoder encoder;
    uint64_t streamedOps = 0;
    uint64_t streamedBytes = 0;
    uint64_t droppedOps = 0;
    uint64_t droppedChunks = 0;
    bool finished = false;
};

/**
 * TraceSource over a ring's byte stream. The constructor drains the
 * ring to end-of-stream into one shared buffer — TraceReader's open
 * validation is itself a full pass, so a live partial stream could
 * never satisfy it — then serves reads from the buffer. Use the
 * buffer-sharing constructor to replay one drained stream through
 * many readers (e.g. one per machine config) without re-draining.
 */
class ShmSource : public TraceSource
{
  public:
    /** Drain `ring` to end-of-stream (or peer death) and serve it. */
    explicit ShmSource(ShmRing &ring);

    /** Serve an already-drained stream. */
    explicit ShmSource(std::shared_ptr<const std::vector<uint8_t>> bytes);

    /** The drained stream, shareable across further ShmSources. */
    std::shared_ptr<const std::vector<uint8_t>> payload() const
    {
        return stream;
    }

    /**
     * True when the drain ended on producer death rather than a clean
     * finish. The buffered prefix is still served — it decodes up to
     * the truncation point exactly like a truncated file.
     */
    bool peerDied() const { return died; }

    void seek(uint64_t off) override { pos = off; }

    const uint8_t *
    view(size_t n) override
    {
        const uint8_t *p = stream->data() + pos;
        pos += n;
        return p;
    }

    const char *name() const override { return "shm"; }

  private:
    std::shared_ptr<const std::vector<uint8_t>> stream;
    bool died = false;
};

} // namespace wcrt

#endif // WCRT_TRACEFILE_SHM_RING_HH
