#include "sim/stack_distance.hh"

#include <algorithm>
#include <bit>

#include "base/logging.hh"
#include "base/worker_pool.hh"

namespace wcrt {

namespace {

/** splitmix64 finalizer: line ids are near-sequential, spread them. */
uint64_t
mixLine(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Initial open-addressing capacity (power of two). */
constexpr size_t kInitialMapSlots = 1 << 10;

} // namespace

StackDistanceProfile::StackDistanceProfile(uint32_t line_bytes,
                                           unsigned workers,
                                           size_t initial_slots)
    : lineBytes(line_bytes)
{
    if (line_bytes == 0 || !std::has_single_bit(line_bytes))
        wcrt_fatal("stack-distance profile: line size must be a power "
                   "of two, got ", line_bytes);
    lineShift = static_cast<uint32_t>(std::countr_zero(line_bytes));
    poolCap = workers;
    size_t slots = std::bit_ceil(std::max<size_t>(initial_slots, 16));
    instrStream.init(slots);
    dataStream.init(slots);
    uniStream.init(slots);
}

void
StackDistanceProfile::Stream::init(size_t slots)
{
    slotCap = slots;
    fenwick.assign(slotCap + 1, 0);
    keys.assign(kInitialMapSlots, kEmptyKey);
    vals.assign(kInitialMapSlots, 0);
}

void
StackDistanceProfile::Stream::bump(uint64_t d, uint64_t n)
{
    if (d >= hist.size())
        hist.resize(std::max<size_t>(d + 1, hist.size() * 2), 0);
    hist[d] += n;
}

void
StackDistanceProfile::Stream::fenAdd(size_t slot, int64_t delta)
{
    for (size_t i = slot + 1; i <= slotCap; i += i & (~i + 1))
        fenwick[i] = static_cast<uint64_t>(
            static_cast<int64_t>(fenwick[i]) + delta);
}

uint64_t
StackDistanceProfile::Stream::fenPrefix(size_t slot) const
{
    uint64_t sum = 0;
    for (size_t i = slot + 1; i > 0; i -= i & (~i + 1))
        sum += fenwick[i];
    return sum;
}

size_t
StackDistanceProfile::Stream::probe(uint64_t line) const
{
    size_t mask = keys.size() - 1;
    size_t i = mixLine(line) & mask;
    while (keys[i] != kEmptyKey && keys[i] != line)
        i = (i + 1) & mask;
    return i;
}

void
StackDistanceProfile::Stream::growMapIfNeeded()
{
    // Rehash at 70% load; linear probing degrades sharply past that.
    if (live * 10 < keys.size() * 7)
        return;
    std::vector<uint64_t> old_keys = std::move(keys);
    std::vector<uint64_t> old_vals = std::move(vals);
    keys.assign(old_keys.size() * 2, kEmptyKey);
    vals.assign(old_vals.size() * 2, 0);
    size_t mask = keys.size() - 1;
    for (size_t j = 0; j < old_keys.size(); ++j) {
        if (old_keys[j] == kEmptyKey)
            continue;
        size_t i = mixLine(old_keys[j]) & mask;
        while (keys[i] != kEmptyKey)
            i = (i + 1) & mask;
        keys[i] = old_keys[j];
        vals[i] = old_vals[j];
    }
}

void
StackDistanceProfile::Stream::compact()
{
    // Renumber the live slots densely, preserving their order — only
    // the relative order of last-access slots enters any rank query,
    // so every future distance is unchanged. Regrow the slot space to
    // keep at least half free: with >= slotCap/2 accesses between
    // compactions, the O(live log live) renumber amortizes to O(log)
    // per access.
    std::vector<uint64_t> order;
    order.reserve(live);
    for (size_t j = 0; j < keys.size(); ++j)
        if (keys[j] != kEmptyKey)
            order.push_back(vals[j]);
    std::sort(order.begin(), order.end());
    while (slotCap < 2 * (live + 1))
        slotCap *= 2;
    fenwick.assign(slotCap + 1, 0);
    for (size_t j = 0; j < keys.size(); ++j) {
        if (keys[j] == kEmptyKey)
            continue;
        size_t idx = static_cast<size_t>(
            std::lower_bound(order.begin(), order.end(), vals[j]) -
            order.begin());
        vals[j] = idx;
    }
    // O(n) Fenwick build over the dense prefix of set bits.
    for (size_t i = 1; i <= live; ++i)
        fenwick[i] = 1;
    for (size_t i = 1; i <= slotCap; ++i) {
        size_t parent = i + (i & (~i + 1));
        if (parent <= slotCap)
            fenwick[parent] += fenwick[i];
    }
    clock = live;
}

void
StackDistanceProfile::Stream::access(uint64_t line, uint32_t count)
{
    total += count;
    if (line == lastLine) {
        // The stream's previous run touched this line — every access
        // of this run reuses the stack's top entry at distance zero.
        bump(0, count);
        return;
    }
    lastLine = line;
    if (clock == slotCap)
        compact();
    size_t i = probe(line);
    if (keys[i] == kEmptyKey) {
        // First touch: compulsory miss at every capacity; the run's
        // tail re-touches the line at distance zero.
        keys[i] = line;
        vals[i] = clock;
        ++live;
        ++cold;
        if (count > 1)
            bump(0, count - 1);
        fenAdd(clock, +1);
        ++clock;
        growMapIfNeeded();
    } else {
        // Reuse: the distance is the number of live lines whose
        // last-access slot is more recent than this line's — a rank
        // query against the Fenwick tree.
        uint64_t prev = vals[i];
        uint64_t d = live - fenPrefix(static_cast<size_t>(prev));
        bump(d, 1);
        if (count > 1)
            bump(0, count - 1);
        fenAdd(static_cast<size_t>(prev), -1);
        fenAdd(clock, +1);
        vals[i] = clock;
        ++clock;
    }
}

void
StackDistanceProfile::consume(const MicroOp &op)
{
    ++ops;
    uint64_t pc_line = op.pc >> lineShift;
    instrStream.access(pc_line, 1);
    uniStream.access(pc_line, 1);
    if (op.memSize > 0) {
        uint64_t mem_line = op.memAddr >> lineShift;
        dataStream.access(mem_line, 1);
        uniStream.access(mem_line, 1);
    }
}

void
StackDistanceProfile::consumeBatch(const OpBlockView &batch)
{
    ops += batch.count;
    if (batch.count == 0)
        return;
    // Distances are write-sense-blind, and runs merge across
    // read/write alternation — maximal compression, with the per-op
    // order within each stream preserved exactly.
    runs.build(batch, lineShift);
    auto stream_task = [&](size_t s) {
        Stream &st = s == 0 ? instrStream
                     : s == 1 ? dataStream
                              : uniStream;
        for (const LineRun &r : runs.stream(s))
            st.access(r.line, r.count);
    };
    if (poolCap > 1) {
        WorkerPool::shared().runBounded(3, std::min(poolCap, 3u),
                                        stream_task);
    } else {
        for (size_t s = 0; s < 3; ++s)
            stream_task(s);
    }
}

const StackDistanceProfile::Stream &
StackDistanceProfile::streamFor(SweepKind kind) const
{
    switch (kind) {
      case SweepKind::Instruction:
        return instrStream;
      case SweepKind::Data:
        return dataStream;
      default:
        return uniStream;
    }
}

std::vector<double>
StackDistanceProfile::missRatios(
    SweepKind kind, const std::vector<uint32_t> &sizes_kb) const
{
    const Stream &s = streamFor(kind);
    // One histogram walk serves every rung: sort the capacities (in
    // lines) and accumulate hits as the walk crosses each one.
    std::vector<std::pair<uint64_t, size_t>> caps;
    caps.reserve(sizes_kb.size());
    for (size_t i = 0; i < sizes_kb.size(); ++i) {
        uint64_t cap_lines =
            (static_cast<uint64_t>(sizes_kb[i]) * 1024) / lineBytes;
        caps.emplace_back(cap_lines, i);
    }
    std::sort(caps.begin(), caps.end());
    std::vector<double> out(sizes_kb.size(), 0.0);
    uint64_t hits = 0;
    size_t d = 0;
    for (const auto &[cap_lines, idx] : caps) {
        size_t limit = static_cast<size_t>(
            std::min<uint64_t>(cap_lines, s.hist.size()));
        for (; d < limit; ++d)
            hits += s.hist[d];
        uint64_t misses = s.total - hits;
        out[idx] = s.total ? static_cast<double>(misses) /
                                 static_cast<double>(s.total)
                           : 0.0;
    }
    return out;
}

uint64_t
StackDistanceProfile::accesses(SweepKind kind) const
{
    return streamFor(kind).total;
}

uint64_t
StackDistanceProfile::coldMisses(SweepKind kind) const
{
    return streamFor(kind).cold;
}

uint64_t
StackDistanceProfile::distinctLines(SweepKind kind) const
{
    return streamFor(kind).live;
}

const std::vector<uint64_t> &
StackDistanceProfile::histogram(SweepKind kind) const
{
    return streamFor(kind).hist;
}

} // namespace wcrt
