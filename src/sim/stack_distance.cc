#include "sim/stack_distance.hh"

#include <algorithm>
#include <bit>

#include "base/logging.hh"

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

/** log2 of a validated power-of-two line size. */
uint32_t
lineShiftOf(uint32_t line_bytes)
{
    // One line, one way: only the line size can be at fault.
    std::string err = cacheGeometryError(line_bytes, 1, line_bytes);
    if (!err.empty())
        wcrt_fatal("stack-distance profile: ", err);
    return static_cast<uint32_t>(std::countr_zero(line_bytes));
}

/** Slot-space size: a power of two holding whole 64-slot words. */
size_t
slotSpace(size_t initial_slots)
{
    return std::bit_ceil(std::max<size_t>(initial_slots, 64));
}

/** Mask of the bits of a word strictly below bit `b`. */
uint64_t
below(uint64_t b)
{
    return (1ull << b) - 1;
}

} // namespace

StackDistanceProfile::StackDistanceProfile(uint32_t line_bytes,
                                           unsigned /*workers*/,
                                           size_t initial_slots)
    : lineShift(lineShiftOf(line_bytes)), lineBytes(line_bytes)
{
    for (Stream &st : streams)
        st.init(slotSpace(initial_slots));
}

StackDistanceProfile::StackDistanceProfile(SweepKind only,
                                           uint32_t line_bytes,
                                           size_t initial_slots)
    : firstKind(static_cast<size_t>(only)), endKind(firstKind + 1),
      lineShift(lineShiftOf(line_bytes)), lineBytes(line_bytes)
{
    streams[firstKind].init(slotSpace(initial_slots));
}

void
StackDistanceProfile::Stream::init(size_t slots)
{
    slotCap = slots;
    bits.assign(slotCap / 64, 0);
    wordTree.assign(bits.size() + 1, 0);
    keys.assign(kInitialMapSlots, kEmptyKey);
    vals.assign(kInitialMapSlots, 0);
}

void
StackDistanceProfile::Stream::bump(uint64_t d)
{
    if (d >= hist.size())
        hist.resize(std::max<size_t>(d + 1, hist.size() * 2), 0);
    ++hist[d];
}

void
StackDistanceProfile::Stream::wordAdd(size_t word, int64_t delta)
{
    for (size_t i = word + 1; i <= bits.size(); i += i & (~i + 1))
        wordTree[i] = static_cast<uint64_t>(
            static_cast<int64_t>(wordTree[i]) + delta);
}

uint64_t
StackDistanceProfile::Stream::wordPrefix(size_t words) const
{
    uint64_t sum = 0;
    for (size_t i = words; i > 0; i -= i & (~i + 1))
        sum += wordTree[i];
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
    // Renumber every live slot to its rank among the live slots —
    // order-preserving, and only the relative order of last-access
    // slots enters any rank query, so every future distance is
    // unchanged. Regrow the slot space to keep at least half free:
    // with >= slotCap/2 accesses between compactions, the
    // O(map + slots/64) renumber amortizes to O(1) per access.
    std::vector<uint64_t> rank(bits.size());  // live slots before word
    uint64_t seen = 0;
    for (size_t w = 0; w < bits.size(); ++w) {
        rank[w] = seen;
        seen += static_cast<uint64_t>(std::popcount(bits[w]));
    }
    for (size_t j = 0; j < keys.size(); ++j) {
        if (keys[j] == kEmptyKey)
            continue;
        uint64_t p = vals[j];
        vals[j] = rank[p >> 6] + static_cast<uint64_t>(std::popcount(
                                     bits[p >> 6] & below(p & 63)));
    }
    while (slotCap < 2 * (live + 1))
        slotCap *= 2;
    // The renumbered slots are exactly the dense prefix [0, live).
    bits.assign(slotCap / 64, 0);
    std::fill_n(bits.begin(), live / 64, ~0ull);
    if (live % 64 != 0)
        bits[live / 64] = below(live % 64);
    // O(n) Fenwick build over the word popcounts.
    wordTree.assign(bits.size() + 1, 0);
    for (size_t i = 1; i <= bits.size(); ++i) {
        wordTree[i] += static_cast<uint64_t>(std::popcount(bits[i - 1]));
        size_t parent = i + (i & (~i + 1));
        if (parent <= bits.size())
            wordTree[parent] += wordTree[i];
    }
    clock = live;
}

uint64_t
StackDistanceProfile::Stream::touch(uint64_t line)
{
    if (clock == slotCap)
        compact();
    size_t i = probe(line);
    uint64_t now = clock++;
    bits[now >> 6] |= 1ull << (now & 63);
    if (keys[i] == kEmptyKey) {
        keys[i] = line;
        vals[i] = now;
        ++live;
        wordAdd(now >> 6, +1);
        growMapIfNeeded();
        return kFirstTouch;
    }
    // The depth is the number of live lines whose last-access slot is
    // more recent than this line's — every live slot but this one,
    // less those before it: the whole words below its word from the
    // tree, the lower bits of its own word by popcount. (The bit just
    // set for `now` sits above `prev`.)
    uint64_t prev = vals[i];
    size_t word = prev >> 6;
    uint64_t before =
        wordPrefix(word) + static_cast<uint64_t>(std::popcount(
                               bits[word] & below(prev & 63)));
    bits[word] &= ~(1ull << (prev & 63));
    if (word != now >> 6) {
        wordAdd(word, -1);
        wordAdd(now >> 6, +1);
    }
    vals[i] = now;
    return live - 1 - before;
}

void
StackDistanceProfile::Stream::count(uint64_t line, uint64_t d)
{
    if (d != kFirstTouch) {
        bump(d);
        return;
    }
    // First touch: compulsory miss at every capacity.
    ++cold;
    firsts.push_back(line);
}

void
StackDistanceProfile::Stream::access(uint64_t line)
{
    ++total;
    if (line == lastLine) {
        // The stream's previous reference touched this line: a reuse
        // of the stack's top entry at distance zero.
        bump(0);
        return;
    }
    lastLine = line;
    count(line, touch(line));
}

void
StackDistanceProfile::Stream::absorb(const Stream &later)
{
    // Replay `later`'s first touches in order. Every line `later`
    // touched before its first touch of a line L is itself one of
    // those first touches, so the lines above L when it is replayed
    // are exactly those touched since L's previous access: its depth
    // is its exact distance across the boundary.
    for (uint64_t line : later.firsts)
        count(line, touch(line));
    // Re-stack `later`'s lines oldest first, so the stack ends as one
    // pass over both stretches would leave it.
    std::vector<std::pair<uint64_t, uint64_t>> recency;  // (slot, line)
    recency.reserve(later.live);
    for (size_t j = 0; j < later.keys.size(); ++j)
        if (later.keys[j] != kEmptyKey)
            recency.emplace_back(later.vals[j], later.keys[j]);
    std::sort(recency.begin(), recency.end());
    for (const auto &entry : recency)
        touch(entry.second);
    // Reuses inside `later` already carry their exact distances.
    if (hist.size() < later.hist.size())
        hist.resize(later.hist.size(), 0);
    for (size_t d = 0; d < later.hist.size(); ++d)
        hist[d] += later.hist[d];
    total += later.total;
    if (later.total != 0)
        lastLine = later.lastLine;  // now on top of the stack
}

void
StackDistanceProfile::walk(Stream &st, SweepKind kind,
                           const OpBlockView &batch) const
{
    // Per-op reference order within the stream, so back-to-back
    // repeats land on the lastLine check exactly as in consume().
    switch (kind) {
      case SweepKind::Instruction:
        for (size_t i = 0; i < batch.count; ++i)
            st.access(batch.pcs[i] >> lineShift);
        break;
      case SweepKind::Data:
        for (size_t i = 0; i < batch.count; ++i)
            if (batch.memSizes[i] != 0)
                st.access(batch.memAddrs[i] >> lineShift);
        break;
      case SweepKind::Unified:
        for (size_t i = 0; i < batch.count; ++i) {
            st.access(batch.pcs[i] >> lineShift);
            if (batch.memSizes[i] != 0)
                st.access(batch.memAddrs[i] >> lineShift);
        }
        break;
    }
}

void
StackDistanceProfile::consume(const MicroOp &op)
{
    OpBlockView one;
    one.pcs = &op.pc;
    one.memAddrs = &op.memAddr;
    one.memSizes = &op.memSize;
    one.count = 1;
    consumeBatch(one);
}

void
StackDistanceProfile::consumeBatch(const OpBlockView &batch)
{
    ops += batch.count;
    for (size_t k = firstKind; k < endKind; ++k)
        walk(streams[k], static_cast<SweepKind>(k), batch);
}

void
StackDistanceProfile::absorb(const StackDistanceProfile &later)
{
    if (later.firstKind != firstKind || later.endKind != endKind ||
        later.lineBytes != lineBytes)
        wcrt_fatal("stack-distance profile: cannot absorb a profile of "
                   "other streams or another line size");
    for (size_t k = firstKind; k < endKind; ++k)
        streams[k].absorb(later.streams[k]);
    ops += later.ops;
}

const StackDistanceProfile::Stream &
StackDistanceProfile::streamFor(SweepKind kind) const
{
    static const char *const kNames[] = {"instruction", "data",
                                         "unified"};
    size_t k = static_cast<size_t>(kind);
    if (k < firstKind || k >= endKind)
        wcrt_fatal("stack-distance profile: asked for the ", kNames[k],
                   " stream of a profile that tracks only the ",
                   kNames[firstKind], " stream");
    return streams[k];
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
