#include "sim/line_runs.hh"

#include <algorithm>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define WCRT_LINE_RUNS_AVX2 1
#endif

namespace wcrt {

namespace {

void
shiftLinesScalar(const uint64_t *addrs, size_t begin, size_t end,
                 uint32_t shift, uint64_t *out)
{
    for (size_t i = begin; i < end; ++i)
        out[i] = addrs[i] >> shift;
}

#ifdef WCRT_LINE_RUNS_AVX2

/**
 * AVX2 line-id precompute: four 64-bit logical right shifts per
 * vector. Returns the index shifted up to; the caller finishes the
 * tail with shiftLinesScalar.
 */
__attribute__((target("avx2"))) size_t
shiftLinesAvx2(const uint64_t *addrs, size_t count, uint32_t shift,
               uint64_t *out)
{
    const __m128i sh = _mm_cvtsi32_si128(static_cast<int>(shift));
    size_t i = 0;
    for (; i + 4 <= count; i += 4) {
        __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(addrs + i));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + i),
                            _mm256_srl_epi64(v, sh));
    }
    return i;
}

bool
haveAvx2()
{
    static const bool have = __builtin_cpu_supports("avx2");
    return have;
}

#endif // WCRT_LINE_RUNS_AVX2

} // namespace

void
shiftLines(const uint64_t *addrs, size_t count, uint32_t shift,
           uint64_t *out)
{
    size_t i = 0;
#ifdef WCRT_LINE_RUNS_AVX2
    if (count >= 16 && haveAvx2())
        i = shiftLinesAvx2(addrs, count, shift, out);
#endif
    shiftLinesScalar(addrs, i, count, shift, out);
}

void
LineRunStreams::build(const OpBlockView &batch, uint32_t line_shift)
{
    const size_t count = batch.count;
    if (pcLines.size() < count) {
        pcLines.resize(count);
        memLines.resize(count);
    }
    shiftLines(batch.pcs, count, line_shift, pcLines.data());
    shiftLines(batch.memAddrs, count, line_shift, memLines.data());

    instrRuns.clear();
    dataRuns.clear();
    uniRuns.clear();
    auto extend = [](std::vector<LineRun> &runs, uint64_t line, bool w) {
        if (!runs.empty() && runs.back().line == line) {
            ++runs.back().count;
            return;
        }
        runs.push_back(
            LineRun{line, 1, static_cast<uint8_t>(w ? 1 : 0)});
    };
    for (size_t i = 0; i < count; ++i) {
        uint64_t pc_line = pcLines[i];
        extend(instrRuns, pc_line, false);
        extend(uniRuns, pc_line, false);
        if (batch.memSizes[i] != 0) {
            bool is_write = batch.kinds[i] == OpKind::Store;
            uint64_t mem_line = memLines[i];
            extend(dataRuns, mem_line, is_write);
            extend(uniRuns, mem_line, is_write);
        }
    }
}

} // namespace wcrt
