/**
 * @file
 * Measurement plumbing for the end-to-end benchmark: clocks, in-memory
 * spans around calls into the toolkit's layers, failure accounting,
 * order statistics, output digests and JSON string helpers.
 *
 * Spans are recorded only from the benchmark's own code, around calls
 * into the public functions of each layer; nothing under src/ is
 * instrumented. A null SpanLog turns every span into a plain call, so
 * the untraced passes pay nothing for tracing.
 */

#ifndef WCRT_PERFBENCH_HARNESS_HH
#define WCRT_PERFBENCH_HARNESS_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/** Wall seconds on the steady clock. */
double wallNow();

/** User + system CPU seconds of the whole process (all threads). */
double cpuNow();

/** Peak resident set (VmHWM) of the process in MB. */
double peakRssMb();

/**
 * Reset the kernel's peak-RSS watermark so a later peakRssMb() covers
 * only what follows. False when the kernel refuses (then the peak
 * includes everything before).
 */
bool resetPeakRss();

/** One timed call into a layer. */
struct Span
{
    std::string name;   //!< "<layer>.<call>", e.g. "tracefile.open"
    std::string item;   //!< roster item the call served ("" = none)
    int parent = -1;    //!< index of the enclosing span, -1 at top
    double start = 0.0; //!< wall seconds since the log began
    double end = 0.0;
    double cpuStart = 0.0;  //!< process CPU seconds at open/close
    double cpuEnd = 0.0;

    double seconds() const { return end - start; }
    double cpuSeconds() const { return cpuEnd - cpuStart; }

    /** Layer prefix of the name (text before the first '.'). */
    std::string layer() const { return name.substr(0, name.find('.')); }
};

/** Spans of one run, kept in memory and written out at the end. */
class SpanLog
{
  public:
    SpanLog();

    /** Open a span nested in the innermost open one; returns its id. */
    int open(std::string name, std::string item);

    /** Close span `id` (must be the innermost open span). */
    void close(int id);

    const std::vector<Span> &spans() const { return log; }

    /** Total wall seconds of every span named `name`. */
    double total(const std::string &name) const;

    /** Wall seconds of each span named `name`, in recording order. */
    std::vector<double> durations(const std::string &name) const;

    /** Wall seconds of span `id` not covered by its direct children. */
    double selfSeconds(int id) const;

    /**
     * Self seconds summed per layer over span `root` and everything
     * nested in it.
     */
    std::map<std::string, double> selfByLayer(int root) const;

  private:
    bool within(int id, int root) const;

    std::vector<Span> log;
    int current = -1;
    double origin = 0.0;
};

/**
 * Run `fn` inside a span named `name` for `item`; with a null log, just
 * run it. The span closes on exceptions too, and the exception
 * propagates.
 */
template <typename Fn>
decltype(auto)
span(SpanLog *log, const char *name, const std::string &item, Fn &&fn)
{
    if (!log)
        return std::forward<Fn>(fn)();
    struct Closer
    {
        SpanLog *log;
        int id;
        ~Closer() { log->close(id); }
    } closer{log, log->open(name, item)};
    return std::forward<Fn>(fn)();
}

/** Attempted and failed items of one run, with the first reasons. */
class Outcome
{
  public:
    /** Count one item; a false `ok` records `why` as a failure. */
    void item(bool ok, const std::string &what, const std::string &why);

    uint64_t attempted() const { return tried; }
    uint64_t failed() const { return bad; }
    const std::vector<std::string> &reasons() const { return why; }

  private:
    uint64_t tried = 0;
    uint64_t bad = 0;
    std::vector<std::string> why;
};

/** Median of a non-empty sample (mean of the middle pair when even). */
double median(std::vector<double> v);

/** Largest element of a sample (0 when empty). */
double maximum(const std::vector<double> &v);

/**
 * FNV-1a digest of simulated outputs. Doubles enter as their `%.17g`
 * text, so two digests agree exactly when every value round-trips to
 * the same bits.
 */
class Digest
{
  public:
    Digest &add(double v);
    Digest &add(uint64_t v);
    Digest &add(const std::string &s);

    uint64_t value() const { return h; }

    /** 16 lowercase hex digits. */
    std::string hex() const;

  private:
    uint64_t h = 1469598103934665603ull;
};

/** `%.17g` text of a double; non-finite values become JSON null. */
std::string jsonNumber(double v);

/** Quoted, escaped JSON string. */
std::string jsonString(const std::string &s);

} // namespace perfbench

#endif // WCRT_PERFBENCH_HARNESS_HH
