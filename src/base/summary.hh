/**
 * @file
 * Streaming summary statistics.
 *
 * Every profiler metric and every report column reduces through a
 * Summary; keeping it allocation-free makes the trace hot path cheap.
 */

#ifndef WCRT_BASE_SUMMARY_HH
#define WCRT_BASE_SUMMARY_HH

#include <cstdint>

namespace wcrt {

/**
 * Welford-style streaming mean/variance with min/max tracking.
 */
class Summary
{
  public:
    /** Fold one observation into the summary. */
    void add(double x);

    /** Merge another summary (parallel reduction). */
    void merge(const Summary &other);

    /** Number of observations. */
    uint64_t count() const { return n; }

    /** Arithmetic mean (0 when empty). */
    double mean() const { return n ? m : 0.0; }

    /** Population variance (0 when fewer than two samples). */
    double variance() const;

    /** Population standard deviation. */
    double stddev() const;

    /** Smallest observation (+inf when empty). */
    double min() const;

    /** Largest observation (-inf when empty). */
    double max() const;

    /** Sum of all observations. */
    double sum() const { return total; }

  private:
    uint64_t n = 0;
    double m = 0.0;
    double m2 = 0.0;
    double total = 0.0;
    double lo = 0.0;
    double hi = 0.0;
};

} // namespace wcrt

#endif // WCRT_BASE_SUMMARY_HH
