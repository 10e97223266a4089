#include "base/summary.hh"

#include <algorithm>
#include <cmath>
#include <limits>

namespace wcrt {

void
Summary::add(double x)
{
    if (n == 0) {
        lo = x;
        hi = x;
    } else {
        lo = std::min(lo, x);
        hi = std::max(hi, x);
    }
    ++n;
    total += x;
    double delta = x - m;
    m += delta / static_cast<double>(n);
    m2 += delta * (x - m);
}

void
Summary::merge(const Summary &other)
{
    if (other.n == 0)
        return;
    if (n == 0) {
        *this = other;
        return;
    }
    uint64_t combined = n + other.n;
    double delta = other.m - m;
    double new_m = m + delta * static_cast<double>(other.n) /
                           static_cast<double>(combined);
    m2 += other.m2 + delta * delta * static_cast<double>(n) *
                         static_cast<double>(other.n) /
                         static_cast<double>(combined);
    m = new_m;
    n = combined;
    total += other.total;
    lo = std::min(lo, other.lo);
    hi = std::max(hi, other.hi);
}

double
Summary::variance() const
{
    if (n < 2)
        return 0.0;
    return m2 / static_cast<double>(n);
}

double
Summary::stddev() const
{
    return std::sqrt(variance());
}

double
Summary::min() const
{
    return n ? lo : std::numeric_limits<double>::infinity();
}

double
Summary::max() const
{
    return n ? hi : -std::numeric_limits<double>::infinity();
}

} // namespace wcrt
