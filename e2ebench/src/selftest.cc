/**
 * @file
 * Self-test of the benchmark's helpers (stats.h): quantiles against
 * hand-computed values, and the seeded arrival schedule's determinism,
 * count and range.  Exits non-zero on the first failed check.
 */

#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void
check(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "FAIL: %s\n", what);
        ++failures;
    }
}

bool
near(double a, double b)
{
    return std::abs(a - b) <= 1e-12 * std::max(1.0, std::abs(b));
}

} // namespace

int
main()
{
    // Quantiles interpolate linearly between closest ranks.
    const std::vector<double> v = {4.0, 1.0, 3.0, 2.0, 5.0};
    check(near(e2e::quantile(v, 0.0), 1.0), "q0 is the minimum");
    check(near(e2e::quantile(v, 1.0), 5.0), "q1 is the maximum");
    check(near(e2e::median(v), 3.0), "odd-count median");
    check(near(e2e::quantile(v, 0.9), 4.6), "p90 interpolates");
    check(near(e2e::median({1.0, 2.0, 3.0, 10.0}), 2.5), "even-count median");
    check(near(e2e::quantile({7.0}, 0.99), 7.0), "single sample");
    check(e2e::quantile({}, 0.5) == 0.0, "empty input");


    // The schedule is a pure function of (seed, rate, seconds).
    const std::vector<double> a = e2e::poissonSchedule(7, 20.0, 30.0);
    const std::vector<double> b = e2e::poissonSchedule(7, 20.0, 30.0);
    const std::vector<double> c = e2e::poissonSchedule(8, 20.0, 30.0);
    check(a == b, "same seed, same schedule");
    check(a != c, "different seed, different schedule");
    check(a.size() == 600 && c.size() == 600, "count is rate x seconds");
    bool sorted = true, inRange = true;
    for (std::size_t i = 0; i < a.size(); ++i) {
        sorted = sorted && (i == 0 || a[i - 1] <= a[i]);
        inRange = inRange && a[i] >= 0.0 && a[i] < 30.0;
    }
    check(sorted, "due times are sorted");
    check(inRange, "due times lie in [0, seconds)");
    // Gaps of a Poisson process average 1 / rate.
    const double meanGap = (a.back() - a.front()) / (a.size() - 1);
    check(std::abs(meanGap - 0.05) < 0.005, "mean gap is 1 / rate");
    check(e2e::poissonSchedule(7, 0.0, 30.0).empty(), "zero rate");

    check(e2e::hostRefMs(2) > 0.0, "host probe measures time");

    if (failures == 0)
        std::printf("e2ebench self-test: all checks passed\n");
    return failures == 0 ? 0 : 1;
}
