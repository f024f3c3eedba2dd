/**
 * @file
 * Sample statistics, the seeded open-loop arrival schedule and the
 * host-speed probe of the end-to-end benchmark.  Header-only and free of
 * any aqfpsc dependency, so the self-test checks them in isolation.
 */

#ifndef AQFPSC_E2EBENCH_STATS_H
#define AQFPSC_E2EBENCH_STATS_H

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

namespace e2e {

/**
 * Quantile @p q in [0, 1] of @p values by linear interpolation between
 * the closest ranks (NumPy's default): q = 0 is the minimum, q = 1 the
 * maximum.  Empty input gives 0.
 */
inline double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank =
        std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double
median(const std::vector<double> &values)
{
    return quantile(values, 0.5);
}

/** splitmix64: a tiny, fully specified generator, so a schedule is the
 *  same on every standard library (std::*_distribution is not). */
class SplitMix64
{
  public:
    explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
        return z ^ (z >> 31);
    }

    /** Uniform double in [0, 1) from the top 53 bits. */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

  private:
    std::uint64_t state_;
};

/**
 * Open-loop Poisson arrivals: due times in seconds from the schedule
 * start, sorted, inside [0, @p seconds).  The count is fixed at
 * round(@p rate x @p seconds) and the times are that many uniform draws
 * from @p seed: a Poisson process conditioned on its count, so every
 * seed offers the same load and only the arrival pattern changes.  A
 * pure function of its arguments.
 */
inline std::vector<double>
poissonSchedule(std::uint64_t seed, double rate, double seconds)
{
    std::vector<double> due;
    if (!(rate > 0.0) || !(seconds > 0.0))
        return due;
    const auto count = static_cast<std::size_t>(std::llround(rate * seconds));
    SplitMix64 rng(seed ^ 0x5C4EDD1E5EEDULL);
    due.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        due.push_back(rng.uniform() * seconds);
    std::sort(due.begin(), due.end());
    return due;
}

/**
 * Host-speed probe: milliseconds of a fixed integer workload that uses
 * nothing from the program under test, run on @p threads threads at once
 * (as many as the workloads' workers, so it meets the same contention),
 * median over five repetitions of the slowest thread.  It shows host
 * drift next to the metrics and never adjusts them.
 */
inline double
hostRefMs(int threads)
{
    const auto work = [] {
        std::vector<std::uint64_t> buf(1 << 13);
        SplitMix64 rng(42);
        for (auto &w : buf)
            w = rng.next();
        std::uint64_t h = 0xCBF29CE484222325ULL;
        for (int pass = 0; pass < 400; ++pass) {
            for (std::size_t i = 0; i < buf.size(); ++i) {
                h = (h ^ buf[i]) * 0x100000001B3ULL;
                buf[i] ^= h >> 7;
            }
        }
        // Publish the hash so the loop cannot be elided.
        static std::atomic<std::uint64_t> sink{0};
        sink.fetch_xor(h, std::memory_order_relaxed);
    };
    std::vector<double> ms;
    for (int rep = 0; rep < 5; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        std::vector<std::thread> pool;
        for (int t = 1; t < threads; ++t)
            pool.emplace_back(work);
        work();
        for (std::thread &t : pool)
            t.join();
        ms.push_back(std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count());
    }
    return median(ms);
}

} // namespace e2e

#endif // AQFPSC_E2EBENCH_STATS_H
