/**
 * @file
 * The benchmark's metric arithmetic: simulated work derived from a
 * run's counter snapshot, ratios that carry their base, and the
 * order statistics (median, quartiles) the benchmark reports over
 * passes. Pure functions, unit-tested by tests/metrics_test.cc.
 */

#ifndef PERFBENCH_METRICS_HH
#define PERFBENCH_METRICS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "workload/runner.hh"

namespace perfbench
{

/** Sum of a counter over every cache of one kind ("dcache" or
 *  "icache"), uni- and multiprocessor names alike: "dcache.reads" and
 *  "dcache0.reads", "dcache1.reads", ... each counted once. */
std::uint64_t sumCaches(const vic::RunResult &r, const std::string &kind,
                        const std::string &suffix);

/** Same, over data AND instruction caches. */
std::uint64_t sumAllCaches(const vic::RunResult &r,
                           const std::string &suffix);

/** CPU references: data-cache loads and stores plus instruction
 *  fetches. */
std::uint64_t cpuRefs(const vic::RunResult &r);

/** Simulated work: CPU references plus DMA words moved. Exact, and
 *  independent of the cycle cost model. */
std::uint64_t simulatedRefs(const vic::RunResult &r);

/** The paper's Table 1 count of software cache operations. */
std::uint64_t tableOneCacheOps(const vic::RunResult &r);

/** Lines a flushPage/purgePage visited, present or absent, over every
 *  cache. */
std::uint64_t pageOpLines(const vic::RunResult &r);

/** Of pageOpLines, those that held the page's data. */
std::uint64_t pageOpPresentLines(const vic::RunResult &r);

/** Coherence-bus transactions: reads + read-exclusives + upgrades. */
std::uint64_t busTransactions(const vic::RunResult &r);

/** A ratio that keeps its base, so a report can always print both.
 *  A zero base (the layer was not exercised) reads as ratio 0. */
struct Ratio
{
    double num = 0;
    double base = 0;

    double value() const { return base == 0 ? 0.0 : num / base; }

    Ratio &
    operator+=(const Ratio &o)
    {
        num += o.num;
        base += o.base;
        return *this;
    }
};

/** Median (mean of the middle two for an even count); 0 when empty. */
double median(std::vector<double> values);

/** Quartiles exactly as Python's statistics.quantiles(values, n=4)
 *  (the default 'exclusive' method) gives them. Python rejects fewer
 *  than two values; here one value yields itself three times and no
 *  values yield zeros. */
struct Quartiles
{
    double q1 = 0;
    double q2 = 0;
    double q3 = 0;

    /** (q3 - q1) / q2: the run-to-run spread as a share of the
     *  median; 0 when the median is 0. */
    double spread() const { return q2 == 0 ? 0.0 : (q3 - q1) / q2; }
};
Quartiles quartiles(std::vector<double> values);

/**
 * Scale a time measured on a sample of calls up to all calls: the
 * sampled calls took @p sampled_seconds in total, and @p samples of
 * @p calls calls were timed. Calls are sampled evenly by call index,
 * so the estimate is the mean sampled cost times the call count.
 */
double scaleSampled(double sampled_seconds, std::uint64_t samples,
                    std::uint64_t calls);

/**
 * Host seconds expressed in reference seconds (host_speed.hh): @p chunks
 * reference chunks took @p chunk_host_seconds on the host, and one chunk
 * is worth @p chunk_reference_seconds. With no chunks the host seconds
 * are returned unscaled.
 */
double referenceSeconds(double host_seconds, double chunk_host_seconds,
                        std::uint64_t chunks, double chunk_reference_seconds);

} // namespace perfbench

#endif // PERFBENCH_METRICS_HH
