/**
 * @file
 * Tests of the benchmark's metric arithmetic (src/metrics.hh). Exit
 * status 0 iff every check holds; run.py runs it before every
 * measurement, and it can be run by hand from the build directory.
 */

#include <cmath>
#include <cstdio>

#include "metrics.hh"
#include "trace.hh"

namespace
{

using namespace perfbench;

int failures = 0;

void
check(bool ok, const char *what)
{
    if (!ok) {
        std::printf("FAIL: %s\n", what);
        ++failures;
    }
}

bool
near(double a, double b)
{
    return std::fabs(a - b) <= 1e-12 * std::max(1.0, std::fabs(b));
}

void
refsFromUniprocessorRun()
{
    vic::RunResult r;
    r.stats = {{"dcache.reads", 100},    {"dcache.writes", 40},
               {"icache.reads", 7},      {"icache.writes", 1000},
               {"dcache.hits", 9999},    {"dma.words_moved", 12},
               {"dma.device_reads", 3}};
    check(cpuRefs(r) == 147, "uni cpu refs = d reads + d writes + i reads");
    check(simulatedRefs(r) == 159, "uni refs add dma words");
}

void
refsFromTwoCpuRun()
{
    // Per-CPU names, plus a counter that the prefix sweep must not
    // mistake for a read count.
    vic::RunResult r;
    r.stats = {{"dcache0.reads", 10},        {"dcache1.reads", 20},
               {"dcache0.writes", 1},        {"dcache1.writes", 2},
               {"icache0.reads", 100},       {"icache1.reads", 200},
               {"dcache0.synonym_snoops", 5}, {"bus.reads", 77},
               {"dma.words_moved", 1000}};
    check(cpuRefs(r) == 333, "2-cpu cpu refs sum dcacheN/icacheN once");
    check(simulatedRefs(r) == 1333, "2-cpu refs add dma words");
    check(sumAllCaches(r, ".synonym_snoops") == 5, "synonym sum");
    check(busTransactions(r) == 77, "bus transactions");
}

void
tableOneOpsAndPageLines()
{
    vic::RunResult r;
    r.stats = {{"pmap.d_page_flushes", 3}, {"pmap.d_page_purges", 4},
               {"pmap.i_page_purges", 5},  {"pmap.d_flush.dma_read", 2},
               {"dcache.flush_present", 1}, {"dcache.flush_absent", 127},
               {"dcache.purge_present", 2}, {"dcache.purge_absent", 126},
               {"icache.purge_present", 0}, {"icache.purge_absent", 128}};
    check(tableOneCacheOps(r) == 12, "table 1 ops = d flush + d purge + "
                                     "i purge, reason counters excluded");
    check(pageOpLines(r) == 384, "page-op lines, present and absent");
    check(pageOpPresentLines(r) == 3, "present page-op lines");
}

void
ratioBases()
{
    const Ratio r{3, 12};
    check(near(r.value(), 0.25), "ratio value");
    check(Ratio{5, 0}.value() == 0, "zero base reads as 0");
    Ratio sum;
    sum += {1, 4};
    sum += {3, 4};
    check(sum.num == 4 && sum.base == 8 && near(sum.value(), 0.5),
          "ratios add numerators and bases, not values");
}

void
medianAndQuartiles()
{
    check(median({}) == 0, "empty median");
    check(median({3, 1, 2}) == 2, "odd median");
    check(median({4, 1, 3, 2}) == 2.5, "even median");

    // Reference values from Python: statistics.quantiles(v, n=4).
    const Quartiles a = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
    check(near(a.q1, 2.75) && near(a.q2, 5.5) && near(a.q3, 8.25),
          "quartiles of 1..10 = [2.75, 5.5, 8.25]");
    const Quartiles b = quartiles({10, 1, 7, 3});
    check(near(b.q1, 1.5) && near(b.q2, 5.0) && near(b.q3, 9.25),
          "quartiles of [10,1,7,3] = [1.5, 5.0, 9.25]");
    const Quartiles c = quartiles({2, 4});
    check(near(c.q1, 1.5) && near(c.q2, 3.0) && near(c.q3, 4.5),
          "quartiles of [2,4] = [1.5, 3.0, 4.5]");
    const Quartiles d = quartiles({5});
    check(d.q1 == 5 && d.q2 == 5 && d.q3 == 5, "one value");
    check(near(a.spread(), (8.25 - 2.75) / 5.5), "spread = iqr / median");
}

/** Counts what reaches the wrapped observer. */
struct CountingObserver : vic::MemoryObserver
{
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t lastValue = 0;

    void cpuLoad(vic::PhysAddr, std::uint32_t v) override
    { ++loads; lastValue = v; }
    void cpuStore(vic::PhysAddr, std::uint32_t v) override
    { ++stores; lastValue = v; }
};

void
sampledOracleScaling()
{
    // The decorator forwards every call and times calls 0, P, 2P, ...
    constexpr std::uint32_t P = SampledObserver::kPeriod;
    CountingObserver inner;
    SampledObserver sampled(inner);
    check(sampled.samples() == 0 && sampled.calls() == 0, "starts empty");
    sampled.cpuStore(vic::PhysAddr(0), 1);
    check(sampled.samples() == 1, "call 0 is sampled");
    for (std::uint32_t i = 1; i < P; ++i)
        sampled.cpuLoad(vic::PhysAddr(0), i);
    check(sampled.samples() == 1, "calls 1..P-1 are not");
    sampled.cpuLoad(vic::PhysAddr(4), 99);
    check(sampled.samples() == 2, "call P is");
    check(sampled.calls() == P + 1, "every call counted");
    check(inner.loads == P && inner.stores == 1 && inner.lastValue == 99,
          "every call forwarded unchanged");
    check(sampled.selfSeconds() >= 0, "self time is never negative");

    // 10 samples took 2 us in all; 610 calls -> 122 us.
    check(near(scaleSampled(2e-6, 10, 610), 122e-6),
          "mean sampled cost times call count");
    // A partial last period scales by calls / samples, not the period.
    check(near(scaleSampled(3e-6, 3, 123), 123e-6), "partial period");
    check(scaleSampled(1.0, 0, 100) == 0, "no samples, no estimate");
}

void
referenceScaling()
{
    // 4 chunks worth 1 ms each took 8 ms: the host ran at half the
    // reference speed, so 3 host s are 1.5 reference s.
    check(near(referenceSeconds(3.0, 8e-3, 4, 1e-3), 1.5),
          "slow host scales down");
    check(near(referenceSeconds(3.0, 2e-3, 4, 1e-3), 6.0),
          "fast host scales up");
    check(referenceSeconds(3.0, 0, 0, 1e-3) == 3.0, "no chunks: unscaled");
}

} // anonymous namespace

int
main()
{
    refsFromUniprocessorRun();
    refsFromTwoCpuRun();
    tableOneOpsAndPageLines();
    ratioBases();
    medianAndQuartiles();
    sampledOracleScaling();
    referenceScaling();
    if (failures == 0)
        std::printf("metrics_test: all checks passed\n");
    return failures == 0 ? 0 : 1;
}
