#include "metrics.hh"

#include <algorithm>

namespace perfbench
{

using vic::RunResult;

std::uint64_t
sumCaches(const RunResult &r, const std::string &kind,
          const std::string &suffix)
{
    return r.sumMatching(kind, suffix);
}

std::uint64_t
sumAllCaches(const RunResult &r, const std::string &suffix)
{
    return sumCaches(r, "dcache", suffix) + sumCaches(r, "icache", suffix);
}

std::uint64_t
cpuRefs(const RunResult &r)
{
    return sumCaches(r, "dcache", ".reads") +
           sumCaches(r, "dcache", ".writes") +
           sumCaches(r, "icache", ".reads");
}

std::uint64_t
simulatedRefs(const RunResult &r)
{
    return cpuRefs(r) + r.stat("dma.words_moved");
}

std::uint64_t
tableOneCacheOps(const RunResult &r)
{
    return r.dPageFlushes() + r.dPagePurges() + r.iPagePurges();
}

std::uint64_t
pageOpPresentLines(const RunResult &r)
{
    return sumAllCaches(r, ".flush_present") +
           sumAllCaches(r, ".purge_present");
}

std::uint64_t
pageOpLines(const RunResult &r)
{
    return pageOpPresentLines(r) + sumAllCaches(r, ".flush_absent") +
           sumAllCaches(r, ".purge_absent");
}

std::uint64_t
busTransactions(const RunResult &r)
{
    return r.stat("bus.reads") + r.stat("bus.read_exclusives") +
           r.stat("bus.upgrades");
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : (values[n / 2 - 1] + values[n / 2]) / 2;
}

Quartiles
quartiles(std::vector<double> values)
{
    if (values.empty())
        return {};
    std::sort(values.begin(), values.end());
    const std::size_t ld = values.size();
    if (ld == 1)
        return {values[0], values[0], values[0]};
    // statistics.quantiles, method='exclusive', n=4.
    const std::size_t m = ld + 1;
    double q[3];
    for (std::size_t i = 1; i <= 3; ++i) {
        std::size_t j = i * m / 4;
        j = std::clamp<std::size_t>(j, 1, ld - 1);
        const double delta = double(i * m) - double(j * 4);
        q[i - 1] = (values[j - 1] * (4 - delta) + values[j] * delta) / 4;
    }
    return {q[0], q[1], q[2]};
}

double
scaleSampled(double sampled_seconds, std::uint64_t samples,
             std::uint64_t calls)
{
    return samples == 0 ? 0.0
                        : sampled_seconds * double(calls) / double(samples);
}

double
referenceSeconds(double host_seconds, double chunk_host_seconds,
                 std::uint64_t chunks, double chunk_reference_seconds)
{
    if (chunks == 0 || chunk_host_seconds <= 0)
        return host_seconds;
    return host_seconds * double(chunks) * chunk_reference_seconds /
           chunk_host_seconds;
}

} // namespace perfbench
