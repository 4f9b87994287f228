#include "oracle/consistency_oracle.hh"

#include "common/logging.hh"

namespace vic
{

ConsistencyOracle::ConsistencyOracle(std::uint64_t memory_bytes)
    : shadow(memory_bytes / 4), defined((memory_bytes / 4 + 63) / 64)
{
}

std::uint64_t
ConsistencyOracle::index(PhysAddr pa, std::uint32_t n) const
{
    vic_assert(pa.isAligned(4), "unaligned oracle access %s",
               hex(pa).c_str());
    const std::uint64_t idx = pa.wordIndex();
    vic_assert(idx < shadow.size() && n <= shadow.size() - idx,
               "oracle address %s out of range", hex(pa).c_str());
    return idx;
}

void
ConsistencyOracle::record(PhysAddr pa, const std::uint32_t *values,
                          std::uint32_t n)
{
    const std::uint64_t first = index(pa, n);
    for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint64_t idx = first + i;
        shadow[idx] = values[i];
        defined[idx / 64] |= std::uint64_t(1) << (idx % 64);
    }
}

void
ConsistencyOracle::check(PhysAddr pa, const std::uint32_t *observed,
                         std::uint32_t n, const char *kind)
{
    const std::uint64_t first = index(pa, n);
    for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint64_t idx = first + i;
        ++checked;
        // A word never written has nothing to compare against.
        if (!isDefined(idx) || shadow[idx] == observed[i])
            continue;
        ++totalViolations;
        const Violation v{pa.plus(std::uint64_t(i) * 4), shadow[idx],
                          observed[i], kind};
        if (faults.size() < maxRecorded)
            faults.push_back(v);
        if (violationHook)
            violationHook(v);
    }
}

void
ConsistencyOracle::cpuLoad(PhysAddr pa, std::uint32_t observed)
{
    check(pa, &observed, 1, "cpu-load");
}

void
ConsistencyOracle::cpuIFetch(PhysAddr pa, std::uint32_t observed)
{
    check(pa, &observed, 1, "cpu-ifetch");
}

void
ConsistencyOracle::cpuStore(PhysAddr pa, std::uint32_t value)
{
    record(pa, &value, 1);
}

void
ConsistencyOracle::dmaWrite(PhysAddr pa, std::uint32_t value)
{
    record(pa, &value, 1);
}

void
ConsistencyOracle::dmaRead(PhysAddr pa, std::uint32_t observed)
{
    check(pa, &observed, 1, "dma-read");
}

void
ConsistencyOracle::cpuLoadRun(PhysAddr pa, const std::uint32_t *words,
                              std::uint32_t n)
{
    check(pa, words, n, "cpu-load");
}

void
ConsistencyOracle::cpuStoreRun(PhysAddr pa, const std::uint32_t *words,
                               std::uint32_t n)
{
    record(pa, words, n);
}

void
ConsistencyOracle::cpuCopyRun(PhysAddr src, PhysAddr dst,
                              const std::uint32_t *words, std::uint32_t n)
{
    // The runs are disjoint, so checking every load before recording
    // any store gives the per-word outcome.
    const std::uint64_t bytes = std::uint64_t(n) * 4;
    vic_assert(src.plus(bytes) <= dst || dst.plus(bytes) <= src,
               "overlapping copy run %s -> %s", hex(src).c_str(),
               hex(dst).c_str());
    check(src, words, n, "cpu-load");
    record(dst, words, n);
}

void
ConsistencyOracle::dmaWriteRun(PhysAddr pa, const std::uint32_t *words,
                               std::uint32_t n)
{
    record(pa, words, n);
}

void
ConsistencyOracle::dmaReadRun(PhysAddr pa, const std::uint32_t *words,
                              std::uint32_t n)
{
    check(pa, words, n, "dma-read");
}

void
ConsistencyOracle::reset()
{
    shadow.clear();
    defined.clear();
    faults.clear();
    totalViolations = 0;
    checked = 0;
}

} // namespace vic
