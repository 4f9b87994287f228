#include "oracle/consistency_oracle.hh"

#include "common/logging.hh"

namespace vic
{

ConsistencyOracle::ConsistencyOracle(std::uint64_t memory_bytes)
    : shadow(memory_bytes / 4), defined(memory_bytes / 4, false)
{
}

std::uint64_t
ConsistencyOracle::index(PhysAddr pa) const
{
    vic_assert(pa.value % 4 == 0, "unaligned oracle access %llx",
               (unsigned long long)pa.value);
    const std::uint64_t idx = pa.value / 4;
    vic_assert(idx < shadow.size(), "oracle address %llx out of range",
               (unsigned long long)pa.value);
    return idx;
}

void
ConsistencyOracle::record(PhysAddr pa, std::uint32_t value)
{
    const std::uint64_t idx = index(pa);
    shadow[idx] = value;
    defined[idx] = true;
}

void
ConsistencyOracle::check(PhysAddr pa, std::uint32_t observed,
                         const char *kind)
{
    const std::uint64_t idx = index(pa);
    ++checked;
    if (!defined[idx])
        return;  // never written: nothing to compare against
    if (shadow[idx] == observed)
        return;
    ++totalViolations;
    const Violation v{pa, shadow[idx], observed, kind};
    if (faults.size() < maxRecorded)
        faults.push_back(v);
    if (violationHook)
        violationHook(v);
}

void
ConsistencyOracle::cpuLoad(PhysAddr pa, std::uint32_t observed)
{
    check(pa, observed, "cpu-load");
}

void
ConsistencyOracle::cpuIFetch(PhysAddr pa, std::uint32_t observed)
{
    check(pa, observed, "cpu-ifetch");
}

void
ConsistencyOracle::cpuStore(PhysAddr pa, std::uint32_t value)
{
    record(pa, value);
}

void
ConsistencyOracle::dmaWrite(PhysAddr pa, std::uint32_t value)
{
    record(pa, value);
}

void
ConsistencyOracle::dmaRead(PhysAddr pa, std::uint32_t observed)
{
    check(pa, observed, "dma-read");
}

void
ConsistencyOracle::reset()
{
    shadow.clear();
    std::fill(defined.begin(), defined.end(), false);
    faults.clear();
    totalViolations = 0;
    checked = 0;
}

} // namespace vic
