#include "mem/physical_memory.hh"

#include "common/logging.hh"

namespace vic
{

PhysicalMemory::PhysicalMemory(std::uint64_t num_frames,
                               std::uint32_t page_size)
    : frames(num_frames), pageBytes(page_size),
      store(num_frames * (page_size / 4))
{
    vic_assert(page_size >= 4 && page_size % 4 == 0,
               "page size %u not a multiple of 4", page_size);
}

std::uint64_t
PhysicalMemory::wordIndex(PhysAddr pa) const
{
    vic_assert(pa.isAligned(4), "unaligned physical word access %s",
               hex(pa).c_str());
    std::uint64_t idx = pa.wordIndex();
    vic_assert(idx < store.size(), "physical address %s out of range",
               hex(pa).c_str());
    return idx;
}

std::uint32_t
PhysicalMemory::readWord(PhysAddr pa) const
{
    return store[wordIndex(pa)];
}

void
PhysicalMemory::writeWord(PhysAddr pa, std::uint32_t value)
{
    store[wordIndex(pa)] = value;
}

void
PhysicalMemory::readWords(PhysAddr pa, std::uint32_t *out,
                          std::uint32_t nwords) const
{
    std::uint64_t idx = wordIndex(pa);
    vic_assert(idx + nwords <= store.size(),
               "physical range %s+%u out of range", hex(pa).c_str(),
               nwords * 4);
    for (std::uint32_t i = 0; i < nwords; ++i)
        out[i] = store[idx + i];
}

void
PhysicalMemory::writeWords(PhysAddr pa, const std::uint32_t *in,
                           std::uint32_t nwords)
{
    std::uint64_t idx = wordIndex(pa);
    vic_assert(idx + nwords <= store.size(),
               "physical range %s+%u out of range", hex(pa).c_str(),
               nwords * 4);
    for (std::uint32_t i = 0; i < nwords; ++i)
        store[idx + i] = in[i];
}

} // namespace vic
