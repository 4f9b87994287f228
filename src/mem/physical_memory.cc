#include "mem/physical_memory.hh"

#include "common/logging.hh"

#include <algorithm>

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
PhysicalMemory::wordIndex(PhysAddr pa, std::uint32_t nwords) const
{
    vic_assert(pa.isAligned(4), "unaligned physical word access %s",
               hex(pa).c_str());
    const std::uint64_t idx = pa.wordIndex();
    vic_assert(idx < store.size() && nwords <= store.size() - idx,
               "physical range %s+%u out of range", hex(pa).c_str(),
               nwords * 4);
    return idx;
}

std::uint32_t
PhysicalMemory::readWord(PhysAddr pa) const
{
    return store[wordIndex(pa, 1)];
}

void
PhysicalMemory::writeWord(PhysAddr pa, std::uint32_t value)
{
    store[wordIndex(pa, 1)] = value;
}

void
PhysicalMemory::readWords(PhysAddr pa, std::uint32_t *out,
                          std::uint32_t nwords) const
{
    std::copy_n(store.begin() + wordIndex(pa, nwords), nwords, out);
}

void
PhysicalMemory::writeWords(PhysAddr pa, const std::uint32_t *in,
                           std::uint32_t nwords)
{
    std::copy_n(in, nwords, store.begin() + wordIndex(pa, nwords));
}

} // namespace vic
