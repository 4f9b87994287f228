// Compile-only probe for the retired addr-kind-mixed rule: the cache
// set index must say which address kind it was taken from. A
// translated address indexes through an explicit IndexAddr; raw
// uint64_t bits, which could be either kind, must not convert. ctest
// runs the compiler over this file with -fsyntax-only -Wfatal-errors
// and matches the diagnostic text; it is never linked.

#include "cache/cache_geometry.hh"

namespace vic
{

std::uint32_t
physicalSet(const CacheGeometry &geo, VirtAddr va, std::uint64_t frame,
            std::uint64_t page)
{
    const PhysAddr pa(frame * page + va.offsetIn(page));
    return geo.setIndex(IndexAddr(pa));
}

std::uint32_t
rawSet(const CacheGeometry &geo, std::uint64_t bits)
{
    return geo.setIndex(bits);
}

} // namespace vic
