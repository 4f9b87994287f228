// Compile-only probe for the retired addr-kind-rewrap rule: virtual
// address bits must not be re-wrapped as a physical address without a
// translation. A translation (frame base plus the page offset) compiles;
// reaching for the bits of a VirtAddr to re-type them must stop at
// their private access. ctest runs the compiler over this file with
// -fsyntax-only -Wfatal-errors and matches the diagnostic text; it is
// never linked.

#include "common/types.hh"

namespace vic
{

PhysAddr
translate(VirtAddr va, std::uint64_t frame, std::uint64_t page)
{
    return PhysAddr(frame * page + va.offsetIn(page));
}

PhysAddr
launder(VirtAddr va)
{
    return PhysAddr{va.value};
}

} // namespace vic
