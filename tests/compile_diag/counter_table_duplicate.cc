// Compile-only probe: registering a counter table that names a row
// twice must fail its static_assert. ctest runs the compiler over this
// file with -fsyntax-only and matches the diagnostic text; it is never
// linked.

#include "common/stats.hh"

enum class ProbeStat { Hits, Misses, Count };
inline constexpr vic::CounterTable<ProbeStat> kProbeCounters{
    "tlb.hits", "tlb.hits"};

void
registerProbe(vic::StatSet &stats)
{
    auto counters = stats.registerTable<kProbeCounters>();
    ++counters[ProbeStat::Misses];
}
