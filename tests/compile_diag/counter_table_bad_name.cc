// Compile-only probe: registering a counter table whose names are not
// lower-case [a-z0-9_.] must fail its static_assert. ctest runs the
// compiler over this file with -fsyntax-only and matches the
// diagnostic text; it is never linked.

#include "common/stats.hh"

enum class ProbeStat { Hits, Misses, Count };
inline constexpr vic::CounterTable<ProbeStat> kProbeCounters{
    "Tlb.Hits", "tlb.misses"};

void
registerProbe(vic::StatSet &stats)
{
    auto counters = stats.registerTable<kProbeCounters>();
    ++counters[ProbeStat::Hits];
}
