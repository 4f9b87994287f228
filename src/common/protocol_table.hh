/**
 * @file
 * Row tables for protocol specifications.
 *
 * Table 2 (core/cache_page_state.hh) and the MESI tables
 * (cache/mesi_spec.hh) are each one constexpr array of rows, one row
 * per (event, state) pair. A row carries `event` and `from` members
 * plus its transition. The tables are listed event-major in enum
 * order, so a transition lookup is a plain index, and the properties
 * each table must have are constexpr predicates static_assert'ed next
 * to it: a bad table does not compile.
 */

#ifndef VIC_COMMON_PROTOCOL_TABLE_HH
#define VIC_COMMON_PROTOCOL_TABLE_HH

#include <cstddef>
#include <iterator>

namespace vic
{

/**
 * COVERAGE: row i is the pair (event i / NumStates, state
 * i % NumStates) in enum order. So every (state, event) pair appears
 * exactly once, and protocolRow() may index instead of search.
 */
template <std::size_t NumEvents, std::size_t NumStates, typename Table>
constexpr bool
coversEveryPair(const Table &t)
{
    if (std::size(t) != NumEvents * NumStates)
        return false;
    for (std::size_t i = 0; i < std::size(t); ++i) {
        if (static_cast<std::size_t>(t[i].event) != i / NumStates ||
            static_cast<std::size_t>(t[i].from) != i % NumStates)
            return false;
    }
    return true;
}

/** The row for (@p e, @p s) of a table that coversEveryPair(). */
template <std::size_t NumStates, typename Table, typename Event,
          typename State>
constexpr const auto &
protocolRow(const Table &t, Event e, State s)
{
    return t[static_cast<std::size_t>(e) * NumStates +
             static_cast<std::size_t>(s)];
}

/** Index of the row for (@p e, @p s) in any table, or std::size(t)
 *  when there is none. Predicates use this so they stay meaningful on
 *  a table that lacks coverage. (An index, not a pointer: under
 *  -fsanitize=address GCC cannot compare a pointer into a constexpr
 *  array with nullptr in a constant expression.) */
template <typename Table, typename Event, typename State>
constexpr std::size_t
findProtocolRow(const Table &t, Event e, State s)
{
    std::size_t i = 0;
    while (i < std::size(t) && (t[i].event != e || t[i].from != s))
        ++i;
    return i;
}

} // namespace vic

#endif // VIC_COMMON_PROTOCOL_TABLE_HH
