/**
 * @file
 * Executable specification of the MESI protocol the CoherenceBus and
 * Cache implement, as pure transition tables.
 *
 * cache.cc realises the protocol imperatively across access(),
 * fillLine() and the snoop handlers; these functions state it
 * declaratively, one (state, event) row at a time, in the same
 * style as core/cache_page_state.hh states Table 2. They are the
 * protocol's source of truth for checking:
 *
 *  - tests/multiprocessor_test.cc drives a three-CPU bus machine
 *    through every local/snoop transition and requires the concrete
 *    line states to match these tables (conformance);
 *  - the static_asserts below the tables require every
 *    (state, event) pair covered, every state reachable from
 *    Invalid, and the write-back/bus-op structure internally
 *    consistent, so a table that breaks them does not compile.
 *
 * Two tables:
 *  - LOCAL: the requesting cache's own transition for a CPU read or
 *    write, including which bus transaction it must issue and the
 *    fill state (Shared iff a peer held the line, Exclusive
 *    otherwise — the nextIfPeerHolds column);
 *  - SNOOP: a peer cache's reaction to a bus transaction, including
 *    whether it must intervene with a write-back (only ever from
 *    Modified — memory is current in every other state).
 */

#ifndef VIC_CACHE_MESI_SPEC_HH
#define VIC_CACHE_MESI_SPEC_HH

#include <array>
#include <cstdint>
#include <span>

#include "cache/cache.hh"
#include "common/protocol_table.hh"

namespace vic
{

/** CPU-side events at the requesting cache. */
enum class MesiLocalEvent : std::uint8_t
{
    Read,   ///< load or instruction fetch
    Write,  ///< store
};

/** Bus-side events observed by a snooping peer. */
enum class MesiSnoopEvent : std::uint8_t
{
    BusRead,        ///< a peer's read miss
    BusInvalidate,  ///< a peer's busReadExclusive or busUpgrade
};

/** Bus transaction a local event must issue. */
enum class MesiBusOp : std::uint8_t
{
    None,              ///< satisfied locally (hit, or no bus)
    BusRead,           ///< read miss fill
    BusReadExclusive,  ///< write miss fill
    BusUpgrade,        ///< write hit on a Shared copy
};

/** All states/events, for exhaustive iteration in tests. */
inline constexpr std::array<MesiState, 4> allMesiStates = {
    MesiState::Invalid, MesiState::Shared, MesiState::Exclusive,
    MesiState::Modified,
};
inline constexpr std::array<MesiLocalEvent, 2> allMesiLocalEvents = {
    MesiLocalEvent::Read, MesiLocalEvent::Write,
};
inline constexpr std::array<MesiSnoopEvent, 2> allMesiSnoopEvents = {
    MesiSnoopEvent::BusRead, MesiSnoopEvent::BusInvalidate,
};

const char *mesiLocalEventName(MesiLocalEvent e);
const char *mesiSnoopEventName(MesiSnoopEvent e);
const char *mesiBusOpName(MesiBusOp op);

struct MesiLocalTransition
{
    MesiState next;             ///< when no peer holds the line
    MesiState nextIfPeerHolds;  ///< when some peer holds a copy
    MesiBusOp bus = MesiBusOp::None;

    bool operator==(const MesiLocalTransition &) const = default;
};

struct MesiSnoopTransition
{
    MesiState next;
    bool writeBack = false;  ///< peer intervenes with its dirty copy

    bool operator==(const MesiSnoopTransition &) const = default;
};

/** One row of the LOCAL table. */
struct MesiLocalRow
{
    MesiLocalEvent event;
    MesiState from;
    MesiLocalTransition to;
};

/** One row of the SNOOP table. */
struct MesiSnoopRow
{
    MesiSnoopEvent event;
    MesiState from;
    MesiSnoopTransition to;
};

/** The LOCAL table, one row per (event, state), event-major in enum
 *  order. */
inline constexpr std::array<MesiLocalRow, 8> mesiLocalRows = [] {
    using M = MesiState;
    using B = MesiBusOp;
    using E = MesiLocalEvent;
    return std::array<MesiLocalRow, 8>{{
        // A read miss fills through a busRead: Exclusive when no
        // peer held the line, Shared when one did (the peer
        // simultaneously downgrades — its row is in the snoop
        // table). Hits stay put in every valid state.
        {E::Read, M::Invalid, {M::Exclusive, M::Shared, B::BusRead}},
        {E::Read, M::Shared, {M::Shared, M::Shared, B::None}},
        {E::Read, M::Exclusive, {M::Exclusive, M::Exclusive, B::None}},
        {E::Read, M::Modified, {M::Modified, M::Modified, B::None}},

        // Every write ends Modified; what varies is the bus work to
        // get exclusivity. A miss fills through busReadExclusive, a
        // Shared hit broadcasts a busUpgrade so peers invalidate,
        // and an Exclusive hit upgrades silently — the E state's
        // whole reason to exist.
        {E::Write, M::Invalid,
         {M::Modified, M::Modified, B::BusReadExclusive}},
        {E::Write, M::Shared, {M::Modified, M::Modified, B::BusUpgrade}},
        {E::Write, M::Exclusive, {M::Modified, M::Modified, B::None}},
        {E::Write, M::Modified, {M::Modified, M::Modified, B::None}},
    }};
}();

/** The SNOOP table, one row per (event, state), event-major in enum
 *  order. */
inline constexpr std::array<MesiSnoopRow, 8> mesiSnoopRows = [] {
    using M = MesiState;
    using E = MesiSnoopEvent;
    return std::array<MesiSnoopRow, 8>{{
        // A peer wants to read: copies survive but demote to Shared;
        // a Modified copy intervenes (writes back) first so memory
        // is current for the peer's fill.
        {E::BusRead, M::Invalid, {M::Invalid, false}},
        {E::BusRead, M::Shared, {M::Shared, false}},
        {E::BusRead, M::Exclusive, {M::Shared, false}},
        {E::BusRead, M::Modified, {M::Shared, true}},

        // A peer wants exclusivity: every copy dies; only a Modified
        // copy has data memory lacks, so only it writes back.
        {E::BusInvalidate, M::Invalid, {M::Invalid, false}},
        {E::BusInvalidate, M::Shared, {M::Invalid, false}},
        {E::BusInvalidate, M::Exclusive, {M::Invalid, false}},
        {E::BusInvalidate, M::Modified, {M::Invalid, true}},
    }};
}();

/** A snoop writes back from Modified and only from Modified: memory
 *  is current in every other state. */
constexpr bool
mesiWritesBackOnlyFromModified(std::span<const MesiSnoopRow> t)
{
    for (const MesiSnoopRow &row : t) {
        if (row.to.writeBack != (row.from == MesiState::Modified))
            return false;
    }
    return true;
}

/** A BusInvalidate leaves every snooping copy Invalid. */
constexpr bool
mesiInvalidateEndsInvalid(std::span<const MesiSnoopRow> t)
{
    for (const MesiSnoopRow &row : t) {
        if (row.event == MesiSnoopEvent::BusInvalidate &&
            row.to.next != MesiState::Invalid)
            return false;
    }
    return true;
}

/** A write ends Modified whether or not a peer held the line. */
constexpr bool
mesiWriteEndsModified(std::span<const MesiLocalRow> t)
{
    for (const MesiLocalRow &row : t) {
        if (row.event == MesiLocalEvent::Write &&
            (row.to.next != MesiState::Modified ||
             row.to.nextIfPeerHolds != MesiState::Modified))
            return false;
    }
    return true;
}

/** A bus fill (busRead, busReadExclusive) starts only from Invalid,
 *  and a busRead fill that finds a peer copy ends Shared. */
constexpr bool
mesiFillsWellFormed(std::span<const MesiLocalRow> t)
{
    for (const MesiLocalRow &row : t) {
        const bool fill = row.to.bus == MesiBusOp::BusRead ||
                          row.to.bus == MesiBusOp::BusReadExclusive;
        if (fill && row.from != MesiState::Invalid)
            return false;
        if (row.to.bus == MesiBusOp::BusRead &&
            row.to.nextIfPeerHolds != MesiState::Shared)
            return false;
    }
    return true;
}

/** Every state is reachable from power-up (Invalid) through the local
 *  and snoop tables together. */
constexpr bool
mesiReachable(std::span<const MesiLocalRow> local,
              std::span<const MesiSnoopRow> snoop)
{
    std::array<bool, allMesiStates.size()> seen{};
    seen[static_cast<std::size_t>(MesiState::Invalid)] = true;
    for (bool grew = true; grew;) {
        grew = false;
        auto step = [&](MesiState from, MesiState to) {
            if (seen[static_cast<std::size_t>(from)] &&
                !seen[static_cast<std::size_t>(to)])
                grew = seen[static_cast<std::size_t>(to)] = true;
        };
        for (const MesiLocalRow &row : local) {
            step(row.from, row.to.next);
            step(row.from, row.to.nextIfPeerHolds);
        }
        for (const MesiSnoopRow &row : snoop)
            step(row.from, row.to.next);
    }
    for (bool b : seen) {
        if (!b)
            return false;
    }
    return true;
}

static_assert(coversEveryPair<allMesiLocalEvents.size(),
                              allMesiStates.size()>(mesiLocalRows));
static_assert(coversEveryPair<allMesiSnoopEvents.size(),
                              allMesiStates.size()>(mesiSnoopRows));
static_assert(mesiWritesBackOnlyFromModified(mesiSnoopRows));
static_assert(mesiInvalidateEndsInvalid(mesiSnoopRows));
static_assert(mesiWriteEndsModified(mesiLocalRows));
static_assert(mesiFillsWellFormed(mesiLocalRows));
static_assert(mesiReachable(mesiLocalRows, mesiSnoopRows));

/** The LOCAL table: requesting cache's transition for a CPU event. */
constexpr MesiLocalTransition
mesiLocalTransition(MesiState current, MesiLocalEvent e)
{
    return protocolRow<allMesiStates.size()>(mesiLocalRows, e, current)
        .to;
}

/** The SNOOP table: a peer cache's reaction to a bus transaction. */
constexpr MesiSnoopTransition
mesiSnoopTransition(MesiState current, MesiSnoopEvent e)
{
    return protocolRow<allMesiStates.size()>(mesiSnoopRows, e, current)
        .to;
}

} // namespace vic

#endif // VIC_CACHE_MESI_SPEC_HH
