/**
 * @file
 * The paper's consistency model (Section 3): four states per cache
 * line/page with respect to a virtual address, and the transition rules
 * of Table 2 as pure functions.
 *
 * For any virtual address a cache line is Empty, Present, Dirty or
 * Stale. Six events change state: CPU-read, CPU-write, DMA-read,
 * DMA-write, Purge and Flush. A transition may require a cache control
 * operation (purge or flush) to be applied first; the rules are defined
 * so that stale data is never transferred out of the memory system.
 *
 * The table is constexpr data and its properties (coverage,
 * reachability, op-then-event composition, DMA columns) are
 * static_asserts, so a wrong row fails to compile; the tests in
 * spec_model_test.cc show each predicate rejecting a seeded bad
 * table. The lookups are the executable specification: the concrete
 * CacheControl implementation (Figure 1 / LazyPmap) is verified
 * against them by the model-checking tests, and the table2 bench
 * suite prints them in the paper's layout.
 */

#ifndef VIC_CORE_CACHE_PAGE_STATE_HH
#define VIC_CORE_CACHE_PAGE_STATE_HH

#include <array>
#include <cstdint>
#include <span>

#include "common/protocol_table.hh"
#include "common/types.hh"

namespace vic
{

/** Consistency state of a cache line (or, at the implementation's
 *  granularity, a cache page) with respect to a virtual address. */
enum class CachePageState : std::uint8_t
{
    Empty,    ///< line does not contain the data at this address
    Present,  ///< line contains the correct (consistent) data
    Dirty,    ///< written by the CPU; memory may be stale w.r.t. it
    Stale,    ///< a newer version exists in memory or another line
};

/** All states, for iteration in tests and benches. */
inline constexpr std::array<CachePageState, 4> allCachePageStates = {
    CachePageState::Empty, CachePageState::Present,
    CachePageState::Dirty, CachePageState::Stale,
};

/** The memory-system events of the model, for iteration. */
inline constexpr std::array<MemOp, 6> allMemOps = {
    MemOp::CpuRead, MemOp::CpuWrite, MemOp::DmaRead,
    MemOp::DmaWrite, MemOp::Purge, MemOp::Flush,
};

/** Human-readable state name. */
const char *cachePageStateName(CachePageState s);

/** One-letter state abbreviation (E/P/D/S), as in the paper. */
char cachePageStateLetter(CachePageState s);

/** Cache control operation required to force a transition. */
enum class RequiredOp : std::uint8_t
{
    None,
    Purge,
    Flush,
};

/** Human-readable RequiredOp name. */
const char *requiredOpName(RequiredOp op);

/** A transition: the next state and the cache operation (if any) that
 *  must be applied to the line to make the transition safe. */
struct SpecTransition
{
    CachePageState next;
    RequiredOp required = RequiredOp::None;

    bool operator==(const SpecTransition &) const = default;
};

/** One row of Table 2: for one (event, current state) pair, the
 *  transition of the target line and of every other line. */
struct Table2Row
{
    MemOp event;
    CachePageState from;
    /** Second column: the TARGET cache line, the one the cache index
     *  function selects for the operation's virtual address. */
    SpecTransition target;
    /** Third column: every other line that shares the mapping with
     *  the target virtual address but does not align with it. */
    SpecTransition other;
};

/**
 * Table 2, one row per (event, state), event-major in enum order.
 * This is the only copy of the table; everything else reads it
 * through targetTransition() and otherTransition().
 */
inline constexpr std::array<Table2Row, 24> table2Rows = [] {
    using S = CachePageState;
    using R = RequiredOp;
    using E = MemOp;
    return std::array<Table2Row, 24>{{
        // CPU-read. The read must see the line's data become (or
        // stay) consistent: a stale target is purged first so the
        // read misses and fetches the current value from memory.
        // Before the target can leave the empty state the newest
        // data must be in memory: a dirty unaligned line is flushed.
        {E::CpuRead, S::Empty, {S::Present}, {S::Empty}},
        {E::CpuRead, S::Present, {S::Present}, {S::Present}},
        {E::CpuRead, S::Dirty, {S::Dirty}, {S::Empty, R::Flush}},
        {E::CpuRead, S::Stale, {S::Present, R::Purge}, {S::Stale}},

        // CPU-write. The write makes the target the unique holder of
        // the newest data: a stale target is purged first so the
        // write does not land in (and later expose) old data. It
        // supersedes every unaligned copy: present lines become
        // stale; a dirty one is flushed (its data is the newest until
        // the write completes) and becomes empty.
        {E::CpuWrite, S::Empty, {S::Dirty}, {S::Empty}},
        {E::CpuWrite, S::Present, {S::Dirty}, {S::Stale}},
        {E::CpuWrite, S::Dirty, {S::Dirty}, {S::Empty, R::Flush}},
        {E::CpuWrite, S::Stale, {S::Dirty, R::Purge}, {S::Stale}},

        // DMA-read. DMA does not go through the cache, so both
        // columns agree. The device reads memory, so memory must hold
        // the newest data: a dirty line is flushed. On this machine a
        // flush writes back AND invalidates (like every other
        // Dirty+Flush row), so the line ends Empty; claiming Present
        // here costs a provably redundant purge of the absent page on
        // its next differently-mapped use.
        {E::DmaRead, S::Empty, {S::Empty}, {S::Empty}},
        {E::DmaRead, S::Present, {S::Present}, {S::Present}},
        {E::DmaRead, S::Dirty, {S::Empty, R::Flush},
         {S::Empty, R::Flush}},
        {E::DmaRead, S::Stale, {S::Stale}, {S::Stale}},

        // DMA-write. The device overwrites memory: every cached copy
        // becomes stale. A dirty line need only be purged (not
        // flushed) since the DMA-write overwrites memory anyway;
        // after the purge the line is empty.
        {E::DmaWrite, S::Empty, {S::Empty}, {S::Empty}},
        {E::DmaWrite, S::Present, {S::Stale}, {S::Stale}},
        {E::DmaWrite, S::Dirty, {S::Empty, R::Purge},
         {S::Empty, R::Purge}},
        {E::DmaWrite, S::Stale, {S::Stale}, {S::Stale}},

        // Purge and Flush remove the target line from the cache
        // (flush writes a dirty line back first) and affect only the
        // target line.
        {E::Purge, S::Empty, {S::Empty}, {S::Empty}},
        {E::Purge, S::Present, {S::Empty}, {S::Present}},
        {E::Purge, S::Dirty, {S::Empty}, {S::Dirty}},
        {E::Purge, S::Stale, {S::Empty}, {S::Stale}},
        {E::Flush, S::Empty, {S::Empty}, {S::Empty}},
        {E::Flush, S::Present, {S::Empty}, {S::Present}},
        {E::Flush, S::Dirty, {S::Empty}, {S::Dirty}},
        {E::Flush, S::Stale, {S::Empty}, {S::Stale}},
    }};
}();

/** REACHABILITY: every state is reachable from the power-up state
 *  (Empty) through either column, so no row is dead specification. */
constexpr bool
table2Reachable(std::span<const Table2Row> t)
{
    std::array<bool, allCachePageStates.size()> seen{};
    seen[static_cast<std::size_t>(CachePageState::Empty)] = true;
    for (bool grew = true; grew;) {
        grew = false;
        auto step = [&](CachePageState from, CachePageState to) {
            if (seen[static_cast<std::size_t>(from)] &&
                !seen[static_cast<std::size_t>(to)])
                grew = seen[static_cast<std::size_t>(to)] = true;
        };
        for (const Table2Row &row : t) {
            step(row.from, row.target.next);
            step(row.from, row.other.next);
        }
    }
    for (bool b : seen) {
        if (!b)
            return false;
    }
    return true;
}

/**
 * COMPOSITION: a row that requires a purge or flush agrees with
 * applying that op first (the line is then Empty) and then the event
 * in the same column, i.e. (event, Empty) needs no op and ends where
 * the row does. This is the bug class of a Dirty+DmaRead ->
 * {Present, Flush} row, which claims a line the flush just emptied.
 */
constexpr bool
table2Composes(std::span<const Table2Row> t)
{
    for (const Table2Row &row : t) {
        const std::size_t empty =
            findProtocolRow(t, row.event, CachePageState::Empty);
        if (empty == t.size())
            continue;  // a coverage hole, not a composition error
        for (auto col : {&Table2Row::target, &Table2Row::other}) {
            const SpecTransition &tr = row.*col;
            const SpecTransition &after = t[empty].*col;
            if (tr.required != RequiredOp::None &&
                (after.required != RequiredOp::None ||
                 after.next != tr.next))
                return false;
        }
    }
    return true;
}

/** DMA bypasses the cache, so the paper gives the two columns the
 *  same transitions for DMA events. */
constexpr bool
table2DmaColumnsAgree(std::span<const Table2Row> t)
{
    for (const Table2Row &row : t) {
        if ((row.event == MemOp::DmaRead ||
             row.event == MemOp::DmaWrite) &&
            row.target != row.other)
            return false;
    }
    return true;
}

static_assert(coversEveryPair<allMemOps.size(), allCachePageStates.size()>(
    table2Rows));
static_assert(table2Reachable(table2Rows));
static_assert(table2Composes(table2Rows));
static_assert(table2DmaColumnsAgree(table2Rows));

/**
 * Table 2, second column: transition of the TARGET cache line — the
 * line selected by the cache index function for the target virtual
 * address of the operation.
 *
 * For DMA operations the notion of a target line does not apply (DMA
 * bypasses the cache); the paper gives identical transitions in both
 * columns, and this function returns them.
 */
constexpr SpecTransition
targetTransition(CachePageState current, MemOp op)
{
    return protocolRow<allCachePageStates.size()>(table2Rows, op,
                                                  current)
        .target;
}

/**
 * Table 2, third column: transition of every other cache line that
 * shares the mapping with the target virtual address but does not
 * align with it.
 */
constexpr SpecTransition
otherTransition(CachePageState current, MemOp op)
{
    return protocolRow<allCachePageStates.size()>(table2Rows, op,
                                                  current)
        .other;
}

} // namespace vic

#endif // VIC_CORE_CACHE_PAGE_STATE_HH
