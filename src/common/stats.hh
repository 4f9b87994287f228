/**
 * @file
 * Named statistic counters, declared once per component as data.
 *
 * A component that counts declares its rows once, as an enum class
 * ending in Count plus a constexpr table naming the rows in enum
 * order:
 *
 *     enum class TlbStat { Hits, Misses, Count };
 *     inline constexpr CounterTable<TlbStat> kTlbCounters{
 *         "tlb.hits", "tlb.misses"};
 *
 * Registering the table with the machine's StatSet returns the only
 * handles the component can bump, and a bump is one add through a
 * pointer:
 *
 *     Counters<kTlbCounters> counters =
 *         stat_set.registerTable<kTlbCounters>();
 *     ++counters[TlbStat::Hits];
 *
 * The compiler checks every registered table: each name is lower-case
 * dotted snake_case ([a-z0-9_.]) and no name appears twice. At run
 * time a StatSet refuses a name that another table (or the by-name
 * path) already owns. Benches read the set back by name.
 */

#ifndef VIC_COMMON_STATS_HH
#define VIC_COMMON_STATS_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace vic
{

/** A single monotonically increasing statistic. Only a StatSet makes
 *  one, so every counter a component can bump is registered. */
class Counter
{
  public:
    Counter(const Counter &) = delete;
    Counter &operator=(const Counter &) = delete;

    std::uint64_t value() const { return value_; }

    void operator+=(std::uint64_t n) { value_ += n; }
    void operator++() { ++value_; }
    void operator++(int) { ++value_; }

  private:
    friend class StatSet;
    Counter() = default;

    std::uint64_t value_ = 0;
};

/** True when @p name is a nonempty run of [a-z0-9_.]: the machine keys
 *  artifact diffing and plotting scripts read without quoting. */
constexpr bool
validCounterName(std::string_view name)
{
    if (name.empty())
        return false;
    for (char c : name) {
        if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
              c == '_' || c == '.'))
            return false;
    }
    return true;
}

/**
 * The counter names of one component: names[r] is row r of the enum
 * class @p R, whose last enumerator is Count. A name left out stays
 * null and fails the name check.
 */
template <typename R>
struct CounterTable
{
    using Row = R;
    static constexpr std::size_t kRows = std::size_t(R::Count);

    std::array<const char *, kRows> names;

    constexpr const char *name(R row) const
    { return names[std::size_t(row)]; }

    constexpr bool
    namesValid() const
    {
        for (const char *n : names) {
            if (n == nullptr || !validCounterName(n))
                return false;
        }
        return true;
    }

    constexpr bool
    namesDistinct() const
    {
        for (std::size_t i = 0; i < kRows; ++i) {
            for (std::size_t j = i + 1; j < kRows; ++j) {
                if (names[i] != nullptr && names[j] != nullptr &&
                    std::string_view(names[i]) == names[j])
                    return false;
            }
        }
        return true;
    }
};

/**
 * The handles one registration of @p Table returns. A default-built
 * Counters holds none: the state of a table registered lazily
 * (a Cache's synonym rows) before its registration.
 */
template <const auto &Table>
class Counters
{
  public:
    using Row = typename std::remove_cvref_t<decltype(Table)>::Row;

    static_assert(Table.namesValid(),
                  "counter names must be lower-case [a-z0-9_.]");
    static_assert(Table.namesDistinct(),
                  "counter table names a row twice");

    Counters() = default;

    bool registered() const { return rows != nullptr; }

    Counter &operator[](Row row) const { return rows[std::size_t(row)]; }

  private:
    friend class StatSet;
    explicit Counters(Counter *first) : rows(first) {}

    Counter *rows = nullptr;
};

/**
 * Counter values captured from a StatSet: (name, value) pairs sorted by
 * name, each name once, so iteration order is deterministic. A sorted
 * vector rather than a std::map: every run result keeps one, and a map
 * node costs about as much again as the pair it holds.
 */
class StatSnapshot
{
  public:
    using value_type = std::pair<std::string, std::uint64_t>;
    using const_iterator = std::vector<value_type>::const_iterator;

    StatSnapshot() = default;

    /** From pairs in any order; a repeated name keeps its first value,
     *  as with std::map. */
    StatSnapshot(std::initializer_list<value_type> pairs);

    /** The value of @p name, inserted as 0 first if absent. */
    std::uint64_t &operator[](const std::string &name);

    /** The value of @p name; throws std::out_of_range if absent. */
    std::uint64_t at(const std::string &name) const;

    /** The pair named @p name, or end(). */
    const_iterator find(const std::string &name) const;

    const_iterator begin() const { return entries.begin(); }
    const_iterator end() const { return entries.end(); }

    bool operator==(const StatSnapshot &) const = default;

  private:
    friend class StatSet;
    std::vector<value_type> entries;
};

/** A machine's counters, keyed by name. Each name has one owner: the
 *  table that registered it (under one prefix), or the by-name path. */
class StatSet
{
  public:
    StatSet() = default;
    StatSet(const StatSet &) = delete;
    StatSet &operator=(const StatSet &) = delete;

    /**
     * Register every row of @p Table as @p prefix + name (a Cache
     * passes its instance prefix, "dcache0."). Registering the same
     * table under the same prefix again returns the same rows, so
     * per-CPU instances of a component share them.
     */
    template <const auto &Table>
    Counters<Table>
    registerTable(std::string_view prefix = {})
    {
        return Counters<Table>(addRows(&Table, prefix, Table.names));
    }

    /** Register one row of @p Table alone, as @p prefix + name, for
     *  rows that appear only once bumped. */
    template <const auto &Table>
    Counter &
    registerRow(std::string_view prefix,
                typename Counters<Table>::Row row)
    {
        return *addRows(&Table, prefix,
                        std::span(&Table.names[std::size_t(row)], 1));
    }

    /** The counter called @p name, created on first use: for rows no
     *  component declares (bench-side exports, tests). Panics on a
     *  malformed name or a name a table owns. */
    Counter &counter(const std::string &name);

    /** Current value of @p name; 0 if the counter was never created. */
    std::uint64_t value(const std::string &name) const;

    /** Capture a snapshot of all current values, ordered by name.
     *  Snapshots feed the JSON artifacts, so the container must have a
     *  deterministic iteration order (vic_lint's det-unordered rule
     *  bans unordered containers in src/common sim-visible APIs). */
    StatSnapshot snapshot() const;

  private:
    struct Slot
    {
        Counter *counter;
        const void *owner; ///< the registering table; null by name
    };

    /** Rows for @p names under @p prefix, owned by @p owner: fresh
     *  and contiguous, or the ones @p owner registered before. */
    Counter *addRows(const void *owner, std::string_view prefix,
                     std::span<const char *const> names);

    std::vector<std::unique_ptr<Counter[]>> blocks;
    std::map<std::string, Slot, std::less<>> index;
};

} // namespace vic

#endif // VIC_COMMON_STATS_HH
