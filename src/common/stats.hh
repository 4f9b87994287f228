/**
 * @file
 * Named statistic counters.
 *
 * Each simulated machine owns a StatSet; components obtain stable
 * references to named counters at construction time and bump them on the
 * hot path with plain integer increments. Benches read the set back by
 * name to print the paper's tables.
 */

#ifndef VIC_COMMON_STATS_HH
#define VIC_COMMON_STATS_HH

#include <cstdint>
#include <deque>
#include <initializer_list>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace vic
{

/** A single monotonically increasing statistic. */
class Counter
{
  public:
    explicit Counter(std::string counter_name)
        : name_(std::move(counter_name))
    {}

    const std::string &name() const { return name_; }
    std::uint64_t value() const { return value_; }

    void operator+=(std::uint64_t n) { value_ += n; }
    void operator++() { ++value_; }
    void operator++(int) { ++value_; }

    /** Reset to zero (used between workload phases). */
    void clear() { value_ = 0; }

  private:
    std::string name_;
    std::uint64_t value_ = 0;
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

/** An ordered collection of counters, keyed by name. */
class StatSet
{
  public:
    StatSet() = default;
    StatSet(const StatSet &) = delete;
    StatSet &operator=(const StatSet &) = delete;

    /** Get (creating on first use) the counter called @p name. The
     *  returned reference remains valid for the StatSet's lifetime. */
    Counter &counter(const std::string &name);

    /** Current value of @p name; 0 if the counter was never created. */
    std::uint64_t value(const std::string &name) const;

    /** Reset every counter to zero. */
    void clearAll();

    /** All counters in creation order. */
    std::vector<const Counter *> all() const;

    /** Capture a snapshot of all current values, ordered by name.
     *  Snapshots feed the JSON artifacts, so the container must have a
     *  deterministic iteration order (vic_lint's det-unordered rule
     *  bans unordered containers in src/common sim-visible APIs). */
    StatSnapshot snapshot() const;

    /** Render all counters whose names start with @p prefix, sorted by
     *  name, one per line ("name value\n"). Zero-valued counters are
     *  skipped unless @p include_zero. */
    std::string render(const std::string &prefix = "",
                       bool include_zero = false) const;

  private:
    std::deque<Counter> storage;
    std::map<std::string, Counter *> index; ///< cold path: lookups
                                            ///< happen at construction
};

} // namespace vic

#endif // VIC_COMMON_STATS_HH
