#include "common/stats.hh"

#include <algorithm>
#include <stdexcept>

#include "common/logging.hh"

namespace vic
{

Counter *
StatSet::addRows(const void *owner, std::string_view prefix,
                 std::span<const char *const> names)
{
    const auto nameOf = [prefix, names](std::size_t i) {
        std::string name(prefix);
        name += names[i];
        return name;
    };
    const auto prior = index.find(nameOf(0));
    if (prior != index.end() && prior->second.owner == owner) {
        // Another instance of the same component: share its rows.
        Counter *rows = prior->second.counter;
        for (std::size_t i = 1; i < names.size(); ++i) {
            const auto it = index.find(nameOf(i));
            vic_assert(it != index.end() && it->second.counter == rows + i,
                       "counter %s registered apart from its table",
                       nameOf(i).c_str());
        }
        return rows;
    }
    blocks.emplace_back(new Counter[names.size()]);
    Counter *rows = blocks.back().get();
    for (std::size_t i = 0; i < names.size(); ++i) {
        std::string name = nameOf(i);
        if (!validCounterName(name))
            vic_panic("counter name \"%s\" is not lower-case [a-z0-9_.]",
                      name.c_str());
        if (!index.emplace(name, Slot{rows + i, owner}).second)
            vic_panic("counter %s is already registered by another table",
                      name.c_str());
    }
    return rows;
}

Counter &
StatSet::counter(const std::string &name)
{
    const auto it = index.find(name);
    if (it == index.end()) {
        const char *row = name.c_str();
        return *addRows(nullptr, {}, std::span(&row, 1));
    }
    if (it->second.owner != nullptr)
        vic_panic("counter %s is owned by a table", name.c_str());
    return *it->second.counter;
}

std::uint64_t
StatSet::value(const std::string &name) const
{
    auto it = index.find(name);
    return it == index.end() ? 0 : it->second.counter->value();
}

namespace
{

bool
nameBefore(const StatSnapshot::value_type &e, const std::string &name)
{
    return e.first < name;
}

} // anonymous namespace

StatSnapshot::StatSnapshot(std::initializer_list<value_type> pairs)
{
    for (const value_type &p : pairs) {
        if (find(p.first) == end())
            (*this)[p.first] = p.second;
    }
}

std::uint64_t &
StatSnapshot::operator[](const std::string &name)
{
    auto it = std::lower_bound(entries.begin(), entries.end(), name,
                               nameBefore);
    if (it == entries.end() || it->first != name)
        it = entries.emplace(it, name, 0);
    return it->second;
}

StatSnapshot::const_iterator
StatSnapshot::find(const std::string &name) const
{
    auto it = std::lower_bound(entries.begin(), entries.end(), name,
                               nameBefore);
    return it != entries.end() && it->first == name ? it : entries.end();
}

std::uint64_t
StatSnapshot::at(const std::string &name) const
{
    auto it = find(name);
    if (it == end())
        throw std::out_of_range("no counter " + name);
    return it->second;
}

StatSnapshot
StatSet::snapshot() const
{
    // index is ordered by name: the entries come out sorted.
    StatSnapshot out;
    out.entries.reserve(index.size());
    for (const auto &[name, slot] : index)
        out.entries.emplace_back(name, slot.counter->value());
    return out;
}

} // namespace vic
