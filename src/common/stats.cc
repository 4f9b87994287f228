#include "common/stats.hh"

#include <algorithm>
#include <stdexcept>

#include "common/logging.hh"

namespace vic
{

Counter &
StatSet::counter(const std::string &name)
{
    auto it = index.find(name);
    if (it != index.end())
        return *it->second;
    storage.emplace_back(name);
    Counter &c = storage.back();
    index.emplace(name, &c);
    return c;
}

std::uint64_t
StatSet::value(const std::string &name) const
{
    auto it = index.find(name);
    return it == index.end() ? 0 : it->second->value();
}

void
StatSet::clearAll()
{
    for (auto &c : storage)
        c.clear();
}

std::vector<const Counter *>
StatSet::all() const
{
    std::vector<const Counter *> out;
    out.reserve(storage.size());
    for (const auto &c : storage)
        out.push_back(&c);
    return out;
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
    for (const auto &[name, c] : index)
        out.entries.emplace_back(name, c->value());
    return out;
}

std::string
StatSet::render(const std::string &prefix, bool include_zero) const
{
    std::vector<const Counter *> selected;
    for (const auto &c : storage) {
        if (c.name().rfind(prefix, 0) != 0)
            continue;
        if (c.value() == 0 && !include_zero)
            continue;
        selected.push_back(&c);
    }
    std::sort(selected.begin(), selected.end(),
              [](const Counter *a, const Counter *b) {
                  return a->name() < b->name();
              });
    std::string out;
    for (const Counter *c : selected) {
        out += format("%-36s %llu\n", c->name().c_str(),
                      (unsigned long long)c->value());
    }
    return out;
}

} // namespace vic
