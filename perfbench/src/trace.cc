#include "trace.hh"

namespace perfbench
{

std::uint32_t
SpanRecorder::begin(const std::string &name, std::uint32_t parent,
                    std::uint32_t pass)
{
    const double now = at(Clock::now());
    all.push_back({name, std::uint32_t(all.size() + 1), parent, pass, now,
                   now});
    return all.back().id;
}

void
SpanRecorder::end(std::uint32_t id)
{
    all.at(id - 1).end = at(Clock::now());
}

void
SpanRecorder::add(const std::string &name, std::uint32_t parent,
                  std::uint32_t pass, Clock::time_point start,
                  Clock::time_point end)
{
    all.push_back({name, std::uint32_t(all.size() + 1), parent, pass,
                   at(start), at(end)});
}

double
SpanRecorder::total(const std::string &name, std::uint32_t pass) const
{
    double sum = 0;
    for (const Span &s : all) {
        if (s.pass == pass && s.name == name)
            sum += s.end - s.start;
    }
    return sum;
}

vic::JsonValue
SpanRecorder::toJson() const
{
    vic::JsonValue arr = vic::JsonValue::array();
    for (const Span &s : all) {
        vic::JsonValue o = vic::JsonValue::object();
        o.set("name", vic::JsonValue::str(s.name));
        o.set("id", vic::JsonValue::number(std::uint64_t(s.id)));
        o.set("parent", vic::JsonValue::number(std::uint64_t(s.parent)));
        o.set("pass", vic::JsonValue::number(std::uint64_t(s.pass)));
        o.set("start_s", vic::JsonValue::number(s.start));
        o.set("end_s", vic::JsonValue::number(s.end));
        arr.push(std::move(o));
    }
    return arr;
}

} // namespace perfbench
