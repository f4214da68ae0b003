#include "trace.hpp"

#include <stdexcept>

#include "util/json.hpp"

namespace perfbench {

int
Tracer::open(const std::string &name, Clock::time_point t)
{
    if (!enabled_)
        return -1;
    SpanRecord s;
    s.name = name;
    s.start = since(t);
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.op = op_;
    s.round = round_;
    spans_.push_back(std::move(s));
    const int id = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(id);
    return id;
}

void
Tracer::close(int id, Clock::time_point t)
{
    if (id < 0)
        return;
    if (stack_.empty() || stack_.back() != id)
        throw std::logic_error("span closed out of order: " +
                               spans_[static_cast<std::size_t>(id)].name);
    stack_.pop_back();
    spans_[static_cast<std::size_t>(id)].end = since(t);
}

void
Tracer::count(int id, const std::string &key, double v)
{
    if (id >= 0)
        spans_[static_cast<std::size_t>(id)].counts.emplace_back(key, v);
}

std::map<std::string, double>
Tracer::selfTimes(int round) const
{
    std::vector<double> self(spans_.size(), 0.0);
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].end - spans_[i].start;
    for (const SpanRecord &s : spans_)
        if (s.parent >= 0)
            self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (spans_[i].round == round)
            out[spans_[i].name] += self[i];
    return out;
}

void
Tracer::writeChrome(std::ostream &os) const
{
    rfc::JsonWriter w(os, 0);
    w.beginObject();
    w.kv("displayTimeUnit", "ms");
    w.key("traceEvents");
    w.beginArray();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord &s = spans_[i];
        w.beginObject();
        w.kv("name", s.name);
        w.kv("ph", "X");
        w.kv("pid", std::int64_t{1});
        w.kv("tid", std::int64_t{1});
        w.kv("ts", s.start * 1e6);
        w.kv("dur", (s.end - s.start) * 1e6);
        w.key("args");
        w.beginObject();
        w.kv("span", static_cast<std::int64_t>(i));
        w.kv("parent", static_cast<std::int64_t>(s.parent));
        w.kv("op", static_cast<std::int64_t>(s.op));
        w.kv("round", static_cast<std::int64_t>(s.round));
        for (const auto &[k, v] : s.counts)
            w.kv(k, v);
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << '\n';
}

Span::Span(Tracer &tracer, const std::string &name)
    : tracer_(tracer), start_(Clock::now())
{
    id_ = tracer_.open(name, start_);
}

double
Span::stop()
{
    if (open_) {
        const Clock::time_point end = Clock::now();
        tracer_.close(id_, end);
        seconds_ = std::chrono::duration<double>(end - start_).count();
        open_ = false;
    }
    return seconds_;
}

} // namespace perfbench
