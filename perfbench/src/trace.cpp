#include "trace.hpp"

#include <cstdio>
#include <stdexcept>

#include "util.hpp"

namespace perfbench {

size_t
Tracer::begin(const char *name, uint64_t request, size_t parent)
{
    if (!enabled_)
        return kNoParent;
    Span s;
    s.name = name;
    s.request = request;
    s.parent = parent;
    s.start = now();
    spans_.push_back(s);
    return spans_.size() - 1;
}

size_t
Tracer::add(const char *name, double start, double end, uint64_t request,
            size_t parent)
{
    if (!enabled_)
        return kNoParent;
    spans_.push_back({name, start, end, parent, request});
    return spans_.size() - 1;
}

void
Tracer::end(size_t id, const char *rename)
{
    if (!enabled_)
        return;
    Span &s = spans_[id];
    s.end = now();
    if (rename)
        s.name = rename;
}

std::vector<double>
Tracer::childCover() const
{
    std::vector<double> cover(spans_.size(), 0.0);
    for (const Span &s : spans_)
        if (s.parent != kNoParent)
            cover[s.parent] += s.end - s.start;
    return cover;
}

std::vector<double>
Tracer::durations(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &s : spans_)
        if (name == s.name)
            out.push_back(s.end - s.start);
    return out;
}

std::vector<double>
Tracer::selfTimes(const std::string &name) const
{
    const std::vector<double> cover = childCover();
    std::vector<double> out;
    for (size_t i = 0; i < spans_.size(); ++i)
        if (name == spans_[i].name)
            out.push_back(spans_[i].end - spans_[i].start - cover[i]);
    return out;
}

std::map<std::string, Tracer::Summary>
Tracer::summary() const
{
    const std::vector<double> cover = childCover();
    std::map<std::string, Summary> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
        Summary &s = out[spans_[i].name];
        const double d = spans_[i].end - spans_[i].start;
        ++s.count;
        s.total_s += d;
        s.self_s += d - cover[i];
    }
    return out;
}

void
Tracer::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        throw std::runtime_error("cannot write " + path);
    const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "{\"id\":%zu,\"name\":\"%s\",\"request\":%llu,"
                     "\"parent\":%lld,\"start_us\":%.3f,\"end_us\":%.3f}\n",
                     i, s.name, static_cast<unsigned long long>(s.request),
                     s.parent == kNoParent
                         ? -1LL
                         : static_cast<long long>(s.parent),
                     (s.start - t0) * 1e6, (s.end - t0) * 1e6);
    }
    std::fclose(f);
}

} // namespace perfbench
