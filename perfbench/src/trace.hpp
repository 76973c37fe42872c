/**
 * @file
 * In-memory span recorder. A span is (name, start, end, parent, request
 * id); spans are only appended while the run is measured and written
 * out once, at the end. A span's self time is its duration minus the
 * time its child spans cover (children of one span never overlap: the
 * benchmark records them from one thread, one call after another).
 * A disabled tracer records nothing and never reads the clock, so the
 * same code can run with and without spans to measure what they cost.
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer
{
  public:
    static constexpr size_t kNoParent = static_cast<size_t>(-1);

    struct Span
    {
        const char *name = "";
        double start = 0.0;
        double end = 0.0;
        size_t parent = kNoParent;
        uint64_t request = 0;
    };

    explicit Tracer(bool enabled = true) : enabled_(enabled) {}

    /** Open a span; `name` must outlive the tracer (a literal). */
    size_t begin(const char *name, uint64_t request,
                 size_t parent = kNoParent);

    /** Close a span, optionally renaming it (an outcome known only
     *  after the call, e.g. whether a store write appended). */
    void end(size_t id, const char *rename = nullptr);

    /** Record a span timed elsewhere (e.g. by a completion hook). */
    size_t add(const char *name, double start, double end,
               uint64_t request, size_t parent = kNoParent);

    /** Durations (seconds) of every span with this name. */
    std::vector<double> durations(const std::string &name) const;

    /** Self times (seconds) of every span with this name. */
    std::vector<double> selfTimes(const std::string &name) const;

    struct Summary
    {
        size_t count = 0;
        double total_s = 0.0;
        double self_s = 0.0;
    };
    std::map<std::string, Summary> summary() const;

    /** One JSON object per span, one per line. */
    void write(const std::string &path) const;

    /** RAII span. */
    class Scope
    {
      public:
        Scope(Tracer &t, const char *name, uint64_t request,
              size_t parent = kNoParent)
            : t_(t), id_(t.begin(name, request, parent))
        {}
        ~Scope() { t_.end(id_, rename_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        size_t id() const { return id_; }
        void rename(const char *name) { rename_ = name; }

      private:
        Tracer &t_;
        size_t id_;
        const char *rename_ = nullptr;
    };

  private:
    std::vector<double> childCover() const;

    bool enabled_;
    std::vector<Span> spans_;
};

} // namespace perfbench
