/**
 * @file
 * Layer spans of the benchmark, recorded from outside the library.
 *
 * Every call the benchmark makes into a library layer (topology build,
 * oracle, forwarding tables, simulator, flow solver, queue sweep) runs
 * inside a Span.  A Span always measures its wall time with
 * steady_clock - the end-to-end metrics are sums of those times - and,
 * while the Tracer is enabled, also records itself: name, start, end,
 * parent span, the operation id shared by the spans of one trial or
 * solve, and the counts observed at that boundary.  Records stay in
 * memory and are written as Chrome trace-event JSON at exit.
 */
#ifndef PERFBENCH_TRACE_HPP
#define PERFBENCH_TRACE_HPP

#include <chrono>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** One closed span. Times are seconds since the tracer was created. */
struct SpanRecord
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;    //!< index of the enclosing span, -1 at top level
    long long op = 0;   //!< operation id, 0 outside any trial or solve
    int round = 0;
    std::vector<std::pair<std::string, double>> counts;
};

class Tracer
{
  public:
    /** Recording switch; spans opened while disabled are not kept. */
    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }
    /** Start a new round; returns its id, unique within the process. */
    int nextRound() { return ++round_; }

    /** Start a new operation; later spans carry its id until endOp. */
    void beginOp() { op_ = ++last_op_; }
    void endOp() { op_ = 0; }

    /** Open a span at @p t; returns its index, or -1 when disabled. */
    int open(const std::string &name, Clock::time_point t);
    /** Close the innermost open span @p id at @p t. */
    void close(int id, Clock::time_point t);
    void count(int id, const std::string &key, double v);

    /**
     * Self time per span name over the spans of round @p round: each
     * span's duration minus the durations of its direct children.
     * Spans are opened and closed on the calling thread only, so the
     * children of a span never overlap one another.
     */
    std::map<std::string, double> selfTimes(int round) const;

    /** All recorded spans as a Chrome trace-event JSON document. */
    void writeChrome(std::ostream &os) const;

  private:
    double since(Clock::time_point t) const
    {
        return std::chrono::duration<double>(t - epoch_).count();
    }

    Clock::time_point epoch_ = Clock::now();
    bool enabled_ = false;
    int round_ = 0;
    long long last_op_ = 0;
    long long op_ = 0;
    std::vector<int> stack_;
    std::vector<SpanRecord> spans_;
};

/** Times one layer call; records it in the tracer when enabled. */
class Span
{
  public:
    Span(Tracer &tracer, const std::string &name);
    ~Span() { stop(); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Close the span (idempotent); returns its duration in seconds. */
    double stop();
    /** Attach a count observed at this boundary (traced runs only). */
    void count(const std::string &key, double v) { tracer_.count(id_, key, v); }

  private:
    Tracer &tracer_;
    int id_;
    Clock::time_point start_;
    bool open_ = true;
    double seconds_ = 0.0;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HPP
