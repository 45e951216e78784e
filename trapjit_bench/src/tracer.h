#ifndef TRAPJIT_BENCH_TRACER_H_
#define TRAPJIT_BENCH_TRACER_H_

/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * Spans are opened and closed by the benchmark's own code around each
 * public call into a library layer (nothing inside src/ is
 * instrumented).  Every open/close pair times its interval whether or
 * not tracing is on, so the traced and untraced runs execute the same
 * code; tracing on additionally stores the span, and the difference
 * between the two runs is the tracing overhead.  Stored spans are
 * written as a Chrome trace (chrome://tracing, Perfetto) at exit.
 */

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace trapjit::bench
{

class Tracer
{
  public:
    using Clock = std::chrono::steady_clock;

    /** A span in flight: its id (0 when not stored) and start time. */
    struct Open
    {
        uint32_t id = 0;
        Clock::time_point start;
    };

    /** Spans stored at most; later ones are only counted. */
    static constexpr size_t kMaxSpans = 250000;

    explicit Tracer(bool enabled);

    void setEnabled(bool enabled) { enabled_ = enabled; }

    /**
     * Start a span.  @p parent is the id of the enclosing span (0 for a
     * root), @p group identifies the request or compile every span of
     * one unit of work shares, @p detail is a static label (engine or
     * backend) and @p program the program index.
     */
    Open open(const char *name, uint32_t parent = 0, uint64_t group = 0,
              const char *detail = nullptr, uint32_t program = 0);

    /** End @p span; returns its duration in seconds. */
    double close(const Open &span);

    /** Spans stored, and spans dropped past kMaxSpans. */
    size_t stored() const { return spans_.size(); }
    size_t dropped() const { return dropped_; }

    /** Write the stored spans as Chrome trace events; false on error. */
    bool writeChromeTrace(const std::string &path,
                          const std::vector<std::string> &programs) const;

  private:
    struct Span
    {
        const char *name;
        const char *detail;
        uint32_t parent;
        uint32_t program;
        uint64_t group;
        Clock::time_point start;
        Clock::time_point end;
    };

    bool enabled_;
    size_t dropped_ = 0;
    Clock::time_point origin_;
    std::vector<Span> spans_;
};

} // namespace trapjit::bench

#endif // TRAPJIT_BENCH_TRACER_H_
