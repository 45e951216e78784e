#include "tracer.h"

#include <fstream>

namespace trapjit::bench
{

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now())
{
    if (enabled_)
        spans_.reserve(kMaxSpans);
}

Tracer::Open
Tracer::open(const char *name, uint32_t parent, uint64_t group,
             const char *detail, uint32_t program)
{
    Open span;
    if (enabled_) {
        if (spans_.size() < kMaxSpans) {
            spans_.push_back({name, detail, parent, program, group, {}, {}});
            span.id = static_cast<uint32_t>(spans_.size()); // 1-based
        } else {
            ++dropped_;
        }
    }
    span.start = Clock::now();
    return span;
}

double
Tracer::close(const Open &span)
{
    Clock::time_point end = Clock::now();
    if (span.id != 0) {
        Span &s = spans_[span.id - 1];
        s.start = span.start;
        s.end = end;
    }
    return std::chrono::duration<double>(end - span.start).count();
}

bool
Tracer::writeChromeTrace(const std::string &path,
                         const std::vector<std::string> &programs) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    auto us = [this](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - origin_)
            .count();
    };
    out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << (i == 0 ? "" : ",\n") << "{\"name\":\"" << s.name
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << us(s.start)
            << ",\"dur\":" << us(s.end) - us(s.start)
            << ",\"args\":{\"id\":" << i + 1 << ",\"parent\":" << s.parent
            << ",\"group\":" << s.group << ",\"program\":\""
            << (s.program < programs.size() ? programs[s.program] : "")
            << "\"";
        if (s.detail != nullptr)
            out << ",\"detail\":\"" << s.detail << "\"";
        out << "}}";
    }
    out << "\n],\"otherData\":{\"dropped\":" << dropped_ << "}}\n";
    return static_cast<bool>(out);
}

} // namespace trapjit::bench
