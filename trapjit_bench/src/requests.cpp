#if defined(__x86_64__)
#include <emmintrin.h>
#endif

#include <algorithm>
#include <type_traits>

#include "bench.h"
#include "ir/builder.h"
#include "jit/pipeline.h"
#include "runtime/exceptions.h"
#include "stats.h"

namespace trapjit::bench
{

namespace
{

/** Timed samples per engine in the entry-cost probe ... */
constexpr size_t kEntryProbeSamples = 2000;
/** ... each timing this many back-to-back run() calls. */
constexpr size_t kEntryProbeBatch = 16;

void
reportFailure(const std::string &program, EngineKind e, const char *what)
{
    static size_t printed = 0;
    if (printed++ < 20)
        std::fprintf(stderr, "FAILED request: %s on %s: %s\n",
                     program.c_str(), kEngineNames[e], what);
}

/**
 * Undo what the answer check did to the cache.  The check read every
 * byte of the heap.  After a recycle the heap is all zero, so a line
 * that is still all zero is one the run did not write; flush those
 * lines so that the timed recycle finds them in memory, and keep the
 * lines the run wrote.  Without the check, whether such a line would
 * still be cached from the previous recycle, a whole round of requests
 * ago, depends on the size of the L3 and on what else the host runs;
 * timing the recycle on whatever the check left in the L3 made it read
 * low and vary from run to run.
 */
void
evictUnwrittenLines(const Heap &heap)
{
#if defined(__x86_64__)
    constexpr size_t kLine = 64;
    const uint8_t *base = heap.hostBase() + kHeapBase;
    const size_t bytes = heap.bytesAllocated();
    for (size_t off = 0; off < bytes; off += kLine) {
        const uint8_t *line = base + off;
        const size_t n = std::min(kLine, bytes - off);
        if (std::all_of(line, line + n, [](uint8_t b) { return b == 0; }))
            _mm_clflush(line);
    }
    _mm_mfence();
#else
    (void)heap;
#endif
}

template <typename EngineT>
bool
sendTo(EngineT &engine, const Loaded &l, EngineKind e,
      const std::string &name, Tracer &tracer, uint64_t group,
      RequestTimes &times, RequestCounts *counts)
{
    const char *label = kEngineNames[e];
    Tracer::Open req = tracer.open("request", 0, group, label, l.index);
    Tracer::Open run = tracer.open("run", req.id, group, label, l.index);
    ExecResult r;
    const char *wrong = nullptr;
    try {
        r = engine.run(l.main, kNoArgs);
    } catch (const HardFault &) {
        wrong = "HardFault";
    }
    times.run = tracer.close(run);

    if (wrong == nullptr) {
        if (r.stats.functionsDecoded != 0 ||
            r.stats.functionsNativeCompiled != 0)
            throw BenchFailure("timed request of " + name + " on " + label +
                               " decoded or emitted code");
        const Expected &x = l.expected;
        if (r.outcome != x.outcome)
            wrong = "outcome differs";
        else if (r.exception != x.exception)
            wrong = "exception kind differs";
        else if (r.outcome == ExecResult::Outcome::Returned &&
                 r.value.i != x.value)
            wrong = "return value differs";
        else if (engine.heap().digest() != x.digest)
            wrong = "heap digest differs";
    }
    if (counts != nullptr) {
        counts->stats = r.stats;
        counts->heapBytes = engine.heap().bytesAllocated();
        if constexpr (std::is_same_v<EngineT, NativeEngine>)
            counts->deopts = engine.deoptsTaken();
    }

    evictUnwrittenLines(engine.heap());
    Tracer::Open rec = tracer.open("recycle", req.id, group, label, l.index);
    engine.reset();
    times.recycle = tracer.close(rec);
    tracer.close(req);

    if (wrong != nullptr)
        reportFailure(name, e, wrong);
    return wrong == nullptr;
}

/** A one-block `main` that returns a constant. */
std::unique_ptr<Module>
entryProbeModule()
{
    auto mod = std::make_unique<Module>();
    Function &fn = mod->addFunction("main", Type::I32);
    IRBuilder b(fn);
    b.startBlock();
    b.ret(b.constInt(42));
    return mod;
}

template <typename EngineT>
double
timeEntry(EngineT &engine, FunctionId main, EngineKind e, Tracer &tracer)
{
    for (size_t i = 0; i < 64; ++i) {
        engine.run(main, kNoArgs);
        engine.reset();
    }
    std::vector<double> samples;
    samples.reserve(kEntryProbeSamples);
    for (size_t i = 0; i < kEntryProbeSamples; ++i) {
        Tracer::Open span = tracer.open("run", 0, i, kEngineNames[e]);
        ExecResult r;
        for (size_t k = 0; k < kEntryProbeBatch; ++k)
            r = engine.run(main, kNoArgs);
        samples.push_back(tracer.close(span) /
                          static_cast<double>(kEntryProbeBatch));
        if (r.value.i != 42 || r.stats.functionsDecoded != 0 ||
            r.stats.functionsNativeCompiled != 0)
            throw BenchFailure(std::string("entry probe misbehaved on ") +
                               kEngineNames[e]);
        engine.reset();
    }
    return median(samples) * 1e6;
}

} // namespace

bool
sendRequest(Loaded &l, EngineKind e, const std::string &name,
             Tracer &tracer, uint64_t group, RequestTimes &times,
             RequestCounts *counts)
{
    switch (e) {
      case kFast:
        return sendTo(*l.engines.fast, l, e, name, tracer, group, times,
                     counts);
      case kNative:
        return sendTo(*l.engines.native, l, e, name, tracer, group, times,
                     counts);
      case kOptimized:
        return sendTo(*l.engines.optimized, l, e, name, tracer, group,
                     times, counts);
      case kTiered:
        break;
      case kEngines:
        throw BenchFailure("no such engine");
    }
    TieredEngine &tiered = *l.engines.tiered;
    bool ok = sendTo(tiered, l, e, name, tracer, group, times, counts);
    if (tiered.controller()->functionsPromoted() != l.promotedAtSettle)
        throw BenchFailure("tiered engine promoted during a timed request "
                           "of " + name);
    return ok;
}

std::vector<double>
probeEntryCost(const Target &target, Tracer &tracer)
{
    std::unique_ptr<Module> mod = entryProbeModule();
    CompileServiceOptions so;
    so.numWorkers = 1;
    so.enablePersistent = false;
    CompileService service(target, so);
    service.compileModule(*mod, makeNewFullConfig());
    FunctionId main = mod->findFunction("main");

    Engines e = makeEngines(*mod, target, service);
    if (e.native->nativeCode(main) == nullptr ||
        e.optimized->nativeCode(main) == nullptr)
        throw BenchFailure("entry probe main did not compile natively");
    e.tiered->promoteNow(main);

    std::vector<double> us(kEngines);
    us[kFast] = timeEntry(*e.fast, main, kFast, tracer);
    us[kNative] = timeEntry(*e.native, main, kNative, tracer);
    us[kOptimized] = timeEntry(*e.optimized, main, kOptimized, tracer);
    us[kTiered] = timeEntry(*e.tiered, main, kTiered, tracer);
    return us;
}

} // namespace trapjit::bench
