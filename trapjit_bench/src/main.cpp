/**
 * @file
 * trapjit-bench: whole-request latency per engine, cold compile time and
 * a traced per-layer split, on one named workload per invocation.
 *
 *   trapjit_bench --workload <loop_kernels|call_chains|null_traps>
 *                 --seed <n> --seconds <s> --trace <0|1>
 *                 [--trace-file <path>]
 *
 * A request is one execution of a pre-compiled program's `main` on one
 * engine followed by that engine's heap recycle (reset()).  The engines
 * are `fast` (FastInterpreter), `native` (NativeEngine, baseline
 * backend), `optimized` (NativeEngine, optimized backend) and `tiered`
 * (TieredEngine, warmed until promotion settles).  One client sends
 * requests in a closed loop: the workload's programs round-robin, each
 * program once per engine per round, in an order drawn from the seed
 * afresh for every round.
 *
 * Every timed request is checked against an answer oracle (outcome,
 * return value, exception kind, heap digest) and counts as failed on a
 * mismatch or HardFault.  The last line of stdout is one JSON object
 * with the metrics of the run: the end-to-end set with --trace 0, the
 * per-layer set with --trace 1.  METRICS.md documents every metric.
 */

#include <malloc.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench.h"
#include "jit/pipeline.h"
#include "jit/timing.h"
#include "stats.h"
#include "testing/workload_gen/rng.h"

namespace trapjit::bench
{
namespace
{

/** Set-ups before the timed part.  setup_s is the median over these and
 *  the set-ups of the later epochs. */
constexpr size_t kSetupReps = 5;
/**
 * The timed part runs in epochs, each served by a fresh set-up, so that
 * one run's samples come from several placements of the heaps and the
 * code in memory rather than one, and so that every later set-up is
 * checked to reproduce the first one's per-request counts.
 */
constexpr size_t kEpochs = 3;
/** Timed blocks per epoch; each is a compile slice then a request slice. */
constexpr size_t kBlocksPerEpoch = 4;
/** Share of --seconds spent timing cold compiles; the rest is requests. */
constexpr double kCompileShare = 0.2;
/** Cold compiles per program at least, whatever the budget. */
constexpr size_t kMinCompileReps = 3;
/** Untimed requests per program and engine before timing starts. */
constexpr size_t kWarmRequests = 2;
/** Untraced samples per engine at least, so p99 has 10 beyond it. */
constexpr size_t kP99Samples = 1000;
/** Topping up sample counts stops at this multiple of --seconds. */
constexpr double kHardStopFactor = 2.0;

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string traceFile;
};

bool
parseArgs(int argc, char **argv, Options &o)
{
    bool haveWorkload = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string arg = argv[i];
        const char *val = argv[i + 1];
        char *end = nullptr;
        if (arg == "--workload") {
            o.workload = val;
            haveWorkload = true;
        } else if (arg == "--seed") {
            o.seed = std::strtoull(val, &end, 10);
        } else if (arg == "--seconds") {
            o.seconds = std::strtod(val, &end);
            if (!(o.seconds > 0.0))
                return false;
        } else if (arg == "--trace") {
            if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0)
                return false;
            o.trace = val[0] == '1';
        } else if (arg == "--trace-file") {
            o.traceFile = val;
        } else {
            return false;
        }
        if (end != nullptr && *end != '\0')
            return false;
    }
    return haveWorkload && argc % 2 == 1;
}

/** 0..n-1 in a Fisher-Yates order drawn from @p rng. */
std::vector<uint32_t>
shuffledOrder(size_t n, SplitMix64 &rng)
{
    std::vector<uint32_t> order(n);
    for (uint32_t i = 0; i < n; ++i)
        order[i] = i;
    for (size_t i = n - 1; i > 0; --i)
        std::swap(order[i], order[rng.next() % (i + 1)]);
    return order;
}

/** Timed samples of one (program, engine) pair. */
struct Cell
{
    std::vector<double> latency;       ///< untraced rounds: run + recycle
    std::vector<double> tracedLatency; ///< traced rounds
    std::vector<double> run;           ///< traced rounds
    std::vector<double> recycle;       ///< traced rounds
    RequestCounts counts;              ///< from the first warm request
};

/** Everything one invocation measured. */
struct Run
{
    std::vector<std::string> names;
    /**
     * Draws the program order afresh for every request round and every
     * pass of cold compiles.  With one fixed order, each program always
     * followed the same program, and what that one left behind (a big
     * heap recycle, say) slowed it in every round: which programs paid
     * depended on the seed, and the gmean moved with it.
     */
    SplitMix64 orderRng{0};
    std::vector<Expected> answers; ///< per program; set-ups add digests
    std::vector<double> setupSeconds, serviceWall, serviceBusy, promote;
    Setup setup; ///< the last set-up; it serves the requests
    std::vector<std::vector<ColdCompile>> cold; ///< per program
    std::vector<std::vector<Cell>> cells;       ///< [program][engine]
    bool trace = false;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    size_t rounds = 0;
    std::vector<double> entryUs; ///< traced runs only
};

/** One timed set-up, replacing (and first tearing down) the last one. */
void
setUpOnce(Run &r, const std::vector<BenchProgram> &progs,
          const Target &target, Tracer &tracer)
{
    r.setup = Setup{};
    r.setup = setUp(progs, target, tracer, r.setupSeconds.size());
    r.setupSeconds.push_back(r.setup.seconds);
    r.serviceWall.push_back(r.setup.service.wallSeconds);
    r.serviceBusy.push_back(r.setup.service.busySeconds);
    r.promote.push_back(r.setup.promoteSeconds);
    if (r.setup.unsettled != 0)
        std::fprintf(stderr, "WARNING: %zu tiered engines never settled\n",
                     r.setup.unsettled);
    for (Loaded &l : r.setup.programs) {
        l.expected = r.answers[l.index];
        l.expected.digest = referenceDigest(*l.mod, target);
    }
}

bool
sameCounts(const RequestCounts &a, const RequestCounts &b)
{
    return a.stats.trapsTaken == b.stats.trapsTaken &&
           a.stats.calls == b.stats.calls &&
           a.stats.allocations == b.stats.allocations &&
           a.stats.instructions == b.stats.instructions &&
           a.stats.dispatches == b.stats.dispatches &&
           a.heapBytes == b.heapBytes && a.deopts == b.deopts;
}

/**
 * Untimed requests on the serving set-up's engines.  The first set-up's
 * first request per cell supplies the cell's counts; later set-ups must
 * reproduce them.
 */
void
warmRequests(Run &r, Tracer &tracer, bool takeCounts)
{
    tracer.setEnabled(false);
    for (Loaded &l : r.setup.programs)
        for (size_t e = 0; e < kEngines; ++e)
            for (size_t w = 0; w < kWarmRequests && l.runs[e]; ++w) {
                RequestTimes t;
                RequestCounts counts;
                sendRequest(l, static_cast<EngineKind>(e),
                             r.names[l.index], tracer, 0, t,
                             w == 0 ? &counts : nullptr);
                RequestCounts &cell = r.cells[l.index][e].counts;
                if (w != 0)
                    continue;
                if (takeCounts)
                    cell = counts;
                else if (!sameCounts(cell, counts))
                    std::fprintf(stderr,
                                 "WARNING: counts of %s on %s differ "
                                 "between set-ups\n",
                                 r.names[l.index].c_str(), kEngineNames[e]);
            }
    tracer.setEnabled(r.trace);
}

/**
 * The timed part: kEpochs epochs, each served by a fresh set-up (the
 * first by the last of the initial ones) and made of kBlocksPerEpoch
 * blocks.  A block is a slice of cold compiles followed by a slice of
 * request rounds, so that both sample the whole run rather than one
 * stretch of it.  Then top-ups to the minimum sample counts.  With
 * tracing, odd rounds are traced and even ones are not.
 */
void
measure(Run &r, const std::vector<BenchProgram> &progs, const Options &opt,
        const Target &target, Tracer &tracer)
{
    const size_t n = progs.size();
    const PipelineConfig config = makeNewFullConfig();
    std::unique_ptr<CompileService> service = coldCompileService(target);
    size_t compiles = 0;
    std::vector<uint32_t> compileOrder;
    auto compileNext = [&] {
        if (compiles % n == 0)
            compileOrder = shuffledOrder(n, r.orderRng);
        uint32_t i = compileOrder[compiles % n];
        ++compiles;
        r.cold[i].push_back(coldCompile(progs[i], i, *service, config,
                                        target, tracer, compiles));
    };

    uint64_t group = 0;
    auto requestRound = [&] {
        const bool traced = opt.trace && r.rounds % 2 == 1;
        tracer.setEnabled(traced);
        for (uint32_t i : shuffledOrder(n, r.orderRng)) {
            Loaded &l = r.setup.programs[i];
            for (size_t j = 0; j < kEngines; ++j) {
                EngineKind e =
                    static_cast<EngineKind>((r.rounds + j) % kEngines);
                if (!l.runs[e])
                    continue;
                RequestTimes t;
                bool ok = sendRequest(l, e, r.names[i], tracer, ++group,
                                       t, nullptr);
                ++r.attempted;
                r.failed += ok ? 0 : 1;
                Cell &c = r.cells[i][e];
                if (traced) {
                    c.tracedLatency.push_back(t.run + t.recycle);
                    c.run.push_back(t.run);
                    c.recycle.push_back(t.recycle);
                } else {
                    c.latency.push_back(t.run + t.recycle);
                }
            }
        }
        ++r.rounds;
        tracer.setEnabled(opt.trace);
    };

    Stopwatch watch;
    const double slice = opt.seconds / (kEpochs * kBlocksPerEpoch);
    for (size_t epoch = 0; epoch < kEpochs; ++epoch) {
        if (epoch > 0)
            setUpOnce(r, progs, target, tracer);
        warmRequests(r, tracer, epoch == 0);
        for (size_t block = 0; block < kBlocksPerEpoch; ++block) {
            Stopwatch w;
            do
                compileNext();
            while (w.elapsed() < kCompileShare * slice);
            w.restart();
            do
                requestRound();
            while (w.elapsed() < (1.0 - kCompileShare) * slice);
        }
    }
    while (compiles < kMinCompileReps * n)
        compileNext();
    const size_t minUntraced = (kP99Samples + n - 1) / n;
    auto untracedRounds = [&] {
        return opt.trace ? (r.rounds + 1) / 2 : r.rounds;
    };
    while ((untracedRounds() < minUntraced || r.rounds < 2) &&
           watch.elapsed() < kHardStopFactor * opt.seconds)
        requestRound();

    if (opt.trace)
        r.entryUs = probeEntryCost(target, tracer);
}

// ---- aggregation -------------------------------------------------------

/** The run reduced to per-workload numbers. */
struct Summary
{
    std::vector<double> compileMs; ///< per program, median cold compile
    double layerMs[kCompileLayers] = {};  ///< per-program medians, summed
    std::map<std::string, double> passMs; ///< per-program medians, summed
    ColdCompile counts; ///< count fields summed over programs
    double gmeanUs[kEngines] = {};
    double runUs[kEngines] = {};
    double p99Us[kEngines] = {};
    size_t samples[kEngines] = {};
    size_t beyondP99[kEngines] = {};
    double recycleUs = 0.0;
    double traceOverheadPct = 0.0;
    RequestCounts perRequest; ///< summed over programs, one request each
    double errorRate = 0.0;
};

/** Median over @p reps of @p field. */
template <typename Field>
double
medianOf(const std::vector<ColdCompile> &reps, Field field)
{
    std::vector<double> v;
    for (const ColdCompile &c : reps)
        v.push_back(field(c));
    return median(v);
}

void
summarizeCompiles(const Run &r, Summary &s)
{
    for (size_t i = 0; i < r.cold.size(); ++i) {
        const std::vector<ColdCompile> &reps = r.cold[i];
        s.compileMs.push_back(
            medianOf(reps, [](const ColdCompile &c) { return c.seconds; }) *
            1e3);
        for (size_t k = 0; k < kCompileLayers; ++k)
            s.layerMs[k] += medianOf(reps, [k](const ColdCompile &c) {
                                return c.layer[k];
                            }) * 1e3;
        for (const auto &entry : reps.front().passSeconds) {
            const std::string &pass = entry.first;
            s.passMs[pass] += medianOf(reps, [&pass](const ColdCompile &c) {
                                  auto it = c.passSeconds.find(pass);
                                  return it == c.passSeconds.end()
                                             ? 0.0
                                             : it->second;
                              }) * 1e3;
        }

        const ColdCompile &first = reps.front();
        for (const ColdCompile &c : reps)
            if (!(c.backend[0] == first.backend[0]) ||
                !(c.backend[1] == first.backend[1]) ||
                c.solverBlockVisits != first.solverBlockVisits ||
                c.auditFindings != first.auditFindings)
                throw BenchFailure("cold compiles of " + r.names[i] +
                                   " disagree on their counts");
        s.counts.solverBlockVisits += first.solverBlockVisits;
        s.counts.cacheHits += first.cacheHits;
        s.counts.checks += first.checks;
        s.counts.auditFindings += first.auditFindings;
        s.counts.backend[0] += first.backend[0];
        s.counts.backend[1] += first.backend[1];
    }
    if (s.counts.cacheHits != 0)
        throw BenchFailure("a cold compile hit a cache");
}

void
summarizeRequests(const Run &r, bool trace, Summary &s)
{
    const size_t n = r.cells.size();
    std::vector<double> overhead;
    for (size_t e = 0; e < kEngines; ++e) {
        std::vector<double> medians, runMedians, all;
        for (size_t i = 0; i < n; ++i) {
            if (!r.setup.programs[i].runs[e])
                continue;
            const Cell &c = r.cells[i][e];
            medians.push_back(median(c.latency) * 1e6);
            all.insert(all.end(), c.latency.begin(), c.latency.end());
            if (trace) {
                runMedians.push_back(median(c.run) * 1e6);
                overhead.push_back(median(c.tracedLatency) /
                                   median(c.latency));
            }
        }
        if (medians.empty())
            throw BenchFailure(std::string("no program runs on ") +
                               kEngineNames[e]);
        s.gmeanUs[e] = gmean(medians);
        s.runUs[e] = gmean(runMedians);
        auto [p99, beyond] = percentile(all, 0.99);
        s.p99Us[e] = p99 * 1e6;
        s.samples[e] = all.size();
        s.beyondP99[e] = beyond;
    }
    if (trace) {
        std::vector<double> recycle;
        for (size_t i = 0; i < n; ++i) {
            std::vector<double> pooled;
            for (const Cell &c : r.cells[i])
                pooled.insert(pooled.end(), c.recycle.begin(),
                              c.recycle.end());
            recycle.push_back(median(pooled) * 1e6);
        }
        s.recycleUs = gmean(recycle);
        s.traceOverheadPct = (gmean(overhead) - 1.0) * 100.0;
    }

    for (size_t i = 0; i < n; ++i) {
        const RequestCounts &f = r.cells[i][kFast].counts;
        ExecStats &t = s.perRequest.stats;
        t.trapsTaken += f.stats.trapsTaken;
        t.calls += f.stats.calls;
        t.allocations += f.stats.allocations;
        t.instructions += f.stats.instructions;
        t.dispatches += f.stats.dispatches;
        s.perRequest.heapBytes += f.heapBytes;
        s.perRequest.deopts += r.cells[i][kOptimized].counts.deopts;
    }
    s.errorRate = static_cast<double>(r.failed) /
                  static_cast<double>(std::max<uint64_t>(1, r.attempted));
}

// ---- output ------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof ru);
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::vector<Metric>
endToEndMetrics(const Run &r, const Summary &s)
{
    std::vector<Metric> m;
    m.push_back({"setup_s", median(r.setupSeconds), "s"});
    m.push_back({"compile_gmean_ms", gmean(s.compileMs), "ms"});
    for (size_t e = 0; e < kEngines; ++e)
        m.push_back({std::string(kEngineNames[e]) + "_gmean_us",
                     s.gmeanUs[e], "us"});
    for (size_t e = 0; e < kEngines; ++e)
        m.push_back({std::string(kEngineNames[e]) + "_p99_us", s.p99Us[e],
                     "us"});
    m.push_back({"peak_rss_mb", peakRssMb(), "MB"});
    m.push_back({"native_code_bytes",
                 static_cast<double>(s.counts.backend[0].codeBytes),
                 "bytes"});
    m.push_back({"optimized_code_bytes",
                 static_cast<double>(s.counts.backend[1].codeBytes),
                 "bytes"});
    return m;
}

std::vector<Metric>
perLayerMetrics(const Run &r, const Summary &s)
{
    auto count = [](uint64_t v) { return static_cast<double>(v); };
    auto engine = [](size_t e, const char *suffix) {
        return std::string(kEngineNames[e]) + suffix;
    };
    const ExecStats &req = s.perRequest.stats;
    const CheckStats &checks = s.counts.checks;
    std::vector<Metric> m;

    // opt
    double passTotal = 0.0;
    for (const auto &entry : s.passMs)
        passTotal += entry.second;
    m.push_back({"opt.passes_ms", passTotal, "ms"});
    for (const auto &[pass, ms] : s.passMs) {
        std::string key = pass;
        for (char &ch : key)
            ch = ch == '-' ? '_' : ch;
        m.push_back({"opt.pass." + key + "_ms", ms, "ms"});
    }
    m.push_back({"opt.solver_block_visits",
                 count(s.counts.solverBlockVisits), "count"});
    m.push_back({"opt.explicit_null_checks",
                 count(checks.explicitNullChecks), "count"});
    m.push_back({"opt.implicit_null_checks",
                 count(checks.implicitNullChecks), "count"});
    m.push_back({"opt.bound_checks", count(checks.boundChecks), "count"});
    m.push_back({"opt.ir_instructions", count(checks.instructions),
                 "count"});

    // interp
    m.push_back({"interp.decode_ms", s.layerMs[kDecode], "ms"});
    m.push_back({"fast.run_us", s.runUs[kFast], "us"});
    m.push_back({"fast.dispatches", count(req.dispatches), "count"});

    // codegen.native
    m.push_back({"native.emit_ms", s.layerMs[kEmitNative], "ms"});
    m.push_back({"optimized.emit_ms", s.layerMs[kEmitOptimized], "ms"});
    for (size_t e : {kNative, kOptimized, kTiered})
        m.push_back({engine(e, ".run_us"), s.runUs[e], "us"});
    for (size_t e = 0; e < kEngines; ++e)
        m.push_back({engine(e, ".entry_us"), r.entryUs[e], "us"});
    for (size_t b = 0; b < 2; ++b) {
        const BackendTotals &t = s.counts.backend[b];
        size_t e = b == 0 ? kNative : kOptimized;
        m.push_back({engine(e, ".implicit_checks"), count(t.implicitChecks),
                     "count"});
        m.push_back({engine(e, ".explicit_checks"), count(t.explicitChecks),
                     "count"});
        m.push_back({engine(e, ".explicit_check_bytes"),
                     count(t.explicitCheckBytes), "bytes"});
    }
    m.push_back({"optimized.spills", count(s.counts.backend[1].spills),
                 "count"});
    m.push_back({"optimized.loads_speculated",
                 count(s.counts.backend[1].loadsSpeculated), "count"});
    m.push_back({"optimized.deopts", count(s.perRequest.deopts), "count"});

    // analysis.audit
    m.push_back({"audit.native_ms", s.layerMs[kAudit], "ms"});
    m.push_back({"audit.findings", count(s.counts.auditFindings), "count"});

    // jit
    m.push_back({"service.wall_ms", median(r.serviceWall) * 1e3, "ms"});
    m.push_back({"service.busy_ms", median(r.serviceBusy) * 1e3, "ms"});
    m.push_back({"tiered.promote_ms", median(r.promote) * 1e3, "ms"});
    m.push_back({"tiered.functions_promoted",
                 count(r.setup.functionsPromoted), "count"});
    m.push_back({"tiered.blocks_linked", count(r.setup.blocksLinked),
                 "count"});

    // runtime
    m.push_back({"heap.recycle_us", s.recycleUs, "us"});
    m.push_back({"heap.bytes_recycled", count(s.perRequest.heapBytes),
                 "bytes"});
    m.push_back({"runtime.traps", count(req.trapsTaken), "count"});
    m.push_back({"runtime.calls", count(req.calls), "count"});
    m.push_back({"runtime.allocations", count(req.allocations), "count"});
    m.push_back({"runtime.instructions", count(req.instructions),
                 "count"});

    // the benchmark itself
    m.push_back({"trace.overhead_pct", s.traceOverheadPct, "%"});
    m.push_back({"error_rate", s.errorRate, "ratio"});
    return m;
}

void
printReport(const Options &opt, const Run &r, const Summary &s,
            const std::vector<Metric> &metrics)
{
    std::printf("trapjit-bench workload=%s seed=%llu seconds=%g trace=%d "
                "programs=%zu rounds=%zu compile_workers=%zu\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0, r.names.size(), r.rounds,
                compileWorkers());
    std::printf("%-28s %10s %10s %10s %12s %10s %7s %6s %6s\n",
                "program (medians)", "compile_ms", "fast_us", "native_us",
                "optimized_us", "tiered_us", "calls", "traps", "deopts");
    for (size_t i = 0; i < r.names.size(); ++i) {
        std::printf("%-28s %10.3f", r.names[i].c_str(), s.compileMs[i]);
        for (size_t e = 0; e < kEngines; ++e) {
            const int width = e == kOptimized ? 12 : 10;
            if (r.setup.programs[i].runs[e])
                std::printf(" %*.2f", width,
                            median(r.cells[i][e].latency) * 1e6);
            else
                std::printf(" %*s", width, "skipped");
        }
        const RequestCounts &f = r.cells[i][kFast].counts;
        std::printf(" %7llu %6llu %6llu%s\n",
                    static_cast<unsigned long long>(f.stats.calls),
                    static_cast<unsigned long long>(f.stats.trapsTaken),
                    static_cast<unsigned long long>(
                        r.cells[i][kOptimized].counts.deopts),
                    r.setup.programs[i].expected.fromNoOptArm
                        ? "  (answer from the no-opt arm)"
                        : "");
    }
    for (const Loaded &l : r.setup.programs)
        for (EngineKind e : {kNative, kOptimized})
            if (!l.runs[e])
                std::fprintf(stderr,
                             "SKIP %s row: main of %s runs on the "
                             "interpreter\n",
                             kEngineNames[e], r.names[l.index].c_str());
    for (size_t e = 0; e < kEngines; ++e)
        std::printf("%s: %zu untraced requests, %zu beyond p99\n",
                    kEngineNames[e], s.samples[e], s.beyondP99[e]);
    std::printf("error_rate: %.6g (%llu failed of %llu attempted)\n",
                s.errorRate, static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(r.attempted));
    for (const Metric &x : metrics)
        std::printf("  %-36s %16.6g %s\n", x.name.c_str(), x.value,
                    x.unit.c_str());
}

void
printJson(const Run &r, const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                r.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    for (size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    std::printf("}}\n");
}

int
runBench(const Options &opt)
{
    const std::vector<BenchProgram> progs = workloadPrograms(opt.workload);
    if (progs.empty()) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     opt.workload.c_str());
        return 2;
    }
    const Target target = makeIA32WindowsTarget();
    Tracer tracer(opt.trace);
    Run r;
    for (const BenchProgram &p : progs)
        r.names.push_back(p.name);
    r.orderRng = SplitMix64(opt.seed);

    r.trace = opt.trace;
    for (const BenchProgram &p : progs)
        r.answers.push_back(expectedAnswer(p, target));
    r.cells.assign(progs.size(), std::vector<Cell>(kEngines));
    r.cold.assign(progs.size(), {});
    for (size_t rep = 0; rep < kSetupReps; ++rep)
        setUpOnce(r, progs, target, tracer);
    measure(r, progs, opt, target, tracer);

    Summary s;
    summarizeCompiles(r, s);
    summarizeRequests(r, opt.trace, s);
    std::vector<Metric> metrics =
        opt.trace ? perLayerMetrics(r, s) : endToEndMetrics(r, s);
    printReport(opt, r, s, metrics);
    if (opt.trace && !opt.traceFile.empty()) {
        if (!tracer.writeChromeTrace(opt.traceFile, r.names))
            throw BenchFailure("cannot write " + opt.traceFile);
        std::printf("trace: %zu spans (%zu dropped) -> %s\n",
                    tracer.stored(), tracer.dropped(),
                    opt.traceFile.c_str());
    }
    printJson(r, metrics);
    return 0;
}

} // namespace
} // namespace trapjit::bench

int
main(int argc, char **argv)
{
    using namespace trapjit::bench;
    Options opt;
    if (!parseArgs(argc, argv, opt)) {
        std::fprintf(stderr,
                     "usage: %s --workload <name> --seed <n> --seconds <s> "
                     "--trace <0|1> [--trace-file <path>]\n",
                     argv[0]);
        return 2;
    }
    // One malloc arena: otherwise how many per-thread arenas the compile
    // workers create depends on timing, and peak_rss_mb with it.
    mallopt(M_ARENA_MAX, 1);
    try {
        return runBench(opt);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "trapjit-bench: %s\n", e.what());
        return 3;
    }
}
