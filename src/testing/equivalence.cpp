#include "testing/equivalence.h"

#include <algorithm>
#include <bit>
#include <span>
#include <sstream>

#include "interp/fast_interpreter.h"
#include "interp/interpreter.h"
#include "ir/verifier.h"
#include "runtime/exceptions.h"
#include "support/diagnostics.h"

namespace trapjit
{

namespace
{

/**
 * Render a digest mismatch down to the first differing heap word —
 * the difference an engine author can act on, instead of "digests
 * differ" with 32 MB of haystack.
 */
std::string
describeHeapDifference(const Heap &lhs, const Heap &rhs,
                       const char *lhs_name, const char *rhs_name)
{
    Heap::Difference diff = lhs.firstDifference(rhs);
    std::ostringstream os;
    os << "final heap digest differs";
    if (!diff.differs)
        return os.str(); // digest collision-free in practice; be safe
    if (diff.sizeOnly) {
        os << ": arenas diverge in extent at address 0x" << std::hex
           << diff.address << " (allocation count/order differs)";
        return os.str();
    }
    os << ": first differing word at address 0x" << std::hex
       << diff.address << " (" << lhs_name << " 0x" << diff.lhsWord
       << ", " << rhs_name << " 0x" << diff.rhsWord << ")";
    return os.str();
}

/** Everything one run of `main` makes observable. */
struct Observation
{
    const char *engine = ""; ///< name used in difference messages
    const Heap *heap = nullptr;
    bool hardFault = false;
    std::string fault;
    ExecResult result;
    std::vector<Event> events;
    uint64_t heapDigest = 0;
};

/** Run @p entry on @p engine (any engine with run / trace / heap). */
template <typename EngineT>
Observation
observe(EngineT &engine, FunctionId entry, const char *name)
{
    Observation obs;
    obs.engine = name;
    obs.heap = &engine.heap();
    try {
        obs.result = engine.run(entry, {});
    } catch (const HardFault &fault) {
        obs.hardFault = true;
        obs.fault = fault.what();
        return obs;
    }
    obs.events = engine.trace().events();
    obs.heapDigest = engine.heap().digest();
    return obs;
}

/** One semantic ExecStats counter an engine pair must agree on. */
struct StatCounter
{
    const char *name;
    uint64_t ExecStats::*field;
};

/**
 * Every semantic counter: the fast interpreter must charge the same
 * costs in the same order as the reference one.
 */
constexpr StatCounter kInterpreterCounters[] = {
    {"instructions", &ExecStats::instructions},
    {"explicitNullChecks", &ExecStats::explicitNullChecks},
    {"implicitNullChecks", &ExecStats::implicitNullChecks},
    {"boundChecks", &ExecStats::boundChecks},
    {"heapReads", &ExecStats::heapReads},
    {"heapWrites", &ExecStats::heapWrites},
    {"calls", &ExecStats::calls},
    {"allocations", &ExecStats::allocations},
    {"trapsTaken", &ExecStats::trapsTaken},
    {"speculativeReadsOfNull", &ExecStats::speculativeReadsOfNull},
};

/**
 * The counters native code maintains.  The purely engine-side ones
 * (dispatches, per-check counts, heap access counts) and the simulated
 * cycle double are out of scope for frames that ran as machine code.
 */
constexpr StatCounter kNativeCounters[] = {
    {"instructions", &ExecStats::instructions},
    {"calls", &ExecStats::calls},
    {"allocations", &ExecStats::allocations},
    {"trapsTaken", &ExecStats::trapsTaken},
    {"speculativeReadsOfNull", &ExecStats::speculativeReadsOfNull},
};

const char *
outcomeName(ExecResult::Outcome outcome)
{
    return outcome == ExecResult::Outcome::Returned ? "returned" : "threw";
}

/**
 * The cross-engine diff: HardFault parity (message included), outcome,
 * exception kind, the typed return value (F64 bitwise), the ordered
 * event trace, the final heap, then @p counters in order and — when
 * @p cycles is set — the cycle double bitwise.  The first difference
 * wins.
 */
EquivalenceReport
diffRuns(const Observation &lhs, const Observation &rhs, Type returnType,
         std::span<const StatCounter> counters, bool cycles)
{
    EquivalenceReport report;
    const char *ln = lhs.engine;
    const char *rn = rhs.engine;
    std::ostringstream os;
    if (lhs.hardFault != rhs.hardFault) {
        os << "HardFault parity differs: " << ln << " "
           << (lhs.hardFault ? "faulted (" + lhs.fault + ")"
                             : "completed")
           << ", " << rn << " "
           << (rhs.hardFault ? "faulted (" + rhs.fault + ")"
                             : "completed");
        report.message = os.str();
        return report;
    }
    if (lhs.hardFault) {
        if (lhs.fault != rhs.fault) {
            os << "HardFault message differs: " << ln << " \"" << lhs.fault
               << "\", " << rn << " \"" << rhs.fault << "\"";
            report.message = os.str();
            return report;
        }
        // Both engines detected the same miscompilation; that IS the
        // agreed behavior (partial stats are not comparable past the
        // throw, so stop here).  hardFaulted lets a harness still
        // flag the case: clean pipelines never HardFault.
        report.equivalent = true;
        report.hardFaulted = true;
        return report;
    }

    if (lhs.result.outcome != rhs.result.outcome) {
        os << "outcome differs: " << ln << " "
           << outcomeName(lhs.result.outcome) << ", " << rn << " "
           << outcomeName(rhs.result.outcome);
        report.message = os.str();
        return report;
    }
    if (lhs.result.exception != rhs.result.exception) {
        os << "exception differs: " << ln << " "
           << excName(lhs.result.exception) << ", " << rn << " "
           << excName(rhs.result.exception);
        report.message = os.str();
        return report;
    }
    if (lhs.result.outcome == ExecResult::Outcome::Returned) {
        const RuntimeValue &lv = lhs.result.value;
        const RuntimeValue &rv = rhs.result.value;
        bool same = true;
        switch (returnType) {
          case Type::F64:
            same = std::bit_cast<uint64_t>(lv.f) ==
                   std::bit_cast<uint64_t>(rv.f);
            break;
          case Type::Ref:
            same = lv.ref == rv.ref;
            break;
          case Type::Void:
            break;
          default:
            same = lv.i == rv.i;
            break;
        }
        if (!same) {
            os << "return value differs: " << ln << " (i=" << lv.i
               << ", f=" << lv.f << ", ref=" << lv.ref << "), " << rn
               << " (i=" << rv.i << ", f=" << rv.f << ", ref=" << rv.ref
               << ")";
            report.message = os.str();
            return report;
        }
    }

    size_t n = std::min(lhs.events.size(), rhs.events.size());
    for (size_t i = 0; i < n; ++i) {
        if (!(lhs.events[i] == rhs.events[i])) {
            os << "event " << i << " differs: " << ln << " "
               << lhs.events[i].toString() << ", " << rn << " "
               << rhs.events[i].toString();
            report.message = os.str();
            return report;
        }
    }
    if (lhs.events.size() != rhs.events.size()) {
        os << "event count differs: " << ln << " " << lhs.events.size()
           << ", " << rn << " " << rhs.events.size();
        report.message = os.str();
        return report;
    }
    if (lhs.heapDigest != rhs.heapDigest) {
        report.message =
            describeHeapDifference(*lhs.heap, *rhs.heap, ln, rn);
        return report;
    }

    const ExecStats &a = lhs.result.stats;
    const ExecStats &b = rhs.result.stats;
    for (const StatCounter &c : counters) {
        if (a.*c.field != b.*c.field) {
            os << "stats." << c.name << " differs: " << ln << " "
               << a.*c.field << ", " << rn << " " << b.*c.field;
            report.message = os.str();
            return report;
        }
    }
    if (cycles && std::bit_cast<uint64_t>(a.cycles) !=
                      std::bit_cast<uint64_t>(b.cycles)) {
        os.precision(17);
        os << "cycles differ bitwise: " << ln << " " << a.cycles << ", "
           << rn << " " << b.cycles;
        report.message = os.str();
        return report;
    }

    report.equivalent = true;
    report.trapsTaken = a.trapsTaken;
    report.instructionsExecuted = a.instructions;
    return report;
}

/** @p mod's `main`, asserted present. */
FunctionId
mainOf(const Module &mod)
{
    FunctionId entry = mod.findFunction("main");
    TRAPJIT_ASSERT(entry != kNoFunction, "module has no main");
    return entry;
}

/** Every oracle records the event trace. */
InterpOptions
tracedOptions()
{
    InterpOptions options;
    options.recordTrace = true;
    return options;
}

/** Diff @p engine's run of main against the fast interpreter's. */
template <typename EngineT>
EquivalenceReport
diffAgainstFast(Module &mod, const Target &runtime_target,
                DecodeOptions decode_options, EngineT &engine,
                const char *name)
{
    const FunctionId entry = mainOf(mod);
    FastInterpreter fast(mod, runtime_target, tracedOptions(), nullptr,
                         decode_options);
    const Observation lhs = observe(fast, entry, "fast");
    const Observation rhs = observe(engine, entry, name);
    return diffRuns(lhs, rhs, mod.function(entry).returnType(),
                    kNativeCounters, false);
}

} // namespace

EquivalenceReport
compareWithReference(
    const std::function<std::unique_ptr<Module>()> &build,
    const Compiler &compiler, const Target &runtime_target)
{
    return compareWithReference(
        build, [&compiler](Module &mod) { compiler.compile(mod); },
        runtime_target);
}

EquivalenceReport
compareWithReference(
    const std::function<std::unique_ptr<Module>()> &build,
    const std::function<void(Module &)> &compile,
    const Target &runtime_target)
{
    EquivalenceReport report;
    std::unique_ptr<Module> reference = build();
    FunctionId refEntry = mainOf(*reference);
    Interpreter refInterp(*reference, runtime_target, tracedOptions());
    Observation ref = observe(refInterp, refEntry, "reference");
    if (ref.hardFault) {
        report.message = "reference run hard-faulted: " + ref.fault;
        return report;
    }

    std::unique_ptr<Module> optimized = build();
    compile(*optimized);
    VerifyResult verify = verifyModule(*optimized);
    if (!verify.ok()) {
        report.message = "optimized module fails verification:\n" +
                         verify.message();
        return report;
    }
    FunctionId optEntry = mainOf(*optimized);
    Interpreter optInterp(*optimized, runtime_target, tracedOptions());
    Observation opt = observe(optInterp, optEntry, "optimized");
    if (opt.hardFault) {
        report.message = "optimized run hard-faulted (miscompile): " +
                         opt.fault;
        return report;
    }

    std::ostringstream os;
    if (ref.result.outcome != opt.result.outcome) {
        os << "outcome differs: reference "
           << (ref.result.outcome == ExecResult::Outcome::Returned
                   ? "returned"
                   : "threw")
           << ", optimized "
           << (opt.result.outcome == ExecResult::Outcome::Returned
                   ? "returned"
                   : "threw");
        report.message = os.str();
        return report;
    }
    if (ref.result.exception != opt.result.exception) {
        os << "exception differs: reference "
           << excName(ref.result.exception) << ", optimized "
           << excName(opt.result.exception);
        report.message = os.str();
        return report;
    }
    if (ref.result.outcome == ExecResult::Outcome::Returned &&
        ref.result.value.i != opt.result.value.i) {
        os << "return value differs: reference " << ref.result.value.i
           << ", optimized " << opt.result.value.i;
        report.message = os.str();
        return report;
    }

    size_t n = std::min(ref.events.size(), opt.events.size());
    for (size_t i = 0; i < n; ++i) {
        if (!(ref.events[i] == opt.events[i])) {
            os << "event " << i << " differs: reference "
               << ref.events[i].toString() << ", optimized "
               << opt.events[i].toString();
            report.message = os.str();
            return report;
        }
    }
    if (ref.events.size() != opt.events.size()) {
        os << "event count differs: reference " << ref.events.size()
           << ", optimized " << opt.events.size();
        report.message = os.str();
        return report;
    }
    if (ref.heapDigest != opt.heapDigest) {
        report.message = describeHeapDifference(
            refInterp.heap(), optInterp.heap(), "reference", "optimized");
        return report;
    }

    report.equivalent = true;
    report.trapsTaken = opt.result.stats.trapsTaken;
    report.instructionsExecuted = opt.result.stats.instructions;
    return report;
}

EquivalenceReport
compareEngines(Module &mod, const Target &runtime_target,
               DecodeOptions decode_options)
{
    const FunctionId entry = mainOf(mod);
    Interpreter ref(mod, runtime_target, tracedOptions());
    FastInterpreter fast(mod, runtime_target, tracedOptions(), nullptr,
                         decode_options);
    const Observation lhs = observe(ref, entry, "reference");
    const Observation rhs = observe(fast, entry, "fast");
    return diffRuns(lhs, rhs, mod.function(entry).returnType(),
                    kInterpreterCounters, true);
}

EquivalenceReport
compareNativeEngine(Module &mod, const Target &runtime_target,
                    DecodeOptions decode_options,
                    NativeEngineOptions engine_options)
{
    NativeEngine engine(mod, runtime_target, tracedOptions(), nullptr,
                        decode_options, nullptr,
                        std::move(engine_options));
    return diffAgainstFast(mod, runtime_target, decode_options, engine,
                           "native");
}

EquivalenceReport
compareTieredEngine(Module &mod, const Target &runtime_target,
                    DecodeOptions decode_options,
                    TieredOptions tiered_options)
{
    TieredEngine engine(mod, runtime_target, tracedOptions(), nullptr,
                        decode_options, tiered_options);
    return diffAgainstFast(mod, runtime_target, decode_options, engine,
                           "tiered");
}

} // namespace trapjit
