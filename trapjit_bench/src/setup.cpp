#include <algorithm>
#include <thread>

#include "bench.h"
#include "interp/interpreter.h"
#include "jit/compiler.h"
#include "jit/pipeline.h"
#include "runtime/exceptions.h"

namespace trapjit::bench
{

namespace
{

/** Tiered warm-up runs before a program counts as never settling. */
constexpr size_t kMaxTierWarmRuns = 64;

ExecResult
referenceRun(const Module &mod, const Target &target, uint64_t *digest)
{
    InterpOptions io;
    io.recordTrace = false;
    Interpreter interp(mod, target, io);
    ExecResult r;
    try {
        r = interp.run(mod.findFunction("main"), kNoArgs);
    } catch (const HardFault &fault) {
        throw BenchFailure(
            std::string("reference interpreter hard-faulted: ") +
            fault.what());
    }
    if (digest != nullptr)
        *digest = interp.heap().digest();
    return r;
}

/**
 * Run the tiered engine until one whole request promotes nothing new
 * (promotion is synchronous, so this is deterministic); false when it
 * never settles.
 */
bool
warmTiered(Loaded &l)
{
    TieredEngine &tiered = *l.engines.tiered;
    const TierController &ctl = *tiered.controller();
    for (size_t i = 0; i < kMaxTierWarmRuns; ++i) {
        uint64_t before = ctl.functionsPromoted();
        try {
            tiered.run(l.main, kNoArgs);
        } catch (const HardFault &) {
            // Counted when the timed requests meet it again.
        }
        tiered.reset();
        tiered.drainPromotions();
        l.promotedAtSettle = ctl.functionsPromoted();
        if (i > 0 && l.promotedAtSettle == before)
            return true;
    }
    return false;
}

} // namespace

size_t
compileWorkers()
{
    return std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 4);
}

/**
 * Programs that call intrinsic-tagged Math methods take their answer
 * from the module compiled under makeNoOptNoTrapConfig() instead of the
 * pristine one: every compiled arm replaces those calls with native
 * instructions whose results differ in the last bits from the IR bodies
 * the pristine module runs (Fourier's checksum moves), so the pristine
 * answer is the answer of no compiled program.
 */
Expected
expectedAnswer(const BenchProgram &prog, const Target &target)
{
    Expected e;
    std::unique_ptr<Module> mod = prog.build();
    if (callsMathIntrinsics(*mod)) {
        Compiler(target, makeNoOptNoTrapConfig()).compile(*mod);
        e.fromNoOptArm = true;
    }
    ExecResult r = referenceRun(*mod, target, nullptr);
    e.outcome = r.outcome;
    e.value = r.value.i;
    e.exception = r.exception;
    return e;
}

uint64_t
referenceDigest(const Module &mod, const Target &target)
{
    uint64_t digest = 0;
    referenceRun(mod, target, &digest);
    return digest;
}

Engines
makeEngines(const Module &mod, const Target &target,
            const CompileService &service)
{
    InterpOptions io;
    io.recordTrace = false;
    NativeEngineOptions baseline;
    baseline.backend = NativeBackend::Baseline;
    NativeEngineOptions optimized;
    optimized.backend = NativeBackend::Optimized;
    optimized.speculate = 1;
    TieredOptions tiered;
    tiered.synchronous = true;

    Engines e;
    e.fast = std::make_unique<FastInterpreter>(mod, target, io,
                                               service.decodedCache());
    e.native = std::make_unique<NativeEngine>(
        mod, target, io, service.decodedCache(), DecodeOptions{},
        service.nativeCodeCache(), baseline);
    e.optimized = std::make_unique<NativeEngine>(
        mod, target, io, service.decodedCache(), DecodeOptions{},
        service.nativeCodeCache(), optimized);
    for (FunctionId f = 0; f < mod.numFunctions(); ++f) {
        e.native->nativeCode(f);
        e.optimized->nativeCode(f);
    }
    e.optimized->reset(); // drop the pre-emit from the run stats
    e.tiered = std::make_unique<TieredEngine>(
        mod, target, io, service.decodedCache(), DecodeOptions{}, tiered);
    return e;
}

Setup
setUp(const std::vector<BenchProgram> &progs, const Target &target,
      Tracer &tracer, uint64_t rep)
{
    Setup s;
    std::vector<std::unique_ptr<Module>> mods;
    std::vector<Module *> batch;
    for (const BenchProgram &p : progs) {
        mods.push_back(p.build());
        batch.push_back(mods.back().get());
    }
    const PipelineConfig config = makeNewFullConfig();

    Tracer::Open span = tracer.open("setup", 0, rep);
    CompileServiceOptions so;
    so.numWorkers = compileWorkers();
    so.enablePersistent = false;
    CompileService service(target, so);
    s.service = service.compileModules(batch, config);

    s.programs.resize(progs.size());
    for (size_t i = 0; i < progs.size(); ++i) {
        Loaded &l = s.programs[i];
        l.index = static_cast<uint32_t>(i);
        l.mod = std::move(mods[i]);
        l.main = l.mod->findFunction("main");
        l.engines = makeEngines(*l.mod, target, service);
        l.runs[kNative] = l.engines.native->nativeCode(l.main) != nullptr;
        l.runs[kOptimized] =
            l.engines.optimized->nativeCode(l.main) != nullptr;
        if (!warmTiered(l))
            ++s.unsettled;
        ServiceCounters tc;
        l.engines.tiered->addTieringCounters(tc);
        s.promoteSeconds += tc.tierUpLatencySeconds;
        s.functionsPromoted += tc.functionsPromoted;
        s.blocksLinked += tc.blocksLinked;
    }
    s.seconds = tracer.close(span);
    return s;
}

} // namespace trapjit::bench
