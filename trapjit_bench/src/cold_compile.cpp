#include "analysis/audit/audit.h"
#include "bench.h"

namespace trapjit::bench
{

BackendTotals &
BackendTotals::operator+=(const BackendTotals &o)
{
    codeBytes += o.codeBytes;
    implicitChecks += o.implicitChecks;
    explicitChecks += o.explicitChecks;
    explicitCheckBytes += o.explicitCheckBytes;
    spills += o.spills;
    loadsSpeculated += o.loadsSpeculated;
    return *this;
}

std::unique_ptr<CompileService>
coldCompileService(const Target &target)
{
    CompileServiceOptions so;
    so.numWorkers = 1;
    so.enableCache = false;
    so.enablePersistent = false;
    so.predecode = false;
    so.precompileNative = false;
    return std::make_unique<CompileService>(target, so);
}

/**
 * The sequence: CompileService::compileModule, then for every function
 * decodeFunction, compileNative for each backend and
 * auditNativeTrapSites on each code.  Building the pristine module is
 * input generation and happens before the timed interval.
 */
ColdCompile
coldCompile(const BenchProgram &prog, uint32_t index,
            CompileService &service, const PipelineConfig &config,
            const Target &target, Tracer &tracer, uint64_t group)
{
    static const char *const kEmitSpan[2] = {"emit.native",
                                             "emit.optimized"};
    ColdCompile c;
    std::unique_ptr<Module> mod = prog.build();

    Tracer::Open whole = tracer.open("compile", 0, group, nullptr, index);
    Tracer::Open passes =
        tracer.open("passes", whole.id, group, nullptr, index);
    ServiceReport report = service.compileModule(*mod, config);
    c.layer[kPasses] = tracer.close(passes);

    for (FunctionId f = 0; f < mod->numFunctions(); ++f) {
        const Function &fn = mod->function(f);
        Tracer::Open dec =
            tracer.open("decode", whole.id, group, nullptr, index);
        std::shared_ptr<const DecodedFunction> df =
            decodeFunction(fn, target, DecodeOptions{});
        c.layer[kDecode] += tracer.close(dec);
        for (size_t b = 0; b < 2; ++b) {
            NativeCompileOptions no;
            no.recordTrace = false;
            no.optimized = b == 1;
            no.speculate = true;
            Tracer::Open emit =
                tracer.open(kEmitSpan[b], whole.id, group, nullptr, index);
            NativeCompileResult res = compileNative(fn, *df, no);
            c.layer[kEmitNative + b] += tracer.close(emit);
            if (res.code == nullptr)
                continue; // runs on the interpreter; no code to count
            Tracer::Open audit =
                tracer.open("audit", whole.id, group, kEmitSpan[b], index);
            AuditReport ar =
                auditNativeTrapSites(fn, target, *df, *res.code);
            c.layer[kAudit] += tracer.close(audit);
            c.auditFindings += ar.findings.size();
            const NativeCode &nc = *res.code;
            BackendTotals &t = c.backend[b];
            t.codeBytes += nc.codeSize;
            t.implicitChecks += nc.implicitChecksCompiled;
            t.explicitChecks += nc.explicitChecksCompiled;
            t.explicitCheckBytes += nc.explicitNullCheckBytes;
            t.spills += nc.spillsEmitted;
            t.loadsSpeculated += nc.loadsSpeculated;
        }
    }
    c.seconds = tracer.close(whole);

    c.passSeconds = report.timings.perPass;
    c.solverBlockVisits = report.counters.solverBlockVisits;
    c.cacheHits = report.counters.cacheHits + report.counters.persistentHits;
    c.checks = collectCheckStats(*mod);
    return c;
}

} // namespace trapjit::bench
