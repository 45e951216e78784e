#include "programs.h"

#include <cstdint>
#include <stdexcept>

#include "testing/workload_gen/workload_gen.h"
#include "workloads/workload.h"

namespace trapjit::bench
{

namespace
{

/** Generator seeds of every workload_gen preset a workload draws. */
constexpr uint64_t kGenSeeds[] = {101, 202, 303, 404};

void
addSuite(std::vector<BenchProgram> &out, const char *name)
{
    const Workload *w = findWorkload(name);
    if (w == nullptr)
        throw std::runtime_error(std::string("no workload named ") + name);
    out.push_back({w->suite + "/" + w->name, w->build});
}

void
addPreset(std::vector<BenchProgram> &out, const char *preset)
{
    const WorkloadProfile *base = findWorkloadProfile(preset);
    if (base == nullptr)
        throw std::runtime_error(std::string("no preset named ") + preset);
    for (uint64_t seed : kGenSeeds) {
        WorkloadProfile p = *base;
        p.seed = seed;
        out.push_back({std::string(preset) + "#" + std::to_string(seed),
                       [p] { return generateWorkloadModule(p); }});
    }
}

} // namespace

std::vector<BenchProgram>
workloadPrograms(const std::string &workload)
{
    std::vector<BenchProgram> out;
    if (workload == "loop_kernels") {
        for (const Workload &w : jbytemarkWorkloads())
            out.push_back({w.suite + "/" + w.name, w.build});
        addSuite(out, "compress");
        addSuite(out, "mpegaudio");
        addPreset(out, "array_stream");
    } else if (workload == "call_chains") {
        for (const char *name : {"mtrt", "jess", "db", "javac", "jack"})
            addSuite(out, name);
        addPreset(out, "call_web");
    } else if (workload == "null_traps") {
        for (const char *preset : {"null_storm", "try_storm",
                                   "pointer_chase", "big_offset", "mixed"})
            addPreset(out, preset);
    }
    return out;
}

bool
callsMathIntrinsics(const Module &mod)
{
    for (FunctionId f = 0; f < mod.numFunctions(); ++f)
        if (mod.function(f).intrinsic() != Intrinsic::None)
            return true;
    return false;
}

} // namespace trapjit::bench
