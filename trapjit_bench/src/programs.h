#ifndef TRAPJIT_BENCH_PROGRAMS_H_
#define TRAPJIT_BENCH_PROGRAMS_H_

/**
 * @file
 * The benchmark's three workloads, each a fixed population of programs.
 *
 *  - loop_kernels: the ten jBYTEmark kernels, SPECjvm98 compress and
 *    mpegaudio, and workload_gen array_stream programs — the paper's
 *    loop-dominated suite, where emitted-code quality decides.
 *  - call_chains:  SPECjvm98 mtrt, jess, db, javac and jack, and
 *    workload_gen call_web programs — thousands of calls and
 *    allocations per request.
 *  - null_traps:   workload_gen null_storm, try_storm, pointer_chase,
 *    big_offset and mixed programs — short requests dominated by
 *    traps, deopts, exception dispatch, entry cost and heap recycle.
 *
 * Generator seeds are part of the population, not of the run seed: every
 * `--seed` measures the same programs, and the run seed only draws the
 * orders in which the closed loop sends them.
 */

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ir/module.h"

namespace trapjit::bench
{

/** One program of a workload: its name and how to build its pristine IR. */
struct BenchProgram
{
    std::string name;
    std::function<std::unique_ptr<Module>()> build;
};

/** The programs of @p workload; empty when the name is unknown. */
std::vector<BenchProgram> workloadPrograms(const std::string &workload);

/** True when any function of @p mod is an intrinsic-tagged Math method. */
bool callsMathIntrinsics(const Module &mod);

} // namespace trapjit::bench

#endif // TRAPJIT_BENCH_PROGRAMS_H_
