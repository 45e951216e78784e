#ifndef TRAPJIT_JIT_PIPELINE_H_
#define TRAPJIT_JIT_PIPELINE_H_

/**
 * @file
 * Pipeline configurations: the experiment arms of Section 5.
 *
 * Every configuration shares the non-null-check optimizations (inlining,
 * CSE, copy propagation, bounds check optimization, scalar replacement,
 * DCE); they differ only in how null checks are optimized and lowered,
 * exactly as the paper's measurement arms do:
 *
 *   "No Null Opt. (No Hardware Trap)"  -> makeNoOptNoTrapConfig()
 *   "No Null Opt. (Hardware Trap)"     -> makeNoOptTrapConfig()
 *   "Old Null Check" (Whaley [14])     -> makeOldNullCheckConfig()
 *   "New Null Check (Phase 1 only)"    -> makeNewPhase1OnlyConfig()
 *   "New Null Check (Phase1+Phase2)"   -> makeNewFullConfig()
 *   HotSpot stand-in                   -> makeAltVMConfig()
 *
 * and for the PowerPC/AIX experiments of Section 5.4 (phase 2 is skipped
 * on AIX; every check stays explicit via the conditional trap
 * instruction):
 *
 *   "Speculation"                      -> makeAIXSpeculationConfig()
 *   "No Speculation"                   -> makeAIXNoSpeculationConfig()
 *   "No Null Check Optimization"       -> makeAIXNoOptConfig()
 *   "Illegal Implicit (No Spec.)"      -> makeAIXIllegalImplicitConfig()
 *     (compiled against the lying target that claims reads trap)
 */

#include <memory>
#include <string>

#include "opt/pass_manager.h"

namespace trapjit
{

/** Knobs of one compilation pipeline. */
struct PipelineConfig
{
    std::string name;

    // Null check handling.
    bool useWhaley = false;        ///< forward-only elimination (baseline)
    bool usePhase1 = false;        ///< backward PRE (Section 4.1)
    bool usePhase2 = false;        ///< forward PRE + traps (Section 4.2)
    bool useLocalLowering = false; ///< peephole trap utilization

    // Shared optimizations.
    bool enableInlining = true;
    size_t inlineBudget = 40;
    bool enableIntrinsics = true; ///< Math.* -> native instruction
    bool enableScalar = true;
    bool enableBounds = true;
    bool enableSpeculation = false; ///< read speculation (Section 5.4)

    /** Iterations of the Figure 2 loop (phase 1 with bounds/scalar). */
    int rounds = 2;

    /** Extra cleanup repetitions (the AltVM burns compile time here). */
    int cleanupRepeat = 1;

    /** Run the back end (scheduler + register allocation + emission). */
    bool enableBackend = true;

    /**
     * Run the IR verifier before the first pass and after every pass,
     * panicking as soon as a pass breaks the IR.  Also forced on for
     * every pipeline when the TRAPJIT_VERIFY_EACH_PASS environment
     * variable is set to a non-zero value (the test suite sets it via
     * ctest so every arm of every test is verified pass-by-pass).
     */
    bool verifyAfterEachPass = false;

    /**
     * Run the null-check soundness auditor (analysis/audit/) alongside
     * the pipeline: translation validation after every null-check pass
     * plus a final whole-function audit.  Off by default; Panic is
     * forced for every pipeline when the TRAPJIT_AUDIT environment
     * variable is set to a non-zero value.  The trapjit-lint tool and
     * the mutation tests use Collect to gather findings instead of
     * dying on the first one.  Like verifyAfterEachPass, this is
     * excluded from configFingerprint(): auditing never changes the
     * generated code.
     */
    AuditMode audit = AuditMode::Off;
};

/** Build the ordered pass list realizing @p config. */
std::unique_ptr<PassManager> buildPipeline(const PipelineConfig &config);

/** Whether pipelines built from @p config verify the IR at every pass
 *  boundary (the config flag, or TRAPJIT_VERIFY_EACH_PASS). */
bool verifiesEachPass(const PipelineConfig &config);

/**
 * Stable fingerprint of every field of @p config that influences
 * generated code (the name is cosmetic and excluded, as is
 * verifyAfterEachPass).  Part of the compile-cache key: two configs
 * with equal fingerprints compile any function identically.
 */
std::string configFingerprint(const PipelineConfig &config);

PipelineConfig makeNoOptNoTrapConfig();
PipelineConfig makeNoOptTrapConfig();
PipelineConfig makeOldNullCheckConfig();
PipelineConfig makeNewPhase1OnlyConfig();
PipelineConfig makeNewFullConfig();
PipelineConfig makeAltVMConfig();

PipelineConfig makeAIXSpeculationConfig();
PipelineConfig makeAIXNoSpeculationConfig();
PipelineConfig makeAIXNoOptConfig();
PipelineConfig makeAIXIllegalImplicitConfig();

} // namespace trapjit

#endif // TRAPJIT_JIT_PIPELINE_H_
