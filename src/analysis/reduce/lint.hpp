// NCK-D* lint pass: surfaces what the dataflow/presolve layer would do to a
// program as diagnostics, without transforming anything. Runs as part of
// analyze_program, on the fixpoint that also feeds NCK-P002.
#pragma once

#include "analysis/diagnostic.hpp"
#include "core/env.hpp"

namespace nck {

struct DataflowResult;

/// Emits NCK-D000 (forced variable), NCK-D001 (subsumed constraint),
/// NCK-D002 (independent components) notes and the NCK-D003 error
/// (dataflow-proved unsat that neither NCK-P001 nor NCK-P002 caught), from
/// `flow`, the program's solve_dataflow result.
void pass_presolve_lint(const Env& env, const DataflowResult& flow,
                        AnalysisReport& report);

}  // namespace nck
