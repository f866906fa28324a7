// Backend identities and typed failure causes — the vocabulary shared by
// the pluggable backend interface (backend/backend.hpp), the resilience
// layer, and the runtime solver. These used to live in runtime/result.hpp
// and runtime/resilience.hpp; they sit here, below the adapters, so that
// backend implementations in src/anneal, src/circuit, and src/classical
// can name kinds and failures without linking the runtime.
//
// runtime/result.hpp and runtime/resilience.hpp re-export everything, so
// existing includes keep working unchanged.
#pragma once

#include <string_view>

#include "resilience/fault.hpp"

namespace nck {

/// The three execution targets of the paper's portability claim.
enum class BackendKind { kClassical, kAnnealer, kCircuit };

const char* backend_name(BackendKind kind) noexcept;
/// Inverts backend_name; false (leaving `out` alone) for any other name.
bool parse_backend_kind(std::string_view name, BackendKind* out) noexcept;

/// Why a solve (or one attempt of it) did not produce samples. Callers
/// and the retry logic branch on this instead of string-matching;
/// SolveReport::failure_message() keeps the human-readable story.
enum class FailureKind {
  kNone = 0,           // the solve ran
  kBadOptions,         // rejected at entry: nonsensical backend options
  kAnalysisRejected,   // static analysis proved the solve cannot succeed
  kInfeasible,         // hard constraints conflict (ground truth)
  kNoEmbedding,        // no minor embedding on the working graph
  kDeviceTooSmall,     // more QUBO variables than physical qubits
  kNoSamples,          // backend produced an empty sample set
  kJobRejected,        // injected: scheduler refused the job
  kQueueTimeout,       // injected: queue wait exceeded the limit
  kDeadQubits,         // injected: embedded qubits died mid-session
  kExecutionError,     // injected: transient circuit-execution failure
  kRetriesExhausted,   // transient failures outlasted the retry budget
  kDeadlineExhausted,  // the session deadline ran out
};

/// "dead-qubits", "retries-exhausted", ... — stable identifier.
const char* failure_kind_name(FailureKind kind) noexcept;
/// One-sentence display description ("no minor embedding found ...").
const char* failure_kind_description(FailureKind kind) noexcept;
/// Transient failures may succeed on a retry of the same backend
/// (after recovery actions such as re-embedding); permanent ones move
/// straight to the next fallback rung.
bool transient_failure(FailureKind kind) noexcept;
/// The FailureKind an injected fault surfaces as.
FailureKind failure_from_fault(FaultKind fault) noexcept;

}  // namespace nck
