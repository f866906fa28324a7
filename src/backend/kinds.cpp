#include "backend/kinds.hpp"

namespace nck {

const char* backend_name(BackendKind kind) noexcept {
  switch (kind) {
    case BackendKind::kClassical: return "classical";
    case BackendKind::kAnnealer: return "annealer";
    case BackendKind::kCircuit: return "circuit";
  }
  return "?";
}

bool parse_backend_kind(std::string_view name, BackendKind* out) noexcept {
  for (const BackendKind kind :
       {BackendKind::kClassical, BackendKind::kAnnealer, BackendKind::kCircuit}) {
    if (name == backend_name(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

const char* failure_kind_name(FailureKind kind) noexcept {
  switch (kind) {
    case FailureKind::kNone: return "none";
    case FailureKind::kBadOptions: return "bad-options";
    case FailureKind::kAnalysisRejected: return "analysis-rejected";
    case FailureKind::kInfeasible: return "infeasible";
    case FailureKind::kNoEmbedding: return "no-embedding";
    case FailureKind::kDeviceTooSmall: return "device-too-small";
    case FailureKind::kNoSamples: return "no-samples";
    case FailureKind::kJobRejected: return "job-rejected";
    case FailureKind::kQueueTimeout: return "queue-timeout";
    case FailureKind::kDeadQubits: return "dead-qubits";
    case FailureKind::kExecutionError: return "execution-error";
    case FailureKind::kRetriesExhausted: return "retries-exhausted";
    case FailureKind::kDeadlineExhausted: return "deadline-exhausted";
  }
  return "?";
}

const char* failure_kind_description(FailureKind kind) noexcept {
  switch (kind) {
    case FailureKind::kNone: return "the solve ran";
    case FailureKind::kBadOptions: return "backend options are invalid";
    case FailureKind::kAnalysisRejected:
      return "static analysis rejected the program";
    case FailureKind::kInfeasible:
      return "program is infeasible (hard constraints conflict)";
    case FailureKind::kNoEmbedding:
      return "no minor embedding found on the device";
    case FailureKind::kDeviceTooSmall:
      return "problem does not fit the device";
    case FailureKind::kNoSamples: return "backend returned no samples";
    case FailureKind::kJobRejected:
      return "job submission rejected by the scheduler";
    case FailureKind::kQueueTimeout: return "job timed out in the queue";
    case FailureKind::kDeadQubits:
      return "embedded qubits died mid-session";
    case FailureKind::kExecutionError:
      return "transient circuit-execution error";
    case FailureKind::kRetriesExhausted:
      return "retry budget exhausted without a successful attempt";
    case FailureKind::kDeadlineExhausted:
      return "session deadline exhausted";
  }
  return "?";
}

bool transient_failure(FailureKind kind) noexcept {
  switch (kind) {
    case FailureKind::kJobRejected:
    case FailureKind::kQueueTimeout:
    case FailureKind::kDeadQubits:
    case FailureKind::kExecutionError:
      return true;
    default:
      return false;
  }
}

FailureKind failure_from_fault(FaultKind fault) noexcept {
  switch (fault) {
    case FaultKind::kJobRejection: return FailureKind::kJobRejected;
    case FaultKind::kQueueTimeout: return FailureKind::kQueueTimeout;
    case FaultKind::kDeadQubits: return FailureKind::kDeadQubits;
    case FaultKind::kExecutionError: return FailureKind::kExecutionError;
    // Drift degrades samples but never aborts an attempt by itself.
    case FaultKind::kCalibrationDrift: return FailureKind::kNone;
  }
  return FailureKind::kNone;
}

}  // namespace nck
