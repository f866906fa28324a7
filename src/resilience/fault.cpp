#include "resilience/fault.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <sstream>
#include <stdexcept>

namespace nck {
namespace {

constexpr double kDefaultTimeoutMs = 1000.0;
constexpr double kDefaultDriftSigma = 0.01;
constexpr double kDefaultDeadQubits = 1.0;

double default_param(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::kQueueTimeout: return kDefaultTimeoutMs;
    case FaultKind::kCalibrationDrift: return kDefaultDriftSigma;
    case FaultKind::kDeadQubits: return kDefaultDeadQubits;
    case FaultKind::kJobRejection:
    case FaultKind::kExecutionError: return 0.0;
  }
  return 0.0;
}

bool takes_param(FaultKind kind) noexcept {
  return kind == FaultKind::kQueueTimeout ||
         kind == FaultKind::kCalibrationDrift ||
         kind == FaultKind::kDeadQubits;
}

/// Short spec-grammar keyword ("reject", "dead", ...).
const char* spec_name(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::kJobRejection: return "reject";
    case FaultKind::kQueueTimeout: return "timeout";
    case FaultKind::kCalibrationDrift: return "drift";
    case FaultKind::kDeadQubits: return "dead";
    case FaultKind::kExecutionError: return "exec";
  }
  return "?";
}

[[noreturn]] void bad_spec(const std::string& token, const std::string& why) {
  throw std::invalid_argument("fault spec: bad event \"" + token + "\" (" +
                              why + ")");
}

FaultEvent parse_event(const std::string& token) {
  std::string body = token;
  FaultEvent event;

  const std::size_t at = body.find('@');
  if (at != std::string::npos) {
    const std::string attempt_text = body.substr(at + 1);
    try {
      std::size_t used = 0;
      const unsigned long long attempt = std::stoull(attempt_text, &used);
      if (used != attempt_text.size() || attempt == 0) {
        bad_spec(token, "attempt must be a positive integer");
      }
      event.attempt = static_cast<std::size_t>(attempt);
    } catch (const std::invalid_argument&) {
      bad_spec(token, "attempt must be a positive integer");
    } catch (const std::out_of_range&) {
      bad_spec(token, "attempt out of range");
    }
    body = body.substr(0, at);
  }

  std::string param_text;
  const std::size_t colon = body.find(':');
  if (colon != std::string::npos) {
    param_text = body.substr(colon + 1);
    body = body.substr(0, colon);
  }

  constexpr FaultKind kKinds[] = {
      FaultKind::kJobRejection, FaultKind::kQueueTimeout,
      FaultKind::kCalibrationDrift, FaultKind::kDeadQubits,
      FaultKind::kExecutionError};
  const auto* kind = std::find_if(
      std::begin(kKinds), std::end(kKinds),
      [&](FaultKind k) { return body == spec_name(k); });
  if (kind == std::end(kKinds)) {
    bad_spec(token, "unknown kind; expected reject|timeout|drift|dead|exec");
  }
  event.kind = *kind;

  event.param = default_param(event.kind);
  if (!param_text.empty()) {
    if (!takes_param(event.kind)) bad_spec(token, "kind takes no parameter");
    try {
      std::size_t used = 0;
      event.param = std::stod(param_text, &used);
      if (used != param_text.size()) bad_spec(token, "malformed parameter");
    } catch (const std::invalid_argument&) {
      bad_spec(token, "malformed parameter");
    } catch (const std::out_of_range&) {
      bad_spec(token, "parameter out of range");
    }
    if (!std::isfinite(event.param) || event.param < 0.0) {
      bad_spec(token, "parameter must be finite and non-negative");
    }
    if (event.kind == FaultKind::kDeadQubits && event.param < 1.0) {
      bad_spec(token, "dead needs at least one qubit");
    }
  }
  return event;
}

}  // namespace

const char* fault_name(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::kJobRejection: return "job-rejection";
    case FaultKind::kQueueTimeout: return "queue-timeout";
    case FaultKind::kCalibrationDrift: return "calibration-drift";
    case FaultKind::kDeadQubits: return "dead-qubits";
    case FaultKind::kExecutionError: return "execution-error";
  }
  return "?";
}

std::string FaultPlan::to_string() const {
  std::ostringstream os;
  bool first = true;
  for (const FaultEvent& e : events) {
    if (!first) os << ",";
    first = false;
    os << spec_name(e.kind);
    if (takes_param(e.kind)) os << ":" << e.param;
    if (e.attempt != 0) os << "@" << e.attempt;
  }
  return os.str();
}

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  if (spec.empty()) return plan;
  std::size_t start = 0;
  while (start <= spec.size()) {
    const std::size_t comma = spec.find(',', start);
    const std::size_t end = comma == std::string::npos ? spec.size() : comma;
    const std::string token = spec.substr(start, end - start);
    if (token.empty()) {
      throw std::invalid_argument("fault spec: empty event in \"" + spec +
                                  "\"");
    }
    plan.events.push_back(parse_event(token));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return plan;
}

FaultPlan FaultPlan::chaos_default() { return parse("reject@1,dead:2@2"); }

FaultInjector::FaultInjector(FaultPlan plan, std::uint64_t seed)
    : plan_(std::move(plan)), rng_(seed) {}

void FaultInjector::begin_attempt(std::size_t attempt) {
  attempt_ = attempt;
  submit_armed_ = drift_armed_ = dead_armed_ = exec_armed_ = true;
}

std::optional<FaultKind> FaultInjector::submit_fault() {
  if (!submit_armed_ || attempt_ == 0) return std::nullopt;
  submit_armed_ = false;
  for (const FaultEvent& e : plan_.events) {
    if (e.kind == FaultKind::kJobRejection && due(e)) {
      history_.push_back({e.kind, attempt_, 0.0, 0});
      return FaultKind::kJobRejection;
    }
  }
  for (const FaultEvent& e : plan_.events) {
    if (e.kind == FaultKind::kQueueTimeout && due(e)) {
      history_.push_back({e.kind, attempt_, e.param, 0});
      return FaultKind::kQueueTimeout;
    }
  }
  return std::nullopt;
}

double FaultInjector::drift_sigma() {
  if (!drift_armed_ || attempt_ == 0) return 0.0;
  drift_armed_ = false;
  double sigma = 0.0;
  for (const FaultEvent& e : plan_.events) {
    if (e.kind != FaultKind::kCalibrationDrift || !due(e)) continue;
    // Unpinned drift accumulates: the device wanders further from its
    // last calibration on every attempt of the session.
    sigma += e.attempt == 0 ? e.param * static_cast<double>(attempt_)
                            : e.param;
  }
  if (sigma > 0.0) {
    history_.push_back({FaultKind::kCalibrationDrift, attempt_, sigma, 0});
  }
  return sigma;
}

std::vector<std::size_t> FaultInjector::dead_qubit_event(
    const std::vector<std::size_t>& in_use) {
  if (!dead_armed_ || attempt_ == 0 || in_use.empty()) return {};
  dead_armed_ = false;
  std::size_t requested = 0;
  for (const FaultEvent& e : plan_.events) {
    if (e.kind == FaultKind::kDeadQubits && due(e)) {
      requested += static_cast<std::size_t>(e.param);
    }
  }
  if (requested == 0) return {};

  // Seeded partial Fisher-Yates over the embedded qubits.
  std::vector<std::size_t> pool = in_use;
  const std::size_t kill = std::min(requested, pool.size());
  for (std::size_t i = 0; i < kill; ++i) {
    const std::size_t j =
        i + static_cast<std::size_t>(rng_.below(pool.size() - i));
    std::swap(pool[i], pool[j]);
  }
  pool.resize(kill);
  std::sort(pool.begin(), pool.end());
  history_.push_back({FaultKind::kDeadQubits, attempt_,
                      static_cast<double>(requested), kill});
  return pool;
}

bool FaultInjector::execution_fault() {
  if (!exec_armed_ || attempt_ == 0) return false;
  exec_armed_ = false;
  for (const FaultEvent& e : plan_.events) {
    if (e.kind == FaultKind::kExecutionError && due(e)) {
      history_.push_back({e.kind, attempt_, 0.0, 0});
      return true;
    }
  }
  return false;
}

double FaultInjector::modeled_wait_ms(std::size_t attempt) const noexcept {
  double ms = 0.0;
  for (const FaultRecord& r : history_) {
    if (r.kind == FaultKind::kQueueTimeout && r.attempt == attempt) {
      ms += r.param;
    }
  }
  return ms;
}

}  // namespace nck
