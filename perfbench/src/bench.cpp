#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iomanip>
#include <iostream>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace perfbench {

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

void Digest::add(std::string_view bytes) noexcept {
  for (const char c : bytes) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 0x100000001B3ull;
  }
  // Length terminator, so ("ab", "c") and ("a", "bc") digest apart.
  h_ ^= bytes.size();
  h_ *= 0x100000001B3ull;
}

void Digest::add(const std::vector<bool>& bits) noexcept {
  std::string packed;
  packed.reserve(bits.size());
  for (const bool b : bits) packed.push_back(b ? '1' : '0');
  add(packed);
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

Score score(const nck::Env& env, const std::vector<bool>& assignment) {
  Score s;
  for (const nck::Constraint& c : env.constraints()) {
    unsigned count = 0;
    for (const nck::VarId v : c.collection()) count += assignment.at(v) ? 1 : 0;
    const bool met = c.selection().count(count) > 0;
    if (c.soft()) {
      s.soft_satisfied += met ? 1 : 0;
    } else {
      s.hard_violated += met ? 0 : 1;
    }
  }
  return s;
}

nck::GroundTruth exhaustive_truth(const nck::Env& env) {
  const std::size_t n = env.num_vars();
  if (n > 24) {
    throw std::invalid_argument("exhaustive_truth: more than 24 variables");
  }
  nck::GroundTruth truth;
  std::vector<bool> assignment(n, false);
  for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << n); ++mask) {
    for (std::size_t v = 0; v < n; ++v) assignment[v] = (mask >> v) & 1u;
    const Score s = score(env, assignment);
    if (s.hard_violated == 0) {
      truth.feasible = true;
      truth.best_soft_satisfied =
          std::max(truth.best_soft_satisfied, s.soft_satisfied);
    }
  }
  return truth;
}

void Checker::solve(const Program& program, bool ran,
                    const std::vector<bool>& assignment, nck::Quality claimed,
                    const nck::GroundTruth* solver_truth,
                    const std::string& context) {
  ++attempted_;
  ++solves_;
  if (solver_truth && solver_truth->feasible != program.truth.feasible) {
    wrong_verdict(context + ": the Solver's ground truth calls the program " +
                  (solver_truth->feasible ? "feasible" : "infeasible"));
  }
  if (!ran) {
    fail(context + ": the solve did not run");
    return;
  }
  if (assignment.size() != program.env.num_vars()) {
    fail(context + ": assignment has " + std::to_string(assignment.size()) +
         " values for " + std::to_string(program.env.num_vars()) +
         " variables");
    return;
  }
  const Score s = score(program.env, assignment);
  const bool feasible = s.hard_violated == 0;
  const bool claimed_feasible = claimed != nck::Quality::kIncorrect;
  if (claimed_feasible != feasible) {
    wrong_verdict(context + ": the Solver classified an assignment with " +
                  std::to_string(s.hard_violated) + " violated hard " +
                  "constraints as " + nck::quality_name(claimed));
  }
  if (feasible && !program.truth.feasible) {
    wrong_verdict(context + ": a feasible assignment for a program the " +
                  "oracle calls infeasible");
  }
  const bool optimal = feasible && program.truth.feasible &&
                       s.soft_satisfied == program.truth.best_soft_satisfied;
  if (optimal) ++optimal_;
  if (feasible && s.soft_satisfied > program.truth.best_soft_satisfied) {
    fail(context + ": the assignment satisfies " +
         std::to_string(s.soft_satisfied) + " softs, above the oracle's " +
         "optimum of " + std::to_string(program.truth.best_soft_satisfied));
  } else if (optimal != (claimed == nck::Quality::kOptimal)) {
    fail(context + ": the Solver classified its answer as " +
         nck::quality_name(claimed) + ", the oracle as " +
         (optimal ? "optimal" : "not optimal"));
  } else if (solver_truth && solver_truth->best_soft_satisfied !=
                                 program.truth.best_soft_satisfied) {
    fail(context + ": the Solver's soft optimum " +
         std::to_string(solver_truth->best_soft_satisfied) +
         " differs from the oracle's " +
         std::to_string(program.truth.best_soft_satisfied));
  }
}

void Checker::op(bool ok, const std::string& context) {
  ++attempted_;
  if (!ok) fail(context);
}

void Checker::wrong_verdict(const std::string& context) {
  fatal_ = true;
  std::cerr << "perfbench: wrong hard-feasibility verdict: " << context
            << "\n";
}

double Checker::optimal_frac() const noexcept {
  return solves_ ? static_cast<double>(optimal_) / static_cast<double>(solves_)
                 : 0.0;
}

void Checker::fail(const std::string& why) {
  if (failed_ < 10) std::cerr << "perfbench: failed: " << why << "\n";
  ++failed_;
}

void TraceFold::add(const nck::obs::TraceData& trace) {
  ++traces_;
  const auto& spans = trace.spans;
  std::vector<double> child_us(spans.size(), 0.0);
  for (const nck::obs::SpanRecord& s : spans) {
    if (!s.modeled && s.parent != nck::obs::kNoParent &&
        s.parent < spans.size()) {
      child_us[s.parent] += s.duration_us;
    }
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].modeled) continue;
    Sum& sum = spans_[spans[i].name];
    sum.total_ms += spans[i].duration_us / 1e3;
    sum.self_ms += std::max(0.0, spans[i].duration_us - child_us[i]) / 1e3;
    ++sum.count;
  }
  for (const auto& [name, value] : trace.counters) counters_[name] += value;
  for (const auto& [name, value] : trace.gauges) {
    auto& g = gauges_[name];
    g.first += value;
    ++g.second;
  }
}

double TraceFold::span_ms(const std::string& name) const {
  const auto it = spans_.find(name);
  return it == spans_.end() || it->second.count == 0
             ? 0.0
             : it->second.total_ms / static_cast<double>(it->second.count);
}

double TraceFold::self_ms(const std::string& name) const {
  const auto it = spans_.find(name);
  return it == spans_.end() || it->second.count == 0
             ? 0.0
             : it->second.self_ms / static_cast<double>(it->second.count);
}

double TraceFold::counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

double TraceFold::gauge(const std::string& name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() || it->second.second == 0
             ? 0.0
             : it->second.first / static_cast<double>(it->second.second);
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  if (!std::isfinite(value)) {
    throw std::runtime_error("metric " + name + " is not finite");
  }
  values_[name] = {value, unit};
}

std::string Metrics::json() const {
  std::ostringstream os;
  os << std::setprecision(17) << "{";
  bool first = true;
  for (const auto& [name, entry] : values_) {
    if (!first) os << ", ";
    first = false;
    os << "\"" << name << "\": {\"value\": " << entry.first << ", \"unit\": \""
       << entry.second << "\"}";
  }
  os << "}";
  return os.str();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
