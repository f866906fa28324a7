#include "analysis/diagnostic.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "util/json_escape.hpp"
#include "util/table.hpp"

namespace nck {

const char* severity_name(Severity s) noexcept {
  switch (s) {
    case Severity::kNote: return "note";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "?";
}

const char* diag_code_name(DiagCode code) noexcept {
  switch (code) {
    case DiagCode::kEmptyProgram: return "NCK-P000";
    case DiagCode::kContradictoryPair: return "NCK-P001";
    case DiagCode::kInfeasibleByPropagation: return "NCK-P002";
    case DiagCode::kTautology: return "NCK-P003";
    case DiagCode::kUnusedVariable: return "NCK-P004";
    case DiagCode::kSoftOnlyVariable: return "NCK-P005";
    case DiagCode::kDuplicateConstraint: return "NCK-P006";
    case DiagCode::kScaleSeparation: return "NCK-P007";
    case DiagCode::kSynthBudgetExceeded: return "NCK-P008";
    case DiagCode::kUnsatCore: return "NCK-P009";
    case DiagCode::kSynthesisFailed: return "NCK-Q000";
    case DiagCode::kSubNoiseTerm: return "NCK-Q001";
    case DiagCode::kEmbeddingInfeasible: return "NCK-Q002";
    case DiagCode::kEmbeddingTight: return "NCK-Q003";
    case DiagCode::kCircuitTooWide: return "NCK-C001";
    case DiagCode::kCircuitDepthBudget: return "NCK-C002";
    case DiagCode::kFallbackChainInfeasible: return "NCK-R000";
    case DiagCode::kCertificationFailed: return "NCK-V000";
    case DiagCode::kGapDominatedBySoft: return "NCK-V001";
    case DiagCode::kGapMarginThin: return "NCK-V002";
    case DiagCode::kForcedVariable: return "NCK-D000";
    case DiagCode::kSubsumedConstraint: return "NCK-D001";
    case DiagCode::kIndependentComponents: return "NCK-D002";
    case DiagCode::kPresolveUnsat: return "NCK-D003";
    case DiagCode::kReductionRejected: return "NCK-D004";
    case DiagCode::kDecomposed: return "NCK-D005";
  }
  return "NCK-????";
}

namespace {

const char* location_kind_name(DiagLocation::Kind kind) noexcept {
  switch (kind) {
    case DiagLocation::Kind::kProgram: return "program";
    case DiagLocation::Kind::kConstraint: return "constraint";
    case DiagLocation::Kind::kConstraintPair: return "constraint-pair";
    case DiagLocation::Kind::kVariable: return "variable";
    case DiagLocation::Kind::kQuboTerm: return "qubo-term";
    case DiagLocation::Kind::kConstraintSet: return "constraint-set";
  }
  return "?";
}

}  // namespace

std::string DiagLocation::to_string() const {
  std::ostringstream os;
  switch (kind) {
    case Kind::kProgram:
      os << "program";
      break;
    case Kind::kConstraint:
      os << "constraint #" << index;
      break;
    case Kind::kConstraintPair:
      os << "constraints #" << index << " and #" << index2;
      break;
    case Kind::kVariable:
      os << "variable #" << index;
      break;
    case Kind::kQuboTerm:
      if (index == index2) {
        os << "qubo term x" << index;
      } else {
        os << "qubo term x" << index << "*x" << index2;
      }
      break;
    case Kind::kConstraintSet:
      os << "constraints {";
      for (std::size_t i = 0; i < indices.size(); ++i) {
        if (i) os << ", ";
        os << "#" << indices[i];
      }
      os << "}";
      break;
  }
  if (!label.empty()) os << " (" << label << ")";
  return os.str();
}

DiagLocation DiagLocation::program() { return {}; }

DiagLocation DiagLocation::constraint(std::size_t i, std::string label) {
  return {Kind::kConstraint, i, i, {}, std::move(label)};
}

DiagLocation DiagLocation::constraint_pair(std::size_t i, std::size_t j,
                                           std::string label) {
  return {Kind::kConstraintPair, i, j, {}, std::move(label)};
}

DiagLocation DiagLocation::variable(std::size_t v, std::string name) {
  return {Kind::kVariable, v, v, {}, std::move(name)};
}

DiagLocation DiagLocation::qubo_term(std::size_t i, std::size_t j,
                                     std::string label) {
  return {Kind::kQuboTerm, i, j, {}, std::move(label)};
}

DiagLocation DiagLocation::constraint_set(std::vector<std::size_t> members,
                                          std::string label) {
  DiagLocation loc;
  loc.kind = Kind::kConstraintSet;
  loc.indices = std::move(members);
  std::sort(loc.indices.begin(), loc.indices.end());
  loc.index = loc.indices.empty() ? 0 : loc.indices.front();
  loc.index2 = loc.index;
  loc.label = std::move(label);
  return loc;
}

void AnalysisReport::merge(AnalysisReport other) {
  diagnostics_.reserve(diagnostics_.size() + other.diagnostics_.size());
  for (auto& d : other.diagnostics_) diagnostics_.push_back(std::move(d));
}

std::size_t AnalysisReport::count(Severity s) const noexcept {
  std::size_t n = 0;
  for (const auto& d : diagnostics_) {
    if (d.severity == s) ++n;
  }
  return n;
}

bool AnalysisReport::has_code(DiagCode code) const noexcept {
  for (const auto& d : diagnostics_) {
    if (d.code == code) return true;
  }
  return false;
}

std::string AnalysisReport::summary(Severity min_severity) const {
  std::ostringstream os;
  bool first = true;
  for (const auto& d : diagnostics_) {
    if (d.severity < min_severity) continue;
    if (!first) os << "; ";
    os << "[" << diag_code_name(d.code) << "] " << d.location.to_string()
       << ": " << d.message;
    first = false;
  }
  return os.str();
}

void AnalysisReport::print(std::ostream& os) const {
  if (diagnostics_.empty()) {
    os << "no diagnostics\n";
    return;
  }
  Table table({"severity", "code", "location", "message"});
  for (const auto& d : diagnostics_) {
    table.row()
        .cell(severity_name(d.severity))
        .cell(diag_code_name(d.code))
        .cell(d.location.to_string())
        .cell(d.hint.empty() ? d.message : d.message + " [hint: " + d.hint +
                                               "]");
  }
  table.print(os);
  os << count(Severity::kError) << " error(s), " << count(Severity::kWarning)
     << " warning(s), " << count(Severity::kNote) << " note(s)\n";
}

void AnalysisReport::canonicalize() {
  std::stable_sort(
      diagnostics_.begin(), diagnostics_.end(),
      [](const Diagnostic& a, const Diagnostic& b) {
        if (a.code != b.code) return a.code < b.code;
        const DiagLocation& la = a.location;
        const DiagLocation& lb = b.location;
        if (la.kind != lb.kind) return la.kind < lb.kind;
        if (la.index != lb.index) return la.index < lb.index;
        if (la.index2 != lb.index2) return la.index2 < lb.index2;
        if (la.indices != lb.indices) return la.indices < lb.indices;
        return la.label < lb.label;
      });
}

std::string AnalysisReport::to_json() const {
  std::ostringstream os;
  os << "{\"diagnostics\":[";
  for (std::size_t i = 0; i < diagnostics_.size(); ++i) {
    const Diagnostic& d = diagnostics_[i];
    if (i) os << ",";
    os << "{\"severity\":\"" << severity_name(d.severity) << "\""
       << ",\"code\":\"" << diag_code_name(d.code) << "\""
       << ",\"location\":{\"kind\":\"" << location_kind_name(d.location.kind)
       << "\",\"index\":" << d.location.index
       << ",\"index2\":" << d.location.index2 << ",\"indices\":[";
    for (std::size_t k = 0; k < d.location.indices.size(); ++k) {
      if (k) os << ",";
      os << d.location.indices[k];
    }
    os << "],\"label\":\"" << json_escape(d.location.label) << "\"}"
       << ",\"message\":\"" << json_escape(d.message) << "\""
       << ",\"hint\":\"" << json_escape(d.hint) << "\"}";
  }
  os << "],\"errors\":" << count(Severity::kError)
     << ",\"warnings\":" << count(Severity::kWarning)
     << ",\"notes\":" << count(Severity::kNote) << "}";
  return os.str();
}

}  // namespace nck
