// Structured diagnostics for the static-analysis subsystem. Every finding
// the analyzer produces is a Diagnostic with a stable machine-readable code
// (grep for "NCK-" to enumerate them), a severity, a location inside the
// program or QUBO, a human-readable message, and an optional fix-it hint.
// Reports render either as an aligned table (util/table) for terminals or
// as JSON for tooling.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace nck {

class Constraint;
class Env;

enum class Severity { kNote, kWarning, kError };

const char* severity_name(Severity s) noexcept;

/// Stable diagnostic codes. P* are program-level passes, Q* QUBO/annealer
/// passes, C* circuit passes, V* semantic-certification passes, D* dataflow/
/// presolve passes. Codes are append-only: never renumber. (Full table:
/// README "NCK diagnostic codes".)
enum class DiagCode {
  kEmptyProgram,             // NCK-P000: program has no constraints
  kContradictoryPair,        // NCK-P001: same collection, disjoint selections
  kInfeasibleByPropagation,  // NCK-P002: constraint dies under forced values
  kTautology,                // NCK-P003: selection covers [0, |N|] entirely
  kUnusedVariable,           // NCK-P004: variable in no constraint
  kSoftOnlyVariable,         // NCK-P005: variable only in soft constraints
  kDuplicateConstraint,      // NCK-P006: identical constraint repeated
  kScaleSeparation,          // NCK-P007: hard/soft bias exceeds resolution
  kSynthBudgetExceeded,      // NCK-P008: constraint exceeds synth d+a budget
  kUnsatCore,                // NCK-P009: minimal unsatisfiable core (MUS)
  kSynthesisFailed,          // NCK-Q000: constraint QUBO synthesis failed
  kSubNoiseTerm,             // NCK-Q001: terms below the ICE noise floor
  kEmbeddingInfeasible,      // NCK-Q002: cannot embed on the topology
  kEmbeddingTight,           // NCK-Q003: embedding likely to fail / be huge
  kCircuitTooWide,           // NCK-C001: more QUBO vars than device qubits
  kCircuitDepthBudget,       // NCK-C002: depth estimate exceeds coherence
  kFallbackChainInfeasible,  // NCK-R000: no rung of the fallback chain fits
  kCertificationFailed,      // NCK-V000: QUBO ground states != sat(nck(N,K))
  kGapDominatedBySoft,       // NCK-V001: soft penalties can drown a hard gap
  kGapMarginThin,            // NCK-V002: dominance margin below noise floor
  kForcedVariable,           // NCK-D000: dataflow forces a variable's value
  kSubsumedConstraint,       // NCK-D001: constraint implied by a tighter one
  kIndependentComponents,    // NCK-D002: program splits into disjoint parts
  kPresolveUnsat,            // NCK-D003: dataflow fixpoint proves unsat
  kReductionRejected,        // NCK-D004: reduction failed equivalence check
  kDecomposed,               // NCK-D005: program solved by decomposition
};

/// "NCK-P001" etc. — the stable identifier emitted in JSON and table output.
const char* diag_code_name(DiagCode code) noexcept;

/// Where a diagnostic points. `index`/`index2` are constraint indices,
/// variable ids, or QUBO variable indices depending on `kind`; `label` is a
/// pre-rendered human-readable name (constraint text, variable name, term).
struct DiagLocation {
  enum class Kind {
    kProgram,         // whole program; indices unused
    kConstraint,      // index = constraint position in Env::constraints()
    kConstraintPair,  // index, index2 = the two constraint positions
    kVariable,        // index = VarId
    kQuboTerm,        // index, index2 = QUBO variable(s); index2==index
                      // for a linear term
    kConstraintSet,   // indices = constraint positions (e.g. an unsat core)
  };

  Kind kind = Kind::kProgram;
  std::size_t index = 0;
  std::size_t index2 = 0;
  /// Member constraint positions for kConstraintSet (sorted ascending);
  /// empty for every other kind. `index` mirrors the first member.
  std::vector<std::size_t> indices;
  std::string label;

  std::string to_string() const;

  static DiagLocation program();
  static DiagLocation constraint(std::size_t i, std::string label = "");
  static DiagLocation constraint_pair(std::size_t i, std::size_t j,
                                      std::string label = "");
  static DiagLocation variable(std::size_t v, std::string name = "");
  static DiagLocation qubo_term(std::size_t i, std::size_t j,
                                std::string label = "");
  static DiagLocation constraint_set(std::vector<std::size_t> members,
                                     std::string label = "");
};

/// `c` rendered with `env`'s variable names and truncated to 64 characters:
/// the label of every constraint location.
std::string constraint_label(const Env& env, const Constraint& c);

struct Diagnostic {
  Severity severity = Severity::kWarning;
  DiagCode code = DiagCode::kEmptyProgram;
  DiagLocation location;
  std::string message;
  std::string hint;  // fix-it suggestion; empty when none applies
};

/// Ordered collection of diagnostics from one analyzer run.
class AnalysisReport {
 public:
  void add(Diagnostic d) { diagnostics_.push_back(std::move(d)); }

  const std::vector<Diagnostic>& diagnostics() const noexcept {
    return diagnostics_;
  }
  bool empty() const noexcept { return diagnostics_.empty(); }
  std::size_t size() const noexcept { return diagnostics_.size(); }

  std::size_t count(Severity s) const noexcept;
  bool has_errors() const noexcept { return count(Severity::kError) > 0; }
  /// True if any diagnostic carries the given code.
  bool has_code(DiagCode code) const noexcept;

  /// One-line summary of every diagnostic at or above `min_severity`,
  /// "; "-joined — the string Solver places into SolveReport::failure.
  std::string summary(Severity min_severity = Severity::kError) const;

  /// Aligned table via util/table: severity | code | location | message.
  void print(std::ostream& os) const;

  /// Machine-readable JSON object:
  /// {"diagnostics":[...],"errors":N,"warnings":N,"notes":N}.
  std::string to_json() const;

  /// Sort diagnostics into the canonical emission order: by code, then by
  /// location (kind, index, index2, set members, label). Stable, so equal
  /// keys keep their pass-relative order. Analyzer entry points call this
  /// before returning, making `lint --json` byte-stable run to run.
  void canonicalize();

 private:
  std::vector<Diagnostic> diagnostics_;
};

}  // namespace nck
