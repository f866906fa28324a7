// Registry of execution backends, keyed by BackendKind. The runtime
// solver looks backends up here instead of switching on kinds; tests
// register custom backends to exercise the solve loop with synthetic
// targets.
#pragma once

#include <memory>
#include <vector>

#include "backend/backend.hpp"

namespace nck::backend {

class Registry {
 public:
  /// Registers `backend`, replacing any existing backend of the same
  /// kind (latest registration wins). Null pointers are ignored.
  void add(std::unique_ptr<Backend> backend);

  /// The backend registered for `kind`, or null.
  const Backend* find(BackendKind kind) const noexcept;

 private:
  std::vector<std::unique_ptr<Backend>> backends_;
};

}  // namespace nck::backend
