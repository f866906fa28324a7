#include "serve/protocol.hpp"

#include <cmath>
#include <stdexcept>

#include "util/json_cursor.hpp"

namespace nck::serve {
namespace {

bool parse_op(const std::string& name, Op* out) {
  if (name == "solve") {
    *out = Op::kSolve;
  } else if (name == "lint") {
    *out = Op::kLint;
  } else if (name == "certify") {
    *out = Op::kCertify;
  } else if (name == "simplify") {
    *out = Op::kSimplify;
  } else if (name == "stats") {
    *out = Op::kStats;
  } else if (name == "shutdown") {
    *out = Op::kShutdown;
  } else {
    return false;
  }
  return true;
}

/// A number that must be a non-negative integer (id, reads, shots).
bool to_count(double value, std::uint64_t* out) {
  if (!(value >= 0.0) || value != std::floor(value) || value > 1e18) {
    return false;
  }
  *out = static_cast<std::uint64_t>(value);
  return true;
}

}  // namespace

const char* op_name(Op op) noexcept {
  switch (op) {
    case Op::kSolve: return "solve";
    case Op::kLint: return "lint";
    case Op::kCertify: return "certify";
    case Op::kSimplify: return "simplify";
    case Op::kStats: return "stats";
    case Op::kShutdown: return "shutdown";
  }
  return "?";
}

const char* wire_error_name(WireError e) noexcept {
  switch (e) {
    case WireError::kNone: return "none";
    case WireError::kBadRequest: return "bad_request";
    case WireError::kOverloaded: return "overloaded";
    case WireError::kDraining: return "draining";
    case WireError::kDeadlineExpired: return "deadline_expired";
    case WireError::kWorkerStuck: return "worker_stuck";
  }
  return "?";
}

bool parse_request(const std::string& line, Request& out, std::string& why) {
  out = Request{};
  if (line.size() > kMaxRequestBytes) {
    why = "request line exceeds the " + std::to_string(kMaxRequestBytes) +
          "-byte cap (" + std::to_string(line.size()) + " bytes)";
    return false;
  }

  bool have_op = false;
  try {
    // One flat object of string/number/boolean values; the first failure
    // (grammar or value domain) is the bad_request reason.
    JsonCursor c(line, "");
    const auto count = [&](const char* key, std::uint64_t cap) {
      std::uint64_t n = 0;
      if (!to_count(c.number(), &n)) {
        c.fail(std::string("\"") + key + "\" must be a non-negative integer");
      }
      if (n > cap) {
        c.fail(std::string("\"") + key + "\" exceeds the cap of " +
               std::to_string(cap));
      }
      return static_cast<std::size_t>(n);
    };
    const auto positive = [&](const char* key) {
      std::uint64_t n = 0;
      if (!to_count(c.number(), &n) || n == 0) {
        c.fail(std::string("\"") + key + "\" must be a positive integer");
      }
      return static_cast<std::size_t>(n);
    };
    c.expect('{');
    if (!c.accept('}')) {
      do {
        const std::string key = c.string();
        c.expect(':');
        if (key == "id") {
          out.id = count("id", std::numeric_limits<std::uint64_t>::max());
          out.has_id = true;
        } else if (key == "op") {
          const std::string name = c.string();
          if (!parse_op(name, &out.op)) c.fail("unknown op \"" + name + "\"");
          have_op = true;
        } else if (key == "program") {
          out.program = c.string();
        } else if (key == "backend") {
          const std::string name = c.string();
          if (!parse_backend_kind(name, &out.backend)) {
            c.fail("unknown backend \"" + name + "\"");
          }
        } else if (key == "deadline_ms") {
          out.deadline_ms = c.number();
        } else if (key == "reads") {
          out.reads = count("reads", kMaxReads);
        } else if (key == "shots") {
          out.shots = count("shots", kMaxShots);
        } else if (key == "trace") {
          out.trace = c.boolean();
        } else if (key == "decompose") {
          out.decompose = c.boolean();
        } else if (key == "subproblem_vars") {
          out.subproblem_vars = positive("subproblem_vars");
        } else if (key == "max_rounds") {
          out.max_rounds = positive("max_rounds");
        } else {
          c.fail("unknown request key \"" + key + "\"");
        }
      } while (c.accept(','));
      c.expect('}');
    }
    c.finish();
  } catch (const std::runtime_error& e) {
    why = e.what();
    return false;
  }

  if (!have_op) {
    why = "missing required key \"op\"";
    return false;
  }
  const bool needs_program = out.op == Op::kSolve || out.op == Op::kLint ||
                             out.op == Op::kCertify || out.op == Op::kSimplify;
  if (needs_program && out.program.empty()) {
    why = std::string("op \"") + op_name(out.op) +
          "\" requires a non-empty \"program\"";
    return false;
  }
  return true;
}

std::string id_json(const Request& req) {
  return req.has_id ? std::to_string(req.id) : std::string("null");
}

std::string error_response(const std::string& id, const char* op,
                           WireError kind, const std::string& detail) {
  return "{\"id\":" + id + ",\"op\":\"" + op +
         "\",\"ok\":false,\"error\":{\"kind\":\"" + wire_error_name(kind) +
         "\",\"detail\":\"" + json_escape(detail) + "\"}}";
}

std::string ok_response(const std::string& id, const char* op,
                        const std::string& payload) {
  return "{\"id\":" + id + ",\"op\":\"" + op + "\",\"ok\":true" + payload +
         "}";
}

}  // namespace nck::serve
