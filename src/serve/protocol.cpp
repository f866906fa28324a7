#include "serve/protocol.hpp"

#include <cmath>
#include <cstdlib>

namespace nck::serve {
namespace {

// Strict cursor over one request line, mirroring the obs trace reader:
// recursive descent over exactly the subset the protocol needs (one flat
// object of string/number/boolean values), failures carry an offset.
class Cursor {
 public:
  explicit Cursor(const std::string& text, std::string& why)
      : text_(text), why_(why) {}

  bool ok() const noexcept { return ok_; }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) {
      fail("unexpected end of request");
      return '\0';
    }
    return text_[pos_];
  }

  void expect(char c) {
    if (!ok_) return;
    if (peek() != c) {
      if (ok_) fail(std::string("expected '") + c + "'");
      return;
    }
    ++pos_;
  }

  bool accept(char c) {
    if (!ok_) return false;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::string string() {
    std::string out;
    expect('"');
    while (ok_) {
      if (pos_ >= text_.size()) {
        fail("unterminated string");
        break;
      }
      const char c = text_[pos_++];
      if (c == '"') break;
      if (c == '\\') {
        if (pos_ >= text_.size()) {
          fail("unterminated escape");
          break;
        }
        const char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          default:
            fail(std::string("unsupported escape '\\") + e + "'");
            break;
        }
      } else {
        out += c;
      }
    }
    return out;
  }

  double number() {
    skip_ws();
    if (!ok_) return 0.0;
    // Accept exactly the JSON number grammar before handing the span to
    // strtod: strtod alone also parses "inf", "nan", and hex floats like
    // "0x1p4", which are not JSON and used to slip through the "strict"
    // reader (found by the fuzz_serve_protocol harness).
    const std::size_t begin_pos = json_number_extent();
    if (!ok_) return 0.0;
    const char* begin = text_.c_str() + begin_pos;
    char* end = nullptr;
    const double value = std::strtod(begin, &end);
    if (static_cast<std::size_t>(end - begin) != pos_ - begin_pos) {
      fail("expected a number");
      return 0.0;
    }
    return value;
  }

  bool boolean() {
    skip_ws();
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      return false;
    }
    fail("expected a boolean");
    return false;
  }

  /// Advances pos_ over one JSON-grammar number (-?int[.frac][e[±]exp])
  /// and returns the start offset; fails without moving past the token on
  /// anything else (leading '+', "inf", "nan", hex, a bare '.', ...).
  std::size_t json_number_extent() {
    const std::size_t begin = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    const std::size_t int_begin = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    if (pos_ == int_begin) {
      pos_ = begin;
      fail("expected a number");
      return begin;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      const std::size_t frac_begin = pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
      if (pos_ == frac_begin) {
        pos_ = begin;
        fail("expected a number");
        return begin;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      const std::size_t exp_begin = pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
      if (pos_ == exp_begin) {
        pos_ = begin;
        fail("expected a number");
        return begin;
      }
    }
    return begin;
  }

  void finish() {
    if (!ok_) return;
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after request");
  }

  void fail(const std::string& reason) {
    if (!ok_) return;  // keep the first failure
    ok_ = false;
    why_ = reason + " at offset " + std::to_string(pos_);
  }

 private:
  const std::string& text_;
  std::string& why_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

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

bool parse_backend_name(const std::string& name, BackendKind* out) {
  if (name == "classical") {
    *out = BackendKind::kClassical;
  } else if (name == "annealer") {
    *out = BackendKind::kAnnealer;
  } else if (name == "circuit") {
    *out = BackendKind::kCircuit;
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

  Cursor c(line, why);
  bool have_op = false;
  c.expect('{');
  if (!c.accept('}')) {
    do {
      const std::string key = c.string();
      if (!c.ok()) break;
      c.expect(':');
      if (key == "id") {
        std::uint64_t id = 0;
        if (!to_count(c.number(), &id)) {
          c.fail("\"id\" must be a non-negative integer");
          break;
        }
        out.id = id;
        out.has_id = true;
      } else if (key == "op") {
        const std::string name = c.string();
        if (c.ok() && !parse_op(name, &out.op)) {
          c.fail("unknown op \"" + name + "\"");
        }
        have_op = c.ok();
      } else if (key == "program") {
        out.program = c.string();
      } else if (key == "backend") {
        const std::string name = c.string();
        if (c.ok() && !parse_backend_name(name, &out.backend)) {
          c.fail("unknown backend \"" + name + "\"");
        }
      } else if (key == "deadline_ms") {
        out.deadline_ms = c.number();
        if (c.ok() && std::isnan(out.deadline_ms)) {
          c.fail("\"deadline_ms\" must not be NaN");
        }
      } else if (key == "reads") {
        std::uint64_t n = 0;
        if (!to_count(c.number(), &n)) {
          c.fail("\"reads\" must be a non-negative integer");
          break;
        }
        if (n > kMaxReads) {
          c.fail("\"reads\" exceeds the cap of " + std::to_string(kMaxReads));
          break;
        }
        out.reads = static_cast<std::size_t>(n);
      } else if (key == "shots") {
        std::uint64_t n = 0;
        if (!to_count(c.number(), &n)) {
          c.fail("\"shots\" must be a non-negative integer");
          break;
        }
        if (n > kMaxShots) {
          c.fail("\"shots\" exceeds the cap of " + std::to_string(kMaxShots));
          break;
        }
        out.shots = static_cast<std::size_t>(n);
      } else if (key == "trace") {
        out.trace = c.boolean();
      } else if (key == "decompose") {
        out.decompose = c.boolean();
      } else if (key == "subproblem_vars") {
        std::uint64_t n = 0;
        if (!to_count(c.number(), &n) || n == 0) {
          c.fail("\"subproblem_vars\" must be a positive integer");
          break;
        }
        out.subproblem_vars = static_cast<std::size_t>(n);
      } else if (key == "max_rounds") {
        std::uint64_t n = 0;
        if (!to_count(c.number(), &n) || n == 0) {
          c.fail("\"max_rounds\" must be a positive integer");
          break;
        }
        out.max_rounds = static_cast<std::size_t>(n);
      } else {
        c.fail("unknown request key \"" + key + "\"");
      }
      if (!c.ok()) break;
    } while (c.accept(','));
    c.expect('}');
  }
  c.finish();
  if (!c.ok()) return false;

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
