// Strict recursive-descent cursor over one JSON text, shared by the
// readers of this project's own JSON schemas (obs trace documents,
// nck_serve request lines). It reads punctuation, strings with every JSON
// escape (\uXXXX to UTF-8, a surrogate pair to one code point; a lone or
// malformed surrogate is an error), booleans, and numbers in exactly
// the JSON grammar: strtod alone also takes "inf", "nan", hex floats such
// as "0x1p4", a leading '+' and a bare trailing '.', none of which is
// JSON. Every failure throws std::runtime_error "<context>: <reason> at
// offset <n>".
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

namespace nck {

class JsonCursor {
 public:
  /// `context` names the reader in error messages (e.g. "trace_from_json");
  /// empty for none. `text` must outlive the cursor.
  JsonCursor(const std::string& text, std::string context)
      : text_(text), context_(std::move(context)) {}

  /// The next non-whitespace byte, not consumed; throws at end of input.
  char peek();
  void expect(char c);
  /// Consumes `c` if it is the next non-whitespace byte.
  bool accept(char c);
  std::string string();
  double number();
  bool boolean();
  /// Throws unless only whitespace remains.
  void finish();

  [[noreturn]] void fail(const std::string& reason) const;

 private:
  void skip_ws() noexcept;
  /// Reads the four hex digits of a \u escape.
  std::uint32_t hex4();
  /// The code point of a \u escape whose "\u" was just consumed, joining
  /// a surrogate pair.
  std::uint32_t code_point();
  /// Advances over one JSON-grammar number (-?int[.frac][e[+-]exp]) and
  /// returns its start offset; throws on anything else.
  std::size_t number_extent();

  const std::string& text_;
  std::string context_;
  std::size_t pos_ = 0;
};

}  // namespace nck
