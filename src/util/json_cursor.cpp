#include "util/json_cursor.hpp"

#include <cstdlib>
#include <stdexcept>

namespace nck {
namespace {

bool is_digit(char c) noexcept { return c >= '0' && c <= '9'; }

int hex_value(char c) noexcept {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

void append_utf8(std::string& out, std::uint32_t cp) {
  if (cp < 0x80) {
    out += static_cast<char>(cp);
  } else if (cp < 0x800) {
    out += static_cast<char>(0xC0 | (cp >> 6));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else if (cp < 0x10000) {
    out += static_cast<char>(0xE0 | (cp >> 12));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else {
    out += static_cast<char>(0xF0 | (cp >> 18));
    out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  }
}

}  // namespace

std::uint32_t JsonCursor::hex4() {
  std::uint32_t unit = 0;
  for (int k = 0; k < 4; ++k) {
    const int v = pos_ < text_.size() ? hex_value(text_[pos_]) : -1;
    if (v < 0) fail("expected four hex digits after '\\u'");
    unit = unit << 4 | static_cast<std::uint32_t>(v);
    ++pos_;
  }
  return unit;
}

std::uint32_t JsonCursor::code_point() {
  const std::size_t escape = pos_ - 2;  // at the escape's backslash
  const std::uint32_t unit = hex4();
  if (unit >= 0xDC00 && unit <= 0xDFFF) {
    pos_ = escape;
    fail("lone low surrogate");
  }
  if (unit < 0xD800 || unit > 0xDBFF) return unit;
  if (text_.compare(pos_, 2, "\\u") != 0) {
    pos_ = escape;
    fail("high surrogate without a low surrogate");
  }
  pos_ += 2;
  const std::uint32_t low = hex4();
  if (low < 0xDC00 || low > 0xDFFF) {
    pos_ = escape;
    fail("high surrogate without a low surrogate");
  }
  return 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
}

void JsonCursor::skip_ws() noexcept {
  while (pos_ < text_.size() &&
         (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
          text_[pos_] == '\r')) {
    ++pos_;
  }
}

char JsonCursor::peek() {
  skip_ws();
  if (pos_ >= text_.size()) fail("unexpected end of input");
  return text_[pos_];
}

void JsonCursor::expect(char c) {
  if (peek() != c) fail(std::string("expected '") + c + "'");
  ++pos_;
}

bool JsonCursor::accept(char c) {
  skip_ws();
  if (pos_ < text_.size() && text_[pos_] == c) {
    ++pos_;
    return true;
  }
  return false;
}

std::string JsonCursor::string() {
  expect('"');
  std::string out;
  while (true) {
    if (pos_ >= text_.size()) fail("unterminated string");
    const char c = text_[pos_++];
    if (c == '"') return out;
    if (c != '\\') {
      out += c;
      continue;
    }
    if (pos_ >= text_.size()) fail("unterminated escape");
    const char e = text_[pos_++];
    switch (e) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'n': out += '\n'; break;
      case 't': out += '\t'; break;
      case 'r': out += '\r'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'u': append_utf8(out, code_point()); break;
      default: fail(std::string("unsupported escape '\\") + e + "'");
    }
  }
}

std::size_t JsonCursor::number_extent() {
  const std::size_t begin = pos_;
  const auto digits = [&] {
    const std::size_t from = pos_;
    while (pos_ < text_.size() && is_digit(text_[pos_])) ++pos_;
    if (pos_ == from) {
      pos_ = begin;
      fail("expected a number");
    }
  };
  if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
  digits();
  if (pos_ < text_.size() && text_[pos_] == '.') {
    ++pos_;
    digits();
  }
  if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
    ++pos_;
    if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    digits();
  }
  return begin;
}

double JsonCursor::number() {
  skip_ws();
  const std::size_t begin_pos = number_extent();
  const char* begin = text_.c_str() + begin_pos;
  char* end = nullptr;
  const double value = std::strtod(begin, &end);
  if (static_cast<std::size_t>(end - begin) != pos_ - begin_pos) {
    fail("expected a number");
  }
  return value;
}

bool JsonCursor::boolean() {
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
}

void JsonCursor::finish() {
  skip_ws();
  if (pos_ != text_.size()) fail("trailing characters after document");
}

void JsonCursor::fail(const std::string& reason) const {
  std::string message = context_.empty() ? reason : context_ + ": " + reason;
  throw std::runtime_error(message + " at offset " + std::to_string(pos_));
}

}  // namespace nck
