#include "util/json_cursor.hpp"

#include <cstdlib>
#include <stdexcept>

namespace nck {
namespace {

bool is_digit(char c) noexcept { return c >= '0' && c <= '9'; }

}  // namespace

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
