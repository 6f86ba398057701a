#include "util/json.h"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <utility>

namespace mpcc::json {

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string quote(std::string_view s) { return '"' + escape(s) + '"'; }

std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string number(std::uint64_t v) { return std::to_string(v); }

namespace {
template <typename Map, typename Render>
void write_map(std::ostream& os, const Map& obj, Render render) {
  os << '{';
  bool first = true;
  for (const auto& [key, value] : obj) {
    os << (first ? "" : ", ") << quote(key) << ": " << render(value);
    first = false;
  }
  os << '}';
}
}  // namespace

void write_object(std::ostream& os, const std::map<std::string, std::string>& obj) {
  write_map(os, obj, [](const std::string& v) { return quote(v); });
}

void write_object(std::ostream& os, const std::map<std::string, double>& obj) {
  write_map(os, obj, [](double v) { return number(v); });
}

// ------------------------------------------------------------------ Cursor

Cursor::Cursor(const std::string& text, std::string where)
    : text_(text), where_(std::move(where)) {}

char Cursor::peek() {
  while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                 text_[pos_] == '\n' || text_[pos_] == '\r')) {
    ++pos_;
  }
  return pos_ < text_.size() ? text_[pos_] : '\0';
}

void Cursor::expect(char c) {
  if (!consume(c)) fail(std::string("expected '") + c + "'");
}

bool Cursor::consume(char c) {
  if (peek() != c) return false;
  ++pos_;
  return true;
}

std::string Cursor::string() {
  expect('"');
  std::string out;
  while (pos_ < text_.size() && text_[pos_] != '"') {
    char c = text_[pos_++];
    if (c == '\\' && pos_ < text_.size()) {
      switch (const char esc = text_[pos_++]) {
        case 'n': c = '\n'; break;
        case 'r': c = '\r'; break;
        case 't': c = '\t'; break;
        case 'u': {
          // escape() writes \u only for control characters.
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          const unsigned long cp =
              std::strtoul(text_.substr(pos_, 4).c_str(), nullptr, 16);
          if (cp >= 0x80) fail("\\u escape beyond ASCII");
          pos_ += 4;
          c = static_cast<char>(cp);
          break;
        }
        default: c = esc;  // \" \\ \/
      }
    }
    out += c;
  }
  if (pos_ >= text_.size()) fail("unterminated string");
  ++pos_;  // closing quote
  return out;
}

double Cursor::number() {
  peek();
  const char* start = text_.c_str() + pos_;
  char* end = nullptr;
  const double v = std::strtod(start, &end);
  if (end == start) fail("expected number");
  pos_ += static_cast<std::size_t>(end - start);
  return v;
}

bool Cursor::boolean() {
  if (match("true")) return true;
  if (match("false")) return false;
  fail("expected true/false");
}

void Cursor::skip() {
  switch (peek()) {
    case '"': string(); break;
    case '{': fields([this](const std::string&) { skip(); }); break;
    case '[': items([this] { skip(); }); break;
    case 't':
    case 'f': boolean(); break;
    case 'n':
      if (!match("null")) fail("expected null");
      break;
    default: number();
  }
}

std::map<std::string, std::string> Cursor::string_object() {
  std::map<std::string, std::string> out;
  fields([&](const std::string& key) { out[key] = string(); });
  return out;
}

std::map<std::string, double> Cursor::number_object() {
  std::map<std::string, double> out;
  fields([&](const std::string& key) { out[key] = number(); });
  return out;
}

void Cursor::fail(const std::string& why) const {
  throw std::invalid_argument(where_ + ": " + why + " at offset " +
                              std::to_string(pos_));
}

bool Cursor::match(std::string_view word) {
  peek();
  if (text_.compare(pos_, word.size(), word) != 0) return false;
  pos_ += word.size();
  return true;
}

}  // namespace mpcc::json
