// The JSON codec for every file mpcc writes and reads back: the golden
// bank, sweep checkpoints and --json reports, BENCH_core.json and the
// Chrome-trace export.
//
// Writing: escape()/quote() for strings, number() for values, and the two
// object writers for the flat maps the harness passes around (ParamMap and
// ResultRow). Doubles render with %.17g, the shortest printf form that
// round-trips an IEEE double exactly, so a value read back is bit-identical
// to the one written.
//
// Reading: a Cursor over the whole text. It walks objects field by field
// and arrays item by item, and skip() steps over any value a reader does
// not know, so a newer writer's extra fields never break an older reader.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>

namespace mpcc::json {

/// `s` with JSON string escapes applied, without surrounding quotes.
std::string escape(std::string_view s);

/// `s` escaped and quoted.
std::string quote(std::string_view s);

/// `v` with %.17g. Non-finite values print as printf does ("nan", "inf"),
/// which is not JSON; mpcc's writers never produce them in practice.
std::string number(double v);
/// Integers print exactly.
std::string number(std::uint64_t v);

/// {"key": "value", ...} in key order.
void write_object(std::ostream& os, const std::map<std::string, std::string>& obj);
/// {"key": number, ...} in key order.
void write_object(std::ostream& os, const std::map<std::string, double>& obj);

/// Reads JSON text left to right. Every error throws std::invalid_argument
/// naming `where` and the byte offset.
class Cursor {
 public:
  /// `text` must outlive the cursor.
  Cursor(const std::string& text, std::string where);

  std::string string();
  double number();
  bool boolean();
  /// Steps over one value of any type.
  void skip();

  /// Walks an object: calls fn(key) once per field with the cursor at the
  /// field's value, which fn must consume (skip() if it is unknown).
  template <typename Fn>
  void fields(Fn&& fn) {
    expect('{');
    if (consume('}')) return;
    do {
      const std::string key = string();
      expect(':');
      fn(key);
    } while (consume(','));
    expect('}');
  }

  /// Walks an array: calls fn() once per item with the cursor at the item.
  template <typename Fn>
  void items(Fn&& fn) {
    expect('[');
    if (consume(']')) return;
    do {
      fn();
    } while (consume(','));
    expect(']');
  }

  /// The inverses of the two object writers.
  std::map<std::string, std::string> string_object();
  std::map<std::string, double> number_object();

 private:
  /// Next non-space character without consuming it; '\0' at the end.
  char peek();
  void expect(char c);
  /// Consumes `c` if it is next.
  bool consume(char c);
  bool match(std::string_view word);
  [[noreturn]] void fail(const std::string& why) const;

  const std::string& text_;
  std::string where_;
  std::size_t pos_ = 0;
};

}  // namespace mpcc::json
