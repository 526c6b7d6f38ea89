#include "relational/value.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <functional>

#include "util/hash.h"

namespace dwc {

const char* ValueTypeName(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt:
      return "INT";
    case ValueType::kDouble:
      return "DOUBLE";
    case ValueType::kString:
      return "STRING";
  }
  return "UNKNOWN";
}

bool Value::operator==(const Value& other) const {
  // Mixed int/double compare numerically so that generated data with widened
  // domains still joins correctly.
  ValueType a = type();
  ValueType b = other.type();
  if (a == b) {
    return data_ == other.data_;
  }
  if ((a == ValueType::kInt || a == ValueType::kDouble) &&
      (b == ValueType::kInt || b == ValueType::kDouble)) {
    return AsNumber() == other.AsNumber();
  }
  return false;
}

int Value::Compare(const Value& other) const {
  ValueType a = type();
  ValueType b = other.type();
  if (a == ValueType::kInt && b == ValueType::kInt) {
    const int64_t x = AsInt();
    const int64_t y = other.AsInt();
    return (x > y) - (x < y);
  }
  bool a_num = a == ValueType::kInt || a == ValueType::kDouble;
  bool b_num = b == ValueType::kInt || b == ValueType::kDouble;
  if (a_num && b_num) {
    const double x = AsNumber();
    const double y = other.AsNumber();
    return (x > y) - (x < y);
  }
  if (a != b) {
    return static_cast<int>(a) < static_cast<int>(b) ? -1 : 1;
  }
  if (a == ValueType::kString) {
    return AsString().compare(other.AsString());
  }
  return 0;  // NULL equals NULL.
}

size_t Value::Hash() const {
  switch (type()) {
    case ValueType::kNull:
      return 0xDA7A;
    case ValueType::kInt:
      // Hash ints by their numeric (double-compatible) value so that equal
      // mixed-type values hash equally.
      return std::hash<double>{}(static_cast<double>(AsInt()));
    case ValueType::kDouble:
      return std::hash<double>{}(AsDouble());
    case ValueType::kString:
      return HashCombine(0x5712, std::hash<std::string>{}(AsString()));
  }
  return 0;
}

std::string Value::ToString() const {
  std::string out;
  AppendTo(&out);
  return out;
}

void Value::AppendTo(std::string* out) const {
  switch (type()) {
    case ValueType::kNull:
      *out += "NULL";
      return;
    case ValueType::kInt: {
      char buf[24];
      auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), AsInt());
      (void)ec;  // 24 bytes hold any int64_t.
      out->append(buf, end);
      return;
    }
    case ValueType::kDouble: {
      // Shortest round-trip form; one that reads as an integer gets ".0".
      char buf[32];
      auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), AsDouble());
      (void)ec;  // 32 bytes hold any double's shortest form.
      out->append(buf, end);
      if (std::isfinite(AsDouble()) &&
          std::find_if(buf, end, [](char c) { return c == '.' || c == 'e'; }) ==
              end) {
        *out += ".0";
      }
      return;
    }
    case ValueType::kString: {
      const std::string& text = AsString();
      *out += '\'';
      size_t from = 0;
      for (size_t quote = text.find('\''); quote != std::string::npos;
           quote = text.find('\'', quote + 1)) {
        out->append(text, from, quote + 1 - from);
        *out += '\'';
        from = quote + 1;
      }
      out->append(text, from, std::string::npos);
      *out += '\'';
      return;
    }
  }
  *out += '?';
}

std::ostream& operator<<(std::ostream& os, const Value& value) {
  return os << value.ToString();
}

}  // namespace dwc
