#ifndef DWC_RELATIONAL_VALUE_H_
#define DWC_RELATIONAL_VALUE_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <variant>

namespace dwc {

// Attribute domains supported by the engine. kNull is the type of the SQL-ish
// NULL literal; relations never require it but the value space supports it so
// that partial tuples can be represented by tooling.
enum class ValueType {
  kNull = 0,
  kInt,
  kDouble,
  kString,
};

const char* ValueTypeName(ValueType type);

// An immutable typed constant: the content of one tuple field.
//
// Values order first by type, then by content; this gives relations a stable
// total order for deterministic printing regardless of domain mixtures.
class Value {
 public:
  Value() : data_(std::monostate{}) {}
  explicit Value(int64_t v) : data_(v) {}
  explicit Value(double v) : data_(v) {}
  explicit Value(std::string v) : data_(std::move(v)) {}
  explicit Value(const char* v) : data_(std::string(v)) {}

  static Value Null() { return Value(); }
  static Value Int(int64_t v) { return Value(v); }
  static Value Double(double v) { return Value(v); }
  static Value String(std::string v) { return Value(std::move(v)); }

  ValueType type() const {
    switch (data_.index()) {
      case 0:
        return ValueType::kNull;
      case 1:
        return ValueType::kInt;
      case 2:
        return ValueType::kDouble;
      default:
        return ValueType::kString;
    }
  }

  bool is_null() const { return type() == ValueType::kNull; }

  // Accessors require the matching type.
  int64_t AsInt() const { return std::get<int64_t>(data_); }
  double AsDouble() const { return std::get<double>(data_); }
  const std::string& AsString() const { return std::get<std::string>(data_); }

  // Numeric view: ints widen to double. Requires a numeric type.
  double AsNumber() const {
    return type() == ValueType::kInt ? static_cast<double>(AsInt())
                                     : AsDouble();
  }

  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }
  bool operator<(const Value& other) const { return Compare(other) < 0; }
  bool operator<=(const Value& other) const { return !(other < *this); }
  bool operator>(const Value& other) const { return other < *this; }
  bool operator>=(const Value& other) const { return !(*this < other); }

  // Three-way comparison in the order above: negative, zero or positive
  // as this value sorts before, with or after `other`. Two INTs compare
  // exactly; other numeric pairs compare as doubles.
  int Compare(const Value& other) const;

  size_t Hash() const;

  // Round-trippable rendering: strings quoted, NULL spelled "NULL", and a
  // double as the shortest text that reads back as the same double, always
  // with a '.' or an exponent so that it reads back as a DOUBLE ("3.0",
  // "0.1", "1e-05"). Infinities and NaN print as "inf"/"nan", which the DSL
  // cannot read.
  std::string ToString() const;
  // Appends ToString()'s text to `out` without building a string.
  void AppendTo(std::string* out) const;

 private:
  std::variant<std::monostate, int64_t, double, std::string> data_;
};

std::ostream& operator<<(std::ostream& os, const Value& value);

}  // namespace dwc

#endif  // DWC_RELATIONAL_VALUE_H_
