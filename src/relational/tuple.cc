#include "relational/tuple.h"

#include "util/string_util.h"

namespace dwc {

bool Tuple::operator<(const Tuple& other) const {
  size_t n = std::min(values_.size(), other.values_.size());
  for (size_t i = 0; i < n; ++i) {
    if (int order = values_[i].Compare(other.values_[i]); order != 0) {
      return order < 0;
    }
  }
  return values_.size() < other.values_.size();
}

std::string Tuple::ToString() const {
  return StrCat("<", Join(values_, ", "), ">");
}

}  // namespace dwc
