#include "parser/script_io.h"

#include <algorithm>

#include "util/checksum.h"
#include "util/string_util.h"

namespace dwc {

namespace {

std::string SchemaAttrsToScript(const Schema& schema) {
  std::vector<std::string> parts;
  for (const Attribute& attr : schema.attributes()) {
    parts.push_back(StrCat(attr.name, " ", ValueTypeName(attr.type)));
  }
  return Join(parts, ", ");
}

// Appends `rel`'s rows as "(v1, v2), (v3, v4)" in deterministic (sorted)
// order: the one row writer behind checkpoints and WAL records. It sorts
// pointers, not tuple copies, and appends each value in place.
void AppendRows(const Relation& rel, std::string* out) {
  std::vector<const Tuple*> rows;
  rows.reserve(rel.size());
  for (const Tuple& tuple : rel.tuples()) {
    rows.push_back(&tuple);
  }
  std::sort(rows.begin(), rows.end(),
            [](const Tuple* a, const Tuple* b) { return *a < *b; });
  for (size_t r = 0; r < rows.size(); ++r) {
    *out += r == 0 ? "(" : ", (";
    const std::vector<Value>& values = rows[r]->values();
    for (size_t i = 0; i < values.size(); ++i) {
      if (i != 0) {
        *out += ", ";
      }
      values[i].AppendTo(out);
    }
    *out += ')';
  }
}

}  // namespace

std::string ExprToScript(const Expr& expr) {
  switch (expr.kind()) {
    case Expr::Kind::kBase:
      return expr.base_name();
    case Expr::Kind::kEmpty:
      return StrCat("empty[", SchemaAttrsToScript(expr.empty_schema()), "]");
    case Expr::Kind::kSelect:
      return StrCat("select[", expr.predicate()->ToString(), "](",
                    ExprToScript(*expr.child()), ")");
    case Expr::Kind::kProject:
      return StrCat("project[", Join(expr.attrs(), ", "), "](",
                    ExprToScript(*expr.child()), ")");
    case Expr::Kind::kRename: {
      std::vector<std::string> parts;
      for (const auto& [from, to] : expr.renames()) {
        parts.push_back(StrCat(from, " -> ", to));
      }
      return StrCat("rename[", Join(parts, ", "), "](",
                    ExprToScript(*expr.child()), ")");
    }
    case Expr::Kind::kJoin:
      return StrCat("(", ExprToScript(*expr.left()), " join ",
                    ExprToScript(*expr.right()), ")");
    case Expr::Kind::kUnion:
      return StrCat("(", ExprToScript(*expr.left()), " union ",
                    ExprToScript(*expr.right()), ")");
    case Expr::Kind::kDifference:
      return StrCat("(", ExprToScript(*expr.left()), " minus ",
                    ExprToScript(*expr.right()), ")");
  }
  return "?";
}

std::string CatalogToScript(const Catalog& catalog) {
  std::string out;
  for (const auto& [name, schema] : catalog.relations()) {
    out += StrCat("CREATE TABLE ", name, "(", SchemaAttrsToScript(schema));
    std::optional<KeyConstraint> key = catalog.FindKey(name);
    if (key.has_value()) {
      out += StrCat(", KEY(", Join(key->attrs, ", "), ")");
    }
    out += ");\n";
  }
  for (const InclusionDependency& ind : catalog.inclusions()) {
    out += StrCat("INCLUSION ", ind.lhs_relation, "(",
                  Join(ind.lhs_attrs, ", "), ") SUBSETOF ", ind.rhs_relation,
                  "(", Join(ind.rhs_attrs, ", "), ");\n");
  }
  return out;
}

std::string DatabaseToScript(const Database& db) {
  std::string out;
  for (const auto& [name, rel] : db.relations()) {
    if (rel->empty()) {
      continue;
    }
    out += "INSERT INTO ";
    out += name;
    out += " VALUES ";
    AppendRows(*rel, &out);
    out += ";\n";
  }
  return out;
}

std::string ViewToScript(const ViewDef& view) {
  return StrCat("VIEW ", view.name, " AS ", ExprToScript(*view.expr), ";\n");
}

std::string SummaryToScript(const AggregateViewDef& def) {
  std::vector<std::string> items(def.group_by.begin(), def.group_by.end());
  for (const AggSpec& spec : def.aggregates) {
    switch (spec.func) {
      case AggFunc::kCount:
        items.push_back(StrCat("COUNT() AS ", spec.out_name));
        break;
      case AggFunc::kSum:
        items.push_back(StrCat("SUM(", spec.attr, ") AS ", spec.out_name));
        break;
      case AggFunc::kMin:
        items.push_back(StrCat("MIN(", spec.attr, ") AS ", spec.out_name));
        break;
      case AggFunc::kMax:
        items.push_back(StrCat("MAX(", spec.attr, ") AS ", spec.out_name));
        break;
    }
  }
  return StrCat("SUMMARY ", def.name, " AS SELECT ", Join(items, ", "),
                " FROM ", ExprToScript(*def.source), " GROUP BY ",
                Join(def.group_by, ", "), ";\n");
}

std::string DeltaToScript(const CanonicalDelta& delta) {
  std::string out =
      StrCat("DELTA ", delta.relation, " SOURCE '", delta.source_id,
             "' EPOCH ", delta.epoch, " SEQ ", delta.sequence, " STATE '",
             DigestToHex(delta.state_digest), "'");
  if (!delta.inserts.empty()) {
    out += " INSERT ";
    AppendRows(delta.inserts, &out);
  }
  if (!delta.deletes.empty()) {
    out += " DELETE ";
    AppendRows(delta.deletes, &out);
  }
  return out + ";\n";
}

}  // namespace dwc
