#ifndef DWC_TESTS_TESTING_REFERENCE_EVAL_H_
#define DWC_TESTS_TESTING_REFERENCE_EVAL_H_

#include <string>
#include <vector>

#include "algebra/environment.h"
#include "algebra/expr.h"
#include "relational/relation.h"
#include "util/result.h"

namespace dwc {
namespace testing {

// Reference evaluator: bottom-up, with no pushdown, no cache and no index,
// materializing every operand (joins are nested loops). Its column order is
// the evaluator's contract: a join emits the left's columns then the
// right's extra ones, and a union or difference keeps the left's order.
inline Result<Relation> ReferenceEval(const Expr& expr,
                                      const Environment& env) {
  switch (expr.kind()) {
    case Expr::Kind::kBase: {
      const Relation* rel = env.Find(expr.base_name());
      if (rel == nullptr) {
        return Status::NotFound(expr.base_name());
      }
      return *rel;
    }
    case Expr::Kind::kEmpty:
      return Relation(expr.empty_schema());
    case Expr::Kind::kSelect: {
      DWC_ASSIGN_OR_RETURN(Relation child, ReferenceEval(*expr.child(), env));
      Relation out(child.schema());
      for (const Tuple& tuple : child.tuples()) {
        DWC_ASSIGN_OR_RETURN(bool keep,
                             expr.predicate()->Eval(child.schema(), tuple));
        if (keep) {
          out.Insert(tuple);
        }
      }
      return out;
    }
    case Expr::Kind::kProject: {
      DWC_ASSIGN_OR_RETURN(Relation child, ReferenceEval(*expr.child(), env));
      DWC_ASSIGN_OR_RETURN(std::vector<size_t> indices,
                           child.schema().IndicesOf(expr.attrs()));
      std::vector<Attribute> attrs;
      for (size_t idx : indices) {
        attrs.push_back(child.schema().attribute(idx));
      }
      DWC_ASSIGN_OR_RETURN(Schema schema, Schema::Create(std::move(attrs)));
      Relation out(std::move(schema));
      for (const Tuple& tuple : child.tuples()) {
        out.Insert(tuple.Project(indices));
      }
      return out;
    }
    case Expr::Kind::kRename: {
      DWC_ASSIGN_OR_RETURN(Relation child, ReferenceEval(*expr.child(), env));
      std::vector<Attribute> attrs;
      for (const Attribute& attr : child.schema().attributes()) {
        auto it = expr.renames().find(attr.name);
        attrs.push_back(Attribute{
            it == expr.renames().end() ? attr.name : it->second, attr.type});
      }
      DWC_ASSIGN_OR_RETURN(Schema schema, Schema::Create(std::move(attrs)));
      Relation out(std::move(schema));
      for (const Tuple& tuple : child.tuples()) {
        out.Insert(tuple);
      }
      return out;
    }
    case Expr::Kind::kJoin: {
      DWC_ASSIGN_OR_RETURN(Relation left, ReferenceEval(*expr.left(), env));
      DWC_ASSIGN_OR_RETURN(Relation right, ReferenceEval(*expr.right(), env));
      // Nested loop join: the dumbest correct implementation.
      const Schema& ls = left.schema();
      const Schema& rs = right.schema();
      std::vector<std::string> common = ls.CommonWith(rs);
      DWC_ASSIGN_OR_RETURN(std::vector<size_t> lidx, ls.IndicesOf(common));
      DWC_ASSIGN_OR_RETURN(std::vector<size_t> ridx, rs.IndicesOf(common));
      std::vector<Attribute> attrs = ls.attributes();
      std::vector<size_t> right_extra;
      for (size_t i = 0; i < rs.size(); ++i) {
        if (!ls.Contains(rs.attribute(i).name)) {
          attrs.push_back(rs.attribute(i));
          right_extra.push_back(i);
        }
      }
      DWC_ASSIGN_OR_RETURN(Schema schema, Schema::Create(std::move(attrs)));
      Relation out(std::move(schema));
      for (const Tuple& lt : left.tuples()) {
        for (const Tuple& rt : right.tuples()) {
          if (lt.Project(lidx) != rt.Project(ridx)) {
            continue;
          }
          std::vector<Value> values = lt.values();
          for (size_t idx : right_extra) {
            values.push_back(rt.at(idx));
          }
          out.Insert(Tuple(std::move(values)));
        }
      }
      return out;
    }
    case Expr::Kind::kUnion: {
      DWC_ASSIGN_OR_RETURN(Relation left, ReferenceEval(*expr.left(), env));
      DWC_ASSIGN_OR_RETURN(Relation right, ReferenceEval(*expr.right(), env));
      DWC_ASSIGN_OR_RETURN(Relation aligned, right.AlignTo(left.schema()));
      for (const Tuple& tuple : aligned.tuples()) {
        left.Insert(tuple);
      }
      return left;
    }
    case Expr::Kind::kDifference: {
      DWC_ASSIGN_OR_RETURN(Relation left, ReferenceEval(*expr.left(), env));
      DWC_ASSIGN_OR_RETURN(Relation right, ReferenceEval(*expr.right(), env));
      DWC_ASSIGN_OR_RETURN(Relation aligned, right.AlignTo(left.schema()));
      for (const Tuple& tuple : aligned.tuples()) {
        left.Erase(tuple);
      }
      return left;
    }
  }
  return Status::Internal("unknown kind");
}

}  // namespace testing
}  // namespace dwc

#endif  // DWC_TESTS_TESTING_REFERENCE_EVAL_H_
