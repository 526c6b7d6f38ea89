#include "lint/passes.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "algebra/implication.h"
#include "algebra/interner.h"
#include "algebra/schema_inference.h"
#include "algebra/simplifier.h"
#include "core/psj.h"
#include "util/string_util.h"

namespace dwc {

namespace {

// ---------------------------------------------------------------------------
// shape: formats the PSJ walk's findings (core/psj.h) with positions. The
// walk also feeds the complement construction, so the linter and the
// construction agree on what a PSJ view is.

void ReportViolation(const LintInput& input, const LintedView& view,
                     const PsjViolation& violation,
                     const std::set<std::string>& view_names,
                     DiagnosticSink* sink) {
  const std::string& name = view.def.name;
  SourceLocation loc = ClauseAnchor(input, view, violation.node);
  switch (violation.kind) {
    case PsjViolation::Kind::kUnknownBase: {
      const std::string& base = violation.node->base_name();
      if (view_names.find(base) != view_names.end()) {
        sink->Report("DWC-W007", loc,
                     StrCat("view '", name, "' references view '", base,
                            "'; warehouse views must be PSJ expressions over "
                            "base relations"),
                     name);
      } else {
        sink->Report("DWC-E002", loc,
                     StrCat("view '", name,
                            "' references undeclared relation '", base, "'"),
                     name);
      }
      return;
    }
    case PsjViolation::Kind::kRepeatedBase:
      sink->Report("DWC-E005", loc,
                   StrCat("view '", name, "' joins base relation '",
                          violation.node->base_name(),
                          "' twice; the paper's construction excludes "
                          "self-joins"),
                   name);
      return;
    case PsjViolation::Kind::kProjectionBelowJoin:
      sink->Report("DWC-E004", loc,
                   StrCat("view '", name,
                          "' nests a projection below a join; PSJ views "
                          "project only at the top"),
                   name);
      return;
    case PsjViolation::Kind::kNonPsjOperator: {
      Expr::Kind kind = violation.node->kind();
      const char* op = kind == Expr::Kind::kUnion        ? "union"
                       : kind == Expr::Kind::kDifference ? "minus"
                       : kind == Expr::Kind::kRename     ? "rename"
                                                         : "empty";
      sink->Report("DWC-E004", loc,
                   StrCat("view '", name, "' uses operator '", op,
                          "' which is outside the PSJ normal form"),
                   name);
      return;
    }
    case PsjViolation::Kind::kUnknownProjectedAttribute:
      sink->Report("DWC-E003", loc,
                   StrCat("view '", name, "' projects attribute '",
                          violation.attr,
                          "' which no joined relation provides"),
                   name);
      return;
    case PsjViolation::Kind::kUnknownSelectedAttribute:
      sink->Report("DWC-E003", loc,
                   StrCat("view '", name, "' selects on attribute '",
                          violation.attr,
                          "' which no joined relation provides"),
                   name);
      return;
  }
}

void ShapePass(const LintInput& input, const LintAnalysis& analysis,
               DiagnosticSink* sink) {
  std::set<std::string> view_names;
  for (const LintedView& view : input.views) {
    view_names.insert(view.def.name);
  }
  for (size_t i = 0; i < input.views.size(); ++i) {
    const LintedView& view = input.views[i];
    const PsjWalk& walk = analysis.walks[i];
    const std::string& name = view.def.name;
    for (const ExprRef& shadowed : walk.shadowed_projections) {
      sink->Report("DWC-W006", ClauseAnchor(input, view, shadowed),
                   StrCat("in view '", name,
                          "', this projection is shadowed by an outer "
                          "projection and has no effect"),
                   name);
    }
    if (walk.projection_keeps_join) {
      // A projection that keeps every attribute names no unknown one, so
      // only the selections' findings follow it.
      sink->Report("DWC-W006", ClauseAnchor(input, view, walk.projection),
                   StrCat("in view '", name,
                          "', the projection keeps every attribute of the "
                          "join and has no effect"),
                   name);
    }
    for (const PsjViolation& violation : walk.violations) {
      ReportViolation(input, view, violation, view_names, sink);
    }
  }
}

// ---------------------------------------------------------------------------
// ind-cycles: Theorem 2.2 requires the IND set to be acyclic. Tarjan SCCs
// over the lhs -> rhs edges; any component with a cycle is reported once.

struct TarjanState {
  std::map<std::string, size_t> index;
  std::map<std::string, size_t> lowlink;
  std::set<std::string> on_stack;
  std::vector<std::string> stack;
  size_t next_index = 0;
  std::vector<std::vector<std::string>> sccs;
};

void StrongConnect(const std::string& node,
                   const std::map<std::string, std::vector<std::string>>& edges,
                   TarjanState* state) {
  state->index[node] = state->next_index;
  state->lowlink[node] = state->next_index;
  ++state->next_index;
  state->stack.push_back(node);
  state->on_stack.insert(node);

  auto it = edges.find(node);
  if (it != edges.end()) {
    for (const std::string& succ : it->second) {
      if (state->index.find(succ) == state->index.end()) {
        StrongConnect(succ, edges, state);
        state->lowlink[node] =
            std::min(state->lowlink[node], state->lowlink[succ]);
      } else if (state->on_stack.find(succ) != state->on_stack.end()) {
        state->lowlink[node] =
            std::min(state->lowlink[node], state->index[succ]);
      }
    }
  }

  if (state->lowlink[node] == state->index[node]) {
    std::vector<std::string> scc;
    while (true) {
      std::string top = state->stack.back();
      state->stack.pop_back();
      state->on_stack.erase(top);
      scc.push_back(top);
      if (top == node) {
        break;
      }
    }
    state->sccs.push_back(std::move(scc));
  }
}

void IndCyclePass(const LintInput& input, DiagnosticSink* sink) {
  // Adjacency over relation names.
  std::map<std::string, std::vector<std::string>> edges;
  for (const LintedInd& ind : input.inds) {
    edges[ind.ind.lhs_relation].push_back(ind.ind.rhs_relation);
    edges.try_emplace(ind.ind.rhs_relation);
  }

  TarjanState state;
  for (const auto& [node, unused] : edges) {
    (void)unused;
    if (state.index.find(node) == state.index.end()) {
      StrongConnect(node, edges, &state);
    }
  }

  for (const std::vector<std::string>& scc : state.sccs) {
    bool cyclic = scc.size() > 1;
    if (scc.size() == 1) {
      // A single node is cyclic only with a self-loop edge.
      for (const std::string& succ : edges[scc[0]]) {
        cyclic = cyclic || succ == scc[0];
      }
    }
    if (!cyclic) {
      continue;
    }
    std::set<std::string> members(scc.begin(), scc.end());
    // Anchor the report at the first declared IND inside the cycle.
    SourceLocation loc;
    for (const LintedInd& ind : input.inds) {
      if (members.find(ind.ind.lhs_relation) != members.end() &&
          members.find(ind.ind.rhs_relation) != members.end()) {
        loc = ind.loc;
        break;
      }
    }
    sink->Report("DWC-E006", loc,
                 StrCat("inclusion dependencies form a cycle among ",
                        Join(members, ", "),
                        "; Theorem 2.2 requires an acyclic IND set"));
  }
}

// ---------------------------------------------------------------------------
// predicates: per-selection tautology checks (on every selection, PSJ or
// not) and a whole-view unsatisfiability check on the combined PSJ
// predicate.

void PredicatePass(const LintInput& input, const LintAnalysis& analysis,
                   DiagnosticSink* sink) {
  for (size_t i = 0; i < input.views.size(); ++i) {
    const LintedView& view = input.views[i];
    const PsjWalk& walk = analysis.walks[i];
    SourceLocation first_select_loc;
    for (const ExprRef& select : walk.selections) {
      SourceLocation loc = ClauseAnchor(input, view, select);
      if (!first_select_loc.valid()) {
        first_select_loc = loc;
      }
      if (Implies(Predicate::True(), select->predicate())) {
        sink->Report("DWC-W002", loc,
                     StrCat("in view '", view.def.name,
                            "', selection predicate '",
                            select->predicate()->ToString(),
                            "' is always true; the selection is redundant"),
                     view.def.name);
      }
    }
    if (walk.psj.has_value() && ProvablyUnsatisfiable(walk.psj->predicate)) {
      SourceLocation loc =
          first_select_loc.valid() ? first_select_loc : view.loc;
      sink->Report("DWC-W001", loc,
                   StrCat("the combined selection of view '", view.def.name,
                          "' is unsatisfiable; the view is provably empty "
                          "and its complement stores the full base "
                          "relations"),
                   view.def.name);
    }
  }
}

// ---------------------------------------------------------------------------
// key-coverage: Theorem 2.2 builds covers from key-containing views. A
// base relation none of whose keys appear in any view gets no cover, and
// the complement falls back to storing Ri in full (the paper's worst
// case). Relations referenced by no view at all are the same worst case.
// The cover candidates are exactly the PSJ decompositions: a union view
// that exposes a key covers nothing.

void KeyCoveragePass(const LintInput& input, const LintAnalysis& analysis,
                     DiagnosticSink* sink) {
  std::set<std::string> referenced;
  for (const LintedView& view : input.views) {
    std::set<std::string> names = view.def.expr->ReferencedNames();
    referenced.insert(names.begin(), names.end());
  }
  for (const auto& [name, schema] : input.catalog->relations()) {
    (void)schema;
    SourceLocation loc;
    auto loc_it = input.relation_locs.find(name);
    if (loc_it != input.relation_locs.end()) {
      loc = loc_it->second;
    }
    if (referenced.find(name) == referenced.end()) {
      sink->Report("DWC-N002", loc,
                   StrCat("relation '", name,
                          "' is not referenced by any view; the warehouse "
                          "complement must materialize it in full"),
                   name);
      continue;
    }
    std::optional<KeyConstraint> key = input.catalog->FindKey(name);
    if (!key.has_value()) {
      sink->Report("DWC-W004", loc,
                   StrCat("relation '", name,
                          "' declares no key; cover-based complement "
                          "reduction (Theorem 2.2) is unavailable for it"),
                   name);
      continue;
    }
    bool covered = false;
    for (const PsjWalk& walk : analysis.walks) {
      covered = covered ||
                (walk.psj.has_value() && walk.psj->InvolvesBase(name) &&
                 std::includes(walk.psj->attrs.begin(), walk.psj->attrs.end(),
                               key->attrs.begin(), key->attrs.end()));
    }
    if (!covered) {
      sink->Report(
          "DWC-W003", loc,
          StrCat("no view exposes the key {", Join(key->attrs, ", "),
                 "} of relation '", name,
                 "'; cover enumeration finds no cover and the complement "
                 "stores all of '", name, "'"),
          name);
    }
  }
}

// ---------------------------------------------------------------------------
// redundant-views: a view whose bases equal another view's, whose visible
// attributes are contained in it, and whose selection implies its
// selection contributes nothing the other view does not already hold.

// True when `big` subsumes `small`.
bool Subsumes(const PsjView& big, const PsjView& small) {
  std::set<std::string> big_bases(big.bases.begin(), big.bases.end());
  std::set<std::string> small_bases(small.bases.begin(), small.bases.end());
  return big_bases == small_bases &&
         std::includes(big.attrs.begin(), big.attrs.end(),
                       small.attrs.begin(), small.attrs.end()) &&
         Implies(small.predicate, big.predicate);
}

void RedundantViewPass(const LintInput& input, const LintAnalysis& analysis,
                       DiagnosticSink* sink) {
  const std::vector<PsjWalk>& walks = analysis.walks;
  for (size_t i = 0; i < walks.size(); ++i) {
    if (!walks[i].psj.has_value()) {
      continue;
    }
    for (size_t j = 0; j < walks.size(); ++j) {
      if (j == i || !walks[j].psj.has_value() ||
          !Subsumes(*walks[j].psj, *walks[i].psj)) {
        continue;
      }
      // Mutually subsuming (equivalent) views: only the later one is
      // flagged, so exactly one of an identical pair is reported.
      if (Subsumes(*walks[i].psj, *walks[j].psj) && j > i) {
        continue;
      }
      sink->Report("DWC-W005", input.views[i].loc,
                   StrCat("view '", input.views[i].def.name,
                          "' is subsumed by view '", input.views[j].def.name,
                          "' (same bases, contained attributes, implied "
                          "selection)"),
                   input.views[i].def.name);
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// canonical-duplicates: hash-cons every (simplifier-normalized) view
// definition through the same ExprInterner machinery the evaluator's subplan
// cache keys on, then flag views whose canonical class coincides with
// another view's (DWC-N003) or appears as a non-leaf subexpression inside
// another view's definition (DWC-N004). Unlike redundant-views, this is
// purely structural — no predicate implication — so it also covers shapes
// that are not PSJ, and it catches duplicates that differ only in
// commutative operand order (A JOIN B vs B JOIN A share a cid).

bool IsLeaf(const Expr& expr) {
  return expr.kind() == Expr::Kind::kBase || expr.kind() == Expr::Kind::kEmpty;
}

// Commutative class ids of every proper non-leaf subtree of `expr`.
void CollectProperSubexprCids(const ExprInterner& interner, const Expr& expr,
                              std::set<uint64_t>* out) {
  for (const ExprRef* child : {&expr.left(), &expr.right()}) {
    if (*child == nullptr) {
      continue;
    }
    if (!IsLeaf(**child)) {
      out->insert(interner.CidOf(child->get()));
    }
    CollectProperSubexprCids(interner, **child, out);
  }
}

void CanonicalDuplicatePass(const LintInput& input, DiagnosticSink* sink) {
  ExprInterner interner;
  SchemaResolver resolver = ResolverFromCatalog(*input.catalog);
  std::vector<ExprRef> canon(input.views.size());
  for (size_t i = 0; i < input.views.size(); ++i) {
    canon[i] = interner.Intern(Simplify(input.views[i].def.expr, &resolver));
  }

  // DWC-N003: same commutative class ⇒ the same relation on every
  // database. Flag the later declaration of each pair, mirroring
  // redundant-views.
  std::vector<bool> is_duplicate(input.views.size(), false);
  std::map<uint64_t, size_t> first_with_cid;
  for (size_t i = 0; i < input.views.size(); ++i) {
    uint64_t cid = interner.CidOf(canon[i].get());
    auto [it, inserted] = first_with_cid.emplace(cid, i);
    if (inserted) {
      continue;
    }
    is_duplicate[i] = true;
    sink->Report("DWC-N003", input.views[i].loc,
                 StrCat("view '", input.views[i].def.name,
                        "' has the same canonicalized definition as view "
                        "'", input.views[it->second].def.name,
                        "'; the warehouse materializes it twice"),
                 input.views[i].def.name);
  }

  // DWC-N004: a view whose whole definition is a proper, non-leaf
  // subexpression of another view's. Leaves (bare base relations) are
  // skipped — an identity view would otherwise match every view over
  // that base. Exact duplicates already reported above are skipped too.
  std::vector<std::set<uint64_t>> subexprs(input.views.size());
  for (size_t j = 0; j < input.views.size(); ++j) {
    CollectProperSubexprCids(interner, *canon[j], &subexprs[j]);
  }
  for (size_t i = 0; i < input.views.size(); ++i) {
    if (is_duplicate[i] || IsLeaf(*canon[i])) {
      continue;
    }
    uint64_t cid = interner.CidOf(canon[i].get());
    for (size_t j = 0; j < input.views.size(); ++j) {
      if (j == i || subexprs[j].count(cid) == 0) {
        continue;
      }
      sink->Report(
          "DWC-N004", input.views[i].loc,
          StrCat("view '", input.views[i].def.name,
                 "'s canonicalized definition appears inside view '",
                 input.views[j].def.name,
                 "'; the subplan cache will recycle it, but the spec "
                 "repeats the structure"),
          input.views[i].def.name);
      break;
    }
  }
}

}  // namespace

LintAnalysis AnalyzeLintInput(const LintInput& input) {
  LintAnalysis analysis;
  AnalysisInput semantic;
  semantic.catalog = input.catalog;
  for (const LintedView& view : input.views) {
    analysis.walks.push_back(WalkPsj(view.def, *input.catalog));
    semantic.views.push_back(view.def);
  }
  for (const LintedQuery& query : input.queries) {
    semantic.queries.push_back(query.expr);
  }
  analysis.semantic = AnalyzeWarehouse(semantic);
  return analysis;
}

void RunLintPasses(const LintInput& input, const LintAnalysis& analysis,
                   DiagnosticSink* sink) {
  ShapePass(input, analysis, sink);
  IndCyclePass(input, sink);
  PredicatePass(input, analysis, sink);
  KeyCoveragePass(input, analysis, sink);
  RedundantViewPass(input, analysis, sink);
  CanonicalDuplicatePass(input, sink);
  ReportSemanticFindings(input, analysis, sink);
}

}  // namespace dwc
