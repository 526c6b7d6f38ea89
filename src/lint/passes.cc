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
// psj-shape: the lint-path replacement for AnalyzePsj's first-error abort.
// Walks every view and reports all shape violations with positions.

class ShapeChecker {
 public:
  ShapeChecker(const LintInput& input, const LintedView& view,
               const std::set<std::string>& view_names, DiagnosticSink* sink)
      : input_(input), view_(view), view_names_(view_names), sink_(sink) {}

  void Run() {
    // The project/select prefix: the outermost projection determines Z;
    // any projection stacked below another is a no-op.
    ExprRef node = view_.def.expr;
    while (true) {
      if (node->kind() == Expr::Kind::kProject) {
        if (have_projection_) {
          sink_->Report(
              "DWC-W006", Loc(node),
              StrCat("in view '", view_.def.name,
                     "', this projection is shadowed by an outer projection "
                     "and has no effect"),
              view_.def.name);
        } else {
          have_projection_ = true;
          projection_ = AttrSet(node->attrs().begin(), node->attrs().end());
          projection_loc_ = Loc(node);
        }
        node = node->child();
      } else if (node->kind() == Expr::Kind::kSelect) {
        selects_.emplace_back(node->predicate(), Loc(node));
        node = node->child();
      } else {
        break;
      }
    }
    CollectJoin(node);

    if (!clean_) {
      return;  // Attribute checks below would be noise on a broken shape.
    }
    AttrSet full;
    for (const std::string& base : bases_) {
      AttrSet names = input_.catalog->FindSchema(base)->attr_names();
      full.insert(names.begin(), names.end());
    }
    if (have_projection_) {
      for (const std::string& attr : projection_) {
        if (full.find(attr) == full.end()) {
          sink_->Report("DWC-E003", projection_loc_,
                        StrCat("view '", view_.def.name,
                               "' projects attribute '", attr,
                               "' which no joined relation provides"),
                        view_.def.name);
        }
      }
      if (projection_ == full) {
        sink_->Report("DWC-W006", projection_loc_,
                      StrCat("in view '", view_.def.name,
                             "', the projection keeps every attribute of the "
                             "join and has no effect"),
                      view_.def.name);
      }
    }
    for (const auto& [pred, loc] : selects_) {
      for (const std::string& attr : pred->Attributes()) {
        if (full.find(attr) == full.end()) {
          sink_->Report("DWC-E003", loc,
                        StrCat("view '", view_.def.name,
                               "' selects on attribute '", attr,
                               "' which no joined relation provides"),
                        view_.def.name);
        }
      }
    }
  }

 private:
  SourceLocation Loc(const ExprRef& expr) const {
    // Prefer the clause anchor (projection list / selection predicate) so
    // findings on multi-line view definitions point at the offending
    // clause, not the leading keyword.
    SourceLocation loc = input_.source_map.ClauseLoc(expr);
    if (!loc.valid()) {
      loc = input_.source_map.ExprLoc(expr);
    }
    return loc.valid() ? loc : view_.loc;
  }

  // Below a non-PSJ operator only name resolution is still meaningful.
  void ReportNamesOnly(const ExprRef& node) {
    if (node == nullptr) {
      return;
    }
    if (node->kind() == Expr::Kind::kBase) {
      CheckBaseName(node, /*track_duplicates=*/false);
      return;
    }
    ReportNamesOnly(node->left());
    ReportNamesOnly(node->right());
  }

  void CheckBaseName(const ExprRef& node, bool track_duplicates) {
    const std::string& name = node->base_name();
    if (view_names_.find(name) != view_names_.end()) {
      sink_->Report("DWC-W007", Loc(node),
                    StrCat("view '", view_.def.name, "' references view '",
                           name,
                           "'; warehouse views must be PSJ expressions over "
                           "base relations"),
                    view_.def.name);
      clean_ = false;
      return;
    }
    if (!input_.catalog->HasRelation(name)) {
      sink_->Report("DWC-E002", Loc(node),
                    StrCat("view '", view_.def.name,
                           "' references undeclared relation '", name, "'"),
                    view_.def.name);
      clean_ = false;
      return;
    }
    if (!track_duplicates) {
      return;
    }
    if (std::find(bases_.begin(), bases_.end(), name) != bases_.end()) {
      sink_->Report(
          "DWC-E005", Loc(node),
          StrCat("view '", view_.def.name, "' joins base relation '", name,
                 "' twice; the paper's construction excludes self-joins"),
          view_.def.name);
      clean_ = false;
      return;
    }
    bases_.push_back(name);
  }

  void CollectJoin(const ExprRef& node) {
    switch (node->kind()) {
      case Expr::Kind::kBase:
        CheckBaseName(node, /*track_duplicates=*/true);
        return;
      case Expr::Kind::kSelect:
        selects_.emplace_back(node->predicate(), Loc(node));
        CollectJoin(node->child());
        return;
      case Expr::Kind::kJoin:
        CollectJoin(node->left());
        CollectJoin(node->right());
        return;
      case Expr::Kind::kProject:
        sink_->Report("DWC-E004", Loc(node),
                      StrCat("view '", view_.def.name,
                             "' nests a projection below a join; PSJ views "
                             "project only at the top"),
                      view_.def.name);
        clean_ = false;
        CollectJoin(node->child());
        return;
      case Expr::Kind::kUnion:
      case Expr::Kind::kDifference:
      case Expr::Kind::kRename:
      case Expr::Kind::kEmpty: {
        const char* op = node->kind() == Expr::Kind::kUnion ? "union"
                         : node->kind() == Expr::Kind::kDifference
                             ? "minus"
                         : node->kind() == Expr::Kind::kRename ? "rename"
                                                               : "empty";
        sink_->Report("DWC-E004", Loc(node),
                      StrCat("view '", view_.def.name, "' uses operator '", op,
                             "' which is outside the PSJ normal form"),
                      view_.def.name);
        clean_ = false;
        ReportNamesOnly(node->left());
        ReportNamesOnly(node->right());
        return;
      }
    }
  }

  const LintInput& input_;
  const LintedView& view_;
  const std::set<std::string>& view_names_;
  DiagnosticSink* sink_;
  bool clean_ = true;
  bool have_projection_ = false;
  AttrSet projection_;
  SourceLocation projection_loc_;
  std::vector<std::string> bases_;
  std::vector<std::pair<PredicateRef, SourceLocation>> selects_;
};

class PsjShapePass : public LintPass {
 public:
  const char* name() const override { return "psj-shape"; }
  const char* description() const override {
    return "PSJ normal form, name resolution, self-joins, projections";
  }
  void Run(const LintInput& input, DiagnosticSink* sink) const override {
    std::set<std::string> view_names;
    for (const LintedView& view : input.views) {
      view_names.insert(view.def.name);
    }
    for (const LintedView& view : input.views) {
      ShapeChecker(input, view, view_names, sink).Run();
    }
  }
};

// ---------------------------------------------------------------------------
// ind-cycles: Theorem 2.2 requires the IND set to be acyclic. Tarjan SCCs
// over the lhs -> rhs edges; any component with a cycle is reported once.

class IndCyclePass : public LintPass {
 public:
  const char* name() const override { return "ind-cycles"; }
  const char* description() const override {
    return "acyclicity of the inclusion-dependency graph (Theorem 2.2)";
  }

  void Run(const LintInput& input, DiagnosticSink* sink) const override {
    // Adjacency over relation names.
    std::map<std::string, std::vector<std::string>> edges;
    std::vector<std::string> nodes;
    for (const LintedInd& ind : input.inds) {
      edges[ind.ind.lhs_relation].push_back(ind.ind.rhs_relation);
      edges.try_emplace(ind.ind.rhs_relation);
    }
    for (const auto& [node, unused] : edges) {
      (void)unused;
      nodes.push_back(node);
    }

    TarjanState state;
    for (const std::string& node : nodes) {
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

 private:
  struct TarjanState {
    std::map<std::string, size_t> index;
    std::map<std::string, size_t> lowlink;
    std::set<std::string> on_stack;
    std::vector<std::string> stack;
    size_t next_index = 0;
    std::vector<std::vector<std::string>> sccs;
  };

  static void StrongConnect(
      const std::string& node,
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
};

// ---------------------------------------------------------------------------
// predicates: per-selection tautology checks and a whole-view
// unsatisfiability check on the combined PSJ predicate.

class PredicatePass : public LintPass {
 public:
  const char* name() const override { return "predicates"; }
  const char* description() const override {
    return "unsatisfiable and tautological selection predicates";
  }

  void Run(const LintInput& input, DiagnosticSink* sink) const override {
    for (const LintedView& view : input.views) {
      SourceLocation first_select_loc;
      CheckSelects(input, view, view.def.expr, sink, &first_select_loc);

      Result<PsjView> psj = AnalyzePsj(view.def, *input.catalog);
      if (psj.ok() && ProvablyUnsatisfiable(psj->predicate)) {
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

 private:
  static void CheckSelects(const LintInput& input, const LintedView& view,
                           const ExprRef& node, DiagnosticSink* sink,
                           SourceLocation* first_select_loc) {
    if (node == nullptr) {
      return;
    }
    if (node->kind() == Expr::Kind::kSelect) {
      SourceLocation loc = input.source_map.ClauseLoc(node);
      if (!loc.valid()) {
        loc = input.source_map.ExprLoc(node);
      }
      if (!loc.valid()) {
        loc = view.loc;
      }
      if (!first_select_loc->valid()) {
        *first_select_loc = loc;
      }
      if (Implies(Predicate::True(), node->predicate())) {
        sink->Report("DWC-W002", loc,
                     StrCat("in view '", view.def.name,
                            "', selection predicate '",
                            node->predicate()->ToString(),
                            "' is always true; the selection is redundant"),
                     view.def.name);
      }
    }
    CheckSelects(input, view, node->left(), sink, first_select_loc);
    CheckSelects(input, view, node->right(), sink, first_select_loc);
  }
};

// ---------------------------------------------------------------------------
// key-coverage: Theorem 2.2 builds covers from key-containing views. A
// base relation none of whose keys appear in any view gets no cover, and
// the complement falls back to storing Ri in full (the paper's worst
// case). Relations referenced by no view at all are the same worst case.

class KeyCoveragePass : public LintPass {
 public:
  const char* name() const override { return "key-coverage"; }
  const char* description() const override {
    return "per-relation key coverage by warehouse views (Theorem 2.2)";
  }

  void Run(const LintInput& input, DiagnosticSink* sink) const override {
    std::vector<PsjView> psjs;
    for (const LintedView& view : input.views) {
      Result<PsjView> psj = AnalyzePsj(view.def, *input.catalog);
      if (psj.ok()) {
        psjs.push_back(std::move(psj).value());
      }
    }
    for (const auto& [name, schema] : input.catalog->relations()) {
      (void)schema;
      SourceLocation loc;
      auto loc_it = input.relation_locs.find(name);
      if (loc_it != input.relation_locs.end()) {
        loc = loc_it->second;
      }
      bool referenced = false;
      for (const LintedView& view : input.views) {
        std::set<std::string> names = view.def.expr->ReferencedNames();
        referenced = referenced || names.find(name) != names.end();
      }
      if (!referenced) {
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
      for (const PsjView& psj : psjs) {
        covered = covered ||
                  (psj.InvolvesBase(name) &&
                   std::includes(psj.attrs.begin(), psj.attrs.end(),
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
};

// ---------------------------------------------------------------------------
// redundant-views: a view whose bases equal another view's, whose visible
// attributes are contained in it, and whose selection implies its
// selection contributes nothing the other view does not already hold.

class RedundantViewPass : public LintPass {
 public:
  const char* name() const override { return "redundant-views"; }
  const char* description() const override {
    return "views subsumed by other views over the same bases";
  }

  void Run(const LintInput& input, DiagnosticSink* sink) const override {
    std::vector<std::optional<PsjView>> psjs(input.views.size());
    for (size_t i = 0; i < input.views.size(); ++i) {
      Result<PsjView> psj = AnalyzePsj(input.views[i].def, *input.catalog);
      if (psj.ok()) {
        psjs[i] = std::move(psj).value();
      }
    }
    for (size_t i = 0; i < input.views.size(); ++i) {
      if (!psjs[i].has_value()) {
        continue;
      }
      for (size_t j = 0; j < input.views.size(); ++j) {
        if (j == i || !psjs[j].has_value()) {
          continue;
        }
        if (!Subsumes(*psjs[j], *psjs[i])) {
          continue;
        }
        // Mutually subsuming (equivalent) views: only the later one is
        // flagged, so exactly one of an identical pair is reported.
        if (Subsumes(*psjs[i], *psjs[j]) && j > i) {
          continue;
        }
        sink->Report("DWC-W005", input.views[i].loc,
                     StrCat("view '", input.views[i].def.name,
                            "' is subsumed by view '",
                            input.views[j].def.name,
                            "' (same bases, contained attributes, implied "
                            "selection)"),
                     input.views[i].def.name);
        break;
      }
    }
  }

 private:
  // True when `big` subsumes `small`.
  static bool Subsumes(const PsjView& big, const PsjView& small) {
    std::set<std::string> big_bases(big.bases.begin(), big.bases.end());
    std::set<std::string> small_bases(small.bases.begin(), small.bases.end());
    return big_bases == small_bases &&
           std::includes(big.attrs.begin(), big.attrs.end(),
                         small.attrs.begin(), small.attrs.end()) &&
           Implies(small.predicate, big.predicate);
  }
};

// ---------------------------------------------------------------------------
// canonical-duplicates: hash-cons every (simplifier-normalized) view
// definition through the same ExprInterner machinery the evaluator's subplan
// cache keys on, then flag views whose canonical class coincides with
// another view's (DWC-N003) or appears as a non-leaf subexpression inside
// another view's definition (DWC-N004). Unlike redundant-views, this is
// purely structural — no predicate implication — so it also covers shapes
// AnalyzePsj rejects, and it catches duplicates that differ only in
// commutative operand order (A JOIN B vs B JOIN A share a cid).

class CanonicalDuplicatePass : public LintPass {
 public:
  const char* name() const override { return "canonical-duplicates"; }
  const char* description() const override {
    return "views whose canonicalized definitions duplicate or appear "
           "inside other views";
  }

  void Run(const LintInput& input, DiagnosticSink* sink) const override {
    if (input.catalog == nullptr) {
      return;
    }
    ExprInterner interner;
    SchemaResolver resolver = ResolverFromCatalog(*input.catalog);
    std::vector<ExprRef> canon(input.views.size());
    for (size_t i = 0; i < input.views.size(); ++i) {
      canon[i] =
          interner.Intern(Simplify(input.views[i].def.expr, &resolver));
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

 private:
  static bool IsLeaf(const Expr& expr) {
    return expr.kind() == Expr::Kind::kBase ||
           expr.kind() == Expr::Kind::kEmpty;
  }

  // Commutative class ids of every proper non-leaf subtree of `expr`.
  static void CollectProperSubexprCids(const ExprInterner& interner,
                                       const Expr& expr,
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
};

}  // namespace

const std::vector<const LintPass*>& AllLintPasses() {
  static const PsjShapePass shape;
  static const IndCyclePass cycles;
  static const PredicatePass predicates;
  static const KeyCoveragePass coverage;
  static const RedundantViewPass redundant;
  static const CanonicalDuplicatePass canonical;
  static const std::vector<const LintPass*> kPasses = {
      &shape,     &cycles,    &predicates,           &coverage,
      &redundant, &canonical, SemanticAnalysisPass()};
  return kPasses;
}

}  // namespace dwc
