#ifndef DWC_RELATIONAL_DATABASE_H_
#define DWC_RELATIONAL_DATABASE_H_

#include <map>
#include <memory>
#include <string>
#include <utility>

#include "relational/catalog.h"
#include "relational/relation.h"
#include "util/result.h"
#include "util/status.h"

namespace dwc {

// A database state d = <r1, ..., rn> over a Catalog: one Relation per
// declared base schema. Also used for arbitrary named relation stores (e.g.
// warehouse states), in which case the catalog can be empty.
//
// Relations are held through shared_ptr slots so a snapshot layer (see
// warehouse/epoch.h) can keep an old relation version alive after the
// database replaces or drops the slot. The Database itself still has value
// semantics: copying a Database copies every relation (fresh uids) and never
// aliases a relation object with the original. The copies share tuples with
// the originals in O(1) until either side mutates (relation.h).
class Database {
 public:
  Database() : catalog_(std::make_shared<Catalog>()) {}
  explicit Database(std::shared_ptr<const Catalog> catalog);

  Database(const Database& other) { CopyFrom(other); }
  Database& operator=(const Database& other) {
    if (this != &other) {
      CopyFrom(other);
    }
    return *this;
  }
  Database(Database&&) noexcept = default;
  Database& operator=(Database&&) noexcept = default;

  const Catalog& catalog() const { return *catalog_; }
  std::shared_ptr<const Catalog> catalog_ptr() const { return catalog_; }

  // Adds an empty (or given) relation under `name`. For catalog-declared
  // relations the schema must match the declaration.
  Status AddRelation(const std::string& name, Relation relation);
  Status AddEmptyRelation(const std::string& name, Schema schema);

  bool HasRelation(const std::string& name) const {
    return relations_.find(name) != relations_.end();
  }
  // nullptr when absent.
  const Relation* FindRelation(const std::string& name) const;
  Relation* FindMutableRelation(const std::string& name);

  // The shared slot under `name` (nullptr when absent). Callers that hold
  // the returned pointer see a frozen relation only for as long as nobody
  // mutates the slot in place — the warehouse's epoch protocol guarantees
  // that by cloning before mutating whenever a snapshot is pinned.
  std::shared_ptr<const Relation> ShareRelation(const std::string& name) const;

  // Swaps the slot under `name` to `relation` (copy-on-write commit
  // primitive). The previous slot object is untouched, so snapshots holding
  // it continue to see the old version. Fails with NotFound for unknown
  // names: this replaces content, it never creates relations.
  Status ReplaceRelation(const std::string& name,
                         std::shared_ptr<Relation> relation);

  const std::map<std::string, std::shared_ptr<Relation>>& relations() const {
    return relations_;
  }

  // Verifies every declared key and inclusion dependency against the current
  // state; returns the first violation found.
  Status ValidateConstraints() const;

  // Sum of all relation versions: changes whenever any relation's content
  // changes in place. Cheap coarse staleness probe for whole-state caches
  // (per-subplan invalidation uses the individual (uid, version) pairs).
  uint64_t ContentVersion() const {
    uint64_t total = 0;
    for (const auto& [name, relation] : relations_) {
      (void)name;
      total += relation->version();
    }
    return total;
  }

  // Structural equality of states: same relation names, same contents.
  bool SameStateAs(const Database& other) const;

  std::string ToString() const;

 private:
  void CopyFrom(const Database& other);

  std::shared_ptr<const Catalog> catalog_;
  std::map<std::string, std::shared_ptr<Relation>> relations_;
};

}  // namespace dwc

#endif  // DWC_RELATIONAL_DATABASE_H_
