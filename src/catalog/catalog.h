#ifndef MSQL_CATALOG_CATALOG_H_
#define MSQL_CATALOG_CATALOG_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <shared_mutex>
#include <string>
#include <vector>

#include "catalog/table.h"
#include "common/status.h"
#include "parser/ast.h"

namespace msql {

// A catalog object is either a base table or a view (stored as its defining
// SELECT's AST; views are expanded at bind time, so views naturally carry
// measures).
//
// Published entries are immutable: every catalog mutation (CREATE OR
// REPLACE, GRANT, DROP) builds a fresh entry and swaps the registry slot, so
// a reader holding a snapshot never observes a torn entry. Table *data* is
// the one shared mutable component; Table synchronizes internally and hands
// out snapshots of its append-only rows.
struct CatalogEntry {
  enum class Kind { kTable, kView };
  Kind kind;
  std::string name;
  std::shared_ptr<Table> table;                // kTable
  std::shared_ptr<const SelectStmt> view_ast;  // kView
  std::string owner;                // creator; empty = no access control
  std::set<std::string> grantees;   // users allowed to reference the object
};

// Name -> object map with a minimal grant-based security model, enough to
// demonstrate the paper's section 5.5 claim: a user can be granted a view
// with measures without access to the underlying tables; the view executes
// with definer's rights.
//
// Thread safety: all methods may be called concurrently. Lookups take a
// shared lock and return shared_ptr snapshots that stay valid after a
// concurrent DROP (the object dies when the last query using it finishes).
// The generation counter increments on every registry mutation and is also
// bumped by the engine on table-data mutations (INSERT/COPY), giving
// running queries a cheap staleness test for cross-query caches.
class Catalog {
 public:
  using EntryPtr = std::shared_ptr<const CatalogEntry>;

  Catalog() = default;
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  Status CreateTable(const std::string& name, Schema schema,
                     bool if_not_exists, const std::string& owner);
  Status CreateView(const std::string& name, SelectStmtPtr ast,
                    bool or_replace, const std::string& owner);
  Status Drop(const std::string& name, bool is_view, bool if_exists);

  // Looks the object up (case-insensitive). nullptr if missing.
  EntryPtr Find(const std::string& name) const;

  // Access check: succeeds when `user` is empty (access control off), the
  // object has no owner, the user is the owner, or the user was granted.
  Status CheckAccess(const CatalogEntry& entry, const std::string& user) const;

  // Grants `user` access to `object` (copy-on-write republish).
  Status Grant(const std::string& object, const std::string& user);

  std::vector<std::string> ListNames() const;

  // Data/DDL version. Bumped on every registry mutation; the engine bumps
  // it additionally after DML so (generation, ...) cache keys can never
  // alias across data versions.
  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }
  void BumpGeneration() {
    generation_.fetch_add(1, std::memory_order_acq_rel);
  }

 private:
  static std::string Key(const std::string& name);

  mutable std::shared_mutex mu_;
  std::atomic<uint64_t> generation_{0};
  std::map<std::string, EntryPtr> entries_;
};

}  // namespace msql

#endif  // MSQL_CATALOG_CATALOG_H_
