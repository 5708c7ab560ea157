#include "runtime/plan_cache.h"

#include "common/string_util.h"

namespace msql {

namespace {

size_t CountPlanNodes(const LogicalPlan& plan) {
  size_t n = 1;
  for (const auto& child : plan.children) {
    if (child != nullptr) n += CountPlanNodes(*child);
  }
  return n;
}

}  // namespace

std::string PlanCacheKey(const std::string& user, const std::string& sql,
                         const std::vector<TypeKind>& param_types,
                         bool rewritten, uint64_t generation) {
  // '\x1f' (unit separator) cannot appear in identifiers or SQL text the
  // lexer accepts, so the concatenation is injective.
  std::string key = StrCat(user, "\x1f", sql, "\x1f", generation, "\x1f",
                           rewritten ? "r" : "l");
  for (TypeKind t : param_types) {
    key.push_back(static_cast<char>('0' + static_cast<int>(t)));
  }
  return key;
}

uint64_t ApproxPlanBytes(const PreparedPlan& plan) {
  uint64_t bytes = sizeof(PreparedPlan) + plan.sql.size() +
                   plan.canonical.size() + plan.user.size() +
                   plan.fingerprint.size();
  if (plan.plan != nullptr) {
    // Bound plans are expression-tree heavy; 1 KiB per operator is a
    // deliberately generous stand-in so the byte budget errs toward
    // evicting, never toward unbounded growth.
    bytes += 1024ull * CountPlanNodes(*plan.plan);
  }
  return bytes;
}

}  // namespace msql
