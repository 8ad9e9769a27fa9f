// Deep-copies a resolved plan while minting fresh attribute ids.
//
// Needed wherever one logical subtree must appear twice in a plan with
// unambiguous references: the skyline "reference" rewriting (paper
// Listing 4) turns SKYLINE OF into a self anti-join.
#pragma once

#include <map>

#include "common/result.h"
#include "plan/logical_plan.h"

namespace sparkline {

/// \brief Clones `plan`, giving every attribute-producing node (Scan,
/// LocalRelation, Alias) fresh expression ids and remapping all references.
/// `id_map` receives old-id -> new-id; use it to translate expressions that
/// referenced the original subtree.
Result<LogicalPlanPtr> CloneWithFreshIds(const LogicalPlanPtr& plan,
                                         std::map<ExprId, ExprId>* id_map);

/// \brief Rewrites attribute references in `e` according to `id_map`
/// (references to unmapped ids are left untouched).
ExprPtr RemapAttributeIds(const ExprPtr& e,
                          const std::map<ExprId, ExprId>& id_map);

}  // namespace sparkline
