// Join operators: broadcast hash join and broadcast nested-loop join.
#include <unordered_map>

#include "common/string_util.h"
#include "exec/physical_plan.h"
#include "exec/subquery_expr.h"
#include "expr/evaluator.h"

namespace sparkline {

namespace {

Row ConcatRows(const Row& left, const Row& right) {
  Row out;
  out.reserve(left.size() + right.size());
  out.insert(out.end(), left.begin(), left.end());
  out.insert(out.end(), right.begin(), right.end());
  return out;
}

Row NullRow(const std::vector<Attribute>& attrs) {
  Row out;
  out.reserve(attrs.size());
  for (const auto& a : attrs) out.push_back(Value::Null(a.type));
  return out;
}

}  // namespace

// --- HashJoinExec -------------------------------------------------------------

HashJoinExec::HashJoinExec(JoinType type, std::vector<ExprPtr> left_keys,
                           std::vector<ExprPtr> right_keys, ExprPtr residual,
                           std::vector<Attribute> output, PhysicalPlanPtr left,
                           PhysicalPlanPtr right)
    : PhysicalPlan(std::move(output), {std::move(left), std::move(right)}),
      type_(type),
      left_keys_(std::move(left_keys)),
      right_keys_(std::move(right_keys)),
      residual_(std::move(residual)) {}

std::string HashJoinExec::label() const {
  return StrCat("BroadcastHashJoin [", JoinTypeName(type_), "]");
}

Result<PartitionedRelation> HashJoinExec::Execute(ExecContext* ctx) const {
  SL_ASSIGN_OR_RETURN(PartitionedRelation left, children_[0]->Execute(ctx));
  SL_ASSIGN_OR_RETURN(PartitionedRelation right, children_[1]->Execute(ctx));
  SL_RETURN_NOT_OK(DecodeInput(ctx, &left));
  SL_RETURN_NOT_OK(DecodeInput(ctx, &right));
  const std::vector<Row> build = std::move(right).Flatten();
  // RAII so the hash-table bytes are returned on error paths too (the old
  // Grow/Shrink pair leaked the reservation when a probe task failed).
  ScopedReservation hash_table_bytes(ctx->memory(),
                                     static_cast<int64_t>(build.size()) * 64);

  // Build side: key -> row indices. SQL equi-join semantics: null keys never
  // match, so they are not inserted.
  std::unordered_map<Row, std::vector<size_t>, RowHash, RowEq> table;
  table.reserve(build.size());
  {
    Status build_status = Status::OK();
    SL_RETURN_NOT_OK(RunStage(ctx, 1, [&](size_t) -> Status {
      for (size_t i = 0; i < build.size(); ++i) {
        Row key;
        key.reserve(right_keys_.size());
        bool has_null = false;
        for (const auto& k : right_keys_) {
          SL_ASSIGN_OR_RETURN(Value v, EvalExpr(*k, build[i]));
          has_null |= v.is_null();
          key.push_back(std::move(v));
        }
        if (!has_null) table[std::move(key)].push_back(i);
      }
      return Status::OK();
    }));
    SL_RETURN_NOT_OK(build_status);
  }

  const size_t right_width =
      children_[1]->output().size();
  std::vector<Attribute> right_attrs(output_.end() - right_width,
                                     output_.end());

  PartitionedRelation out;
  out.attrs = output_;
  out.partitions.assign(left.partitions.size(), {});
  SL_RETURN_NOT_OK(RunStage(ctx, left.partitions.size(), [&](size_t p)
                                -> Status {
    auto& part = out.partitions[p];
    for (const Row& lrow : left.partitions[p]) {
      Row key;
      key.reserve(left_keys_.size());
      bool has_null = false;
      for (const auto& k : left_keys_) {
        SL_ASSIGN_OR_RETURN(Value v, EvalExpr(*k, lrow));
        has_null |= v.is_null();
        key.push_back(std::move(v));
      }
      bool matched = false;
      if (!has_null) {
        auto it = table.find(key);
        if (it != table.end()) {
          for (size_t i : it->second) {
            Row combined = ConcatRows(lrow, build[i]);
            if (residual_ != nullptr) {
              SL_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*residual_, combined));
              if (!pass) continue;
            }
            matched = true;
            part.push_back(std::move(combined));
          }
        }
      }
      if (!matched && type_ == JoinType::kLeftOuter) {
        part.push_back(ConcatRows(lrow, NullRow(right_attrs)));
      }
    }
    return Status::OK();
  }));
  SL_RETURN_NOT_OK(ChargeOutput(ctx, &out));
  return out;
}

// --- NestedLoopJoinExec ----------------------------------------------------------

NestedLoopJoinExec::NestedLoopJoinExec(JoinType type, ExprPtr condition,
                                       std::vector<Attribute> output,
                                       PhysicalPlanPtr left,
                                       PhysicalPlanPtr right)
    : PhysicalPlan(std::move(output), {std::move(left), std::move(right)}),
      type_(type),
      condition_(std::move(condition)) {}

std::string NestedLoopJoinExec::label() const {
  return StrCat("BroadcastNestedLoopJoin [", JoinTypeName(type_), "]");
}

Result<PartitionedRelation> NestedLoopJoinExec::Execute(ExecContext* ctx) const {
  SL_ASSIGN_OR_RETURN(PartitionedRelation left, children_[0]->Execute(ctx));
  SL_ASSIGN_OR_RETURN(PartitionedRelation right, children_[1]->Execute(ctx));
  SL_RETURN_NOT_OK(DecodeInput(ctx, &left));
  SL_RETURN_NOT_OK(DecodeInput(ctx, &right));
  const std::vector<Row> broadcast = std::move(right).Flatten();

  ExprPtr condition = condition_;
  if (condition != nullptr) {
    SL_ASSIGN_OR_RETURN(condition, EvaluateSubqueries(condition, ctx));
  }

  const size_t left_width = children_[0]->output().size();

  PartitionedRelation out;
  out.attrs = output_;
  out.partitions.assign(left.partitions.size(), {});
  SL_RETURN_NOT_OK(RunStage(ctx, left.partitions.size(), [&](size_t p)
                                -> Status {
    auto& part = out.partitions[p];
    // Reusable combined-row buffer: left values stay, right values are
    // overwritten per probe (keeps the O(n*m) loop allocation-free).
    Row combined(left_width + (broadcast.empty() ? 0 : broadcast[0].size()));
    size_t since_check = 0;
    for (const Row& lrow : left.partitions[p]) {
      for (size_t c = 0; c < left_width; ++c) combined[c] = lrow[c];
      bool any_match = false;
      for (const Row& rrow : broadcast) {
        if (++since_check >= 8192) {
          since_check = 0;
          SL_RETURN_NOT_OK(ctx->CheckInterrupt());
        }
        bool pass = true;
        if (condition != nullptr) {
          if (combined.size() != left_width + rrow.size()) {
            combined.resize(left_width + rrow.size());
          }
          for (size_t c = 0; c < rrow.size(); ++c) {
            combined[left_width + c] = rrow[c];
          }
          SL_ASSIGN_OR_RETURN(pass, EvalPredicate(*condition, combined));
        }
        if (!pass) continue;
        any_match = true;
        if (type_ == JoinType::kInner || type_ == JoinType::kCross ||
            type_ == JoinType::kLeftOuter) {
          part.push_back(ConcatRows(lrow, rrow));
        } else {
          break;  // semi/anti: the first match decides
        }
      }
      if (type_ == JoinType::kLeftSemi && any_match) part.push_back(lrow);
      if (type_ == JoinType::kLeftAnti && !any_match) part.push_back(lrow);
      if (type_ == JoinType::kLeftOuter && !any_match) {
        std::vector<Attribute> right_attrs(output_.begin() + left_width,
                                           output_.end());
        part.push_back(ConcatRows(lrow, NullRow(right_attrs)));
      }
    }
    return Status::OK();
  }));
  SL_RETURN_NOT_OK(ChargeOutput(ctx, &out));
  return out;
}

}  // namespace sparkline
