// Hash aggregation with Spark-style partial/final phases.
//
// Partial aggregation runs per partition (narrow); a gather exchange brings
// the partial states to one executor where the final phase merges them.
// DISTINCT aggregates cannot ship their state as plain columns and force the
// single-phase (kComplete) mode after a gather.
#include <set>
#include <unordered_map>

#include "common/string_util.h"
#include "exec/physical_plan.h"
#include "expr/evaluator.h"

namespace sparkline {

namespace {

/// Per-group per-aggregate accumulator.
struct AccState {
  int64_t count = 0;       // rows (count*) or non-null inputs (count/avg)
  bool has_value = false;  // any non-null input seen
  double sum_d = 0;
  int64_t sum_i = 0;
  Value extreme;                   // min/max
  std::set<std::string> distinct;  // only for DISTINCT aggregates
};

std::string DistinctKey(const Value& v) {
  return StrCat(static_cast<int>(v.type().id()), ":", v.ToString());
}

void UpdateState(const AggSpec& spec, const Value& v, AccState* state) {
  if (spec.fn == AggFn::kCountStar) {
    ++state->count;
    return;
  }
  if (v.is_null()) return;
  if (spec.distinct && !state->distinct.insert(DistinctKey(v)).second) {
    return;
  }
  switch (spec.fn) {
    case AggFn::kCount:
      ++state->count;
      break;
    case AggFn::kSum:
    case AggFn::kAvg:
      state->has_value = true;
      ++state->count;
      if (v.type() == DataType::Int64()) {
        state->sum_i += v.int64_value();
      }
      state->sum_d += v.ToDouble();
      break;
    case AggFn::kMin:
    case AggFn::kMax: {
      if (!state->has_value) {
        state->extreme = v;
        state->has_value = true;
        break;
      }
      const int cmp = CompareValues(v, state->extreme);
      if ((spec.fn == AggFn::kMin && cmp < 0) ||
          (spec.fn == AggFn::kMax && cmp > 0)) {
        state->extreme = v;
      }
      break;
    }
    default:
      break;
  }
}

/// Number of state columns a spec ships between partial and final.
size_t StateWidth(const AggSpec& spec) {
  return spec.fn == AggFn::kAvg ? 2 : 1;
}

/// Emits the partial state columns.
void EmitPartial(const AggSpec& spec, const AccState& state, Row* out) {
  switch (spec.fn) {
    case AggFn::kCountStar:
    case AggFn::kCount:
      out->push_back(Value::Int64(state.count));
      break;
    case AggFn::kSum:
      if (!state.has_value) {
        out->push_back(Value::Null(spec.result_type));
      } else if (spec.result_type == DataType::Int64()) {
        out->push_back(Value::Int64(state.sum_i));
      } else {
        out->push_back(Value::Double(state.sum_d));
      }
      break;
    case AggFn::kMin:
    case AggFn::kMax:
      out->push_back(state.has_value ? state.extreme
                                     : Value::Null(spec.result_type));
      break;
    case AggFn::kAvg:
      out->push_back(state.has_value ? Value::Double(state.sum_d)
                                     : Value::Null(DataType::Double()));
      out->push_back(Value::Int64(state.count));
      break;
  }
}

/// Merges one partial state (columns at `offset`) into the accumulator.
void MergePartial(const AggSpec& spec, const Row& row, size_t offset,
                  AccState* state) {
  switch (spec.fn) {
    case AggFn::kCountStar:
    case AggFn::kCount:
      state->count += row[offset].int64_value();
      break;
    case AggFn::kSum: {
      const Value& v = row[offset];
      if (v.is_null()) break;
      state->has_value = true;
      if (v.type() == DataType::Int64()) state->sum_i += v.int64_value();
      state->sum_d += v.ToDouble();
      break;
    }
    case AggFn::kMin:
    case AggFn::kMax: {
      const Value& v = row[offset];
      if (v.is_null()) break;
      if (!state->has_value) {
        state->extreme = v;
        state->has_value = true;
        break;
      }
      const int cmp = CompareValues(v, state->extreme);
      if ((spec.fn == AggFn::kMin && cmp < 0) ||
          (spec.fn == AggFn::kMax && cmp > 0)) {
        state->extreme = v;
      }
      break;
    }
    case AggFn::kAvg: {
      const Value& sum = row[offset];
      if (!sum.is_null()) {
        state->has_value = true;
        state->sum_d += sum.double_value();
      }
      state->count += row[offset + 1].int64_value();
      break;
    }
  }
}

/// Emits the final aggregate value.
void EmitFinal(const AggSpec& spec, const AccState& state, Row* out) {
  switch (spec.fn) {
    case AggFn::kCountStar:
    case AggFn::kCount:
      out->push_back(Value::Int64(state.count));
      break;
    case AggFn::kSum:
      if (!state.has_value) {
        out->push_back(Value::Null(spec.result_type));
      } else if (spec.result_type == DataType::Int64()) {
        out->push_back(Value::Int64(state.sum_i));
      } else {
        out->push_back(Value::Double(state.sum_d));
      }
      break;
    case AggFn::kMin:
    case AggFn::kMax:
      out->push_back(state.has_value ? state.extreme
                                     : Value::Null(spec.result_type));
      break;
    case AggFn::kAvg:
      if (state.count == 0) {
        out->push_back(Value::Null(DataType::Double()));
      } else {
        out->push_back(
            Value::Double(state.sum_d / static_cast<double>(state.count)));
      }
      break;
  }
}

using GroupMap = std::unordered_map<Row, std::vector<AccState>, RowHash, RowEq>;

}  // namespace

HashAggregateExec::HashAggregateExec(std::vector<ExprPtr> bound_groups,
                                     std::vector<AggSpec> aggs, AggMode mode,
                                     std::vector<Attribute> output,
                                     PhysicalPlanPtr child)
    : PhysicalPlan(std::move(output), {std::move(child)}),
      groups_(std::move(bound_groups)),
      aggs_(std::move(aggs)),
      mode_(mode) {}

std::string HashAggregateExec::label() const {
  const char* mode = mode_ == AggMode::kPartial
                         ? "partial"
                         : (mode_ == AggMode::kFinal ? "final" : "complete");
  return StrCat("HashAggregate [", mode, ", ", groups_.size(), " keys, ",
                aggs_.size(), " aggs]");
}

Result<PartitionedRelation> HashAggregateExec::Execute(ExecContext* ctx) const {
  SL_ASSIGN_OR_RETURN(PartitionedRelation in, children_[0]->Execute(ctx));
  SL_RETURN_NOT_OK(DecodeInput(ctx, &in));

  const bool merge_mode = mode_ == AggMode::kFinal;
  const size_t num_partitions = in.partitions.size();
  std::vector<GroupMap> maps(num_partitions);

  SL_RETURN_NOT_OK(RunStage(ctx, num_partitions, [&](size_t p) -> Status {
    GroupMap& map = maps[p];
    for (const Row& row : in.partitions[p]) {
      Row key;
      key.reserve(groups_.size());
      for (const auto& g : groups_) {
        SL_ASSIGN_OR_RETURN(Value v, EvalExpr(*g, row));
        key.push_back(std::move(v));
      }
      auto [it, inserted] = map.try_emplace(std::move(key));
      if (inserted) it->second.resize(aggs_.size());
      if (merge_mode) {
        size_t offset = groups_.size();
        for (size_t a = 0; a < aggs_.size(); ++a) {
          MergePartial(aggs_[a], row, offset, &it->second[a]);
          offset += StateWidth(aggs_[a]);
        }
      } else {
        for (size_t a = 0; a < aggs_.size(); ++a) {
          Value v;
          if (aggs_[a].bound_arg != nullptr) {
            SL_ASSIGN_OR_RETURN(v, EvalExpr(*aggs_[a].bound_arg, row));
          }
          UpdateState(aggs_[a], v, &it->second[a]);
        }
      }
    }
    // Global aggregation produces one row even on empty input.
    if (groups_.empty() && map.empty() &&
        (mode_ != AggMode::kPartial || num_partitions == 1) && p == 0) {
      map.try_emplace(Row{}).first->second.resize(aggs_.size());
    }
    return Status::OK();
  }));

  PartitionedRelation out;
  out.attrs = output_;
  out.partitions.assign(num_partitions, {});
  for (size_t p = 0; p < num_partitions; ++p) {
    auto& part = out.partitions[p];
    part.reserve(maps[p].size());
    for (auto& [key, states] : maps[p]) {
      Row row = key;
      for (size_t a = 0; a < aggs_.size(); ++a) {
        if (mode_ == AggMode::kPartial) {
          EmitPartial(aggs_[a], states[a], &row);
        } else {
          EmitFinal(aggs_[a], states[a], &row);
        }
      }
      part.push_back(std::move(row));
    }
  }
  if (mode_ != AggMode::kPartial && num_partitions > 1) {
    // Final/complete phases run on gathered input; defensively flatten.
    std::vector<Row> all = std::move(out).Flatten();
    out.attrs = output_;
    out.partitions.clear();
    out.partitions.push_back(std::move(all));
  }
  SL_RETURN_NOT_OK(ChargeOutput(ctx, &out));
  return out;
}

}  // namespace sparkline
