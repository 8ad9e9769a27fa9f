#include "datagen/csv.h"

#include <fstream>

#include "common/string_util.h"

namespace sparkline {
namespace datagen {

namespace {

std::string EscapeField(const Value& v) {
  if (v.is_null()) return "";
  std::string s = v.ToString();
  if (v.type() == DataType::String()) {
    bool needs_quotes = s.find_first_of(",\"\n") != std::string::npos ||
                        s.empty();
    if (needs_quotes) {
      std::string quoted = "\"";
      for (char c : s) {
        if (c == '"') quoted += '"';
        quoted += c;
      }
      quoted += '"';
      return quoted;
    }
  }
  return s;
}

/// Splits one CSV line honouring quotes.
std::vector<std::string> SplitCsvLine(const std::string& line,
                                      std::vector<bool>* quoted) {
  std::vector<std::string> fields;
  quoted->clear();
  std::string current;
  bool in_quotes = false;
  bool was_quoted = false;
  for (size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current += c;
      }
    } else if (c == '"') {
      in_quotes = true;
      was_quoted = true;
    } else if (c == ',') {
      fields.push_back(std::move(current));
      quoted->push_back(was_quoted);
      current.clear();
      was_quoted = false;
    } else {
      current += c;
    }
  }
  fields.push_back(std::move(current));
  quoted->push_back(was_quoted);
  return fields;
}

}  // namespace

Status WriteCsv(const Table& table, const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::Invalid(StrCat("cannot open ", path, " for writing"));
  }
  std::vector<std::string> names;
  for (const auto& f : table.schema().fields()) names.push_back(f.name);
  out << JoinStrings(names, ",") << "\n";
  for (const RowRef row : table.rows()) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out << ",";
      out << EscapeField(row[i]);
    }
    out << "\n";
  }
  if (!out.good()) return Status::Invalid(StrCat("write to ", path, " failed"));
  return Status::OK();
}

Result<TablePtr> ReadCsv(const std::string& path, const Schema& schema,
                         const std::string& table_name) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::NotFound(StrCat("cannot open ", path));
  }
  std::string line;
  if (!std::getline(in, line)) {
    return Status::Invalid(StrCat(path, " is empty (missing header)"));
  }
  std::vector<bool> quoted;
  const auto header = SplitCsvLine(line, &quoted);
  if (header.size() != schema.num_fields()) {
    return Status::Invalid(
        StrCat(path, ": header has ", header.size(), " fields, schema has ",
               schema.num_fields()));
  }
  for (size_t i = 0; i < header.size(); ++i) {
    if (!EqualsIgnoreCase(header[i], schema.field(i).name)) {
      return Status::Invalid(StrCat(path, ": header field '", header[i],
                                    "' does not match schema field '",
                                    schema.field(i).name, "'"));
    }
  }

  auto table = std::make_shared<Table>(table_name, schema);
  size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const auto fields = SplitCsvLine(line, &quoted);
    if (fields.size() != schema.num_fields()) {
      return Status::Invalid(StrCat(path, " line ", line_no, ": expected ",
                                    schema.num_fields(), " fields, got ",
                                    fields.size()));
    }
    Row row;
    row.reserve(fields.size());
    for (size_t i = 0; i < fields.size(); ++i) {
      const Field& f = schema.field(i);
      if (fields[i].empty() && !quoted[i]) {
        row.push_back(Value::Null(f.type));
        continue;
      }
      SL_ASSIGN_OR_RETURN(Value v,
                          Value::String(fields[i]).CastTo(f.type));
      row.push_back(std::move(v));
    }
    SL_RETURN_NOT_OK(table->AppendRow(std::move(row)));
  }
  return table;
}

}  // namespace datagen
}  // namespace sparkline
