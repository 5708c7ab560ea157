#include "catalog/csv.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <vector>

#include "common/date.h"
#include "common/fault_injection.h"
#include "common/string_util.h"

namespace msql {

namespace {

// One parsed CSV record plus the 1-based source line it starts on, so
// errors downstream (arity, cast) can cite the offending line.
struct CsvRecord {
  size_t line = 0;
  std::vector<std::string> fields;
};

// Parses the full CSV text into records of fields (RFC-4180-ish).
// Malformed input — an unterminated quoted field or an embedded NUL —
// fails with kIo and the source line of the defect.
Result<std::vector<CsvRecord>> ParseCsvText(const std::string& text) {
  std::vector<CsvRecord> records;
  std::vector<std::string> record;
  std::string field;
  bool in_quotes = false;
  bool field_started = false;
  size_t line = 1;          // current 1-based source line
  size_t record_line = 1;   // line the current record started on
  size_t quote_line = 0;    // line the open quote was seen on
  size_t i = 0;
  auto end_field = [&]() {
    record.push_back(field);
    field.clear();
    field_started = false;
  };
  auto end_record = [&]() {
    end_field();
    // Skip blank lines.
    if (!(record.size() == 1 && record[0].empty())) {
      records.push_back(CsvRecord{record_line, record});
    }
    record.clear();
  };
  while (i < text.size()) {
    char c = text[i];
    if (c == '\0') {
      return Status(ErrorCode::kIo,
                    StrCat("CSV line ", line,
                           ": embedded NUL byte (binary data?)"));
    }
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        if (c == '\n') ++line;
        field += c;
      }
    } else if (c == '"' && !field_started) {
      in_quotes = true;
      field_started = true;
      quote_line = line;
    } else if (c == ',') {
      end_field();
    } else if (c == '\r') {
      // swallow
    } else if (c == '\n') {
      end_record();
      ++line;
      record_line = line;
    } else {
      field += c;
      field_started = true;
    }
    ++i;
  }
  if (in_quotes) {
    return Status(ErrorCode::kIo,
                  StrCat("CSV line ", quote_line,
                         ": unterminated quoted field"));
  }
  if (field_started || !record.empty() || !field.empty()) {
    if (!field.empty() || !record.empty()) end_record();
  }
  return records;
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status(ErrorCode::kIo, "cannot open file '" + path + "'");
  }
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return text;
}

bool LooksLikeInt(const std::string& s) {
  char* end = nullptr;
  std::strtoll(s.c_str(), &end, 10);
  return end != nullptr && *end == '\0' && !s.empty();
}

bool LooksLikeDouble(const std::string& s) {
  char* end = nullptr;
  std::strtod(s.c_str(), &end);
  return end != nullptr && *end == '\0' && !s.empty();
}

bool LooksLikeDate(const std::string& s) { return ParseDate(s).ok(); }

}  // namespace

Status AppendCsv(const std::string& path, bool header, Table* table) {
  MSQL_FAULT_POINT("csv.append");
  MSQL_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  MSQL_ASSIGN_OR_RETURN(auto records, ParseCsvText(text));
  size_t start = header ? 1 : 0;
  std::vector<Row> rows;
  rows.reserve(records.size() - std::min(start, records.size()));
  for (size_t r = start; r < records.size(); ++r) {
    const auto& fields = records[r].fields;
    if (fields.size() != table->schema().size()) {
      return Status(ErrorCode::kIo,
                    StrCat("CSV line ", records[r].line, ": record has ",
                           fields.size(), " fields, expected ",
                           table->schema().size()));
    }
    Row row;
    row.reserve(fields.size());
    for (size_t c = 0; c < fields.size(); ++c) {
      if (fields[c].empty()) {
        row.push_back(Value::Null());
        continue;
      }
      auto cast =
          Value::String(fields[c]).CastTo(table->schema().column(c).type.kind);
      if (!cast.ok()) {
        return Status(ErrorCode::kIo,
                      StrCat("CSV line ", records[r].line, ", column '",
                             table->schema().column(c).name,
                             "': ", cast.status().message()));
      }
      row.push_back(std::move(cast.value()));
    }
    rows.push_back(std::move(row));
  }
  return table->AppendRows(std::move(rows));
}

Result<Schema> InferCsvSchema(const std::string& path) {
  MSQL_FAULT_POINT("csv.infer");
  MSQL_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  MSQL_ASSIGN_OR_RETURN(auto records, ParseCsvText(text));
  if (records.empty()) {
    return Status(ErrorCode::kIo, "CSV file '" + path + "' is empty");
  }
  const auto& names = records[0].fields;
  Schema schema;
  for (size_t c = 0; c < names.size(); ++c) {
    bool all_int = true, all_double = true, all_date = true, any = false;
    for (size_t r = 1; r < records.size(); ++r) {
      const auto& fields = records[r].fields;
      if (c >= fields.size() || fields[c].empty()) continue;
      any = true;
      const std::string& s = fields[c];
      all_int = all_int && LooksLikeInt(s);
      all_double = all_double && LooksLikeDouble(s);
      all_date = all_date && LooksLikeDate(s);
    }
    DataType type = DataType::String();
    if (any && all_int) type = DataType::Int64();
    else if (any && all_double) type = DataType::Double();
    else if (any && all_date) type = DataType::Date();
    schema.AddColumn(Column(names[c], type));
  }
  return schema;
}

Status WriteCsv(const std::string& path, const Table& table) {
  MSQL_FAULT_POINT("csv.write");
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return Status(ErrorCode::kIo, "cannot write file '" + path + "'");
  }
  auto quote = [](const std::string& s) {
    if (s.find_first_of(",\"\n") == std::string::npos) return s;
    std::string q = "\"";
    for (char c : s) {
      if (c == '"') q += "\"\"";
      else q += c;
    }
    return q + "\"";
  };
  for (size_t c = 0; c < table.schema().size(); ++c) {
    if (c > 0) out << ',';
    out << quote(table.schema().column(c).name);
  }
  out << '\n';
  const Table::RowsSnapshot rows = table.snapshot();
  for (const Row& row : rows) {
    for (size_t c = 0; c < row.size(); ++c) {
      if (c > 0) out << ',';
      if (!row[c].is_null()) out << quote(row[c].ToString());
    }
    out << '\n';
  }
  return Status::Ok();
}

}  // namespace msql
