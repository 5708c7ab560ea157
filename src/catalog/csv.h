#ifndef MSQL_CATALOG_CSV_H_
#define MSQL_CATALOG_CSV_H_

#include <string>

#include "catalog/table.h"
#include "common/status.h"

namespace msql {

// Appends the rows of a CSV file to an existing table in one batch,
// coercing fields to the column types; a malformed record appends nothing.
// Quoted fields with embedded commas/quotes/newlines are supported; empty
// fields become NULL.
Status AppendCsv(const std::string& path, bool header, Table* table);

// Infers a schema from a CSV file with a header row: a column is INTEGER if
// every non-empty value parses as an integer, else DOUBLE if numeric, else
// DATE if all values parse as dates, else VARCHAR.
Result<Schema> InferCsvSchema(const std::string& path);

// Writes rows to a CSV file with a header. Used by the benchmark harness to
// export generated workloads.
Status WriteCsv(const std::string& path, const Table& table);

}  // namespace msql

#endif  // MSQL_CATALOG_CSV_H_
