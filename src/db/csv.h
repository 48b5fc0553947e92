// CSV import/export, so example datasets and benchmark workloads can be
// materialized to disk and reloaded. There is one format: comma-separated
// fields, double-quoted with "" escapes where needed, under a header row of
// column names. ReadCsv infers each column's type: INT if every non-empty
// cell parses as an integer, else DOUBLE if every one parses as a number,
// else STRING (an all-empty column is STRING). Empty cells are NULL.

#ifndef PB_DB_CSV_H_
#define PB_DB_CSV_H_

#include <iosfwd>
#include <string>

#include "common/status.h"
#include "db/table.h"

namespace pb::db {

/// Parses CSV text from a stream into a table.
Result<Table> ReadCsv(std::istream& in, const std::string& table_name);

/// Reads a CSV file from disk.
Result<Table> ReadCsvFile(const std::string& path,
                          const std::string& table_name);

/// Writes a table as CSV (header + rows). NULLs become empty cells. A
/// DOUBLE cell is written in its shortest form that reads back to the
/// same bits, so ReadCsv returns every exported double unchanged (a column
/// whose doubles are all integral reads back as INT).
Status WriteCsv(const Table& table, std::ostream& out);

Status WriteCsvFile(const Table& table, const std::string& path);

}  // namespace pb::db

#endif  // PB_DB_CSV_H_
