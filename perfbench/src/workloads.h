// The traffic mixes the end-to-end benchmark drives through pbserve.
//
// A Workload is everything one run needs, derived from the workload seed
// alone: which tables to generate (and whether to spill them), the engine
// configuration, the queries that warm caches during set-up, and the
// open-loop schedule of timed operations with their due times.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "db/table.h"
#include "db/tuple.h"

namespace pbb {

enum class OpKind { kQuery, kAppend };

/// One timed request of the schedule.
struct Op {
  double due_s = 0.0;  ///< offset from the start of the timed phase
  OpKind kind = OpKind::kQuery;
  std::string line;    ///< the request as sent (one JSON object, no '\n')
  std::string paql;    ///< queries: the PaQL text
  /// Queries the workload builds to be infeasible; the correct answer is an
  /// Infeasible envelope, which the checker then confirms independently.
  bool expect_infeasible = false;
  std::string table;             ///< appends: target table
  std::vector<pb::db::Tuple> rows;  ///< appends: the rows sent
};

struct TableSpec {
  std::string kind;  ///< recipes | travel | stocks | lineitem
  size_t rows = 0;
  uint64_t seed = 0;
  bool spill = false;
};

struct Workload {
  std::string name;
  std::vector<TableSpec> tables;
  /// Offered load of the timed phase in operations per second.
  double rate = 0.0;
  /// Client connections (and generator threads) driving the schedule.
  int connections = 4;
  /// Spilled tables: segment block size (values) and the byte budget of the
  /// block cache they read through.
  size_t block_size = 4096;
  int64_t block_cache_bytes = 0;
  bool incremental_maintenance = false;
  /// Issued once, in order, at the end of set-up (hot sets, warm states).
  std::vector<std::string> warm_queries;
  /// The timed open-loop schedule, ascending by due time.
  std::vector<Op> ops;
};

/// Builds workload `name` for `seed`. `seconds` sizes the schedule;
/// `smoke` shrinks every table to a few hundred or thousand rows.
bool MakeWorkload(const std::string& name, uint64_t seed, double seconds,
                  bool smoke, Workload* out);

/// Generates the table a TableSpec describes (resident).
pb::db::Table GenerateTable(const TableSpec& spec);

/// JSON request line for a query.
std::string QueryLine(const std::string& paql);

}  // namespace pbb

#endif  // PERFBENCH_WORKLOADS_H_
