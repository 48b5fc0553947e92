#include "server/protocol.h"

#include <cmath>
#include <utility>

namespace pb::server {

json::Value OkEnvelope(json::Value result) {
  json::Value envelope = json::Value::Object();
  envelope.Set("ok", json::Value::Bool(true));
  envelope.Set("result", std::move(result));
  return envelope;
}

json::Value ErrorEnvelope(StatusCode code, const std::string& message) {
  json::Value error = json::Value::Object();
  error.Set("code", json::Value::Str(StatusCodeToString(code)));
  error.Set("message", json::Value::Str(message));
  json::Value envelope = json::Value::Object();
  envelope.Set("ok", json::Value::Bool(false));
  envelope.Set("error", std::move(error));
  return envelope;
}

json::Value ErrorEnvelope(const Status& status) {
  return ErrorEnvelope(status.code(), status.message());
}

json::Value QueryResponseToJson(const engine::QueryResponse& resp) {
  json::Value pkg = json::Value::Object();
  json::Value rows = json::Value::Array();
  json::Value mult = json::Value::Array();
  for (size_t i = 0; i < resp.package.rows.size(); ++i) {
    rows.Push(json::Value::Int(static_cast<int64_t>(resp.package.rows[i])));
    mult.Push(json::Value::Int(resp.package.multiplicity[i]));
  }
  pkg.Set("rows", std::move(rows));
  pkg.Set("multiplicity", std::move(mult));
  pkg.Set("count", json::Value::Int(resp.package.TotalCount()));

  json::Value out = json::Value::Object();
  out.Set("table", json::Value::Str(resp.table));
  out.Set("package", std::move(pkg));
  out.Set("objective", json::Value::Number(resp.objective));
  out.Set("proven_optimal", json::Value::Bool(resp.proven_optimal));
  out.Set("strategy",
          json::Value::Str(core::StrategyToString(resp.strategy)));
  out.Set("cancelled", json::Value::Bool(resp.cancelled));

  json::Value counters = json::Value::Object();
  counters.Set("result_cache_hit", json::Value::Bool(resp.result_cache_hit));
  counters.Set("warm_start_hit", json::Value::Bool(resp.warm_start_hit));
  counters.Set("model_signature",
               json::Value::Str(std::to_string(resp.model_signature)));
  counters.Set("nodes", json::Value::Int(resp.nodes));
  counters.Set("lp_iterations", json::Value::Int(resp.lp_iterations));
  counters.Set("num_candidates",
               json::Value::Int(static_cast<int64_t>(resp.num_candidates)));
  counters.Set("zone_map_skipped_blocks",
               json::Value::Int(resp.zone_map_skipped_blocks));
  counters.Set("storage_peak_pinned_bytes",
               json::Value::Int(resp.storage_peak_pinned_bytes));
  counters.Set("revalidated", json::Value::Bool(resp.revalidated));
  counters.Set("dirty_groups", json::Value::Int(resp.dirty_groups));
  counters.Set("groups_reused", json::Value::Int(resp.groups_reused));
  counters.Set("maintenance_ms", json::Value::Number(resp.maintenance_ms));
  counters.Set("table_rows",
               json::Value::Int(static_cast<int64_t>(resp.table_rows)));
  out.Set("counters", std::move(counters));

  json::Value timings = json::Value::Object();
  timings.Set("parse_seconds", json::Value::Number(resp.parse_seconds));
  timings.Set("solve_seconds", json::Value::Number(resp.solve_seconds));
  timings.Set("total_seconds", json::Value::Number(resp.total_seconds));
  out.Set("timings", std::move(timings));
  return out;
}

Result<std::vector<db::Tuple>> JsonRowsToTuples(const json::Value& rows) {
  if (!rows.is_array()) {
    return Status::InvalidArgument(
        "appended rows must be a JSON array of row arrays");
  }
  // 2^63 is exact as a double; an integral value in [-2^63, 2^63) is an
  // int64 exactly, and anything outside would saturate in as_int().
  constexpr double kTwo63 = 9223372036854775808.0;
  std::vector<db::Tuple> tuples;
  tuples.reserve(rows.items().size());
  for (const json::Value& row : rows.items()) {
    if (!row.is_array()) {
      return Status::InvalidArgument(
          "each appended row must be an array of cells");
    }
    db::Tuple tuple;
    tuple.reserve(row.items().size());
    for (const json::Value& cell : row.items()) {
      if (cell.is_null()) {
        tuple.push_back(db::Value::Null());
      } else if (cell.is_bool()) {
        tuple.push_back(db::Value::Bool(cell.as_bool()));
      } else if (cell.is_number()) {
        const double d = cell.as_number();
        tuple.push_back(d >= -kTwo63 && d < kTwo63 && d == std::trunc(d)
                            ? db::Value::Int(cell.as_int())
                            : db::Value::Double(d));
      } else if (cell.is_string()) {
        tuple.push_back(db::Value::String(cell.as_string()));
      } else {
        return Status::InvalidArgument(
            "appended cells must be scalars (null, bool, number, or "
            "string)");
      }
    }
    tuples.push_back(std::move(tuple));
  }
  return tuples;
}

namespace {

engine::QueryBudget ParseBudget(const json::Value& request) {
  engine::QueryBudget budget;
  const json::Value* b = request.Find("budget");
  if (b == nullptr || !b->is_object()) return budget;
  budget.time_limit_s = b->GetNumber("time_limit_s", 0.0);
  budget.max_nodes = b->GetInt("max_nodes", 0);
  budget.max_pinned_bytes = b->GetInt("max_pinned_bytes", 0);
  return budget;
}

json::Value HandleQuery(engine::Engine* engine, const json::Value& request) {
  const std::string paql = request.GetString("paql");
  if (paql.empty()) {
    return ErrorEnvelope(StatusCode::kInvalidArgument,
                         "query request needs a non-empty 'paql' field");
  }
  const uint64_t session =
      static_cast<uint64_t>(request.GetInt("session", 0));
  const engine::QueryBudget budget = ParseBudget(request);

  // The query runs on this connection's thread. An overloaded engine
  // refuses it with ResourceExhausted, which is the overload envelope.
  const engine::QueryResponse resp =
      engine->ExecuteQuery(session, paql, budget);
  if (!resp.status.ok()) {
    json::Value envelope = ErrorEnvelope(resp.status);
    if (resp.cancelled) {
      // Mark budget/cancel stops so clients can distinguish "no such
      // package" from "gave up early" without string matching.
      json::Value error = *envelope.Find("error");
      error.Set("cancelled", json::Value::Bool(true));
      envelope.Set("error", std::move(error));
    }
    return envelope;
  }
  return OkEnvelope(QueryResponseToJson(resp));
}

json::Value HandleTables(engine::Engine* engine) {
  json::Value tables = json::Value::Array();
  for (const std::string& name : engine->TableNames()) {
    tables.Push(json::Value::Str(name));
  }
  json::Value result = json::Value::Object();
  result.Set("tables", std::move(tables));
  return OkEnvelope(std::move(result));
}

json::Value HandleGen(engine::Engine* engine, const json::Value& request) {
  const std::string kind = request.GetString("kind");
  // Engine::GenerateDataset checks the size; a negative one wraps past its
  // cap.
  const int64_t n = request.GetInt("n", 1000);
  const int64_t seed = request.GetInt("seed", 42);
  auto rows = engine->GenerateDataset(kind, static_cast<size_t>(n),
                                      static_cast<uint64_t>(seed));
  if (!rows.ok()) return ErrorEnvelope(rows.status());
  json::Value result = json::Value::Object();
  result.Set("table", json::Value::Str(kind));
  result.Set("rows", json::Value::Int(static_cast<int64_t>(*rows)));
  return OkEnvelope(std::move(result));
}

json::Value HandleSpill(engine::Engine* engine, const json::Value& request) {
  const std::string table = request.GetString("table");
  if (table.empty()) {
    return ErrorEnvelope(StatusCode::kInvalidArgument,
                         "spill request needs a non-empty 'table' field");
  }
  // Engine::SpillTable checks the size; a negative one wraps past its cap.
  const int64_t block_size = request.GetInt(
      "block_size", static_cast<int64_t>(storage::kDefaultBlockSize));
  Status s = engine->SpillTable(table, "", static_cast<size_t>(block_size));
  if (!s.ok()) return ErrorEnvelope(s);
  json::Value result = json::Value::Object();
  result.Set("table", json::Value::Str(table));
  result.Set("block_size", json::Value::Int(block_size));
  return OkEnvelope(std::move(result));
}

json::Value HandleAppend(engine::Engine* engine, const json::Value& request) {
  const std::string table = request.GetString("table");
  if (table.empty()) {
    return ErrorEnvelope(StatusCode::kInvalidArgument,
                         "append request needs a non-empty 'table' field");
  }
  const json::Value* rows = request.Find("rows");
  auto tuples = JsonRowsToTuples(rows != nullptr ? *rows : json::Value());
  if (!tuples.ok()) return ErrorEnvelope(tuples.status());
  auto outcome = engine->AppendRows(table, *std::move(tuples));
  if (!outcome.ok()) return ErrorEnvelope(outcome.status());
  json::Value result = json::Value::Object();
  result.Set("table", json::Value::Str(table));
  result.Set("appended", json::Value::Int(static_cast<int64_t>(outcome->rows)));
  result.Set("table_rows",
             json::Value::Int(static_cast<int64_t>(outcome->table_rows)));
  result.Set("full_invalidation",
             json::Value::Bool(outcome->full_invalidation));
  return OkEnvelope(std::move(result));
}

json::Value HandleStats(engine::Engine* engine) {
  const engine::EngineStats s = engine->stats();
  json::Value result = json::Value::Object();
  result.Set("queries", json::Value::Int(s.queries));
  result.Set("errors", json::Value::Int(s.errors));
  result.Set("cancelled", json::Value::Int(s.cancelled));
  result.Set("result_cache_hits", json::Value::Int(s.result_cache_hits));
  result.Set("warm_cache_hits", json::Value::Int(s.warm_cache_hits));
  result.Set("warm_cache_misses", json::Value::Int(s.warm_cache_misses));
  result.Set("overload_rejections",
             json::Value::Int(s.overload_rejections));
  result.Set("appends", json::Value::Int(s.appends));
  result.Set("rows_appended", json::Value::Int(s.rows_appended));
  result.Set("revalidations", json::Value::Int(s.revalidations));
  result.Set("maintenance_full_invalidations",
             json::Value::Int(s.maintenance_full_invalidations));
  result.Set("num_threads", json::Value::Int(engine->num_threads()));
  json::Value block_cache = json::Value::Object();
  block_cache.Set("hits", json::Value::Int(s.block_cache_hits));
  block_cache.Set("misses", json::Value::Int(s.block_cache_misses));
  block_cache.Set("evictions", json::Value::Int(s.block_cache_evictions));
  block_cache.Set("bytes_cached", json::Value::Int(s.block_cache_bytes));
  block_cache.Set("bytes_pinned", json::Value::Int(s.block_bytes_pinned));
  block_cache.Set("peak_bytes_pinned",
                  json::Value::Int(s.block_peak_bytes_pinned));
  result.Set("block_cache", std::move(block_cache));
  return OkEnvelope(std::move(result));
}

}  // namespace

json::Value HandleRequest(engine::Engine* engine, const json::Value& request,
                          ConnectionContext* ctx) {
  if (!request.is_object()) {
    return ErrorEnvelope(StatusCode::kInvalidArgument,
                         "request must be a JSON object");
  }
  const std::string op = request.GetString("op");
  if (op == "hello") {
    const uint64_t session = engine->OpenSession();
    if (ctx != nullptr) ctx->sessions.push_back(session);
    json::Value result = json::Value::Object();
    result.Set("server", json::Value::Str("pbserve"));
    result.Set("session", json::Value::Int(static_cast<int64_t>(session)));
    return OkEnvelope(std::move(result));
  }
  if (op == "query") return HandleQuery(engine, request);
  if (op == "cancel") {
    const uint64_t session =
        static_cast<uint64_t>(request.GetInt("session", 0));
    Status s = engine->CancelSession(session);
    if (!s.ok()) return ErrorEnvelope(s);
    json::Value result = json::Value::Object();
    result.Set("cancelled", json::Value::Bool(true));
    return OkEnvelope(std::move(result));
  }
  if (op == "close") {
    const uint64_t session =
        static_cast<uint64_t>(request.GetInt("session", 0));
    Status s = engine->CloseSession(session);
    if (!s.ok()) return ErrorEnvelope(s);
    if (ctx != nullptr) {
      std::erase(ctx->sessions, session);
    }
    return OkEnvelope(json::Value::Object());
  }
  if (op == "tables") return HandleTables(engine);
  if (op == "gen") return HandleGen(engine, request);
  if (op == "spill") return HandleSpill(engine, request);
  if (op == "append") return HandleAppend(engine, request);
  if (op == "stats") return HandleStats(engine);
  return ErrorEnvelope(StatusCode::kInvalidArgument,
                       "unknown op '" + op + "'");
}

std::string HandleRequestLine(engine::Engine* engine, const std::string& line,
                              ConnectionContext* ctx) {
  auto request = json::Parse(line);
  if (!request.ok()) {
    return ErrorEnvelope(request.status()).Dump();
  }
  return HandleRequest(engine, *request, ctx).Dump();
}

}  // namespace pb::server
