// The pbserve wire protocol: newline-framed JSON over a byte stream.
//
// Each request is one JSON object on one line; each response is one JSON
// envelope on one line. The envelope shape is fixed:
//
//   {"ok":true,"result":{...}}
//   {"ok":false,"error":{"code":"<StatusCode name>","message":"..."}}
//
// Error codes map 1:1 onto the engine's StatusCode taxonomy via
// StatusCodeToString, so a client can switch on "code" without parsing
// messages (see docs/adr/0001-error-envelopes.md).
//
// Requests ("op" selects the operation):
//   {"op":"hello"}                        -> {"session":N,"server":...}
//   {"op":"query","paql":"...",
//    "session":N,                          (optional; 0 = anonymous)
//    "budget":{"time_limit_s":S,          (optional, all fields optional)
//              "max_nodes":N,
//              "max_pinned_bytes":B}}
//   {"op":"cancel","session":N}           -> cancels N's in-flight query
//   {"op":"tables"}                       -> catalog listing
//   {"op":"gen","kind":"recipes",
//    "n":500,"seed":42}                   -> generates a dataset
//   {"op":"spill","table":"lineitem",
//    "block_size":65536}                  -> move a table to disk blocks
//   {"op":"append","table":"lineitem",
//    "rows":[[1,2.5,"air"],...]}          -> append rows (incremental
//                                            maintenance; spilled tables
//                                            fall back to full
//                                            invalidation)
//   {"op":"stats"}                        -> engine counters
//   {"op":"close","session":N}            -> closes a session
//
// This layer is transport-independent: the Server owns sockets and calls
// HandleRequestLine once per received line.

#ifndef PB_SERVER_PROTOCOL_H_
#define PB_SERVER_PROTOCOL_H_

#include <string>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "engine/engine.h"

namespace pb::server {

/// Per-connection protocol state: sessions opened by "hello" on this
/// connection, so the transport can close them when the peer disconnects.
struct ConnectionContext {
  std::vector<uint64_t> sessions;
};

/// Wraps a success payload in the wire envelope.
json::Value OkEnvelope(json::Value result);

/// Builds the error envelope for a status (status must not be OK).
json::Value ErrorEnvelope(const Status& status);
json::Value ErrorEnvelope(StatusCode code, const std::string& message);

/// The rows of an "append" request or of pbshell's \append: `rows` must be
/// an array of row arrays of scalar cells. A whole number in [-2^63, 2^63)
/// becomes an Int, which widens into DOUBLE columns, so `3` fits both INT
/// and DOUBLE schemas; any other number becomes a Double.
/// Table::AppendRows re-checks the types against the schema.
Result<std::vector<db::Tuple>> JsonRowsToTuples(const json::Value& rows);

/// Serializes a QueryResponse into the "query" result payload: package
/// rows + multiplicities, objective, strategy, counters, and timings.
json::Value QueryResponseToJson(const engine::QueryResponse& resp);

/// Dispatches one parsed request against the engine. Never fails: protocol
/// and engine errors come back as error envelopes. `ctx` (optional) tracks
/// sessions opened/closed by this request stream.
json::Value HandleRequest(engine::Engine* engine, const json::Value& request,
                          ConnectionContext* ctx = nullptr);

/// Parses one request line and dispatches it; returns the serialized
/// envelope (no trailing newline). Malformed JSON yields a ParseError
/// envelope.
std::string HandleRequestLine(engine::Engine* engine, const std::string& line,
                              ConnectionContext* ctx = nullptr);

}  // namespace pb::server

#endif  // PB_SERVER_PROTOCOL_H_
