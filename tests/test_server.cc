// The pbserve transport: JSON parsing/serialization, the protocol layer's
// 1:1 StatusCode → error-envelope mapping (exercised without sockets via
// HandleRequestLine), and the live loopback server — parallel connections,
// deterministic overload rejection, and cross-connection cancellation.
//
// The parallel-connection suite honors PB_TEST_THREADS and is part of the
// TSan CI lane: N real client sockets hammer one Engine through the full
// accept/serve/dispatch path.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/env.h"
#include "common/json.h"
#include "engine/engine.h"
#include "server/protocol.h"
#include "server/server.h"

namespace pb::server {
namespace {

// ------------------------------------------------------------------- JSON

TEST(JsonTest, ParsesAndDumpsRoundTrip) {
  auto v = json::Parse(
      R"js({"op":"query","paql":"SELECT 1","budget":{"time_limit_s":2.5},)js"
      R"js("flags":[true,false,null],"n":-42})js");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v->GetString("op"), "query");
  const json::Value* budget = v->Find("budget");
  ASSERT_NE(budget, nullptr);
  EXPECT_DOUBLE_EQ(budget->GetNumber("time_limit_s"), 2.5);
  EXPECT_EQ(v->GetInt("n"), -42);

  auto round = json::Parse(v->Dump());
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round->Dump(), v->Dump());
}

TEST(JsonTest, HandlesEscapesAndUnicode) {
  auto v = json::Parse(R"js({"s":"a\"b\\c\n\t\u00e9\ud83d\ude00"})js");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  const std::string s = v->GetString("s");
  EXPECT_NE(s.find("a\"b\\c\n\t"), std::string::npos);
  EXPECT_NE(s.find("\xc3\xa9"), std::string::npos);          // é
  EXPECT_NE(s.find("\xf0\x9f\x98\x80"), std::string::npos);  // 😀 (pair)
  // Dump re-escapes; the reparse must agree.
  auto round = json::Parse(v->Dump());
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round->GetString("s"), s);
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(json::Parse("").ok());
  EXPECT_FALSE(json::Parse("{").ok());
  EXPECT_FALSE(json::Parse("{\"a\":}").ok());
  EXPECT_FALSE(json::Parse("[1,2,]").ok());
  EXPECT_FALSE(json::Parse("{\"a\":1} trailing").ok());
  EXPECT_FALSE(json::Parse("\"\\uZZZZ\"").ok());
  EXPECT_EQ(json::Parse("nope").status().code(), StatusCode::kParseError);
}

TEST(JsonTest, IntegersDumpExactly) {
  json::Value v = json::Value::Object();
  v.Set("big", json::Value::Int(9007199254740992LL));
  v.Set("neg", json::Value::Int(-7));
  v.Set("frac", json::Value::Number(0.5));
  const std::string out = v.Dump();
  EXPECT_NE(out.find("9007199254740992"), std::string::npos);
  EXPECT_NE(out.find("-7"), std::string::npos);
  EXPECT_NE(out.find("0.5"), std::string::npos);
}

TEST(JsonTest, GetIntSaturatesOutOfRangeNumbers) {
  // 1e999 parses to inf; a plain cast of any of these is undefined.
  auto v = json::Parse(R"js({"big":1e300,"small":-1e300,"inf":1e999,)js"
                       R"js("two63":9223372036854775808,)js"
                       R"js("min":-9223372036854775808})js");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  EXPECT_EQ(v->GetInt("big"), kMax);
  EXPECT_EQ(v->GetInt("small"), kMin);
  EXPECT_EQ(v->GetInt("inf"), kMax);
  EXPECT_EQ(v->GetInt("two63"), kMax);
  EXPECT_EQ(v->GetInt("min"), kMin);
  EXPECT_EQ(json::Value::Number(-2.9).as_int(), -2);
}

// --------------------------------------------------------------- protocol

std::unique_ptr<engine::Engine> MakeEngine(size_t rows = 120) {
  engine::EngineOptions options;
  options.num_threads = 2;
  auto e = std::make_unique<engine::Engine>(options);
  EXPECT_TRUE(e->GenerateDataset("recipes", rows, 42).ok());
  return e;
}

/// Dispatches one request line and parses the envelope back.
json::Value Call(engine::Engine* engine, const std::string& line,
                 ConnectionContext* ctx = nullptr) {
  auto v = json::Parse(HandleRequestLine(engine, line, ctx));
  EXPECT_TRUE(v.ok()) << "unparseable envelope for: " << line;
  return v.ok() ? std::move(*v) : json::Value::Null();
}

std::string ErrorCode(const json::Value& envelope) {
  const json::Value* error = envelope.Find("error");
  return error ? error->GetString("code") : "";
}

TEST(ProtocolTest, QueryReturnsOkEnvelopeWithCounters) {
  auto engine = MakeEngine();
  json::Value r =
      Call(engine.get(),
           R"js({"op":"query","paql":"SELECT PACKAGE(R) FROM )js"
           R"js(recipes R SUCH THAT COUNT(*) = 3 AND SUM(calories) )js"
           R"js(BETWEEN 2000 AND 2500 MAXIMIZE SUM(protein)"})js");
  EXPECT_TRUE(r.GetBool("ok"));
  const json::Value* result = r.Find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->GetString("table"), "recipes");
  EXPECT_EQ(result->GetString("strategy"), "IlpSolver");
  EXPECT_TRUE(result->GetBool("proven_optimal"));
  const json::Value* counters = result->Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_GT(counters->GetInt("nodes"), 0);
  EXPECT_FALSE(counters->GetString("model_signature").empty());
  const json::Value* package = result->Find("package");
  ASSERT_NE(package, nullptr);
  EXPECT_EQ(package->GetInt("count"), 3);
}

TEST(ProtocolTest, ErrorEnvelopesMapStatusCodesOneToOne) {
  auto engine = MakeEngine(30);
  // Malformed JSON → ParseError.
  EXPECT_EQ(ErrorCode(Call(engine.get(), "{not json")), "ParseError");
  // Bad PaQL → ParseError from the query parser.
  EXPECT_EQ(ErrorCode(Call(engine.get(),
                           R"js({"op":"query","paql":"SELECT nonsense"})js")),
            "ParseError");
  // Unknown op → InvalidArgument.
  EXPECT_EQ(ErrorCode(Call(engine.get(), R"js({"op":"frobnicate"})js")),
            "InvalidArgument");
  // Missing paql → InvalidArgument.
  EXPECT_EQ(ErrorCode(Call(engine.get(), R"js({"op":"query"})js")),
            "InvalidArgument");
  // Unknown table → NotFound.
  EXPECT_EQ(
      ErrorCode(Call(
          engine.get(),
          R"js({"op":"query","paql":"SELECT PACKAGE(X) FROM nope X"})js")),
      "NotFound");
  // Unknown session → NotFound.
  EXPECT_EQ(ErrorCode(Call(engine.get(),
                           R"js({"op":"cancel","session":424242})js")),
            "NotFound");
  // Infeasible query → Infeasible.
  EXPECT_EQ(
      ErrorCode(Call(engine.get(),
                     R"js({"op":"query","paql":"SELECT PACKAGE(R) FROM )js"
                     R"js(recipes R SUCH THAT COUNT(*) = 3 AND )js"
                     R"js(SUM(calories) <= 1"})js")),
      "Infeasible");
  // Over-budget query → ResourceExhausted with the cancelled marker.
  json::Value over =
      Call(engine.get(),
           R"js({"op":"query","paql":"SELECT PACKAGE(R) FROM )js"
           R"js(recipes R SUCH THAT COUNT(*) = 4 MAXIMIZE )js"
           R"js(SUM(protein)","budget":{"time_limit_s":1e-9}})js");
  EXPECT_EQ(ErrorCode(over), "ResourceExhausted");
}

TEST(ProtocolTest, HelloTracksSessionsOnTheConnection) {
  auto engine = MakeEngine(30);
  ConnectionContext ctx;
  json::Value hello = Call(engine.get(), R"js({"op":"hello"})js", &ctx);
  EXPECT_TRUE(hello.GetBool("ok"));
  ASSERT_EQ(ctx.sessions.size(), 1u);
  const uint64_t session = ctx.sessions[0];
  EXPECT_GT(session, 0u);

  json::Value bye =
      Call(engine.get(),
           R"js({"op":"close","session":)js" + std::to_string(session) + "}",
           &ctx);
  EXPECT_TRUE(bye.GetBool("ok"));
  EXPECT_TRUE(ctx.sessions.empty());
}

TEST(ProtocolTest, TablesStatsAndGenRoundTrip) {
  auto engine = MakeEngine(30);
  json::Value gen = Call(engine.get(),
                         R"js({"op":"gen","kind":"stocks","n":40,"seed":7})js");
  EXPECT_TRUE(gen.GetBool("ok"));
  json::Value tables = Call(engine.get(), R"js({"op":"tables"})js");
  EXPECT_TRUE(tables.GetBool("ok"));
  const json::Value* list = tables.Find("result")->Find("tables");
  ASSERT_NE(list, nullptr);
  EXPECT_EQ(list->items().size(), 2u);
  json::Value stats = Call(engine.get(), R"js({"op":"stats"})js");
  EXPECT_TRUE(stats.GetBool("ok"));
  EXPECT_GE(stats.Find("result")->GetInt("queries"), 0);
}

TEST(ProtocolTest, GenRejectsOversizedTables) {
  auto engine = MakeEngine(30);
  // 9e18, and 1e300 once it saturates to INT64_MAX, would abort the server
  // on the row reservation; 1000001 is one row past the cap.
  for (const std::string n : {"9e18", "1e300", "1000001"}) {
    const std::string request = R"js({"op":"gen","kind":"recipes","n":)js";
    EXPECT_EQ(ErrorCode(Call(engine.get(), request + n + "}")),
              "InvalidArgument")
        << "n=" << n;
  }
  EXPECT_EQ(ErrorCode(Call(engine.get(),
                           R"js({"op":"gen","kind":"recipes","n":-1e300})js")),
            "InvalidArgument");
}

TEST(ProtocolTest, SpillRejectsOversizedBlocks) {
  auto engine = MakeEngine(30);
  // 1e300 saturates to INT64_MAX; 1048577 is one row past the 2^20 cap. A
  // rejected request spills nothing: a spilled table refuses a second
  // spill, so the valid one that follows proves it.
  for (const std::string size : {"1e300", "1048577", "0", "-1"}) {
    const std::string request =
        R"js({"op":"spill","table":"recipes","block_size":)js";
    EXPECT_EQ(ErrorCode(Call(engine.get(), request + size + "}")),
              "InvalidArgument")
        << "block_size=" << size;
  }
  const json::Value spilled = Call(
      engine.get(),
      R"js({"op":"spill","table":"recipes","block_size":1048576})js");
  EXPECT_TRUE(spilled.GetBool("ok")) << spilled.Dump();
}

TEST(ProtocolTest, BudgetThreadsKeyIsIgnored) {
  // Older clients still send a "threads" budget key; it is ignored like
  // any unknown key. Each request gets its own maintained engine, so both
  // solve through SketchRefine instead of one replaying the other's cache.
  const std::string query =
      R"js({"op":"query","paql":"SELECT PACKAGE(R) FROM recipes R SUCH )js"
      R"js(THAT COUNT(*) = 3 AND SUM(calories) BETWEEN 2000 AND 2500 )js"
      R"js(MAXIMIZE SUM(protein)")js";
  const std::string budgets[] = {"", R"js(,"budget":{"threads":4})js"};
  std::vector<json::Value> answers;
  for (const std::string& budget : budgets) {
    engine::EngineOptions options;
    options.num_threads = 2;
    options.incremental_maintenance = true;
    engine::Engine engine(options);
    ASSERT_TRUE(engine.GenerateDataset("recipes", 120, 42).ok());
    json::Value r = Call(&engine, query + budget + "}");
    ASSERT_TRUE(r.GetBool("ok")) << r.Dump();
    EXPECT_EQ(r.Find("result")->GetString("strategy"), "SketchRefine");
    answers.push_back(*r.Find("result")->Find("package"));
  }
  EXPECT_EQ(answers[1].Dump(), answers[0].Dump());
}

TEST(ProtocolTest, AppendCellsBecomeIntOnlyWhenIntegralInRange) {
  auto rows = json::Parse(
      R"js([[3, 2.5, -9223372036854775808, 9223372036854775808, 1e300],)js"
      R"js([null, true, "x"]])js");
  ASSERT_TRUE(rows.ok());
  auto tuples = JsonRowsToTuples(*rows);
  ASSERT_TRUE(tuples.ok()) << tuples.status().ToString();
  ASSERT_EQ(tuples->size(), 2u);
  const db::Tuple& nums = (*tuples)[0];
  ASSERT_EQ(nums.size(), 5u);
  ASSERT_TRUE(nums[0].is_int());
  EXPECT_EQ(nums[0].AsInt(), 3);
  ASSERT_TRUE(nums[1].is_double());
  EXPECT_EQ(nums[1].AsDoubleExact(), 2.5);
  ASSERT_TRUE(nums[2].is_int());
  EXPECT_EQ(nums[2].AsInt(), std::numeric_limits<int64_t>::min());
  // 2^63 and 1e300 are whole, but no int64 holds them.
  ASSERT_TRUE(nums[3].is_double());
  EXPECT_EQ(nums[3].AsDoubleExact(), 9223372036854775808.0);
  ASSERT_TRUE(nums[4].is_double());
  EXPECT_EQ(nums[4].AsDoubleExact(), 1e300);
  const db::Tuple& rest = (*tuples)[1];
  ASSERT_EQ(rest.size(), 3u);
  EXPECT_TRUE(rest[0].is_null());
  ASSERT_TRUE(rest[1].is_bool());
  EXPECT_TRUE(rest[1].AsBool());
  ASSERT_TRUE(rest[2].is_string());
  EXPECT_EQ(rest[2].AsString(), "x");

  for (const char* bad : {"{}", "[1]", "[[[1]]]", "[[{}]]"}) {
    auto v = json::Parse(bad);
    ASSERT_TRUE(v.ok()) << bad;
    EXPECT_EQ(JsonRowsToTuples(*v).status().code(),
              StatusCode::kInvalidArgument)
        << bad;
  }
}

// ----------------------------------------------------------------- server

/// A tiny blocking line-framed client over a real socket.
class LineClient {
 public:
  explicit LineClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~LineClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool connected() const { return connected_; }

  bool SendLine(const std::string& line) {
    std::string framed = line + "\n";
    size_t sent = 0;
    while (sent < framed.size()) {
      ssize_t n = ::send(fd_, framed.data() + sent, framed.size() - sent, 0);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  /// Reads one newline-terminated envelope ("" on EOF).
  std::string RecvLine() {
    std::string line;
    char c;
    while (true) {
      ssize_t n = ::recv(fd_, &c, 1, 0);
      if (n <= 0) return "";
      if (c == '\n') return line;
      line.push_back(c);
    }
  }

  /// Reads `n` envelopes with bulk reads ({} on EOF): cheaper than `n`
  /// RecvLine calls when timing matters.
  std::vector<std::string> RecvLines(int n) {
    std::vector<std::string> lines;
    std::string pending;
    char buf[4096];
    while (static_cast<int>(lines.size()) < n) {
      const ssize_t got = ::recv(fd_, buf, sizeof(buf), 0);
      if (got <= 0) return {};
      pending.append(buf, static_cast<size_t>(got));
      for (size_t nl = pending.find('\n'); nl != std::string::npos;
           nl = pending.find('\n')) {
        lines.push_back(pending.substr(0, nl));
        pending.erase(0, nl + 1);
      }
    }
    return lines;
  }

  json::Value Roundtrip(const std::string& line) {
    if (!SendLine(line)) return json::Value::Null();
    auto v = json::Parse(RecvLine());
    return v.ok() ? std::move(*v) : json::Value::Null();
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

TEST(ServerTest, ServesQueriesOverLoopback) {
  auto engine = MakeEngine();
  Server server(engine.get(), {});
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  LineClient client(server.port());
  ASSERT_TRUE(client.connected());
  json::Value hello = client.Roundtrip(R"js({"op":"hello"})js");
  EXPECT_TRUE(hello.GetBool("ok"));
  json::Value r = client.Roundtrip(
      R"js({"op":"query","paql":"SELECT PACKAGE(R) FROM recipes R SUCH )js"
      R"js(THAT COUNT(*) = 3 AND SUM(calories) BETWEEN 2000 AND 2500 )js"
      R"js(MAXIMIZE SUM(protein)"})js");
  ASSERT_TRUE(r.GetBool("ok")) << r.Dump();
  EXPECT_TRUE(r.Find("result")->GetBool("proven_optimal"));
  json::Value bad = client.Roundtrip("garbage");
  EXPECT_FALSE(bad.GetBool("ok"));
  EXPECT_EQ(ErrorCode(bad), "ParseError");
  server.Stop();
}

TEST(ServerTest, PipelinedRepliesAreNotHeldForDelayedAcks) {
  // Eight cached queries in one write; the server answers each request
  // line with its own small reply. With Nagle on, every reply after the
  // first waits for the client's delayed ACK, so a round takes 40 ms or
  // more, while the same eight queries sent one at a time take well under
  // a millisecond (more under sanitizers, hence the comparison).
  auto engine = MakeEngine();
  Server server(engine.get(), {});
  ASSERT_TRUE(server.Start().ok());
  LineClient client(server.port());
  ASSERT_TRUE(client.connected());
  const std::string query =
      R"js({"op":"query","paql":"SELECT PACKAGE(R) FROM recipes R SUCH )js"
      R"js(THAT COUNT(*) = 3 AND SUM(calories) BETWEEN 2000 AND 2500 )js"
      R"js(MAXIMIZE SUM(protein)"})js";
  ASSERT_TRUE(client.Roundtrip(query).GetBool("ok"));  // now cached

  constexpr int kPipelined = 8;
  std::string batch = query;
  for (int i = 1; i < kPipelined; ++i) batch += "\n" + query;
  auto ms_since = [](std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  std::vector<double> pipelined_ms, sequential_ms;
  for (int round = 0; round < 7; ++round) {
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kPipelined; ++i) {
      ASSERT_TRUE(client.Roundtrip(query).GetBool("ok"));
    }
    sequential_ms.push_back(ms_since(start));

    start = std::chrono::steady_clock::now();
    ASSERT_TRUE(client.SendLine(batch));
    const std::vector<std::string> replies = client.RecvLines(kPipelined);
    ASSERT_EQ(replies.size(), static_cast<size_t>(kPipelined));
    pipelined_ms.push_back(ms_since(start));
    for (const std::string& line : replies) {
      auto reply = json::Parse(line);
      ASSERT_TRUE(reply.ok() && reply->GetBool("ok"));
    }
  }
  // Medians, so one slow round on a loaded host cannot decide it.
  std::sort(sequential_ms.begin(), sequential_ms.end());
  std::sort(pipelined_ms.begin(), pipelined_ms.end());
  EXPECT_LT(pipelined_ms[3], sequential_ms[3] + 20.0)
      << "pipelined rounds " << pipelined_ms.front() << "-"
      << pipelined_ms.back() << " ms, sequential "
      << sequential_ms.front() << "-" << sequential_ms.back() << " ms";
  server.Stop();
}

TEST(ServerTest, EightParallelConnectionsGetIdenticalAnswers) {
  auto engine = MakeEngine(150);
  Server server(engine.get(), {});
  ASSERT_TRUE(server.Start().ok());

  const int num_clients = std::max(8, EnvInt("PB_TEST_THREADS", 8));
  const int rounds = 3;
  std::vector<std::string> dumps(num_clients);
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(num_clients);
  for (int c = 0; c < num_clients; ++c) {
    clients.emplace_back([&, c] {
      LineClient client(server.port());
      if (!client.connected()) {
        failures.fetch_add(1);
        return;
      }
      for (int round = 0; round < rounds; ++round) {
        json::Value r = client.Roundtrip(
            R"js({"op":"query","paql":"SELECT PACKAGE(R) FROM recipes R )js"
            R"js(SUCH THAT COUNT(*) = 3 AND SUM(calories) BETWEEN 2000 )js"
            R"js(AND 2500 MAXIMIZE SUM(protein)"})js");
        if (!r.GetBool("ok")) {
          failures.fetch_add(1);
          continue;
        }
        // Strip the per-call counters/timings; compare the answer itself.
        const json::Value* result = r.Find("result");
        json::Value answer = json::Value::Object();
        answer.Set("package", *result->Find("package"));
        answer.Set("objective",
                   json::Value::Number(result->GetNumber("objective")));
        if (dumps[c].empty()) {
          dumps[c] = answer.Dump();
        } else if (dumps[c] != answer.Dump()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Every connection saw the same bit-identical package.
  std::set<std::string> distinct(dumps.begin(), dumps.end());
  EXPECT_EQ(distinct.size(), 1u);
  server.Stop();
}

TEST(ServerTest, OverloadedAdmissionQueueRejectsWithEnvelope) {
  engine::EngineOptions options;
  options.num_threads = 2;
  options.max_pending_queries = 0;  // deterministic: reject every submit
  engine::Engine engine(options);
  ASSERT_TRUE(engine.GenerateDataset("recipes", 30, 42).ok());
  Server server(&engine, {});
  ASSERT_TRUE(server.Start().ok());

  LineClient client(server.port());
  ASSERT_TRUE(client.connected());
  json::Value r = client.Roundtrip(
      R"js({"op":"query","paql":"SELECT PACKAGE(R) FROM recipes R SUCH THAT )js"
      R"js(COUNT(*) = 2 MAXIMIZE SUM(protein)"})js");
  EXPECT_FALSE(r.GetBool("ok"));
  EXPECT_EQ(ErrorCode(r), "ResourceExhausted");
  EXPECT_EQ(engine.stats().overload_rejections, 1);
  server.Stop();
}

TEST(ServerTest, ConnectionCapSendsOverloadEnvelopeAndCloses) {
  auto engine = MakeEngine(30);
  ServerOptions options;
  options.max_connections = 1;
  Server server(engine.get(), options);
  ASSERT_TRUE(server.Start().ok());

  LineClient first(server.port());
  ASSERT_TRUE(first.connected());
  // Prove the first connection is established server-side before the
  // second arrives (the cap counts live connections).
  EXPECT_TRUE(first.Roundtrip(R"js({"op":"tables"})js").GetBool("ok"));

  LineClient second(server.port());
  ASSERT_TRUE(second.connected());
  auto v = json::Parse(second.RecvLine());
  ASSERT_TRUE(v.ok());
  EXPECT_FALSE(v->GetBool("ok"));
  EXPECT_EQ(ErrorCode(*v), "ResourceExhausted");
  EXPECT_EQ(second.RecvLine(), "");  // closed after the envelope
  server.Stop();
}

TEST(ServerTest, CancelFromASecondConnectionInterruptsTheQuery) {
  engine::EngineOptions eopts;
  eopts.num_threads = 2;
  engine::Engine engine(eopts);
  ASSERT_TRUE(engine.GenerateDataset("stocks", 4000, 3).ok());
  Server server(&engine, {});
  ASSERT_TRUE(server.Start().ok());

  LineClient worker(server.port());
  ASSERT_TRUE(worker.connected());
  json::Value hello = worker.Roundtrip(R"js({"op":"hello"})js");
  ASSERT_TRUE(hello.GetBool("ok"));
  const int64_t session = hello.Find("result")->GetInt("session");
  ASSERT_GT(session, 0);

  // Fire a long-running query on the worker connection, then cancel it
  // from a second connection via the shared session id.
  ASSERT_TRUE(worker.SendLine(
      R"js({"op":"query","session":)js" + std::to_string(session) +
      R"js(,"paql":"SELECT PACKAGE(S) FROM stocks S SUCH THAT )js"
      R"js(COUNT(*) = 12 AND SUM(price) BETWEEN 5000 AND 5010 )js"
      R"js(MAXIMIZE SUM(expected_gain)"})js"));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  LineClient controller(server.port());
  ASSERT_TRUE(controller.connected());
  json::Value cancel = controller.Roundtrip(
      R"js({"op":"cancel","session":)js" + std::to_string(session) + "}");
  EXPECT_TRUE(cancel.GetBool("ok")) << cancel.Dump();

  auto envelope = json::Parse(worker.RecvLine());
  ASSERT_TRUE(envelope.ok());
  // Cancelled (expected) or — if the solve won the race — complete.
  if (envelope->GetBool("ok")) {
    const json::Value* result = envelope->Find("result");
    ASSERT_NE(result, nullptr);
    if (result->GetBool("cancelled")) {
      EXPECT_FALSE(result->GetBool("proven_optimal"));
    }
  } else {
    EXPECT_EQ(ErrorCode(*envelope), "ResourceExhausted");
  }
  server.Stop();
}

}  // namespace
}  // namespace pb::server
