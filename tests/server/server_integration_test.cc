// End-to-end serving tests: many concurrent TCP clients against one
// admission-controlled KgSession, asserting that every socket answer is
// bit-identical to the in-process answer (including rejection and deadline
// outcomes under overload), that a client disconnecting mid-request gives
// its admission slot back, and that /healthz stays responsive while every
// query slot is flooded.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/protocol.h"
#include "api/session.h"
#include "server/client.h"
#include "server/tcp_server.h"
#include "testing/car_fixture.h"
#include "util/json.h"

namespace kgsearch {
namespace {

using testing_fixture::CarRequest;
using testing_fixture::RegisterCars;

std::string ErrorCode(const std::string& document) {
  Result<JsonValue> parsed = JsonValue::Parse(document);
  if (!parsed.ok()) return "<unparseable: " + document + ">";
  const JsonValue* error = parsed.ValueOrDie().Find("error");
  if (error == nullptr) return "";
  const JsonValue* code = error->Find("code");
  return code == nullptr ? "<no code>" : code->string_value();
}

/// Parks every worker of the session's shared pool until Release();
/// submitted queries verifiably hold admission slots without executing.
struct SessionPoolBlocker {
  explicit SessionPoolBlocker(KgSession* session,
                              const std::string& dataset) {
    ThreadPool* pool = session->service(dataset)->executor();
    const size_t workers = pool->num_threads();
    std::vector<std::future<void>> running;
    for (size_t i = 0; i < workers; ++i) {
      auto started = std::make_shared<std::promise<void>>();
      running.push_back(started->get_future());
      done.push_back(pool->Submit([this, started] {
        started->set_value();
        gate_future.wait();
      }));
    }
    for (auto& r : running) r.wait();
  }
  void Release() {
    gate.set_value();
    for (auto& d : done) d.wait();
  }
  std::promise<void> gate;
  std::shared_future<void> gate_future = gate.get_future().share();
  std::vector<std::future<void>> done;
};

/// Polls Stats() until `pred` holds or ~2s elapse.
template <typename Pred>
bool EventuallyStats(KgSession* session, Pred pred) {
  for (int i = 0; i < 200; ++i) {
    auto stats = session->Stats("cars");
    if (stats.ok() && pred(stats.ValueOrDie())) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

TEST(ServerIntegrationTest, ConcurrentClientsGetBitIdenticalAnswers) {
  KgSessionOptions options;
  options.num_threads = 4;
  KgSession session(options);
  ASSERT_TRUE(RegisterCars(&session).ok());
  TcpServer server(&session);
  ASSERT_TRUE(server.Start().ok());

  // Three distinct requests with known answers (the third is a TBQ
  // request, so both modes are exercised concurrently).
  QueryRequest tbq = CarRequest("?Car product GER");
  tbq.mode = QueryMode::kTbq;
  tbq.options.time_bound_micros = 10'000'000;
  const std::vector<QueryRequest> requests = {
      CarRequest("?Car product GER"),
      CarRequest("?Car assembly GER"),
      tbq,
  };
  std::vector<QueryResponse> references;
  for (const QueryRequest& request : requests) {
    auto r = session.Query(request);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    references.push_back(r.ValueOrDie());
  }
  ASSERT_FALSE(references[0].answers.empty());

  constexpr int kClients = 6;  // >= 4 required by the acceptance criteria
  constexpr int kRequestsPerClient = 25;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Result<NdjsonClient> client =
          NdjsonClient::Connect("127.0.0.1", server.port());
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kRequestsPerClient; ++i) {
        const size_t which = static_cast<size_t>(c + i) % requests.size();
        Result<std::string> answer = client.ValueOrDie().Call(
            EncodeQueryRequestJson(requests[which]));
        if (!answer.ok()) {
          failures.fetch_add(1);
          return;
        }
        Result<QueryResponse> response =
            DecodeQueryResponseJson(answer.ValueOrDie());
        if (!response.ok()) {
          failures.fetch_add(1);
          return;
        }
        // Bit-identical payload: answers (ids, names, types, exact double
        // scores), dataset, and mode. Timings legitimately differ.
        const QueryResponse& got = response.ValueOrDie();
        const QueryResponse& want = references[which];
        if (got.answers != want.answers || got.dataset != want.dataset ||
            got.mode != want.mode) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  const ServiceStatsSnapshot stats = session.Stats("cars").ValueOrDie();
  // The in-process references plus every socket query completed.
  EXPECT_EQ(stats.queries_total,
            references.size() + kClients * kRequestsPerClient);
  EXPECT_EQ(stats.queries_rejected, 0u);
}

TEST(ServerIntegrationTest, OverloadOutcomesMatchInProcessSemantics) {
  // Capacity 2 (1 in flight + 1 queued) with every worker parked: the
  // admission decision for each wire request is fully deterministic.
  KgSessionOptions options;
  options.num_threads = 2;
  options.max_in_flight = 1;
  options.max_queued = 1;
  KgSession session(options);
  ASSERT_TRUE(RegisterCars(&session).ok());
  TcpServer server(&session);
  ASSERT_TRUE(server.Start().ok());

  auto blocker = std::make_unique<SessionPoolBlocker>(&session, "cars");

  Result<NdjsonClient> a = NdjsonClient::Connect("127.0.0.1", server.port());
  Result<NdjsonClient> b = NdjsonClient::Connect("127.0.0.1", server.port());
  Result<NdjsonClient> c = NdjsonClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());

  // A: no deadline — will execute and succeed once released.
  ASSERT_TRUE(a.ValueOrDie()
                  .SendLine(EncodeQueryRequestJson(CarRequest(
                      "?Car product GER")))
                  .ok());
  ASSERT_TRUE(EventuallyStats(&session, [](const ServiceStatsSnapshot& s) {
    return s.admitted_outstanding == 1;
  }));

  // B: 1ms deadline — admitted into the queue slot, burns its budget
  // there, and must come back DeadlineExceeded.
  QueryRequest doomed = CarRequest("?Car product GER");
  doomed.deadline_ms = 1;
  ASSERT_TRUE(
      b.ValueOrDie().SendLine(EncodeQueryRequestJson(doomed)).ok());
  ASSERT_TRUE(EventuallyStats(&session, [](const ServiceStatsSnapshot& s) {
    return s.admitted_outstanding == 2;
  }));

  // C: over capacity — rejected immediately, while the workers are still
  // parked (fail-fast, not queue-and-wait).
  Result<std::string> rejected = c.ValueOrDie().Call(
      EncodeQueryRequestJson(CarRequest("?Car product GER")));
  ASSERT_TRUE(rejected.ok()) << rejected.status().ToString();
  EXPECT_EQ(ErrorCode(rejected.ValueOrDie()), "ResourceExhausted");

  // Let B's 1ms budget expire in the queue, then release the workers.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  blocker->Release();

  Result<std::string> ok_answer = a.ValueOrDie().ReadLine();
  ASSERT_TRUE(ok_answer.ok()) << ok_answer.status().ToString();
  EXPECT_EQ(ErrorCode(ok_answer.ValueOrDie()), "");
  Result<QueryResponse> response =
      DecodeQueryResponseJson(ok_answer.ValueOrDie());
  ASSERT_TRUE(response.ok());
  auto reference = session.Query(CarRequest("?Car product GER"));
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(response.ValueOrDie().answers, reference.ValueOrDie().answers);

  Result<std::string> expired = b.ValueOrDie().ReadLine();
  ASSERT_TRUE(expired.ok()) << expired.status().ToString();
  EXPECT_EQ(ErrorCode(expired.ValueOrDie()), "DeadlineExceeded");

  // The wire outcomes and the service counters tell the same story.
  const ServiceStatsSnapshot stats = session.Stats("cars").ValueOrDie();
  EXPECT_EQ(stats.queries_rejected, 1u);
  EXPECT_EQ(stats.queries_deadline_exceeded, 1u);
  EXPECT_EQ(stats.admitted_outstanding, 0u);
}

TEST(ServerIntegrationTest, DisconnectMidRequestReleasesAdmissionSlot) {
  KgSessionOptions options;
  options.num_threads = 2;
  options.max_in_flight = 1;
  options.max_queued = 0;
  KgSession session(options);
  ASSERT_TRUE(RegisterCars(&session).ok());
  TcpServerOptions server_options;
  server_options.poll_interval_ms = 5;  // notice the disconnect quickly
  TcpServer server(&session, server_options);
  ASSERT_TRUE(server.Start().ok());

  auto blocker = std::make_unique<SessionPoolBlocker>(&session, "cars");
  {
    Result<NdjsonClient> client =
        NdjsonClient::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client.ValueOrDie()
                    .SendLine(EncodeQueryRequestJson(CarRequest(
                        "?Car product GER")))
                    .ok());
    // The request holds the only admission slot (workers are parked).
    ASSERT_TRUE(EventuallyStats(&session, [](const ServiceStatsSnapshot& s) {
      return s.admitted_outstanding == 1;
    }));
    // Hang up without reading the answer.
  }
  // The server notices the disconnect and cancels the orphaned query; the
  // parked task observes the cancellation once it runs.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  blocker->Release();
  ASSERT_TRUE(EventuallyStats(&session, [](const ServiceStatsSnapshot& s) {
    return s.queries_cancelled == 1 && s.admitted_outstanding == 0;
  })) << "disconnect did not release the admission slot";

  // The freed slot serves the next client normally.
  Result<NdjsonClient> next =
      NdjsonClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(next.ok());
  Result<std::string> answer = next.ValueOrDie().Call(
      EncodeQueryRequestJson(CarRequest("?Car product GER")));
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(ErrorCode(answer.ValueOrDie()), "");
}

TEST(ServerIntegrationTest, HealthzRespondsWhileQuerySlotsAreFlooded) {
  KgSessionOptions options;
  options.num_threads = 2;
  options.max_in_flight = 2;
  options.max_queued = 2;
  KgSession session(options);
  ASSERT_TRUE(RegisterCars(&session).ok());
  TcpServer server(&session);
  ASSERT_TRUE(server.Start().ok());

  auto blocker = std::make_unique<SessionPoolBlocker>(&session, "cars");
  // Fill the entire admission capacity with parked queries.
  std::vector<NdjsonClient> flooders;
  for (int i = 0; i < 4; ++i) {
    Result<NdjsonClient> client =
        NdjsonClient::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok());
    flooders.push_back(std::move(client).ValueOrDie());
    ASSERT_TRUE(flooders.back()
                    .SendLine(EncodeQueryRequestJson(CarRequest(
                        "?Car product GER")))
                    .ok());
  }
  ASSERT_TRUE(EventuallyStats(&session, [](const ServiceStatsSnapshot& s) {
    return s.admitted_outstanding == 4;
  }));

  // Health checks bypass admission entirely and must answer promptly even
  // though zero query slots are free.
  Result<NdjsonClient> probe =
      NdjsonClient::Connect("127.0.0.1", server.port(),
                            /*read_timeout_ms=*/2'000);
  ASSERT_TRUE(probe.ok());
  const auto begin = std::chrono::steady_clock::now();
  Result<std::string> health = probe.ValueOrDie().Call("GET /healthz");
  const auto elapsed = std::chrono::steady_clock::now() - begin;
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(ErrorCode(health.ValueOrDie()), "");
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            1'000);

  blocker->Release();
  for (auto& flooder : flooders) {
    Result<std::string> answer = flooder.ReadLine();
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    EXPECT_EQ(ErrorCode(answer.ValueOrDie()), "");
  }
}

}  // namespace
}  // namespace kgsearch
