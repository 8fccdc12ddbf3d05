// kgbench: runs one benchmark workload against the kgsearch public API and
// writes the run's raw record (latency samples, correctness tallies, spans)
// as one JSON document. perfbench/run.py turns the record into metrics.
//
//   kgbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           --work-dir <dir> --out <file>
//
// Every run generates its own kgpack fixture, loads it through
// KgSession::LoadDataset twice (a dataset that is only queried and one that
// takes live ingest), computes a serial SgqEngine reference over an
// independently loaded copy, and then runs a fixed number of rounds, each a
// closed-loop SGQ/TBQ pass followed by an ingest chunk that ends in a
// compaction. Interleaving the phases spreads every metric over the whole
// run, so a slow moment of the machine weighs on all of them alike. See
// perfbench/README.md for the workloads, rounds and metrics.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/protocol.h"
#include "api/session.h"
#include "core/engine.h"
#include "core/time_bounded.h"
#include "gen/insight_workload.h"
#include "gen/scale_kg.h"
#include "ingest_stream.h"
#include "kg/delta_overlay.h"
#include "kg/snapshot.h"
#include "replay.h"
#include "server/client.h"
#include "server/tcp_server.h"
#include "trace.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace kgsearch::perfbench {
namespace {

constexpr char kDataset[] = "kg";        ///< queried, never written
constexpr char kLiveDataset[] = "live";  ///< takes the ingest stream
constexpr size_t kTopK = 10;
constexpr size_t kPoolThreads = 2;
constexpr size_t kClients = 2;
constexpr uint64_t kNodes = 100'000;
constexpr size_t kDistinctQueries = 128;
/// Each round: kClients closed-loop clients share one shuffled pass over the
/// mix with every query once as SGQ and once as TBQ; then a writer commits
/// kBatchesPerRound batches at a fixed rate while one reader issues
/// kReadsPerRound SGQ reads on the live dataset; then the live
/// dataset is compacted; then one more timed LoadDataset.
constexpr size_t kRounds = 4;  ///< at --seconds 15; scales linearly with it
constexpr double kNominalSeconds = 15.0;
constexpr size_t kBatchesPerRound = 50;
constexpr size_t kOpsPerBatch = 64;
constexpr double kIngestBatchesPerSecond = 50.0;
/// The reader's reads are spread evenly over the chunk's schedule, so each
/// read meets the same delta size however fast the machine runs.
constexpr size_t kReadsPerRound = 32;
constexpr size_t kPostCompactionChecks = 32;

constexpr int64_t kTbqBoundUs = 10'000;

/// The workloads differ only in transport.
struct Workload {
  const char* name = "";
  bool wire = false;
};

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = {{"inproc-100k", false},
                                                  {"wire-mix-100k", true}};
  return workloads;
}

size_t Scaled(size_t count, double seconds) {
  return std::max<size_t>(
      1, static_cast<size_t>(std::lround(static_cast<double>(count) *
                                         seconds / kNominalSeconds)));
}

double MsSince(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e6;
}

void SleepUntilNs(int64_t when_ns) {
  const int64_t wait = when_ns - NowNs();
  if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
}

/// A seeded shuffle of 0..n-1; `stream` separates the shuffles of one run.
std::vector<size_t> Permutation(size_t n, uint64_t seed, uint64_t stream) {
  FastRng rng(MixSeed(seed, stream));
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  for (size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.UniformIndex(i)]);
  }
  return order;
}

Fingerprint AnswersOf(const QueryResponse& response) {
  Fingerprint fp;
  fp.reserve(response.answers.size());
  for (const AnswerDto& a : response.answers) fp.emplace_back(a.id, a.score);
  return fp;
}

JsonValue IdsJson(const Fingerprint& fp) {
  JsonValue ids = JsonValue::Array();
  for (const auto& [id, score] : fp) ids.Append(JsonValue::Uint(id));
  return ids;
}

JsonValue NumbersJson(const std::vector<double>& values) {
  JsonValue out = JsonValue::Array();
  for (double v : values) out.Append(JsonValue::Number(v));
  return out;
}

/// Correctness tally of one thread; merged after the threads join.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;

  void Fail(std::string message) {
    ++failed;
    if (errors.size() < 5) errors.push_back(std::move(message));
  }
  void Merge(const Tally& other) {
    attempted += other.attempted;
    failed += other.failed;
    for (const std::string& e : other.errors) {
      if (errors.size() < 5) errors.push_back(e);
    }
  }
};

/// The serial SgqEngine answer for one distinct query.
struct Expected {
  StatusCode code = StatusCode::kOk;
  Fingerprint answers;
};

/// SGQ answers must match the reference bit for bit, statuses too.
bool CheckSgq(const Expected& expected, StatusCode code,
              const Fingerprint& answers, Tally* tally, const char* where) {
  ++tally->attempted;
  if (code != expected.code) {
    tally->Fail(StrFormat("%s: status %s, reference %s", where,
                          StatusCodeName(code),
                          StatusCodeName(expected.code)));
    return false;
  }
  if (answers != expected.answers) {
    tally->Fail(StrFormat("%s: answers differ from the reference", where));
    return false;
  }
  return true;
}

/// Answers that cannot be compared exactly (TBQ, reads over a moving
/// graph) must carry the reference status, at most k answers, and
/// descending scores.
bool CheckWellFormed(const Expected& expected, StatusCode code,
                     const Fingerprint& answers, Tally* tally,
                     const char* where) {
  ++tally->attempted;
  if (code != expected.code) {
    tally->Fail(StrFormat("%s: status %s, reference %s", where,
                          StatusCodeName(code),
                          StatusCodeName(expected.code)));
    return false;
  }
  bool ordered = true;
  for (size_t i = 1; i < answers.size(); ++i) {
    if (answers[i].second > answers[i - 1].second) ordered = false;
  }
  if (answers.size() > kTopK || !ordered) {
    tally->Fail(StrFormat("%s: malformed answer list", where));
    return false;
  }
  return true;
}

/// Status code and, when answered, the response of one query, in process
/// or from one NDJSON response line (an unreadable line reads as
/// kInternal).
struct Outcome {
  StatusCode code = StatusCode::kInternal;
  std::optional<QueryResponse> response;
};

Outcome FromResult(Result<QueryResponse> response) {
  Outcome out;
  out.code = response.status().code();
  if (response.ok()) out.response = std::move(response).ValueOrDie();
  return out;
}

Outcome ParseResponse(const std::string& line) {
  Outcome out;
  Result<JsonValue> json = JsonValue::Parse(line);
  if (!json.ok()) return out;
  if (const JsonValue* error = json.ValueOrDie().Find("error")) {
    const JsonValue* name = error->Find("code");
    if (name == nullptr || !name->is_string()) return out;
    for (int k = 0; k <= static_cast<int>(StatusCode::kFailedPrecondition);
         ++k) {
      const auto code = static_cast<StatusCode>(k);
      if (name->string_value() == StatusCodeName(code)) out.code = code;
    }
    return out;
  }
  Result<QueryResponse> response = DecodeQueryResponse(json.ValueOrDie());
  if (response.ok()) {
    out.code = StatusCode::kOk;
    out.response = std::move(response).ValueOrDie();
  }
  return out;
}

QueryRequest MakeRequest(const QueryGraph& query, const char* dataset,
                         QueryMode mode) {
  QueryRequest request;
  request.dataset = dataset;
  request.mode = mode;
  request.query_graph = query;
  request.options.k = kTopK;
  request.options.time_bound_micros = kTbqBoundUs;
  return request;
}

/// The first distinct queries of the insight mix (its default seed); four
/// draws per wanted query find them.
std::vector<QueryGraph> DistinctMix(const ScaleKgSpec& spec) {
  InsightMixOptions options;
  options.num_queries = 4 * kDistinctQueries;
  std::set<std::string> seen;
  std::vector<QueryGraph> out;
  for (InsightQuery& q :
       BuildInsightMix(MakeInsightProfile(spec), options)) {
    if (out.size() == kDistinctQueries) break;
    if (seen.insert(EncodeQueryGraph(q.query).Dump()).second) {
      out.push_back(std::move(q.query));
    }
  }
  return out;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = kNominalSeconds;
  bool trace = false;
  std::string work_dir = ".";
  std::string out;
};

class Run {
 public:
  Run(const Workload& w, Args args)
      : w_(w),
        args_(std::move(args)),
        fixture_(StrFormat("%s/%s-%d.kgpack", args_.work_dir.c_str(), w.name,
                           static_cast<int>(::getpid()))) {}
  ~Run() { std::remove(fixture_.c_str()); }
  Run(const Run&) = delete;
  Run& operator=(const Run&) = delete;

  Status Execute();

 private:
  Status Setup();
  /// One timed LoadDataset into `session`, or into a fresh session that is
  /// dropped afterwards when `session` is null.
  Status TimeLoad(KgSession* session, const char* dataset);
  /// One shuffled SGQ+TBQ pass over the mix shared by kClients closed-loop
  /// clients. The warm-up pass (round < 0) is checked but not recorded.
  void QueryRound(int round);
  /// kBatchesPerRound ingest batches at a fixed rate while one reader
  /// issues kReadsPerRound SGQ reads on the live dataset, each at a fixed
  /// point of the schedule or when the previous one returns, whichever is
  /// later; then a compaction.
  void IngestRound(size_t round);
  /// The same batches over a benchmark-owned DeltaOverlay, folded at the
  /// same points; the compacted live dataset must answer exactly like a
  /// serial engine over FoldDelta of that overlay.
  Status CheckFolded();
  Status TraceQueryPath();
  void DeltaViewAStar(const KnowledgeGraph& base, const DeltaSnapshot* delta);
  void ServiceStats();
  Result<NdjsonClient> Connect() const {
    return NdjsonClient::Connect("127.0.0.1", server_->port());
  }

  const Workload& w_;
  Args args_;
  const std::string fixture_;  ///< the generated kgpack file
  std::vector<double> setup_s_;
  std::unique_ptr<KgSession> session_;
  std::unique_ptr<TcpServer> server_;  ///< wire workloads; after session_
  // Wire workloads: one connection per query client, one for the ingest
  // writer and one for the live reader.
  std::vector<NdjsonClient> query_connections_;
  NdjsonClient writer_connection_;
  NdjsonClient reader_connection_;
  DatasetSnapshot reference_;  ///< independent copy of the base dataset
  std::vector<QueryGraph> mix_;
  std::vector<Expected> expected_;
  std::vector<IngestRequest> batches_;
  std::vector<size_t> read_order_;  ///< the live reader's query sequence
  uint64_t last_epoch_ = 0;
  uint64_t request_id_ = 0;
  Tally tally_;
  Trace trace_;
  JsonValue raw_ = JsonValue::Object();
  JsonValue query_rows_ = JsonValue::Array();
  std::vector<double> round_wall_s_;
  std::vector<double> ingest_ms_;
  std::vector<double> lag_ms_;
  std::vector<double> compact_ms_;
  std::vector<double> read_ms_;
};

Status Run::TimeLoad(KgSession* session, const char* dataset) {
  std::unique_ptr<KgSession> scratch;
  if (session == nullptr) {
    KgSessionOptions options;
    options.num_threads = kPoolThreads;
    scratch = std::make_unique<KgSession>(options);
    session = scratch.get();
  }
  DatasetLoadOptions load;
  load.graph_path = fixture_;
  const int64_t start = NowNs();
  const Status loaded = session->LoadDataset(dataset, load);
  setup_s_.push_back(MsSince(start, NowNs()) / 1e3);
  return loaded;
}

Status Run::Setup() {
  const ScaleKgSpec spec = ScaleSpecFor(kNodes);
  KG_RETURN_NOT_OK(GenerateScaleKgToFile(spec, fixture_).status());
  KgSessionOptions options;
  options.num_threads = kPoolThreads;
  session_ = std::make_unique<KgSession>(options);
  KG_RETURN_NOT_OK(TimeLoad(session_.get(), kDataset));
  KG_RETURN_NOT_OK(TimeLoad(session_.get(), kLiveDataset));

  Result<DatasetSnapshot> reference = LoadSnapshot(fixture_);
  KG_RETURN_NOT_OK(reference.status());
  reference_ = std::move(reference).ValueOrDie();

  // The graph and the query set are fixed so that seeds compare like with
  // like; the seed orders the requests and drives the ingest batches.
  mix_ = DistinctMix(spec);
  raw_.Set("distinct_queries", JsonValue::Uint(mix_.size()));
  const size_t rounds = Scaled(kRounds, args_.seconds);
  batches_ = MakeIngestBatches(*reference_.graph, kLiveDataset,
                               rounds * kBatchesPerRound, kOpsPerBatch,
                               args_.seed);
  for (size_t pass = 0; read_order_.size() < rounds * kReadsPerRound;
       ++pass) {
    const std::vector<size_t> order =
        Permutation(mix_.size(), args_.seed, 3000 + pass);
    read_order_.insert(read_order_.end(), order.begin(), order.end());
  }

  // Untimed serial reference pass.
  const SgqEngine serial(reference_.graph.get(), reference_.space.get(),
                         &reference_.library);
  EngineOptions engine_options;
  engine_options.k = kTopK;
  engine_options.threads = 1;
  expected_.resize(mix_.size());
  for (size_t q = 0; q < mix_.size(); ++q) {
    Result<QueryResult> r = serial.Query(mix_[q], engine_options);
    expected_[q].code = r.status().code();
    if (r.ok()) {
      for (const FinalMatch& m : r.ValueOrDie().matches) {
        expected_[q].answers.emplace_back(m.pivot_match, m.score);
      }
    }
  }

  if (w_.wire) {
    server_ = std::make_unique<TcpServer>(session_.get());
    KG_RETURN_NOT_OK(server_->Start());
    for (size_t c = 0; c < kClients; ++c) {
      Result<NdjsonClient> client = Connect();
      KG_RETURN_NOT_OK(client.status());
      query_connections_.push_back(std::move(client).ValueOrDie());
    }
    Result<NdjsonClient> client = Connect();
    KG_RETURN_NOT_OK(client.status());
    writer_connection_ = std::move(client).ValueOrDie();
    client = Connect();
    KG_RETURN_NOT_OK(client.status());
    reader_connection_ = std::move(client).ValueOrDie();
  }
  return Status::OK();
}

void Run::QueryRound(int round) {
  const size_t m = mix_.size();
  // Item i < m is query i as SGQ, item m + i query i as TBQ.
  const std::vector<size_t> items = Permutation(
      2 * m, args_.seed, static_cast<uint64_t>(round + 1));
  std::vector<std::string> lines;
  if (w_.wire) {
    // Encoded before the clock starts. The seed option only steers the
    // kRandom pivot strategy, so with the default kMinCost it leaves
    // answers alone; a fresh value per request keeps the plan cache from
    // hitting on repeated queries.
    for (const size_t item : items) {
      QueryRequest request =
          MakeRequest(mix_[item % m], kDataset,
                      item < m ? QueryMode::kSgq : QueryMode::kTbq);
      request.options.seed = ++request_id_;
      lines.push_back(EncodeQueryRequestJson(request));
    }
  }
  struct Client {
    Tally tally;
    JsonValue rows = JsonValue::Array();
  };
  std::vector<Client> clients(kClients);
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  const int64_t start = NowNs();
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client& client = clients[c];
      for (size_t i = next++; i < items.size(); i = next++) {
        const size_t q = items[i] % m;
        const bool tbq = items[i] >= m;
        const QueryMode mode = tbq ? QueryMode::kTbq : QueryMode::kSgq;
        Outcome outcome;
        const int64_t sent = NowNs();
        if (w_.wire) {
          NdjsonClient& connection = query_connections_[c];
          if (connection.SendLine(lines[i]).ok()) {
            Result<std::string> line = connection.ReadLine();
            if (line.ok()) outcome = ParseResponse(line.ValueOrDie());
          }
        } else {
          outcome = FromResult(session_->Query(
              MakeRequest(mix_[q], kDataset, mode)));
        }
        const double ms = MsSince(sent, NowNs());
        const Fingerprint answers = outcome.response.has_value()
                                        ? AnswersOf(*outcome.response)
                                        : Fingerprint{};
        const bool correct =
            tbq ? CheckWellFormed(expected_[q], outcome.code, answers,
                                  &client.tally, "tbq")
                : CheckSgq(expected_[q], outcome.code, answers, &client.tally,
                           "sgq");
        if (round < 0 || !correct || !outcome.response.has_value()) continue;
        JsonValue row = JsonValue::Object();
        row.Set("r", JsonValue::Int(round));
        row.Set("q", JsonValue::Uint(q));
        row.Set("tbq", JsonValue::Bool(tbq));
        row.Set("ms", JsonValue::Number(ms));
        const QueryResponse& response = *outcome.response;
        row.Set("total_ms", JsonValue::Number(response.timings.total_ms));
        if (tbq) {
          row.Set("stopped", JsonValue::Bool(response.stopped_by_time));
          row.Set("ids", IdsJson(answers));
          row.Set("ref", IdsJson(expected_[q].answers));
        }
        client.rows.Append(std::move(row));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall_s = MsSince(start, NowNs()) / 1e3;
  for (Client& client : clients) {
    tally_.Merge(client.tally);
    for (const JsonValue& row : client.rows.items()) query_rows_.Append(row);
  }
  if (round >= 0) round_wall_s_.push_back(wall_s);
}

void Run::IngestRound(size_t round) {
  const auto ingest =
      [&](const IngestRequest& batch) -> Result<IngestResponse> {
    if (!w_.wire) return session_->Ingest(batch);
    KG_RETURN_NOT_OK(
        writer_connection_.SendLine(EncodeIngestRequestJson(batch)));
    Result<std::string> line = writer_connection_.ReadLine();
    KG_RETURN_NOT_OK(line.status());
    return DecodeIngestResponseJson(line.ValueOrDie());
  };
  const auto read = [&](size_t q) -> Outcome {
    const QueryRequest request =
        MakeRequest(mix_[q], kLiveDataset, QueryMode::kSgq);
    if (!w_.wire) return FromResult(session_->Query(request));
    if (!reader_connection_.SendLine(EncodeQueryRequestJson(request)).ok()) {
      return Outcome{};
    }
    Result<std::string> line = reader_connection_.ReadLine();
    return line.ok() ? ParseResponse(line.ValueOrDie()) : Outcome{};
  };

  Tally writer_tally;
  Tally reader_tally;
  const size_t first = round * kBatchesPerRound;
  const int64_t start_ns = NowNs();
  std::thread writer([&] {
    for (size_t i = 0; i < kBatchesPerRound; ++i) {
      const IngestRequest& batch = batches_[first + i];
      const int64_t due =
          start_ns + static_cast<int64_t>(static_cast<double>(i) * 1e9 /
                                          kIngestBatchesPerSecond);
      SleepUntilNs(due);
      const int64_t sent = NowNs();
      lag_ms_.push_back(MsSince(due, sent));
      Result<IngestResponse> ack = ingest(batch);
      ingest_ms_.push_back(MsSince(sent, NowNs()));
      ++writer_tally.attempted;
      if (!ack.ok()) {
        writer_tally.Fail("ingest: " + ack.status().ToString());
      } else if (ack.ValueOrDie().ops_applied != batch.ops.size() ||
                 ack.ValueOrDie().epoch <= last_epoch_) {
        writer_tally.Fail("ingest: ack with wrong epoch or op count");
      } else {
        last_epoch_ = ack.ValueOrDie().epoch;
      }
    }
  });
  std::thread reader([&] {
    const double spacing_s = static_cast<double>(kBatchesPerRound) /
                             kIngestBatchesPerSecond /
                             static_cast<double>(kReadsPerRound);
    for (size_t i = 0; i < kReadsPerRound; ++i) {
      const size_t q = read_order_[round * kReadsPerRound + i];
      SleepUntilNs(start_ns + static_cast<int64_t>(
                                  (static_cast<double>(i) + 0.5) *
                                  spacing_s * 1e9));
      const int64_t sent = NowNs();
      const Outcome outcome = read(q);
      const double ms = MsSince(sent, NowNs());
      const Fingerprint answers = outcome.response.has_value()
                                      ? AnswersOf(*outcome.response)
                                      : Fingerprint{};
      if (CheckWellFormed(expected_[q], outcome.code, answers, &reader_tally,
                          "live read") &&
          outcome.response.has_value()) {
        read_ms_.push_back(ms);
      }
    }
  });
  writer.join();
  reader.join();
  tally_.Merge(writer_tally);
  tally_.Merge(reader_tally);

  // Compacted alone, so that its time does not depend on how far the
  // reader got.
  const int64_t compact_start = NowNs();
  const Status compacted = session_->CompactDataset(kLiveDataset);
  compact_ms_.push_back(MsSince(compact_start, NowNs()));
  ++tally_.attempted;
  if (!compacted.ok()) tally_.Fail("compact: " + compacted.ToString());
  last_epoch_ = 0;  // a compacted dataset starts a fresh overlay
}

Status Run::CheckFolded() {
  std::unique_ptr<KnowledgeGraph> folded;
  const KnowledgeGraph* base = reference_.graph.get();
  for (size_t begin = 0; begin < batches_.size();
       begin += kBatchesPerRound) {
    DeltaOverlay overlay(base);
    for (size_t i = begin; i < begin + kBatchesPerRound; ++i) {
      const MutationBatch batch = ToMutationBatch(batches_[i]);
      const int32_t span =
          trace_.Begin("kg.commit", static_cast<uint32_t>(i));
      const Result<uint64_t> epoch = overlay.Commit(batch);
      trace_.End(span);
      if (!epoch.ok()) return epoch.status();
    }
    const std::shared_ptr<const DeltaSnapshot> delta = overlay.Snapshot();
    if (args_.trace && begin + kBatchesPerRound == batches_.size()) {
      DeltaViewAStar(*base, delta.get());
    }
    const int32_t span =
        trace_.Begin("kg.fold", static_cast<uint32_t>(begin));
    Result<std::unique_ptr<KnowledgeGraph>> next =
        FoldDelta(*base, delta.get());
    trace_.End(span);
    KG_RETURN_NOT_OK(next.status());
    trace_.at(span).counts[0] =
        static_cast<int64_t>(delta ? delta->node_names.size() : 0);
    folded = std::move(next).ValueOrDie();
    base = folded.get();
  }

  // Every round ended in a compaction, so the live dataset is folded too.
  const SgqEngine folded_engine(folded.get(), reference_.space.get(),
                                &reference_.library);
  EngineOptions engine_options;
  engine_options.k = kTopK;
  engine_options.threads = 1;
  for (size_t q = 0; q < std::min(mix_.size(), kPostCompactionChecks);
       ++q) {
    Expected expected;
    Result<QueryResult> r = folded_engine.Query(mix_[q], engine_options);
    expected.code = r.status().code();
    if (r.ok()) {
      for (const FinalMatch& fm : r.ValueOrDie().matches) {
        expected.answers.emplace_back(fm.pivot_match, fm.score);
      }
    }
    Result<QueryResponse> response = session_->Query(
        MakeRequest(mix_[q], kLiveDataset, QueryMode::kSgq));
    (void)CheckSgq(expected, response.status().code(),
                   response.ok() ? AnswersOf(response.ValueOrDie())
                                 : Fingerprint{},
                   &tally_, "after compaction");
  }
  return Status::OK();
}

void Run::ServiceStats() {
  Result<ServiceStatsSnapshot> stats = session_->Stats(kDataset);
  if (!stats.ok()) return;
  const ServiceStatsSnapshot& s = stats.ValueOrDie();
  JsonValue json = JsonValue::Object();
  json.Set("plan_hits", JsonValue::Uint(s.decomposition_cache_hits));
  json.Set("plan_misses", JsonValue::Uint(s.decomposition_cache_misses));
  json.Set("matcher_hits", JsonValue::Uint(s.matcher_cache_hits -
                                           s.matcher_cache_stale_hits));
  json.Set("matcher_misses", JsonValue::Uint(s.matcher_cache_misses +
                                             s.matcher_cache_stale_hits));
  raw_.Set("service", std::move(json));
}

/// Traced run only: per-stage replay of every distinct query, the facade
/// and JSON codec costs, and TBQ calibration, each timed from outside.
Status Run::TraceQueryPath() {
  QueryService* service = session_->service(kDataset);
  if (service == nullptr) return Status::Internal("dataset has no service");
  EngineOptions engine_options = ToEngineOptions(RequestOptions{});
  engine_options.k = kTopK;
  const SgqEngine serial(reference_.graph.get(), reference_.space.get(),
                         &reference_.library);
  EngineOptions serial_options = engine_options;
  serial_options.threads = 1;
  JsonValue facade_ms = JsonValue::Array();
  JsonValue serial_ms = JsonValue::Array();
  uint64_t mismatches = 0;
  for (size_t q = 0; q < mix_.size(); ++q) {
    const uint32_t id = static_cast<uint32_t>(q);
    const QueryRequest request =
        MakeRequest(mix_[q], kDataset, QueryMode::kSgq);

    const std::string line = EncodeQueryRequestJson(request);
    int32_t span = trace_.Begin("api.decode", id);
    const bool decoded = DecodeQueryRequestJson(line).ok();
    trace_.End(span);
    if (!decoded) return Status::Internal("request JSON did not decode");

    int64_t start = NowNs();
    Result<QueryResponse> response = session_->Query(request);
    const double session_ms = MsSince(start, NowNs());
    start = NowNs();
    Result<QueryResult> direct = service->Query(mix_[q], engine_options);
    const double service_ms = MsSince(start, NowNs());
    if (response.ok() && direct.ok()) {
      facade_ms.Append(JsonValue::Number(session_ms - service_ms));
      span = trace_.Begin("api.encode", id);
      const std::string encoded =
          EncodeQueryResponseJson(response.ValueOrDie());
      trace_.End(span);
    }

    span = trace_.Begin("core.tbq_calibrate", id);
    (void)TbqEngine::CalibrateAssemblyCostMicros(SystemClock::Default());
    trace_.End(span);

    // The same work untraced, next to the replay, for the tracing overhead.
    start = NowNs();
    (void)serial.Query(mix_[q], serial_options).ok();
    serial_ms.Append(JsonValue::Number(MsSince(start, NowNs())));
    const ReplayResult replayed =
        ReplaySgq(GraphView(*reference_.graph), *reference_.space,
                  reference_.library, mix_[q], engine_options, id, &trace_);
    // Served answers were checked equal to the reference, so a replay equal
    // to the reference is equal to every served answer of this query.
    if (replayed.code != expected_[q].code ||
        replayed.answers != expected_[q].answers) {
      ++mismatches;
    }
  }
  raw_.Set("facade_ms", std::move(facade_ms));
  raw_.Set("serial_ms", std::move(serial_ms));
  raw_.Set("replay_mismatches", JsonValue::Uint(mismatches));
  if (mismatches > 0) {
    ++tally_.attempted;
    tally_.Fail(StrFormat("replay: %llu answers differ from the served ones",
                          static_cast<unsigned long long>(mismatches)));
  }
  return Status::OK();
}

/// Traced run only: A* over a base+delta view against A* over the base
/// alone, for the same queries, first retry round's budget.
void Run::DeltaViewAStar(const KnowledgeGraph& base_graph,
                         const DeltaSnapshot* delta) {
  const GraphView base(base_graph);
  const GraphView live(&base_graph, delta);
  const EngineOptions defaults;
  for (size_t q = 0; q < std::min<size_t>(mix_.size(), 64); ++q) {
    for (const GraphView* view : {&base, &live}) {
      const NodeMatcher matcher(*view, &reference_.library);
      Result<Decomposition> d = DecomposeQuery(
          mix_[q], MakeDecomposeOptions(*view, defaults.pivot_strategy,
                                        defaults.n_hat, defaults.seed));
      if (!d.ok()) continue;
      const int32_t root =
          trace_.Begin(view == &base ? "kg.astar_base" : "kg.astar_delta",
                       static_cast<uint32_t>(q));
      for (const SubQueryGraph& sub : d.ValueOrDie().subqueries) {
        Result<ResolvedSubQuery> r = ResolveSubQuery(mix_[q], sub, matcher);
        if (!r.ok()) break;
        AStarConfig config;
        config.k = std::max<size_t>(defaults.budget_factor * kTopK, 16);
        config.max_expansions = defaults.max_expansions;
        (void)AStarSearch(*view, *reference_.space, r.ValueOrDie(), config)
            .ok();
      }
      trace_.End(root);
    }
  }
}

Status Run::Execute() {
  JsonValue phase_s = JsonValue::Object();
  int64_t start = NowNs();
  const auto lap = [&](const char* phase) {
    phase_s.Set(phase, JsonValue::Number(MsSince(start, NowNs()) / 1e3));
    start = NowNs();
  };
  KG_RETURN_NOT_OK(Setup());
  QueryRound(-1);  // warm-up: caches filled, lazy set-up done
  lap("setup");
  const size_t rounds = Scaled(kRounds, args_.seconds);
  for (size_t round = 0; round < rounds; ++round) {
    QueryRound(static_cast<int>(round));
    IngestRound(round);
    KG_RETURN_NOT_OK(TimeLoad(nullptr, kDataset));
  }
  lap("rounds");
  ServiceStats();
  if (args_.trace) {
    KG_RETURN_NOT_OK(TraceQueryPath());
    lap("trace");
  }
  KG_RETURN_NOT_OK(CheckFolded());
  lap("check");

  raw_.Set("setup_s", NumbersJson(setup_s_));
  raw_.Set("phase_s", std::move(phase_s));
  raw_.Set("round_wall_s", NumbersJson(round_wall_s_));
  raw_.Set("queries", std::move(query_rows_));
  raw_.Set("tbq_bound_ms",
           JsonValue::Number(static_cast<double>(kTbqBoundUs) / 1e3));
  JsonValue ingest = JsonValue::Object();
  ingest.Set("ingest_ms", NumbersJson(ingest_ms_));
  ingest.Set("lag_ms", NumbersJson(lag_ms_));
  ingest.Set("compact_ms", NumbersJson(compact_ms_));
  ingest.Set("read_ms", NumbersJson(read_ms_));
  raw_.Set("ingest", std::move(ingest));

  raw_.Set("workload", JsonValue::String(w_.name));
  raw_.Set("seed", JsonValue::Uint(args_.seed));
  raw_.Set("attempted", JsonValue::Uint(tally_.attempted));
  raw_.Set("failed", JsonValue::Uint(tally_.failed));
  JsonValue errors = JsonValue::Array();
  for (const std::string& e : tally_.errors) {
    errors.Append(JsonValue::String(e));
  }
  raw_.Set("errors", std::move(errors));
  if (args_.trace) raw_.Set("spans", trace_.ToJson());

  std::ofstream out(args_.out, std::ios::binary | std::ios::trunc);
  out << raw_.Dump() << "\n";
  out.close();
  if (!out) return Status::IOError("cannot write " + args_.out);
  return Status::OK();
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--out") {
      args.out = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (args.out.empty() || !(args.seconds > 0.0)) {
    std::fprintf(stderr,
                 "usage: kgbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --work-dir <dir> --out <file>\n");
    return 2;
  }
  for (const Workload& w : Workloads()) {
    if (args.workload != w.name) continue;
    Run run(w, args);
    const Status status = run.Execute();
    if (!status.ok()) {
      std::fprintf(stderr, "kgbench: %s\n", status.ToString().c_str());
      return 1;
    }
    return 0;
  }
  std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
  return 2;
}

}  // namespace
}  // namespace kgsearch::perfbench

int main(int argc, char** argv) {
  return kgsearch::perfbench::Main(argc, argv);
}
