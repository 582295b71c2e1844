// e2ebench — the repository's end-to-end benchmark (see README.md).
//
//   e2ebench --workload rds_served|sds_served|write_mix --seed N
//            --seconds S --trace 0|1 [--smoke 1] [--commit SHA]
//            [--workdir DIR] [--zipf S] [--admin-every N]
//   e2ebench --digest N --seed S   # request-stream digests (self-test)
//
// One process hosts ecdr_serve's Server in-process over the synthetic
// serve testbed (2 workers, knds.num_threads = 1, durable with
// fsync=always) and drives it from kClientConnections closed-loop
// keep-alive connections. Every served answer is checked. The last
// stdout line is the result object: end-to-end metrics with --trace 0,
// per-layer metrics with --trace 1.

#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/ranking_engine.h"
#include "http_client.h"
#include "layers.h"
#include "oracle.h"
#include "serve/server.h"
#include "workloads.h"

#ifndef E2EBENCH_COMPILER
#define E2EBENCH_COMPILER "unknown"
#endif
#ifndef E2EBENCH_BUILD_TYPE
#define E2EBENCH_BUILD_TYPE "unknown"
#endif

namespace e2ebench {
namespace {

using ecdr::core::RankingEngine;

constexpr std::size_t kOracleThreads = 4;
/// The timed phase is cut into this many windows (see Summarize).
constexpr int kWindowsPerRun = 10;
/// Windows whose CPU steal exceeds this share are left out (Summarize).
constexpr double kMaxStealShare = 0.01;

struct Args {
  std::string workload = "rds_served";
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string commit = "unknown";
  std::string workdir = ".bench_build/e2ebench-work";
  std::size_t digest = 0;
  // Traffic-shape overrides, for checking what the findings depend on.
  double zipf = kZipfExponent;
  std::uint64_t admin_every = kAdminEvery;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value != "0";
    } else if (flag == "--smoke") {
      args->smoke = value != "0";
    } else if (flag == "--commit") {
      args->commit = value;
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else if (flag == "--digest") {
      args->digest = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--zipf") {
      args->zipf = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--admin-every") {
      args->admin_every = std::strtoull(value.c_str(), nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (argc % 2 == 0) {
    std::fprintf(stderr, "flags come in '--name value' pairs\n");
    return false;
  }
  return args->seconds > 0.0;
}

/// The served system. Members destroy in reverse order: the server
/// stops (joining its threads) before the engine it points into goes.
struct Served {
  std::unique_ptr<RankingEngine> engine;
  std::unique_ptr<ecdr::serve::Server> server;
};

/// Engine open + corpus load + Server::Start until the first 200
/// /healthz, timed into *setup_s. Ontology generation is not timed.
std::unique_ptr<Served> StartServed(const TestbedSpec& spec,
                                    const ecdr::corpus::Corpus& corpus,
                                    const std::string& data_dir,
                                    double* setup_s) {
  auto ontology = MakeOntology(spec);
  if (!ontology.ok()) {
    std::fprintf(stderr, "%s\n", ontology.status().ToString().c_str());
    return nullptr;
  }
  std::error_code ignored;
  std::filesystem::remove_all(data_dir, ignored);
  ecdr::core::RankingEngineOptions options;
  options.knds.num_threads = kKndsThreads;
  options.storage.data_dir = data_dir;
  options.storage.fsync_mode = ecdr::storage::StoreOptions::FsyncMode::kAlways;

  const Clock::time_point start = Clock::now();
  auto served = std::make_unique<Served>();
  auto opened = RankingEngine::Open(std::move(*ontology), options);
  if (!opened.ok()) {
    std::fprintf(stderr, "%s\n", opened.status().ToString().c_str());
    return nullptr;
  }
  served->engine = std::move(opened).value();
  const ecdr::util::Status added = served->engine->AddCorpus(corpus);
  if (!added.ok()) {
    std::fprintf(stderr, "%s\n", added.ToString().c_str());
    return nullptr;
  }
  ecdr::serve::ServerOptions server_options;
  server_options.num_workers = kServerWorkers;
  served->server = std::make_unique<ecdr::serve::Server>(served->engine.get(),
                                                         server_options);
  const ecdr::util::Status started = served->server->Start();
  if (!started.ok()) {
    std::fprintf(stderr, "%s\n", started.ToString().c_str());
    return nullptr;
  }
  HttpClient client(served->server->port());
  std::string body;
  const std::string healthz = RenderGet("/healthz");
  while (client.Exchange(healthz, &body) != 200) {
    if (SecondsSince(start) > 60.0) {
      std::fprintf(stderr, "server never answered /healthz\n");
      return nullptr;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  *setup_s = SecondsSince(start);
  return served;
}

enum class OpKind : std::uint8_t { kSearch, kWrite, kAdmin };

struct Sample {
  OpKind kind = OpKind::kSearch;
  WriteOp::Kind write_kind = WriteOp::Kind::kAdd;
  int status = 0;
  bool ok = false;  // 200 and, once checked, the right answer
  bool traced = false;
  int slice = 0;
  double at_s = 0.0;  // completion, seconds into the slice
  double latency_ms = 0.0;
  std::uint32_t index = 0;  // rds: pool index; sds: document id
  std::string body;         // search responses, for checking
};

/// One closed-loop exchange: bytes sent -> response fully read.
void TimedExchange(HttpClient* client, const std::string& request,
                   Sample* sample) {
  const Clock::time_point start = Clock::now();
  sample->status = client->Exchange(request, &sample->body);
  sample->latency_ms = SecondsSince(start) * 1e3;
}

/// The acknowledgement a write must get: the predicted id, echoed.
bool AckMatches(const WriteOp& op, const std::string& body) {
  std::string want;
  switch (op.kind) {
    case WriteOp::Kind::kAdd:
      want = "{\"id\":" + std::to_string(op.doc) + ",";
      break;
    case WriteOp::Kind::kUpdate:
      want = "{\"updated\":" + std::to_string(op.doc) + ",";
      break;
    case WriteOp::Kind::kDelete:
      want = "{\"deleted\":" + std::to_string(op.doc) + ",";
      break;
    case WriteOp::Kind::kCheckpoint:
      want = "{\"checkpointed\":true";
      break;
    case WriteOp::Kind::kCompact:
      want = "{\"compacted\":true";
      break;
    case WriteOp::Kind::kAddConcept:
      want = "{\"concept\":" + std::to_string(op.concept_id) + ",";
      break;
  }
  return body.rfind(want, 0) == 0;
}

/// Sends a connection's next request and fills *sample; false when the
/// connection's stream has nothing left to send.
using Step = std::function<bool(HttpClient*, Sample*)>;

/// Counter readings at a slice boundary (traced slices only).
struct Counters {
  HistogramSnapshot queue_wait;
  HistogramSnapshot handler;
  ecdr::util::CacheCounters memo;
  std::uint64_t published = 0;

  static Counters Read(const Served& served) {
    return Counters{HistogramSnapshot::Of(served.server->queue_wait_histogram()),
                    HistogramSnapshot::Of(served.server->latency_histogram()),
                    served.engine->ddq_memo_counters(),
                    served.engine->snapshot_stats().published};
  }
};

/// What the traced slices saw, for the per-layer ledger.
struct TraceLedger {
  explicit TraceLedger(const Served& served)
      : queue_wait(served.server->queue_wait_histogram()),
        handler(served.server->latency_histogram()) {}
  HistogramDelta queue_wait;
  HistogramDelta handler;
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_misses = 0;
  std::uint64_t published = 0;
  std::size_t retired_live_max = 0;
  std::size_t queue_depth_max = 0;
};

/// Runs every connection's closed loop for `seconds`, or until one
/// connection's stream runs out, tagging samples with `slice` and
/// appending the steal jiffies of each of its `windows` windows of
/// `window_s` to *steal. Traced slices also poll the engine and server
/// gauges from a sampler thread and record counter deltas.
void RunSlice(int slice, double seconds, int windows, double window_s,
              bool traced, const Served& served,
              std::vector<std::unique_ptr<HttpClient>>& clients,
              const std::vector<Step>& steps,
              std::vector<std::vector<Sample>>* samples,
              std::vector<std::uint64_t>* steal, TraceLedger* ledger) {
  const Counters before = traced ? Counters::Read(served) : Counters{};
  const Clock::time_point start = Clock::now();
  const auto at = [&](double s) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(s));
  };
  const Clock::time_point end = at(seconds);
  std::thread steal_clock([&] {
    std::uint64_t last = StealJiffies();
    for (int w = 1; w <= windows; ++w) {
      std::this_thread::sleep_until(at(w * window_s));
      const std::uint64_t now = StealJiffies();
      steal->push_back(now - last);
      last = now;
    }
  });
  std::atomic<bool> done{false};
  std::thread sampler;
  if (traced) {
    sampler = std::thread([&] {
      while (!done.load(std::memory_order_relaxed)) {
        ledger->retired_live_max =
            std::max(ledger->retired_live_max,
                     served.engine->snapshot_stats().retired_live);
        ledger->queue_depth_max = std::max(ledger->queue_depth_max,
                                           served.server->stats().queue_depth);
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    });
  }
  std::atomic<bool> ran_out{false};
  std::vector<std::thread> connections;
  for (std::size_t c = 0; c < steps.size(); ++c) {
    connections.emplace_back([&, c] {
      while (!ran_out.load(std::memory_order_relaxed) && Clock::now() < end) {
        Sample sample;
        if (!steps[c](clients[c].get(), &sample)) {
          ran_out.store(true, std::memory_order_relaxed);
          break;
        }
        sample.traced = traced;
        sample.slice = slice;
        sample.at_s = SecondsSince(start);
        (*samples)[c].push_back(std::move(sample));
      }
    });
  }
  for (std::thread& connection : connections) connection.join();
  steal_clock.join();
  if (traced) {
    done.store(true, std::memory_order_relaxed);
    sampler.join();
    const Counters after = Counters::Read(served);
    ledger->queue_wait.Add(before.queue_wait, after.queue_wait);
    ledger->handler.Add(before.handler, after.handler);
    ledger->memo_hits += after.memo.hits - before.memo.hits;
    ledger->memo_misses += after.memo.misses - before.memo.misses;
    ledger->published += after.published - before.published;
  }
}

/// How the timed slices are cut into measurement windows.
struct Windows {
  double seconds = 0.0;   // one window
  int per_slice = 0;      // whole windows per slice
  std::vector<int> slices;  // the slices of one kind (untraced or traced)
  std::vector<std::uint64_t> steal;  // per window, slice-major
};

/// End-to-end figures of the untraced or the traced slices.
struct EndToEnd {
  std::size_t searches = 0, writes = 0, windows = 0, windows_kept = 0;
  double steal_s = 0;
  double search_qps = 0, search_p50_ms = 0, search_p95_ms = 0;
  double write_ops_per_s = 0, write_p50_ms = 0, write_p95_ms = 0;
};

/// The timed slices are cut into windows, and windows in which the
/// hypervisor stole CPU time are left out. Throughput is the ok
/// operations of the kept windows over their summed duration, and latency
/// quantiles pool their samples, so the program's own stalls (a
/// checkpoint every few hundred writes) count in full. Samples completing
/// after a slice's last whole window count as attempted but fall in no
/// window.
EndToEnd Summarize(const std::vector<std::vector<Sample>>& samples,
                   const Windows& windows) {
  struct Window {
    std::vector<double> search_ms, write_ms;
    std::size_t search_ok = 0, write_ok = 0;
  };
  std::vector<Window> cut(windows.slices.size() * windows.per_slice);
  EndToEnd e;
  for (const std::vector<Sample>& connection : samples) {
    for (const Sample& s : connection) {
      const auto slice =
          std::find(windows.slices.begin(), windows.slices.end(), s.slice);
      if (slice == windows.slices.end()) continue;
      const bool search = s.kind == OpKind::kSearch;
      e.searches += search;
      e.writes += s.kind == OpKind::kWrite;
      const int w = static_cast<int>(s.at_s / windows.seconds);
      if (w >= windows.per_slice || s.kind == OpKind::kAdmin) continue;
      Window& window =
          cut[(slice - windows.slices.begin()) * windows.per_slice + w];
      (search ? window.search_ok : window.write_ok) += s.ok;
      if (s.status == 200) {
        (search ? window.search_ms : window.write_ms).push_back(s.latency_ms);
      }
    }
  }
  // A window in which the hypervisor ran other guests on this machine's
  // CPUs measures the neighbours, not the program: keep the windows whose
  // steal stays under kMaxStealShare of their CPU time, and always at
  // least the least-stolen half.
  const double jiffies_per_window = windows.seconds *
                                    static_cast<double>(sysconf(_SC_CLK_TCK)) *
                                    std::thread::hardware_concurrency();
  std::vector<std::size_t> order(cut.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return windows.steal[a] < windows.steal[b];
  });
  std::size_t keep = (cut.size() + 1) / 2;
  while (keep < order.size() && static_cast<double>(windows.steal[order[keep]]) <=
                                    kMaxStealShare * jiffies_per_window) {
    ++keep;
  }
  order.resize(keep);
  for (std::uint64_t jiffies : windows.steal) {
    e.steal_s += static_cast<double>(jiffies) /
                 static_cast<double>(sysconf(_SC_CLK_TCK));
  }

  std::size_t search_ok = 0, write_ok = 0;
  std::vector<double> search_ms, write_ms;
  for (std::size_t i : order) {
    const Window& window = cut[i];
    search_ok += window.search_ok;
    write_ok += window.write_ok;
    search_ms.insert(search_ms.end(), window.search_ms.begin(),
                     window.search_ms.end());
    write_ms.insert(write_ms.end(), window.write_ms.begin(),
                    window.write_ms.end());
  }
  e.windows = cut.size();
  e.windows_kept = order.size();
  const double kept_s = static_cast<double>(order.size()) * windows.seconds;
  e.search_qps = static_cast<double>(search_ok) / kept_s;
  e.search_p50_ms = Quantile(search_ms, 0.50);
  e.search_p95_ms = Quantile(std::move(search_ms), 0.95);
  e.write_ops_per_s = static_cast<double>(write_ok) / kept_s;
  e.write_p50_ms = Quantile(write_ms, 0.50);
  e.write_p95_ms = Quantile(std::move(write_ms), 0.95);
  return e;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  // the per-layer ledger's "should move" column
};

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i > 0 ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int PrintDigests(const Args& args) {
  const TestbedSpec spec = args.smoke ? SmokeTestbed() : FullTestbed();
  auto ontology = MakeOntology(spec);
  if (!ontology.ok()) return 1;
  auto corpus = MakeCorpus(*ontology, spec);
  if (!corpus.ok()) return 1;
  for (Workload w :
       {Workload::kRdsServed, Workload::kSdsServed, Workload::kWriteMix}) {
    std::printf("digest %s %016" PRIx64 "\n", WorkloadName(w),
                StreamDigest(w, *ontology, *corpus, args.seed, args.digest));
  }
  return 0;
}

int Run(const Args& args) {
  Workload workload;
  if (!ParseWorkload(args.workload, &workload)) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const TestbedSpec spec = args.smoke ? SmokeTestbed() : FullTestbed();
  const int setup_reps = args.smoke ? 2 : 9;
  // Warm-up requests per connection. The Ddq memo and the DRC scratch
  // caches take a few seconds of traffic to reach their steady state; a
  // fixed count (not a fixed time) puts rss_mb at the same point of the
  // work whatever the speed. The write_mix writer's count covers one
  // checkpoint and one compaction; its reader runs until the writer ends.
  constexpr std::size_t kUntilOthersEnd = ~std::size_t{0};
  std::vector<std::size_t> warmup_requests;
  switch (workload) {
    case Workload::kRdsServed:
      warmup_requests.assign(kClientConnections, args.smoke ? 50 : 2000);
      break;
    case Workload::kSdsServed:
      warmup_requests.assign(kClientConnections, args.smoke ? 5 : 100);
      break;
    case Workload::kWriteMix:
      warmup_requests = {args.smoke ? 30 : args.admin_every + 2,
                         kUntilOthersEnd};
      break;
  }
  const std::size_t rds_probe_searches = args.smoke ? 50 : 400;
  const std::size_t sds_probe_searches = args.smoke ? 10 : 40;
  const std::string data_dir =
      args.workdir + "/data-" + std::to_string(::getpid());

  std::printf(
      "stamp {\"workload\":\"%s\",\"seed\":%" PRIu64
      ",\"seconds\":%g,\"trace\":%d,\"nproc\":%u,\"compiler\":\"%s\","
      "\"build_type\":\"%s\",\"commit\":\"%s\",\"server_workers\":%zu,"
      "\"knds_num_threads\":%zu,\"client_connections\":%zu,\"loop\":\"closed\","
      "\"fsync\":\"always\",\"zipf\":%g,\"admin_every\":%" PRIu64
      ",\"testbed\":{\"concepts\":%u,\"documents\":%u,"
      "\"gen_seed\":%" PRIu64 "}}\n",
      WorkloadName(workload), args.seed, args.seconds, args.trace ? 1 : 0,
      std::thread::hardware_concurrency(), E2EBENCH_COMPILER,
      E2EBENCH_BUILD_TYPE, args.commit.c_str(), kServerWorkers, kKndsThreads,
      kClientConnections, args.zipf, args.admin_every, spec.concepts,
      spec.documents, spec.gen_seed);

  // Synthetic data generation: outside setup_s.
  auto base_ontology = MakeOntology(spec);
  if (!base_ontology.ok()) return 1;
  auto corpus = MakeCorpus(*base_ontology, spec);
  if (!corpus.ok()) return 1;

  std::vector<double> setups;
  std::unique_ptr<Served> served;
  for (int rep = 0; rep < setup_reps; ++rep) {
    served.reset();  // the previous server and engine, before the next
    double setup_s = 0.0;
    served = StartServed(spec, *corpus, data_dir, &setup_s);
    if (served == nullptr) return 1;
    setups.push_back(setup_s);
  }
  // Inputs from the seed. The snapshot is released before timing: a
  // pinned generation would show in snapshot.retired_live_max.
  auto snap0 = served->engine->snapshot();
  const RdsTraffic rds = MakeRdsTraffic(snap0->corpus, args.seed, args.zipf);
  const SdsTraffic sds = MakeSdsTraffic(*base_ontology, snap0->corpus, args.seed);
  WriteStream writes(snap0->corpus, snap0->ontology->dag().num_concepts(),
                     args.seed, args.admin_every);
  snap0.reset();

  std::atomic<std::size_t> rds_next{0};
  std::atomic<std::size_t> sds_next{0};
  const Step rds_step = [&](HttpClient* client, Sample* s) {
    const std::uint32_t q =
        rds.stream[rds_next.fetch_add(1) % rds.stream.size()];
    s->kind = OpKind::kSearch;
    s->index = q;
    TimedExchange(client, rds.requests[q], s);
    s->ok = s->status == 200;
    return true;
  };
  const Step sds_step = [&](HttpClient* client, Sample* s) {
    const std::size_t q = sds_next.fetch_add(1);
    if (q >= sds.requests.size()) return false;
    s->kind = OpKind::kSearch;
    s->index = static_cast<std::uint32_t>(q);
    TimedExchange(client, sds.requests[q], s);
    s->ok = s->status == 200;
    return true;
  };
  std::vector<double> admin_ms[3];  // checkpoint, compact, add_concept
  const Step write_step = [&](HttpClient* client, Sample* s) {
    const WriteOp& op = writes.Next();
    s->kind = op.is_data_write() ? OpKind::kWrite : OpKind::kAdmin;
    s->write_kind = op.kind;
    TimedExchange(client, op.request, s);
    s->ok = s->status == 200 && AckMatches(op, s->body);
    s->body.clear();
    return true;
  };
  std::vector<Step> steps;
  switch (workload) {
    case Workload::kRdsServed:
      steps = {rds_step, rds_step};
      break;
    case Workload::kSdsServed:
      steps = {sds_step, sds_step};
      break;
    case Workload::kWriteMix:
      steps = {write_step, rds_step};
      break;
  }

  std::vector<std::unique_ptr<HttpClient>> clients;
  for (std::size_t c = 0; c < steps.size(); ++c) {
    clients.push_back(std::make_unique<HttpClient>(served->server->port()));
  }
  TraceLedger ledger(*served);

  // Warm-up: caches fill, lazy set-up finishes; answers only need a 200.
  std::vector<Step> warmup_steps;
  for (std::size_t c = 0; c < steps.size(); ++c) {
    warmup_steps.push_back([&steps, c, left = warmup_requests[c]](
                               HttpClient* client, Sample* s) mutable {
      if (left == 0) return false;
      --left;
      return steps[c](client, s);
    });
  }
  std::vector<std::vector<Sample>> warmup(steps.size());
  std::vector<std::uint64_t> warmup_steal;
  RunSlice(-1, 120.0, 0, 120.0, false, *served, clients, warmup_steps, &warmup,
           &warmup_steal, nullptr);
  std::uint64_t warmup_failed = 0;
  for (const auto& connection : warmup) {
    for (const Sample& s : connection) warmup_failed += !s.ok;
  }
  // The served system's footprint once warm, read before the benchmark's
  // own answer computation adds to the heap.
  const double rss_mb = ResidentMiB();
  const std::size_t sds_timed_from = sds_next.load();

  // Expected RDS answers before timing (the corpus does not change).
  bool oracle_ok = true;
  std::string why;
  std::vector<Answer> expected_rds;
  if (workload == Workload::kRdsServed) {
    const auto snap = served->engine->snapshot();
    expected_rds = KndsRdsAnswers(*snap, rds.pool, kOracleThreads);
    Rng pick(SubSeed(args.seed, 5));
    for (int i = 0; i < (args.smoke ? 2 : 6); ++i) {
      const std::size_t q = pick.Below(rds.pool.size());
      bool ok = false;
      const Answer brute = ExhaustiveRds(*snap, rds.pool[q], kOracleThreads, &ok);
      if (!ok || !SameAnswer(expected_rds[q], brute)) {
        oracle_ok = false;
        why += "kNDS oracle disagrees with ExhaustiveRanker on RDS pool query " +
               std::to_string(q) + "; ";
      }
    }
  }

  // Timed phase: one untraced slice, or four alternating slices
  // (untraced, traced, untraced, traced) so drift hits both sides alike.
  std::vector<std::vector<Sample>> samples(steps.size());
  const int num_slices = args.trace ? 4 : 1;
  const double slice_s = args.seconds / num_slices;
  Windows untraced_windows, traced_windows;
  for (Windows* w : {&untraced_windows, &traced_windows}) {
    w->seconds = args.seconds / kWindowsPerRun;
    w->per_slice = static_cast<int>(slice_s / w->seconds + 1e-9);
  }
  for (int slice = 0; slice < num_slices; ++slice) {
    const bool traced = slice % 2 == 1;
    Windows& windows = traced ? traced_windows : untraced_windows;
    windows.slices.push_back(slice);
    RunSlice(slice, slice_s, windows.per_slice, windows.seconds, traced,
             *served, clients, steps, &samples, &windows.steal, &ledger);
  }
  clients.clear();

  // ---- Answer checking ----
  // SDS answers are computed now, for the stream entries the timed phase
  // sent (each is sent once): computing every entry first would cost
  // minutes of CPU.
  std::size_t checked_during_writes = 0;
  const auto final_snap = served->engine->snapshot();
  std::vector<Answer> expected_sds;
  if (workload == Workload::kSdsServed) {
    if (sds_next.load() >= sds.requests.size()) {
      oracle_ok = false;
      why += "the SDS stream ran out after " +
             std::to_string(sds.requests.size()) +
             " queries; raise kSdsGeneratedQueries; ";
    }
    const std::size_t sent =
        std::min(sds_next.load(), sds.requests.size()) - sds_timed_from;
    const std::vector<std::vector<ConceptId>> sent_queries(
        sds.queries.begin() + sds_timed_from,
        sds.queries.begin() + sds_timed_from + sent);
    expected_sds = KndsSdsAnswers(*final_snap, sent_queries, kOracleThreads);
    if (sent > 0) {
      bool ok = false;
      const std::size_t i = Rng(SubSeed(args.seed, 6)).Below(sent);
      const Answer brute =
          ExhaustiveSds(*final_snap, sent_queries[i], kOracleThreads, &ok);
      if (!ok || !SameAnswer(expected_sds[i], brute)) {
        oracle_ok = false;
        why += "kNDS oracle disagrees with ExhaustiveRanker on SDS query " +
               std::to_string(sds_timed_from + i) + "; ";
      }
    }
  }
  std::uint64_t attempted = 0, failed = 0;
  Answer answer;
  for (auto& connection : samples) {
    for (Sample& s : connection) {
      ++attempted;
      if (s.kind == OpKind::kSearch && s.ok) {
        bool truncated = true;
        s.ok = ParseSearchBody(s.body, &answer, &truncated) && !truncated;
        if (s.ok && workload == Workload::kRdsServed) {
          s.ok = SameAnswer(answer, expected_rds[s.index]);
        } else if (s.ok && workload == Workload::kSdsServed) {
          s.ok = SameAnswer(answer, expected_sds[s.index - sds_timed_from]);
        } else if (s.ok) {
          // write_mix reader: the corpus moved under it. Every answer is
          // checked for shape; every 16th for its distances as well.
          s.ok = answer.size() == kTopK;
          if (s.ok && attempted % 16 == 0 && checked_during_writes < 200) {
            ++checked_during_writes;
            s.ok = PlausibleDuringWrites(*final_snap, rds.pool[s.index],
                                         answer, writes);
          }
        }
      }
      if (!s.ok) ++failed;
      if (s.kind == OpKind::kAdmin && s.status == 200) {
        const int slot = s.write_kind == WriteOp::Kind::kCheckpoint ? 0
                         : s.write_kind == WriteOp::Kind::kCompact  ? 1
                                                                    : 2;
        admin_ms[slot].push_back(s.latency_ms);
      }
    }
  }

  bool final_ok = true;
  if (workload == Workload::kWriteMix) {
    final_ok = FinalStateMatches(*final_snap, writes, &why);
    // Final-state searches, served, against the brute-force reference.
    HttpClient client(served->server->port());
    Rng pick(SubSeed(args.seed, 8));
    std::string body;
    for (int i = 0; i < (args.smoke ? 2 : 4); ++i) {
      const std::size_t q = pick.Below(rds.pool.size());
      bool ok = false, truncated = true;
      const Answer brute =
          ExhaustiveRds(*final_snap, rds.pool[q], kOracleThreads, &ok);
      const bool served_ok =
          client.Exchange(rds.requests[q], &body) == 200 &&
          ParseSearchBody(body, &answer, &truncated) && !truncated;
      if (!ok || !served_ok || !SameAnswer(answer, brute)) {
        final_ok = false;
        why += "final-state search " + std::to_string(q) +
               " differs from ExhaustiveRanker; ";
      }
    }
  }
  const bool correct =
      oracle_ok && final_ok && failed == 0 && warmup_failed == 0;

  // ---- End-to-end report ----
  const EndToEnd e2e = Summarize(samples, untraced_windows);
  const bool writes_primary = workload == Workload::kWriteMix;
  const double error_rate =
      attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted)
                    : 1.0;
  std::printf("e2e %s: search_qps %.1f 1/s | search_p50_ms %.3f | "
              "search_p95_ms %.3f ms (n=%zu) | error_rate %.6f | setup_s "
              "%.3f s | rss_mb %.1f MiB | windows kept %zu/%zu, CPU steal "
              "%.2f s\n",
              WorkloadName(workload), e2e.search_qps, e2e.search_p50_ms,
              e2e.search_p95_ms, e2e.searches, error_rate, Median(setups),
              rss_mb, e2e.windows_kept, e2e.windows, e2e.steal_s);
  if (writes_primary) {
    std::printf("e2e %s: write_ops_per_s %.1f 1/s | write_p50_ms %.3f | "
                "write_p95_ms %.3f ms (n=%zu) | served checkpoint_ms p50 %.2f "
                "(n=%zu) | compact_ms p50 %.2f (n=%zu) | add_concept_ms p50 "
                "%.2f (n=%zu) | reads distance-checked %zu\n",
                WorkloadName(workload), e2e.write_ops_per_s, e2e.write_p50_ms,
                e2e.write_p95_ms, e2e.writes, Median(admin_ms[0]),
                admin_ms[0].size(), Median(admin_ms[1]), admin_ms[1].size(),
                Median(admin_ms[2]), admin_ms[2].size(), checked_during_writes);
  }
  if (!correct) {
    std::printf("INCORRECT: %" PRIu64 " of %" PRIu64
                " ops failed (warm-up %" PRIu64 "); %s\n",
                failed, attempted, warmup_failed, why.c_str());
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"search_qps", e2e.search_qps, "1/s", ""},
        {"search_p50_ms", e2e.search_p50_ms, "ms", ""},
        {"search_p95_ms", e2e.search_p95_ms, "ms", ""},
        {"ops_per_s", writes_primary ? e2e.write_ops_per_s : e2e.search_qps,
         "1/s", ""},
        {"ops_p50_ms", writes_primary ? e2e.write_p50_ms : e2e.search_p50_ms,
         "ms", ""},
        {"ops_p95_ms", writes_primary ? e2e.write_p95_ms : e2e.search_p95_ms,
         "ms", ""},
        {"ok_ratio", 1.0 - error_rate, "ratio", ""},
        {"setup_s", Median(setups), "s", ""},
        {"rss_mb", rss_mb, "MiB", ""},
    };
    PrintResult(correct, attempted, failed, metrics);
    return 0;
  }

  // ---- Traced run: tracing overhead, then the per-layer probes ----
  const EndToEnd traced = Summarize(samples, traced_windows);
  const auto change = [](double untraced_v, double traced_v) {
    return untraced_v != 0 ? 100.0 * (traced_v - untraced_v) / untraced_v : 0.0;
  };
  std::printf("trace_overhead %s: search_qps %.1f -> %.1f (%+.1f%%) | "
              "search_p50_ms %.3f -> %.3f (%+.1f%%) | search_p95_ms %.3f -> "
              "%.3f (%+.1f%%)",
              WorkloadName(workload), e2e.search_qps, traced.search_qps,
              change(e2e.search_qps, traced.search_qps), e2e.search_p50_ms,
              traced.search_p50_ms,
              change(e2e.search_p50_ms, traced.search_p50_ms),
              e2e.search_p95_ms, traced.search_p95_ms,
              change(e2e.search_p95_ms, traced.search_p95_ms));
  if (writes_primary) {
    std::printf(" | write_ops_per_s %.1f -> %.1f (%+.1f%%) | write_p50_ms "
                "%.3f -> %.3f (%+.1f%%)",
                e2e.write_ops_per_s, traced.write_ops_per_s,
                change(e2e.write_ops_per_s, traced.write_ops_per_s),
                e2e.write_p50_ms, traced.write_p50_ms,
                change(e2e.write_p50_ms, traced.write_p50_ms));
  }
  std::printf(" | windows kept %zu/%zu untraced, %zu/%zu traced\n",
              e2e.windows_kept, e2e.windows, traced.windows_kept,
              traced.windows);

  // Inputs of the traced slices, for the codec probe; the in-process
  // searches continue the workload's stream, so they meet the caches as
  // served traffic would (replaying served inputs would hit the memo).
  std::vector<std::string> codec_requests;
  std::vector<Answer> codec_responses;
  std::uint64_t served_data_writes = 0;
  for (const auto& connection : samples) {
    for (const Sample& s : connection) {
      if (!s.traced) continue;
      served_data_writes += s.kind == OpKind::kWrite && s.ok;
      if (s.kind != OpKind::kSearch || !s.ok || codec_requests.size() >= 2000) {
        continue;
      }
      bool truncated = false;
      codec_requests.push_back(workload == Workload::kSdsServed
                                   ? sds.requests[s.index]
                                   : rds.requests[s.index]);
      codec_responses.emplace_back();
      ParseSearchBody(s.body, &codec_responses.back(), &truncated);
    }
  }
  std::vector<std::vector<ConceptId>> probe_rds;
  std::vector<std::size_t> probe_sds;
  if (workload == Workload::kSdsServed) {
    for (std::size_t i = sds_next.load();
         i < sds.queries.size() && probe_sds.size() < sds_probe_searches; ++i) {
      probe_sds.push_back(i);
    }
  } else {
    for (std::size_t i = 0; i < rds_probe_searches; ++i) {
      probe_rds.push_back(rds.pool[rds.stream[(rds_next + i) % rds.stream.size()]]);
    }
  }
  const CodecTimes codec = TimeServeCodec(codec_requests, codec_responses);
  const SearchProbe search =
      ProbeSearches(served->engine.get(), probe_rds, sds, probe_sds);
  const DrcProbe drc =
      ProbeDrc(*served->engine->snapshot(), rds.pool, args.seed, args.smoke);
  const WriteProbe write = ProbeWrites(served->engine.get(), args.seed);
  const std::uint64_t memo_lookups = ledger.memo_hits + ledger.memo_misses;
  const std::uint64_t all_writes = served_data_writes + write.data_writes;

  const char* rds_p50 = "search_p50_ms on rds_served";
  metrics = {
      {"serve.queue_wait_p50_ms", ledger.queue_wait.Quantile(0.50) * 1e3, "ms",
       "search_p50_ms on rds_served"},
      {"serve.queue_wait_p99_ms", ledger.queue_wait.Quantile(0.99) * 1e3, "ms",
       "search_p95_ms on rds_served"},
      {"serve.handler_p50_ms", ledger.handler.Quantile(0.50) * 1e3, "ms",
       rds_p50},
      {"serve.http_parse_us", codec.http_parse_us, "us",
       "search_qps on rds_served"},
      {"serve.json_parse_us", codec.json_parse_us, "us",
       "search_qps on rds_served"},
      {"serve.json_write_us", codec.json_write_us, "us",
       "search_qps on rds_served"},
      {"engine.search_p50_ms", search.search_p50_ms, "ms",
       "search_p50_ms on rds_served and sds_served"},
      {"engine.add_ms", write.add_ms, "ms", "ops_p50_ms on write_mix"},
      {"engine.update_ms", write.update_ms, "ms", "ops_p50_ms on write_mix"},
      {"engine.delete_ms", write.delete_ms, "ms", "ops_p50_ms on write_mix"},
      {"knds.traversal_ms", search.traversal_ms, "ms",
       "search_p50_ms on rds_served (most), sds_served (partly)"},
      {"knds.levels", search.levels, "count", rds_p50},
      {"knds.concept_visits", search.concept_visits, "count", rds_p50},
      {"knds.documents_touched", search.documents_touched, "count", rds_p50},
      {"knds.drc_calls", search.drc_calls, "count",
       "search_p50_ms on sds_served"},
      {"knds.examined_per_touched", search.examined_per_touched, "ratio",
       rds_p50},
      {"drc.distance_ms", search.distance_ms, "ms",
       "search_p50_ms on sds_served; ~none on rds_served"},
      {"drc.ddd_us", drc.ddd_us, "us", "search_p50_ms on sds_served"},
      {"drc.ddq_us", drc.ddq_us, "us", "~none on rds_served"},
      {"drc.build_fraction", drc.build_fraction, "ratio",
       "search_p50_ms on sds_served"},
      {"cache.ddq_memo_hit_rate",
       memo_lookups > 0 ? static_cast<double>(ledger.memo_hits) /
                              static_cast<double>(memo_lookups)
                        : 0.0,
       "ratio", "search_qps on rds_served; falls on write_mix"},
      {"cache.ddq_memo_lookups", static_cast<double>(memo_lookups), "count",
       "search_qps on rds_served"},
      {"snapshot.publishes_per_write",
       all_writes > 0 ? static_cast<double>(ledger.published + write.publishes) /
                            static_cast<double>(all_writes)
                      : 0.0,
       "ratio", "ops_p50_ms on write_mix"},
      {"snapshot.retired_live_max",
       static_cast<double>(
           std::max(ledger.retired_live_max, write.retired_live_max)),
       "count", "ops_p50_ms on write_mix"},
      {"storage.wal_bytes_per_write",
       write.data_writes > 0 ? static_cast<double>(write.wal_bytes) /
                                   static_cast<double>(write.data_writes)
                             : 0.0,
       "B", "ops_p95_ms on write_mix"},
      {"storage.wal_syncs_per_write",
       write.data_writes > 0 ? static_cast<double>(write.wal_syncs) /
                                   static_cast<double>(write.data_writes)
                             : 0.0,
       "ratio", "ops_p95_ms on write_mix"},
      {"storage.checkpoint_ms", write.checkpoint_ms, "ms",
       "ops_p95_ms on write_mix"},
      {"storage.compact_ms", write.compact_ms, "ms", "ops_p95_ms on write_mix"},
      {"ontology.evolve_ms", write.evolve_ms, "ms", "ops_p95_ms on write_mix"},
      {"ontology.readdressed_per_mutation", write.readdressed_per_mutation,
       "count", "ops_p95_ms on write_mix"},
  };
  std::printf("ledger %s (traced slices: %" PRIu64 " queue-wait samples, %"
              PRIu64 " memo lookups, queue depth max %zu; probes: %zu "
              "in-process searches, %" PRIu64 " writes)\n",
              WorkloadName(workload), ledger.queue_wait.total(), memo_lookups,
              ledger.queue_depth_max, search.searches, write.data_writes);
  for (const Metric& m : metrics) {
    std::printf("  %-34s %14.4f %-6s should move: %s\n", m.name.c_str(),
                m.value, m.unit.c_str(), m.note.c_str());
  }
  if (search.search_p50_ms > 0) {
    std::printf("  split of engine.search_p50_ms: knds.traversal_ms %.0f%%, "
                "drc.distance_ms %.0f%%\n",
                100.0 * search.traversal_ms / search.search_p50_ms,
                100.0 * search.distance_ms / search.search_p50_ms);
  }
  PrintResult(correct && write.ok, attempted, failed + !write.ok, metrics);
  return 0;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  e2ebench::Args args;
  if (!e2ebench::ParseArgs(argc, argv, &args)) return 2;
  if (args.digest > 0) return e2ebench::PrintDigests(args);
  const int code = e2ebench::Run(args);
  std::error_code ignored;
  std::filesystem::remove_all(
      args.workdir + "/data-" + std::to_string(::getpid()), ignored);
  return code;
}
