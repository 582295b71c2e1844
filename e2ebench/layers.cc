#include "layers.h"

#include <algorithm>

#include "core/drc.h"
#include "serve/http.h"
#include "serve/json.h"

namespace e2ebench {

namespace {

// Keeps timed results observable so the compiler cannot drop the work.
volatile std::size_t g_sink = 0;

double MillisSince(Clock::time_point start) { return SecondsSince(start) * 1e3; }

/// The server's search response body for `answer` (server.cc,
/// HandleSearch), rendered with the same public helpers.
void RenderSearchBody(const Answer& answer, std::string* body) {
  body->assign("{\"results\":[");
  for (std::size_t i = 0; i < answer.size(); ++i) {
    if (i > 0) *body += ',';
    *body += "{\"id\":";
    *body += std::to_string(answer[i].id);
    *body += ",\"distance\":";
    ecdr::serve::json::AppendDouble(body, answer[i].distance);
    *body += ",\"error_bound\":";
    ecdr::serve::json::AppendDouble(body, answer[i].error_bound);
    *body += '}';
  }
  *body += "],\"truncated\":false,\"generation\":1}";
}

}  // namespace

CodecTimes TimeServeCodec(const std::vector<std::string>& requests,
                          const std::vector<Answer>& responses) {
  constexpr int kReps = 5;
  std::vector<std::string_view> bodies;
  for (const std::string& request : requests) {
    const std::size_t at = request.find("\r\n\r\n");
    bodies.push_back(std::string_view(request).substr(at + 4));
  }
  std::vector<double> http, parse, write;
  std::string body;
  for (int rep = 0; rep < kReps && !requests.empty(); ++rep) {
    Clock::time_point start = Clock::now();
    ecdr::serve::HttpParser parser;
    for (const std::string& request : requests) {
      parser.Reset();
      g_sink = g_sink + parser.Feed(request) + parser.done();
    }
    http.push_back(SecondsSince(start) * 1e6 /
                   static_cast<double>(requests.size()));

    start = Clock::now();
    for (std::string_view text : bodies) {
      g_sink = g_sink + ecdr::serve::json::Parse(text).ok();
    }
    parse.push_back(SecondsSince(start) * 1e6 /
                    static_cast<double>(bodies.size()));

    if (responses.empty()) continue;
    start = Clock::now();
    for (const Answer& answer : responses) {
      RenderSearchBody(answer, &body);
      g_sink = g_sink + ecdr::serve::SerializeResponse(200, "application/json",
                                                       body, true)
                            .size();
    }
    write.push_back(SecondsSince(start) * 1e6 /
                    static_cast<double>(responses.size()));
  }
  return CodecTimes{Median(http), Median(parse), Median(write)};
}

SearchProbe ProbeSearches(ecdr::core::RankingEngine* engine,
                          const std::vector<std::vector<ConceptId>>& rds,
                          const SdsTraffic& sds,
                          const std::vector<std::size_t>& sds_positions) {
  std::vector<double> total_ms, traversal_ms, distance_ms;
  double levels = 0, visits = 0, touched = 0, drc_calls = 0, examined = 0;
  const auto record = [&](Clock::time_point start,
                          const ecdr::core::KndsStats& stats) {
    total_ms.push_back(MillisSince(start));
    traversal_ms.push_back(stats.traversal_seconds * 1e3);
    distance_ms.push_back(stats.distance_seconds * 1e3);
    levels += static_cast<double>(stats.levels);
    visits += static_cast<double>(stats.concept_visits);
    touched += static_cast<double>(stats.documents_touched);
    drc_calls += static_cast<double>(stats.drc_calls);
    examined += static_cast<double>(stats.documents_examined);
  };
  for (const std::vector<ConceptId>& query : rds) {
    ecdr::core::KndsStats stats;
    ecdr::core::SearchControl control;
    control.stats_out = &stats;
    const Clock::time_point start = Clock::now();
    if (engine->FindRelevant(query, kTopK, control).ok()) record(start, stats);
  }
  for (std::size_t at : sds_positions) {
    ecdr::core::KndsStats stats;
    ecdr::core::SearchControl control;
    control.stats_out = &stats;
    const Clock::time_point start = Clock::now();
    const bool ok =
        at < sds.corpus_ids.size()
            ? engine->FindSimilar(sds.corpus_ids[at], kTopK, control).ok()
            : engine->FindSimilarToConcepts(sds.queries[at], kTopK, control)
                  .ok();
    if (ok) record(start, stats);
  }
  SearchProbe probe;
  probe.searches = total_ms.size();
  if (probe.searches == 0) return probe;
  const double n = static_cast<double>(probe.searches);
  probe.search_p50_ms = Median(total_ms);
  probe.traversal_ms = Median(traversal_ms);
  probe.distance_ms = Median(distance_ms);
  probe.levels = levels / n;
  probe.concept_visits = visits / n;
  probe.documents_touched = touched / n;
  probe.drc_calls = drc_calls / n;
  probe.examined_per_touched = touched > 0 ? examined / touched : 0.0;
  return probe;
}

DrcProbe ProbeDrc(const ecdr::core::EngineSnapshot& snap,
                  const std::vector<std::vector<ConceptId>>& queries,
                  std::uint64_t seed, bool smoke) {
  const std::size_t ddd_pairs = smoke ? 20 : 150;
  const std::size_t ddq_pairs = smoke ? 200 : 1500;
  std::vector<DocId> live;
  for (DocId d = 0; d < snap.corpus.num_documents(); ++d) {
    if (!snap.corpus.IsDeleted(d)) live.push_back(d);
  }
  DrcProbe probe;
  if (live.empty() || queries.empty()) return probe;
  Rng rng(SubSeed(seed, 7));
  std::vector<std::pair<DocId, DocId>> docs;
  for (std::size_t i = 0; i < ddd_pairs; ++i) {
    docs.emplace_back(live[rng.Below(live.size())],
                      live[rng.Below(live.size())]);
  }
  std::vector<std::pair<DocId, std::size_t>> doc_queries;
  for (std::size_t i = 0; i < ddq_pairs; ++i) {
    doc_queries.emplace_back(live[rng.Below(live.size())],
                             rng.Below(queries.size()));
  }

  ecdr::core::Drc drc(snap.ontology->dag(), snap.ontology->addresses());
  const auto concepts = [&](DocId d) { return snap.corpus.document(d).concepts(); };
  // Warm the scratch arena, then measure.
  for (std::size_t i = 0; i < std::min<std::size_t>(10, docs.size()); ++i) {
    g_sink = g_sink + drc.DocDocDistance(concepts(docs[i].first),
                                         concepts(docs[i].second)).ok();
  }
  drc.ResetStats();
  Clock::time_point start = Clock::now();
  for (const auto& [a, b] : docs) {
    g_sink = g_sink + drc.DocDocDistance(concepts(a), concepts(b)).ok();
  }
  probe.ddd_us = SecondsSince(start) * 1e6 / static_cast<double>(docs.size());
  const ecdr::core::Drc::Stats& stats = drc.stats();
  probe.build_fraction =
      stats.seconds > 0 ? stats.build_seconds / stats.seconds : 0.0;

  start = Clock::now();
  for (const auto& [d, q] : doc_queries) {
    g_sink = g_sink + drc.DocQueryDistance(concepts(d), queries[q]).ok();
  }
  probe.ddq_us =
      SecondsSince(start) * 1e6 / static_cast<double>(doc_queries.size());
  return probe;
}

WriteProbe ProbeWrites(ecdr::core::RankingEngine* engine, std::uint64_t seed) {
  constexpr int kRounds = 5;
  constexpr int kWritesPerRound = 24;
  constexpr int kEvolutions = 5;
  WriteProbe probe;
  // The snapshot is not held past this: a pinned generation would count
  // in retired_live.
  WriteStream stream = [&] {
    const auto snap = engine->snapshot();
    return WriteStream(snap->corpus, snap->ontology->dag().num_concepts(),
                       SubSeed(seed, 9));
  }();
  std::vector<double> add_ms, update_ms, delete_ms, checkpoint_ms, compact_ms;
  const auto sample_gauges = [&] {
    probe.retired_live_max = std::max(probe.retired_live_max,
                                      engine->snapshot_stats().retired_live);
  };
  for (int round = 0; round < kRounds; ++round) {
    const std::uint64_t published = engine->snapshot_stats().published;
    const ecdr::storage::StoreStats store = engine->durability_stats().store;
    for (int i = 0; i < kWritesPerRound; ++i) {
      const WriteOp* op = &stream.Next();
      while (!op->is_data_write()) op = &stream.Next();
      const Clock::time_point start = Clock::now();
      switch (op->kind) {
        case WriteOp::Kind::kAdd: {
          const auto added = engine->AddDocument(op->concepts);
          add_ms.push_back(MillisSince(start));
          probe.ok &= added.ok() && *added == op->doc;
          break;
        }
        case WriteOp::Kind::kUpdate:
          probe.ok &= engine->UpdateDocument(op->doc, op->concepts).ok();
          update_ms.push_back(MillisSince(start));
          break;
        default:
          probe.ok &= engine->DeleteDocument(op->doc).ok();
          delete_ms.push_back(MillisSince(start));
          break;
      }
      ++probe.data_writes;
      sample_gauges();
    }
    const ecdr::storage::StoreStats after = engine->durability_stats().store;
    probe.publishes += engine->snapshot_stats().published - published;
    probe.wal_bytes += after.wal_bytes - store.wal_bytes;
    probe.wal_syncs += after.wal_syncs - store.wal_syncs;

    Clock::time_point start = Clock::now();
    probe.ok &= engine->Compact().ok();
    compact_ms.push_back(MillisSince(start));
    sample_gauges();
    start = Clock::now();
    probe.ok &= engine->Checkpoint().ok();
    checkpoint_ms.push_back(MillisSince(start));
    sample_gauges();
  }

  std::vector<double> evolve_ms;
  double readdressed = 0;
  Rng rng(SubSeed(seed, 11));
  for (int i = 0; i < kEvolutions; ++i) {
    const std::vector<ConceptId>& content =
        stream.docs()[rng.Below(stream.docs().size())];
    const ConceptId parent = content.empty() ? 0 : content.front();
    const Clock::time_point start = Clock::now();
    const auto evolved = engine->AddConcept(
        "e2e_probe_s" + std::to_string(seed) + "_" + std::to_string(i),
        {parent});
    evolve_ms.push_back(MillisSince(start));
    probe.ok &= evolved.ok();
    if (evolved.ok()) {
      readdressed += static_cast<double>(evolved->readdressed_concepts);
    }
  }
  probe.add_ms = Median(add_ms);
  probe.update_ms = Median(update_ms);
  probe.delete_ms = Median(delete_ms);
  probe.checkpoint_ms = Median(checkpoint_ms);
  probe.compact_ms = Median(compact_ms);
  probe.evolve_ms = Median(evolve_ms);
  probe.readdressed_per_mutation = readdressed / kEvolutions;
  return probe;
}

}  // namespace e2ebench
