#include "oracle.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <thread>

#include "core/drc.h"
#include "core/exhaustive_ranker.h"
#include "core/knds.h"

namespace e2ebench {

namespace {

using ecdr::core::Drc;
using ecdr::core::EngineSnapshot;

/// Finds `key` at or after `*pos` and parses the number after it.
bool NumberAfter(std::string_view body, std::string_view key, std::size_t* pos,
                 double* value) {
  const std::size_t at = body.find(key, *pos);
  if (at == std::string_view::npos) return false;
  const std::size_t start = at + key.size();
  // The body is a std::string's data, so strtod stops at its NUL at worst.
  const char* begin = body.data() + start;
  char* end = nullptr;
  *value = std::strtod(begin, &end);
  if (end == begin) return false;
  *pos = start + static_cast<std::size_t>(end - begin);
  return true;
}

/// Runs fn(state, i) for i in [0, n) on `threads` threads, each with its
/// own state from make_state().
template <typename MakeState, typename Fn>
void ParallelFor(std::size_t n, std::size_t threads, MakeState make_state,
                 Fn fn) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> lanes;
  for (std::size_t t = 0; t < std::max<std::size_t>(threads, 1); ++t) {
    lanes.emplace_back([&] {
      auto state = make_state();
      for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        fn(*state, i);
      }
    });
  }
  for (std::thread& lane : lanes) lane.join();
}

/// One lane's standalone search stack over a snapshot.
struct Searcher {
  explicit Searcher(const EngineSnapshot& snap)
      : drc(snap.ontology->dag(), snap.ontology->addresses()),
        knds(snap.corpus, snap.index, &drc, Options()) {}
  static ecdr::core::KndsOptions Options() {
    ecdr::core::KndsOptions options;
    options.num_threads = 1;
    return options;
  }
  Drc drc;
  ecdr::core::Knds knds;
};

}  // namespace

bool ParseSearchBody(std::string_view body, Answer* out, bool* truncated) {
  out->clear();
  if (body.rfind("{\"results\":[", 0) != 0) return false;
  const std::size_t results_end = body.find(']');
  if (results_end == std::string_view::npos) return false;
  std::size_t pos = 0;
  while (true) {
    const std::size_t next = body.find("{\"id\":", pos);
    if (next == std::string_view::npos || next > results_end) break;
    pos = next;
    double id = 0;
    ScoredDocument doc;
    if (!NumberAfter(body, "\"id\":", &pos, &id) ||
        !NumberAfter(body, "\"distance\":", &pos, &doc.distance) ||
        !NumberAfter(body, "\"error_bound\":", &pos, &doc.error_bound)) {
      return false;
    }
    doc.id = static_cast<DocId>(id);
    out->push_back(doc);
  }
  const std::size_t flag = body.find("\"truncated\":", results_end);
  if (flag == std::string_view::npos) return false;
  *truncated = body.compare(flag + 12, 4, "true") == 0;
  return true;
}

bool SameAnswer(const Answer& got, const Answer& want) {
  if (got.size() != want.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].id != want[i].id ||
        std::memcmp(&got[i].distance, &want[i].distance, sizeof(double)) !=
            0 ||
        std::memcmp(&got[i].error_bound, &want[i].error_bound,
                    sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

std::vector<Answer> KndsRdsAnswers(
    const EngineSnapshot& snap,
    const std::vector<std::vector<ConceptId>>& queries, std::size_t threads) {
  std::vector<Answer> answers(queries.size());
  ParallelFor(
      queries.size(), threads,
      [&] { return std::make_unique<Searcher>(snap); },
      [&](Searcher& s, std::size_t i) {
        auto result = s.knds.SearchRds(queries[i], kTopK);
        if (result.ok()) answers[i] = std::move(*result);
      });
  return answers;
}

std::vector<Answer> KndsSdsAnswers(
    const EngineSnapshot& snap,
    const std::vector<std::vector<ConceptId>>& query_docs,
    std::size_t threads) {
  std::vector<Answer> answers(query_docs.size());
  ParallelFor(
      query_docs.size(), threads,
      [&] { return std::make_unique<Searcher>(snap); },
      [&](Searcher& s, std::size_t i) {
        auto result =
            s.knds.SearchSds(ecdr::corpus::Document(query_docs[i]), kTopK);
        if (result.ok()) answers[i] = std::move(*result);
      });
  return answers;
}

namespace {

/// ExhaustiveRanker scores every slot and rejects tombstones, so rank a
/// copy holding only the live documents and map ids back (the map is
/// increasing, so (distance, id) order is preserved).
Answer RankLive(const EngineSnapshot& snap, std::size_t threads, bool* ok,
                const std::function<ecdr::util::StatusOr<Answer>(
                    ecdr::core::ExhaustiveRanker&)>& rank) {
  ecdr::corpus::Corpus live(snap.ontology->dag());
  std::vector<DocId> ids;
  for (DocId d = 0; d < snap.corpus.num_documents(); ++d) {
    if (snap.corpus.IsDeleted(d)) continue;
    ids.push_back(d);
    if (!live.AddDocument(snap.corpus.document(d)).ok()) {
      *ok = false;
      return {};
    }
  }
  Drc drc(snap.ontology->dag(), snap.ontology->addresses());
  ecdr::core::ExhaustiveRankerOptions options;
  options.num_threads = threads;
  ecdr::core::ExhaustiveRanker ranker(live, &drc, options);
  auto result = rank(ranker);
  *ok = result.ok();
  if (!result.ok()) return {};
  for (ScoredDocument& r : *result) r.id = ids[r.id];
  return std::move(*result);
}

}  // namespace

Answer ExhaustiveRds(const EngineSnapshot& snap,
                     std::span<const ConceptId> query, std::size_t threads,
                     bool* ok) {
  return RankLive(snap, threads, ok, [&](ecdr::core::ExhaustiveRanker& r) {
    return r.TopKRelevant(query, kTopK);
  });
}

Answer ExhaustiveSds(const EngineSnapshot& snap,
                     std::span<const ConceptId> query_doc, std::size_t threads,
                     bool* ok) {
  const ecdr::corpus::Document doc(
      std::vector<ConceptId>(query_doc.begin(), query_doc.end()));
  return RankLive(snap, threads, ok, [&](ecdr::core::ExhaustiveRanker& r) {
    return r.TopKSimilar(doc, kTopK);
  });
}

bool PlausibleDuringWrites(const EngineSnapshot& snap,
                           std::span<const ConceptId> query,
                           const Answer& answer, const WriteStream& model) {
  if (answer.size() != kTopK) return false;
  Drc drc(snap.ontology->dag(), snap.ontology->addresses());
  for (std::size_t i = 0; i < answer.size(); ++i) {
    const ScoredDocument& r = answer[i];
    if (r.error_bound != 0.0 || r.id >= model.versions().size()) return false;
    if (i > 0 && !ecdr::core::ScoredBefore(answer[i - 1], r)) return false;
    bool matched = false;
    for (const std::vector<ConceptId>& content : model.versions()[r.id]) {
      auto ddq = drc.DocQueryDistance(content, query);
      if (ddq.ok() && static_cast<double>(*ddq) == r.distance) {
        matched = true;
        break;
      }
    }
    if (!matched) return false;
  }
  return true;
}

bool FinalStateMatches(const EngineSnapshot& snap, const WriteStream& model,
                       std::string* why) {
  const std::vector<std::vector<ConceptId>>& docs = model.docs();
  if (snap.corpus.num_documents() != docs.size()) {
    *why += "document count " + std::to_string(snap.corpus.num_documents()) +
            " != expected " + std::to_string(docs.size()) + "; ";
    return false;
  }
  std::size_t wrong = 0;
  for (DocId d = 0; d < docs.size(); ++d) {
    const auto got = snap.corpus.document(d).concepts();
    if (!std::equal(got.begin(), got.end(), docs[d].begin(), docs[d].end())) {
      ++wrong;
    }
  }
  if (wrong > 0) {
    *why += std::to_string(wrong) + " documents differ from the model; ";
  }
  const std::uint32_t concepts = snap.ontology->dag().num_concepts();
  if (concepts != model.next_concept()) {
    *why += "ontology has " + std::to_string(concepts) + " concepts, expected " +
            std::to_string(model.next_concept()) + "; ";
    return false;
  }
  return wrong == 0;
}

}  // namespace e2ebench
