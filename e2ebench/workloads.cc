#include "workloads.h"

#include <algorithm>
#include <utility>

#include "corpus/generator.h"
#include "corpus/query_gen.h"
#include "http_client.h"
#include "ontology/generator.h"

namespace e2ebench {

namespace {

constexpr std::size_t kRdsStreamLength = std::size_t{1} << 18;
constexpr std::uint32_t kMinQuerySize = 2;
constexpr std::uint32_t kMaxQuerySize = 8;
constexpr std::uint32_t kMinDocConcepts = 20;
constexpr std::uint32_t kMaxDocConcepts = 60;
constexpr std::size_t kMinLiveDocuments = 100;

void AppendIdArray(std::string* out, const std::vector<ConceptId>& ids) {
  *out += '[';
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) *out += ',';
    *out += std::to_string(ids[i]);
  }
  *out += ']';
}

template <typename T>
void Shuffle(std::vector<T>* items, Rng* rng) {
  for (std::size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[rng->Below(i)]);
  }
}

}  // namespace

bool ParseWorkload(std::string_view name, Workload* out) {
  for (Workload w :
       {Workload::kRdsServed, Workload::kSdsServed, Workload::kWriteMix}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kRdsServed:
      return "rds_served";
    case Workload::kSdsServed:
      return "sds_served";
    case Workload::kWriteMix:
      return "write_mix";
  }
  return "?";
}

TestbedSpec FullTestbed() { return TestbedSpec{}; }

TestbedSpec SmokeTestbed() {
  TestbedSpec spec;
  spec.concepts = 2'000;
  spec.documents = 200;
  return spec;
}

ecdr::util::StatusOr<ecdr::ontology::Ontology> MakeOntology(
    const TestbedSpec& spec) {
  ecdr::ontology::OntologyGeneratorConfig config;
  config.num_concepts = spec.concepts;
  config.seed = spec.gen_seed;
  return ecdr::ontology::GenerateOntology(config);
}

ecdr::util::StatusOr<ecdr::corpus::Corpus> MakeCorpus(
    const ecdr::ontology::Ontology& ontology, const TestbedSpec& spec) {
  ecdr::corpus::CorpusGeneratorConfig config;
  config.num_documents = spec.documents;
  config.avg_concepts_per_doc = 40.0;
  config.seed = spec.gen_seed * 31 + 7;
  return ecdr::corpus::GenerateCorpus(ontology, config);
}

RdsTraffic MakeRdsTraffic(const ecdr::corpus::Corpus& corpus,
                          std::uint64_t seed, double zipf_exponent) {
  RdsTraffic traffic;
  std::vector<std::vector<std::vector<ConceptId>>> by_size;
  for (std::uint32_t size = kMinQuerySize; size <= kMaxQuerySize; ++size) {
    by_size.push_back(ecdr::corpus::GenerateRdsQueries(
        corpus, static_cast<std::uint32_t>(kRdsPoolPerSize), size,
        SubSeed(seed, 100 + size)));
  }
  // Popularity rank r gets a query of size 2 + r % 7, so every size is
  // equally common at every popularity level and the seed changes which
  // queries are popular, not how large they are.
  for (std::size_t i = 0; i < kRdsPoolPerSize; ++i) {
    for (const auto& queries : by_size) {
      if (i < queries.size()) traffic.pool.push_back(queries[i]);
    }
  }
  Rng rng(SubSeed(seed, 1));
  for (const std::vector<ConceptId>& query : traffic.pool) {
    std::string body = "{\"concepts\":";
    AppendIdArray(&body, query);
    body += ",\"k\":" + std::to_string(kTopK) + "}";
    traffic.requests.push_back(RenderPost("/v1/search", body));
  }
  const Zipf zipf(traffic.pool.size(), zipf_exponent);
  traffic.stream.resize(kRdsStreamLength);
  for (std::uint32_t& index : traffic.stream) {
    index = static_cast<std::uint32_t>(zipf.Sample(&rng));
  }
  return traffic;
}

SdsTraffic MakeSdsTraffic(const ecdr::ontology::Ontology& ontology,
                          const ecdr::corpus::Corpus& corpus,
                          std::uint64_t seed) {
  SdsTraffic traffic;
  traffic.corpus_ids.resize(corpus.num_documents());
  for (DocId d = 0; d < corpus.num_documents(); ++d) traffic.corpus_ids[d] = d;
  Rng rng(SubSeed(seed, 2));
  Shuffle(&traffic.corpus_ids, &rng);
  for (DocId d : traffic.corpus_ids) {
    const auto concepts = corpus.document(d).concepts();
    traffic.queries.emplace_back(concepts.begin(), concepts.end());
    traffic.requests.push_back(RenderPost(
        "/v1/search", "{\"doc\":" + std::to_string(d) +
                          ",\"k\":" + std::to_string(kTopK) + "}"));
  }
  // Query documents drawn like the corpus's own, from another seed.
  ecdr::corpus::CorpusGeneratorConfig config;
  config.num_documents = kSdsGeneratedQueries;
  config.avg_concepts_per_doc = 40.0;
  config.seed = SubSeed(seed, 4);
  auto generated = ecdr::corpus::GenerateCorpus(ontology, config);
  if (!generated.ok()) return traffic;
  for (DocId d = 0; d < generated->num_documents(); ++d) {
    const auto concepts = generated->document(d).concepts();
    if (concepts.empty()) continue;
    traffic.queries.emplace_back(concepts.begin(), concepts.end());
    std::string body = "{\"concepts\":";
    AppendIdArray(&body, traffic.queries.back());
    body += ",\"mode\":\"sds\",\"k\":" + std::to_string(kTopK) + "}";
    traffic.requests.push_back(RenderPost("/v1/search", body));
  }
  return traffic;
}

WriteStream::WriteStream(const ecdr::corpus::Corpus& base,
                         std::uint32_t num_concepts, std::uint64_t seed,
                         std::uint64_t admin_every)
    : rng_(SubSeed(seed, 3)),
      seed_(seed),
      admin_every_(std::max<std::uint64_t>(admin_every, 2)),
      next_concept_(num_concepts) {
  for (DocId d = 0; d < base.num_documents(); ++d) {
    const auto concepts = base.document(d).concepts();
    docs_.emplace_back(concepts.begin(), concepts.end());
    versions_.push_back({docs_.back()});
    if (!docs_.back().empty()) {
      slot_.push_back(static_cast<std::uint32_t>(live_.size()));
      live_.push_back(d);
    } else {
      slot_.push_back(0);
    }
    concept_pool_.insert(concept_pool_.end(), concepts.begin(),
                         concepts.end());
  }
  std::sort(concept_pool_.begin(), concept_pool_.end());
  concept_pool_.erase(std::unique(concept_pool_.begin(), concept_pool_.end()),
                      concept_pool_.end());
}

std::vector<ConceptId> WriteStream::DrawConcepts() {
  const std::uint32_t size = kMinDocConcepts + static_cast<std::uint32_t>(
      rng_.Below(kMaxDocConcepts - kMinDocConcepts + 1));
  std::vector<ConceptId> concepts;
  concepts.reserve(size);
  for (std::uint32_t i = 0; i < size; ++i) {
    concepts.push_back(concept_pool_[rng_.Below(concept_pool_.size())]);
  }
  std::sort(concepts.begin(), concepts.end());
  concepts.erase(std::unique(concepts.begin(), concepts.end()),
                 concepts.end());
  return concepts;
}

const WriteOp& WriteStream::Next() {
  op_ = WriteOp{};
  if (!pending_admin_.empty()) {
    op_.kind = pending_admin_.front();
    pending_admin_.pop_front();
    switch (op_.kind) {
      case WriteOp::Kind::kCheckpoint:
        op_.request = RenderPost("/v1/admin/checkpoint", "{}");
        break;
      case WriteOp::Kind::kCompact:
        op_.request = RenderPost("/v1/admin/compact", "{}");
        break;
      default: {  // kAddConcept: a leaf under a concept the corpus uses
        op_.parent = concept_pool_[rng_.Below(concept_pool_.size())];
        op_.concept_id = next_concept_++;
        op_.request = RenderPost(
            "/v1/admin/ontology/add_concept",
            "{\"name\":\"e2e_s" + std::to_string(seed_) + "_" +
                std::to_string(concepts_added_++) + "\",\"parents\":[" +
                std::to_string(op_.parent) + "]}");
        break;
      }
    }
    return op_;
  }

  const std::uint64_t roll = rng_.Below(100);
  if (live_.size() < kMinLiveDocuments || roll < 45) {
    op_.kind = WriteOp::Kind::kAdd;
    op_.doc = static_cast<DocId>(docs_.size());
    op_.concepts = DrawConcepts();
    std::string body = "{\"concepts\":";
    AppendIdArray(&body, op_.concepts);
    body += '}';
    op_.request = RenderPost("/v1/documents", body);
    docs_.push_back(op_.concepts);
    versions_.push_back({op_.concepts});
    slot_.push_back(static_cast<std::uint32_t>(live_.size()));
    live_.push_back(op_.doc);
  } else if (roll < 80) {
    op_.kind = WriteOp::Kind::kUpdate;
    op_.doc = live_[rng_.Below(live_.size())];
    op_.concepts = DrawConcepts();
    std::string body = "{\"doc\":" + std::to_string(op_.doc) + ",\"concepts\":";
    AppendIdArray(&body, op_.concepts);
    body += '}';
    op_.request = RenderPost("/v1/documents/update", body);
    docs_[op_.doc] = op_.concepts;
    versions_[op_.doc].push_back(op_.concepts);
  } else {
    op_.kind = WriteOp::Kind::kDelete;
    const std::size_t at = rng_.Below(live_.size());
    op_.doc = live_[at];
    op_.request = RenderPost("/v1/documents/delete",
                             "{\"doc\":" + std::to_string(op_.doc) + "}");
    docs_[op_.doc].clear();
    live_[at] = live_.back();
    slot_[live_[at]] = static_cast<std::uint32_t>(at);
    live_.pop_back();
  }
  ++data_writes_;
  if (data_writes_ % admin_every_ == 0) {
    pending_admin_.push_back(WriteOp::Kind::kCheckpoint);
  }
  if (data_writes_ % admin_every_ == admin_every_ / 2) {
    pending_admin_.push_back(WriteOp::Kind::kCompact);
  }
  const std::uint64_t concept_every = 5 * admin_every_;
  if (data_writes_ % concept_every == concept_every / 2) {
    pending_admin_.push_back(WriteOp::Kind::kAddConcept);
  }
  return op_;
}

std::uint64_t StreamDigest(Workload workload,
                           const ecdr::ontology::Ontology& ontology,
                           const ecdr::corpus::Corpus& corpus,
                           std::uint64_t seed, std::size_t count) {
  std::uint64_t hash = 0xCBF29CE484222325ull;
  if (workload == Workload::kSdsServed) {
    const SdsTraffic sds = MakeSdsTraffic(ontology, corpus, seed);
    for (std::size_t i = 0; i < count && i < sds.requests.size(); ++i) {
      hash = Fnv1a(sds.requests[i], hash);
    }
    return hash;
  }
  // rds_served, and the reader connection of write_mix.
  const RdsTraffic rds = MakeRdsTraffic(corpus, seed);
  for (std::size_t i = 0; i < count; ++i) {
    hash = Fnv1a(rds.requests[rds.stream[i % rds.stream.size()]], hash);
  }
  if (workload == Workload::kWriteMix) {
    WriteStream writes(corpus, ontology.num_concepts(), seed);
    for (std::size_t i = 0; i < count; ++i) {
      hash = Fnv1a(writes.Next().request, hash);
    }
  }
  return hash;
}

}  // namespace e2ebench
