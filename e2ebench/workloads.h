// Workload inputs of the end-to-end benchmark, all derived from the run
// seed: the fixed synthetic testbed, the Zipf RDS query stream, the SDS
// document permutation, and the durable write stream with the model it
// is checked against.

#ifndef ECDR_E2EBENCH_WORKLOADS_H_
#define ECDR_E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.h"
#include "corpus/corpus.h"
#include "ontology/ontology.h"
#include "util/status.h"

namespace e2ebench {

using ecdr::corpus::DocId;
using ecdr::ontology::ConceptId;

enum class Workload { kRdsServed, kSdsServed, kWriteMix };

bool ParseWorkload(std::string_view name, Workload* out);
const char* WorkloadName(Workload workload);

/// The synthetic serving testbed (tools/serve_testbed.h's generator
/// settings). Fixed across seeds: the seed varies the traffic, not the
/// data, so runs with different seeds measure the same system.
struct TestbedSpec {
  std::uint32_t concepts = 20'000;
  std::uint32_t documents = 2'000;
  std::uint64_t gen_seed = 1;
};
TestbedSpec FullTestbed();
TestbedSpec SmokeTestbed();

ecdr::util::StatusOr<ecdr::ontology::Ontology> MakeOntology(
    const TestbedSpec& spec);
ecdr::util::StatusOr<ecdr::corpus::Corpus> MakeCorpus(
    const ecdr::ontology::Ontology& ontology, const TestbedSpec& spec);

/// RDS traffic: a pool of GenerateRdsQueries queries (kRdsPoolPerSize
/// of each size 2-8 concepts) and a stream of pool indices drawn with
/// Zipf(zipf) popularity (0 = uniform).
inline constexpr std::size_t kRdsPoolPerSize = 300;
/// The traffic shape, which no measured log fixes (see README.md):
/// defaults of the benchmark, overridable to show what depends on them.
inline constexpr double kZipfExponent = 0.8;
inline constexpr std::uint64_t kAdminEvery = 200;
struct RdsTraffic {
  std::vector<std::vector<ConceptId>> pool;
  std::vector<std::string> requests;  // rendered POST /v1/search per entry
  std::vector<std::uint32_t> stream;  // pool indices, in send order
};
RdsTraffic MakeRdsTraffic(const ecdr::corpus::Corpus& corpus,
                          std::uint64_t seed, double zipf = kZipfExponent);

/// SDS traffic, in send order: every corpus document once by id
/// ({"doc":id}) in a seeded order, then kSdsGeneratedQueries generated
/// query documents that are not in the corpus ({"concepts":[..],
/// "mode":"sds"}). No query repeats, so the Ddq memo never serves an SDS
/// search however many requests a run sends; a run that would need more
/// fails instead of wrapping.
inline constexpr std::uint32_t kSdsGeneratedQueries = 8'000;
struct SdsTraffic {
  std::vector<std::vector<ConceptId>> queries;  // query document concepts
  std::vector<std::string> requests;  // rendered POST /v1/search
  std::vector<DocId> corpus_ids;  // queries[i] is this corpus document
};
SdsTraffic MakeSdsTraffic(const ecdr::ontology::Ontology& ontology,
                          const ecdr::corpus::Corpus& corpus,
                          std::uint64_t seed);

/// One operation of the write stream.
struct WriteOp {
  enum class Kind { kAdd, kUpdate, kDelete, kCheckpoint, kCompact, kAddConcept };
  Kind kind = Kind::kAdd;
  DocId doc = 0;          // add: the id the engine must assign
  ConceptId concept_id = 0;  // add_concept: the id the engine must assign
  ConceptId parent = 0;   // add_concept
  std::vector<ConceptId> concepts;  // add/update, sorted and unique
  std::string request;

  bool is_data_write() const {
    return kind == Kind::kAdd || kind == Kind::kUpdate ||
           kind == Kind::kDelete;
  }
};

/// The write_mix writer: add/update/delete at a fixed seeded ratio,
/// a checkpoint and a compaction every `admin_every` data writes (offset
/// by half a period), and an ontology leaf add every 5 * admin_every.
/// Each Next() also applies the operation to a model of the expected
/// corpus, assuming every operation is acknowledged; the stream is the
/// same for a given seed whatever the server answers.
class WriteStream {
 public:
  WriteStream(const ecdr::corpus::Corpus& base, std::uint32_t num_concepts,
              std::uint64_t seed, std::uint64_t admin_every = kAdminEvery);

  const WriteOp& Next();

  /// Expected content of every document id; empty = deleted.
  const std::vector<std::vector<ConceptId>>& docs() const { return docs_; }
  /// Every content a document id has held (original, then each update).
  const std::vector<std::vector<std::vector<ConceptId>>>& versions() const {
    return versions_;
  }
  std::uint64_t data_writes() const { return data_writes_; }
  /// The id the next added concept gets (== expected concept count).
  std::uint32_t next_concept() const { return next_concept_; }

 private:
  std::vector<ConceptId> DrawConcepts();

  Rng rng_;
  std::uint64_t seed_;
  std::uint64_t admin_every_;
  std::vector<ConceptId> concept_pool_;  // concepts occurring in the base
  std::uint32_t next_concept_;
  std::vector<std::vector<ConceptId>> docs_;
  std::vector<std::vector<std::vector<ConceptId>>> versions_;
  std::vector<DocId> live_;        // live ids, unordered
  std::vector<std::uint32_t> slot_;  // id -> index in live_
  std::uint64_t data_writes_ = 0;
  std::uint64_t concepts_added_ = 0;
  std::deque<WriteOp::Kind> pending_admin_;
  WriteOp op_;
};

/// Digest of the first `count` requests each connection stream of
/// `workload` sends for `seed` (the self-test compares these).
std::uint64_t StreamDigest(Workload workload,
                           const ecdr::ontology::Ontology& ontology,
                           const ecdr::corpus::Corpus& corpus,
                           std::uint64_t seed, std::size_t count);

}  // namespace e2ebench

#endif  // ECDR_E2EBENCH_WORKLOADS_H_
