// Per-layer probes of the traced run. Each probe calls one module's
// public functions from the benchmark (no tracing inside the program)
// on the workload's own inputs, and reads the counters the module
// already exposes. They run after the served phase, so they never
// perturb the end-to-end numbers.

#ifndef ECDR_E2EBENCH_LAYERS_H_
#define ECDR_E2EBENCH_LAYERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/ranking_engine.h"
#include "oracle.h"
#include "workloads.h"

namespace e2ebench {

/// serve: HttpParser::Feed, json::Parse, and AppendDouble +
/// SerializeResponse, per operation, in microseconds.
struct CodecTimes {
  double http_parse_us = 0.0;
  double json_parse_us = 0.0;
  double json_write_us = 0.0;
};
CodecTimes TimeServeCodec(const std::vector<std::string>& requests,
                          const std::vector<Answer>& responses);

/// core/ranking_engine + core/knds: in-process searches with
/// SearchControl::stats_out, through the call the server makes for each
/// input (FindRelevant; FindSimilar by id or FindSimilarToConcepts for
/// the SDS stream entries at `sds_positions`). Times in ms; counts are
/// means per search.
struct SearchProbe {
  double search_p50_ms = 0.0;
  double traversal_ms = 0.0;  // median KndsStats::traversal_seconds
  double distance_ms = 0.0;   // median KndsStats::distance_seconds
  double levels = 0.0;
  double concept_visits = 0.0;
  double documents_touched = 0.0;
  double drc_calls = 0.0;
  double examined_per_touched = 0.0;  // sum examined / sum touched
  std::size_t searches = 0;
};
SearchProbe ProbeSearches(ecdr::core::RankingEngine* engine,
                          const std::vector<std::vector<ConceptId>>& rds,
                          const SdsTraffic& sds,
                          const std::vector<std::size_t>& sds_positions);

/// core/drc: direct Drc calls on seeded document pairs and (document,
/// query) pairs of the current corpus. build_fraction is the D-Radix
/// build share of the Ddd calls' build + tune time (Drc::Stats).
struct DrcProbe {
  double ddd_us = 0.0;
  double ddq_us = 0.0;
  double build_fraction = 0.0;
};
DrcProbe ProbeDrc(const ecdr::core::EngineSnapshot& snap,
                  const std::vector<std::vector<ConceptId>>& queries,
                  std::uint64_t seed, bool smoke);

/// core/ranking_engine writes, core/snapshot_builder and storage:
/// rounds of direct add/update/delete calls, each round followed by a
/// timed Compact() and Checkpoint(); then ontology leaf adds.
struct WriteProbe {
  double add_ms = 0.0;
  double update_ms = 0.0;
  double delete_ms = 0.0;
  std::uint64_t data_writes = 0;
  std::uint64_t publishes = 0;         // published delta over data writes
  std::uint64_t wal_bytes = 0;         // WAL growth over data writes
  std::uint64_t wal_syncs = 0;         // syncs over data writes
  std::size_t retired_live_max = 0;
  double checkpoint_ms = 0.0;
  double compact_ms = 0.0;
  double evolve_ms = 0.0;
  double readdressed_per_mutation = 0.0;
  bool ok = true;
};
WriteProbe ProbeWrites(ecdr::core::RankingEngine* engine, std::uint64_t seed);

}  // namespace e2ebench

#endif  // ECDR_E2EBENCH_LAYERS_H_
