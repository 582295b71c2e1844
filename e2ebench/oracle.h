// Answer checking for the end-to-end benchmark: an independent parser
// for served search responses, expected answers from standalone kNDS
// and ExhaustiveRanker over an engine snapshot, and the write_mix
// final-state checks.

#ifndef ECDR_E2EBENCH_ORACLE_H_
#define ECDR_E2EBENCH_ORACLE_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine_snapshot.h"
#include "core/scored_document.h"
#include "workloads.h"

namespace e2ebench {

using ecdr::core::ScoredDocument;
using Answer = std::vector<ScoredDocument>;

/// Parses {"results":[{"id":..,"distance":..,"error_bound":..},..],
/// "truncated":..,...} with strtod (not the server's JSON code). False
/// on anything else.
bool ParseSearchBody(std::string_view body, Answer* out, bool* truncated);

/// Ids equal, distances and error bounds bit-identical.
bool SameAnswer(const Answer& got, const Answer& want);

/// Expected top-k by standalone kNDS over `snap` (own Drc, no memo, the
/// engine's default error threshold), `threads` lanes.
std::vector<Answer> KndsRdsAnswers(
    const ecdr::core::EngineSnapshot& snap,
    const std::vector<std::vector<ConceptId>>& queries, std::size_t threads);
/// SDS for query documents given by their concepts.
std::vector<Answer> KndsSdsAnswers(
    const ecdr::core::EngineSnapshot& snap,
    const std::vector<std::vector<ConceptId>>& query_docs,
    std::size_t threads);

/// Brute-force references: ExhaustiveRanker over the live documents of
/// `snap`. Empty answer with `ok` false on error.
Answer ExhaustiveRds(const ecdr::core::EngineSnapshot& snap,
                     std::span<const ConceptId> query, std::size_t threads,
                     bool* ok);
Answer ExhaustiveSds(const ecdr::core::EngineSnapshot& snap,
                     std::span<const ConceptId> query_doc, std::size_t threads,
                     bool* ok);

/// Checks a search answered while writes were running: sorted by
/// (distance, id), no error bounds, and each distance equal to Ddq of
/// some content the document held during the run.
bool PlausibleDuringWrites(const ecdr::core::EngineSnapshot& snap,
                           std::span<const ConceptId> query,
                           const Answer& answer, const WriteStream& model);

/// After write_mix: every acknowledged write is visible in `snap` and the
/// ontology has every added concept. Appends what differs to `why`.
bool FinalStateMatches(const ecdr::core::EngineSnapshot& snap,
                       const WriteStream& model, std::string* why);

}  // namespace e2ebench

#endif  // ECDR_E2EBENCH_ORACLE_H_
